//! `accals-cli` — command-line front end for the AccALS reproduction.
//!
//! Subcommands:
//!
//! - `gen --circuit <name> --output <file>`: write a generated benchmark
//!   circuit (AIGER `.aag`/`.aig` or `.blif`, chosen by extension).
//! - `info --input <file>`: print circuit statistics and mapped cost.
//! - `synth --input <file> --metric <er|nmed|mred|med|mse|wce>
//!   --bound <f> [--output <file>] [--flow accals|seals] [--seed <n>]`:
//!   run approximate synthesis and report the result.
//! - `verify --golden <file> --approx <file> [--node-limit <n>]`: compute
//!   the *exact* error rate between two circuits by BDD model counting
//!   (no sampling; practical for small and medium circuits).
//!
//! Examples:
//!
//! ```sh
//! accals-cli gen --circuit mtp8 --output mtp8.aag
//! accals-cli synth --input mtp8.aag --metric er --bound 0.05 --output mtp8_approx.aag
//! accals-cli info --input mtp8_approx.aag
//! ```

use accals::{Accals, AccalsConfig};
use aig::Aig;
use baselines::{Seals, SealsConfig};
use circuitio::{aiger, blif};
use errmetrics::MetricKind;
use std::error::Error;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use techmap::{map, Library, MapMode};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "info" => cmd_info(&args),
        "synth" => cmd_synth(&args),
        "verify" => cmd_verify(&args),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try --help").into()),
    }
}

fn print_usage() {
    println!(
        "accals-cli — approximate logic synthesis (AccALS, DAC 2023 reproduction)\n\n\
         USAGE:\n  \
         accals-cli gen   --circuit <name> --output <file>\n  \
         accals-cli info  --input <file>\n  \
         accals-cli synth --input <file> --metric <er|nmed|mred|med|mse|wce> \
         --bound <f>\n                   [--output <file>] [--flow accals|seals] [--seed <n>]\n  \
         accals-cli verify --golden <file> --approx <file> [--node-limit <n>]\n\n\
         Supported file formats (by extension): .aag (ascii AIGER), .aig \
         (binary AIGER), .blif\n\
         Generator names: alu4 c1908 c3540 c880 cla32 ksa32 mtp8 rca32 wal8 \
         div log2 sin sqrt square alu2 apex6 frg2 term1 cmp16 prio16 bka32 csla32 dad8"
    );
}

fn opt(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required(args: &[String], name: &str) -> Result<String, Box<dyn Error>> {
    opt(args, name).ok_or_else(|| format!("missing required option --{name}").into())
}

fn load(path: &str) -> Result<Aig, Box<dyn Error>> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let g = match ext {
        "aag" => aiger::read_ascii(&fs::read_to_string(path)?)?,
        "aig" => aiger::read_binary(&fs::read(path)?)?,
        "blif" => blif::read(&fs::read_to_string(path)?)?,
        other => return Err(format!("unsupported input extension `.{other}`").into()),
    };
    Ok(g)
}

fn save(g: &Aig, path: &str) -> Result<(), Box<dyn Error>> {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "aag" => fs::write(path, aiger::write_ascii(g))?,
        "aig" => fs::write(path, aiger::write_binary(g))?,
        "blif" => fs::write(path, blif::write(g))?,
        other => return Err(format!("unsupported output extension `.{other}`").into()),
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn Error>> {
    let name = required(args, "circuit")?;
    let output = required(args, "output")?;
    let g = benchgen::suite::by_name(&name)
        .ok_or_else(|| format!("unknown circuit `{name}`; see --help for the list"))?;
    save(&g, &output)?;
    println!(
        "wrote {output}: {} ({} PIs, {} POs, {} AND gates)",
        g.name(),
        g.n_pis(),
        g.n_pos(),
        g.n_ands()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), Box<dyn Error>> {
    let input = required(args, "input")?;
    let g = load(&input)?;
    let lib = Library::mcnc_mini();
    let m = map(&g, &lib, MapMode::Area);
    println!("circuit : {}", g.name());
    println!("inputs  : {}", g.n_pis());
    println!("outputs : {}", g.n_pos());
    println!("gates   : {} AND (AIG)", g.n_ands());
    println!("depth   : {} levels", g.depth()?);
    println!(
        "mapped  : {} cells, area {:.1}, delay {:.1} ({})",
        m.n_gates(),
        m.area,
        m.delay,
        lib.name()
    );
    for (cell, count) in m.cell_histogram() {
        println!("          {cell:>6} x{count}");
    }
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), Box<dyn Error>> {
    let input = required(args, "input")?;
    let metric: MetricKind = required(args, "metric")?.parse()?;
    let bound: f64 = required(args, "bound")?.parse()?;
    if !(bound.is_finite() && bound > 0.0) {
        return Err(format!("--bound must be a finite positive number, got `{bound}`").into());
    }
    let flow = opt(args, "flow").unwrap_or_else(|| "accals".to_string());
    let seed: u64 = opt(args, "seed").map_or(Ok(0xACC_A15), |s| s.parse())?;
    let golden = load(&input)?;
    if golden.n_pos() == 0 {
        return Err(format!("`{input}` has no outputs, so there is no error to bound").into());
    }
    if metric.is_arithmetic() && golden.n_pos() > 128 {
        return Err(format!(
            "--metric {metric} reads the outputs as one integer of at most 128 bits, \
             but `{input}` has {} outputs",
            golden.n_pos()
        )
        .into());
    }
    let lib = Library::mcnc_mini();
    let before = map(&golden, &lib, MapMode::Area);

    let (result_aig, error, n_rounds, runtime) = match flow.as_str() {
        "accals" => {
            let mut cfg = AccalsConfig::new(metric, bound);
            cfg.seed = seed;
            let r = Accals::new(cfg).synthesize(&golden);
            (r.aig, r.error, r.rounds.len(), r.runtime)
        }
        "seals" => {
            let mut cfg = SealsConfig::new(metric, bound);
            cfg.seed = seed;
            let r = Seals::new(cfg).synthesize(&golden);
            (r.aig, r.error, r.rounds, r.runtime)
        }
        other => return Err(format!("unknown flow `{other}` (accals|seals)").into()),
    };

    let after = map(&result_aig, &lib, MapMode::Area);
    println!("flow    : {flow}");
    println!("metric  : {metric} <= {bound}");
    println!("measured: {error:.6}");
    println!("rounds  : {n_rounds} in {runtime:.2?}");
    println!(
        "gates   : {} -> {} ({:.1}%)",
        golden.n_ands(),
        result_aig.n_ands(),
        100.0 * result_aig.n_ands() as f64 / golden.n_ands().max(1) as f64
    );
    println!(
        "area    : {:.1} -> {:.1} ({:.1}%)",
        before.area,
        after.area,
        100.0 * after.area / before.area.max(1e-12)
    );
    println!(
        "delay   : {:.1} -> {:.1} ({:.1}%)",
        before.delay,
        after.delay,
        100.0 * after.delay / before.delay.max(1e-12)
    );
    if let Some(output) = opt(args, "output") {
        save(&result_aig, &output)?;
        println!("wrote   : {output}");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), Box<dyn Error>> {
    let golden = load(&required(args, "golden")?)?;
    let approx = load(&required(args, "approx")?)?;
    let node_limit: usize = opt(args, "node-limit").map_or(Ok(1 << 22), |s| s.parse())?;
    if golden.n_pis() != approx.n_pis() || golden.n_pos() != approx.n_pos() {
        return Err("circuits have different interfaces".into());
    }
    match bdd::exact::error_rate(&golden, &approx, node_limit) {
        Ok(er) => {
            let mh = bdd::exact::mean_hamming(&golden, &approx, node_limit)
                .expect("same budget sufficed once");
            println!("exact error rate   : {er:.9} ({:.6}%)", er * 100.0);
            println!("exact mean hamming : {mh:.9} output bits/pattern");
            if golden.n_pos() <= 96 {
                match bdd::exact::mean_error_distance(&golden, &approx, node_limit) {
                    Ok(med) => println!("exact MED          : {med:.9}"),
                    Err(_) => println!("exact MED          : (skipped: node budget)"),
                }
            }
            Ok(())
        }
        Err(bdd::BddError::NodeLimit(l)) => Err(format!(
            "BDD node limit of {l} exceeded; the circuits are too large for \
             exact verification (raise --node-limit or use sampled metrics)"
        )
        .into()),
        Err(e) => Err(e.into()),
    }
}
