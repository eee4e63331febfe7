//! Soak runner for the differential fuzzer.
//!
//! ```text
//! fuzzkit [--seed 0xHEX] [--iters N] [--fault NAME]
//!         [--repro '<line>'] [--smoke] [--quiet]
//! ```
//!
//! `--fault` takes a [`Fault::name`]; `--help` lists them.
//!
//! Without `--repro`, runs `--iters` randomized cases from the seed
//! stream; on the first oracle violation the case is shrunk and the
//! one-line repro printed, and the process exits nonzero. With
//! `--repro`, replays exactly one case from its repro line. `--smoke`
//! is the fixed CI configuration (pinned seed, small iteration count);
//! it also fails unless its top-k checks reached all three scoring
//! kernels (the integer word kernel, the per-pattern fold, and the
//! exact ER/WCE scorers), and unless the integer-word checks scored
//! both a full strip of consecutive deviating words and a full strip
//! with a gap (see [`errmetrics::full_strips_consecutive`]). Every run
//! prints the kernel instance the host's CPU selected
//! (`aig::dispatch::level`).

use std::process::ExitCode;

use fuzzkit::{run_case, shrink, Fault, FuzzCase};

const SMOKE_SEED: u64 = 0xacca15;
const SMOKE_ITERS: u64 = 100;

struct Args {
    seed: u64,
    iters: u64,
    fault: Fault,
    repro: Option<String>,
    quiet: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: SMOKE_SEED,
        iters: 200,
        fault: Fault::None,
        repro: None,
        quiet: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                let v = v.strip_prefix("0x").unwrap_or(&v);
                args.seed = u64::from_str_radix(v, 16).map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--iters" => {
                args.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?;
            }
            "--fault" => args.fault = value("--fault")?.parse()?,
            "--repro" => args.repro = Some(value("--repro")?),
            "--smoke" => {
                args.seed = SMOKE_SEED;
                args.iters = SMOKE_ITERS;
                args.smoke = true;
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: fuzzkit [--seed 0xHEX] [--iters N] [--fault {}] \
                     [--repro '<line>'] [--smoke] [--quiet]",
                    Fault::ALL.map(Fault::name).join("|")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzzkit: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(line) = &args.repro {
        let case: FuzzCase = match line.parse() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fuzzkit: {e}");
                return ExitCode::from(2);
            }
        };
        return match run_case(&case) {
            Ok(stats) => {
                println!("repro passed: {stats:?}");
                ExitCode::SUCCESS
            }
            Err(f) => {
                println!("{f}");
                ExitCode::FAILURE
            }
        };
    }

    let mut ran = 0u64;
    let (mut word_kernel, mut pattern_kernel, mut exact) = (0usize, 0usize, 0usize);
    let (mut consecutive, mut gapped) = (0usize, 0usize);
    let failure = fuzzkit::soak(args.seed, args.iters, args.fault, |i, outcome| {
        ran = i + 1;
        if let Ok(stats) = outcome {
            word_kernel += stats.topk_word_kernel;
            consecutive += stats.topk_word_consecutive_strips;
            gapped += stats.topk_word_gapped_strips;
            pattern_kernel += stats.topk_pattern_kernel;
            exact += stats.topk_exact;
            if !args.quiet && (i + 1) % 50 == 0 {
                println!("  ... {} cases clean", i + 1);
            }
        }
    });
    match failure {
        None => {
            println!(
                "fuzzkit: {ran} cases clean (seed {:#x}, fault {:?})",
                args.seed, args.fault
            );
            println!(
                "fuzzkit: top-k checks by scoring kernel: {word_kernel} integer word \
                 ({consecutive} with consecutive strips, {gapped} with gapped strips), \
                 {pattern_kernel} per-pattern, \
                 {exact} exact (ER/WCE); kernel instance {}",
                aig::dispatch::level()
            );
            if args.smoke && (word_kernel == 0 || pattern_kernel == 0 || exact == 0) {
                println!("fuzzkit: the smoke run must reach all three top-k scoring kernels");
                return ExitCode::FAILURE;
            }
            if args.smoke && (consecutive == 0 || gapped == 0) {
                println!(
                    "fuzzkit: the smoke run must score consecutive and gapped strips \
                     on the word kernel"
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some(f) => {
            println!("fuzzkit: failure at case {}:\n{f}", ran.saturating_sub(1));
            println!("shrinking...");
            let r = shrink(&f.case, 200);
            println!(
                "shrunk after {} runs (oracle `{}`):\n  {}",
                r.runs, r.failure.oracle, r.case
            );
            ExitCode::FAILURE
        }
    }
}
