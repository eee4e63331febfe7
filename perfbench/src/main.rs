//! `perfbench`, the repository's end-to-end and per-layer benchmark.
//!
//! - `perfbench gen --workload W --out DIR` writes the workload's input
//!   circuits to `DIR` as binary AIGER, so that generating them stays
//!   out of the measured process.
//! - `perfbench run --workload W --seed N --seconds S --trace 0|1
//!   --inputs DIR --out DIR` runs the workload's operations in passes
//!   for about `S` seconds, checks every result, and prints one JSON
//!   line last. With `--trace 0` it reports the end-to-end metrics; with
//!   `--trace 1` it alternates untraced and traced passes, reports the
//!   per-layer metrics, and writes the spans to `DIR/spans.csv`.
//!
//! `perfbench/run.py` builds this binary and drives both commands; the
//! metrics are described in `perfbench/README.md`.

mod host;
mod trace;
mod workload;

use accals::{RoundTrace, WindowSpec};
use aig::Aig;
use parkit::ThreadPool;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workload::{FlowOp, Grid, Ops, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => options(&args[1..]).and_then(|o| gen(&o)),
        Some("run") => options(&args[1..]).and_then(|o| run(&o)),
        _ => Err("usage: perfbench gen|run --workload <name> [--key value]...".to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

type Options = BTreeMap<String, String>;

fn options(args: &[String]) -> Result<Options, String> {
    if !args.len().is_multiple_of(2) {
        return Err("options come in `--key value` pairs".into());
    }
    args.chunks(2)
        .map(|kv| match kv[0].strip_prefix("--") {
            Some(k) => Ok((k.to_string(), kv[1].clone())),
            None => Err(format!("expected an option, got {:?}", kv[0])),
        })
        .collect()
}

fn get<T: std::str::FromStr>(o: &Options, key: &str) -> Result<T, String> {
    let raw = o.get(key).ok_or_else(|| format!("missing --{key}"))?;
    raw.parse()
        .map_err(|_| format!("bad value for --{key}: {raw:?}"))
}

fn workload_arg(o: &Options) -> Result<&'static Workload, String> {
    let name: String = get(o, "workload")?;
    Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn gen(o: &Options) -> Result<(), String> {
    let wl = workload_arg(o)?;
    let dir = PathBuf::from(get::<String>(o, "out")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for name in wl.inputs() {
        let g = benchgen::suite::by_name(name).ok_or_else(|| format!("unknown circuit {name}"))?;
        let path = dir.join(format!("{name}.aig"));
        std::fs::write(&path, circuitio::aiger::write_binary(&g))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// One pass over the workload's operations.
struct Pass {
    traced: bool,
    /// Wall time of each operation, in pass order (`None` if it
    /// panicked); in traced passes without the probes.
    walls: Vec<Option<f64>>,
    /// CPU time of the process during the operations.
    cpu_s: f64,
    /// Per-layer values (traced passes only).
    layers: BTreeMap<&'static str, f64>,
}

/// A first result of an operation, evaluated after the passes so that
/// re-measurement and mapping stay out of the timings and the peak RSS.
struct Pending {
    op: (usize, usize),
    cfg: accals::AccalsConfig,
    input: &'static str,
    aig: Aig,
    error: f64,
}

struct Bench {
    wl: &'static Workload,
    seed: u64,
    /// Explicit width of every pool: the host's visible cores.
    width: usize,
    pool: &'static ThreadPool,
    inputs: BTreeMap<&'static str, Vec<u8>>,
    attempted: usize,
    failures: Vec<String>,
    failed_ops: BTreeSet<(usize, usize)>,
    /// First pass's final-circuit AIGER bytes and trajectory hash per
    /// flow or sweep instance.
    reference: BTreeMap<usize, (Vec<u8>, u64)>,
    /// Σ mapped area of the first pass's results and of their inputs.
    area: (f64, f64),
    /// First results awaiting [`Bench::evaluate`].
    pending: Vec<Pending>,
    /// One JSON row per evaluated result.
    rows: Vec<String>,
    setup: BTreeMap<&'static str, Vec<f64>>,
    tracer: Tracer,
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

impl Bench {
    /// Records a failure of operation `op` (pass, index in the pass);
    /// an operation counts once however many checks it fails.
    fn fail(&mut self, op: (usize, usize), what: &str, why: String) {
        eprintln!("perfbench: FAILED {what}: {why}");
        self.failures.push(format!("{what}: {why}"));
        self.failed_ops.insert(op);
    }

    /// Checks a result against the same operation's first result. The
    /// first result itself is kept for [`Bench::evaluate`].
    #[allow(clippy::too_many_arguments)]
    fn check_identity(
        &mut self,
        key: usize,
        op: (usize, usize),
        cfg: accals::AccalsConfig,
        input: &'static str,
        aig: Aig,
        error: f64,
        hash: u64,
    ) -> Result<(), String> {
        let bytes = circuitio::aiger::write_binary(&aig);
        if let Some((b, h)) = self.reference.get(&key) {
            return if *b != bytes || *h != hash {
                Err("final circuit or trajectory differs from the first pass".into())
            } else {
                Ok(())
            };
        }
        self.reference.insert(key, (bytes, hash));
        self.pending.push(Pending {
            op,
            cfg,
            input,
            aig,
            error,
        });
        Ok(())
    }

    /// Re-measures the error of every first result against its bound
    /// and sums the mapped areas, outside all timed spans.
    fn evaluate(&mut self) {
        for p in std::mem::take(&mut self.pending) {
            let golden = workload::parse(&self.inputs[p.input]);
            let (area, golden_area) = (
                workload::mapped_area(&p.aig),
                workload::mapped_area(&golden),
            );
            self.area.0 += area;
            self.area.1 += golden_area;
            self.rows.push(format!(
                "{{\"input\": {}, \"seed\": {}, \"bound\": {}, \"error\": {}, \"ands\": [{}, {}], \"area\": [{}, {}]}}",
                json_str(p.input),
                p.cfg.seed,
                json_num(p.cfg.error_bound),
                json_num(p.error),
                golden.n_ands(),
                p.aig.n_ands(),
                json_num(golden_area),
                json_num(area)
            ));
            if let Err(why) = workload::check_error(&p.cfg, &golden, &p.aig, p.error) {
                self.fail(p.op, p.input, why);
            }
        }
    }

    fn sample_setup(&mut self, input: &'static str, cfg: &accals::AccalsConfig) {
        for _ in 0..self.wl.setup_samples {
            let s =
                workload::sample_setup(&self.inputs[input], cfg, self.pool, self.wl.setup_batch);
            self.setup.entry(input).or_default().push(s);
        }
    }

    /// Setup samples of every input.
    fn sample_inputs(&mut self) {
        for (input, cfg) in self.wl.setup_configs(self.seed) {
            self.sample_setup(input, &cfg);
        }
    }

    fn flow_pass(
        &mut self,
        ops: &'static [FlowOp],
        window: Option<WindowSpec>,
        pass: usize,
        traced: bool,
    ) -> Pass {
        self.tracer.begin_pass(pass);
        let (mut walls, mut cpu) = (Vec::new(), 0.0);
        let mut rounds: Vec<(RoundTrace, f64)> = Vec::new();
        let (mut adopted, mut retried) = (0, 0);
        let seeds = self.wl.seeds;
        let runs = (0..seeds).flat_map(|j| ops.iter().map(move |op| (j, op)));
        for (key, (j, op)) in runs.enumerate() {
            let seed = workload::flow_seed(self.seed, seeds, j);
            let cfg = workload::config(op.metric, op.bound, seed, window, op.max_rounds);
            let tr = traced.then_some(&mut self.tracer);
            let (bytes, pool) = (&self.inputs[op.input], self.pool);
            let cpu0 = host::cpu_seconds();
            let out = catch_unwind(AssertUnwindSafe(|| {
                workload::run_flow(cfg.clone(), bytes, pool, tr)
            }));
            cpu += host::cpu_seconds() - cpu0;
            self.attempted += 1;
            let id = (pass, key);
            walls.push(out.as_ref().ok().map(|run| run.wall.as_secs_f64()));
            match out {
                Err(p) => {
                    self.tracer.close_all();
                    self.fail(id, op.input, format!("panicked: {}", panic_message(p)));
                }
                Ok(run) => {
                    if window.is_some() && run.adopted == 0 {
                        self.fail(id, op.input, "windowed flow adopted no round".into());
                    }
                    let hash = sweep::trajectory_hash(&run.rounds);
                    if let Err(why) = self.check_identity(
                        key,
                        id,
                        cfg.clone(),
                        op.input,
                        run.aig,
                        run.error,
                        hash,
                    ) {
                        self.fail(id, op.input, why);
                    }
                    adopted += run.adopted;
                    retried += run.retried;
                    rounds.extend(run.rounds.into_iter().map(|r| (r, 1.0)));
                }
            }
            if !traced {
                self.sample_setup(op.input, &cfg);
            }
        }
        let n_rounds = rounds.len() as f64;
        self.finish_pass(
            pass,
            traced,
            walls,
            cpu,
            &rounds,
            adopted,
            retried,
            (n_rounds, n_rounds, 1),
        )
    }

    fn sweep_pass(&mut self, grids: &'static [Grid], pass: usize, traced: bool) -> Pass {
        self.tracer.begin_pass(pass);
        let inputs: Vec<&[u8]> = grids
            .iter()
            .map(|g| self.inputs[g.input].as_slice())
            .collect();
        let tr = traced.then_some(&mut self.tracer);
        let (seed, seeds, width) = (self.seed, self.wl.seeds, self.width);
        let cpu0 = host::cpu_seconds();
        let out = catch_unwind(AssertUnwindSafe(|| {
            workload::run_sweep(grids, &inputs, (seed, seeds), width, tr)
        }));
        let cpu = host::cpu_seconds() - cpu0;
        self.attempted += 1;
        let mut wall = None;
        let mut rounds: Vec<(RoundTrace, f64)> = Vec::new();
        let mut cohort_steps = 0.0;
        match out {
            Err(p) => {
                self.tracer.close_all();
                self.fail(
                    (pass, 0),
                    "sweep",
                    format!("panicked: {}", panic_message(p)),
                );
            }
            Ok(run) => {
                wall = Some(run.wall.as_secs_f64());
                for f in &run.result.fronts {
                    if f.front.is_empty() {
                        self.fail(
                            (pass, 0),
                            grids[f.circuit.index()].input,
                            "empty front".into(),
                        );
                    }
                }
                let size: BTreeMap<(usize, usize), usize> =
                    run.cohorts.iter().map(|&(i, r, c)| ((i, r), c)).collect();
                for inst in run.result.instances {
                    let g = &grids[inst.circuit.index()];
                    let cfg =
                        workload::config(inst.metric, inst.error_bound, inst.seed, None, None);
                    let r = inst.result;
                    if let Err(why) = self.check_identity(
                        inst.instance,
                        (pass, 0),
                        cfg,
                        g.input,
                        r.aig,
                        r.error,
                        inst.trajectory_hash,
                    ) {
                        self.fail(
                            (pass, 0),
                            g.input,
                            format!("bound {}: {why}", inst.error_bound),
                        );
                    }
                    for t in r.rounds {
                        let c = size.get(&(inst.instance, t.round)).copied().unwrap_or(1);
                        cohort_steps += 1.0 / c as f64;
                        rounds.push((t, 1.0 / c as f64));
                    }
                }
            }
        }
        if !traced {
            self.sample_inputs();
        }
        let n_rounds = rounds.len() as f64;
        let workers = sweep_widths(self.width, self.wl).0;
        self.finish_pass(
            pass,
            traced,
            vec![wall],
            cpu,
            &rounds,
            0,
            0,
            (n_rounds, cohort_steps, workers),
        )
    }

    /// Packs a pass; traced passes get their per-layer values.
    /// `sweep` is (instance rounds, cohort steps, concurrent steppers).
    #[allow(clippy::too_many_arguments)]
    fn finish_pass(
        &self,
        pass: usize,
        traced: bool,
        walls: Vec<Option<f64>>,
        cpu_s: f64,
        rounds: &[(RoundTrace, f64)],
        adopted: usize,
        retried: usize,
        sweep: (f64, f64, usize),
    ) -> Pass {
        if !traced {
            return Pass {
                traced,
                walls,
                cpu_s,
                layers: BTreeMap::new(),
            };
        }
        let tr = &self.tracer;
        let span = |name| tr.total_ms(pass, name);
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        m.insert("circuitio.parse_ms", span("circuitio.parse"));
        m.insert("bitsim.patterns_ms", span("bitsim.patterns"));
        m.insert("bitsim.golden_sim_ms", span("bitsim.golden_sim"));
        m.insert("accals.flow_new_ms", span("accals.flow_new"));
        m.insert("bitsim.round_sim_ms", span("bitsim.round_sim"));
        let sum = |f: &dyn Fn(&RoundTrace) -> f64, shared: bool| -> f64 {
            rounds
                .iter()
                .map(|(r, share)| f(r) * if shared { *share } else { 1.0 })
                .sum()
        };
        let candgen = sum(&|r| r.candgen_ms, true);
        let mask = sum(&|r| r.mask_ms, true);
        let score = sum(&|r| r.score_ms, true);
        let select = sum(&|r| r.select_ms, false);
        let trial = sum(&|r| r.trial_ms, false);
        let commit = sum(&|r| r.commit_ms, false);
        // Inside `sweep::run` the steps are not the benchmark's calls:
        // there the step time is the span of every concurrent stepper.
        let step = match self.wl.ops {
            Ops::Sweep(_) => sweep.2 as f64 * span("sweep.run"),
            Ops::Flows { .. } => span("accals.step"),
        };
        m.insert("accals.step_ms", step);
        m.insert(
            "accals.untimed_ms",
            step - (candgen + mask + score + select + trial + commit),
        );
        m.insert("lac.candgen_ms", candgen);
        m.insert("estimate.mask_ms", mask);
        m.insert("estimate.score_ms", score);
        m.insert("accals.select_ms", select);
        m.insert("accals.trial_ms", trial);
        m.insert("accals.commit_ms", commit);
        m.insert("lac.candidates", sum(&|r| r.n_candidates as f64, true));
        m.insert(
            "lac.regen_nodes",
            sum(&|r| r.candgen_pool_misses as f64, true),
        );
        let hits = sum(&|r| r.candgen_pool_hits as f64, true);
        m.insert("lac.carry_ratio", ratio(hits, hits + m["lac.regen_nodes"]));
        m.insert(
            "lac.strip_cmps",
            sum(&|r| r.candgen_strip_cmps as f64, true),
        );
        m.insert(
            "lac.probe_draws",
            sum(&|r| r.candgen_probe_draws as f64, true),
        );
        let exact = sum(&|r| r.scored_exact as f64, true);
        let pruned = sum(&|r| r.scored_pruned as f64, true);
        m.insert("estimate.scored_exact", exact);
        m.insert("estimate.prune_ratio", ratio(pruned, exact + pruned));
        let n_rounds = rounds.len() as f64;
        let applied = sum(&|r| r.applied as f64, false);
        m.insert("accals.rounds", n_rounds);
        m.insert("accals.applied_lacs", applied);
        m.insert("accals.lacs_per_round", ratio(applied, n_rounds));
        m.insert(
            "accals.single_mode_rounds",
            sum(&|r| r.single_mode as u8 as f64, false),
        );
        m.insert(
            "accals.reverted_rounds",
            sum(&|r| r.reverted as u8 as f64, false),
        );
        let multi = sum(&|r| (!r.single_mode && !r.reverted) as u8 as f64, false);
        let won = sum(
            &|r| (!r.single_mode && !r.reverted && r.chose_indp) as u8 as f64,
            false,
        );
        m.insert("accals.indp_win_ratio", ratio(won, multi));
        m.insert("accals.adopted_rounds", adopted as f64);
        m.insert("accals.retried_rounds", retried as f64);
        let windowed = sum(&|r| (r.window_targets > 0) as u8 as f64, false);
        m.insert(
            "accals.window_targets",
            ratio(sum(&|r| r.window_targets as f64, false), windowed),
        );
        m.insert("sweep.instance_rounds", sweep.0);
        m.insert("sweep.cohort_steps", sweep.1);
        m.insert("sweep.share_factor", ratio(sweep.0, sweep.1));
        let own = tr.self_ms();
        let residue: f64 = tr
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.pass == pass && s.name.starts_with("op."))
            .map(|(_, o)| o)
            .sum();
        m.insert("trace.residue_ms", residue);
        Pass {
            traced,
            walls,
            cpu_s,
            layers: m,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Sweep workers and intra-flow pool width for `width` threads, by the
/// split `sweep::run` applies: workers first, leftover threads to each
/// instance's pool.
fn sweep_widths(width: usize, wl: &Workload) -> (usize, usize) {
    match wl.ops {
        Ops::Sweep(grids) => {
            let workers = width.min(3 * grids.len() * wl.seeds as usize).max(1);
            (workers, (width / workers).max(1))
        }
        Ops::Flows { .. } => (1, width),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Units of the reported metrics; per-layer names end in their unit.
fn unit(name: &str) -> &'static str {
    match name {
        "wall_s" | "setup_s" | "parkit.cpu_s" => "s",
        "peak_rss_mb" => "MB",
        "area_ratio" | "parkit.cpu_util" => "ratio",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_ratio") || n.ends_with("_factor") => "ratio",
        "accals.lacs_per_round" => "lacs/round",
        _ => "count",
    }
}

fn run(o: &Options) -> Result<(), String> {
    let wl = workload_arg(o)?;
    let seed: u64 = get(o, "seed")?;
    let seconds: f64 = get(o, "seconds")?;
    let traced_run = match get::<u8>(o, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace is 0 or 1, not {t}")),
    };
    let in_dir = PathBuf::from(get::<String>(o, "inputs")?);
    let out_dir = PathBuf::from(get::<String>(o, "out")?);

    let width = host::visible_cores();
    let (workers, inner) = sweep_widths(width, wl);
    // The engine also runs some loops on parkit's global pool; give it
    // the intra-flow width before first use instead of inheriting it
    // from the environment.
    std::env::set_var(parkit::THREADS_ENV, inner.to_string());
    let global = parkit::global().threads();
    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(width)));
    let mut inputs = BTreeMap::new();
    for name in wl.inputs() {
        let path = in_dir.join(format!("{name}.aig"));
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.insert(name, bytes);
    }
    let mut b = Bench {
        wl,
        seed,
        width,
        pool,
        inputs,
        attempted: 0,
        failures: Vec::new(),
        failed_ops: BTreeSet::new(),
        pending: Vec::new(),
        reference: BTreeMap::new(),
        area: (0.0, 0.0),
        rows: Vec::new(),
        setup: BTreeMap::new(),
        tracer: Tracer::new(),
    };

    // Passes until the next one would end more than half a pass after
    // `seconds`, so runs last `seconds` on average; at least two (the
    // cross-pass identity check needs a second). In a traced run
    // untraced and traced passes alternate.
    let start = Instant::now();
    if !traced_run {
        // One discarded setup per input warms it; then a first gap of
        // setup samples.
        for (input, cfg) in wl.setup_configs(seed) {
            workload::sample_setup(&b.inputs[input], &cfg, pool, 1);
        }
        b.sample_inputs();
    }
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let i = passes.len();
        let traced = traced_run && i % 2 == 1;
        let p = match wl.ops {
            Ops::Flows { ops, window } => b.flow_pass(ops, window, i, traced),
            Ops::Sweep(grids) => b.sweep_pass(grids, i, traced),
        };
        passes.push(p);
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= 2 && elapsed + per_pass / 2.0 > seconds {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = host::peak_rss_mb();
    b.evaluate();

    // Each operation's median over the passes, summed: a slow spell of
    // the host then has to hit one operation in most passes to count.
    let wall = |traced: bool| -> f64 {
        let mine: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
        (0..mine[0].walls.len())
            .map(|k| median(&mine.iter().filter_map(|p| p.walls[k]).collect::<Vec<_>>()))
            .sum()
    };
    let wall_s = wall(false);
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut lines: Vec<String> = Vec::new();
    if traced_run {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        for name in traced[0].layers.keys() {
            let v: Vec<f64> = traced.iter().map(|p| p.layers[name]).collect();
            metrics.insert(name.to_string(), median(&v));
        }
        let cpu: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.cpu_s)
            .collect();
        let cpu_s = median(&cpu);
        metrics.insert("parkit.cpu_s".into(), cpu_s);
        metrics.insert("parkit.cpu_util".into(), cpu_s / (wall_s * width as f64));
        let traced_wall = wall(true);
        metrics.insert("trace.overhead_ms".into(), (traced_wall - wall_s) * 1e3);
        lines = summary(&b, &metrics, traced.len(), wall_s, traced_wall);
        let csv = b.tracer.to_csv();
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        std::fs::write(out_dir.join("spans.csv"), csv).map_err(|e| format!("spans.csv: {e}"))?;
        std::fs::write(out_dir.join("summary.txt"), lines.join("\n") + "\n")
            .map_err(|e| format!("summary.txt: {e}"))?;
    } else {
        let setup_s: f64 = b.setup.values().map(|v| median(v)).sum();
        metrics.insert("wall_s".into(), wall_s);
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("area_ratio".into(), b.area.0 / b.area.1);
        metrics.insert("peak_rss_mb".into(), peak_rss_mb);
    }
    for l in &lines {
        println!("{l}");
    }

    let failed = b.failed_ops.len();
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        b.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(unit(k))
            )
        })
        .collect();
    out.push_str(&body.join(", "));
    let _ = write!(
        out,
        "}}, \"detail\": {{\"workload\": {}, \"seed\": {seed}, \"measured_s\": {}, \
         \"passes\": [{}], \"traced\": [{}], \"setup_samples\": {{{}}}, \
         \"host\": {{\"visible_cores\": {width}, \"flow_pool_width\": {}, \"sweep_workers\": {}, \
         \"sweep_inner_pool_width\": {}, \"global_pool_width\": {global}, \"oversubscribed\": {}}}, \
         \"results\": [{}], \"failures\": [{}]}}}}",
        json_str(wl.name),
        json_num(measured_s),
        passes
            .iter()
            .map(|p| json_num(p.walls.iter().flatten().sum()))
            .collect::<Vec<_>>()
            .join(", "),
        passes.iter().map(|p| p.traced.to_string()).collect::<Vec<_>>().join(", "),
        b.setup
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), v.len()))
            .collect::<Vec<_>>()
            .join(", "),
        if matches!(wl.ops, Ops::Flows { .. }) { width } else { 0 },
        if matches!(wl.ops, Ops::Sweep(_)) { workers } else { 0 },
        if matches!(wl.ops, Ops::Sweep(_)) { inner } else { 0 },
        workers * inner.max(global) > width,
        b.rows.join(", "),
        b.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
    );
    println!("{out}");
    Ok(())
}

/// The traced-run summary: span totals with self time, the two sum
/// identities with their residue, and the tracing overhead.
fn summary(
    b: &Bench,
    m: &BTreeMap<String, f64>,
    n_traced: usize,
    wall_s: f64,
    traced_wall: f64,
) -> Vec<String> {
    let spans = b.tracer.spans();
    let own = b.tracer.self_ms();
    let per = n_traced as f64;
    let mut names: Vec<&'static str> = Vec::new();
    let mut total: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (s, o) in spans.iter().zip(&own) {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
        let e = total.entry(s.name).or_default();
        e.0 += s.ms() / per;
        e.1 += o / per;
    }
    let mut lines = vec![
        format!(
            "trace summary: {} seed {}, {n_traced} traced passes (mean per traced pass)",
            b.wl.name, b.seed
        ),
        format!("  {:<22} {:>12} {:>12}", "span", "total_ms", "self_ms"),
    ];
    for n in &names {
        let (t, s) = total[n];
        lines.push(format!("  {n:<22} {t:>12.3} {s:>12.3}"));
    }
    // Phases that the engine timed longer than the step holding them.
    let overfull = spans
        .iter()
        .zip(&own)
        .filter(|(s, o)| s.name == "accals.step" && **o < 0.0)
        .count();
    let phases = m["lac.candgen_ms"]
        + m["estimate.mask_ms"]
        + m["estimate.score_ms"]
        + m["accals.select_ms"]
        + m["accals.trial_ms"]
        + m["accals.commit_ms"];
    lines.push(format!(
        "  step_ms {:.3} = six phases {:.3} + untimed {:.3}; steps whose phases exceed them: {overfull}",
        m["accals.step_ms"], phases, m["accals.untimed_ms"]
    ));
    let op = total
        .get("op.flow")
        .or(total.get("op.sweep"))
        .map_or(0.0, |t| t.0);
    lines.push(format!(
        "  op wall {:.3} ms = setup + steps + probes + residue; residue {:.3} ms ({:.3}% of op)",
        op,
        m["trace.residue_ms"],
        100.0 * ratio(m["trace.residue_ms"], op)
    ));
    lines.push(format!(
        "  tracing overhead: traced wall {:.4} s - untraced wall {:.4} s = {:.3} ms ({:+.2}%), probes excluded",
        traced_wall,
        wall_s,
        m["trace.overhead_ms"],
        100.0 * ratio(traced_wall - wall_s, wall_s)
    ));
    lines
}
