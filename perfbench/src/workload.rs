//! The benchmark's workloads and the operations they run. An operation
//! is one flow from input AIGER bytes to its final circuit, or one
//! `sweep::run` job over a grid of instances.

use crate::trace::{timed, Tracer};
use accals::{AccalsConfig, FlowInstance, RoundTrace, WindowSpec};
use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::MetricKind;
use parkit::ThreadPool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sweep::{SweepEvent, SweepJob, SweepOptions, SweepResult};
use techmap::{Library, MapMode};

/// One standalone flow: input circuit, metric and maximum error.
pub struct FlowOp {
    pub input: &'static str,
    pub metric: MetricKind,
    pub bound: f64,
    /// Round cap for flows too large to run to convergence in a pass.
    pub max_rounds: Option<usize>,
}

/// Instances over one circuit that differ only in their bound.
pub struct Grid {
    pub input: &'static str,
    pub metric: MetricKind,
    pub bounds: [f64; 3],
}

pub enum Ops {
    /// Standalone flows, each driven by a `FlowInstance::step` loop.
    Flows {
        ops: &'static [FlowOp],
        window: Option<WindowSpec>,
    },
    /// One `sweep::run` job holding every grid.
    Sweep(&'static [Grid]),
}

pub struct Workload {
    pub name: &'static str,
    pub ops: Ops,
    /// Flows or grids per input, each with its own seed derived from the
    /// workload seed ([`flow_seed`]). Averaging over seeds steadies the
    /// metrics that depend on the trajectory.
    pub seeds: u64,
    /// Warm setups timed together as one setup sample, so that a sample
    /// lasts milliseconds rather than microseconds.
    pub setup_batch: usize,
    /// Setup samples taken per input in each gap between operations.
    pub setup_samples: usize,
}

/// Steal-victim seed of the sweep job, fixed so that runs differ only
/// in the workload seed.
const STEAL_SEED: u64 = 0x5eed_5eed;

const fn flow(input: &'static str, bound: f64, max_rounds: Option<usize>) -> FlowOp {
    FlowOp {
        input,
        metric: MetricKind::Nmed,
        bound,
        max_rounds,
    }
}

const fn grid(input: &'static str, metric: MetricKind, bounds: [f64; 3]) -> Grid {
    Grid {
        input,
        metric,
        bounds,
    }
}

pub static WORKLOADS: [Workload; 3] = [
    // The paper's main use case: dense NMED flows on small arithmetic,
    // where the bound-pruned top-k scorer does most of the work.
    Workload {
        name: "flow-arith",
        ops: Ops::Flows {
            ops: &[
                flow("mtp8", 0.01, None),
                flow("rca32", 0.02, None),
                flow("cla32", 0.02, None),
            ],
            window: None,
        },
        seeds: 2,
        setup_batch: 16,
        setup_samples: 4,
    },
    // Design-space exploration: the only workload with cohort sharing,
    // work stealing and the ER sparse-scoring path. No single cohort
    // dominates the makespan.
    Workload {
        name: "sweep-grid",
        ops: Ops::Sweep(&[
            grid("alu4", MetricKind::Er, [0.05, 0.1, 0.2]),
            grid("c3540", MetricKind::Er, [0.02, 0.05, 0.1]),
            grid("frg2", MetricKind::Er, [0.05, 0.1, 0.2]),
            grid("apex6", MetricKind::Er, [0.05, 0.1, 0.2]),
            grid("c880", MetricKind::Er, [0.02, 0.05, 0.1]),
            grid("rca32", MetricKind::Mred, [0.01, 0.02, 0.05]),
            grid("ksa32", MetricKind::Mred, [0.01, 0.02, 0.05]),
        ]),
        seeds: 2,
        setup_batch: 16,
        setup_samples: 4,
    },
    // EPFL scale: windowed rounds, where whole-circuit simulate/rebase,
    // transfer masks over large cones and set selection dominate. NMED
    // because under a loose ER bound every mult64 round is discarded.
    Workload {
        name: "window-epfl",
        ops: Ops::Flows {
            ops: &[flow("mult64", 0.01, Some(8)), flow("div64", 0.01, Some(2))],
            window: Some(WindowSpec { max_targets: 512 }),
        },
        seeds: 1,
        setup_batch: 1,
        setup_samples: 3,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The distinct input circuits, in first-use order.
    pub fn inputs(&self) -> Vec<&'static str> {
        self.setup_configs(0).into_iter().map(|(n, _)| n).collect()
    }

    /// Each distinct input with the configuration of its first use.
    pub fn setup_configs(&self, seed: u64) -> Vec<(&'static str, AccalsConfig)> {
        let all: Vec<(&'static str, AccalsConfig)> = match &self.ops {
            Ops::Flows { ops, window } => ops
                .iter()
                .map(|o| {
                    (
                        o.input,
                        config(o.metric, o.bound, seed, *window, o.max_rounds),
                    )
                })
                .collect(),
            Ops::Sweep(grids) => grids
                .iter()
                .map(|g| (g.input, config(g.metric, g.bounds[0], seed, None, None)))
                .collect(),
        };
        let mut seen = Vec::new();
        all.into_iter()
            .filter(|(n, _)| {
                let first = !seen.contains(n);
                seen.push(*n);
                first
            })
            .collect()
    }
}

/// The seed of the `j`-th of `seeds` flows per input: distinct for
/// every (workload seed, `j`), and the workload seed itself when there
/// is one flow per input.
pub fn flow_seed(seed: u64, seeds: u64, j: u64) -> u64 {
    seed.wrapping_mul(seeds).wrapping_add(j)
}

/// The configuration every operation runs with: the paper's defaults,
/// the workload seed, and the workload's window and round cap.
pub fn config(
    metric: MetricKind,
    bound: f64,
    seed: u64,
    window: Option<WindowSpec>,
    max_rounds: Option<usize>,
) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.seed = seed;
    cfg.window = window;
    if let Some(r) = max_rounds {
        cfg.max_rounds = r;
    }
    cfg
}

/// Parses an input written by `perfbench gen`.
pub fn parse(bytes: &[u8]) -> Aig {
    circuitio::aiger::read_binary(bytes).expect("inputs are AIGER files written by `perfbench gen`")
}

fn patterns(golden: &Aig, cfg: &AccalsConfig) -> Patterns {
    Patterns::for_circuit(
        golden.n_pis(),
        cfg.max_exhaustive,
        cfg.n_random_patterns,
        cfg.seed,
    )
}

/// The six timed phases of a round, in execution order.
pub fn phases(r: &RoundTrace) -> [(&'static str, f64); 6] {
    [
        ("lac.candgen", r.candgen_ms),
        ("estimate.mask", r.mask_ms),
        ("estimate.score", r.score_ms),
        ("accals.select", r.select_ms),
        ("accals.trial", r.trial_ms),
        ("accals.commit", r.commit_ms),
    ]
}

/// Seconds per warm setup (parse, patterns, `FlowInstance::new`),
/// averaged over `batch` back-to-back setups.
pub fn sample_setup(
    bytes: &[u8],
    cfg: &AccalsConfig,
    pool: &'static ThreadPool,
    batch: usize,
) -> f64 {
    crate::host::trim_heap();
    let t = Instant::now();
    for _ in 0..batch {
        let golden = parse(black_box(bytes));
        let pats = Arc::new(patterns(&golden, cfg));
        black_box(FlowInstance::new(cfg.clone(), pool, &golden, pats));
    }
    t.elapsed().as_secs_f64() / batch as f64
}

pub struct FlowRun {
    pub aig: Aig,
    pub error: f64,
    pub rounds: Vec<RoundTrace>,
    /// Steps that returned `true` and changed the circuit's AND count
    /// or error.
    pub adopted: usize,
    /// Steps that returned `true` and left both unchanged.
    pub retried: usize,
    /// Input bytes to final circuit, without the traced probes.
    pub wall: Duration,
}

/// Runs one flow. When tracing, records spans around each call and
/// re-runs the golden and per-round simulations as probes.
pub fn run_flow(
    cfg: AccalsConfig,
    bytes: &[u8],
    pool: &'static ThreadPool,
    mut tr: Option<&mut Tracer>,
) -> FlowRun {
    let t0 = Instant::now();
    let op = tr.as_deref_mut().map(|t| t.open("op.flow"));
    let max_rounds = cfg.max_rounds;
    let golden = timed(&mut tr, "circuitio.parse", || parse(bytes));
    let pats = Arc::new(timed(&mut tr, "bitsim.patterns", || {
        patterns(&golden, &cfg)
    }));
    let (mut flow, mut caches) = timed(&mut tr, "accals.flow_new", || {
        FlowInstance::new(cfg, pool, &golden, pats.clone())
    });
    if let Some(t) = tr.as_deref_mut() {
        let id = t.open_probe("bitsim.golden_sim");
        black_box(simulate(&golden, &pats).output_sigs(&golden));
        t.close(id);
    }
    let (mut adopted, mut retried) = (0, 0);
    loop {
        if let Some(t) = tr.as_deref_mut() {
            if !flow.is_finished() && flow.round() < max_rounds {
                let id = t.open_probe("bitsim.round_sim");
                black_box(simulate(flow.current(), &pats));
                t.close(id);
            }
        }
        let before = (flow.current().n_ands(), flow.error().to_bits());
        let n = flow.rounds().len();
        let more = match tr.as_deref_mut() {
            Some(t) => {
                let id = t.open("accals.step");
                let more = flow.step(&mut caches);
                t.close(id);
                if let Some(r) = flow.rounds().get(n) {
                    t.phases(id, &phases(r));
                }
                more
            }
            None => flow.step(&mut caches),
        };
        if !more {
            break;
        }
        if (flow.current().n_ands(), flow.error().to_bits()) == before {
            retried += 1;
        } else {
            adopted += 1;
        }
    }
    let result = flow.into_result();
    let mut wall = t0.elapsed();
    if let (Some(t), Some(op)) = (tr, op) {
        t.close(op);
        wall -= Duration::from_secs_f64(t.probe_ms(op) * 1e-3);
    }
    FlowRun {
        aig: result.aig,
        error: result.error,
        rounds: result.rounds,
        adopted,
        retried,
        wall,
    }
}

pub struct SweepRun {
    pub result: SweepResult,
    /// `(instance, round, cohort_size)` of every `Round` event; traced
    /// passes only.
    pub cohorts: Vec<(usize, usize, usize)>,
    pub wall: Duration,
}

/// Runs the grids, `seeds` times each, as one shared-cache `sweep::run`
/// job on `threads` workers.
pub fn run_sweep(
    grids: &[Grid],
    inputs: &[&[u8]],
    (seed, seeds): (u64, u64),
    threads: usize,
    mut tr: Option<&mut Tracer>,
) -> SweepRun {
    let t0 = Instant::now();
    let op = tr.as_deref_mut().map(|t| t.open("op.sweep"));
    let mut job = SweepJob::new();
    for (g, bytes) in grids.iter().zip(inputs) {
        let golden = timed(&mut tr, "circuitio.parse", || parse(bytes));
        let c = job.add_circuit(golden);
        for j in 0..seeds {
            let cfg = config(g.metric, g.bounds[0], flow_seed(seed, seeds, j), None, None);
            job.add_grid(c, &cfg, &g.bounds);
        }
    }
    let opts = SweepOptions {
        threads,
        share: true,
        steal_seed: STEAL_SEED,
        ..SweepOptions::default()
    };
    let mut cohorts = Vec::new();
    let result = match tr.as_deref_mut() {
        Some(t) => {
            let id = t.open("sweep.run");
            let r = sweep::run_traced(&job, &opts, &mut |ev| {
                if let SweepEvent::Round {
                    instance,
                    round,
                    cohort_size,
                    ..
                } = ev
                {
                    cohorts.push((instance, round, cohort_size));
                }
            });
            t.close(id);
            r
        }
        None => sweep::run(&job, &opts),
    };
    if let (Some(t), Some(op)) = (tr, op) {
        t.close(op);
    }
    SweepRun {
        result,
        cohorts,
        wall: t0.elapsed(),
    }
}

/// Re-measures `result` against `golden` on the flow's own sample and
/// checks both that and the reported error against the bound.
pub fn check_error(
    cfg: &AccalsConfig,
    golden: &Aig,
    result: &Aig,
    reported: f64,
) -> Result<(), String> {
    let measured = errmetrics::measure(cfg.metric, golden, result, &patterns(golden, cfg));
    if measured > cfg.error_bound || reported > cfg.error_bound {
        return Err(format!(
            "error over bound {}: reported {reported}, re-measured {measured}",
            cfg.error_bound
        ));
    }
    if (measured - reported).abs() > 1e-9 * measured.abs().max(1.0) {
        return Err(format!(
            "reported error {reported} but re-measured {measured}"
        ));
    }
    Ok(())
}

/// Mapped area, with the library and mode the CLI reports.
pub fn mapped_area(aig: &Aig) -> f64 {
    techmap::map(aig, &Library::mcnc_mini(), MapMode::Area).area
}
