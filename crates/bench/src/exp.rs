//! Shared experiment plumbing: flow runners that attach mapped-cost
//! ratios to synthesis results, the paper's threshold lists, and a tiny
//! command-line argument helper.

use accals::{Accals, AccalsConfig};
use aig::Aig;
use baselines::{Seals, SealsConfig};
use errmetrics::MetricKind;
use std::time::Duration;
use sweep::{SweepJob, SweepOptions};
use techmap::{map, Library, MapMode};

/// The paper's ER thresholds (Section III-B1a): 0.03%, 0.1%, 0.5%, 3%, 5%.
pub const ER_THRESHOLDS: [f64; 5] = [0.0003, 0.001, 0.005, 0.03, 0.05];

/// The paper's NMED thresholds (Section III-B1b).
pub const NMED_THRESHOLDS: [f64; 4] = [0.0000153, 0.0000610, 0.0002441, 0.0019531];

/// The paper's MRED thresholds (same values as NMED).
pub const MRED_THRESHOLDS: [f64; 4] = NMED_THRESHOLDS;

/// Outcome of one synthesis run with mapped-cost ratios attached.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Mapped area of the approximate circuit over the original's.
    pub area_ratio: f64,
    /// Mapped delay ratio.
    pub delay_ratio: f64,
    /// Area-delay-product ratio.
    pub adp_ratio: f64,
    /// Synthesis wall-clock time.
    pub runtime: Duration,
    /// Measured error of the result.
    pub error: f64,
    /// Rounds executed.
    pub rounds: usize,
    /// LACs applied in total.
    pub total_applied: usize,
    /// Fraction of racing rounds won by the independent set (AccALS
    /// only).
    pub lindp_ratio: Option<f64>,
    /// Final AIG gate count.
    pub n_ands: usize,
}

/// Computes `(area, delay)` of `g` under an area-oriented map.
pub fn mapped_cost(g: &Aig, lib: &Library) -> (f64, f64) {
    let m = map(g, lib, MapMode::Area);
    (m.area, m.delay)
}

fn ratios(golden: &Aig, approx: &Aig, lib: &Library) -> (f64, f64, f64) {
    let (a0, d0) = mapped_cost(golden, lib);
    let (a1, d1) = mapped_cost(approx, lib);
    let (ar, dr) = (a1 / a0.max(1e-12), d1 / d0.max(1e-12));
    (ar, dr, ar * dr)
}

/// Runs AccALS with paper-default parameters.
pub fn run_accals(
    golden: &Aig,
    metric: MetricKind,
    bound: f64,
    seed: u64,
    lib: &Library,
) -> FlowOutcome {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.seed = seed;
    let result = Accals::new(cfg).synthesize(golden);
    let (area_ratio, delay_ratio, adp_ratio) = ratios(golden, &result.aig, lib);
    FlowOutcome {
        area_ratio,
        delay_ratio,
        adp_ratio,
        runtime: result.runtime,
        error: result.error,
        rounds: result.rounds.len(),
        total_applied: result.total_applied(),
        lindp_ratio: result.lindp_ratio(),
        n_ands: result.aig.n_ands(),
    }
}

/// Runs AccALS with a caller-tweaked configuration (for ablations).
pub fn run_accals_with(golden: &Aig, cfg: AccalsConfig, lib: &Library) -> FlowOutcome {
    let result = Accals::new(cfg).synthesize(golden);
    let (area_ratio, delay_ratio, adp_ratio) = ratios(golden, &result.aig, lib);
    FlowOutcome {
        area_ratio,
        delay_ratio,
        adp_ratio,
        runtime: result.runtime,
        error: result.error,
        rounds: result.rounds.len(),
        total_applied: result.total_applied(),
        lindp_ratio: result.lindp_ratio(),
        n_ands: result.aig.n_ands(),
    }
}

/// Runs AccALS at a ladder of error bounds over one circuit as a single
/// batched [`sweep`] job — shared initial simulation, cohort execution
/// with cache forking — returning one [`FlowOutcome`] per bound in
/// ladder order. Every outcome's circuit, error, and trajectory are
/// bit-identical to [`run_accals`] at that bound (the sweep determinism
/// contract); only the wall-clock to produce the whole ladder drops.
///
/// Per-ladder-point `runtime` is the instance's own per-round phase
/// total rather than its wall-clock inside the batch: batched wall
/// spans queue waits and sibling work, while the phase total counts a
/// shared cohort round fully in *every* member that rode it — a
/// conservative (never understated) per-point cost.
pub fn run_accals_sweep(
    golden: &Aig,
    metric: MetricKind,
    bounds: &[f64],
    seed: u64,
    lib: &Library,
) -> Vec<FlowOutcome> {
    let mut base = AccalsConfig::new(metric, *bounds.first().expect("nonempty ladder"));
    base.seed = seed;
    let mut job = SweepJob::new();
    let c = job.add_circuit(golden.clone());
    job.add_grid(c, &base, bounds);
    let res = sweep::run(&job, &SweepOptions::default());
    res.instances
        .into_iter()
        .map(|i| {
            let result = i.result;
            let (area_ratio, delay_ratio, adp_ratio) = ratios(golden, &result.aig, lib);
            FlowOutcome {
                area_ratio,
                delay_ratio,
                adp_ratio,
                runtime: Duration::from_secs_f64(
                    result.phase_totals_ms().iter().sum::<f64>() / 1e3,
                ),
                error: result.error,
                rounds: result.rounds.len(),
                total_applied: result.total_applied(),
                lindp_ratio: result.lindp_ratio(),
                n_ands: result.aig.n_ands(),
            }
        })
        .collect()
}

/// Runs the SEALS-style single-selection baseline.
pub fn run_seals(
    golden: &Aig,
    metric: MetricKind,
    bound: f64,
    seed: u64,
    lib: &Library,
) -> FlowOutcome {
    let mut cfg = SealsConfig::new(metric, bound);
    cfg.seed = seed;
    let result = Seals::new(cfg).synthesize(golden);
    let (area_ratio, delay_ratio, adp_ratio) = ratios(golden, &result.aig, lib);
    FlowOutcome {
        area_ratio,
        delay_ratio,
        adp_ratio,
        runtime: result.runtime,
        error: result.error,
        rounds: result.rounds,
        total_applied: result.rounds,
        lindp_ratio: None,
        n_ands: result.aig.n_ands(),
    }
}

/// Reads `--name value` from the command line.
pub fn arg(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Number of repetitions (`--reps N`, default 1; the paper averages 3
/// runs for the small circuits).
pub fn reps() -> usize {
    arg("reps").and_then(|s| s.parse().ok()).unwrap_or(1)
}

/// Optional circuit filter (`--circuits a,b,c`).
pub fn circuit_filter() -> Option<Vec<String>> {
    arg("circuits").map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
}

/// Applies the circuit filter to a name list.
pub fn filtered(names: &[&str]) -> Vec<String> {
    match circuit_filter() {
        Some(keep) => names
            .iter()
            .filter(|n| keep.iter().any(|k| k == *n))
            .map(|n| n.to_string())
            .collect(),
        None => names.iter().map(|n| n.to_string()).collect(),
    }
}

/// Averages a list of outcomes (runtime summed then divided; ratios
/// arithmetic mean, matching the paper's averaging).
pub fn average(outcomes: &[FlowOutcome]) -> FlowOutcome {
    assert!(!outcomes.is_empty(), "cannot average zero outcomes");
    let n = outcomes.len() as f64;
    let sum_f = |f: fn(&FlowOutcome) -> f64| outcomes.iter().map(f).sum::<f64>() / n;
    FlowOutcome {
        area_ratio: sum_f(|o| o.area_ratio),
        delay_ratio: sum_f(|o| o.delay_ratio),
        adp_ratio: sum_f(|o| o.adp_ratio),
        runtime: Duration::from_secs_f64(
            outcomes
                .iter()
                .map(|o| o.runtime.as_secs_f64())
                .sum::<f64>()
                / n,
        ),
        error: sum_f(|o| o.error),
        rounds: (outcomes.iter().map(|o| o.rounds).sum::<usize>() as f64 / n).round() as usize,
        total_applied: (outcomes.iter().map(|o| o.total_applied).sum::<usize>() as f64 / n).round()
            as usize,
        lindp_ratio: {
            let vals: Vec<f64> = outcomes.iter().filter_map(|o| o.lindp_ratio).collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        },
        n_ands: (outcomes.iter().map(|o| o.n_ands).sum::<usize>() as f64 / n).round() as usize,
    }
}
