//! Statistical error metrics for approximate circuits.
//!
//! All metrics are defined over a shared input-pattern sample: the
//! *golden* (original) circuit and the *approximate* circuit are simulated
//! on the same patterns, and the metric compares their output signatures.
//! Outputs are interpreted as an unsigned binary number with output 0 as
//! the least-significant bit (the convention used by the arithmetic
//! benchmark generators).
//!
//! Supported metrics (see [`MetricKind`]):
//!
//! - **ER** — error rate: fraction of patterns with any incorrect output,
//! - **MED / NMED** — (normalized) mean error distance,
//! - **MRED** — mean relative error distance,
//! - **MSE** — mean squared error,
//! - **WCE** — worst-case error distance.
//!
//! Besides the one-shot [`error`] function, the crate provides
//! [`ErrorEval`], an incremental evaluator that re-scores a candidate
//! change from per-output *flip masks* in time proportional to the number
//! of affected patterns — the inner loop of batch LAC evaluation.
//!
//! # Example
//!
//! ```
//! use aig::Aig;
//! use bitsim::{simulate, Patterns};
//! use errmetrics::{error, MetricKind};
//!
//! // Golden: y = a & b. Approximate: y = a.
//! let mut golden = Aig::new("g", 2);
//! let y = golden.and(golden.pi(0), golden.pi(1));
//! golden.add_output(y, "y");
//! let mut approx = Aig::new("a", 2);
//! let ya = approx.pi(0);
//! approx.add_output(ya, "y");
//!
//! let pats = Patterns::exhaustive(2);
//! let gs = simulate(&golden, &pats).output_sigs(&golden);
//! let as_ = simulate(&approx, &pats).output_sigs(&approx);
//! // They differ only on the pattern a=1, b=0: ER = 1/4.
//! assert_eq!(error(MetricKind::Er, &gs, &as_, pats.n_patterns()), 0.25);
//! ```

#![deny(unsafe_code)]

mod eval;
mod kinds;

pub use eval::{BoundedScore, ErrorEval, PAT_CHUNK};
pub use kinds::MetricKind;

use bitsim::{simulate, Patterns, Sim};

/// Computes the error metric between golden and approximate output
/// signatures.
///
/// # Panics
///
/// Panics if the two signature sets disagree in output count or width,
/// or if an arithmetic metric is requested for more than 128 outputs.
pub fn error(kind: MetricKind, golden: &[Vec<u64>], approx: &[Vec<u64>], n_patterns: usize) -> f64 {
    let mut eval = ErrorEval::new(kind, golden, n_patterns);
    eval.rebase(approx);
    eval.current()
}

/// Simulates both circuits on `pats` and computes the metric between
/// them.
///
/// # Panics
///
/// Panics if the circuits disagree in input or output count.
pub fn measure(kind: MetricKind, golden: &aig::Aig, approx: &aig::Aig, pats: &Patterns) -> f64 {
    assert_eq!(golden.n_pis(), approx.n_pis(), "input counts differ");
    assert_eq!(golden.n_pos(), approx.n_pos(), "output counts differ");
    let gs = simulate(golden, pats).output_sigs(golden);
    let as_ = simulate(approx, pats).output_sigs(approx);
    error(kind, &gs, &as_, pats.n_patterns())
}

/// Computes the metric between a golden signature set and an already
/// simulated approximate circuit.
pub fn error_from_sim(kind: MetricKind, golden: &[Vec<u64>], approx: &aig::Aig, sim: &Sim) -> f64 {
    let as_ = sim.output_sigs(approx);
    error(kind, golden, &as_, sim.n_patterns())
}
