//! AccALS: accelerating iterative approximate logic synthesis by
//! selecting multiple local approximate changes (LACs) per round.
//!
//! This crate implements the framework of *Wang et al., "AccALS:
//! Accelerating Approximate Logic Synthesis by Selection of Multiple
//! Local Approximate Changes", DAC 2023* (Algorithm 1):
//!
//! 1. **ObtainTopSet** ([`topset`]) — keep the `r_top` candidates with the
//!    smallest estimated error increases, where `r_top` shrinks as the
//!    circuit error approaches the bound (Eq. (2));
//! 2. **FindSolveLACConf** ([`conflict`]) — build the LAC conflict graph
//!    (same-target and substitute-is-target conflicts) and greedily
//!    extract a light, large conflict-free subset;
//! 3. **SelectIndpLACs** ([`indep`]) — measure pairwise mutual influence
//!    with a structural index (shortest forward distance, or
//!    transitive-fanout overlap), threshold it into a graph, and solve a
//!    maximum-independent-set problem to pick LACs that are likely
//!    mutually independent;
//! 4. race the independent set against an equally sized random set and
//!    keep whichever measures better, with two guard techniques (the
//!    `l_e` single-LAC fallback near the bound, and the `l_d`
//!    negative-set revert).
//!
//! # Example
//!
//! ```
//! use accals::{Accals, AccalsConfig};
//! use errmetrics::MetricKind;
//!
//! let golden = benchgen::multipliers::array_multiplier(4);
//! let cfg = AccalsConfig::new(MetricKind::Er, 0.05);
//! let result = Accals::new(cfg).synthesize(&golden);
//! assert!(result.error <= 0.05);
//! assert!(result.aig.n_ands() < golden.n_ands());
//! ```

pub mod classify;
pub mod conflict;
pub mod indep;
pub mod topset;

mod engine;
mod flow;
mod trace;
mod trial;
pub(crate) mod window;

pub use engine::{step_cohort, step_cohort_faulted, CohortSplit, FlowCaches, FlowInstance};
pub use flow::{Accals, SynthesisResult};
pub use trace::RoundTrace;
pub use trial::{TrialEval, TrialMeasure};

use errmetrics::MetricKind;
use lac::CandidateConfig;
use misolver::MisStrategy;

/// Configuration of windowed (locality-bounded) rounds: each round's
/// candidate generation, mask building, scoring, and trials are
/// restricted to a bounded region of the circuit — per-round work
/// becomes `O(window)` instead of `O(|circuit|)` — while error
/// accounting stays globally exact (every candidate is still scored
/// and measured over the full circuit and sample). See
/// the `window` module and DESIGN.md §14 for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Maximum live AND targets per round window. Circuits at or below
    /// this size run exactly the dense (unwindowed) round, so a window
    /// spanning the whole graph is bit-identical to `window: None`.
    pub max_targets: usize,
}

/// A size parameter that either follows the paper's banding by circuit
/// size or is fixed explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeParam {
    /// Use the paper's bands: `(r_ref, r_sel)` = (100, 20) for circuits
    /// below 600 AIG nodes, (200, 40) below 5000, (400, 80) otherwise.
    Auto,
    /// A fixed value.
    Fixed(usize),
}

impl SizeParam {
    /// Resolves the parameter for a circuit with `n_ands` gates.
    /// `which` selects the banded value: 0 for `r_ref`, 1 for `r_sel`.
    pub fn resolve(self, n_ands: usize, which: usize) -> usize {
        match self {
            SizeParam::Fixed(v) => v,
            SizeParam::Auto => {
                let bands = if n_ands < 600 {
                    (100, 20)
                } else if n_ands < 5000 {
                    (200, 40)
                } else {
                    (400, 80)
                };
                if which == 0 {
                    bands.0
                } else {
                    bands.1
                }
            }
        }
    }
}

/// Configuration for an AccALS run. Defaults follow Section III of the
/// paper: `t_b = 0.5`, `λ = 0.9`, `l_e = 0.9`, `l_d = 0.3`, with
/// `r_ref`/`r_sel` banded by circuit size.
#[derive(Debug, Clone, PartialEq)]
pub struct AccalsConfig {
    /// The statistical error metric to constrain.
    pub metric: MetricKind,
    /// The error bound `e_b` (must be positive).
    pub error_bound: f64,
    /// Mutual-influence threshold `t_b` for the independence graph
    /// (must be in `[0, 1]`).
    pub t_b: f64,
    /// Per-round estimated-error budget factor `λ`.
    pub lambda: f64,
    /// Error fraction `l_e` above which rounds fall back to single-LAC
    /// selection.
    pub l_e: f64,
    /// Relative error difference `l_d` above which a round is classified
    /// as a negative LAC set and reverted.
    pub l_d: f64,
    /// Reference top-set size `r_ref`.
    pub r_ref: SizeParam,
    /// Reference selected-LAC count `r_sel`.
    pub r_sel: SizeParam,
    /// Candidate generation knobs.
    pub candidates: CandidateConfig,
    /// MIS solver strategy for the independence selection.
    pub mis: MisStrategy,
    /// Use exhaustive patterns when `2^n_pis` is at most this.
    pub max_exhaustive: usize,
    /// Number of random patterns otherwise.
    pub n_random_patterns: usize,
    /// Seed for patterns and the random LAC set.
    pub seed: u64,
    /// Hard cap on synthesis rounds (safety net).
    pub max_rounds: usize,
    /// Race the independent set against a random set each round (Lines
    /// 7-12 of Algorithm 1). Disabling this always applies `L_indp`;
    /// used by the ablation experiments.
    pub race_random: bool,
    /// Windowed rounds: restrict each round's candidate targets to a
    /// bounded, rotating region of the circuit ([`WindowSpec`]). `None`
    /// (the default) runs dense rounds over the whole graph. Window
    /// selection is bound-independent, so windowed configurations still
    /// form sweep families.
    pub window: Option<WindowSpec>,
}

impl AccalsConfig {
    /// Creates a configuration with the paper's default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `error_bound <= 0`.
    pub fn new(metric: MetricKind, error_bound: f64) -> Self {
        assert!(error_bound > 0.0, "error bound must be positive");
        AccalsConfig {
            metric,
            error_bound,
            t_b: 0.5,
            lambda: 0.9,
            l_e: 0.9,
            l_d: 0.3,
            r_ref: SizeParam::Auto,
            r_sel: SizeParam::Auto,
            candidates: CandidateConfig::default(),
            mis: MisStrategy::Auto,
            max_exhaustive: 1 << 13,
            n_random_patterns: 1 << 13,
            seed: 0xACC_A15,
            max_rounds: 100_000,
            race_random: true,
            window: None,
        }
    }

    /// Whether two configurations differ only in their error bound.
    ///
    /// Flow instances in the same family traverse identical circuit
    /// prefixes until the bound-dependent selection diverges, so the
    /// sweep engine may share simulation and cache state between them.
    pub fn family_eq(&self, other: &AccalsConfig) -> bool {
        // `validate_config` rejects NaN in every float field but the
        // bound, and ±0.0 compare and behave alike, so `==` is exact
        // once the bound is equalized.
        let other = AccalsConfig {
            error_bound: self.error_bound,
            ..other.clone()
        };
        *self == other
    }
}

/// Validates the invariants every flow entry point relies on.
pub(crate) fn validate_config(cfg: &AccalsConfig) {
    assert!(cfg.error_bound > 0.0, "error bound must be positive");
    assert!((0.0..=1.0).contains(&cfg.l_e), "l_e must be in [0, 1]");
    assert!((0.0..=1.0).contains(&cfg.l_d), "l_d must be in [0, 1]");
    assert!(cfg.lambda > 0.0, "lambda must be positive");
    assert!((0.0..=1.0).contains(&cfg.t_b), "t_b must be in [0, 1]");
    if let Some(w) = cfg.window {
        assert!(w.max_targets > 0, "window max_targets must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_param_bands() {
        assert_eq!(SizeParam::Auto.resolve(300, 0), 100);
        assert_eq!(SizeParam::Auto.resolve(300, 1), 20);
        assert_eq!(SizeParam::Auto.resolve(600, 0), 200);
        assert_eq!(SizeParam::Auto.resolve(4999, 1), 40);
        assert_eq!(SizeParam::Auto.resolve(5000, 0), 400);
        assert_eq!(SizeParam::Auto.resolve(9999, 1), 80);
        assert_eq!(SizeParam::Fixed(7).resolve(5000, 0), 7);
    }

    #[test]
    fn family_eq_ignores_only_the_bound() {
        let base = AccalsConfig::new(MetricKind::Nmed, 0.01);
        let mut other = base.clone();
        other.error_bound = 0.02;
        assert!(base.family_eq(&other) && other.family_eq(&base));
        // Destructuring makes a field added later fail to compile here
        // until it is given a variant below.
        let AccalsConfig {
            metric: _,
            error_bound: _,
            t_b: _,
            lambda: _,
            l_e: _,
            l_d: _,
            r_ref: _,
            r_sel: _,
            candidates: _,
            mis: _,
            max_exhaustive: _,
            n_random_patterns: _,
            seed: _,
            max_rounds: _,
            race_random: _,
            window: _,
        } = &base;
        let variants: [fn(&mut AccalsConfig); 15] = [
            |c| c.metric = MetricKind::Er,
            |c| c.t_b = 0.25,
            |c| c.lambda = 0.5,
            |c| c.l_e = 0.5,
            |c| c.l_d = 0.5,
            |c| c.r_ref = SizeParam::Fixed(7),
            |c| c.r_sel = SizeParam::Fixed(7),
            |c| c.candidates.seed ^= 1,
            |c| c.mis = MisStrategy::Exact,
            |c| c.max_exhaustive += 1,
            |c| c.n_random_patterns += 1,
            |c| c.seed ^= 1,
            |c| c.max_rounds -= 1,
            |c| c.race_random = false,
            |c| c.window = Some(WindowSpec { max_targets: 64 }),
        ];
        for (i, vary) in variants.iter().enumerate() {
            let mut changed = other.clone();
            vary(&mut changed);
            assert!(!base.family_eq(&changed), "variant {i} kept the family");
            assert!(!changed.family_eq(&base), "variant {i} kept the family");
        }
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_bound_rejected() {
        AccalsConfig::new(MetricKind::Er, 0.0);
    }

    #[test]
    #[should_panic(expected = "t_b must be in [0, 1]")]
    fn nan_t_b_rejected() {
        let mut cfg = AccalsConfig::new(MetricKind::Er, 0.05);
        cfg.t_b = f64::NAN;
        validate_config(&cfg);
    }

    #[test]
    #[should_panic(expected = "t_b must be in [0, 1]")]
    fn negative_t_b_rejected() {
        let mut cfg = AccalsConfig::new(MetricKind::Er, 0.05);
        cfg.t_b = -0.1;
        validate_config(&cfg);
    }
}
