use crate::engine::FlowInstance;
use crate::trace::RoundTrace;
use crate::AccalsConfig;
use aig::Aig;
use bitsim::Patterns;
use parkit::ThreadPool;
use std::sync::Arc;
use std::time::Duration;

/// The AccALS synthesis engine. Construct with a configuration, then
/// call [`Accals::synthesize`].
#[derive(Debug, Clone)]
pub struct Accals {
    cfg: AccalsConfig,
    pool: &'static ThreadPool,
}

/// The outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The final approximate circuit (error within the bound).
    pub aig: Aig,
    /// The measured error of `aig` on the shared sample.
    pub error: f64,
    /// Per-round diagnostics.
    pub rounds: Vec<RoundTrace>,
    /// Wall-clock synthesis time.
    pub runtime: Duration,
    /// Gate count of the input circuit.
    pub initial_ands: usize,
    /// Number of simulation patterns used.
    pub n_patterns: usize,
}

impl SynthesisResult {
    /// Fraction of multi-LAC rounds in which the independent set won the
    /// race against the random set (the `L_indp` ratio of Fig. 4).
    /// Returns `None` if no multi-LAC round was run.
    pub fn lindp_ratio(&self) -> Option<f64> {
        let multi: Vec<&RoundTrace> = self
            .rounds
            .iter()
            .filter(|r| !r.single_mode && !r.reverted)
            .collect();
        if multi.is_empty() {
            None
        } else {
            Some(multi.iter().filter(|r| r.chose_indp).count() as f64 / multi.len() as f64)
        }
    }

    /// Total LACs applied across all rounds.
    pub fn total_applied(&self) -> usize {
        self.rounds.iter().map(|r| r.applied).sum()
    }

    /// Per-phase wall-clock summed across rounds, in milliseconds:
    /// `[candgen, mask, score, select, trial, commit]`.
    pub fn phase_totals_ms(&self) -> [f64; 6] {
        let mut t = [0.0; 6];
        for r in &self.rounds {
            t[0] += r.candgen_ms;
            t[1] += r.mask_ms;
            t[2] += r.score_ms;
            t[3] += r.select_ms;
            t[4] += r.trial_ms;
            t[5] += r.commit_ms;
        }
        t
    }

    /// A one-paragraph human-readable summary of the run.
    pub fn summary(&self) -> String {
        let p = self.phase_totals_ms();
        format!(
            "{}: {} -> {} AND gates ({:.1}%), error {:.6}, {} LACs over {} rounds in {:.2?} \
             (phase ms: candgen {:.0}, mask {:.0}, score {:.0}, select {:.0}, trial {:.0}, commit {:.0}){}",
            self.aig.name(),
            self.initial_ands,
            self.aig.n_ands(),
            100.0 * self.aig.n_ands() as f64 / self.initial_ands.max(1) as f64,
            self.error,
            self.total_applied(),
            self.rounds.len(),
            self.runtime,
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            p[5],
            match self.lindp_ratio() {
                Some(r) => format!(", L_indp ratio {r:.2}"),
                None => String::new(),
            }
        )
    }
}

impl Accals {
    /// Creates the engine.
    ///
    /// # Panics
    ///
    /// Panics if a configuration parameter is out of range.
    pub fn new(cfg: AccalsConfig) -> Self {
        crate::validate_config(&cfg);
        Accals {
            cfg,
            pool: parkit::global(),
        }
    }

    /// Uses `pool` for speculative trial races instead of the global
    /// thread pool. The synthesized circuit is identical at any thread
    /// count; only the wall-clock changes.
    pub fn with_pool(mut self, pool: &'static ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AccalsConfig {
        &self.cfg
    }

    /// Runs Algorithm 1 on `golden`, returning an approximate circuit
    /// whose measured error does not exceed the bound.
    ///
    /// # Panics
    ///
    /// Panics if `golden` has no outputs, is cyclic, or has more than
    /// 128 outputs under an arithmetic metric.
    pub fn synthesize(&self, golden: &Aig) -> SynthesisResult {
        let pats = Patterns::for_circuit(
            golden.n_pis(),
            self.cfg.max_exhaustive,
            self.cfg.n_random_patterns,
            self.cfg.seed,
        );
        self.synthesize_with_patterns(golden, &pats)
    }

    /// Like [`Accals::synthesize`], but with a caller-provided input
    /// pattern set — e.g. [`bitsim::Patterns::biased`] for a non-uniform
    /// input distribution, or application traces packed into patterns.
    /// All error measurements are taken over this distribution.
    ///
    /// # Panics
    ///
    /// Panics if `pats` does not cover `golden.n_pis()` inputs, and in
    /// the cases [`Accals::synthesize`] lists.
    pub fn synthesize_with_patterns(&self, golden: &Aig, pats: &Patterns) -> SynthesisResult {
        let (mut flow, mut caches) =
            FlowInstance::new(self.cfg.clone(), self.pool, golden, Arc::new(pats.clone()));
        while flow.step(&mut caches) {}
        flow.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizeParam;
    use errmetrics::MetricKind;

    fn quick_cfg(metric: MetricKind, bound: f64) -> AccalsConfig {
        let mut cfg = AccalsConfig::new(metric, bound);
        cfg.r_ref = SizeParam::Fixed(40);
        cfg.r_sel = SizeParam::Fixed(8);
        cfg
    }

    #[test]
    fn synthesis_respects_er_bound_and_reduces_area() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let result = Accals::new(quick_cfg(MetricKind::Er, 0.05)).synthesize(&golden);
        assert!(result.error <= 0.05, "error {} over bound", result.error);
        assert!(
            result.aig.n_ands() < golden.n_ands(),
            "area must shrink: {} -> {}",
            golden.n_ands(),
            result.aig.n_ands()
        );
        assert!(!result.rounds.is_empty());
        // Verify the reported error against an independent measurement.
        let pats = Patterns::for_circuit(golden.n_pis(), 1 << 13, 1 << 13, 0xACC_A15);
        let measured = errmetrics::measure(MetricKind::Er, &golden, &result.aig, &pats);
        assert!((measured - result.error).abs() < 1e-12);
    }

    #[test]
    fn synthesis_respects_nmed_bound() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let bound = 0.002;
        let result = Accals::new(quick_cfg(MetricKind::Nmed, bound)).synthesize(&golden);
        assert!(result.error <= bound);
        assert!(result.aig.n_ands() < golden.n_ands());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let golden = benchgen::adders::ksa(8);
        let a = Accals::new(quick_cfg(MetricKind::Er, 0.1)).synthesize(&golden);
        let b = Accals::new(quick_cfg(MetricKind::Er, 0.1)).synthesize(&golden);
        assert_eq!(a.error, b.error);
        assert_eq!(a.aig.n_ands(), b.aig.n_ands());
        assert_eq!(a.rounds.len(), b.rounds.len());
    }

    #[test]
    fn io_shape_is_preserved() {
        let golden = benchgen::adders::rca(6);
        let result = Accals::new(quick_cfg(MetricKind::Er, 0.1)).synthesize(&golden);
        assert_eq!(result.aig.n_pis(), golden.n_pis());
        assert_eq!(result.aig.n_pos(), golden.n_pos());
    }

    #[test]
    fn larger_bound_allows_more_reduction() {
        let golden = benchgen::multipliers::wallace_multiplier(4);
        let tight = Accals::new(quick_cfg(MetricKind::Er, 0.005)).synthesize(&golden);
        let loose = Accals::new(quick_cfg(MetricKind::Er, 0.2)).synthesize(&golden);
        assert!(
            loose.aig.n_ands() <= tight.aig.n_ands(),
            "loose bound should reduce at least as much: {} vs {}",
            loose.aig.n_ands(),
            tight.aig.n_ands()
        );
    }

    #[test]
    fn summary_and_trace_csv_are_well_formed() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let result = Accals::new(quick_cfg(MetricKind::Er, 0.05)).synthesize(&golden);
        let summary = result.summary();
        assert!(summary.contains("AND gates"));
        assert!(summary.contains("rounds"));
    }

    fn trace(round: usize, single_mode: bool, chose_indp: bool, reverted: bool) -> RoundTrace {
        RoundTrace {
            round,
            single_mode,
            chose_indp,
            reverted,
            candgen_ms: 1.0,
            mask_ms: 2.0,
            score_ms: 3.0,
            select_ms: 4.0,
            trial_ms: 5.0,
            commit_ms: 6.0,
            ..RoundTrace::default()
        }
    }

    fn synthetic_result(rounds: Vec<RoundTrace>) -> SynthesisResult {
        let mut g = Aig::new("synthetic", 2);
        let y = g.and(g.pi(0), g.pi(1));
        g.add_output(y, "y");
        SynthesisResult {
            aig: g,
            error: 0.02,
            rounds,
            runtime: Duration::from_millis(12),
            initial_ands: 4,
            n_patterns: 64,
        }
    }

    #[test]
    fn summary_is_a_single_clean_line() {
        let result = synthetic_result(vec![trace(0, false, true, false)]);
        let summary = result.summary();
        assert!(
            summary.starts_with("synthetic: 4 -> 1 AND gates"),
            "{summary}"
        );
        assert!(summary.contains("error 0.020000"), "{summary}");
        assert!(
            summary.contains("phase ms: candgen 1, mask 2, score 3, select 4, trial 5, commit 6"),
            "{summary}"
        );
        assert!(summary.contains("L_indp ratio 1.00"), "{summary}");
        assert!(!summary.contains('\n'), "{summary}");
        assert!(!summary.contains("  "), "double space: {summary}");
        // Single-mode-only runs omit the ratio clause.
        let single = synthetic_result(vec![trace(0, true, false, false)]);
        assert!(!single.summary().contains("L_indp"), "{}", single.summary());
    }

    #[test]
    fn lindp_ratio_counts_only_accepted_multi_rounds() {
        // No rounds at all, or only single-mode / reverted rounds: None.
        assert_eq!(synthetic_result(Vec::new()).lindp_ratio(), None);
        let skewed = synthetic_result(vec![
            trace(0, true, false, false),
            trace(1, false, true, true),
        ]);
        assert_eq!(skewed.lindp_ratio(), None);
        // Two accepted multi rounds (one indp win, one random win), plus a
        // reverted multi round and a single round that must not count.
        let mixed = synthetic_result(vec![
            trace(0, false, true, false),
            trace(1, false, false, false),
            trace(2, false, true, true),
            trace(3, true, false, false),
        ]);
        assert_eq!(mixed.lindp_ratio(), Some(0.5));
    }

    #[test]
    fn trace_accounting_is_consistent() {
        let golden = benchgen::adders::cla(8, 4);
        let result = Accals::new(quick_cfg(MetricKind::Er, 0.05)).synthesize(&golden);
        for t in &result.rounds {
            assert!(t.n_sol <= t.r_top);
            assert!(t.n_indp <= t.n_sol);
            assert!(t.applied + t.dropped_cycle <= t.n_indp.max(t.n_rand).max(1));
            assert!(t.e_after >= 0.0);
        }
        // Error increases weakly along accepted rounds.
        for w in result.rounds.windows(2) {
            if w[1].e_after <= result.error {
                assert!(w[1].e_before >= w[0].e_before - 1e-12);
            }
        }
    }
}
