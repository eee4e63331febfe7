//! End-to-end integration tests: the full AccALS flow over generated
//! benchmark circuits, with invariants checked across crate boundaries.

use accals::{Accals, AccalsConfig, SizeParam};
use bitsim::Patterns;
use errmetrics::{measure, MetricKind};
use techmap::{map, Library, MapMode};

fn quick_cfg(metric: MetricKind, bound: f64) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.r_ref = SizeParam::Fixed(60);
    cfg.r_sel = SizeParam::Fixed(12);
    cfg
}

#[test]
fn full_flow_on_multiplier_under_er() {
    let golden = benchgen::suite::by_name("mtp8").expect("suite circuit");
    let result = Accals::new(quick_cfg(MetricKind::Er, 0.03)).synthesize(&golden);

    // Bound respected, independently re-measured.
    let pats = Patterns::for_circuit(golden.n_pis(), 1 << 13, 1 << 13, 0xACC_A15);
    let e = measure(MetricKind::Er, &golden, &result.aig, &pats);
    assert!(e <= 0.03, "measured ER {e}");
    assert!((e - result.error).abs() < 1e-12);

    // Area reduced, interface preserved.
    assert!(result.aig.n_ands() < golden.n_ands());
    assert_eq!(result.aig.n_pis(), golden.n_pis());
    assert_eq!(result.aig.n_pos(), golden.n_pos());
}

#[test]
fn synthesized_circuit_survives_mapping_and_io() {
    let golden = benchgen::adders::cla(8, 4);
    let result = Accals::new(quick_cfg(MetricKind::Nmed, 0.002)).synthesize(&golden);

    // Technology mapping preserves the approximate function.
    let lib = Library::mcnc_mini();
    let mapping = map(&result.aig, &lib, MapMode::Area);
    for s in 0..200u64 {
        let ins: Vec<bool> = (0..golden.n_pis())
            .map(|i| (s.wrapping_mul(0x9e3779b97f4a7c15) >> (i % 61)) & 1 == 1)
            .collect();
        assert_eq!(mapping.simulate(&ins), result.aig.eval(&ins), "sample {s}");
    }

    // AIGER round trip preserves it too.
    let text = circuitio::aiger::write_ascii(&result.aig);
    let back = circuitio::aiger::read_ascii(&text).expect("own output parses");
    for s in 0..100u64 {
        let ins: Vec<bool> = (0..golden.n_pis())
            .map(|i| (s.wrapping_mul(0xda3e39cb94b95bdb) >> (i % 59)) & 1 == 1)
            .collect();
        assert_eq!(back.eval(&ins), result.aig.eval(&ins));
    }
}

#[test]
fn approximation_error_is_monotone_in_the_bound() {
    let golden = benchgen::divsqrt::square(8);
    let mut last_ands = usize::MAX;
    for bound in [0.001, 0.01, 0.05] {
        let result = Accals::new(quick_cfg(MetricKind::Er, bound)).synthesize(&golden);
        assert!(result.error <= bound);
        assert!(
            result.aig.n_ands() <= last_ands,
            "looser bound must not grow the circuit"
        );
        last_ands = result.aig.n_ands();
    }
}

#[test]
fn flow_handles_every_error_metric() {
    let golden = benchgen::multipliers::array_multiplier(4);
    for (metric, bound) in [
        (MetricKind::Er, 0.05),
        (MetricKind::Med, 0.5),
        (MetricKind::Nmed, 0.002),
        (MetricKind::Mred, 0.002),
        (MetricKind::Mse, 2.0),
        (MetricKind::Wce, 8.0),
    ] {
        let result = Accals::new(quick_cfg(metric, bound)).synthesize(&golden);
        assert!(
            result.error <= bound,
            "{metric}: error {} over bound {bound}",
            result.error
        );
    }
}

#[test]
fn control_circuits_work_under_er() {
    for name in ["c880", "term1"] {
        let golden = benchgen::suite::by_name(name).expect("suite circuit");
        let result = Accals::new(quick_cfg(MetricKind::Er, 0.02)).synthesize(&golden);
        assert!(result.error <= 0.02, "{name}");
        assert!(result.aig.n_ands() <= golden.n_ands(), "{name}");
    }
}

#[test]
fn traces_tell_a_consistent_story() {
    let golden = benchgen::suite::by_name("wal8").expect("suite circuit");
    let result = Accals::new(quick_cfg(MetricKind::Er, 0.05)).synthesize(&golden);
    assert!(!result.rounds.is_empty());
    let mut prev_e = 0.0;
    for t in &result.rounds {
        assert!(
            t.e_before >= prev_e - 1e-12,
            "accepted error never regresses"
        );
        assert!(t.n_indp <= t.n_sol && t.n_sol <= t.r_top);
        if !t.single_mode {
            assert!(t.n_rand <= t.n_sol);
        }
        if t.e_after <= 0.05 {
            prev_e = t.e_after;
        }
    }
    assert_eq!(
        result.total_applied(),
        result.rounds.iter().map(|t| t.applied).sum::<usize>()
    );
}

#[test]
fn synthesis_under_a_biased_input_distribution() {
    // The framework supports any input distribution (Section I): under
    // a heavily biased distribution, more of the circuit is effectively
    // unused, so the same ER bound buys at least as much reduction.
    let golden = benchgen::multipliers::array_multiplier(4);
    let probs: Vec<f64> = (0..8).map(|i| if i < 4 { 0.5 } else { 0.08 }).collect();
    let biased = bitsim::Patterns::biased(8, 1 << 13, &probs, 0xACC_A15);

    let engine = Accals::new(quick_cfg(MetricKind::Er, 0.02));
    let uniform_result = engine.synthesize(&golden);
    let biased_result = engine.synthesize_with_patterns(&golden, &biased);

    assert!(biased_result.error <= 0.02);
    assert!(
        biased_result.aig.n_ands() <= uniform_result.aig.n_ands(),
        "biased inputs should allow at least as much reduction: {} vs {}",
        biased_result.aig.n_ands(),
        uniform_result.aig.n_ands()
    );
    // And the result really does meet the bound under that distribution.
    let e = {
        let gs = bitsim::simulate(&golden, &biased).output_sigs(&golden);
        let as_ = bitsim::simulate(&biased_result.aig, &biased).output_sigs(&biased_result.aig);
        errmetrics::error(MetricKind::Er, &gs, &as_, biased.n_patterns())
    };
    assert!(e <= 0.02);
}

#[test]
fn ternary_resubstitution_extension_works_end_to_end() {
    // The three-input LAC family (an ALSRAC extension beyond the
    // paper's two-input setup) must compose with the whole flow.
    let golden = benchgen::multipliers::wallace_multiplier(4);
    let mut cfg = quick_cfg(MetricKind::Er, 0.05);
    cfg.candidates.ternaries = true;
    let result = Accals::new(cfg).synthesize(&golden);
    assert!(result.error <= 0.05);
    assert!(result.aig.n_ands() < golden.n_ands());
    // The result still verifies against an independent measurement.
    let pats = Patterns::for_circuit(golden.n_pis(), 1 << 13, 1 << 13, 0xACC_A15);
    let e = measure(MetricKind::Er, &golden, &result.aig, &pats);
    assert!((e - result.error).abs() < 1e-12);
}

#[test]
fn bdd_exactly_verifies_a_synthesized_circuit() {
    // For a circuit small enough for exhaustive patterns, the flow's
    // sampled error *is* the true error; BDD model counting must agree
    // bit-for-bit.
    let golden = benchgen::multipliers::array_multiplier(4); // 8 inputs
    let result = Accals::new(quick_cfg(MetricKind::Er, 0.04)).synthesize(&golden);
    let exact = bdd::exact::error_rate(&golden, &result.aig, 1 << 20)
        .expect("small circuit fits the node budget");
    assert!(
        (exact - result.error).abs() < 1e-12,
        "sampled {} vs exact {}",
        result.error,
        exact
    );
    assert!(exact <= 0.04);
}
