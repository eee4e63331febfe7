//! A windowed round against a dense round at EPFL scale, timed.
//!
//! On `benchgen::epfl` mult64 (41,938 ANDs; ER 0.05, 2,048 patterns,
//! r_ref 100 / r_sel 20), every round bounded to a [`MAX_TARGETS`]
//! window must stay inside it and regenerate candidates for no node
//! outside it, and the median windowed round must run at least
//! [`MIN_SPEEDUP`] times faster than one dense round of the same flow.
//! Both sides are measured here on the same host; nothing is
//! extrapolated. This binary holds a single test, so no other test of
//! it competes for the cores while it times.

use accals::{AccalsConfig, FlowInstance, SizeParam, WindowSpec};
use bitsim::Patterns;
use errmetrics::MetricKind;
use parkit::ThreadPool;
use std::sync::Arc;
use std::time::Instant;

const MAX_TARGETS: usize = 512;
const WINDOWED_STEPS: usize = 5;
const MIN_SPEEDUP: f64 = 10.0;

/// Runs up to `max_steps` rounds and returns each completed round's
/// `FlowInstance::step` wall time in milliseconds, with the flow.
fn timed_steps(
    cfg: AccalsConfig,
    golden: &aig::Aig,
    pool: &'static ThreadPool,
    max_steps: usize,
) -> (Vec<f64>, FlowInstance) {
    let pats = Patterns::for_circuit(
        golden.n_pis(),
        cfg.max_exhaustive,
        cfg.n_random_patterns,
        cfg.seed,
    );
    let (mut flow, mut caches) = FlowInstance::new(cfg, pool, golden, Arc::new(pats));
    let mut step_ms = Vec::new();
    for _ in 0..max_steps {
        let t0 = Instant::now();
        let more = flow.step(&mut caches);
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !more {
            break;
        }
    }
    step_ms.truncate(flow.rounds().len());
    (step_ms, flow)
}

#[test]
fn windowed_round_is_ten_times_cheaper_than_a_dense_round_on_mult64() {
    let golden = benchgen::epfl::by_name("mult64").expect("EPFL instance");
    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(2)));
    let mut cfg = AccalsConfig::new(MetricKind::Er, 0.05);
    cfg.max_exhaustive = 1 << 11;
    cfg.n_random_patterns = 1 << 11;
    cfg.r_ref = SizeParam::Fixed(100);
    cfg.r_sel = SizeParam::Fixed(20);

    let mut windowed = cfg.clone();
    windowed.window = Some(WindowSpec {
        max_targets: MAX_TARGETS,
    });
    let (mut win_ms, flow) = timed_steps(windowed, &golden, pool, WINDOWED_STEPS);
    assert_eq!(
        win_ms.len(),
        WINDOWED_STEPS,
        "the windowed flow stopped early"
    );
    for r in flow.rounds() {
        assert!(
            (1..=MAX_TARGETS).contains(&r.window_targets),
            "round {}: window of {} targets",
            r.round,
            r.window_targets
        );
        assert!(
            r.candgen_pool_misses as usize <= r.window_targets,
            "round {}: regenerated {} nodes for a {}-target window",
            r.round,
            r.candgen_pool_misses,
            r.window_targets
        );
    }
    win_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let win_median = win_ms[win_ms.len() / 2];

    let mut dense = cfg;
    dense.max_rounds = 1;
    let (dense_ms, flow) = timed_steps(dense, &golden, pool, 1);
    assert_eq!(
        flow.rounds()[0].window_targets,
        0,
        "the dense round was windowed"
    );
    let dense_ms = dense_ms[0];

    let speedup = dense_ms / win_median.max(1e-9);
    eprintln!(
        "mult64: dense round {dense_ms:.0} ms, windowed round {win_median:.0} ms -> {speedup:.1}x"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "mult64 windowed round is {speedup:.1}x a dense round \
         ({win_median:.0} ms vs {dense_ms:.0} ms), below {MIN_SPEEDUP}x"
    );
}
