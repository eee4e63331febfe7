//! Whole-flow identity of the production engine against the reference.
//!
//! The production round pipeline — candidate store, top-k pruned
//! scoring, incremental trials, a standalone flow stepped as a cohort
//! of one — must walk exactly the trajectory of
//! `fuzzkit::reference::synthesize`, the dense flow that regenerates,
//! rescores and re-simulates everything every round: the same rounds,
//! selections, errors (to the bit) and final circuit, at any pool width.

use accals::{AccalsConfig, SizeParam};
use errmetrics::MetricKind;
use fuzzkit::reference;
use parkit::ThreadPool;

fn leaked_pool(threads: usize) -> &'static ThreadPool {
    Box::leak(Box::new(ThreadPool::new(threads)))
}

#[test]
fn top_k_scoring_synthesizes_identical_circuits() {
    let golden = benchgen::multipliers::array_multiplier(4);
    let pools = [1, 2, 8].map(leaked_pool);
    for (metric, bound) in [(MetricKind::Nmed, 0.002), (MetricKind::Er, 0.05)] {
        let mut cfg = AccalsConfig::new(metric, bound);
        cfg.r_ref = SizeParam::Fixed(40);
        cfg.r_sel = SizeParam::Fixed(8);
        if let Err(d) = reference::compare(&cfg, &golden, &pools) {
            panic!("{metric} {bound}: production diverged from the reference at {d}");
        }
    }
}

#[test]
fn production_matches_reference_across_threads() {
    // Paper-default parameters (banded `r_ref`/`r_sel`) on circuits and
    // bounds that run long enough to reach both selection modes.
    let pools = [1, 2, 4].map(leaked_pool);
    let cases = [
        (
            "mtp4",
            benchgen::multipliers::array_multiplier(4),
            MetricKind::Nmed,
            0.005,
        ),
        (
            "wal8",
            benchgen::suite::by_name("wal8").unwrap(),
            MetricKind::Er,
            0.05,
        ),
        (
            "cla32",
            benchgen::suite::by_name("cla32").unwrap(),
            MetricKind::Mred,
            0.01,
        ),
    ];
    let (mut single, mut multi, mut reverted, mut random_wins) = (0, 0, 0, 0);
    for (name, golden, metric, bound) in &cases {
        let cfg = AccalsConfig::new(*metric, *bound);
        let run = match reference::compare(&cfg, golden, &pools) {
            Ok(run) => run,
            Err(d) => panic!("{name}: production diverged from the reference at {d}"),
        };
        for t in &run.rounds {
            if t.single_mode {
                single += 1;
            } else {
                multi += 1;
                reverted += t.reverted as usize;
                random_wins += (!t.chose_indp && !t.reverted) as usize;
            }
        }
    }
    println!(
        "reference identity: {single} single-mode rounds, {multi} multi-mode rounds \
         ({reverted} reverted, {random_wins} random-set wins)"
    );
    // The oracle is only as strong as the paths it exercises.
    assert!(single > 0, "no single-mode round ran");
    assert!(multi > 0, "no multi-mode round ran");
}
