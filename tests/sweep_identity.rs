//! The sweep engine's determinism contract, end to end: every instance
//! of a batched sweep — trajectory, final circuit, final error — is
//! bit-identical to running the same configuration standalone through
//! [`accals::Accals`], at any worker count and with cache sharing on
//! or off.
//!
//! Cohort execution makes this contract non-trivial: with sharing on,
//! same-family instances run their bound-independent phases once,
//! memoize trial measurements across members, and fork the shared
//! caches when their commits diverge. None of that machinery may leak
//! into the results.

use accals::{Accals, AccalsConfig, SizeParam};
use errmetrics::MetricKind;
use sweep::{trajectory_hash, SweepJob, SweepOptions};

/// Per-metric bound ladders sized so the suite circuits run several
/// rounds and the cohorts split mid-flight (the interesting case for
/// cache forking).
const METRIC_GRIDS: [(MetricKind, [f64; 3]); 3] = [
    (MetricKind::Er, [0.02, 0.05, 0.10]),
    (MetricKind::Nmed, [0.005, 0.01, 0.02]),
    (MetricKind::Mred, [0.01, 0.02, 0.05]),
];

fn quick_cfg(metric: MetricKind, bound: f64) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.r_ref = SizeParam::Fixed(40);
    cfg.r_sel = SizeParam::Fixed(8);
    // Smaller samples than the paper setup keep the test quick; the
    // identity contract is independent of the pattern budget.
    cfg.max_exhaustive = 1 << 10;
    cfg.n_random_patterns = 1 << 10;
    cfg
}

fn check_circuit(name: &str) {
    let golden = benchgen::suite::by_name(name).expect("suite circuit");

    // One job over the full metric × bound grid, and the standalone
    // reference for every grid point.
    let mut job = SweepJob::new();
    let c = job.add_circuit(golden.clone());
    let mut refs: Vec<(MetricKind, f64, u64, u64, usize, usize)> = Vec::new();
    for (metric, bounds) in METRIC_GRIDS {
        job.add_grid(c, &quick_cfg(metric, bounds[0]), &bounds);
        for &b in &bounds {
            let alone = Accals::new(quick_cfg(metric, b)).synthesize(&golden);
            refs.push((
                metric,
                b,
                trajectory_hash(&alone.rounds),
                alone.error.to_bits(),
                alone.aig.n_ands(),
                alone.rounds.len(),
            ));
        }
    }

    for share in [true, false] {
        for threads in [1, 2, 8] {
            let res = sweep::run(
                &job,
                &SweepOptions {
                    threads,
                    share,
                    ..SweepOptions::default()
                },
            );
            assert_eq!(res.instances.len(), refs.len());
            for (r, &(metric, b, hash, e_bits, area, rounds)) in res.instances.iter().zip(&refs) {
                let what = format!("{name} {metric} bound={b} share={share} threads={threads}");
                assert_eq!(r.metric, metric, "{what}: instance order changed");
                assert_eq!(r.error_bound, b, "{what}: instance order changed");
                assert_eq!(
                    r.trajectory_hash, hash,
                    "{what}: trajectory diverged from standalone"
                );
                assert_eq!(
                    r.result.rounds.len(),
                    rounds,
                    "{what}: round count diverged"
                );
                assert_eq!(
                    r.result.error.to_bits(),
                    e_bits,
                    "{what}: final error diverged"
                );
                assert_eq!(r.result.aig.n_ands(), area, "{what}: final area diverged");
            }
            // The merged fronts cover every metric of the grid.
            for (metric, _) in METRIC_GRIDS {
                let front = res.front(c, metric).expect("front exists");
                assert!(!front.is_empty(), "{name} {metric}: empty front");
            }
        }
    }
}

#[test]
fn rca32_batched_matches_standalone() {
    check_circuit("rca32");
}

#[test]
fn mtp8_batched_matches_standalone() {
    check_circuit("mtp8");
}

#[test]
fn alu4_batched_matches_standalone() {
    check_circuit("alu4");
}
