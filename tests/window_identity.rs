//! The windowed round's contracts, end to end.
//!
//! A window restricts each round's candidate generation, estimation,
//! and trial evaluation to a bounded region of the circuit; error
//! accounting stays global and exact. Four things follow, and this
//! suite pins all of them:
//!
//! - a window spanning the whole circuit takes the dense path and is
//!   *bit-identical* to `window: None` — trajectory, error bits, area —
//!   under ER and under NMED;
//! - a strict sub-window flow is deterministic at any thread count and
//!   still terminates at or under the error bound (a windowed round
//!   that overshoots is retried on the next window, never committed);
//! - the `CandidateStore`'s windowed emission is a pure filter of the
//!   full candidate list, also on a store a full-span generation
//!   warmed: a windowed call carries none of its entries;
//! - a windowed sweep instance is bit-identical to the same windowed
//!   configuration run standalone (window membership is part of the
//!   cohort family key).

use accals::{Accals, AccalsConfig, SizeParam, WindowSpec};
use bitsim::{simulate, Patterns};
use errmetrics::MetricKind;
use lac::{generate_candidates, CandidateConfig, CandidateStore};
use parkit::ThreadPool;
use sweep::{trajectory_hash, SweepJob, SweepOptions};

fn quick_cfg(metric: MetricKind, bound: f64) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(metric, bound);
    cfg.r_ref = SizeParam::Fixed(40);
    cfg.r_sel = SizeParam::Fixed(8);
    cfg.max_exhaustive = 1 << 10;
    cfg.n_random_patterns = 1 << 10;
    cfg
}

fn windowed(mut cfg: AccalsConfig, max_targets: usize) -> AccalsConfig {
    cfg.window = Some(WindowSpec { max_targets });
    cfg
}

fn pool(threads: usize) -> &'static ThreadPool {
    Box::leak(Box::new(ThreadPool::new(threads)))
}

#[test]
fn full_span_window_is_bit_identical_to_dense() {
    let inputs = [
        ("mtp8", MetricKind::Er, 0.05),
        ("rca32", MetricKind::Er, 0.05),
        ("cla32", MetricKind::Er, 0.05),
        ("mtp8", MetricKind::Nmed, 0.01),
        ("rca32", MetricKind::Nmed, 0.02),
        ("cla32", MetricKind::Nmed, 0.02),
    ];
    for (name, metric, bound) in inputs {
        let golden = benchgen::suite::by_name(name).expect("suite circuit");
        let cfg = quick_cfg(metric, bound);
        let dense = Accals::new(cfg.clone()).synthesize(&golden);
        for threads in [1, 4] {
            let full = Accals::new(windowed(cfg.clone(), usize::MAX))
                .with_pool(pool(threads))
                .synthesize(&golden);
            let what = format!("{name} {metric} at {threads} threads");
            assert_eq!(
                trajectory_hash(&full.rounds),
                trajectory_hash(&dense.rounds),
                "{what}: trajectory diverged"
            );
            assert_eq!(
                full.error.to_bits(),
                dense.error.to_bits(),
                "{what}: final error diverged"
            );
            assert_eq!(
                full.aig.n_ands(),
                dense.aig.n_ands(),
                "{what}: area diverged"
            );
            // The engine must actually have taken the dense path: a
            // full-span window never restricts any round.
            assert!(
                full.rounds.iter().all(|r| r.window_targets == 0),
                "{what}: a round reported a strict window"
            );
        }
    }
}

#[test]
fn sub_window_flow_is_sound_and_deterministic() {
    for (name, metric, bound) in [
        ("rca32", MetricKind::Nmed, 0.02),
        ("mtp8", MetricKind::Nmed, 0.01),
    ] {
        let golden = benchgen::suite::by_name(name).expect("suite circuit");
        let cfg = windowed(quick_cfg(metric, bound), 64);
        let a = Accals::new(cfg.clone()).synthesize(&golden);

        let what = format!("{name} {metric} windowed(64)");
        assert!(
            a.error <= bound,
            "{what}: final error {} over bound",
            a.error
        );
        assert!(
            a.aig.n_ands() < golden.n_ands(),
            "{what}: no area saved ({} gates)",
            a.aig.n_ands()
        );
        assert!(
            a.rounds.iter().any(|r| r.window_targets > 0),
            "{what}: no round was actually windowed"
        );
        assert!(
            a.rounds.iter().all(|r| r.window_targets <= 64),
            "{what}: a window exceeded max_targets"
        );

        // Bit-identical repeats on a serial and a 4-thread pool:
        // windowed selection depends on neither the run nor the thread
        // count.
        for threads in [1, 4] {
            let b = Accals::new(cfg.clone())
                .with_pool(pool(threads))
                .synthesize(&golden);
            let what = format!("{what} at {threads} threads");
            assert_eq!(
                trajectory_hash(&a.rounds),
                trajectory_hash(&b.rounds),
                "{what}: repeat diverged"
            );
            assert_eq!(a.error.to_bits(), b.error.to_bits(), "{what}: repeat error");
            assert_eq!(a.aig.n_ands(), b.aig.n_ands(), "{what}: repeat area");
        }
    }
}

#[test]
fn store_windowed_emission_is_a_pure_filter() {
    let golden = benchgen::suite::by_name("mtp8").expect("suite circuit");
    let pats = Patterns::random(golden.n_pis(), 256, 0xACC);
    let sim = simulate(&golden, &pats);
    let ccfg = CandidateConfig::default();
    let full = generate_candidates(&golden, &sim, &ccfg);
    assert!(!full.is_empty());

    // Window: every other live AND target, by id order.
    let live = golden.live_mask();
    let mut mask = vec![false; golden.n_nodes()];
    for (k, id) in golden.and_ids().filter(|id| live[id.index()]).enumerate() {
        mask[id.index()] = k % 2 == 0;
    }
    let expected: Vec<_> = full
        .iter()
        .filter(|l| mask[l.tn.index()])
        .cloned()
        .collect();
    assert!(!expected.is_empty() && expected.len() < full.len());

    let p = pool(2);
    // Cold store, windowed from the start.
    let mut store = CandidateStore::new();
    let got = store.generate(&golden, &sim, &ccfg, None, p, Some(&mask));
    assert_eq!(
        got, expected,
        "cold windowed generation is not a pure filter"
    );

    // Warm store: a full-span generation populates every entry; the
    // windowed call after it carries none of them, even through the
    // identity remap, and regenerates exactly the in-window targets.
    let mut store = CandidateStore::new();
    let warm = store.generate(&golden, &sim, &ccfg, None, p, None);
    assert_eq!(warm, full);
    let identity = aig::remap::identity(golden.n_nodes());
    let before = store.stats();
    let got = store.generate(&golden, &sim, &ccfg, Some(&identity), p, Some(&mask));
    assert_eq!(
        got, expected,
        "warm windowed generation is not a pure filter"
    );
    let after = store.stats();
    assert_eq!(
        after.carried, before.carried,
        "a windowed call carried entries"
    );
    assert_eq!(
        after.regenerated - before.regenerated,
        mask.iter().filter(|&&m| m).count(),
        "a windowed call must regenerate exactly its window"
    );
    assert_eq!(
        store.devs().len(),
        expected.len(),
        "devs misaligned with emission"
    );
}

#[test]
fn windowed_sweep_matches_standalone_windowed() {
    let golden = benchgen::suite::by_name("rca32").expect("suite circuit");
    let bounds = [0.01, 0.02, 0.05];
    let base = windowed(quick_cfg(MetricKind::Er, bounds[0]), 64);

    let mut refs = Vec::new();
    for &b in &bounds {
        let mut cfg = base.clone();
        cfg.error_bound = b;
        let alone = Accals::new(cfg).synthesize(&golden);
        refs.push((
            trajectory_hash(&alone.rounds),
            alone.error.to_bits(),
            alone.aig.n_ands(),
        ));
    }

    let mut job = SweepJob::new();
    let c = job.add_circuit(golden);
    job.add_grid(c, &base, &bounds);
    for share in [true, false] {
        for threads in [1, 2] {
            let res = sweep::run(
                &job,
                &SweepOptions {
                    threads,
                    share,
                    ..SweepOptions::default()
                },
            );
            for (r, &(hash, e_bits, area)) in res.instances.iter().zip(&refs) {
                let what = format!("bound {} share={share} threads={threads}", r.error_bound);
                assert_eq!(r.trajectory_hash, hash, "{what}: trajectory diverged");
                assert_eq!(r.result.error.to_bits(), e_bits, "{what}: error diverged");
                assert_eq!(r.result.aig.n_ands(), area, "{what}: area diverged");
            }
        }
    }
}
