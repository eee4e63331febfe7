//! Bit-exactness guarantees of the cross-round candidate store.
//!
//! `lac::CandidateStore` promises that incremental candidate generation
//! is unobservable: after any sequence of committed edits, cleanups, and
//! node remappings, the rolled store returns the *identical* `Vec<Lac>`
//! that `lac::generate_candidates` computes from scratch on the same
//! circuit revision — same candidates, same order — and the deviation
//! masks it carries reproduce the same scored `ΔE` down to the last
//! mantissa bit, at any thread count. The same promise lifts to the
//! whole flow: at any thread count, `synthesize` commits the identical
//! circuit through the identical round sequence as the dense reference
//! flow, which regenerates every candidate from scratch.

use accals::{AccalsConfig, SizeParam};
use aig::{Aig, Lit};
use bitsim::{simulate, Patterns};
use errmetrics::{ErrorEval, MetricKind};
use estimate::{BatchEstimator, MaskCache};
use lac::{generate_candidates, CandidateConfig, CandidateStore, DevMask, Lac, ScoredLac};
use parkit::ThreadPool;
use prng::rngs::StdRng;
use prng::seq::SliceRandom;
use prng::SeedableRng;

fn circuit(name: &str) -> Aig {
    benchgen::suite::by_name(name).expect("known suite circuit")
}

fn leaked_pool(threads: usize) -> &'static ThreadPool {
    Box::leak(Box::new(ThreadPool::new(threads)))
}

fn assert_scores_identical(a: &[ScoredLac], b: &[ScoredLac], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.lac, y.lac, "{what}: candidate order changed");
        assert_eq!(x.gain, y.gain, "{what}: gain differs for {}", x.lac);
        assert_eq!(
            x.delta_e.to_bits(),
            y.delta_e.to_bits(),
            "{what}: ΔE differs for {}: {} vs {}",
            x.lac,
            x.delta_e,
            y.delta_e
        );
    }
}

/// The `gain > 0` candidates of a dense score list in the order the
/// top-k scorer returns them: `(ΔE, gain desc, target)`, ties kept in
/// input order.
fn flow_order(scored: &[ScoredLac]) -> Vec<ScoredLac> {
    let mut kept: Vec<ScoredLac> = scored.iter().filter(|s| s.gain > 0).cloned().collect();
    kept.sort_by(|a, b| {
        a.delta_e
            .partial_cmp(&b.delta_e)
            .unwrap()
            .then(b.gain.cmp(&a.gain))
            .then(a.lac.tn.cmp(&b.lac.tn))
    });
    kept
}

/// Runs `n_rounds` of randomized commit/cleanup/remap on `name`,
/// asserting at every revision that the rolled store reproduces fresh
/// generation bit-for-bit (candidate lists *and* cached-deviation
/// scores), and that at least one roll actually carried entries.
fn assert_rounds_equivalent(name: &str, kind: MetricKind, threads: usize, n_rounds: usize) {
    let golden = circuit(name);
    let pats = Patterns::random(golden.n_pis(), 2048, 0x570E_5EED);
    let golden_sigs = simulate(&golden, &pats).output_sigs(&golden);
    let pool = leaked_pool(threads);
    let cfg = CandidateConfig::default();
    let what = |r: usize| format!("{name} {kind:?} threads={threads} round {r}");

    let mut store = CandidateStore::new();
    let mut cache = MaskCache::new();
    let mut rng = StdRng::seed_from_u64(0xC0_FFEE ^ threads as u64);
    let mut current = golden.clone();
    let mut remap: Option<Vec<Option<Lit>>> = None;

    for round in 0..n_rounds {
        let sim = simulate(&current, &pats);
        let mut eval = ErrorEval::new(kind, &golden_sigs, pats.n_patterns());
        eval.rebase(&sim.output_sigs(&current));

        let fresh = generate_candidates(&current, &sim, &cfg);
        let rolled = store.generate(&current, &sim, &cfg, remap.as_deref(), pool, None);
        assert_eq!(fresh, rolled, "{}: candidate lists differ", what(round));

        // The arena-held deviation payloads (carried regions included)
        // must be the bits a direct recomputation produces.
        let mut scratch = vec![0u64; sim.stride()];
        for (lac, dev) in fresh.iter().zip(store.devs()) {
            let direct = DevMask::of(&sim, lac, &mut scratch);
            assert_eq!(
                dev.words,
                &*direct.words,
                "{}: deviation words of {lac} drifted",
                what(round)
            );
            assert_eq!(
                dev.bits,
                &*direct.bits,
                "{}: deviation bits of {lac} drifted",
                what(round)
            );
        }

        let fresh_scored = BatchEstimator::new(&current, &sim, &eval)
            .use_pool(pool)
            .score_all(&fresh);
        // Scoring from the stored masks with `k` covering every
        // candidate prunes nothing: it must return exactly the dense
        // `gain > 0` scores, in flow order.
        let (rolled_scored, _) =
            BatchEstimator::with_cache(&current, &sim, &eval, &mut cache, remap.as_deref())
                .use_pool(pool)
                .score_topk(&rolled, &store.devs(), rolled.len().max(1));
        assert_scores_identical(&flow_order(&fresh_scored), &rolled_scored, &what(round));

        // Randomized commit: pick up to two safe LACs at distinct
        // high-id targets (small fanout cones, so signature churn stays
        // local) from the best quartile, apply, clean up, and roll the
        // remap forward.
        let mut safe: Vec<&ScoredLac> = fresh_scored.iter().filter(|s| s.gain > 0).collect();
        if safe.is_empty() {
            break;
        }
        safe.sort_by(|a, b| {
            a.delta_e
                .partial_cmp(&b.delta_e)
                .unwrap()
                .then(b.lac.tn.cmp(&a.lac.tn))
        });
        safe.truncate((safe.len() / 4).max(1));
        safe.sort_by_key(|s| std::cmp::Reverse(s.lac.tn));
        safe.truncate(8);
        let mut picked: Vec<Lac> = Vec::new();
        for s in safe.choose_multiple(&mut rng, safe.len()) {
            if picked.iter().all(|l| l.tn != s.lac.tn) {
                picked.push(s.lac);
            }
            if picked.len() == 2 {
                break;
            }
        }
        let report = lac::apply_all(&mut current, &picked);
        assert!(report.applied > 0, "{}: nothing applied", what(round));
        remap = Some(current.cleanup().expect("editing keeps the graph acyclic"));
    }

    let stats = store.stats();
    assert!(
        stats.carried > 0,
        "{name} threads={threads}: no entries ever carried: {stats:?}"
    );
}

#[test]
fn rolled_store_matches_fresh_generation_rca32() {
    for threads in [1usize, 2, 8] {
        assert_rounds_equivalent("rca32", MetricKind::Er, threads, 5);
    }
}

#[test]
fn rolled_store_matches_fresh_generation_mtp8() {
    for threads in [1usize, 2, 8] {
        assert_rounds_equivalent("mtp8", MetricKind::Nmed, threads, 5);
    }
}

#[test]
fn synthesis_is_identical_across_candgen_paths_and_thread_counts() {
    // The production flow (candidate store, top-k scoring, incremental
    // trials) against the dense reference flow (fresh candidates and
    // scores, clone-and-resimulate trials), at every pool width.
    let pools = [1, 2, 8].map(leaked_pool);
    for (name, bound) in [("rca32", 0.05), ("mtp8", 0.02)] {
        let mut cfg = AccalsConfig::new(MetricKind::Er, bound);
        cfg.r_ref = SizeParam::Fixed(40);
        cfg.r_sel = SizeParam::Fixed(8);
        if let Err(d) = fuzzkit::reference::compare(&cfg, &circuit(name), &pools) {
            panic!("{name}: production diverged from the reference at {d}");
        }
    }
}
