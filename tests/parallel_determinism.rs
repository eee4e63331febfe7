//! Bit-exactness guarantees of the parallel estimation path.
//!
//! The batch estimator promises that thread count is unobservable: the
//! scored LAC list — `ΔE` down to the last mantissa bit — is identical
//! whether masks and candidates are processed serially (`threads = 1`,
//! which bypasses the pool entirely) or by any number of workers. The
//! same promise covers the cross-round mask cache: a cached round must
//! reproduce a from-scratch round exactly, since the cache only carries
//! masks whose fanout cones provably saw no change.

use aig::Aig;
use bitsim::{simulate, Patterns, Sim};
use errmetrics::{ErrorEval, MetricKind};
use estimate::{BatchEstimator, MaskCache};
use lac::{generate_candidates, CandidateConfig, Lac, ScoredLac};
use parkit::ThreadPool;

fn circuit(name: &str) -> Aig {
    benchgen::suite::by_name(name).expect("known suite circuit")
}

fn setup(g: &Aig, seed: u64) -> (Patterns, Sim, Vec<Vec<u64>>, Vec<Lac>) {
    let pats = Patterns::random(g.n_pis(), 2048, seed);
    let sim = simulate(g, &pats);
    let golden = sim.output_sigs(g);
    let cands = generate_candidates(g, &sim, &CandidateConfig::default());
    (pats, sim, golden, cands)
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

#[test]
fn score_all_is_bit_identical_across_thread_counts() {
    for (name, kind) in [("rca32", MetricKind::Er), ("mtp8", MetricKind::Nmed)] {
        let g = circuit(name);
        let (pats, sim, golden, cands) = setup(&g, 0xD5_7E_12);
        assert!(!cands.is_empty(), "{name}: no candidates generated");
        let mut eval = ErrorEval::new(kind, &golden, pats.n_patterns());
        eval.rebase(&golden);

        let serial = BatchEstimator::new(&g, &sim, &eval)
            .use_pool(leaked_pool(1))
            .score_all(&cands);
        for threads in [2, 8] {
            let parallel = BatchEstimator::new(&g, &sim, &eval)
                .use_pool(leaked_pool(threads))
                .score_all(&cands);
            assert_scores_identical(&serial, &parallel, &format!("{name} threads={threads}"));
        }
    }
}

#[test]
fn cached_round_matches_from_scratch_recomputation() {
    // Round 0: score mtp8 through a cache. Apply a multi-LAC round
    // (three safe candidates at distinct targets), clean up, and score
    // the new circuit both through the rolled cache and from scratch.
    let g0 = circuit("mtp8");
    let (pats, sim0, golden, cands0) = setup(&g0, 0xCAC4E);
    let mut eval0 = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
    eval0.rebase(&golden);

    let mut cache = MaskCache::new();
    let scored0 =
        BatchEstimator::with_cache(&g0, &sim0, &eval0, &mut cache, None).score_all(&cands0);

    let mut safe: Vec<&ScoredLac> = scored0.iter().filter(|s| s.gain > 0).collect();
    safe.sort_by(|a, b| {
        a.delta_e
            .partial_cmp(&b.delta_e)
            .unwrap()
            .then(b.gain.cmp(&a.gain))
    });
    let mut picked: Vec<Lac> = Vec::new();
    for s in safe {
        if picked.iter().all(|l| l.tn != s.lac.tn) {
            picked.push(s.lac);
        }
        if picked.len() == 3 {
            break;
        }
    }
    assert_eq!(picked.len(), 3, "mtp8 should offer three safe LACs");

    let mut g1 = g0.clone();
    let report = lac::apply_all(&mut g1, &picked);
    assert!(report.applied >= 2, "multi-LAC round applied too little");
    let remap = g1.cleanup().unwrap();

    let sim1 = simulate(&g1, &pats);
    let mut eval1 = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
    eval1.rebase(&sim1.output_sigs(&g1));
    let cands1 = generate_candidates(&g1, &sim1, &CandidateConfig::default());

    let cached =
        BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache, Some(&remap)).score_all(&cands1);
    let stats = cache.stats();
    assert!(
        stats.carried > 0,
        "roll should carry masks outside the dirtied cones: {stats:?}"
    );
    assert!(stats.hits > 0, "cached round should hit: {stats:?}");

    let fresh = BatchEstimator::new(&g1, &sim1, &eval1).score_all(&cands1);
    assert_scores_identical(&cached, &fresh, "mtp8 cached vs fresh");

    // A fully warm pass (every mask already resident) on a serial pool
    // must still agree bit-for-bit.
    let mut cache_serial = MaskCache::new();
    let mut est = BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache_serial, None)
        .use_pool(leaked_pool(1));
    est.score_all(&cands1);
    let warm_serial = est.score_all(&cands1);
    assert_scores_identical(&cached, &warm_serial, "mtp8 cached vs warm serial");
}
