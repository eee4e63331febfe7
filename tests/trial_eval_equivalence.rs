//! Bit-exactness guarantees of the incremental trial-evaluation engine.
//!
//! `TrialEval` promises that a trial measurement of a candidate LAC set
//! — journaled apply, cone-union re-simulation, affected-output error
//! replay, rollback — reports *exactly* what the committed path (clone,
//! `apply_all`, `cleanup`, full re-simulate, full rescore) would report
//! for the same set: the error down to the last mantissa bit, the
//! post-cleanup gate count, and the applied/dropped accounting — also
//! when its re-simulation scratch last served another circuit revision,
//! as the flow's pooled scratch does every round. The same promise lifts
//! to the whole flow: at any thread count, `synthesize` with incremental
//! trials commits the identical circuit through the identical round
//! sequence as the reference flow, whose trials clone, apply and fully
//! re-simulate.

use accals::{AccalsConfig, SizeParam, TrialEval};
use aig::Aig;
use bitsim::{simulate, ConeTopology, PatchSimulator, Patterns};
use errmetrics::{error, ErrorEval, MetricKind};
use lac::{apply_all, generate_candidates, CandidateConfig, Lac, ScoredLac};
use parkit::ThreadPool;

fn circuit(name: &str) -> Aig {
    benchgen::suite::by_name(name).expect("known suite circuit")
}

fn leaked_pool(threads: usize) -> &'static ThreadPool {
    Box::leak(Box::new(ThreadPool::new(threads)))
}

fn scored(lac: Lac) -> ScoredLac {
    ScoredLac {
        lac,
        delta_e: 0.0,
        gain: 0,
    }
}

/// Conflict-free check used when building multi-LAC sets: distinct
/// targets, and no LAC's substitute node is another LAC's target.
fn conflict_free(set: &[ScoredLac], cand: &Lac) -> bool {
    set.iter().all(|p| {
        p.lac.tn != cand.tn
            && p.lac.sns().all(|s| s != cand.tn)
            && cand.sns().all(|s| s != p.lac.tn)
    })
}

/// For every candidate LAC (and a handful of multi-LAC sets) on `base`,
/// asserts that `TrialEval` measures bit-identically to the committed
/// clone+apply+cleanup+resimulate path. The evaluator runs on `patch`,
/// whatever it served before; it is handed back for the next caller.
fn assert_trials_match_committed(
    base: &Aig,
    kind: MetricKind,
    golden_sigs: &[Vec<u64>],
    pats: &Patterns,
    patch: PatchSimulator,
) -> PatchSimulator {
    let sim = simulate(base, pats);
    let mut eval = ErrorEval::new(kind, golden_sigs, pats.n_patterns());
    eval.rebase(&sim.output_sigs(base));
    let cands = generate_candidates(base, &sim, &CandidateConfig::default());
    assert!(
        !cands.is_empty(),
        "{}: no candidates generated",
        base.name()
    );

    // Single candidates, every one of them; plus greedy disjoint
    // conflict-free sets of up to 8 LACs.
    let mut sets: Vec<Vec<ScoredLac>> = cands.iter().map(|&l| vec![scored(l)]).collect();
    let mut used = vec![false; cands.len()];
    for _ in 0..6 {
        let mut set: Vec<ScoredLac> = Vec::new();
        for (i, l) in cands.iter().enumerate() {
            if !used[i] && conflict_free(&set, l) {
                used[i] = true;
                set.push(scored(*l));
                if set.len() == 8 {
                    break;
                }
            }
        }
        if set.len() < 2 {
            break;
        }
        sets.push(set);
    }

    let topo = ConeTopology::build(base);
    let mut trial = TrialEval::new(base, &sim, &eval, topo, patch);
    for set in &sets {
        let m = trial.measure(set, true);

        let mut copy = base.clone();
        let plain: Vec<Lac> = set.iter().map(|s| s.lac).collect();
        let report = apply_all(&mut copy, &plain);
        copy.cleanup().expect("editing keeps the graph acyclic");
        let csim = simulate(&copy, pats);
        let e_ref = error(
            kind,
            golden_sigs,
            &csim.output_sigs(&copy),
            pats.n_patterns(),
        );

        let what = format!("{} {kind:?} set {:?}", base.name(), plain);
        assert_eq!(m.report.applied, report.applied, "{what}: applied differs");
        assert_eq!(
            m.report.dropped_cycle, report.dropped_cycle,
            "{what}: dropped_cycle differs"
        );
        assert_eq!(
            m.e_after.to_bits(),
            e_ref.to_bits(),
            "{what}: error differs: {} vs {}",
            m.e_after,
            e_ref
        );
        assert_eq!(
            m.n_ands_after,
            Some(copy.n_ands()),
            "{what}: gate count differs"
        );
    }
    trial.into_patch()
}

#[test]
fn trial_measure_matches_committed_path_for_every_candidate() {
    // One scratch throughout: mtp8's trials run on the patch simulator
    // that served every rca32 trial.
    let mut patch = PatchSimulator::new(2048 / 64);
    for (name, kind) in [("rca32", MetricKind::Er), ("mtp8", MetricKind::Nmed)] {
        let g = circuit(name);
        let pats = Patterns::random(g.n_pis(), 2048, 0x7E57_7E57);
        let golden_sigs = simulate(&g, &pats).output_sigs(&g);
        patch = assert_trials_match_committed(&g, kind, &golden_sigs, &pats, patch);
    }
}

#[test]
fn trial_measure_matches_committed_path_mid_synthesis() {
    // Same contract on a degraded base (golden != base), which is what
    // every round after the first sees: the error replay must account
    // for already-deviating outputs, not just fresh flips.
    let g = circuit("rca32");
    let pats = Patterns::random(g.n_pis(), 2048, 0x0DE6_BA5E);
    let golden_sigs = simulate(&g, &pats).output_sigs(&g);

    let sim0 = simulate(&g, &pats);
    let cands0 = generate_candidates(&g, &sim0, &CandidateConfig::default());
    let mut base = g.clone();
    let first: Vec<Lac> = cands0.iter().take(2).copied().collect();
    assert!(apply_all(&mut base, &first).applied > 0);
    base.cleanup().unwrap();

    // The scratch first serves trials of the previous revision (the
    // golden circuit, which has more nodes), as a flow's pooled patch
    // simulator does from one round to the next.
    let eval0 = {
        let mut e = ErrorEval::new(MetricKind::Er, &golden_sigs, pats.n_patterns());
        e.rebase(&sim0.output_sigs(&g));
        e
    };
    let mut warm = TrialEval::new(
        &g,
        &sim0,
        &eval0,
        ConeTopology::build(&g),
        PatchSimulator::new(pats.stride()),
    );
    for &l in cands0.iter().step_by(7).take(40) {
        warm.measure(&[scored(l)], true);
    }
    let patch = warm.into_patch();

    let patch = assert_trials_match_committed(&base, MetricKind::Er, &golden_sigs, &pats, patch);
    assert_trials_match_committed(&base, MetricKind::Mred, &golden_sigs, &pats, patch);
}

#[test]
fn synthesis_is_identical_across_trial_paths_and_thread_counts() {
    // Incremental trials (production) against clone-and-resimulate
    // trials (reference), at every pool width: same rounds, same
    // measured errors, same final circuit.
    let pools = [1, 2, 8].map(leaked_pool);
    for (name, bound) in [("rca32", 0.05), ("mtp8", 0.02)] {
        let mut cfg = AccalsConfig::new(MetricKind::Er, bound);
        cfg.r_ref = SizeParam::Fixed(40);
        cfg.r_sel = SizeParam::Fixed(8);
        if let Err(d) = fuzzkit::reference::compare(&cfg, &circuit(name), &pools) {
            panic!("{name}: incremental trials diverged from the reference at {d}");
        }
    }
}
