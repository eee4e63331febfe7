//! Seeded regression cases surfaced by the fuzzer, plus an end-to-end
//! check that the injected-fault path is caught and shrunk to a small
//! one-line repro.

use fuzzkit::{golden_circuit, run_case, shrink, Fault, FuzzCase};

/// Caught a stale-mask bug in `estimate::MaskCache::carry_entries`:
/// structurally rewired nodes (condition 1) never marked their fanouts,
/// so when a rewired consumer's value change was masked at a clean
/// reader, nodes feeding the reader's other side kept stale transfer
/// masks and `with_cache` scores diverged from fresh estimation.
const MASK_CACHE_REPRO: &str =
    "fuzzkit-repro-v1 seed=0x979cf06d3f360395 src=bench0 pis=5 ands=1 ops=5 pats=0 fault=none";

/// Caught an order-dependence bug in `lac::apply_all`: the first LAC of
/// a batch was applied with structural hashing still live, so its
/// replacement cone could strash-merge onto an existing node that a
/// later batch member then replaced — silently rewiring the earlier
/// cone to an approximated function and diverging from the scored and
/// trial-measured semantics (observed as a committed-vs-trial area
/// mismatch).
const APPLY_ALL_REPRO: &str =
    "fuzzkit-repro-v1 seed=0x3b5711924eac7c65 src=bench2 pis=7 ands=4 ops=1 pats=0 fault=none";

fn assert_passes(line: &str) {
    let case: FuzzCase = line.parse().expect("repro line must parse");
    assert_eq!(case.to_string(), line, "repro line must round-trip");
    if let Err(f) = run_case(&case) {
        panic!("pinned regression case failed again:\n{f}");
    }
}

#[test]
fn mask_cache_condition1_fanout_repro_passes() {
    assert_passes(MASK_CACHE_REPRO);
}

#[test]
fn apply_all_strash_merge_repro_passes() {
    assert_passes(APPLY_ALL_REPRO);
}

/// The acceptance check from the fuzzkit design: inject a skipped
/// `CandidateStore` invalidation condition, confirm the oracles catch
/// it within a short soak, and confirm the shrinker reduces the failure
/// to a repro of at most 10 ops over a circuit of at most 20 nodes.
#[test]
fn injected_store_fault_is_caught_and_shrunk() {
    // This base seed's first caught case shrinks within the documented
    // budget (the adjacent seeds' first catches bottom out on a mutated
    // bench circuit larger than 20 nodes).
    let failure = fuzzkit::soak(0xacca18, 50, Fault::StoreSkipFanout, |_, _| {})
        .expect("injected fault must be caught within 50 cases");

    let result = shrink(&failure.case, 200);
    let shrunk = result.case;

    assert!(
        shrunk.n_ops <= 10,
        "shrunk case must have <= 10 ops, got {}",
        shrunk.n_ops
    );
    let nodes = golden_circuit(&shrunk).n_nodes();
    assert!(
        nodes <= 20,
        "shrunk circuit must have <= 20 nodes, got {nodes}"
    );

    // The repro line round-trips and still fails with the same oracle.
    let line = result.failure.repro_line();
    assert!(
        line.starts_with("fuzzkit-repro-v1 "),
        "bad repro line: {line}"
    );
    let reparsed: FuzzCase = line.parse().expect("shrunk repro line must parse");
    assert_eq!(reparsed, shrunk);
    let refail = run_case(&reparsed).expect_err("shrunk repro must still fail");
    assert_eq!(refail.oracle, result.failure.oracle);
}

/// Same exercise for the candidate arena's remap-on-carry invariant:
/// skip the payload remap so carried entries keep pre-roll node ids,
/// and confirm the candidate-store differential oracle (stored list vs
/// fresh generation) catches the stale ids within a short soak.
#[test]
fn injected_stale_arena_fault_is_caught() {
    let failure = fuzzkit::soak(0xacca15, 50, Fault::StoreStaleArena, |_, _| {})
        .expect("injected stale arena carry must be caught within 50 cases");
    assert!(
        failure.oracle.starts_with("candidate-store/"),
        "expected a candidate-store oracle to fire, got {}",
        failure.oracle
    );

    // The repro line round-trips and still fails with the same oracle.
    let line = failure.repro_line();
    let reparsed: FuzzCase = line.parse().expect("repro line must parse");
    assert_eq!(reparsed, failure.case);
    let refail = run_case(&reparsed).expect_err("repro must still fail");
    assert_eq!(refail.oracle, failure.oracle);
}

/// Same exercise for the sweep engine's determinism contract: defer
/// cohort forking by one round (diverging branches keep the first
/// branch's circuit and shared caches for one extra round), and confirm
/// the batched-vs-standalone trajectory oracle catches the displaced
/// branch within a short soak, shrinks it, and leaves a round-tripping
/// one-line repro that still fails.
#[test]
fn injected_sweep_stale_fork_is_caught_and_shrunk() {
    let failure = fuzzkit::soak(0xacca15, 50, Fault::SweepStaleFork, |_, _| {})
        .expect("deferred cohort fork must be caught within 50 cases");
    assert!(
        failure.oracle.starts_with("sweep/"),
        "expected a sweep oracle to fire, got {}",
        failure.oracle
    );

    let result = shrink(&failure.case, 200);
    let shrunk = result.case;
    assert!(
        shrunk.n_ops <= failure.case.n_ops,
        "shrinking must not grow the op sequence"
    );

    // The repro line round-trips and still fails with the same oracle.
    let line = result.failure.repro_line();
    assert!(
        line.starts_with("fuzzkit-repro-v1 "),
        "bad repro line: {line}"
    );
    assert!(
        line.ends_with("fault=sweep-stale-fork"),
        "bad repro line: {line}"
    );
    let reparsed: FuzzCase = line.parse().expect("shrunk repro line must parse");
    assert_eq!(reparsed, shrunk);
    let refail = run_case(&reparsed).expect_err("shrunk repro must still fail");
    assert_eq!(refail.oracle, result.failure.oracle);
}

/// Same exercise for the top-k scorer's soundness oracle: publish an
/// unsound (too low) pruning threshold, so genuinely cheap candidates
/// are abandoned before exact scoring, and confirm the differential
/// top-set oracle catches the divergence within a short soak.
#[test]
fn injected_topk_bound_fault_is_caught() {
    let failure = fuzzkit::soak(0xacca15, 50, Fault::TopkLooseBound, |_, _| {})
        .expect("injected unsound bound must be caught within 50 cases");
    assert!(
        failure.oracle.starts_with("topk/"),
        "expected a top-k oracle to fire, got {}",
        failure.oracle
    );

    // The repro line round-trips and still fails with the same oracle.
    let line = failure.repro_line();
    let reparsed: FuzzCase = line.parse().expect("repro line must parse");
    assert_eq!(reparsed, failure.case);
    let refail = run_case(&reparsed).expect_err("repro must still fail");
    assert_eq!(refail.oracle, failure.oracle);
}
