//! Deterministic minimization of failing fuzz cases.
//!
//! A [`crate::FuzzCase`] is a pure function of its knobs, so shrinking
//! is just a greedy descent over smaller knob vectors: each step tries
//! a fixed, ordered list of reductions (truncate the op sequence at the
//! failing operation, halve/decrement the gate budget, drop inputs) and
//! adopts the first one that still fails — under *any* oracle, since a
//! systematic contract violation may surface differently at different
//! sizes. No randomness is involved, so the same failing case always
//! shrinks to the same repro line.

use crate::ops::{run_case, Failure};
use crate::{FuzzCase, Source};

/// Outcome of [`shrink`]: the smallest failing case found, its failure,
/// and how many candidate executions were spent.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized case; `case.to_string()` is the one-line repro.
    pub case: FuzzCase,
    /// The failure the minimized case produces.
    pub failure: Failure,
    /// Candidate cases executed during the descent.
    pub runs: usize,
}

/// Candidate reductions of `c`, most aggressive first. `fail_op` is the
/// op index of the current failure — everything after it never ran, so
/// truncating there is free.
fn reductions(c: &FuzzCase, fail_op: usize) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |cand: FuzzCase| {
        if cand != *c && !out.contains(&cand) {
            out.push(cand);
        }
    };
    if fail_op + 1 < c.n_ops {
        push(FuzzCase {
            n_ops: fail_op + 1,
            ..*c
        });
    }
    for ops in [c.n_ops / 2, c.n_ops.saturating_sub(1)] {
        if ops >= 1 && ops < c.n_ops {
            push(FuzzCase { n_ops: ops, ..*c });
        }
    }
    let and_floor = match c.source {
        Source::Random => 1,
        Source::Bench(_) => 0,
    };
    for ands in [c.n_ands / 2, c.n_ands * 3 / 4, c.n_ands.saturating_sub(1)] {
        if ands >= and_floor && ands < c.n_ands {
            push(FuzzCase { n_ands: ands, ..*c });
        }
    }
    if matches!(c.source, Source::Random) {
        for pis in [c.n_pis / 2, c.n_pis.saturating_sub(1)] {
            if pis >= 2 && pis < c.n_pis {
                push(FuzzCase { n_pis: pis, ..*c });
            }
        }
    }
    if c.n_patterns > 64 {
        push(FuzzCase {
            n_patterns: 64,
            ..*c
        });
    }
    out
}

/// Greedily minimizes a failing case, spending at most `max_runs`
/// candidate executions.
///
/// # Panics
///
/// Panics if `start` does not fail — shrinking a passing case is
/// meaningless.
pub fn shrink(start: &FuzzCase, max_runs: usize) -> ShrinkResult {
    let failure = run_case(start).expect_err("shrink requires a failing case");
    let mut best = *start;
    let mut best_fail = failure;
    let mut runs = 0usize;
    'outer: loop {
        for cand in reductions(&best, best_fail.op) {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            if let Err(f) = run_case(&cand) {
                best = cand;
                best_fail = f;
                // Restart the reduction list from the new, smaller best.
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult {
        case: best,
        failure: best_fail,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fault;

    /// Shrinking is exercised end to end (with a real injected failure)
    /// by the workspace-level `tests/fuzz_regression.rs`; here we only
    /// pin the reduction schedule itself.
    #[test]
    fn reductions_only_shrink() {
        let c = FuzzCase {
            seed: 1,
            source: Source::Random,
            n_pis: 6,
            n_ands: 20,
            n_ops: 5,
            n_patterns: 128,
            fault: Fault::None,
        };
        for r in reductions(&c, 2) {
            assert!(r.n_ops <= c.n_ops);
            assert!(r.n_ands <= c.n_ands);
            assert!(r.n_pis <= c.n_pis);
            assert!(r.n_patterns <= c.n_patterns);
            assert_ne!(r, c);
            assert!(r.n_ops >= 1 && r.n_pis >= 2);
        }
        // The failing-op truncation comes first.
        assert_eq!(reductions(&c, 2)[0].n_ops, 3);
    }
}
