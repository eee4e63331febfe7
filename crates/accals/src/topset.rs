//! `ObtainTopSet`: the top-LAC set with the smallest error increases,
//! sized by Eq. (2) of the paper.

use lac::ScoredLac;

/// Computes `r_top` per Eq. (2):
/// `r_top = ((e_b - e) / e_b) * max(r_ref, r_min)`, clamped to
/// `[1, n_candidates]`, where `r_min` is the number of candidates tied at
/// the minimum error increase.
///
/// # Panics
///
/// Panics if `error_bound <= 0` or `n_candidates == 0`.
pub fn r_top(
    error: f64,
    error_bound: f64,
    r_ref: usize,
    r_min: usize,
    n_candidates: usize,
) -> usize {
    assert!(error_bound > 0.0, "error bound must be positive");
    assert!(n_candidates > 0, "need at least one candidate");
    let frac = (error_bound - error) / error_bound;
    let raw = (frac * r_ref.max(r_min) as f64).floor();
    if raw < 1.0 {
        1
    } else {
        (raw as usize).min(n_candidates)
    }
}

/// Selects the top LAC set: sorts candidates by ascending `ΔE` (ties
/// broken by descending area gain, then target node) and keeps the first
/// `r_top` per Eq. (2).
///
/// Returns the sorted, truncated list.
///
/// # Panics
///
/// Panics if `scored` is empty or `error_bound <= 0`.
pub fn obtain_top_set(
    scored: Vec<ScoredLac>,
    error: f64,
    error_bound: f64,
    r_ref: usize,
) -> Vec<ScoredLac> {
    let n = scored.len();
    obtain_top_set_from(scored, error, error_bound, r_ref, n)
}

/// [`obtain_top_set`] over a pruned subset of a larger candidate
/// population.
///
/// `n_candidates` is the size of the *full* scored population (the
/// value Eq. (2) clamps against); `scored` may be any subset that
/// contains at least the `max(r_ref, r_min)` smallest-`ΔE` candidates —
/// e.g. the output of a sound top-k scorer. Because the raw (unclamped)
/// `r_top` never exceeds `max(r_ref, r_min)` and all minimum-`ΔE` ties
/// are required to be present, the result is identical to running
/// [`obtain_top_set`] on the full population.
///
/// # Panics
///
/// Panics if `scored` is empty, `error_bound <= 0`, or
/// `n_candidates < scored.len()`.
pub fn obtain_top_set_from(
    mut scored: Vec<ScoredLac>,
    error: f64,
    error_bound: f64,
    r_ref: usize,
    n_candidates: usize,
) -> Vec<ScoredLac> {
    assert!(!scored.is_empty(), "need at least one candidate");
    assert!(
        n_candidates >= scored.len(),
        "population smaller than the scored subset"
    );
    scored.sort_by(ScoredLac::flow_order);
    let min_delta = scored[0].delta_e;
    let r_min = scored.iter().take_while(|s| s.delta_e == min_delta).count();
    let k = r_top(error, error_bound, r_ref, r_min, n_candidates);
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::NodeId;
    use lac::{Lac, LacKind};

    fn scored(tn: usize, delta_e: f64, gain: i64) -> ScoredLac {
        ScoredLac {
            lac: Lac::new(NodeId::new(tn), LacKind::Constant(false)),
            delta_e,
            gain,
        }
    }

    #[test]
    fn r_top_follows_equation_two() {
        // Far from the bound: full reference size.
        assert_eq!(r_top(0.0, 0.05, 100, 1, 1000), 100);
        // Halfway: half the reference.
        assert_eq!(r_top(0.025, 0.05, 100, 1, 1000), 50);
        // r_min dominates when many candidates tie at the minimum.
        assert_eq!(r_top(0.0, 0.05, 100, 250, 1000), 250);
        // Clamped below by 1 ...
        assert_eq!(r_top(0.0499, 0.05, 100, 1, 1000), 1);
        // ... and above by the candidate count.
        assert_eq!(r_top(0.0, 0.05, 100, 1, 30), 30);
    }

    #[test]
    fn top_set_sorted_and_truncated() {
        let cands = vec![
            scored(1, 0.3, 1),
            scored(2, 0.0, 5),
            scored(3, 0.0, 9),
            scored(4, 0.1, 2),
        ];
        let top = obtain_top_set(cands, 0.0, 1.0, 3);
        assert_eq!(top.len(), 3);
        // Zero-ΔE first, larger gain preferred on ties.
        assert_eq!(top[0].lac.tn, NodeId::new(3));
        assert_eq!(top[1].lac.tn, NodeId::new(2));
        assert_eq!(top[2].lac.tn, NodeId::new(4));
    }

    #[test]
    fn pruned_subset_matches_full_population() {
        // A sound top-k subset (all candidates at or below the k-th
        // smallest ΔE) with the full population count passed through
        // must select exactly the same top set.
        let cands: Vec<ScoredLac> = (0..50)
            .map(|i| scored(i, (i % 10) as f64 * 1e-3, (i % 4) as i64))
            .collect();
        let full = obtain_top_set(cands.clone(), 0.01, 0.05, 12);
        let mut sorted = cands.clone();
        sorted.sort_by(|a, b| {
            a.delta_e
                .partial_cmp(&b.delta_e)
                .unwrap()
                .then(b.gain.cmp(&a.gain))
                .then(a.lac.tn.cmp(&b.lac.tn))
        });
        sorted.truncate(24);
        let pruned = obtain_top_set_from(sorted, 0.01, 0.05, 12, cands.len());
        assert_eq!(full.len(), pruned.len());
        for (f, p) in full.iter().zip(&pruned) {
            assert_eq!(f.lac, p.lac);
            assert_eq!(f.gain, p.gain);
            assert_eq!(f.delta_e.to_bits(), p.delta_e.to_bits());
        }
    }

    #[test]
    fn shrinks_as_error_approaches_bound() {
        let cands: Vec<ScoredLac> = (0..200).map(|i| scored(i, i as f64 * 1e-4, 0)).collect();
        let far = obtain_top_set(cands.clone(), 0.0, 0.05, 100).len();
        let near = obtain_top_set(cands, 0.045, 0.05, 100).len();
        assert!(near < far);
        assert_eq!(far, 100);
        assert_eq!(near, 10);
    }
}
