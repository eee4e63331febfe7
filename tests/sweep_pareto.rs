//! Properties of the sweep engine's merged Pareto front, plus
//! hand-built trajectory pairs for the divergence detector.
//!
//! The front is the sweep's user-facing summary, and its contract is
//! order-independence: whatever order instances finish in (which the
//! steal schedule controls), the settled front is the same set of
//! points, with exact coordinate ties represented by the smallest
//! instance id.

use accals::RoundTrace;
use proptest::collection::vec;
use proptest::prelude::*;
use sweep::{divergence_round, trajectory_hash, ParetoFront, ParetoPoint};

fn dominates(p: &ParetoPoint, q: &ParetoPoint) -> bool {
    p.area <= q.area && p.error <= q.error && (p.area < q.area || p.error < q.error)
}

fn build(points: &[ParetoPoint]) -> ParetoFront {
    let mut f = ParetoFront::new();
    for &p in points {
        f.insert(p);
    }
    f
}

/// Small coordinate ranges make domination, ties, and duplicates common.
fn point() -> impl Strategy<Value = ParetoPoint> {
    (0..12usize, 0..12u32, 0..8usize).prop_map(|(area, e, instance)| ParetoPoint {
        instance,
        area,
        error: f64::from(e) / 8.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_is_mutually_non_dominated_and_sorted(pts in vec(point(), 0..24usize)) {
        let f = build(&pts);
        let on = f.points();
        for (i, a) in on.iter().enumerate() {
            for (j, b) in on.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(a, b), "{a:?} dominates {b:?}");
                    prop_assert!(
                        a.area != b.area || a.error.to_bits() != b.error.to_bits(),
                        "duplicate coordinates on the front"
                    );
                }
            }
        }
        // Sorted by ascending area; errors strictly descend.
        for w in on.windows(2) {
            prop_assert!(w[0].area < w[1].area);
            prop_assert!(w[0].error > w[1].error);
        }
    }

    #[test]
    fn front_contains_every_non_dominated_input(pts in vec(point(), 0..24usize)) {
        let f = build(&pts);
        for p in &pts {
            let dominated = pts.iter().any(|q| dominates(q, p));
            let on_front = f.points().iter().any(|q| {
                q.area == p.area && q.error.to_bits() == p.error.to_bits()
            });
            prop_assert_eq!(
                !dominated, on_front,
                "input {:?}: dominated={} but on_front={}", p, dominated, on_front
            );
        }
    }

    #[test]
    fn front_is_insertion_order_independent(pts in vec(point(), 0..24usize)) {
        let reference = build(&pts);
        let mut reversed: Vec<ParetoPoint> = pts.clone();
        reversed.reverse();
        let mut sorted = pts.clone();
        sorted.sort_by(|a, b| {
            (b.area, b.error.to_bits(), b.instance).cmp(&(a.area, a.error.to_bits(), a.instance))
        });
        for other in [build(&reversed), build(&sorted)] {
            prop_assert_eq!(reference.points(), other.points());
        }
    }

    #[test]
    fn ties_resolve_to_the_smallest_instance(pts in vec(point(), 0..24usize)) {
        let f = build(&pts);
        for p in f.points() {
            let min_id = pts
                .iter()
                .filter(|q| q.area == p.area && q.error.to_bits() == p.error.to_bits())
                .map(|q| q.instance)
                .min()
                .expect("front points come from the input");
            prop_assert_eq!(p.instance, min_id);
        }
    }

    #[test]
    fn insert_reports_exactly_the_changes(pts in vec(point(), 0..24usize)) {
        let mut f = ParetoFront::new();
        for &p in &pts {
            let before = f.points().to_vec();
            let changed = f.insert(p);
            prop_assert_eq!(changed, f.points() != before.as_slice());
        }
    }
}

/// A trace whose trajectory key is `(applied, e_after, n_ands_after)`;
/// everything else (timings included) must be ignored by the detector.
fn rt(applied: usize, e_after: f64, n_ands: usize) -> RoundTrace {
    RoundTrace {
        applied,
        e_after,
        n_ands_after: n_ands,
        ..RoundTrace::default()
    }
}

#[test]
fn divergence_on_hand_built_pairs() {
    let a = vec![rt(2, 0.01, 40), rt(1, 0.02, 38), rt(3, 0.05, 33)];

    // Identical trajectories: no divergence, equal hashes.
    assert_eq!(divergence_round(&a, &a.clone()), None);
    assert_eq!(trajectory_hash(&a), trajectory_hash(&a.clone()));

    // First-round difference.
    let mut b = a.clone();
    b[0].applied = 1;
    assert_eq!(divergence_round(&a, &b), Some(0));
    assert_ne!(trajectory_hash(&a), trajectory_hash(&b));

    // Same error, different area at round 1.
    let mut c = a.clone();
    c[1].n_ands_after = 37;
    assert_eq!(divergence_round(&a, &c), Some(1));

    // Error differing only in the last mantissa bit still counts.
    let mut d = a.clone();
    d[2].e_after = f64::from_bits(a[2].e_after.to_bits() + 1);
    assert_eq!(divergence_round(&a, &d), Some(2));
    assert_ne!(trajectory_hash(&a), trajectory_hash(&d));

    // A strict prefix diverges at the shorter length, symmetrically.
    let p = a[..1].to_vec();
    assert_eq!(divergence_round(&a, &p), Some(1));
    assert_eq!(divergence_round(&p, &a), Some(1));

    // Empty trajectories.
    let empty: Vec<RoundTrace> = Vec::new();
    assert_eq!(divergence_round(&empty, &empty), None);
    assert_eq!(divergence_round(&empty, &a), Some(0));

    // Timings and diagnostics are not part of the key.
    let mut e = a.clone();
    e[0].candgen_ms = 123.0;
    e[1].n_candidates = 99;
    e[2].chose_indp = true;
    assert_eq!(divergence_round(&a, &e), None);
    assert_eq!(trajectory_hash(&a), trajectory_hash(&e));
}
