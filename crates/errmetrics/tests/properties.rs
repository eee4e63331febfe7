//! Property tests: the incremental evaluator must agree with a from-scratch
//! rebase for every metric on random signatures, and basic metric axioms
//! must hold.

use errmetrics::{error, ErrorEval, MetricKind};
use proptest::prelude::*;

fn sig_set(n_outputs: usize, stride: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u64>(), stride), n_outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn with_flips_equals_rebase(
        (n_outputs, stride) in (1usize..6, 1usize..3),
        seed in any::<u64>(),
    ) {
        let n_patterns = stride * 64 - (seed % 17) as usize;
        let gen = |salt: u64| -> Vec<Vec<u64>> {
            (0..n_outputs)
                .map(|o| {
                    (0..stride)
                        .map(|w| {
                            seed.wrapping_mul(0x9e3779b97f4a7c15)
                                .wrapping_add(salt * 1000 + o as u64 * 10 + w as u64)
                                .wrapping_mul(0x2545f4914f6cdd1d)
                        })
                        .collect()
                })
                .collect()
        };
        let golden = gen(1);
        let approx = gen(2);
        let flips = gen(3);
        let every_word: Vec<u32> = (0..stride as u32).collect();
        for kind in MetricKind::ALL {
            let mut e = ErrorEval::new(kind, &golden, n_patterns);
            e.rebase(&approx);
            let predicted = e.measured_with_flips_words(&every_word, &flips);
            let flipped: Vec<Vec<u64>> = approx
                .iter()
                .zip(&flips)
                .map(|(s, f)| s.iter().zip(f).map(|(a, b)| a ^ b).collect())
                .collect();
            let direct = error(kind, &golden, &flipped, n_patterns);
            prop_assert!(
                (predicted - direct).abs() < 1e-9,
                "{}: incremental {} vs direct {}",
                kind, predicted, direct
            );
        }
    }

    #[test]
    fn metrics_are_zero_iff_identical(sigs in sig_set(3, 2)) {
        let n_patterns = 128;
        for kind in MetricKind::ALL {
            prop_assert_eq!(error(kind, &sigs, &sigs, n_patterns), 0.0);
        }
    }

    #[test]
    fn er_bounded_and_symmetric(a in sig_set(3, 2), b in sig_set(3, 2)) {
        let n = 128;
        let e1 = error(MetricKind::Er, &a, &b, n);
        let e2 = error(MetricKind::Er, &b, &a, n);
        prop_assert!((0.0..=1.0).contains(&e1));
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn nmed_bounded_by_one(a in sig_set(4, 1), b in sig_set(4, 1)) {
        let e = error(MetricKind::Nmed, &a, &b, 64);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn med_triangle_with_er(a in sig_set(2, 1), b in sig_set(2, 1)) {
        // If ER is zero, every arithmetic metric is zero too.
        let n = 64;
        if error(MetricKind::Er, &a, &b, n) == 0.0 {
            for kind in [MetricKind::Med, MetricKind::Nmed, MetricKind::Mred, MetricKind::Mse, MetricKind::Wce] {
                prop_assert_eq!(error(kind, &a, &b, n), 0.0);
            }
        }
    }
}
