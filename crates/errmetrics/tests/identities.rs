//! Cross-identity tests: `ErrorEval` against an independent per-pattern
//! enumeration when the sample is exhaustive, and the
//! `measured_with_flips_words` fast path against a dense re-measure.
//!
//! The enumeration oracle below deliberately re-derives every metric
//! from its textbook definition (integer value decode, per-pattern
//! distance, plain accumulation) rather than reusing the evaluator's
//! internal helpers, so a shared bug cannot cancel out.

use errmetrics::{ErrorEval, MetricKind};
use proptest::prelude::*;

/// Truth-table signatures for `n_outputs` functions of `n_pis` inputs:
/// an exhaustive sample with `2^n_pis` patterns.
fn truth_tables(n_pis: usize, n_outputs: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    let stride = (1usize << n_pis).div_ceil(64);
    proptest::collection::vec(proptest::collection::vec(any::<u64>(), stride), n_outputs)
}

/// Decodes pattern `p`'s output value (output 0 = LSB) from signatures.
fn value_at(sigs: &[Vec<u64>], p: usize) -> u128 {
    sigs.iter()
        .enumerate()
        .filter(|(_, s)| s[p / 64] >> (p % 64) & 1 == 1)
        .fold(0u128, |acc, (o, _)| acc | 1 << o)
}

/// The metric computed by exhaustive enumeration over every pattern.
fn enumerated(
    kind: MetricKind,
    golden: &[Vec<u64>],
    approx: &[Vec<u64>],
    n_patterns: usize,
) -> f64 {
    let n = n_patterns as f64;
    let m = golden.len();
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut wrong = 0usize;
    for p in 0..n_patterns {
        let g = value_at(golden, p);
        let a = value_at(approx, p);
        if a != g {
            wrong += 1;
        }
        let ed = g.abs_diff(a) as f64;
        sum += match kind {
            MetricKind::Mred => ed / (g.max(1) as f64),
            MetricKind::Mse => ed * ed,
            _ => ed,
        };
        max = max.max(ed);
    }
    match kind {
        MetricKind::Er => wrong as f64 / n,
        MetricKind::Med | MetricKind::Mred | MetricKind::Mse => sum / n,
        MetricKind::Nmed => sum / n / (((1u128 << m) - 1) as f64),
        MetricKind::Wce => max,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn eval_matches_exhaustive_enumeration(
        (n_pis, n_outputs) in (2usize..=7, 1usize..=6),
        golden_seed in any::<u64>(),
    ) {
        let n_patterns = 1usize << n_pis;
        let stride = n_patterns.div_ceil(64);
        let gen = |salt: u64| -> Vec<Vec<u64>> {
            (0..n_outputs)
                .map(|o| {
                    (0..stride)
                        .map(|w| {
                            golden_seed
                                .wrapping_add(salt << 32 | (o as u64) << 8 | w as u64)
                                .wrapping_mul(0x2545f4914f6cdd1d)
                                .rotate_left(17)
                                .wrapping_mul(0x9e3779b97f4a7c15)
                        })
                        .collect()
                })
                .collect()
        };
        let golden = gen(1);
        let approx = gen(2);
        for kind in MetricKind::ALL {
            let mut eval = ErrorEval::new(kind, &golden, n_patterns);
            eval.rebase(&approx);
            let fast = eval.current();
            let naive = enumerated(kind, &golden, &approx, n_patterns);
            prop_assert!(
                (fast - naive).abs() <= 1e-12 * naive.abs().max(1.0),
                "{kind}: ErrorEval {fast} vs enumeration {naive}"
            );
        }
    }

    #[test]
    fn measured_with_flips_words_matches_dense_remeasure(
        golden in truth_tables(7, 4),
        approx in truth_tables(7, 4),
        flip_words in proptest::collection::vec((0usize..2, any::<u64>()), 0..4),
    ) {
        let n_patterns = 128;
        let stride = 2;
        // Sparse flips: a handful of non-zero words in output-0 and the
        // same pattern rotated into the other rows.
        let mut flips = vec![vec![0u64; stride]; golden.len()];
        for &(w, mask) in &flip_words {
            for (o, row) in flips.iter_mut().enumerate() {
                row[w] |= mask.rotate_left(o as u32 * 13);
            }
        }
        let words: Vec<u32> = (0..stride as u32)
            .filter(|&w| flips.iter().any(|row| row[w as usize] != 0))
            .collect();

        let flipped: Vec<Vec<u64>> = approx
            .iter()
            .zip(&flips)
            .map(|(s, f)| s.iter().zip(f).map(|(a, b)| a ^ b).collect())
            .collect();

        for kind in MetricKind::ALL {
            let mut eval = ErrorEval::new(kind, &golden, n_patterns);
            eval.rebase(&approx);
            let sparse = eval.measured_with_flips_words(&words, &flips);

            // The contract is bit-identity with a dense re-measure: the
            // value a fresh rebase on the flipped signatures reports.
            let mut dense = ErrorEval::new(kind, &golden, n_patterns);
            dense.rebase(&flipped);
            let remeasured = dense.current();
            prop_assert_eq!(
                sparse.to_bits(), remeasured.to_bits(),
                "{}: sparse {} vs dense re-measure {}", kind, sparse, remeasured
            );

            // The Σ-delta fold of `with_masked_rows` — every flip row as
            // a transfer-mask row under an all-ones deviation — only
            // promises closeness for the mean metrics, exactness for ER
            // and WCE.
            let outs: Vec<u32> = (0..flips.len() as u32).collect();
            let ones = vec![u64::MAX; words.len()];
            let estimate = eval.with_masked_rows(&words, &ones, &outs, &flips.concat());
            if matches!(kind, MetricKind::Er | MetricKind::Wce) {
                prop_assert_eq!(estimate.to_bits(), remeasured.to_bits());
            } else {
                prop_assert!((estimate - remeasured).abs() < 1e-9);
            }
        }
    }
}
