//! Wide-word signature kernels for candidate generation.
//!
//! Candidate pre-ranking spends its time comparing simulation
//! signatures: wire candidates need the Hamming distance between two
//! signatures, and binary/ternary resubstitution needs per-region
//! pattern counts over two or three divisor signatures. The kernels
//! here fuse the word operations with the popcounts in one pass over
//! the signatures and allocate nothing.
//!
//! All kernels are *integer-exact*: they accumulate the same
//! `count_ones` terms as a word-by-word scalar loop, only grouped
//! differently, so candidate rankings (and hence everything downstream)
//! stay bit-identical. Tail masking mirrors `bitsim::popcount`: full
//! words count whole, the final partial word is masked to
//! `n_patterns % 64` bits.
//!
//! # Dispatch
//!
//! Each kernel body is written once as an `#[inline(always)]` scalar
//! function and instantiated by [`bitsim::dispatched!`] three times: as
//! is, as a POPCNT instance and as an AVX-512 VPOPCNTDQ instance, the
//! highest one the CPU has picked at runtime. Each full-word loop is a
//! plain reduction into `u64` sums, which the compiler vectorizes along
//! the words: the AVX-512 instance keeps eight `u64` lanes per sum and
//! counts eight words with one `vpopcntq`. (Spelling the lanes out as
//! `[u64; 8]` strips made it vectorize across strips instead, with
//! gathers, at a third of the speed.) Every instance computes the same
//! integers, and the scalar one is the test reference.

use bitsim::{dispatched, word_mask};

dispatched! {
    /// Number of patterns where signatures `a` and `b` differ — a fused
    /// XOR + popcount with no temporary buffer.
    pub(crate) fn xor_distance, xor_distance_on = xor_distance_scalar(
        a: &[u64],
        b: &[u64],
        n_patterns: usize,
    ) -> usize;
}

/// Scalar body of [`xor_distance`].
#[inline(always)]
fn xor_distance_scalar(a: &[u64], b: &[u64], n_patterns: usize) -> usize {
    let full = n_patterns / 64;
    let mut count = 0u64;
    for (x, y) in a[..full].iter().zip(&b[..full]) {
        count += (x ^ y).count_ones() as u64;
    }
    let mut count = count as usize;
    for w in full..n_patterns.div_ceil(64) {
        count += ((a[w] ^ b[w]) & word_mask(n_patterns, w)).count_ones() as usize;
    }
    count
}

dispatched! {
    /// `(pop(a & b), pop(t & a & b))` over the sample — the two
    /// popcounts a divisor pair needs once the per-divisor terms are
    /// known (see [`tt2_from_pops`]). With `a == b` it gives a single
    /// divisor's `(pop(a), pop(t & a))`, and with `t == a == b` the
    /// target's own `pop(t)` twice.
    pub(crate) fn and_counts, and_counts_on = and_counts_scalar(
        t: &[u64],
        a: &[u64],
        b: &[u64],
        n_patterns: usize,
    ) -> (usize, usize);
}

/// Scalar body of [`and_counts`].
#[inline(always)]
fn and_counts_scalar(t: &[u64], a: &[u64], b: &[u64], n_patterns: usize) -> (usize, usize) {
    let full = n_patterns / 64;
    let (mut ab, mut tab) = (0u64, 0u64);
    for ((tw, aw), bw) in t[..full].iter().zip(&a[..full]).zip(&b[..full]) {
        let x = aw & bw;
        ab += x.count_ones() as u64;
        tab += (x & tw).count_ones() as u64;
    }
    let (mut ab, mut tab) = (ab as usize, tab as usize);
    for w in full..n_patterns.div_ceil(64) {
        let x = a[w] & b[w] & word_mask(n_patterns, w);
        ab += x.count_ones() as usize;
        tab += (x & t[w]).count_ones() as usize;
    }
    (ab, tab)
}

/// Per-region `(ones, totals)` of a divisor pair, exactly as
/// [`tt2_counts`] scans them, derived by inclusion–exclusion from
/// factored popcounts: `n` patterns with `t_ones = pop(t)` target ones,
/// and `(pop(x), pop(t & x))` for `x = a`, `b` and `a & b` (from
/// [`and_counts`]). Region `r` is the patterns where `(a, b)` equal the
/// bits of `r`. Subtractions come after the additions they are bounded
/// by, so none underflows.
#[inline]
pub(crate) fn tt2_from_pops(
    n: usize,
    t_ones: usize,
    (pa, ta): (usize, usize),
    (pb, tb): (usize, usize),
    (pab, tab): (usize, usize),
) -> ([usize; 4], [usize; 4]) {
    let totals = [n + pab - pa - pb, pa - pab, pb - pab, pab];
    let ones = [t_ones + tab - ta - tb, ta - tab, tb - tab, tab];
    (ones, totals)
}

/// Per-region totals and target-ones counts over the four input regions
/// of a divisor pair: region `r` of word `w` is the patterns where
/// `(s1, s2)` equal the bits of `r`. Returns `(ones, totals)`. The
/// direct scan that [`tt2_from_pops`] factors; kept as its reference.
#[cfg(test)]
fn tt2_counts(st: &[u64], s1: &[u64], s2: &[u64], n_patterns: usize) -> ([usize; 4], [usize; 4]) {
    let mut ones = [0usize; 4];
    let mut totals = [0usize; 4];
    for w in 0..n_patterns.div_ceil(64) {
        let rem = n_patterns - w * 64;
        let mask = if rem >= 64 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        };
        let (a, b, t) = (s1[w], s2[w], st[w]);
        let regions = [!a & !b, a & !b, !a & b, a & b];
        for (r, &reg) in regions.iter().enumerate() {
            totals[r] += (reg & mask).count_ones() as usize;
            ones[r] += (reg & mask & t).count_ones() as usize;
        }
    }
    (ones, totals)
}

dispatched! {
    /// Per-region `(ones, totals)` over the eight input regions of a
    /// divisor triple: region `m` is the patterns where `(s1, s2, s3)`
    /// equal the bits of `m`.
    pub(crate) fn tt3_counts, tt3_counts_on = tt3_counts_scalar(
        st: &[u64],
        s1: &[u64],
        s2: &[u64],
        s3: &[u64],
        n_patterns: usize,
    ) -> ([usize; 8], [usize; 8]);
}

/// Region `m` of one word of a divisor triple: the bits where
/// `(a, b, c)` equal the bits of `m`.
#[inline(always)]
fn region(m: usize, a: u64, b: u64, c: u64) -> u64 {
    let ra = if m & 1 != 0 { a } else { !a };
    let rb = if m & 2 != 0 { b } else { !b };
    let rc = if m & 4 != 0 { c } else { !c };
    ra & rb & rc
}

/// Scalar body of [`tt3_counts`].
#[inline(always)]
fn tt3_counts_scalar(
    st: &[u64],
    s1: &[u64],
    s2: &[u64],
    s3: &[u64],
    n_patterns: usize,
) -> ([usize; 8], [usize; 8]) {
    let full = n_patterns / 64;
    let mut t_acc = [0u64; 8];
    let mut o_acc = [0u64; 8];
    for w in 0..full {
        let (a, b, c, t) = (s1[w], s2[w], s3[w], st[w]);
        for m in 0..8 {
            let reg = region(m, a, b, c);
            t_acc[m] += reg.count_ones() as u64;
            o_acc[m] += (reg & t).count_ones() as u64;
        }
    }
    let mut totals = t_acc.map(|v| v as usize);
    let mut ones = o_acc.map(|v| v as usize);
    for w in full..n_patterns.div_ceil(64) {
        let mask = word_mask(n_patterns, w);
        let t = st[w] & mask;
        for m in 0..8 {
            let reg = region(m, s1[w], s2[w], s3[w]) & mask;
            totals[m] += reg.count_ones() as usize;
            ones[m] += (reg & t).count_ones() as usize;
        }
    }
    (ones, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::{dispatch::Level, popcount};
    use prng::{rngs::StdRng, Rng, SeedableRng};

    fn random_sig(rng: &mut StdRng, words: usize) -> Vec<u64> {
        (0..words).map(|_| rng.gen()).collect()
    }

    /// Pattern counts of 0, 1, 7, 8, 9, 63–65 and 127–129 words, each
    /// whole and with a partial tail word (around one and two strips),
    /// and a few ragged counts.
    fn sample_sizes() -> impl Iterator<Item = usize> {
        [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129]
            .into_iter()
            .flat_map(|w| [w * 64, (w * 64).saturating_sub(23)])
            .chain([1, 63, 65, 513, 577, 1000, 2048])
    }

    #[test]
    fn xor_distance_matches_scalar_popcount() {
        let mut rng = StdRng::seed_from_u64(0x57121);
        for n in sample_sizes() {
            let words = n.div_ceil(64);
            let a = random_sig(&mut rng, words);
            let b = random_sig(&mut rng, words);
            let xs: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let d = xor_distance_scalar(&a, &b, n);
            assert_eq!(d, popcount(&xs, n), "n={n}");
            assert_eq!(xor_distance(&a, &b, n), d, "dispatch n={n}");
            for level in Level::supported() {
                assert_eq!(xor_distance_on(level, &a, &b, n), d, "{level} n={n}");
            }
        }
    }

    #[test]
    fn tt_counts_match_scalar_scan() {
        let mut rng = StdRng::seed_from_u64(0x57123);
        for n in sample_sizes() {
            let words = n.div_ceil(64);
            let st = random_sig(&mut rng, words);
            let s1 = random_sig(&mut rng, words);
            let s2 = random_sig(&mut rng, words);
            let s3 = random_sig(&mut rng, words);

            let mut ones2 = [0usize; 4];
            let mut totals2 = [0usize; 4];
            let mut ones3 = [0usize; 8];
            let mut totals3 = [0usize; 8];
            for w in 0..words {
                let rem = n - w * 64;
                let mask = if rem >= 64 {
                    u64::MAX
                } else {
                    (1u64 << rem) - 1
                };
                let (a, b, c, t) = (s1[w], s2[w], s3[w], st[w] & mask);
                let regions = [!a & !b, a & !b, !a & b, a & b];
                for (r, &reg) in regions.iter().enumerate() {
                    totals2[r] += (reg & mask).count_ones() as usize;
                    ones2[r] += (reg & mask & t).count_ones() as usize;
                }
                for m in 0..8usize {
                    let ra = if m & 1 != 0 { a } else { !a };
                    let rb = if m & 2 != 0 { b } else { !b };
                    let rc = if m & 4 != 0 { c } else { !c };
                    let reg = ra & rb & rc & mask;
                    totals3[m] += reg.count_ones() as usize;
                    ones3[m] += (reg & t).count_ones() as usize;
                }
            }
            assert_eq!(tt2_counts(&st, &s1, &s2, n), (ones2, totals2), "tt2 n={n}");
            let tt3 = tt3_counts_scalar(&st, &s1, &s2, &s3, n);
            assert_eq!(tt3, (ones3, totals3), "tt3 n={n}");
            assert_eq!(tt3_counts(&st, &s1, &s2, &s3, n), tt3, "tt3 dispatch n={n}");
            for level in Level::supported() {
                let got = tt3_counts_on(level, &st, &s1, &s2, &s3, n);
                assert_eq!(got, tt3, "tt3 {level} n={n}");
            }

            // The factored pair counts, from every instance alike,
            // reproduce the direct region scan.
            let pops = |a: &[u64], b: &[u64]| {
                let got = and_counts_scalar(&st, a, b, n);
                assert_eq!(and_counts(&st, a, b, n), got, "and dispatch n={n}");
                for level in Level::supported() {
                    let on = and_counts_on(level, &st, a, b, n);
                    assert_eq!(on, got, "and {level} n={n}");
                }
                got
            };
            let (t_ones, t_again) = pops(&st, &st);
            assert_eq!(t_ones, t_again);
            assert_eq!(t_ones, popcount(&st, n), "pop(t) n={n}");
            let (pa, pb, pab) = (pops(&s1, &s1), pops(&s2, &s2), pops(&s1, &s2));
            assert_eq!(
                tt2_from_pops(n, t_ones, pa, pb, pab),
                (ones2, totals2),
                "factored tt2 n={n}"
            );
        }
    }
}
