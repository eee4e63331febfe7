//! Unrolled wide-word signature kernels for candidate generation.
//!
//! Candidate pre-ranking spends its time comparing simulation
//! signatures: wire candidates need the Hamming distance between two
//! signatures, and binary/ternary resubstitution needs per-region
//! pattern counts over two or three divisor signatures. The kernels
//! here consume the signatures in unrolled strips of [`STRIP`] words
//! with narrow per-strip accumulators — the same fused-row idiom as the
//! `errmetrics` error kernels — and allocate nothing.
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
//! function and instantiated by [`bitsim::dispatched!`] twice: as is,
//! and as a POPCNT instance picked at runtime when the CPU has the
//! instruction. Both instances compute the same integers, and the
//! scalar one is the test reference.

use bitsim::dispatched;

/// Words per unrolled strip. Eight 64-bit words = one 512-bit row.
pub(crate) const STRIP: usize = 8;

dispatched! {
    /// Number of patterns where signatures `a` and `b` differ — a fused
    /// XOR + popcount with no temporary buffer.
    pub(crate) fn xor_distance = xor_distance_scalar(a: &[u64], b: &[u64], n_patterns: usize) -> usize;
}

/// Scalar body of [`xor_distance`]. A strip of 8 words holds at most
/// 512 set bits, so the per-strip `u32` accumulator cannot overflow.
#[inline(always)]
fn xor_distance_scalar(a: &[u64], b: &[u64], n_patterns: usize) -> usize {
    let full = n_patterns / 64;
    let mut count = 0usize;
    let mut w = 0;
    while w + STRIP <= full {
        let mut acc = 0u32;
        for k in 0..STRIP {
            acc += (a[w + k] ^ b[w + k]).count_ones();
        }
        count += acc as usize;
        w += STRIP;
    }
    while w < full {
        count += (a[w] ^ b[w]).count_ones() as usize;
        w += 1;
    }
    let rem = n_patterns % 64;
    if rem != 0 {
        count += ((a[full] ^ b[full]) & ((1u64 << rem) - 1)).count_ones() as usize;
    }
    count
}

dispatched! {
    /// `(pop(a & b), pop(t & a & b))` over the sample — the two
    /// popcounts a divisor pair needs once the per-divisor terms are
    /// known (see [`tt2_from_pops`]). With `a == b` it gives a single
    /// divisor's `(pop(a), pop(t & a))`, and with `t == a == b` the
    /// target's own `pop(t)` twice.
    pub(crate) fn and_counts = and_counts_scalar(t: &[u64], a: &[u64], b: &[u64], n_patterns: usize)
        -> (usize, usize);
}

/// Scalar body of [`and_counts`].
#[inline(always)]
fn and_counts_scalar(t: &[u64], a: &[u64], b: &[u64], n_patterns: usize) -> (usize, usize) {
    let full = n_patterns / 64;
    let (mut ab, mut tab) = (0usize, 0usize);
    let mut w = 0;
    while w + STRIP <= full {
        let (mut ab_acc, mut tab_acc) = (0u32, 0u32);
        for k in 0..STRIP {
            let x = a[w + k] & b[w + k];
            ab_acc += x.count_ones();
            tab_acc += (x & t[w + k]).count_ones();
        }
        ab += ab_acc as usize;
        tab += tab_acc as usize;
        w += STRIP;
    }
    let mut scan = |w: usize, mask: u64| {
        let x = a[w] & b[w] & mask;
        ab += x.count_ones() as usize;
        tab += (x & t[w]).count_ones() as usize;
    };
    while w < full {
        scan(w, u64::MAX);
        w += 1;
    }
    let rem = n_patterns % 64;
    if rem != 0 {
        scan(full, (1u64 << rem) - 1);
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
    pub(crate) fn tt3_counts = tt3_counts_scalar(
        st: &[u64],
        s1: &[u64],
        s2: &[u64],
        s3: &[u64],
        n_patterns: usize,
    ) -> ([usize; 8], [usize; 8]);
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
    let mut ones = [0usize; 8];
    let mut totals = [0usize; 8];
    let full = n_patterns / 64;
    let mut w = 0;
    while w + STRIP <= full {
        let mut t_acc = [0u32; 8];
        let mut o_acc = [0u32; 8];
        for k in 0..STRIP {
            let (a, b, c, t) = (s1[w + k], s2[w + k], s3[w + k], st[w + k]);
            for m in 0..8usize {
                let ra = if m & 1 != 0 { a } else { !a };
                let rb = if m & 2 != 0 { b } else { !b };
                let rc = if m & 4 != 0 { c } else { !c };
                let reg = ra & rb & rc;
                t_acc[m] += reg.count_ones();
                o_acc[m] += (reg & t).count_ones();
            }
        }
        for m in 0..8 {
            totals[m] += t_acc[m] as usize;
            ones[m] += o_acc[m] as usize;
        }
        w += STRIP;
    }
    let mut scan = |w: usize, mask: u64| {
        let (a, b, c, t) = (s1[w], s2[w], s3[w], st[w] & mask);
        for m in 0..8usize {
            let ra = if m & 1 != 0 { a } else { !a };
            let rb = if m & 2 != 0 { b } else { !b };
            let rc = if m & 4 != 0 { c } else { !c };
            let reg = ra & rb & rc & mask;
            totals[m] += reg.count_ones() as usize;
            ones[m] += (reg & t).count_ones() as usize;
        }
    };
    while w < full {
        scan(w, u64::MAX);
        w += 1;
    }
    let rem = n_patterns % 64;
    if rem != 0 {
        scan(full, (1u64 << rem) - 1);
    }
    (ones, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::popcount;
    use prng::{rngs::StdRng, Rng, SeedableRng};

    fn random_sig(rng: &mut StdRng, words: usize) -> Vec<u64> {
        (0..words).map(|_| rng.gen()).collect()
    }

    #[test]
    fn xor_distance_matches_scalar_popcount() {
        let mut rng = StdRng::seed_from_u64(0x57121);
        // Pattern counts straddling strip boundaries and partial words.
        for &n in &[0usize, 1, 63, 64, 65, 512, 513, 576, 1000, 2048] {
            let words = n.div_ceil(64);
            let a = random_sig(&mut rng, words);
            let b = random_sig(&mut rng, words);
            let xs: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let d = xor_distance(&a, &b, n);
            assert_eq!(d, popcount(&xs, n), "n={n}");
            // The dispatched instance agrees with the scalar one.
            assert_eq!(d, xor_distance_scalar(&a, &b, n), "dispatch n={n}");
        }
    }

    #[test]
    fn tt_counts_match_scalar_scan() {
        let mut rng = StdRng::seed_from_u64(0x57123);
        for &n in &[0usize, 1, 64, 65, 512, 513, 577, 2048] {
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
            let tt3 = tt3_counts(&st, &s1, &s2, &s3, n);
            assert_eq!(tt3, (ones3, totals3), "tt3 n={n}");
            assert_eq!(
                tt3,
                tt3_counts_scalar(&st, &s1, &s2, &s3, n),
                "tt3 dispatch n={n}"
            );

            // The factored pair counts, from dispatched and scalar
            // instances alike, reproduce the direct region scan.
            let pops = |a: &[u64], b: &[u64]| {
                let got = and_counts(&st, a, b, n);
                assert_eq!(got, and_counts_scalar(&st, a, b, n), "and dispatch n={n}");
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
