//! Bit-parallel simulation of AND-inverter graphs.
//!
//! Logic values for 64 input patterns are packed into each `u64` word, so
//! one pass over the graph evaluates the whole pattern set. This is the
//! workhorse behind error evaluation in approximate logic synthesis: a
//! shared [`Patterns`] sample is simulated once per circuit
//! ([`simulate`]), and candidate local changes are evaluated by
//! re-simulating only the transitive-fanout cone of the changed node
//! ([`ConeSimulator`]).
//!
//! # Example
//!
//! ```
//! use aig::Aig;
//! use bitsim::{simulate, Patterns};
//!
//! let mut g = Aig::new("xor", 2);
//! let y = g.xor(g.pi(0), g.pi(1));
//! g.add_output(y, "y");
//!
//! let pats = Patterns::exhaustive(2);
//! let sim = simulate(&g, &pats);
//! // Patterns are counted LSB-first: 00, 10, 01, 11.
//! assert_eq!(sim.output_sig(&g, 0)[0] & 0b1111, 0b0110);
//! ```

#![deny(unsafe_code)]

mod cone;
mod patch;
mod patterns;
mod sim;

pub use cone::{ConeSimulator, ConeTopology};
pub use patch::PatchSimulator;
pub use patterns::Patterns;
pub use sim::{simulate, simulate_into, Sim};

/// Runtime instruction-set dispatch for kernel bodies (scalar, POPCNT
/// and AVX-512 VPOPCNTDQ instances), defined in `aig` (the lowest crate,
/// so `aig::BitMask` can use it too) and re-exported here, with its
/// [`dispatch`] levels, for the crates above `bitsim`.
///
/// ```
/// bitsim::dispatched! {
///     /// Set bits of `a & b`.
///     pub fn and_pop, and_pop_on = and_pop_scalar(a: u64, b: u64) -> u32;
/// }
///
/// #[inline(always)]
/// fn and_pop_scalar(a: u64, b: u64) -> u32 {
///     (a & b).count_ones()
/// }
///
/// assert_eq!(and_pop(0b1110, 0b0111), and_pop_scalar(0b1110, 0b0111));
/// for level in bitsim::dispatch::Level::supported() {
///     assert_eq!(and_pop_on(level, 0b1110, 0b0111), 2, "{level}");
/// }
/// ```
pub use aig::{dispatch, dispatched};

/// The valid-pattern mask of word `w` in an `n_patterns` sample: all
/// ones for a full word, the low `n_patterns % 64` bits for a partial
/// tail word, and 0 past the end of the sample.
#[inline]
pub fn word_mask(n_patterns: usize, w: usize) -> u64 {
    let rem = n_patterns.saturating_sub(w * 64);
    if rem >= 64 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

dispatched! {
    /// Counts the set bits in a signature slice, masking the tail word.
    ///
    /// `n_patterns` tells how many leading bits are valid.
    pub fn popcount, popcount_on = popcount_scalar(sig: &[u64], n_patterns: usize) -> usize;
}

/// Scalar body of [`popcount`].
#[inline(always)]
fn popcount_scalar(sig: &[u64], n_patterns: usize) -> usize {
    let full = n_patterns / 64;
    let mut count: usize = sig[..full].iter().map(|w| w.count_ones() as usize).sum();
    let rem = n_patterns % 64;
    if rem != 0 {
        count += (sig[full] & ((1u64 << rem) - 1)).count_ones() as usize;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popcount_masks_tail() {
        let sig = vec![u64::MAX, u64::MAX];
        assert_eq!(popcount(&sig, 128), 128);
        assert_eq!(popcount(&sig, 70), 70);
        assert_eq!(popcount(&sig, 64), 64);
        assert_eq!(popcount(&sig, 3), 3);
    }

    #[test]
    fn word_mask_covers_full_tail_and_past_end_words() {
        assert_eq!(word_mask(128, 1), u64::MAX);
        assert_eq!(word_mask(130, 1), u64::MAX);
        assert_eq!(word_mask(130, 2), 0b11);
        assert_eq!(word_mask(127, 1), u64::MAX >> 1);
        assert_eq!(word_mask(65, 1), 1);
        assert_eq!(word_mask(128, 2), 0);
        assert_eq!(word_mask(3, 5), 0);
        assert_eq!(word_mask(0, 0), 0);
    }

    #[test]
    fn dispatched_popcount_matches_scalar() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let sig: Vec<u64> = (0..130)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state ^ state >> 29
            })
            .collect();
        // Whole words around one and two 512-bit strips, the same
        // lengths with a partial tail word, and a few ragged counts.
        let whole = [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129];
        let ragged = [1usize, 63, 65, 513, 2047, 2560];
        let counts = whole
            .iter()
            .flat_map(|w| [w * 64, (w * 64).saturating_sub(13)]);
        for n in counts.chain(ragged) {
            let expect = popcount_scalar(&sig, n);
            assert_eq!(popcount(&sig, n), expect, "n={n}");
            for level in dispatch::Level::supported() {
                assert_eq!(popcount_on(level, &sig, n), expect, "{level} n={n}");
            }
        }
    }
}
