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

/// Counts the set bits in a signature slice, masking the tail word.
///
/// `n_patterns` tells how many leading bits are valid.
pub fn popcount(sig: &[u64], n_patterns: usize) -> usize {
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
}
