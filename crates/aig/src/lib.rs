//! AND-inverter graph (AIG) substrate for approximate logic synthesis.
//!
//! An AIG represents combinational logic as a directed acyclic graph of
//! two-input AND nodes whose edges may be complemented. This crate provides
//! the data structure plus everything the AccALS flow needs to manipulate
//! it:
//!
//! - construction with on-the-fly constant folding and structural hashing
//!   ([`Aig::and`] and the derived gates [`Aig::or`], [`Aig::xor`],
//!   [`Aig::mux`], ...),
//! - topological ordering, logic levels, and fanout indexing
//!   ([`Aig::topo_order`], [`Aig::levels`], [`Fanouts`]),
//! - transitive-fanin/fanout cones, shortest forward path lengths, and
//!   maximum fanout-free cone sizes ([`cone`]),
//! - in-place node substitution and garbage collection
//!   ([`Aig::replace`], [`Aig::compact`]), which are the primitives behind
//!   applying local approximate changes,
//! - a reference single-pattern evaluator ([`Aig::eval`]) used by tests and
//!   small-scale verification, and Graphviz export ([`Aig::to_dot`]).
//!
//! # Example
//!
//! Build a 1-bit full adder and evaluate it:
//!
//! ```
//! use aig::Aig;
//!
//! let mut g = Aig::new("full_adder", 3);
//! let (a, b, cin) = (g.pi(0), g.pi(1), g.pi(2));
//! let a_xor_b = g.xor(a, b);
//! let sum = g.xor(a_xor_b, cin);
//! let ab = g.and(a, b);
//! let bc = g.and(b, cin);
//! let ac = g.and(a, cin);
//! let cout = g.or_many(&[ab, bc, ac]);
//! g.add_output(sum, "sum");
//! g.add_output(cout, "cout");
//!
//! assert_eq!(g.eval(&[true, true, false]), vec![false, true]);
//! assert_eq!(g.eval(&[true, true, true]), vec![true, true]);
//! ```

#![deny(unsafe_code)]

/// Defines `$name` as the runtime-dispatched instance of the
/// `#[inline(always)]` kernel body `$body`.
///
/// The body is written once and instantiated twice: as is, and inside a
/// `#[target_feature(enable = "popcnt")]` function on `x86_64`. The
/// generated entry point calls the POPCNT instance when std's cached
/// `is_x86_feature_detected!("popcnt")` reports the instruction, and
/// the scalar instance otherwise. A build without `target-cpu` settings
/// compiles `count_ones` to a software bit-count sequence; the runtime
/// choice gets the hardware instruction without baking a CPU
/// requirement into the binary. Both instances compute the same
/// values, so the scalar body is the test reference.
///
/// ```
/// aig::dispatched! {
///     /// Set bits of `a & b`.
///     pub fn and_pop = and_pop_scalar(a: u64, b: u64) -> u32;
/// }
///
/// #[inline(always)]
/// fn and_pop_scalar(a: u64, b: u64) -> u32 {
///     (a & b).count_ones()
/// }
///
/// assert_eq!(and_pop(0b1110, 0b0111), and_pop_scalar(0b1110, 0b0111));
/// ```
#[macro_export]
macro_rules! dispatched {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty;
    ) => {
        $(#[$attr])*
        #[allow(unsafe_code)]
        $vis fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "popcnt")]
                fn popcnt_instance($($arg: $ty),*) -> $ret {
                    $body($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("popcnt") {
                    // SAFETY: `popcnt_instance` requires only the
                    // `popcnt` feature, which the running CPU was just
                    // detected to support.
                    return unsafe { popcnt_instance($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

mod cone_impl;
mod dot;
mod edit;
mod error;
mod eval;
mod graph;
mod lit;
mod node;
mod opt;
mod patch;
mod topo;

pub use error::AigError;
pub use graph::{Aig, Output};
pub use lit::Lit;
pub use node::{Node, NodeId};
pub use patch::PatchLog;
pub use topo::Fanouts;

/// Helpers over the old-node → new-literal remapping [`Aig::cleanup`]
/// returns, for caches that carry state across a cleanup.
pub mod remap {
    pub use crate::edit::{identity, image, struct_eq};
}

/// Cone-analysis helpers: transitive fanin/fanout, distances, MFFCs.
pub mod cone {
    pub use crate::cone_impl::{
        mffc_size, shortest_forward_distances, tfi_mask, tfo_mask, BitMask, MffcScratch,
    };
}
