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
/// `#[inline(always)]` kernel body `$body`, and `$on` as the same kernel
/// on a chosen [`dispatch::Level`].
///
/// The body is written once and instantiated three times: as is, inside
/// a `#[target_feature(enable = "popcnt")]` function, and inside an
/// x86-64-v4 function (`avx512f`, `avx512bw`, `avx512vl`, `avx512dq`,
/// `avx512vpopcntdq`, `popcnt`); off `x86_64` only the first exists.
/// `$name` runs the instance of [`dispatch::level`], the highest level
/// the CPU supports, detected once and cached, so a call costs one
/// atomic load and a branch. A build without `target-cpu` settings
/// compiles `count_ones` to a software bit-count sequence and every
/// wide-word loop to 64-bit scalar code; the runtime choice gets
/// `popcnt`, and wherever the compiler vectorizes a wide-word loop,
/// `vpopcntq` over 512-bit vectors, without baking a CPU requirement
/// into the binary.
/// Every instance computes the same values, so the scalar body is the
/// test reference: tests call `$on` with each of
/// [`dispatch::Level::supported`].
///
/// Argument types may be `impl Trait`: the instances are then generic,
/// and a closure argument is inlined into each of them.
///
/// ```
/// aig::dispatched! {
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
/// for level in aig::dispatch::Level::supported() {
///     assert_eq!(and_pop_on(level, 0b1110, 0b0111), 2, "{level}");
/// }
/// ```
#[macro_export]
macro_rules! dispatched {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident, $on:ident = $body:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty;
    ) => {
        $(#[$attr])*
        #[inline]
        $vis fn $name($($arg: $ty),*) -> $ret {
            $on($crate::dispatch::level(), $($arg),*)
        }

        // `$on` and the instances take the kernel's arguments (plus the
        // level), however many that is.
        #[allow(unsafe_code, clippy::too_many_arguments)]
        #[inline(always)]
        fn $on(level: $crate::dispatch::Level, $($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(
                    enable = "avx512f,avx512bw,avx512vl,avx512dq,avx512vpopcntdq,popcnt"
                )]
                #[allow(clippy::too_many_arguments)]
                fn avx512_instance($($arg: $ty),*) -> $ret {
                    $body($($arg),*)
                }
                #[target_feature(enable = "popcnt")]
                #[allow(clippy::too_many_arguments)]
                fn popcnt_instance($($arg: $ty),*) -> $ret {
                    $body($($arg),*)
                }
                match level.isa() {
                    // SAFETY: a `Level` comes only from detection on the
                    // running CPU, so it has every feature of its
                    // instance.
                    $crate::dispatch::Isa::Avx512 => return unsafe { avx512_instance($($arg),*) },
                    // SAFETY: as above.
                    $crate::dispatch::Isa::Popcnt => return unsafe { popcnt_instance($($arg),*) },
                    $crate::dispatch::Isa::Scalar => {}
                }
            }
            let _ = level; // the only instance off `x86_64`
            $body($($arg),*)
        }
    };
}

mod cone_impl;
pub mod dispatch;
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
