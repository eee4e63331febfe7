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

/// Cone-analysis helpers: transitive fanin/fanout, distances, MFFCs.
pub mod cone {
    pub use crate::cone_impl::{
        mffc_size, shortest_forward_distances, tfi_mask, tfo_mask, BitMask, MffcScratch,
    };
}
