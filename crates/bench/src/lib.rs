//! Experiment harness for the AccALS reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4). This library crate carries shared reporting
//! helpers.

pub mod exp;
pub mod report;
