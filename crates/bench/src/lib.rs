//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each function in [`experiments`] builds the scenario behind one table
//! or figure of §5 (or a quantitative claim from §2/§4), runs it through
//! the actual system models, and returns structured results. The `repro`
//! binary renders them in the paper's layout, `repro perf` times the hot
//! paths, and `tests/paper_calibration.rs` checks them against the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cas;
pub mod chaos;
pub mod cluster;
pub mod durability;
pub mod experiments;
pub mod perf;
pub mod render;

pub use cluster::*;
pub use experiments::*;
