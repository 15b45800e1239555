//! # dvv-bench — experiment runners behind every table and figure
//!
//! Each `eN_*` function regenerates one row set of the paper
//! reproduction's experiment index (E1–E9); the `figures` binary prints
//! them. The store's hot operations are timed by the repo benchmark
//! (`perfbench/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
