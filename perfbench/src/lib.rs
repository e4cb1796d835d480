//! # polyframe-perfbench
//!
//! The repository's benchmark: one command takes a workload name and a
//! seed, runs that workload against the PolyFrame workspace, checks
//! every result, and prints each end-to-end metric by name with its
//! unit and sample count. A traced run (`--trace 1`) prints the
//! per-layer metrics instead, derived from benchmark-side spans around
//! calls into each layer's public functions. See `README.md` beside
//! this crate for the workloads and what each metric should move.

pub mod common;
pub mod data;
pub mod metrics;
pub mod paper_read;
pub mod report;
pub mod serve_mixed;
pub mod stats;
pub mod trace;
pub mod trickle_write;
