//! End-to-end and per-layer benchmark of the PMS simulator stack.
//!
//! Four workloads (`paper-n128`, `fabric-n512`, `observe-n64`,
//! `admit-n128`), each a fixed mix of cells run through the public API of
//! the repository's crates. See README.md for what each workload
//! exercises and which per-layer metric should move which end-to-end
//! metric.

#![forbid(unsafe_code)]

pub mod bench;
pub mod cells;
pub mod drift;
pub mod replay;
pub mod spans;
pub mod stats;
