//! End-to-end and per-layer benchmark of the HVAC read path.
//!
//! Drives an in-process [`hvac_core::Cluster`] through its public API only:
//! `HvacClient::{open, pread, close, read_file_segmented}`, the public
//! metrics snapshots, and a benchmark-owned PFS wrapper around a real
//! `DirStore`. See `README.md` beside this crate for the workloads and the
//! reasons behind them.

pub mod procfs;
pub mod report;
pub mod stats;
pub mod store;
pub mod trace;
pub mod workload;
