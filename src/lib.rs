//! # dcs — Distributed Continuation Stealing
//!
//! A Rust reproduction of *"Distributed Continuation Stealing is More
//! Scalable than You Might Think"* (Shiina & Taura, IEEE CLUSTER 2022):
//! a distributed-memory work-stealing runtime with RDMA-style one-sided
//! join protocols, evaluated on a deterministic cluster simulator.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim`] — the simulated RDMA cluster (virtual time, latency profiles,
//!   pinned segments, one-sided verbs, discrete-event engine),
//! * [`uniaddr`] — the uni-address stack address-space model,
//! * [`core`] — the runtime: continuation/child stealing × greedy/stalling
//!   joins, multi-consumer futures, remote-object memory management,
//! * [`apps`] — PFor, RecPFor, UTS and LCS benchmark programs,
//! * [`bot`] — bag-of-tasks baselines (SAWS/Charm++/X10-GLB styles).
//!
//! As in the paper, tasks exchange data only through arguments and return
//! values; global heaps are its §VII future work and are not modelled.
//!
//! ## Quick start
//!
//! ```
//! use dcs::prelude::*;
//! use dcs::apps::uts;
//!
//! let spec = uts::presets::tiny();
//! let cfg = RunConfig::new(8, Policy::ContGreedy);
//! let report = run(cfg, uts::program(spec.clone()));
//! assert_eq!(report.result.as_u64(), uts::serial_count(&spec).nodes);
//! ```
//!
//! See `examples/` for commented walk-throughs and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

pub use dcs_apps as apps;
pub use dcs_bot as bot;
pub use dcs_core as core;
pub use dcs_sim as sim;
pub use dcs_uniaddr as uniaddr;

pub use dcs_core::prelude;
