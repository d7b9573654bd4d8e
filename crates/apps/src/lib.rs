//! # dcs-apps — the paper's benchmark applications
//!
//! * [`pfor`] — PFor and RecPFor synthetic benchmarks (§IV-C, Fig. 5/6,
//!   Table II, Fig. 7),
//! * [`uts`] — Unbalanced Tree Search with SHA-1 tree generation (§V-C,
//!   Fig. 8/9), fork-join parallelization,
//! * [`lcs`] — longest common subsequence via recursive decomposition and
//!   multi-consumer futures (§V-D, Fig. 10–12, Table III),
//! * [`sha1`] — the SHA-1 substrate UTS relies on.
//!
//! Each program carries its own closed forms for work and span
//! ([`pfor::PforParams::pfor_t1`], [`pfor::PforParams::recpfor_t1`],
//! [`uts::serial_vtime`], [`lcs::LcsParams::t1`], [`lcs::LcsParams::t_inf`]),
//! so a run's distance from `T1 / P` needs no separate calibration program.

pub mod lcs;
pub mod pfor;
pub mod sha1;
pub mod uts;
