//! # dcs-bench — the experiment harness
//!
//! Two binaries: `experiments` regenerates every table and figure of the
//! paper's evaluation plus the ablations (its module doc lists them; see
//! DESIGN.md §5 for the experiment index), and `selfbench` measures the
//! simulator's host throughput. The library is what they share with the
//! `dcs` CLI and the `benchmark/` crate: the host-parallel [`sweep`] and
//! the quick-mode switch.

pub mod sweep;

/// True when the harness should shrink workloads (CI / smoke runs).
pub fn quick() -> bool {
    std::env::var("DCS_QUICK").is_ok_and(|v| v != "0")
}
