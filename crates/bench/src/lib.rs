//! # dcs-bench — the experiment harness
//!
//! Two binaries: `experiments` regenerates every table and figure of the
//! paper's evaluation plus the ablations (its module doc lists them; see
//! DESIGN.md §5 for the experiment index), and `selfbench` measures the
//! simulator's host throughput. The library is what they share with the
//! `dcs` CLI and the `benchmark/` crate: the host-parallel [`sweep`] and
//! the quick-mode switch — plus [`faulted_poll`], the one armed-recovery
//! cell `selfbench` reports and a test pins.

pub mod sweep;

/// True when the harness should shrink workloads (CI / smoke runs).
pub fn quick() -> bool {
    std::env::var("DCS_QUICK").is_ok_and(|v| v != "0")
}

/// The fault plan of the repo benchmark's `faulted_poll` workload
/// (`benchmark/src/workloads.rs`): three staggered kills, the root holder
/// included, under the message detector with lossy heartbeats.
pub const FAULTED_POLL_PLAN: &str = "kill=0@200us,kill=3@400us,kill=17@600us,detector=message,\
                                     suspect=300us,hb=50us,lease=400us,drop=0.05";

/// `faulted_poll`'s full-size cell at `seed`: 128-worker cont-greedy UTS
/// on `presets::medium()` under [`FAULTED_POLL_PLAN`]: the run's config
/// and its tree (a caller checks the node count against it).
pub fn faulted_poll(seed: u64) -> (dcs_core::RunConfig, dcs_apps::uts::UtsSpec) {
    let plan = dcs_sim::FaultPlan::parse(FAULTED_POLL_PLAN)
        .expect("the frozen fault plan parses")
        .with_seed(seed);
    let cfg = dcs_core::RunConfig::new(128, dcs_core::Policy::ContGreedy)
        .with_seed(seed)
        .with_fault_plan(plan);
    (cfg, dcs_apps::uts::presets::medium())
}
