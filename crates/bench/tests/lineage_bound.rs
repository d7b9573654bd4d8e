//! The lineage log holds live threads only.
//!
//! An armed fault plan records the origin of every replayable thread, and
//! a record leaves the log when its thread completes. These tests pin the
//! exact record counts of the repo benchmark's `faulted_poll` cell, whose
//! peak is what bounds the log's memory, and check that a kill-free armed
//! run ends with an empty log.

use dcs_apps::uts::{self, presets};
use dcs_bench::faulted_poll;
use dcs_core::prelude::*;
use dcs_core::world::LineageCounts;

/// `faulted_poll` at seed 1 (the cell `selfbench` reports): the log
/// records one origin per replayable thread, but never holds more than a
/// few hundred at once.
#[test]
fn faulted_poll_lineage_counts_are_pinned() {
    let (cfg, spec) = faulted_poll(1);
    let r = run(cfg, uts::program(spec.clone()));
    assert!(r.outcome.is_complete(), "{:?}", r.outcome);
    assert_eq!(r.result.as_u64(), uts::serial_count(&spec).nodes);
    assert_eq!(
        r.lineage,
        LineageCounts {
            recorded: 177_853,
            peak_live: 557,
            live: 0,
        }
    );
}

#[test]
fn armed_kill_free_run_ends_with_no_live_records() {
    for policy in [Policy::ContGreedy, Policy::ContStalling, Policy::ChildRtc] {
        let plan = FaultPlan::parse("recover=on").expect("the plan parses");
        let cfg = RunConfig::new(16, policy)
            .with_seed(3)
            .with_fault_plan(plan);
        let r = run(cfg, uts::program(presets::tiny()));
        assert!(r.outcome.is_complete(), "{policy:?}: {:?}", r.outcome);
        let c = r.lineage;
        assert!(c.recorded > 0, "{policy:?}: an armed run records lineage");
        assert!(c.peak_live < c.recorded, "{policy:?}: {c:?}");
        assert_eq!(c.live, 0, "{policy:?}: every record's thread completed");
    }
}
