//! Property test: a one-sided bag run that parks equals one that polls.
//!
//! There is no switch that turns parking off — but a fault plan does, and a
//! plan can be *active yet inert*: a crash window that opens long after the
//! run has ended loads the fault layer (so owners re-read a held bag lock
//! every local op instead of parking on it) without ever firing. The
//! one-sided runtime evaluates nothing else per poll, so the inert run must
//! reproduce the `FaultPlan::none()` run — which parks — in every reported
//! number except `steps`, the count of host-side engine steps.
//!
//! This oracle does **not** extend to the two-sided runtimes: under any
//! active plan a healthy lifeline worker re-arms its lifelines after the
//! retransmit timeout, so an inert plan already changes their message
//! pattern (and steal counts) while everybody polls. For those the pinned
//! digests in `park_pins.rs`, recorded from the polling runtimes, are the
//! park-vs-poll oracle.

use dcs_apps::uts::presets;
use dcs_bot::onesided::{self, StealAmount};
use dcs_bot::{BotReport, Workload};
use dcs_sim::{profiles, FabricMode, FaultPlan};
use proptest::prelude::*;

/// Everything the run reports, minus the host step count.
fn virtual_numbers(r: BotReport) -> String {
    format!("{:?}", BotReport { steps: 0, ..r })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parked_run_equals_polled_run(
        workers in 1usize..48,
        seed in 0u64..u64::MAX,
        half in proptest::bool::ANY,
        pipelined in proptest::bool::ANY,
    ) {
        let work = Workload::Uts(presets::tiny());
        let amount = if half { StealAmount::Half } else { StealAmount::One };
        let fabric = if pipelined { FabricMode::Pipelined } else { FabricMode::Blocking };
        let run = |plan| {
            onesided::run_workload_fabric(&work, workers, profiles::itoa(), seed, amount, plan, fabric)
        };
        let inert = FaultPlan::parse("crash=0@900ms..901ms").expect("plan parses");
        let (parked, polled) = (run(FaultPlan::none()), run(inert));
        prop_assert!(parked.steps <= polled.steps);
        prop_assert_eq!(virtual_numbers(parked), virtual_numbers(polled));
    }
}
