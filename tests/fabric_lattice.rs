//! The fabric × ring lattice, end to end: every policy × steal protocol ×
//! probe-ring width must compute the same answer whether the machine runs
//! its one verb sequence at issue depth 1 (`FabricMode::Blocking`) or
//! overlaps it (`FabricMode::Pipelined`) — and only the latter may ever have
//! more than one verb in flight.

use dcs::apps::pfor::{recpfor_program, PforParams};
use dcs::apps::uts;
use dcs::prelude::*;
use dcs::sim::{FabricMode, FaultPlan, VTime};

const FABRICS: [FabricMode; 2] = [FabricMode::Blocking, FabricMode::Pipelined];

fn cfg(policy: Policy, protocol: Protocol, k: u32, fabric: FabricMode) -> RunConfig {
    RunConfig::new(8, policy)
        .with_protocol(protocol)
        .with_multi_steal(k)
        .with_fabric(fabric)
        .with_seg_bytes(64 << 20)
}

/// Run `program` through every policy × protocol cell of ring widths `ks`
/// at both depths; `check` sees each (blocking, pipelined) pair.
fn for_every_cell(
    ks: &[u32],
    program: impl Fn() -> Program,
    check: impl Fn(&str, &RunReport, &RunReport),
) {
    for policy in Policy::ALL {
        for protocol in Protocol::ALL {
            for &k in ks {
                let cell = format!("{policy:?}/{protocol:?}/K={k}");
                let [blk, pip] = FABRICS.map(|f| run(cfg(policy, protocol, k, f), program()));
                assert_eq!(blk.threads, pip.threads, "{cell}: threads");
                assert_eq!(blk.fabric.max_inflight, 1, "{cell}: depth 1 is depth 1");
                assert_eq!(blk.fabric.cq_polls, 0, "{cell}: depth 1 never polls");
                if pip.stats.steals_ok > 0 {
                    assert!(pip.fabric.max_inflight >= 2, "{cell}: pipelined steals overlap");
                }
                check(&cell, &blk, &pip);
            }
        }
    }
}

#[test]
fn both_depths_agree_on_recpfor() {
    let program = || recpfor_program(PforParams { n: 16, k: 2, m: VTime::us(2) });
    for_every_cell(&[1, 2], program, |cell, blk, pip| {
        assert_eq!(blk.result, pip.result, "{cell}: result");
    });
}

fn uts_cells(ks: &[u32]) {
    let spec = uts::presets::tiny();
    let nodes = uts::serial_count(&spec).nodes;
    for_every_cell(
        ks,
        || uts::program(spec.clone()),
        |cell, blk, pip| {
            assert_eq!(blk.result.as_u64(), nodes, "{cell}: blocking");
            assert_eq!(pip.result.as_u64(), nodes, "{cell}: pipelined");
        },
    );
}

// Two tests so the harness runs the two ring widths side by side.
#[test]
fn both_depths_agree_on_uts_k1() {
    uts_cells(&[1]);
}

#[test]
fn both_depths_agree_on_uts_k2() {
    uts_cells(&[2]);
}

#[test]
fn both_depths_survive_a_kill_and_a_false_suspicion() {
    let spec = uts::presets::tiny();
    let nodes = uts::serial_count(&spec).nodes;
    let healthy = run(
        cfg(Policy::ContGreedy, Protocol::CasLock, 1, FabricMode::Blocking),
        uts::program(spec.clone()),
    );
    let kill = format!("kill=3@{}ns", healthy.elapsed.as_ns() / 3);
    let suspicion = "detector=message,hb=1us,suspect=3us,degrade=1@0..1s*20";
    for fabric in FABRICS {
        for (plan, k) in [(kill.as_str(), 2), (suspicion, 1)] {
            let plan = FaultPlan::parse(plan).expect("plan parses");
            let r = run(
                cfg(Policy::ContGreedy, Protocol::CasLock, k, fabric).with_fault_plan(plan.clone()),
                uts::program(spec.clone()),
            );
            assert_eq!(r.outcome, RunOutcome::Complete, "{fabric:?} under {plan}");
            assert_eq!(r.result.as_u64(), nodes, "{fabric:?} under {plan}");
            if plan.suspicion_possible() {
                assert!(r.stats.false_suspects >= 1, "{fabric:?}: the plan must bite");
            } else {
                assert_eq!(r.stats.workers_lost, 1, "{fabric:?}: the kill must fire");
            }
        }
    }
}
