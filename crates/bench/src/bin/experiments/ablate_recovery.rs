//! Ablation — what fail-stop recovery costs, armed and firing.
//!
//! Two questions, answered for every runtime that can re-execute lost
//! work: the child run-to-completion fork-join runtime, both
//! continuation-stealing runtimes (greedy and stalling, recoverable via
//! the continuation-lineage log), and the one-sided bag-of-tasks runtime:
//!
//! 1. **Armed overhead.** With recovery armed (`recover=on`: steal-lineage
//!    records, lease-registry reads, transfer counting, buddy header
//!    mirroring for the cont policies) but no kill ever firing, what does
//!    the bookkeeping cost over the completely unarmed run? Asserted, not
//!    just reported: child-rtc and the one-sided BoT ride every record on
//!    packets they send anyway, so their armed makespan must *equal* the
//!    unarmed one. The continuation policies also put a buddy checkpoint
//!    on every steal; that put must stay off the thief's critical path, so
//!    their armed mean steal latency must stay within 3% of unarmed. Their
//!    makespan is not a usable bar: the checkpoint shifts steal timings,
//!    the schedule diverges, and the armed makespan lands anywhere in
//!    0.82–1.22× of unarmed across seeds (faster as often as slower).
//! 2. **Recovery latency.** With worker 1 fail-stopped at 25% / 50% / 75%
//!    of the healthy makespan, how long does the run take to detect the
//!    death (lease expiry), replay the lost subtrees, and still produce
//!    the exact fault-free answer? Every killed run asserts the serial
//!    node count — a kill may only cost time, never nodes. The paid
//!    latency (killed elapsed minus the unarmed baseline) is reported as
//!    its own column.

use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_bot::onesided;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, mnodes, pick};

/// Lease shorter than the default 200µs so detection latency does not
/// dwarf replay latency at the bench's run lengths; still long enough to
/// be realistic against the itoa heartbeat period.
const LEASE: VTime = VTime::us(50);

/// The runtimes: a label and the fork-join policy (`None` is the one-sided
/// BoT).
const RUNTIMES: [(&str, Option<Policy>); 4] = [
    ("child-rtc", Some(Policy::ChildRtc)),
    ("cont-greedy", Some(Policy::ContGreedy)),
    ("cont-stalling", Some(Policy::ContStalling)),
    ("bot-onesided", None),
];

/// Armed-but-idle bound on the continuation policies' mean steal latency.
const ARMED_LATENCY_BUDGET: f64 = 1.03;

#[derive(Clone, Copy)]
enum Scenario {
    /// No fault plan at all: the recovery machinery is compiled out.
    Unarmed,
    /// `recover=on`: lineage + leases + transfer counting run, nothing dies.
    Armed,
    /// Worker 1 fail-stops at this fraction (in percent) of the healthy
    /// makespan.
    KillAt(u64),
}

/// The unarmed run comes first and the armed second: the armed checks and
/// the recovery column read them by position.
const SCENARIOS: [Scenario; 5] = [
    Scenario::Unarmed,
    Scenario::Armed,
    Scenario::KillAt(25),
    Scenario::KillAt(50),
    Scenario::KillAt(75),
];

impl Scenario {
    fn label(&self) -> String {
        match self {
            Scenario::Unarmed => "unarmed".into(),
            Scenario::Armed => "armed".into(),
            Scenario::KillAt(pct) => format!("kill@{pct}%"),
        }
    }

    fn plan(&self, healthy: VTime) -> FaultPlan {
        let mut plan = match self {
            Scenario::Unarmed => return FaultPlan::none(),
            Scenario::Armed => FaultPlan::none().with_recovery(),
            Scenario::KillAt(pct) => {
                FaultPlan::none().with_kill(1, healthy.scale(*pct as f64 / 100.0))
            }
        };
        plan.lease = LEASE;
        plan
    }
}

/// What one run reports.
struct Cell {
    elapsed: VTime,
    lost: u64,
    replayed: u64,
    /// Mean steal latency; zero for the BoT runtime.
    steal_lat: VTime,
}

pub fn tables(jobs: usize) -> Vec<Table> {
    let spec = pick(presets::tiny(), presets::small());
    let p = pick(8, 32);
    let info = uts::serial_count(&spec);
    let profile = profiles::itoa();
    // Every run must complete with the serial node count: a kill may only
    // cost time, never nodes.
    let cell = |policy: Option<Policy>, plan: FaultPlan, ctx: &str| match policy {
        Some(policy) => {
            let r = run(
                config(p, policy).with_fault_plan(plan),
                uts::program(spec.clone()),
            );
            assert!(
                r.outcome.is_complete(),
                "{ctx}: losing worker 1 is recoverable"
            );
            assert_eq!(
                r.result.as_u64(),
                info.nodes,
                "{ctx}: node count must survive the kill"
            );
            Cell {
                elapsed: r.elapsed,
                lost: r.stats.tasks_lost,
                replayed: r.stats.tasks_replayed,
                steal_lat: r.stats.avg_steal_latency(),
            }
        }
        None => {
            let half = onesided::StealAmount::Half;
            let r = onesided::run_uts_faulty(&spec, p, profile.clone(), 1, half, plan);
            assert_eq!(
                r.nodes, info.nodes,
                "{ctx}: node count must survive the kill"
            );
            Cell {
                elapsed: r.elapsed,
                lost: r.lost_tasks,
                replayed: r.reexec_tasks,
                steal_lat: VTime::ZERO,
            }
        }
    };

    // Healthy baselines first: kill times are fractions of these, so the
    // sweep is deterministic for any --jobs value.
    let healthy: Vec<VTime> = sweep::run_matrix(&RUNTIMES, jobs, |_, &(name, policy)| {
        cell(policy, FaultPlan::none(), name).elapsed
    });
    let mut cells = Vec::new();
    for ri in 0..RUNTIMES.len() {
        for sc in SCENARIOS {
            cells.push((ri, sc));
        }
    }
    let results = sweep::run_matrix(&cells, jobs, |_, &(ri, sc)| {
        let (name, policy) = RUNTIMES[ri];
        cell(
            policy,
            sc.plan(healthy[ri]),
            &format!("{name} {}", sc.label()),
        )
    });

    let mut rows = Vec::new();
    for ((name, policy), rs) in RUNTIMES.into_iter().zip(results.chunks(SCENARIOS.len())) {
        let (unarmed, armed) = (&rs[0], &rs[1]);
        if matches!(policy, Some(Policy::ContGreedy | Policy::ContStalling)) {
            let ratio = armed.steal_lat.as_ns() as f64 / unarmed.steal_lat.as_ns() as f64;
            assert!(
                ratio <= ARMED_LATENCY_BUDGET,
                "{name}: armed-but-idle recovery raises mean steal latency by {:.2}% (> {:.0}% budget; {} -> {})",
                (ratio - 1.0) * 100.0,
                (ARMED_LATENCY_BUDGET - 1.0) * 100.0,
                unarmed.steal_lat,
                armed.steal_lat
            );
        } else {
            assert_eq!(
                armed.elapsed, unarmed.elapsed,
                "{name}: armed-but-idle recovery must not move the makespan"
            );
        }
        let base = unarmed.elapsed.as_ns();
        for (sc, c) in SCENARIOS.iter().zip(rs) {
            let slowdown = c.elapsed.as_ns() as f64 / base as f64;
            // Recovery latency actually paid: detection (lease expiry) +
            // replay, over the unarmed baseline of the same runtime.
            let recovery = match sc {
                Scenario::KillAt(_) => c.elapsed.as_ns().saturating_sub(base),
                _ => 0,
            };
            rows.push(row(&[
                &name,
                &sc.label(),
                &p,
                &c.elapsed.as_ns(),
                &format!("{:.3}", mnodes(info.nodes, c.elapsed)),
                &c.lost,
                &c.replayed,
                &format!("{slowdown:.3}"),
                &recovery,
            ]));
        }
    }
    vec![Table {
        csv: "ablate_recovery",
        title: format!(
            "fail-stop recovery ablation (UTS {} nodes, P = {p}, {}, lease {LEASE})",
            info.nodes, profile.name
        ),
        columns: "runtime,scenario,p,elapsed_ns,throughput_mnodes_s,tasks_lost,tasks_replayed,slowdown,recovery_ns",
        rows,
        notes: vec![
            "Expected shape: armed == unarmed exactly for child-rtc and the BoT, and armed".into(),
            "steal latency within 3% for the cont policies (both asserted); killed runs pay".into(),
            "roughly lease expiry + lost-subtree re-execution, growing with how late the kill"
                .into(),
            "lands — and never lose a node.".into(),
        ],
    }]
}
