//! Ablation — what imperfect failure detection costs when nothing dies.
//!
//! The message-based detector can only ever *infer* death from heartbeat
//! silence, so a degraded NIC or a lossy control network makes it evict
//! live workers. The runtime survives that (the "corpse" self-fences and
//! rejoins as a fresh incarnation; its in-flight work is replayed from
//! lineage), but survival has a price. This ablation measures it, for all
//! three fork-join runtimes, with **zero real kills**:
//!
//! 1. **Detector agreement.** Loss-free, the message detector must be a
//!    no-op: same makespan as the oracle detector with the same recovery
//!    machinery armed, zero false suspects. Asserted exactly, not
//!    reported-only — heartbeats are modelled as pure functions of the
//!    fault plan and cost nothing unless they go missing.
//! 2. **False-positive rate vs lease aggressiveness.** Under two noise
//!    models — a degraded NIC on worker 1 (heartbeats delayed by the
//!    flight-scale factor, onset gap ≈ (factor−1)·flight) and a lossy
//!    heartbeat channel (each beat independently dropped with p = 0.2) —
//!    sweep the suspect lease from 2× to 8× the heartbeat period. Short
//!    leases buy fast true detection in exchange for false evictions;
//!    the sweep shows the false-suspect count, the rejoins that repair
//!    them, the epoch-fenced verbs each eviction strands, and what the
//!    whole circus does to the makespan.
//!
//! Every cell asserts the exact serial node count and `workers_lost == 0`:
//! false suspicion may cost time and fenced verbs, never nodes.

use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_core::prelude::*;
use dcs_sim::{DegradeWindow, Detector};

use crate::table::{row, Table};
use crate::{config, mnodes, pick};

/// Heartbeat period. Suspect leases are multiples of this; the parser
/// floor (suspect ≥ hb + flight) admits every multiple ≥ 2 swept here.
const HB: VTime = VTime::us(10);

/// Degraded-NIC flight-scale factor: beats arrive (factor−1)·flight late
/// at the window's onset, so a ~39µs arrival gap confronts each lease.
const NIC_FACTOR: f64 = 40.0;

/// Lossy-channel heartbeat drop probability.
const DROP_P: f64 = 0.2;

const POLICIES: [(&str, Policy); 3] = [
    ("child-rtc", Policy::ChildRtc),
    ("cont-greedy", Policy::ContGreedy),
    ("cont-stalling", Policy::ContStalling),
];

#[derive(Clone, Copy)]
enum Scenario {
    /// Oracle detector, recovery armed: the baseline every other cell is
    /// measured against (same bookkeeping, perfect detection).
    OracleArmed,
    /// Message detector, loss-free channel: must match the baseline
    /// byte-for-byte in elapsed time.
    MsgLossFree,
    /// Worker 1's NIC degraded by [`NIC_FACTOR`] over the mid-run window;
    /// suspect lease = `mult × HB`.
    DegradedNic(u64),
    /// Every heartbeat dropped with probability [`DROP_P`]; suspect lease
    /// = `mult × HB`.
    LossyHb(u64),
}

impl Scenario {
    fn label(&self) -> String {
        match self {
            Scenario::OracleArmed => "oracle".into(),
            Scenario::MsgLossFree => "msg-lossfree".into(),
            Scenario::DegradedNic(m) => format!("degraded-nic/{m}x"),
            Scenario::LossyHb(m) => format!("lossy-hb/{m}x"),
        }
    }

    /// The suspect lease in ns, 0 for the two baselines.
    fn suspect_ns(&self) -> u64 {
        match self {
            Scenario::DegradedNic(m) | Scenario::LossyHb(m) => HB.scale(*m as f64).as_ns(),
            _ => 0,
        }
    }

    /// `healthy` anchors the degrade window at run-relative instants, so
    /// the sweep is deterministic for any `--jobs` value.
    fn plan(&self, healthy: VTime) -> FaultPlan {
        let mut plan = match self {
            Scenario::OracleArmed => FaultPlan::none().with_recovery(),
            Scenario::MsgLossFree => FaultPlan::none()
                .with_recovery()
                .with_detector(Detector::Message),
            Scenario::DegradedNic(mult) => FaultPlan::none()
                .with_detector(Detector::Message)
                .with_suspect(HB.scale(*mult as f64))
                .with_degrade(DegradeWindow {
                    worker: 1,
                    from: healthy.scale(0.25),
                    until: healthy.scale(0.75),
                    factor: NIC_FACTOR,
                }),
            Scenario::LossyHb(mult) => {
                let mut p = FaultPlan::none()
                    .with_detector(Detector::Message)
                    .with_suspect(HB.scale(*mult as f64));
                p.msg_drop_p = DROP_P;
                p
            }
        };
        plan.hb_period = HB;
        plan
    }
}

pub fn tables(jobs: usize) -> Vec<Table> {
    let spec = pick(presets::tiny(), presets::small());
    let p = pick(8, 32);
    let info = uts::serial_count(&spec);
    let mults = [2u64, 3, 5, 8];
    let mut scenarios = vec![Scenario::OracleArmed, Scenario::MsgLossFree];
    scenarios.extend(mults.iter().map(|&m| Scenario::DegradedNic(m)));
    scenarios.extend(mults.iter().map(|&m| Scenario::LossyHb(m)));
    let run_uts = |policy: Policy, plan: FaultPlan| {
        run(
            config(p, policy).with_fault_plan(plan),
            uts::program(spec.clone()),
        )
    };

    // Healthy (unarmed) makespans anchor each runtime's degrade window.
    let healthy: Vec<VTime> = POLICIES
        .iter()
        .map(|&(_, policy)| run_uts(policy, FaultPlan::none()).elapsed)
        .collect();

    let mut cells = Vec::new();
    for pi in 0..POLICIES.len() {
        for &sc in &scenarios {
            cells.push((pi, sc));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(pi, sc)| {
        let (name, policy) = POLICIES[pi];
        let r = run_uts(policy, sc.plan(healthy[pi]));
        let ctx = format!("{name} {}", sc.label());
        assert!(
            r.outcome.is_complete(),
            "{ctx}: suspicion is survivable: {:?}",
            r.outcome
        );
        assert_eq!(
            r.result.as_u64(),
            info.nodes,
            "{ctx}: node count must survive false eviction"
        );
        assert_eq!(r.stats.workers_lost, 0, "{ctx}: nobody actually died");
        assert_eq!(
            r.stats.rejoins, r.stats.false_suspects,
            "{ctx}: every falsely evicted worker rejoins"
        );
        r
    });

    let mut rows = Vec::new();
    for ((name, _), rs) in POLICIES.into_iter().zip(reports.chunks(scenarios.len())) {
        // Detector agreement: loss-free, the message detector is
        // indistinguishable from the oracle — exactly, not "to within
        // noise". Scenarios 0 and 1 are the oracle and msg-lossfree.
        let base = rs[0].elapsed.as_ns();
        assert_eq!(
            rs[1].elapsed.as_ns(),
            base,
            "{name}: loss-free message detector must match the oracle makespan"
        );
        assert_eq!(
            rs[1].stats.false_suspects, 0,
            "{name}: loss-free ⇒ no suspicion"
        );
        for (sc, r) in scenarios.iter().zip(rs) {
            let slowdown = r.elapsed.as_ns() as f64 / base as f64;
            rows.push(row(&[
                &name,
                &sc.label(),
                &sc.suspect_ns(),
                &p,
                &r.elapsed.as_ns(),
                &format!("{:.3}", mnodes(info.nodes, r.elapsed)),
                &r.stats.false_suspects,
                &r.stats.rejoins,
                &r.stats.tasks_replayed,
                &r.fabric.fenced_verbs,
                &format!("{slowdown:.3}"),
            ]));
        }
    }
    vec![Table {
        csv: "ablate_suspicion",
        title: format!(
            "imperfect-detection ablation (UTS {} nodes, P = {p}, ITO-A, hb {HB}, no kills)",
            info.nodes
        ),
        columns: "runtime,scenario,suspect_ns,p,elapsed_ns,throughput_mnodes_s,false_suspects,rejoins,tasks_replayed,fenced_verbs,slowdown",
        rows,
        notes: vec![
            "Expected shape: msg-lossfree == oracle exactly (asserted); aggressive leases".into(),
            "(2–3× hb) pay false evictions + replay under noise, conservative ones (5–8×)".into(),
            "ride it out — and no cell ever loses a node or a worker.".into(),
        ],
    }]
}
