//! The metric registry: every name the benchmark reports, with its unit,
//! direction and — written down *before* measuring — which end-to-end
//! metric it should move on which workload, and where the prediction is
//! **no change**. `BENCHMARK.json` is generated from this table
//! (`benchmark manifest`) and a test keeps the two in step.

use crate::json::Json;
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric reads. Host numbers are noisy and gated by a
/// bound; virtual numbers and counts are deterministic and must repeat
/// exactly for the same code and seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_s",
        unit: "s",
        clock: Clock::Host,
        bound: 0.25,
        what: "sum over the pass's cells of each cell's lower-quartile wall time across the \
               reps (inputs generated beforehand, tracing off)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        bound: 0.25,
        what: "lower-quartile wall time of input generation + one null-program run under the \
               workload's exact config (Machine/World/actor construction and teardown)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        bound: 0.20,
        what: "VmHWM of the workload's own process at exit",
    },
    EndToEnd {
        name: "makespan_us",
        unit: "us",
        clock: Clock::Virtual,
        bound: 0.10,
        what: "mean virtual makespan over the workload's cell list; exact between runs of \
               identical code and seed",
    },
];

type Moves = &'static [(&'static str, &'static str)];
type Flat = &'static [&'static str];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Deterministic (a count or a virtual time): `compare` demands
    /// bit-identical values between two runs of the same code and seed.
    pub exact: bool,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: Moves,
    /// Workloads on which the prediction is no change.
    pub flat: Flat,
}

const CORE_WORKLOADS: Flat = &[
    "recpfor_steal",
    "uts_tree",
    "lcs_wavefront",
    "scale_sparse",
    "faulted_poll",
    "lattice_matrix",
];
const FAULT_FREE: Flat = &[
    "recpfor_steal",
    "uts_tree",
    "lcs_wavefront",
    "scale_sparse",
    "bot_uts",
    "lattice_matrix",
];

const ENGINE: (Moves, Flat) = (
    &[
        ("host_s", "scale_sparse"),
        ("host_s", "faulted_poll"),
        ("host_s", "bot_uts"),
    ],
    &["lcs_wavefront"],
);
const MEM: (Moves, Flat) = (
    &[
        ("peak_rss_mb", "scale_sparse"),
        ("host_s", "scale_sparse"),
        ("setup_s", "scale_sparse"),
    ],
    &["uts_tree"],
);
const MACHINE: (Moves, Flat) = (
    &[
        ("host_s", "recpfor_steal"),
        ("host_s", "scale_sparse"),
        ("makespan_us", "recpfor_steal"),
    ],
    &["lcs_wavefront"],
);
const MAILBOX: (Moves, Flat) = (&[("host_s", "bot_uts")], CORE_WORKLOADS);
const FAULT: (Moves, Flat) = (&[("host_s", "faulted_poll")], FAULT_FREE);
const UNIADDR: (Moves, Flat) = (&[("host_s", "uts_tree")], &["bot_uts"]);
const DEQUE_HOST: (Moves, Flat) = (
    &[("host_s", "uts_tree"), ("host_s", "recpfor_steal")],
    &["bot_uts"],
);
const DEQUE_VIRTUAL: (Moves, Flat) = (
    &[
        ("makespan_us", "recpfor_steal"),
        ("makespan_us", "lattice_matrix"),
    ],
    &["uts_tree"],
);
const SCHED_STEAL: (Moves, Flat) = (&[("makespan_us", "recpfor_steal")], &["uts_tree"]);
const SCHED_JOIN: (Moves, Flat) = (&[("makespan_us", "lcs_wavefront")], &["uts_tree"]);
const SCHED_HOST: (Moves, Flat) = (&[("host_s", "uts_tree")], &["lcs_wavefront"]);
const RECOVERY: (Moves, Flat) = (&[("makespan_us", "faulted_poll")], FAULT_FREE);
const BOT: (Moves, Flat) = (
    &[("host_s", "bot_uts"), ("makespan_us", "bot_uts")],
    CORE_WORKLOADS,
);
const APPS: (Moves, Flat) = (
    &[("host_s", "lcs_wavefront"), ("host_s", "uts_tree")],
    &["recpfor_steal", "scale_sparse"],
);
// `run_matrix` fans short cells across threads and the explorer replays a
// tiny scenario thousands of times: both are dominated by per-run
// construction and teardown, which is what `setup_s` on the many-short-
// cells workload measures. (Their other consumers — the wall time of
// `scripts/run_all_experiments.sh` and of the CI `check` job — are outside
// this benchmark.)
const SHORT_RUNS: (Moves, Flat) = (&[("setup_s", "lattice_matrix")], &["lcs_wavefront"]);
// Tracing is off in every end-to-end measurement; if its cost leaked into
// the untraced path it would show where events are densest.
const TRACE: (Moves, Flat) = (&[("host_s", "recpfor_steal")], &["lcs_wavefront"]);

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    group: (Moves, Flat),
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
        moves: group.0,
        flat: group.1,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // -- sim.engine ------------------------------------------------------
    m("sim.engine.steps", "count", Lower, true, ENGINE),
    m("sim.engine.host_ns_per_step", "ns", Lower, false, ENGINE),
    m(
        "sim.engine.queue_push_pop_ns.w64",
        "ns",
        Lower,
        false,
        ENGINE,
    ),
    m(
        "sim.engine.queue_push_pop_ns.w16384",
        "ns",
        Lower,
        false,
        ENGINE,
    ),
    m("sim.engine.null_step_ns.w64", "ns", Lower, false, ENGINE),
    m("sim.engine.null_step_ns.w16384", "ns", Lower, false, ENGINE),
    m("sim.engine.share", "share", Lower, false, ENGINE),
    // -- sim.mem ---------------------------------------------------------
    m("sim.mem.write_hit_ns", "ns", Lower, false, MEM),
    m("sim.mem.write_miss_ns", "ns", Lower, false, MEM),
    m("sim.mem.read_absent_ns", "ns", Lower, false, MEM),
    m("sim.mem.peak_resident_bytes", "B", Lower, true, MEM),
    m("sim.mem.host_bytes_per_worker", "B", Lower, false, MEM),
    // -- sim.machine -----------------------------------------------------
    m("sim.machine.remote_ops", "count", Lower, true, MACHINE),
    m("sim.machine.remote_amos", "count", Lower, true, MACHINE),
    m("sim.machine.bytes_moved", "B", Lower, true, MACHINE),
    m("sim.machine.local_ops", "count", Lower, true, MACHINE),
    m("sim.machine.max_inflight", "count", Higher, true, MACHINE),
    m("sim.machine.retries", "count", Lower, true, MACHINE),
    m("sim.machine.fenced_verbs", "count", Lower, true, MACHINE),
    m("sim.machine.verb_blocking_ns", "ns", Lower, false, MACHINE),
    m("sim.machine.verb_posted_ns", "ns", Lower, false, MACHINE),
    m("sim.machine.share", "share", Lower, false, MACHINE),
    // -- sim.mailbox -----------------------------------------------------
    m("sim.mailbox.send_recv_ns", "ns", Lower, false, MAILBOX),
    m("sim.mailbox.messages", "count", Lower, true, MAILBOX),
    // -- sim.fault -------------------------------------------------------
    m("sim.fault.confirmed_dead_ns", "ns", Lower, false, FAULT),
    m("sim.fault.workers_lost", "count", Lower, true, FAULT),
    m("sim.fault.false_suspects", "count", Lower, true, FAULT),
    // -- uniaddr ---------------------------------------------------------
    m("uniaddr.place_release_ns", "ns", Lower, false, UNIADDR),
    m("uniaddr.peak_bytes", "B", Lower, true, UNIADDR),
    m("uniaddr.conflicts", "count", Lower, true, UNIADDR),
    // -- core.deque (per steal protocol) ---------------------------------
    m(
        "core.deque.push_pop_ns.cas-lock",
        "ns",
        Lower,
        false,
        DEQUE_HOST,
    ),
    m(
        "core.deque.steal_ns.cas-lock",
        "ns",
        Lower,
        false,
        DEQUE_HOST,
    ),
    m(
        "core.deque.steal_vns.cas-lock",
        "ns",
        Lower,
        true,
        DEQUE_VIRTUAL,
    ),
    m(
        "core.deque.steal_verbs.cas-lock",
        "count",
        Lower,
        true,
        DEQUE_VIRTUAL,
    ),
    m(
        "core.deque.push_pop_ns.lock-free",
        "ns",
        Lower,
        false,
        DEQUE_HOST,
    ),
    m(
        "core.deque.steal_ns.lock-free",
        "ns",
        Lower,
        false,
        DEQUE_HOST,
    ),
    m(
        "core.deque.steal_vns.lock-free",
        "ns",
        Lower,
        true,
        DEQUE_VIRTUAL,
    ),
    m(
        "core.deque.steal_verbs.lock-free",
        "count",
        Lower,
        true,
        DEQUE_VIRTUAL,
    ),
    m(
        "core.deque.push_pop_ns.fence-free",
        "ns",
        Lower,
        false,
        DEQUE_HOST,
    ),
    m(
        "core.deque.steal_ns.fence-free",
        "ns",
        Lower,
        false,
        DEQUE_HOST,
    ),
    m(
        "core.deque.steal_vns.fence-free",
        "ns",
        Lower,
        true,
        DEQUE_VIRTUAL,
    ),
    m(
        "core.deque.steal_verbs.fence-free",
        "count",
        Lower,
        true,
        DEQUE_VIRTUAL,
    ),
    m("core.deque.share", "share", Lower, false, DEQUE_HOST),
    // -- core.sched ------------------------------------------------------
    m("core.sched.threads", "count", Lower, true, SCHED_HOST),
    m("core.sched.steals_ok", "count", Lower, true, SCHED_STEAL),
    m(
        "core.sched.steals_failed",
        "count",
        Lower,
        true,
        SCHED_STEAL,
    ),
    m(
        "core.sched.steals_abandoned",
        "count",
        Lower,
        true,
        SCHED_STEAL,
    ),
    m(
        "core.sched.steal_success_ratio",
        "ratio",
        Higher,
        true,
        SCHED_STEAL,
    ),
    m(
        "core.sched.steal_latency_ns.mean",
        "ns",
        Lower,
        true,
        SCHED_STEAL,
    ),
    m(
        "core.sched.steal_latency_ns.p50",
        "ns",
        Lower,
        true,
        SCHED_STEAL,
    ),
    m(
        "core.sched.steal_latency_ns.p99",
        "ns",
        Lower,
        true,
        SCHED_STEAL,
    ),
    m("core.sched.copy_time_ns", "ns", Lower, true, SCHED_STEAL),
    m("core.sched.stolen_bytes_avg", "B", Lower, true, SCHED_STEAL),
    m("core.sched.joins_fast", "count", Higher, true, SCHED_JOIN),
    m(
        "core.sched.joins_outstanding",
        "count",
        Lower,
        true,
        SCHED_JOIN,
    ),
    m(
        "core.sched.join_wait_ns.mean",
        "ns",
        Lower,
        true,
        SCHED_JOIN,
    ),
    m("core.sched.join_wait_ns.p50", "ns", Lower, true, SCHED_JOIN),
    m("core.sched.join_wait_ns.p99", "ns", Lower, true, SCHED_JOIN),
    m("core.sched.die_fast", "count", Higher, true, SCHED_JOIN),
    m("core.sched.die_won", "count", Lower, true, SCHED_JOIN),
    m("core.sched.die_lost", "count", Lower, true, SCHED_JOIN),
    m("core.sched.busy_frac", "ratio", Higher, true, SCHED_STEAL),
    m("core.sched.efficiency", "ratio", Higher, true, SCHED_STEAL),
    m(
        "core.sched.scheduler_delay_frac",
        "ratio",
        Lower,
        true,
        SCHED_JOIN,
    ),
    m(
        "core.sched.host_ns_per_task",
        "ns",
        Lower,
        false,
        SCHED_HOST,
    ),
    m(
        "core.sched.residual_share",
        "share",
        Lower,
        false,
        SCHED_HOST,
    ),
    // -- core.recovery ---------------------------------------------------
    m("core.recovery.tasks_lost", "count", Lower, true, RECOVERY),
    m(
        "core.recovery.tasks_replayed",
        "count",
        Lower,
        true,
        RECOVERY,
    ),
    m("core.recovery.ckpt_puts", "count", Lower, true, RECOVERY),
    m("core.recovery.rejoins", "count", Lower, true, RECOVERY),
    // -- bot -------------------------------------------------------------
    m("bot.steals_ok", "count", Lower, true, BOT),
    m("bot.steals_failed", "count", Lower, true, BOT),
    m("bot.token_rounds", "count", Lower, true, BOT),
    m("bot.steps", "count", Lower, true, BOT),
    m("bot.host_ns_per_step", "ns", Lower, false, BOT),
    // -- apps ------------------------------------------------------------
    m("apps.sha1_child_ns", "ns", Lower, false, APPS),
    m("apps.uts_serial_ns_per_node", "ns", Lower, false, APPS),
    m("apps.lcs_leaf_ns", "ns", Lower, false, APPS),
    m("apps.kernel_share", "share", Lower, false, APPS),
    // -- bench.sweep / check / trace ---------------------------------------
    m(
        "bench.sweep.speedup_jobs",
        "ratio",
        Higher,
        false,
        SHORT_RUNS,
    ),
    m("bench.sweep.identical", "count", Higher, true, SHORT_RUNS),
    m(
        "check.explore.schedules_per_s",
        "1/s",
        Higher,
        false,
        SHORT_RUNS,
    ),
    m("trace.overhead_share", "share", Lower, false, TRACE),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|p| p.name == name)
}

/// The contents of `BENCHMARK.json`, generated so that the file and the
/// harness cannot drift (`tests/quick.rs` compares them).
pub fn manifest() -> Json {
    let mut root = Json::obj();
    root.set("command", vec!["bash", "benchmark/run.sh"])
        .set("paths", vec!["benchmark"])
        .set("run_seconds", crate::RUN_SECONDS);
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = Json::obj();
            o.set("name", w.name).set("why", w.why);
            o
        })
        .collect();
    root.set("workloads", Json::Arr(workloads));
    let e2e: Vec<Json> = END_TO_END
        .iter()
        .map(|e| {
            let mut o = Json::obj();
            o.set("name", e.name)
                .set("unit", e.unit)
                .set("better", "lower")
                .set("bound", e.bound);
            o
        })
        .collect();
    root.set("end_to_end", Json::Arr(e2e));
    let layers: Vec<Json> = PER_LAYER
        .iter()
        .map(|p| {
            let mut o = Json::obj();
            o.set("name", p.name)
                .set("unit", p.unit)
                .set("better", p.better.label());
            o
        })
        .collect();
    root.set("per_layer", Json::Arr(layers));
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(PER_LAYER.iter().map(|p| p.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        assert!(END_TO_END.iter().all(|e| unit_ok(e.unit)));
        assert!(PER_LAYER.iter().all(|p| unit_ok(p.unit)));
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move() {
        let workload = |n: &str| WORKLOADS.iter().any(|w| w.name == n);
        for p in PER_LAYER {
            assert!(!p.moves.is_empty(), "{} has no `moves` entry", p.name);
            for (metric, w) in p.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{}: unknown metric {metric}",
                    p.name
                );
                assert!(workload(w), "{}: unknown workload {w}", p.name);
            }
            for w in p.flat {
                assert!(workload(w), "{}: unknown flat workload {w}", p.name);
                assert!(
                    !p.moves.iter().any(|(_, mw)| mw == w),
                    "{}: {w} is both moved and flat",
                    p.name
                );
            }
        }
    }
}
