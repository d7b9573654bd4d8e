//! Assembling and driving a complete run.
//!
//! [`run`] builds the simulated machine, places the root task on worker 0,
//! drives the discrete-event engine to completion and returns a
//! [`RunReport`] with the program result, the virtual execution time and all
//! statistics — everything the benchmark binaries need to regenerate the
//! paper's tables and figures.

use std::sync::Arc;

use dcs_sim::{Engine, FabricStats, Machine, MachineConfig, ScheduleHook, VTime};

use crate::frame::{AppCtx, TaskFn};
use crate::layout::SegLayout;
use crate::policy::RunConfig;
use crate::sched::Worker;
use crate::stats::RunStats;
use crate::value::Value;
use crate::watchdog::{Violation, WatchdogReport};
use crate::world::{LineageCounts, RtShared, World};

/// A program: root task + argument + application context shared by all
/// tasks (inputs, workload parameters).
pub struct Program {
    pub root: TaskFn,
    pub arg: Value,
    pub app: AppCtx,
}

impl Program {
    pub fn new(root: TaskFn, arg: impl Into<Value>) -> Program {
        Program {
            root,
            arg: arg.into(),
            app: Arc::new(()),
        }
    }

    pub fn with_app<T: Send + Sync + 'static>(mut self, app: T) -> Program {
        self.app = Arc::new(app);
        self
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The root task completed and published its result.
    Complete,
    /// A fail-stop kill destroyed state that genuinely cannot be
    /// re-executed (ChildFull's private stacks, or a loss that leaves no
    /// survivor): the run aborted with a diagnostic instead of hanging.
    /// `frames` are the thread ids lost with `worker`; `reason` is the
    /// typed cause.
    Unrecoverable {
        worker: usize,
        frames: Vec<u64>,
        reason: crate::world::UnrecoverableReason,
    },
}

impl RunOutcome {
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }
}

/// Everything a run produces.
pub struct RunReport {
    /// How the run ended; `result` is meaningful only when `Complete`.
    pub outcome: RunOutcome,
    /// The root task's return value ([`Value::Unit`] on an unrecoverable
    /// abort).
    pub result: Value,
    /// Virtual makespan (time the last worker halted).
    pub elapsed: VTime,
    /// Scheduler statistics (Table II metrics, Fig. 7 series).
    pub stats: RunStats,
    /// Fabric totals across all workers.
    pub fabric: FabricStats,
    /// Total host-side engine steps (simulation effort).
    pub steps: u64,
    /// Total threads spawned (root included).
    pub threads: u64,
    /// Sum of per-worker busy time; `busy_total / (P * elapsed)` is the
    /// busy fraction.
    pub busy_total: VTime,
    /// Peak uni-address region usage across workers (bytes); zero when the
    /// run used the iso-address scheme.
    pub uni_peak: u64,
    /// Peak iso-address pinned space (bytes); zero under uni-address.
    pub iso_peak: u64,
    /// Total uni-address migration conflicts across workers.
    pub uni_conflicts: u64,
    /// Peak evacuation-region bytes across workers.
    pub evac_peak: u64,
    /// Peak ChildFull stack count across workers.
    pub full_stack_peak: u64,
    /// Invariant-watchdog findings; `None` when the run carried no watchdog
    /// (the default for fault-free runs).
    pub watchdog: Option<WatchdogReport>,
    /// Lineage-log record counts (all zero without an armed fault plan).
    pub lineage: LineageCounts,
}

impl RunReport {
    /// Parallel efficiency against an externally computed ideal time
    /// (`T1 / P`), as plotted in Fig. 6.
    pub fn efficiency(&self, ideal: VTime) -> f64 {
        ideal.as_ns() as f64 / self.elapsed.as_ns() as f64
    }
}

/// Execute `program` under `cfg`, driving the simulation to completion.
pub fn run(cfg: RunConfig, program: Program) -> RunReport {
    run_full(cfg, program).0
}

/// Like [`run`], but also returns the final [`Machine`] so callers can
/// read its end-of-run memory accounting (e.g. host backing bytes).
pub fn run_full(cfg: RunConfig, program: Program) -> (RunReport, Machine) {
    run_inner(cfg, program, |e| e.run())
}

/// Like [`run`], but the engine's actor-step order is chosen by `hook`
/// (see [`ScheduleHook`]) — the seam `dcs-check` drives interleaving
/// exploration through.
pub fn run_hooked<H: ScheduleHook + ?Sized>(
    cfg: RunConfig,
    program: Program,
    hook: &mut H,
) -> RunReport {
    run_inner(cfg, program, |e| {
        // Exploration reorders actor steps, which breaks the parked-spin
        // wake-instant computation: keep the spin loops stepping.
        e.world.rt.allow_park = false;
        e.run_with_hook(hook)
    })
    .0
}

fn run_inner(
    mut cfg: RunConfig,
    program: Program,
    drive: impl FnOnce(&mut Engine<World, Worker>) -> dcs_sim::engine::EngineReport,
) -> (RunReport, Machine) {
    assert!(cfg.workers >= 1, "need at least one worker");
    // Fail-stop kills make leaks unavoidable (entries on a dead worker's
    // segment can never be freed) and recovery re-executes work, so the
    // strict end-of-run asserts do not apply: correctness is judged on the
    // result and the watchdog instead. A message-based detector can evict
    // a *live* worker on suspicion — the same recovery machinery fires with
    // no kill scheduled — so suspicion-capable plans drop strict too.
    cfg.strict = cfg.strict && cfg.fault.kill.is_empty() && !cfg.fault.suspicion_possible();
    let lay = SegLayout::new(&cfg);
    let machine = Machine::new(
        MachineConfig::new(cfg.workers, cfg.profile.clone())
            .with_seg_bytes(cfg.seg_bytes)
            .with_reserved(lay.reserved)
            .with_topology(cfg.topology.clone())
            .with_faults(cfg.fault.clone())
            .with_fabric(cfg.fabric)
            .with_doorbell(cfg.doorbell),
    );
    let max_steps = cfg.max_steps;
    let strict = cfg.strict;
    let seed = cfg.seed;
    let workers = cfg.workers;
    let rt = RtShared::new(cfg);
    let mut world = World { m: machine, rt };

    let actors: Vec<Worker> = (0..workers)
        .map(|w| {
            let root = if w == 0 {
                Some((program.root, program.arg.clone()))
            } else {
                None
            };
            Worker::new(w, &mut world, lay, Arc::clone(&program.app), root, seed)
        })
        .collect();

    let mut engine = Engine::new(world, actors)
        .with_max_steps(max_steps)
        .with_waker(|w, out| w.m.take_wakeups(out));
    let report = drive(&mut engine);
    let (world, _actors) = engine.into_parts();
    let World { m, mut rt } = world;

    rt.watch_settle_lineage();
    let mut watchdog = rt.watch_finish();
    let outcome = match rt.unrecoverable.take() {
        Some((worker, frames, reason)) => RunOutcome::Unrecoverable {
            worker,
            frames,
            reason,
        },
        None => RunOutcome::Complete,
    };
    let result = match rt.result.take() {
        Some(v) => v,
        None => {
            assert!(
                !outcome.is_complete(),
                "run finished without a root result"
            );
            Value::Unit
        }
    };
    if strict {
        assert!(
            rt.meta.is_empty(),
            "{} thread entries leaked",
            rt.meta.len()
        );
        assert!(
            rt.retvals.is_empty(),
            "{} return values leaked",
            rt.retvals.len()
        );
        assert_eq!(
            rt.stats.threads_spawned, rt.stats.threads_died,
            "thread spawn/death imbalance"
        );
        for (w, ws) in rt.per.iter().enumerate() {
            assert_eq!(ws.uni.live(), 0, "worker {w} leaked uni-address slots");
            assert_eq!(ws.evac.live_bytes(), 0, "worker {w} leaked evacuations");
            assert_eq!(ws.full_stacks_live, 0, "worker {w} leaked full stacks");
        }
        assert_eq!(rt.iso.live(), 0, "iso-address slots leaked");
    } else if let Some(wd) = &mut watchdog {
        // Non-strict with a watchdog (the dcs-check configuration): route
        // the same end-of-run accounting into the report as violations
        // instead of panicking, so an exploring checker sees them as oracle
        // findings.
        let mut leak = |what: &'static str, count: u64| {
            if count > 0 {
                wd.violations.push(Violation::Leak { what, count });
            }
        };
        leak("thread entries", rt.meta.len() as u64);
        leak("return values", rt.retvals.len() as u64);
        leak(
            "uni-address slots",
            rt.per.iter().map(|ws| ws.uni.live() as u64).sum(),
        );
        leak(
            "evacuated bytes",
            rt.per.iter().map(|ws| ws.evac.live_bytes()).sum(),
        );
        leak(
            "full stacks",
            rt.per.iter().map(|ws| ws.full_stacks_live).sum(),
        );
        leak("iso-address slots", rt.iso.live() as u64);
    }
    if let Some(wd) = &watchdog {
        if strict && !wd.is_clean() {
            panic!("invariant watchdog tripped:\n{wd}");
        }
    }

    let uni_peak = rt.per.iter().map(|w| w.uni.stats().peak_bytes).max().unwrap_or(0);
    let uni_conflicts = rt.per.iter().map(|w| w.uni.stats().conflicts).sum();
    let evac_peak = rt.per.iter().map(|w| w.evac.peak_bytes()).max().unwrap_or(0);
    let full_stack_peak = rt.per.iter().map(|w| w.full_stacks_peak).max().unwrap_or(0);
    let iso_peak = rt.iso.peak_bytes();

    let rep = RunReport {
        outcome,
        result,
        elapsed: report.end_time,
        busy_total: rt.stats.busy_total,
        threads: rt.stats.threads_spawned,
        stats: rt.stats,
        fabric: m.stats_total(),
        steps: report.steps,
        uni_peak,
        iso_peak,
        uni_conflicts,
        evac_peak,
        full_stack_peak,
        watchdog,
        lineage: rt.lineage.counts(),
    };
    (rep, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{frame, Effect, TaskCtx};
    use crate::policy::{Policy, TraceLevel};
    use dcs_sim::profiles;

    /// fib(n) via naive fork-join — touches spawn, join, die on every path.
    fn fib(arg: Value, _ctx: &mut TaskCtx) -> Effect {
        let n = arg.as_u64();
        if n < 2 {
            return Effect::ret(n);
        }
        Effect::fork(
            fib,
            n - 1,
            frame(move |h, _| {
                let h = h.as_handle();
                Effect::call(
                    fib,
                    n - 2,
                    frame(move |b, _| {
                        let b = b.as_u64();
                        Effect::join(
                            h,
                            frame(move |a, _| Effect::ret(a.as_u64() + b)),
                        )
                    }),
                )
            }),
        )
    }

    fn fib_serial(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_serial(n - 1) + fib_serial(n - 2)
        }
    }

    fn run_fib(policy: Policy, workers: usize, n: u64) -> RunReport {
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20);
        run(cfg, Program::new(fib, n))
    }

    #[test]
    fn fib_single_worker_all_policies() {
        for policy in Policy::ALL {
            let r = run_fib(policy, 1, 10);
            assert_eq!(r.result.as_u64(), fib_serial(10), "{policy:?}");
        }
    }

    #[test]
    fn fib_multi_worker_all_policies() {
        for policy in Policy::ALL {
            for workers in [2, 4, 7] {
                let r = run_fib(policy, workers, 12);
                assert_eq!(
                    r.result.as_u64(),
                    fib_serial(12),
                    "{policy:?} workers={workers}"
                );
                assert!(r.threads > 100, "{policy:?} must spawn threads");
            }
        }
    }

    #[test]
    fn steals_happen_under_contention() {
        let r = run_fib(Policy::ContGreedy, 4, 14);
        assert!(r.stats.steals_ok > 0, "expected successful steals");
        assert!(
            r.stats.avg_stolen_bytes() > 300,
            "continuation steals move stacks, got {} B",
            r.stats.avg_stolen_bytes()
        );
        let r = run_fib(Policy::ChildFull, 4, 14);
        assert!(r.stats.steals_ok > 0);
        assert!(
            r.stats.avg_stolen_bytes() < 100,
            "child steals move descriptors, got {} B",
            r.stats.avg_stolen_bytes()
        );
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let a = run_fib(Policy::ContGreedy, 3, 12);
        let b = run_fib(Policy::ContGreedy, 3, 12);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.stats.steals_ok, b.stats.steals_ok);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn pipelined_fabric_is_correct_all_policies() {
        use dcs_sim::FabricMode;
        for policy in Policy::ALL {
            for workers in [1, 4] {
                let cfg = RunConfig::new(workers, policy)
                    .with_profile(profiles::test_profile())
                    .with_seg_bytes(64 << 20)
                    .with_fabric(FabricMode::Pipelined);
                let r = run(cfg, Program::new(fib, 12u64));
                assert_eq!(
                    r.result.as_u64(),
                    fib_serial(12),
                    "{policy:?} workers={workers}"
                );
                if let Some(wd) = r.watchdog {
                    assert!(wd.is_clean(), "{policy:?}: {wd}");
                }
            }
        }
    }

    #[test]
    fn pipelined_fabric_overlaps_and_wins_on_real_latencies() {
        use dcs_sim::FabricMode;
        let cfg = |mode| {
            RunConfig::new(4, Policy::ContGreedy)
                .with_profile(profiles::itoa())
                .with_seg_bytes(64 << 20)
                .with_fabric(mode)
        };
        let blk = run(cfg(FabricMode::Blocking), Program::new(fib, 14u64));
        let pip = run(cfg(FabricMode::Pipelined), Program::new(fib, 14u64));
        assert_eq!(blk.result, pip.result);
        assert!(pip.stats.steals_ok > 0, "need steals to exercise overlap");
        // The thief posts the lock-release put and the stack copy get
        // concurrently; retiring them under one wait must show up both in
        // the queue depth and in virtual time.
        assert!(
            pip.fabric.max_inflight >= 2,
            "pipelined steals must hold >1 verb in flight, got {}",
            pip.fabric.max_inflight
        );
        assert_eq!(blk.fabric.max_inflight, 1, "blocking never overlaps");
        assert_eq!(blk.fabric.cq_polls, 0, "blocking wrappers never poll");
        assert!(
            pip.stats.avg_steal_latency() < blk.stats.avg_steal_latency(),
            "overlap must shorten steals: pipelined {:?} vs blocking {:?}",
            pip.stats.avg_steal_latency(),
            blk.stats.avg_steal_latency()
        );
    }

    #[test]
    fn pipelined_fabric_is_deterministic() {
        use dcs_sim::FabricMode;
        let go = || {
            let cfg = RunConfig::new(4, Policy::ChildRtc)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fabric(FabricMode::Pipelined);
            run(cfg, Program::new(fib, 13u64))
        };
        let (a, b) = (go(), go());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.stats.steals_ok, b.stats.steals_ok);
        assert_eq!(a.fabric, b.fabric);
    }

    #[test]
    fn pipelined_fib_correct_under_transient_faults_all_policies() {
        use dcs_sim::{FabricMode, FaultPlan};
        for policy in Policy::ALL {
            let cfg = RunConfig::new(4, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fabric(FabricMode::Pipelined)
                .with_fault_plan(FaultPlan::transient(0.02, 7));
            let r = run(cfg, Program::new(fib, 12u64));
            assert_eq!(r.result.as_u64(), fib_serial(12), "{policy:?}");
            let wd = r.watchdog.expect("watchdog on by default");
            assert!(wd.is_clean(), "{policy:?}: {wd}");
        }
    }

    #[test]
    fn pipelined_child_rtc_recovers_from_fail_stop_kill() {
        use dcs_sim::{FabricMode, FaultPlan};
        let healthy = run(
            kill_cfg(Policy::ChildRtc, FaultPlan::none()).with_fabric(FabricMode::Pipelined),
            Program::new(fib, 14u64),
        );
        let want = fib_serial(14);
        // Same early/mid/late kill sweep as the blocking variant: a kill can
        // land between a steal's post and its reap, which must not lose the
        // in-flight child (the lineage record is written at post time).
        for frac in [4u64, 2, 1] {
            let t = healthy.elapsed / (frac + 1) * frac / 2;
            let cfg = kill_cfg(Policy::ChildRtc, FaultPlan::none().with_kill(2, t))
                .with_fabric(FabricMode::Pipelined);
            let r = run(cfg, Program::new(fib, 14u64));
            assert_eq!(r.outcome, RunOutcome::Complete, "kill at {t}");
            assert_eq!(r.result.as_u64(), want, "kill at {t}");
            assert_eq!(r.stats.workers_lost, 1, "kill at {t}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = |s| {
            RunConfig::new(4, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seed(s)
                .with_seg_bytes(64 << 20)
        };
        let a = run(cfg(1), Program::new(fib, 13u64));
        let b = run(cfg(2), Program::new(fib, 13u64));
        assert_eq!(a.result, b.result, "result is schedule-independent");
        // Timings almost surely differ with different victim choices.
        assert_ne!(a.steps, b.steps);
    }

    #[test]
    fn fib_correct_under_transient_faults_all_policies() {
        use dcs_sim::FaultPlan;
        for policy in Policy::ALL {
            let cfg = RunConfig::new(4, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fault_plan(FaultPlan::transient(0.02, 7));
            let r = run(cfg, Program::new(fib, 12u64));
            assert_eq!(r.result.as_u64(), fib_serial(12), "{policy:?}");
            assert!(r.fabric.retries > 0, "{policy:?}: fault plan must bite");
            let wd = r.watchdog.expect("fault runs carry a watchdog");
            assert!(wd.is_clean(), "{policy:?}: {wd}");
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use dcs_sim::FaultPlan;
        let mk = || {
            RunConfig::new(3, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fault_plan(FaultPlan::transient(0.05, 42))
        };
        let a = run(mk(), Program::new(fib, 12u64));
        let b = run(mk(), Program::new(fib, 12u64));
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.fabric.retries, b.fabric.retries);
        assert_eq!(a.stats.blacklist_skips, b.stats.blacklist_skips);
    }

    #[test]
    fn crash_window_delays_but_completes() {
        use dcs_sim::{CrashWindow, FaultPlan, VTime};
        let crash = CrashWindow {
            worker: 1,
            from: VTime::us(5),
            until: VTime::us(500),
        };
        let cfg = |plan: FaultPlan| {
            RunConfig::new(4, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fault_plan(plan)
        };
        let healthy = run(cfg(FaultPlan::none()), Program::new(fib, 12u64));
        let crashed = run(
            cfg(FaultPlan::none().with_crash(crash)),
            Program::new(fib, 12u64),
        );
        assert_eq!(crashed.result.as_u64(), fib_serial(12));
        assert!(
            crashed.elapsed >= healthy.elapsed,
            "losing a worker cannot speed the run up"
        );
        assert!(crashed.watchdog.expect("watchdog on").is_clean());
    }

    /// Binary fork-join over `n` leaves, each burning 50 µs of scaled
    /// compute — the workload that makes compute-slowdown windows visible.
    fn leaves(arg: Value, ctx: &mut TaskCtx) -> Effect {
        let n = arg.as_u64();
        if n == 1 {
            return Effect::compute(
                ctx.scaled(dcs_sim::VTime::us(50)),
                frame(|_, _| Effect::ret(1u64)),
            );
        }
        let half = n / 2;
        Effect::fork(
            leaves,
            half,
            frame(move |h, _| {
                let h = h.as_handle();
                Effect::call(
                    leaves,
                    n - half,
                    frame(move |b, _| {
                        let b = b.as_u64();
                        Effect::join(h, frame(move |a, _| Effect::ret(a.as_u64() + b)))
                    }),
                )
            }),
        )
    }

    #[test]
    fn slowdown_window_slows_only_while_open() {
        use dcs_sim::VTime;
        let base = RunConfig::new(2, Policy::ContGreedy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20);
        let healthy = run(base.clone(), Program::new(leaves, 16u64));
        assert_eq!(healthy.result.as_u64(), 16);
        // A 100× slowdown of worker 0 covering the whole run must hurt; the
        // same window closed before the run starts must change nothing.
        let slowed = run(
            base.clone().with_slowdown(0, 100.0, VTime::ZERO, VTime::MAX),
            Program::new(leaves, 16u64),
        );
        assert!(slowed.elapsed > healthy.elapsed);
        let noop = run(
            base.clone()
                .with_slowdown(0, 100.0, VTime::MAX - VTime::ns(1), VTime::MAX),
            Program::new(leaves, 16u64),
        );
        assert_eq!(noop.elapsed, healthy.elapsed, "closed window must be free");
        // And the legacy wrapper is exactly the whole-run window.
        let wrapped = run(base.with_straggler(0, 100.0), Program::new(leaves, 16u64));
        assert_eq!(wrapped.elapsed, slowed.elapsed);
    }

    /// Shared config for fail-stop tests: 4 workers, child run-to-completion.
    fn kill_cfg(policy: Policy, plan: dcs_sim::FaultPlan) -> RunConfig {
        RunConfig::new(4, policy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20)
            .with_fault_plan(plan)
    }

    #[test]
    fn child_rtc_recovers_from_fail_stop_kill() {
        use dcs_sim::FaultPlan;
        let healthy = run_fib(Policy::ChildRtc, 4, 14);
        let want = fib_serial(14);
        // Kill worker 2 at several points across the healthy run's span so
        // we exercise early (little stolen yet), mid, and late kills.
        let mut replayed_somewhere = false;
        for frac in [4u64, 2, 1] {
            let t = healthy.elapsed / (frac + 1) * frac / 2;
            let r = run(
                kill_cfg(Policy::ChildRtc, FaultPlan::none().with_kill(2, t)),
                Program::new(fib, 14u64),
            );
            assert_eq!(r.outcome, RunOutcome::Complete, "kill at {t}");
            assert_eq!(r.result.as_u64(), want, "kill at {t}");
            assert_eq!(r.stats.workers_lost, 1, "kill at {t}");
            replayed_somewhere |= r.stats.tasks_replayed > 0;
            assert!(
                r.elapsed >= healthy.elapsed,
                "losing a worker cannot speed the run up (kill at {t})"
            );
        }
        assert!(replayed_somewhere, "at least one kill must force re-execution");
    }

    #[test]
    fn child_rtc_recovers_from_half_the_machine_dying() {
        use dcs_sim::FaultPlan;
        let healthy = run_fib(Policy::ChildRtc, 4, 14);
        let t = healthy.elapsed / 3;
        // W/2 = 2 victims, staggered so the second dies while recovery of
        // the first may still be in flight (cascading loss).
        let plan = FaultPlan::none()
            .with_kill(2, t)
            .with_kill(3, t + healthy.elapsed / 5);
        let r = run(kill_cfg(Policy::ChildRtc, plan), Program::new(fib, 14u64));
        assert_eq!(r.outcome, RunOutcome::Complete);
        assert_eq!(r.result.as_u64(), fib_serial(14));
        assert_eq!(r.stats.workers_lost, 2);
    }

    #[test]
    fn continuation_policies_recover_from_fail_stop_kill() {
        use dcs_sim::FaultPlan;
        for policy in [Policy::ContGreedy, Policy::ContStalling] {
            let healthy = run_fib(policy, 4, 14);
            let want = fib_serial(14);
            // Early / mid / late kills, as in the ChildRtc sweep: a kill
            // can land while continuations are suspended at joins, parked
            // in deques, or mid-steal.
            for frac in [4u64, 2, 1] {
                let t = healthy.elapsed / (frac + 1) * frac / 2;
                let r = run(
                    kill_cfg(policy, FaultPlan::none().with_kill(1, t)),
                    Program::new(fib, 14u64),
                );
                assert_eq!(r.outcome, RunOutcome::Complete, "{policy:?} kill at {t}");
                assert_eq!(r.result.as_u64(), want, "{policy:?} kill at {t}");
                assert_eq!(r.stats.workers_lost, 1, "{policy:?} kill at {t}");
            }
        }
    }

    #[test]
    fn pipelined_continuation_policies_recover_from_fail_stop_kill() {
        use dcs_sim::{FabricMode, FaultPlan};
        for policy in [Policy::ContGreedy, Policy::ContStalling] {
            let healthy = run(
                kill_cfg(policy, FaultPlan::none()).with_fabric(FabricMode::Pipelined),
                Program::new(fib, 14u64),
            );
            let want = fib_serial(14);
            for frac in [4u64, 2, 1] {
                let t = healthy.elapsed / (frac + 1) * frac / 2;
                let cfg = kill_cfg(policy, FaultPlan::none().with_kill(1, t))
                    .with_fabric(FabricMode::Pipelined);
                let r = run(cfg, Program::new(fib, 14u64));
                assert_eq!(r.outcome, RunOutcome::Complete, "{policy:?} kill at {t}");
                assert_eq!(r.result.as_u64(), want, "{policy:?} kill at {t}");
            }
        }
    }

    #[test]
    fn child_full_aborts_with_typed_reason_on_kill() {
        use dcs_sim::FaultPlan;
        let policy = Policy::ChildFull;
        let healthy = run_fib(policy, 4, 14);
        let plan = FaultPlan::none().with_kill(1, healthy.elapsed / 3);
        let r = run(kill_cfg(policy, plan), Program::new(fib, 14u64));
        match &r.outcome {
            RunOutcome::Unrecoverable { worker, reason, .. } => {
                assert_eq!(*worker, 1);
                assert_eq!(*reason, crate::world::UnrecoverableReason::FullStacks);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        let wd = r.watchdog.expect("fault runs carry a watchdog");
        assert!(
            wd.violations
                .iter()
                .any(|v| matches!(v, crate::watchdog::Violation::WorkerLost { .. })),
            "abort must name the lost worker"
        );
    }

    #[test]
    fn killing_worker_zero_re_elects_the_root_holder() {
        use dcs_sim::FaultPlan;
        let want = fib_serial(14);
        for policy in [Policy::ChildRtc, Policy::ContGreedy, Policy::ContStalling] {
            let healthy = run_fib(policy, 4, 14);
            let plan = FaultPlan::none().with_kill(0, healthy.elapsed / 3);
            let r = run(kill_cfg(policy, plan), Program::new(fib, 14u64));
            assert_eq!(r.outcome, RunOutcome::Complete, "{policy:?}");
            assert_eq!(r.result.as_u64(), want, "{policy:?}");
            assert!(
                r.stats.tasks_replayed > 0,
                "{policy:?}: a root kill must force re-election via replay"
            );
        }
    }

    #[test]
    fn killing_every_worker_aborts_with_all_dead_reason() {
        use dcs_sim::{FaultPlan, VTime};
        let healthy = run_fib(Policy::ContGreedy, 2, 12);
        let t = healthy.elapsed / 3;
        // Both workers die inside one lease window: nobody survives to
        // replay, so the run must abort (typed), never hang.
        let plan = FaultPlan::none()
            .with_kill(0, t)
            .with_kill(1, t + VTime::us(1));
        let r = run(
            RunConfig::new(2, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fault_plan(plan),
            Program::new(fib, 12u64),
        );
        match &r.outcome {
            RunOutcome::Unrecoverable { reason, .. } => {
                assert_eq!(*reason, crate::world::UnrecoverableReason::AllWorkersDead);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn continuation_recovery_mirrors_steal_splits() {
        use dcs_sim::FaultPlan;
        // An armed (kill-free) continuation run records lineage at every
        // fork and mirrors headers at every steal split; the kill-free
        // answer and the mirror traffic must both be there.
        let r = run(
            kill_cfg(Policy::ContGreedy, FaultPlan::none().with_recovery()),
            Program::new(fib, 14u64),
        );
        assert_eq!(r.result.as_u64(), fib_serial(14));
        assert!(r.stats.steals_ok > 0, "need steals to exercise mirroring");
        assert_eq!(
            r.stats.ckpt_puts, r.stats.steals_ok,
            "every continuation steal split mirrors one header"
        );
    }

    #[test]
    fn killed_runs_are_deterministic() {
        use dcs_sim::FaultPlan;
        let healthy = run_fib(Policy::ChildRtc, 4, 13);
        let mk = || {
            kill_cfg(
                Policy::ChildRtc,
                FaultPlan::none().with_kill(2, healthy.elapsed / 3),
            )
        };
        let a = run(mk(), Program::new(fib, 13u64));
        let b = run(mk(), Program::new(fib, 13u64));
        assert_eq!(a.result, b.result);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.stats.tasks_replayed, b.stats.tasks_replayed);
    }

    #[test]
    fn healthy_runs_are_bit_identical_with_recovery_compiled_in() {
        // The whole fail-stop path is gated on a non-empty kill plan; a
        // plan-free run must not pay for it (satellite: <= 2% overhead is
        // measured by the ablate_recovery bench; identity is checked here).
        let a = run_fib(Policy::ChildRtc, 4, 13);
        let b = run(
            kill_cfg(Policy::ChildRtc, dcs_sim::FaultPlan::none()),
            Program::new(fib, 13u64),
        );
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.stats.tasks_replayed, 0);
        assert_eq!(a.stats.workers_lost, 0);
    }

    // ------------------------------------------------------------------
    // imperfect failure detection (message detector, suspicion, rejoin)
    // ------------------------------------------------------------------

    /// Message detector over a loss-free fabric: the suspect-lease floor
    /// (`suspect >= hb + flight`) guarantees a visible beat inside every
    /// lease window, so no live worker is ever suspected and the run is
    /// result-identical to the oracle's.
    #[test]
    fn loss_free_message_detector_never_suspects() {
        use dcs_sim::{fault::Detector, FaultPlan};
        let oracle = run_fib(Policy::ContGreedy, 4, 13);
        let r = run(
            kill_cfg(
                Policy::ContGreedy,
                FaultPlan::none().with_detector(Detector::Message),
            ),
            Program::new(fib, 13u64),
        );
        assert_eq!(r.outcome, RunOutcome::Complete);
        assert_eq!(r.result, oracle.result);
        assert_eq!(r.stats.false_suspects, 0, "loss-free fabric must never suspect");
        assert_eq!(r.stats.rejoins, 0);
        assert_eq!(r.stats.workers_lost, 0);
    }

    /// The deterministic false-suspicion recipe: a degraded-NIC window
    /// stretches worker 1's beat flight past an aggressive suspect lease,
    /// so survivors evict a perfectly live worker. The run must still
    /// complete with the fault-free answer — the evictee self-fences,
    /// sheds its (drained) state and rejoins as a fresh incarnation.
    #[test]
    fn false_suspicion_evicts_rejoins_and_completes() {
        use dcs_sim::{fault::Detector, DegradeWindow, FaultPlan, VTime};
        let want = fib_serial(14);
        for policy in [Policy::ContGreedy, Policy::ContStalling, Policy::ChildRtc] {
            let mut plan = FaultPlan::none()
                .with_detector(Detector::Message)
                .with_suspect(VTime::us(3))
                .with_degrade(DegradeWindow {
                    worker: 1,
                    from: VTime::ZERO,
                    until: VTime::MAX,
                    factor: 20.0,
                });
            plan.hb_period = VTime::us(1);
            let r = run(kill_cfg(policy, plan), Program::new(fib, 14u64));
            assert_eq!(r.outcome, RunOutcome::Complete, "{policy:?}");
            assert_eq!(r.result.as_u64(), want, "{policy:?}");
            assert!(
                r.stats.false_suspects >= 1,
                "{policy:?}: the degraded window must trigger a false suspicion"
            );
            assert_eq!(
                r.stats.rejoins, r.stats.false_suspects,
                "{policy:?}: every evicted-live worker rejoins"
            );
            assert_eq!(r.stats.workers_lost, 0, "{policy:?}: nobody actually died");
        }
    }

    /// `rejoin=off`: the falsely-evicted worker halts instead of rejoining;
    /// the survivors replay its drained lineage and still finish correctly.
    #[test]
    fn false_suspicion_with_rejoin_disabled_still_completes() {
        use dcs_sim::{fault::Detector, DegradeWindow, FaultPlan, VTime};
        let mut plan = FaultPlan::none()
            .with_detector(Detector::Message)
            .with_suspect(VTime::us(3))
            .with_degrade(DegradeWindow {
                worker: 1,
                from: VTime::ZERO,
                until: VTime::MAX,
                factor: 20.0,
            });
        plan.hb_period = VTime::us(1);
        plan.rejoin = false;
        let r = run(kill_cfg(Policy::ContGreedy, plan), Program::new(fib, 14u64));
        assert_eq!(r.outcome, RunOutcome::Complete);
        assert_eq!(r.result.as_u64(), fib_serial(14));
        assert!(r.stats.false_suspects >= 1);
        assert_eq!(r.stats.rejoins, 0, "rejoin=off must keep the evictee down");
    }

    /// Suspicion-capable runs stay deterministic (beat drops and suspicion
    /// windows are pure functions of the seed and the virtual clock).
    #[test]
    fn suspicion_runs_are_deterministic() {
        use dcs_sim::{fault::Detector, DegradeWindow, FaultPlan, VTime};
        let mk = || {
            let mut plan = FaultPlan::none()
                .with_detector(Detector::Message)
                .with_suspect(VTime::us(3))
                .with_degrade(DegradeWindow {
                    worker: 1,
                    from: VTime::ZERO,
                    until: VTime::MAX,
                    factor: 20.0,
                });
            plan.hb_period = VTime::us(1);
            run(kill_cfg(Policy::ContGreedy, plan), Program::new(fib, 13u64))
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.stats.false_suspects, b.stats.false_suspects);
        assert_eq!(a.stats.rejoins, b.stats.rejoins);
    }

    // ------------------------------------------------------------------
    // steal-protocol families (CAS-lock / lock-free / fence-free)
    // ------------------------------------------------------------------

    use crate::policy::Protocol;

    fn proto_cfg(protocol: Protocol, policy: Policy, workers: usize) -> RunConfig {
        RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20)
            .with_protocol(protocol)
    }

    #[test]
    fn fib_correct_under_all_protocols_and_policies() {
        let want = fib_serial(12);
        for protocol in Protocol::ALL {
            for policy in Policy::ALL {
                for workers in [1, 4] {
                    let r = run(
                        proto_cfg(protocol, policy, workers),
                        Program::new(fib, 12u64),
                    );
                    assert_eq!(
                        r.result.as_u64(),
                        want,
                        "{protocol:?} {policy:?} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_default_protocols_steal_without_the_deque_lock() {
        for protocol in [Protocol::LockFree, Protocol::FenceFree] {
            let r = run(
                proto_cfg(protocol, Policy::ContGreedy, 4),
                Program::new(fib, 14u64),
            );
            assert_eq!(r.result.as_u64(), fib_serial(14), "{protocol:?}");
            assert!(r.stats.steals_ok > 0, "{protocol:?}: expected steals");
        }
    }

    #[test]
    fn fence_free_issues_zero_amo_verbs() {
        // The headline property of the third family: with the CAS lock gone
        // from the steal path and no other AMO user in the configuration
        // (single-consumer joins, local-collection frees, run-to-completion
        // children), the whole run is read/write-only.
        let r = run(
            proto_cfg(Protocol::FenceFree, Policy::ChildRtc, 4),
            Program::new(fib, 14u64),
        );
        assert_eq!(r.result.as_u64(), fib_serial(14));
        assert!(r.stats.steals_ok > 0, "need steals to make the claim mean something");
        assert_eq!(
            r.fabric.remote_amos, 0,
            "fence-free steals must not issue AMO verbs"
        );
        // The same run under the other families pays for its atomics.
        for protocol in [Protocol::CasLock, Protocol::LockFree] {
            let r = run(
                proto_cfg(protocol, Policy::ChildRtc, 4),
                Program::new(fib, 14u64),
            );
            assert!(r.fabric.remote_amos > 0, "{protocol:?} steals use AMOs");
        }
    }

    #[test]
    fn fence_free_pipelined_overlaps_claim_and_copy() {
        use dcs_sim::FabricMode;
        let cfg = |mode| {
            proto_cfg(Protocol::FenceFree, Policy::ChildRtc, 4)
                .with_profile(profiles::itoa())
                .with_fabric(mode)
        };
        let blk = run(cfg(FabricMode::Blocking), Program::new(fib, 14u64));
        let pip = run(cfg(FabricMode::Pipelined), Program::new(fib, 14u64));
        assert_eq!(blk.result, pip.result);
        assert!(pip.stats.steals_ok > 0);
        // The thief posts the payload get and the top-hint put together —
        // overlap without a single atomic on the wire.
        assert_eq!(pip.fabric.remote_amos, 0);
        assert!(
            pip.fabric.max_inflight >= 2,
            "pipelined fence-free steals must overlap, got {}",
            pip.fabric.max_inflight
        );
    }

    #[test]
    fn ff_counters_are_zero_under_the_other_families() {
        for protocol in [Protocol::CasLock, Protocol::LockFree] {
            let r = run(
                proto_cfg(protocol, Policy::ContGreedy, 4),
                Program::new(fib, 13u64),
            );
            assert_eq!(r.stats.ff_dups, 0, "{protocol:?}");
            assert_eq!(r.stats.ff_lost_races, 0, "{protocol:?}");
        }
    }

    #[test]
    fn protocols_are_deterministic() {
        for protocol in [Protocol::LockFree, Protocol::FenceFree] {
            let go = || {
                run(
                    proto_cfg(protocol, Policy::ContGreedy, 4),
                    Program::new(fib, 13u64),
                )
            };
            let (a, b) = (go(), go());
            assert_eq!(a.elapsed, b.elapsed, "{protocol:?}");
            assert_eq!(a.steps, b.steps, "{protocol:?}");
            assert_eq!(a.fabric, b.fabric, "{protocol:?}");
        }
    }

    #[test]
    fn protocols_survive_transient_faults() {
        use dcs_sim::FaultPlan;
        for protocol in [Protocol::LockFree, Protocol::FenceFree] {
            for policy in Policy::ALL {
                let cfg = proto_cfg(protocol, policy, 4)
                    .with_fault_plan(FaultPlan::transient(0.02, 7));
                let r = run(cfg, Program::new(fib, 12u64));
                assert_eq!(r.result.as_u64(), fib_serial(12), "{protocol:?} {policy:?}");
                let wd = r.watchdog.expect("fault runs carry a watchdog");
                assert!(wd.is_clean(), "{protocol:?} {policy:?}: {wd}");
            }
        }
    }

    #[test]
    fn protocols_recover_from_fail_stop_kill() {
        use dcs_sim::FaultPlan;
        for protocol in [Protocol::LockFree, Protocol::FenceFree] {
            for policy in [Policy::ChildRtc, Policy::ContGreedy, Policy::ContStalling] {
                let healthy = run(
                    kill_cfg(policy, FaultPlan::none()).with_protocol(protocol),
                    Program::new(fib, 14u64),
                );
                let want = fib_serial(14);
                for frac in [4u64, 2, 1] {
                    let t = healthy.elapsed / (frac + 1) * frac / 2;
                    let cfg = kill_cfg(policy, FaultPlan::none().with_kill(1, t))
                        .with_protocol(protocol);
                    let r = run(cfg, Program::new(fib, 14u64));
                    assert_eq!(
                        r.outcome,
                        RunOutcome::Complete,
                        "{protocol:?} {policy:?} kill at {t}"
                    );
                    assert_eq!(r.result.as_u64(), want, "{protocol:?} {policy:?} kill at {t}");
                    assert_eq!(r.stats.workers_lost, 1, "{protocol:?} {policy:?} kill at {t}");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // multi-steal probe rings (`--multi-steal K`) + doorbell batching
    // ------------------------------------------------------------------

    #[test]
    fn multi_steal_correct_all_protocols_and_fabrics() {
        use dcs_sim::FabricMode;
        let want = fib_serial(12);
        for protocol in Protocol::ALL {
            for mode in [FabricMode::Blocking, FabricMode::Pipelined] {
                for k in [2u32, 4] {
                    let cfg = proto_cfg(protocol, Policy::ContGreedy, 4)
                        .with_fabric(mode)
                        .with_multi_steal(k);
                    let r = run(cfg, Program::new(fib, 12u64));
                    assert_eq!(r.result.as_u64(), want, "{protocol:?} {mode:?} K={k}");
                    assert!(r.stats.steals_ok > 0, "{protocol:?} {mode:?} K={k}");
                }
            }
        }
    }

    #[test]
    fn multi_steal_k1_is_byte_identical_to_the_serial_path() {
        // K=1 must take the old single-victim path exactly: the probe ring
        // is gated on `multi_steal >= 2`, so all pre-existing goldens hold.
        let a = run_fib(Policy::ContGreedy, 4, 13);
        let k1 = run(
            RunConfig::new(4, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_multi_steal(1),
            Program::new(fib, 13u64),
        );
        assert_eq!(a.elapsed, k1.elapsed);
        assert_eq!(a.steps, k1.steps);
        assert_eq!(a.fabric, k1.fabric);
    }

    #[test]
    fn multi_steal_is_deterministic() {
        use dcs_sim::FabricMode;
        for protocol in Protocol::ALL {
            let go = || {
                run(
                    proto_cfg(protocol, Policy::ContGreedy, 4)
                        .with_fabric(FabricMode::Pipelined)
                        .with_multi_steal(3),
                    Program::new(fib, 13u64),
                )
            };
            let (a, b) = (go(), go());
            assert_eq!(a.elapsed, b.elapsed, "{protocol:?}");
            assert_eq!(a.steps, b.steps, "{protocol:?}");
            assert_eq!(a.fabric, b.fabric, "{protocol:?}");
        }
    }

    #[test]
    fn multi_steal_chains_probes_through_the_doorbell() {
        use dcs_sim::FabricMode;
        let cfg = proto_cfg(Protocol::CasLock, Policy::ContGreedy, 4)
            .with_fabric(FabricMode::Pipelined)
            .with_multi_steal(4)
            .with_doorbell(0.25);
        let r = run(cfg, Program::new(fib, 14u64));
        assert_eq!(r.result.as_u64(), fib_serial(14));
        assert!(r.stats.steals_ok > 0);
        assert!(
            r.fabric.doorbell_chained > 0,
            "K=4 probe rings must chain their verbs through the doorbell"
        );
    }

    #[test]
    fn multi_steal_accounts_abandoned_attempts() {
        use dcs_sim::FabricMode;
        // With K=4 probes outstanding against a busy 4-worker ring, some
        // probe must eventually find work at a victim that lost the ring
        // order — that attempt is abandoned (released, never retried as a
        // failure) and must be counted as such, not folded into failures
        // or the latency mean.
        let cfg = proto_cfg(Protocol::CasLock, Policy::ContGreedy, 4)
            .with_fabric(FabricMode::Pipelined)
            .with_multi_steal(4);
        let r = run(cfg, Program::new(fib, 16u64));
        assert_eq!(r.result.as_u64(), fib_serial(16));
        assert!(
            r.stats.steals_abandoned > 0,
            "a K=4 sweep over fib(16) must abandon at least one ready victim"
        );
    }

    #[test]
    fn sole_survivor_never_draws_a_confirmed_dead_victim_forever() {
        use dcs_sim::{FaultPlan, VTime};
        // Satellite regression: with W-1 peers confirmed dead (permanent
        // blacklist), select_victim must fall back to a live peer while one
        // exists and must not hang once none does — the run completes on
        // the sole survivor either way. K=2 keeps the probe ring in play so
        // its dead-guard fail-fast path is exercised too.
        let healthy = run_fib(Policy::ChildRtc, 4, 14);
        let t = healthy.elapsed / 4;
        let plan = FaultPlan::none()
            .with_kill(1, t)
            .with_kill(2, t + VTime::us(50))
            .with_kill(3, t + VTime::us(100));
        let r = run(
            kill_cfg(Policy::ChildRtc, plan).with_multi_steal(2),
            Program::new(fib, 14u64),
        );
        assert_eq!(r.outcome, RunOutcome::Complete);
        assert_eq!(r.result.as_u64(), fib_serial(14));
        assert_eq!(r.stats.workers_lost, 3);
    }

    #[test]
    fn multi_steal_recovers_from_fail_stop_kill_all_protocols() {
        use dcs_sim::FaultPlan;
        let want = fib_serial(14);
        for protocol in Protocol::ALL {
            let healthy = run(
                kill_cfg(Policy::ContGreedy, FaultPlan::none())
                    .with_protocol(protocol)
                    .with_multi_steal(2),
                Program::new(fib, 14u64),
            );
            let t = healthy.elapsed / 3;
            let cfg = kill_cfg(Policy::ContGreedy, FaultPlan::none().with_kill(1, t))
                .with_protocol(protocol)
                .with_multi_steal(2);
            let r = run(cfg, Program::new(fib, 14u64));
            assert_eq!(r.outcome, RunOutcome::Complete, "{protocol:?}");
            assert_eq!(r.result.as_u64(), want, "{protocol:?}");
            assert_eq!(r.stats.workers_lost, 1, "{protocol:?}");
        }
    }

    #[test]
    fn series_trace_collects_busy_events() {
        let cfg = RunConfig::new(2, Policy::ContGreedy)
            .with_profile(profiles::test_profile())
            .with_trace(TraceLevel::Series)
            .with_seg_bytes(64 << 20);
        let r = run(cfg, Program::new(fib, 10u64));
        assert!(!r.stats.busy_events.is_empty());
        let series = r.stats.busy_series(r.elapsed, 10);
        assert_eq!(series.len(), 11);
        assert_eq!(series.last().unwrap().1, 0, "all idle at the end");
    }
}
