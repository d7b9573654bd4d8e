//! Parked equals polled: a run whose owner-side lock spins park on the
//! engine's wake mechanism must be indistinguishable — in every virtual
//! number — from the same run with every spin stepping.
//!
//! The polling reference is [`run_hooked`] under [`FirstRunnable`], a
//! schedule hook that always picks index 0: the engine's own unit test pins
//! that choice to [`run`]'s order, and hooked runs never park. The two runs
//! must agree on everything but `steps`: the outcome and result, `elapsed`,
//! every `RunStats` field, the fabric counters, the watchdog text and
//! `max_gap`, the lineage counts and the stack peaks.
//!
//! The grid crosses every policy and steal protocol with a kill, a kill
//! under a lossy message detector, a crash window, a degraded NIC and the
//! watchdog on its own; a proptest draws random plans from the same
//! grammar. The targeted cells aim each fault at an owner that is parked
//! on its lock while a thief holds it: the owner is killed, the thief is
//! killed (and its lease confirms), the owner is falsely evicted, or the
//! owner's crash window opens. A parked spin that missed any of those
//! would wake late, and the cell would fail. Two more aim at the watchdog:
//! a stall limit short enough to trip (each report must come from the
//! poll the polling run makes it at), and a crash window during a lease
//! wait (the stall polls a parked idle spin skipped must still count
//! towards `max_gap`). The last test pins the engine steps of the repo
//! benchmark's quick faulted cell.

use dcs::apps::uts::{self, UtsSpec};
use dcs::core::RunStats;
use dcs::prelude::*;
use dcs::sim::{ScheduleHook, WorkerId};
use proptest::prelude::*;

/// Always the minimum-key runnable actor: [`run`]'s order, without parking.
struct FirstRunnable;

impl ScheduleHook for FirstRunnable {
    fn choose(&mut self, _eligible: &[(VTime, WorkerId)]) -> usize {
        0
    }
}

/// Every virtual number of a run, named, so a mismatch names its field.
/// `RunStats` is destructured: a new public counter must be listed here.
fn fingerprint(r: &RunReport) -> Vec<(&'static str, String)> {
    let RunStats {
        steals_ok,
        steals_failed,
        steals_abandoned,
        blacklist_skips,
        outstanding_joins,
        joins_fast,
        die_fast,
        die_won,
        die_lost,
        threads_spawned,
        threads_died,
        workers_lost,
        tasks_lost,
        tasks_replayed,
        ckpt_puts,
        false_suspects,
        rejoins,
        ff_dups,
        ff_lost_races,
        busy_total,
        series,
        ref busy_events,
        ref join_intervals,
        ref busy_intervals,
        ref steal_events,
        ..
    } = r.stats;
    let result = if r.outcome.is_complete() {
        r.result.as_u64().to_string()
    } else {
        "-".into()
    };
    vec![
        ("outcome", format!("{:?}", r.outcome)),
        ("result", result),
        ("elapsed", r.elapsed.to_string()),
        ("threads", r.threads.to_string()),
        ("busy_total", r.busy_total.to_string()),
        ("steals_ok", steals_ok.to_string()),
        ("steals_failed", steals_failed.to_string()),
        ("steals_abandoned", steals_abandoned.to_string()),
        ("blacklist_skips", blacklist_skips.to_string()),
        ("avg_steal_latency", r.stats.avg_steal_latency().to_string()),
        ("avg_copy_time", r.stats.avg_copy_time().to_string()),
        ("avg_stolen_bytes", r.stats.avg_stolen_bytes().to_string()),
        ("outstanding_joins", outstanding_joins.to_string()),
        (
            "avg_outstanding_time",
            r.stats.avg_outstanding_time().to_string(),
        ),
        ("joins_fast", joins_fast.to_string()),
        ("die_fast", die_fast.to_string()),
        ("die_won", die_won.to_string()),
        ("die_lost", die_lost.to_string()),
        ("threads_spawned", threads_spawned.to_string()),
        ("threads_died", threads_died.to_string()),
        ("workers_lost", workers_lost.to_string()),
        ("tasks_lost", tasks_lost.to_string()),
        ("tasks_replayed", tasks_replayed.to_string()),
        ("ckpt_puts", ckpt_puts.to_string()),
        ("false_suspects", false_suspects.to_string()),
        ("rejoins", rejoins.to_string()),
        ("ff_dups", ff_dups.to_string()),
        ("ff_lost_races", ff_lost_races.to_string()),
        ("stats.busy_total", busy_total.to_string()),
        ("series", series.to_string()),
        ("busy_events", format!("{busy_events:?}")),
        ("join_intervals", format!("{join_intervals:?}")),
        ("busy_intervals", format!("{busy_intervals:?}")),
        ("steal_events", format!("{steal_events:?}")),
        ("fabric", format!("{:?}", r.fabric)),
        ("uni_peak", r.uni_peak.to_string()),
        ("iso_peak", r.iso_peak.to_string()),
        ("uni_conflicts", r.uni_conflicts.to_string()),
        ("evac_peak", r.evac_peak.to_string()),
        ("full_stack_peak", r.full_stack_peak.to_string()),
        (
            "watchdog",
            format!("{:?}", r.watchdog.as_ref().map(|w| w.to_string())),
        ),
        (
            "watchdog gap",
            format!(
                "{:?}",
                r.watchdog.as_ref().map(|w| (w.spawned, w.died, w.max_gap))
            ),
        ),
        ("lineage", format!("{:?}", r.lineage)),
    ]
}

/// Run `cfg` parked and polled and assert they agree on everything but
/// `steps`; returns the parked run.
fn assert_parked_equals_polled(label: &str, cfg: RunConfig, spec: &UtsSpec) -> RunReport {
    let parked = run(cfg.clone(), uts::program(spec.clone()));
    let polled = run_hooked(cfg, uts::program(spec.clone()), &mut FirstRunnable);
    for ((name, a), (_, b)) in fingerprint(&parked).iter().zip(fingerprint(&polled)) {
        assert_eq!(
            *a, b,
            "{label}: `{name}` differs, parked (left) vs polled (right)"
        );
    }
    assert!(
        parked.steps <= polled.steps,
        "{label}: parking took more steps ({}) than polling ({})",
        parked.steps,
        polled.steps
    );
    parked
}

fn small_tree() -> UtsSpec {
    UtsSpec::new(3.0, 6, uts::Shape::Linear, 5)
}

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"))
}

/// 4 policies x 3 protocols x {kill, kill under a lossy message detector,
/// crash window, degraded NIC, watchdog without a plan}.
#[test]
fn parked_equals_polled_over_the_grid() {
    let spec = small_tree();
    let plans: [Option<&str>; 5] = [
        Some("kill=1@30us"),
        Some("kill=2@25us,detector=message,suspect=40us,drop=0.05"),
        Some("crash=1@15us..45us"),
        Some("degrade=2@5us..60us*6"),
        None,
    ];
    for policy in Policy::ALL {
        for protocol in Protocol::ALL {
            for p in plans {
                let mut cfg = RunConfig::new(4, policy)
                    .with_protocol(protocol)
                    .with_seed(3);
                cfg = match p {
                    Some(s) => cfg.with_fault_plan(plan(s)),
                    None => cfg.with_watchdog(true),
                };
                let label = format!("{policy:?}/{protocol:?}/{p:?}");
                assert_parked_equals_polled(&label, cfg, &spec);
            }
        }
    }
}

/// A fault plan from the `--fault-plan` grammar, drawn from small parts.
fn drawn_plan(
    workers: usize,
    kill: Option<(usize, u64)>,
    message: Option<(u64, u32)>,
    crash: Option<(usize, u64, u64)>,
    degrade: Option<(usize, u64, u64, u32)>,
    verb: u32,
) -> String {
    let mut parts = Vec::new();
    if let Some((w, at)) = kill {
        parts.push(format!("kill={}@{at}us", w % workers));
    }
    if let Some((suspect, drop)) = message {
        parts.push(format!(
            "detector=message,suspect={suspect}us,drop=0.0{drop}"
        ));
    }
    if let Some((w, from, len)) = crash {
        parts.push(format!("crash={}@{from}us..{}us", w % workers, from + len));
    }
    if let Some((w, from, len, f)) = degrade {
        parts.push(format!(
            "degrade={}@{from}us..{}us*{f}",
            w % workers,
            from + len
        ));
    }
    if verb > 0 {
        parts.push(format!("verb=0.0{verb}"));
    }
    if parts.is_empty() {
        parts.push("recover=on".into());
    }
    parts.join(",")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random plans over random configurations: parked == polled.
    #[test]
    fn parked_equals_polled_under_random_plans(
        policy in 0usize..4,
        protocol in 0usize..3,
        workers in 2usize..5,
        seed in 0u64..1_000,
        kill in prop_oneof![Just(None), (0usize..4, 5u64..250).prop_map(Some)],
        message in prop_oneof![Just(None), (40u64..90, 0u32..6).prop_map(Some)],
        crash in prop_oneof![Just(None), (0usize..4, 2u64..150, 1u64..60).prop_map(Some)],
        degrade in prop_oneof![
            Just(None),
            (0usize..4, 0u64..150, 1u64..200, 2u32..40).prop_map(Some),
        ],
        verb in 0u32..4,
    ) {
        let spec = drawn_plan(workers, kill, message, crash, degrade, verb);
        let cfg = RunConfig::new(workers, Policy::ALL[policy])
            .with_protocol(Protocol::ALL[protocol])
            .with_seed(seed)
            .with_fault_plan(plan(&spec));
        let label = format!("{:?}/{:?}/P={workers}/seed {seed}/`{spec}`",
            Policy::ALL[policy], Protocol::ALL[protocol]);
        assert_parked_equals_polled(&label, cfg, &small_tree());
    }
}

// ---------------------------------------------------------------------------
// Targeted cells: an owner parked on its lock while a thief holds it
// ---------------------------------------------------------------------------

/// A tree with a few steals on two or three workers.
fn steal_tree() -> UtsSpec {
    UtsSpec::new(3.0, 8, uts::Shape::Linear, 5)
}

/// The successful steals `(thief, victim, start, end)` of a fault-free run
/// of `cfg`: between `start` and `end` the thief holds the victim's deque
/// lock for part of the time, and the victim spins (parked) on it whenever
/// it needs its deque meanwhile.
fn steal_windows(cfg: &RunConfig, spec: &UtsSpec) -> Vec<(usize, usize, VTime, VTime)> {
    let traced = cfg.clone().with_trace(TraceLevel::Series);
    let r = run(traced, uts::program(spec.clone()));
    let w: Vec<_> = r
        .stats
        .steal_events
        .iter()
        .map(|&(t, v, s, e)| (t as usize, v as usize, s, e))
        .collect();
    assert!(!w.is_empty(), "the fault-free run steals nothing");
    w
}

/// Eight instants spread over each steal window (ns resolution).
fn instants(windows: &[(usize, usize, VTime, VTime)]) -> Vec<(usize, usize, u64)> {
    let mut out = Vec::new();
    for &(thief, victim, s, e) in windows {
        let (s, e) = (s.as_ns(), e.as_ns().max(s.as_ns() + 8));
        for k in 0..8 {
            out.push((thief, victim, s + (e - s) * k / 8));
        }
    }
    out
}

/// The configurations the targeted cells cover: the CAS-lock protocol
/// (the only one whose owner waits for a thief) under each policy.
fn targeted_configs(workers: usize) -> Vec<RunConfig> {
    Policy::ALL
        .into_iter()
        .map(|p| RunConfig::new(workers, p).with_seed(2))
        .collect()
}

/// The owner is killed while it spins on a lock a thief holds.
#[test]
fn owner_killed_while_parked() {
    let spec = steal_tree();
    for base in targeted_configs(2) {
        for (_, victim, at) in instants(&steal_windows(&base, &spec)) {
            let p = format!("kill={victim}@{at}ns");
            let cfg = base.clone().with_fault_plan(plan(&p));
            assert_parked_equals_polled(&format!("{:?} `{p}`", base.policy), cfg, &spec);
        }
    }
}

/// The thief holding the owner's lock is killed; the owner spins until the
/// thief's lease confirms and `break_dead_lock` clears the word.
#[test]
fn lock_holder_killed_and_confirmed_while_owner_parked() {
    let spec = steal_tree();
    for base in targeted_configs(2) {
        for (thief, _, at) in instants(&steal_windows(&base, &spec)) {
            let p = format!("kill={thief}@{at}ns,lease=30us,hb=10us");
            let cfg = base.clone().with_fault_plan(plan(&p));
            assert_parked_equals_polled(&format!("{:?} `{p}`", base.policy), cfg, &spec);
        }
    }
}

/// The owner's NIC degrades just before a steal of it: its beats land
/// late, the third worker suspects it and evicts it while it spins on the
/// lock the thief holds. ChildFull is left out: an evicted ChildFull worker
/// keeps its frames, and this plan does not finish under it.
#[test]
fn owner_falsely_evicted_while_parked() {
    let spec = steal_tree();
    for base in targeted_configs(3) {
        if base.policy == Policy::ChildFull {
            continue;
        }
        for (_, victim, at) in instants(&steal_windows(&base, &spec)) {
            // Beats every 2 us; from `at - 3us` on they land 20 us late, so
            // suspicion (a 6 us silence) begins within a few us of `at`.
            let from = at.saturating_sub(3_000);
            let p = format!(
                "detector=message,hb=2us,lease=2us,suspect=6us,degrade={victim}@{from}ns..{}ns*20",
                from + 10_000
            );
            let cfg = base.clone().with_fault_plan(plan(&p));
            assert_parked_equals_polled(&format!("{:?} `{p}`", base.policy), cfg, &spec);
        }
    }
}

/// A kill, then a crash window during the lease wait: nothing progresses
/// meanwhile, so the stall polls that parked idle spins skipped before the
/// crash sleep moved the stall clock's reference can carry the run's
/// largest gap (the watchdog's `max_gap`, compared on its own).
#[test]
fn stall_clock_sees_the_polls_a_parked_spin_skipped() {
    let spec = steal_tree();
    for seed in 0..260u64 {
        let workers = 2 + (seed % 3) as usize;
        let policy = Policy::ALL[(seed / 3 % 4) as usize];
        let kill_at = 20 + (seed * 37) % 200;
        let crash_at = kill_at + 5 + (seed * 13) % 40;
        let p = format!(
            "kill={}@{kill_at}us,lease=60us,hb=10us,crash={}@{crash_at}us..{}us",
            (seed as usize / 7) % workers,
            (seed as usize / 11) % workers,
            crash_at + 3
        );
        let cfg = RunConfig::new(workers, policy)
            .with_seed(seed)
            .with_fault_plan(plan(&p));
        assert_parked_equals_polled(
            &format!("{policy:?} P={workers} seed {seed} `{p}`"),
            cfg,
            &spec,
        );
    }
}

/// A stall limit short enough to trip: every stall report (its instant,
/// gap and suspects) must come from the poll the polling run reports it
/// at, which a parked idle spin reaches through its stall deadline.
#[test]
fn stall_reports_land_at_the_polled_instant() {
    let spec = steal_tree();
    for policy in Policy::ALL {
        for p in [None, Some("kill=1@40us,lease=30us,hb=10us")] {
            for limit in [2, 7, 25] {
                let mut cfg = RunConfig::new(3, policy)
                    .with_seed(5)
                    .with_watchdog(true)
                    .with_strict(false);
                if let Some(p) = p {
                    cfg = cfg.with_fault_plan(plan(p));
                }
                cfg.stall_limit = VTime::us(limit);
                let label = format!("{policy:?} {p:?} stall limit {limit}us");
                let r = assert_parked_equals_polled(&label, cfg, &spec);
                let wd = r.watchdog.expect("watchdog on");
                assert!(limit == 25 || !wd.is_clean(), "{label}: no stall reported");
            }
        }
    }
}

/// The owner's crash window opens while it spins on a lock a thief holds.
#[test]
fn owner_crash_window_opens_while_parked() {
    let spec = steal_tree();
    for base in targeted_configs(2) {
        for (_, victim, at) in instants(&steal_windows(&base, &spec)) {
            let p = format!("crash={victim}@{at}ns..{}ns", at + 20_000);
            let cfg = base.clone().with_fault_plan(plan(&p));
            assert_parked_equals_polled(&format!("{:?} `{p}`", base.policy), cfg, &spec);
        }
    }
}

/// The quick cell of the repo benchmark's `faulted_poll` workload: 64
/// workers on `presets::tiny()` under its plan (`dcs_bench::FAULTED_POLL_PLAN`:
/// staggered kills under a lossy message detector), seed 11. Its lock spins
/// park, so it takes about as many engine steps as its no-plan twin
/// (17 530); polling them took 374 856. An exact count: a spin that stops
/// parking, or a deadline that wakes it every poll, moves it.
#[test]
fn faulted_quick_cell_steps_are_pinned() {
    let fault = plan(
        "kill=0@200us,kill=3@400us,kill=17@600us,detector=message,\
         suspect=300us,hb=50us,lease=400us,drop=0.05",
    )
    .with_seed(11);
    let cfg = RunConfig::new(64, Policy::ContGreedy)
        .with_seed(11)
        .with_fault_plan(fault);
    let spec = uts::presets::tiny();
    let r = run(cfg, uts::program(spec.clone()));
    assert_eq!(r.result.as_u64(), uts::serial_count(&spec).nodes);
    assert_eq!(r.stats.workers_lost, 2); // it ends before the third kill
    assert_eq!(r.steps, 17_214);
}
