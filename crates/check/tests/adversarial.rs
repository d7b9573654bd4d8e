//! Adversarial interleaving tests: the checker explores schedules against
//! the real protocol code and (a) proves the shipped protocols hold under
//! every delay-bounded interleaving of the small configurations, and
//! (b) proves the checker would have caught the historical steal-ordering
//! bug — with a minimized, serialized, replayable reproducer.

use dcs_check::{by_name, explore_exhaustive, explore_pct, minimize, Schedule};

/// The self-test: recompose `thief_take` with the lock released *before*
/// the top advance (the pre-fix ordering) and the checker must catch the
/// owner observing a dead ring slot — then minimize the failing schedule,
/// serialize it, parse it back, and reproduce the failure from the file.
#[test]
fn broken_release_is_caught_minimized_and_replayable() {
    let s = by_name("broken-release", 2, 1).expect("scenario exists");
    assert!(s.expect_violation);
    let run = |choices: &[u32]| s.run_choices(choices);

    let out = explore_exhaustive(&run, 2, 5_000);
    assert!(
        !out.findings.is_empty(),
        "exploration must flush out the wrong release order"
    );
    let finding = &out.findings[0];
    assert!(
        finding.violations.iter().any(|v| v.contains("dead ring slot")),
        "the violation is the dead-slot window: {:?}",
        finding.violations
    );

    // Minimize, serialize, re-parse, replay.
    let min = minimize(&run, &finding.choices);
    assert!(min.len() <= finding.choices.len());
    let sched = Schedule {
        scenario: s.name.clone(),
        workers: s.workers,
        seed: 1,
        choices: min,
    };
    let text = sched.to_string();
    let parsed = Schedule::parse(&text).expect("own output parses");
    assert_eq!(parsed, sched);

    let replayed = by_name(&parsed.scenario, parsed.workers, parsed.seed)
        .expect("serialized scenario resolves");
    let rec = replayed.run_choices(&parsed.choices);
    assert!(
        rec.violations.iter().any(|v| v.contains("dead ring slot")),
        "replaying the minimized schedule reproduces the bug: {:?}",
        rec.violations
    );
}

/// The shipped steal composition (top advanced no later than the lock
/// release) survives *every* schedule with up to 3 delays: no dead slots,
/// exact-once delivery, LIFO for the owner, FIFO-from-top for the thief.
#[test]
fn fixed_steal_survives_exhaustive_exploration() {
    let s = by_name("deque-steal", 2, 1).unwrap();
    let out = explore_exhaustive(&|c| s.run_choices(c), 3, 50_000);
    assert!(out.complete, "delay-3 space must fit the budget");
    assert!(
        out.findings.is_empty(),
        "correct protocol has no failing schedule: {:?}",
        out.findings
    );
    assert!(out.schedules > 50, "exploration actually branched");
}

/// Fig. 4 DIE fast path vs. steal on a one-item deque: the root forks a
/// single child and immediately tries to pop it back (owner_pop_parent)
/// while the other worker steals. Exhaustively explored (delay bound 2)
/// under every Policy × FreeStrategy pair — the join must resolve to the
/// right value with no protocol violations or leaks on every schedule.
#[test]
fn single_steal_one_item_race_all_policies_and_strategies() {
    for policy in ["greedy", "stalling", "child-full", "child-rtc"] {
        for strategy in ["lockq", "localc"] {
            let name = format!("single-steal:{policy}:{strategy}");
            let s = by_name(&name, 2, 1).expect("catalog covers all pairs");
            let out = explore_exhaustive(&|c| s.run_choices(c), 2, 20_000);
            assert!(out.complete, "{name}: delay-2 space must fit the budget");
            assert!(
                out.findings.is_empty(),
                "{name} violated under schedule {:?}: {:?}",
                out.findings[0].choices,
                out.findings[0].violations
            );
        }
    }
}

/// Termination-layer sweep: the Mattern-style token detector on a micro UTS
/// tree, under exhaustive delay-2 exploration and a PCT sample. Termination
/// must stay safe (created == consumed, no resident work) and exact
/// (serial node count) on every explored schedule — this pins the analysis
/// that the token protocol's per-step atomicity and forwarded-round dedup
/// close the classic late-steal race.
#[test]
fn bot_termination_survives_exploration() {
    let s = by_name("bot-term", 2, 1).unwrap();
    let out = explore_exhaustive(&|c| s.run_choices(c), 2, 10_000);
    assert!(out.complete);
    assert!(
        out.findings.is_empty(),
        "termination violated: {:?}",
        out.findings
    );

    let s3 = by_name("bot-term", 3, 1).unwrap();
    let out = explore_pct(&|seed| s3.run_pct(seed, 3, 256), 50);
    assert!(
        out.findings.is_empty(),
        "termination violated under PCT: {:?}",
        out.findings
    );
}

/// The pipelined steal composition: the lock-release put and the payload
/// get are posted together and reaped one engine step later, so the owner
/// can interleave between post and completion. Exhaustive delay-3
/// exploration must find no dead slots, no lost or duplicated items, and no
/// unreaped completions (the overlap-race oracle) on ANY schedule.
#[test]
fn pipelined_steal_survives_exhaustive_exploration() {
    let s = by_name("deque-steal-pipelined", 2, 1).unwrap();
    let out = explore_exhaustive(&|c| s.run_choices(c), 3, 50_000);
    assert!(out.complete, "delay-3 space must fit the budget");
    assert!(
        out.findings.is_empty(),
        "pipelined steal has no failing schedule: {:?}",
        out.findings
    );
    assert!(out.schedules > 50, "exploration actually branched");
}

/// The join race under the Pipelined fabric, every policy: retval puts
/// overlap flag AMOs and steals split into post + reap steps, so the
/// explorer interleaves at completion time too. The join must still resolve
/// to the right value with no watchdog findings on every schedule.
#[test]
fn pipelined_single_steal_race_all_policies() {
    for policy in ["greedy", "stalling", "child-full", "child-rtc"] {
        let name = format!("single-steal-pipelined:{policy}");
        let s = by_name(&name, 2, 1).expect("catalog covers all policies");
        let out = explore_exhaustive(&|c| s.run_choices(c), 2, 20_000);
        assert!(out.complete, "{name}: delay-2 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );
    }
}

/// BoT termination with the pipelined steal-half (size put ∥ payload get):
/// the token detector must stay safe and exact on every explored schedule.
#[test]
fn pipelined_bot_termination_survives_exploration() {
    let s = by_name("bot-term-pipelined", 2, 1).unwrap();
    let out = explore_exhaustive(&|c| s.run_choices(c), 2, 10_000);
    assert!(out.complete);
    assert!(
        out.findings.is_empty(),
        "termination violated: {:?}",
        out.findings
    );
}

/// The checked-in pipelined overlap-window schedule: a recorded
/// interleaving where the owner's pop lands inside a thief's post-to-reap
/// window. Replaying it must stay clean — if a regression reopens the
/// window (e.g. the top advance moves after the posts again), this fixture
/// catches it without re-running exploration.
#[test]
fn checked_in_pipelined_overlap_schedule_stays_clean() {
    let text = include_str!("schedules/deque-steal-pipelined.schedule");
    let sched = Schedule::parse(text).expect("fixture parses");
    assert_eq!(sched.scenario, "deque-steal-pipelined");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.is_empty(),
        "overlap-window schedule regressed: {:?}",
        rec.violations
    );
}

/// The checked-in pipelined join-race schedule for the greedy policy (the
/// Fig. 4 race with retval put ∥ flag FAA posted together).
#[test]
fn checked_in_pipelined_join_race_schedule_stays_clean() {
    let text = include_str!("schedules/single-steal-pipelined-greedy.schedule");
    let sched = Schedule::parse(text).expect("fixture parses");
    assert_eq!(sched.scenario, "single-steal-pipelined:greedy");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.is_empty(),
        "join-race schedule regressed: {:?}",
        rec.violations
    );
}

/// The checked-in regression schedule (found and minimized by the checker)
/// still reproduces the wrong-release-order bug from its serialized form —
/// the end-to-end path a CI artifact takes back to a developer's machine.
#[test]
fn checked_in_regression_schedule_reproduces() {
    let text = include_str!("schedules/broken-release.schedule");
    let sched = Schedule::parse(text).expect("regression schedule parses");
    assert_eq!(sched.scenario, "broken-release");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.iter().any(|v| v.contains("dead ring slot")),
        "regression schedule no longer reproduces: {:?}",
        rec.violations
    );
}

/// The fence-free multiplicity oracle, exhaustively: the read/write-only
/// steal pipeline (bounds read → entry get → claim-write) races the owner's
/// pops on every delay-3 interleaving at 2 workers and delay-2 at 3 — every
/// pushed task must be executed exactly once and taken at most k times,
/// with no corrupt slots, lost items, or leaked tickets.
#[test]
fn fence_free_steal_survives_exhaustive_exploration() {
    let s = by_name("fence-free-steal", 2, 1).unwrap();
    let out = explore_exhaustive(&|c| s.run_choices(c), 3, 50_000);
    assert!(out.complete, "delay-3 space must fit the budget");
    assert!(
        out.findings.is_empty(),
        "fence-free steal has no failing schedule: {:?}",
        out.findings
    );
    // Without a lock-retry loop the runs are short, so the space is smaller
    // than the CAS-lock scenario's — but it must still branch.
    assert!(out.schedules > 20, "exploration actually branched");

    // Three workers: two concurrent thieves can race the same occupancy,
    // so the Dup path (bounded multiplicity) is reachable here.
    let s3 = by_name("fence-free-steal", 3, 1).unwrap();
    let out = explore_exhaustive(&|c| s3.run_choices(c), 2, 50_000);
    assert!(out.complete, "delay-2 space at 3 workers must fit the budget");
    assert!(
        out.findings.is_empty(),
        "fence-free steal violated at 3 workers: {:?}",
        out.findings
    );
    assert!(out.schedules > 100, "the two-thief space is the larger one");
}

/// The self-test for the multiplicity oracle: recompose the thief with a
/// claim-write that arbitrates against a private set (reaches nobody), and
/// the checker must catch a task executing twice — then minimize the
/// failing schedule, serialize it, and reproduce the failure from the file.
#[test]
fn broken_claim_is_caught_minimized_and_replayable() {
    let s = by_name("broken-claim", 2, 1).expect("scenario exists");
    assert!(s.expect_violation);
    let run = |choices: &[u32]| s.run_choices(choices);

    let out = explore_exhaustive(&run, 2, 5_000);
    assert!(
        !out.findings.is_empty(),
        "exploration must flush out the no-op claim-write"
    );
    let finding = &out.findings[0];
    assert!(
        finding.violations.iter().any(|v| v.contains("multiplicity")),
        "the violation is a multiplicity breach: {:?}",
        finding.violations
    );

    let min = minimize(&run, &finding.choices);
    assert!(min.len() <= finding.choices.len());
    let sched = Schedule {
        scenario: s.name.clone(),
        workers: s.workers,
        seed: 1,
        choices: min,
    };
    let text = sched.to_string();
    let parsed = Schedule::parse(&text).expect("own output parses");
    assert_eq!(parsed, sched);

    let replayed = by_name(&parsed.scenario, parsed.workers, parsed.seed)
        .expect("serialized scenario resolves");
    let rec = replayed.run_choices(&parsed.choices);
    assert!(
        rec.violations.iter().any(|v| v.contains("multiplicity")),
        "replaying the minimized schedule reproduces the bug: {:?}",
        rec.violations
    );
}

/// The full runtime stealing fence-free: the one-item Fig. 4 race under
/// every policy, and fork-join termination in both fabric modes (finalize
/// must reclaim thief-claimed slots on every schedule or the leak oracle
/// fires). The lock-free family rides along for contrast.
#[test]
fn fence_free_runtime_survives_exploration() {
    for name in [
        "single-steal-ff:greedy",
        "single-steal-ff:stalling",
        "single-steal-ff:child-full",
        "single-steal-ff:child-rtc",
    ] {
        let s = by_name(name, 2, 1).expect("catalog covers all policies");
        let out = explore_exhaustive(&|c| s.run_choices(c), 2, 20_000);
        assert!(out.complete, "{name}: delay-2 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );
    }
    for name in ["fence-free-term", "fence-free-term-pipelined", "lock-free-term"] {
        let s = by_name(name, 2, 1).expect("scenario exists");
        let out = explore_exhaustive(&|c| s.run_choices(c), 1, 10_000);
        assert!(out.complete, "{name}: delay-1 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );
    }
}

/// PCT sample of the fence-free scenarios at 3 workers (two thieves racing
/// one ring makes the Dup path live) — the fast counterpart of the wide
/// 8-worker sweep below.
#[test]
fn fence_free_survives_pct_sample() {
    for (name, horizon) in [("fence-free-steal", 128), ("fence-free-term", 512)] {
        let s = by_name(name, 3, 1).unwrap();
        let out = explore_pct(&|seed| s.run_pct(seed, 3, horizon), 50);
        assert!(
            out.findings.is_empty(),
            "{name} violated under PCT: {:?}",
            out.findings
        );
    }
}

/// Acceptance-scale sweep for the fence-free family: 500 PCT seeds at 8
/// workers. Slow, so it only runs under `--ignored` — CI's checker job
/// includes it.
#[test]
#[ignore = "acceptance-scale sweep; run with --ignored (CI does)"]
fn fence_free_survives_wide_pct() {
    for (name, horizon) in [("fence-free-steal", 256), ("fence-free-term", 512)] {
        let s = by_name(name, 8, 1).expect("scenario exists");
        let out = explore_pct(&|seed| s.run_pct(seed, 3, horizon), 500);
        assert!(
            out.findings.is_empty(),
            "{name} violated under wide PCT: {:?}",
            out.findings
        );
    }
}

/// The checked-in broken-claim reproducer (found and minimized by
/// `broken_claim_is_caught_minimized_and_replayable`'s machinery) still
/// reproduces the double execution from its serialized form.
#[test]
fn checked_in_broken_claim_schedule_reproduces() {
    let text = include_str!("schedules/broken-claim.schedule");
    let sched = Schedule::parse(text).expect("regression schedule parses");
    assert_eq!(sched.scenario, "broken-claim");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.iter().any(|v| v.contains("multiplicity")),
        "broken-claim schedule no longer reproduces: {:?}",
        rec.violations
    );
}

/// The checked-in fence-free dup-window schedule: a recorded 3-worker
/// interleaving where two thieves race the same occupancy and one pays the
/// bounded-multiplicity dup. Replaying it must stay clean — if the claim
/// arbitration regresses (e.g. the dedup moves after the payload copy
/// without revalidation), this fixture catches it without re-exploring.
#[test]
fn checked_in_fence_free_dup_schedule_stays_clean() {
    let text = include_str!("schedules/fence-free-steal.schedule");
    let sched = Schedule::parse(text).expect("fixture parses");
    assert_eq!(sched.scenario, "fence-free-steal");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.is_empty(),
        "fence-free dup-window schedule regressed: {:?}",
        rec.violations
    );
}

/// PCT runs replay exactly: the recorded decision vector of a randomized
/// run, fed back through the deterministic controller, reproduces the same
/// outcome. This is what makes CI's randomized findings actionable.
#[test]
fn pct_runs_replay_deterministically() {
    let s = by_name("deque-steal", 3, 1).unwrap();
    for seed in 0..10 {
        let pct = s.run_pct(seed, 3, 64);
        let replay = s.run_choices(&pct.taken);
        assert_eq!(
            pct.violations, replay.violations,
            "seed {seed}: replay diverged"
        );
    }
}

/// Fail-stop crash oracles under exploration. The `crash-recovery*` family
/// loses a worker mid-run on every schedule and must still produce the
/// exact fault-free answer (continuation-lineage replay + claim-once records):
/// ChildRtc replays stolen child descriptors, the continuation policies
/// replay forked continuation frames (the Fig. 4 FAA race and the stalling
/// wait queues must converge through the buddy mirror), and the `-root`
/// variant kills worker 0 so the root holder is re-elected. `crash-abort`
/// loses a ChildFull worker and must end in a typed unrecoverable
/// diagnostic, never a wedge or a wrong answer. Exhaustive at delay bound 1
/// on 2 workers, PCT-sampled at 3; the wider 500-seed PCT sweep at 8
/// workers is `crash_oracles_survive_wide_pct` below, which CI also drives
/// through the `dcs check` binary.
const CRASH_SCENARIOS: [&str; 5] = [
    "crash-recovery",
    "crash-recovery-greedy",
    "crash-recovery-stalling",
    "crash-recovery-root",
    "crash-abort",
];

#[test]
fn crash_oracles_survive_exploration() {
    for name in CRASH_SCENARIOS {
        let s = by_name(name, 2, 1).expect("scenario exists");
        let out = explore_exhaustive(&|c| s.run_choices(c), 1, 6_000);
        assert!(out.complete, "{name}: delay-1 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );

        let s3 = by_name(name, 3, 1).unwrap();
        let out = explore_pct(&|seed| s3.run_pct(seed, 3, 512), 40);
        assert!(
            out.findings.is_empty(),
            "{name} violated under PCT: {:?}",
            out.findings
        );
    }
}

/// The acceptance-scale sweep: 500 PCT seeds at 8 workers for every crash
/// oracle. Slow (minutes), so it only runs when asked for by name or under
/// `--ignored` — CI's checker job includes it.
#[test]
#[ignore = "acceptance-scale sweep; run with --ignored (CI does)"]
fn crash_oracles_survive_wide_pct() {
    for name in CRASH_SCENARIOS {
        let s = by_name(name, 8, 1).expect("scenario exists");
        let out = explore_pct(&|seed| s.run_pct(seed, 3, 512), 500);
        assert!(
            out.findings.is_empty(),
            "{name} violated under wide PCT: {:?}",
            out.findings
        );
    }
}

/// Checked-in crash-recovery schedules: recorded hostile interleavings
/// (kill lands mid-steal / mid-join) for each recoverable policy family.
/// Replaying them must stay clean — a regression in lineage replay, the
/// join-counter repair, or root re-election trips these without re-running
/// exploration.
#[test]
fn checked_in_crash_recovery_schedules_stay_clean() {
    for text in [
        include_str!("schedules/crash-recovery-greedy.schedule"),
        include_str!("schedules/crash-recovery-stalling.schedule"),
        include_str!("schedules/crash-recovery-root.schedule"),
    ] {
        let sched = Schedule::parse(text).expect("fixture parses");
        let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
        let rec = s.run_choices(&sched.choices);
        assert!(
            rec.violations.is_empty(),
            "{} schedule regressed: {:?}",
            sched.scenario,
            rec.violations
        );
    }
}

/// The multi-steal probe ring against the raw deque: two owners drain
/// LIFO while thieves keep a 2-victim probe ring in flight, commit the
/// first ready victim in ring order, and cancel the rest. Exhaustive at
/// delay bound 2 on 3 workers, in both fabric shapes. The oracles that
/// matter here are the cancellation ones: a won-but-unused lock left set
/// trips the abandoned-lock check at end of run, and a double commit
/// trips the shadow-queue mismatch.
#[test]
fn multi_steal_probe_survives_exhaustive_exploration() {
    for name in ["multi-steal-probe", "multi-steal-probe-pipelined"] {
        let s = by_name(name, 3, 1).expect("scenario exists");
        let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
        assert!(out.complete, "{name}: delay-2 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );
        assert!(out.schedules > 50, "{name}: exploration actually branched");
    }
}

/// The fence-free flavor of the probe ring: nothing is locked during the
/// probe, so there is nothing to cancel — the ring winner alone runs the
/// claim-write arbitration, and the multiplicity ledger plus the ticket
/// leak oracle ("double claim?") stand in for the lock checks.
#[test]
fn multi_steal_ff_survives_exhaustive_exploration() {
    let s = by_name("multi-steal-ff", 3, 1).expect("scenario exists");
    let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
    assert!(out.complete, "delay-2 space must fit the budget");
    assert!(
        out.findings.is_empty(),
        "multi-steal-ff violated under schedule {:?}: {:?}",
        out.findings[0].choices,
        out.findings[0].violations
    );
}

/// The full runtime with K=2 probe rings on the pipelined fabric, one
/// catalog entry per protocol family: fib(8) must come out exact on every
/// delay-1 interleaving at 2 workers and across a PCT sample at 3, with
/// the leak/stall oracles green — the end-to-end proof that abandoning a
/// ready victim never strands its lock or its items.
const MULTI_STEAL_RUNTIME: [&str; 3] = [
    "multi-steal:cas-lock",
    "multi-steal:lock-free",
    "multi-steal:fence-free",
];

#[test]
fn multi_steal_runtime_survives_exploration() {
    for name in MULTI_STEAL_RUNTIME {
        let s = by_name(name, 2, 1).expect("catalog covers all protocols");
        let out = explore_exhaustive(&|c| s.run_choices(c), 1, 10_000);
        assert!(out.complete, "{name}: delay-1 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );

        let s3 = by_name(name, 3, 1).unwrap();
        let out = explore_pct(&|seed| s3.run_pct(seed, 3, 512), 40);
        assert!(
            out.findings.is_empty(),
            "{name} violated under PCT: {:?}",
            out.findings
        );
    }
}

/// Acceptance-scale sweep for multi-steal: 500 PCT seeds at 8 workers for
/// the probe-ring scenarios and every runtime protocol. Slow, so it only
/// runs under `--ignored` — CI's checker job includes it.
#[test]
#[ignore = "acceptance-scale sweep; run with --ignored (CI does)"]
fn multi_steal_survives_wide_pct() {
    let mut names = vec!["multi-steal-probe", "multi-steal-probe-pipelined", "multi-steal-ff"];
    names.extend(MULTI_STEAL_RUNTIME);
    for name in names {
        let s = by_name(name, 8, 1).expect("scenario exists");
        let out = explore_pct(&|seed| s.run_pct(seed, 3, 512), 500);
        assert!(
            out.findings.is_empty(),
            "{name} violated under wide PCT: {:?}",
            out.findings
        );
    }
}

/// Checked-in multi-steal schedules: a recorded pipelined probe-ring
/// interleaving where both thieves' rings overlap the owners' drains, and
/// a fence-free ring race. Replaying them must stay clean — if the cancel
/// path regresses (a loser's lock kept, a ring winner double-claiming),
/// these fixtures catch it without re-exploring.
#[test]
fn checked_in_multi_steal_schedules_stay_clean() {
    for text in [
        include_str!("schedules/multi-steal-probe-pipelined.schedule"),
        include_str!("schedules/multi-steal-ff.schedule"),
    ] {
        let sched = Schedule::parse(text).expect("fixture parses");
        let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
        let rec = s.run_choices(&sched.choices);
        assert!(
            rec.violations.is_empty(),
            "{} schedule regressed: {:?}",
            sched.scenario,
            rec.violations
        );
    }
}

/// The shipped zombie seam: an eviction (epoch bump + stale-lock break)
/// lands in the window between a live thief's lock and its take, and the
/// thief's self-fence must abandon the steal on EVERY schedule — no task
/// taken by an evicted incarnation, no dead slots, no lost items.
#[test]
fn zombie_steal_survives_exhaustive_exploration() {
    let s = by_name("zombie-steal", 3, 1).expect("scenario exists");
    let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
    assert!(out.complete, "delay-2 space must fit the budget");
    assert!(
        out.findings.is_empty(),
        "zombie-steal violated under schedule {:?}: {:?}",
        out.findings[0].choices,
        out.findings[0].violations
    );
    assert!(out.schedules > 50, "exploration actually branched");
}

/// The planted fencing bug: remove the epoch check from the take-verb
/// class and the two-epochs oracle must catch the zombie completing its
/// steal after eviction — then minimize the schedule, serialize it, parse
/// it back, and reproduce the failure from the file.
#[test]
fn broken_fence_is_caught_minimized_and_replayable() {
    let s = by_name("broken-fence", 3, 1).expect("scenario exists");
    assert!(s.expect_violation);
    let run = |choices: &[u32]| s.run_choices(choices);

    let out = explore_exhaustive(&run, 2, 50_000);
    assert!(
        !out.findings.is_empty(),
        "exploration must flush out the missing epoch fence"
    );
    let finding = &out.findings[0];
    assert!(
        finding.violations.iter().any(|v| v.contains("evicted incarnation")),
        "the violation is the two-epochs breach: {:?}",
        finding.violations
    );

    let min = minimize(&run, &finding.choices);
    assert!(min.len() <= finding.choices.len());
    let sched = Schedule {
        scenario: s.name.clone(),
        workers: s.workers,
        seed: 1,
        choices: min,
    };
    let text = sched.to_string();
    let parsed = Schedule::parse(&text).expect("own output parses");
    assert_eq!(parsed, sched);

    let replayed = by_name(&parsed.scenario, parsed.workers, parsed.seed)
        .expect("serialized scenario resolves");
    let rec = replayed.run_choices(&parsed.choices);
    assert!(
        rec.violations.iter().any(|v| v.contains("evicted incarnation")),
        "replaying the minimized schedule reproduces the bug: {:?}",
        rec.violations
    );
}

/// Full-runtime suspicion oracles under exploration: kill=none plus an
/// aggressive suspect lease and a degraded worker-1 NIC. Whatever the
/// schedule does to the eviction/rejoin timing, the answer must equal the
/// fault-free one with no worker counted as genuinely lost.
const SUSPICION_SCENARIOS: [&str; 2] = ["false-suspect-term", "rejoin-replay"];

#[test]
fn suspicion_oracles_survive_exploration() {
    for name in SUSPICION_SCENARIOS {
        let s = by_name(name, 2, 1).expect("scenario exists");
        let out = explore_exhaustive(&|c| s.run_choices(c), 1, 6_000);
        assert!(out.complete, "{name}: delay-1 space must fit the budget");
        assert!(
            out.findings.is_empty(),
            "{name} violated under schedule {:?}: {:?}",
            out.findings[0].choices,
            out.findings[0].violations
        );

        let s3 = by_name(name, 3, 1).unwrap();
        let out = explore_pct(&|seed| s3.run_pct(seed, 3, 512), 40);
        assert!(
            out.findings.is_empty(),
            "{name} violated under PCT: {:?}",
            out.findings
        );
    }
}

/// Acceptance-scale zombie sweep: 500 PCT seeds at 8 workers for the
/// suspicion runtime oracles plus the raw zombie seam. Slow, so it only
/// runs under `--ignored` — CI's checker job includes it.
#[test]
#[ignore = "acceptance-scale sweep; run with --ignored (CI does)"]
fn zombie_oracles_survive_wide_pct() {
    for name in ["zombie-steal", "false-suspect-term", "rejoin-replay"] {
        let s = by_name(name, 8, 1).expect("scenario exists");
        let out = explore_pct(&|seed| s.run_pct(seed, 3, 512), 500);
        assert!(
            out.findings.is_empty(),
            "{name} violated under wide PCT: {:?}",
            out.findings
        );
    }
}

/// Checked-in zombie schedules: the minimized broken-fence reproducer must
/// keep reproducing from its serialized form, and a recorded hostile
/// interleaving of the shipped seam (eviction mid-steal) must stay clean.
#[test]
fn checked_in_broken_fence_schedule_reproduces() {
    let text = include_str!("schedules/broken-fence.schedule");
    let sched = Schedule::parse(text).expect("regression schedule parses");
    assert_eq!(sched.scenario, "broken-fence");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.iter().any(|v| v.contains("evicted incarnation")),
        "broken-fence schedule no longer reproduces: {:?}",
        rec.violations
    );
}

#[test]
fn checked_in_zombie_steal_schedule_stays_clean() {
    let text = include_str!("schedules/zombie-steal.schedule");
    let sched = Schedule::parse(text).expect("fixture parses");
    assert_eq!(sched.scenario, "zombie-steal");
    let s = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = s.run_choices(&sched.choices);
    assert!(
        rec.violations.is_empty(),
        "zombie-steal schedule regressed: {:?}",
        rec.violations
    );
}
