//! Composed raw scenarios: fault seams that only exist when two mechanisms
//! meet, written as a few lines over the scenario kit.
//!
//! `zombie-in-ring`: a thief running the two-victim CAS-lock probe ring is
//! falsely evicted between probe and take, while it holds the won lock on
//! the victim it committed to. The shipped take self-fences on the thief's
//! epoch, so the suspector that broke the lock steals alone; the
//! `broken-ring-fence` twin drops the self-check and the dead incarnation
//! takes a task anyway.

use dcs_check::{by_name, explore_exhaustive, minimize, RunRecord, Schedule};

const EVICTED: &str = "evicted incarnation";

fn takes_while_evicted(rec: &RunRecord) -> bool {
    rec.violations.iter().any(|v| v.contains(EVICTED))
}

#[test]
fn zombie_in_ring_survives_exhaustive_exploration() {
    let s = by_name("zombie-in-ring", 4, 1).expect("scenario exists");
    assert_eq!(s.workers, 4, "two owners, the ring thief, the suspector");
    let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
    assert!(out.complete, "delay-2 space must fit the budget");
    assert!(
        out.findings.is_empty(),
        "zombie-in-ring violated under schedule {:?}: {:?}",
        out.findings[0].choices,
        out.findings[0].violations
    );
    assert!(out.schedules > 500, "exploration actually branched");
}

/// The planted bug is caught by exploration, and among the failing
/// schedules is the one the scenario is named for — the evicted thief's
/// known-bounds take succeeds — which minimizes, serializes and replays.
#[test]
fn broken_ring_fence_is_caught_minimized_and_replayable() {
    let s = by_name("broken-ring-fence", 4, 1).expect("scenario exists");
    assert!(s.expect_violation);
    let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
    assert!(
        !out.findings.is_empty(),
        "the missing ring fence must be flushed out"
    );

    // Keep only the two-epochs breach as a failure, so the search and the
    // minimizer home in on it rather than on the dead slot the zombie reads
    // when the suspector got to the entry first.
    let run = |choices: &[u32]| {
        let mut rec = s.run_choices(choices);
        if !takes_while_evicted(&rec) {
            rec.violations.clear();
        }
        rec
    };
    let out = explore_exhaustive(&run, 2, 50_000);
    let finding = out
        .findings
        .first()
        .expect("some schedule lets the zombie's take land");
    let min = minimize(&run, &finding.choices);
    let sched = Schedule {
        scenario: s.name.clone(),
        workers: s.workers,
        seed: 1,
        choices: min,
    };
    let parsed = Schedule::parse(&sched.to_string()).expect("own output parses");
    assert_eq!(parsed, sched);
    let replayed = by_name(&parsed.scenario, parsed.workers, parsed.seed).unwrap();
    assert!(takes_while_evicted(&replayed.run_choices(&parsed.choices)));
}

/// The committed reproducer keeps reproducing, and the same interleaving
/// leaves the shipped composition clean: the fence is what stands between
/// that schedule and the violation.
#[test]
fn checked_in_broken_ring_fence_schedule_reproduces() {
    let text = include_str!("schedules/broken-ring-fence.schedule");
    let sched = Schedule::parse(text).expect("fixture parses");
    assert_eq!(sched.scenario, "broken-ring-fence");
    let broken = by_name(&sched.scenario, sched.workers, sched.seed).unwrap();
    let rec = broken.run_choices(&sched.choices);
    assert!(
        takes_while_evicted(&rec),
        "no longer reproduces: {:?}",
        rec.violations
    );
    let shipped = by_name("zombie-in-ring", sched.workers, sched.seed).unwrap();
    let rec = shipped.run_choices(&sched.choices);
    assert!(
        rec.violations.is_empty(),
        "fenced twin regressed: {:?}",
        rec.violations
    );
}
