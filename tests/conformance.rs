//! Tier-1's view of `dcs-check`: the schedule explorer runs over the raw
//! deque protocols (every family, driven by the scheduler's own steal
//! machine) and the Fig. 4 one-item join race, and every committed
//! `.schedule` fixture replays.
//!
//! Exhaustive delay-2 exploration at two workers (the raw scenarios clamp
//! themselves up to the cast they need). The schedule counts are pinned: a
//! count that moves means an engine-step boundary or a charged cost moved
//! in the protocol under test, which is a behaviour change even when every
//! oracle still holds. Budgeted at ~10 s in the dev profile.

use dcs_check::{by_name, explore_exhaustive, Schedule};

/// `(scenario, schedules explored, violation a finding must carry)`; `None`
/// = a shipped protocol, no schedule may violate an oracle.
const EXPLORED: &[(&str, u64, Option<&str>)] = &[
    ("deque-steal", 36, None),
    ("broken-release", 23, Some("dead ring slot")),
    ("deque-steal-pipelined", 42, None),
    ("lock-free-steal", 25, None),
    ("fence-free-steal", 24, None),
    ("broken-claim", 13, Some("multiplicity")),
    ("multi-steal-probe", 404, None),
    ("multi-steal-probe-pipelined", 339, None),
    ("multi-steal-ff", 221, None),
    ("zombie-steal", 249, None),
    ("broken-fence", 1571, Some("evicted incarnation")),
    ("zombie-in-ring", 956, None),
    ("single-steal:greedy:lockq", 102, None),
    ("single-steal:greedy:localc", 88, None),
    ("single-steal-pipelined:greedy", 95, None),
    ("single-steal-ff:greedy", 47, None),
    ("single-steal:stalling:lockq", 106, None),
    ("single-steal:stalling:localc", 92, None),
    ("single-steal-pipelined:stalling", 95, None),
    ("single-steal-ff:stalling", 47, None),
    ("single-steal:child-full:lockq", 108, None),
    ("single-steal:child-full:localc", 115, None),
    ("single-steal-pipelined:child-full", 183, None),
    ("single-steal-ff:child-full", 95, None),
    ("single-steal:child-rtc:lockq", 107, None),
    ("single-steal:child-rtc:localc", 114, None),
    ("single-steal-pipelined:child-rtc", 169, None),
    ("single-steal-ff:child-rtc", 83, None),
];

#[test]
fn exhaustive_two_worker_pass_explores_the_pinned_schedule_counts() {
    for &(name, schedules, planted) in EXPLORED {
        let s = by_name(name, 2, 1).unwrap_or_else(|| panic!("{name} left the catalog"));
        assert_eq!(s.expect_violation, planted.is_some(), "{name}");
        let out = explore_exhaustive(&|c| s.run_choices(c), 2, 50_000);
        assert_eq!(
            out.schedules, schedules,
            "{name}: explored schedule count moved"
        );
        match planted {
            None => assert!(out.findings.is_empty(), "{name}: {:?}", out.findings[0]),
            Some(text) => assert!(
                out.findings
                    .iter()
                    .any(|f| f.violations.iter().any(|v| v.contains(text))),
                "{name}: planted bug not caught as {text:?}: {:?}",
                out.findings
            ),
        }
    }
}

#[test]
fn every_committed_schedule_fixture_replays() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/check/tests/schedules");
    let mut replayed = 0;
    for entry in std::fs::read_dir(dir).expect("fixture directory") {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let sched = Schedule::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let s = by_name(&sched.scenario, sched.workers, sched.seed)
            .unwrap_or_else(|| panic!("{path:?}: unknown scenario {}", sched.scenario));
        let rec = s.run_choices(&sched.choices);
        // A `broken-*` fixture is a reproducer, anything else a recorded
        // hostile interleaving the shipped protocol must survive.
        assert_eq!(
            rec.failed(),
            s.expect_violation,
            "{path:?} replayed to {:?}",
            rec.violations
        );
        replayed += 1;
    }
    assert!(replayed >= 13, "only {replayed} fixtures found under {dir}");
}
