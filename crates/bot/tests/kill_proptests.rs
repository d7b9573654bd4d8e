//! Property tests: random fail-stop kill schedules never change the answer.
//!
//! For both bag-of-tasks runtimes (one-sided CAS/AMO stealing, two-sided
//! message stealing in both victim-selection variants) and both workload
//! shapes (UTS tree expansion, PFor flat ranges), a run that loses up to
//! half the machine at arbitrary times must report exactly the nodes and
//! first-seen-task-id checksum of the same seed's kill-free run — the
//! at-least-once re-execution with head-node dedup makes lost work
//! invisible in the result, only visible in the elapsed time.
//!
//! Schedules are drawn as (victim, time) pairs and thinned to at most
//! ⌊W/2⌋ distinct victims, so a quorum of the machine always survives
//! (the protocols are documented to need one live worker, but W/2 is the
//! bar the paper's ablation argues about). The baseline is the *armed*
//! kill-free run: arming populates the collector, so the checksum is
//! comparable, and a separate unit test already pins armed == unarmed.

use dcs_apps::uts::{presets, serial_count};
use dcs_bot::{onesided, twosided, PforBag};
use dcs_sim::{profiles, FaultPlan, VTime};
use proptest::prelude::*;

/// Thin a raw (victim, at-µs) list to ≤ ⌊workers/2⌋ distinct victims.
fn kill_plan(raw: &[(usize, u64)], workers: usize) -> FaultPlan {
    let mut plan = FaultPlan::none().with_recovery();
    let mut victims: Vec<usize> = Vec::new();
    for &(v, at_us) in raw {
        let v = v % workers;
        if victims.len() >= workers / 2 && !victims.contains(&v) {
            continue;
        }
        if !victims.contains(&v) {
            victims.push(v);
        }
        plan = plan.with_kill(v, VTime::us(at_us));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn onesided_uts_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..120), 1..5),
        seed in 0u64..1000,
    ) {
        let spec = presets::tiny();
        let workers = 6;
        let truth = serial_count(&spec).nodes;
        let base = onesided::run_uts_faulty(
            &spec, workers, profiles::test_profile(), seed,
            onesided::StealAmount::Half, FaultPlan::none().with_recovery(),
        );
        let killed = onesided::run_uts_faulty(
            &spec, workers, profiles::test_profile(), seed,
            onesided::StealAmount::Half, kill_plan(&raw, workers),
        );
        assert_eq!(base.nodes, truth);
        assert_eq!(killed.nodes, base.nodes, "raw={raw:?} seed={seed}");
        assert_eq!(killed.checksum, base.checksum, "raw={raw:?} seed={seed}");
    }

    #[test]
    fn twosided_uts_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..120), 1..5),
        seed in 0u64..1000,
    ) {
        let spec = presets::tiny();
        let workers = 6;
        let truth = serial_count(&spec).nodes;
        for variant in [twosided::Variant::Random, twosided::Variant::Lifeline] {
            let base = twosided::run_uts_faulty(
                &spec, workers, profiles::test_profile(), variant, seed,
                FaultPlan::none().with_recovery(),
            );
            let killed = twosided::run_uts_faulty(
                &spec, workers, profiles::test_profile(), variant, seed,
                kill_plan(&raw, workers),
            );
            assert_eq!(base.nodes, truth, "{variant:?}");
            assert_eq!(killed.nodes, base.nodes, "{variant:?} raw={raw:?} seed={seed}");
            assert_eq!(killed.checksum, base.checksum, "{variant:?} raw={raw:?} seed={seed}");
        }
    }

    #[test]
    fn onesided_pfor_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..40), 1..5),
        seed in 0u64..1000,
    ) {
        let p = PforBag { n: 256, grain: 8, m: VTime::us(2) };
        let workers = 6;
        let base = onesided::run_pfor_faulty(
            p, workers, profiles::test_profile(), seed,
            FaultPlan::none().with_recovery(),
        );
        let killed = onesided::run_pfor_faulty(
            p, workers, profiles::test_profile(), seed,
            kill_plan(&raw, workers),
        );
        assert_eq!(base.nodes, 256);
        assert_eq!(killed.nodes, base.nodes, "raw={raw:?} seed={seed}");
        assert_eq!(killed.checksum, base.checksum, "raw={raw:?} seed={seed}");
    }

    #[test]
    fn twosided_pfor_survives_random_kill_schedules(
        raw in proptest::collection::vec((0usize..8, 1u64..40), 1..5),
        seed in 0u64..1000,
    ) {
        let p = PforBag { n: 256, grain: 8, m: VTime::us(2) };
        let workers = 6;
        for variant in [twosided::Variant::Random, twosided::Variant::Lifeline] {
            let base = twosided::run_pfor_faulty(
                p, workers, profiles::test_profile(), variant, seed,
                FaultPlan::none().with_recovery(),
            );
            let killed = twosided::run_pfor_faulty(
                p, workers, profiles::test_profile(), variant, seed,
                kill_plan(&raw, workers),
            );
            assert_eq!(base.nodes, 256, "{variant:?}");
            assert_eq!(killed.nodes, base.nodes, "{variant:?} raw={raw:?} seed={seed}");
            assert_eq!(killed.checksum, base.checksum, "{variant:?} raw={raw:?} seed={seed}");
        }
    }
}

/// A kill that lands after the detector's last round has counted the
/// victim is never confirmed: nobody re-labels the tasks it handed over, so
/// the post-run safety check must count what the detector counted (the
/// seed-3 `kill=1@40us` Random cell ends at 40.03 µs and used to panic in
/// `created == consumed`). The guarantee itself is the serial node count,
/// over the whole grid that cell came from.
#[test]
fn twosided_kill_too_late_to_confirm_still_reports_the_serial_count() {
    let spec = presets::tiny();
    let truth = serial_count(&spec).nodes;
    for variant in [twosided::Variant::Random, twosided::Variant::Lifeline] {
        for seed in 0..12 {
            for at_us in [20, 40, 60, 80] {
                let plan = FaultPlan::parse(&format!("kill=1@{at_us}us")).unwrap();
                let r = twosided::run_uts_faulty(
                    &spec,
                    16,
                    profiles::test_profile(),
                    variant,
                    seed,
                    plan,
                );
                assert_eq!(r.nodes, truth, "{variant:?} seed {seed} kill=1@{at_us}us");
            }
        }
    }
}
