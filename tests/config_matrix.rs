//! Exhaustive configuration matrix: every combination of policy ×
//! free-strategy × address-scheme × victim-policy must produce correct
//! results on a workload that exercises spawns, joins, computes and steals.
//!
//! 4 × 2 × 2 × 3 = 48 configurations per machine profile. The point is not
//! depth (other tests cover each dimension deeply) but the *cross products*
//! — e.g. iso-address under the lock-queue free strategy with hierarchical
//! victim selection is a path no other test walks.
//!
//! Every cell also pins one FNV-1a digest of its virtual numbers (see
//! [`digest`]), and a faulted grid drives each policy × address scheme
//! through a kill and through false suspicions, so a refactor of where
//! stacks are placed, suspended, migrated and shed must leave every cell
//! bit-identical. The digests were recorded before such a refactor and
//! must never be edited to make a change pass.

use dcs::apps::uts;
use dcs::core::RunStats;
use dcs::prelude::*;
use dcs::sim::Topology;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over a run's virtual numbers: the outcome and result, `elapsed`,
/// every `RunStats` counter, the stack-memory peaks and conflicts, the
/// lineage counts and the watchdog report's text (where a leaked stack
/// shows under a fault plan). `RunStats` is destructured, so a new counter
/// is a compile error here, not a silent gap.
fn digest(r: &RunReport) -> u64 {
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
        ..
    } = r.stats;
    let mut h = 0xcbf2_9ce4_8422_2325;
    let result = if r.outcome.is_complete() {
        r.result.as_u64()
    } else {
        u64::MAX
    };
    for v in [
        result,
        r.elapsed.as_ns(),
        steals_ok,
        steals_failed,
        steals_abandoned,
        blacklist_skips,
        r.stats.avg_steal_latency().as_ns(),
        r.stats.avg_copy_time().as_ns(),
        r.stats.avg_stolen_bytes(),
        outstanding_joins,
        r.stats.avg_outstanding_time().as_ns(),
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
        busy_total.as_ns(),
        r.uni_peak,
        r.uni_conflicts,
        r.evac_peak,
        r.iso_peak,
        r.full_stack_peak,
        r.lineage.recorded,
        r.lineage.peak_live,
        r.lineage.live,
    ] {
        fnv(&mut h, v);
    }
    let wd = r.watchdog.as_ref().map(|wd| wd.to_string());
    let text = format!("{:?} {wd:?}", r.outcome);
    for b in text.bytes() {
        fnv(&mut h, u64::from(b));
    }
    h
}

#[test]
fn all_48_configurations_are_correct() {
    let spec = uts::UtsSpec::new(3.0, 6, uts::Shape::Linear, 5);
    let expected = uts::serial_count(&spec).nodes;
    let mut digests = Vec::new();
    for policy in Policy::ALL {
        for free in [FreeStrategy::LocalCollection, FreeStrategy::LockQueue] {
            for scheme in [AddressScheme::Uni, AddressScheme::Iso] {
                for victim in [
                    VictimPolicy::Uniform,
                    VictimPolicy::Locality { p_local: 0.7 },
                    VictimPolicy::Hierarchical { local_tries: 1 },
                ] {
                    let cfg = RunConfig::new(6, policy)
                        .with_profile(profiles::test_profile())
                        .with_free_strategy(free)
                        .with_address_scheme(scheme)
                        .with_victim(victim)
                        .with_topology(Topology::Hierarchical {
                            node_size: 3,
                            intra_factor: 0.5,
                        })
                        .with_seg_bytes(64 << 20);
                    let r = run(cfg, uts::program(spec.clone()));
                    assert_eq!(
                        r.result.as_u64(),
                        expected,
                        "{policy:?}/{free:?}/{scheme:?}/{victim:?}"
                    );
                    digests.push(digest(&r));
                }
            }
        }
    }
    assert_eq!(
        digests, MATRIX_48,
        "a configuration's virtual numbers moved"
    );
}

/// Digests of the 48 cells, in loop order (policy, free strategy, address
/// scheme, victim policy).
const MATRIX_48: [u64; 48] = [
    0x2738b174d669fa32,
    0xb8f1964ba340b2cf,
    0xd36de092d1ed183d,
    0x7f5cfbccc4be98c1,
    0x56abee214467935c,
    0x0770edfcda0cc29a,
    0x4282c5f8962d5818,
    0x871a58a6adbfed4c,
    0xbcfe3083ea801bbe,
    0x4a2b596d336ec697,
    0xec43eb283aa22e52,
    0x63e0fd56cb13da35,
    0xac37f76f1db745fd,
    0x6a0634a80bf43e48,
    0x7e13b4513b821f35,
    0xf9f7682fce58271b,
    0xe448d9b6c5a4de1f,
    0x4ef03a97d0a6c053,
    0xa5f6a555d804640e,
    0x8f955ced44e5efea,
    0xbbe45852505182c4,
    0xc71678fd437e593d,
    0xff1b074fb81c28a4,
    0xd4e73bdd2a226e5b,
    0xe89e947a54e35754,
    0xda61f24cc229cf20,
    0xa0bd93fbf5209cdd,
    0xe89e947a54e35754,
    0xda61f24cc229cf20,
    0xa0bd93fbf5209cdd,
    0xb23fae6ae30c3bda,
    0xa80cbdabcac853d3,
    0xfca491ff35aad0ed,
    0xb23fae6ae30c3bda,
    0xa80cbdabcac853d3,
    0xfca491ff35aad0ed,
    0x1a641354cd2271da,
    0x1572c5bc8133ee17,
    0xcd160e31d9715363,
    0x1a641354cd2271da,
    0x1572c5bc8133ee17,
    0xcd160e31d9715363,
    0x4fe4bc4c9ee2c6bd,
    0x6c0aa9b4eaec8b43,
    0x0fd6bec4e3d34398,
    0x4fe4bc4c9ee2c6bd,
    0x6c0aa9b4eaec8b43,
    0x0fd6bec4e3d34398,
];

/// The same matrix restricted to the future-heavy LCS (no RtC — buried
/// joins cannot express the wavefront safely at arbitrary schedules).
#[test]
fn lcs_matrix_over_memory_configurations() {
    use dcs::apps::lcs::{self, LcsParams};
    let params = LcsParams::random_alpha(32, 8, 9, 4);
    let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
    let mut digests = Vec::new();
    for policy in [Policy::ContGreedy, Policy::ContStalling, Policy::ChildFull] {
        for free in [FreeStrategy::LocalCollection, FreeStrategy::LockQueue] {
            for scheme in [AddressScheme::Uni, AddressScheme::Iso] {
                let cfg = RunConfig::new(5, policy)
                    .with_profile(profiles::test_profile())
                    .with_free_strategy(free)
                    .with_address_scheme(scheme)
                    .with_seg_bytes(64 << 20);
                let r = run(cfg, lcs::program(params.clone()));
                assert_eq!(
                    r.result.as_u64(),
                    expected,
                    "{policy:?}/{free:?}/{scheme:?}"
                );
                digests.push(digest(&r));
            }
        }
    }
    assert_eq!(digests, LCS_12, "a configuration's virtual numbers moved");
}

/// Digests of the 12 LCS cells, in loop order (policy, free strategy,
/// address scheme).
const LCS_12: [u64; 12] = [
    0x626c5ece8a978d4c,
    0xc4e1f3ce1c3ec333,
    0x8c4d3a3aa6799601,
    0x7d746cdc343b3e68,
    0x38227f4ef5b0471c,
    0x2467dfdd832b7f6e,
    0xb7922b5933fd5069,
    0x8e9b5b2066242719,
    0xe9c1ac2363236e08,
    0xe9c1ac2363236e08,
    0x16f44b3cd9c30bb9,
    0x16f44b3cd9c30bb9,
];

/// Each policy × address scheme through a fail-stop kill and through a
/// lossy message detector's false suspicions, on the tiny UTS tree. These
/// runs shed stacks on eviction and leak what a killed worker held; the
/// watchdog's leak counts are folded into each digest, so a shed step that
/// releases a stack to the wrong place moves a pin.
#[test]
fn faulted_cells_over_memory_configurations() {
    let spec = uts::UtsSpec::new(4.0, 10, uts::Shape::Linear, 19);
    let expected = uts::serial_count(&spec).nodes;
    let mut digests = Vec::new();
    for policy in Policy::ALL {
        for scheme in [AddressScheme::Uni, AddressScheme::Iso] {
            for plan in ["kill=3@200us", "detector=message,suspect=40us,drop=0.05"] {
                let cfg = RunConfig::new(4, policy)
                    .with_address_scheme(scheme)
                    .with_seed(1)
                    .with_fault_plan(FaultPlan::parse(plan).expect("plan parses"));
                let r = run(cfg, uts::program(spec.clone()));
                if r.outcome.is_complete() {
                    assert_eq!(r.result.as_u64(), expected, "{policy:?}/{scheme:?}/{plan}");
                }
                digests.push(digest(&r));
            }
        }
    }
    assert_eq!(
        digests, FAULTED_16,
        "a faulted configuration's virtual numbers moved"
    );
}

/// Digests of the 16 faulted cells, in loop order (policy, address scheme,
/// plan).
const FAULTED_16: [u64; 16] = [
    0x3d40048eabb5e56f,
    0xe28db4e212c15a49,
    0x8dbe9989e4ef556b,
    0x86d8c5df65966934,
    0xa4d72eb4de38ea55,
    0x5abcfde81e2e61a9,
    0x797ee7185c531d74,
    0xc200c495c67c9ac0,
    0x61e19c399dbc319f,
    0xb251ee03b76dcf88,
    0x61e19c399dbc319f,
    0xb251ee03b76dcf88,
    0x0ff1dc3b727381ad,
    0x3a8d27a25a037b9d,
    0x0ff1dc3b727381ad,
    0x3a8d27a25a037b9d,
];

/// Stragglers combined with topology-aware stealing still rebalance.
#[test]
fn straggler_with_locality_policy() {
    let spec = uts::UtsSpec::new(3.0, 7, uts::Shape::Linear, 5);
    let expected = uts::serial_count(&spec).nodes;
    let cfg = RunConfig::new(8, Policy::ContGreedy)
        .with_topology(Topology::Hierarchical {
            node_size: 4,
            intra_factor: 0.3,
        })
        .with_victim(VictimPolicy::Locality { p_local: 0.8 })
        .with_straggler(2, 6.0)
        .with_seg_bytes(64 << 20);
    let r = run(cfg, uts::program(spec));
    assert_eq!(r.result.as_u64(), expected);
    assert!(r.stats.steals_ok > 0);
}

/// The continuation policies under the lossy detector on a tree large
/// enough for false suspicions (10 under ContGreedy, 21 under ContStalling):
/// every evicted worker sheds the stacks it runs, queues, holds suspended
/// and has evacuated, under both address schemes. The tiny tree of
/// `faulted_cells_over_memory_configurations` evicts no continuation
/// worker. Recorded before the stack refactor, like the pins above.
#[test]
fn evicted_continuation_workers_shed_their_stacks() {
    let spec = uts::UtsSpec::new(4.0, 12, uts::Shape::Linear, 19);
    let expected = uts::serial_count(&spec).nodes;
    let plan = FaultPlan::parse("detector=message,suspect=40us,drop=0.05").expect("plan parses");
    let mut digests = Vec::new();
    for policy in [Policy::ContGreedy, Policy::ContStalling] {
        for scheme in [AddressScheme::Uni, AddressScheme::Iso] {
            let cfg = RunConfig::new(4, policy)
                .with_address_scheme(scheme)
                .with_seed(1)
                .with_fault_plan(plan.clone());
            let r = run(cfg, uts::program(spec.clone()));
            assert_eq!(r.result.as_u64(), expected, "{policy:?}/{scheme:?}");
            assert!(r.stats.rejoins > 0, "{policy:?}/{scheme:?} evicts nobody");
            digests.push(digest(&r));
        }
    }
    assert_eq!(
        digests, EVICTED_4,
        "an evicted configuration's virtual numbers moved"
    );
}

/// Threads still suspended or buried when an armed run terminates are
/// orphaned duplicates: the run retires them and hands their stacks back,
/// so the watchdog names no stack leak. ContStalling's evicted workers
/// leave a waiter in the wait queue at the end of this run.
#[test]
fn armed_termination_releases_stranded_stacks() {
    let spec = uts::UtsSpec::new(4.0, 12, uts::Shape::Linear, 19);
    let plan = FaultPlan::parse("detector=message,suspect=40us,drop=0.05").expect("plan parses");
    for scheme in [AddressScheme::Uni, AddressScheme::Iso] {
        let cfg = RunConfig::new(4, Policy::ContStalling)
            .with_address_scheme(scheme)
            .with_seed(1)
            .with_fault_plan(plan.clone());
        let r = run(cfg, uts::program(spec.clone()));
        let text = r.watchdog.expect("an armed run carries a watchdog").to_string();
        for what in ["uni-address slots", "evacuated bytes", "full stacks", "iso-address slots"] {
            assert!(!text.contains(what), "{scheme:?}: {what} leaked:\n{text}");
        }
    }
}

/// Digests of the 4 eviction cells, in loop order (policy, address scheme).
/// The two ContStalling digests were re-pinned once, when armed termination
/// began releasing the stacks of stranded waiters (their watchdog text lost
/// its `leak: 392 evacuated bytes` and `leak: 1 iso-address slots` lines):
/// 0xdf15afe2a0368cfe → 0xb01df975fe7329aa and 0x461904c2afe3070d →
/// 0x028d9c75ca770160.
const EVICTED_4: [u64; 4] = [
    0x6b5cf38e7f782cc4,
    0x60355e9ec134f2cf,
    0xb01df975fe7329aa,
    0x028d9c75ca770160,
];
