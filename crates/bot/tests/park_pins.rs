//! Pins: every virtual number of a fault-free bag run, host steps excluded.
//!
//! Each row is an FNV-1a digest over every [`BotReport`] field **except
//! `steps`** — elapsed time, nodes, checksum, steal counts, messages, token
//! rounds, the recovery counters and every [`FabricStats`] counter — of a
//! grid of fault-free runs (worker counts × three seeds). `steps` counts
//! host-side engine steps: it is the one number an idle worker that parks
//! instead of re-polling is allowed to change. Everything else, `local_ops`
//! included (each skipped poll must be credited exactly what it would have
//! charged), has to come out bit for bit — so this file is the park-vs-poll
//! proof for the fault-free paths, whose poll loops no longer exist to be
//! compared against. It was written against the polling runtimes and must
//! never be edited to make a change pass.

use dcs_apps::uts::{presets, UtsSpec};
use dcs_bot::onesided::{self, StealAmount};
use dcs_bot::twosided::{self, Variant};
use dcs_bot::{BotReport, PforBag, Workload};
use dcs_sim::{profiles, FabricMode, FabricStats, FaultPlan, MachineProfile, VTime};

const SEEDS: [u64; 3] = [1, 0x5EED, 977];
const ONE_SIDED_WORKERS: [usize; 5] = [1, 2, 3, 16, 64];
const TWO_SIDED_WORKERS: [usize; 5] = [1, 2, 3, 8, 32];

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Fold every field of `r` but `steps` into `h`. Both structs are
/// destructured, so a new field is a compile error here, not a silent gap.
fn fold(h: &mut u64, r: &BotReport) {
    let BotReport {
        elapsed,
        nodes,
        checksum,
        steals_ok,
        steals_failed,
        messages,
        token_rounds,
        dead_workers,
        lost_tasks,
        reexec_tasks,
        dup_results,
        fabric,
        steps: _,
    } = r;
    let FabricStats {
        remote_gets,
        remote_puts,
        remote_amos,
        local_ops,
        bytes_got,
        bytes_put,
        messages_sent,
        messages_handled,
        retries,
        timeouts,
        dead_fails,
        max_inflight,
        cq_polls,
        doorbell_chained,
        fenced_verbs,
        peak_resident_bytes,
    } = fabric;
    for v in [
        elapsed.as_ns(),
        *nodes,
        *checksum,
        *steals_ok,
        *steals_failed,
        *messages,
        *token_rounds,
        *dead_workers,
        *lost_tasks,
        *reexec_tasks,
        *dup_results,
        *remote_gets,
        *remote_puts,
        *remote_amos,
        *local_ops,
        *bytes_got,
        *bytes_put,
        *messages_sent,
        *messages_handled,
        *retries,
        *timeouts,
        *dead_fails,
        *max_inflight,
        *cq_polls,
        *doorbell_chained,
        *fenced_verbs,
        *peak_resident_bytes,
    ] {
        fnv(h, v);
    }
}

/// Digest of `run(workers, seed)` over `workers × SEEDS`, in that order.
fn grid(workers: &[usize], run: impl Fn(usize, u64) -> BotReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    for &w in workers {
        for seed in SEEDS {
            fold(&mut h, &run(w, seed));
        }
    }
    h
}

fn tree(small: bool) -> (UtsSpec, MachineProfile) {
    if small {
        (presets::small(), profiles::itoa())
    } else {
        (presets::tiny(), profiles::test_profile())
    }
}

fn check(rows: &[(&str, u64, u64)]) {
    let bad: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        bad.is_empty(),
        "a virtual number of a fault-free bag run moved:\n{}",
        bad.join("\n")
    );
}

fn one_sided(small: bool, amount: StealAmount, fabric: FabricMode) -> u64 {
    let (spec, profile) = tree(small);
    let work = Workload::Uts(spec);
    grid(&ONE_SIDED_WORKERS, |w, seed| {
        onesided::run_workload_fabric(&work, w, profile.clone(), seed, amount, FaultPlan::none(), fabric)
    })
}

fn two_sided(small: bool, variant: Variant) -> u64 {
    let (spec, profile) = tree(small);
    grid(&TWO_SIDED_WORKERS, |w, seed| {
        twosided::run_uts(&spec, w, profile.clone(), variant, seed)
    })
}

#[test]
fn one_sided_tiny() {
    use FabricMode::{Blocking, Pipelined};
    use StealAmount::{Half, One};
    check(&[
        ("half/blocking", one_sided(false, Half, Blocking), 0xAE5D_879F_292F_9667),
        ("half/pipelined", one_sided(false, Half, Pipelined), 0x09A5_41C8_EB3B_7C23),
        ("one/blocking", one_sided(false, One, Blocking), 0x3E9C_6EE8_1283_6167),
        ("one/pipelined", one_sided(false, One, Pipelined), 0x6446_DF16_B6E1_8038),
    ]);
}

#[test]
fn one_sided_small() {
    use FabricMode::{Blocking, Pipelined};
    use StealAmount::{Half, One};
    check(&[
        ("half/blocking", one_sided(true, Half, Blocking), 0xC899_CACA_30C8_C888),
        ("half/pipelined", one_sided(true, Half, Pipelined), 0xD95D_259F_C737_0FF1),
        ("one/blocking", one_sided(true, One, Blocking), 0x719C_BDF3_ED91_A9F7),
        ("one/pipelined", one_sided(true, One, Pipelined), 0x1E40_5E2A_F298_2B84),
    ]);
}

#[test]
fn two_sided_tiny() {
    check(&[
        ("random", two_sided(false, Variant::Random), 0xB520_781B_B353_F4DE),
        ("lifeline", two_sided(false, Variant::Lifeline), 0xF19C_8E41_AF7B_1B7B),
    ]);
}

#[test]
fn two_sided_small() {
    check(&[
        ("random", two_sided(true, Variant::Random), 0x2D90_6A24_7313_DC35),
        ("lifeline", two_sided(true, Variant::Lifeline), 0x49BC_BAD2_2E56_FA77),
    ]);
}

/// The PFor bag through the `_faulty` entry points under the empty plan:
/// once per runtime.
#[test]
fn pfor_under_the_empty_plan() {
    let p = PforBag { n: 4096, grain: 8, m: VTime::us(2) };
    let mut one = 0xCBF2_9CE4_8422_2325;
    fold(
        &mut one,
        &onesided::run_pfor_faulty(p, 16, profiles::itoa(), 7, FaultPlan::none()),
    );
    let two = |variant| {
        let mut h = 0xCBF2_9CE4_8422_2325;
        fold(
            &mut h,
            &twosided::run_pfor_faulty(p, 16, profiles::itoa(), variant, 7, FaultPlan::none()),
        );
        h
    };
    check(&[
        ("one-sided", one, 0xC942_FCB6_F2A5_2B7C),
        ("two-sided random", two(Variant::Random), 0xD274_02D3_4007_AFF1),
        ("two-sided lifeline", two(Variant::Lifeline), 0x4021_3E7D_6F17_AB0D),
    ]);
}
