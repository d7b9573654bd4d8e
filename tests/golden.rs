//! Golden regression tests: exact deterministic outputs for fixed seeds.
//!
//! The simulator's promise is that a run is a pure function of its
//! configuration. These tests pin that function's value for a handful of
//! configurations, so any *unintentional* change to protocol costs, RNG
//! streams, or scheduling order fails loudly. When a change is intentional
//! (e.g. recalibrating a latency), regenerate the constants and say so in
//! the commit message — that is the point of the test.

use dcs::apps::{lcs, lcs::LcsParams, pfor, pfor::PforParams, uts};
use dcs::prelude::*;

fn uts_run(policy: Policy) -> RunReport {
    run(
        RunConfig::new(4, policy)
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_uts_cont_greedy() {
    let r = uts_run(Policy::ContGreedy);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(667_253));
    assert_eq!(r.stats.steals_ok, 13);
    assert_eq!(r.stats.steals_failed, 80);
    assert_eq!(r.steps, 10_970);
}

#[test]
fn golden_uts_cont_stalling() {
    let r = uts_run(Policy::ContStalling);
    assert_eq!(r.elapsed, VTime::ns(679_137));
    assert_eq!(r.stats.steals_ok, 13);
    assert_eq!(r.steps, 10_978);
}

#[test]
fn golden_uts_child_full() {
    let r = uts_run(Policy::ChildFull);
    assert_eq!(r.elapsed, VTime::ns(4_327_916));
    assert_eq!(r.stats.steals_ok, 15);
    assert_eq!(r.stats.steals_failed, 1_306);
}

#[test]
fn golden_uts_child_rtc() {
    let r = uts_run(Policy::ChildRtc);
    assert_eq!(r.elapsed, VTime::ns(509_100));
    assert_eq!(r.stats.steals_ok, 16);
}

/// 16-worker UTS on the ITO-A latency profile — one golden per policy.
/// Wider than the 4-worker pins above, so steal traffic (and therefore the
/// victim-RNG stream and the engine's event-queue interleaving) is
/// exercised much harder; these pin the exact event order at a scale where
/// a subtle ordering bug would actually show.
fn uts16_itoa(policy: Policy) -> RunReport {
    run(
        RunConfig::new(16, policy)
            .with_profile(profiles::itoa())
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_uts16_itoa_cont_greedy() {
    let r = uts16_itoa(Policy::ContGreedy);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(601_308));
    assert_eq!(r.stats.steals_ok, 32);
    assert_eq!(r.stats.steals_failed, 532);
    assert_eq!(r.stats.outstanding_joins, 8);
    assert_eq!(r.steps, 11_931);
    assert_eq!(r.threads, 1674);
}

#[test]
fn golden_uts16_itoa_cont_stalling() {
    let r = uts16_itoa(Policy::ContStalling);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(609_913));
    assert_eq!(r.stats.steals_ok, 29);
    assert_eq!(r.stats.steals_failed, 570);
    assert_eq!(r.steps, 12_005);
}

#[test]
fn golden_uts16_itoa_child_full() {
    let r = uts16_itoa(Policy::ChildFull);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(2_339_226));
    assert_eq!(r.stats.steals_ok, 53);
    assert_eq!(r.stats.steals_failed, 2_922);
    assert_eq!(r.stats.outstanding_joins, 769);
    assert_eq!(r.steps, 19_308);
}

#[test]
fn golden_uts16_itoa_child_rtc() {
    let r = uts16_itoa(Policy::ChildRtc);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(451_170));
    assert_eq!(r.stats.steals_ok, 34);
    assert_eq!(r.steps, 14_130);
}

#[test]
fn golden_recpfor_greedy() {
    let r = run(
        RunConfig::new(8, Policy::ContGreedy)
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        pfor::recpfor_program(PforParams {
            n: 64,
            k: 2,
            m: VTime::us(5),
        }),
    );
    assert_eq!(r.elapsed, VTime::ns(1_812_926));
    assert_eq!(r.stats.steals_ok, 85);
    assert_eq!(r.stats.outstanding_joins, 5);
}

#[test]
fn golden_lcs_futures() {
    let params = LcsParams::random_alpha(64, 16, 3, 4);
    let r = run(
        RunConfig::new(6, Policy::ContGreedy)
            .with_seed(7)
            .with_seg_bytes(64 << 20),
        lcs::program(params),
    );
    assert_eq!(r.result.as_u64(), 35);
    assert_eq!(r.elapsed, VTime::ns(140_040));
    assert_eq!(r.stats.steals_ok, 2);
}

/// 16-worker ITO-A UTS under the fence-free protocol — one golden per
/// policy. Beyond the event-order pinning of `uts16_itoa`, these pin the
/// *multiplicity* counters: the child-stealing policies genuinely take
/// entries twice at this scale (`ff_dups > 0`) and the dedup absorbs every
/// one of them — the node count stays exactly serial.
fn uts16_itoa_ff(policy: Policy) -> RunReport {
    run(
        RunConfig::new(16, policy)
            .with_profile(profiles::itoa())
            .with_seed(7)
            .with_seg_bytes(64 << 20)
            .with_protocol(Protocol::FenceFree),
        uts::program(uts::presets::tiny()),
    )
}

#[test]
fn golden_uts16_itoa_ff_cont_greedy() {
    let r = uts16_itoa_ff(Policy::ContGreedy);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(430_568));
    assert_eq!(r.stats.steals_ok, 26);
    assert_eq!(r.stats.steals_failed, 804);
    assert_eq!(r.stats.ff_dups, 0);
    assert_eq!(r.stats.ff_lost_races, 16);
    assert_eq!(r.steps, 11_648);
    assert_eq!(r.threads, 1674);
}

#[test]
fn golden_uts16_itoa_ff_cont_stalling() {
    let r = uts16_itoa_ff(Policy::ContStalling);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(416_203));
    assert_eq!(r.stats.steals_ok, 27);
    assert_eq!(r.stats.steals_failed, 764);
    assert_eq!(r.stats.ff_dups, 0);
    assert_eq!(r.stats.ff_lost_races, 16);
    assert_eq!(r.steps, 11_609);
}

#[test]
fn golden_uts16_itoa_ff_child_full() {
    let r = uts16_itoa_ff(Policy::ChildFull);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(1_296_194));
    assert_eq!(r.stats.steals_ok, 52);
    assert_eq!(r.stats.steals_failed, 3_125);
    assert_eq!(r.stats.ff_dups, 14);
    assert_eq!(r.stats.ff_lost_races, 11);
    assert_eq!(r.stats.outstanding_joins, 776);
}

#[test]
fn golden_uts16_itoa_ff_child_rtc() {
    let r = uts16_itoa_ff(Policy::ChildRtc);
    assert_eq!(r.result.as_u64(), 3028);
    assert_eq!(r.elapsed, VTime::ns(256_104));
    assert_eq!(r.stats.steals_ok, 31);
    assert_eq!(r.stats.steals_failed, 402);
    assert_eq!(r.stats.ff_dups, 17);
    assert_eq!(r.stats.ff_lost_races, 6);
    assert_eq!(r.steps, 13_654);
}

/// The bag-of-tasks comparators (Fig. 8) at 16 workers, ITO-A, UTS tiny,
/// seed 1 — one pin per runtime. These are the only tier-1 pins of
/// `dcs-bot`: steal protocol, mailbox traffic and the termination ring all
/// land in these nine numbers.
fn assert_bot(r: &dcs::bot::BotReport, want: [u64; 9]) {
    let got = [
        r.elapsed.as_ns(),
        r.nodes,
        r.steals_ok,
        r.steals_failed,
        r.messages,
        r.token_rounds,
        r.steps,
        r.fabric.remote_puts,
        r.fabric.bytes_put,
    ];
    assert_eq!(
        got, want,
        "[elapsed, nodes, steals_ok, steals_failed, messages, token_rounds, steps, remote_puts, bytes_put]"
    );
}

fn bot_onesided(amount: dcs::bot::onesided::StealAmount, plan: FaultPlan) -> dcs::bot::BotReport {
    dcs::bot::onesided::run_uts_faulty(&uts::presets::tiny(), 16, profiles::itoa(), 1, amount, plan)
}

fn bot_twosided(variant: dcs::bot::twosided::Variant) -> dcs::bot::BotReport {
    dcs::bot::twosided::run_uts(&uts::presets::tiny(), 16, profiles::itoa(), variant, 1)
}

#[test]
fn golden_bot_onesided_half() {
    let r = bot_onesided(dcs::bot::onesided::StealAmount::Half, FaultPlan::none());
    assert_bot(&r, [500_430, 3028, 65, 473, 0, 3, 4065, 569, 4552]);
}

#[test]
fn golden_bot_onesided_one() {
    let r = bot_onesided(dcs::bot::onesided::StealAmount::One, FaultPlan::none());
    assert_bot(&r, [472_752, 3028, 37, 488, 0, 3, 4003, 528, 4224]);
}

#[test]
fn golden_bot_onesided_half_verb_faults() {
    let plan = FaultPlan::parse("verb=0.02").expect("plan parses").with_seed(1);
    let r = bot_onesided(dcs::bot::onesided::StealAmount::Half, plan);
    assert_bot(&r, [911_855, 3028, 74, 946, 0, 4, 32_198, 933, 7464]);
}

#[test]
fn golden_bot_twosided_random() {
    let r = bot_twosided(dcs::bot::twosided::Variant::Random);
    assert_bot(&r, [769_446, 3028, 31, 660, 1470, 5, 5576, 0, 0]);
}

#[test]
fn golden_bot_twosided_lifeline() {
    let r = bot_twosided(dcs::bot::twosided::Variant::Lifeline);
    assert_bot(&r, [677_828, 3028, 423, 36, 1046, 4, 4356, 0, 0]);
}
