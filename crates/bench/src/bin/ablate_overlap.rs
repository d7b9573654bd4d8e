//! Ablation — what posting verbs instead of blocking on them buys.
//!
//! `FabricMode::Blocking` issues every one-sided verb serially (post at
//! t=0, wait, advance); `FabricMode::Pipelined` lets the protocol hot
//! paths post independent verbs back-to-back and reap them from the
//! completion queue — the thief's lock-release put rides alongside the
//! stack copy, DIE's result put overlaps the flag AMO, and the one-sided
//! BoT's size update overlaps the task-block read.
//!
//! Two experiment families, matching the figures the refactor targets:
//!
//! 1. **Fig. 6 (RecPFor, ITO-A).** The five runtime configurations of the
//!    efficiency figure, run under both fabric modes. Reported: virtual
//!    makespan and mean steal latency. The acceptance bar — at least one
//!    configuration must improve in *both* metrics — is asserted here.
//! 2. **Fig. 8 (UTS-L, one-sided BoT).** The T1L-scale tree under both
//!    modes; the steal-half critical section is two verbs shorter when
//!    pipelined, so end-to-end time must drop. Node counts are asserted
//!    against the serial tree in every cell.

use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_apps::uts::{self, presets};
use dcs_bench::{quick, sweep, workers_default, Csv};
use dcs_bot::onesided;
use dcs_core::prelude::*;

struct Config {
    name: &'static str,
    policy: Policy,
    free: FreeStrategy,
}

const CONFIGS: [Config; 5] = [
    Config {
        name: "baseline",
        policy: Policy::ContStalling,
        free: FreeStrategy::LockQueue,
    },
    Config {
        name: "+localcol",
        policy: Policy::ContStalling,
        free: FreeStrategy::LocalCollection,
    },
    Config {
        name: "greedy",
        policy: Policy::ContGreedy,
        free: FreeStrategy::LocalCollection,
    },
    Config {
        name: "child-full",
        policy: Policy::ChildFull,
        free: FreeStrategy::LocalCollection,
    },
    Config {
        name: "child-rtc",
        policy: Policy::ChildRtc,
        free: FreeStrategy::LocalCollection,
    },
];

const MODES: [FabricMode; 2] = [FabricMode::Blocking, FabricMode::Pipelined];

/// One cell: (elapsed, mean steal latency, steals, max verbs in flight).
type Cell = (VTime, VTime, u64, u64);

fn main() {
    let jobs = sweep::jobs_or_exit();
    let p = workers_default(if quick() { 8 } else { 32 });
    let n: u64 = if quick() { 256 } else { 1024 };
    let params = PforParams::paper(n);
    let spec = if quick() { presets::tiny() } else { presets::small() };
    let info = uts::serial_count(&spec);
    let profile = profiles::itoa();

    println!(
        "=== posted-verb overlap ablation (RecPFor N = {n} + UTS {} nodes, P = {p}, {}) ===\n",
        info.nodes, profile.name
    );

    // Fig. 6 cells: config × fabric mode, three seeds each, meaned.
    const REPS: u64 = 3;
    let mut cells: Vec<(usize, usize, u64)> = Vec::new();
    for ci in 0..CONFIGS.len() {
        for mi in 0..MODES.len() {
            for rep in 0..REPS {
                cells.push((ci, mi, rep));
            }
        }
    }
    let raw: Vec<Cell> = sweep::run_matrix(&cells, jobs, |_, &(ci, mi, rep)| {
        let cfg = &CONFIGS[ci];
        let r = run(
            RunConfig::new(p, cfg.policy)
                .with_profile(profile.clone())
                .with_free_strategy(cfg.free)
                .with_fabric(MODES[mi])
                .with_seed(0x5EED + rep)
                .with_seg_bytes(64 << 20),
            recpfor_program(params),
        );
        assert!(r.outcome.is_complete(), "{}: run completes", cfg.name);
        (
            r.elapsed,
            r.stats.avg_steal_latency(),
            r.stats.steals_ok,
            r.fabric.max_inflight,
        )
    });
    // Mean the reps back into one cell per (config, mode).
    let mean = |ci: usize, mi: usize| -> Cell {
        let base = (ci * MODES.len() + mi) * REPS as usize;
        let (mut e, mut l, mut s, mut d) = (0u64, 0u64, 0u64, 0u64);
        for r in 0..REPS as usize {
            let (re, rl, rs, rd) = raw[base + r];
            e += re.as_ns();
            l += rl.as_ns();
            s += rs;
            d = d.max(rd);
        }
        (
            VTime::ns(e / REPS),
            VTime::ns(l / REPS),
            s / REPS,
            d,
        )
    };

    let mut csv = Csv::create(
        "ablate_overlap",
        "bench,config,fabric,p,elapsed_ns,steal_lat_ns,steals_ok,max_inflight,speedup,steal_lat_ratio",
    );
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12} {:>8} {:>9} {:>8} {:>9}",
        "bench", "config", "fabric", "elapsed", "steal-lat", "steals", "inflight", "speedup", "lat-ratio"
    );

    let mut fig6_wins = 0usize;
    for (ci, cfg) in CONFIGS.iter().enumerate() {
        let (be, bl, _, _) = mean(ci, 0);
        for (mi, mode) in MODES.iter().enumerate() {
            let (e, l, s, d) = mean(ci, mi);
            let speedup = be.as_ns() as f64 / e.as_ns() as f64;
            let lat_ratio = if bl.as_ns() == 0 {
                1.0
            } else {
                l.as_ns() as f64 / bl.as_ns() as f64
            };
            if mi == 1 && e < be && l < bl {
                fig6_wins += 1;
            }
            println!(
                "{:<10} {:<10} {:>10} {:>12} {:>12} {:>8} {:>9} {:>7.3}x {:>9.3}",
                "recpfor", cfg.name, mode.label(), e.to_string(), l.to_string(), s, d, speedup, lat_ratio
            );
            csv.row(&[
                &"recpfor",
                &cfg.name,
                &mode.label(),
                &p,
                &e.as_ns(),
                &l.as_ns(),
                &s,
                &d,
                &format!("{speedup:.4}"),
                &format!("{lat_ratio:.4}"),
            ]);
        }
    }
    assert!(
        fig6_wins >= 1,
        "acceptance: pipelining must lower both makespan and mean steal \
         latency on at least one Fig. 6 configuration (got {fig6_wins})"
    );

    // Fig. 6 revisited with probe rings: the same five configurations on
    // the pipelined fabric with K ∈ {1, 2, 4} steal probes in flight,
    // the ring's verbs doorbell-chained at 0.25× injection. K = 1 is the
    // one-victim ring; K ≥ 2 probes that many victims at once, commits
    // the first in ring order that has work (its won lock freezes the
    // bounds, so the take skips one small-get round trip) and cancels the
    // rest — ready-but-unused victims are counted as `abandoned`, never as
    // latency samples.
    const KS: [u32; 3] = [1, 2, 4];
    let mut kcells: Vec<(usize, usize, u64)> = Vec::new();
    for ci in 0..CONFIGS.len() {
        for ki in 0..KS.len() {
            for rep in 0..REPS {
                kcells.push((ci, ki, rep));
            }
        }
    }
    // (elapsed, mean steal latency, steals, abandoned, chained verbs).
    type KCell = (VTime, VTime, u64, u64, u64);
    let kraw: Vec<KCell> = sweep::run_matrix(&kcells, jobs, |_, &(ci, ki, rep)| {
        let cfg = &CONFIGS[ci];
        let r = run(
            RunConfig::new(p, cfg.policy)
                .with_profile(profile.clone())
                .with_free_strategy(cfg.free)
                .with_fabric(FabricMode::Pipelined)
                .with_multi_steal(KS[ki])
                .with_doorbell(0.25)
                .with_seed(0x5EED + rep)
                .with_seg_bytes(64 << 20),
            recpfor_program(params),
        );
        assert!(
            r.outcome.is_complete(),
            "{} K={}: run completes",
            cfg.name,
            KS[ki]
        );
        (
            r.elapsed,
            r.stats.avg_steal_latency(),
            r.stats.steals_ok,
            r.stats.steals_abandoned,
            r.fabric.doorbell_chained,
        )
    });
    let kmean = |ci: usize, ki: usize| -> KCell {
        let base = (ci * KS.len() + ki) * REPS as usize;
        let (mut e, mut l, mut s, mut a, mut c) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in 0..REPS as usize {
            let (re, rl, rs, ra, rc) = kraw[base + r];
            e += re.as_ns();
            l += rl.as_ns();
            s += rs;
            a += ra;
            c += rc;
        }
        (
            VTime::ns(e / REPS),
            VTime::ns(l / REPS),
            s / REPS,
            a / REPS,
            c / REPS,
        )
    };

    let mut kcsv = Csv::create(
        "ablate_overlap_k",
        "bench,config,k,p,elapsed_ns,steal_lat_ns,steals_ok,abandoned,doorbell_chained,speedup,steal_lat_ratio",
    );
    println!(
        "\n{:<10} {:<10} {:>3} {:>12} {:>12} {:>8} {:>9} {:>9} {:>8} {:>9}",
        "bench", "config", "k", "elapsed", "steal-lat", "steals", "abandon", "chained", "speedup", "lat-ratio"
    );
    let mut k4_lat_wins = 0usize;
    let (mut chained_total, mut abandoned_total) = (0u64, 0u64);
    for (ci, cfg) in CONFIGS.iter().enumerate() {
        let (be, bl, _, _, _) = kmean(ci, 0);
        for (ki, &k) in KS.iter().enumerate() {
            let (e, l, s, a, c) = kmean(ci, ki);
            let speedup = be.as_ns() as f64 / e.as_ns() as f64;
            let lat_ratio = if bl.as_ns() == 0 {
                1.0
            } else {
                l.as_ns() as f64 / bl.as_ns() as f64
            };
            if k == 4 && l < bl {
                k4_lat_wins += 1;
            }
            if k >= 2 {
                chained_total += c;
                abandoned_total += a;
            }
            println!(
                "{:<10} {:<10} {:>3} {:>12} {:>12} {:>8} {:>9} {:>9} {:>7.3}x {:>9.3}",
                "recpfor", cfg.name, k, e.to_string(), l.to_string(), s, a, c, speedup, lat_ratio
            );
            kcsv.row(&[
                &"recpfor",
                &cfg.name,
                &k,
                &p,
                &e.as_ns(),
                &l.as_ns(),
                &s,
                &a,
                &c,
                &format!("{speedup:.4}"),
                &format!("{lat_ratio:.4}"),
            ]);
        }
    }
    assert!(
        k4_lat_wins >= 4,
        "acceptance: a K = 4 probe ring must lower mean steal latency \
         against K = 1 on at least four of the five Fig. 6 configurations \
         (got {k4_lat_wins})"
    );
    assert!(
        chained_total > 0,
        "acceptance: probe rings must actually ride doorbell chains"
    );
    assert!(
        abandoned_total > 0,
        "acceptance: some ready victims must have been abandoned (K \
         probes racing dense steals), and the counter must account them"
    );
    println!("\nK-sweep CSV written to {}", kcsv.path());

    // Fig. 8: UTS-L through the one-sided BoT, both fabric modes.
    let bot: Vec<Cell> = sweep::run_matrix(&[0usize, 1], jobs, |_, &mi| {
        let r = onesided::run_uts_fabric(&spec, p, profile.clone(), 5, MODES[mi]);
        assert_eq!(
            r.nodes, info.nodes,
            "one-sided BoT ({}): node count must match the serial tree",
            MODES[mi].label()
        );
        (r.elapsed, VTime::ZERO, r.steals_ok, r.fabric.max_inflight)
    });
    let (be, _, _, _) = bot[0];
    for (mi, mode) in MODES.iter().enumerate() {
        let (e, _, s, d) = bot[mi];
        let speedup = be.as_ns() as f64 / e.as_ns() as f64;
        println!(
            "{:<10} {:<10} {:>10} {:>12} {:>12} {:>8} {:>9} {:>7.3}x {:>9}",
            "uts-l", "bot-1sided", mode.label(), e.to_string(), "-", s, d, speedup, "-"
        );
        csv.row(&[
            &"uts-l",
            &"bot-1sided",
            &mode.label(),
            &p,
            &e.as_ns(),
            &0u64,
            &s,
            &d,
            &format!("{speedup:.4}"),
            &"",
        ]);
    }
    assert!(
        bot[1].0 < bot[0].0,
        "acceptance: the pipelined steal-half must shorten the UTS-L \
         makespan ({} vs {})",
        bot[1].0,
        bot[0].0
    );

    println!("\nCSV written to {}", csv.path());
    println!("Expected shape: pipelined runs post the release/result verb alongside");
    println!("the payload transfer, so mean steal latency drops by roughly one");
    println!("one-way latency and the makespan follows wherever steals are dense.");
}
