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

use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_bot::onesided;
use dcs_core::prelude::*;

use crate::fig6::CONFIGS;
use crate::table::{row, Table};
use crate::{elapsed_ns, mean_u64, pick, recpfor_sweep, steal_lat_ns, REPS};

const MODES: [FabricMode; 2] = [FabricMode::Blocking, FabricMode::Pipelined];

/// Probe-ring widths of the K sweep.
const KS: [u32; 3] = [1, 2, 4];

pub fn tables(jobs: usize) -> Vec<Table> {
    let p = pick(8, 32);
    let n: u64 = pick(256, 1024);
    let spec = pick(presets::tiny(), presets::small());
    let info = uts::serial_count(&spec);

    // Fig. 6 cells: config × fabric mode, three seeds each, meaned; ratios
    // against the blocking fabric.
    let mut rows = Vec::new();
    let mut fig6_wins = 0usize;
    let (cells, reports) = recpfor_sweep(jobs, (p, n), &CONFIGS, &MODES, |rc, mode| {
        rc.with_fabric(mode)
    });
    let per_config = MODES.len() * REPS;
    for (cs, rs) in cells.chunks(per_config).zip(reports.chunks(per_config)) {
        let (be, bl) = (
            mean_u64(&rs[..REPS], elapsed_ns),
            mean_u64(&rs[..REPS], steal_lat_ns),
        );
        for (c, reps) in cs.chunks(REPS).zip(rs.chunks(REPS)) {
            let (ci, mode) = c[0];
            let (e, l) = (mean_u64(reps, elapsed_ns), mean_u64(reps, steal_lat_ns));
            let d = reps.iter().map(|r| r.fabric.max_inflight).fold(0, u64::max);
            let lat_ratio = if bl == 0 { 1.0 } else { l as f64 / bl as f64 };
            if mode == FabricMode::Pipelined && e < be && l < bl {
                fig6_wins += 1;
            }
            rows.push(row(&[
                &"recpfor",
                &CONFIGS[ci].0,
                &mode.label(),
                &p,
                &e,
                &l,
                &mean_u64(reps, |r| r.stats.steals_ok),
                &d,
                &format!("{:.4}", be as f64 / e as f64),
                &format!("{lat_ratio:.4}"),
            ]));
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
    let (cells, reports) = recpfor_sweep(jobs, (p, n), &CONFIGS, &KS, |rc, k| {
        rc.with_fabric(FabricMode::Pipelined)
            .with_multi_steal(k)
            .with_doorbell(0.25)
    });
    let per_config = KS.len() * REPS;
    let mut krows = Vec::new();
    let mut k4_lat_wins = 0usize;
    let (mut chained_total, mut abandoned_total) = (0u64, 0u64);
    for (cs, rs) in cells.chunks(per_config).zip(reports.chunks(per_config)) {
        let (be, bl) = (
            mean_u64(&rs[..REPS], elapsed_ns),
            mean_u64(&rs[..REPS], steal_lat_ns),
        );
        for (c, reps) in cs.chunks(REPS).zip(rs.chunks(REPS)) {
            let (ci, k) = c[0];
            let (e, l) = (mean_u64(reps, elapsed_ns), mean_u64(reps, steal_lat_ns));
            let abandoned = mean_u64(reps, |r| r.stats.steals_abandoned);
            let chained = mean_u64(reps, |r| r.fabric.doorbell_chained);
            let lat_ratio = if bl == 0 { 1.0 } else { l as f64 / bl as f64 };
            if k == 4 && l < bl {
                k4_lat_wins += 1;
            }
            if k >= 2 {
                chained_total += chained;
                abandoned_total += abandoned;
            }
            krows.push(row(&[
                &"recpfor",
                &CONFIGS[ci].0,
                &k,
                &p,
                &e,
                &l,
                &mean_u64(reps, |r| r.stats.steals_ok),
                &abandoned,
                &chained,
                &format!("{:.4}", be as f64 / e as f64),
                &format!("{lat_ratio:.4}"),
            ]));
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

    // Fig. 8: UTS-L through the one-sided BoT, both fabric modes.
    let bot = sweep::run_matrix(&MODES, jobs, |_, &mode| {
        let r = onesided::run_uts_fabric(&spec, p, profiles::itoa(), 5, mode);
        assert_eq!(
            r.nodes,
            info.nodes,
            "one-sided BoT ({}): node count must match the serial tree",
            mode.label()
        );
        r
    });
    assert!(
        bot[1].elapsed < bot[0].elapsed,
        "acceptance: the pipelined steal-half must shorten the UTS-L \
         makespan ({} vs {})",
        bot[1].elapsed,
        bot[0].elapsed
    );
    for (mode, r) in MODES.iter().zip(&bot) {
        let speedup = bot[0].elapsed.as_ns() as f64 / r.elapsed.as_ns() as f64;
        rows.push(row(&[
            &"uts-l",
            &"bot-1sided",
            &mode.label(),
            &p,
            &r.elapsed.as_ns(),
            &0,
            &r.steals_ok,
            &r.fabric.max_inflight,
            &format!("{speedup:.4}"),
            &"",
        ]));
    }

    let title = |what: &str| {
        format!(
            "{what} (RecPFor N = {n} + UTS {} nodes, P = {p}, ITO-A)",
            info.nodes
        )
    };
    vec![
        Table {
            csv: "ablate_overlap",
            title: title("posted-verb overlap ablation"),
            columns: "bench,config,fabric,p,elapsed_ns,steal_lat_ns,steals_ok,max_inflight,speedup,steal_lat_ratio",
            rows,
            notes: vec![
                "Expected shape: pipelined runs post the release/result verb alongside".into(),
                "the payload transfer, so mean steal latency drops by roughly one".into(),
                "one-way latency and the makespan follows wherever steals are dense.".into(),
            ],
        },
        Table {
            csv: "ablate_overlap_k",
            title: title("K-way probe rings on the pipelined fabric, doorbell 0.25"),
            columns: "bench,config,k,p,elapsed_ns,steal_lat_ns,steals_ok,abandoned,doorbell_chained,speedup,steal_lat_ratio",
            rows: krows,
            notes: vec![],
        },
    ]
}
