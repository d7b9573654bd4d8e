//! Fig. 6 companion — the three steal-protocol families head-to-head on
//! RecPFor (ITO-A).
//!
//! The deque hot path comes in three flavours (docs/PROTOCOLS.md):
//!
//! * `cas-lock`   — thieves serialize on a per-deque lock word (CAS to
//!   acquire, put to release); the baseline everywhere else in the repo,
//! * `lock-free`  — thieves claim the top entry with a single remote CAS,
//!   no lock word, owner CAS only for the last-item race,
//! * `fence-free` — thieves use plain reads and writes only (zero AMO
//!   verbs on the steal path); the resulting bounded multiplicity is
//!   closed at runtime by the done-flag/lineage dedup, so a doubly-taken
//!   task executes at most once observably.
//!
//! Reported per (config, protocol, fabric mode): virtual makespan, mean
//! steal latency, steal and AMO counts, and the fence-free dup/lost-race
//! counters that measure how often the multiplicity bound is actually
//! exercised. Acceptance bars asserted here:
//!
//! 1. fence-free issues strictly fewer remote AMOs than cas-lock in every
//!    cell, and **zero** under child-rtc + local collection (no DIE flags,
//!    no free-queue locks — the steal path is the only AMO client left);
//! 2. under `FabricMode::Pipelined` the fence-free thief overlaps the
//!    payload copy with the claim write (max verbs in flight ≥ 2).

use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{elapsed_ns, fig6, mean_u64, pick, recpfor_sweep, steal_lat_ns, REPS};

/// The greedy and child-rtc configurations of Fig. 6.
const CONFIGS: [(&str, Policy, FreeStrategy); 2] = [fig6::CONFIGS[2], fig6::CONFIGS[4]];

const MODES: [FabricMode; 2] = [FabricMode::Blocking, FabricMode::Pipelined];

pub fn tables(jobs: usize) -> Vec<Table> {
    let p = pick(8, 32);
    let n: u64 = pick(256, 1024);

    // Per config: every (mode, protocol), the protocols adjacent.
    let variants: Vec<(FabricMode, Protocol)> = MODES
        .iter()
        .flat_map(|&m| Protocol::ALL.map(|proto| (m, proto)))
        .collect();
    let (cells, reports) = recpfor_sweep(jobs, (p, n), &CONFIGS, &variants, |rc, (mode, proto)| {
        rc.with_fabric(mode).with_protocol(proto)
    });

    let amos = |r: &RunReport| r.fabric.remote_amos;
    let group = Protocol::ALL.len() * REPS;
    let mut rows = Vec::new();
    for (cs, rs) in cells.chunks(group).zip(reports.chunks(group)) {
        // Ratios are against cas-lock under the same config and fabric mode.
        let base = &rs[..REPS];
        let (be, bl, ba) = (
            mean_u64(base, elapsed_ns),
            mean_u64(base, steal_lat_ns),
            mean_u64(base, amos),
        );
        for (c, reps) in cs.chunks(REPS).zip(rs.chunks(REPS)) {
            let (ci, (mode, proto)) = c[0];
            let (name, policy, _) = CONFIGS[ci];
            let (e, l, a) = (
                mean_u64(reps, elapsed_ns),
                mean_u64(reps, steal_lat_ns),
                mean_u64(reps, amos),
            );
            let s = mean_u64(reps, |r| r.stats.steals_ok);
            let d = reps.iter().map(|r| r.fabric.max_inflight).fold(0, u64::max);
            let mk_ratio = e as f64 / be as f64;
            let lat_ratio = if bl == 0 { 1.0 } else { l as f64 / bl as f64 };
            if proto == Protocol::FenceFree {
                assert!(
                    a < ba,
                    "acceptance: fence-free must issue fewer AMOs than \
                     cas-lock ({a} vs {ba}, {name} {})",
                    mode.label()
                );
                if policy == Policy::ChildRtc {
                    assert_eq!(
                        a, 0,
                        "acceptance: child-rtc + local collection + \
                         fence-free is the zero-AMO configuration"
                    );
                }
                if mode == FabricMode::Pipelined && s > 0 {
                    assert!(
                        d >= 2,
                        "acceptance: pipelined fence-free steals overlap \
                         the claim write with the payload copy"
                    );
                }
            }
            rows.push(row(&[
                &name,
                &proto.label(),
                &mode.label(),
                &p,
                &n,
                &e,
                &l,
                &s,
                &a,
                &mean_u64(reps, |r| r.stats.ff_dups),
                &mean_u64(reps, |r| r.stats.ff_lost_races),
                &d,
                &format!("{mk_ratio:.4}"),
                &format!("{lat_ratio:.4}"),
            ]));
        }
    }
    vec![Table {
        csv: "fig6_protocols",
        title: format!("Fig. 6 protocols: RecPFor N = {n}, P = {p}, ITO-A, {REPS} seeds"),
        columns: "config,protocol,fabric,p,n,elapsed_ns,steal_lat_ns,steals_ok,remote_amos,ff_dups,ff_lost,max_inflight,makespan_vs_caslock,steal_lat_vs_caslock",
        rows,
        notes: vec![
            "Expected shape: lock-free shaves the lock round-trips off every".into(),
            "steal; fence-free trades the last AMO for a small dup/lost-race".into(),
            "tax that the done-flag dedup absorbs without a second execution.".into(),
        ],
    }]
}
