//! Ablation (Fig. 4) — how often each DIE/JOIN path executes under greedy
//! join, across the benchmarks.
//!
//! The work-first fast path (pop the parent before racing) is what makes
//! the greedy join affordable: it resolves the overwhelming majority of
//! joins without any RDMA atomic. This ablation counts, per benchmark:
//!
//! * `die fast`   — parent popped, plain flag write (no atomic),
//! * `die won`    — atomic race won by the producer (joiner not suspended),
//! * `die lost`   — atomic race lost: the producer migrates and resumes the
//!   suspended joiner (the §III-A2 migration-at-join capability),
//! * `join fast`  — joins satisfied on first flag read.

use dcs_apps::lcs::{self, LcsParams};
use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let workers = 32;
    let benches = ["RecPFor", "UTS", "LCS"];
    let reports = sweep::run_matrix(&benches, jobs, |_, &name| {
        let program = match name {
            "RecPFor" => recpfor_program(PforParams::paper(pick(1 << 7, 1 << 10))),
            "UTS" => uts::program(pick(presets::tiny(), presets::small())),
            _ => {
                let n = pick(1 << 10, 1 << 13);
                lcs::program(LcsParams::random(n, 256.min(n), 7))
            }
        };
        run(config(workers, Policy::ContGreedy), program)
    });
    let rows = benches
        .iter()
        .zip(&reports)
        .map(|(name, r)| {
            let s = &r.stats;
            row(&[
                name,
                &r.threads,
                &s.die_fast,
                &s.die_won,
                &s.die_lost,
                &s.joins_fast,
                &s.outstanding_joins,
            ])
        })
        .collect();
    vec![Table {
        csv: "ablate_join",
        title: format!("Fig. 4 ablation: greedy DIE/JOIN path frequencies (P = {workers})"),
        columns: "bench,threads,die_fast,die_won,die_lost,join_fast,outstanding",
        rows,
        notes: vec![
            "Expected: die-fast dominates (work-first principle); die-lost —".into(),
            "the migration path stalling join lacks — appears mainly in the".into(),
            "future-heavy LCS.".into(),
        ],
    }]
}
