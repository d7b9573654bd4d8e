//! Fig. 7 — time series of scheduler activity in RecPFor: number of busy
//! workers (filled area in the paper) and number of ready-to-execute
//! outstanding joins (line plot), for continuation stealing (greedy) versus
//! child stealing (Full).
//!
//! Expected shape: under continuation stealing almost all workers stay busy
//! and ready outstanding joins hover near zero; under child stealing the
//! busy count shows deep "valleys" in the latter half while hundreds of
//! ready joins sit unexecuted (a non-greedy schedule).

use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let workers = 64;
    let n: u64 = pick(1 << 8, 1 << 12);
    let buckets = 60;
    let policies = [Policy::ContGreedy, Policy::ChildFull];
    let reports = sweep::run_matrix(&policies, jobs, |_, &policy| {
        let rc = config(workers, policy).with_trace(TraceLevel::Series);
        run(rc, recpfor_program(PforParams::paper(n)))
    });

    let (mut rows, mut notes) = (Vec::new(), Vec::new());
    for (policy, r) in policies.iter().zip(&reports) {
        let busy = r.stats.busy_series(r.elapsed, buckets);
        let joins = r.stats.ready_join_series(r.elapsed, buckets);
        for ((t, b), (_, j)) in busy.iter().zip(&joins) {
            rows.push(row(&[
                &policy.label(),
                &format!("{:.3}", t.as_ms_f64()),
                b,
                j,
            ]));
        }
        let avg_busy = busy.iter().map(|&(_, b)| b as f64).sum::<f64>() / busy.len() as f64;
        let max_joins = joins.iter().map(|&(_, j)| j).max().unwrap_or(0);
        notes.push(format!(
            "{}: elapsed {}; avg busy workers: {avg_busy:.1}/{workers}; peak ready outstanding joins: {max_joins}",
            policy.label(),
            r.elapsed
        ));
    }
    vec![Table {
        csv: "fig7",
        title: format!(
            "Fig. 7: RecPFor N=2^{} time series (P = {workers}, {buckets} buckets)",
            n.ilog2()
        ),
        columns: "strategy,t_ms,busy_workers,ready_joins",
        rows,
        notes,
    }]
}
