//! Table II — statistics of join and steal events for the four strategies
//! on PFor and RecPFor, on both machine profiles.
//!
//! Paper columns: execution time, # outstanding joins, avg outstanding join
//! time, # successful steals, avg steal latency, # failed steals, avg
//! stolen task size, avg task copy time — profiled at the largest Fig. 6
//! problem sizes.
//!
//! Expected shape: child stealing suffers orders of magnitude more
//! outstanding joins on RecPFor (RtC worst — buried joins); continuation
//! stealing's stolen tasks are ~1–2 kB (vs. ~55 B) yet its successful-steal
//! latency is < 20% higher; only greedy join keeps the average outstanding
//! join time in the microsecond range.

use dcs_apps::pfor::{pfor_program, recpfor_program, PforParams};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let workers = 64;
    let (pfor_n, recpfor_n): (u64, u64) = pick((1 << 12, 1 << 8), (1 << 16, 1 << 12));
    let machines = [profiles::itoa(), profiles::wisteria()];
    let mut cells = Vec::new();
    for mi in 0..machines.len() {
        for (bench, n) in [("PFor", pfor_n), ("RecPFor", recpfor_n)] {
            for policy in Policy::ALL {
                cells.push((mi, bench, n, policy));
            }
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(mi, bench, n, policy)| {
        let params = PforParams::paper(n);
        let program = match bench {
            "PFor" => pfor_program(params),
            _ => recpfor_program(params),
        };
        run(
            config(workers, policy).with_profile(machines[mi].clone()),
            program,
        )
    });

    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(mi, bench, _, policy), r)| {
            let s = &r.stats;
            row(&[
                &machines[mi].name,
                &bench,
                &policy.label(),
                &format!("{:.3}", r.elapsed.as_ms_f64()),
                &s.outstanding_joins,
                &format!("{:.1}", s.avg_outstanding_time().as_us_f64()),
                &s.steals_ok,
                &format!("{:.1}", s.avg_steal_latency().as_us_f64()),
                &s.steals_failed,
                &s.avg_stolen_bytes(),
                &format!("{:.2}", s.avg_copy_time().as_us_f64()),
            ])
        })
        .collect();
    vec![Table {
        csv: "table2",
        title: format!(
            "Table II: join & steal statistics (P = {workers}, PFor N = 2^{}, RecPFor N = 2^{})",
            pfor_n.ilog2(),
            recpfor_n.ilog2()
        ),
        columns: "machine,bench,strategy,exec_ms,outstanding_joins,avg_outstanding_us,steals_ok,avg_steal_latency_us,steals_failed,avg_stolen_bytes,avg_copy_us",
        rows,
        notes: vec![],
    }]
}
