//! Table III — LCS execution times under three scheduling policies.
//!
//! Paper: N = 2^18 / 2^22 on ITO-A with 576 cores; greedy join an order of
//! magnitude faster than stalling join, two orders faster than child
//! stealing (whose tied tasks leave almost everything on the main worker).
//! Here: N scaled (2^12 / 2^14 / 2^16, C = 512), P = 64. The result is
//! validated against the O(N²) reference DP, which is scalar and at 2^16
//! takes about as long as the nine simulations together.

use dcs_apps::lcs::{self, LcsParams};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, pick};

const POLICIES: [Policy; 3] = [Policy::ContGreedy, Policy::ContStalling, Policy::ChildFull];

pub fn tables(jobs: usize) -> Vec<Table> {
    let workers = 64;
    let sizes: &[u64] = pick(&[1 << 10], &[1 << 12, 1 << 14, 1 << 16]);
    let c = 512.min(sizes[0]);

    // Inputs and the O(N²) reference answer are shared per N (host-side);
    // the simulations themselves fan out across jobs.
    let inputs: Vec<(LcsParams, u64)> = sizes
        .iter()
        .map(|&n| {
            let params = LcsParams::random(n, c, 7);
            let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
            (params, expected)
        })
        .collect();
    let mut cells = Vec::new();
    for ni in 0..sizes.len() {
        for policy in POLICIES {
            cells.push((ni, policy));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(ni, policy)| {
        let (params, expected) = &inputs[ni];
        let r = run(config(workers, policy), lcs::program(params.clone()));
        assert_eq!(r.result.as_u64(), *expected, "{policy:?} wrong LCS length");
        r
    });

    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(ni, policy), r)| {
            row(&[
                &sizes[ni],
                &policy.label(),
                &format!("{:.3}", r.elapsed.as_ms_f64()),
                &r.stats.outstanding_joins,
                &r.stats.steals_ok,
            ])
        })
        .collect();
    vec![Table {
        csv: "table3",
        title: format!("Table III: LCS on ITO-A (P = {workers}, C = {c})"),
        columns: "n,policy,exec_ms,outstanding_joins,steals_ok",
        rows,
        notes: vec![
            "Paper shape: greedy << stalling << child-full, roughly an order of".into(),
            "magnitude per step (Table III: 0.569 s / 3.44 s / 93.1 s at 2^18).".into(),
        ],
    }]
}
