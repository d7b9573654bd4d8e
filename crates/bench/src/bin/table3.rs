//! Table III — LCS execution times under three scheduling policies.
//!
//! Paper: N = 2^18 / 2^22 on ITO-A with 576 cores; greedy join an order of
//! magnitude faster than stalling join, two orders faster than child
//! stealing (whose tied tasks leave almost everything on the main worker).
//! Here: N scaled (2^12 / 2^14 / 2^16, C = 512), P = 64 (override
//! `DCS_WORKERS`). The result is validated against the O(N²) reference DP,
//! which is scalar and at 2^16 takes about as long as the nine simulations
//! together.

use dcs_apps::lcs::{self, LcsParams};
use dcs_bench::{quick, sweep, workers_default, Csv};
use dcs_core::prelude::*;

const POLICIES: [Policy; 3] = [Policy::ContGreedy, Policy::ContStalling, Policy::ChildFull];

fn main() {
    let jobs = sweep::jobs_or_exit();
    let workers = workers_default(64);
    let sizes: &[u64] = if quick() {
        &[1 << 10]
    } else {
        &[1 << 12, 1 << 14, 1 << 16]
    };
    let c = 512.min(sizes[0]);
    let profile = profiles::itoa();
    let mut csv = Csv::create("table3", "n,policy,exec_ms,outstanding_joins,steals_ok");

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
    let mut cells: Vec<(usize, Policy)> = Vec::new();
    for (ni, _) in sizes.iter().enumerate() {
        for policy in POLICIES {
            cells.push((ni, policy));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(ni, policy)| {
        let (params, expected) = &inputs[ni];
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profile.clone())
            .with_seg_bytes(64 << 20);
        let r = run(cfg, lcs::program(params.clone()));
        assert_eq!(r.result.as_u64(), *expected, "{policy:?} wrong LCS length");
        r
    });

    println!("=== Table III: LCS on {} (P = {workers}, C = {c}) ===\n", profile.name);
    println!(
        "{:<8} {:<26} {:>12} {:>10} {:>8}",
        "N", "policy", "time", "#outjoin", "#steals"
    );
    let mut next = 0usize;
    for &n in sizes {
        for policy in POLICIES {
            let r = &reports[next];
            next += 1;
            println!(
                "2^{:<6} {:<26} {:>12} {:>10} {:>8}",
                n.ilog2(),
                policy.label(),
                r.elapsed.to_string(),
                r.stats.outstanding_joins,
                r.stats.steals_ok
            );
            csv.row(&[
                &n,
                &policy.label(),
                &format!("{:.3}", r.elapsed.as_ms_f64()),
                &r.stats.outstanding_joins,
                &r.stats.steals_ok,
            ]);
        }
        println!();
    }
    assert_eq!(next, reports.len(), "render walked the whole matrix");
    println!("CSV written to {}", csv.path());
    println!("Paper shape: greedy ≪ stalling ≪ child-full, roughly an order of");
    println!("magnitude per step (Table III: 0.569 s / 3.44 s / 93.1 s at 2^18).");
}
