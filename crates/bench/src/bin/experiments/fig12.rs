//! Fig. 12 — LCS execution time of continuation stealing (greedy join)
//! versus the greedy-scheduling-theorem bounds, across problem sizes and
//! worker counts.
//!
//! With `T1 = (N/C)²·Tc` and `T∞ = (2N/C − 1)·Tc` the bounds are
//! `max(T1/P, T∞) ≤ T_P ≤ T1/P + T∞`. The paper shows most measured points
//! inside the band up to ~10k cores — evidence that "almost no tasks were
//! unnecessarily blocked by the scheduler".

use dcs_apps::lcs::{self, LcsParams};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let sizes: &[u64] = pick(&[1 << 10], &[1 << 11, 1 << 12, 1 << 13, 1 << 14]);
    let ps: &[usize] = pick(&[1, 4], &[1, 4, 16, 64, 256]);
    let c = 512;
    let scale = profiles::itoa().compute_scale;

    // Inputs + reference answer shared per N; the (N, P) grid of
    // simulations fans out across jobs.
    let inputs: Vec<(LcsParams, u64)> = sizes
        .iter()
        .map(|&n| {
            let params = LcsParams::random(n, c.min(n), 7);
            let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
            (params, expected)
        })
        .collect();
    let mut cells = Vec::new();
    for ni in 0..sizes.len() {
        for &p in ps {
            cells.push((ni, p));
        }
    }
    let elapsed: Vec<VTime> = sweep::run_matrix(&cells, jobs, |_, &(ni, p)| {
        let (params, expected) = &inputs[ni];
        let r = run(config(p, Policy::ContGreedy), lcs::program(params.clone()));
        assert_eq!(r.result.as_u64(), *expected);
        r.elapsed
    });

    let mut inside = 0;
    let rows: Vec<_> = cells
        .iter()
        .zip(&elapsed)
        .map(|(&(ni, p), &t)| {
            let params = &inputs[ni].0;
            let (t1, tinf) = (params.t1(scale), params.t_inf(scale));
            let lower = (t1 / p as u64).max(tinf);
            let upper = t1 / p as u64 + tinf;
            // The theorem assumes zero runtime overhead; allow the paper's
            // observed slack above the ideal upper bound.
            let ok = t >= lower && t.as_ns() as f64 <= upper.as_ns() as f64 * 1.25;
            inside += ok as usize;
            let ms = |v: VTime| format!("{:.3}", v.as_ms_f64());
            row(&[&sizes[ni], &p, &ms(t), &ms(lower), &ms(upper), &ok])
        })
        .collect();
    let notes = vec![format!(
        "{inside} / {} points within the greedy-scheduling band (paper: \"most\")",
        rows.len()
    )];
    vec![Table {
        csv: "fig12",
        title: format!("Fig. 12: LCS bounds check on ITO-A (C = {c})"),
        columns: "n,p,t_ms,lower_ms,upper_ms,in_bounds",
        rows,
        notes,
    }]
}
