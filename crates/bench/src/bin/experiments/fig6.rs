//! Fig. 6 — parallel efficiency of PFor and RecPFor under five runtime
//! configurations, on both machine profiles.
//!
//! Paper setup: ITO-A with 576 cores / Wisteria-O with 1728 cores, K = 5,
//! M = 10 µs, N swept so the ideal execution time `T1/P` spans
//! ~10 ms … 10 s; 100-run averages. Here: P = 64, N swept over powers of
//! two, seeds averaged (the simulator is deterministic given a seed).
//!
//! Configurations (left-to-right as in the figure's legend):
//!
//! * `baseline`   — continuation stealing, stalling join, lock-queue frees
//!   (original MassiveThreads/DM),
//! * `+localcol`  — baseline + local collection (§III-B),
//! * `greedy`     — local collection + greedy join (§III-A2; the paper's
//!   full configuration),
//! * `child-full` — child stealing, fully-fledged threads,
//! * `child-rtc`  — child stealing, run-to-completion threads.
//!
//! Expected shape (paper §V-A/V-B): local collection buys up to ~40% on
//! PFor; greedy join adds ~8% more on RecPFor only; continuation stealing
//! beats child stealing clearly on RecPFor (up to 1.3× vs Full, ~5× vs RtC
//! on Wisteria-O) while PFor shows little difference.

use dcs_apps::pfor::{pfor_program, recpfor_program, PforParams};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, mean_f64, pick};

/// The five configurations of the figure, also raced by `ablate_overlap`.
pub const CONFIGS: [(&str, Policy, FreeStrategy); 5] = [
    ("baseline", Policy::ContStalling, FreeStrategy::LockQueue),
    (
        "+localcol",
        Policy::ContStalling,
        FreeStrategy::LocalCollection,
    ),
    ("greedy", Policy::ContGreedy, FreeStrategy::LocalCollection),
    (
        "child-full",
        Policy::ChildFull,
        FreeStrategy::LocalCollection,
    ),
    ("child-rtc", Policy::ChildRtc, FreeStrategy::LocalCollection),
];

const WORKERS: usize = 64;

/// `T1 / P` of one benchmark instance.
fn ideal(bench: &str, n: u64, profile: &MachineProfile) -> VTime {
    let params = PforParams::paper(n);
    let t1 = match bench {
        "PFor" => params.pfor_t1(profile.compute_scale),
        _ => params.recpfor_t1(profile.compute_scale),
    };
    t1 / WORKERS as u64
}

pub fn tables(jobs: usize) -> Vec<Table> {
    let reps = pick(1, 3);
    let machines = [profiles::itoa(), profiles::wisteria()];
    let pfor_sizes: &[u64] = pick(
        &[1 << 10, 1 << 12],
        &[1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16],
    );
    let recpfor_sizes: &[u64] = pick(
        &[1 << 6, 1 << 8],
        &[1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12],
    );

    // (machine, bench, N, config, seed rep), in row order.
    let mut cells = Vec::new();
    for mi in 0..machines.len() {
        for (bench, sizes) in [("PFor", pfor_sizes), ("RecPFor", recpfor_sizes)] {
            for &n in sizes {
                for ci in 0..CONFIGS.len() {
                    for rep in 0..reps {
                        cells.push((mi, bench, n, ci, rep as u64));
                    }
                }
            }
        }
    }
    let effs: Vec<f64> = sweep::run_matrix(&cells, jobs, |_, &(mi, bench, n, ci, rep)| {
        let (_, policy, free) = CONFIGS[ci];
        let profile = &machines[mi];
        let params = PforParams::paper(n);
        let program = match bench {
            "PFor" => pfor_program(params),
            _ => recpfor_program(params),
        };
        let rc = config(WORKERS, policy)
            .with_profile(profile.clone())
            .with_free_strategy(free)
            .with_seed(0x5EED + rep);
        let elapsed = run(rc, program).elapsed;
        ideal(bench, n, profile).as_ns() as f64 / elapsed.as_ns() as f64
    });

    let rows = cells
        .chunks(reps)
        .zip(effs.chunks(reps))
        .map(|(c, eff)| {
            let (mi, bench, n, ci, _) = c[0];
            let ideal = ideal(bench, n, &machines[mi]);
            row(&[
                &machines[mi].name,
                &bench,
                &CONFIGS[ci].0,
                &n,
                &format!("{:.3}", ideal.as_ms_f64()),
                &format!("{:.4}", mean_f64(eff)),
            ])
        })
        .collect();
    vec![Table {
        csv: "fig6",
        title: format!("Fig. 6: PFor/RecPFor parallel efficiency (P = {WORKERS}, {reps} seed(s))"),
        columns: "machine,bench,config,n,ideal_ms,efficiency",
        rows,
        notes: vec![
            "Paper shape: +localcol >= baseline (up to ~40% on PFor);".into(),
            "greedy helps RecPFor only; child-rtc collapses on RecPFor.".into(),
        ],
    }]
}
