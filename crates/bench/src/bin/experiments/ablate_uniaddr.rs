//! Ablation (§II-D) — address-space consumption: uni-address versus
//! iso-address, **both actually executed**, plus the uni-address
//! migration-conflict rate.
//!
//! The iso-address scheme (PM2/Charm++/Adaptive MPI) assigns every thread
//! stack a globally unique pinned range, so pinned memory grows with the
//! number of *live* threads across the whole job; the uni-address scheme
//! reuses addresses and is bounded by per-worker nesting depth (plus the
//! evacuation region for suspended threads). With RDMA the pinned footprint
//! is what matters — it must be registered up front.
//!
//! Both schemes run the same workloads under the same scheduler; execution
//! times are expected to be nearly identical (the schemes differ in memory,
//! not scheduling), which this ablation also verifies.

use dcs_apps::lcs::{self, LcsParams};
use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, pick};

/// Programs are built by name inside each job — closures returning
/// `Program` are not `Sync`, an index is.
fn mk_program(name: &str) -> Program {
    match name {
        "RecPFor" => recpfor_program(PforParams::paper(pick(1 << 7, 1 << 10))),
        "UTS" => uts::program(pick(presets::tiny(), presets::small())),
        _ => {
            let n = pick(1u64 << 10, 1 << 12);
            lcs::program(LcsParams::random(n, 256.min(n), 7))
        }
    }
}

pub fn tables(jobs: usize) -> Vec<Table> {
    let workers = 32;
    let mut cells = Vec::new();
    for name in ["RecPFor", "UTS", "LCS"] {
        for scheme in [AddressScheme::Uni, AddressScheme::Iso] {
            cells.push((name, scheme));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(name, scheme)| {
        dcs_core::run(
            config(workers, Policy::ContGreedy).with_address_scheme(scheme),
            mk_program(name),
        )
    });
    for pair in reports.chunks(2) {
        // Sanity: the schemes must not change scheduling.
        let ratio = pair[1].elapsed.as_ns() as f64 / pair[0].elapsed.as_ns() as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "address scheme changed execution time by {ratio}"
        );
    }
    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(name, scheme), r)| {
            let pinned = match scheme {
                AddressScheme::Uni => r.uni_peak,
                AddressScheme::Iso => r.iso_peak,
            };
            row(&[
                &name,
                &scheme.label(),
                &r.threads,
                &pinned,
                &r.evac_peak,
                &r.uni_conflicts,
                &format!("{:.3}", r.elapsed.as_ms_f64()),
            ])
        })
        .collect();
    vec![Table {
        csv: "ablate_uniaddr",
        title: format!("§II-D ablation: uni-address vs iso-address (P = {workers})"),
        columns: "bench,scheme,threads,pinned_peak_bytes,evac_peak_bytes,conflicts,exec_ms",
        rows,
        notes: vec![
            "Uni-address pinning is bounded by nesting depth × slot per worker;".into(),
            "iso-address pins a globally unique slot per live thread. With RDMA,".into(),
            "all of it must be registered up front (§II-D).".into(),
        ],
    }]
}
