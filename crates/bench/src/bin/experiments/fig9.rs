//! Fig. 9 — UTS throughput of the continuation-stealing runtime on the
//! Wisteria-O profile (A64FX + Tofu-D), three tree sizes, larger worker
//! counts.
//!
//! Paper: up to 110,592 cores with 96.4% parallel efficiency on T1WL.
//! Here: up to 1024 workers on the scaled trees. The shape: the largest
//! tree keeps near-ideal efficiency to the top of the sweep; smaller trees
//! peel off as per-worker work shrinks toward the steal latency.

use dcs_apps::uts::{self, presets, serial_vtime};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, mnodes, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    // (tree, P values): bigger trees carry the top of the sweep so the
    // per-worker work stays meaningful, mirroring the paper's weak-ish
    // scaling across tree sizes.
    let full_ps: &[usize] = &[16, 32, 64, 128, 256, 512, 1024];
    let top_ps: &[usize] = &[256, 512, 1024];
    let trees: Vec<(&str, _, &[usize])> = pick(
        vec![("tiny", presets::tiny(), &[1usize, 8][..])],
        vec![
            ("T1L~", presets::small(), full_ps),
            ("T1XXL~", presets::medium(), full_ps),
            ("T1WL~", presets::large(), full_ps),
            ("T1WL+", presets::huge(), top_ps),
        ],
    );
    let profile = profiles::wisteria();

    // One cell per run: per tree, the paper-style P=1 self-baseline first
    // (flagged), then the sweep points.
    let infos: Vec<_> = trees
        .iter()
        .map(|(_, spec, _)| uts::serial_count(spec))
        .collect();
    let mut cells = Vec::new();
    for (ti, (_, _, ps)) in trees.iter().enumerate() {
        cells.push((ti, 1, true));
        cells.extend(ps.iter().map(|&p| (ti, p, false)));
    }
    let elapsed: Vec<VTime> = sweep::run_matrix(&cells, jobs, |_, &(ti, p, _)| {
        let r = run(
            config(p, Policy::ContGreedy).with_profile(profile.clone()),
            uts::program(trees[ti].1.clone()),
        );
        assert_eq!(r.result.as_u64(), infos[ti].nodes);
        r.elapsed
    });

    // The paper computes parallel efficiency against the *single-core
    // execution time of the runtime itself* ("96.4% parallel efficiency
    // calculated with a single-core execution time"), not serial DFS.
    let (mut rows, mut notes) = (Vec::new(), Vec::new());
    let mut single_tp = 0.0;
    for (&(ti, p, baseline), &t) in cells.iter().zip(&elapsed) {
        let (name, spec, _) = &trees[ti];
        let nodes = infos[ti].nodes;
        let tp = mnodes(nodes, t);
        if baseline {
            single_tp = tp;
            let t_serial = serial_vtime(spec, profile.compute_scale);
            notes.push(format!(
                "{name}: serial DFS {t_serial} ({:.2} Mn/s); runtime at P=1: {t} ({tp:.2} Mn/s)",
                mnodes(nodes, t_serial)
            ));
        } else {
            let eff = tp / (single_tp * p as f64);
            rows.push(row(&[
                name,
                &nodes,
                &p,
                &format!("{tp:.3}"),
                &format!("{eff:.4}"),
            ]));
        }
    }
    notes.push("Paper: 96.4% parallel efficiency at the top of the sweep for the".into());
    notes.push("largest tree — the headline scaling claim.".into());
    vec![Table {
        csv: "fig9",
        title: format!("Fig. 9: UTS scaling on {}", profile.name),
        columns: "tree,nodes,p,throughput_mnodes_s,efficiency",
        rows,
        notes,
    }]
}
