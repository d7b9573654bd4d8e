//! Fig. 8 — UTS throughput scaling on the ITO-A profile: our fork-join
//! continuation-stealing runtime against three bag-of-tasks runtimes, over
//! three tree sizes.
//!
//! Paper: up to 9216 cores; trees T1L < T1XXL < T1WL (0.1–10 Gnodes).
//! Here: up to 512 workers and the scaled tree family (~80 k / ~0.3 M /
//! ~1.2 M nodes). The *shape* to reproduce: one-sided runtimes
//! (cont-steal, SAWS-like BoT) keep scaling even on small trees; the
//! two-sided runtimes (Charm++-like, X10/GLB-like) fall off; the smallest
//! tree saturates first for everyone.
//!
//! Every runtime must report the identical node count — the cross-runtime
//! correctness check the tree's determinism provides.

use dcs_apps::uts::{self, presets, serial_vtime};
use dcs_bench::sweep;
use dcs_bot::{onesided, twosided};
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, mnodes, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let trees = pick(
        vec![("tiny", presets::tiny())],
        vec![
            ("T1L~", presets::small()),
            ("T1XXL~", presets::medium()),
            ("T1WL~", presets::large()),
        ],
    );
    let ps: &[usize] = pick(&[1, 4, 16], &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512]);
    // The two-sided runtimes are simulated at the scale where their
    // behaviour is already clear; their per-event cost explodes with P.
    let two_sided_cap = 128;
    let profile = profiles::itoa();

    // Per-tree serial info (cheap, host-side), then one sweep cell per
    // (tree, P, runtime) — the expensive simulations — fanned across jobs.
    let infos: Vec<_> = trees
        .iter()
        .map(|(_, spec)| uts::serial_count(spec))
        .collect();
    let mut cells = Vec::new();
    for ti in 0..trees.len() {
        for &p in ps {
            cells.push((ti, p, "cont-steal"));
            cells.push((ti, p, "bot-onesided"));
            if p <= two_sided_cap {
                cells.push((ti, p, "bot-twosided"));
                cells.push((ti, p, "bot-lifeline"));
            }
        }
    }
    let tps: Vec<f64> = sweep::run_matrix(&cells, jobs, |_, &(ti, p, rt)| {
        let spec = &trees[ti].1;
        let nodes = infos[ti].nodes;
        let (got, elapsed) = match rt {
            "cont-steal" => {
                let fj = run(config(p, Policy::ContGreedy), uts::program(spec.clone()));
                (fj.result.as_u64(), fj.elapsed)
            }
            "bot-onesided" => {
                let os = onesided::run_uts(spec, p, profile.clone(), 1);
                (os.nodes, os.elapsed)
            }
            _ => {
                let variant = match rt {
                    "bot-twosided" => twosided::Variant::Random,
                    _ => twosided::Variant::Lifeline,
                };
                let ts = twosided::run_uts(spec, p, profile.clone(), variant, 1);
                (ts.nodes, ts.elapsed)
            }
        };
        assert_eq!(got, nodes, "{rt} node count");
        mnodes(nodes, elapsed)
    });

    let rows = cells
        .iter()
        .zip(&tps)
        .map(|(&(ti, p, rt), tp)| {
            row(&[&trees[ti].0, &infos[ti].nodes, &rt, &p, &format!("{tp:.3}")])
        })
        .collect();
    let mut notes: Vec<String> = trees
        .iter()
        .zip(&infos)
        .map(|((name, spec), info)| {
            let t_serial = serial_vtime(spec, profile.compute_scale);
            format!(
                "{name}: depth {}, serial {t_serial} ({:.2} Mnodes/s); ideal = serial throughput x P",
                info.max_depth,
                mnodes(info.nodes, t_serial)
            )
        })
        .collect();
    notes.push("Paper shape: one-sided runtimes track the ideal line; two-sided".into());
    notes.push("runtimes flatten early; the smallest tree saturates first.".into());
    vec![Table {
        csv: "fig8",
        title: format!("Fig. 8: UTS throughput on {}", profile.name),
        columns: "tree,nodes,runtime,p,throughput_mnodes_s",
        rows,
        notes,
    }]
}
