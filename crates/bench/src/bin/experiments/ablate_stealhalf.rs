//! Ablation — steal-half versus steal-one in the one-sided bag-of-tasks
//! runtime (the Dinan et al. / Hendler & Shavit design point SAWS builds
//! on).
//!
//! On UTS the contrast is subtler than on flat bags — a single stolen node
//! roots an entire subtree — so the effect shows up at larger worker
//! counts, where steal-half pre-distributes enough nodes to absorb the
//! irregular subtree sizes while steal-one keeps going back to the well.

use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_bot::onesided::{run_uts_with, StealAmount};
use dcs_sim::profiles;

use crate::table::{row, Table};
use crate::{mnodes, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let spec = pick(presets::tiny(), presets::medium());
    let info = uts::serial_count(&spec);
    let ps: &[usize] = pick(&[4, 8], &[16, 64, 256]);
    let mut cells = Vec::new();
    for &p in ps {
        for amount in [StealAmount::Half, StealAmount::One] {
            cells.push((p, amount));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(p, amount)| {
        let r = run_uts_with(&spec, p, profiles::itoa(), 5, amount);
        assert_eq!(r.nodes, info.nodes);
        r
    });
    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(p, amount), r)| {
            let tp = mnodes(r.nodes, r.elapsed);
            row(&[
                &format!("{amount:?}"),
                &p,
                &format!("{tp:.3}"),
                &r.steals_ok,
                &r.steals_failed,
            ])
        })
        .collect();
    vec![Table {
        csv: "ablate_stealhalf",
        title: format!(
            "steal-half vs steal-one (one-sided BoT, UTS {} nodes)",
            info.nodes
        ),
        columns: "amount,p,throughput_mnodes_s,steals_ok,steals_failed",
        rows,
        notes: vec![],
    }]
}
