//! Ablation (§VI future work) — topology-aware victim selection over
//! RDMA-based continuation stealing.
//!
//! The paper evaluates uniform random stealing only and explicitly leaves
//! topology-aware victim selection over RDMA as future interest. This
//! ablation runs UTS on a hierarchical machine (nodes of 32 workers with
//! 0.25× intra-node latency, mesh-connected like Wisteria-O) under three
//! victim policies and reports throughput, steal latency and the
//! local-steal fraction's effect.

use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_core::prelude::*;

use crate::table::{row, Table};
use crate::{config, mnodes, pick};

pub fn tables(jobs: usize) -> Vec<Table> {
    let spec = pick(presets::tiny(), presets::medium());
    let info = uts::serial_count(&spec);
    let workers: usize = pick(16, 256);
    let node_size = pick(4, 32);
    let topologies = [
        ("flat", Topology::Flat),
        (
            "hier",
            Topology::Hierarchical {
                node_size,
                intra_factor: 0.25,
            },
        ),
        ("mesh3d", Topology::cubish_mesh(workers, node_size)),
    ];
    let victims = [
        VictimPolicy::Uniform,
        VictimPolicy::Locality { p_local: 0.8 },
        VictimPolicy::Hierarchical { local_tries: 2 },
    ];
    let mut cells = Vec::new();
    for ti in 0..topologies.len() {
        for v in victims {
            cells.push((ti, v));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(ti, v)| {
        let rc = config(workers, Policy::ContGreedy)
            .with_topology(topologies[ti].1.clone())
            .with_victim(v);
        let r = run(rc, uts::program(spec.clone()));
        assert_eq!(r.result.as_u64(), info.nodes);
        r
    });
    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(ti, v), r)| {
            row(&[
                &topologies[ti].0,
                &v.label(),
                &format!("{:.3}", mnodes(info.nodes, r.elapsed)),
                &format!("{:.2}", r.stats.avg_steal_latency().as_us_f64()),
                &r.stats.steals_ok,
                &r.stats.steals_failed,
            ])
        })
        .collect();
    vec![Table {
        csv: "ablate_topology",
        title: format!(
            "§VI ablation: topology-aware stealing, UTS ({} nodes, P = {workers}, node = {node_size})",
            info.nodes
        ),
        columns: "topology,victim,throughput_mnodes_s,avg_steal_latency_us,steals_ok,steals_failed",
        rows,
        notes: vec![
            "Expected: on flat machines the policies tie (locality can only".into(),
            "hurt victim coverage); on hierarchical/mesh machines locality-".into(),
            "aware selection cuts average steal latency.".into(),
        ],
    }]
}
