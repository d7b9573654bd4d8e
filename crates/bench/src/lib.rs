//! # dcs-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation section, plus the
//! ablations and the host self-benchmark (see DESIGN.md §5 for the
//! experiment index):
//!
//! | binary          | reproduces |
//! |-----------------|------------|
//! | `fig6`          | Fig. 6 — PFor/RecPFor parallel efficiency across join/steal strategies |
//! | `fig6_protocols`| Fig. 6 companion — cas-lock vs. lock-free vs. fence-free steal protocols |
//! | `table2`        | Table II — join & steal statistics |
//! | `fig7`          | Fig. 7 — busy-worker / ready-join time series |
//! | `fig8`          | Fig. 8 — UTS throughput scaling vs. BoT runtimes (ITO-A) |
//! | `fig9`          | Fig. 9 — UTS throughput scaling (Wisteria-O) |
//! | `table3`        | Table III — LCS execution times |
//! | `fig12`         | Fig. 12 — LCS vs. greedy-scheduling-theorem bounds |
//! | `ablate_free`   | §III-B ablation — lock-queue vs. local collection |
//! | `ablate_join`   | Fig. 4 ablation — work-first fast-path hit rates |
//! | `ablate_uniaddr`| §II-D ablation — uni- vs. iso-address pinned memory |
//! | `ablate_topology`| §VI future work — topology-aware victim selection on a hierarchical machine |
//! | `ablate_stealhalf`| one-sided BoT — steal-half vs. steal-one (Dinan et al. / SAWS design point) |
//! | `ablate_faults` | resilience of the four runtimes under transient fault injection |
//! | `ablate_recovery`| what fail-stop recovery costs, armed and firing (fork-join + one-sided BoT) |
//! | `ablate_suspicion`| what imperfect failure detection costs when nothing dies (`detector=message`) |
//! | `ablate_overlap`| posted verbs vs. blocking, and K-way probe rings (`FabricMode`, `--multi-steal`) |
//! | `selfbench`     | simulator host throughput (steps/s, peak bytes) → `BENCH_simperf.json`; not a paper figure |
//!
//! Every binary prints a human-readable table *and* writes a CSV under
//! `results/`. `DCS_QUICK=1` shrinks problem sizes for smoke runs;
//! `DCS_WORKERS=<n>` overrides the default worker counts.

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use dcs_sim::VTime;

pub mod sweep;

/// True when the harness should shrink workloads (CI / smoke runs).
pub fn quick() -> bool {
    std::env::var("DCS_QUICK").is_ok_and(|v| v != "0")
}

/// Default worker count for the fixed-P experiments, honouring
/// `DCS_WORKERS`.
pub fn workers_default(default: usize) -> usize {
    std::env::var("DCS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Repetitions per configuration (the paper averages 100 runs of a
/// nondeterministic system; the simulator is deterministic given a seed, so
/// we average a few seeds instead), honouring `DCS_REPS`.
pub fn reps_default(default: usize) -> usize {
    std::env::var("DCS_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 1 } else { default })
}

/// Mean of virtual times.
pub fn mean_vtime(xs: &[VTime]) -> VTime {
    assert!(!xs.is_empty());
    VTime::ns(xs.iter().map(|t| t.as_ns() as u128).sum::<u128>() as u64 / xs.len() as u64)
}

/// Mean of f64 samples.
pub fn mean_f64(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A CSV sink under `results/`.
pub struct Csv {
    file: fs::File,
    path: String,
}

impl Csv {
    /// Create `results/<name>.csv` with a header row.
    pub fn create(name: &str, header: &str) -> Csv {
        fs::create_dir_all("results").expect("create results dir");
        let path = format!("results/{name}.csv");
        let mut file = fs::File::create(Path::new(&path)).expect("create csv");
        writeln!(file, "{header}").expect("write header");
        Csv { file, path }
    }

    pub fn row(&mut self, fields: &[&dyn Display]) {
        writeln!(self.file, "{}", csv_line(fields)).expect("write row");
    }

    pub fn path(&self) -> &str {
        &self.path
    }
}

/// Render one CSV row (no trailing newline). Shared by [`Csv`] and the
/// sweep-determinism tests, which compare rendered rows across job counts.
pub fn csv_line(fields: &[&dyn Display]) -> String {
    fields
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Format a throughput in Mnodes/s.
pub fn mnodes(nodes: u64, t: VTime) -> f64 {
    nodes as f64 / t.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean_vtime(&[VTime::ns(10), VTime::ns(20)]), VTime::ns(15));
        assert!((mean_f64(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_writes() {
        let mut csv = Csv::create("harness_selftest", "a,b");
        csv.row(&[&1, &"x"]);
        let content = std::fs::read_to_string(csv.path()).unwrap();
        assert_eq!(content, "a,b\n1,x\n");
        std::fs::remove_file(csv.path()).ok();
    }

    #[test]
    fn mnodes_math() {
        let t = VTime::secs(2);
        assert!((mnodes(4_000_000, t) - 2.0).abs() < 1e-9);
    }
}
