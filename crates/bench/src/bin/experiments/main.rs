//! `experiments` — every table and figure of the paper's evaluation, plus
//! the ablations, from one binary (see DESIGN.md §5 for the experiment
//! index):
//!
//! | experiment        | reproduces |
//! |-------------------|------------|
//! | `fig6`            | Fig. 6 — PFor/RecPFor parallel efficiency across join/steal strategies |
//! | `fig6_protocols`  | Fig. 6 companion — cas-lock vs. lock-free vs. fence-free steal protocols |
//! | `table2`          | Table II — join & steal statistics |
//! | `fig7`            | Fig. 7 — busy-worker / ready-join time series |
//! | `fig8`            | Fig. 8 — UTS throughput scaling vs. BoT runtimes (ITO-A) |
//! | `fig9`            | Fig. 9 — UTS throughput scaling (Wisteria-O) |
//! | `table3`          | Table III — LCS execution times |
//! | `fig12`           | Fig. 12 — LCS vs. greedy-scheduling-theorem bounds |
//! | `ablate_free`     | §III-B ablation — lock-queue vs. local collection |
//! | `ablate_join`     | Fig. 4 ablation — work-first fast-path hit rates |
//! | `ablate_uniaddr`  | §II-D ablation — uni- vs. iso-address pinned memory |
//! | `ablate_topology` | §VI future work — topology-aware victim selection on a hierarchical machine |
//! | `ablate_stealhalf`| one-sided BoT — steal-half vs. steal-one (Dinan et al. / SAWS design point) |
//! | `ablate_faults`   | resilience of the four runtimes under transient fault injection |
//! | `ablate_recovery` | what fail-stop recovery costs, armed and firing (fork-join + one-sided BoT) |
//! | `ablate_suspicion`| what imperfect failure detection costs when nothing dies (`detector=message`) |
//! | `ablate_overlap`  | posted verbs vs. blocking, and K-way probe rings (`FabricMode`, `--multi-steal`) |
//!
//! Usage: `experiments NAME… | all | --list [--jobs N]`. Each experiment
//! is a function from the job count to its [`table::Table`]s; `emit`
//! writes `results/<csv>.csv` for each table and prints them, keeping the
//! printed text as `results/<experiment>.txt`. `DCS_QUICK=1` shrinks the
//! problem sizes; `--jobs N` (or `DCS_JOBS`) sets the host threads, and
//! no output byte depends on it. Host throughput is `selfbench`'s, not a
//! paper figure.

mod ablate_faults;
mod ablate_free;
mod ablate_join;
mod ablate_overlap;
mod ablate_recovery;
mod ablate_stealhalf;
mod ablate_suspicion;
mod ablate_topology;
mod ablate_uniaddr;
mod fig12;
mod fig6;
mod fig6_protocols;
mod fig7;
mod fig8;
mod fig9;
mod table;
mod table2;
mod table3;

use dcs_apps::pfor;
use dcs_bench::sweep;
use dcs_core::prelude::*;

type Experiment = fn(usize) -> Vec<table::Table>;

/// Every experiment, in campaign order.
const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("fig6", fig6::tables),
    ("fig6_protocols", fig6_protocols::tables),
    ("table2", table2::tables),
    ("fig7", fig7::tables),
    ("fig8", fig8::tables),
    ("fig9", fig9::tables),
    ("table3", table3::tables),
    ("fig12", fig12::tables),
    ("ablate_free", ablate_free::tables),
    ("ablate_join", ablate_join::tables),
    ("ablate_uniaddr", ablate_uniaddr::tables),
    ("ablate_topology", ablate_topology::tables),
    ("ablate_stealhalf", ablate_stealhalf::tables),
    ("ablate_faults", ablate_faults::tables),
    ("ablate_recovery", ablate_recovery::tables),
    ("ablate_suspicion", ablate_suspicion::tables),
    ("ablate_overlap", ablate_overlap::tables),
];

/// The run configuration every experiment starts from: `workers` under
/// `policy` on ITO-A, with segments large enough for the biggest workload.
fn config(workers: usize, policy: Policy) -> RunConfig {
    RunConfig::new(workers, policy).with_seg_bytes(64 << 20)
}

/// The quick-mode (`DCS_QUICK=1`) value or the full-mode one.
fn pick<T>(quick: T, full: T) -> T {
    if dcs_bench::quick() {
        quick
    } else {
        full
    }
}

/// Throughput in Mnodes/s.
fn mnodes(nodes: u64, t: VTime) -> f64 {
    nodes as f64 / t.as_secs_f64() / 1e6
}

/// Mean of f64 samples.
fn mean_f64(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Integer mean of one field over a chunk of seed repetitions.
fn mean_u64<T>(reps: &[T], field: impl Fn(&T) -> u64) -> u64 {
    reps.iter().map(field).sum::<u64>() / reps.len() as u64
}

/// Seed repetitions per row of a [`recpfor_sweep`].
const REPS: usize = 3;

/// RecPFor N = `n` on `p` workers over every (configuration, variant, seed
/// rep), in row order, each run checked to complete; `tune` applies the
/// variant. Returns the (configuration index, variant) of every run and its
/// report, so each row is `REPS` consecutive entries of both.
fn recpfor_sweep<V: Copy + Sync + std::fmt::Debug>(
    jobs: usize,
    (p, n): (usize, u64),
    configs: &[(&str, Policy, FreeStrategy)],
    variants: &[V],
    tune: impl Fn(RunConfig, V) -> RunConfig + Sync,
) -> (Vec<(usize, V)>, Vec<RunReport>) {
    let mut cells = Vec::new();
    for ci in 0..configs.len() {
        for &v in variants {
            cells.extend((0..REPS as u64).map(|rep| (ci, v, rep)));
        }
    }
    let reports = sweep::run_matrix(&cells, jobs, |_, &(ci, v, rep)| {
        let (name, policy, free) = configs[ci];
        let rc = config(p, policy)
            .with_free_strategy(free)
            .with_seed(0x5EED + rep);
        let r = run(
            tune(rc, v),
            pfor::recpfor_program(pfor::PforParams::paper(n)),
        );
        assert!(r.outcome.is_complete(), "{name} {v:?}: run completes");
        r
    });
    (
        cells.into_iter().map(|(ci, v, _)| (ci, v)).collect(),
        reports,
    )
}

fn elapsed_ns(r: &RunReport) -> u64 {
    r.elapsed.as_ns()
}

fn steal_lat_ns(r: &RunReport) -> u64 {
    r.stats.avg_steal_latency().as_ns()
}

fn exit_usage(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("error: {msg}\nusage: experiments NAME... | all | --list [--jobs N]");
    eprintln!("experiments: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut flags: Vec<String> = Vec::new();
    let mut list = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => list = true,
            "--jobs" | "-j" => {
                flags.push(a);
                flags.extend(args.next());
            }
            _ if a.starts_with('-') => flags.push(a),
            _ => names.push(a),
        }
    }
    let env = std::env::var("DCS_JOBS").ok();
    let jobs = sweep::jobs_from(&flags, env.as_deref()).unwrap_or_else(|e| exit_usage(&e));
    if list {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    if names.is_empty() {
        exit_usage("no experiment named");
    }
    let mut chosen: Vec<(&str, Experiment)> = Vec::new();
    for name in &names {
        match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some(&e) => chosen.push(e),
            None if name == "all" => chosen.extend(EXPERIMENTS),
            None => exit_usage(&format!("unknown experiment '{name}'")),
        }
    }
    for (i, (name, experiment)) in chosen.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        table::emit(name, &experiment(jobs));
    }
}
