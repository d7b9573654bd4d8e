//! Self-benchmark of the simulator host performance (not a paper figure).
//!
//! Measures, on a fixed workload set:
//!
//! * **actor steps/sec** — how fast the discrete-event engine grinds through
//!   scheduler steps on this host (the winner-tree event queue and the
//!   paged segments), at 1k/10k/100k workers and on three fixed workloads,
//! * **null-actor ns/step** — the engine alone, at W = 64 and 16 384,
//! * **workload kernels, ns per call** — the LCS leaf at C = 256 and 512 and
//!   the UTS child hash, outside any run: the host cost the scheduler cells
//!   below do *not* measure,
//! * **bag-of-tasks steps per node** — the three `dcs-bot` shapes of the
//!   repo benchmark's `bot_uts` workload; `steps / nodes` is an exact,
//!   host-independent count of how much idle waiting costs the host, and
//! * **runs/sec, sequential vs `--jobs N`** — the wall-clock effect of the
//!   host-parallel sweep harness, together with a check that both passes
//!   produced identical simulation results.
//!
//! Every run *appends* one record to the `trajectory` array of
//! `BENCH_simperf.json` (hand-rolled JSON, one record per line; the
//! workspace is dependency-free): pass `--label NAME` to name it. The
//! committed file holds one full-mode record per performance PR, and
//! `scripts/check_simperf.sh` gates a fresh record against the last
//! committed one. All numbers are *host* measurements — virtual-time
//! results are asserted equal across passes, never affected.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use dcs_apps::lcs::{self, LcsParams};
use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_apps::sha1::{sha1, sha1_child};
use dcs_apps::uts::{self, presets};
use dcs_bench::{quick, sweep};
use dcs_bot::{onesided, twosided};
use dcs_core::prelude::*;
use dcs_sim::{profiles, Actor, Engine, Step, WorkerId};

/// Where the trajectory lives, relative to the working directory.
const TRAJECTORY: &str = "BENCH_simperf.json";

/// The fixed workload set: name + config + program constructor by index.
const WORKLOADS: [&str; 3] = ["uts", "recpfor", "lcs"];

fn build(name: &str, seed: u64) -> (RunConfig, Program) {
    let workers = 32;
    let cfg = RunConfig::new(workers, Policy::ContGreedy)
        .with_seed(seed)
        .with_seg_bytes(64 << 20);
    let program = match name {
        "uts" => uts::program(if quick() { presets::tiny() } else { presets::small() }),
        "recpfor" => {
            let n = if quick() { 1 << 7 } else { 1 << 10 };
            recpfor_program(PforParams::paper(n))
        }
        _ => {
            let n = if quick() { 1 << 9 } else { 1 << 12 };
            lcs::program(LcsParams::random(n, 256.min(n), 7))
        }
    };
    (cfg, program)
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(!s.contains(['"', '\\']), "workload names are plain");
    s
}

/// Worker-scaling record: one (workload, W) cell of the headline sweep.
struct ScaleCell {
    workload: &'static str,
    workers: usize,
    steps: u64,
    host_ms: f64,
    steps_per_sec: f64,
    vtime_us: f64,
    peak_resident_bytes: u64,
    backing_bytes: u64,
    host_rss_mb: f64,
}

/// This process's peak resident set in MB (`VmHWM`); 0 where `/proc` is
/// not available.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Restart the `VmHWM` high-water mark at the current resident set, so the
/// next cell reports its own peak. Best effort: where the kernel refuses,
/// cells report the running maximum (they run in ascending size).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Constant-size workloads on cubish 3-D meshes at growing worker counts.
/// The point is the *engine*, not the workload: with the O(active) paths
/// (indexed event queue, lazy mailboxes/segments, sparse runtime maps) the
/// host cost per step, the simulated peak resident bytes and the host
/// bytes backing them should all stay ~O(touched state), not O(W) per step
/// / O(W·seg) resident.
fn scaling_build(name: &str, workers: usize) -> (RunConfig, Program) {
    let mut cfg = RunConfig::new(workers, Policy::ContGreedy)
        .with_seed(0x5CA1E)
        .with_topology(Topology::cubish_mesh(workers, 48))
        .with_seg_bytes(2 << 20)
        .with_strict(false);
    // Small tree over many workers: shrink the per-worker fixed rings so
    // the simulated footprint reflects live state, not default capacity.
    cfg.deque_cap = 512;
    cfg.freeq_cap = 256;
    cfg.stack_slot = 8 << 10;
    let program = match name {
        "uts" => uts::program(presets::tiny()),
        // Scaled-down RecPFor: the paper instance's ~100 ms of work would
        // make the 100k-worker cell simulate billions of idle steps; a
        // sub-millisecond makespan keeps the cell about the same weight as
        // the UTS one while still exercising the loop-nest spawn shape.
        _ => recpfor_program(PforParams {
            n: 64,
            k: 2,
            m: VTime::us(2),
        }),
    };
    (cfg, program)
}

fn scaling_sweep() -> Vec<ScaleCell> {
    let scales: &[usize] = if quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    println!("=== worker scaling: cubish_mesh(W, node = 48) ===");
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>14} {:>12} {:>14} {:>14} {:>10}",
        "workload",
        "workers",
        "steps",
        "host ms",
        "steps/s",
        "vtime",
        "peak bytes",
        "backing bytes",
        "host RSS"
    );
    let mut out = Vec::new();
    for &w in scales {
        for name in ["uts", "recpfor"] {
            let (cfg, program) = scaling_build(name, w);
            reset_peak_rss();
            let t0 = Instant::now();
            let (r, machine) = run_full(cfg, program);
            // What the host allocated behind the simulated footprint: an
            // exact count, the one `scripts/check_simperf.sh` gates at 10k.
            // The machine is dropped inside the timed span, as `run` drops it.
            let backing = machine.backing_bytes_total();
            drop(machine);
            let host = t0.elapsed();
            let host_rss_mb = peak_rss_mb();
            let host_ms = host.as_secs_f64() * 1e3;
            let sps = r.steps as f64 / host.as_secs_f64().max(1e-9);
            let peak = r.fabric.peak_resident_bytes;
            println!(
                "{:<10} {:>8} {:>12} {:>10.1} {:>14.0} {:>12} {:>14} {:>14} {:>7.1} MB",
                name,
                w,
                r.steps,
                host_ms,
                sps,
                r.elapsed.to_string(),
                peak,
                backing,
                host_rss_mb
            );
            out.push(ScaleCell {
                workload: name,
                workers: w,
                steps: r.steps,
                host_ms,
                steps_per_sec: sps,
                vtime_us: r.elapsed.as_secs_f64() * 1e6,
                peak_resident_bytes: peak,
                backing_bytes: backing,
                host_rss_mb,
            });
        }
    }
    println!();
    out
}

/// An actor that only yields (an LCG varies the durations): what the
/// engine costs per step when the world does nothing.
struct NullActor {
    left: u32,
    x: u64,
}

impl Actor<()> for NullActor {
    fn step(&mut self, _me: WorkerId, _now: VTime, _world: &mut ()) -> Step {
        if self.left == 0 {
            return Step::Halt;
        }
        self.left -= 1;
        self.x = self
            .x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        Step::Yield(VTime::ns(10 + ((self.x >> 33) & 1023)))
    }
}

/// Median host ns per engine step over five null-actor runs of ~2 M steps.
fn null_step_ns(workers: usize) -> f64 {
    let per_actor = (2_000_000 / workers) as u32;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let actors = (0..workers)
                .map(|w| NullActor {
                    left: per_actor,
                    x: w as u64,
                })
                .collect();
            let mut engine = Engine::new((), actors);
            let t0 = Instant::now();
            let r = engine.run();
            t0.elapsed().as_nanos() as f64 / r.steps as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Host ns per call of `op`: the best of five rounds of `iters` calls.
fn best_ns(iters: u32, mut op: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One `c × c` LCS leaf on random bytes (the paper's input) from zero edges.
fn lcs_leaf_ns(c: usize) -> f64 {
    let p = LcsParams::random(c as u64, c as u64, 1);
    let edge = vec![0u32; c + 1];
    best_ns(500, || {
        black_box(lcs::leaf_kernel(
            black_box(&p.a),
            black_box(&p.b),
            0,
            0,
            c,
            &edge,
            &edge,
        ));
    })
}

/// One UTS child derivation, chained so that calls cannot overlap.
fn sha1_child_ns() -> f64 {
    let mut d = sha1(b"root");
    let ns = best_ns(200_000, || d = sha1_child(black_box(&d), 7));
    black_box(d);
    ns
}

/// One bag-of-tasks cell: a `dcs-bot` runtime on a UTS tree.
struct BotCell {
    runtime: &'static str,
    workers: usize,
    nodes: u64,
    steps: u64,
    host_ms: f64,
}

/// The three shapes of the repo benchmark's `bot_uts` workload, the same in
/// quick and full mode: `scripts/check_simperf.sh` gates their exact
/// `steps / nodes` against the previous record's.
fn bot_cells() -> Vec<BotCell> {
    const SEED: u64 = 0x5EED;
    println!("=== bag-of-tasks comparators (dcs-bot, UTS) ===");
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "runtime", "workers", "nodes", "steps", "steps/node", "host ms"
    );
    let out = [("onesided", 256), ("lifeline", 32), ("random", 16)]
        .into_iter()
        .map(|(runtime, workers)| {
            let itoa = profiles::itoa();
            let two_sided = |variant| {
                twosided::run_uts(&presets::small(), workers, itoa.clone(), variant, SEED)
            };
            let t0 = Instant::now();
            let r = match runtime {
                "onesided" => onesided::run_uts(&presets::medium(), workers, itoa.clone(), SEED),
                "lifeline" => two_sided(twosided::Variant::Lifeline),
                _ => two_sided(twosided::Variant::Random),
            };
            let host_ms = t0.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:<10} {:>8} {:>10} {:>12} {:>12.2} {:>10.1}",
                runtime,
                workers,
                r.nodes,
                r.steps,
                r.steps as f64 / r.nodes as f64,
                host_ms
            );
            BotCell {
                runtime,
                workers,
                nodes: r.nodes,
                steps: r.steps,
                host_ms,
            }
        })
        .collect();
    println!();
    out
}

/// Split `--label NAME` off the arguments; the rest go to the `--jobs`
/// parser every bench bin shares.
fn label_and_jobs() -> Result<(String, usize), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = "unlabelled".to_string();
    if let Some(i) = args.iter().position(|a| a == "--label") {
        if i + 1 >= args.len() {
            return Err("--label needs a value".to_string());
        }
        label = args.remove(i + 1);
        args.remove(i);
        if label.contains(['"', '\\', '\n']) {
            return Err("--label must be free of quotes, backslashes and newlines".to_string());
        }
    }
    let env = std::env::var("DCS_JOBS").ok();
    Ok((label, sweep::jobs_from(&args, env.as_deref())?))
}

/// Append `record` (one line of JSON) to the trajectory file, creating the
/// file — or replacing one that is not a trajectory — when need be.
fn append_record(record: &str) {
    const TAIL: &str = "\n  ]\n}\n";
    let old = std::fs::read_to_string(TRAJECTORY).unwrap_or_default();
    let doc = match old.strip_suffix(TAIL) {
        Some(head) if head.starts_with("{\n  \"trajectory\": [\n") => {
            format!("{head},\n    {record}{TAIL}")
        }
        _ => format!("{{\n  \"trajectory\": [\n    {record}{TAIL}"),
    };
    std::fs::write(TRAJECTORY, doc).expect("write BENCH_simperf.json");
}

fn main() {
    let (label, jobs) = label_and_jobs().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let host_cores = sweep::available_jobs();
    let reps = if quick() { 2 } else { 4 };

    println!("=== selfbench: simulator host throughput ===");
    println!("host cores: {host_cores}; sweep pass uses --jobs {jobs}\n");

    // Phase 0 (headline): worker-scaling sweep on cubish meshes.
    let scaling = scaling_sweep();

    // Phase 0b: the engine alone.
    let null_ns = [64, 16_384].map(null_step_ns);
    println!(
        "null-actor engine step: {:.1} ns at W = 64, {:.1} ns at W = 16384\n",
        null_ns[0], null_ns[1]
    );

    // Phase 0c: the workload kernels, the same in quick and full mode:
    // `scripts/check_simperf.sh` gates the C = 256 leaf.
    let kernel_ns = [lcs_leaf_ns(256), lcs_leaf_ns(512), sha1_child_ns()];
    println!(
        "kernels: LCS leaf {:.1} ns at C = 256, {:.1} ns at C = 512; SHA-1 child {:.1} ns\n",
        kernel_ns[0], kernel_ns[1], kernel_ns[2]
    );

    // Phase 0d: the bag-of-tasks comparators.
    let bots = bot_cells();

    // Phase 1: single-run engine throughput (actor steps per host second).
    println!(
        "{:<10} {:>12} {:>10} {:>14} {:>12}",
        "workload", "steps", "host ms", "steps/s", "vtime"
    );
    let mut singles = Vec::new();
    for name in WORKLOADS {
        let (cfg, program) = build(name, 0x5EED);
        let t0 = Instant::now();
        let r = run(cfg, program);
        let host = t0.elapsed();
        let host_ms = host.as_secs_f64() * 1e3;
        let sps = r.steps as f64 / host.as_secs_f64().max(1e-9);
        println!(
            "{:<10} {:>12} {:>10.1} {:>14.0} {:>12}",
            name,
            r.steps,
            host_ms,
            sps,
            r.elapsed.to_string()
        );
        singles.push((name, r.steps, host_ms, sps));
    }

    // Phase 2: the sweep harness, sequential vs parallel, same cell matrix.
    // Each pass returns the virtual results so we can assert the fan-out
    // changed nothing.
    let mut cells: Vec<(usize, u64)> = Vec::new();
    for (wi, _) in WORKLOADS.iter().enumerate() {
        for rep in 0..reps {
            cells.push((wi, 0x5EED + rep as u64));
        }
    }
    let pass = |jobs: usize| {
        let t0 = Instant::now();
        let results: Vec<(VTime, u64)> = sweep::run_matrix(&cells, jobs, |_, &(wi, seed)| {
            let (cfg, program) = build(WORKLOADS[wi], seed);
            let r = run(cfg, program);
            (r.elapsed, r.steps)
        });
        (t0.elapsed().as_secs_f64(), results)
    };
    let (seq_s, seq_results) = pass(1);
    let (par_s, par_results) = pass(jobs);
    let identical = seq_results == par_results;
    assert!(
        identical,
        "parallel sweep changed simulation results — determinism bug"
    );
    let runs = cells.len();
    let speedup = seq_s / par_s.max(1e-9);
    println!("\nsweep pass: {runs} runs");
    println!(
        "  sequential (--jobs 1): {:>8.2} s  ({:.2} runs/s)",
        seq_s,
        runs as f64 / seq_s.max(1e-9)
    );
    println!(
        "  parallel   (--jobs {jobs}): {:>8.2} s  ({:.2} runs/s)",
        par_s,
        runs as f64 / par_s.max(1e-9)
    );
    println!("  speedup: {speedup:.2}x; virtual results identical: {identical}");
    if jobs == 1 {
        println!("  (both passes sequential — pass --jobs N or set DCS_JOBS to fan out)");
    }

    // Hand-rolled JSON record, one line.
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"label\": \"{label}\", \"quick\": {}, \"host_cores\": {host_cores}, \"jobs\": {jobs}, \
         \"null_step_ns\": {{\"w64\": {:.1}, \"w16384\": {:.1}}}, \
         \"kernels\": {{\"lcs_leaf_256_ns\": {:.1}, \"lcs_leaf_512_ns\": {:.1}, \
         \"sha1_child_ns\": {:.1}}}, \"worker_scaling\": [",
        quick(),
        null_ns[0],
        null_ns[1],
        kernel_ns[0],
        kernel_ns[1],
        kernel_ns[2]
    );
    for (i, c) in scaling.iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"workload\": \"{}\", \"workers\": {}, \"steps\": {}, \"host_ms\": {:.3}, \
             \"steps_per_sec\": {:.0}, \"vtime_us\": {:.3}, \"peak_resident_bytes\": {}, \
             \"backing_bytes\": {}, \"host_rss_mb\": {:.1}}}",
            if i > 0 { ", " } else { "" },
            json_escape_free(c.workload),
            c.workers,
            c.steps,
            c.host_ms,
            c.steps_per_sec,
            c.vtime_us,
            c.peak_resident_bytes,
            c.backing_bytes,
            c.host_rss_mb
        );
    }
    j.push_str("], \"bot\": [");
    for (i, c) in bots.iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"bot\": \"{}\", \"workers\": {}, \"nodes\": {}, \"steps\": {}, \"host_ms\": {:.3}}}",
            if i > 0 { ", " } else { "" },
            json_escape_free(c.runtime),
            c.workers,
            c.nodes,
            c.steps,
            c.host_ms
        );
    }
    j.push_str("], \"single_runs\": [");
    for (i, (name, steps, host_ms, sps)) in singles.iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"workload\": \"{}\", \"steps\": {}, \"host_ms\": {:.3}, \"steps_per_sec\": {:.0}}}",
            if i > 0 { ", " } else { "" },
            json_escape_free(name),
            steps,
            host_ms,
            sps
        );
    }
    let _ = write!(
        j,
        "], \"sweep\": {{\"runs\": {runs}, \"seq_s\": {seq_s:.3}, \"par_s\": {par_s:.3}, \
         \"speedup\": {speedup:.3}, \"identical_output\": {identical}}}}}"
    );
    append_record(&j);
    println!("\nrecord \"{label}\" appended to {TRAJECTORY}");
}
