//! One workload, one process: the unit the driver (and `suite`) invokes.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! alternates untraced and `TraceLevel::Series` passes, runs the ladder and
//! the cost model, and reports the per-layer metrics. Tracing-on numbers
//! never feed an end-to-end metric. Either way the last stdout line is one
//! JSON object `{correct, attempted, failed, metrics}`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::ladder::{self, Rung};
use crate::metrics::{self, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{sig, Series, Summary};
use crate::workloads::{
    fold_digests, prepare, references, run_cell, verify, CellOut, Counters, Job, Prepared,
    Reference, WORKLOADS,
};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where to write the detailed report (`suite` collects these).
    pub out: Option<PathBuf>,
}

/// One reported metric: the value plus what the human-readable table and
/// the detailed report print beside it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Sample count behind the value.
    n: u64,
    /// Rep distribution, for host metrics measured more than once.
    summary: Option<Summary>,
    /// The individual reps, when there are few enough to list.
    samples: Vec<f64>,
}

impl Reported {
    /// A metric with a single value behind it (no rep distribution).
    fn plain(name: &'static str, unit: &'static str, value: f64, n: u64) -> Reported {
        Reported {
            name,
            unit,
            value,
            n,
            summary: None,
            samples: Vec::new(),
        }
    }

    /// The self-report's verdict: the rep IQR/median exceeds half the
    /// metric's bound. `None` for metrics without reps or without a bound.
    fn unstable(&self) -> Option<bool> {
        let bound = metrics::end_to_end(self.name)?.bound;
        let s = self.summary.as_ref().filter(|s| s.n > 1)?;
        Some(s.spread() > bound / 2.0)
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Outcome of one pass over the cell list.
struct Pass {
    wall_s: f64,
    /// Wall time of each cell, in cell-list order.
    cell_s: Vec<f64>,
    outs: Vec<CellOut>,
    /// Verification failures (messages), including panics.
    errors: Vec<String>,
}

impl Pass {
    fn counters(&self) -> Counters {
        let mut total = Counters::default();
        for o in &self.outs {
            total.add(&o.counters);
        }
        total
    }
}

/// Run every cell once, timing the whole pass; a panicking cell is a failed
/// run, not a crashed benchmark.
fn run_pass(rec: &mut Recorder, p: &Prepared, refs: &[Reference], traced: bool, tag: &str) -> Pass {
    let mut outs = Vec::with_capacity(p.cells.len());
    let mut cell_s = Vec::with_capacity(p.cells.len());
    let mut errors = Vec::new();
    let (_, wall_s) = rec.span(&format!("pass[{tag}]"), |rec| {
        for cell in &p.cells {
            let (out, s) = rec.span(&format!("run[{}]", cell.label), |_| {
                catch_unwind(AssertUnwindSafe(|| run_cell(cell, traced)))
            });
            cell_s.push(s);
            match out {
                Ok(out) => outs.push(out),
                Err(_) => errors.push(format!("{}: panicked", cell.label)),
            }
        }
    });
    if errors.is_empty() {
        let (bad, _) = rec.span("verify", |_| verify(p, refs, &outs));
        errors.extend(bad);
    }
    Pass {
        wall_s,
        cell_s,
        outs,
        errors,
    }
}

/// `setup_s` samples: input generation + one null-program run, repeated
/// until there are enough samples over enough time *and* the spread is
/// small (or the sampling budget runs out).
fn setup_samples(args: &RunArgs) -> Vec<f64> {
    let bound = metrics::end_to_end("setup_s")
        .expect("registered metric")
        .bound;
    let (min_n, min_s, max_s) = if args.quick {
        (5, 0.05, 0.3)
    } else {
        (30, 0.5, 2.0)
    };
    let mut samples = Vec::new();
    let t0 = Instant::now();
    // Sorting tens of thousands of 15 us samples after every new one would
    // cost more than the sampling: look at the spread ten times a second.
    let mut next_check = min_s;
    loop {
        let s0 = Instant::now();
        let p = prepare(&args.workload, args.seed, args.quick).expect("workload checked by caller");
        let out = run_cell(&p.null, false);
        assert!(out.complete, "null program did not complete");
        drop((p, out)); // teardown belongs to set-up time
        samples.push(s0.elapsed().as_secs_f64());
        let elapsed = t0.elapsed().as_secs_f64();
        if samples.len() < min_n || elapsed < next_check {
            continue;
        }
        next_check = elapsed + 0.1;
        if elapsed >= max_s || Summary::of(&samples).spread() <= bound / 2.0 {
            return samples;
        }
    }
}

fn print_reported(r: &Reported) {
    print!("  {:<44} {:>16.6} {:<6} n={}", r.name, r.value, r.unit, r.n);
    if let (Some(s), Some(unstable)) = (&r.summary, r.unstable()) {
        print!(
            "  min/med/max {}/{}/{}  IQR/med {:.2}%{}",
            sig(s.min),
            sig(s.median),
            sig(s.max),
            100.0 * s.spread(),
            if unstable { "  UNSTABLE" } else { "" }
        );
    }
    println!();
    if !r.samples.is_empty() {
        let reps: Vec<String> = r.samples.iter().map(|v| format!("{v:.4}")).collect();
        println!("    reps: {}", reps.join(" "));
    }
}

fn reported_json(rs: &[Reported]) -> Json {
    let mut o = Json::obj();
    for r in rs {
        let mut m = Json::obj();
        m.set("value", r.value).set("unit", r.unit).set("n", r.n);
        if let Some(def) = metrics::per_layer(r.name) {
            let moves: Vec<String> = def.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect();
            m.set("exact", def.exact)
                .set("moves", moves)
                .set("flat_on", def.flat.to_vec());
        }
        if let Some(def) = metrics::end_to_end(r.name) {
            m.set("bound", def.bound).set("what", def.what);
        }
        if let Some(s) = &r.summary {
            m.set("reps", s.to_json());
            if !r.samples.is_empty() {
                m.set("samples", r.samples.clone());
            }
            if let Some(unstable) = r.unstable() {
                m.set("unstable", unstable);
            }
        }
        o.set(r.name, m);
    }
    o
}

/// The contract's result line.
fn contract_line(correct: bool, attempted: u64, failed: u64, rs: &[Reported]) -> String {
    let mut metrics = Json::obj();
    for r in rs {
        let mut m = Json::obj();
        m.set("value", r.value).set("unit", r.unit);
        metrics.set(r.name, m);
    }
    let mut o = Json::obj();
    o.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    o.compact()
}

fn end_to_end(args: &RunArgs, rec: &mut Recorder) -> (Vec<Reported>, Vec<Pass>) {
    let (p, gen_s) = rec.span("gen_input", |_| {
        prepare(&args.workload, args.seed, args.quick).expect("workload checked by caller")
    });
    let (refs, _) = rec.span("verify.references", |_| references(&p));
    let (setup, _) = rec.span("setup_probe", |_| setup_samples(args));

    // Timed reps: as many as fit in `--seconds`, never fewer than the floor.
    let min_reps = if args.quick { 2 } else { 3 };
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    loop {
        let tag = format!("rep{}", passes.len());
        passes.push(run_pass(rec, &p, &refs, false, &tag));
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        let next_ends = t0.elapsed().as_secs_f64() + Summary::of(&walls).median;
        if passes.len() >= min_reps && next_ends > args.seconds {
            break;
        }
    }
    // A host-only effect (allocator state, rep order) must not reach the
    // simulation: every rep's virtual digest equals the first one's.
    let first = fold_digests(&passes[0].outs);
    for (i, pass) in passes.iter_mut().enumerate().skip(1) {
        if pass.errors.is_empty() && fold_digests(&pass.outs) != first {
            pass.errors
                .push(format!("rep{i}: vdigest differs from rep0"));
        }
    }

    // host_s is the sum over cells of each cell's lower-quartile wall time
    // across the reps. Interference from the host's other tenants only
    // ever *adds* time, in bursts that last from a fraction of a rep to
    // minutes; on the reference host the median rep moved 20-40 % between
    // back-to-back runs of identical code while the low end of the rep
    // distribution stayed put (README.md, "Calibration"). The lower quartile
    // is that low end without trusting the single luckiest rep, and taking
    // it per cell keeps one burst from spoiling a whole multi-cell rep.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let host = Summary::of(&walls);
    let complete: Vec<&Pass> = passes
        .iter()
        .filter(|pass| pass.cell_s.len() == p.cells.len() && pass.errors.is_empty())
        .collect();
    let host_s = if complete.is_empty() {
        host.q1
    } else {
        (0..p.cells.len())
            .map(|i| {
                let cell: Vec<f64> = complete.iter().map(|pass| pass.cell_s[i]).collect();
                Summary::of(&cell).q1
            })
            .sum()
    };
    let setup_sum = Summary::of(&setup);
    let outs = &passes[0].outs;
    let makespan_us = if outs.is_empty() {
        0.0
    } else {
        outs.iter().map(|o| o.makespan_ns as f64).sum::<f64>() / outs.len() as f64 / 1e3
    };
    println!(
        "  (gen_input {gen_s:.6} s; {} cells per pass)",
        p.cells.len()
    );
    let reported = vec![
        Reported {
            name: "host_s",
            unit: "s",
            value: host_s,
            n: host.n as u64,
            summary: Some(host),
            samples: walls.clone(),
        },
        Reported {
            name: "setup_s",
            unit: "s",
            value: setup_sum.q1,
            n: setup_sum.n as u64,
            summary: Some(setup_sum),
            samples: Vec::new(),
        },
        Reported::plain("peak_rss_mb", "MB", peak_rss_mb(), 1),
        Reported::plain("makespan_us", "us", makespan_us, outs.len() as u64),
    ];
    (reported, passes)
}

fn rows(named: Vec<(&'static str, f64, u64)>) -> Vec<Rung> {
    named
        .into_iter()
        .map(|(name, value, n)| Rung::new(name, value, n))
        .collect()
}

/// Count-and-ratio metrics of one pass, from its exact counters.
fn layer_counts(c: &Counters, host_ns: f64, rss_bytes: f64, workers: usize) -> Vec<Rung> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let attempts = c.steals_ok + c.steals_failed + c.steals_abandoned;
    rows(vec![
        ("sim.engine.steps", c.steps as f64, 1),
        (
            "sim.engine.host_ns_per_step",
            host_ns / c.steps.max(1) as f64,
            c.steps,
        ),
        (
            "sim.mem.peak_resident_bytes",
            c.peak_resident_bytes as f64,
            1,
        ),
        (
            "sim.mem.host_bytes_per_worker",
            rss_bytes / workers as f64,
            workers as u64,
        ),
        ("sim.machine.remote_ops", c.remote_ops as f64, 1),
        ("sim.machine.remote_amos", c.remote_amos as f64, 1),
        ("sim.machine.bytes_moved", c.bytes_moved as f64, 1),
        ("sim.machine.local_ops", c.local_ops as f64, 1),
        ("sim.machine.max_inflight", c.max_inflight as f64, 1),
        ("sim.machine.retries", c.retries as f64, 1),
        ("sim.machine.fenced_verbs", c.fenced_verbs as f64, 1),
        ("sim.mailbox.messages", c.messages as f64, 1),
        ("sim.fault.workers_lost", c.workers_lost as f64, 1),
        ("sim.fault.false_suspects", c.false_suspects as f64, 1),
        ("uniaddr.peak_bytes", c.uni_peak as f64, 1),
        ("uniaddr.conflicts", c.uni_conflicts as f64, 1),
        ("core.sched.threads", c.threads as f64, 1),
        ("core.sched.steals_ok", c.steals_ok as f64, 1),
        ("core.sched.steals_failed", c.steals_failed as f64, 1),
        ("core.sched.steals_abandoned", c.steals_abandoned as f64, 1),
        (
            "core.sched.steal_success_ratio",
            ratio(c.steals_ok, attempts),
            attempts,
        ),
        (
            "core.sched.steal_latency_ns.mean",
            ratio(c.steal_latency_sum_ns, c.steals_ok),
            c.steals_ok,
        ),
        (
            "core.sched.copy_time_ns",
            ratio(c.copy_time_sum_ns, c.steals_ok),
            c.steals_ok,
        ),
        (
            "core.sched.stolen_bytes_avg",
            ratio(c.stolen_bytes_sum, c.steals_ok),
            c.steals_ok,
        ),
        ("core.sched.joins_fast", c.joins_fast as f64, 1),
        (
            "core.sched.joins_outstanding",
            c.joins_outstanding as f64,
            1,
        ),
        (
            "core.sched.join_wait_ns.mean",
            ratio(c.join_wait_sum_ns, c.joins_outstanding),
            c.joins_outstanding,
        ),
        ("core.sched.die_fast", c.die_fast as f64, 1),
        ("core.sched.die_won", c.die_won as f64, 1),
        ("core.sched.die_lost", c.die_lost as f64, 1),
        ("core.sched.busy_frac", ratio(c.busy_ns, c.capacity_ns), 1),
        ("core.sched.efficiency", ratio(c.t1_ns, c.capacity_ns), 1),
        (
            "core.sched.host_ns_per_task",
            host_ns / c.threads.max(1) as f64,
            c.threads,
        ),
        ("core.recovery.tasks_lost", c.tasks_lost as f64, 1),
        ("core.recovery.tasks_replayed", c.tasks_replayed as f64, 1),
        ("core.recovery.ckpt_puts", c.ckpt_puts as f64, 1),
        ("core.recovery.rejoins", c.rejoins as f64, 1),
        ("bot.steals_ok", c.bot_steals_ok as f64, 1),
        ("bot.steals_failed", c.bot_steals_failed as f64, 1),
        ("bot.token_rounds", c.bot_token_rounds as f64, 1),
        ("bot.steps", c.bot_steps as f64, 1),
        (
            "bot.host_ns_per_step",
            if c.bot_steps == 0 {
                0.0
            } else {
                host_ns / c.bot_steps as f64
            },
            c.bot_steps,
        ),
    ])
}

/// The cost model: `share(layer) = exact count x ladder unit cost / host
/// time` for engine, machine, deque and apps. Whatever is unattributed is
/// reported as the residual — never hidden — so the five shares sum to 1.
/// A layer's unit cost excludes what the layers below it are charged for
/// (a steal's verbs belong to `sim.machine`, not `core.deque`).
fn cost_model(c: &Counters, host_ns: f64, workers: usize, rung: &dyn Fn(&str) -> f64) -> Vec<Rung> {
    let step_ns = rung(if workers >= 4096 {
        "sim.engine.null_step_ns.w16384"
    } else {
        "sim.engine.null_step_ns.w64"
    });
    let verb_ns = rung("sim.machine.verb_blocking_ns");
    // The default protocol's unit costs; `lattice_matrix` mixes all three,
    // for which this is an approximation (their push/pop costs are close).
    let steal_self_ns = (rung("core.deque.steal_ns.cas-lock")
        - rung("core.deque.steal_verbs.cas-lock") * verb_ns)
        .max(0.0);
    let engine = c.steps as f64 * step_ns;
    let machine = c.remote_ops as f64 * verb_ns;
    let deque = c.threads as f64 * rung("core.deque.push_pop_ns.cas-lock")
        + c.steals_ok as f64 * steal_self_ns;
    let apps = c.uts_nodes as f64 * rung("apps.uts_serial_ns_per_node")
        + c.lcs_leaves as f64 * rung("apps.lcs_leaf_ns");
    let share = |ns: f64| ns / host_ns;
    let residual = 1.0 - share(engine) - share(machine) - share(deque) - share(apps);
    rows(vec![
        ("sim.engine.share", share(engine), c.steps),
        ("sim.machine.share", share(machine), c.remote_ops),
        ("core.deque.share", share(deque), c.threads),
        ("apps.kernel_share", share(apps), c.uts_nodes + c.lcs_leaves),
        ("core.sched.residual_share", residual, 1),
    ])
}

fn per_layer(args: &RunArgs, rec: &mut Recorder) -> (Vec<Reported>, Vec<Pass>) {
    let (p, _) = rec.span("gen_input", |_| {
        prepare(&args.workload, args.seed, args.quick).expect("workload checked by caller")
    });
    let (mut refs, _) = rec.span("verify.references", |_| references(&p));
    // Untraced and traced passes alternate, two of each, and each side is
    // represented by its faster pass: a single pair is at the mercy of
    // whatever the host's other tenants do during one of the two (a lone
    // traced pass once read 58 % "overhead" on a run whose repeat read -6 %).
    // The first pass also pays the process's page faults and allocator
    // growth, which the second untraced pass does not.
    let first = run_pass(rec, &p, &refs, false, "untraced0");
    // Before any traced pass, whose event series would inflate it.
    let rss_bytes = peak_rss_mb() * 1024.0 * 1024.0;
    // The BoT runtimes have no series level: nothing to trace there.
    let has_series = p.cells.iter().any(|c| matches!(c.job, Job::Core { .. }));
    let mut traced_passes = Vec::new();
    if has_series {
        traced_passes.push(run_pass(rec, &p, &refs, true, "traced0"));
    }
    let second = run_pass(rec, &p, &refs, false, "untraced1");
    if has_series {
        traced_passes.push(run_pass(rec, &p, &refs, true, "traced1"));
    }
    let untraced_s = first.wall_s.min(second.wall_s);
    let traced_s = traced_passes.iter().map(|t| t.wall_s).reduce(f64::min);
    let (rungs, _) = rec.span("ladder", |rec| ladder::run(rec, args.seed, args.quick));

    let mut c = second.counters();
    // T1 comes from the references, not the run.
    c.t1_ns = refs.drain(..).map(|r| r.t1_ns).sum();
    let host_ns = untraced_s * 1e9;
    let rung_value = |name: &str| {
        rungs
            .iter()
            .find(|r: &&Rung| r.name == name)
            .unwrap_or_else(|| panic!("ladder rung {name} missing"))
            .value
    };

    let shares = cost_model(&c, host_ns, p.workers, &rung_value);
    let mut values = rungs;
    values.extend(layer_counts(&c, host_ns, rss_bytes, p.workers));
    values.extend(shares);

    // Series rows: percentiles over every traced cell's events.
    let mut steal = Vec::new();
    let mut join = Vec::new();
    let (mut delay_ns, mut idle_ns, mut traced_cells) = (0u64, 0u64, 0u64);
    if let Some(t) = traced_passes.first() {
        for s in t.outs.iter().filter_map(|o| o.series.as_ref()) {
            steal.extend_from_slice(&s.steal_latency_ns);
            join.extend_from_slice(&s.join_wait_ns);
            delay_ns += s.scheduler_delay_ns;
            idle_ns += s.idle_ns;
            traced_cells += 1;
        }
    }
    let (steal, join) = (Series::new(steal), Series::new(join));
    // A percentile with too few samples behind it is reported as 0 with
    // its (small) n, rather than as a number nobody should trust.
    let pct = |v: Option<u64>| v.map_or(0.0, |v| v as f64);
    values.push(Rung::new(
        "core.sched.steal_latency_ns.p50",
        pct(steal.p50()),
        steal.n() as u64,
    ));
    values.push(Rung::new(
        "core.sched.steal_latency_ns.p99",
        pct(steal.p99()),
        steal.n() as u64,
    ));
    values.push(Rung::new(
        "core.sched.join_wait_ns.p50",
        pct(join.p50()),
        join.n() as u64,
    ));
    values.push(Rung::new(
        "core.sched.join_wait_ns.p99",
        pct(join.p99()),
        join.n() as u64,
    ));
    values.push(Rung::new(
        "core.sched.scheduler_delay_frac",
        if idle_ns == 0 {
            0.0
        } else {
            delay_ns as f64 / idle_ns as f64
        },
        traced_cells,
    ));
    values.push(Rung::new(
        "trace.overhead_share",
        traced_s.map_or(0.0, |t| (t - untraced_s) / untraced_s),
        traced_passes.len() as u64,
    ));

    // Emit in registry order; a metric the code forgot is a harness bug.
    let reported = PER_LAYER
        .iter()
        .map(|def| {
            let found = values
                .iter()
                .find(|r| r.name == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not computed", def.name));
            Reported::plain(def.name, def.unit, found.value, found.n)
        })
        .collect();
    let mut passes = vec![second, first];
    passes.extend(traced_passes);
    (reported, passes)
}

/// Run one workload and print its result; returns the process exit code.
pub fn run(args: &RunArgs) -> i32 {
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        eprintln!("error: unknown workload `{}`", args.workload);
        return 2;
    }
    println!(
        "== {} seed={:#x} seconds={} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );
    let mut rec = Recorder::new(&args.workload);
    let (reported, passes) = if args.trace {
        per_layer(args, &mut rec)
    } else {
        end_to_end(args, &mut rec)
    };
    for r in &reported {
        print_reported(r);
    }

    // A run is one cell of one pass; it fails if it panics, does not
    // complete, mismatches its reference, breaks T1/P <= T_P, or (as a
    // whole pass) repeats with a different vdigest.
    let per_pass = passes.first().map_or(0, |p| p.outs.len().max(1)) as u64;
    let attempted = (per_pass * passes.len() as u64).max(1);
    let failed: u64 = passes
        .iter()
        .map(|p| (p.errors.len() as u64).min(per_pass))
        .sum();
    for e in passes.iter().flat_map(|p| &p.errors) {
        eprintln!("FAILED {e}");
    }
    let vdigest = format!("{:016x}", fold_digests(&passes[0].outs));
    println!("  runs_failed/runs_attempted {failed}/{attempted}   vdigest {vdigest}");

    if let Some(path) = &args.out {
        let mut o = Json::obj();
        o.set("workload", args.workload.as_str())
            .set("seed", format!("{:#x}", args.seed))
            .set("trace", args.trace)
            .set("quick", args.quick)
            .set("runs_attempted", attempted)
            .set("runs_failed", failed)
            .set("vdigest", vdigest)
            .set("metrics", reported_json(&reported));
        let cells: Vec<Json> = passes[0]
            .outs
            .iter()
            .map(|c| {
                let mut cell = Json::obj();
                cell.set("label", c.label.as_str())
                    .set("makespan_us", c.makespan_ns as f64 / 1e3)
                    .set("vdigest", format!("{:016x}", c.vdigest));
                cell
            })
            .collect();
        o.set("cells", Json::Arr(cells))
            .set("trace_spans", rec.to_json());
        if let Err(e) = std::fs::write(path, o.pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 2;
        }
    }

    println!(
        "{}",
        contract_line(failed == 0, attempted, failed, &reported)
    );
    if failed == 0 {
        0
    } else {
        1
    }
}
