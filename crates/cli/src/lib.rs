//! Argument parsing and run orchestration for the `dcs` command-line tool.
//!
//! Hand-rolled flag parsing (the workspace's dependency policy keeps the
//! simulator core dependency-free); the grammar is small and fully covered
//! by unit tests.
//!
//! ```text
//! dcs run --bench uts --policy cont-greedy --workers 64 --machine itoa
//! dcs sweep --bench recpfor --n 1024 --workers 1,2,4,8,16
//! dcs info
//! ```

use std::fmt::Write as _;

use dcs_apps::{lcs, pfor, uts};
use dcs_core::prelude::*;
use dcs_sim::{FaultPlan, Topology};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Sweep(SweepArgs),
    Check(CheckArgs),
    Info,
    Help,
}

/// How `dcs check` explores schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Exhaustive for small worker counts, PCT sampling otherwise.
    Auto,
    Exhaustive,
    /// Randomized PCT sampling with this many seeds.
    Pct(u64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Scenario name, or "all" for the whole catalog.
    pub scenario: String,
    pub workers: usize,
    pub mode: CheckMode,
    /// Delay bound for exhaustive exploration.
    pub delays: usize,
    /// Max schedules per scenario in exhaustive mode.
    pub budget: u64,
    pub seed: u64,
    /// Replay a serialized failing schedule instead of exploring.
    pub schedule: Option<String>,
    /// Directory minimized failing schedules are written to.
    pub out: Option<String>,
}

impl CheckArgs {
    fn defaults() -> CheckArgs {
        CheckArgs {
            scenario: "all".to_string(),
            workers: 2,
            mode: CheckMode::Auto,
            delays: 2,
            budget: 50_000,
            seed: 1,
            schedule: None,
            out: None,
        }
    }
}

/// Which benchmark program to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    Fib,
    Pfor,
    Recpfor,
    Uts,
    Lcs,
    BotUts,
}

impl Bench {
    /// Every bench, in the order `--bench`'s help and `dcs info` list them.
    const ALL: [Bench; 6] = [
        Bench::Fib,
        Bench::Pfor,
        Bench::Recpfor,
        Bench::Uts,
        Bench::Lcs,
        Bench::BotUts,
    ];

    /// The `--bench` spelling.
    fn label(self) -> &'static str {
        match self {
            Bench::Fib => "fib",
            Bench::Pfor => "pfor",
            Bench::Recpfor => "recpfor",
            Bench::Uts => "uts",
            Bench::Lcs => "lcs",
            Bench::BotUts => "bot-uts",
        }
    }

    fn labels(sep: &str) -> String {
        Bench::ALL.map(Bench::label).join(sep)
    }

    fn parse(s: &str) -> Result<Bench, String> {
        Bench::ALL
            .into_iter()
            .find(|b| b.label() == s)
            .ok_or_else(|| format!("unknown bench '{s}' ({})", Bench::labels("|")))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub bench: Bench,
    pub policy: Policy,
    pub workers: usize,
    pub machine: MachineProfile,
    pub n: u64,
    pub seed: u64,
    pub free: FreeStrategy,
    pub scheme: AddressScheme,
    pub victim: VictimPolicy,
    pub node_size: Option<usize>,
    /// Write a Chrome trace of the run to this path.
    pub trace_out: Option<String>,
    /// Deterministic fault-injection plan (see `FaultPlan::parse`).
    pub fault: FaultPlan,
    /// One-sided verb issue model (blocking, or posted with overlap).
    pub fabric: FabricMode,
    /// Steal-protocol family (CAS-lock, lock-free, or fence-free).
    pub protocol: Protocol,
    /// Steal attempts kept in flight at once while idle (`--multi-steal`).
    pub multi_steal: u32,
    /// Injection-cost fraction charged to doorbell-chained verbs
    /// (`--doorbell`); 1.0 disables the discount.
    pub doorbell: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    pub base: RunArgs,
    pub worker_list: Vec<usize>,
    /// Host threads the sweep points fan out across (`--jobs`); the output
    /// is identical for any value — see `dcs_bench::sweep`.
    pub jobs: usize,
}

fn parse_policy(s: &str) -> Result<Policy, String> {
    Ok(match s {
        "cont-greedy" | "greedy" => Policy::ContGreedy,
        "cont-stalling" | "stalling" => Policy::ContStalling,
        "child-full" => Policy::ChildFull,
        "child-rtc" => Policy::ChildRtc,
        other => {
            return Err(format!(
                "unknown policy '{other}' (cont-greedy|cont-stalling|child-full|child-rtc)"
            ))
        }
    })
}

fn parse_victim(s: &str) -> Result<VictimPolicy, String> {
    if s == "uniform" {
        return Ok(VictimPolicy::Uniform);
    }
    if let Some(p) = s.strip_prefix("locality:") {
        let p: f64 = p.parse().map_err(|_| format!("bad locality prob '{s}'"))?;
        return Ok(VictimPolicy::Locality { p_local: p });
    }
    if let Some(k) = s.strip_prefix("hier:") {
        let k: u32 = k.parse().map_err(|_| format!("bad hier tries '{s}'"))?;
        return Ok(VictimPolicy::Hierarchical { local_tries: k });
    }
    Err(format!(
        "unknown victim policy '{s}' (uniform|locality:<p>|hier:<tries>)"
    ))
}

impl RunArgs {
    fn defaults() -> RunArgs {
        RunArgs {
            bench: Bench::Uts,
            policy: Policy::ContGreedy,
            workers: 16,
            machine: profiles::itoa(),
            n: 0, // bench-specific default
            seed: 0x5EED,
            free: FreeStrategy::LocalCollection,
            scheme: AddressScheme::Uni,
            victim: VictimPolicy::Uniform,
            node_size: None,
            trace_out: None,
            fault: FaultPlan::none(),
            fabric: FabricMode::Blocking,
            protocol: Protocol::CasLock,
            multi_steal: 1,
            doorbell: 1.0,
        }
    }
}

fn parse_fabric(s: &str) -> Result<FabricMode, String> {
    Ok(match s {
        "blocking" => FabricMode::Blocking,
        "pipelined" => FabricMode::Pipelined,
        other => return Err(format!("unknown fabric mode '{other}' (blocking|pipelined)")),
    })
}

fn parse_protocol(s: &str) -> Result<Protocol, String> {
    Ok(match s {
        "cas-lock" => Protocol::CasLock,
        "lock-free" => Protocol::LockFree,
        "fence-free" => Protocol::FenceFree,
        other => {
            return Err(format!(
                "unknown steal protocol '{other}' (cas-lock|lock-free|fence-free)"
            ))
        }
    })
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info),
        "run" => Ok(Command::Run(parse_run(rest)?)),
        "check" => Ok(Command::Check(parse_check(rest)?)),
        "sweep" => {
            let (base, workers, jobs) = parse_run_with_list(rest)?;
            if base.trace_out.is_some() {
                return Err("--trace only makes sense with `run` (a sweep is many runs)".into());
            }
            let jobs = match jobs {
                Some(v) => dcs_bench::sweep::parse_jobs(&v)?,
                None => dcs_bench::sweep::available_jobs(),
            };
            Ok(Command::Sweep(SweepArgs {
                base,
                worker_list: workers,
                jobs,
            }))
        }
        other => Err(format!("unknown command '{other}' (run|sweep|check|info|help)")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (run, list, jobs) = parse_run_with_list(args)?;
    if list.len() > 1 {
        return Err("multiple --workers values only make sense with `sweep`".into());
    }
    if jobs.is_some() {
        return Err("--jobs only makes sense with `sweep` (a single run is one job)".into());
    }
    Ok(run)
}

fn parse_run_with_list(args: &[String]) -> Result<(RunArgs, Vec<usize>, Option<String>), String> {
    let mut out = RunArgs::defaults();
    let mut worker_list = vec![out.workers];
    let mut fault_seed: Option<u64> = None;
    let mut jobs: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" => out.bench = Bench::parse(val()?)?,
            "--policy" => out.policy = parse_policy(val()?)?,
            "--workers" | "-p" => {
                let v = val()?;
                worker_list = v
                    .split(',')
                    .map(|x| x.parse::<usize>().map_err(|_| format!("bad workers '{v}'")))
                    .collect::<Result<_, _>>()?;
                if worker_list.is_empty() {
                    return Err("empty worker list".into());
                }
                out.workers = worker_list[0];
            }
            "--machine" => {
                let v = val()?;
                out.machine =
                    profiles::by_name(v).ok_or_else(|| format!("unknown machine '{v}' (itoa|wisteria|test)"))?;
            }
            "--n" => out.n = val()?.parse().map_err(|_| "bad --n".to_string())?,
            "--seed" => out.seed = val()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--free" => {
                out.free = match val()?.as_str() {
                    "lock-queue" => FreeStrategy::LockQueue,
                    "local-collection" => FreeStrategy::LocalCollection,
                    other => return Err(format!("unknown free strategy '{other}'")),
                }
            }
            "--scheme" => {
                out.scheme = match val()?.as_str() {
                    "uni" => AddressScheme::Uni,
                    "iso" => AddressScheme::Iso,
                    other => return Err(format!("unknown address scheme '{other}'")),
                }
            }
            "--victim" => out.victim = parse_victim(val()?)?,
            "--fabric" => out.fabric = parse_fabric(val()?)?,
            "--protocol" => out.protocol = parse_protocol(val()?)?,
            "--multi-steal" => {
                let k: u32 = val()?.parse().map_err(|_| "bad --multi-steal".to_string())?;
                if k == 0 {
                    return Err("--multi-steal needs K >= 1 (1 = serial steals)".into());
                }
                out.multi_steal = k;
            }
            "--doorbell" => {
                let f: f64 = val()?.parse().map_err(|_| "bad --doorbell".to_string())?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--doorbell needs a fraction in 0.0..=1.0".into());
                }
                out.doorbell = f;
            }
            "--node-size" => {
                out.node_size = Some(val()?.parse().map_err(|_| "bad --node-size".to_string())?)
            }
            "--jobs" | "-j" => jobs = Some(val()?.clone()),
            "--trace" => out.trace_out = Some(val()?.clone()),
            "--fault-plan" => out.fault = FaultPlan::parse(val()?)?,
            "--fault-seed" => {
                fault_seed =
                    Some(val()?.parse().map_err(|_| "bad --fault-seed".to_string())?)
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if let Some(s) = fault_seed {
        out.fault = out.fault.clone().with_seed(s);
    }
    Ok((out, worker_list, jobs))
}

/// `--n`, or the bench's default problem size when it is absent.
fn problem_size(a: &RunArgs) -> u64 {
    if a.n != 0 {
        return a.n;
    }
    match a.bench {
        Bench::Fib => 20,
        Bench::Pfor => 1 << 12,
        Bench::Recpfor => 1 << 9,
        Bench::Uts | Bench::BotUts => 15, // gen_mx
        Bench::Lcs => 1 << 12,
    }
}

fn fib_task(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    let n = arg.as_u64();
    if n < 2 {
        return Effect::ret(n);
    }
    Effect::fork(
        fib_task,
        n - 1,
        frame(move |h, _| {
            let h = h.as_handle();
            Effect::call(
                fib_task,
                n - 2,
                frame(move |b, _| {
                    let b = b.as_u64();
                    Effect::join(h, frame(move |a, _| Effect::ret(a.as_u64() + b)))
                }),
            )
        }),
    )
}

/// The runtime configuration `a` asks for, at `workers` workers.
fn run_config(a: &RunArgs, workers: usize) -> RunConfig {
    let mut cfg = RunConfig::new(workers, a.policy)
        .with_profile(a.machine.clone())
        .with_free_strategy(a.free)
        .with_address_scheme(a.scheme)
        .with_victim(a.victim)
        .with_seed(a.seed)
        .with_seg_bytes(64 << 20)
        .with_fault_plan(a.fault.clone())
        .with_fabric(a.fabric)
        .with_protocol(a.protocol)
        .with_multi_steal(a.multi_steal)
        .with_doorbell(a.doorbell);
    if a.trace_out.is_some() {
        cfg = cfg.with_trace(TraceLevel::Series);
    }
    if let Some(node_size) = a.node_size {
        cfg = cfg.with_topology(Topology::Hierarchical {
            node_size,
            intra_factor: 0.3,
        });
    }
    cfg
}

/// What one simulation of `--bench` produced: a `dcs-core` task run, or a
/// run of the one-sided bag-of-tasks runtime (`bot-uts`). One per run,
/// moved once: the size gap between the reports costs nothing.
#[allow(clippy::large_enum_variant)]
enum Sim {
    Tasks(RunReport),
    Bot(dcs_bot::BotReport),
}

/// Build and run `a`'s bench at `workers` workers: the one path `run` and
/// every `sweep` point take, so both honour the same flags.
fn simulate(a: &RunArgs, workers: usize) -> Sim {
    let n = problem_size(a);
    let uts_spec = || uts::UtsSpec::new(4.0, n as u32, uts::Shape::Linear, 19);
    let program = match a.bench {
        Bench::Fib => Program::new(fib_task, n),
        Bench::Pfor => pfor::pfor_program(pfor::PforParams::paper(n)),
        Bench::Recpfor => pfor::recpfor_program(pfor::PforParams::paper(n)),
        Bench::Uts => uts::program(uts_spec()),
        Bench::Lcs => lcs::program(lcs::LcsParams::random(n, 256.min(n), a.seed)),
        Bench::BotUts => {
            return Sim::Bot(dcs_bot::onesided::run_workload_fabric(
                &dcs_bot::Workload::Uts(uts_spec()),
                workers,
                a.machine.clone(),
                a.seed,
                dcs_bot::onesided::StealAmount::Half,
                a.fault.clone(),
                a.fabric,
            ))
        }
    };
    Sim::Tasks(run(run_config(a, workers), program))
}

fn render_bot(a: &RunArgs, n: u64, r: &dcs_bot::BotReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "bench:      bot-uts (one-sided steal-half, gen_mx = {n})");
    let _ = writeln!(s, "nodes:      {}", r.nodes);
    let _ = writeln!(s, "elapsed:    {}", r.elapsed);
    let _ = writeln!(s, "throughput: {:.2} Mnodes/s", r.throughput() / 1e6);
    let _ = writeln!(s, "steals:     {} ok, {} failed", r.steals_ok, r.steals_failed);
    let _ = writeln!(s, "token rounds: {}", r.token_rounds);
    let _ = writeln!(
        s,
        "fabric:     {} remote ops, {} KiB moved ({}, {} max in flight)",
        r.fabric.remote_total(),
        (r.fabric.bytes_got + r.fabric.bytes_put) / 1024,
        a.fabric.label(),
        r.fabric.max_inflight
    );
    if a.fault.is_active() {
        let _ = writeln!(
            s,
            "faults:     {} verb retries, {} timeouts",
            r.fabric.retries, r.fabric.timeouts
        );
    }
    if a.fault.recovery_armed() {
        let _ = writeln!(
            s,
            "recovery:   {} dead workers, {} tasks lost, {} re-executed, {} duplicate results absorbed",
            r.dead_workers, r.lost_tasks, r.reexec_tasks, r.dup_results
        );
    }
    s
}

/// Execute a `run` command, returning the rendered report.
pub fn execute_run(a: &RunArgs) -> String {
    let n = problem_size(a);
    let report = match simulate(a, a.workers) {
        Sim::Tasks(r) => r,
        Sim::Bot(r) => return render_bot(a, n, &r),
    };
    let mut rendered = render_report(a, n, &report);
    if let Some(d) = report.stats.delay_report(report.elapsed, a.workers) {
        let _ = writeln!(
            rendered,
            "delay:      {} scheduler-caused of {} idle ({:.1}% of idleness)",
            d.scheduler_delay,
            d.idle,
            100.0 * d.blame_fraction
        );
    }
    if let Some(path) = &a.trace_out {
        let json = dcs_core::chrome_trace(&report.stats, &format!("{:?}", a.bench))
            .expect("series trace was enabled");
        match std::fs::write(path, json) {
            Ok(()) => {
                let _ = writeln!(rendered, "trace:      {path} (chrome://tracing / perfetto)");
            }
            Err(e) => {
                let _ = writeln!(rendered, "trace:      FAILED to write {path}: {e}");
            }
        }
    }
    rendered
}

fn render_report(a: &RunArgs, n: u64, r: &RunReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "bench:      {:?} (n = {n}), {} under {}",
        a.bench,
        a.policy.label(),
        a.machine.name
    );
    match &r.outcome {
        dcs_core::RunOutcome::Complete => {
            let _ = writeln!(s, "result:     {}", r.result.summary());
        }
        dcs_core::RunOutcome::Unrecoverable { worker, frames, reason } => {
            // Name the policy, the killed worker and its kill instant, so
            // the abort is reproducible from the rendered line alone.
            let kill_at = a
                .fault
                .kill
                .iter()
                .find(|k| k.worker == *worker)
                .map(|k| format!("{}", k.at))
                .unwrap_or_else(|| "?".into());
            let _ = writeln!(
                s,
                "result:     UNRECOVERABLE — {} lost worker {worker} (killed at {kill_at}) holding {} live frame(s): {reason}",
                a.policy.label(),
                frames.len()
            );
            let hint = match reason {
                dcs_core::UnrecoverableReason::FullStacks => {
                    "nearest recoverable configuration: same kill plan under child-rtc or a continuation policy (cont-greedy, cont-stalling)"
                }
                dcs_core::UnrecoverableReason::AllWorkersDead => {
                    "nearest recoverable configuration: keep at least one worker alive (drop a kill clause, or stagger kills beyond the lease)"
                }
            };
            let _ = writeln!(s, "hint:       {hint}");
        }
    }
    let _ = writeln!(s, "elapsed:    {}", r.elapsed);
    let _ = writeln!(s, "threads:    {}", r.threads);
    let _ = writeln!(
        s,
        "steals:     {} ok ({} B avg, {} avg latency), {} failed ({})",
        r.stats.steals_ok,
        r.stats.avg_stolen_bytes(),
        r.stats.avg_steal_latency(),
        r.stats.steals_failed,
        a.protocol.label()
    );
    if a.protocol == Protocol::FenceFree {
        let _ = writeln!(
            s,
            "multiplicity: {} dup takes absorbed, {} lost claim races",
            r.stats.ff_dups, r.stats.ff_lost_races
        );
    }
    if a.multi_steal >= 2 {
        let _ = writeln!(
            s,
            "multi-steal: K={} probe rings, {} ready victims abandoned",
            a.multi_steal, r.stats.steals_abandoned
        );
    }
    let _ = writeln!(
        s,
        "joins:      {} fast, {} outstanding ({} avg)",
        r.stats.joins_fast,
        r.stats.outstanding_joins,
        r.stats.avg_outstanding_time()
    );
    let _ = writeln!(
        s,
        "fabric:     {} remote ops ({} AMOs), {} KiB moved ({}, {} max in flight)",
        r.fabric.remote_total(),
        r.fabric.remote_amos,
        (r.fabric.bytes_got + r.fabric.bytes_put) / 1024,
        a.fabric.label(),
        r.fabric.max_inflight
    );
    if r.fabric.doorbell_chained > 0 {
        let _ = writeln!(
            s,
            "doorbell:   {} chained verbs at {:.2}x injection",
            r.fabric.doorbell_chained, a.doorbell
        );
    }
    let _ = writeln!(
        s,
        "busy:       {:.1}% of {} workers",
        100.0 * r.busy_total.as_ns() as f64 / (r.elapsed.as_ns() as f64 * a.workers as f64),
        a.workers
    );
    if a.fault.is_active() {
        let _ = writeln!(
            s,
            "faults:     {} verb retries, {} timeouts, {} blacklist skips",
            r.fabric.retries, r.fabric.timeouts, r.stats.blacklist_skips
        );
        if a.fault.recovery_armed() {
            let _ = writeln!(
                s,
                "recovery:   {} workers lost, {} tasks lost, {} replayed, {} split headers mirrored",
                r.stats.workers_lost, r.stats.tasks_lost, r.stats.tasks_replayed, r.stats.ckpt_puts
            );
        }
        if a.fault.suspicion_possible() {
            let _ = writeln!(
                s,
                "detector:   {} false suspects, {} rejoins, {} epoch-fenced verbs",
                r.stats.false_suspects, r.stats.rejoins, r.fabric.fenced_verbs
            );
        }
        if let Some(wd) = &r.watchdog {
            let _ = writeln!(s, "watchdog:   {wd}");
        }
    }
    s
}

/// Execute a `sweep` command. The per-P simulations fan out across
/// `a.jobs` host threads; rows are rendered strictly in `worker_list`
/// order, so the output is independent of `jobs`.
pub fn execute_sweep(a: &SweepArgs) -> String {
    // (elapsed, steals_ok, avg steal latency; None for the BoT runtime).
    let rows: Vec<(VTime, u64, Option<VTime>)> =
        dcs_bench::sweep::run_matrix(&a.worker_list, a.jobs, |_, &p| match simulate(&a.base, p) {
            Sim::Tasks(r) => (
                r.elapsed,
                r.stats.steals_ok,
                Some(r.stats.avg_steal_latency()),
            ),
            Sim::Bot(r) => (r.elapsed, r.steals_ok, None),
        });

    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>8} {:>14} {:>10} {:>12} {:>10}",
        "workers", "elapsed", "steals", "steal lat", "speedup"
    );
    let mut base: Option<f64> = None;
    for (&p, &(elapsed, steals_ok, lat)) in a.worker_list.iter().zip(&rows) {
        let t = elapsed.as_ns() as f64;
        let speedup = *base.get_or_insert(t) / t;
        let _ = writeln!(
            s,
            "{:>8} {:>14} {:>10} {:>12} {:>9.2}x",
            p,
            elapsed.to_string(),
            steals_ok,
            lat.map_or_else(|| "-".to_string(), |l| l.to_string()),
            speedup
        );
    }
    s
}

fn parse_check(args: &[String]) -> Result<CheckArgs, String> {
    let mut out = CheckArgs::defaults();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--scenario" => out.scenario = val()?.clone(),
            "--workers" | "-p" => {
                out.workers = val()?.parse().map_err(|_| "bad --workers".to_string())?;
                if out.workers < 2 {
                    return Err("check needs at least 2 workers (someone has to steal)".into());
                }
            }
            "--exhaustive" => out.mode = CheckMode::Exhaustive,
            "--pct-seeds" => {
                out.mode =
                    CheckMode::Pct(val()?.parse().map_err(|_| "bad --pct-seeds".to_string())?)
            }
            "--delays" => out.delays = val()?.parse().map_err(|_| "bad --delays".to_string())?,
            "--budget" => out.budget = val()?.parse().map_err(|_| "bad --budget".to_string())?,
            "--seed" => out.seed = val()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--schedule" => out.schedule = Some(val()?.clone()),
            "--out" => out.out = Some(val()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

/// Expected decision-count scale handed to the PCT hook (change points are
/// drawn from this window; past it the hook reverts to the fair native
/// order so every sampled run terminates).
const PCT_HORIZON: u64 = 1024;

/// Execute a `check` command. Returns the rendered report and whether the
/// check passed: every correct scenario explored clean, and every
/// `expect_violation` self-test scenario actually caught its planted bug
/// (a checker that can't see the bug it was built for is itself broken).
pub fn execute_check(a: &CheckArgs) -> (String, bool) {
    let mut s = String::new();

    // Replay mode: reproduce one serialized schedule, no exploration.
    if let Some(path) = &a.schedule {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return (format!("error: cannot read {path}: {e}\n"), false),
        };
        let sched = match dcs_check::Schedule::parse(&text) {
            Ok(x) => x,
            Err(e) => return (format!("error: bad schedule file {path}: {e}\n"), false),
        };
        // The file's seed, not `--seed`: a schedule replays the run it recorded.
        let Some(sc) = dcs_check::by_name(&sched.scenario, sched.workers, sched.seed) else {
            return (format!("error: unknown scenario '{}'\n", sched.scenario), false);
        };
        let rec = sc.run_choices(&sched.choices);
        let _ = writeln!(
            s,
            "replay {}: {} decisions, {} violation(s)",
            sched.scenario,
            rec.taken.len(),
            rec.violations.len()
        );
        for v in &rec.violations {
            let _ = writeln!(s, "  violation: {v}");
        }
        return (s, rec.violations.is_empty());
    }

    let scenarios = if a.scenario == "all" {
        dcs_check::catalog(a.workers, a.seed)
    } else {
        match dcs_check::by_name(&a.scenario, a.workers, a.seed) {
            Some(sc) => vec![sc],
            None => {
                let names: Vec<String> = dcs_check::catalog(a.workers, a.seed)
                    .into_iter()
                    .map(|sc| sc.name)
                    .collect();
                return (
                    format!(
                        "error: unknown scenario '{}' (available: {})\n",
                        a.scenario,
                        names.join(", ")
                    ),
                    false,
                );
            }
        }
    };

    let mode = match a.mode {
        CheckMode::Auto if a.workers <= 3 => CheckMode::Exhaustive,
        CheckMode::Auto => CheckMode::Pct(500),
        m => m,
    };
    let mut all_ok = true;
    for sc in &scenarios {
        // Self-test scenarios are tiny by construction: explore them
        // exhaustively even in PCT mode, so "does the checker still catch
        // the planted bug?" never depends on sampling luck.
        let out = match mode {
            _ if sc.expect_violation => {
                dcs_check::explore_exhaustive(&|c| sc.run_choices(c), a.delays.max(2), a.budget)
            }
            CheckMode::Exhaustive => {
                dcs_check::explore_exhaustive(&|c| sc.run_choices(c), a.delays, a.budget)
            }
            CheckMode::Pct(seeds) => {
                dcs_check::explore_pct(&|seed| sc.run_pct(seed, 3, PCT_HORIZON), seeds)
            }
            CheckMode::Auto => unreachable!("resolved above"),
        };
        let caught = !out.findings.is_empty();
        let ok = caught == sc.expect_violation;
        all_ok &= ok;
        let verdict = match (ok, sc.expect_violation) {
            (true, false) => "ok",
            (true, true) => "ok (self-test: planted bug caught)",
            (false, false) => "FAIL",
            (false, true) => "FAIL (self-test: planted bug NOT caught)",
        };
        let _ = writeln!(
            s,
            "{:<28} {:>7} schedules{} — {}",
            sc.name,
            out.schedules,
            if out.complete { "" } else { " (budget hit)" },
            verdict
        );
        // Minimize the first finding and serialize it for replay. A
        // self-test's finding is expected: it is shrunk only when the
        // scenario is named, to refresh its committed fixture.
        if let Some(f) = out.findings.first() {
            for v in &f.violations {
                let _ = writeln!(s, "  violation: {v}");
            }
            if sc.expect_violation && a.scenario != sc.name {
                continue;
            }
            let sched = dcs_check::Schedule {
                scenario: sc.name.clone(),
                workers: sc.workers,
                seed: a.seed,
                choices: dcs_check::minimize(&|c| sc.run_choices(c), &f.choices),
            };
            if let Some(dir) = &a.out {
                let file = format!("{dir}/{}.schedule", sc.name.replace(':', "-"));
                match std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&file, sched.to_string()))
                {
                    Ok(()) => {
                        let _ = writeln!(s, "  minimized schedule written to {file}");
                    }
                    Err(e) => {
                        let _ = writeln!(s, "  error writing {file}: {e}");
                    }
                }
            } else {
                let _ = write!(s, "  minimized reproducer:\n{sched}");
            }
        }
    }
    let _ = writeln!(
        s,
        "{}: {} scenario(s) checked",
        if all_ok { "PASS" } else { "FAIL" },
        scenarios.len()
    );
    (s, all_ok)
}

/// The machine/configuration summary for `dcs info`.
pub fn info() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "dcs — distributed continuation stealing (CLUSTER 2022 reproduction)\n");
    let _ = writeln!(s, "machine profiles:");
    for p in [profiles::itoa(), profiles::wisteria()] {
        let l = &p.latency;
        let _ = writeln!(
            s,
            "  {:<12} get {:>7}  amo {:>7}  compute x{:.2}",
            p.name,
            l.get_small().to_string(),
            l.amo().to_string(),
            p.compute_scale
        );
    }
    let _ = writeln!(s, "\npolicies: cont-greedy cont-stalling child-full child-rtc");
    let _ = writeln!(s, "benches:  {}", Bench::labels(" "));
    let _ = writeln!(s, "see `dcs help` for flags");
    s
}

pub const HELP: &str = "dcs — distributed continuation stealing simulator

USAGE:
    dcs run   [flags]      run one benchmark configuration
    dcs sweep [flags]      sweep --workers a,b,c,...
    dcs check [flags]      explore schedules against the protocol oracles
    dcs info               show machine profiles and options
    dcs help               this text

FLAGS (run & sweep):
    --bench <fib|pfor|recpfor|uts|lcs|bot-uts>                      [uts]
    --policy <cont-greedy|cont-stalling|child-full|child-rtc>       [cont-greedy]
    --workers, -p <n[,n...]>                      worker count(s)    [16]
    --jobs, -j <n>     host threads for sweep points (sweep only;
                       output is identical for any value)             [host cores]
    --machine <itoa|wisteria|test>                latency profile    [itoa]
    --n <num>          problem size (bench-specific; uts: gen_mx)
    --seed <num>       run seed                                      [0x5EED]
    --free <lock-queue|local-collection>          remote freeing     [local-collection]
    --scheme <uni|iso>                            stack addressing   [uni]
    --victim <uniform|locality:<p>|hier:<k>>      victim selection   [uniform]
    --fabric <blocking|pipelined>                 verb issue model   [blocking]
                       blocking waits out every one-sided verb; pipelined
                       posts independent verbs back-to-back and reaps
                       completions (same memory semantics, shorter critical
                       paths)
    --protocol <cas-lock|lock-free|fence-free>    steal protocol     [cas-lock]
                       cas-lock serializes steals with a per-deque lock;
                       lock-free claims entries with a single remote CAS;
                       fence-free uses plain reads/writes only (zero AMO
                       verbs) with bounded multiplicity closed by the
                       done-flag dedup — a doubly-taken task executes once
    --multi-steal <K>  steal attempts kept in flight at once while idle [1]
                       K >= 2 probes K distinct victims per idle step,
                       commits the first hit in ring order and abandons
                       the rest (won locks released, no blind retries)
    --doorbell <frac>  injection-cost fraction charged to verbs chained
                       behind one doorbell ring (probe rings, waiter
                       sweeps); 1.0 disables the discount            [1.0]
    --node-size <n>    hierarchical topology with n workers per node
    --trace <file>     write a Chrome trace (chrome://tracing, perfetto;
                       run only)                                      [off]
    --fault-plan <spec>  deterministic fault injection                   [off]
                       comma-separated clauses:
                         verb=P             transient verb-failure probability
                         drop=P             control-message drop probability
                         dup=P              message duplication probability
                         degrade=W@A..B*F   worker W's NIC F x slower in [A, B)
                         crash=W@A..B       worker W unresponsive in [A, B)
                         kill=W@T           worker W fail-stops permanently at T
                         recover=on         arm recovery without scheduling a kill
                         hb=T               heartbeat period of the lease registry
                         lease=T            silence beyond T confirms death
                       times take ns/us/ms/s suffixes, e.g.
                       --fault-plan verb=0.01,drop=0.02,crash=1@1ms..3ms
                       or --fault-plan kill=2@4ms,lease=100us
    --fault-seed <n>   seed of the fault RNG streams                     [0]

FLAGS (check):
    --scenario <name|all>  scenario to explore (see dcs-check catalog)   [all]
    --workers, -p <n>      worker count (>= 2)                           [2]
    --exhaustive           exhaustive delay-bounded exploration
    --pct-seeds <n>        randomized PCT sampling with n seeds
                           (default: exhaustive when workers <= 3, else 500 seeds)
    --delays <n>           delay bound for exhaustive mode               [2]
    --budget <n>           max schedules per scenario (exhaustive)       [50000]
    --seed <n>             scenario seed                                 [1]
    --schedule <file>      replay a serialized failing schedule
    --out <dir>            write minimized failing schedules here (a
                           self-test's planted bug only when --scenario
                           names it; exit code is non-zero on any violation)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_run_defaults() {
        let cmd = parse(&argv("run")).unwrap();
        let Command::Run(a) = cmd else { panic!() };
        assert_eq!(a.bench, Bench::Uts);
        assert_eq!(a.policy, Policy::ContGreedy);
        assert_eq!(a.workers, 16);
        assert_eq!(a.fabric, FabricMode::Blocking, "goldens depend on this default");
        assert_eq!(a.protocol, Protocol::CasLock, "goldens depend on this default");
    }

    #[test]
    fn parses_full_flag_set() {
        let cmd = parse(&argv(
            "run --bench lcs --policy child-full --workers 8 --machine wisteria \
             --n 1024 --seed 7 --free lock-queue --scheme iso --victim locality:0.8 --node-size 4 \
             --fabric pipelined --protocol fence-free --multi-steal 4 --doorbell 0.25",
        ))
        .unwrap();
        let Command::Run(a) = cmd else { panic!() };
        assert_eq!(a.bench, Bench::Lcs);
        assert_eq!(a.policy, Policy::ChildFull);
        assert_eq!(a.workers, 8);
        assert_eq!(a.machine.name, "Wisteria-O");
        assert_eq!(a.n, 1024);
        assert_eq!(a.seed, 7);
        assert_eq!(a.free, FreeStrategy::LockQueue);
        assert_eq!(a.scheme, AddressScheme::Iso);
        assert_eq!(a.victim, VictimPolicy::Locality { p_local: 0.8 });
        assert_eq!(a.node_size, Some(4));
        assert_eq!(a.fabric, FabricMode::Pipelined);
        assert_eq!(a.protocol, Protocol::FenceFree);
        assert_eq!(a.multi_steal, 4);
        assert_eq!(a.doorbell, 0.25);
    }

    #[test]
    fn multi_steal_and_doorbell_defaults_keep_the_serial_path() {
        let cmd = parse(&argv("run")).unwrap();
        let Command::Run(a) = cmd else { panic!() };
        assert_eq!(a.multi_steal, 1, "goldens depend on this default");
        assert_eq!(a.doorbell, 1.0, "goldens depend on this default");
    }

    #[test]
    fn parses_sweep_worker_list() {
        let cmd = parse(&argv("sweep --bench fib --workers 1,2,4")).unwrap();
        let Command::Sweep(a) = cmd else { panic!() };
        assert_eq!(a.worker_list, vec![1, 2, 4]);
        assert_eq!(a.base.bench, Bench::Fib);
    }

    #[test]
    fn parses_jobs_flag() {
        let cmd = parse(&argv("sweep --bench fib --workers 1,2 --jobs 3")).unwrap();
        let Command::Sweep(a) = cmd else { panic!() };
        assert_eq!(a.jobs, 3);
        // Short form.
        let cmd = parse(&argv("sweep --bench fib -j 2")).unwrap();
        let Command::Sweep(a) = cmd else { panic!() };
        assert_eq!(a.jobs, 2);
        // Absent: defaults to the host's available cores (>= 1 always).
        let cmd = parse(&argv("sweep --bench fib --workers 1,2")).unwrap();
        let Command::Sweep(a) = cmd else { panic!() };
        assert_eq!(a.jobs, dcs_bench::sweep::available_jobs());
        assert!(a.jobs >= 1);
    }

    #[test]
    fn rejects_bad_jobs() {
        // Zero jobs cannot make progress — rejected with a specific message.
        let err = parse(&argv("sweep --bench fib --jobs 0")).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse(&argv("sweep --jobs x")).is_err());
        assert!(parse(&argv("sweep --jobs")).is_err(), "missing value");
        // `run` is a single simulation; --jobs belongs to sweep.
        let err = parse(&argv("run --bench fib --jobs 2")).unwrap_err();
        assert!(err.contains("sweep"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("run --bench nope")).is_err());
        assert!(parse(&argv("run --policy nope")).is_err());
        assert!(parse(&argv("run --workers x")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --workers 1,2")).is_err(), "list needs sweep");
        assert!(parse(&argv("run --victim locality:x")).is_err());
        assert!(parse(&argv("run --n")).is_err(), "missing value");
        assert!(parse(&argv("run --fabric nope")).is_err());
        assert!(parse(&argv("run --fabric")).is_err(), "missing value");
        assert!(parse(&argv("run --protocol nope")).is_err());
        assert!(parse(&argv("run --protocol")).is_err(), "missing value");
        assert!(parse(&argv("run --multi-steal 0")).is_err(), "K=0 cannot steal");
        assert!(parse(&argv("run --multi-steal x")).is_err());
        assert!(parse(&argv("run --doorbell 1.5")).is_err(), "fraction > 1");
        assert!(parse(&argv("run --doorbell -0.1")).is_err(), "negative fraction");
    }

    #[test]
    fn help_and_info_paths() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("info")).unwrap(), Command::Info);
        assert!(info().contains("ITO-A"));
        assert!(HELP.contains("--bench"));
        assert!(HELP.contains("--fabric"));
        assert!(HELP.contains("--protocol"));
        assert!(HELP.contains("--multi-steal"));
        assert!(HELP.contains("--doorbell"));
    }

    #[test]
    fn parses_check_flags() {
        let cmd = parse(&argv(
            "check --scenario deque-steal --workers 3 --exhaustive --delays 3 --budget 999 --seed 4 --out /tmp/x",
        ))
        .unwrap();
        let Command::Check(a) = cmd else { panic!() };
        assert_eq!(a.scenario, "deque-steal");
        assert_eq!(a.workers, 3);
        assert_eq!(a.mode, CheckMode::Exhaustive);
        assert_eq!(a.delays, 3);
        assert_eq!(a.budget, 999);
        assert_eq!(a.seed, 4);
        assert_eq!(a.out.as_deref(), Some("/tmp/x"));

        let cmd = parse(&argv("check --workers 8 --pct-seeds 100")).unwrap();
        let Command::Check(a) = cmd else { panic!() };
        assert_eq!(a.mode, CheckMode::Pct(100));
        assert_eq!(a.scenario, "all");

        assert!(parse(&argv("check --workers 1")).is_err(), "needs a thief");
        assert!(parse(&argv("check --budget x")).is_err());
        assert!(HELP.contains("--pct-seeds"));
    }

    #[test]
    fn execute_check_single_scenario_passes() {
        let a = CheckArgs {
            scenario: "deque-steal".into(),
            mode: CheckMode::Exhaustive,
            delays: 2,
            ..CheckArgs::defaults()
        };
        let (report, ok) = execute_check(&a);
        assert!(ok, "{report}");
        assert!(report.contains("deque-steal"));
        assert!(report.contains("PASS"));
    }

    #[test]
    fn execute_check_self_test_catches_planted_bug() {
        let a = CheckArgs {
            scenario: "broken-release".into(),
            mode: CheckMode::Exhaustive,
            ..CheckArgs::defaults()
        };
        let (report, ok) = execute_check(&a);
        assert!(ok, "{report}");
        assert!(report.contains("planted bug caught"), "{report}");
        // Named, the self-test's finding is minimized into a fixture.
        assert!(report.contains("minimized reproducer:"), "{report}");
        assert!(report.contains("scenario=broken-release"), "{report}");
    }

    #[test]
    fn execute_check_replays_schedule_file() {
        let dir = std::env::temp_dir().join("dcs-check-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("native.schedule");
        let sched = dcs_check::Schedule {
            scenario: "deque-steal".into(),
            workers: 2,
            seed: 1,
            choices: vec![0, 1],
        };
        std::fs::write(&path, sched.to_string()).unwrap();
        let a = CheckArgs {
            schedule: Some(path.to_string_lossy().into_owned()),
            ..CheckArgs::defaults()
        };
        let (report, ok) = execute_check(&a);
        assert!(ok, "{report}");
        assert!(report.contains("replay deque-steal"), "{report}");
        assert!(parse(&argv("check --schedule")).is_err(), "missing value");
    }

    /// A schedule file replays under its own `seed=`, whatever `--seed` says.
    /// At W = 3 victim selection draws from the seed, so the two seeds take
    /// different runs (and decision counts) on this choice vector.
    #[test]
    fn execute_check_replays_under_the_schedule_files_seed() {
        let (name, choices) = ("single-steal:greedy:localc", [2]);
        let decisions = |seed| {
            let s = dcs_check::by_name(name, 3, seed).unwrap();
            s.run_choices(&choices).taken.len()
        };
        assert_ne!(
            decisions(1),
            decisions(7),
            "the vector must tell the seeds apart"
        );
        let dir = std::env::temp_dir().join("dcs-check-cli-seed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seed7.schedule");
        let sched = dcs_check::Schedule {
            scenario: name.into(),
            workers: 3,
            seed: 7,
            choices: choices.to_vec(),
        };
        std::fs::write(&path, sched.to_string()).unwrap();
        let a = CheckArgs {
            schedule: Some(path.to_string_lossy().into_owned()),
            ..CheckArgs::defaults()
        };
        assert_eq!(a.seed, 1);
        let (report, ok) = execute_check(&a);
        assert!(ok, "{report}");
        let want = format!("{} decisions", decisions(7));
        assert!(report.contains(&want), "want {want}: {report}");
    }

    #[test]
    fn parses_fault_plan_and_seed() {
        let cmd = parse(&argv(
            "run --bench fib --fault-plan verb=0.01,drop=0.02,crash=1@1ms..3ms --fault-seed 99",
        ))
        .unwrap();
        let Command::Run(a) = cmd else { panic!() };
        assert!(a.fault.is_active());
        assert_eq!(a.fault.verb_fail_p, 0.01);
        assert_eq!(a.fault.msg_drop_p, 0.02);
        assert_eq!(a.fault.crash.len(), 1);
        assert_eq!(a.fault.seed, 99);
        // Seed before plan must survive too.
        let cmd = parse(&argv("run --fault-seed 7 --fault-plan verb=0.5")).unwrap();
        let Command::Run(a) = cmd else { panic!() };
        assert_eq!(a.fault.seed, 7);
        assert!(parse(&argv("run --fault-plan nonsense")).is_err());
    }

    #[test]
    fn execute_run_with_faults_reports_fault_lines() {
        let mut a = RunArgs::defaults();
        a.bench = Bench::Fib;
        a.n = 10;
        a.workers = 2;
        a.machine = profiles::test_profile();
        a.fault = FaultPlan::transient(0.02, 3);
        let out = execute_run(&a);
        assert!(out.contains("U64(55)"), "{out}");
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("watchdog:"), "{out}");
    }

    #[test]
    fn execute_run_small_fib() {
        let mut a = RunArgs::defaults();
        a.bench = Bench::Fib;
        a.n = 10;
        a.workers = 2;
        a.machine = profiles::test_profile();
        let out = execute_run(&a);
        assert!(out.contains("U64(55)"), "{out}");
    }

    #[test]
    fn execute_bot_uts() {
        let mut a = RunArgs::defaults();
        a.bench = Bench::BotUts;
        a.n = 8; // gen_mx
        a.workers = 2;
        a.machine = profiles::test_profile();
        let out = execute_run(&a);
        assert!(out.contains("nodes:"), "{out}");
        // Same tree through the posted-verb fabric: identical result, and
        // the report names the mode so runs are attributable from the log.
        a.fabric = FabricMode::Pipelined;
        let out = execute_run(&a);
        assert!(out.contains("nodes:"), "{out}");
        assert!(out.contains("pipelined"), "{out}");
    }

    #[test]
    fn execute_sweep_speedup_column() {
        let mut base = RunArgs::defaults();
        base.bench = Bench::Fib;
        base.n = 12;
        base.machine = profiles::test_profile();
        let out = execute_sweep(&SweepArgs {
            base,
            worker_list: vec![1, 2],
            jobs: 1,
        });
        assert!(out.contains("1.00x"), "{out}");
    }

    #[test]
    fn sweep_output_is_independent_of_jobs() {
        let mut base = RunArgs::defaults();
        base.bench = Bench::Fib;
        base.n = 12;
        base.machine = profiles::test_profile();
        let mk = |jobs| SweepArgs {
            base: base.clone(),
            worker_list: vec![1, 2, 4],
            jobs,
        };
        assert_eq!(execute_sweep(&mk(1)), execute_sweep(&mk(4)));
    }

    /// `run FLAGS --workers 4`'s elapsed beside the elapsed of the single
    /// row `sweep FLAGS --workers 4` prints.
    fn run_and_sweep_elapsed(flags: &str) -> (String, String) {
        let Command::Run(r) = parse(&argv(&format!("run {flags} --workers 4"))).unwrap() else {
            panic!()
        };
        let Command::Sweep(s) =
            parse(&argv(&format!("sweep {flags} --workers 4 --jobs 1"))).unwrap()
        else {
            panic!()
        };
        let ran = execute_run(&r);
        let ran = ran
            .lines()
            .find_map(|l| l.strip_prefix("elapsed:"))
            .expect("elapsed line");
        let swept = execute_sweep(&s);
        let row = swept.lines().nth(1).expect("one sweep row");
        (
            ran.trim().to_string(),
            row.split_whitespace().nth(1).unwrap().to_string(),
        )
    }

    #[test]
    fn sweep_honours_protocol() {
        let (ran, swept) = run_and_sweep_elapsed("--bench fib --n 16 --protocol fence-free");
        assert_eq!(swept, ran);
    }

    #[test]
    fn sweep_honours_victim_and_node_size() {
        let (ran, swept) =
            run_and_sweep_elapsed("--bench fib --n 16 --victim hier:2 --node-size 2");
        assert_eq!(swept, ran);
    }

    #[test]
    fn sweep_honours_free_strategy() {
        let (ran, swept) = run_and_sweep_elapsed("--bench fib --n 16 --free lock-queue");
        assert_eq!(swept, ran);
    }

    #[test]
    fn sweep_honours_multi_steal_and_doorbell() {
        let (ran, swept) = run_and_sweep_elapsed(
            "--bench fib --n 16 --fabric pipelined --multi-steal 2 --doorbell 0.25",
        );
        assert_eq!(swept, ran);
    }

    #[test]
    fn sweep_honours_the_bot_fault_plan() {
        let (ran, swept) = run_and_sweep_elapsed("--bench bot-uts --n 10 --fault-plan kill=1@50us");
        assert_eq!(swept, ran);
    }

    /// `--scheme` moves no elapsed on fib, so check the configuration itself:
    /// every runtime flag reaches the `RunConfig` both verbs build.
    #[test]
    fn run_config_carries_every_runtime_flag() {
        let Command::Run(a) = parse(&argv(
            "run --policy child-rtc --seed 7 --free lock-queue --scheme iso --victim hier:2 \
             --node-size 2 --fabric pipelined --protocol lock-free --multi-steal 3 --doorbell 0.5 \
             --fault-plan verb=0.01",
        ))
        .unwrap() else {
            panic!()
        };
        let cfg = run_config(&a, 4);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.policy, Policy::ChildRtc);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.free_strategy, FreeStrategy::LockQueue);
        assert_eq!(cfg.address_scheme, AddressScheme::Iso);
        assert_eq!(cfg.victim, VictimPolicy::Hierarchical { local_tries: 2 });
        assert!(matches!(
            cfg.topology,
            Topology::Hierarchical { node_size: 2, .. }
        ));
        assert_eq!(cfg.fabric, FabricMode::Pipelined);
        assert_eq!(cfg.protocol, Protocol::LockFree);
        assert_eq!(cfg.multi_steal, 3);
        assert_eq!(cfg.doorbell, 0.5);
        assert!(cfg.fault.is_active());
    }

    #[test]
    fn sweep_rejects_trace() {
        let err = parse(&argv("sweep --bench fib --trace t.json")).unwrap_err();
        assert!(err.contains("run"), "{err}");
    }

    #[test]
    fn every_bench_label_parses_and_is_listed() {
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.label()), Ok(b));
        }
        let bar = Bench::labels("|");
        assert!(
            HELP.contains(&format!("--bench <{bar}>")),
            "HELP lists {bar}"
        );
        assert!(info().contains(&format!("benches:  {}", Bench::labels(" "))));
        let err = Bench::parse("nope").unwrap_err();
        assert!(err.contains(&bar), "{err}");
    }
}
