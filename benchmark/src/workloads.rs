//! The seven workloads: what each one runs, why it exists, how its inputs
//! are made from the seed, and how its outputs are checked.
//!
//! Every workload is a closed loop on one simulator thread: a *pass* runs
//! the workload's cell list once, one cell after the other. The sizes
//! below were calibrated once on the reference host (see README.md,
//! "Calibration") so that a pass takes about two seconds, and are frozen:
//! changing one re-bases every number in `results/baseline.json`.
//!
//! `--seed` feeds the runtime's RNG streams (victim selection, fault
//! streams) and the LCS input strings. It deliberately does **not** pick
//! the UTS tree: tree size varies by orders of magnitude between tree
//! seeds, which would make `host_s` a function of the seed instead of the
//! code.

use std::collections::BTreeMap;

use dcs_apps::lcs::{self, LcsParams};
use dcs_apps::pfor::{recpfor_program, PforParams};
use dcs_apps::uts::{self, presets, Shape, UtsSpec};
use dcs_bot::twosided::Variant;
use dcs_bot::{onesided, twosided, BotReport};
use dcs_core::prelude::*;
use dcs_core::RunReport;
use dcs_sim::rng::splitmix64;
use dcs_sim::FabricStats;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "recpfor_steal",
        why: "Steal-bound fine-grained fork-join (Fig. 6 regime): scheduler, deque and verb path do all the work, the app kernel none; steal-path changes show here in both clocks.",
    },
    WorkloadDef {
        name: "uts_tree",
        why: "Fork/join fast path with a real SHA-1 kernel and rare steals: per-task scheduler/deque host cost must move it, a steal-latency change must not (Fig. 8 fork-join line).",
    },
    WorkloadDef {
        name: "lcs_wavefront",
        why: "Multi-consumer futures with slow-path joins dominating and host time ~90% leaf kernel: join-path changes move its makespan, engine changes must not move its host time.",
    },
    WorkloadDef {
        name: "scale_sparse",
        why: "Small task tree on 8192 workers, >99% idle: event queue, park/wake, paged segments and victim selection do everything; where large-W per-step decay and memory per worker show.",
    },
    WorkloadDef {
        name: "faulted_poll",
        why: "Kills plus a message detector switch parking off: the idle layer used the other way (busy-poll) with detector and recovery on the step path.",
    },
    WorkloadDef {
        name: "bot_uts",
        why: "The only coverage of dcs-bot, sim.mailbox and token termination (Fig. 8 comparators): one-sided, two-sided lifeline and two-sided random runtimes on UTS trees.",
    },
    WorkloadDef {
        name: "lattice_matrix",
        why: "48 short cells over every policy x protocol x fabric x K path: set-up/tear-down dominated, and proves no cell of the configuration lattice regressed.",
    },
];

/// The fault plan of `faulted_poll`: three staggered kills (root holder
/// included) under the message detector with lossy heartbeats.
pub const FAULT_PLAN: &str = "kill=0@200us,kill=3@400us,kill=17@600us,detector=message,\
                              suspect=300us,hb=50us,lease=400us,drop=0.05";

/// The program a cell runs.
#[derive(Clone)]
pub enum Prog {
    /// Root task returns at once: what remains is construction + teardown.
    Null,
    RecPFor(PforParams),
    Uts(UtsSpec),
    Lcs(LcsParams),
}

#[derive(Clone)]
pub enum Job {
    Core {
        cfg: Box<RunConfig>,
        prog: Prog,
    },
    BotOneSided {
        spec: UtsSpec,
        workers: usize,
        seed: u64,
    },
    BotTwoSided {
        spec: UtsSpec,
        workers: usize,
        variant: Variant,
        seed: u64,
    },
}

#[derive(Clone)]
pub struct Cell {
    pub label: String,
    pub job: Job,
}

/// A workload's generated inputs: its cell list, and the null-program cell
/// the set-up probe runs under the same configuration.
pub struct Prepared {
    pub cells: Vec<Cell>,
    pub null: Cell,
    /// Headline worker count (per-worker metrics divide by it).
    pub workers: usize,
}

fn null_root(_: Value, _: &mut TaskCtx) -> Effect {
    Effect::ret(0u64)
}

/// A UTS instance whose root has no children (the `dcs-bot` null program).
fn root_only_tree() -> UtsSpec {
    UtsSpec::new(0.0, 0, Shape::Linear, 19)
}

fn core_cell(label: String, cfg: RunConfig, prog: Prog) -> Cell {
    Cell {
        label,
        job: Job::Core {
            cfg: Box::new(cfg),
            prog,
        },
    }
}

/// selfbench's `scaling_build` configuration: a cubish mesh with the
/// per-worker fixed rings shrunk so that the simulated footprint reflects
/// live state, not default capacity.
fn sparse_cfg(workers: usize, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(workers, Policy::ContGreedy)
        .with_seed(seed)
        .with_topology(Topology::cubish_mesh(workers, 48))
        .with_seg_bytes(2 << 20)
        .with_strict(false);
    cfg.deque_cap = 512;
    cfg.freeq_cap = 256;
    cfg.stack_slot = 8 << 10;
    cfg
}

fn policy_slug(p: Policy) -> &'static str {
    match p {
        Policy::ContGreedy => "cont-greedy",
        Policy::ContStalling => "cont-stalling",
        Policy::ChildFull => "child-full",
        Policy::ChildRtc => "child-rtc",
    }
}

/// Generate `name`'s inputs from `seed`. Cheap by design (the expensive
/// serial references are computed separately, see [`references`]) because
/// the set-up probe repeats it for every sample.
pub fn prepare(name: &str, seed: u64, quick: bool) -> Option<Prepared> {
    let mut stream = seed;
    let mut next_seed = || splitmix64(&mut stream);
    let greedy =
        |workers: usize, seed: u64| RunConfig::new(workers, Policy::ContGreedy).with_seed(seed);
    let prepared = match name {
        "recpfor_steal" => {
            let (n, workers, seeds) = if quick { (256, 64, 1) } else { (4096, 256, 3) };
            let prog = Prog::RecPFor(PforParams::paper(n));
            let cells = (0..seeds)
                .map(|i| {
                    core_cell(
                        format!("seed{i}"),
                        greedy(workers, next_seed()),
                        prog.clone(),
                    )
                })
                .collect();
            Prepared {
                cells,
                null: core_cell("null".into(), greedy(workers, seed), Prog::Null),
                workers,
            }
        }
        "uts_tree" => {
            let spec = if quick {
                presets::small()
            } else {
                presets::large()
            };
            let workers = 64;
            Prepared {
                cells: vec![core_cell(
                    "seed0".into(),
                    greedy(workers, next_seed()),
                    Prog::Uts(spec),
                )],
                null: core_cell("null".into(), greedy(workers, seed), Prog::Null),
                workers,
            }
        }
        "lcs_wavefront" => {
            let (n, seeds) = if quick { (2048, 1) } else { (16384, 2) };
            let workers = 64;
            let cells = (0..seeds)
                .map(|i| {
                    let s = next_seed();
                    core_cell(
                        format!("seed{i}"),
                        greedy(workers, s),
                        Prog::Lcs(LcsParams::random(n, 256, s)),
                    )
                })
                .collect();
            Prepared {
                cells,
                null: core_cell("null".into(), greedy(workers, seed), Prog::Null),
                workers,
            }
        }
        "scale_sparse" => {
            // selfbench's scaled-down RecPFor (K = 2, M = 2 us): a regular
            // task tree keeps the makespan's seed-to-seed spread near 3 %,
            // where a small UTS tree on this many workers gives 7-20 %.
            let (workers, n) = if quick { (1024, 32) } else { (8192, 256) };
            let prog = Prog::RecPFor(PforParams {
                n,
                k: 2,
                m: VTime::us(2),
            });
            Prepared {
                cells: vec![core_cell(
                    "seed0".into(),
                    sparse_cfg(workers, next_seed()),
                    prog,
                )],
                null: core_cell("null".into(), sparse_cfg(workers, seed), Prog::Null),
                workers,
            }
        }
        "faulted_poll" => {
            let (workers, spec) = if quick {
                (64, presets::tiny())
            } else {
                (128, presets::medium())
            };
            let plan = |s: u64| {
                FaultPlan::parse(FAULT_PLAN)
                    .expect("the frozen fault plan parses")
                    .with_seed(s)
            };
            let cfg = |s: u64| greedy(workers, s).with_fault_plan(plan(s));
            Prepared {
                cells: vec![core_cell("seed0".into(), cfg(next_seed()), Prog::Uts(spec))],
                null: core_cell("null".into(), cfg(seed), Prog::Null),
                workers,
            }
        }
        "bot_uts" => {
            // The random two-sided runtime's makespan varies ~15 % from seed
            // to seed, so it runs four small seeds where the others run one.
            let (one_sided, two_sided, w1, w2, w3) = if quick {
                (presets::tiny(), presets::tiny(), 32, 8, 8)
            } else {
                (presets::medium(), presets::small(), 256, 16, 32)
            };
            let mut cells = vec![
                Cell {
                    label: "onesided".into(),
                    job: Job::BotOneSided {
                        spec: one_sided,
                        workers: w1,
                        seed: next_seed(),
                    },
                },
                Cell {
                    label: "twosided-lifeline".into(),
                    job: Job::BotTwoSided {
                        spec: two_sided.clone(),
                        workers: w3,
                        variant: Variant::Lifeline,
                        seed: next_seed(),
                    },
                },
            ];
            for i in 0..if quick { 1 } else { 4 } {
                cells.push(Cell {
                    label: format!("twosided-random/seed{i}"),
                    job: Job::BotTwoSided {
                        spec: two_sided.clone(),
                        workers: w2,
                        variant: Variant::Random,
                        seed: next_seed(),
                    },
                });
            }
            Prepared {
                cells,
                null: Cell {
                    label: "null".into(),
                    job: Job::BotOneSided {
                        spec: root_only_tree(),
                        workers: w1,
                        seed,
                    },
                },
                workers: w1,
            }
        }
        "lattice_matrix" => {
            let (n, workers) = if quick { (32, 16) } else { (256, 64) };
            let prog = Prog::RecPFor(PforParams::paper(n));
            let s = next_seed();
            let mut cells = Vec::with_capacity(48);
            for policy in Policy::ALL {
                for protocol in Protocol::ALL {
                    for fabric in [FabricMode::Blocking, FabricMode::Pipelined] {
                        for k in [1u32, 4] {
                            let cfg = RunConfig::new(workers, policy)
                                .with_seed(s)
                                .with_protocol(protocol)
                                .with_fabric(fabric)
                                .with_multi_steal(k);
                            let label = format!(
                                "{}/{}/{}/k{k}",
                                policy_slug(policy),
                                protocol.label(),
                                fabric.label()
                            );
                            cells.push(core_cell(label, cfg, prog.clone()));
                        }
                    }
                }
            }
            Prepared {
                cells,
                null: core_cell("null".into(), greedy(workers, seed), Prog::Null),
                workers,
            }
        }
        _ => return None,
    };
    Some(prepared)
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Exact counts of one cell (or, after [`Counters::add`], of one pass).
/// Everything here is a function of code and seed alone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub steps: u64,
    pub threads: u64,
    pub steals_ok: u64,
    pub steals_failed: u64,
    pub steals_abandoned: u64,
    pub steal_latency_sum_ns: u64,
    pub copy_time_sum_ns: u64,
    pub stolen_bytes_sum: u64,
    pub joins_fast: u64,
    pub joins_outstanding: u64,
    pub join_wait_sum_ns: u64,
    pub die_fast: u64,
    pub die_won: u64,
    pub die_lost: u64,
    pub busy_ns: u64,
    /// Σ workers × makespan: the capacity `busy_ns` and `t1_ns` divide by.
    pub capacity_ns: u64,
    /// Σ serial work T1 (compute only) of the cells.
    pub t1_ns: u64,
    pub workers_lost: u64,
    pub false_suspects: u64,
    pub tasks_lost: u64,
    pub tasks_replayed: u64,
    pub ckpt_puts: u64,
    pub rejoins: u64,
    pub remote_ops: u64,
    pub remote_amos: u64,
    pub bytes_moved: u64,
    pub local_ops: u64,
    pub max_inflight: u64,
    pub retries: u64,
    pub fenced_verbs: u64,
    pub peak_resident_bytes: u64,
    pub messages: u64,
    pub uni_peak: u64,
    pub uni_conflicts: u64,
    /// Kernel work units, for the cost model.
    pub uts_nodes: u64,
    pub lcs_leaves: u64,
    pub bot_steals_ok: u64,
    pub bot_steals_failed: u64,
    pub bot_token_rounds: u64,
    pub bot_steps: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        // Destructured so that a new field cannot be forgotten here.
        let Counters {
            steps,
            threads,
            steals_ok,
            steals_failed,
            steals_abandoned,
            steal_latency_sum_ns,
            copy_time_sum_ns,
            stolen_bytes_sum,
            joins_fast,
            joins_outstanding,
            join_wait_sum_ns,
            die_fast,
            die_won,
            die_lost,
            busy_ns,
            capacity_ns,
            t1_ns,
            workers_lost,
            false_suspects,
            tasks_lost,
            tasks_replayed,
            ckpt_puts,
            rejoins,
            remote_ops,
            remote_amos,
            bytes_moved,
            local_ops,
            max_inflight,
            retries,
            fenced_verbs,
            peak_resident_bytes,
            messages,
            uni_peak,
            uni_conflicts,
            uts_nodes,
            lcs_leaves,
            bot_steals_ok,
            bot_steals_failed,
            bot_token_rounds,
            bot_steps,
        } = o;
        self.steps += steps;
        self.threads += threads;
        self.steals_ok += steals_ok;
        self.steals_failed += steals_failed;
        self.steals_abandoned += steals_abandoned;
        self.steal_latency_sum_ns += steal_latency_sum_ns;
        self.copy_time_sum_ns += copy_time_sum_ns;
        self.stolen_bytes_sum += stolen_bytes_sum;
        self.joins_fast += joins_fast;
        self.joins_outstanding += joins_outstanding;
        self.join_wait_sum_ns += join_wait_sum_ns;
        self.die_fast += die_fast;
        self.die_won += die_won;
        self.die_lost += die_lost;
        self.busy_ns += busy_ns;
        self.capacity_ns += capacity_ns;
        self.t1_ns += t1_ns;
        self.workers_lost += workers_lost;
        self.false_suspects += false_suspects;
        self.tasks_lost += tasks_lost;
        self.tasks_replayed += tasks_replayed;
        self.ckpt_puts += ckpt_puts;
        self.rejoins += rejoins;
        self.remote_ops += remote_ops;
        self.remote_amos += remote_amos;
        self.bytes_moved += bytes_moved;
        self.local_ops += local_ops;
        // High-water marks: the pass's figure is the worst cell's.
        self.max_inflight = self.max_inflight.max(*max_inflight);
        self.retries += retries;
        self.fenced_verbs += fenced_verbs;
        self.peak_resident_bytes = self.peak_resident_bytes.max(*peak_resident_bytes);
        self.messages += messages;
        self.uni_peak = self.uni_peak.max(*uni_peak);
        self.uni_conflicts += uni_conflicts;
        self.uts_nodes += uts_nodes;
        self.lcs_leaves += lcs_leaves;
        self.bot_steals_ok += bot_steals_ok;
        self.bot_steals_failed += bot_steals_failed;
        self.bot_token_rounds += bot_token_rounds;
        self.bot_steps += bot_steps;
    }

    fn fabric(&mut self, f: &FabricStats) {
        self.remote_ops = f.remote_total();
        self.remote_amos = f.remote_amos;
        self.bytes_moved = f.bytes_got + f.bytes_put;
        self.local_ops = f.local_ops;
        self.max_inflight = f.max_inflight;
        self.retries = f.retries;
        self.fenced_verbs = f.fenced_verbs;
        self.peak_resident_bytes = f.peak_resident_bytes;
    }
}

/// Per-event series of a traced (`TraceLevel::Series`) run.
#[derive(Clone, Debug, Default)]
pub struct TraceSeries {
    pub steal_latency_ns: Vec<u64>,
    pub join_wait_ns: Vec<u64>,
    pub scheduler_delay_ns: u64,
    pub idle_ns: u64,
}

/// What one cell produced.
pub struct CellOut {
    pub label: String,
    pub complete: bool,
    pub result: Option<u64>,
    pub makespan_ns: u64,
    pub workers: usize,
    /// Hash over result, makespan and every public counter except `steps`
    /// (park/wake legitimately changes step counts): a host-only
    /// optimisation must leave it unchanged.
    pub vdigest: u64,
    pub counters: Counters,
    pub series: Option<TraceSeries>,
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn fabric(&mut self, f: &FabricStats) {
        let FabricStats {
            remote_gets,
            remote_puts,
            remote_amos,
            local_ops,
            bytes_got,
            bytes_put,
            messages_sent,
            messages_handled,
            retries,
            timeouts,
            dead_fails,
            max_inflight,
            cq_polls,
            doorbell_chained,
            fenced_verbs,
            peak_resident_bytes,
        } = *f;
        for v in [
            remote_gets,
            remote_puts,
            remote_amos,
            local_ops,
            bytes_got,
            bytes_put,
            messages_sent,
            messages_handled,
            retries,
            timeouts,
            dead_fails,
            max_inflight,
            cq_polls,
            doorbell_chained,
            fenced_verbs,
            peak_resident_bytes,
        ] {
            self.word(v);
        }
    }
}

/// Combine cell digests into the workload's `vdigest`.
pub fn fold_digests(cells: &[CellOut]) -> u64 {
    let mut d = Digest::new();
    for c in cells {
        d.word(c.vdigest);
    }
    d.0
}

fn core_out(label: &str, workers: usize, prog: &Prog, r: RunReport) -> CellOut {
    let s = &r.stats;
    let result = match r.result {
        Value::U64(v) => Some(v),
        _ => None,
    };
    let mut d = Digest::new();
    d.word(r.outcome.is_complete() as u64);
    d.word(result.map_or(u64::MAX, |v| v));
    d.word(r.elapsed.as_ns());
    for v in [
        s.steals_ok,
        s.steals_failed,
        s.steals_abandoned,
        s.blacklist_skips,
        s.avg_steal_latency().as_ns(),
        s.avg_copy_time().as_ns(),
        s.avg_stolen_bytes(),
        s.outstanding_joins,
        s.avg_outstanding_time().as_ns(),
        s.joins_fast,
        s.die_fast,
        s.die_won,
        s.die_lost,
        s.threads_spawned,
        s.threads_died,
        s.workers_lost,
        s.tasks_lost,
        s.tasks_replayed,
        s.ckpt_puts,
        s.false_suspects,
        s.rejoins,
        s.ff_dups,
        s.ff_lost_races,
        r.busy_total.as_ns(),
        r.threads,
        r.uni_peak,
        r.iso_peak,
        r.uni_conflicts,
        r.evac_peak,
        r.full_stack_peak,
    ] {
        d.word(v);
    }
    d.fabric(&r.fabric);

    let mut c = Counters {
        steps: r.steps,
        threads: r.threads,
        steals_ok: s.steals_ok,
        steals_failed: s.steals_failed,
        steals_abandoned: s.steals_abandoned,
        steal_latency_sum_ns: s.avg_steal_latency().as_ns() * s.steals_ok,
        copy_time_sum_ns: s.avg_copy_time().as_ns() * s.steals_ok,
        stolen_bytes_sum: s.avg_stolen_bytes() * s.steals_ok,
        joins_fast: s.joins_fast,
        joins_outstanding: s.outstanding_joins,
        join_wait_sum_ns: s.avg_outstanding_time().as_ns() * s.outstanding_joins,
        die_fast: s.die_fast,
        die_won: s.die_won,
        die_lost: s.die_lost,
        busy_ns: r.busy_total.as_ns(),
        capacity_ns: r.elapsed.as_ns() * workers as u64,
        workers_lost: s.workers_lost,
        false_suspects: s.false_suspects,
        tasks_lost: s.tasks_lost,
        tasks_replayed: s.tasks_replayed,
        ckpt_puts: s.ckpt_puts,
        rejoins: s.rejoins,
        messages: r.fabric.messages_sent,
        uni_peak: r.uni_peak,
        uni_conflicts: r.uni_conflicts,
        ..Counters::default()
    };
    c.fabric(&r.fabric);
    match prog {
        Prog::Uts(_) => c.uts_nodes = result.unwrap_or(0),
        Prog::Lcs(p) => c.lcs_leaves = (p.n / p.c) * (p.n / p.c),
        Prog::RecPFor(_) | Prog::Null => {}
    }
    let series = s.series.then(|| {
        let delay = s.delay_report(r.elapsed, workers);
        TraceSeries {
            steal_latency_ns: s
                .steal_events
                .iter()
                .map(|&(_, _, start, end)| end.saturating_sub(start).as_ns())
                .collect(),
            join_wait_ns: s
                .join_intervals
                .iter()
                .map(|&(ready, resumed)| resumed.saturating_sub(ready).as_ns())
                .collect(),
            scheduler_delay_ns: delay.map_or(0, |d| d.scheduler_delay.as_ns()),
            idle_ns: delay.map_or(0, |d| d.idle.as_ns()),
        }
    });
    CellOut {
        label: label.to_string(),
        complete: r.outcome.is_complete(),
        result,
        makespan_ns: r.elapsed.as_ns(),
        workers,
        vdigest: d.0,
        counters: c,
        series,
    }
}

fn bot_out(label: &str, workers: usize, r: BotReport) -> CellOut {
    let mut d = Digest::new();
    for v in [
        r.nodes,
        r.checksum,
        r.elapsed.as_ns(),
        r.steals_ok,
        r.steals_failed,
        r.messages,
        r.token_rounds,
        r.dead_workers,
        r.lost_tasks,
        r.reexec_tasks,
        r.dup_results,
    ] {
        d.word(v);
    }
    d.fabric(&r.fabric);
    let mut c = Counters {
        steps: r.steps,
        capacity_ns: r.elapsed.as_ns() * workers as u64,
        messages: r.messages,
        uts_nodes: r.nodes,
        bot_steals_ok: r.steals_ok,
        bot_steals_failed: r.steals_failed,
        bot_token_rounds: r.token_rounds,
        bot_steps: r.steps,
        ..Counters::default()
    };
    c.fabric(&r.fabric);
    CellOut {
        label: label.to_string(),
        complete: true,
        result: Some(r.nodes),
        makespan_ns: r.elapsed.as_ns(),
        workers,
        vdigest: d.0,
        counters: c,
        series: None,
    }
}

/// Run one cell to completion. `traced` switches `dcs-core` runs to
/// `TraceLevel::Series` (the BoT runtimes have no series level).
pub fn run_cell(cell: &Cell, traced: bool) -> CellOut {
    match &cell.job {
        Job::Core { cfg, prog } => {
            let workers = cfg.workers;
            let level = if traced {
                TraceLevel::Series
            } else {
                TraceLevel::Counters
            };
            let cfg = (**cfg).clone().with_trace(level);
            let program = match prog {
                Prog::Null => Program::new(null_root, Value::Unit),
                Prog::RecPFor(p) => recpfor_program(*p),
                Prog::Uts(spec) => uts::program(spec.clone()),
                Prog::Lcs(p) => lcs::program(p.clone()),
            };
            core_out(&cell.label, workers, prog, run(cfg, program))
        }
        Job::BotOneSided {
            spec,
            workers,
            seed,
        } => bot_out(
            &cell.label,
            *workers,
            onesided::run_uts(spec, *workers, profiles::itoa(), *seed),
        ),
        Job::BotTwoSided {
            spec,
            workers,
            variant,
            seed,
        } => bot_out(
            &cell.label,
            *workers,
            twosided::run_uts(spec, *workers, profiles::itoa(), *variant, *seed),
        ),
    }
}

// ---------------------------------------------------------------------------
// References and verification
// ---------------------------------------------------------------------------

/// What a cell's output is checked against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reference {
    /// Serial answer: UTS node count / LCS length. `None` for RecPFor,
    /// whose tasks return nothing (its check is completion + thread count).
    pub result: Option<u64>,
    /// Serial compute time T1 at the cell's machine scale.
    pub t1_ns: u64,
}

fn uts_reference(spec: &UtsSpec, compute_scale: f64) -> Reference {
    let nodes = uts::serial_count(spec).nodes;
    // Every node but the root is some node's child, so Σ visit_cost is
    // nodes·node_cost + (nodes − 1)·child_cost — `uts::serial_vtime`
    // without a second tree traversal.
    let t1 = (spec.node_cost * nodes + spec.child_cost * (nodes - 1)).scale(compute_scale);
    Reference {
        result: Some(nodes),
        t1_ns: t1.as_ns(),
    }
}

/// Serial references for every cell, computed outside any timed region.
/// UTS trees are traversed once per distinct instance.
pub fn references(p: &Prepared) -> Vec<Reference> {
    let mut trees: BTreeMap<String, Reference> = BTreeMap::new();
    let mut tree = |spec: &UtsSpec, scale: f64| {
        let key = format!(
            "{}:{}:{:?}:{}:{scale}",
            spec.b0, spec.gen_mx, spec.shape, spec.seed
        );
        *trees
            .entry(key)
            .or_insert_with(|| uts_reference(spec, scale))
    };
    p.cells
        .iter()
        .map(|cell| match &cell.job {
            Job::Core { cfg, prog } => {
                let scale = cfg.profile.compute_scale;
                match prog {
                    Prog::Null => Reference::default(),
                    Prog::RecPFor(params) => Reference {
                        result: None,
                        t1_ns: params.recpfor_t1(scale).as_ns(),
                    },
                    Prog::Uts(spec) => tree(spec, scale),
                    Prog::Lcs(params) => Reference {
                        result: Some(lcs::lcs_reference(&params.a, &params.b) as u64),
                        t1_ns: params.t1(scale).as_ns(),
                    },
                }
            }
            Job::BotOneSided { spec, .. } | Job::BotTwoSided { spec, .. } => {
                tree(spec, profiles::itoa().compute_scale)
            }
        })
        .collect()
}

/// Check one pass against its references. Returns one message per
/// violated rule (empty = the pass is correct).
pub fn verify(p: &Prepared, refs: &[Reference], outs: &[CellOut]) -> Vec<String> {
    let mut bad = Vec::new();
    if outs.len() != p.cells.len() {
        bad.push(format!("{} of {} cells ran", outs.len(), p.cells.len()));
        return bad;
    }
    let mut recpfor_threads: Option<(u64, &str)> = None;
    for ((cell, r), out) in p.cells.iter().zip(refs).zip(outs) {
        let label = &cell.label;
        if !out.complete {
            bad.push(format!("{label}: outcome is not RunOutcome::Complete"));
            continue;
        }
        if let Some(want) = r.result {
            if out.result != Some(want) {
                bad.push(format!(
                    "{label}: result {:?}, serial reference {want}",
                    out.result
                ));
            }
        }
        // The greedy-scheduling sanity bound T1/P <= T_P.
        let capacity = out.makespan_ns as u128 * out.workers as u128;
        if (r.t1_ns as u128) > capacity {
            bad.push(format!(
                "{label}: efficiency {:.4} > 1 (T1 {} ns, P x makespan {capacity} ns)",
                r.t1_ns as f64 / capacity as f64,
                r.t1_ns
            ));
        }
        // RecPFor's task tree is a function of n alone: every seed,
        // policy and protocol must spawn the same number of threads.
        if let Job::Core {
            prog: Prog::RecPFor(_),
            ..
        } = &cell.job
        {
            match recpfor_threads {
                None => recpfor_threads = Some((out.counters.threads, label)),
                Some((want, first)) if out.counters.threads != want => bad.push(format!(
                    "{label}: {} threads, but {first} spawned {want}",
                    out.counters.threads
                )),
                Some(_) => {}
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let lcs_input = |seed| match &prepare("lcs_wavefront", seed, true).unwrap().cells[0].job {
            Job::Core {
                prog: Prog::Lcs(p), ..
            } => p.a.to_vec(),
            _ => unreachable!(),
        };
        assert_eq!(lcs_input(1), lcs_input(1));
        assert_ne!(lcs_input(1), lcs_input(2));
        let run_seed = |seed| match &prepare("uts_tree", seed, true).unwrap().cells[0].job {
            Job::Core { cfg, .. } => cfg.seed,
            _ => unreachable!(),
        };
        assert_eq!(run_seed(7), run_seed(7));
        assert_ne!(run_seed(7), run_seed(8));
    }

    #[test]
    fn every_workload_prepares_and_the_lattice_has_48_cells() {
        for w in &WORKLOADS {
            let p = prepare(w.name, 1, true).unwrap_or_else(|| panic!("{} has no inputs", w.name));
            assert!(!p.cells.is_empty());
        }
        assert_eq!(prepare("lattice_matrix", 1, true).unwrap().cells.len(), 48);
        assert!(prepare("nope", 1, true).is_none());
    }

    #[test]
    fn quick_uts_cell_matches_its_reference_and_repeats_exactly() {
        let p = prepare("uts_tree", 3, true).unwrap();
        let refs = references(&p);
        let a: Vec<CellOut> = p.cells.iter().map(|c| run_cell(c, false)).collect();
        let b: Vec<CellOut> = p.cells.iter().map(|c| run_cell(c, false)).collect();
        assert_eq!(verify(&p, &refs, &a), Vec::<String>::new());
        assert_eq!(fold_digests(&a), fold_digests(&b));
        assert_eq!(a[0].counters, b[0].counters);
        // A wrong reference must be caught.
        let mut wrong = refs.clone();
        wrong[0].result = Some(1);
        assert_eq!(verify(&p, &wrong, &a).len(), 1);
        // And so must an impossible efficiency.
        wrong[0] = Reference {
            result: refs[0].result,
            t1_ns: u64::MAX,
        };
        assert!(verify(&p, &wrong, &a)[0].contains("efficiency"));
    }

    #[test]
    fn null_program_is_construction_and_teardown_only() {
        for w in &WORKLOADS {
            let p = prepare(w.name, 1, true).unwrap();
            let out = run_cell(&p.null, false);
            assert!(out.complete, "{}", w.name);
            assert!(out.counters.threads <= 1, "{}", w.name);
        }
    }
}
