//! The ladder: tight-loop timings of each layer's public API, from outside.
//!
//! Each rung times one operation of one layer in isolation and reports
//! host nanoseconds per operation (median of [`ROUNDS`] rounds). The cost
//! model multiplies these unit costs by a run's exact counts to attribute
//! the run's host time to layers. Rungs are the same for every workload;
//! the deque rungs additionally report the *virtual* cost and verb count
//! of one uncontended steal per protocol — deterministic, the Table II
//! breakdown.

use std::hint::black_box;
use std::time::Instant;

use dcs_apps::lcs::leaf_kernel;
use dcs_apps::sha1::{sha1, sha1_child};
use dcs_apps::uts::{presets, serial_count};
use dcs_core::deque::{
    ff_owner_pop, ff_owner_push, ff_thief_claim, lf_owner_pop, lf_owner_push, lf_thief_claim,
    owner_pop, owner_push, thief_lock, thief_read_bounds, thief_take, FfSteal,
};
use dcs_core::layout::SegLayout;
use dcs_core::prelude::*;
use dcs_core::world::{QueueItem, WorkerShared};
use dcs_core::ClaimSet;
use dcs_sim::engine::EngineReport;
use dcs_sim::{
    Actor, Engine, EventQueue, GlobalAddr, Machine, MachineConfig, Mailbox, Segment, SimRng, Step,
    WorkerId, PAGE_BYTES,
};
use dcs_uniaddr::UniRegion;

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{self, run_cell, FAULT_PLAN};

const ROUNDS: usize = 3;

/// One measured rung: metric name, value, and operations per round.
pub struct Rung {
    pub name: String,
    pub value: f64,
    pub n: u64,
}

impl Rung {
    pub fn new(name: impl Into<String>, value: f64, n: u64) -> Rung {
        Rung {
            name: name.into(),
            value,
            n,
        }
    }
}

/// Time `op` over `iters` iterations on state from `setup` (built outside
/// the timed region); returns the median ns per iteration over the rounds.
fn per_op<S>(iters: u64, mut setup: impl FnMut() -> S, mut op: impl FnMut(&mut S, u64)) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut state = setup();
            let t0 = Instant::now();
            for i in 0..iters {
                op(&mut state, i);
            }
            let dt = t0.elapsed();
            black_box(&mut state);
            dt.as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Cheap deterministic step-to-step variation (an LCG), so that heap keys
/// and page indices do not fall into one cache-friendly pattern.
#[inline]
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

// -- sim.engine ---------------------------------------------------------------

fn queue_push_pop(workers: usize, iters: u64) -> f64 {
    per_op(
        iters,
        || (EventQueue::new(workers), 0x9E37_79B9_7F4A_7C15u64),
        |(q, x), _| {
            let (t, w) = q.pop().expect("queue never drains");
            q.push(t + VTime::ns(10 + (lcg(x) & 1023)), w);
            black_box(q.peek());
        },
    )
}

/// An actor that only yields: what the engine costs per step when the
/// world does nothing.
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
        Step::Yield(VTime::ns(10 + (lcg(&mut self.x) & 1023)))
    }
}

fn null_step(workers: usize, total_steps: u64) -> (f64, u64) {
    let per_actor = (total_steps / workers as u64).max(1) as u32;
    let mut steps = 0;
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let actors: Vec<NullActor> = (0..workers)
                .map(|w| NullActor {
                    left: per_actor,
                    x: w as u64,
                })
                .collect();
            let mut engine = Engine::new((), actors);
            let t0 = Instant::now();
            let EngineReport { steps: s, .. } = engine.run();
            let dt = t0.elapsed();
            steps = s;
            dt.as_nanos() as f64 / s as f64
        })
        .collect();
    (median(&samples), steps)
}

// -- sim.mem ------------------------------------------------------------------

const LADDER_SEG_BYTES: u32 = 16 << 20;

fn seg_pages() -> u64 {
    (LADDER_SEG_BYTES / PAGE_BYTES) as u64
}

fn word_in_page(x: &mut u64) -> u32 {
    ((lcg(x) % (PAGE_BYTES as u64 / 8)) * 8) as u32
}

fn mem_write_miss() -> (f64, u64) {
    // One first non-zero write per page: every iteration materializes one.
    let pages = seg_pages();
    let v = per_op(
        pages,
        || Segment::new(LADDER_SEG_BYTES, 0),
        |seg, i| seg.write(i as u32 * PAGE_BYTES, i | 1),
    );
    (v, pages)
}

fn mem_write_hit(iters: u64) -> f64 {
    let pages = seg_pages();
    per_op(
        iters,
        || {
            let mut seg = Segment::new(LADDER_SEG_BYTES, 0);
            for p in 0..pages {
                seg.write(p as u32 * PAGE_BYTES, 1);
            }
            (seg, 7u64)
        },
        |(seg, x), i| {
            let page = (lcg(x) % pages) as u32;
            seg.write(page * PAGE_BYTES + word_in_page(x), i | 1);
        },
    )
}

fn mem_read_absent(iters: u64) -> f64 {
    let pages = seg_pages();
    per_op(
        iters,
        || (Segment::new(LADDER_SEG_BYTES, 0), 11u64),
        |(seg, x), _| {
            let page = (lcg(x) % pages) as u32;
            black_box(seg.read(page * PAGE_BYTES + word_in_page(x)));
        },
    )
}

// -- sim.machine / sim.mailbox / sim.fault ----------------------------------------

fn two_worker_machine() -> Machine {
    Machine::new(MachineConfig::new(2, profiles::itoa()))
}

fn verb_blocking(iters: u64) -> f64 {
    per_op(iters, two_worker_machine, |m, i| {
        let addr = GlobalAddr::new(1, ((i & 1023) * 8) as u32);
        black_box(m.get_u64(0, addr));
    })
}

fn verb_posted(iters: u64) -> f64 {
    per_op(iters, two_worker_machine, |m, i| {
        let addr = GlobalAddr::new(1, ((i & 1023) * 8) as u32);
        let now = VTime::us(i);
        m.post_get_u64(0, addr, now);
        black_box(m.poll_cq(0, VTime::MAX));
    })
}

fn mailbox_send_recv(iters: u64) -> f64 {
    per_op(
        iters,
        || Mailbox::<u64>::new(64),
        |mb, i| {
            let (from, to) = ((i % 64) as usize, ((i * 7 + 1) % 64) as usize);
            mb.send(from, to, VTime::ns(i), i);
            black_box(mb.recv(to, VTime::ns(i)));
        },
    )
}

fn confirmed_dead(iters: u64) -> f64 {
    let workers = 128u64; // faulted_poll's worker count
    per_op(
        iters,
        || {
            let plan = FaultPlan::parse(FAULT_PLAN).expect("the frozen fault plan parses");
            Machine::new(MachineConfig::new(workers as usize, profiles::itoa()).with_faults(plan))
        },
        |m, i| {
            // Sweep workers and instants across the plan's kill times.
            let now = VTime::ns(1_000 * (i % 2_000));
            black_box(m.confirmed_dead((i % workers) as usize, now));
        },
    )
}

// -- uniaddr ------------------------------------------------------------------------

fn uni_place_release(iters: u64) -> f64 {
    // A resident nest of 8 frames, then place + release one child on top:
    // the shape of a fork/die pair at typical UTS depth.
    per_op(
        iters,
        || {
            let mut region = UniRegion::with_default_base(16 << 20);
            let mut top = None;
            for _ in 0..8 {
                top = Some(region.place_child(top, 16 << 10));
            }
            (region, top)
        },
        |(region, top), _| {
            let slot = region.place_child(*top, 16 << 10);
            region.release(black_box(slot));
        },
    )
}

// -- core.deque ---------------------------------------------------------------------

fn dq_body(_: Value, _: &mut TaskCtx) -> Effect {
    Effect::ret(0u64)
}

fn dq_item(tag: u64) -> QueueItem {
    QueueItem::Child {
        f: dq_body,
        arg: Value::U64(tag),
        handle: dcs_core::ThreadHandle::single(GlobalAddr::new(0, 8)),
    }
}

/// Two workers on ITO-A with the runtime's segment layout: worker 0 owns
/// the deque, worker 1 steals.
struct DequeRig {
    m: Machine,
    ws: WorkerShared,
    claims: ClaimSet,
    lay: SegLayout,
}

impl DequeRig {
    fn new() -> DequeRig {
        let cfg = RunConfig::new(2, Policy::ChildFull);
        let lay = SegLayout::new(&cfg);
        DequeRig {
            m: Machine::new(
                MachineConfig::new(2, profiles::itoa())
                    .with_seg_bytes(cfg.seg_bytes)
                    .with_reserved(lay.reserved),
            ),
            ws: WorkerShared::new(&cfg),
            claims: ClaimSet::new(),
            lay,
        }
    }

    fn push(&mut self, p: Protocol, tag: u64) {
        let DequeRig { m, ws, lay, .. } = self;
        match p {
            Protocol::CasLock => {
                owner_push(m, &mut ws.items, lay, 0, dq_item(tag)).expect("unlocked deque");
            }
            Protocol::LockFree => {
                lf_owner_push(m, &mut ws.items, lay, 0, dq_item(tag));
            }
            Protocol::FenceFree => {
                ff_owner_push(m, ws, lay, 0, dq_item(tag));
            }
        }
    }

    fn pop(&mut self, p: Protocol) -> Option<QueueItem> {
        let DequeRig { m, ws, claims, lay } = self;
        let (item, _) = match p {
            Protocol::CasLock => owner_pop(m, &mut ws.items, lay, 0),
            Protocol::LockFree => lf_owner_pop(m, &mut ws.items, lay, 0),
            Protocol::FenceFree => ff_owner_pop(m, ws, claims, lay, 0),
        }
        .expect("owner pop on a healthy deque");
        item
    }

    /// One uncontended steal of the single queued item by worker 1, as the
    /// serial (K = 1, blocking) idle loop composes it, payload transfer
    /// included. Returns the virtual cost charged to the thief.
    fn steal(&mut self, p: Protocol) -> VTime {
        let DequeRig { m, ws, claims, lay } = self;
        let (size, mut cost) = match p {
            Protocol::CasLock => {
                let (won, lock_cost) = thief_lock(m, lay, 1, 0);
                assert!(won, "uncontended lock");
                let (got, take_cost) = thief_take(m, &mut ws.items, lay, 1, 0).expect("live slot");
                let (_, size) = got.expect("one item queued");
                (size, lock_cost + take_cost)
            }
            Protocol::LockFree => {
                let ((top, _), bounds_cost) = thief_read_bounds(m, lay, 1, 0);
                let (got, claim_cost) =
                    lf_thief_claim(m, &mut ws.items, lay, 1, 0, top).expect("live slot");
                let (_, size) = got.expect("uncontended claim");
                (size, bounds_cost + claim_cost)
            }
            Protocol::FenceFree => {
                let ((top, _), bounds_cost) = thief_read_bounds(m, lay, 1, 0);
                let (outcome, claim_cost) = ff_thief_claim(m, ws, claims, lay, 1, 0, top);
                let FfSteal::Taken(_, size) = outcome else {
                    panic!("uncontended fence-free claim was {outcome:?}")
                };
                (size, bounds_cost + claim_cost)
            }
        };
        cost += m.get_bulk(1, 0, size);
        if p == Protocol::FenceFree {
            // A stolen Child's original stays in the owner's slab until the
            // owner walks past the claimed slot; that reclaim is part of
            // what a fence-free steal costs the host.
            assert!(self.pop(p).is_none(), "claimed slot reclaimed, not popped");
        }
        cost
    }
}

fn deque_rungs(out: &mut Vec<Rung>, iters: u64) {
    for p in Protocol::ALL {
        let label = p.label();
        let push_pop = per_op(iters, DequeRig::new, |rig, i| {
            rig.push(p, i);
            black_box(rig.pop(p));
        });
        out.push(Rung::new(
            format!("core.deque.push_pop_ns.{label}"),
            push_pop,
            iters,
        ));
        let steal = per_op(iters, DequeRig::new, |rig, i| {
            rig.push(p, i);
            black_box(rig.steal(p));
        });
        out.push(Rung::new(
            format!("core.deque.steal_ns.{label}"),
            steal,
            iters,
        ));
        // Virtual side: one steal on a fresh rig, counted exactly.
        let mut rig = DequeRig::new();
        rig.push(p, 0);
        let before = rig.m.stats(1).remote_total();
        let vcost = rig.steal(p);
        let verbs = rig.m.stats(1).remote_total() - before;
        out.push(Rung::new(
            format!("core.deque.steal_vns.{label}"),
            vcost.as_ns() as f64,
            1,
        ));
        out.push(Rung::new(
            format!("core.deque.steal_verbs.{label}"),
            verbs as f64,
            1,
        ));
    }
}

// -- apps ---------------------------------------------------------------------------

fn sha1_child_ns(iters: u64) -> f64 {
    per_op(
        iters,
        || sha1(b"root"),
        |d, i| *d = sha1_child(d, i as u32 & 7),
    )
}

fn uts_serial_ns_per_node(traversals: u64) -> (f64, u64) {
    let spec = presets::tiny();
    let nodes = serial_count(&spec).nodes;
    let per_traversal = per_op(
        traversals,
        || (),
        |_, _| {
            black_box(serial_count(black_box(&spec)));
        },
    );
    (per_traversal / nodes as f64, traversals * nodes)
}

fn lcs_leaf_ns(iters: u64) -> f64 {
    let n = 256usize;
    let mut rng = SimRng::new(1);
    let a: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    let b: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
    let edge = vec![0u32; n + 1];
    per_op(
        iters,
        || (),
        |_, _| {
            black_box(leaf_kernel(
                black_box(&a),
                black_box(&b),
                0,
                0,
                n,
                &edge,
                &edge,
            ));
        },
    )
}

// -- bench.sweep / check ---------------------------------------------------------------

/// `run_matrix` over the lattice cells at `--jobs nproc` against `--jobs 1`.
/// Reported, not gated: two threads on a shared two-core box measure the
/// host's scheduler as much as the harness.
fn sweep_speedup(seed: u64, quick: bool) -> (f64, bool, u64) {
    let lattice = workloads::prepare("lattice_matrix", seed, quick).expect("lattice workload");
    let jobs = dcs_bench::sweep::available_jobs();
    let pass = |jobs: usize| {
        let t0 = Instant::now();
        let r = dcs_bench::sweep::run_matrix(&lattice.cells, jobs, |_, cell| {
            let out = run_cell(cell, false);
            (out.makespan_ns, out.vdigest)
        });
        (t0.elapsed().as_secs_f64(), r)
    };
    let (seq_s, seq) = pass(1);
    let (par_s, par) = pass(jobs);
    (seq_s / par_s, seq == par, lattice.cells.len() as u64)
}

fn explore_rate(budget: u64) -> (f64, u64) {
    let scenario = dcs_check::by_name("deque-steal", 2, 0x5EED).expect("catalog scenario");
    // The two-worker space is small (tens of schedules at two delays), so
    // it is enumerated again and again until `budget` schedules have run.
    let mut schedules = 0;
    let t0 = Instant::now();
    while schedules < budget {
        let outcome =
            dcs_check::explore_exhaustive(&|c| scenario.run_choices(c), 2, budget - schedules);
        assert!(
            outcome.findings.is_empty(),
            "deque-steal must explore clean: {:?}",
            outcome.findings
        );
        schedules += outcome.schedules.max(1);
    }
    (schedules as f64 / t0.elapsed().as_secs_f64(), schedules)
}

/// Run every rung, one span each. `quick` runs a tenth of the iterations.
pub fn run(rec: &mut Recorder, seed: u64, quick: bool) -> Vec<Rung> {
    let scale = |n: u64| if quick { (n / 10).max(1) } else { n };
    let mut out: Vec<Rung> = Vec::new();
    let mut rung = |rec: &mut Recorder, name: &str, f: &mut dyn FnMut() -> (f64, u64)| {
        let ((value, n), _) = rec.span(&format!("ladder.{name}"), |_| f());
        out.push(Rung::new(name, value, n));
    };

    for w in [64usize, 16384] {
        let n = scale(1_000_000);
        rung(
            rec,
            &format!("sim.engine.queue_push_pop_ns.w{w}"),
            &mut || (queue_push_pop(w, n), n),
        );
        rung(rec, &format!("sim.engine.null_step_ns.w{w}"), &mut || {
            null_step(w, n)
        });
    }
    let n = scale(2_000_000);
    rung(rec, "sim.mem.write_hit_ns", &mut || (mem_write_hit(n), n));
    rung(rec, "sim.mem.write_miss_ns", &mut mem_write_miss);
    rung(rec, "sim.mem.read_absent_ns", &mut || {
        (mem_read_absent(n), n)
    });
    let n = scale(1_000_000);
    rung(rec, "sim.machine.verb_blocking_ns", &mut || {
        (verb_blocking(n), n)
    });
    rung(rec, "sim.machine.verb_posted_ns", &mut || {
        (verb_posted(n), n)
    });
    rung(rec, "sim.mailbox.send_recv_ns", &mut || {
        (mailbox_send_recv(n), n)
    });
    rung(rec, "sim.fault.confirmed_dead_ns", &mut || {
        (confirmed_dead(n), n)
    });
    rung(rec, "uniaddr.place_release_ns", &mut || {
        (uni_place_release(n), n)
    });
    let n = scale(500_000);
    rung(rec, "apps.sha1_child_ns", &mut || (sha1_child_ns(n), n));
    let n = scale(30);
    rung(rec, "apps.uts_serial_ns_per_node", &mut || {
        uts_serial_ns_per_node(n)
    });
    let n = scale(1_000);
    rung(rec, "apps.lcs_leaf_ns", &mut || (lcs_leaf_ns(n), n));
    let n = scale(2_000);
    rung(rec, "check.explore.schedules_per_s", &mut || {
        explore_rate(n)
    });

    let (deque, _) = rec.span("ladder.core.deque", |_| {
        let mut rungs = Vec::new();
        deque_rungs(&mut rungs, scale(200_000));
        rungs
    });
    out.extend(deque);

    let ((speedup, identical, cells), _) =
        rec.span("ladder.bench.sweep", |_| sweep_speedup(seed, quick));
    out.push(Rung::new("bench.sweep.speedup_jobs", speedup, cells));
    out.push(Rung::new(
        "bench.sweep.identical",
        identical as u64 as f64,
        cells,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_steal_per_protocol_has_the_documented_verb_mix() {
        let mut rungs = Vec::new();
        deque_rungs(&mut rungs, 50);
        let get = |name: &str| {
            rungs
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        // Fence-free steals use no AMO and fewer verbs than the CAS lock.
        assert!(get("core.deque.steal_verbs.fence-free") < get("core.deque.steal_verbs.cas-lock"));
        assert!(get("core.deque.steal_vns.fence-free") < get("core.deque.steal_vns.cas-lock"));
        for p in Protocol::ALL {
            assert!(get(&format!("core.deque.steal_vns.{}", p.label())) > 10_000.0);
            assert!(get(&format!("core.deque.push_pop_ns.{}", p.label())) > 0.0);
        }
    }

    #[test]
    fn null_engine_counts_every_step() {
        let (ns, steps) = null_step(64, 6_400);
        // 100 yields + 1 halt step per actor.
        assert_eq!(steps, 64 * 101);
        assert!(ns > 0.0);
    }
}
