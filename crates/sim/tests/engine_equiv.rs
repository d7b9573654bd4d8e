//! Property tests: the engine's winner-tree event queue is unobservable.
//!
//! The production [`Engine`] keeps the runnable set in a winner tree and
//! re-keys the stepping actor in place (`peek` → step → `rekey`/`remove` →
//! drain wake-ups). These tests drive the same randomized actor scripts
//! through the production engine *and* through a plain reference loop over
//! a `BinaryHeap` that pops and re-pushes on every step, and require
//! identical `(time, worker)` step sequences, end times, step counts and
//! final clocks. The scripts yield (zero durations are bumped to 1 ns,
//! duplicate durations make simultaneous events), park, halt, and wake
//! parked workers at instants before, equal to (tie broken by worker id
//! either way) and after the waking actor's own next key — from yielding,
//! parking and halting steps alike — and move a wake that is still queued
//! to an earlier instant, the way a mailbox delivery overtaking another
//! does. Fleets of 1, 2, 3, 64 and 1000 actors cover the one-leaf tree,
//! padded (non-power-of-two) trees and deep ones. Scripts that never park
//! must also run identically under `run_with_hook(&mut ())`.
//!
//! The raw [`EventQueue`] is checked separately against a `BTreeSet` model
//! over mixed `push/pop/rekey/remove/drain_sorted` sequences, and the
//! second half of the file proves that *parking* a polling actor (instead
//! of letting it re-poll) changes no virtual result: first a poller of a
//! flag with the wake rule written out, then a poller of a real
//! [`Mailbox`] parked through [`Machine::park_on_mailbox`].

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use dcs_sim::{
    profiles, Actor, Engine, EventQueue, Machine, MachineConfig, Mailbox, SimRng, Step, VTime,
    WorkerId,
};
use proptest::prelude::*;

/// Trace of every step the engine performed, in execution order.
type Trace = Vec<(VTime, WorkerId)>;

/// Fleet sizes: a single leaf, the smallest trees, a padded pair of leaves,
/// a full power of two and a padded deep tree.
const FLEETS: [usize; 5] = [1, 2, 3, 64, 1000];

/// What a scripted actor does after recording its step.
#[derive(Clone, Copy, Debug)]
enum Then {
    Yield(u64),
    Park,
}

/// One scripted step: optionally wake a parked worker, then yield or park.
#[derive(Clone, Copy, Debug)]
struct Act {
    /// `(selector, offset)`: wake the `selector % parked`-th parked worker
    /// at `now + offset` ns, if anyone is parked.
    wake: Option<(usize, u64)>,
    /// `(selector, back)`: move the `selector % woken`-th wake that is still
    /// queued up to `back + 1` ns earlier, if there is one and room for it.
    hasten: Option<(usize, u64)>,
    then: Then,
}

/// World of the scripted runs: the trace, the park registry and the wake
/// pipe both loops drain after every step.
#[derive(Default)]
struct SWorld {
    trace: Trace,
    parked: Vec<WorkerId>,
    wakeups: Vec<(VTime, WorkerId)>,
    /// Wakes handed out whose worker has not stepped since.
    woken: Vec<(VTime, WorkerId)>,
    /// Actors neither parked nor halted.
    running: usize,
}

impl SWorld {
    fn new(actors: usize) -> SWorld {
        SWorld {
            running: actors,
            ..SWorld::default()
        }
    }

    /// Unpark `target` at `now + offset`, or at the first instant whose key
    /// lies after the waking step's own key `(now, me)` — the one promise
    /// the machine's wake rule makes to the engine.
    fn wake(&mut self, slot: usize, now: VTime, me: WorkerId, offset: u64) {
        let target = self.parked.swap_remove(slot);
        let offset = offset.max(u64::from(target < me));
        self.wakeups.push((now + VTime::ns(offset), target));
        self.woken.push((now + VTime::ns(offset), target));
        self.running += 1;
    }

    /// Move the queued wake in `slot` earlier by up to `back + 1` ns, but
    /// never to before the first instant after the hastening step's own key
    /// `(now, me)`. A wake already at that instant stays where it is.
    fn hasten(&mut self, slot: usize, now: VTime, me: WorkerId, back: u64) {
        let (at, target) = self.woken[slot];
        let earliest = now + VTime::ns(u64::from(target < me));
        if earliest < at {
            let room = at.as_ns() - earliest.as_ns();
            let to = VTime::ns(at.as_ns() - (back % room + 1));
            self.woken[slot].0 = to;
            self.wakeups.push((to, target));
        }
    }
}

/// An actor that follows a fixed script, then halts. Its halting step
/// wakes everyone still parked, so no script can lose a wake-up.
#[derive(Clone)]
struct Scripted {
    script: Vec<Act>,
    next: usize,
}

impl Scripted {
    fn new(script: Vec<Act>) -> Scripted {
        Scripted { script, next: 0 }
    }

    fn yields(durations: &[u64]) -> Scripted {
        Scripted::new(
            durations
                .iter()
                .map(|&d| Act {
                    wake: None,
                    hasten: None,
                    then: Then::Yield(d),
                })
                .collect(),
        )
    }
}

impl Actor<SWorld> for Scripted {
    fn step(&mut self, me: WorkerId, now: VTime, world: &mut SWorld) -> Step {
        world.trace.push((now, me));
        world.woken.retain(|&(_, w)| w != me);
        let Some(&act) = self.script.get(self.next) else {
            world.running -= 1;
            while !world.parked.is_empty() {
                let offset = (world.parked.len() % 3) as u64;
                world.wake(0, now, me, offset);
            }
            return Step::Halt;
        };
        self.next += 1;
        if let Some((selector, offset)) = act.wake {
            if !world.parked.is_empty() {
                world.wake(selector % world.parked.len(), now, me, offset);
            }
        }
        if let Some((selector, back)) = act.hasten {
            if !world.woken.is_empty() {
                world.hasten(selector % world.woken.len(), now, me, back);
            }
        }
        match act.then {
            Then::Yield(d) => Step::Yield(VTime::ns(d)),
            // The last running actor keeps polling: somebody has to halt
            // and wake the rest.
            Then::Park if world.running == 1 => Step::Yield(VTime::ns(1)),
            Then::Park => {
                world.running -= 1;
                world.parked.push(me);
                Step::Park
            }
        }
    }
}

/// Everything a run can be observed by.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Trace,
    end: VTime,
    steps: u64,
    clocks: Vec<VTime>,
}

/// The reference event loop: a `BinaryHeap`, one pop and (on `Yield`) one
/// push per step, wake-ups pushed after every step — a wake for a worker
/// still waiting for an earlier wake replaces that entry, and must be
/// earlier. This is the semantics the production engine must reproduce
/// exactly.
fn reference_run(mut actors: Vec<Scripted>) -> Outcome {
    let n = actors.len();
    let mut heap: BinaryHeap<Reverse<(VTime, WorkerId)>> =
        (0..n).map(|w| Reverse((VTime::ZERO, w))).collect();
    let mut world = SWorld::new(n);
    let mut clocks = vec![VTime::ZERO; n];
    let mut steps = 0u64;
    let mut end = VTime::ZERO;
    while let Some(Reverse((t, w))) = heap.pop() {
        steps += 1;
        match actors[w].step(w, t, &mut world) {
            Step::Yield(d) => {
                let nt = t + d.max(VTime::ns(1));
                clocks[w] = nt;
                heap.push(Reverse((nt, w)));
            }
            Step::Park => clocks[w] = t,
            Step::Halt => {
                clocks[w] = t;
                end = end.max(t);
            }
        }
        for (t, w) in world.wakeups.drain(..) {
            let queued = heap.len();
            heap.retain(|&Reverse((_, q))| q != w);
            assert!(heap.len() == queued || t < clocks[w], "a wake only moves earlier");
            clocks[w] = t;
            heap.push(Reverse((t, w)));
        }
    }
    assert!(world.parked.is_empty(), "script lost a wake-up");
    Outcome {
        trace: world.trace,
        end,
        steps,
        clocks,
    }
}

fn engine_run(actors: Vec<Scripted>, hooked: bool) -> Outcome {
    let n = actors.len();
    let mut e = Engine::new(SWorld::new(n), actors)
        .with_waker(|w: &mut SWorld, out| out.append(&mut w.wakeups));
    let r = if hooked {
        e.run_with_hook(&mut ())
    } else {
        e.run()
    };
    let clocks = (0..n).map(|w| e.clock(w)).collect();
    let (world, _) = e.into_parts();
    Outcome {
        trace: world.trace,
        end: r.end_time,
        steps: r.steps,
        clocks,
    }
}

/// Engine == reference; and for scripts that never park, hooked == plain.
fn assert_equivalent(actors: Vec<Scripted>) {
    let parks = actors
        .iter()
        .any(|a| a.script.iter().any(|act| matches!(act.then, Then::Park)));
    let reference = reference_run(actors.clone());
    assert_eq!(
        reference,
        engine_run(actors.clone(), false),
        "run() diverged"
    );
    if !parks {
        assert_eq!(
            reference,
            engine_run(actors, true),
            "run_with_hook(&mut ()) diverged"
        );
    }
}

/// Scripts of 0–8 acts with durations and wake offsets from one small
/// range, so equal wakeup times (and wake instants on either side of the
/// waker's next key) are frequent. The fleets are too large to draw actor
/// by actor through the strategy combinators, so one drawn seed expands
/// into the scripts.
fn fleet(workers: usize, seed: u64, parks: bool) -> Vec<Scripted> {
    let mut rng = SimRng::new(seed);
    (0..workers)
        .map(|_| {
            let script = (0..rng.below(9))
                .map(|_| Act {
                    wake: (parks && rng.below(2) == 0)
                        .then(|| (rng.next_u64() as usize, rng.below(6))),
                    hasten: (parks && rng.below(3) == 0)
                        .then(|| (rng.next_u64() as usize, rng.below(4))),
                    then: if parks && rng.below(4) == 0 {
                        Then::Park
                    } else {
                        Then::Yield(rng.below(6))
                    },
                })
                .collect();
            Scripted::new(script)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Yield/Halt-only fleets: also pins `run_with_hook(&mut ())`.
    #[test]
    fn yielding_fleets_match_reference(size in 0usize..FLEETS.len(), seed in 0u64..u64::MAX) {
        assert_equivalent(fleet(FLEETS[size], seed, false));
    }

    /// Fleets that park, wake each other, and move queued wakes earlier.
    #[test]
    fn parking_fleets_match_reference(size in 0usize..FLEETS.len(), seed in 0u64..u64::MAX) {
        assert_equivalent(fleet(FLEETS[size], seed, true));
    }

    /// Long single-actor runs: the tree is one leaf, every step re-keys the
    /// root itself.
    #[test]
    fn single_actor_matches_reference(script in proptest::collection::vec(0u64..50, 0..64)) {
        assert_equivalent(vec![Scripted::yields(&script)]);
    }
}

/// A waker yielding 3 ns wakes a parked worker 2, 3 and 4 ns ahead — before,
/// at and after its own next key — with the parked worker's id on either
/// side of its own, and once more from its halting step.
#[test]
fn wake_instants_around_the_wakers_next_key() {
    for offset in [2, 3, 4] {
        for waker_first in [true, false] {
            let parker = Scripted::new(vec![
                Act {
                    wake: None,
                    hasten: None,
                    then: Then::Park,
                },
                Act {
                    wake: None,
                    hasten: None,
                    then: Then::Yield(1),
                },
                Act {
                    wake: None,
                    hasten: None,
                    then: Then::Park,
                },
            ]);
            let waker = Scripted::new(vec![
                Act {
                    wake: None,
                    hasten: None,
                    then: Then::Yield(5),
                },
                Act {
                    wake: Some((0, offset)),
                    hasten: None,
                    then: Then::Yield(3),
                },
                Act {
                    wake: None,
                    hasten: None,
                    then: Then::Yield(5),
                },
            ]);
            let fleet = if waker_first {
                vec![waker, parker]
            } else {
                vec![parker, waker]
            };
            let (w, p) = if waker_first { (0, 1) } else { (1, 0) };
            let out = reference_run(fleet.clone());
            let woken = VTime::ns(5 + offset);
            assert!(
                out.trace.contains(&(woken, p)),
                "parker not woken at {woken}"
            );
            // The tie at offset 3 goes to the lower worker id.
            let (iw, ip) = (
                out.trace
                    .iter()
                    .position(|&k| k == (VTime::ns(8), w))
                    .expect("waker's next step"),
                out.trace
                    .iter()
                    .position(|&k| k == (woken, p))
                    .expect("parker's wake step"),
            );
            assert_eq!(ip < iw, (woken, p) < (VTime::ns(8), w));
            // The parker parks again; the waker's Halt at 13 ns releases it
            // one nanosecond later.
            assert_eq!(out.trace.last(), Some(&(VTime::ns(14), p)));
            assert_equivalent(fleet);
        }
    }
}

#[test]
fn zero_yield_actors_halt_in_id_order() {
    // Three actors that never yield: three Halt steps at t=0, ids 0,1,2.
    let actors = vec![Scripted::new(vec![]); 3];
    assert_equivalent(actors.clone());
    let out = engine_run(actors, false);
    assert_eq!(
        out.trace,
        vec![(VTime::ZERO, 0), (VTime::ZERO, 1), (VTime::ZERO, 2)]
    );
    assert_eq!(out.end, VTime::ZERO);
    assert_eq!(out.steps, 3);
}

#[test]
fn simultaneous_halts_match_reference() {
    // Identical scripts → every wakeup and the final halts are ties; order
    // must be by worker id at each instant, same as the reference.
    assert_equivalent(vec![Scripted::yields(&[5, 5, 5]); 4]);
    // Mixed: one straggler outlives simultaneous early halts.
    assert_equivalent(vec![
        Scripted::yields(&[]),
        Scripted::yields(&[2, 2]),
        Scripted::yields(&[1, 1, 1, 1, 1, 1, 1]),
    ]);
}

// ---------------------------------------------------------------------
// The raw queue against a BTreeSet
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum QueueOp {
    /// Push the worker if idle, re-key it if queued.
    Set(usize, u64),
    /// Remove the worker if queued.
    Remove(usize),
    Pop,
    Drain,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        6 => (0usize..1000, 0u64..12).prop_map(|(w, t)| QueueOp::Set(w, t)),
        2 => (0usize..1000).prop_map(QueueOp::Remove),
        3 => Just(QueueOp::Pop),
        1 => Just(QueueOp::Drain),
    ]
}

fn check_queue(workers: usize, start_full: bool, ops: &[QueueOp]) {
    let mut q = if start_full {
        EventQueue::new(workers)
    } else {
        EventQueue::empty(workers)
    };
    let mut model: BTreeSet<(VTime, WorkerId)> = BTreeSet::new();
    let mut key: Vec<Option<VTime>> = vec![None; workers];
    if start_full {
        for (w, k) in key.iter_mut().enumerate() {
            model.insert((VTime::ZERO, w));
            *k = Some(VTime::ZERO);
        }
    }
    for &op in ops {
        match op {
            QueueOp::Set(w, t) => {
                let (w, t) = (w % workers, VTime::ns(t));
                match key[w].replace(t) {
                    Some(old) => {
                        q.rekey(w, t);
                        model.remove(&(old, w));
                    }
                    None => q.push(t, w),
                }
                model.insert((t, w));
            }
            QueueOp::Remove(w) => {
                let w = w % workers;
                if let Some(old) = key[w].take() {
                    q.remove(w);
                    model.remove(&(old, w));
                }
            }
            QueueOp::Pop => {
                let min = model.pop_first();
                assert_eq!(q.pop(), min, "after {op:?}");
                if let Some((_, w)) = min {
                    key[w] = None;
                }
            }
            QueueOp::Drain => {
                let all: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                assert_eq!(q.drain_sorted(), all);
                key.fill(None);
            }
        }
        assert_eq!(q.peek(), model.first().copied(), "after {op:?}");
        assert_eq!(q.len(), model.len());
        assert_eq!(q.is_empty(), model.is_empty());
    }
    let rest: Vec<_> = model.into_iter().collect();
    assert_eq!(std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(), rest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn queue_matches_btreeset(
        size in 0usize..FLEETS.len(),
        start_full in proptest::bool::ANY,
        ops in proptest::collection::vec(queue_op(), 0..200),
    ) {
        check_queue(FLEETS[size], start_full, &ops);
    }
}

// ---------------------------------------------------------------------
// Park/wake: parking a polling actor is unobservable
// ---------------------------------------------------------------------

/// World for the park/wake tests: a release event, the park registry, and
/// the wake pipe the engine drains after every step.
struct PWorld {
    trace: Trace,
    /// Engine key `(clock, worker)` of the releasing step, once it ran.
    release: Option<(VTime, WorkerId)>,
    /// `(since, worker)` of the parked poller, if any.
    park: Option<(VTime, WorkerId)>,
    wakeups: Vec<(VTime, WorkerId)>,
    /// Poll period in ns.
    grid: u64,
}

/// A poll at `(now, me)` observes the release iff the releasing step ran
/// strictly before it in engine key order (effects are eager).
fn sees(release: Option<(VTime, WorkerId)>, now: VTime, me: WorkerId) -> bool {
    release.is_some_and(|k| k < (now, me))
}

#[derive(Clone)]
enum Role {
    /// Yields `delay` once, then "releases" on its second step and halts.
    Writer { delay: u64, fired: bool },
    /// Polls every `grid` ns until the release is visible, then halts.
    Spinner,
    /// Like `Spinner`, but parks instead of re-polling; the writer's
    /// release wakes it at the first poll instant that observes the
    /// release — the same rule `Machine::wake_parked` implements.
    Parker,
}

impl Actor<PWorld> for Role {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut PWorld) -> Step {
        w.trace.push((now, me));
        match self {
            Role::Writer { delay, fired } => {
                if !*fired {
                    *fired = true;
                    return Step::Yield(VTime::ns(*delay));
                }
                w.release = Some((now, me));
                if let Some((since, p)) = w.park.take() {
                    let d = now.as_ns() - since.as_ns();
                    let g = w.grid;
                    let (j0, rem) = (d / g, d % g);
                    // First poll index j ≥ 1 with (since + j·g, p) > (now, me).
                    let j = if rem != 0 {
                        j0 + 1
                    } else if j0 >= 1 && p > me {
                        j0
                    } else {
                        j0 + 1
                    };
                    w.wakeups.push((VTime::ns(since.as_ns() + j * g), p));
                }
                Step::Halt
            }
            Role::Spinner => {
                if sees(w.release, now, me) {
                    Step::Halt
                } else {
                    Step::Yield(VTime::ns(w.grid))
                }
            }
            Role::Parker => {
                if sees(w.release, now, me) {
                    Step::Halt
                } else {
                    w.park = Some((now, me));
                    Step::Park
                }
            }
        }
    }
}

fn poll_run(actors: Vec<Role>, grid: u64) -> (Trace, VTime, Vec<VTime>) {
    let n = actors.len();
    let world = PWorld {
        trace: Trace::new(),
        release: None,
        park: None,
        wakeups: Vec::new(),
        grid,
    };
    let mut e = Engine::new(world, actors).with_waker(|w, out| out.append(&mut w.wakeups));
    let r = e.run();
    let clocks = (0..n).map(|w| e.clock(w)).collect();
    let (world, _) = e.into_parts();
    (world.trace, r.end_time, clocks)
}

/// Do the steps of `sub` occur in `of`, in order?
fn is_subsequence(sub: &Trace, of: &Trace) -> bool {
    let mut rest = of.iter();
    sub.iter().all(|e| rest.any(|s| s == e))
}

/// The parked run must halt every actor at the same virtual instant as the
/// polling run — its trace is the polling trace minus the skipped re-polls.
fn assert_park_equivalent(delay: u64, grid: u64, writer_first: bool) {
    let writer = Role::Writer { delay, fired: false };
    let (spin_fleet, park_fleet) = if writer_first {
        (
            vec![writer.clone(), Role::Spinner],
            vec![writer, Role::Parker],
        )
    } else {
        (
            vec![Role::Spinner, writer.clone()],
            vec![Role::Parker, writer],
        )
    };
    let (st, send, sclocks) = poll_run(spin_fleet, grid);
    let (pt, pend, pclocks) = poll_run(park_fleet, grid);
    assert_eq!(
        send, pend,
        "end_time diverged (delay={delay} grid={grid} writer_first={writer_first})"
    );
    assert_eq!(
        sclocks, pclocks,
        "final clocks diverged (delay={delay} grid={grid} writer_first={writer_first})"
    );
    // The parked trace is a subsequence of the polling trace (only failed
    // re-polls are skipped), with identical first and last poller steps.
    assert!(
        is_subsequence(&pt, &st),
        "parked trace is not a subsequence (delay={delay} grid={grid} writer_first={writer_first})"
    );
    assert_eq!(st.last(), pt.last(), "final steps diverged");
    assert!(pt.len() <= st.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random release delays (on- and off-grid, both id orders): parking
    /// the poller never changes end time, final clocks, or the poller's
    /// wake step — only the number of host steps.
    #[test]
    fn park_is_unobservable(delay in 1u64..200, grid in 2u64..12, writer_first in proptest::bool::ANY) {
        assert_park_equivalent(delay, grid, writer_first);
    }
}

/// The exact-grid tie: release lands precisely on a poll instant. Whether
/// the poll at that instant sees it depends on the worker-id tiebreak.
#[test]
fn park_wake_grid_tie_is_exact() {
    for &grid in &[5u64, 10] {
        for k in 1..6 {
            assert_park_equivalent(k * grid, grid, true); // writer id < poller id
            assert_park_equivalent(k * grid, grid, false); // writer id > poller id
        }
    }
}

#[test]
#[should_panic(expected = "still parked — lost wakeup: [0]")]
fn lost_wakeup_panics() {
    // A parker with no writer: the queue drains with it still parked.
    let world = PWorld {
        trace: Trace::new(),
        release: None,
        park: None,
        wakeups: Vec::new(),
        grid: 10,
    };
    let mut e = Engine::new(world, vec![Role::Parker]).with_waker(|w, out| out.append(&mut w.wakeups));
    e.run();
}

#[test]
#[should_panic(expected = "requires a waker")]
fn park_without_waker_panics() {
    let world = PWorld {
        trace: Trace::new(),
        release: None,
        park: None,
        wakeups: Vec::new(),
        grid: 10,
    };
    let mut e = Engine::new(world, vec![Role::Parker]);
    e.run();
}

/// A later wake for a worker whose wake is still queued moves it earlier:
/// worker 1 parks, worker 0 wakes it 9 ns ahead and then, two steps later,
/// pulls that wake in to the next nanosecond.
#[test]
fn a_queued_wake_moves_earlier() {
    let act = |wake, hasten, then| Act { wake, hasten, then };
    let fleet = vec![
        Scripted::new(vec![
            act(None, None, Then::Yield(2)),
            act(Some((0, 9)), None, Then::Yield(1)),
            act(None, None, Then::Yield(1)),
            act(None, Some((0, 6)), Then::Yield(20)),
        ]),
        Scripted::new(vec![act(None, None, Then::Park)]),
    ];
    let out = engine_run(fleet.clone(), false);
    // Woken at 2 for 11, hastened at 4 by all 7 ns there is room for: id 1
    // steps after id 0 at the same instant.
    assert!(out.trace.contains(&(VTime::ns(4), 1)), "{:?}", out.trace);
    assert!(!out.trace.contains(&(VTime::ns(11), 1)));
    assert_equivalent(fleet);
}

// ---------------------------------------------------------------------
// Park/wake on a mailbox: parking a receiver is unobservable
// ---------------------------------------------------------------------

/// World of the mailbox runs: a real machine and mailbox, the step trace
/// and the receiver's log of `(poll instant, sender, message)`.
struct MWorld {
    m: Machine,
    mb: Mailbox<u32>,
    trace: Trace,
    got: Vec<(VTime, WorkerId, u32)>,
    /// The receiver, and its poll period in ns.
    rx: WorkerId,
    grid: u64,
}

#[derive(Clone)]
enum Mail {
    /// Each step sends the next message — `flight` ns one way — to the
    /// receiver and yields `gap`; halts when the script is through.
    Sender { script: Vec<(u64, u64)>, next: u32 },
    /// Yields `delay`, then raises the done flag and halts.
    Closer { delay: u64, fired: bool },
    /// Polls its mailbox every `grid` ns, one local op a poll, until the
    /// done flag is up — re-polling, or parked on the mailbox in between.
    Receiver { parks: bool },
}

impl Actor<MWorld> for Mail {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut MWorld) -> Step {
        w.trace.push((now, me));
        w.m.begin_step(me, now);
        match self {
            Mail::Sender { script, next } => {
                let Some(&(gap, flight)) = script.get(*next as usize) else {
                    return Step::Halt;
                };
                w.mb.send(me, w.rx, now + VTime::ns(flight), *next);
                if let Some(at) = w.mb.next_delivery(w.rx) {
                    w.m.note_delivery(w.rx, at);
                }
                *next += 1;
                Step::Yield(VTime::ns(gap))
            }
            Mail::Closer { delay, fired } => {
                if !*fired {
                    *fired = true;
                    return Step::Yield(VTime::ns(*delay));
                }
                w.m.set_done();
                Step::Halt
            }
            Mail::Receiver { parks } => {
                w.m.unpark(me);
                if w.m.is_done() {
                    return Step::Halt;
                }
                w.m.local_op(me);
                if let Some((from, msg)) = w.mb.recv(me, now) {
                    w.got.push((now, from, msg));
                }
                let grid = VTime::ns(w.grid);
                if *parks {
                    w.m.park_on_mailbox(me, w.mb.next_delivery(me), grid, 1);
                    Step::Park
                } else {
                    Step::Yield(grid)
                }
            }
        }
    }
}

/// Everything a mailbox run can be observed by, host steps aside.
#[derive(Debug, PartialEq)]
struct MailOutcome {
    got: Vec<(VTime, WorkerId, u32)>,
    end: VTime,
    clocks: Vec<VTime>,
    /// The receiver's local ops: one per poll, made or skipped.
    polls: u64,
}

/// Run `senders` and a closer around a receiver at position `rx`.
fn mail_run(senders: &[Mail], rx: usize, grid: u64, parks: bool) -> (MailOutcome, Trace) {
    let mut actors = senders.to_vec();
    actors.insert(rx, Mail::Receiver { parks });
    let n = actors.len();
    let world = MWorld {
        m: Machine::new(MachineConfig::new(n, profiles::test_profile())),
        mb: Mailbox::new(n),
        trace: Trace::new(),
        got: Vec::new(),
        rx,
        grid,
    };
    let mut e = Engine::new(world, actors).with_waker(|w, out| w.m.take_wakeups(out));
    let r = e.run();
    let clocks = (0..n).map(|w| e.clock(w)).collect();
    let (w, _) = e.into_parts();
    let out = MailOutcome {
        got: w.got,
        end: r.end_time,
        clocks,
        polls: w.m.stats(rx).local_ops,
    };
    (out, w.trace)
}

/// The parked run delivers every message at the instant the polling run
/// does, halts everybody when it does and charges the receiver as many
/// polls; its trace is the polling trace minus the skipped polls. Returns
/// the delivery log.
fn assert_mail_equivalent(senders: &[Mail], rx: usize, grid: u64) -> Vec<(VTime, WorkerId, u32)> {
    let (spin, st) = mail_run(senders, rx, grid, false);
    let (park, pt) = mail_run(senders, rx, grid, true);
    assert_eq!(spin, park, "rx={rx} grid={grid}");
    assert!(
        is_subsequence(&pt, &st),
        "parked trace is not a subsequence (rx={rx} grid={grid})"
    );
    park.got
}

fn sender(script: &[(u64, u64)]) -> Mail {
    Mail::Sender { script: script.to_vec(), next: 0 }
}

fn closer(delay: u64) -> Mail {
    Mail::Closer { delay, fired: false }
}

/// Deliveries one nanosecond before, exactly on and one after a poll
/// instant, with the receiver's id below and above the sender's: the poll
/// at the delivery instant receives the message whichever way the ids
/// fall (the send itself ran at an earlier instant).
#[test]
fn mail_around_a_poll_instant() {
    for grid in [4u64, 10] {
        for rx in [0, 1, 2] {
            for (flight, at) in [(3 * grid - 2, 3 * grid), (3 * grid - 1, 3 * grid), (3 * grid, 4 * grid)] {
                // Sent at 1 ns, delivered at 1 + flight.
                let senders = [sender(&[(1, 0), (0, flight)]), closer(9 * grid)];
                let got = assert_mail_equivalent(&senders, rx, grid);
                let from = if rx == 0 { 1 } else { 0 };
                assert_eq!(got[1], (VTime::ns(at), from, 1), "grid={grid} rx={rx} flight={flight}");
            }
        }
    }
}

/// A message sent later overtakes one in flight: the wake computed from
/// the first must move earlier, and the credit for skipped polls with it.
#[test]
fn later_mail_overtakes_mail_in_flight() {
    for rx in [0, 1, 2] {
        let senders = [sender(&[(0, 50)]), sender(&[(5, 90), (0, 3)]), closer(200)];
        let got = assert_mail_equivalent(&senders, rx, 4);
        let (slow, fast) = if rx == 0 { (1, 2) } else if rx == 1 { (0, 2) } else { (0, 1) };
        assert_eq!(
            got,
            vec![
                (VTime::ns(8), fast, 1),
                (VTime::ns(52), slow, 0),
                (VTime::ns(92), fast, 0)
            ]
        );
    }
}

/// Two messages deliverable at the same poll: the poll takes one and the
/// receiver parks with the other already deliverable — woken one grid on.
#[test]
fn mail_already_deliverable_at_park_time() {
    for rx in [0, 1] {
        let senders = [sender(&[(0, 3), (0, 3)]), closer(40)];
        let got = assert_mail_equivalent(&senders, rx, 4);
        let from = 1 - rx;
        assert_eq!(got, vec![(VTime::ns(4), from, 0), (VTime::ns(8), from, 1)]);
    }
}

/// The done flag racing a delivery: raised before, at and after the poll
/// instant a message in flight lands on, ids either way.
#[test]
fn done_races_a_delivery() {
    for rx in [0, 1, 2] {
        for done_at in [7, 8, 9, 11, 12, 13] {
            for flight in [7, 8, 11, 12] {
                let senders = [sender(&[(0, flight)]), closer(done_at)];
                assert_mail_equivalent(&senders, rx, 4);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random senders (zero-latency messages included), a random closing
    /// time and the receiver anywhere in the id order.
    #[test]
    fn parking_on_a_mailbox_is_unobservable(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u64..30, 0u64..60), 0..8), 1..4),
        done_at in 1u64..300,
        rx in 0usize..5,
        grid in 1u64..12,
    ) {
        let mut senders: Vec<Mail> = scripts.iter().map(|s| sender(s)).collect();
        senders.push(closer(done_at));
        assert_mail_equivalent(&senders, rx % (senders.len() + 1), grid);
    }
}
