//! The discrete-event engine.
//!
//! Workers are [`Actor`]s. The engine repeatedly runs the actor whose virtual
//! clock is smallest — the root of the [`EventQueue`] winner tree; ties are
//! broken by worker id, so execution is fully deterministic — passing it
//! mutable access to the shared world `W` (the [`crate::Machine`] plus
//! whatever runtime state sits next to it). Each call performs one slice of
//! work and returns how much virtual time it consumed.
//!
//! This "sequentialized concurrency" style is the standard way simulators
//! (SimGrid, gem5 event queues) model asynchronous agents on one host thread:
//! because only the minimum-clock actor ever runs, no other actor can have an
//! earlier pending action, so applying memory effects eagerly is safe.

use crate::time::VTime;
use crate::WorkerId;

/// What an actor did in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Advance this actor's clock by the given duration and reschedule it.
    /// Zero durations are bumped to 1 ns to guarantee progress.
    Yield(VTime),
    /// The actor is waiting on a world-side event and must not be
    /// rescheduled until the world's waker (see [`Engine::with_waker`])
    /// reports a wake instant for it. The world layer is responsible for
    /// computing a wake time that reproduces the exact step the actor
    /// would have made had it kept polling — parking is a host-side
    /// fast-path, never a change to simulated behaviour. The wake may be
    /// reported in the parking step itself (a deadline: the first instant
    /// the polls could observe something time-driven) or by any later
    /// step. A wake reported for a worker whose wake is already queued
    /// moves it to the new, earlier instant (a write or a mailbox delivery
    /// that calls for an earlier poll than the queued deadline or
    /// delivery).
    Park,
    /// The actor is finished and must not be scheduled again.
    Halt,
}

/// A simulated worker process.
pub trait Actor<W> {
    /// Perform one slice of work. `now` is this actor's current virtual
    /// clock; all fabric costs incurred must be reflected in the returned
    /// [`Step::Yield`] duration.
    fn step(&mut self, me: WorkerId, now: VTime, world: &mut W) -> Step;
}

/// Result of driving a simulation to completion.
#[derive(Debug, Clone, Copy)]
pub struct EngineReport {
    /// Virtual time at which the last actor halted.
    pub end_time: VTime,
    /// Total actor steps executed (a proxy for host-side simulation work).
    pub steps: u64,
}

/// A schedule controller for [`Engine::run_with_hook`].
///
/// At every scheduling decision the controller sees the full runnable set,
/// sorted ascending by `(clock, worker)`, and picks which actor steps next
/// by index. Returning 0 at every decision reproduces [`Engine::run`]'s
/// order exactly (pinned by a unit test below); any other index runs an
/// actor whose virtual clock is *ahead* of the minimum, which reorders the
/// actors' memory effects relative to each other without perturbing any
/// actor's own virtual-time accounting — exactly the nondeterminism
/// envelope a real fabric has, where one node's verb can land before or
/// after another node's within a latency window.
///
/// This is the seam `dcs-check` explores interleavings through: an
/// out-of-range index is clamped to the last eligible entry, so a recorded
/// choice sequence stays replayable even when the runnable set is smaller
/// on replay.
pub trait ScheduleHook {
    /// Pick the index (into `eligible`) of the actor to step next.
    /// `eligible` is non-empty and sorted ascending by `(clock, worker)`.
    fn choose(&mut self, eligible: &[(VTime, WorkerId)]) -> usize;
}

/// The default schedule: always the minimum-key actor (index 0).
impl ScheduleHook for () {
    fn choose(&mut self, _eligible: &[(VTime, WorkerId)]) -> usize {
        0
    }
}

/// Leaf key of a worker that is not queued. No real key collides with it:
/// that would take worker id `u64::MAX`.
const IDLE: u128 = u128::MAX;

/// Smallest leaf key of a parked worker. A parked worker `w` keeps the key
/// `(VTime::MAX, w)` — asleep until the end of time unless woken — so it
/// sorts behind every real key, never becomes the next event, and can still
/// be told from a halted worker ([`IDLE`]) without a byte of extra state.
const PARKED: u128 = (u64::MAX as u128) << 64;

fn pack(t: VTime, w: WorkerId) -> u128 {
    (t.as_ns() as u128) << 64 | w as u128
}

fn unpack(key: u128) -> (VTime, WorkerId) {
    (VTime::ns((key >> 64) as u64), key as u64 as WorkerId)
}

/// The engine's event queue: a winner (tournament) tree over the workers.
///
/// Every worker owns one fixed leaf holding its next wakeup, packed with
/// the worker id into one integer so that integer order *is* the
/// `(VTime, WorkerId)` order ([`IDLE`] = not queued, greater than every
/// key; [`PARKED`] and up = parked, greater than every real key). Each
/// internal node is the minimum of its two children, so the root
/// is the next event and changing one worker's key is a single leaf-to-root
/// pass of ⌈log₂ W⌉ `min` steps with no element moves and no position
/// index: a stepping actor is re-keyed in place, never popped and re-pushed.
///
/// Keys are unique — `w` breaks every time tie — so the pop order is the
/// one `(VTime, WorkerId)` total order, whatever the container;
/// `tests/engine_equiv.rs` pins it against a `BinaryHeap` and a `BTreeSet`.
pub struct EventQueue {
    /// Implicit binary tree: root at 1, children of `i` at `2i` and
    /// `2i + 1`, worker `w`'s leaf at `leaves + w`; leaves past the last
    /// worker (padding to a power of two) stay [`IDLE`].
    tree: Vec<u128>,
    /// Leaf count: the worker count rounded up to a power of two.
    leaves: usize,
    /// Number of queued workers.
    len: usize,
}

impl EventQueue {
    /// Queue with every worker `0..workers` scheduled at `VTime::ZERO`.
    pub fn new(workers: usize) -> EventQueue {
        let mut q = EventQueue::empty(workers);
        q.len = workers;
        for w in 0..workers {
            q.tree[q.leaves + w] = pack(VTime::ZERO, w);
        }
        for i in (1..q.leaves).rev() {
            q.tree[i] = q.tree[2 * i].min(q.tree[2 * i + 1]);
        }
        q
    }

    /// Empty queue able to hold `workers` distinct workers.
    pub fn empty(workers: usize) -> EventQueue {
        let leaves = workers.next_power_of_two();
        EventQueue {
            tree: vec![IDLE; 2 * leaves],
            leaves,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn queued(&self, w: WorkerId) -> bool {
        self.tree[self.leaves + w] < PARKED
    }

    /// Is worker `w` parked (see [`EventQueue::park`])?
    pub fn parked(&self, w: WorkerId) -> bool {
        (PARKED..IDLE).contains(&self.tree[self.leaves + w])
    }

    /// The parked workers, ascending. One look at the root when nobody is
    /// queued or parked.
    pub fn parked_workers(&self) -> Vec<WorkerId> {
        let workers = if self.tree[1] == IDLE { 0 } else { self.leaves };
        (0..workers).filter(|&w| self.parked(w)).collect()
    }

    /// The minimum `(wakeup, worker)` key, if any.
    #[inline]
    pub fn peek(&self) -> Option<(VTime, WorkerId)> {
        let root = self.tree[1];
        (root < PARKED).then(|| unpack(root))
    }

    /// Remove and return the minimum key.
    pub fn pop(&mut self) -> Option<(VTime, WorkerId)> {
        self.peek().inspect(|&(_, w)| self.remove(w))
    }

    /// Schedule worker `w` at time `t`. The worker must not already be
    /// queued (each worker has exactly one next wakeup); it may be parked.
    #[inline]
    pub fn push(&mut self, t: VTime, w: WorkerId) {
        debug_assert!(!self.queued(w), "worker {w} already queued");
        self.len += 1;
        self.set_leaf(w, pack(t, w));
    }

    /// Move the queued worker `w` to time `t`.
    #[inline]
    pub fn rekey(&mut self, w: WorkerId, t: VTime) {
        debug_assert!(self.queued(w), "worker {w} is not queued");
        self.set_leaf(w, pack(t, w));
    }

    /// Take the queued worker `w` out of the queue.
    #[inline]
    pub fn remove(&mut self, w: WorkerId) {
        debug_assert!(self.queued(w), "worker {w} is not queued");
        self.len -= 1;
        self.set_leaf(w, IDLE);
    }

    /// Take the queued worker `w` out of the queue until somebody
    /// [`push`](EventQueue::push)es it back.
    #[inline]
    pub fn park(&mut self, w: WorkerId) {
        debug_assert!(self.queued(w), "worker {w} is not queued");
        self.len -= 1;
        self.set_leaf(w, pack(VTime::MAX, w));
    }

    /// Drain the queue into an ascending `(wakeup, worker)` vector.
    pub fn drain_sorted(&mut self) -> Vec<(VTime, WorkerId)> {
        std::iter::from_fn(|| self.pop()).collect()
    }

    /// Write worker `w`'s leaf and replay its matches up to the root.
    ///
    /// Who wins a match is data the branch predictor cannot learn, so the
    /// winner is blended with a mask instead of chosen by a jump. The mask
    /// goes through `black_box` because the compiler otherwise recognises
    /// the blend as a `min` and, in a loop that carries its result, turns
    /// it back into a jump (measured with null actors at W = 16 384: 85 ns
    /// per step with the jump, 45 ns without).
    #[inline]
    fn set_leaf(&mut self, w: WorkerId, mut key: u128) {
        let mut i = self.leaves + w;
        self.tree[i] = key;
        while i > 1 {
            let sibling = self.tree[i ^ 1];
            let wins = std::hint::black_box((key < sibling) as u64);
            let mask = 0u128.wrapping_sub(wins as u128);
            key = sibling ^ ((key ^ sibling) & mask);
            i >>= 1;
            self.tree[i] = key;
        }
    }
}

/// World-side waker: appends every pending `(wake instant, worker)` pair.
pub type Waker<W> = fn(&mut W, &mut Vec<(VTime, WorkerId)>);

/// The event loop: a winner tree of `(clock, worker)` keys over the actors
/// (see [`EventQueue`]).
pub struct Engine<W, A> {
    pub world: W,
    actors: Vec<A>,
    queue: EventQueue,
    clocks: Vec<VTime>,
    max_steps: u64,
    /// Drains the world's pending `(wake instant, worker)` pairs after
    /// every actor step; required before any actor may return
    /// [`Step::Park`]. A plain `fn` so `Engine` stays free of extra type
    /// parameters.
    waker: Option<Waker<W>>,
    wake_buf: Vec<(VTime, WorkerId)>,
}

impl<W, A: Actor<W>> Engine<W, A> {
    pub fn new(world: W, actors: Vec<A>) -> Engine<W, A> {
        let n = actors.len();
        Engine {
            world,
            actors,
            queue: EventQueue::new(n),
            clocks: vec![VTime::ZERO; n],
            // Generous default: aborts runaway simulations (a scheduling
            // deadlock would otherwise spin in idle loops forever).
            max_steps: 20_000_000_000,
            waker: None,
            wake_buf: Vec::new(),
        }
    }

    /// Override the runaway-step guard.
    pub fn with_max_steps(mut self, max: u64) -> Self {
        self.max_steps = max;
        self
    }

    /// Install the world-side waker that feeds parked actors back into the
    /// event queue (see [`Step::Park`]).
    pub fn with_waker(mut self, waker: Waker<W>) -> Self {
        self.waker = Some(waker);
        self
    }

    /// Drain the world's pending wakeups into the event queue. Called after
    /// *every* actor step: a step's memory effects may unpark a worker
    /// whose wake instant lies before the stepping actor's own next key,
    /// so the wakes must be in the tree before the next scheduling
    /// decision. A wake for a worker that is parked queues it; a wake for
    /// one whose wake is still queued moves that wake earlier.
    #[inline]
    fn drain_wakeups(&mut self) {
        if let Some(f) = self.waker {
            f(&mut self.world, &mut self.wake_buf);
            for &(t, w) in &self.wake_buf {
                if self.queue.parked(w) {
                    self.queue.push(t, w);
                } else {
                    assert!(
                        self.queue.queued(w) && t < self.clocks[w],
                        "wakeup at {t} for worker {w}, which is neither parked \
                         nor queued for a later wake"
                    );
                    self.queue.rekey(w, t);
                }
                self.clocks[w] = t;
            }
            self.wake_buf.clear();
        }
    }

    /// Drive all actors until every one has halted.
    ///
    /// Panics if `max_steps` is exceeded — in this codebase that always
    /// indicates a scheduling bug (lost task, missed wakeup), so failing loud
    /// beats hanging a benchmark run.
    ///
    /// Each iteration peeks the minimum key, steps that actor while it is
    /// still queued, re-keys it to its next wakeup (or parks / removes it
    /// on `Park` / `Halt`) in one tree pass, then drains the step's
    /// wake-ups.
    pub fn run(&mut self) -> EngineReport {
        let mut steps = 0u64;
        let mut end = VTime::ZERO;
        while let Some((t, w)) = self.queue.peek() {
            steps += 1;
            assert!(
                steps <= self.max_steps,
                "engine exceeded {} steps at t={} — scheduling deadlock?",
                self.max_steps,
                t
            );
            match self.actors[w].step(w, t, &mut self.world) {
                Step::Yield(d) => {
                    let nt = t + d.max(VTime::ns(1));
                    self.clocks[w] = nt;
                    self.queue.rekey(w, nt);
                }
                Step::Park => {
                    assert!(
                        self.waker.is_some(),
                        "Step::Park requires a waker (Engine::with_waker)"
                    );
                    self.clocks[w] = t;
                    self.queue.park(w);
                }
                Step::Halt => {
                    self.clocks[w] = t;
                    end = end.max(t);
                    self.queue.remove(w);
                }
            }
            self.drain_wakeups();
        }
        let lost = self.queue.parked_workers();
        assert!(
            lost.is_empty(),
            "event queue drained with {} worker(s) still parked — lost wakeup: {lost:?}",
            lost.len()
        );
        EngineReport {
            end_time: end,
            steps,
        }
    }

    /// Drive all actors to completion under an external schedule
    /// controller (see [`ScheduleHook`]). The runnable set is kept as a
    /// sorted vector instead of the tree — exploration runs are small and
    /// picking by index needs the whole order. Choosing index 0 at every
    /// decision executes the identical `(time, worker)` sequence as
    /// [`Engine::run`].
    pub fn run_with_hook<H: ScheduleHook + ?Sized>(&mut self, hook: &mut H) -> EngineReport {
        let mut runnable: Vec<(VTime, WorkerId)> = self.queue.drain_sorted();
        let mut steps = 0u64;
        let mut end = VTime::ZERO;
        while !runnable.is_empty() {
            let idx = hook.choose(&runnable).min(runnable.len() - 1);
            let (t, w) = runnable.remove(idx);
            steps += 1;
            assert!(
                steps <= self.max_steps,
                "engine exceeded {} steps at t={} — scheduling deadlock?",
                self.max_steps,
                t
            );
            match self.actors[w].step(w, t, &mut self.world) {
                Step::Yield(d) => {
                    let nt = t + d.max(VTime::ns(1));
                    self.clocks[w] = nt;
                    let pos = runnable
                        .binary_search(&(nt, w))
                        .expect_err("(clock, worker) keys are unique");
                    runnable.insert(pos, (nt, w));
                }
                Step::Park => {
                    // Exploration reorders actor steps, which breaks the
                    // wake-instant computation (it assumes minimum-key
                    // order); runs under a hook must disable parking.
                    panic!("Step::Park is not supported under schedule exploration");
                }
                Step::Halt => {
                    self.clocks[w] = t;
                    end = end.max(t);
                }
            }
        }
        EngineReport {
            end_time: end,
            steps,
        }
    }

    /// Clock of worker `w` (final clock after `run`).
    pub fn clock(&self, w: WorkerId) -> VTime {
        self.clocks[w]
    }

    pub fn actors(&self) -> &[A] {
        &self.actors
    }

    pub fn actors_mut(&mut self) -> &mut [A] {
        &mut self.actors
    }

    /// Consume the engine, returning the world and actors for inspection.
    pub fn into_parts(self) -> (W, Vec<A>) {
        (self.world, self.actors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts down, yielding a fixed duration each step.
    struct Countdown {
        remaining: u32,
        dur: VTime,
        log: Vec<VTime>,
    }

    impl Actor<Vec<(WorkerId, VTime)>> for Countdown {
        fn step(&mut self, me: WorkerId, now: VTime, world: &mut Vec<(WorkerId, VTime)>) -> Step {
            if self.remaining == 0 {
                return Step::Halt;
            }
            self.remaining -= 1;
            self.log.push(now);
            world.push((me, now));
            Step::Yield(self.dur)
        }
    }

    #[test]
    fn runs_in_global_time_order() {
        let actors = vec![
            Countdown {
                remaining: 3,
                dur: VTime::ns(10),
                log: vec![],
            },
            Countdown {
                remaining: 3,
                dur: VTime::ns(4),
                log: vec![],
            },
        ];
        let mut e = Engine::new(Vec::new(), actors);
        let report = e.run();
        // Interleaving: events must be globally sorted by time (ties by id).
        let times: Vec<_> = e.world.iter().map(|&(w, t)| (t, w)).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        // Worker 1 finishes its 3 steps at t=12, worker 0 at t=30.
        assert_eq!(report.end_time, VTime::ns(30));
        assert_eq!(report.steps, 3 + 3 + 2); // 3 yields each + 2 halt steps
    }

    #[test]
    fn zero_yield_still_progresses() {
        struct Zeros(u32);
        impl Actor<()> for Zeros {
            fn step(&mut self, _me: WorkerId, _now: VTime, _w: &mut ()) -> Step {
                if self.0 == 0 {
                    return Step::Halt;
                }
                self.0 -= 1;
                Step::Yield(VTime::ZERO)
            }
        }
        let mut e = Engine::new((), vec![Zeros(5)]);
        let r = e.run();
        assert_eq!(r.end_time, VTime::ns(5)); // each zero yield bumped to 1 ns
    }

    #[test]
    #[should_panic(expected = "scheduling deadlock")]
    fn runaway_guard_fires() {
        struct Forever;
        impl Actor<()> for Forever {
            fn step(&mut self, _m: WorkerId, _n: VTime, _w: &mut ()) -> Step {
                Step::Yield(VTime::ns(1))
            }
        }
        let mut e = Engine::new((), vec![Forever]).with_max_steps(100);
        e.run();
    }

    /// `end_time` is the maximum over *Halt* times: a straggler that keeps
    /// yielding long after everyone else halted must still set the end time,
    /// and an actor halting early must not clamp it.
    #[test]
    fn end_time_is_max_halt_time() {
        // Worker 0 halts immediately at t=0; worker 1 yields 7×9 ns and
        // halts at t=63. The report must say 63, not 0.
        let actors = vec![
            Countdown {
                remaining: 0,
                dur: VTime::ns(1),
                log: vec![],
            },
            Countdown {
                remaining: 7,
                dur: VTime::ns(9),
                log: vec![],
            },
        ];
        let mut e = Engine::new(Vec::new(), actors);
        let r = e.run();
        assert_eq!(r.end_time, VTime::ns(63));
        assert_eq!(e.clock(0), VTime::ZERO);
        assert_eq!(e.clock(1), VTime::ns(63));
    }

    /// Two actors halting at the same instant (a simultaneous shutdown, the
    /// common end of a barrier-style run) must report that instant once.
    #[test]
    fn end_time_with_simultaneous_halts() {
        let actors: Vec<Countdown> = (0..3)
            .map(|_| Countdown {
                remaining: 4,
                dur: VTime::ns(5),
                log: vec![],
            })
            .collect();
        let mut e = Engine::new(Vec::new(), actors);
        let r = e.run();
        assert_eq!(r.end_time, VTime::ns(20));
        assert_eq!(r.steps, 3 * 4 + 3); // 4 yields + 1 halt step each
    }

    /// An always-index-0 hook must execute the identical `(time, worker)`
    /// sequence — and produce the identical report — as the plain `run()`.
    #[test]
    fn hook_index_zero_matches_default_run() {
        let mk = || {
            let actors: Vec<Countdown> = (0..4)
                .map(|i| Countdown {
                    remaining: 6,
                    dur: VTime::ns(3 + 2 * i),
                    log: vec![],
                })
                .collect();
            Engine::new(Vec::new(), actors)
        };
        let mut plain = mk();
        let rp = plain.run();
        let mut hooked = mk();
        let rh = hooked.run_with_hook(&mut ());
        assert_eq!(plain.world, hooked.world, "step order must be identical");
        assert_eq!(rp.end_time, rh.end_time);
        assert_eq!(rp.steps, rh.steps);
        for w in 0..4 {
            assert_eq!(plain.clock(w), hooked.clock(w));
        }
    }

    /// A hook that delays the minimum actor still drives every actor to
    /// completion, with per-actor clocks unperturbed — only the *global*
    /// interleaving of events changes.
    #[test]
    fn hook_reordering_preserves_per_actor_time() {
        struct LastFirst;
        impl ScheduleHook for LastFirst {
            fn choose(&mut self, eligible: &[(VTime, WorkerId)]) -> usize {
                eligible.len() - 1
            }
        }
        let mk = || {
            let actors: Vec<Countdown> = (0..3)
                .map(|i| Countdown {
                    remaining: 4,
                    dur: VTime::ns(5 + i),
                    log: vec![],
                })
                .collect();
            Engine::new(Vec::new(), actors)
        };
        let mut plain = mk();
        plain.run();
        let mut hooked = mk();
        let r = hooked.run_with_hook(&mut LastFirst);
        // Same multiset of events, same final clocks, different order.
        let mut a = plain.world.clone();
        let mut b = hooked.world.clone();
        assert_ne!(a, b, "reordering must be observable");
        a.sort();
        b.sort();
        assert_eq!(a, b, "per-actor event sets must be untouched");
        for w in 0..3 {
            assert_eq!(plain.clock(w), hooked.clock(w));
        }
        assert_eq!(r.end_time, VTime::ns(4 * 7));
    }

    /// Out-of-range hook choices are clamped, not trusted.
    #[test]
    fn hook_choice_is_clamped() {
        struct Wild;
        impl ScheduleHook for Wild {
            fn choose(&mut self, _eligible: &[(VTime, WorkerId)]) -> usize {
                usize::MAX
            }
        }
        let actors = vec![Countdown {
            remaining: 3,
            dur: VTime::ns(2),
            log: vec![],
        }];
        let mut e = Engine::new(Vec::new(), actors);
        let r = e.run_with_hook(&mut Wild);
        assert_eq!(r.end_time, VTime::ns(6));
    }

    #[test]
    fn event_queue_pops_in_key_order() {
        let mut q = EventQueue::new(5);
        // Initial state: everyone at t=0, id order.
        for w in 0..5 {
            assert_eq!(q.pop(), Some((VTime::ZERO, w)));
        }
        assert!(q.is_empty());
        // Mixed pushes, including time ties broken by id.
        q.push(VTime::ns(7), 2);
        q.push(VTime::ns(3), 4);
        q.push(VTime::ns(7), 0);
        q.push(VTime::ns(1), 3);
        assert_eq!(q.peek(), Some((VTime::ns(1), 3)));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((VTime::ns(1), 3)));
        assert_eq!(q.pop(), Some((VTime::ns(3), 4)));
        assert_eq!(q.pop(), Some((VTime::ns(7), 0)));
        assert_eq!(q.pop(), Some((VTime::ns(7), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn event_queue_drain_is_sorted_and_reusable() {
        let mut q = EventQueue::empty(6);
        for (t, w) in [(9u64, 1usize), (2, 5), (4, 0), (2, 3)] {
            q.push(VTime::ns(t), w);
        }
        assert_eq!(
            q.drain_sorted(),
            vec![
                (VTime::ns(2), 3),
                (VTime::ns(2), 5),
                (VTime::ns(4), 0),
                (VTime::ns(9), 1)
            ]
        );
        assert!(q.is_empty());
        // Drained workers can be re-queued.
        q.push(VTime::ns(1), 5);
        assert_eq!(q.pop(), Some((VTime::ns(1), 5)));
    }

    /// Re-keying and removing act on the worker's own leaf, wherever its
    /// key sits in the order — also in a tree padded past the last worker.
    #[test]
    fn event_queue_rekey_and_remove() {
        let mut q = EventQueue::new(5);
        q.rekey(0, VTime::ns(9)); // the minimum moves to the back
        q.rekey(3, VTime::ns(4));
        q.remove(1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((VTime::ZERO, 2)));
        q.rekey(4, VTime::ns(4)); // ties with worker 3, id breaks it
        assert_eq!(
            q.drain_sorted(),
            vec![
                (VTime::ZERO, 2),
                (VTime::ns(4), 3),
                (VTime::ns(4), 4),
                (VTime::ns(9), 0)
            ]
        );
        assert_eq!(q.peek(), None);
    }

    /// A parked worker is out of the order and out of `len`, but not
    /// forgotten: `push` brings it back, `remove` would not have been told
    /// apart from a halt.
    #[test]
    fn event_queue_park_and_push_back() {
        let mut q = EventQueue::new(3);
        q.park(0);
        q.remove(2);
        assert_eq!(
            (q.parked(0), q.parked(1), q.parked(2)),
            (true, false, false)
        );
        assert_eq!(q.parked_workers(), vec![0]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((VTime::ZERO, 1)));
        assert_eq!(q.peek(), None, "a parked worker is never the next event");
        assert!(q.is_empty());
        assert_eq!(q.drain_sorted(), vec![]);
        q.push(VTime::ns(7), 0);
        assert!(!q.parked(0));
        assert_eq!(q.parked_workers(), vec![]);
        assert_eq!(q.pop(), Some((VTime::ns(7), 0)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already queued")]
    fn pushing_a_queued_worker_is_a_bug() {
        EventQueue::new(2).push(VTime::ns(1), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not queued")]
    fn rekeying_an_idle_worker_is_a_bug() {
        EventQueue::empty(2).rekey(1, VTime::ns(1));
    }

    #[test]
    fn determinism_across_runs() {
        let mk = || {
            let actors = (0..4)
                .map(|i| Countdown {
                    remaining: 10,
                    dur: VTime::ns(3 + i),
                    log: vec![],
                })
                .collect();
            Engine::new(Vec::new(), actors)
        };
        let mut a = mk();
        let mut b = mk();
        a.run();
        b.run();
        assert_eq!(a.world, b.world);
    }
}
