//! The discrete-event engine.
//!
//! Workers are [`Actor`]s. The engine repeatedly runs the actor whose virtual
//! clock is smallest (ties broken by worker id, so execution is fully
//! deterministic), passing it mutable access to the shared world `W` (the
//! [`crate::Machine`] plus whatever runtime state sits next to it). Each call
//! performs one slice of work and returns how much virtual time it consumed.
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
    /// fast-path, never a change to simulated behaviour.
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

/// Sentinel in [`EventQueue::pos`]: the worker is not currently queued.
const NOT_QUEUED: u32 = u32::MAX;

/// The engine's event queue: an indexed 4-ary min-heap of
/// `(VTime, WorkerId)` keys.
///
/// Each worker appears at most once, keyed by its next wakeup. A 4-ary
/// layout halves the tree depth of a binary heap and keeps sibling keys in
/// one or two cache lines, which is what dominates at 10⁵ actors; the `pos`
/// index gives O(1) membership checks and lets debug builds assert the heap
/// invariant per worker.
///
/// Keys are unique — `(t, w)` pairs can never collide because `w` breaks
/// ties — so *any* correct min-heap pops the identical total order as the
/// `BinaryHeap<Reverse<_>>` it replaced. `tests/engine_equiv.rs` pins that
/// equivalence directly against a reference `BinaryHeap`, both through the
/// engine and on raw push/pop sequences.
pub struct EventQueue {
    /// Heap array of `(wakeup, worker)` keys, 4-ary implicit tree.
    heap: Vec<(VTime, WorkerId)>,
    /// `pos[w]`: index of worker `w` in `heap`, or [`NOT_QUEUED`].
    pos: Vec<u32>,
}

impl EventQueue {
    /// Queue with every worker `0..workers` scheduled at `VTime::ZERO`.
    /// The id-ordered array is already a valid min-heap (parents precede
    /// children in index and id order agrees with key order at time zero).
    pub fn new(workers: usize) -> EventQueue {
        EventQueue {
            heap: (0..workers).map(|w| (VTime::ZERO, w)).collect(),
            pos: (0..workers as u32).collect(),
        }
    }

    /// Empty queue able to hold `workers` distinct workers.
    pub fn empty(workers: usize) -> EventQueue {
        EventQueue {
            heap: Vec::with_capacity(workers.min(1024)),
            pos: vec![NOT_QUEUED; workers],
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimum `(wakeup, worker)` key, if any.
    #[inline]
    pub fn peek(&self) -> Option<(VTime, WorkerId)> {
        self.heap.first().copied()
    }

    /// Remove and return the minimum key.
    pub fn pop(&mut self) -> Option<(VTime, WorkerId)> {
        let min = *self.heap.first()?;
        self.pos[min.1] = NOT_QUEUED;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.1] = 0;
            self.sift_down(0);
        }
        Some(min)
    }

    /// Schedule worker `w` at time `t`. The worker must not already be
    /// queued (each worker has exactly one next wakeup).
    pub fn push(&mut self, t: VTime, w: WorkerId) {
        debug_assert_eq!(self.pos[w], NOT_QUEUED, "worker {w} already queued");
        let i = self.heap.len();
        self.heap.push((t, w));
        self.pos[w] = i as u32;
        self.sift_up(i);
    }

    /// Drain the queue into an ascending `(wakeup, worker)` vector.
    pub fn drain_sorted(&mut self) -> Vec<(VTime, WorkerId)> {
        for &(_, w) in &self.heap {
            self.pos[w] = NOT_QUEUED;
        }
        let mut v = std::mem::take(&mut self.heap);
        v.sort_unstable();
        v
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent] <= item {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].1] = i as u32;
            i = parent;
        }
        self.heap[i] = item;
        self.pos[item.1] = i as u32;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        let n = self.heap.len();
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + 4).min(n) {
                if self.heap[c] < self.heap[min] {
                    min = c;
                }
            }
            if item <= self.heap[min] {
                break;
            }
            self.heap[i] = self.heap[min];
            self.pos[self.heap[i].1] = i as u32;
            i = min;
        }
        self.heap[i] = item;
        self.pos[item.1] = i as u32;
    }
}

/// World-side waker: appends every pending `(wake instant, worker)` pair.
pub type Waker<W> = fn(&mut W, &mut Vec<(VTime, WorkerId)>);

/// The event loop: an indexed 4-ary heap of `(clock, worker)` keys over the
/// actors (see [`EventQueue`]).
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
    parked: usize,
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
            parked: 0,
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
    /// so the wakes must land in the heap before the next scheduling
    /// decision (including the peek fast path below).
    #[inline]
    fn drain_wakeups(&mut self) {
        if let Some(f) = self.waker {
            f(&mut self.world, &mut self.wake_buf);
            for &(t, w) in &self.wake_buf {
                self.clocks[w] = t;
                self.queue.push(t, w);
                self.parked = self
                    .parked
                    .checked_sub(1)
                    .expect("wakeup for a worker that was not parked");
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
    /// Hot path: after a `Yield`, the engine *peeks* the heap instead of
    /// re-inserting unconditionally. If the stepping actor's new key
    /// `(clock, id)` is still below the heap minimum it simply keeps
    /// running — the pop it just avoided would have returned exactly that
    /// key (keys are unique per worker, so the comparison is never a tie).
    /// This skips the push/pop pair for the common case of one worker
    /// burning through local work while the rest idle ahead in time, and
    /// by construction executes the identical `(time, worker)` sequence as
    /// the plain heap loop (pinned by `tests/engine_equiv.rs`).
    pub fn run(&mut self) -> EngineReport {
        let mut steps = 0u64;
        let mut end = VTime::ZERO;
        while let Some((mut t, w)) = self.queue.pop() {
            loop {
                steps += 1;
                assert!(
                    steps <= self.max_steps,
                    "engine exceeded {} steps at t={} — scheduling deadlock?",
                    self.max_steps,
                    t
                );
                match self.actors[w].step(w, t, &mut self.world) {
                    Step::Yield(d) => {
                        let d = d.max(VTime::ns(1));
                        let nt = t + d;
                        self.clocks[w] = nt;
                        self.drain_wakeups();
                        match self.queue.peek() {
                            Some(min) if min < (nt, w) => {
                                self.queue.push(nt, w);
                                break;
                            }
                            // Still the global minimum (or the last actor
                            // standing): keep stepping without heap churn.
                            _ => t = nt,
                        }
                    }
                    Step::Park => {
                        assert!(
                            self.waker.is_some(),
                            "Step::Park requires a waker (Engine::with_waker)"
                        );
                        self.clocks[w] = t;
                        self.parked += 1;
                        self.drain_wakeups();
                        break;
                    }
                    Step::Halt => {
                        self.clocks[w] = t;
                        end = end.max(t);
                        self.drain_wakeups();
                        break;
                    }
                }
            }
        }
        assert!(
            self.parked == 0,
            "event queue drained with {} worker(s) still parked — lost wakeup",
            self.parked
        );
        EngineReport {
            end_time: end,
            steps,
        }
    }

    /// Drive all actors to completion under an external schedule
    /// controller (see [`ScheduleHook`]). The runnable set is kept as a
    /// sorted vector instead of the heap — exploration runs are small and
    /// clarity beats the heap's fast path here. Choosing index 0 at every
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
        // Drained workers can be re-queued (pos was reset).
        q.push(VTime::ns(1), 5);
        assert_eq!(q.pop(), Some((VTime::ns(1), 5)));
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
