//! Checkable scenarios: small, oracle-bearing workloads the explorer drives.
//!
//! Each [`Scenario`] is a deterministic function from a [`dcs_sim::ScheduleHook`]
//! to a list of oracle violations (empty = clean). Three families:
//!
//! * **Raw deque protocols** — owners and thieves drive the shipped deque
//!   against a simulated machine, with no scheduler around them. All of
//!   them are built from one kit: a `RawWorld` (machine, one deque per
//!   victim, one claim arbiter, one ledger), one `owner_step` pushing and
//!   popping through the protocol's [`Desc`], thieves running the
//!   scheduler's own steal machine ([`dcs_core::steal`]) with a `Script`
//!   (the victim ring, an idle beat, planted-bug hooks) as its host, and a
//!   list of end-of-run `Oracle`s. The ledger is the spec: *order* (every
//!   pushed item is popped LIFO by its owner or stolen FIFO-from-top,
//!   exactly once) for the CAS-lock and lock-free families, *multiplicity*
//!   (a task may be taken more than once but executes exactly once) for the
//!   fence-free family. Each `broken-*` scenario is its shipped twin with
//!   one planted mutation of the machine, made in a host hook, and exists
//!   to prove the checker catches that bug (`expect_violation`).
//! * **Full runtime** (`single-steal:*`, `fork-join`, the crash and
//!   suspicion runs): real programs through [`dcs_core::run_hooked`] with
//!   the invariant watchdog on; a per-scenario judge reads the report.
//! * **Termination** (`bot-term`): the BoT one-sided runtime on a micro UTS
//!   tree; oracles are termination safety (created == consumed, no resident
//!   work lost) and the serial node count.
//!
//! `docs/PROTOCOLS.md` ("Schedule exploration") tabulates the worlds,
//! scripts and oracles and walks through writing a scenario.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use dcs_core::dedup::ClaimSet;
use dcs_core::deque::{lock_word, DeadSlot, DequeError};
use dcs_core::frame::{frame, Effect, TaskCtx};
use dcs_core::layout::{SegLayout, DQ_LOCK};
use dcs_core::steal::{self, Claim, Cx, Desc, Host, Landed, Pending, Ring, Stage};
use dcs_core::value::{ThreadHandle, Value};
use dcs_core::watchdog::Violation;
use dcs_core::world::{QueueItem, WorkerShared};
use dcs_core::{
    run_hooked, FreeStrategy, Policy, Program, Protocol, RunConfig, RunOutcome, RunReport, TaskFn,
    UnrecoverableReason,
};
use dcs_sim::{
    profiles, Actor, DegradeWindow, Detector, Engine, FabricMode, FaultPlan, GlobalAddr, Machine,
    MachineConfig, ScheduleHook, Step, VTime, Window, WorkerId,
};

use crate::explore::RunRecord;
use crate::hook::{ControllerHook, PctHook};

/// One run of a scenario under a schedule controller, yielding oracle
/// violations (empty = clean).
type ScenarioRunner = Box<dyn Fn(&mut dyn ScheduleHook) -> Vec<String> + Send + Sync>;

/// A named, explorable workload with built-in oracles.
pub struct Scenario {
    pub name: String,
    pub workers: usize,
    /// True for self-test scenarios that deliberately break a protocol:
    /// exploration is expected to find at least one violation (and the
    /// checker fails if it does NOT).
    pub expect_violation: bool,
    runner: ScenarioRunner,
}

impl Scenario {
    /// Drive one run under `hook`, returning oracle violations.
    pub fn run_hooked(&self, hook: &mut dyn ScheduleHook) -> Vec<String> {
        (self.runner)(hook)
    }

    /// Run under `hook` with panics caught and reported as a violation, so
    /// a protocol assert firing under a hostile schedule is a finding, not
    /// a crash.
    fn run_caught(&self, hook: &mut dyn ScheduleHook) -> Vec<String> {
        match catch_unwind(AssertUnwindSafe(|| (self.runner)(hook))) {
            Ok(v) => v,
            Err(p) => {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                vec![format!("panic: {msg}")]
            }
        }
    }

    /// Replay a choice vector (missing entries = native order).
    pub fn run_choices(&self, choices: &[u32]) -> RunRecord {
        let mut hook = ControllerHook::new(choices);
        let violations = self.run_caught(&mut hook);
        RunRecord {
            eligible: hook.eligible,
            taken: hook.taken,
            violations,
        }
    }

    /// One randomized PCT run (see [`PctHook`]); the returned record's
    /// `taken` vector replays the run exactly through [`Self::run_choices`].
    pub fn run_pct(&self, seed: u64, depth: usize, horizon: u64) -> RunRecord {
        let mut hook = PctHook::new(self.workers, seed, depth, horizon);
        let violations = self.run_caught(&mut hook);
        RunRecord {
            eligible: Vec::new(),
            taken: hook.taken,
            violations,
        }
    }
}

// ---------------------------------------------------------------------------
// The raw-deque kit: world and ledger
// ---------------------------------------------------------------------------

/// The run's specification, updated in the same engine step as the deque
/// operation it records.
enum Ledger {
    /// Per victim, the tags in deque order (front = top = oldest): thieves
    /// must take from the front, the owner pops from the back.
    Order(Vec<VecDeque<u64>>),
    /// Per `(victim, tag)`: (executions, take attempts). Fence-free takers
    /// validate instead of serializing, so delivery order is not part of
    /// the contract; every task executes exactly once and is taken at most
    /// `cap` times (its owner plus every thief).
    Multiplicity {
        counts: HashMap<(usize, u64), (u32, u32)>,
        cap: u32,
    },
}

/// Workers `0..ws.len()` own a deque each; everyone else steals.
struct RawWorld {
    m: Machine,
    lay: SegLayout,
    /// The protocol every owner and thief speaks, as the scheduler runs it.
    desc: Desc,
    /// Item slab and live-ticket map of each victim.
    ws: Vec<WorkerShared>,
    /// The run-wide claim arbiter (tickets carry their owner's rank).
    claims: ClaimSet,
    ledger: Ledger,
    violations: Vec<String>,
}

impl RawWorld {
    /// Names the victim in a message — unless there is only one.
    fn at(&self, v: usize) -> String {
        match self.ws.len() {
            1 => String::new(),
            _ => format!(" on victim {v}"),
        }
    }

    fn pushed(&mut self, v: usize, tag: u64) {
        match &mut self.ledger {
            Ledger::Order(shadow) => shadow[v].push_back(tag),
            Ledger::Multiplicity { counts, .. } => {
                counts.insert((v, tag), (0, 0));
            }
        }
    }

    /// Somebody got `tag`'s payload from `v`'s deque and will run it: its
    /// owner's pop (`None`) or a steal (`Some(thief)`).
    fn taken(&mut self, v: usize, tag: u64, thief: Option<WorkerId>) {
        let violation = match &mut self.ledger {
            Ledger::Order(shadow) => {
                let (expect, what, end) = match thief {
                    None => (shadow[v].pop_back(), "owner_pop LIFO violated", "back"),
                    Some(_) => (shadow[v].pop_front(), "steal FIFO violated", "front"),
                };
                (expect != Some(tag)).then(|| {
                    let at = thief.map_or(String::new(), |_| self.at(v));
                    format!("{what}{at}: got tag {tag}, shadow {end} was {expect:?}")
                })
            }
            Ledger::Multiplicity { counts, .. } => {
                let e = counts.entry((v, tag)).or_insert((0, 0));
                e.0 += 1;
                let times = e.0;
                (times > 1).then(|| {
                    let who = thief.map_or("owner_pop".to_string(), |t| format!("thief {t}"));
                    let at = self.at(v);
                    format!(
                        "multiplicity: task {tag}{at} executed {times} times ({who} took it again)"
                    )
                })
            }
        };
        self.violations.extend(violation);
        self.transferred(v, tag);
    }

    /// A taker paid for `tag`'s payload (and, if it lost the claim race,
    /// discarded it): the take count is bounded even when execution is not
    /// at stake.
    fn transferred(&mut self, v: usize, tag: u64) {
        let Ledger::Multiplicity { counts, cap } = &mut self.ledger else {
            return;
        };
        let e = counts.entry((v, tag)).or_insert((0, 0));
        e.1 += 1;
        let (takes, cap) = (e.1, *cap);
        if takes > cap {
            let at = self.at(v);
            self.violations.push(format!(
                "multiplicity: task {tag}{at} taken {takes} times, bound is {cap}"
            ));
        }
    }

    /// Everything `v` pushed has been consumed. Ledger updates are atomic
    /// with the take, so an owner seeing an empty deque before this holds
    /// keeps polling: a thief is mid-steal, or an item was lost (which the
    /// end-of-run oracles tell apart).
    fn drained(&self, v: usize) -> bool {
        match &self.ledger {
            Ledger::Order(shadow) => shadow[v].is_empty(),
            Ledger::Multiplicity { counts, .. } => counts
                .iter()
                .filter(|((o, _), _)| *o == v)
                .all(|(_, &(exec, _))| exec >= 1),
        }
    }
}

fn dq_body(_: Value, _: &mut TaskCtx) -> Effect {
    Effect::ret(0u64)
}

fn dq_item(tag: u64) -> QueueItem {
    QueueItem::Child {
        f: dq_body,
        arg: Value::U64(tag),
        handle: ThreadHandle::single(GlobalAddr::new(0, 8 * (tag as u32 + 1))),
    }
}

fn dq_tag(item: &QueueItem) -> u64 {
    match item {
        QueueItem::Child { arg, .. } => arg.as_u64(),
        QueueItem::Cont { th, .. } => th.tid,
    }
}

// ---------------------------------------------------------------------------
// The raw-deque kit: actors
// ---------------------------------------------------------------------------

/// What varies between thieves: the victims, one idle beat, and the
/// planted bugs, each a host hook.
#[derive(Clone, Copy)]
struct Script {
    /// The victims probed, in ring order; its length is the ring width K.
    ring: &'static [usize],
    /// One idle beat between the probe and the take, holding the won lock:
    /// the window a degraded NIC opens in the real runtime, and the one a
    /// false eviction lands in.
    pause: bool,
    /// PLANTED BUG (`broken-fence`, `broken-ring-fence`): the thief's epoch
    /// self-check is dropped from [`Host::voided`], so an evicted
    /// incarnation completes its steal.
    unfenced: bool,
    /// PLANTED BUG (`broken-claim`): the claim-write reaches nobody — the
    /// thief arbitrates against a private claim set ([`Host::parts`]), so a
    /// take it wins is invisible to the owner and the task runs twice.
    private_claims: bool,
    /// PLANTED BUG (`broken-release`): the CAS-lock take advances `top` one
    /// engine step *after* its lock release ([`Host::advance`]; the
    /// historical ordering), so an owner can pop the emptied slot in between.
    late_advance: bool,
}

impl Script {
    const fn on(ring: &'static [usize]) -> Script {
        Script {
            ring,
            pause: false,
            unfenced: false,
            private_claims: false,
            late_advance: false,
        }
    }
}

/// Who a non-owner worker is, as a catalog row casts it.
#[derive(Clone, Copy)]
enum Role {
    Thief(Script),
    /// Watches `ring`'s lock words for `suspect` (see [`RawActor::Watch`]).
    Suspector {
        ring: &'static [usize],
        suspect: WorkerId,
    },
}

/// A raw thief's steal between engine steps: the machine's stage and
/// parked commit, plus the script's bookkeeping.
#[derive(Default)]
struct Steal {
    stage: Option<Stage>,
    parked: Option<Pending>,
    /// `broken-release`'s deferred `top` advance: `(victim, top)`.
    late_top: Option<(WorkerId, u64)>,
    paused: bool,
    attempts: u32,
    /// Stolen once, self-fenced, or read a dead slot: halt.
    done: bool,
}

enum RawActor {
    Owner {
        to_push: u64,
        pushed: u64,
    },
    /// Poll the ring's lock words until `suspect` is seen holding one, then
    /// falsely evict it, break its lock and steal from that victim in its
    /// place.
    Watch {
        ring: &'static [usize],
        suspect: WorkerId,
        polls: u32,
    },
    Thief(Script, Box<Steal>),
}

/// Failed steal attempts after which a thief gives up and halts.
const MAX_ATTEMPTS: u32 = 16;
/// Lock-word polls after which the suspector concludes nothing will stall.
const MAX_WATCH: u32 = 40;

impl Actor<RawWorld> for RawActor {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut RawWorld) -> Step {
        match self {
            RawActor::Owner { to_push, pushed } => owner_step(me, w, *to_push, pushed),
            RawActor::Thief(script, st) => thief_step(me, now, w, *script, st),
            RawActor::Watch {
                ring,
                suspect,
                polls,
            } => {
                let (ring, suspect) = (*ring, *suspect);
                let mut cost = VTime::ZERO;
                for (i, &v) in ring.iter().enumerate() {
                    let lock = GlobalAddr::new(v, w.lay.dq_word(DQ_LOCK));
                    let (word, c) = w.m.get_u64(me, lock);
                    cost += c;
                    if word == lock_word(0, suspect) {
                        // False suspicion: the holder is alive, but its
                        // heartbeats look stale from here. Evict it and
                        // break the stale-epoch lock (the owner-side
                        // `break_dead_lock` clause, run by a survivor).
                        w.m.evict(suspect);
                        cost += w.m.put_u64(me, lock, 0);
                        *self = RawActor::Thief(Script::on(&ring[i..=i]), Box::default());
                        return Step::Yield(cost);
                    }
                }
                *polls += 1;
                if *polls >= MAX_WATCH {
                    return Step::Halt; // the suspect finished first: no eviction
                }
                Step::Yield(cost)
            }
        }
    }
}

/// Push `to_push` items, then pop until the ledger says everything this
/// owner pushed has been consumed.
fn owner_step(me: WorkerId, w: &mut RawWorld, to_push: u64, pushed: &mut u64) -> Step {
    let pushing = *pushed < to_push;
    let res = if pushing {
        (w.desc.push)(&mut w.m, &mut w.ws[me], &w.lay, me, dq_item(*pushed)).map(|c| (None, c))
    } else {
        (w.desc.pop)(&mut w.m, &mut w.ws[me], &mut w.claims, &w.lay, me, None)
    };
    match res {
        Ok((_, cost)) if pushing => {
            w.pushed(me, *pushed);
            *pushed += 1;
            Step::Yield(cost)
        }
        Ok((Some(item), cost)) => {
            w.taken(me, dq_tag(&item), None);
            Step::Yield(cost)
        }
        Ok((None, _)) if w.drained(me) => Step::Halt,
        Ok((None, cost)) => Step::Yield(cost),
        // A thief holds the lock (CAS-lock only; the other owners are never
        // blocked): the brief victim stall a real lock-based RDMA deque
        // causes.
        Err(DequeError::Busy) => Step::Yield(w.m.local_op(me)),
        Err(DequeError::Dead(d)) => {
            w.violations.push(format!(
                "deque-protocol: {} observed a dead ring slot at index {}",
                d.op, d.index
            ));
            Step::Halt
        }
    }
}

/// One thief step: probe the script's ring, or resume the steal the last
/// step parked (after the script's idle beat, if it asks for one).
fn thief_step(me: WorkerId, now: VTime, w: &mut RawWorld, script: Script, st: &mut Steal) -> Step {
    let cx = Cx {
        me,
        epoch: w.m.epoch_of(me),
        lay: w.lay,
        desc: w.desc,
    };
    let late = st.late_top.take();
    if let Some((victim, top)) = late {
        steal::advance_top(&mut w.m, &cx, victim, top);
    }
    if st.done {
        return match late {
            Some(_) => Step::Yield(w.m.local_op(me)),
            None => Step::Halt,
        };
    }
    let stage = st.stage.take();
    if let Some(won @ Stage::Won { .. }) = stage {
        if script.pause && !st.paused {
            st.paused = true;
            st.stage = Some(won);
            return Step::Yield(w.m.local_op(me));
        }
    }
    st.paused = false;
    let mut h = RawThief {
        me,
        w,
        script,
        st,
        private: ClaimSet::default(),
    };
    match stage {
        None => {
            let mut ring = Ring::default();
            for &v in script.ring {
                ring.add(v);
            }
            steal::probe(&mut h, cx, now, VTime::ZERO, &mut ring, script.ring.len())
        }
        Some(stage) => steal::resume(&mut h, cx, now, stage),
    }
}

/// A raw thief as the steal machine's host: the ring comes from its script,
/// the ledger records its takes, and the planted bugs hook in here.
struct RawThief<'a> {
    me: WorkerId,
    w: &'a mut RawWorld,
    script: Script,
    st: &'a mut Steal,
    /// `broken-claim`'s claim set, private to one claim step.
    private: ClaimSet,
}

impl Host for RawThief<'_> {
    fn parts(&mut self) -> (&mut Machine, &mut [WorkerShared], &mut ClaimSet) {
        let claims = if self.script.private_claims {
            &mut self.private
        } else {
            &mut self.w.claims
        };
        (&mut self.w.m, &mut self.w.ws, claims)
    }

    /// A failed attempt: retry next step, or give up.
    fn idle(&mut self, _: VTime, cost: VTime) -> Step {
        self.st.attempts += 1;
        if self.st.attempts >= MAX_ATTEMPTS {
            Step::Halt
        } else {
            Step::Yield(cost)
        }
    }

    /// The runtime's self-fence: a worker observing its own eviction
    /// quiesces before issuing another verb. The lock it held is someone
    /// else's problem (the suspector broke it as stale).
    fn voided(&mut self, _: VTime, _: WorkerId, _: u64) -> Option<VTime> {
        if self.script.unfenced || self.w.m.epoch_of(self.me) == 0 {
            return None;
        }
        self.st.done = true;
        Some(self.w.m.local_op(self.me))
    }

    /// A corrupt deque cannot be trusted: report it and stop stealing.
    fn dead_slot(&mut self, _: WorkerId, d: &DeadSlot) {
        let msg = format!("{} observed dead slot: {d:?}", d.op);
        self.w.violations.push(msg);
        self.st.done = true;
    }

    /// The won lock froze the deque: reading it empty while the ledger
    /// still holds items means the thief's view of the bounds is stale.
    fn empty(&mut self, victim: WorkerId) {
        if let Ledger::Order(shadow) = &self.w.ledger {
            if !shadow[victim].is_empty() {
                let (at, n) = (self.w.at(victim), shadow[victim].len());
                let msg = format!("steal missed items{at}: deque read empty with {n} outstanding");
                self.w.violations.push(msg);
            }
        }
    }

    /// `broken-release` keeps the advance for the thief's next step.
    fn advance(&mut self, cx: &Cx, victim: WorkerId, top: u64) {
        if self.script.late_advance {
            self.st.late_top = Some((victim, top));
        } else {
            steal::advance_top(&mut self.w.m, cx, victim, top);
        }
    }

    /// A dup paid for the payload: the take counts against the bound.
    fn raced(&mut self, victim: WorkerId, dup: Option<u32>) {
        let items = &self.w.ws[victim].items;
        if let Some(tag) = dup.and_then(|key| items.get(key)).map(dq_tag) {
            self.w.transferred(victim, tag);
        }
    }

    fn taken(
        &mut self,
        _: VTime,
        victim: WorkerId,
        item: &mut QueueItem,
        _: &mut Window,
    ) -> Result<Option<(WorkerId, usize)>, ()> {
        if self.w.m.epoch_of(self.me) > 0 {
            self.w.violations.push(
                "zombie-steal: task taken by an evicted incarnation \
                 (epoch fence missing on the take verb)"
                    .to_string(),
            );
        }
        self.w.taken(victim, dq_tag(item), Some(self.me));
        Ok(None)
    }

    /// One steal per thief.
    fn adopt(&mut self, _: VTime, _: WorkerId, _: Landed) -> VTime {
        self.st.done = true;
        VTime::ZERO
    }

    fn park(&mut self, stage: Stage, pending: Option<Pending>) {
        self.st.stage = Some(stage);
        self.st.parked = pending;
    }

    fn unpark(&mut self) -> Pending {
        self.st.parked.take().expect("reap without a parked steal")
    }
}

// ---------------------------------------------------------------------------
// The raw-deque kit: end-of-run oracles and the scenario constructor
// ---------------------------------------------------------------------------

/// An end-of-run check: appends what it finds to `w.violations`.
type Oracle = fn(&mut RawWorld);

/// Order ledger: every pushed item was popped or stolen.
fn leaked_items(w: &mut RawWorld) {
    let Ledger::Order(shadow) = &w.ledger else {
        return;
    };
    for (v, left) in shadow.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        let msg = format!(
            "leak: {} pushed items never consumed{}",
            left.len(),
            w.at(v)
        );
        w.violations.push(msg);
    }
}

/// No payload object outlives its ring entry.
fn slab_empty(w: &mut RawWorld) {
    for v in (0..w.ws.len()).filter(|&v| !w.ws[v].items.is_empty()) {
        let msg = format!("leak: queue-item slab not empty at end of run{}", w.at(v));
        w.violations.push(msg);
    }
}

/// Every victim's lock word reads 0: an abandoned steal released its
/// won-but-unused lock, and nobody died holding one.
fn locks_free(w: &mut RawWorld) {
    for v in 0..w.ws.len() {
        let lock = w.m.read_own(v, GlobalAddr::new(v, w.lay.dq_word(DQ_LOCK)));
        if lock != 0 {
            w.violations.push(format!(
                "abandoned lock: victim {v}'s deque lock still held by {lock} at end of run"
            ));
        }
    }
}

/// No posted verb is left unreaped (the overlap-race oracle).
fn cq_drained(w: &mut RawWorld) {
    for p in 0..w.m.workers() {
        let depth = w.m.cq_depth(p);
        if depth > 0 {
            w.violations.push(format!(
                "overlap-race: worker {p} ended with {depth} posted verbs never reaped"
            ));
        }
    }
}

/// Fence-free: every minted ticket was retired (a double claim strands one).
fn tickets_retired(w: &mut RawWorld) {
    for v in (0..w.ws.len()).filter(|&v| !w.ws[v].ff_tickets.is_empty()) {
        let msg = format!("leak: live tickets left at end of run{}", w.at(v));
        w.violations.push(msg);
    }
}

/// Multiplicity ledger: every task executed exactly once and was taken at
/// most `cap` times. Listed last: the per-take checks may already have
/// reported the same fact, so it also canonicalises the violation list.
fn multiplicity_exact(w: &mut RawWorld) {
    let Ledger::Multiplicity { counts, cap } = &w.ledger else {
        return;
    };
    for (&(v, tag), &(exec, takes)) in counts {
        let at = w.at(v);
        if exec != 1 {
            w.violations.push(format!(
                "multiplicity: task {tag}{at} executed {exec} times, want exactly 1"
            ));
        }
        if takes > *cap {
            w.violations.push(format!(
                "multiplicity: task {tag}{at} taken {takes} times, bound is {cap}"
            ));
        }
    }
    w.violations.sort_unstable();
    w.violations.dedup();
}

/// A raw scenario as data: the world's shape and who steals. What must hold
/// at the end follows from the protocol: the order oracles, or the
/// multiplicity ones for fence-free.
struct RawSpec {
    desc: Desc,
    /// Workers `0..victims` own a deque and push `items` tasks each.
    victims: usize,
    items: u64,
    fabric: FabricMode,
    /// The non-owners, from worker `victims` up; the last entry repeats for
    /// every further worker.
    cast: Vec<Role>,
    /// A `Script` in `cast` carries a planted bug the explorer must find.
    planted: bool,
}

const ORDER_ORACLES: &[Oracle] = &[leaked_items, slab_empty, locks_free, cq_drained];
const MULTIPLICITY_ORACLES: &[Oracle] = &[slab_empty, tickets_retired, multiplicity_exact];

fn raw_scenario(name: &str, workers: usize, spec: RawSpec) -> Scenario {
    let workers = workers.max(spec.victims + spec.cast.len());
    let expect_violation = spec.planted;
    let multiplicity = spec.desc.claim == Claim::Ticket;
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(workers, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved)
                .with_fabric(spec.fabric),
        );
        let ledger = if multiplicity {
            Ledger::Multiplicity {
                counts: HashMap::new(),
                cap: (1 + workers - spec.victims) as u32,
            }
        } else {
            Ledger::Order(vec![VecDeque::new(); spec.victims])
        };
        let world = RawWorld {
            m,
            lay,
            desc: spec.desc,
            ws: (0..spec.victims).map(|_| WorkerShared::new(&cfg)).collect(),
            claims: ClaimSet::default(),
            ledger,
            violations: Vec::new(),
        };
        let actors = (0..workers)
            .map(|p| match p.checked_sub(spec.victims) {
                None => RawActor::Owner {
                    to_push: spec.items,
                    pushed: 0,
                },
                Some(t) => match spec.cast[t.min(spec.cast.len() - 1)] {
                    Role::Thief(script) => RawActor::Thief(script, Box::default()),
                    Role::Suspector { ring, suspect } => RawActor::Watch {
                        ring,
                        suspect,
                        polls: 0,
                    },
                },
            })
            .collect();
        let mut engine = Engine::new(world, actors).with_max_steps(100_000);
        engine.run_with_hook(hook);
        let oracles = if multiplicity {
            MULTIPLICITY_ORACLES
        } else {
            ORDER_ORACLES
        };
        for oracle in oracles {
            oracle(&mut engine.world);
        }
        engine.world.violations
    };
    Scenario {
        name: name.to_string(),
        workers,
        expect_violation,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Full-runtime scenarios
// ---------------------------------------------------------------------------

fn leaf(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    Effect::ret(arg.as_u64() * 2)
}

/// Root forks one leaf and joins it: the smallest program whose every run
/// exercises push, pop-parent (the Fig. 4 DIE fast path) and — under a
/// hostile schedule — a steal racing that fast path on a one-item deque.
fn single_steal_root(_arg: Value, _ctx: &mut TaskCtx) -> Effect {
    Effect::fork(
        leaf,
        7u64,
        frame(|h, _| {
            let h = h.as_handle();
            Effect::join(h, frame(|v, _| Effect::ret(v.as_u64() + 1)))
        }),
    )
}

fn fib(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    let n = arg.as_u64();
    if n < 2 {
        return Effect::ret(n);
    }
    Effect::fork(
        fib,
        n - 1,
        frame(move |h, _| {
            let h = h.as_handle();
            Effect::call(
                fib,
                n - 2,
                frame(move |b, _| {
                    let b = b.as_u64();
                    Effect::join(h, frame(move |a, _| Effect::ret(a.as_u64() + b)))
                }),
            )
        }),
    )
}

fn policy_slug(p: Policy) -> &'static str {
    match p {
        Policy::ContGreedy => "greedy",
        Policy::ContStalling => "stalling",
        Policy::ChildFull => "child-full",
        Policy::ChildRtc => "child-rtc",
    }
}

fn strategy_slug(s: FreeStrategy) -> &'static str {
    match s {
        FreeStrategy::LockQueue => "lockq",
        FreeStrategy::LocalCollection => "localc",
    }
}

/// Reads a finished run's report and returns what is wrong with it.
type Judge = Box<dyn Fn(&RunReport) -> Vec<String> + Send + Sync>;

/// A full-runtime scenario as data: every axis of the configuration lattice
/// a catalog row can set, the program, and the judge of its report.
struct RtSpec {
    policy: Policy,
    strategy: FreeStrategy,
    fabric: FabricMode,
    protocol: Protocol,
    multi_steal: u32,
    plan: FaultPlan,
    root: TaskFn,
    arg: u64,
    judge: Judge,
}

impl RtSpec {
    /// The defaults every golden is pinned to, fault-free.
    fn new(policy: Policy, root: TaskFn, arg: u64, judge: Judge) -> RtSpec {
        RtSpec {
            policy,
            strategy: FreeStrategy::LocalCollection,
            fabric: FabricMode::Blocking,
            protocol: Protocol::CasLock,
            multi_steal: 1,
            plan: FaultPlan::none(),
            root,
            arg,
            judge,
        }
    }
}

/// Run the program with the watchdog on (non-strict, so leaks and protocol
/// violations are reported instead of panicking) and judge the report.
fn runtime_scenario(name: impl Into<String>, workers: usize, seed: u64, spec: RtSpec) -> Scenario {
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let cfg = RunConfig::new(workers, spec.policy)
            .with_profile(profiles::test_profile())
            .with_free_strategy(spec.strategy)
            .with_watchdog(true)
            .with_strict(false)
            .with_seed(seed)
            .with_fabric(spec.fabric)
            .with_protocol(spec.protocol)
            .with_multi_steal(spec.multi_steal)
            .with_fault_plan(spec.plan.clone());
        (spec.judge)(&run_hooked(cfg, Program::new(spec.root, spec.arg), hook))
    };
    Scenario {
        name: name.into(),
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

/// What the watchdog found. `lossy` runs — a worker killed or evicted —
/// drop `Leak`: entries on a dead segment can never be freed, and orphaned
/// duplicate subtrees are tolerated-but-leaky.
fn watchdog_findings(report: &RunReport, lossy: bool) -> Vec<String> {
    match &report.watchdog {
        None => vec!["watchdog missing from report".to_string()],
        Some(wd) => wd
            .violations
            .iter()
            .filter(|v| !(lossy && matches!(v, Violation::Leak { .. })))
            .map(|v| v.to_string())
            .collect(),
    }
}

/// The run completes with the exact fault-free answer under EVERY schedule
/// and the watchdog is quiet. `lossy` says the plan may lose or evict
/// workers (lineage replay plus done-flag dedup: at-least-once execution
/// with exactly-once effects); `kills` says it may lose them for real —
/// a suspicion-only plan must count nobody as genuinely lost.
fn completes(expected: u64, lossy: bool, kills: bool) -> Judge {
    Box::new(move |report| {
        let (got, s) = (report.result.as_u64(), &report.stats);
        let mut violations = Vec::new();
        if !matches!(report.outcome, RunOutcome::Complete) {
            violations.push(format!("run aborted: {:?}", report.outcome));
        } else if got != expected {
            violations.push(format!(
                "wrong result: got {got}, expected {expected} (workers_lost={}, \
                 false_suspects={}, rejoins={}, replayed={})",
                s.workers_lost, s.false_suspects, s.rejoins, s.tasks_replayed
            ));
        }
        if !kills && s.workers_lost != 0 {
            violations.push(format!(
                "a kill=none run counted {} workers as genuinely lost",
                s.workers_lost
            ));
        }
        violations.extend(watchdog_findings(report, lossy));
        violations
    })
}

/// Crash-abort oracle: ChildFull is the one policy whose lost state (full
/// private stacks of suspendable tied threads) genuinely cannot be replayed
/// or mirrored, so a kill that fires mid-run must end in a typed
/// `Unrecoverable` outcome naming the lost worker with the `FullStacks`
/// reason — never a silent wrong answer or a wedged run (a wedge surfaces
/// as a missing root result, which panics and is caught).
fn aborts_typed(killed: WorkerId, expected: u64) -> Judge {
    Box::new(move |report| {
        let mut violations = Vec::new();
        match (&report.outcome, report.stats.workers_lost) {
            // The schedule let the run finish before the kill landed: the
            // answer must simply be right.
            (RunOutcome::Complete, 0) => {
                let got = report.result.as_u64();
                if got != expected {
                    violations.push(format!("wrong result: got {got}, expected {expected}"));
                }
            }
            (RunOutcome::Complete, _) => violations.push(
                "full-stack child-stealing run completed despite losing a worker's stacks"
                    .to_string(),
            ),
            (RunOutcome::Unrecoverable { worker, reason, .. }, _) => {
                if *worker != killed {
                    violations.push(format!("abort blamed worker {worker}, killed {killed}"));
                }
                if *reason != UnrecoverableReason::FullStacks {
                    violations.push(format!("abort carried the wrong typed reason: {reason:?}"));
                }
                let named = report.watchdog.as_ref().is_some_and(|wd| {
                    wd.violations
                        .iter()
                        .any(|v| matches!(v, Violation::WorkerLost { .. }))
                });
                if !named {
                    violations.push("abort did not record a worker-lost diagnostic".to_string());
                }
            }
        }
        violations
    })
}

/// Fail-stop loss of `victim` early in the run, with the lease short
/// enough that death confirmation lands inside it.
fn kill_plan(victim: WorkerId) -> FaultPlan {
    let mut plan = FaultPlan::none().with_kill(victim, VTime::ns(100));
    plan.lease = VTime::us(5);
    plan
}

/// A message detector with an aggressive lease and a degraded-NIC window on
/// worker 1, **zero kills**: false suspicion may evict live workers
/// mid-steal, tear into their in-flight joins and replay their lineage. A
/// finite `until` lets the evictee's beats recover, un-suspects it, clears
/// its blacklist entry and (rejoin on) puts the fresh incarnation back to
/// work.
fn suspicion_plan(until: VTime) -> FaultPlan {
    let mut plan = FaultPlan::none()
        .with_detector(Detector::Message)
        .with_suspect(VTime::us(3))
        .with_degrade(DegradeWindow {
            worker: 1,
            from: VTime::ZERO,
            until,
            factor: 20.0,
        });
    plan.hb_period = VTime::us(1);
    plan
}

// ---------------------------------------------------------------------------
// Termination scenario
// ---------------------------------------------------------------------------

/// Micro UTS tree for the BoT termination oracle: small enough for
/// exploration, deep enough that the token circulates while steals and
/// re-activations are still in flight.
fn bot_term_scenario(name: &str, workers: usize, seed: u64, fabric: FabricMode) -> Scenario {
    use dcs_apps::uts::{serial_count, Shape, UtsSpec};
    let runner = move |hook: &mut dyn ScheduleHook| -> Vec<String> {
        let spec = UtsSpec::new(2.0, 3, Shape::Fixed, 5);
        let truth = serial_count(&spec).nodes;
        let out = dcs_bot::onesided::run_uts_hooked_fabric(
            &spec,
            workers,
            profiles::test_profile(),
            seed,
            hook,
            FaultPlan::none(),
            fabric,
        );
        let mut violations = Vec::new();
        if out.created != out.consumed {
            violations.push(format!(
                "termination unsafe: created {} != consumed {}",
                out.created, out.consumed
            ));
        }
        if !out.bags_nonempty.is_empty() {
            violations.push(format!(
                "terminated with resident work in bags of workers {:?}",
                out.bags_nonempty
            ));
        }
        if out.nodes != truth {
            violations.push(format!(
                "wrong node count: got {}, serial truth {truth}",
                out.nodes
            ));
        }
        violations
    };
    Scenario {
        name: name.to_string(),
        workers,
        expect_violation: false,
        runner: Box::new(runner),
    }
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// All checkable scenarios at the given scale. `single-steal:*` covers every
/// Policy × FreeStrategy pair; the `broken-*` rows are the self-tests that
/// must fail under exploration.
pub fn catalog(workers: usize, seed: u64) -> Vec<Scenario> {
    use FabricMode::{Blocking, Pipelined};
    use Protocol::{CasLock, FenceFree, LockFree};
    let workers = workers.max(2);
    const ONE: &[usize] = &[0];
    const TWO: &[usize] = &[0, 1];
    let raw = |protocol, victims, items, fabric, cast: &[Role], planted| RawSpec {
        desc: Desc::of(protocol),
        victims,
        items,
        fabric,
        cast: cast.to_vec(),
        planted,
    };
    let thief = |ring| [Role::Thief(Script::on(ring))];
    let suspector = |ring, suspect| Role::Suspector { ring, suspect };
    // The zombie seam: worker 1 locks with an epoch-stamped word and pauses
    // mid-steal; worker 2 plays a message detector with a false positive.
    // The shipped zombie re-checks its own epoch before the take, so no
    // schedule can make an evicted incarnation touch the deque.
    let zombie = Script {
        pause: true,
        ..Script::on(ONE)
    };
    let unfenced = |s: Script| Script {
        unfenced: true,
        ..s
    };
    let no_claim_write = [Role::Thief(Script {
        private_claims: true,
        ..Script::on(ONE)
    })];
    let late_advance = [Role::Thief(Script {
        late_advance: true,
        ..Script::on(ONE)
    })];
    let mut v = vec![
        raw_scenario(
            "deque-steal",
            workers,
            raw(CasLock, 1, 2, Blocking, &thief(ONE), false),
        ),
        raw_scenario(
            "broken-release",
            2,
            raw(CasLock, 1, 1, Blocking, &late_advance, true),
        ),
        raw_scenario(
            "deque-steal-pipelined",
            workers,
            raw(CasLock, 1, 2, Pipelined, &thief(ONE), false),
        ),
        // The lock-free family in isolation: the thief's `top` CAS against
        // the owner's last-item CAS, under the order ledger.
        raw_scenario(
            "lock-free-steal",
            workers,
            raw(LockFree, 1, 2, Blocking, &thief(ONE), false),
        ),
        // The fence-free family: read/write-only steals with bounded
        // multiplicity.
        raw_scenario(
            "fence-free-steal",
            workers,
            raw(FenceFree, 1, 2, Blocking, &thief(ONE), false),
        ),
        raw_scenario(
            "broken-claim",
            2,
            raw(FenceFree, 1, 1, Blocking, &no_claim_write, true),
        ),
        // The multi-steal probe rings (`--multi-steal`): two victims, each
        // thief's probes in flight at once, first hit in ring order wins and
        // the rest are abandoned — `locks_free` and `tickets_retired` close
        // the cancel paths.
        raw_scenario(
            "multi-steal-probe",
            workers,
            raw(CasLock, 2, 2, Blocking, &thief(TWO), false),
        ),
        raw_scenario(
            "multi-steal-probe-pipelined",
            workers,
            raw(CasLock, 2, 2, Pipelined, &thief(TWO), false),
        ),
        raw_scenario(
            "multi-steal-ff",
            workers,
            raw(FenceFree, 2, 2, Blocking, &thief(TWO), false),
        ),
    ];

    let rt = |name: String, spec| runtime_scenario(name, workers, seed, spec);
    let one_item = |policy| RtSpec::new(policy, single_steal_root, 0, completes(15, false, false));
    let fib8 = || RtSpec::new(Policy::ContGreedy, fib, 8, completes(21, false, false));
    for policy in Policy::ALL {
        let slug = policy_slug(policy);
        for strategy in [FreeStrategy::LockQueue, FreeStrategy::LocalCollection] {
            let name = format!("single-steal:{slug}:{}", strategy_slug(strategy));
            v.push(rt(
                name,
                RtSpec {
                    strategy,
                    ..one_item(policy)
                },
            ));
        }
        // The same join race with the posted-verb fabric: steals and retval
        // publications now have a window between post and completion that
        // the explorer can interleave into.
        let name = format!("single-steal-pipelined:{slug}");
        v.push(rt(
            name,
            RtSpec {
                fabric: Pipelined,
                ..one_item(policy)
            },
        ));
        // And stealing fence-free: the thief's claim races the owner's
        // pop-parent fast path and the dedup arbitration (not a lock) must
        // keep the join exact.
        let name = format!("single-steal-ff:{slug}");
        v.push(rt(
            name,
            RtSpec {
                protocol: Protocol::FenceFree,
                ..one_item(policy)
            },
        ));
    }
    // A full fork-join tree must drain, terminate and pass the end-of-run
    // leak oracles (fence-free: finalize reclaims thief-claimed slots) under
    // every explored schedule.
    for (name, fabric, protocol) in [
        ("fork-join", Blocking, Protocol::CasLock),
        ("fork-join-pipelined", Pipelined, Protocol::CasLock),
        ("fence-free-term", Blocking, Protocol::FenceFree),
        ("fence-free-term-pipelined", Pipelined, Protocol::FenceFree),
        ("lock-free-term", Blocking, Protocol::LockFree),
    ] {
        v.push(rt(
            name.to_string(),
            RtSpec {
                fabric,
                protocol,
                ..fib8()
            },
        ));
    }
    // K=2 probe rings under every protocol family — the pipelined fabric
    // keeps both probes genuinely in flight, so the explorer can interleave
    // owners into the probe/commit window.
    for protocol in Protocol::ALL {
        let name = format!("multi-steal:{}", protocol.label());
        v.push(rt(
            name,
            RtSpec {
                fabric: Pipelined,
                protocol,
                multi_steal: 2,
                ..fib8()
            },
        ));
    }
    v.push(bot_term_scenario("bot-term", workers, seed, Blocking));
    v.push(bot_term_scenario(
        "bot-term-pipelined",
        workers,
        seed,
        Pipelined,
    ));
    // Fail-stop loss of one worker: every recoverable policy replays to the
    // exact answer (ChildRtc stolen descriptors; continuation frames, the
    // ContGreedy FAA race and ContStalling wait queues through the buddy
    // mirror); killing worker 0 also re-elects the root holder.
    for (name, policy, victim) in [
        ("crash-recovery", Policy::ChildRtc, workers - 1),
        ("crash-recovery-greedy", Policy::ContGreedy, workers - 1),
        ("crash-recovery-stalling", Policy::ContStalling, workers - 1),
        ("crash-recovery-root", Policy::ContGreedy, 0),
    ] {
        let spec = RtSpec::new(policy, fib, 9, completes(34, true, true));
        v.push(rt(
            name.to_string(),
            RtSpec {
                plan: kill_plan(victim),
                ..spec
            },
        ));
    }
    let spec = RtSpec::new(Policy::ChildFull, fib, 9, aborts_typed(workers - 1, 34));
    v.push(rt(
        "crash-abort".to_string(),
        RtSpec {
            plan: kill_plan(workers - 1),
            ..spec
        },
    ));
    // Imperfect failure detection on the raw deque, single victim and
    // inside a two-victim probe ring (the thief is evicted between probe
    // and take while it holds the committed victim's lock), each with its
    // planted-bug twin.
    for (name, planted) in [("zombie-steal", false), ("broken-fence", true)] {
        let z = if planted { unfenced(zombie) } else { zombie };
        let cast = [Role::Thief(z), suspector(ONE, 1)];
        v.push(raw_scenario(
            name,
            3,
            raw(CasLock, 1, 2, Blocking, &cast, planted),
        ));
    }
    for (name, planted) in [("zombie-in-ring", false), ("broken-ring-fence", true)] {
        let z = if planted {
            unfenced(Script::on(TWO))
        } else {
            Script::on(TWO)
        };
        let cast = [Role::Thief(z), suspector(TWO, 2)];
        v.push(raw_scenario(
            name,
            4,
            raw(CasLock, 2, 2, Blocking, &cast, planted),
        ));
    }
    // kill=none false suspicion must stay result-identical to fault-free.
    for (name, policy, until) in [
        ("false-suspect-term", Policy::ContGreedy, VTime::MAX),
        ("rejoin-replay", Policy::ChildRtc, VTime::us(6)),
    ] {
        let spec = RtSpec::new(policy, fib, 10, completes(55, true, false));
        v.push(rt(
            name.to_string(),
            RtSpec {
                plan: suspicion_plan(until),
                ..spec
            },
        ));
    }
    v
}

/// Look up one scenario by name (as printed by the catalog).
pub fn by_name(name: &str, workers: usize, seed: u64) -> Option<Scenario> {
    catalog(workers, seed).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_schedule_is_clean_for_correct_scenarios() {
        for s in catalog(2, 1) {
            let rec = s.run_choices(&[]);
            if !s.expect_violation {
                assert!(
                    rec.violations.is_empty(),
                    "{} violated under the native schedule: {:?}",
                    s.name,
                    rec.violations
                );
            }
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let s = by_name("deque-steal", 2, 1).unwrap();
        let a = s.run_choices(&[0, 1, 0, 2]);
        let b = s.run_choices(&[0, 1, 0, 2]);
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.eligible, b.eligible);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn catalog_names_are_unique_and_resolvable() {
        let cat = catalog(3, 0);
        for s in &cat {
            assert!(
                by_name(&s.name, 3, 0).is_some(),
                "{} not resolvable",
                s.name
            );
        }
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }
}
