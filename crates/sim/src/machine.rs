//! The simulated machine: segments + one-sided fabric verbs + counters.
//!
//! [`Machine`] is the only way workers touch each other's memory. The fabric
//! is a *posted-operation* model, mirroring real RDMA (`ibv_post_send` /
//! `ibv_poll_cq`, MPI-3 `MPI_Rput` / `MPI_Win_flush`): every one-sided verb
//! is a [`Verb`] value, and [`Machine::post`] applies its memory effect,
//! bumps the issuing worker's [`FabricStats`], runs the nominal cost through
//! the fault layer, and enqueues a completion on the issuer's completion
//! queue at its computed finish time. Workers reap with [`Machine::wait`]
//! (advance to one completion) or [`Machine::poll_cq`] (harvest everything
//! already finished). [`Machine::post_unsignaled`] issues a write that
//! never completes on the queue, and [`Machine::post_span`] a read of
//! adjacent words.
//!
//! *When* a posted verb starts is the machine's issue depth
//! ([`FabricMode`]): after the issuer's previous verb has retired (depth 1,
//! the default) or at its post instant (overlapped). Protocol code posts
//! one verb sequence per step into a [`Window`] and never reads the mode.
//!
//! The blocking form [`Machine::call`] is `post + wait` and must not be
//! issued while the issuer has posts outstanding.
//! Local accesses (to the issuer's own segment) are charged `local_op`
//! instead of a network round trip, mirroring how the runtime in the paper
//! distinguishes local deque operations from remote steals.

use crate::fault::{FaultPlan, FaultState, MsgFate};
use crate::latency::{LatencyModel, MachineProfile};
use crate::mem::{GlobalAddr, Segment};
use crate::time::VTime;
use crate::topology::Topology;
use crate::WorkerId;

/// The fabric's issue depth.
///
/// Protocol code issues one verb sequence per protocol step and never looks
/// at the mode: the [`Machine`] alone decides when each posted verb starts,
/// and a [`Window`] charges the group accordingly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricMode {
    /// Issue depth 1: a posted verb starts when the issuer's previous verb
    /// has retired, so a group of posts costs the sum of its verbs (the
    /// semantics all goldens and check oracles are pinned to).
    #[default]
    Blocking,
    /// A posted verb starts at its post instant, so the independent verbs
    /// of a protocol step overlap and the group costs its slowest
    /// completion (MassiveThreads/DM style latency hiding).
    Pipelined,
}

impl FabricMode {
    pub fn label(&self) -> &'static str {
        match self {
            FabricMode::Blocking => "blocking",
            FabricMode::Pipelined => "pipelined",
        }
    }
}

/// Machine construction parameters.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    pub workers: usize,
    pub profile: MachineProfile,
    /// Capacity of each worker's pinned segment, bytes.
    pub seg_bytes: u32,
    /// Bytes at the start of each segment reserved for statically placed
    /// runtime structures (deque control words + ring buffer).
    pub seg_reserved: u32,
    /// Network topology (distance-scaled remote latencies).
    pub topology: Topology,
    /// Fault-injection plan; [`FaultPlan::none()`] disables the layer
    /// entirely (no RNG draws, no cost changes).
    pub faults: FaultPlan,
    /// The issue depth: when a posted verb starts (see [`FabricMode`]).
    pub fabric: FabricMode,
    /// Doorbell-batching discount: fraction of `injection` charged to the
    /// second and later verbs of a [`Machine::chain_begin`] chain (real NICs
    /// ring one doorbell for a linked list of work requests). `1.0` (the
    /// default) keeps chained charges arithmetically identical to unchained
    /// posts, so every golden stays byte-identical.
    pub doorbell_frac: f64,
}

impl MachineConfig {
    pub fn new(workers: usize, profile: MachineProfile) -> MachineConfig {
        MachineConfig {
            workers,
            profile,
            seg_bytes: 8 << 20,
            seg_reserved: 0,
            topology: Topology::Flat,
            faults: FaultPlan::none(),
            fabric: FabricMode::Blocking,
            doorbell_frac: 1.0,
        }
    }

    pub fn with_fabric(mut self, mode: FabricMode) -> MachineConfig {
        self.fabric = mode;
        self
    }

    pub fn with_doorbell(mut self, frac: f64) -> MachineConfig {
        self.doorbell_frac = frac;
        self
    }

    pub fn with_reserved(mut self, bytes: u32) -> MachineConfig {
        self.seg_reserved = bytes;
        self
    }

    pub fn with_seg_bytes(mut self, bytes: u32) -> MachineConfig {
        self.seg_bytes = bytes;
        self
    }

    pub fn with_topology(mut self, t: Topology) -> MachineConfig {
        self.topology = t;
        self
    }

    pub fn with_faults(mut self, plan: FaultPlan) -> MachineConfig {
        self.faults = plan;
        self
    }
}

/// Per-worker fabric operation counters (ops and bytes, split local/remote).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    pub remote_gets: u64,
    pub remote_puts: u64,
    pub remote_amos: u64,
    pub local_ops: u64,
    pub bytes_got: u64,
    pub bytes_put: u64,
    pub messages_sent: u64,
    pub messages_handled: u64,
    /// Remote verb attempts re-issued after a transient failure.
    pub retries: u64,
    /// Remote verb attempts that timed out against an unresponsive peer.
    pub timeouts: u64,
    /// Remote verb attempts that failed fast against a fail-stopped peer.
    pub dead_fails: u64,
    /// High-water mark of verbs in flight from this worker at once (the
    /// posted verb itself included, and every verb of a [`Window`] once it
    /// is charged). Exactly 1 under [`FabricMode::Blocking`], whose issue
    /// depth is 1 by definition; overlapped hot paths push it higher.
    pub max_inflight: u64,
    /// Completion-queue reap calls ([`Machine::poll_cq`]).
    /// `wait` on a single handle is not counted: blocking on one verb is not
    /// a poll, so the runtimes (which only ever `wait`) report 0 here.
    pub cq_polls: u64,
    /// Verbs issued inside a doorbell chain, in either fabric mode: the
    /// second and later posts of each [`Machine::chain_begin`] chain,
    /// charged the configured fraction of `injection` instead of the full
    /// CPU post cost.
    pub doorbell_chained: u64,
    /// Recovery-relevant verbs rejected by the epoch fence: the issuer's
    /// view of the target's incarnation (or of its own) was stale, so the
    /// verb was refused instead of tearing post-eviction state. See
    /// [`Machine::fence_verb`].
    pub fenced_verbs: u64,
    /// High-water mark of the *simulated* pinned footprint of this worker's
    /// segment, at 4 KiB registration granularity: a page is resident from
    /// the first non-zero write it receives, so a worker that is never
    /// written reports 0 and one whose traffic stays inside its deque
    /// control words reports a single page — regardless of the configured
    /// `seg_bytes`. The machine-wide total ([`FabricStats::merge`] sums this
    /// field) therefore grows with the number of *touched pages*, not with
    /// `workers × seg_bytes`. A simulation result, pinned by goldens; what
    /// the host allocates behind it is [`Machine::backing_bytes_total`],
    /// which is smaller (see [`crate::mem::Segment`]).
    pub peak_resident_bytes: u64,
}

impl FabricStats {
    pub fn remote_total(&self) -> u64 {
        self.remote_gets + self.remote_puts + self.remote_amos
    }

    pub fn merge(&mut self, o: &FabricStats) {
        // Destructured so adding a field without summing it here is a
        // compile error, not a silently wrong merge.
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
        } = *o;
        self.remote_gets += remote_gets;
        self.remote_puts += remote_puts;
        self.remote_amos += remote_amos;
        self.local_ops += local_ops;
        self.bytes_got += bytes_got;
        self.bytes_put += bytes_put;
        self.messages_sent += messages_sent;
        self.messages_handled += messages_handled;
        self.retries += retries;
        self.timeouts += timeouts;
        self.dead_fails += dead_fails;
        // Completion queues are per worker, so the machine-wide figure is
        // the deepest any single queue ever got, not a sum.
        self.max_inflight = self.max_inflight.max(max_inflight);
        self.cq_polls += cq_polls;
        self.doorbell_chained += doorbell_chained;
        self.fenced_verbs += fenced_verbs;
        // Segments are disjoint registrations, so the machine-wide
        // footprint is the sum of the per-worker high-water marks.
        self.peak_resident_bytes += peak_resident_bytes;
    }
}

/// One one-sided verb: the paper's four primitives (get, put,
/// fetch-and-add, CAS) on one word, a read spanning adjacent words, and the
/// bulk transfers. Issued by [`Machine::post`], [`Machine::post_unsignaled`]
/// or [`Machine::call`]; a verb to the issuer's own segment is a local op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `get v ← L`: read one word; the completion carries it.
    Get(GlobalAddr),
    /// One read of `n` adjacent words from the address — a contiguous
    /// record (deque bounds, a ring-slot entry). One verb on the wire: one
    /// `remote_gets`, one round trip, `8·n` bytes. The completion carries
    /// the first word; [`Machine::post_span`] returns them all.
    GetSpan(GlobalAddr, u32),
    /// `put L ← v`: write one word.
    Put(GlobalAddr, u64),
    /// `fetch_and_add(L, v)`; the completion carries the fetched value.
    Faa(GlobalAddr, u64),
    /// Compare-and-swap `(expect, new)`; the completion carries the
    /// observed value.
    Cas(GlobalAddr, u64, u64),
    /// Read `len` bytes from a worker's segment (e.g. a migrated call
    /// stack). The payload travels through runtime-owned side tables; the
    /// verb charges latency + bandwidth and counts bytes.
    GetBulk(WorkerId, usize),
    /// Write `len` bytes into a worker's segment.
    PutBulk(WorkerId, usize),
}

/// A posted verb awaiting completion. Returned by [`Machine::post`];
/// redeemed by [`Machine::wait`] or reaped in bulk via [`Machine::poll_cq`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerbHandle {
    worker: WorkerId,
    id: u64,
    finish: VTime,
}

impl VerbHandle {
    /// The id completions carry, for matching [`Completion::id`].
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The instant the verb retires (fixed at post; [`Machine::wait`]
    /// reports the same value).
    #[inline]
    pub fn finish(&self) -> VTime {
        self.finish
    }
}

/// The issuer's clock through one group of verbs issued back to back — the
/// one way protocol code charges a group of posts, so that the same verb
/// sequence is summed at issue depth 1 and overlapped otherwise.
///
/// Open with [`Machine::window`], post every signaled verb at
/// [`Window::at`] and pass its handle through [`Window::posted`], report
/// every *charged* unsignaled injection through [`Window::unsignaled`], and
/// close with [`Machine::finish`]:
///
/// * depth 1 ([`FabricMode::Blocking`]): each verb is issued when the
///   previous one has retired, so `at()` follows the completions and the
///   group finishes at the sum of every cost, unsignaled injections
///   included;
/// * overlapped ([`FabricMode::Pipelined`]): every signaled verb is posted
///   at the window's opening instant, the injections advance only the
///   issuer's own clock, and the group finishes at the slowest completion
///   (or at the issuer's clock, if the injections outlast it).
///
/// Folding an unsignaled injection in by hand (`cost.max(fence - now)`) is
/// right only for the overlapped depth: the one-sided BoT steal did that
/// with its lock release and lost the injection whenever the same code ran
/// at depth 1.
#[derive(Debug)]
pub struct Window {
    me: WorkerId,
    serial: bool,
    start: VTime,
    clock: VTime,
    fin: VTime,
    verbs: u64,
}

impl Window {
    /// The instant to post the group's next signaled verb at.
    #[inline]
    pub fn at(&self) -> VTime {
        if self.serial {
            self.clock
        } else {
            self.start
        }
    }

    /// The issuer's own clock: the opening instant plus every injection so
    /// far (plus, at depth 1, every completion it has blocked on).
    #[inline]
    pub fn now(&self) -> VTime {
        self.clock
    }

    /// Account a signaled verb posted at [`Window::at`].
    #[inline]
    pub fn posted(&mut self, h: VerbHandle) -> VerbHandle {
        debug_assert_eq!(h.worker, self.me, "windows are per issuer");
        self.verbs += 1;
        self.fin = self.fin.max(h.finish);
        if self.serial {
            self.clock = h.finish;
        }
        h
    }

    /// Account an unsignaled verb whose injection `inj` the issuer pays.
    #[inline]
    pub fn unsignaled(&mut self, inj: VTime) {
        self.verbs += 1;
        self.clock += inj;
    }
}

/// One reaped completion-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Matches [`VerbHandle::id`] of the post that produced it.
    pub id: u64,
    /// The verb's read result (fetched value for get/amo/cas; 0 for writes
    /// and bulk transfers, whose payloads travel through runtime-owned side
    /// tables).
    pub value: u64,
    /// Absolute virtual instant the verb retired, on the issuer's clock
    /// origin (posts made with `at = VTime::ZERO` report their cost here).
    pub finish: VTime,
}

/// An entry outstanding on a worker's completion queue.
#[derive(Clone, Copy, Debug)]
struct CqEntry {
    id: u64,
    target: WorkerId,
    value: u64,
    finish: VTime,
}

/// Per-worker completion queue: verbs posted, not yet reaped.
#[derive(Default)]
struct CompletionQueue {
    next_id: u64,
    inflight: Vec<CqEntry>,
}

/// The simulated cluster: one segment per worker plus the latency model.
pub struct Machine {
    pub cfg: MachineConfig,
    /// Per-worker pinned segments, materialized on first *mutating* touch
    /// (write, atomic, allocation). Reads of an absent segment report 0 —
    /// exactly what a freshly calloc'd segment holds — so laziness is
    /// unobservable to the simulation; it only keeps an idle worker's host
    /// footprint at O(1) bytes instead of `seg_bytes`.
    segments: Vec<Option<Segment>>,
    stats: Vec<FabricStats>,
    /// One completion queue per worker (posted verbs not yet reaped).
    cqs: Vec<CompletionQueue>,
    /// Per-worker doorbell-chain state: `Some(n)` while a chain is open,
    /// where `n` counts the verbs already posted inside it. The first verb
    /// of a chain rings the doorbell (full `injection`); later ones ride it
    /// at `doorbell_frac` of the cost.
    chain: Vec<Option<u32>>,
    /// Fault-injection state; `None` when the plan is inactive, which makes
    /// the fault layer literally free (one branch per verb).
    faults: Option<Box<FaultState>>,
    /// Per-worker incarnation epochs of the cluster-membership view. Bumped
    /// by [`Machine::evict`] when a worker is confirmed dead (rightly or,
    /// under the message detector, wrongly); recovery-relevant verbs carry
    /// the issuer's epoch view and are refused by [`Machine::fence_verb`]
    /// when it is stale. All-zero for the entire run unless an eviction
    /// happens, so healthy runs are untouched.
    epochs: Vec<u64>,
    /// Global termination flag. In a real deployment this is a tiny
    /// RDMA-broadcast epoch counter; idle loops poll it at local cost.
    done: bool,
    /// Per-rank park watch: `Some` while that worker is parked on a word
    /// of its own segment (see [`Machine::park_on_own_word`]) or on its
    /// mailbox (see [`Machine::park_on_mailbox`]).
    parked: Vec<Option<ParkWatch>>,
    /// Wake instants computed since the engine last drained them.
    wakeups: Vec<(VTime, WorkerId)>,
    /// The actor currently stepping and its step-start clock — i.e. the
    /// engine key `(step_now, step_cur)` of the step every eager memory
    /// effect belongs to. Recorded by [`Machine::begin_step`]; wake-instant
    /// computation orders writes against parked pollers by this key.
    step_cur: WorkerId,
    step_now: VTime,
}

/// A worker parked instead of re-polling every `grid_ns` of virtual time.
/// The watch carries everything needed to reproduce the abandoned polling
/// loop exactly: what the polls looked at (`on`), the instant of the last
/// real poll (`since`), the poll period (`grid_ns`), the fabric charge
/// (`charge` local ops) each skipped poll would have made, and the index
/// of the poll the engine has been told to resume at (`wake_poll`, 0 while
/// none is queued). The watch outlives its first wake, because a later
/// event can call for an earlier poll than a queued deadline or delivery,
/// and the wake then has to move.
#[derive(Clone, Copy, Debug)]
struct ParkWatch {
    on: WatchOn,
    since: VTime,
    grid_ns: u64,
    charge: u64,
    wake_poll: u64,
}

/// What a parked worker's abandoned polls were looking at.
#[derive(Clone, Copy, Debug)]
enum WatchOn {
    /// The word at this offset of the worker's own segment (see
    /// [`Machine::park_on_own_word`]).
    Word(u32),
    /// The worker's mailbox (see [`Machine::park_on_mailbox`]); the woken
    /// worker drops the watch ([`Machine::unpark`]).
    Mailbox,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Machine {
        let segments = (0..cfg.workers).map(|_| None).collect();
        let stats = vec![FabricStats::default(); cfg.workers];
        let cqs = (0..cfg.workers).map(|_| CompletionQueue::default()).collect();
        let chain = vec![None; cfg.workers];
        let faults = cfg
            .faults
            .is_active()
            .then(|| Box::new(FaultState::new(cfg.faults.clone(), cfg.workers)));
        let epochs = vec![0; cfg.workers];
        let parked = vec![None; epochs.len()];
        Machine {
            cfg,
            segments,
            stats,
            cqs,
            chain,
            faults,
            epochs,
            done: false,
            parked,
            wakeups: Vec::new(),
            step_cur: 0,
            step_now: VTime::ZERO,
        }
    }

    #[inline]
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    #[inline]
    pub fn lat(&self) -> &LatencyModel {
        &self.cfg.profile.latency
    }

    /// The network component of a remote cost, scaled by the topology
    /// distance; the CPU-side injection part is distance-independent.
    #[inline]
    fn wire(&self, me: WorkerId, other: WorkerId, network_ns: u64) -> u64 {
        (network_ns as f64 * self.cfg.topology.factor(me, other)).round() as u64
    }

    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    // ------------------------------------------------------------------
    // Lazy segment materialization
    // ------------------------------------------------------------------

    /// Read a word of `rank`'s segment without materializing it: an absent
    /// segment is indistinguishable from an all-zero one.
    #[inline]
    fn seg_read(&self, rank: usize, off: u32) -> u64 {
        self.segments[rank].as_ref().map_or(0, |s| s.read(off))
    }

    /// The segment backing `rank`, materialized on first mutating touch.
    /// Materialization is pure host-side bookkeeping (a fresh segment is
    /// all-zero, exactly what [`Machine::seg_read`] reported while it was
    /// absent) and costs only the struct with its inline head — pages are
    /// boxed one by one as words past the head are written (see
    /// [`crate::mem::Segment`]), and [`Machine::note_word_write`] keeps the
    /// resident stat in step.
    #[inline]
    fn seg_mut(&mut self, rank: usize) -> &mut Segment {
        let slot = &mut self.segments[rank];
        if slot.is_none() {
            *slot = Some(Segment::new(self.cfg.seg_bytes, self.cfg.seg_reserved));
        }
        slot.as_mut().expect("just materialized")
    }

    // ------------------------------------------------------------------
    // Doorbell chains: one CPU doorbell for a linked list of work requests
    // ------------------------------------------------------------------

    /// Open a doorbell chain for `me`: the next posted verb rings the
    /// doorbell at full `injection`; verbs posted after it (until
    /// [`Machine::chain_end`]) ride the same doorbell and are charged
    /// `doorbell_frac · injection` instead. Only the CPU post cost is
    /// discounted — wire latency, topology scaling and the fault layer are
    /// untouched, so with `doorbell_frac = 1.0` a chain is charge-identical
    /// to unchained posts. Chains do not nest.
    pub fn chain_begin(&mut self, me: WorkerId) {
        debug_assert!(self.chain[me].is_none(), "doorbell chains do not nest");
        self.chain[me] = Some(0);
    }

    /// Close `me`'s doorbell chain (idempotent).
    pub fn chain_end(&mut self, me: WorkerId) {
        self.chain[me] = None;
    }

    /// CPU injection charge for the next remote verb by `me`, accounting
    /// for an open doorbell chain.
    #[inline]
    fn chain_injection(&mut self, me: WorkerId) -> u64 {
        let inj = self.cfg.profile.latency.injection;
        match self.chain[me].as_mut() {
            None => inj,
            Some(n) => {
                *n += 1;
                if *n == 1 {
                    inj
                } else {
                    self.stats[me].doorbell_chained += 1;
                    (inj as f64 * self.cfg.doorbell_frac).round() as u64
                }
            }
        }
    }

    /// Run a remote verb's nominal cost through the fault layer: retries,
    /// backoff, crash-window timeouts, and degraded-NIC scaling. Identity
    /// when faults are disabled.
    #[inline]
    fn fault_cost(&mut self, me: WorkerId, peer: WorkerId, base: VTime) -> VTime {
        match self.faults.as_mut() {
            None => base,
            Some(fs) => {
                let s = &mut self.stats[me];
                fs.charge_verb(me, peer, base, &mut s.retries, &mut s.timeouts)
            }
        }
    }

    /// Record the issuing worker's clock at the top of its step: the
    /// `(now, me)` engine key orders this step's eager memory effects
    /// against parked pollers (see [`Machine::park_on_own_word`]), and
    /// fault windows (crash, degraded NIC) are evaluated against the right
    /// virtual instant.
    #[inline]
    pub fn begin_step(&mut self, me: WorkerId, now: VTime) {
        self.step_cur = me;
        self.step_now = now;
        if let Some(fs) = self.faults.as_mut() {
            fs.begin_step(me, now);
        }
    }

    /// True when a fault plan is loaded.
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Failed verb attempts by `me` since the last poll (feeds victim
    /// blacklists); always 0 when faults are disabled.
    pub fn take_faults(&mut self, me: WorkerId) -> u64 {
        self.faults.as_mut().map_or(0, |fs| fs.take_faults(me))
    }

    /// End of a crash window covering `worker` at `now`, if it is currently
    /// crash-stopped. Actors poll this for *themselves* at the top of a step
    /// and sleep until recovery.
    pub fn crashed_until(&self, worker: WorkerId, now: VTime) -> Option<VTime> {
        self.faults
            .as_ref()
            .and_then(|fs| fs.crashed_until(worker, now))
    }

    /// The first instant after `now` at which a purely local poll by `me`
    /// can observe the fault plan differently — `me`'s kill, the start of
    /// one of its crash windows, a detector status change of any worker
    /// (see [`crate::fault::FaultState::next_change_after`]); `VTime::MAX`
    /// without a plan. The deadline of a parked spin
    /// ([`Machine::park_on_own_word`]).
    pub fn next_fault_change(&mut self, me: WorkerId, now: VTime) -> VTime {
        self.faults
            .as_mut()
            .map_or(VTime::MAX, |fs| fs.next_change_after(me, now))
    }

    /// Decide the fabric fate of one two-sided message sent by `me`.
    /// Task-carrying messages must pass `droppable = false` (reliable
    /// channel: never dropped, possibly duplicated).
    pub fn msg_fate(&mut self, me: WorkerId, droppable: bool) -> MsgFate {
        self.faults
            .as_mut()
            .map_or(MsgFate::Deliver, |fs| fs.msg_fate(me, droppable))
    }

    // ------------------------------------------------------------------
    // Fail-stop kills and the heartbeat/lease registry
    // ------------------------------------------------------------------

    /// True when the recovery machinery must run (a kill is scheduled or
    /// `recover=on`).
    #[inline]
    pub fn recovery_armed(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|fs| fs.plan().recovery_armed())
    }

    /// Is `worker` fail-stopped at `now`? Ground truth (the NIC's view);
    /// survivors learn it through [`Machine::dead_guard`] errors or the
    /// lease registry.
    #[inline]
    pub fn is_dead(&self, worker: WorkerId, now: VTime) -> bool {
        self.faults.as_ref().is_some_and(|fs| fs.is_dead(worker, now))
    }

    /// Has `worker`'s heartbeat lease expired at `now`? Sound: only
    /// genuinely dead workers are ever confirmed (a live worker's beats
    /// never stop). Reading the local lease-registry replica costs nothing
    /// extra beyond the idle step that polls it.
    #[inline]
    pub fn confirmed_dead(&self, worker: WorkerId, now: VTime) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|fs| fs.confirmed_dead(worker, now))
    }

    /// Advance `cursor` through the detector's candidate feed up to `now`,
    /// appending the id of every worker whose [`Machine::confirmed_dead`]
    /// status may have changed since the cursor's last position (see
    /// [`crate::fault::FaultState::death_candidates`]). Consumers re-check
    /// only the returned workers instead of scanning the whole registry —
    /// O(status changes) per run, not O(workers) per poll. No-op (and
    /// `out` stays empty) without a fault plan.
    #[inline]
    pub fn death_candidates(&mut self, cursor: &mut usize, now: VTime, out: &mut Vec<WorkerId>) {
        if let Some(fs) = &mut self.faults {
            fs.death_candidates(cursor, now, out);
        }
    }

    /// Guard a remote protocol operation by `me` against `peer` at `now`:
    /// if the peer is fail-stopped the verb does not happen — the NIC
    /// reports the peer unreachable after roughly one round trip, and the
    /// returned cost is that error latency. `None` means the peer is up and
    /// the caller proceeds with the real verbs.
    ///
    /// Granularity note: the guard is evaluated once at the top of a
    /// protocol step; a peer whose kill instant falls inside the step is
    /// treated as dying just after it (operations already in flight
    /// linearize before the death).
    #[inline]
    pub fn dead_guard(&mut self, me: WorkerId, peer: WorkerId, now: VTime) -> Option<VTime> {
        if me != peer && self.is_dead(peer, now) {
            self.stats[me].dead_fails += 1;
            let wire = self.wire(me, peer, self.lat().rdma_get);
            Some(VTime::ns(self.lat().injection + wire))
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Incarnation epochs (cluster-membership view)
    // ------------------------------------------------------------------

    /// Current incarnation epoch of `worker`. 0 until its first eviction.
    #[inline]
    pub fn epoch_of(&self, worker: WorkerId) -> u64 {
        self.epochs[worker]
    }

    /// Evict `worker`'s current incarnation: bump its epoch so every verb
    /// still tagged with the old one is refused from here on. Called by the
    /// first confirmer (ClaimSet-arbitrated on the scheduler side, so the
    /// bump happens exactly once per incarnation). Returns the new epoch.
    ///
    /// In a real deployment this is a membership write to the same
    /// well-known registry the heartbeats land in; survivors piggyback the
    /// refreshed view on their next lease read, which the idle loop already
    /// charges for.
    ///
    /// A parked poller may be looking at the bumped epoch — its own (the
    /// self-fence) or that of the thief holding its lock (the lock break) —
    /// so every parked worker is poked.
    pub fn evict(&mut self, worker: WorkerId) -> u64 {
        self.epochs[worker] += 1;
        self.poke_all();
        self.epochs[worker]
    }

    /// Epoch fence for a recovery-relevant verb issued by `me` under the
    /// view that `target` is at incarnation `view`. Returns `true` — and
    /// counts it in [`FabricStats::fenced_verbs`] — when the view is stale
    /// and the verb must not happen (the target NIC would reject the
    /// stale-tagged work request). Purely a host-side comparison against
    /// the locally cached membership view: no fabric verbs, no cost —
    /// the issuer learns nothing it wasn't already charged for.
    ///
    /// Self-fences (`target == me`) are how a zombie observes its own
    /// eviction: its next step sees its epoch moved on and quiesces instead
    /// of issuing the verb.
    #[inline]
    pub fn fence_verb(&mut self, me: WorkerId, view: u64, target: WorkerId) -> bool {
        if self.epochs[target] > view {
            self.stats[me].fenced_verbs += 1;
            true
        } else {
            false
        }
    }

    /// True when the loaded plan's detector can falsely suspect a live
    /// worker (message detector). Strict accounting must be off then.
    #[inline]
    pub fn suspicion_possible(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|fs| fs.plan().suspicion_possible())
    }

    /// True when an evicted-but-live worker may rejoin as a fresh
    /// incarnation (the plan's `rejoin=` clause; on by default).
    #[inline]
    pub fn rejoin_allowed(&self) -> bool {
        self.faults.as_ref().is_some_and(|fs| fs.plan().rejoin)
    }

    // ------------------------------------------------------------------
    // Posted verbs: issue now, reap later
    // ------------------------------------------------------------------
    //
    // Every verb is a `Verb` value issued through one body (`issue`).
    // `post` takes `at` — the issuer's virtual instant of the post (step
    // start + cost accrued so far). The memory effect is applied at post
    // (effects are eager everywhere in this simulator: races resolve within
    // one latency window, each op linearizes at issue), the nominal cost
    // runs through the fault layer *at post* — so retries, backoff,
    // timeouts and degraded-NIC scaling draw the same RNG sequence whether
    // the issuer then blocks (`call`) or not — and the completion lands on
    // the issuer's queue one `cost` after the verb starts: at `at`, or at
    // issue depth 1 once every verb already on the queue has retired (see
    // `post_core`).

    /// Enqueue one completion. At issue depth 1 the verb starts when every
    /// verb the issuer still has on its queue has retired; otherwise it
    /// starts at `at`, and since verbs to the same peer ride the same queue
    /// pair they retire in post order: the completion is clamped to no
    /// earlier than any still-inflight verb to the same target.
    fn post_core(
        &mut self,
        me: WorkerId,
        target: WorkerId,
        value: u64,
        cost: VTime,
        at: VTime,
    ) -> VerbHandle {
        let serial = self.cfg.fabric == FabricMode::Blocking;
        let cq = &mut self.cqs[me];
        let (mut start, mut floor) = (at, VTime::ZERO);
        for e in &cq.inflight {
            if serial {
                start = start.max(e.finish);
            } else if e.target == target {
                floor = floor.max(e.finish);
            }
        }
        let finish = (start + cost).max(floor);
        let id = cq.next_id;
        cq.next_id += 1;
        cq.inflight.push(CqEntry { id, target, value, finish });
        let depth = if serial { 1 } else { cq.inflight.len() as u64 };
        self.note_depth(me, depth);
        VerbHandle { worker: me, id, finish }
    }

    #[inline]
    fn note_depth(&mut self, me: WorkerId, depth: u64) {
        if depth > self.stats[me].max_inflight {
            self.stats[me].max_inflight = depth;
        }
    }

    /// Track the instantaneous queue depth for an unsignaled post, which
    /// never materializes a reapable entry.
    #[inline]
    fn note_unsignaled_depth(&mut self, me: WorkerId) {
        let depth = match self.cfg.fabric {
            FabricMode::Blocking => 1,
            FabricMode::Pipelined => self.cqs[me].inflight.len() as u64 + 1,
        };
        self.note_depth(me, depth);
    }

    /// Open a [`Window`] for a group of verbs `me` issues from instant `at`.
    #[inline]
    pub fn window(&self, me: WorkerId, at: VTime) -> Window {
        Window {
            me,
            serial: self.cfg.fabric == FabricMode::Blocking,
            start: at,
            clock: at,
            fin: at,
            verbs: 0,
        }
    }

    /// Charge a [`Window`]: the instant its whole group has retired. Reaps
    /// nothing — `wait` the handles (now, or a step later: the value is
    /// final once the last verb is accounted). When the group overlapped,
    /// all of its verbs were in flight together.
    pub fn finish(&mut self, w: &Window) -> VTime {
        if !w.serial {
            self.note_depth(w.me, w.verbs);
        }
        w.clock.max(w.fin)
    }

    /// Does `me` have a posted verb that has not retired by `at`? Never at
    /// depth 1 when `at` is the issuing window's clock: the issuer blocked
    /// on each verb in turn.
    pub fn outstanding(&self, me: WorkerId, at: VTime) -> bool {
        self.cqs[me].inflight.iter().any(|e| e.finish > at)
    }

    /// Post `v`, signaled: its memory effect happens now and its
    /// completion, carrying the verb's read result, lands on `me`'s queue.
    #[inline]
    pub fn post(&mut self, me: WorkerId, v: Verb, at: VTime) -> VerbHandle {
        let (to, value, cost) = self.issue(me, v, true);
        self.post_core(me, to, value, cost, at)
    }

    /// Post a write (`Put` or `PutBulk`) *unsignaled*: the issuer pays only
    /// the injection (plus a bulk payload's serialization) and never reaps a
    /// completion — retirement is subsumed by adjacent signaled traffic on
    /// the same queue pair. Used by the local-collection free-bit scheme
    /// (§III-B), whose point is that a remote free costs one non-blocking
    /// communication, by protocol writes that ride an already-charged
    /// packet window, and by the inlined checkpoint header. It still goes
    /// through the reliable retransmitting channel (a lost free bit would
    /// leak memory forever), so the issuer is charged the rare retries.
    #[inline]
    pub fn post_unsignaled(&mut self, me: WorkerId, v: Verb) -> VTime {
        debug_assert!(
            matches!(v, Verb::Put(..) | Verb::PutBulk(..)),
            "unsignaled {v:?}"
        );
        self.issue(me, v, false).2
    }

    /// Issue `v` and block on it: `(value, cost)`. Must not be issued while
    /// `me` has posts outstanding.
    #[inline]
    pub fn call(&mut self, me: WorkerId, v: Verb) -> (u64, VTime) {
        let h = self.post(me, v, VTime::ZERO);
        self.wait(me, h)
    }

    /// Post [`Verb::GetSpan`] over the `N` adjacent words at `addr` and
    /// return their values (eager, like every verb effect here) with the
    /// handle. Post at `VTime::ZERO` and `wait` for the blocking form.
    pub fn post_span<const N: usize>(
        &mut self,
        me: WorkerId,
        addr: GlobalAddr,
        at: VTime,
    ) -> ([u64; N], VerbHandle) {
        let vals = std::array::from_fn(|i| {
            self.seg_read(addr.rank as usize, addr.off + i as u32 * crate::WORD)
        });
        (vals, self.post(me, Verb::GetSpan(addr, N as u32), at))
    }

    /// The one verb body: the eager memory effect, then the local-or-remote
    /// split, the [`FabricStats`] counter and bytes, the injection (the
    /// doorbell charge of `me`'s current chain, plus the topology-scaled
    /// wire when signaled), a bulk payload, and the fault cost. Returns
    /// the target, the value read and the cost.
    ///
    /// Always inlined, and its entry points `#[inline]`, so that a call
    /// site's constant `Verb` folds both matches away: measured on a
    /// steal-probe loop, an out-of-line body cost ~15 % more per verb than
    /// the per-verb methods it replaces.
    #[inline(always)]
    fn issue(&mut self, me: WorkerId, v: Verb, signaled: bool) -> (WorkerId, u64, VTime) {
        let (to, value, bytes, len) = match v {
            Verb::Get(a) => (a.rank as usize, self.seg_read(a.rank as usize, a.off), 8, 0),
            Verb::GetSpan(a, n) => {
                let first = self.seg_read(a.rank as usize, a.off);
                (a.rank as usize, first, 8 * n as u64, 0)
            }
            Verb::Put(a, x) => {
                self.seg_mut(a.rank as usize).write(a.off, x);
                self.note_word_write(a.rank as usize, a.off);
                (a.rank as usize, 0, 8, 0)
            }
            Verb::Faa(a, add) => {
                let old = self.seg_mut(a.rank as usize).fetch_add(a.off, add);
                self.note_word_write(a.rank as usize, a.off);
                (a.rank as usize, old, 0, 0)
            }
            Verb::Cas(a, expect, new) => {
                let seen = self.seg_mut(a.rank as usize).cas(a.off, expect, new);
                if seen == expect {
                    // Only a successful CAS writes the word.
                    self.note_word_write(a.rank as usize, a.off);
                }
                (a.rank as usize, seen, 0, 0)
            }
            Verb::GetBulk(rank, len) | Verb::PutBulk(rank, len) => (rank, 0, len as u64, len),
        };
        if !signaled {
            self.note_unsignaled_depth(me);
        }
        // The payload travels through runtime-owned side tables; a bulk
        // verb charges its serialization (an eighth of it locally).
        if to == me {
            self.stats[me].local_ops += 1;
            let mut cost = self.lat().local();
            if len != 0 {
                cost += self.lat().payload(len) / 8;
            }
            return (to, value, cost);
        }
        let (l, s) = (&self.cfg.profile.latency, &mut self.stats[me]);
        let wire = match v {
            Verb::Get(_) | Verb::GetSpan(..) | Verb::GetBulk(..) => {
                s.remote_gets += 1;
                s.bytes_got += bytes;
                l.rdma_get
            }
            Verb::Put(..) | Verb::PutBulk(..) => {
                s.remote_puts += 1;
                s.bytes_put += bytes;
                l.rdma_put
            }
            Verb::Faa(..) | Verb::Cas(..) => {
                s.remote_amos += 1;
                l.rdma_amo
            }
        };
        let mut base_ns = self.chain_injection(me);
        if signaled {
            base_ns += self.wire(me, to, wire);
        }
        let mut base = VTime::ns(base_ns);
        if len != 0 {
            base += self.lat().payload(len);
        }
        (to, value, self.fault_cost(me, to, base))
    }

    /// Block on one posted verb: remove it from the completion queue and
    /// return `(value, finish)`. The caller advances its clock to `finish`
    /// (for a post made at `at = VTime::ZERO`, `finish` *is* the verb cost).
    pub fn wait(&mut self, me: WorkerId, h: VerbHandle) -> (u64, VTime) {
        debug_assert_eq!(h.worker, me, "handles are not transferable");
        let cq = &mut self.cqs[me];
        let pos = cq
            .inflight
            .iter()
            .position(|e| e.id == h.id)
            .expect("wait on an unposted or already-reaped verb");
        let e = cq.inflight.remove(pos);
        (e.value, e.finish)
    }

    /// Reap every completion that has finished by `at` (leaving later ones
    /// inflight), in post order. The non-blocking progress check of the
    /// posted model.
    pub fn poll_cq(&mut self, me: WorkerId, at: VTime) -> Vec<Completion> {
        self.stats[me].cq_polls += 1;
        let cq = &mut self.cqs[me];
        let mut out = Vec::new();
        let mut i = 0;
        while i < cq.inflight.len() {
            if cq.inflight[i].finish <= at {
                let e = cq.inflight.remove(i);
                out.push(Completion { id: e.id, value: e.value, finish: e.finish });
            } else {
                i += 1;
            }
        }
        out
    }

    /// Verbs currently outstanding on `me`'s completion queue.
    #[inline]
    pub fn cq_depth(&self, me: WorkerId) -> usize {
        self.cqs[me].inflight.len()
    }

    // ------------------------------------------------------------------
    // Benchmark-only names
    // ------------------------------------------------------------------
    //
    // The `benchmark/` ladder times these three by name; protocol code
    // issues `post` / `post_unsignaled` / `call` / `post_span`.

    /// `call(me, Verb::Get(addr))`, kept for the benchmark ladder only.
    pub fn get_u64(&mut self, me: WorkerId, addr: GlobalAddr) -> (u64, VTime) {
        self.call(me, Verb::Get(addr))
    }

    /// `post(me, Verb::Get(addr), at)`, kept for the benchmark ladder only.
    pub fn post_get_u64(&mut self, me: WorkerId, addr: GlobalAddr, at: VTime) -> VerbHandle {
        self.post(me, Verb::Get(addr), at)
    }

    /// `call(me, Verb::GetBulk(from, len))`'s cost, kept for the benchmark
    /// ladder only.
    pub fn get_bulk(&mut self, me: WorkerId, from: WorkerId, len: usize) -> VTime {
        self.call(me, Verb::GetBulk(from, len)).1
    }

    /// Charge a purely local operation (deque push/pop, allocator, flag poll).
    #[inline]
    pub fn local_op(&mut self, me: WorkerId) -> VTime {
        self.stats[me].local_ops += 1;
        self.lat().local()
    }

    /// Owner-side word read, free of charge: used *inside* an operation that
    /// already charged one `local_op` for its whole O(1) body (a real deque
    /// pop is one cache-resident operation, not a charge per word).
    #[inline]
    pub fn read_own(&self, me: WorkerId, addr: GlobalAddr) -> u64 {
        debug_assert_eq!(addr.rank as usize, me, "read_own must be owner-local");
        self.seg_read(addr.rank as usize, addr.off)
    }

    /// Owner-side word write, free of charge (see [`Machine::read_own`]).
    #[inline]
    pub fn write_own(&mut self, me: WorkerId, addr: GlobalAddr, v: u64) {
        debug_assert_eq!(addr.rank as usize, me, "write_own must be owner-local");
        self.seg_mut(addr.rank as usize).write(addr.off, v);
        self.note_word_write(addr.rank as usize, addr.off);
    }

    /// Charge a full user-level context switch (suspend/restore or fresh
    /// full-thread stack).
    #[inline]
    pub fn ctx_switch(&mut self, _me: WorkerId) -> VTime {
        self.lat().ctx_switch()
    }

    /// Charge a lightweight continuation restore (stack already resident).
    #[inline]
    pub fn ctx_restore(&mut self, _me: WorkerId) -> VTime {
        self.lat().ctx_restore()
    }

    /// Count a two-sided message send (baselines only) and return its
    /// injection cost; the delivery latency is applied by [`crate::Mailbox`].
    #[inline]
    pub fn message_sent(&mut self, me: WorkerId) -> VTime {
        self.stats[me].messages_sent += 1;
        VTime::ns(self.lat().injection)
    }

    /// Count the receiver-side handling cost of one two-sided message.
    #[inline]
    pub fn message_handled(&mut self, me: WorkerId) -> VTime {
        self.stats[me].messages_handled += 1;
        VTime::ns(self.lat().msg_handler)
    }

    /// Allocate a zeroed record in `rank`'s segment (owner-side allocation;
    /// thread entries are always allocated where the thread is spawned).
    pub fn alloc(&mut self, rank: WorkerId, bytes: u32) -> GlobalAddr {
        let off = self.seg_mut(rank).alloc(bytes);
        GlobalAddr::new(rank, off)
    }

    /// Free a record in its owner's segment. Only the owner calls this
    /// directly; remote frees go through the `remote_free` protocols.
    pub fn free(&mut self, addr: GlobalAddr, bytes: u32) {
        self.seg_mut(addr.rank as usize).free(addr.off, bytes);
    }

    pub fn stats(&self, w: WorkerId) -> &FabricStats {
        &self.stats[w]
    }

    pub fn stats_total(&self) -> FabricStats {
        let mut t = FabricStats::default();
        for s in &self.stats {
            t.merge(s);
        }
        t
    }

    /// Host bytes allocated behind all segments (boxed pages and page
    /// tables; see [`crate::mem::Segment::backing_bytes`]). Unlike
    /// [`FabricStats::peak_resident_bytes`] this is not a simulation
    /// result: it is what the simulated footprint costs the host.
    pub fn backing_bytes_total(&self) -> u64 {
        self.segments
            .iter()
            .flatten()
            .map(Segment::backing_bytes)
            .sum()
    }

    // ------------------------------------------------------------------
    // Park/wake: host-side fast path for polling loops
    // ------------------------------------------------------------------

    /// Park worker `me` (the actor currently stepping) on word `off` of its
    /// *own* segment instead of re-polling it every `grid` of virtual time.
    ///
    /// This is a pure host-side optimization with byte-identical simulated
    /// behaviour: had the worker kept polling, it would have re-checked the
    /// word at `now + grid`, `now + 2·grid`, … and each failed check would
    /// have charged `charge` local ops. The worker is woken at the first of
    /// those abandoned poll instants that could see anything change, with
    /// the polls skipped before it credited:
    ///
    /// * **Event-driven wakes.** A write to the word, the global done flag
    ///   and a [`Machine::poke`] (every [`Machine::evict`] pokes all parked
    ///   workers) wake the worker at the first poll that observes the
    ///   current step under the engine's `(clock, worker)` ordering.
    /// * **A deadline.** `wake_by` is the earliest instant at which a poll
    ///   could observe something time-driven — a kill, a crash window, a
    ///   detector status change, a watchdog stall; [`VTime::MAX`] for none.
    ///   The worker is queued at the first poll at or after it.
    ///
    /// The one-sided rule that makes this exact: a wake may come early — the
    /// woken worker makes the poll it would have made, finds nothing, and
    /// parks again — but never late. An earlier event moves a queued wake
    /// earlier (and its credit with it); a later one changes nothing. The
    /// watch lapses by itself once its wake instant has passed (the worker
    /// has run), so the caller never has to drop it.
    ///
    /// The wake-instant computation assumes minimum-key scheduling, so
    /// callers must not park under schedule exploration, and it reproduces
    /// the abandoned loop only if every skipped poll would have been a
    /// no-op apart from its `charge` and whatever `wake_by` and the event
    /// wakes cover. The caller must return [`crate::engine::Step::Park`]
    /// for the current step.
    pub fn park_on_own_word(
        &mut self,
        me: WorkerId,
        off: u32,
        grid: VTime,
        charge: u64,
        wake_by: VTime,
    ) {
        self.park(me, WatchOn::Word(off), grid, charge);
        // A poll made after the done flag rises sees it: the next one.
        let by = if self.done { self.step_now } else { wake_by };
        if by != VTime::MAX {
            let w = self.parked[me].as_ref().expect("just parked");
            let wait = by.as_ns().saturating_sub(w.since.as_ns());
            self.queue_wake(me, wait.div_ceil(w.grid_ns).max(1));
        }
    }

    /// Park worker `me` (the actor currently stepping) on its mailbox
    /// instead of polling it every `grid` of virtual time: the second wake
    /// source, for receivers of two-sided messages. The [`crate::Mailbox`]
    /// is not the machine's, so the caller reports what is in it:
    /// `next_delivery` is `me`'s earliest pending delivery right now, and
    /// every later send to `me` must be followed by
    /// [`Machine::note_delivery`].
    ///
    /// A poll at instant `s` receives a message iff `s ≥ deliver_at`, so
    /// the worker is woken at the first abandoned poll `since + j·grid ≥
    /// deliver_at` (`j ≥ 1`; a message already deliverable at park time
    /// gives `j = 1`), with the `j − 1` polls before it credited `charge`
    /// local ops each. Deliveries do not arrive in sending order — a small
    /// message sent later overtakes a bulky one in flight — so a queued
    /// wake **moves earlier** when such a message is sent, and the credit
    /// shrinks with it. Raising the done flag wakes the worker by the same
    /// rule as a word watch. Callers must not park under schedule
    /// exploration or a fault plan (nothing here wakes a mailbox poller for
    /// a fault); the woken worker must call [`Machine::unpark`] before
    /// anything else can be sent to it.
    pub fn park_on_mailbox(
        &mut self,
        me: WorkerId,
        next_delivery: Option<VTime>,
        grid: VTime,
        charge: u64,
    ) {
        self.park(me, WatchOn::Mailbox, grid, charge);
        if let Some(at) = next_delivery {
            self.note_delivery(me, at);
        }
    }

    fn park(&mut self, me: WorkerId, on: WatchOn, grid: VTime, charge: u64) {
        debug_assert_eq!(me, self.step_cur, "only the stepping worker can park");
        debug_assert!(self.live_watch(me).is_none(), "double park");
        self.parked[me] = Some(ParkWatch {
            on,
            since: self.step_now,
            grid_ns: grid.as_ns().max(1),
            charge,
            wake_poll: 0,
        });
    }

    /// Worker `me` is stepping again after [`Machine::park_on_mailbox`]:
    /// drop its watch. (A word watch lapses by itself.)
    #[inline]
    pub fn unpark(&mut self, me: WorkerId) {
        self.parked[me] = None;
    }

    /// `rank`'s watch, unless it has lapsed: a word watch whose queued wake
    /// is not after the current step has had its worker run (or is running
    /// it now). A mailbox watch lasts until [`Machine::unpark`].
    #[inline]
    fn live_watch(&self, rank: usize) -> Option<&ParkWatch> {
        let w = self.parked[rank].as_ref()?;
        let lapsed = matches!(w.on, WatchOn::Word(_))
            && w.wake_poll != 0
            && (self.step_now.as_ns(), self.step_cur)
                >= (w.since.as_ns() + w.wake_poll * w.grid_ns, rank);
        (!lapsed).then_some(w)
    }

    /// Index `j ≥ 1` of the first abandoned poll of `rank` that observes
    /// the current step's effects.
    ///
    /// A poll at `(s, rank)` observes an effect of the step `(T, writer)`
    /// iff `(s, rank) > (T, writer)` in engine key order — effects are
    /// eager, so everything a step writes is visible to every later step.
    /// On an exact grid hit the worker-id tiebreak decides.
    fn first_poll_after_step(&self, w: &ParkWatch, rank: usize) -> u64 {
        let d = self.step_now.as_ns() - w.since.as_ns();
        let (j0, rem) = (d / w.grid_ns, d % w.grid_ns);
        if rem == 0 && j0 >= 1 && rank > self.step_cur {
            j0
        } else {
            j0 + 1
        }
    }

    /// The last poll of `rank`'s word park made at `since` that was
    /// skipped before the current step: the latest instant the abandoned
    /// loop would have polled at by now, or, once the worker has woken
    /// (its watch lapsed, possibly in the current step), the last poll
    /// before its wake. `None` when no poll was skipped or `rank` has
    /// parked anew since. A reader of a clock the polls sampled (the
    /// watchdog's stall clock) folds it in before the clock's reference
    /// moves; folding the same poll twice is harmless.
    pub fn last_abandoned_poll(&self, rank: usize, since: VTime) -> Option<VTime> {
        let w = self.parked[rank]
            .as_ref()
            .filter(|w| matches!(w.on, WatchOn::Word(_)) && w.since == since)?;
        let mut j = self.first_poll_after_step(w, rank) - 1;
        if w.wake_poll != 0 {
            j = j.min(w.wake_poll - 1);
        }
        (j >= 1).then(|| VTime::ns(w.since.as_ns() + j * w.grid_ns))
    }

    /// Resume the parked `rank` at its abandoned poll `j`, unless an
    /// earlier wake is already queued, and credit the `j − 1` polls skipped
    /// before it. The engine takes a second wake for a queued worker as
    /// "move it earlier"; the credit follows the wake.
    fn queue_wake(&mut self, rank: usize, j: u64) {
        let ParkWatch {
            since,
            grid_ns,
            charge,
            wake_poll,
            ..
        } = self.parked[rank].as_mut().expect("wake of an unparked worker");
        let ops = &mut self.stats[rank].local_ops;
        if *wake_poll == 0 {
            *ops += (j - 1) * *charge;
        } else if j < *wake_poll {
            *ops -= (*wake_poll - j) * *charge;
        } else {
            return;
        }
        *wake_poll = j;
        self.wakeups
            .push((VTime::ns(since.as_ns() + j * *grid_ns), rank));
    }

    /// Wake `rank`, if it is parked, at its first abandoned poll that
    /// observes the current step — as if the word it watches had just been
    /// written. For state a poll reads that is not a word of the watcher's
    /// segment (another worker's epoch, a shared queue); a spurious poke
    /// only costs the poller one poll.
    pub fn poke(&mut self, rank: usize) {
        if let Some(w) = self.live_watch(rank) {
            let j = self.first_poll_after_step(w, rank);
            self.queue_wake(rank, j);
        }
    }

    /// A message for `to`, visible at `deliver_at`, was just put into its
    /// mailbox: wake `to` if it is parked there (see
    /// [`Machine::park_on_mailbox`]). Any pending delivery time will do —
    /// the wake only ever moves earlier — so callers may simply report the
    /// mailbox's earliest one after each send.
    #[inline]
    pub fn note_delivery(&mut self, to: WorkerId, deliver_at: VTime) {
        if let Some(w) = &self.parked[to] {
            if matches!(w.on, WatchOn::Mailbox) {
                // First poll at or after the delivery that also runs after
                // the sending step (always true of a real latency; a
                // zero-latency profile must not wake a poll in the past).
                let wait = deliver_at.as_ns().saturating_sub(w.since.as_ns());
                let j = wait
                    .div_ceil(w.grid_ns)
                    .max(self.first_poll_after_step(w, to));
                self.queue_wake(to, j);
            }
        }
    }

    /// A word of `rank`'s segment was just written; wake `rank` if it is
    /// parked on exactly that word. Spurious wakes (the write did not
    /// change what the poller checks) are safe: the woken poll re-runs at
    /// an instant the abandoned loop would have polled anyway, fails, and
    /// re-parks on the same grid.
    #[inline]
    fn note_word_write(&mut self, rank: usize, off: u32) {
        // The write may have made a page of `rank`'s segment resident;
        // residency is monotone, so current == peak.
        let r = self.segments[rank].as_ref().map_or(0, |s| s.resident_bytes());
        if r > self.stats[rank].peak_resident_bytes {
            self.stats[rank].peak_resident_bytes = r;
        }
        if let Some(w) = &self.parked[rank] {
            if matches!(w.on, WatchOn::Word(o) if o == off) {
                self.poke(rank);
            }
        }
    }

    /// Move the pending wake instants into `out` (engine waker hook).
    pub fn take_wakeups(&mut self, out: &mut Vec<(VTime, WorkerId)>) {
        out.append(&mut self.wakeups);
    }

    /// Raise the global termination flag (root task finished). Parked
    /// pollers re-check the flag on every poll, so wake them all; each
    /// re-runs its poll at the first instant the flag is visible to it
    /// (same engine-order rule as a word write).
    pub fn set_done(&mut self) {
        self.done = true;
        self.poke_all();
    }

    /// [`Machine::poke`] every parked worker.
    fn poke_all(&mut self) {
        for r in 0..self.parked.len() {
            if self.parked[r].is_some() {
                self.poke(r);
            }
        }
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::profiles;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::new(n, profiles::itoa()).with_seg_bytes(1 << 16))
    }

    /// A machine that overlaps posted verbs (the default is issue depth 1).
    fn pipelined(n: usize) -> Machine {
        Machine::new(
            MachineConfig::new(n, profiles::itoa())
                .with_seg_bytes(1 << 16)
                .with_fabric(FabricMode::Pipelined),
        )
    }

    #[test]
    fn fabric_stats_merge_sums_every_field() {
        // Exhaustive literals: adding a FabricStats field breaks this test
        // at compile time until the merge (and this check) cover it.
        let mut a = FabricStats {
            remote_gets: 1,
            remote_puts: 2,
            remote_amos: 3,
            local_ops: 4,
            bytes_got: 5,
            bytes_put: 6,
            messages_sent: 7,
            messages_handled: 8,
            retries: 9,
            timeouts: 10,
            dead_fails: 11,
            max_inflight: 12,
            cq_polls: 13,
            doorbell_chained: 14,
            fenced_verbs: 15,
            peak_resident_bytes: 16,
        };
        let b = FabricStats {
            remote_gets: 100,
            remote_puts: 200,
            remote_amos: 300,
            local_ops: 400,
            bytes_got: 500,
            bytes_put: 600,
            messages_sent: 700,
            messages_handled: 800,
            retries: 900,
            timeouts: 1000,
            dead_fails: 1100,
            max_inflight: 1200,
            cq_polls: 1300,
            doorbell_chained: 1400,
            fenced_verbs: 1500,
            peak_resident_bytes: 1600,
        };
        a.merge(&b);
        assert_eq!(a.remote_gets, 101);
        assert_eq!(a.remote_puts, 202);
        assert_eq!(a.remote_amos, 303);
        assert_eq!(a.local_ops, 404);
        assert_eq!(a.bytes_got, 505);
        assert_eq!(a.bytes_put, 606);
        assert_eq!(a.messages_sent, 707);
        assert_eq!(a.messages_handled, 808);
        assert_eq!(a.retries, 909);
        assert_eq!(a.timeouts, 1010);
        assert_eq!(a.dead_fails, 1111);
        // Queue depth merges as a maximum (per-worker high-water marks),
        // not a sum; poll counts sum like every other op counter.
        assert_eq!(a.max_inflight, 1200);
        assert_eq!(a.cq_polls, 1313);
        assert_eq!(a.doorbell_chained, 1414);
        assert_eq!(a.fenced_verbs, 1515);
        // Segments are disjoint host memory: footprints sum across workers.
        assert_eq!(a.peak_resident_bytes, 1616);
        assert_eq!(a.remote_total(), 101 + 202 + 303);
        // And max_inflight keeps the larger side when it is the accumulator.
        let mut c = FabricStats { max_inflight: 9000, ..FabricStats::default() };
        c.merge(&b);
        assert_eq!(c.max_inflight, 9000);
    }

    #[test]
    fn dead_guard_fails_fast_and_counts() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none().with_kill(1, VTime::us(50));
        let lease = plan.lease;
        let mut m = Machine::new(
            MachineConfig::new(3, profiles::itoa())
                .with_seg_bytes(1 << 16)
                .with_faults(plan),
        );
        assert!(m.recovery_armed());
        // Before the kill: no guard, peer reachable.
        assert!(m.dead_guard(0, 1, VTime::us(10)).is_none());
        assert!(!m.is_dead(1, VTime::us(10)));
        // After: guard trips with a bounded (round-trip-ish) cost.
        let c = m.dead_guard(0, 1, VTime::us(60)).expect("peer is dead");
        assert!(c > VTime::ZERO && c < VTime::us(50), "fail-fast, not a retry storm: {c}");
        assert_eq!(m.stats(0).dead_fails, 1);
        // Self and live peers never trip.
        assert!(m.dead_guard(1, 1, VTime::us(60)).is_none());
        assert!(m.dead_guard(0, 2, VTime::us(60)).is_none());
        // Lease confirmation trails ground truth.
        assert!(!m.confirmed_dead(1, VTime::us(60)));
        assert!(m.confirmed_dead(1, VTime::us(50) + lease));
    }

    #[test]
    fn epoch_fence_rejects_stale_views_and_counts() {
        let mut m = machine(3);
        assert_eq!(m.epoch_of(1), 0);
        // Fresh views pass for free.
        assert!(!m.fence_verb(0, 0, 1));
        assert_eq!(m.stats(0).fenced_verbs, 0);
        // Evict worker 1: epoch moves to 1, every view-0 verb is refused.
        assert_eq!(m.evict(1), 1);
        assert!(m.fence_verb(0, 0, 1));
        assert!(!m.fence_verb(0, 1, 1), "refreshed view passes again");
        // Self-fence: the zombie's own view of itself is stale.
        assert!(m.fence_verb(1, 0, 1));
        assert_eq!(m.stats(0).fenced_verbs, 1);
        assert_eq!(m.stats(1).fenced_verbs, 1);
        // Epochs are per worker; worker 2 is untouched.
        assert_eq!(m.epoch_of(2), 0);
        assert!(!m.fence_verb(0, 0, 2));
        // No plan loaded: suspicion impossible, rejoin moot.
        assert!(!m.suspicion_possible() && !m.rejoin_allowed());
    }

    #[test]
    fn remote_ops_cost_more_than_local() {
        let mut m = machine(2);
        let a0 = m.alloc(0, 8);
        let a1 = m.alloc(1, 8);
        let local = m.call(0, Verb::Put(a0, 1)).1;
        let remote = m.call(0, Verb::Put(a1, 2)).1;
        assert!(remote > local * 10);
        let (v, _) = m.call(1, Verb::Get(a1));
        assert_eq!(v, 2);
    }

    #[test]
    fn stats_count_ops_and_bytes() {
        let mut m = machine(2);
        let a1 = m.alloc(1, 16);
        m.call(0, Verb::Put(a1, 5));
        let _ = m.call(0, Verb::Get(a1));
        let _ = m.call(0, Verb::Faa(a1.field(1), 3));
        let _ = m.call(0, Verb::GetBulk(1, 1800)).1;
        let s = m.stats(0);
        assert_eq!(s.remote_puts, 1);
        assert_eq!(s.remote_gets, 2);
        assert_eq!(s.remote_amos, 1);
        assert_eq!(s.bytes_got, 8 + 1800);
        assert_eq!(s.bytes_put, 8);
        // Worker 1 did nothing.
        assert_eq!(m.stats(1).remote_total(), 0);
    }

    #[test]
    fn fetch_add_and_cas_apply_effects() {
        let mut m = machine(2);
        let a = m.alloc(1, 8);
        let (old, _) = m.call(0, Verb::Faa(a, 1));
        assert_eq!(old, 0);
        let (old, _) = m.call(1, Verb::Faa(a, 1));
        assert_eq!(old, 1);
        let (seen, _) = m.call(0, Verb::Cas(a, 2, 100));
        assert_eq!(seen, 2);
        let (v, _) = m.call(1, Verb::Get(a));
        assert_eq!(v, 100);
    }

    #[test]
    fn unsignaled_put_is_cheaper() {
        let mut m = machine(2);
        let a1 = m.alloc(1, 8);
        let blocking = m.call(0, Verb::Put(a1, 1)).1;
        let nb = m.post_unsignaled(0, Verb::Put(a1, 2));
        assert!(nb < blocking);
        let (v, _) = m.call(1, Verb::Get(a1));
        assert_eq!(v, 2, "unsignaled put still applies its effect");
    }

    #[test]
    fn blocking_wrappers_never_leave_completions_behind() {
        let mut m = machine(2);
        let a1 = m.alloc(1, 16);
        m.call(0, Verb::Put(a1, 5));
        let _ = m.call(0, Verb::Get(a1));
        let _ = m.call(0, Verb::Faa(a1.field(1), 3));
        let _ = m.call(0, Verb::Cas(a1, 8, 9));
        let _ = m.call(0, Verb::GetBulk(1, 1800)).1;
        let _ = m.call(0, Verb::PutBulk(1, 64)).1;
        let _ = m.post_unsignaled(0, Verb::Put(a1, 7));
        assert_eq!(m.cq_depth(0), 0, "wrappers reap what they post");
        let s = m.stats(0);
        assert_eq!(s.cq_polls, 0, "single-verb waits are not polls");
        assert_eq!(s.max_inflight, 1, "blocking code never pipelines");
    }

    #[test]
    fn posted_verbs_overlap_and_retire_at_the_slowest() {
        let mut m = pipelined(3);
        let a1 = m.alloc(1, 8);
        let at = VTime::us(2);
        // A put and a bulk get to the same peer, posted back to back.
        let put_cost = {
            // Reference cost from a scratch blocking machine.
            let mut r = machine(3);
            let ra = r.alloc(1, 8);
            r.call(0, Verb::Put(ra, 1)).1
        };
        let h_put = m.post(0, Verb::Put(a1, 1), at);
        let h_get = m.post(0, Verb::GetBulk(1, 1800), at);
        assert_eq!(m.cq_depth(0), 2);
        assert_eq!(m.stats(0).max_inflight, 2);
        let (_, put_fin) = m.wait(0, h_put);
        assert_eq!(put_fin, at + put_cost, "first verb is unclamped");
        let (_, get_fin) = m.wait(0, h_get);
        assert!(get_fin > put_fin, "bulk get outlives the small put");
        // Polling the drained queue reaps nothing, and counts as a poll.
        assert!(m.poll_cq(0, get_fin).is_empty());
        assert_eq!(m.stats(0).cq_polls, 1);
    }

    #[test]
    fn same_target_completions_retire_in_post_order() {
        // Verbs to one peer share a queue pair: a cheap put posted after an
        // expensive get cannot retire first.
        let mut m = pipelined(2);
        let a1 = m.alloc(1, 16);
        let h_get = m.post(0, Verb::GetBulk(1, 64 << 10), VTime::ZERO);
        let h_put = m.post(0, Verb::Put(a1, 1), VTime::ZERO);
        let (_, get_fin) = m.wait(0, h_get);
        let (_, put_fin) = m.wait(0, h_put);
        assert_eq!(put_fin, get_fin, "clamped to the in-order retirement");
        // Different peers ride different queue pairs: no clamping.
        let mut m = pipelined(3);
        let a2 = m.alloc(2, 8);
        let h_get = m.post(0, Verb::GetBulk(1, 64 << 10), VTime::ZERO);
        let h_put = m.post(0, Verb::Put(a2, 1), VTime::ZERO);
        let (_, get_fin) = m.wait(0, h_get);
        let (_, put_fin) = m.wait(0, h_put);
        assert!(put_fin < get_fin, "independent QPs overlap freely");
    }

    #[test]
    fn poll_cq_reaps_only_what_has_finished() {
        let mut m = machine(3);
        let a1 = m.alloc(1, 8);
        let h_small = m.post(0, Verb::Put(a1, 1), VTime::ZERO);
        let h_big = m.post(0, Verb::GetBulk(2, 1 << 20), VTime::ZERO);
        let (_, small_fin) = {
            let cq_was = m.cq_depth(0);
            assert_eq!(cq_was, 2);
            // Peek the small put's finish by waiting a clone-free reference
            // run is overkill — poll at a generous horizon instead.
            let done = m.poll_cq(0, VTime::secs(1));
            assert_eq!(done.len(), 2, "everything finishes within a second");
            (done[0].value, done[0].finish)
        };
        let _ = h_small;
        let _ = h_big;
        // Fresh machine: poll strictly between the two finish times.
        let mut m = machine(3);
        let a1 = m.alloc(1, 8);
        let h_small = m.post(0, Verb::Put(a1, 1), VTime::ZERO);
        let _h_big = m.post(0, Verb::GetBulk(2, 1 << 20), VTime::ZERO);
        let done = m.poll_cq(0, small_fin);
        assert_eq!(done.len(), 1, "only the small put has retired");
        assert_eq!(done[0].id, h_small.id());
        assert_eq!(m.cq_depth(0), 1, "the bulk get is still inflight");
        let rest = m.poll_cq(0, VTime::secs(1));
        assert_eq!(rest.len(), 1);
        assert!(rest[0].finish > small_fin);
        assert_eq!(m.cq_depth(0), 0);
        assert_eq!(m.stats(0).cq_polls, 2, "one poll each");
    }

    #[test]
    fn span_get_is_one_verb() {
        let mut m = machine(2);
        let a1 = m.alloc(1, 24);
        m.call(0, Verb::Put(a1, 10));
        m.call(0, Verb::Put(a1.field(1), 20));
        m.call(0, Verb::Put(a1.field(2), 30));
        let before = *m.stats(0);
        let ([x, y, z], h) = m.post_span::<3>(0, a1, VTime::ZERO);
        let span_cost = m.wait(0, h).1;
        assert_eq!([x, y, z], [10, 20, 30]);
        let s = m.stats(0);
        assert_eq!(s.remote_gets, before.remote_gets + 1, "one verb, not three");
        assert_eq!(s.bytes_got, before.bytes_got + 24);
        assert_eq!(m.cq_depth(0), 0, "the wait reaps the post");
        // One span costs the same round trip as one word — that is the
        // point — and strictly less than two separate gets.
        let (_, one) = m.call(0, Verb::Get(a1));
        assert_eq!(span_cost, one);
        // Local spans charge a single local op.
        let a0 = m.alloc(0, 16);
        let before = *m.stats(0);
        let (_, h) = m.post_span::<2>(0, a0, VTime::ZERO);
        let c = m.wait(0, h).1;
        assert_eq!(m.stats(0).local_ops, before.local_ops + 1);
        assert_eq!(m.stats(0).remote_gets, before.remote_gets);
        assert!(c < one);
    }

    #[test]
    fn doorbell_chain_discounts_chained_verbs() {
        // frac = 0.5: the first verb of a chain pays full injection, later
        // ones half — and only the chained ones bump the counter.
        let mut m = Machine::new(
            MachineConfig::new(3, profiles::itoa())
                .with_seg_bytes(1 << 16)
                .with_fabric(FabricMode::Pipelined)
                .with_doorbell(0.5),
        );
        let a1 = m.alloc(1, 32);
        let a2 = m.alloc(2, 32);
        let unchained = {
            let h = m.post(0, Verb::Get(a1), VTime::ZERO);
            m.wait(0, h).1
        };
        assert_eq!(m.stats(0).doorbell_chained, 0);
        // Chain to two different peers (independent QPs, no in-order clamp).
        m.chain_begin(0);
        let h_first = m.post(0, Verb::Get(a1), VTime::ZERO);
        let h_second = m.post(0, Verb::Get(a2), VTime::ZERO);
        m.chain_end(0);
        let (_, first_fin) = m.wait(0, h_first);
        let (_, second_fin) = m.wait(0, h_second);
        assert_eq!(first_fin, unchained, "chain head rings the doorbell at full cost");
        let half_inj = (m.lat().injection as f64 * 0.5).round() as u64;
        assert_eq!(
            second_fin,
            VTime::ns(half_inj + m.lat().rdma_get),
            "chained verb pays frac · injection plus the full wire latency"
        );
        assert!(second_fin < unchained);
        assert_eq!(m.stats(0).doorbell_chained, 1);
        // Unsignaled puts in a chain get the same discount.
        m.chain_begin(0);
        let head = m.post_unsignaled(0, Verb::Put(a1, 1));
        let tail = m.post_unsignaled(0, Verb::Put(a1, 2));
        m.chain_end(0);
        assert_eq!(head, VTime::ns(m.lat().injection));
        assert_eq!(tail, VTime::ns((m.lat().injection as f64 * 0.5).round() as u64));
        assert_eq!(m.stats(0).doorbell_chained, 2);
    }

    #[test]
    fn doorbell_frac_one_is_charge_identical() {
        // The default frac = 1.0 makes chained posts cost exactly what
        // unchained posts cost — this is what keeps every golden byte-stable
        // while still counting chain ridership.
        let mut chained = machine(2);
        let mut plain = machine(2);
        assert_eq!(chained.cfg.doorbell_frac, 1.0);
        let ac = chained.alloc(1, 32);
        let ap = plain.alloc(1, 32);
        chained.chain_begin(0);
        let h1 = chained.post(0, Verb::Cas(ac, 0, 7), VTime::ZERO);
        let (_, h2) = chained.post_span::<2>(0, ac.field(1), VTime::ZERO);
        let nb_c = chained.post_unsignaled(0, Verb::Put(ac, 9));
        chained.chain_end(0);
        let g1 = plain.post(0, Verb::Cas(ap, 0, 7), VTime::ZERO);
        let (_, g2) = plain.post_span::<2>(0, ap.field(1), VTime::ZERO);
        let nb_p = plain.post_unsignaled(0, Verb::Put(ap, 9));
        assert_eq!(chained.wait(0, h1).1, plain.wait(0, g1).1);
        assert_eq!(chained.wait(0, h2).1, plain.wait(0, g2).1);
        assert_eq!(nb_c, nb_p);
        assert_eq!(chained.stats(0).doorbell_chained, 2, "ridership still counted");
        assert_eq!(plain.stats(0).doorbell_chained, 0);
    }

    #[test]
    fn segments_materialize_lazily_and_report_resident_bytes() {
        let mut m = machine(4);
        assert_eq!(m.stats_total().peak_resident_bytes, 0, "nothing touched yet");
        // Remote reads of an absent segment report zero and stay free.
        let a3 = GlobalAddr::new(3, 0);
        let (v, _) = m.call(0, Verb::Get(a3));
        assert_eq!(v, 0);
        assert_eq!(m.stats_total().peak_resident_bytes, 0, "reads do not materialize");
        assert_eq!(m.read_own(3, a3), 0);
        // A non-zero write materializes exactly one page of the target's
        // segment, regardless of the configured capacity.
        let a1 = GlobalAddr::new(1, 0);
        m.call(0, Verb::Put(a1, 7));
        let page = crate::mem::PAGE_BYTES as u64;
        assert_eq!(m.stats(1).peak_resident_bytes, page);
        assert_eq!(m.stats(0).peak_resident_bytes, 0, "issuer untouched");
        assert_eq!(m.stats_total().peak_resident_bytes, page);
        // Allocation alone writes only zeroes — no backing page yet; the
        // record costs its page when first really written.
        let r = m.alloc(2, 8);
        assert_eq!(m.stats(2).peak_resident_bytes, 0);
        m.call(2, Verb::Put(r, 1));
        assert_eq!(m.stats(2).peak_resident_bytes, page);
        // Re-touching an already-resident page is idempotent.
        m.call(0, Verb::Put(a1, 8));
        assert_eq!(m.stats_total().peak_resident_bytes, 2 * page);
        // A write far into the same segment costs one more page.
        m.call(0, Verb::Put(GlobalAddr::new(1, 32 * 1024), 9));
        assert_eq!(m.stats(1).peak_resident_bytes, 2 * page);
        // The lazily materialized segment behaves like an eager one.
        let (v, _) = m.call(3, Verb::Get(a1));
        assert_eq!(v, 8);
    }

    /// A steal probe that takes and releases an idle victim's lock makes
    /// one simulated page resident and allocates nothing on the host.
    #[test]
    fn an_idle_probed_segment_has_no_backing() {
        let mut m = machine(4);
        let lock = GlobalAddr::new(2, 0);
        assert_eq!(m.call(0, Verb::Cas(lock, 0, 1)).0, 0);
        m.call(0, Verb::Put(lock, 0));
        let page = crate::mem::PAGE_BYTES as u64;
        assert_eq!(m.stats_total().peak_resident_bytes, page);
        assert_eq!(m.backing_bytes_total(), 0);
        // Past the inline head the same page needs its box and a table slot.
        m.call(0, Verb::Put(GlobalAddr::new(2, 1024), 9));
        assert_eq!(m.stats_total().peak_resident_bytes, page);
        assert_eq!(m.backing_bytes_total(), page + 8);
    }

    /// One verb of the depth-1 proptest, issued either blocking (posted at
    /// zero and waited on, as [`Machine::call`] does; `at = None`) or posted
    /// at `at`. Returns the value, the handle of a signaled post, and the
    /// cost of a blocking or unsignaled issue.
    fn issue(
        m: &mut Machine,
        kind: u8,
        me: WorkerId,
        addr: GlobalAddr,
        val: u64,
        at: Option<VTime>,
    ) -> (u64, Option<VerbHandle>, VTime) {
        let (tgt, len) = (addr.rank as usize, (val % 4096) as usize + 8);
        let post_at = at.unwrap_or(VTime::ZERO);
        let (v, h) = match kind {
            0 => (0, m.post(me, Verb::Get(addr), post_at)),
            1 => (0, m.post(me, Verb::Put(addr, val), post_at)),
            2 => (0, m.post(me, Verb::Faa(addr, val), post_at)),
            3 => (0, m.post(me, Verb::Cas(addr, val % 7, val), post_at)),
            4 => (0, m.post(me, Verb::GetBulk(tgt, len), post_at)),
            5 => (0, m.post(me, Verb::PutBulk(tgt, len), post_at)),
            6 => {
                let (vals, h) = m.post_span::<3>(me, addr, post_at);
                (vals[1] ^ vals[2], h)
            }
            7 => return (0, None, m.post_unsignaled(me, Verb::Put(addr, val))),
            _ => return (0, None, m.post_unsignaled(me, Verb::PutBulk(tgt, len))),
        };
        if at.is_some() {
            return (v, Some(h), VTime::ZERO);
        }
        let (value, cost) = m.wait(me, h);
        (v ^ value, None, cost)
    }

    mod depth1 {
        use super::*;
        use crate::fault::FaultPlan;
        use proptest::prelude::*;

        proptest! {
            /// Issue depth 1: a group of posts — signaled, unsignaled, span
            /// and bulk, through a window or hand-posted at one instant —
            /// retires at the running sum of the blocking issues' costs,
            /// with the same values and the same `FabricStats`.
            #[test]
            fn depth1_posts_serialize(
                workers in 2usize..5,
                fault_permille in 0u64..80,
                fault_seed in 0u64..500,
                groups in proptest::collection::vec(
                    (
                        proptest::bool::ANY,
                        proptest::collection::vec((0u8..9, 0usize..4, 0u32..64, 1u64..1_000_000), 1..6),
                    ),
                    1..12,
                ),
            ) {
                let mk = || {
                    let mut cfg = MachineConfig::new(workers, profiles::itoa()).with_seg_bytes(1 << 20);
                    if fault_permille > 0 {
                        cfg = cfg.with_faults(FaultPlan::transient(fault_permille as f64 / 1000.0, fault_seed));
                    }
                    Machine::new(cfg)
                };
                let (mut serial, mut posted) = (mk(), mk());
                prop_assert_eq!(posted.cfg.fabric, FabricMode::Blocking);
                let mut now = VTime::us(3);
                for (windowed, ops) in &groups {
                    let me = ops[0].1 % workers;
                    let mut w = posted.window(me, now);
                    let (mut sum, mut fin) = (VTime::ZERO, now);
                    let mut pending = Vec::new();
                    for &(kind, tgt, woff, val) in ops {
                        // Hand-posted groups hold signaled verbs only: an
                        // unsignaled injection can only be summed by a window.
                        let kind = if *windowed { kind } else { kind % 7 };
                        let addr = GlobalAddr::new(tgt % workers, 8 + woff * 8);
                        let (v_s, _, cost) = issue(&mut serial, kind, me, addr, val, None);
                        sum += cost;
                        let at = if *windowed { w.at() } else { now };
                        let (v_p, h, inj) = issue(&mut posted, kind, me, addr, val, Some(at));
                        match h {
                            Some(h) => {
                                w.posted(h);
                                fin = fin.max(h.finish());
                                pending.push((h, v_s ^ v_p));
                            }
                            None => {
                                prop_assert_eq!(inj, cost);
                                w.unsignaled(inj);
                            }
                        }
                        // Every verb retires exactly one blocking cost after
                        // its predecessor.
                        prop_assert_eq!(w.now(), now + sum);
                    }
                    prop_assert!(!posted.outstanding(me, w.now()));
                    for (h, v_xor) in pending {
                        let (value, finish) = posted.wait(me, h);
                        prop_assert_eq!(finish, h.finish());
                        prop_assert_eq!(v_xor ^ value, 0, "values diverged");
                    }
                    prop_assert_eq!(posted.finish(&w), now + sum);
                    if !*windowed {
                        prop_assert_eq!(fin, now + sum, "hand-posted group");
                    }
                    now += sum;
                }
                for w in 0..workers {
                    prop_assert_eq!(serial.stats(w), posted.stats(w));
                    prop_assert!(posted.stats(w).max_inflight <= 1);
                    prop_assert_eq!(posted.stats(w).cq_polls, 0);
                }
            }
        }
    }

    #[test]
    fn done_flag() {
        let mut m = machine(1);
        assert!(!m.is_done());
        m.set_done();
        assert!(m.is_done());
    }

    /// The mailbox watch shares the word watch's slot: a run that never
    /// touches a mailbox builds the same `parked` vector it always did.
    #[test]
    fn park_watch_slot_keeps_its_size() {
        assert_eq!(std::mem::size_of::<Option<ParkWatch>>(), 40);
    }

    /// One completion-queue entry per posted verb; `dcs-core`'s
    /// `verb_record_sizes_are_pinned` pins the public handle and window.
    #[test]
    fn cq_entry_keeps_its_size() {
        assert_eq!(std::mem::size_of::<CqEntry>(), 32);
    }

    #[test]
    fn word_watch_wakes_at_the_first_poll_after_the_write() {
        let mut m = machine(2);
        m.begin_step(1, VTime::ns(100));
        m.park_on_own_word(1, 8, VTime::ns(10), 2, VTime::MAX);
        // Another word, then the watched one, written by worker 0 at 125.
        m.begin_step(0, VTime::ns(125));
        m.write_own(1, GlobalAddr::new(1, 16), 7);
        m.write_own(1, GlobalAddr::new(1, 8), 7);
        m.write_own(1, GlobalAddr::new(1, 8), 9);
        let mut out = Vec::new();
        m.take_wakeups(&mut out);
        assert_eq!(out, vec![(VTime::ns(130), 1)]);
        // Polls at 110 and 120 were skipped, two local ops each.
        assert_eq!(m.stats(1).local_ops, 4);
    }

    /// A deadline queues the wake at the first poll at or after it, with
    /// its credit; a write before it moves the wake earlier and takes the
    /// credit along, and a later write changes nothing.
    #[test]
    fn word_watch_deadline_moves_earlier_on_a_write() {
        let mut m = machine(2);
        m.begin_step(1, VTime::ns(100));
        m.park_on_own_word(1, 8, VTime::ns(10), 2, VTime::ns(157));
        assert_eq!(m.stats(1).local_ops, 10); // polls 1..=5 skipped
        m.begin_step(0, VTime::ns(125));
        m.write_own(1, GlobalAddr::new(1, 8), 7); // poll 3, at 130
        assert_eq!(m.stats(1).local_ops, 4);
        m.begin_step(0, VTime::ns(128));
        m.write_own(1, GlobalAddr::new(1, 8), 0);
        let mut out = Vec::new();
        m.take_wakeups(&mut out);
        assert_eq!(out, vec![(VTime::ns(160), 1), (VTime::ns(130), 1)]);
        assert_eq!(m.stats(1).local_ops, 4);
    }

    /// Once the worker runs at its wake, the watch has lapsed: a write or
    /// a poke wakes nobody, and the worker may park again.
    #[test]
    fn word_watch_lapses_when_its_worker_runs() {
        let mut m = machine(2);
        m.begin_step(1, VTime::ns(100));
        m.park_on_own_word(1, 8, VTime::ns(10), 2, VTime::ns(120));
        m.begin_step(1, VTime::ns(120));
        m.write_own(1, GlobalAddr::new(1, 8), 7);
        m.begin_step(0, VTime::ns(125));
        m.write_own(1, GlobalAddr::new(1, 8), 0);
        m.evict(0);
        let mut out = Vec::new();
        m.take_wakeups(&mut out);
        assert_eq!(out, vec![(VTime::ns(120), 1)]);
        // The poll at 110 was the one skipped before the wake at 120.
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(100)), Some(VTime::ns(110)));
        m.begin_step(1, VTime::ns(120));
        m.park_on_own_word(1, 8, VTime::ns(10), 2, VTime::MAX);
        assert_eq!(m.stats(1).local_ops, 2);
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(100)), None);
    }

    /// An eviction pokes every parked worker as a write to its word would;
    /// a park made after the done flag wakes at its next poll.
    #[test]
    fn evictions_poke_and_late_parks_wake_next_poll() {
        let mut m = machine(3);
        m.begin_step(1, VTime::ns(100));
        m.park_on_own_word(1, 8, VTime::ns(10), 2, VTime::MAX);
        m.begin_step(2, VTime::ns(104));
        m.park_on_own_word(2, 8, VTime::ns(10), 2, VTime::MAX);
        m.begin_step(0, VTime::ns(120));
        m.evict(0);
        m.set_done();
        m.begin_step(0, VTime::ns(121));
        m.park_on_own_word(0, 8, VTime::ns(10), 2, VTime::MAX);
        let mut out = Vec::new();
        m.take_wakeups(&mut out);
        // Worker 1's poll at 120 runs after worker 0's step at 120.
        assert_eq!(
            out,
            vec![(VTime::ns(120), 1), (VTime::ns(124), 2), (VTime::ns(131), 0)]
        );
    }

    /// The last abandoned poll before the current step, by engine key.
    #[test]
    fn last_abandoned_poll_follows_the_engine_order() {
        let mut m = machine(3);
        m.begin_step(1, VTime::ns(100));
        m.park_on_own_word(1, 8, VTime::ns(10), 2, VTime::MAX);
        m.begin_step(0, VTime::ns(105));
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(100)), None);
        m.begin_step(0, VTime::ns(135));
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(100)), Some(VTime::ns(130)));
        m.begin_step(0, VTime::ns(130));
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(100)), Some(VTime::ns(120)));
        m.begin_step(2, VTime::ns(130));
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(100)), Some(VTime::ns(130)));
        // Another park's instant names a different wait.
        assert_eq!(m.last_abandoned_poll(1, VTime::ns(90)), None);
    }

    #[test]
    fn mailbox_wake_moves_earlier_and_takes_its_credit_along() {
        let mut m = machine(2);
        m.begin_step(1, VTime::ns(100));
        m.park_on_mailbox(1, None, VTime::ns(10), 1);
        m.begin_step(0, VTime::ns(105));
        m.note_delivery(1, VTime::ns(157)); // poll 6, at 160: five skipped
        assert_eq!(m.stats(1).local_ops, 5);
        m.note_delivery(1, VTime::ns(130)); // poll 3, exactly on the grid
        assert_eq!(m.stats(1).local_ops, 2);
        m.note_delivery(1, VTime::ns(131)); // poll 4: later, ignored
        m.set_done(); // poll 1, at 110: first after the step at 105
        assert_eq!(m.stats(1).local_ops, 0);
        let mut out = Vec::new();
        m.take_wakeups(&mut out);
        assert_eq!(
            out,
            vec![
                (VTime::ns(160), 1),
                (VTime::ns(130), 1),
                (VTime::ns(110), 1)
            ]
        );
        // The woken worker drops the watch; mail after that wakes nobody.
        m.begin_step(1, VTime::ns(110));
        m.unpark(1);
        m.note_delivery(1, VTime::ns(115));
        m.take_wakeups(&mut out);
        assert_eq!(out.len(), 3);
    }

    /// Mail already deliverable when the receiver parks resumes it at its
    /// very next poll.
    #[test]
    fn mailbox_park_with_mail_waiting_wakes_one_grid_on() {
        let mut m = machine(1);
        m.begin_step(0, VTime::ns(40));
        m.park_on_mailbox(0, Some(VTime::ns(33)), VTime::ns(10), 1);
        let mut out = Vec::new();
        m.take_wakeups(&mut out);
        assert_eq!(out, vec![(VTime::ns(50), 0)]);
        assert_eq!(m.stats(0).local_ops, 0);
    }

    #[test]
    fn bulk_costs_scale() {
        let mut m = machine(2);
        let small = m.call(0, Verb::GetBulk(1, 56)).1;
        let big = m.call(0, Verb::GetBulk(1, 1800)).1;
        assert!(big > small);
        let local = m.call(0, Verb::GetBulk(0, 1800)).1;
        assert!(local < small);
    }
}
