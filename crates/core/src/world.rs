//! Shared simulation state: the machine plus the runtime's side tables.
//!
//! Pinned memory (in `dcs-sim` segments) holds the *protocol words* — flags,
//! counters, deque bounds, context locations — exactly as in the paper.
//! The Rust objects those words refer to (boxed continuation stacks, task
//! argument values) live in per-worker side tables here and are *moved*
//! between workers when the corresponding bulk transfer is charged on the
//! fabric. This keeps every protocol decision observable in pinned memory
//! while avoiding byte-serialization of closures.

use dcs_sim::{GlobalAddr, Machine, VTime, Verb};
use dcs_uniaddr::{EvacRegion, IsoAlloc, UniRegion};

use crate::dedup::ClaimSet;
use crate::deque::{DequeError, Popped};
use crate::frame::{TaskFn, VThread};
use crate::layout::{SegLayout, DQ_LOCK};
use crate::policy::RunConfig;
use crate::remote_free::RemoteRegistry;
use crate::stats::RunStats;
use crate::steal::{Desc, Ring};
use crate::util::{Slab, U64Map};
use crate::value::{ThreadHandle, Value};
use crate::watchdog::{Watchdog, WatchdogReport};

/// Base wire size of a child-stealing task descriptor: function pointer,
/// thread-entry handle and queue-record header. With a typical 9-byte scalar
/// argument this gives the paper's ~55-byte stolen tasks.
pub const DESC_BASE: usize = 46;

/// Key of one worker *incarnation* in the eviction [`ClaimSet`]: evicting
/// `(w, epoch)` is a distinct, exactly-once event per epoch, so a worker
/// that rejoined as epoch `e+1` can later be evicted again without
/// colliding with its epoch-`e` eviction claim.
pub fn evict_key(worker: usize, epoch: u64) -> u64 {
    debug_assert!(epoch < (1 << 32), "epoch counter overflowed the key split");
    ((worker as u64) << 32) | epoch
}

/// An item in a worker's stealable deque.
pub enum QueueItem {
    /// A continuation (whole suspended stack). `spawned_child` is the entry
    /// of the child whose spawn pushed this continuation, or NULL for a
    /// ready continuation re-enqueued by a future producer — the Fig.-4
    /// work-first fast path must only fire when the popped item really is
    /// the dying child's parent.
    Cont {
        th: VThread,
        spawned_child: GlobalAddr,
        /// When this continuation became stealable (profiling).
        since: VTime,
    },
    /// A not-yet-started child task (child stealing).
    Child {
        f: TaskFn,
        arg: Value,
        handle: ThreadHandle,
    },
}

impl std::fmt::Debug for QueueItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueItem::Cont {
                th, spawned_child, ..
            } => write!(f, "Cont({th:?}, child={spawned_child:?})"),
            QueueItem::Child { arg, handle, .. } => {
                write!(f, "Child(arg={arg:?}, entry={:?})", handle.entry)
            }
        }
    }
}

impl QueueItem {
    /// Bytes moved if this item is stolen.
    pub fn wire_size(&self) -> usize {
        match self {
            QueueItem::Cont { th, .. } => th.stack_bytes(),
            QueueItem::Child { arg, .. } => DESC_BASE + arg.wire_size(),
        }
    }
}

/// Continuation-lineage record: the origin of one replayable thread under
/// a fail-stop fault plan. A thread's origin — function pointer, argument,
/// own entry handle — is pure data, so the record is everything a survivor
/// needs to re-execute the thread from scratch if its host dies before the
/// entry flag is published. Three kinds of thread carry one:
///
/// * **child descriptors** (ChildRtc): recorded at steal time, keyed by
///   the thief/executor — PR 4's original machinery;
/// * **continuation threads** (ContGreedy/ContStalling): recorded at the
///   fork that creates them, and *re-keyed* at every migration (steal
///   split take, greedy joiner migration) so `lineage[w]` always holds
///   the threads worker `w` physically holds;
/// * **the root thread**: recorded on worker 0 at startup with a NULL
///   handle, so a worker-0 kill re-elects a root holder via replay
///   instead of aborting.
///
/// A record lives exactly as long as its thread may still need a replay.
/// It is taken out of the log (`Lineage::take`) when the thread dies
/// (its completion is globally visible), when a re-key supersedes it, or
/// when a replay claims it; racing claimers (replay vs. re-key under
/// cascading kills) are arbitrated by `take`'s first-claimer-wins `Some`.
pub struct LineageRec {
    pub f: TaskFn,
    pub arg: Value,
    pub handle: ThreadHandle,
    /// Thread id of the live incarnation this record describes. Replay
    /// assigns a fresh id, so at end of run any record still in the log
    /// names a thread that never completed anywhere (lost with its worker,
    /// or an orphaned duplicate abandoned at termination) — the watchdog
    /// retires it instead of reporting lost work.
    pub tid: u64,
}

/// Names one lineage record: the recording worker, the slab slot the
/// record occupies and the worker's recording sequence number. Slots are
/// reused once their record is taken, so `seq` tells a record from a later
/// tenant of the same slot: a key whose slot is empty, or holds another
/// `seq`, reads as already claimed. 16 bytes with no niche: a niche would
/// shrink `Option<steal::Pending>` and `Worker`, whose sizes are pinned
/// (`sched::tests::per_worker_sizes_are_pinned`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineageKey {
    pub(crate) worker: u32,
    slot: u32,
    seq: u64,
}

/// Record counts of one run's lineage log (all zero without an armed plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineageCounts {
    /// Records ever pushed.
    pub recorded: u64,
    /// Most records live at once.
    pub peak_live: u64,
    /// Records still live (never taken) at the end of the run.
    pub live: u64,
}

/// One worker's live records: a slot-reusing slab of `(seq, record)`
/// plus the worker's next recording sequence number.
#[derive(Default)]
struct Log {
    recs: Slab<(u64, LineageRec)>,
    next_seq: u64,
}

/// Why a fail-stop loss could not be recovered (typed abort reason).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnrecoverableReason {
    /// ChildFull ties every task to a private full stack that is neither
    /// replayable pure data nor mirrored: any kill aborts the run.
    FullStacks,
    /// Every worker is dead — no survivor is left to replay the lineage
    /// (all mirrors died with their owners).
    AllWorkersDead,
}

impl std::fmt::Display for UnrecoverableReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrecoverableReason::FullStacks => {
                write!(f, "full private stacks cannot be replayed or mirrored")
            }
            UnrecoverableReason::AllWorkersDead => {
                write!(f, "every worker died; no survivor holds a mirror")
            }
        }
    }
}

/// The fail-stop lineage log: worker `w`'s log holds the origin record of
/// every replayable thread `w` physically holds (see [`LineageRec`]), and
/// nothing else — a record leaves the log when its thread completes, so
/// the log is bounded by live threads, not by run length.
///
/// Sparse: only workers that ever recorded a thread own a per-worker log,
/// so an armed 10⁵-worker run where a handful of workers do all the
/// spawning stays O(live records + recording workers), not O(workers). A
/// log outlives its last record so its sequence numbers never restart.
/// Backed by a `BTreeMap` so whole-log walks (end-of-run settlement) visit
/// workers in id order, and each worker's records in recording order,
/// keeping retirement bookkeeping deterministic.
#[derive(Default)]
pub struct Lineage {
    logs: std::collections::BTreeMap<usize, Log>,
    counts: LineageCounts,
}

impl Lineage {
    /// Record `rec` under worker `w`, returning its key.
    pub(crate) fn push(&mut self, w: usize, rec: LineageRec) -> LineageKey {
        let log = self.logs.entry(w).or_default();
        let seq = log.next_seq;
        log.next_seq += 1;
        let slot = log.recs.insert((seq, rec));
        let c = &mut self.counts;
        c.recorded += 1;
        c.live += 1;
        c.peak_live = c.peak_live.max(c.live);
        LineageKey {
            worker: u32::try_from(w).expect("worker ids fit in 32 bits"),
            slot,
            seq,
        }
    }

    /// The record `key` names, or `None` once it has been taken.
    pub(crate) fn get(&self, key: LineageKey) -> Option<&LineageRec> {
        let (seq, rec) = self.logs.get(&(key.worker as usize))?.recs.get(key.slot)?;
        (*seq == key.seq).then_some(rec)
    }

    /// Mutable access to the record `key` names, if still live.
    pub(crate) fn get_mut(&mut self, key: LineageKey) -> Option<&mut LineageRec> {
        let log = self.logs.get_mut(&(key.worker as usize))?;
        let (seq, rec) = log.recs.get_mut(key.slot)?;
        (*seq == key.seq).then_some(rec)
    }

    /// Take the record `key` names out of the log: `Some` exactly once, for
    /// the first claimer (completion, re-key or replay); `None` after.
    pub(crate) fn take(&mut self, key: LineageKey) -> Option<LineageRec> {
        let recs = &mut self.logs.get_mut(&(key.worker as usize))?.recs;
        if recs.get(key.slot)?.0 != key.seq {
            return None;
        }
        self.counts.live -= 1;
        Some(recs.take(key.slot).1)
    }

    /// Keys of worker `w`'s live records, in recording order.
    pub(crate) fn live_keys(&self, w: usize) -> Vec<LineageKey> {
        let Some(log) = self.logs.get(&w) else {
            return Vec::new();
        };
        let mut keys: Vec<LineageKey> = log
            .recs
            .iter()
            .map(|(slot, &(seq, _))| LineageKey {
                worker: w as u32,
                slot,
                seq,
            })
            .collect();
        keys.sort_unstable_by_key(|k| k.seq);
        keys
    }

    /// Every live record, in (worker id, recording) order.
    pub(crate) fn live(&self) -> impl Iterator<Item = &LineageRec> + '_ {
        self.logs
            .keys()
            .flat_map(|&w| self.live_keys(w))
            .map(|k| self.get(k).expect("live key"))
    }

    pub(crate) fn counts(&self) -> LineageCounts {
        self.counts
    }
}

/// A thread's return value parked in its entry, plus its wire size (charged
/// when a remote joiner fetches it).
pub struct StoredVal {
    pub v: Value,
    pub size: u32,
}

/// Runtime metadata of a live thread entry (kept owner-side; freed with it).
#[derive(Clone, Copy, Debug)]
pub struct EntryMeta {
    pub consumers: u32,
    /// Pinned bytes occupied by the entry record.
    pub bytes: u32,
}

/// Rust-side state of one worker that *other* workers may touch (through
/// charged fabric operations): deque payloads and evacuated threads.
pub struct WorkerShared {
    /// Payload objects referenced by this worker's deque ring.
    pub items: Slab<QueueItem>,
    /// Threads suspended at greedy joins, parked in the evacuation region;
    /// referenced from pinned saved-context records.
    pub saved: Slab<VThread>,
    /// Uni-address region occupancy.
    pub uni: UniRegion,
    /// Evacuation region accounting.
    pub evac: EvacRegion,
    /// Remote-object registry (local-collection strategy state).
    pub robj: RemoteRegistry,
    /// Live/peak count of full-thread stacks (ChildFull memory footprint).
    pub full_stacks_live: u64,
    pub full_stacks_peak: u64,
    /// Fence-free protocol: ticket currently occupying each live slab key
    /// of this worker's deque (`slab key → ticket`). Thieves validate a
    /// ring-slot read against this map so a stale read of a reused slot
    /// becomes a benign lost race, never a wrong-payload execution.
    pub ff_tickets: U64Map<u64>,
    /// Fence-free protocol: per-worker monotonic ticket counter (combined
    /// with the worker id into globally unique claim tickets).
    pub ff_next_ticket: u64,
}

impl WorkerShared {
    pub fn new(cfg: &RunConfig) -> WorkerShared {
        WorkerShared {
            items: Slab::new(),
            saved: Slab::new(),
            // Size the region for deep nesting: slots * generous depth.
            uni: UniRegion::with_default_base(cfg.stack_slot * 4096),
            evac: EvacRegion::new(),
            robj: RemoteRegistry::new(cfg.collect_limit),
            full_stacks_live: 0,
            full_stacks_peak: 0,
            ff_tickets: U64Map::default(),
            ff_next_ticket: 0,
        }
    }

    /// Mint a globally unique fence-free claim ticket for a new deque
    /// occupancy on worker `me`. Tickets are nonzero (a zero ring word
    /// means "empty slot") and never reused within a run.
    pub fn ff_fresh_ticket(&mut self, me: usize) -> u64 {
        self.ff_next_ticket += 1;
        ((me as u64) << 48) | self.ff_next_ticket
    }

    pub fn note_full_stack_alloc(&mut self) {
        self.full_stacks_live += 1;
        self.full_stacks_peak = self.full_stacks_peak.max(self.full_stacks_live);
    }

    pub fn note_full_stack_free(&mut self) {
        debug_assert!(self.full_stacks_live > 0);
        self.full_stacks_live -= 1;
    }
}

/// All runtime state shared across workers (next to the [`Machine`]).
pub struct RtShared {
    pub cfg: RunConfig,
    /// Return values parked in thread entries, keyed by entry address.
    pub retvals: U64Map<StoredVal>,
    /// Live entry metadata, keyed by entry address.
    pub meta: U64Map<EntryMeta>,
    pub per: Vec<WorkerShared>,
    pub stats: RunStats,
    /// Global iso-address allocator (used instead of the per-worker
    /// uni-address regions when the run selects [`crate::policy::AddressScheme::Iso`]).
    pub iso: IsoAlloc,
    /// Monotonic thread-id source.
    pub next_tid: u64,
    /// The root task's return value, set when it dies.
    pub result: Option<Value>,
    /// Invariant watchdog; allocated only when the run asks for it (or runs
    /// with active fault injection), so healthy runs pay nothing.
    pub watch: Option<Box<Watchdog>>,
    /// Fail-stop lineage log (armed fault plans only): survivors can
    /// re-execute the subset a dead worker never completed. A record is
    /// taken out when its thread completes, so the log holds live threads
    /// only; empty in healthy runs.
    pub lineage: Lineage,
    /// Eviction arbiter: one claim per `(worker, epoch)` incarnation end
    /// (see [`evict_key`]). The first survivor to confirm an incarnation's
    /// death — by oracle confirmation or by suspicion-lease expiry — wins
    /// the claim, bumps the victim's epoch in the machine registry and
    /// drains `lineage[w]`'s live records into the replay pool
    /// (exactly-once hand-off); every later confirmer of the *same*
    /// incarnation observes the claim and stands down.
    pub evictions: ClaimSet,
    /// Replay pool: keys into `lineage` enqueued by death confirmers and
    /// drained by any idle survivor; a key taken meanwhile is skipped.
    pub replay_pool: std::collections::VecDeque<LineageKey>,
    /// Set when a fail-stop loss cannot be recovered: `(worker, lost frame
    /// tids, reason)`. Aborts the run with a typed outcome instead of a
    /// hang.
    pub unrecoverable: Option<(usize, Vec<u64>, UnrecoverableReason)>,
    /// Fence-free protocol: the shared claim set arbitrating multiplicity —
    /// the first taker to claim an occupancy's ticket executes it; later
    /// takers observe the claim and discard their copy. Models the
    /// `taken[]` array of the fence-free algorithm (the one word a taker
    /// *writes* before executing).
    pub ff_claims: ClaimSet,
    /// The run's steal protocol as data: the thieves' claim and the owners'
    /// push / pop / reclaim.
    pub desc: Desc,
    /// Whether owner-side lock spins may park on the engine's wake
    /// mechanism instead of re-stepping every poll. On for plain runs;
    /// forced off under schedule exploration, whose reordered steps break
    /// the wake-instant computation (see `Machine::park_on_own_word`).
    pub allow_park: bool,
    /// Host-side scratch of the idle loop's probe ring, shared by every
    /// worker (steps run one at a time) so the K = 1 path never allocates.
    pub(crate) probe_ring: Ring,
}

impl RtShared {
    pub fn new(cfg: RunConfig) -> RtShared {
        let per = (0..cfg.workers).map(|_| WorkerShared::new(&cfg)).collect();
        let series = cfg.trace == crate::policy::TraceLevel::Series;
        let watch = cfg
            .watchdog_enabled()
            .then(|| Box::new(Watchdog::new(cfg.stall_limit)));
        RtShared {
            retvals: U64Map::default(),
            meta: U64Map::default(),
            per,
            stats: RunStats::new(series),
            iso: IsoAlloc::new(),
            next_tid: 0,
            result: None,
            watch,
            lineage: Lineage::default(),
            evictions: ClaimSet::new(),
            replay_pool: std::collections::VecDeque::new(),
            unrecoverable: None,
            ff_claims: ClaimSet::new(),
            desc: Desc::of(cfg.protocol),
            allow_park: true,
            probe_ring: Ring::default(),
            cfg,
        }
    }

    pub fn fresh_tid(&mut self) -> u64 {
        self.next_tid += 1;
        self.stats.threads_spawned += 1;
        if let Some(w) = &mut self.watch {
            w.spawn(self.next_tid);
        }
        self.next_tid
    }

    // -- watchdog hooks (all no-ops when the watchdog is off) --------------

    /// A thread completed at `now`.
    pub fn watch_death(&mut self, tid: u64, now: VTime) {
        if let Some(w) = &mut self.watch {
            w.death(tid, now);
        }
    }

    /// A non-death progress event (e.g. a successful steal).
    pub fn watch_progress(&mut self, now: VTime) {
        if let Some(w) = &mut self.watch {
            w.progress(now);
        }
    }

    /// A worker sleeps through a crash-stop window ending at `until`.
    pub fn watch_crash_sleep(&mut self, until: VTime) {
        if let Some(w) = &mut self.watch {
            w.crash_sleep(until);
        }
    }

    /// Idle-loop stall poll.
    pub fn watch_stall(&mut self, now: VTime) {
        if let Some(w) = &mut self.watch {
            w.check_stall(now);
        }
    }

    /// A deque operation surfaced a typed protocol error (dead ring slot on
    /// worker `owner`'s deque). Returns true when a watchdog recorded it —
    /// the scheduler then degrades gracefully; false means no watchdog is
    /// attached and the caller should fail loudly.
    pub fn watch_deque_protocol(&mut self, op: &'static str, owner: usize, index: u64) -> bool {
        match &mut self.watch {
            Some(w) => {
                w.deque_protocol(op, owner, index);
                true
            }
            None => false,
        }
    }

    /// Gate an entry free: records a double free (and vetoes the free) when
    /// the entry's metadata is already gone. Without a watchdog the free
    /// proceeds unconditionally (strict runs catch corruption via asserts).
    pub fn watch_check_free(&mut self, entry: u64) -> bool {
        let present = self.meta.contains_key(&entry);
        match &mut self.watch {
            Some(w) => w.check_free(entry, present),
            None => true,
        }
    }

    /// A thread is known to never complete (lost with its worker and
    /// re-executed under a fresh id, or an orphaned duplicate abandoned at
    /// termination).
    pub fn watch_retire(&mut self, tid: u64) {
        if let Some(w) = &mut self.watch {
            w.retire(tid);
        }
    }

    /// End-of-run lineage settlement (armed fault plans only): any record
    /// still live names a thread that never completed anywhere — its
    /// worker died with it and a fresh-id replay covered the work, or the
    /// duplicate subtree it belonged to was abandoned at termination. Both
    /// are expected under kills; retire them so the lost-task oracle keeps
    /// meaning for everything else.
    pub fn watch_settle_lineage(&mut self) {
        if self.watch.is_none() {
            return;
        }
        let tids: Vec<u64> = self.lineage.live().map(|r| r.tid).collect();
        for t in tids {
            self.watch_retire(t);
        }
    }

    /// Detach and close the watchdog (end of run).
    pub fn watch_finish(&mut self) -> Option<WatchdogReport> {
        self.watch.take().map(|w| w.finish())
    }

    /// A fail-stop kill took `worker` down while it held `tids` live
    /// frames. Recoverable losses (`fail == None`) only retire the frames
    /// (replay re-creates the work under fresh tids); an unrecoverable
    /// loss latches the typed abort for the runner.
    pub fn note_worker_lost(
        &mut self,
        worker: usize,
        tids: Vec<u64>,
        fail: Option<UnrecoverableReason>,
    ) {
        self.stats.workers_lost += 1;
        self.stats.tasks_lost += tids.len() as u64;
        if let Some(w) = &mut self.watch {
            w.worker_lost(worker, &tids, fail.is_none());
        }
        if let Some(reason) = fail {
            if self.unrecoverable.is_none() {
                self.unrecoverable = Some((worker, tids, reason));
            }
        }
    }

    /// A *live* worker observed its own eviction and self-fenced, shedding
    /// `tids` in-flight frames (false suspicion by the message detector).
    /// The frames are discounted like a recoverable kill's — the lineage
    /// drain replays them under fresh ids — but the worker is not counted
    /// lost: it rejoins as a fresh incarnation (or halts, if the plan
    /// disallows rejoin).
    pub fn note_worker_evicted(&mut self, worker: usize, tids: Vec<u64>) {
        self.stats.false_suspects += 1;
        self.stats.tasks_lost += tids.len() as u64;
        if let Some(w) = &mut self.watch {
            w.worker_evicted(worker, &tids);
        }
    }

    /// The message detector started suspecting `worker` (stall-report
    /// bookkeeping only; the eviction decision is the scheduler's).
    pub fn watch_suspect(&mut self, worker: usize) {
        if let Some(w) = &mut self.watch {
            w.suspect(worker);
        }
    }

    /// A delayed heartbeat cleared the suspicion of `worker`.
    pub fn watch_unsuspect(&mut self, worker: usize) {
        if let Some(w) = &mut self.watch {
            w.unsuspect(worker);
        }
    }
}

/// The engine world: machine + runtime shared state.
pub struct World {
    pub m: Machine,
    pub rt: RtShared,
}

impl World {
    /// Does a thief hold `me`'s deque lock? A fork or yield probes it before
    /// any side effect, so that a `Busy` retry is side-effect free. One
    /// counted owner get under the CAS-lock protocol; the other owners are
    /// never blocked and never ask.
    pub(crate) fn own_locked(&mut self, lay: &SegLayout, me: usize) -> bool {
        let lock = GlobalAddr::new(me, lay.dq_word(DQ_LOCK));
        self.rt.desc.locks() && self.m.call(me, Verb::Get(lock)).0 != 0
    }

    /// Push `item` at the bottom of `me`'s own deque under the run's
    /// protocol ([`Desc::push`]).
    pub(crate) fn own_push(
        &mut self,
        lay: &SegLayout,
        me: usize,
        item: QueueItem,
    ) -> Result<VTime, DequeError> {
        (self.rt.desc.push)(&mut self.m, &mut self.rt.per[me], lay, me, item)
    }

    /// Pop the bottom of `me`'s own deque under the run's protocol
    /// ([`Desc::pop`]; `parent` is the DIE fast path's accept test).
    pub(crate) fn own_pop(
        &mut self,
        lay: &SegLayout,
        me: usize,
        parent: Option<GlobalAddr>,
    ) -> Popped {
        let (m, rt) = (&mut self.m, &mut self.rt);
        (rt.desc.pop)(m, &mut rt.per[me], &mut rt.ff_claims, lay, me, parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ret_frame;
    use crate::policy::Policy;

    fn mk_rt() -> RtShared {
        RtShared::new(RunConfig::new(4, Policy::ContGreedy))
    }

    #[test]
    fn fresh_tids_are_unique_and_counted() {
        let mut rt = mk_rt();
        let a = rt.fresh_tid();
        let b = rt.fresh_tid();
        assert_ne!(a, b);
        assert_eq!(rt.stats.threads_spawned, 2);
    }

    #[test]
    fn queue_item_sizes() {
        let mut th = VThread::new(1, |_, _| crate::frame::Effect::ret(0u64), Value::Unit, ThreadHandle::single(GlobalAddr::NULL));
        th.frames.push(ret_frame(0u64));
        let stack = th.stack_bytes();
        let cont = QueueItem::Cont {
            th,
            spawned_child: GlobalAddr::NULL,
            since: VTime::ZERO,
        };
        assert_eq!(cont.wire_size(), stack);
        let child = QueueItem::Child {
            f: |_, _| crate::frame::Effect::ret(0u64),
            arg: Value::U64(5),
            handle: ThreadHandle::single(GlobalAddr::new(0, 8)),
        };
        // 46 + 9 = 55 bytes: the paper's descriptor size.
        assert_eq!(child.wire_size(), 55);
    }

    fn rec(tid: u64) -> LineageRec {
        LineageRec {
            f: |_, _| crate::frame::Effect::ret(0u64),
            arg: Value::U64(tid),
            handle: ThreadHandle::single(GlobalAddr::new(0, 8)),
            tid,
        }
    }

    #[test]
    fn a_key_to_a_reused_slot_reads_as_claimed() {
        let mut l = Lineage::default();
        let old = l.push(3, rec(1));
        assert_eq!(l.take(old).map(|r| r.tid), Some(1));
        let new = l.push(3, rec(2));
        assert_eq!((new.worker, new.slot), (old.worker, old.slot), "slot reuse");
        assert_ne!(new.seq, old.seq);
        assert!(l.get(old).is_none() && l.take(old).is_none(), "stale key");
        assert_eq!(l.get(new).map(|r| r.tid), Some(2));
        assert_eq!(l.take(new).map(|r| r.tid), Some(2));
        assert!(l.take(new).is_none(), "claim-once");
        let other = LineageKey {
            worker: 9,
            slot: 0,
            seq: 0,
        };
        assert!(l.get(other).is_none(), "a worker that never recorded");
    }

    #[test]
    fn the_drain_walks_live_records_in_recording_order() {
        let mut l = Lineage::default();
        let k: Vec<LineageKey> = (0..4).map(|t| l.push(1, rec(t))).collect();
        l.take(k[0]).unwrap();
        l.take(k[2]).unwrap();
        let k4 = l.push(1, rec(4)); // reuses k[2]'s slot
        let k5 = l.push(1, rec(5)); // reuses k[0]'s slot
        l.push(2, rec(6));
        assert_eq!(l.live_keys(1), vec![k[1], k[3], k4, k5]);
        let tids: Vec<u64> = l.live().map(|r| r.tid).collect();
        assert_eq!(tids, [1, 3, 4, 5, 6], "(worker, seq) order");
        let c = l.counts();
        assert_eq!((c.recorded, c.peak_live, c.live), (7, 5, 5));
        assert!(l.live_keys(7).is_empty());
    }

    #[test]
    fn full_stack_accounting() {
        let mut ws = WorkerShared::new(&RunConfig::new(1, Policy::ChildFull));
        ws.note_full_stack_alloc();
        ws.note_full_stack_alloc();
        ws.note_full_stack_free();
        ws.note_full_stack_alloc();
        assert_eq!(ws.full_stacks_live, 2);
        assert_eq!(ws.full_stacks_peak, 2);
    }
}
