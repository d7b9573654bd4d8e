//! Shared simulation state: the machine plus the runtime's side tables.
//!
//! Pinned memory (in `dcs-sim` segments) holds the *protocol words* — flags,
//! counters, deque bounds, context locations — exactly as in the paper.
//! The Rust objects those words refer to (boxed continuation stacks, task
//! argument values) live in per-worker side tables here and are *moved*
//! between workers when the corresponding bulk transfer is charged on the
//! fabric. This keeps every protocol decision observable in pinned memory
//! while avoiding byte-serialization of closures.

use dcs_sim::{GlobalAddr, Machine, VTime};
use dcs_uniaddr::{EvacRegion, IsoAlloc, UniRegion};

use crate::dedup::{ClaimSet, DoneFlag};
use crate::frame::{TaskFn, VThread};
use crate::policy::RunConfig;
use crate::remote_free::RemoteRegistry;
use crate::stats::RunStats;
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
///   split take, greedy joiner migration) so `lineage[w]` always indexes
///   the threads worker `w` physically holds;
/// * **the root thread**: recorded on worker 0 at startup with a NULL
///   handle, so a worker-0 kill re-elects a root holder via replay
///   instead of aborting.
///
/// `done` flips when the thread dies (its completion is globally visible)
/// or when the record is superseded by a re-key or a replay; racing
/// claimers (replay vs. re-key under cascading kills) are arbitrated by the
/// flag's first-claimer-wins [`DoneFlag::claim`].
pub struct LineageRec {
    pub f: TaskFn,
    pub arg: Value,
    pub handle: ThreadHandle,
    /// Thread id of the live incarnation this record describes. Replay
    /// assigns a fresh id, so at end of run any still-undone record names a
    /// thread that never completed anywhere (lost with its worker, or an
    /// orphaned duplicate abandoned at termination) — the watchdog retires
    /// it instead of reporting lost work.
    pub tid: u64,
    pub done: DoneFlag,
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

/// The fail-stop lineage log: `log(w)` holds the origin record of every
/// replayable thread worker `w` physically holds (see [`LineageRec`]).
///
/// Sparse: only workers that ever recorded a thread own a per-worker log,
/// so an armed 10⁵-worker run where a handful of workers do all the
/// spawning stays O(records), not O(workers). Backed by a `BTreeMap` so
/// whole-log iteration (end-of-run settlement) visits workers in id order —
/// the exact order the former `Vec<Vec<_>>` gave — keeping retirement
/// bookkeeping deterministic.
#[derive(Default)]
pub struct Lineage {
    logs: std::collections::BTreeMap<usize, Vec<LineageRec>>,
}

impl Lineage {
    /// Worker `w`'s records (empty slice if it never recorded any).
    pub fn log(&self, w: usize) -> &[LineageRec] {
        self.logs.get(&w).map_or(&[], |v| v)
    }

    /// Append a record under worker `w`, returning its index.
    pub fn push(&mut self, w: usize, rec: LineageRec) -> usize {
        let log = self.logs.entry(w).or_default();
        log.push(rec);
        log.len() - 1
    }

    /// Record `(w, i)`; the pair must have come from [`Self::push`].
    pub fn rec(&self, w: usize, i: usize) -> &LineageRec {
        &self.logs[&w][i]
    }

    /// Mutable access to record `(w, i)`.
    pub fn rec_mut(&mut self, w: usize, i: usize) -> &mut LineageRec {
        &mut self.logs.get_mut(&w).expect("lineage log exists")[i]
    }

    /// Every record, in (worker id, index) order.
    pub fn iter(&self) -> impl Iterator<Item = &LineageRec> {
        self.logs.values().flatten()
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
    /// re-execute the subset a dead worker never completed. Records are
    /// marked `done` rather than removed; empty in healthy runs.
    pub lineage: Lineage,
    /// Eviction arbiter: one claim per `(worker, epoch)` incarnation end
    /// (see [`evict_key`]). The first survivor to confirm an incarnation's
    /// death — by oracle confirmation or by suspicion-lease expiry — wins
    /// the claim, bumps the victim's epoch in the machine registry and
    /// drains `lineage[w]`'s undone records into the replay pool
    /// (exactly-once hand-off); every later confirmer of the *same*
    /// incarnation observes the claim and stands down.
    pub evictions: ClaimSet,
    /// Replay pool: `(worker, index)` references into `lineage` enqueued by
    /// death confirmers and drained by any idle survivor.
    pub replay_pool: std::collections::VecDeque<(usize, usize)>,
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
    /// Whether owner-side lock spins may park on the engine's wake
    /// mechanism instead of re-stepping every poll. On for plain runs;
    /// forced off under schedule exploration, whose reordered steps break
    /// the wake-instant computation (see `Machine::park_on_own_word`).
    pub allow_park: bool,
    /// Host-side scratch of the idle loop's probe ring, shared by every
    /// worker (steps run one at a time) so the K = 1 path never allocates.
    pub(crate) probe_ring: Vec<crate::sched::Probe>,
}

impl RtShared {
    pub fn new(cfg: RunConfig) -> RtShared {
        let per = (0..cfg.workers).map(|_| WorkerShared::new(&cfg)).collect();
        let series = cfg.trace == crate::policy::TraceLevel::Series;
        let watch = cfg
            .watchdog_enabled()
            .then(|| Box::new(Watchdog::new(cfg.stall_limit)));
        RtShared {
            cfg,
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
            allow_park: true,
            probe_ring: Vec::new(),
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
    /// still undone names a thread that never completed anywhere — its
    /// worker died with it and a fresh-id replay covered the work, or the
    /// duplicate subtree it belonged to was abandoned at termination. Both
    /// are expected under kills; retire them so the lost-task oracle keeps
    /// meaning for everything else.
    pub fn watch_settle_lineage(&mut self) {
        if self.watch.is_none() {
            return;
        }
        let tids: Vec<u64> = self
            .lineage
            .iter()
            .filter(|r| !r.done.is_done())
            .map(|r| r.tid)
            .collect();
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

    /// Split-borrow two distinct workers' shared state.
    pub fn two(&mut self, a: usize, b: usize) -> (&mut WorkerShared, &mut WorkerShared) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = self.per.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.per.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }
}

/// The engine world: machine + runtime shared state.
pub struct World {
    pub m: Machine,
    pub rt: RtShared,
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
    fn two_splits_correctly() {
        let mut rt = mk_rt();
        rt.per[1].full_stacks_live = 11;
        rt.per[3].full_stacks_live = 33;
        let (a, b) = rt.two(1, 3);
        assert_eq!(a.full_stacks_live, 11);
        assert_eq!(b.full_stacks_live, 33);
        let (a, b) = rt.two(3, 1);
        assert_eq!(a.full_stacks_live, 33);
        assert_eq!(b.full_stacks_live, 11);
    }

    #[test]
    #[should_panic]
    fn two_same_index_panics() {
        let mut rt = mk_rt();
        let _ = rt.two(2, 2);
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
