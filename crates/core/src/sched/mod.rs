//! The work-stealing scheduler: one [`Worker`] actor per simulated process.
//!
//! A worker is a state machine driven by the discrete-event engine:
//!
//! * `WState::Run` — execute the current thread: advance it one effect and
//!   apply that effect under the run's [`Policy`]. Effects that need the
//!   local deque observe the deque lock; if a thief holds it the application
//!   is retried next step (the effect is kept pending, no side effects leak).
//! * `WState::Idle` — the scheduler loop: poll the termination flag, pop
//!   local work, otherwise pick a uniformly random victim and start a steal.
//!   After every *failed* steal attempt, stalling policies round-robin the
//!   local wait queue (Fig. 3).
//! * `WState::Steal` — mid-steal: the idle loop's probe committed to a
//!   victim last step, so resume the steal machine ([`crate::steal`]) at its
//!   take/claim step, or at its reap step when the commit's completions were
//!   still outstanding. The worker is the machine's host: victim selection,
//!   blacklisting, fencing, statistics, lineage and adoption stay here.
//!
//! DIE and JOIN follow the paper's pseudocode per policy:
//!
//! * **ContGreedy** — Fig. 4, including the work-first fast path (pop the
//!   parent before racing), the fetch-and-add race, and migration of the
//!   suspended joiner to the race loser; multi-consumer futures use the §V-D
//!   extension (arrival-counting flag word with a DONE bit, per-consumer
//!   ctxloc slots, a consumed counter so the last consumer frees the entry).
//! * **ContStalling** — Fig. 3: DIE puts retval + flag and pops the local
//!   queue; JOIN suspends into the local FIFO wait queue, re-polled after
//!   each failed steal; suspended threads never migrate.
//! * **ChildFull** — spawn pushes a 56-byte descriptor; tasks are tied, each
//!   gets its own full stack and suspends to the wait queue at unresolved
//!   joins.
//! * **ChildRtc** — like ChildFull but a blocked join *nests* the scheduler
//!   on the worker's single stack: the blocked task is buried until
//!   everything above it completes (§IV-B).
//!
//! JOIN is split across two steps (flag read, then the suspend + race
//! commit) so a producer's DIE can interleave in the window — the rare
//! "joining thread lost the race" path of Fig. 4 lines 49–50 is reachable
//! exactly as on real hardware.

use std::collections::VecDeque;

use dcs_sim::{
    Actor, GlobalAddr, Machine, SimRng, Step, VTime, Verb, VerbHandle, Window, WorkerId,
};

use crate::deque::{lock_holder, Busy, DeadSlot, DequeError};
use crate::entry::{
    alloc_entry, alloc_saved_ctx, free_entry, read_saved_ctx, DONE_BIT, EM_CONSUMED, EM_CTX0,
    E_CTXLOC, E_FLAG, SAVED_CTX_BYTES,
};
use crate::frame::{AppCtx, Effect, Frame, Pending, TaskCtx, TaskFn, VThread};
use crate::layout::{SegLayout, DQ_BOTTOM, DQ_LOCK, DQ_TOP};
use crate::policy::{AddressScheme, FreeStrategy, Policy, VictimPolicy};
use crate::remote_free::free_robj;
use crate::steal::{self, Stage};
use crate::value::{ThreadHandle, Value};
use crate::world::{
    evict_key, LineageKey, LineageRec, QueueItem, StoredVal, UnrecoverableReason, World,
};

/// A pending operation carried across steps.
pub(crate) enum PendingOp {
    /// An application-produced effect not yet applied.
    Effect(Effect),
    /// JOIN saw flag = 0 last step; commit the suspension / race this step.
    JoinSlow {
        handle: ThreadHandle,
    },
}

/// Scheduler state.
pub(crate) enum WState {
    /// Executing the current thread.
    Run,
    /// Looking for work.
    Idle,
    /// Mid-steal: resume the steal machine at this stage.
    Steal(Stage),
}

/// A thread suspended in the local wait queue (stalling strategies).
pub(crate) struct Waiting {
    th: VThread,
    handle: ThreadHandle,
}

/// A thread buried under the nested scheduler (ChildRtc).
pub(crate) struct Nested {
    th: VThread,
    handle: ThreadHandle,
}

/// Per-victim misbehaviour scores with exponential decay (fault-injection
/// resilience): every transient fabric fault observed while talking to a
/// victim bumps its score; a victim whose decayed score exceeds
/// [`Worker::BL_THRESHOLD`] is skipped during victim selection until the
/// score decays back below it. Scores are Q32.32 fixed point and decay by
/// integer shift (one bit per elapsed half-life) so the engine stays free
/// of float rounding; [`Worker::BL_FOREVER`] marks a permanent entry
/// (confirmed-dead victim, never decays).
///
/// Sparse: keyed by victim id, populated only for peers that actually
/// misbehaved, so a worker in a 10⁵-peer run pays for its handful of flaky
/// or dead victims rather than two O(W) vectors. Never iterated (only
/// probed per victim), so the map's ordering is irrelevant to determinism.
pub(crate) struct Blacklist {
    /// `victim → (score, last-update time)`; absent means score 0.
    entries: std::collections::HashMap<WorkerId, (u64, VTime)>,
    /// Cached cheapest-by-topology non-permanently-blacklisted fallback
    /// victim (`None` = stale, recompute; `Some(None)` = every peer is
    /// permanently blacklisted). Invalidated whenever the permanent set
    /// changes, so the sole-survivor fallback in
    /// [`Worker::select_victim`] costs O(W) once per death/rejoin instead
    /// of per draw.
    fallback: Option<Option<WorkerId>>,
}

impl Blacklist {
    fn new() -> Blacklist {
        Blacklist {
            entries: std::collections::HashMap::new(),
            fallback: None,
        }
    }
}

/// One simulated worker process.
pub struct Worker {
    me: WorkerId,
    n: usize,
    policy: Policy,
    strategy: FreeStrategy,
    scheme: AddressScheme,
    victim_policy: VictimPolicy,
    /// Steal attempts kept in flight at once (`--multi-steal K`).
    multi_steal: usize,
    /// Consecutive failed steal attempts (drives hierarchical escalation).
    fail_streak: u32,
    lay: SegLayout,
    rng: SimRng,
    app: AppCtx,
    /// Whole-run compute speed (the profile's scale); stragglers are
    /// `slow_windows`.
    base_scale: f64,
    /// Time-windowed slowdowns affecting this worker: `(from, until, factor)`.
    slow_windows: Vec<(VTime, VTime, f64)>,
    /// Per-victim misbehaviour scores (allocated lazily on the first
    /// observed fabric fault, so healthy runs never touch it).
    blacklist: Option<Box<Blacklist>>,
    state: WState,
    cur: Option<VThread>,
    /// Steal awaiting its completions (`Stage::Reap` only).
    pending_steal: Option<steal::Pending>,
    pending: Option<PendingOp>,
    wait_q: VecDeque<Waiting>,
    nest: Vec<Nested>,
    busy: bool,
    busy_since: VTime,
    halted: bool,
    /// The fault plan arms recovery (a scheduled kill, `recover=on`, or a
    /// message-based detector that can evict on suspicion): gate for every
    /// recovery code path, so unarmed runs stay bit-identical.
    kills: bool,
    /// This worker's incarnation epoch: its view of its own entry in the
    /// machine epoch registry. A survivor that confirms this worker dead
    /// bumps the registry; the gap between registry and view is how the
    /// worker observes its own eviction (self-fence) at its next step.
    my_epoch: u64,
    /// Peers this worker currently holds confirmed dead (latched lease
    /// expiry); empty without an armed plan. Under the message detector a
    /// latch is revocable: delayed beats landing un-confirm the peer and
    /// clear the latch (and its permanent blacklist entry), making a
    /// falsely-suspected or rejoined peer stealable again. Sparse: holds
    /// only the (few) latched peers, not a W-wide bitmap per worker.
    confirmed: std::collections::BTreeSet<WorkerId>,
    /// Position in the machine's detector candidate feed (see
    /// [`dcs_sim::Machine::death_candidates`]): everything before it has
    /// been folded into `confirmed` by [`Worker::fail_stop_scan`].
    death_cursor: usize,
}

impl Worker {
    /// Create worker `me`. Worker 0 receives the root thread.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: WorkerId,
        world: &mut World,
        lay: SegLayout,
        app: AppCtx,
        root: Option<(TaskFn, Value)>,
        seed: u64,
    ) -> Worker {
        let policy = world.rt.cfg.policy;
        let strategy = world.rt.cfg.free_strategy;
        let scheme = world.rt.cfg.address_scheme;
        let victim_policy = world.rt.cfg.victim;
        let base_scale = world.rt.cfg.profile.compute_scale;
        let slow_windows: Vec<(VTime, VTime, f64)> = world
            .rt
            .cfg
            .slowdowns
            .iter()
            .filter(|s| s.worker == me)
            .map(|s| (s.from, s.until, s.factor))
            .collect();
        let n = world.rt.cfg.workers;
        // Armed either by a scheduled kill or explicitly (`recover=on`) —
        // the latter exists so `ablate_recovery` can price the lineage
        // machinery with no kill actually firing.
        let kills = world.rt.cfg.fault.recovery_armed();
        let cur = root.map(|(f, arg)| {
            let tid = world.rt.fresh_tid();
            // Root re-election: the root's origin is mirrored as the first
            // lineage record of worker 0 with a NULL handle, so a worker-0
            // kill replays the root elsewhere instead of aborting the run.
            let rec = (kills && policy != Policy::ChildFull).then(|| {
                world.rt.lineage.push(
                    me,
                    LineageRec {
                        f,
                        arg: arg.clone(),
                        handle: ThreadHandle::single(GlobalAddr::NULL),
                        tid,
                    },
                )
            });
            let mut th = VThread::new(tid, f, arg, ThreadHandle::single(GlobalAddr::NULL));
            th.replay_rec = rec;
            if policy.is_cont() {
                let slot = world.rt.cfg.stack_slot;
                th.home = Some(match scheme {
                    AddressScheme::Uni => world.rt.per[me].uni.place_child(None, slot),
                    AddressScheme::Iso => world.rt.iso.alloc(slot),
                });
            } else if policy == Policy::ChildFull {
                world.rt.per[me].note_full_stack_alloc();
            }
            th
        });
        let busy = cur.is_some();
        if busy {
            world.rt.stats.note_busy(VTime::ZERO);
        }
        Worker {
            me,
            n,
            policy,
            strategy,
            lay,
            rng: SimRng::for_worker(seed, me),
            app,
            base_scale,
            slow_windows,
            blacklist: None,
            scheme,
            victim_policy,
            multi_steal: (world.rt.cfg.multi_steal as usize).max(1),
            fail_streak: 0,
            state: if busy { WState::Run } else { WState::Idle },
            cur,
            pending_steal: None,
            pending: None,
            wait_q: VecDeque::new(),
            nest: Vec::new(),
            busy,
            busy_since: VTime::ZERO,
            halted: false,
            kills,
            my_epoch: 0,
            confirmed: std::collections::BTreeSet::new(),
            death_cursor: 0,
        }
    }

    // ------------------------------------------------------------------
    // busy/idle accounting
    // ------------------------------------------------------------------

    pub(crate) fn set_busy(&mut self, world: &mut World, now: VTime, busy: bool) {
        if busy == self.busy {
            return;
        }
        if busy {
            self.busy_since = now;
            world.rt.stats.note_busy(now);
        } else {
            world.rt.stats.add_busy(now.saturating_sub(self.busy_since));
            world.rt.stats.note_busy_interval(self.me, self.busy_since, now);
            world.rt.stats.note_idle(now);
        }
        self.busy = busy;
    }

    // ------------------------------------------------------------------
    // small protocol helpers
    // ------------------------------------------------------------------

    /// Publish a completion record as one window: park the retval (side
    /// table) and post its wire put, then post the join-flag verb
    /// `flag(E_FLAG word, val)` — Fig. 3 DIE's plain write (`Verb::Put`,
    /// lines 1–2) or the greedy race's fetch-add (`Verb::Faa`, Fig. 4
    /// l. 33). Both verbs target the entry's rank, so same-QP in-order
    /// retirement keeps the value visible before the flag — the
    /// publication order Fig. 3/4 rely on — even when the two overlap: a
    /// racing joiner that observes the incremented flag is guaranteed to
    /// find the value. `at` is the issuer's absolute virtual instant;
    /// returns the flag verb's value (the old flag, for a fetch-add) and
    /// the added cost.
    pub(crate) fn publish(
        &mut self,
        world: &mut World,
        e: ThreadHandle,
        v: Value,
        flag: fn(GlobalAddr, u64) -> Verb,
        val: u64,
        at: VTime,
    ) -> (u64, VTime) {
        let size = v.wire_size();
        world
            .rt
            .retvals
            .insert(e.entry.to_u64(), StoredVal { v, size: size as u32 });
        let mut w = world.m.window(self.me, at);
        let rv = Verb::PutBulk(e.entry.rank as usize, size);
        let h_rv = w.posted(world.m.post(self.me, rv, w.at()));
        let h_flag = w.posted(
            world
                .m
                .post(self.me, flag(e.entry.field(E_FLAG), val), w.at()),
        );
        world.m.wait(self.me, h_rv);
        let (old, _) = world.m.wait(self.me, h_flag);
        (old, world.m.finish(&w).saturating_sub(at))
    }

    /// Fetch a return value from entry `e`. Single-consumer entries hand the
    /// value out once (removal); multi-consumer entries clone (the entry is
    /// freed — and the table cleaned — by the last consumer).
    pub(crate) fn get_retval(&mut self, world: &mut World, e: ThreadHandle) -> (Value, VTime) {
        let key = e.entry.to_u64();
        let (v, size) = if e.consumers == 1 {
            let sv = world
                .rt
                .retvals
                .remove(&key)
                .expect("join completed but no return value parked");
            (sv.v, sv.size)
        } else {
            let sv = world
                .rt
                .retvals
                .get(&key)
                .expect("future completed but no return value parked");
            (sv.v.clone(), sv.size)
        };
        let cost = world
            .m
            .call(self.me, Verb::GetBulk(e.entry.rank as usize, size as usize))
            .1;
        (v, cost)
    }

    /// Free entry `e` from this worker (it owns the last consume).
    pub(crate) fn free_entry_here(&mut self, world: &mut World, e: ThreadHandle) -> VTime {
        if !world.rt.watch_check_free(e.entry.to_u64()) {
            // Double free (watchdog violation recorded): refuse to corrupt
            // the entry allocator; the aborted attempt costs one local op.
            return world.m.local_op(self.me);
        }
        world.rt.stats.note_entry_freed(e.entry.to_u64());
        let owner = e.entry.rank as usize;
        free_entry(
            &mut world.m,
            &mut world.rt.per[owner],
            &self.lay,
            self.strategy,
            self.me,
            e,
            &mut world.rt.meta,
            &mut world.rt.retvals,
        )
    }

    /// Release the thread's execution resources at death.
    pub(crate) fn retire_thread(&mut self, world: &mut World, th: &mut VThread) {
        if let Some(home) = th.home.take() {
            match self.scheme {
                AddressScheme::Uni => world.rt.per[self.me].uni.release(home),
                AddressScheme::Iso => world.rt.iso.free(home),
            }
        }
        if self.policy == Policy::ChildFull {
            world.rt.per[self.me].note_full_stack_free();
        }
    }

    /// Close a suspended thread's outstanding-join record now (used by
    /// resume paths that free the entry before `start_thread` runs — the
    /// die-time record must still be present when the interval is computed).
    pub(crate) fn close_suspension(&mut self, world: &mut World, th: &mut VThread, now: VTime) {
        if let Some((suspended_at, entry)) = th.suspension.take() {
            world.rt.stats.note_join_resumed(entry, suspended_at, now);
        }
    }

    /// Begin running a thread on this worker; closes any outstanding-join
    /// bookkeeping it carries.
    pub(crate) fn start_thread(&mut self, world: &mut World, now: VTime, mut th: VThread) {
        if let Some((suspended_at, entry)) = th.suspension.take() {
            world.rt.stats.note_join_resumed(entry, suspended_at, now);
        }
        debug_assert!(self.cur.is_none());
        self.cur = Some(th);
        self.state = WState::Run;
        self.set_busy(world, now, true);
    }

    /// Place a newly spawned thread's stack immediately above its parent's
    /// (the uni-address rule). After migrations have re-homed stacks, the
    /// slot above the parent can be occupied by an unrelated resident
    /// continuation; the real system would relocate — the model falls back
    /// to first-fit and counts the conflict, exactly like [`Self::claim_home`].
    pub(crate) fn place_stack(
        &mut self,
        world: &mut World,
        parent: Option<dcs_uniaddr::StackSlot>,
        len: u64,
    ) -> dcs_uniaddr::StackSlot {
        if self.scheme == AddressScheme::Iso {
            return world.rt.iso.alloc(len);
        }
        let uni = &mut world.rt.per[self.me].uni;
        let base = parent.map_or(uni.base(), |p| p.end());
        let want = dcs_uniaddr::StackSlot { base, len };
        if uni.claim(want) {
            want
        } else {
            uni.place_anywhere(len)
        }
    }

    /// Claim a migrated thread's home range in this worker's uni-address
    /// region, falling back to first-fit on conflict (counted).
    pub(crate) fn claim_home(&mut self, world: &mut World, th: &mut VThread) {
        if !self.policy.is_cont() || self.scheme == AddressScheme::Iso {
            // Iso-address stacks keep their globally unique range wherever
            // they go — migration never relocates.
            return;
        }
        let slot_len = world.rt.cfg.stack_slot;
        let uni = &mut world.rt.per[self.me].uni;
        match th.home {
            Some(home) if uni.claim(home) => {}
            _ => {
                th.home = Some(uni.place_anywhere(slot_len));
            }
        }
    }

    /// Effective compute slowdown at virtual time `now`: the whole-run base
    /// scale compounded with every slowdown window covering `now`.
    pub(crate) fn compute_scale_at(&self, now: VTime) -> f64 {
        let mut s = self.base_scale;
        for &(from, until, f) in &self.slow_windows {
            if from <= now && now < until {
                s *= f;
            }
        }
        s
    }

    /// Surface a deque-protocol violation carried by a typed error. `owner`
    /// is the worker whose deque held the dead slot (the victim, for thief
    /// ops). With a watchdog attached the violation is recorded and the
    /// caller degrades (the op reports "nothing found"); without one a
    /// corrupted deque cannot be trusted to finish the run, so fail loudly —
    /// as a protocol error, not the `u64::MAX` slab underflow this replaces.
    pub(crate) fn deque_violation(&self, world: &mut World, owner: WorkerId, d: &DeadSlot) {
        if !world.rt.watch_deque_protocol(d.op, owner, d.index) {
            panic!(
                "deque protocol violation: {} observed a dead ring slot at index {} of worker {}'s deque",
                d.op, d.index, owner
            );
        }
    }

    /// The thread ids of every frame this worker holds: the current thread,
    /// the wait queue and the nest, a steal caught between commit and reap
    /// (child descriptors were lineage-recorded at commit time and replay),
    /// queued continuations and suspended threads.
    fn held_tids(&self, world: &World) -> Vec<u64> {
        let ws = &world.rt.per[self.me];
        let parked = self.pending_steal.iter().map(|ps| &ps.item);
        let cont = |item: &QueueItem| match item {
            QueueItem::Cont { th, .. } => Some(th.tid),
            QueueItem::Child { .. } => None,
        };
        let mut tids: Vec<u64> = self.cur.iter().map(|th| th.tid).collect();
        tids.extend(self.wait_q.iter().map(|w| w.th.tid));
        tids.extend(self.nest.iter().map(|x| x.th.tid));
        tids.extend(parked.filter_map(cont));
        tids.extend(ws.items.iter().filter_map(|(_, item)| cont(item)));
        tids.extend(ws.saved.iter().map(|(_, th)| th.tid));
        tids
    }

    /// This worker's scheduled fail-stop kill instant has arrived: collect
    /// every frame that dies with it, report the loss, and halt forever.
    /// Every policy except [`Policy::ChildFull`] is recoverable — thread
    /// origins (child descriptors, continuation fork/steal records, the
    /// mirrored root) are replayable pure data and the lineage log covers
    /// everything in flight, including worker 0's root. ChildFull's full
    /// private stacks cannot be reconstructed, and a loss that leaves no
    /// survivor has nobody to replay; those runs abort with a typed
    /// outcome.
    fn step_killed(&mut self, now: VTime, world: &mut World) -> Step {
        let tids = self.held_tids(world);
        let all_dead = (0..self.n).all(|w| w == self.me || world.m.is_dead(w, now));
        let fail = if self.policy == Policy::ChildFull {
            Some(UnrecoverableReason::FullStacks)
        } else if all_dead {
            Some(UnrecoverableReason::AllWorkersDead)
        } else {
            None
        };
        world.rt.note_worker_lost(self.me, tids, fail);
        if fail.is_some() {
            world.m.set_done();
        }
        self.set_busy(world, now, false);
        self.halted = true;
        Step::Halt
    }

    /// This worker observed its own eviction (the epoch registry moved past
    /// its view): a survivor's lease on us expired — under the message
    /// detector possibly a *false* suspicion — and our unfinished lineage
    /// was drained for replay. Everything we still hold is therefore a
    /// stale duplicate: quiesce, shed it, and rejoin as a fresh incarnation
    /// with an empty deque (or halt, when the plan forbids rejoining).
    ///
    /// ChildFull is the exception: it records no lineage, so the confirmer
    /// drained nothing and nothing we hold is stale — the worker just
    /// adopts its new epoch and keeps running (survivors un-blacklist it
    /// once its beats resume).
    fn step_evicted(&mut self, now: VTime, world: &mut World) -> Step {
        let new_epoch = world.m.epoch_of(self.me);
        if self.policy == Policy::ChildFull {
            self.my_epoch = new_epoch;
            world.rt.note_worker_evicted(self.me, Vec::new());
            return Step::Yield(world.m.local_op(self.me));
        }
        // Every frame dies with this incarnation (the census a fail-stop
        // kill takes; replay re-creates the recorded subset under fresh ids).
        let tids = self.held_tids(world);
        // Shed the current thread and the local queues, returning stack
        // homes so the region survives into the next incarnation.
        if let Some(mut th) = self.cur.take() {
            self.retire_thread(world, &mut th);
        }
        while let Some(Waiting { mut th, .. }) = self.wait_q.pop_front() {
            if self.scheme == AddressScheme::Uni && th.home.take().is_some() {
                // Stalling suspensions released their home at evacuation;
                // only the evacuation accounting is still open.
                world.rt.per[self.me].evac.restore(th.stack_bytes() as u64);
            } else {
                self.retire_thread(world, &mut th);
            }
        }
        while let Some(Nested { mut th, .. }) = self.nest.pop() {
            self.retire_thread(world, &mut th);
        }
        // Reap any mid-flight steal's posted completions, then abandon the
        // item (its lineage record is keyed under us and was just drained —
        // the replay is the only legitimate copy).
        if let Some(ps) = self.pending_steal.take() {
            if let Some(h) = ps.h_release {
                let _ = world.m.wait(self.me, h);
            }
            let _ = world.m.wait(self.me, ps.h_copy);
            if let QueueItem::Cont { mut th, .. } = ps.item {
                if let (WState::Steal(Stage::Reap { victim, .. }), Some(home)) =
                    (&self.state, th.home.take())
                {
                    // The stolen stack's home still sits in the *victim's*
                    // region (adopt would have released it there).
                    match self.scheme {
                        AddressScheme::Uni => world.rt.per[*victim].uni.release(home),
                        AddressScheme::Iso => world.rt.iso.free(home),
                    }
                }
            }
        }
        self.pending = None;
        // Empty the deque: payload objects, suspended threads, fence-free
        // ticket index (the ticket *counter* survives — tickets must stay
        // unique across incarnations), and the pinned protocol words.
        let items = std::mem::take(&mut world.rt.per[self.me].items);
        for (_, item) in items.iter() {
            if let QueueItem::Cont { th, .. } = item {
                if let Some(home) = th.home {
                    match self.scheme {
                        AddressScheme::Uni => world.rt.per[self.me].uni.release(home),
                        AddressScheme::Iso => world.rt.iso.free(home),
                    }
                }
            }
        }
        drop(items);
        let saved = std::mem::take(&mut world.rt.per[self.me].saved);
        for (_, th) in saved.iter() {
            if th.home.is_some() {
                match self.scheme {
                    AddressScheme::Uni => {
                        // Greedy suspensions evacuated: the home was already
                        // released, only the evacuation accounting is open.
                        world.rt.per[self.me].evac.restore(th.stack_bytes() as u64);
                    }
                    AddressScheme::Iso => {
                        if let Some(home) = th.home {
                            world.rt.iso.free(home);
                        }
                    }
                }
            }
        }
        drop(saved);
        world.rt.per[self.me].ff_tickets.clear();
        for w in [DQ_LOCK, DQ_TOP, DQ_BOTTOM] {
            let addr = GlobalAddr::new(self.me, self.lay.dq_word(w));
            world.m.write_own(self.me, addr, 0);
        }
        // The ring slots too: fence-free reads "slot word == 0" as the
        // empty/overflow discriminator, so a stale key left over from the
        // previous incarnation would look like a live item to a thief and
        // trip the overflow assert on the new life's very first push.
        for idx in 0..self.lay.deque_cap as u64 {
            let slot = GlobalAddr::new(self.me, self.lay.dq_slot(idx));
            world.m.write_own(self.me, slot, 0);
        }
        world.rt.note_worker_evicted(self.me, tids);
        self.set_busy(world, now, false);
        self.state = WState::Idle;
        self.fail_streak = 0;
        let cost = world.m.ctx_switch(self.me);
        if world.m.rejoin_allowed() {
            self.my_epoch = new_epoch;
            world.rt.stats.rejoins += 1;
            Step::Yield(cost)
        } else {
            self.halted = true;
            Step::Halt
        }
    }

    // ------------------------------------------------------------------
    // continuation-lineage log (armed fault plans only)
    // ------------------------------------------------------------------

    /// Checkpoint header bytes mirrored to the thief's buddy at a
    /// continuation steal split: frame id, steal point, join-counter
    /// snapshot and retval-slot address (four words).
    pub(crate) const CKPT_HDR_BYTES: usize = 32;

    /// The thief's buddy: the nearest live higher rank (wrapping). The
    /// steal split's checkpoint put lands here, so either side of the
    /// split can be rebuilt after a single death. `None` when every peer
    /// is already dead.
    pub(crate) fn buddy(&self, m: &Machine, now: VTime) -> Option<WorkerId> {
        (1..self.n)
            .map(|k| (self.me + k) % self.n)
            .find(|&b| !m.is_dead(b, now))
    }

    /// Append a lineage record for thread origin `(f, arg, handle)`,
    /// currently incarnated as thread `tid`, under this worker and return
    /// its key.
    pub(crate) fn record_lineage(
        &mut self,
        world: &mut World,
        tid: u64,
        f: TaskFn,
        arg: Value,
        handle: ThreadHandle,
    ) -> LineageKey {
        let rec = LineageRec {
            f,
            arg,
            handle,
            tid,
        };
        world.rt.lineage.push(self.me, rec)
    }

    /// A thread is migrating to this worker (steal split take, greedy
    /// joiner migration): take its old lineage record out and re-record it
    /// here, preserving the invariant that `lineage[w]` holds exactly the
    /// threads worker `w` physically holds. Returns `false` when the old
    /// record was already claimed by a replayer — the caller holds a stale
    /// duplicate (its re-execution is already underway elsewhere) and must
    /// discard it instead of running it.
    #[must_use = "a false return means the thread is a stale duplicate"]
    pub(crate) fn rekey_lineage(&mut self, world: &mut World, th: &mut VThread) -> bool {
        let Some(key) = th.replay_rec else {
            return true;
        };
        if key.worker as usize == self.me {
            return true;
        }
        let Some(rec) = world.rt.lineage.take(key) else {
            // Claimed while we raced for it: a confirmer drained the old
            // holder's lineage and a replay re-executes this thread already.
            return false;
        };
        th.replay_rec = Some(self.record_lineage(world, th.tid, rec.f, rec.arg, rec.handle));
        true
    }

    /// The thread completed (its entry flag is globally visible): take its
    /// lineage record out, so it never replays.
    pub(crate) fn mark_lineage_done(world: &mut World, th: &VThread) {
        if let Some(key) = th.replay_rec {
            world.rt.lineage.take(key);
        }
    }

    /// Fabric charge of one owner-side lock-spin iteration: the lock
    /// probe's local get (charged inside the deque op / probe) plus the
    /// retry's bookkeeping `local_op`. Parking credits this per skipped
    /// iteration.
    pub(crate) const SPIN_CHARGE: u64 = 2;

    /// Whether an owner-side lock spin may park on the engine's wake
    /// mechanism instead of re-stepping every `local_op` of virtual time
    /// (see `Machine::park_on_own_word`). Parking reproduces the spin loop
    /// exactly only when each skipped iteration would have been a pure
    /// re-poll: no fault plan evaluating crash/suspicion windows per step,
    /// no dead-lock breaking, no watchdog stall clock, and no schedule
    /// exploration reordering steps.
    pub(crate) fn may_park(&self, world: &World) -> bool {
        world.rt.allow_park
            && !self.kills
            && !world.m.faults_active()
            && world.rt.watch.is_none()
    }

    /// Fail-stop lock-break: a thief that died between acquiring this
    /// worker's deque lock and its take step left the lock set forever —
    /// and can never have taken anything (the take is a single atomic
    /// step), so once the holder's death is lease-confirmed the owner may
    /// clear the word without losing an item. The lock word carries the
    /// holder's incarnation epoch (see [`crate::deque::lock_word`]): a
    /// holder that was evicted and rejoined since acquiring is equally
    /// gone — its old incarnation self-fenced and will never run the take —
    /// so an epoch gap breaks the lock too. Under the oracle detector the
    /// epoch clause is redundant (eviction requires confirmation, which this
    /// check sees first), keeping oracle runs byte-identical.
    pub(crate) fn break_dead_lock(&mut self, now: VTime, world: &mut World) {
        if !self.kills {
            return;
        }
        let addr = GlobalAddr::new(self.me, self.lay.dq_word(DQ_LOCK));
        let holder = world.m.read_own(self.me, addr);
        if holder == 0 {
            return;
        }
        let (holder_epoch, thief) = lock_holder(holder);
        if world.m.confirmed_dead(thief, now) || world.m.epoch_of(thief) > holder_epoch {
            world.m.write_own(self.me, addr, 0);
        }
    }

    /// Run one application step of the current thread, producing an effect.
    pub(crate) fn advance_cur(&mut self, now: VTime) -> Effect {
        let scale = self.compute_scale_at(now);
        let th = self.cur.as_mut().expect("advance without current thread");
        let mut ctx = TaskCtx {
            worker: self.me,
            app: &self.app,
            compute_scale: scale,
        };
        th.advance(&mut ctx)
    }
}

impl Actor<World> for Worker {
    fn step(&mut self, me: WorkerId, now: VTime, world: &mut World) -> Step {
        debug_assert_eq!(me, self.me);
        if self.halted {
            return Step::Halt;
        }
        // Anchor the fault layer's retry clock to this step, then freeze if
        // this worker sits inside a crash-stop window: it makes no progress
        // (and issues no verbs) until the window ends.
        world.m.begin_step(me, now);
        if self.kills {
            if world.m.is_dead(me, now) {
                return self.step_killed(now, world);
            }
            if world.rt.unrecoverable.is_some() {
                // A fail-stop abort is latched: stop even mid-task (frames
                // dropped here are already part of the recorded loss — the
                // run has no result to protect).
                self.set_busy(world, now, false);
                self.halted = true;
                return Step::Halt;
            }
        }
        if let Some(until) = world.m.crashed_until(me, now) {
            world.rt.watch_crash_sleep(until);
            return Step::Yield(until.saturating_sub(now).max(VTime::ns(1)));
        }
        // Self-fence: the epoch registry moved past our view — a survivor
        // evicted us (lease expiry; under the message detector possibly a
        // false suspicion). Everything we hold is stale; quiesce and rejoin
        // as a fresh incarnation. Under the oracle detector eviction
        // requires a confirmed death, so the `is_dead` check above always
        // fires first and this branch is unreachable (byte-identical runs).
        if self.kills && world.m.epoch_of(me) > self.my_epoch {
            return self.step_evicted(now, world);
        }
        match self.state {
            WState::Run => self.step_run(now, world),
            WState::Idle => self.step_idle(now, world),
            WState::Steal(stage) => {
                self.state = WState::Idle;
                let (mut h, cx) = idle::Thief::new(self, world);
                steal::resume(&mut h, cx, now, stage)
            }
        }
    }
}

mod die;
mod effects;
mod idle;
mod join;

#[cfg(test)]
mod tests {
    use super::*;

    /// `Vec<Worker>` is built and dropped per run, and its size moves
    /// glibc's dynamic trim threshold: a change here must be measured
    /// against `scale_sparse`'s `setup_s` before this pin moves.
    #[test]
    fn per_worker_sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<WState>(), 48);
        assert_eq!(size_of::<Option<steal::Pending>>(), 304);
        assert_eq!(size_of::<Worker>(), 856);
        assert_eq!(size_of::<VThread>(), 168);
        assert_eq!(size_of::<Option<LineageKey>>(), 24);
    }

    /// The fabric's per-verb records ride every steal and join: a change to
    /// how verbs are issued must leave the handle a worker keeps, the
    /// window it charges a group through, and (pinned in `dcs-sim`'s own
    /// tests, where it is private) the completion-queue entry at these sizes.
    #[test]
    fn verb_record_sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<VerbHandle>(), 24);
        assert_eq!(size_of::<Window>(), 48);
    }

    /// An armed run's root thread carries the key its record was pushed
    /// under, and completing the root takes the record out.
    #[test]
    fn the_root_lineage_key_round_trips() {
        let plan = dcs_sim::FaultPlan::parse("recover=on").expect("plan parses");
        let cfg = crate::policy::RunConfig::new(2, Policy::ContGreedy).with_fault_plan(plan);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            dcs_sim::MachineConfig::new(2, cfg.profile.clone())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved)
                .with_faults(cfg.fault.clone()),
        );
        let mut world = World {
            m,
            rt: crate::world::RtShared::new(cfg),
        };
        let root: TaskFn = |_, _| crate::frame::Effect::ret(0u64);
        let app = std::sync::Arc::new(());
        let w = Worker::new(0, &mut world, lay, app, Some((root, Value::U64(7))), 0);
        let th = w.cur.as_ref().expect("worker 0 holds the root");
        let key = th.replay_rec.expect("an armed root carries a record");
        let rec = world.rt.lineage.get(key).expect("the key is live");
        assert!(rec.handle.entry.is_null());
        assert_eq!(rec.tid, th.tid);
        Worker::mark_lineage_done(&mut world, th);
        assert!(world.rt.lineage.get(key).is_none());
        assert_eq!(world.rt.lineage.counts().live, 0);
    }
}
