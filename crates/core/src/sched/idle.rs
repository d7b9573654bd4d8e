//! The idle loop: termination, local pops, victim selection, the worker as
//! the steal machine's host ([`Thief`]), wait-queue/nest polling,
//! finalization.

use super::*;

use crate::dedup::ClaimSet;
use crate::steal::{Cx, Host, Landed, Ring};
use crate::world::WorkerShared;

impl Worker {
    // ------------------------------------------------------------------
    // victim blacklisting (fault-injection resilience)
    // ------------------------------------------------------------------

    /// Decay half-life of a victim's misbehaviour score.
    const BL_HALF_LIFE: VTime = VTime::us(200);
    /// One fault's worth of score, Q32.32 fixed point.
    const BL_ONE: u64 = 1 << 32;
    /// Decayed score above which a victim is skipped (3 faults' worth).
    const BL_THRESHOLD: u64 = 3 * Self::BL_ONE;
    /// Sentinel for a permanent entry (confirmed-dead victim): immune to
    /// decay and skipped outright by victim selection.
    const BL_FOREVER: u64 = u64::MAX;

    /// Integer-shift exponential decay: one halving per *fully elapsed*
    /// half-life. Deterministic across hosts and `--jobs` widths — no f64
    /// `powf` in the engine's hot path.
    fn bl_decayed(score: u64, at: VTime, now: VTime) -> u64 {
        if score == Self::BL_FOREVER {
            // Permanent entry (confirmed-dead victim): decay never clears it.
            return score;
        }
        let halves = now.saturating_sub(at).as_ns() / Self::BL_HALF_LIFE.as_ns();
        if halves >= 64 {
            0
        } else {
            score >> halves
        }
    }

    /// Attribute `faults` transient fabric faults observed while stealing
    /// from `victim`. Allocates the blacklist on first use, so fault-free
    /// runs never touch it (and stay bit-identical).
    pub(crate) fn note_victim_faults(&mut self, victim: WorkerId, faults: u64, now: VTime) {
        if faults == 0 {
            return;
        }
        let bl = self
            .blacklist
            .get_or_insert_with(|| Box::new(Blacklist::new()));
        let e = bl.entries.entry(victim).or_insert((0, VTime::ZERO));
        if e.0 == Self::BL_FOREVER {
            // Permanent: a transient-fault bump must not disturb (or
            // overflow) the sentinel.
            return;
        }
        e.0 = Self::bl_decayed(e.0, e.1, now)
            .saturating_add(faults.saturating_mul(Self::BL_ONE))
            .min(Self::BL_FOREVER - 1);
        e.1 = now;
    }

    /// Blacklist `victim` permanently: a confirmed-dead worker never comes
    /// back, so its score is pinned at infinity (immune to decay).
    pub(crate) fn blacklist_forever(&mut self, victim: WorkerId, now: VTime) {
        let bl = self
            .blacklist
            .get_or_insert_with(|| Box::new(Blacklist::new()));
        bl.entries.insert(victim, (Self::BL_FOREVER, now));
        bl.fallback = None; // the permanent set changed
    }

    /// Drop `victim`'s blacklist entry entirely (permanent or not): the
    /// "confirmed dead" verdict was revoked — a falsely-suspected worker's
    /// delayed beats landed, or an evicted worker rejoined as a fresh
    /// incarnation — so it is a first-class steal target again.
    pub(crate) fn blacklist_clear(&mut self, victim: WorkerId) {
        if let Some(bl) = &mut self.blacklist {
            if bl.entries.remove(&victim).is_some_and(|e| e.0 == Self::BL_FOREVER) {
                bl.fallback = None; // the permanent set changed
            }
        }
    }

    /// Is `victim` permanently blacklisted (confirmed dead)? Permanent
    /// entries must never be returned by victim selection: probing one is
    /// a guaranteed wasted round trip, forever.
    pub(crate) fn victim_blocked_forever(&self, victim: WorkerId) -> bool {
        match &self.blacklist {
            Some(bl) => bl.entries.get(&victim).is_some_and(|e| e.0 == Self::BL_FOREVER),
            None => false,
        }
    }

    /// Is `victim` currently blacklisted?
    pub(crate) fn victim_blocked(&self, victim: WorkerId, now: VTime) -> bool {
        match &self.blacklist {
            Some(bl) => bl
                .entries
                .get(&victim)
                .is_some_and(|&(score, at)| Self::bl_decayed(score, at, now) > Self::BL_THRESHOLD),
            None => false,
        }
    }

    /// Pick a victim, redrawing (bounded) past blacklisted choices. With no
    /// blacklist allocated this is exactly one [`Self::pick_victim`] draw.
    ///
    /// The bounded redraw may exhaust its budget on a *transiently*
    /// blacklisted victim — that draw stands (the score decays, and an
    /// occasional probe of a flaky peer is how it earns its way back). A
    /// *permanent* (confirmed-dead) entry must never be returned: when the
    /// redraws end on one, fall back to the cheapest (topology-nearest)
    /// non-permanent victim instead. Only when every peer is permanently
    /// blacklisted does the doomed draw escape, and the caller's
    /// `dead_guard` turns it into a fail-fast RTT.
    pub(crate) fn select_victim(&mut self, now: VTime, world: &mut World) -> WorkerId {
        let mut victim = self.pick_victim(&world.m);
        if self.blacklist.is_none() {
            return victim;
        }
        for _ in 0..3 {
            if !self.victim_blocked(victim, now) {
                return victim;
            }
            world.rt.stats.blacklist_skips += 1;
            victim = self.pick_victim(&world.m);
        }
        if !self.victim_blocked_forever(victim) {
            return victim;
        }
        world.rt.stats.blacklist_skips += 1;
        // Cheapest-live fallback, cached: the answer is a pure function of
        // the permanent-blacklist set and the (static) topology, so the
        // O(W) sweep runs once per death/revocation — not once per draw,
        // which starved a sole survivor of 10⁵ dead peers.
        let cached = self.blacklist.as_ref().and_then(|bl| bl.fallback);
        let fallback = match cached {
            Some(f) => f,
            None => {
                let topo = world.m.topology();
                let mut best: Option<(f64, WorkerId)> = None;
                for v in 0..self.n {
                    if v == self.me || self.victim_blocked_forever(v) {
                        continue;
                    }
                    let f = topo.factor(self.me, v);
                    if best.is_none_or(|(bf, _)| f < bf) {
                        best = Some((f, v));
                    }
                }
                let f = best.map(|(_, v)| v);
                if let Some(bl) = &mut self.blacklist {
                    bl.fallback = Some(f);
                }
                f
            }
        };
        fallback.unwrap_or(victim)
    }

    // ------------------------------------------------------------------
    // IDLE loop
    // ------------------------------------------------------------------

    /// Pick a steal victim per the configured policy. Node-restricted
    /// choices fall back to uniform when the caller's node has no other
    /// workers.
    pub(crate) fn pick_victim(&mut self, world: &Machine) -> WorkerId {
        let topo = world.topology();
        let pick_local = |rng: &mut SimRng, me: usize, n: usize| -> Option<WorkerId> {
            let size = topo.node_size()?;
            let node = topo.node_of(me);
            let lo = node * size;
            let hi = ((node + 1) * size).min(n);
            if hi - lo < 2 {
                return None;
            }
            let mut v = lo + rng.below((hi - lo - 1) as u64) as usize;
            if v >= me {
                v += 1;
            }
            Some(v)
        };
        match self.victim_policy {
            VictimPolicy::Uniform => self.rng.victim(self.n, self.me),
            VictimPolicy::Locality { p_local } => {
                if self.rng.unit_f64() < p_local {
                    if let Some(v) = pick_local(&mut self.rng, self.me, self.n) {
                        return v;
                    }
                }
                self.rng.victim(self.n, self.me)
            }
            VictimPolicy::Hierarchical { local_tries } => {
                if self.fail_streak < local_tries {
                    if let Some(v) = pick_local(&mut self.rng, self.me, self.n) {
                        return v;
                    }
                }
                self.rng.victim(self.n, self.me)
            }
        }
    }

    // ------------------------------------------------------------------
    // fail-stop recovery (kill plans only)
    // ------------------------------------------------------------------

    /// Detector-registry scan: confirm newly-expired peers, blacklist them,
    /// and — first confirmer of each incarnation only — evict the peer
    /// (epoch bump) and enqueue its live lineage records, in recording
    /// order, into the shared replay pool.
    ///
    /// Under the oracle detector a confirmation is ground truth and the
    /// latch never revokes. Under the message detector it is a *suspicion*
    /// (no visible heartbeat for a lease): delayed beats landing later
    /// un-confirm the peer, and the un-latch branch clears the permanent
    /// blacklist entry so the falsely-suspected (or rejoined) worker is
    /// stealable again. The eviction itself stands either way — the epoch
    /// bump already invalidated the old incarnation's verbs, and the peer
    /// self-fences and rejoins at its next step.
    ///
    /// Work is O(detector status changes), not O(workers) per poll: the
    /// machine's candidate feed names exactly the peers whose registry
    /// status may have flipped since this worker's last scan, and only
    /// those are re-examined. Candidates are processed in increasing id
    /// order — the same relative order the former full `0..n` sweep
    /// visited them in — so every golden stays byte-identical.
    pub(crate) fn fail_stop_scan(&mut self, now: VTime, world: &mut World) {
        let mut cands: Vec<WorkerId> = Vec::new();
        world.m.death_candidates(&mut self.death_cursor, now, &mut cands);
        if cands.is_empty() {
            return;
        }
        cands.sort_unstable();
        cands.dedup();
        for d in cands {
            if d == self.me {
                continue;
            }
            let confirmed_now = world.m.confirmed_dead(d, now);
            if self.confirmed.contains(&d) {
                if !confirmed_now {
                    // Revoked: the peer's beats resumed (false suspicion
                    // cleared, or a fresh incarnation rejoined).
                    self.confirmed.remove(&d);
                    self.blacklist_clear(d);
                    world.rt.watch_unsuspect(d);
                }
                continue;
            }
            if !confirmed_now {
                continue;
            }
            self.confirmed.insert(d);
            self.blacklist_forever(d, now);
            if world.m.suspicion_possible() {
                world.rt.watch_suspect(d);
            }
            // Exactly-once per incarnation: the first confirmer of
            // `(d, epoch)` evicts and drains; racing confirmers of the same
            // incarnation observe the claim and stand down. (ChildFull
            // records no lineage, so its drain is vacuous.)
            let epoch = world.m.epoch_of(d);
            if world.rt.evictions.first_claim(evict_key(d, epoch)) {
                world.m.evict(d);
                world.rt.replay_pool.extend(world.rt.lineage.live_keys(d));
            }
        }
    }

    /// Re-adopt one lost thread from the replay pool. The record is taken
    /// out and re-recorded under this worker, so a second kill hitting the
    /// replayer is itself recoverable. Returns `None` when nothing
    /// (relevant) is pooled.
    pub(crate) fn try_replay(&mut self, now: VTime, world: &mut World) -> Option<Step> {
        loop {
            let key = world.rt.replay_pool.pop_front()?;
            let Some(rec) = world.rt.lineage.get(key) else {
                // Taken already: completed before the kill (the entry flag
                // is visible to the waiting parent — replaying would run
                // the task's effect twice), re-keyed or replayed.
                continue;
            };
            let is_root = rec.handle.entry.is_null();
            if is_root && world.rt.result.is_some() {
                // The root published its result before its holder died;
                // termination is already racing in — nothing to re-elect.
                continue;
            }
            if !is_root
                && !self.policy.is_cont()
                && world.m.is_dead(rec.handle.entry.rank as usize, now)
            {
                // ChildRtc ties a task to the parent frame that owns its
                // entry: if that parent died too, the ancestor subtree
                // that re-creates it (and this task) replays from its own
                // record instead. Continuation records always replay —
                // after a migration the joiner may be alive anywhere, and
                // the entry words stay readable on the buddy mirror.
                continue;
            }
            let rec = world.rt.lineage.take(key).expect("checked live");
            // Claiming the record settles the original incarnation's fate:
            // it died with its worker and can never complete — retire it so
            // the fresh-id replay is the only live copy the oracles track.
            world.rt.watch_retire(rec.tid);
            let tid = world.rt.fresh_tid();
            let mut th = VThread::new(tid, rec.f, rec.arg.clone(), rec.handle);
            th.replay_rec = Some(self.record_lineage(world, tid, rec.f, rec.arg, rec.handle));
            if self.policy.is_cont() {
                // Re-materialized continuations (root included) need a
                // stack home in this worker's region.
                let slot_len = world.rt.cfg.stack_slot;
                th.home = Some(self.place_stack(world, None, slot_len));
            }
            world.rt.stats.tasks_replayed += 1;
            let cost = world.m.ctx_restore(self.me);
            self.start_thread(world, now, th);
            world.rt.watch_progress(now);
            return Some(Step::Yield(cost));
        }
    }

    /// Checkpoint put of a stolen continuation's header to the thief's
    /// buddy, inside the steal's window. The put is fire-and-forget: the
    /// mirror only has to land before a lease expiry — microseconds after
    /// the split — so the thief pays the injection, never a round trip.
    fn mirror_split(&mut self, world: &mut World, now: VTime, w: &mut Window) {
        if let Some(b) = self.buddy(&world.m, now) {
            world.rt.stats.ckpt_puts += 1;
            w.unsignaled(
                world
                    .m
                    .post_unsignaled(self.me, Verb::PutBulk(b, Self::CKPT_HDR_BYTES)),
            );
        }
    }

    pub(crate) fn step_idle(&mut self, now: VTime, world: &mut World) -> Step {
        // Termination: the root has completed and published the flag.
        if world.m.is_done() {
            self.finalize(world, now);
            return Step::Halt;
        }
        world.rt.watch_stall(now);
        if self.kills {
            self.fail_stop_scan(now, world);
            if self.policy != Policy::ChildFull {
                if let Some(step) = self.try_replay(now, world) {
                    return step;
                }
            }
        }
        // 1. Local pop.
        match world.own_pop(&self.lay, self.me, None) {
            Err(DequeError::Busy) => {
                self.break_dead_lock(now, world);
                let cost = world.m.local_op(self.me);
                if self.may_park(world) {
                    // Same lock-spin park as `step_run`'s Busy arm; the
                    // done flag is re-checked on wake (`set_done` wakes all
                    // parked workers), so termination is never missed.
                    world
                        .m
                        .park_on_own_word(self.me, self.lay.dq_word(DQ_LOCK), cost, Self::SPIN_CHARGE);
                    Step::Park
                } else {
                    Step::Yield(cost)
                }
            }
            Err(DequeError::Dead(d)) => {
                self.deque_violation(world, self.me, &d);
                Step::Yield(d.cost)
            }
            Ok((Some(item), cost)) => {
                let c2 = self.adopt_item(now, world, item, None);
                Step::Yield(cost + c2)
            }
            // 2. Steal (if anybody to steal from).
            Ok((None, cost)) if self.n >= 2 => {
                let mut ring = std::mem::take(&mut world.rt.probe_ring);
                let step = self.step_probe(now, world, cost, &mut ring);
                world.rt.probe_ring = ring;
                step
            }
            // Single worker: only blocked local work can make progress.
            Ok((None, cost)) => self.yield_after_poll(now, world, cost),
        }
    }

    fn yield_after_poll(&mut self, now: VTime, world: &mut World, cost: VTime) -> Step {
        let c_wait = self.poll_blocked(now, world);
        Step::Yield(cost + c_wait)
    }

    /// Start a steal: draw the probe ring (`--multi-steal K`: up to K
    /// distinct victims, K = 1 the plain single-victim probe) and hand it
    /// to the steal machine's probe ([`crate::steal::probe`]).
    fn step_probe(
        &mut self,
        now: VTime,
        world: &mut World,
        mut cost: VTime,
        ring: &mut Ring,
    ) -> Step {
        ring.clear();
        for _ in 0..self.multi_steal.min(self.n - 1) {
            let victim = self.select_victim(now, world);
            ring.add(victim);
        }
        if self.kills {
            // Fail-fast verb against a dead victim: one RTT, a failed
            // steal, and a blacklist bump so the selector stops drawing it
            // even before the lease confirms the death. Dead victims leave
            // the ring before any probe verb is issued.
            ring.retain(|victim| match world.m.dead_guard(self.me, victim, now) {
                Some(c_dead) => {
                    self.note_victim_faults(victim, 1, now);
                    world.rt.stats.steal_failed();
                    self.fail_streak += 1;
                    cost += c_dead;
                    false
                }
                None => true,
            });
            if ring.is_empty() {
                return self.yield_after_poll(now, world, cost);
            }
        }
        let k = self.multi_steal;
        let (mut h, cx) = Thief::new(self, world);
        crate::steal::probe(&mut h, cx, now, cost, ring, k)
    }

    /// Re-poll blocked work after a failed steal attempt: stalling policies
    /// round-robin the wait queue (Fig. 3); ChildRtc re-checks the join
    /// buried at the top of the nest (the scheduler-in-a-loop of a
    /// run-to-completion thread re-reads the flag between tasks).
    pub(crate) fn poll_blocked(&mut self, now: VTime, world: &mut World) -> VTime {
        if self.policy == Policy::ChildRtc {
            return self.poll_nest_top(now, world);
        }
        self.poll_wait_queue(now, world)
    }

    /// ChildRtc: check whether the join buried directly below became ready.
    pub(crate) fn poll_nest_top(&mut self, now: VTime, world: &mut World) -> VTime {
        let Some(top) = self.nest.last() else {
            return VTime::ZERO;
        };
        let h = top.handle;
        let (flag, mut cost) = world.m.call(self.me, Verb::Get(h.entry.field(E_FLAG)));
        let done = if h.consumers == 1 {
            flag != 0
        } else {
            flag & DONE_BIT != 0
        };
        if done {
            let Nested { mut th, handle } = self.nest.pop().expect("checked non-empty");
            self.close_suspension(world, &mut th, now);
            let (v, c2) = self.join_complete_fast_value(world, handle);
            cost += c2;
            th.supply(v);
            self.start_thread(world, now, th);
        }
        cost
    }

    /// Round-robin check of one wait-queue entry (stalling strategies; runs
    /// after each failed steal attempt, Fig. 3).
    pub(crate) fn poll_wait_queue(&mut self, now: VTime, world: &mut World) -> VTime {
        let Some(Waiting { mut th, handle }) = self.wait_q.pop_front() else {
            return VTime::ZERO;
        };
        // A NULL handle marks a cooperative yield: always ready.
        if handle.entry.is_null() {
            th.supply(Value::Unit);
            let cost = world.m.ctx_switch(self.me);
            self.start_thread(world, now, th);
            return cost;
        }
        let (flag, mut cost) = world.m.call(self.me, Verb::Get(handle.entry.field(E_FLAG)));
        let done = if handle.consumers == 1 {
            flag != 0
        } else {
            flag & DONE_BIT != 0
        };
        if done {
            self.close_suspension(world, &mut th, now);
            let (v, c2) = self.join_complete_fast_value(world, handle);
            cost += c2;
            if self.policy == Policy::ContStalling && self.scheme == AddressScheme::Uni {
                if th.home.is_some() {
                    world.rt.per[self.me]
                        .evac
                        .restore(th.stack_bytes() as u64);
                }
                self.claim_home(world, &mut th);
            }
            th.supply(v);
            cost += world.m.ctx_switch(self.me);
            self.start_thread(world, now, th);
        } else {
            self.wait_q.push_back(Waiting { th, handle });
        }
        cost
    }

    /// Begin running a deque item, locally popped or (`from` = the victim)
    /// freshly stolen. Returns the context-switch cost; a stolen item's
    /// payload transfer and statistics belong to [`Self::finish_steal`].
    pub(crate) fn adopt_item(
        &mut self,
        now: VTime,
        world: &mut World,
        item: QueueItem,
        from: Option<WorkerId>,
    ) -> VTime {
        let cost;
        match item {
            QueueItem::Cont { mut th, .. } => {
                if let Some(victim) = from {
                    // Uni-address: the stack leaves the victim's region and
                    // lands at the same virtual address here. Iso-address:
                    // the globally unique range simply travels along.
                    if self.scheme == AddressScheme::Uni {
                        if let Some(home) = th.home {
                            world.rt.per[victim].uni.release(home);
                        }
                        self.claim_home(world, &mut th);
                    }
                }
                cost = world.m.ctx_restore(self.me);
                self.start_thread(world, now, th);
            }
            QueueItem::Child { f, arg, handle } => {
                let tid = world.rt.fresh_tid();
                let th = VThread::new(tid, f, arg, handle);
                if self.policy == Policy::ChildFull {
                    // Full threads start on a fresh private stack.
                    world.rt.per[self.me].note_full_stack_alloc();
                    cost = world.m.ctx_switch(self.me);
                } else if self.policy.is_cont() {
                    // Continuation runs never create child descriptors.
                    unreachable!("child descriptor under continuation stealing");
                } else {
                    // RtC threads run as a plain call on the worker stack.
                    cost = world.m.ctx_restore(self.me);
                }
                self.start_thread(world, now, th);
            }
        }
        cost
    }

    /// End-of-run consistency checks.
    pub(crate) fn finalize(&mut self, world: &mut World, now: VTime) {
        self.set_busy(world, now, false);
        self.halted = true;
        // Fence-free: thief-claimed Child originals linger in our slab until
        // a pop walks past their slots; at termination nobody will, so sweep
        // the trailing claimed slots. The sweep stops at the first unclaimed
        // slot — a genuinely leaked item still trips the strict assert
        // below. (A no-op for the other protocols.)
        let (m, rt, me) = (&mut world.m, &mut world.rt, self.me);
        (rt.desc.reclaim)(m, &mut rt.per[me], &mut rt.ff_claims, &self.lay, me);
        if self.kills {
            // Armed termination can strand orphaned duplicates: a lineage
            // replay re-executed an ancestor whose original children kept
            // running here, and the root completed from the replayed copy.
            // Threads still buried when the done flag goes up are by
            // definition not part of the published result — retire them so
            // the lost-task oracle keeps meaning for live workers. Locally
            // spawned run-to-completion children carry no lineage record,
            // so the end-of-run lineage settlement cannot cover them.
            if let Some(th) = &self.cur {
                world.rt.watch_retire(th.tid);
            }
            for w in &self.wait_q {
                world.rt.watch_retire(w.th.tid);
            }
            for x in &self.nest {
                world.rt.watch_retire(x.th.tid);
            }
            if let Some(ps) = &self.pending_steal {
                if let QueueItem::Cont { th, .. } = &ps.item {
                    world.rt.watch_retire(th.tid);
                }
            }
        }
        if world.rt.cfg.strict {
            assert!(self.cur.is_none(), "worker {} halted mid-thread", self.me);
            assert!(
                self.wait_q.is_empty(),
                "worker {} halted with {} threads stuck in the wait queue",
                self.me,
                self.wait_q.len()
            );
            assert!(
                self.nest.is_empty(),
                "worker {} halted with buried joins",
                self.me
            );
            let ws = &world.rt.per[self.me];
            assert!(
                ws.items.is_empty(),
                "worker {} halted with {} unconsumed deque items",
                self.me,
                ws.items.len()
            );
            assert!(
                ws.saved.is_empty(),
                "worker {} halted with {} suspended threads",
                self.me,
                ws.saved.len()
            );
        }
    }
}

/// A worker as the steal machine's host: the machine runs the protocol's
/// verbs, the worker keeps what only a scheduler has — fencing against dead
/// and evicted victims, fault attribution, statistics, lineage and the
/// adoption of the stolen item.
pub(super) struct Thief<'a> {
    w: &'a mut Worker,
    world: &'a mut World,
}

impl<'a> Thief<'a> {
    pub(super) fn new(w: &'a mut Worker, world: &'a mut World) -> (Thief<'a>, Cx) {
        let cx = Cx {
            me: w.me,
            epoch: w.my_epoch,
            lay: w.lay,
            desc: world.rt.desc,
        };
        (Thief { w, world }, cx)
    }
}

impl Host for Thief<'_> {
    fn parts(&mut self) -> (&mut Machine, &mut [WorkerShared], &mut ClaimSet) {
        let rt = &mut self.world.rt;
        (&mut self.world.m, &mut rt.per, &mut rt.ff_claims)
    }

    fn faults(&mut self, now: VTime, victim: WorkerId) {
        let faults = self.world.m.take_faults(self.w.me);
        self.w.note_victim_faults(victim, faults, now);
    }

    fn failed(&mut self) {
        self.world.rt.stats.steal_failed();
        self.w.fail_streak += 1;
    }

    fn abandoned(&mut self) {
        self.world.rt.stats.steal_abandoned();
    }

    fn idle(&mut self, now: VTime, cost: VTime) -> Step {
        self.w.yield_after_poll(now, self.world, cost)
    }

    /// The victim may have died since the probe (its segment is gone —
    /// abandon the steal; a held lock word dies with it) or been evicted and
    /// rejoined (the rejoin purged the deque, so the lock word or bounds we
    /// hold belong to a dead incarnation and touching the fresh one would
    /// tear it — the epoch fence voids the steal). The fence is unreachable
    /// under the oracle detector: an eviction there implies a confirmed
    /// death, which the dead guard catches first.
    fn voided(&mut self, now: VTime, victim: WorkerId, vepoch: u64) -> Option<VTime> {
        if !self.w.kills {
            return None;
        }
        let (me, m) = (self.w.me, &mut self.world.m);
        if let Some(c_dead) = m.dead_guard(me, victim, now) {
            self.w.note_victim_faults(victim, 1, now);
            return Some(c_dead);
        }
        m.fence_verb(me, vepoch, victim).then_some(VTime::ZERO)
    }

    fn dead_slot(&mut self, victim: WorkerId, d: &DeadSlot) {
        self.w.deque_violation(self.world, victim, d);
    }

    fn raced(&mut self, _victim: WorkerId, dup: Option<u32>) {
        match dup {
            Some(_) => self.world.rt.stats.ff_dups += 1,
            None => self.world.rt.stats.ff_lost_races += 1,
        }
    }

    /// Record the steal lineage of `item`, keyed by us (the executor): if we
    /// die before the entry flag is set, our death's confirmer re-adopts the
    /// work from this record. Child descriptors get a fresh record (bound to
    /// the thread id once the child materializes); a stolen continuation
    /// migrates an existing one (re-keyed here), and its header is mirrored
    /// to our buddy — inside `w` — so either side of the split survives one
    /// death. `Err` means the continuation is a stale duplicate: the victim
    /// died and a confirmer already claimed its record for replay (our take
    /// was virtually earlier but executed later), so it must not run.
    fn taken(
        &mut self,
        now: VTime,
        _victim: WorkerId,
        item: &mut QueueItem,
        w: &mut Window,
    ) -> Result<Option<LineageKey>, ()> {
        let (wk, world) = (&mut *self.w, &mut *self.world);
        wk.fail_streak = 0;
        if !wk.kills {
            return Ok(None);
        }
        match item {
            QueueItem::Child { f, arg, handle } if wk.policy == Policy::ChildRtc => {
                Ok(Some(wk.record_lineage(world, 0, *f, arg.clone(), *handle)))
            }
            QueueItem::Cont { th, .. } => {
                if !wk.rekey_lineage(world, th) {
                    return Err(());
                }
                wk.mirror_split(world, now, w);
                Ok(None)
            }
            QueueItem::Child { .. } => Ok(None),
        }
    }

    fn adopt(&mut self, now: VTime, victim: WorkerId, l: Landed) -> VTime {
        let (w, world) = (&mut *self.w, &mut *self.world);
        let c2 = w.adopt_item(now, world, l.item, Some(victim));
        let stats = &mut world.rt.stats;
        stats.steal_ok(l.latency, l.copy, l.size);
        stats.note_steal_event(w.me, victim, l.t0, l.t0 + l.latency);
        world.rt.watch_progress(now);
        if let (Some(key), Some(th)) = (l.rec, w.cur.as_mut()) {
            // The stolen child materialized as a thread only now: bind its
            // id to the record made at commit time.
            if let Some(rec) = world.rt.lineage.get_mut(key) {
                rec.tid = th.tid;
            }
            th.replay_rec = l.rec;
        }
        c2
    }

    /// `pending_steal` is `None` outside a reap, so a probe (`pending` =
    /// `None`) leaves it alone: assigning it runs its drop check and writes
    /// its tag, a `Worker` cache line the probe otherwise never touches —
    /// a miss per failed steal once `Vec<Worker>` outgrows the cache
    /// (≈ 8 % of `scale_sparse`'s host time at W = 8192 on a 2-core x86
    /// host).
    fn park(&mut self, stage: Stage, pending: Option<steal::Pending>) {
        self.w.state = WState::Steal(stage);
        if pending.is_some() {
            self.w.pending_steal = pending;
        }
    }

    fn unpark(&mut self) -> steal::Pending {
        let parked = self.w.pending_steal.take();
        parked.expect("reap without a pending steal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permanent_blacklist_entries_never_decay() {
        // A confirmed-dead victim's score is pinned at the sentinel; the
        // decay path must short-circuit (a shift would silently
        // un-blacklist the dead).
        let s = Worker::bl_decayed(Worker::BL_FOREVER, VTime::ZERO, VTime::ms(10));
        assert_eq!(s, Worker::BL_FOREVER);
        assert!(s > Worker::BL_THRESHOLD);
        // Finite scores still decay towards zero — exactly one halving per
        // elapsed half-life, in integer shifts (no f64 in the hot path).
        let s = Worker::bl_decayed(8 * Worker::BL_ONE, VTime::ZERO, VTime::us(400));
        assert_eq!(s, 2 * Worker::BL_ONE, "two half-lives: 8 -> 2");
        // Sub-half-life elapses leave the score untouched (step decay)...
        let s = Worker::bl_decayed(8 * Worker::BL_ONE, VTime::ZERO, VTime::us(199));
        assert_eq!(s, 8 * Worker::BL_ONE);
        // ...and enormous gaps shift all the way to zero, not UB.
        let s = Worker::bl_decayed(8 * Worker::BL_ONE, VTime::ZERO, VTime::ms(100));
        assert_eq!(s, 0);
    }
}
