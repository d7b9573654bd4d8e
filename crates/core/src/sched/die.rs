//! The DIE protocols: Fig. 4 greedy (work-first fast path, FAA race,
//! joiner migration), the §V-D multi-consumer producer, Fig. 3 stalling,
//! and the child-stealing variants.

use super::*;

impl Worker {
    // ------------------------------------------------------------------
    // DIE
    // ------------------------------------------------------------------

    pub(crate) fn die(&mut self, now: VTime, world: &mut World, v: Value) -> Result<VTime, Busy> {
        let e = self.cur.as_ref().expect("die without thread").own;

        // Root thread: publish the result and raise the termination flag.
        if e.entry.is_null() {
            let mut th = self.cur.take().expect("checked");
            Self::mark_lineage_done(world, &th);
            self.retire_thread(world, &mut th);
            world.rt.watch_death(th.tid, now);
            world.rt.result = Some(v);
            world.rt.stats.threads_died += 1;
            world.m.set_done();
            self.state = WState::Idle;
            self.set_busy(world, now, false);
            return Ok(world.m.local_op(self.me));
        }

        match self.policy {
            Policy::ContGreedy => self.die_greedy(now, world, e, v),
            Policy::ContStalling => self.die_stalling_cont(now, world, e, v),
            Policy::ChildFull | Policy::ChildRtc => self.die_child(now, world, e, v),
        }
    }

    /// Fig. 4 DIE (single-consumer) and the §V-D producer (multi-consumer).
    pub(crate) fn die_greedy(
        &mut self,
        now: VTime,
        world: &mut World,
        e: ThreadHandle,
        v: Value,
    ) -> Result<VTime, Busy> {
        // Work-first fast path: try to pop the parent before racing. This
        // observes the deque lock, so Busy can propagate before any side
        // effect.
        let (popped, mut cost) = match self.dq_pop_parent(world, e.entry) {
            Ok(x) => x,
            Err(DequeError::Busy) => return Err(Busy),
            Err(DequeError::Dead(d)) => {
                // Degrade: no parent found; the slow-path race still decides
                // the join correctly.
                self.deque_violation(world, self.me, &d);
                (None, d.cost)
            }
        };

        world.rt.stats.note_die(e.entry.to_u64(), now);
        let mut th = self.cur.take().expect("die without thread");
        Self::mark_lineage_done(world, &th);
        self.retire_thread(world, &mut th);
        world.rt.watch_death(th.tid, now);

        let parent = match popped {
            Some(QueueItem::Cont { th: parent, .. }) => Some(parent),
            Some(_) => unreachable!("pop_parent only yields parents"),
            None => None,
        };

        if e.consumers == 1 {
            if let Some(parent) = parent {
                // Parent not stolen: plain flag write, no atomics
                // (Fig. 4 l. 30).
                debug_assert_eq!(
                    e.entry.rank as usize, self.me,
                    "work-first pop implies the entry is local"
                );
                cost += self.publish_retval_and_flag(world, e, v, 1, now + cost);
                world.rt.stats.die_fast += 1;
                // The parent's stack is directly below the dying child's in
                // the uni-address region: resuming it "in the same way as an
                // ordinary subroutine returns" (§II-D) costs a light restore.
                cost += world.m.ctx_restore(self.me);
                // `parent` resumes right at the spawn point; its Join will
                // read the flag we just set.
                self.start_thread(world, now, parent);
                return Ok(cost);
            }
            // Slow path: race on the flag (Fig. 4 l. 33).
            let (old, c) = self.publish_retval_and_faa(world, e, v.clone(), 1, now + cost);
            cost += c;
            if old == 0 {
                // Won: the joiner has not suspended yet (or not arrived);
                // it will find flag != 0 and finish on its own.
                world.rt.stats.die_won += 1;
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost)
            } else {
                // Lost: the joiner is suspended; migrate and resume it here.
                world.rt.stats.die_lost += 1;
                let c2 = self.migrate_and_resume_joiner(now, world, e, v);
                Ok(cost + c2)
            }
        } else {
            // Multi-consumer producer (§V-D): other consumers race on the
            // entry regardless of the parent pop, so the DONE publication
            // must always be atomic. The popped parent, if any, is the
            // work-first choice of what to run next.
            if parent.is_some() {
                world.rt.stats.die_fast += 1;
            }
            let c2 = self.die_multi(now, world, e, v, parent, now + cost);
            Ok(cost + c2)
        }
    }

    /// Fetch the suspended joiner recorded in `e.ctxloc`, resume it here with
    /// value `v`, and complete its join (retval get + entry free are charged
    /// as the resumed continuation would perform them, Fig. 4 l. 51–52).
    pub(crate) fn migrate_and_resume_joiner(
        &mut self,
        now: VTime,
        world: &mut World,
        e: ThreadHandle,
        v: Value,
    ) -> VTime {
        let (ctxloc, mut cost) = world.m.get_u64(self.me, e.entry.field(E_CTXLOC));
        let c_addr = GlobalAddr::from_u64(ctxloc);
        debug_assert!(!c_addr.is_null(), "loser must find a saved context");
        let (saved, c1) = read_saved_ctx(&mut world.m, self.me, c_addr);
        cost += c1;
        if self.kills && world.m.is_dead(saved.owner, now) {
            // The suspended joiner died with its host. Resuming the stale
            // copy would run it alongside its lineage replay (double
            // execution); drop the hand-off instead — the replayed joiner
            // re-runs and re-joins against the (mirrored) entry words. The
            // value and entry leak, which armed runs tolerate.
            self.state = WState::Idle;
            self.set_busy(world, now, false);
            return cost;
        }
        // Under a message detector the owner can be evicted while ALIVE:
        // its saved slab may already be gone (self-fenced) or its lineage
        // drained to a replayer before it self-fences. Either way a replay
        // re-executes this joiner, so the saved copy is stale — claim it
        // only if both the slab entry and the lineage record are still
        // ours, and otherwise drop the hand-off like the dead-owner case.
        // (Oracle runs never get here with either condition true: a drained
        // lineage implies a confirmed death, which `is_dead` caught above.)
        let mut th = if self.kills {
            match world.rt.per[saved.owner].saved.try_take(saved.slot) {
                Some(th) => th,
                None => {
                    self.state = WState::Idle;
                    self.set_busy(world, now, false);
                    return cost;
                }
            }
        } else {
            world.rt.per[saved.owner].saved.take(saved.slot)
        };
        if self.kills && !self.rekey_lineage(world, &mut th) {
            // A confirmer drained the evicted owner's lineage and a replay
            // already re-executes this joiner. Undo the slab claim's memory
            // accounting and drop the stale copy.
            if self.scheme == AddressScheme::Uni && th.home.is_some() {
                world.rt.per[saved.owner].evac.restore(saved.stack_bytes as u64);
            }
            self.state = WState::Idle;
            self.set_busy(world, now, false);
            return cost;
        }
        if self.scheme == AddressScheme::Uni && th.home.is_some() {
            world.rt.per[saved.owner].evac.restore(saved.stack_bytes as u64);
        }
        cost += world.m.get_bulk(self.me, saved.owner, saved.stack_bytes);
        // Free the saved-context record (a remote object of its owner).
        cost += free_robj(
            &mut world.m,
            &mut world.rt.per[saved.owner],
            &self.lay,
            self.strategy,
            self.me,
            c_addr,
            SAVED_CTX_BYTES,
        );
        // Close the outstanding-join interval while the die-time record is
        // still alive, then finish the JOIN as the resumed continuation
        // would: fetch retval, free E. The joiner is actually running again
        // only after the migration costs accrued in this step.
        let (_stored, c2) = self.get_retval(world, e);
        cost += c2;
        cost += self.free_entry_here_after_close(world, e, &mut th, now + cost);
        self.claim_home(world, &mut th);
        th.supply(v);
        cost += world.m.ctx_switch(self.me);
        self.start_thread(world, now, th);
        cost
    }

    /// Close the suspension at `resumed_at`, then free the entry (order
    /// matters: the die-time record must outlive the interval computation).
    pub(crate) fn free_entry_here_after_close(
        &mut self,
        world: &mut World,
        e: ThreadHandle,
        th: &mut VThread,
        resumed_at: VTime,
    ) -> VTime {
        self.close_suspension(world, th, resumed_at);
        self.free_entry_here(world, e)
    }

    /// §V-D multi-consumer producer: publish retval + DONE, resume one
    /// thread here (the work-first popped parent when available, else the
    /// first waiter), push the rest into the local deque as ready
    /// continuations. `at` is the caller's absolute instant on entry.
    pub(crate) fn die_multi(
        &mut self,
        now: VTime,
        world: &mut World,
        e: ThreadHandle,
        v: Value,
        parent: Option<VThread>,
        at: VTime,
    ) -> VTime {
        let (old, mut cost) =
            self.publish_retval_and_faa(world, e, v.clone(), DONE_BIT, at);
        let waiters = (old & (DONE_BIT - 1)) as u32;
        debug_assert!(waiters <= e.consumers);
        let mut resumed: Vec<VThread> = Vec::with_capacity(waiters as usize);
        // The per-waiter stack copies are independent payloads from
        // distinct saved contexts: collect them and post the whole sweep as
        // one window once the per-waiter bookkeeping is done.
        let mut sweep: Vec<(usize, usize)> = Vec::new();
        if waiters > 0 {
            // One bulk get covers the ctxloc slot array.
            cost += world
                .m
                .get_bulk(self.me, e.entry.rank as usize, 8 * waiters as usize);
            for i in 0..waiters {
                let (ctxloc, _) = world.m.get_u64(self.me, e.entry.field(EM_CTX0 + i));
                let c_addr = GlobalAddr::from_u64(ctxloc);
                let (saved, c1) = read_saved_ctx(&mut world.m, self.me, c_addr);
                cost += c1;
                if self.kills && world.m.is_dead(saved.owner, now) {
                    // Same double-execution guard as the single-consumer
                    // migrate path: the dead waiter's lineage replay
                    // re-joins the future on its own.
                    continue;
                }
                let mut th = world.rt.per[saved.owner].saved.take(saved.slot);
                if self.scheme == AddressScheme::Uni && th.home.is_some() {
                    world.rt.per[saved.owner].evac.restore(saved.stack_bytes as u64);
                }
                sweep.push((saved.owner, saved.stack_bytes));
                cost += free_robj(
                    &mut world.m,
                    &mut world.rt.per[saved.owner],
                    &self.lay,
                    self.strategy,
                    self.me,
                    c_addr,
                    SAVED_CTX_BYTES,
                );
                th.supply(v.clone());
                // The waiter became ready *now* (the producer's die). Stamp
                // that as the suspension's ready time so the interval stays
                // correct even after the entry is freed and the waiter sits
                // in the deque as a ready continuation.
                if let Some((at, entry)) = th.suspension {
                    th.suspension = Some((at.max(now), entry));
                }
                self.claim_home(world, &mut th);
                if self.kills {
                    // The waiter migrates here: its lineage record follows.
                    let fresh = self.rekey_lineage(world, &mut th);
                    debug_assert!(fresh, "saved waiter's record cannot be claimed while its owner lives");
                }
                resumed.push(th);
            }
            // Account the hand-offs on the consumed counter so the last
            // consumer (possibly one of these waiters' producers) frees.
            // Only the waiters actually resumed count: a dead waiter's
            // consume never happens (its replay re-arrives instead), so
            // under kills the entry may leak rather than free early.
            let handed = resumed.len() as u64;
            let (c_old, c2) =
                world
                    .m
                    .fetch_add_u64(self.me, e.entry.field(EM_CONSUMED), handed);
            cost += c2;
            if c_old + handed == e.consumers as u64 {
                cost += self.free_entry_here(world, e);
            }
            if !sweep.is_empty() {
                // Post the stack copies only after every blocking verb to
                // the saved owners (free_robj above) has retired: a blocking
                // verb must never queue behind an outstanding post. The
                // sweep rides one doorbell: the first copy pays the full
                // injection, the rest the chained fraction.
                let post_at = at + cost;
                let mut w = world.m.window(self.me, post_at);
                world.m.chain_begin(self.me);
                let copies: Vec<VerbHandle> = sweep
                    .iter()
                    .map(|&(owner, bytes)| {
                        w.posted(world.m.post_get_bulk(self.me, owner, bytes, w.at()))
                    })
                    .collect();
                world.m.chain_end(self.me);
                for h in copies {
                    world.m.wait(self.me, h);
                }
                cost += world.m.finish(&w).saturating_sub(post_at);
            }
        }
        // Resume one immediately (greedy), enqueue the rest as stealable
        // ready continuations. The popped parent takes precedence: running
        // it preserves the serial order (work-first principle).
        let mut first: Option<VThread> = parent;
        for th in resumed {
            if first.is_none() {
                first = Some(th);
            } else {
                let push = self.dq_push(
                    world,
                    QueueItem::Cont {
                        th,
                        spawned_child: GlobalAddr::NULL,
                        since: now,
                    },
                );
                // The deque lock was free when DIE began (this whole DIE is
                // one atomic step), so the push cannot observe Busy.
                cost += push.expect("deque free within atomic step");
            }
        }
        match first {
            Some(th) => {
                cost += world.m.ctx_switch(self.me);
                self.start_thread(world, now, th);
            }
            None => {
                self.state = WState::Idle;
                self.set_busy(world, now, false);
            }
        }
        cost
    }

    /// Fig. 3 DIE: put retval, set flag, pop the local queue, resume or
    /// return to the scheduler.
    pub(crate) fn die_stalling_cont(
        &mut self,
        now: VTime,
        world: &mut World,
        e: ThreadHandle,
        v: Value,
    ) -> Result<VTime, Busy> {
        // Pop first (it can observe the deque lock under CAS-lock, and
        // Busy must propagate before any side effects).
        let (popped, mut cost) = match self.dq_pop(world) {
            Ok(x) => x,
            Err(DequeError::Busy) => return Err(Busy),
            Err(DequeError::Dead(d)) => {
                // Degrade: treat as an empty pop and return to the scheduler.
                self.deque_violation(world, self.me, &d);
                (None, d.cost)
            }
        };
        let flag_val = if e.consumers == 1 { 1 } else { DONE_BIT };
        cost += self.publish_retval_and_flag(world, e, v, flag_val, now + cost);
        world.rt.stats.note_die(e.entry.to_u64(), now);
        let mut th = self.cur.take().expect("die without thread");
        Self::mark_lineage_done(world, &th);
        self.retire_thread(world, &mut th);
        world.rt.watch_death(th.tid, now);
        match popped {
            Some(QueueItem::Cont { th: next, .. }) => {
                cost += world.m.ctx_restore(self.me);
                self.start_thread(world, now, next);
            }
            Some(QueueItem::Child { .. }) => {
                unreachable!("stalling continuation runs have no child descriptors")
            }
            None => {
                self.state = WState::Idle;
                self.set_busy(world, now, false);
            }
        }
        Ok(cost)
    }

    /// Child-stealing DIE: put retval + flag. ChildRtc additionally re-checks
    /// the join buried directly below (it can resume only now).
    pub(crate) fn die_child(
        &mut self,
        now: VTime,
        world: &mut World,
        e: ThreadHandle,
        v: Value,
    ) -> Result<VTime, Busy> {
        let dead_parent = self
            .kills
            .then(|| world.m.dead_guard(self.me, e.entry.rank as usize, now))
            .flatten();
        let mut cost;
        if let Some(c_dead) = dead_parent {
            // Orphaned completion: the entry lives on a killed worker's
            // segment, so the retval/flag puts fail fast at one RTT and are
            // dropped. Nobody can ever join this entry — the parent died
            // with it, and the subtree replay that re-creates the parent
            // re-creates this task against a fresh entry.
            cost = c_dead;
        } else {
            let flag_val = if e.consumers == 1 { 1 } else { DONE_BIT };
            cost = self.publish_retval_and_flag(world, e, v, flag_val, now);
        }
        world.rt.stats.note_die(e.entry.to_u64(), now);
        let mut th = self.cur.take().expect("die without thread");
        // Completion reached the lineage: this record must never replay.
        Self::mark_lineage_done(world, &th);
        self.retire_thread(world, &mut th);
        world.rt.watch_death(th.tid, now);

        if self.policy == Policy::ChildRtc {
            if let Some(top) = self.nest.last() {
                let h = top.handle;
                let (flag, c) = world.m.get_u64(self.me, h.entry.field(E_FLAG));
                cost += c;
                let done = if h.consumers == 1 {
                    flag != 0
                } else {
                    flag & DONE_BIT != 0
                };
                if done {
                    // Unbury: complete the join below (plain function-return
                    // semantics, no context switch).
                    let Nested { mut th, handle } =
                        self.nest.pop().expect("checked non-empty");
                    self.close_suspension(world, &mut th, now);
                    let (jv, c2) = self.join_complete_fast(world, handle);
                    cost += c2;
                    th.supply(jv);
                    self.start_thread(world, now, th);
                    return Ok(cost);
                }
            }
        }
        self.state = WState::Idle;
        self.set_busy(world, now, false);
        Ok(cost)
    }

}
