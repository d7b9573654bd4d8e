//! The JOIN slow paths: suspension + race commit per policy.

use super::*;

impl Worker {
    // ------------------------------------------------------------------
    // JOIN slow paths
    // ------------------------------------------------------------------

    /// Step B of a join that saw flag = 0. Re-reads nothing: commits the
    /// descriptor's [`JoinKind`]. The producer may have slipped in since step
    /// A — the greedy race handles that; the stalling paths simply park the
    /// thread (the wait-queue poll will find the flag set immediately).
    pub(crate) fn join_slow(
        &mut self,
        now: VTime,
        world: &mut World,
        h: ThreadHandle,
    ) -> Result<VTime, (PendingOp, Busy)> {
        match self.desc.join {
            JoinKind::Race => self.join_greedy_commit(now, world, h),
            JoinKind::Wait => {
                let mut th = self.cur.take().expect("join without thread");
                th.pending = Pending::AwaitValue;
                th.suspension = Some((now, h.entry.to_u64()));
                self.desc.stacks.suspend(&mut world.rt, self.me, &th);
                let cost = world.m.ctx_switch(self.me);
                self.wait_q.push_back(Waiting { th, handle: h });
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost)
            }
            JoinKind::Nest => {
                // Bury the join: nest the scheduler on this stack.
                let mut th = self.cur.take().expect("join without thread");
                th.pending = Pending::AwaitValue;
                th.suspension = Some((now, h.entry.to_u64()));
                self.nest.push(Nested { th, handle: h });
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(world.m.local_op(self.me))
            }
        }
    }

    /// Fig. 4 JOIN slow path: save context, publish ctxloc, race on the flag.
    pub(crate) fn join_greedy_commit(
        &mut self,
        now: VTime,
        world: &mut World,
        h: ThreadHandle,
    ) -> Result<VTime, (PendingOp, Busy)> {
        let mut cost = VTime::ZERO;
        let mut th = self.cur.take().expect("join without thread");
        th.pending = Pending::AwaitValue;
        th.suspension = Some((now, h.entry.to_u64()));
        // Evacuate the stack and publish the saved context.
        let stack_bytes = th.stack_bytes();
        self.desc.stacks.suspend(&mut world.rt, self.me, &th);
        let slot = world.rt.per[self.me].saved.insert(th);
        let (c_addr, c0) = alloc_saved_ctx(
            &mut world.m,
            &mut world.rt.per[self.me],
            &self.lay,
            self.strategy,
            self.me,
            slot,
            stack_bytes,
        );
        cost += c0;
        cost += world.m.ctx_switch(self.me);

        if h.consumers == 1 {
            // put E.ctxloc ← C, then race (Fig. 4 l. 45–46), as one window.
            // Both verbs hit the entry's rank: the same-QP clamp keeps the
            // ctxloc visible before the AMO lands even when they overlap,
            // which is all the producer's loser path needs.
            let at = now + cost;
            let mut w = world.m.window(self.me, at);
            let ctxloc = h.entry.field(E_CTXLOC);
            let h_ctx = w.posted(
                world
                    .m
                    .post(self.me, Verb::Put(ctxloc, c_addr.to_u64()), w.at()),
            );
            let flag = h.entry.field(E_FLAG);
            let h_faa = w.posted(world.m.post(self.me, Verb::Faa(flag, 1), w.at()));
            world.m.wait(self.me, h_ctx);
            let (old, _) = world.m.wait(self.me, h_faa);
            let c1 = world.m.finish(&w).saturating_sub(at);
            cost += c1;
            if old == 0 {
                // Won: stay suspended; the producer will resume us.
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost)
            } else {
                // Lost: the producer finished in the window between step A
                // and now — resume ourselves (Fig. 4 l. 49–50).
                let mut th = world.rt.per[self.me].saved.take(slot);
                self.desc
                    .stacks
                    .resume(&mut world.rt, self.me, self.me, &mut th);
                cost += free_robj(
                    &mut world.m,
                    &mut world.rt.per[self.me],
                    &self.lay,
                    self.strategy,
                    self.me,
                    c_addr,
                    SAVED_CTX_BYTES,
                );
                self.close_suspension(world, &mut th, now);
                let (v, c2) = self.get_retval(world, h);
                cost += c2;
                cost += self.free_entry_here(world, h);
                th.supply(v);
                self.start_thread(world, now, th);
                Ok(cost)
            }
        } else {
            // Multi-consumer waiter: claim an arrival slot and publish.
            let (old, c1) = world.m.call(self.me, Verb::Faa(h.entry.field(E_FLAG), 1));
            cost += c1;
            if old & DONE_BIT != 0 {
                // Producer already done: self-resume and consume.
                let mut th = world.rt.per[self.me].saved.take(slot);
                self.desc
                    .stacks
                    .resume(&mut world.rt, self.me, self.me, &mut th);
                cost += free_robj(
                    &mut world.m,
                    &mut world.rt.per[self.me],
                    &self.lay,
                    self.strategy,
                    self.me,
                    c_addr,
                    SAVED_CTX_BYTES,
                );
                self.close_suspension(world, &mut th, now);
                let (v, c2) = self.join_complete_fast(world, h);
                cost += c2;
                th.supply(v);
                self.start_thread(world, now, th);
                Ok(cost)
            } else {
                let idx = (old & (DONE_BIT - 1)) as u32;
                debug_assert!(idx < h.consumers);
                cost += world
                    .m
                    .call(
                        self.me,
                        Verb::Put(h.entry.field(EM_CTX0 + idx), c_addr.to_u64()),
                    )
                    .1;
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost)
            }
        }
    }

}
