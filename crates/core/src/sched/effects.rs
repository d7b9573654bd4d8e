//! Run-state steps: advancing the current thread and applying its
//! effects (return/call/fork/join dispatch, compute, yield).

use super::*;

impl Worker {
    // ------------------------------------------------------------------
    // state steps
    // ------------------------------------------------------------------

    pub(crate) fn step_run(&mut self, now: VTime, world: &mut World) -> Step {
        if self.pending.is_none() {
            let eff = self.advance_cur(now);
            self.pending = Some(PendingOp::Effect(eff));
        }
        match self.apply_pending(now, world) {
            Ok(cost) => Step::Yield(cost),
            Err(Busy) => self.spin_on_lock(now, world, false),
        }
    }

    /// Apply `self.pending`; on `Busy` the operation is restored untouched.
    pub(crate) fn apply_pending(&mut self, now: VTime, world: &mut World) -> Result<VTime, Busy> {
        let op = self.pending.take().expect("no pending op");
        let result = match op {
            PendingOp::Effect(eff) => self.apply_effect(now, world, eff),
            PendingOp::JoinSlow { handle } => self.join_slow(now, world, handle),
        };
        if let Err((op, Busy)) = result {
            self.pending = Some(op);
            return Err(Busy);
        }
        Ok(result.ok().expect("checked"))
    }

    pub(crate) fn apply_effect(
        &mut self,
        now: VTime,
        world: &mut World,
        eff: Effect,
    ) -> Result<VTime, (PendingOp, Busy)> {
        match eff {
            Effect::Return(v) => {
                let th = self.cur.as_mut().expect("return without thread");
                if !th.would_complete() {
                    // Plain control transfer to the caller frame: free (the
                    // frame body's own cost is modelled by its effects).
                    th.pending = Pending::Resume(v);
                    Ok(VTime::ZERO)
                } else {
                    // die() probes the deque lock before any side effect, so
                    // on Busy the cloned value re-applies cleanly next step.
                    let keep = v.clone();
                    self.die(now, world, v)
                        .map_err(|b| (PendingOp::Effect(Effect::Return(keep)), b))
                }
            }
            Effect::Call { callee, arg, cont } => {
                // An ordinary subroutine call on the same stack: free.
                let th = self.cur.as_mut().expect("call without thread");
                th.frames.push(cont);
                th.pending = Pending::Start(callee, arg);
                Ok(VTime::ZERO)
            }
            Effect::Fork {
                child,
                arg,
                consumers,
                cont,
            } => self
                .fork(now, world, child, arg, consumers, cont)
                .map_err(|(child, arg, consumers, cont, b)| {
                    (
                        PendingOp::Effect(Effect::Fork {
                            child,
                            arg,
                            consumers,
                            cont,
                        }),
                        b,
                    )
                }),
            Effect::Join { handle, cont } => {
                // Step A: read the flag.
                let th = self.cur.as_mut().expect("join without thread");
                th.frames.push(cont);
                let (done, cost) = self.join_done(world, handle);
                if done {
                    let (v, c2) = self.join_complete_fast(world, handle);
                    let th = self.cur.as_mut().expect("checked");
                    th.pending = Pending::Resume(v);
                    world.rt.stats.note_join_fast();
                    Ok(cost + c2)
                } else {
                    // Step B happens next step: the producer may slip in
                    // between, exercising the race paths.
                    self.pending = Some(PendingOp::JoinSlow { handle });
                    Ok(cost)
                }
            }
            Effect::Compute { dur, work, cont } => {
                let v = match work {
                    Some(w) => {
                        let mut ctx = TaskCtx {
                            worker: self.me,
                            app: &self.app,
                            compute_scale: self.compute_scale_at(now),
                        };
                        w(&mut ctx)
                    }
                    None => Value::Unit,
                };
                let th = self.cur.as_mut().expect("compute without thread");
                th.frames.push(cont);
                th.pending = Pending::Resume(v);
                Ok(dur)
            }
            Effect::Yield { cont } => self
                .yield_now(now, world, cont)
                .map_err(|(cont, b)| (PendingOp::Effect(Effect::Yield { cont }), b)),
        }
    }

    /// Re-enqueue the current thread as ready work and go find something
    /// else (cooperative yield).
    pub(crate) fn yield_now(
        &mut self,
        now: VTime,
        world: &mut World,
        cont: Box<dyn Frame>,
    ) -> Result<VTime, (Box<dyn Frame>, Busy)> {
        match (self.desc.unit, self.desc.join) {
            (Unit::Cont, _) => {
                if world.own_locked(&self.lay, self.me) {
                    return Err((cont, Busy));
                }
                let mut th = self.cur.take().expect("yield without thread");
                th.frames.push(cont);
                th.pending = Pending::Resume(Value::Unit);
                let cost = world
                    .own_push(
                        &self.lay,
                        self.me,
                        QueueItem::Cont {
                            th,
                            spawned_child: GlobalAddr::NULL,
                            since: now,
                        },
                    )
                    .expect("lock probed free within the same atomic step");
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost + world.m.ctx_restore(self.me))
            }
            (Unit::Child, JoinKind::Wait) => {
                // Tied threads cannot migrate; a yield parks the thread in
                // the local wait queue with no entry to wait on — the next
                // round-robin poll resumes it unconditionally.
                let mut th = self.cur.take().expect("yield without thread");
                th.frames.push(cont);
                th.pending = Pending::AwaitValue;
                let cost = world.m.ctx_switch(self.me);
                self.wait_q.push_back(Waiting {
                    th,
                    handle: ThreadHandle::single(GlobalAddr::NULL),
                });
                self.state = WState::Idle;
                self.set_busy(world, now, false);
                Ok(cost)
            }
            (Unit::Child, _) => {
                panic!("run-to-completion threads cannot yield (§IV-B)")
            }
        }
    }

    /// Fast join completion: flag already set. Handles the multi-consumer
    /// consumed counter and entry freeing by the last consumer. Touches
    /// only `h`'s entry, never `self.cur`, so a resumed thread uses it too.
    pub(crate) fn join_complete_fast(&mut self, world: &mut World, h: ThreadHandle) -> (Value, VTime) {
        let (v, mut cost) = self.get_retval(world, h);
        if h.consumers == 1 {
            cost += self.free_entry_here(world, h);
        } else {
            let (old, c) = world
                .m
                .call(self.me, Verb::Faa(h.entry.field(EM_CONSUMED), 1));
            cost += c;
            if old + 1 == h.consumers as u64 {
                cost += self.free_entry_here(world, h);
            }
        }
        (v, cost)
    }

    // ------------------------------------------------------------------
    // FORK
    // ------------------------------------------------------------------

    #[allow(clippy::type_complexity)]
    pub(crate) fn fork(
        &mut self,
        now: VTime,
        world: &mut World,
        child: TaskFn,
        arg: Value,
        consumers: u32,
        cont: Box<dyn Frame>,
    ) -> Result<VTime, (TaskFn, Value, u32, Box<dyn Frame>, Busy)> {
        // The push must succeed before any side effect.
        if world.own_locked(&self.lay, self.me) {
            return Err((child, arg, consumers, cont, Busy));
        }
        let mut cost = VTime::ZERO;
        let (h, c_alloc) = alloc_entry(
            &mut world.m,
            &mut world.rt.per[self.me],
            &self.lay,
            self.strategy,
            self.me,
            consumers,
            &mut world.rt.meta,
        );
        cost += c_alloc;

        if self.desc.unit == Unit::Cont {
            let tid = world.rt.fresh_tid();
            // Continuation stealing: the parent's continuation becomes
            // stealable; the child runs immediately on this worker (plain
            // function-call cost — the work-first principle).
            let mut parent = self.cur.take().expect("fork without thread");
            parent.frames.push(cont);
            parent.pending = Pending::Resume(Value::Handle(h));
            let parent_home = parent.home;
            let push_cost = world
                .own_push(
                    &self.lay,
                    self.me,
                    QueueItem::Cont {
                        th: parent,
                        spawned_child: h.entry,
                        since: now,
                    },
                )
                .expect("lock probed free within the same atomic step");
            cost += push_cost;
            // Continuation-lineage log: the child's origin is pure data;
            // record it at the split so a survivor can re-execute it if
            // this worker dies before the child's entry flag is published.
            let rec = self
                .kills
                .then(|| self.record_lineage(world, tid, child, arg.clone(), h));
            let mut th = VThread::new(tid, child, arg, h);
            th.replay_rec = rec;
            th.home = self.desc.stacks.place(&mut world.rt, self.me, parent_home);
            self.cur = Some(th);
            Ok(cost + world.m.local_op(self.me))
        } else {
            // Child stealing: push the descriptor, parent continues.
            let push_cost = world
                .own_push(&self.lay, self.me, QueueItem::Child { f: child, arg, handle: h })
                .expect("lock probed free within the same atomic step");
            cost += push_cost;
            let th = self.cur.as_mut().expect("fork without thread");
            th.frames.push(cont);
            th.pending = Pending::Resume(Value::Handle(h));
            Ok(cost)
        }
    }

}
