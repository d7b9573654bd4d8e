//! Where a thread's stack lives (§II-D): the one place that knows how a
//! stack is placed, suspended, resumed, migrated, retired and shed under
//! each [`Stacks`] kind of a run's [`crate::policy::PolicyDesc`].
//!
//! * **Uni** — each worker's uni-address region holds the stacks of its
//!   running threads. A child is placed directly above its parent; a
//!   suspended stack releases its home and is evacuated; a migrating or
//!   resumed stack re-claims its home at the new worker, falling back to
//!   first-fit (a counted conflict).
//! * **Iso** — one globally unique range per stack, allocated at placement
//!   and freed at death; it travels unchanged, so nothing is evacuated or
//!   re-claimed.
//! * **Full** — ChildFull's private stack per thread: only counted (live
//!   and peak), never moved.
//! * **OnWorker** — ChildRtc's tasks run as plain calls on the worker's
//!   one stack: nothing to account.
//!
//! The state is `WorkerShared::{uni, evac, full_stacks_*}` and
//! `RtShared::iso`. Every operation is host-side accounting only — no verb,
//! no charge except `start_child`'s context switch — so its place within a
//! protocol step does not move a virtual number.

use dcs_sim::{VTime, WorkerId};
use dcs_uniaddr::StackSlot;

use crate::frame::VThread;
use crate::policy::Stacks;
use crate::world::{RtShared, WorkerShared, World};

impl Stacks {
    /// Place a new thread's stack on worker `me` and return its home:
    /// directly above `parent`'s under uni-address (the root at the region
    /// base), or a fresh iso range. After migrations the slot above the
    /// parent can hold an unrelated resident continuation; the real system
    /// would relocate, the model falls back to first-fit and counts the
    /// conflict, as [`Stacks::claim`] does. A full thread's stack is only
    /// counted; a run-to-completion task has none of its own.
    pub(crate) fn place(
        self,
        rt: &mut RtShared,
        me: WorkerId,
        parent: Option<StackSlot>,
    ) -> Option<StackSlot> {
        let len = rt.cfg.stack_slot;
        match self {
            Stacks::Uni => {
                let uni = &mut rt.per[me].uni;
                let want = StackSlot {
                    base: parent.map_or(uni.base(), |p| p.end()),
                    len,
                };
                Some(if uni.claim(want) {
                    want
                } else {
                    uni.place_anywhere(len)
                })
            }
            Stacks::Iso => Some(rt.iso.alloc(len)),
            Stacks::Full => {
                let ws = &mut rt.per[me];
                ws.full_stacks_live += 1;
                ws.full_stacks_peak = ws.full_stacks_peak.max(ws.full_stacks_live);
                None
            }
            Stacks::OnWorker => None,
        }
    }

    /// A child descriptor starts as a thread on worker `me`. A full thread
    /// gets a fresh private stack (a context switch); a run-to-completion
    /// task is a plain call on the worker's stack (a light restore).
    pub(crate) fn start_child(self, world: &mut World, me: WorkerId) -> VTime {
        match self {
            Stacks::Full => {
                self.place(&mut world.rt, me, None);
                world.m.ctx_switch(me)
            }
            Stacks::OnWorker => world.m.ctx_restore(me),
            Stacks::Uni | Stacks::Iso => {
                unreachable!("child descriptor under continuation stealing")
            }
        }
    }

    /// Return a home that `owner`'s region (or the iso allocator) holds.
    pub(crate) fn release(self, rt: &mut RtShared, owner: WorkerId, home: StackSlot) {
        match self {
            Stacks::Uni => rt.per[owner].uni.release(home),
            Stacks::Iso => rt.iso.free(home),
            Stacks::Full | Stacks::OnWorker => {}
        }
    }

    /// The thread died on worker `me`: release its stack.
    pub(crate) fn retire(self, rt: &mut RtShared, me: WorkerId, th: &mut VThread) {
        if let Some(home) = th.home.take() {
            self.release(rt, me, home);
        }
        if self == Stacks::Full {
            rt.per[me].full_stacks_live -= 1;
        }
    }

    /// The thread suspends at a join on worker `me`: a uni-address stack
    /// leaves its home and is evacuated. `th.home` stays set — it is where
    /// the stack asks to land when it resumes.
    pub(crate) fn suspend(self, rt: &mut RtShared, me: WorkerId, th: &VThread) {
        if let (Stacks::Uni, Some(home)) = (self, th.home) {
            rt.per[me].uni.release(home);
            rt.per[me].evac.evacuate(th.stack_bytes() as u64);
        }
    }

    /// Close the evacuation `owner` holds for a suspended thread (before
    /// its value is supplied: the evacuated size is the suspended one).
    pub(crate) fn restore(self, rt: &mut RtShared, owner: WorkerId, th: &VThread) {
        if self == Stacks::Uni && th.home.is_some() {
            rt.per[owner].evac.restore(th.stack_bytes() as u64);
        }
    }

    /// Claim a resumed or migrated thread's home in worker `me`'s
    /// uni-address region, falling back to first-fit on conflict (counted).
    pub(crate) fn claim(self, rt: &mut RtShared, me: WorkerId, th: &mut VThread) {
        if self != Stacks::Uni {
            return;
        }
        let slot_len = rt.cfg.stack_slot;
        let uni = &mut rt.per[me].uni;
        match th.home {
            Some(home) if uni.claim(home) => {}
            _ => th.home = Some(uni.place_anywhere(slot_len)),
        }
    }

    /// A thread suspended at `owner` resumes on worker `me`.
    pub(crate) fn resume(self, rt: &mut RtShared, owner: WorkerId, me: WorkerId, th: &mut VThread) {
        self.restore(rt, owner, th);
        self.claim(rt, me, th);
    }

    /// A stolen continuation lands on worker `me`: under uni-address its
    /// stack leaves `victim`'s region for the same address here.
    pub(crate) fn migrate(
        self,
        rt: &mut RtShared,
        victim: WorkerId,
        me: WorkerId,
        th: &mut VThread,
    ) {
        if self == Stacks::Uni {
            if let Some(home) = th.home {
                rt.per[victim].uni.release(home);
            }
            self.claim(rt, me, th);
        }
    }

    /// Eviction sheds a suspended thread of worker `me`: an evacuated
    /// uni-address stack released its home at suspension, so only the
    /// evacuation accounting is still open; any other stack is retired.
    pub(crate) fn shed_suspended(self, rt: &mut RtShared, me: WorkerId, th: &VThread) {
        match (self, th.home) {
            (Stacks::Uni, Some(_)) => rt.per[me].evac.restore(th.stack_bytes() as u64),
            (_, Some(home)) => self.release(rt, me, home),
            (Stacks::Full, None) => rt.per[me].full_stacks_live -= 1,
            (_, None) => {}
        }
    }
}

/// End-of-run stack accounting, read once by the runner for its leak checks
/// and its report.
pub(crate) struct Census {
    /// Stacks still held at the end, `(what, count)` in report order.
    pub leaks: [(&'static str, u64); 4],
    pub uni_peak: u64,
    pub uni_conflicts: u64,
    pub evac_peak: u64,
    pub full_stack_peak: u64,
    pub iso_peak: u64,
}

pub(crate) fn census(rt: &RtShared) -> Census {
    let per = &rt.per;
    let sum = |f: fn(&WorkerShared) -> u64| per.iter().map(f).sum::<u64>();
    let max = |f: fn(&WorkerShared) -> u64| per.iter().map(f).max().unwrap_or(0);
    Census {
        leaks: [
            ("uni-address slots", sum(|w| w.uni.live() as u64)),
            ("evacuated bytes", sum(|w| w.evac.live_bytes())),
            ("full stacks", sum(|w| w.full_stacks_live)),
            ("iso-address slots", rt.iso.live() as u64),
        ],
        uni_peak: max(|w| w.uni.stats().peak_bytes),
        uni_conflicts: sum(|w| w.uni.stats().conflicts),
        evac_peak: max(|w| w.evac.peak_bytes()),
        full_stack_peak: max(|w| w.full_stacks_peak),
        iso_peak: rt.iso.peak_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Effect;
    use crate::policy::{Policy, RunConfig};
    use crate::value::{ThreadHandle, Value};
    use dcs_sim::GlobalAddr;

    #[test]
    fn full_stacks_are_counted_live_and_peak() {
        let mut rt = RtShared::new(RunConfig::new(1, Policy::ChildFull));
        let mut th = VThread::new(
            0,
            |_, _| Effect::ret(0u64),
            Value::Unit,
            ThreadHandle::single(GlobalAddr::NULL),
        );
        let full = Stacks::Full;
        assert_eq!(full.place(&mut rt, 0, None), None);
        full.place(&mut rt, 0, None);
        full.retire(&mut rt, 0, &mut th);
        full.place(&mut rt, 0, None);
        let census = census(&rt);
        assert_eq!((rt.per[0].full_stacks_live, census.full_stack_peak), (2, 2));
        assert_eq!(census.leaks[2], ("full stacks", 2));
    }
}
