//! Runtime invariant watchdog.
//!
//! Fault injection (see [`dcs_sim::FaultPlan`]) makes the fabric lie:
//! verbs time out, messages drop or arrive twice, workers freeze. The
//! runtime's resilience claim is that none of that may ever corrupt the
//! *computation* — every spawned task runs exactly once, every thread entry
//! is freed exactly once, and the run keeps making progress. The watchdog
//! checks those invariants live, from inside the run, and turns violations
//! into a structured [`WatchdogReport`] instead of a silent wrong answer.
//!
//! The checks are observational: a healthy run behaves bit-identically with
//! the watchdog on or off (it only reads event streams the scheduler already
//! produces, and never charges virtual time).

use std::fmt;

use dcs_sim::VTime;

use crate::util::U64Set;

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Threads were spawned that never died: work was lost in flight.
    TaskLost { live: Vec<u64> },
    /// A thread id died twice (or died without ever being spawned): a task
    /// was duplicated, e.g. by a retransmitted grant materializing twice.
    TaskDuplicated { tid: u64 },
    /// A thread entry was freed twice.
    DoubleFree { entry: u64 },
    /// No global progress event (task death or successful steal) for longer
    /// than the configured stall limit while workers were still running.
    /// `last_progress` is the instant of the last observed progress event
    /// and `suspected_dead` names the workers known lost by then — the two
    /// facts a hung-run report needs first.
    Stall {
        at: VTime,
        idle_for: VTime,
        last_progress: VTime,
        suspected_dead: Vec<usize>,
    },
    /// A deque operation observed a dead ring slot — a bounds-referenced
    /// slot whose payload key is gone (see [`crate::deque::DeadSlot`]).
    /// `owner` is the worker whose deque was corrupted, not necessarily the
    /// worker that tripped over it.
    DequeProtocol {
        op: &'static str,
        owner: usize,
        index: u64,
    },
    /// A runtime resource survived to the end of the run (routed here from
    /// the end-of-run accounting when strict mode is off).
    Leak { what: &'static str, count: u64 },
    /// A fail-stop kill took a worker down while it held live frames, and
    /// the run's policy cannot re-execute them (continuation stealing has no
    /// replayable descriptor; losing worker 0 loses the root). `frames`
    /// names the lost thread ids (truncated).
    WorkerLost { worker: usize, frames: Vec<u64> },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TaskLost { live } => {
                write!(f, "task-lost: {} thread(s) spawned but never died", live.len())?;
                if let Some(t) = live.first() {
                    write!(f, " (first tid {t})")?;
                }
                Ok(())
            }
            Violation::TaskDuplicated { tid } => {
                write!(f, "task-duplicated: tid {tid} died more than once")
            }
            Violation::DoubleFree { entry } => {
                write!(f, "double-free: entry {entry:#x} freed twice")
            }
            Violation::Stall {
                at,
                idle_for,
                last_progress,
                suspected_dead,
            } => {
                write!(
                    f,
                    "stall: no progress for {idle_for} (detected at {at}, last progress at {last_progress}"
                )?;
                if suspected_dead.is_empty() {
                    write!(f, ", no workers suspected dead)")
                } else {
                    write!(f, ", suspected dead workers: {suspected_dead:?})")
                }
            }
            Violation::DequeProtocol { op, owner, index } => {
                write!(
                    f,
                    "deque-protocol: {op} observed a dead ring slot at index {index} of worker {owner}'s deque"
                )
            }
            Violation::Leak { what, count } => {
                write!(f, "leak: {count} {what} still live at end of run")
            }
            Violation::WorkerLost { worker, frames } => {
                write!(
                    f,
                    "worker-lost: worker {worker} died holding {} live frame(s)",
                    frames.len()
                )?;
                if let Some(t) = frames.first() {
                    write!(f, " (first tid {t})")?;
                }
                Ok(())
            }
        }
    }
}

/// End-of-run summary of everything the watchdog saw.
#[derive(Clone, Debug, Default)]
pub struct WatchdogReport {
    pub violations: Vec<Violation>,
    /// Tasks spawned / died while the watchdog was watching.
    pub spawned: u64,
    pub died: u64,
    /// Longest observed gap between consecutive progress events.
    pub max_gap: VTime,
}

impl WatchdogReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for WatchdogReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "watchdog: clean ({} spawned, {} died, max progress gap {})",
                self.spawned, self.died, self.max_gap
            )
        } else {
            writeln!(f, "watchdog: {} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Cap on recorded violations: enough to diagnose, bounded under a
/// pathological run.
const MAX_VIOLATIONS: usize = 64;

/// Live invariant tracker. Created once per run (when enabled) and fed by
/// cheap hooks in the scheduler; see [`crate::world::RtShared`].
#[derive(Debug)]
pub struct Watchdog {
    stall_limit: VTime,
    /// Virtual time of the last global progress event.
    last_progress: VTime,
    /// Crash-stop windows legitimately pause progress until this time; the
    /// stall clock must not count frozen workers as a hang.
    pause_until: VTime,
    /// A stall is reported at most once per silent period.
    stall_reported: bool,
    live: U64Set,
    /// Tids enumerated on recoverably-killed workers. They cannot be retired
    /// at kill time — an operation whose virtual instant precedes the kill
    /// may still complete them later in execution order — but if they never
    /// die they went down with their worker, so [`Self::finish`] discounts
    /// them from the lost-task check.
    lost_tids: U64Set,
    /// Workers reported lost (fail-stop kills observed so far); names the
    /// suspects in a stall report.
    lost_workers: Vec<usize>,
    /// Workers currently *suspected* by a message-based failure detector
    /// (lease expired without a visible heartbeat). Unlike `lost_workers`
    /// this set is revocable: a delayed beat landing clears the suspicion.
    /// Always empty under the oracle detector, so oracle stall reports are
    /// unchanged.
    suspected: Vec<usize>,
    spawned: u64,
    died: u64,
    max_gap: VTime,
    violations: Vec<Violation>,
    /// Per worker, the instant it last parked an idle-loop lock spin
    /// ([`VTime::MAX`]: never). Each skipped idle poll would have sampled
    /// the stall clock; see [`Self::fold_parked`].
    parked_pollers: Vec<VTime>,
}

impl Watchdog {
    pub fn new(stall_limit: VTime) -> Watchdog {
        Watchdog {
            stall_limit,
            last_progress: VTime::ZERO,
            pause_until: VTime::ZERO,
            stall_reported: false,
            live: U64Set::default(),
            lost_tids: U64Set::default(),
            lost_workers: Vec::new(),
            suspected: Vec::new(),
            spawned: 0,
            died: 0,
            max_gap: VTime::ZERO,
            violations: Vec::new(),
            parked_pollers: Vec::new(),
        }
    }

    fn record(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// A task (thread) came into existence.
    pub fn spawn(&mut self, tid: u64) {
        self.spawned += 1;
        self.live.insert(tid);
    }

    /// A task completed at `now`. Dying twice means the task was duplicated
    /// somewhere between spawn and death.
    pub fn death(&mut self, tid: u64, now: VTime) {
        self.died += 1;
        if !self.live.remove(&tid) {
            self.record(Violation::TaskDuplicated { tid });
        }
        self.progress(now);
    }

    /// Any global progress event (death, successful steal): reset the stall
    /// clock.
    pub fn progress(&mut self, now: VTime) {
        let since = self.last_progress.max(self.pause_until);
        self.max_gap = self.max_gap.max(now.saturating_sub(since));
        self.last_progress = self.last_progress.max(now);
        self.stall_reported = false;
    }

    /// A worker legitimately sleeps through a crash window ending at
    /// `until`: silence up to there is not a stall.
    pub fn crash_sleep(&mut self, until: VTime) {
        self.pause_until = self.pause_until.max(until);
    }

    /// A deque operation surfaced a typed protocol error (dead ring slot).
    pub fn deque_protocol(&mut self, op: &'static str, owner: usize, index: u64) {
        self.record(Violation::DequeProtocol { op, owner, index });
    }

    /// Worker `worker` suffered a fail-stop kill while holding `tids` live
    /// frames. Under a recoverable configuration nothing is retired here:
    /// a frame enumerated at kill time may still legitimately complete (a
    /// steal whose virtual instant precedes the kill can land after it in
    /// execution order). Originals with a lineage record are retired via
    /// [`Self::retire`] once the log settles their fate; the rest are
    /// remembered and discounted from the lost-task check at
    /// [`Self::finish`]. An unrecoverable loss retires everything and
    /// records the violation — the run aborts immediately.
    pub fn worker_lost(&mut self, worker: usize, tids: &[u64], recoverable: bool) {
        self.lost_workers.push(worker);
        if recoverable {
            self.lost_tids.extend(tids.iter().copied());
        } else {
            for t in tids {
                self.live.remove(t);
            }
            let mut frames = tids.to_vec();
            frames.sort_unstable();
            frames.truncate(16);
            self.record(Violation::WorkerLost { worker, frames });
        }
    }

    /// A thread is known to never complete — it died with its worker and
    /// was (or will be) re-executed under a fresh id, or it is an orphaned
    /// duplicate abandoned at termination. Retiring it keeps the
    /// end-of-run lost-task check meaningful for everything else.
    pub fn retire(&mut self, tid: u64) {
        self.live.remove(&tid);
    }

    /// A message-based failure detector started suspecting `worker` (its
    /// lease expired with no visible heartbeat). Suspicion names the worker
    /// in stall reports but, unlike a confirmed loss, is revocable.
    pub fn suspect(&mut self, worker: usize) {
        if !self.suspected.contains(&worker) {
            self.suspected.push(worker);
        }
    }

    /// A delayed heartbeat from `worker` landed: the suspicion was false.
    pub fn unsuspect(&mut self, worker: usize) {
        self.suspected.retain(|&w| w != worker);
    }

    /// A *live* worker was evicted on suspicion and self-fenced, shedding
    /// `tids` in-flight frames. The frames are discounted exactly like a
    /// recoverable kill's (replay re-creates the work under fresh ids), but
    /// the worker is not recorded as lost — it rejoins as a fresh
    /// incarnation.
    pub fn worker_evicted(&mut self, worker: usize, tids: &[u64]) {
        self.lost_tids.extend(tids.iter().copied());
        self.unsuspect(worker);
    }

    /// An entry free about to happen; `present` says whether the entry's
    /// metadata still exists. Returns true when the free may proceed.
    pub fn check_free(&mut self, entry: u64, present: bool) -> bool {
        if !present {
            self.record(Violation::DoubleFree { entry });
        }
        present
    }

    /// Idle-loop poll: has the run gone silent for longer than the limit?
    pub fn check_stall(&mut self, now: VTime) {
        if self.stall_reported {
            return;
        }
        let since = self.last_progress.max(self.pause_until);
        let gap = now.saturating_sub(since);
        self.max_gap = self.max_gap.max(gap);
        if gap > self.stall_limit {
            self.stall_reported = true;
            // Confirmed losses first (oracle-order preserved), then any
            // workers the message detector currently suspects.
            let mut suspected_dead = self.lost_workers.clone();
            for &w in &self.suspected {
                if !suspected_dead.contains(&w) {
                    suspected_dead.push(w);
                }
            }
            self.record(Violation::Stall {
                at: now,
                idle_for: gap,
                last_progress: since,
                suspected_dead,
            });
        }
    }

    /// The first instant at which an idle poll made now or later could
    /// report a stall: one past `since + stall_limit`, where `since` only
    /// moves later. While a stall is already reported, nothing is due
    /// before a progress event resets the clock to at least `now`.
    pub fn stall_deadline(&self, now: VTime) -> VTime {
        let since = if self.stall_reported {
            now
        } else {
            self.last_progress.max(self.pause_until)
        };
        since + self.stall_limit + VTime::ns(1)
    }

    /// `worker` parked an idle-loop lock spin at `since`.
    pub fn note_parked_poller(&mut self, worker: usize, since: VTime) {
        if self.parked_pollers.len() <= worker {
            self.parked_pollers.resize(worker + 1, VTime::MAX);
        }
        self.parked_pollers[worker] = since;
    }

    /// Fold the stall polls that parked idle spins skipped into `max_gap`,
    /// before the stall clock's reference moves without a progress event (a
    /// crash-window sleep, the sleeper's own skipped polls included) or the
    /// run ends without one (an unrecoverable abort). Anywhere else a
    /// skipped poll's gap is dominated by a later sample against the same
    /// reference — a progress event, another worker's poll, the woken
    /// poller's own poll. Folding against the reference in force now is
    /// exact: a skipped poll made before the reference last moved folds
    /// nothing, as its gap was sampled when it moved. `last_poll(worker,
    /// since)` is the worker's last skipped poll of its park at `since`.
    /// No skipped poll can report a stall: a parked idle spin wakes at
    /// [`Self::stall_deadline`].
    pub fn fold_parked(&mut self, last_poll: impl Fn(usize, VTime) -> Option<VTime>) {
        if self.stall_reported {
            return;
        }
        let since = self.last_progress.max(self.pause_until);
        for (worker, &parked) in self.parked_pollers.iter().enumerate() {
            if parked == VTime::MAX {
                continue;
            }
            if let Some(t) = last_poll(worker, parked) {
                self.max_gap = self.max_gap.max(t.saturating_sub(since));
            }
        }
    }

    /// Close out the run: any still-live tid is a lost task. Tids that went
    /// down with a recoverably-killed worker are discounted — their work
    /// was re-executed under fresh ids (or legitimately abandoned by the
    /// replay dedup); only threads on live workers can leak.
    pub fn finish(mut self) -> WatchdogReport {
        if !self.lost_tids.is_empty() {
            let lost = std::mem::take(&mut self.lost_tids);
            self.live.retain(|t| !lost.contains(t));
        }
        if !self.live.is_empty() {
            let mut live: Vec<u64> = self.live.iter().copied().collect();
            live.sort_unstable();
            live.truncate(16);
            self.record(Violation::TaskLost { live });
        }
        WatchdogReport {
            violations: self.violations,
            spawned: self.spawned,
            died: self.died,
            max_gap: self.max_gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_reports_clean() {
        let mut w = Watchdog::new(VTime::ms(1));
        w.spawn(1);
        w.spawn(2);
        w.death(2, VTime::us(10));
        w.death(1, VTime::us(20));
        let r = w.finish();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.spawned, 2);
        assert_eq!(r.died, 2);
        assert_eq!(r.max_gap, VTime::us(10));
    }

    #[test]
    fn lost_task_detected_at_finish() {
        let mut w = Watchdog::new(VTime::ms(1));
        w.spawn(7);
        let r = w.finish();
        assert_eq!(r.violations, vec![Violation::TaskLost { live: vec![7] }]);
    }

    #[test]
    fn duplicate_death_detected() {
        let mut w = Watchdog::new(VTime::ms(1));
        w.spawn(3);
        w.death(3, VTime::us(1));
        w.death(3, VTime::us(2));
        let r = w.finish();
        assert_eq!(r.violations, vec![Violation::TaskDuplicated { tid: 3 }]);
    }

    #[test]
    fn double_free_detected_and_blocked() {
        let mut w = Watchdog::new(VTime::ms(1));
        assert!(w.check_free(0xBEEF, true));
        assert!(!w.check_free(0xBEEF, false));
        let r = w.finish();
        assert_eq!(r.violations, vec![Violation::DoubleFree { entry: 0xBEEF }]);
    }

    #[test]
    fn deque_protocol_violation_recorded() {
        let mut w = Watchdog::new(VTime::ms(1));
        w.deque_protocol("thief_take", 3, 17);
        let r = w.finish();
        assert_eq!(
            r.violations,
            vec![Violation::DequeProtocol {
                op: "thief_take",
                owner: 3,
                index: 17
            }]
        );
        assert!(format!("{}", r.violations[0]).contains("worker 3"));
    }

    #[test]
    fn recoverable_worker_loss_defers_retirement_to_lineage() {
        let mut w = Watchdog::new(VTime::ms(1));
        w.spawn(1);
        w.spawn(2);
        w.spawn(3);
        w.spawn(4);
        w.worker_lost(5, &[1, 2, 3], true);
        // Frame 1's fate: stolen just before the kill (virtually earlier,
        // executed later), completes normally — neither a duplicate death
        // nor a lost task.
        w.death(1, VTime::us(5));
        // Frame 2's fate: re-executed from its lineage record; the original
        // is retired when the record's fate settles.
        w.retire(2);
        // Frame 3's fate: no lineage record (a local child of the killed
        // worker); it went down with the worker and is discounted at finish.
        // Frame 4 was never on the killed worker: still a genuine leak.
        let r = w.finish();
        assert_eq!(r.violations, vec![Violation::TaskLost { live: vec![4] }]);
    }

    #[test]
    fn unrecoverable_worker_loss_is_a_violation() {
        let mut w = Watchdog::new(VTime::ms(1));
        w.spawn(9);
        w.worker_lost(0, &[9], false);
        let r = w.finish();
        assert_eq!(
            r.violations,
            vec![Violation::WorkerLost { worker: 0, frames: vec![9] }]
        );
        assert!(format!("{}", r.violations[0]).contains("worker 0"));
    }

    #[test]
    fn stall_detected_once_and_reset_by_progress() {
        let mut w = Watchdog::new(VTime::us(100));
        w.progress(VTime::us(10));
        w.check_stall(VTime::us(50)); // within limit
        w.check_stall(VTime::us(200)); // 190us silent > 100us
        w.check_stall(VTime::us(300)); // still the same silent period
        w.progress(VTime::us(310));
        w.check_stall(VTime::us(350)); // fresh period, within limit
        let r = w.finish();
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(r.violations[0], Violation::Stall { .. }));
        // Longest silent period: progress at 10us, next progress at 310us.
        assert_eq!(r.max_gap, VTime::us(300));
    }

    #[test]
    fn stall_report_names_confirmed_losses_under_the_oracle() {
        // Oracle detector: deaths are confirmed facts, suspect()/unsuspect()
        // are never called. The stall report must name exactly the workers
        // the registry confirmed lost — pinned so detector work cannot
        // silently change oracle output.
        let mut w = Watchdog::new(VTime::us(100));
        w.progress(VTime::us(10));
        w.worker_lost(2, &[], true);
        w.check_stall(VTime::us(500));
        let r = w.finish();
        assert!(matches!(
            &r.violations[..],
            [Violation::Stall { suspected_dead, .. }] if suspected_dead == &vec![2]
        ));
    }

    #[test]
    fn stall_report_names_live_suspects_under_the_message_detector() {
        // Message detector: nobody is confirmed dead, but worker 1's lease
        // expired without a visible beat. The stall report must name the
        // *suspected* worker — and a delayed beat must revoke it.
        let mut w = Watchdog::new(VTime::us(100));
        w.progress(VTime::us(10));
        w.suspect(1);
        w.suspect(1); // idempotent
        w.check_stall(VTime::us(500));
        // Suspicion revoked: the next silent period reports nobody.
        w.progress(VTime::us(510));
        w.unsuspect(1);
        w.check_stall(VTime::us(900));
        let r = w.finish();
        assert!(matches!(
            &r.violations[..],
            [
                Violation::Stall { suspected_dead: a, .. },
                Violation::Stall { suspected_dead: b, .. },
            ] if a == &vec![1] && b.is_empty()
        ));
    }

    #[test]
    fn eviction_discounts_frames_without_reporting_the_worker_lost() {
        // A false suspicion evicts a live worker: its in-flight frames are
        // replayed under fresh ids (discounted like a recoverable kill's),
        // but the worker itself rejoins — it must not appear as a confirmed
        // loss in later stall reports.
        let mut w = Watchdog::new(VTime::us(100));
        w.spawn(7);
        w.suspect(4);
        w.worker_evicted(4, &[7]);
        w.progress(VTime::us(10));
        w.check_stall(VTime::us(500));
        let r = w.finish();
        assert!(matches!(
            &r.violations[..],
            [Violation::Stall { suspected_dead, .. }] if suspected_dead.is_empty()
        ));
    }

    #[test]
    fn crash_sleep_pauses_the_stall_clock() {
        let mut w = Watchdog::new(VTime::us(100));
        w.progress(VTime::us(10));
        w.crash_sleep(VTime::ms(1)); // frozen until 1ms
        w.check_stall(VTime::us(900)); // silence excused by the crash window
        let r = w.finish();
        assert!(r.is_clean(), "{r}");
    }
}
