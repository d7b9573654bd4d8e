//! One-sided (SAWS/Scioto-style) bag-of-tasks work stealing.
//!
//! Each worker keeps a bag of unexpanded tasks. The bag's control words
//! — a lock and the current size — live in the owner's pinned segment, so a
//! thief can steal **half the bag** entirely one-sidedly:
//!
//! 1. `CAS` the bag lock (failure = failed steal attempt),
//! 2. `GET` the size (empty → release, failed attempt),
//! 3. take `⌈size/2⌉` of the *oldest* tasks (steal-half, Hendler & Shavit),
//!    `PUT` the new size, release the lock, and transfer
//!    `k · TASK_BYTES` of payload.
//!
//! The victim is never interrupted — the property the paper credits for
//! SAWS's scalability; it only waits, between two tasks, for a thief that
//! holds its lock to let go (parked on the lock word in a fault-free run,
//! see [`Machine::park_on_own_word`]). An idle worker cannot park: each of
//! its steps is a real remote CAS on a freshly drawn victim.
//!
//! Termination uses the one-sided Mattern token: the holder writes the
//! token record into its successor's segment; idle workers poll their own
//! slot at local cost. The ring itself — who initiates, who the successor
//! is, when a round counts — is [`crate::termination::Ring`], shared with
//! the two-sided runtime; this file only carries its token in segment
//! words.
//!
//! ## Fail-stop recovery
//!
//! The protocol is crash-tolerant as written (`docs/PROTOCOLS.md`): every
//! liveness check below is vacuous while nobody has been killed, so a
//! fault-free run executes the same steps as a run that survives kills. A
//! recovery-armed fault plan (`kill=W@T` entries or `recover=on`) adds only
//! the bookkeeping that costs bytes or host time:
//!
//! * **Transfer-counted steals.** The take step bumps `victim.consumed`
//!   and `thief.created` by the batch size (one extra one-sided AMO folded
//!   into the size update), so `created − consumed == bag size` holds *per
//!   worker* — a dead worker's counters and bag vanish together without
//!   unbalancing the live sums.
//! * **Steal lineage.** The thief appends a small fixed-size descriptor
//!   (thief id, batch size, region offset) to the victim's journal word,
//!   which shares the victim's 64-byte control line with the size word —
//!   the descriptor rides the size put the thief already pays, before the
//!   lock release becomes visible. The task payload itself is *not*
//!   re-written: the batch bytes are already resident in the victim's
//!   bag region, which the victim copies aside (a local, amortized cost)
//!   before recycling any slot a live descriptor still references. When
//!   the victim's lease registry confirms the thief dead, the victim
//!   re-injects the batch. The head-node collector dedups re-executed
//!   observations by task id. Together with the lease mirror being a
//!   local read, arming therefore charges **zero extra virtual time**
//!   until a death is actually confirmed.
//! * **The round start stamp.** Token rounds are always tagged by their
//!   initiator (lowest non-confirmed-dead worker); forwarders skip
//!   confirmed-dead successors and stall on unconfirmed ones. Armed runs
//!   also write the round's start time next to the token, and the
//!   initiator only fires a balanced double round whose start postdates
//!   every death confirmation it knows of — so a round can never complete
//!   "around" a death before every giver has replayed its lineage to the
//!   dead worker. (Without kills that rule is vacuous, so unarmed runs
//!   save the word.)

use dcs_apps::uts::UtsSpec;
use dcs_sim::{
    Actor, Engine, FabricMode, FaultPlan, GlobalAddr, Machine, MachineConfig, MachineProfile,
    ScheduleHook, SimRng, Step, VTime, Verb, WorkerId,
};

use crate::termination::{Ring, Token};
use crate::{BotCheckOutcome, BotReport, BotWorld, PforBag, Task, Workload, TASK_BYTES};

/// How much of a victim's bag a successful steal takes.
///
/// Dinan et al. and SAWS both argue for steal-half on UTS-like workloads;
/// [`run_uts_with`] lets the `ablate_stealhalf` bench quantify that design
/// choice on this fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealAmount {
    /// Take ⌊size/2⌋ tasks (requires size ≥ 2).
    Half,
    /// Take exactly one task (requires size ≥ 2 so the owner keeps one).
    One,
}

/// Segment layout (word indices).
const W_LOCK: u32 = 0;
const W_SIZE: u32 = 1;
const W_TOK_ROUND: u32 = 2;
const W_TOK_CREATED: u32 = 3;
const W_TOK_CONSUMED: u32 = 4;
/// Round start stamp — written and read only by recovery-armed runs: the
/// stability rule it feeds is vacuous without kills, and the unarmed
/// goldens pin the token put at 24 bytes.
const W_TOK_START: u32 = 5;
/// Lineage journal tail — written and read only by recovery-armed runs.
/// The descriptor ({thief, batch size, region offset} packed into the
/// journal) is the whole per-steal recovery write: the payload is never
/// re-written (see the module doc).
const W_JRNL: u32 = 6;
const RESERVED: u32 = 7 * 8;

enum BState {
    Work,
    Idle,
    /// Holding `victim`'s bag lock from the previous step.
    StealTake { victim: WorkerId },
}

struct BotWorker {
    me: WorkerId,
    n: usize,
    work: Workload,
    amount: StealAmount,
    armed: bool,
    scale: f64,
    rng: SimRng,
    state: BState,
    ring: Ring,
    steals_ok: u64,
    steals_failed: u64,
    halted: bool,
}

fn word(me: WorkerId, w: u32) -> GlobalAddr {
    GlobalAddr::new(me, w * 8)
}

impl BotWorker {
    fn read_token(m: &mut Machine, me: WorkerId, armed: bool) -> (Token, VTime) {
        let (round, c) = m.call(me, Verb::Get(word(me, W_TOK_ROUND)));
        let (created, _) = m.call(me, Verb::Get(word(me, W_TOK_CREATED)));
        let (consumed, _) = m.call(me, Verb::Get(word(me, W_TOK_CONSUMED)));
        let start_ns = if armed {
            m.call(me, Verb::Get(word(me, W_TOK_START))).0
        } else {
            0
        };
        (
            Token {
                round,
                created,
                consumed,
                start_ns,
                ..Token::default()
            },
            c,
        )
    }

    /// Write the token into `to`'s slot: a 24-byte one-sided put (32 bytes
    /// with the start stamp armed runs add).
    fn put_token(m: &mut Machine, me: WorkerId, to: WorkerId, tok: Token, armed: bool) -> VTime {
        let cost = m.call(me, Verb::Put(word(to, W_TOK_ROUND), tok.round)).1;
        m.post_unsignaled(me, Verb::Put(word(to, W_TOK_CREATED), tok.created));
        m.post_unsignaled(me, Verb::Put(word(to, W_TOK_CONSUMED), tok.consumed));
        if armed {
            m.post_unsignaled(me, Verb::Put(word(to, W_TOK_START), tok.start_ns));
        }
        cost
    }

    /// Mark `d` confirmed dead: replay my lineage batches to it and adopt
    /// the root if I am now responsible for it.
    fn confirm(&mut self, d: WorkerId, w: &mut BotWorld) -> VTime {
        if !self.ring.confirm(d) {
            return VTime::ZERO;
        }
        let me = self.me;
        let mut k = w.recovery.replay_batches(me, d, &mut w.bags[me]);
        if w.recovery
            .maybe_adopt_root(me, self.ring.dead(), &mut w.bags[me])
        {
            k += 1;
        }
        if k > 0 {
            w.counters[me].created += k;
            // Publish the new size so thieves can see the replayed work.
            return w
                .m
                .call(me, Verb::Put(word(me, W_SIZE), w.bags[me].len() as u64))
                .1;
        }
        w.m.local_op(me)
    }

    /// Termination check + token duties performed while idle. Returns the
    /// cost, and sets the machine's done flag when detection fires. The
    /// ring skips confirmed-dead workers and the initiator role falls to
    /// the lowest live worker; with nobody dead that is worker 0 seeding a
    /// plain `me + 1` ring.
    fn token_duty(&mut self, now: VTime, w: &mut BotWorld) -> VTime {
        let me = self.me;
        // Confirm every expired lease first. The scan reads a local mirror
        // (step bookkeeping, like the `ring.is_dead` checks) and charges
        // nothing; only an actual confirmation costs time.
        let mut cost = VTime::ZERO;
        for p in self.ring.confirmable(&mut w.m, now) {
            cost += self.confirm(p, w);
        }
        if !w.bags[me].is_empty() {
            // A confirmation just replayed work into my bag: go run it
            // before doing token duty (the caller re-checks state).
            return cost;
        }
        let cnt = w.counters[me];
        let Some(succ) = self.ring.succ_live() else {
            // Alone (or every other worker is confirmed dead; transfer-
            // counted steals make my own balance equivalent to my bag
            // being empty).
            self.ring.solo_round(&mut w.m, cnt);
            w.note_round(&self.ring);
            return cost + w.m.local_op(me);
        };
        let (tok, c) = Self::read_token(&mut w.m, me, self.armed);
        cost += c;
        let initiator = me == self.ring.initiator();
        if initiator {
            if let Some(reduce) = self.ring.complete(&tok, &mut w.m) {
                w.note_round(&self.ring);
                if w.m.is_done() {
                    return cost + reduce;
                }
            }
        }
        // Anything to put into the successor's slot? The initiator seeds a
        // round when it has none outstanding; a forwarder passes on a round
        // it has not served yet, unless its seeder can no longer fire it.
        let put = if initiator {
            !self.ring.outstanding()
        } else {
            tok.round > self.ring.forwarded_round() && self.ring.live_seeder(tok.round, &w.m)
        };
        if !put {
            return cost;
        }
        if let Some(fail) = w.m.dead_guard(me, succ, now) {
            // Successor died inside its lease window: the put fails fast;
            // hold the token and retry once the lease confirms the hole.
            return cost + fail;
        }
        let out = if initiator {
            self.ring.seed(&w.m, now, cnt)
        } else {
            self.ring.fold(tok, cnt)
        };
        cost + Self::put_token(&mut w.m, me, succ, out, self.armed)
    }

    fn step_work(&mut self, now: VTime, w: &mut BotWorld) -> Step {
        let me = self.me;
        // Respect a thief holding our bag lock.
        let (lock, _) = w.m.call(me, Verb::Get(word(me, W_LOCK)));
        if lock != 0 {
            let holder = (lock - 1) as usize;
            if self.ring.is_dead(holder) || w.m.confirmed_dead(holder, now) {
                // The take is a single atomic step, so a thief that died
                // holding our lock transferred nothing: break the lock.
                let mut cost = self.confirm(holder, w);
                cost += w.m.call(me, Verb::Put(word(me, W_LOCK), 0)).1;
                return Step::Yield(cost);
            }
            // Wait for the release: re-read the lock every local op, or park
            // on it — each skipped wait is this read plus that local op.
            let wait = w.m.local_op(me);
            if w.may_park {
                w.m.park_on_own_word(me, word(me, W_LOCK).off, wait, 2, VTime::MAX);
                return Step::Park;
            }
            return Step::Yield(wait);
        }
        let Some(task) = w.bags[me].pop() else {
            self.state = BState::Idle;
            return Step::Yield(w.m.local_op(me));
        };
        let (n_children, obs, cost) = self.work.execute(task, &mut w.bags[me], self.scale);
        let cnt = &mut w.counters[me];
        cnt.consumed += 1;
        cnt.created += n_children as u64;
        if let Some((id, delta)) = obs {
            cnt.nodes += delta;
            if self.armed {
                w.recovery.collector.observe(id, delta);
            }
        }
        // Owner-side size update (local put).
        let size = w.bags[me].len() as u64;
        let c2 = w.m.call(me, Verb::Put(word(me, W_SIZE), size)).1;
        Step::Yield(cost + c2)
    }

    fn step_idle(&mut self, now: VTime, w: &mut BotWorld) -> Step {
        let me = self.me;
        if w.m.is_done() {
            // Terminating with work in the bag is a detector bug; it is left
            // observable (not asserted) so schedule exploration can report
            // it: plain runs catch it via the post-run created == consumed
            // assert, hooked runs via `BotCheckOutcome::bags_nonempty`.
            self.halted = true;
            return Step::Halt;
        }
        if !w.bags[me].is_empty() {
            self.state = BState::Work;
            return Step::Yield(w.m.local_op(me));
        }
        let mut cost = self.token_duty(now, w);
        if !w.bags[me].is_empty() {
            // Lineage replay refilled the bag mid-duty.
            self.state = BState::Work;
            return Step::Yield(cost);
        }
        if self.n >= 2 {
            let victim = self.rng.victim(self.n, me);
            if self.ring.is_dead(victim) {
                self.steals_failed += 1;
            } else if let Some(fail) = w.m.dead_guard(me, victim, now) {
                cost += fail;
                self.steals_failed += 1;
            } else {
                let (old, c) =
                    w.m.call(me, Verb::Cas(word(victim, W_LOCK), 0, me as u64 + 1));
                cost += c;
                if old == 0 {
                    self.state = BState::StealTake { victim };
                } else {
                    self.steals_failed += 1;
                }
            }
        }
        Step::Yield(cost)
    }

    fn step_steal(&mut self, now: VTime, w: &mut BotWorld, victim: WorkerId) -> Step {
        let me = self.me;
        self.state = BState::Idle;
        if let Some(fail) = w.m.dead_guard(me, victim, now) {
            // Victim died between lock and take; its lock dies with it.
            self.steals_failed += 1;
            return Step::Yield(fail);
        }
        let (size, mut cost) = w.m.call(me, Verb::Get(word(victim, W_SIZE)));
        if size < 2 {
            // Steal-half leaves half behind: a lone task stays with its
            // owner. Taking the last task would allow a two-worker
            // ping-pong where each side steals it back while the other is
            // lock-blocked, so the task is never executed.
            cost += w.m.post_unsignaled(me, Verb::Put(word(victim, W_LOCK), 0));
            self.steals_failed += 1;
            return Step::Yield(cost);
        }
        let k = match self.amount {
            StealAmount::Half => (size / 2) as usize,
            StealAmount::One => 1,
        };
        // Steal the *oldest* half: they root the largest subtrees.
        let stolen: Vec<Task> = w.bags[victim].drain(..k).collect();
        // The size update, the lock release and the task-block read are one
        // window: the payload read races nothing (the batch slots are ours
        // the moment the size shrinks, and the lock is still held when the
        // size put is posted), so an overlapping machine hides the copy
        // behind the size update's round trip instead of following it. The
        // release is unsignaled — its injection goes through the window,
        // which sums it at depth 1 instead of losing it behind the fence.
        let mut win = w.m.window(me, now + cost);
        let new_size = (size as usize - k) as u64;
        let h_size = win.posted(w.m.post(me, Verb::Put(word(victim, W_SIZE), new_size), win.at()));
        if self.armed {
            // Steal lineage: the descriptor shares the victim's 64-byte
            // control line with W_SIZE, so it rides the size put charged
            // above — same single-packet idiom as the token's trailing
            // words in `put_token` — and the payload is not re-written
            // (the batch bytes are already resident in the victim's bag
            // region; see the module doc). The transfer is counted on
            // both sides so per-worker balance mirrors bag contents.
            w.recovery.record_batch(victim, me, &stolen);
            let _ =
                w.m.post_unsignaled(me, Verb::Put(word(victim, W_JRNL), me as u64));
            w.counters[victim].consumed += k as u64;
            w.counters[me].created += k as u64;
        }
        win.unsignaled(w.m.post_unsignaled(me, Verb::Put(word(victim, W_LOCK), 0)));
        let h_copy = win.posted(w.m.post(me, Verb::GetBulk(victim, k * TASK_BYTES), win.at()));
        w.m.wait(me, h_size);
        w.m.wait(me, h_copy);
        cost = w.m.finish(&win).saturating_sub(now);
        w.bags[me].extend(stolen);
        w.m.post_unsignaled(me, Verb::Put(word(me, W_SIZE), w.bags[me].len() as u64));
        self.steals_ok += 1;
        self.state = BState::Work;
        Step::Yield(cost)
    }
}

impl Actor<BotWorld> for BotWorker {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut BotWorld) -> Step {
        debug_assert_eq!(me, self.me);
        if self.halted {
            return Step::Halt;
        }
        w.m.begin_step(me, now);
        if w.m.is_dead(me, now) {
            // Fail-stop: this worker is gone. Its resident tasks are lost
            // with it (survivors re-inject them from lineage records), and
            // any lock it holds is broken by the owner after the lease.
            w.recovery.lost_tasks += w.bags[me].len() as u64;
            w.bags[me].clear();
            self.halted = true;
            return Step::Halt;
        }
        if let Some(until) = w.m.crashed_until(me, now) {
            // Crash-stop window: freeze in place until it ends. A thief
            // frozen mid-steal keeps the victim's bag lock — the victim
            // spins on it exactly as it would on a real hung peer.
            return Step::Yield(until.saturating_sub(now).max(VTime::ns(1)));
        }
        match self.state {
            BState::Work => self.step_work(now, w),
            BState::Idle => self.step_idle(now, w),
            BState::StealTake { victim } => self.step_steal(now, w, victim),
        }
    }
}

/// Run UTS under the one-sided BoT runtime with steal-half (the
/// SAWS/Scioto configuration).
pub fn run_uts(spec: &UtsSpec, workers: usize, profile: MachineProfile, seed: u64) -> BotReport {
    run_uts_with(spec, workers, profile, seed, StealAmount::Half)
}

/// Run UTS with an explicit steal amount (ablation entry point).
pub fn run_uts_with(
    spec: &UtsSpec,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    amount: StealAmount,
) -> BotReport {
    run_uts_faulty(spec, workers, profile, seed, amount, FaultPlan::none())
}

/// [`run_uts_with`] under a fault plan. One-sided verbs already retry
/// inside the fabric (time is charged, semantics preserved); crash-stop
/// freezes need no protocol support, and `kill` entries arm the fail-stop
/// recovery bookkeeping.
pub fn run_uts_faulty(
    spec: &UtsSpec,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    amount: StealAmount,
    plan: FaultPlan,
) -> BotReport {
    let work = Workload::Uts(spec.clone());
    run_workload_fabric(&work, workers, profile, seed, amount, plan, FabricMode::Blocking)
}

/// Run PFor as a bag of ranges under the one-sided runtime.
pub fn run_pfor_faulty(
    p: PforBag,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    plan: FaultPlan,
) -> BotReport {
    let work = Workload::Pfor(p);
    let amount = StealAmount::Half;
    run_workload_fabric(&work, workers, profile, seed, amount, plan, FabricMode::Blocking)
}

/// [`run_uts`] with an explicit fabric mode (posted-verb ablation entry
/// point; Blocking is the default everywhere else).
pub fn run_uts_fabric(
    spec: &UtsSpec,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    fabric: FabricMode,
) -> BotReport {
    run_workload_fabric(
        &Workload::Uts(spec.clone()),
        workers,
        profile,
        seed,
        StealAmount::Half,
        FaultPlan::none(),
        fabric,
    )
}

/// Run any bag workload under a fault plan and an explicit fabric mode.
pub fn run_workload_fabric(
    work: &Workload,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    amount: StealAmount,
    plan: FaultPlan,
    fabric: FabricMode,
) -> BotReport {
    let mut engine = build(work, workers, profile, seed, amount, plan, fabric);
    let run = engine.run();
    let (world, actors) = engine.into_parts();
    let steals_ok = actors.iter().map(|a| a.steals_ok).sum();
    let steals_failed = actors.iter().map(|a| a.steals_failed).sum();
    world.report(&run, steals_ok, steals_failed)
}

/// Run UTS with the engine's step order chosen by `hook`, and return raw
/// observations instead of an asserted [`BotReport`] — the entry point of
/// `dcs-check`'s termination and crash-schedule oracles. The fabric mode
/// lets the checker explore interleavings at the posted-verb protocol's
/// extra yield points (between a steal's post and its completion).
pub fn run_uts_hooked_fabric<H: ScheduleHook + ?Sized>(
    spec: &UtsSpec,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    hook: &mut H,
    plan: FaultPlan,
    fabric: FabricMode,
) -> BotCheckOutcome {
    let mut engine = build(
        &Workload::Uts(spec.clone()),
        workers,
        profile,
        seed,
        StealAmount::Half,
        plan,
        fabric,
    );
    // Exploration reorders steps, which breaks the wake-instant computation.
    engine.world.may_park = false;
    let run = engine.run_with_hook(hook);
    engine.world.outcome(&run)
}

/// Assemble the machine, seeded world and worker actors of a bag run.
fn build(
    work: &Workload,
    workers: usize,
    profile: MachineProfile,
    seed: u64,
    amount: StealAmount,
    plan: FaultPlan,
    fabric: FabricMode,
) -> Engine<BotWorld, BotWorker> {
    let scale = profile.compute_scale;
    let armed = plan.recovery_armed();
    let m = Machine::new(
        MachineConfig::new(workers, profile)
            .with_seg_bytes(1 << 16)
            .with_reserved(RESERVED)
            .with_faults(plan)
            .with_fabric(fabric),
    );
    let mut world = BotWorld::new(m, work.root_task(), ());
    world.m.call(0, Verb::Put(word(0, W_SIZE), 1));

    let actors: Vec<BotWorker> = (0..workers)
        .map(|me| BotWorker {
            me,
            n: workers,
            work: work.clone(),
            amount,
            armed,
            scale,
            rng: SimRng::for_worker(seed, me),
            state: if me == 0 { BState::Work } else { BState::Idle },
            ring: Ring::new(me, workers),
            steals_ok: 0,
            steals_failed: 0,
            halted: false,
        })
        .collect();

    Engine::new(world, actors).with_waker(|w, out| w.m.take_wakeups(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_apps::uts::{presets, serial_count};
    use dcs_sim::profiles;

    #[test]
    fn counts_match_serial_various_workers() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for workers in [1, 2, 4, 8] {
            let r = run_uts(&spec, workers, profiles::test_profile(), 42);
            assert_eq!(r.nodes, expected, "P={workers}");
        }
    }

    #[test]
    fn steals_happen_and_are_bulk() {
        let spec = presets::tiny();
        let r = run_uts(&spec, 4, profiles::test_profile(), 1);
        assert!(r.steals_ok > 0);
        // Steal-half moves many tasks per steal: far fewer steals than nodes.
        assert!(r.steals_ok * 20 < r.nodes, "{} steals", r.steals_ok);
        assert_eq!(r.messages, 0, "one-sided runtime sends no messages");
    }

    #[test]
    fn termination_needs_at_least_two_rounds() {
        let spec = presets::tiny();
        let r = run_uts(&spec, 2, profiles::test_profile(), 3);
        assert!(r.token_rounds >= 2);
    }

    #[test]
    fn deterministic() {
        let spec = presets::tiny();
        let a = run_uts(&spec, 4, profiles::test_profile(), 9);
        let b = run_uts(&spec, 4, profiles::test_profile(), 9);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steals_ok, b.steals_ok);
    }

    #[test]
    fn counts_survive_transient_faults() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for workers in [2, 4, 8] {
            let plan = FaultPlan::transient(0.05, 77);
            let r = run_uts_faulty(&spec, workers, profiles::test_profile(), 19, StealAmount::Half, plan);
            assert_eq!(r.nodes, expected, "P={workers}");
            assert!(r.fabric.retries > 0, "faults should force verb retries");
        }
    }

    #[test]
    fn counts_survive_crash_window() {
        use dcs_sim::CrashWindow;
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        let plan = FaultPlan::none().with_crash(CrashWindow {
            worker: 2,
            from: VTime::us(3),
            until: VTime::us(400),
        });
        let r = run_uts_faulty(&spec, 4, profiles::test_profile(), 21, StealAmount::Half, plan);
        assert_eq!(r.nodes, expected);
    }

    #[test]
    fn no_fault_plan_is_identical_to_plain_run() {
        let spec = presets::tiny();
        let plain = run_uts(&spec, 4, profiles::test_profile(), 9);
        let none = run_uts_faulty(
            &spec,
            4,
            profiles::test_profile(),
            9,
            StealAmount::Half,
            FaultPlan::none(),
        );
        assert_eq!(plain.elapsed, none.elapsed);
        assert_eq!(plain.steps, none.steps);
        assert_eq!(plain.steals_ok, none.steals_ok);
    }

    #[test]
    fn pipelined_matches_counts_and_shortens_steals() {
        let spec = presets::small();
        let expected = serial_count(&spec).nodes;
        let blk = run_uts_fabric(&spec, 8, profiles::itoa(), 5, FabricMode::Blocking);
        let pip = run_uts_fabric(&spec, 8, profiles::itoa(), 5, FabricMode::Pipelined);
        assert_eq!(blk.nodes, expected);
        assert_eq!(pip.nodes, expected);
        assert!(pip.steals_ok > 0);
        assert!(
            pip.fabric.max_inflight >= 2,
            "steal-half must post size + payload together, got depth {}",
            pip.fabric.max_inflight
        );
        assert_eq!(blk.fabric.max_inflight, 1, "blocking never overlaps");
        assert!(
            pip.elapsed < blk.elapsed,
            "hiding the payload copy must shorten the run: {:?} vs {:?}",
            pip.elapsed,
            blk.elapsed
        );
    }

    #[test]
    fn pipelined_is_deterministic() {
        let spec = presets::tiny();
        let a = run_uts_fabric(&spec, 4, profiles::test_profile(), 9, FabricMode::Pipelined);
        let b = run_uts_fabric(&spec, 4, profiles::test_profile(), 9, FabricMode::Pipelined);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steals_ok, b.steals_ok);
        assert_eq!(a.fabric, b.fabric);
    }

    #[test]
    fn scaling_reduces_elapsed() {
        let spec = presets::small();
        let t1 = run_uts(&spec, 1, profiles::itoa(), 5).elapsed;
        let t8 = run_uts(&spec, 8, profiles::itoa(), 5).elapsed;
        let speedup = t1.as_ns() as f64 / t8.as_ns() as f64;
        assert!(speedup > 4.0, "speedup {speedup} too low");
    }

    #[test]
    fn pfor_counts_match_various_workers() {
        let p = PforBag { n: 256, grain: 8, m: VTime::us(2) };
        for workers in [1, 2, 4, 8] {
            let r = run_pfor_faulty(p, workers, profiles::test_profile(), 7, FaultPlan::none());
            assert_eq!(r.nodes, 256, "P={workers}");
        }
    }
}

#[cfg(test)]
mod steal_amount_tests {
    use super::*;
    use dcs_apps::uts::{presets, serial_count};
    use dcs_sim::profiles;

    #[test]
    fn steal_one_and_steal_half_agree_on_counts() {
        // Note: on UTS a single stolen node roots a whole subtree, so
        // steal-one is less pathological here than on flat bags; the
        // quantitative comparison lives in the ablate_stealhalf bench.
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for amount in [StealAmount::Half, StealAmount::One] {
            for p in [2usize, 4, 8] {
                let r = run_uts_with(&spec, p, profiles::itoa(), 3, amount);
                assert_eq!(r.nodes, expected, "{amount:?} P={p}");
            }
        }
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use dcs_apps::uts::{presets, serial_count};
    use dcs_sim::profiles;

    #[test]
    fn survives_single_kill_with_exact_result() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for at_us in [5u64, 50, 100] {
            let plan = FaultPlan::none().with_kill(2, VTime::us(at_us));
            let r = run_uts_faulty(&spec, 4, profiles::test_profile(), 19, StealAmount::Half, plan);
            assert_eq!(r.nodes, expected, "kill at {at_us}us");
            assert_eq!(r.dead_workers, 1);
        }
    }

    #[test]
    fn survives_killing_worker_zero() {
        // Worker 0 starts with the root and is the termination initiator:
        // both roles must migrate to the lowest live worker.
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for at_us in [3u64, 40] {
            let plan = FaultPlan::none().with_kill(0, VTime::us(at_us));
            let r = run_uts_faulty(&spec, 4, profiles::test_profile(), 23, StealAmount::Half, plan);
            assert_eq!(r.nodes, expected, "kill 0 at {at_us}us");
        }
    }

    #[test]
    fn survives_half_the_workers_dying() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        let plan = FaultPlan::none()
            .with_kill(1, VTime::us(10))
            .with_kill(3, VTime::us(60))
            .with_kill(5, VTime::us(25))
            .with_kill(7, VTime::us(120));
        let r = run_uts_faulty(&spec, 8, profiles::test_profile(), 29, StealAmount::Half, plan);
        assert_eq!(r.nodes, expected);
        assert_eq!(r.dead_workers, 4);
    }

    #[test]
    fn killed_runs_are_deterministic() {
        let spec = presets::tiny();
        let plan = FaultPlan::none()
            .with_kill(1, VTime::us(15))
            .with_kill(2, VTime::us(80));
        let a = run_uts_faulty(&spec, 4, profiles::test_profile(), 31, StealAmount::Half, plan.clone());
        let b = run_uts_faulty(&spec, 4, profiles::test_profile(), 31, StealAmount::Half, plan);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.reexec_tasks, b.reexec_tasks);
    }

    #[test]
    fn armed_without_kills_matches_fault_free_result() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        let plain = run_uts(&spec, 4, profiles::test_profile(), 9);
        let armed = run_uts_faulty(
            &spec,
            4,
            profiles::test_profile(),
            9,
            StealAmount::Half,
            FaultPlan::none().with_recovery(),
        );
        assert_eq!(armed.nodes, expected);
        assert_eq!(armed.dup_results, 0, "no kills → nothing re-executed");
        assert_eq!(armed.lost_tasks, 0);
        // Lineage tracking overhead must stay within the 2% budget.
        let ratio = armed.elapsed.as_ns() as f64 / plain.elapsed.as_ns() as f64;
        assert!(ratio <= 1.02, "armed overhead ratio {ratio}");
    }

    #[test]
    fn pfor_survives_kills() {
        let p = PforBag { n: 512, grain: 8, m: VTime::us(2) };
        let plan = FaultPlan::none()
            .with_kill(2, VTime::us(40))
            .with_kill(3, VTime::us(90));
        let r = run_pfor_faulty(p, 8, profiles::test_profile(), 11, plan);
        assert_eq!(r.nodes, 512);
    }
}
