//! Two-sided (message-based) bag-of-tasks work stealing.
//!
//! Models the Charm++/ParSSSE and X10/GLB comparators of Fig. 8. A steal is
//! a *request/reply* exchange: the thief sends a `Request`, the victim must
//! poll its mailbox between tasks, handle the message (receiver CPU cost),
//! and reply with half its bag or a denial. Two variants share the actor:
//!
//! * [`Variant::Random`] — Charm++-style: idle workers keep issuing
//!   requests to uniformly random victims.
//! * [`Variant::Lifeline`] — X10/GLB-style: after `w` failed random
//!   attempts the thief registers on its hypercube *lifeline* neighbours and
//!   goes quiescent; victims push half their surplus to an armed lifeline
//!   as they generate work (Saraswat et al.).
//!
//! Termination is the Mattern token circulating as a ring message. The ring
//! itself — who initiates, who the successor is, when a round counts — is
//! [`crate::termination::Ring`], shared with the one-sided runtime; this
//! file only carries its token in `Msg::Token` and keeps the transport's
//! own state (`held_token`, `sent_cache`, the RTO re-seed).
//!
//! ## Waiting
//!
//! A thief waiting for its reply, and a lifeline worker with every
//! neighbour armed, have nothing to do but poll the mailbox (and the done
//! flag) once per local op. In a fault-free run such a worker parks on its
//! mailbox instead ([`Machine::park_on_mailbox`]) and is resumed at the poll
//! that would have received the next message — same virtual timeline, same
//! `local_ops`, a fraction of the host steps. Under a fault plan the
//! timeouts below are evaluated per poll, so everybody polls.
//!
//! ## Fault tolerance
//!
//! Under an active [`FaultPlan`] the fabric may drop or duplicate
//! messages. The protocol stays correct by construction:
//!
//! * task-carrying messages (`Grant`, `Push`) travel on a *reliable* channel
//!   (the NIC retransmits until delivery, possibly delivering twice); each
//!   carries a per-sender sequence number and receivers drop duplicates, so
//!   every task moves exactly once;
//! * control messages (`Request`, `Deny`, `Lifeline`) are droppable: a thief
//!   whose request or reply is lost times out, counts a failed steal and
//!   retries; lifelines are re-armed after a timeout (arming is idempotent);
//! * the termination token is droppable but *retransmitted idempotently*:
//!   the initiator re-seeds a silent round after a timeout, and every worker
//!   caches the exact token it forwarded for the current round — a duplicate
//!   or retransmitted token triggers a verbatim re-send, so the wave always
//!   reaches the break and never double-counts.
//!
//! ## Fail-stop recovery
//!
//! The protocol is crash-tolerant as written (see `docs/PROTOCOLS.md`):
//! its liveness checks are vacuous while nobody has been killed, so a
//! fault-free run executes the same token state machine as a run that
//! survives kills. A recovery-armed plan (`kill=W@T` entries or
//! `recover=on`) adds the bookkeeping that costs host time: lineage
//! records, the head-node collector and the `sent`/`recv` transfer counts.
//! On top of the lineage/replay machinery shared with the one-sided
//! runtime, two-sided stealing has **in-flight tasks**: a granted batch
//! lives in the channel, in neither bag. The termination fold therefore
//! carries four counters (`created`, `consumed`, `sent`, `recv` — the last
//! two stay zero unarmed) and fires only when the live sums balance *and*
//! `sent == recv`. When a worker confirms a peer dead it (a) replays every
//! batch it granted or pushed to it, (b) relabels tasks it had received
//! from it as locally created, and (c) excludes its channel with the dead
//! peer from the `sent`/`recv` folds — messages from a confirmed-dead
//! sender are fenced off (rejected) so those adjustments stay final.

use std::collections::VecDeque;

use dcs_apps::uts::UtsSpec;
use dcs_sim::{
    Actor, Engine, FaultPlan, Machine, MachineConfig, MachineProfile, Mailbox, SimRng, Step,
    VTime, WorkerId,
};

use crate::termination::{Ring, Token};
use crate::{BotReport, BotWorld, Counters, PforBag, Task, Workload, TASK_BYTES};

/// Which two-sided strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Random request/reply stealing (Charm++-like).
    Random,
    /// Random attempts, then hypercube lifelines (X10/GLB-like).
    Lifeline,
}

/// Messages exchanged between workers. Task-carrying messages carry a
/// per-sender sequence number so receivers can drop fabric duplicates.
#[derive(Clone, Debug)]
pub enum Msg {
    Request,
    Grant(u64, Vec<Task>),
    Deny,
    /// Arm a lifeline from the sender to the receiver.
    Lifeline,
    /// Work pushed down an armed lifeline.
    Push(u64, Vec<Task>),
    Token(Token),
}

/// Shared state of a two-sided BoT run: the bag world plus the mailbox.
pub type TwoWorld = BotWorld<Mailbox<Msg>>;

/// Random-attempt budget before falling back to lifelines.
const RANDOM_ATTEMPTS: u32 = 2;
/// Minimum bag size before a victim grants/pushes half.
const SURPLUS: usize = 2;

struct TwoWorker {
    me: WorkerId,
    n: usize,
    variant: Variant,
    work: Workload,
    armed: bool,
    scale: f64,
    rng: SimRng,
    /// Outstanding steal request: `(victim, sent_at)` — the timestamp drives
    /// the reply timeout under fault injection.
    pending: Option<(WorkerId, VTime)>,
    fails: u32,
    /// Lifelines registered *on this worker* (armed, FIFO for fairness).
    armed_on_me: VecDeque<WorkerId>,
    /// My hypercube lifeline neighbours: `me ^ 2^k`, for every `k` that
    /// lands inside the machine.
    neighbours: Vec<WorkerId>,
    /// Which of my lifeline neighbours I currently have armed.
    my_armed: Vec<WorkerId>,
    /// When the lifelines were (last) armed, for fault re-arming.
    armed_at: VTime,
    ring: Ring,
    /// Token held while busy.
    held_token: Option<Token>,
    /// Initiator: when the current round's token was (re)sent.
    round_sent: VTime,
    /// The exact token sent for the current round (seed for the initiator,
    /// accumulated token otherwise): re-sent verbatim on duplicates and
    /// retransmissions so the wave is idempotent.
    sent_cache: Option<Token>,
    /// Next sequence number for task-carrying sends.
    send_seq: u64,
    /// Highest task-message sequence accepted per sender (dup filter).
    /// Sparse: only senders this worker has actually heard from appear;
    /// an absent entry means sequence 0.
    seen_seq: std::collections::BTreeMap<WorkerId, u64>,
    /// Tasks sent to / received from each peer (recovery bookkeeping).
    /// Sparse: only channels that actually carried tasks appear.
    sent_to: std::collections::BTreeMap<WorkerId, u64>,
    recv_from: std::collections::BTreeMap<WorkerId, u64>,
    /// Totals excluded from the `sent`/`recv` folds: channel traffic with
    /// peers now confirmed dead.
    sent_dead: u64,
    recv_dead: u64,
    /// Reply/retransmit timeout (fault runs only).
    rto: VTime,
    steals_ok: u64,
    steals_failed: u64,
    halted: bool,
}

/// The hypercube lifeline neighbours of `me` among `n` workers.
fn lifeline_neighbours(me: WorkerId, n: usize) -> Vec<WorkerId> {
    let mut out = Vec::new();
    let mut bit = 1;
    while bit < n {
        let nb = me ^ bit;
        if nb < n {
            out.push(nb);
        }
        bit <<= 1;
    }
    out
}

impl TwoWorker {
    /// This worker's counters as the token fold sees them: `sent`/`recv`
    /// exclude channels with confirmed-dead peers.
    fn live_counters(&self, w: &TwoWorld) -> Counters {
        let c = w.counters[self.me];
        Counters {
            sent: c.sent - self.sent_dead,
            recv: c.recv - self.recv_dead,
            ..c
        }
    }

    /// Mark `d` confirmed dead: replay granted batches, re-label tasks
    /// received from it, fence its channel out of the folds, and drop any
    /// protocol state pointing at it.
    fn confirm(&mut self, d: WorkerId, w: &mut TwoWorld) {
        let seeded = self.ring.outstanding();
        if !self.ring.confirm(d) {
            return;
        }
        if seeded {
            // The ring abandoned my outstanding round: nothing to re-send.
            self.sent_cache = None;
        }
        let me = self.me;
        // Re-inject the batches granted to the dead peer. No `created`
        // adjustment: excluding the channel via `sent_dead` below already
        // puts those tasks back on this worker's books — the re-injection
        // is the physical side of that same correction.
        w.recovery.replay_batches(me, d, &mut w.bags[me]);
        let mut add = 0;
        if w.recovery
            .maybe_adopt_root(me, self.ring.dead(), &mut w.bags[me])
        {
            add += 1;
        }
        // Tasks received from the dead peer are re-labelled as locally
        // created: with its channel fenced off the transfer never happened
        // as far as the folds are concerned.
        let recv_d = self.recv_from.get(&d).copied().unwrap_or(0);
        add += recv_d;
        self.sent_dead += self.sent_to.get(&d).copied().unwrap_or(0);
        self.recv_dead += recv_d;
        w.counters[me].created += add;
        // Drop protocol state aimed at the dead peer.
        if matches!(self.pending, Some((v, _)) if v == d) {
            self.pending = None;
            self.fails += 1;
            self.steals_failed += 1;
        }
        self.armed_on_me.retain(|&p| p != d);
        self.my_armed.retain(|&p| p != d);
    }

    /// Confirm every peer whose lease has expired (a free read of the
    /// local lease mirror; see [`Ring::confirmable`]).
    fn scan_confirm(&mut self, now: VTime, w: &mut TwoWorld) {
        for p in self.ring.confirmable(&mut w.m, now) {
            self.confirm(p, w);
        }
    }

    /// Send `msg`; `droppable` selects the channel class. Task-carrying
    /// messages go on the reliable channel (`droppable = false`: the fabric
    /// may duplicate but never lose them); control traffic is droppable.
    fn send(&mut self, w: &mut TwoWorld, now: VTime, to: WorkerId, msg: Msg, droppable: bool) -> VTime {
        let cost = w.m.message_sent(self.me);
        self.post(w, now, to, msg, cost, droppable)
    }

    fn send_tasks(&mut self, w: &mut TwoWorld, now: VTime, to: WorkerId, msg: Msg, k: usize) -> VTime {
        let cost = w.m.message_sent(self.me) + w.m.lat().payload(k * TASK_BYTES);
        self.post(w, now, to, msg, cost, false)
    }

    /// Put `msg` into `to`'s mailbox, one message latency after the sender
    /// has paid `cost`, and wake `to` if it is parked there.
    fn post(&mut self, w: &mut TwoWorld, now: VTime, to: WorkerId, msg: Msg, cost: VTime, droppable: bool) -> VTime {
        let deliver = now + cost + VTime::ns(w.m.lat().message);
        let redeliver = deliver + VTime::ns(w.m.lat().message);
        let fate = w.m.msg_fate(self.me, droppable);
        w.net.send_with_fate(self.me, to, deliver, redeliver, fate, msg);
        if let Some(at) = w.net.next_delivery(to) {
            w.m.note_delivery(to, at);
        }
        cost
    }

    /// Grant or push `k` tasks to `to`, with recovery bookkeeping: the
    /// batch is recorded as lineage before it leaves, and the transfer is
    /// counted on the sender side.
    fn give_tasks(&mut self, w: &mut TwoWorld, now: VTime, to: WorkerId, push: bool) -> VTime {
        let me = self.me;
        let k = w.bags[me].len() / 2;
        let tasks: Vec<Task> = w.bags[me].drain(..k).collect();
        if self.armed {
            w.recovery.record_batch(me, to, &tasks);
            w.counters[me].sent += k as u64;
            *self.sent_to.entry(to).or_insert(0) += k as u64;
        }
        self.send_seq += 1;
        let seq = self.send_seq;
        let msg = if push { Msg::Push(seq, tasks) } else { Msg::Grant(seq, tasks) };
        self.send_tasks(w, now, to, msg, k)
    }

    /// Accept a task batch from `from` (recovery bookkeeping).
    fn accept_tasks(&mut self, w: &mut TwoWorld, from: WorkerId, tasks: Vec<Task>) -> VTime {
        let me = self.me;
        let cost = w.m.lat().payload(tasks.len() * TASK_BYTES);
        if self.armed {
            w.counters[me].recv += tasks.len() as u64;
            *self.recv_from.entry(from).or_insert(0) += tasks.len() as u64;
        }
        w.bags[me].extend(tasks);
        cost
    }

    /// Forward (or hold) a token per Mattern's ring, dropping stale rounds
    /// and answering duplicates with the cached out-token.
    fn on_token(&mut self, w: &mut TwoWorld, now: VTime, tok: Token) -> VTime {
        if !self.ring.live_seeder(tok.round, &w.m) {
            return VTime::ZERO; // a dead or evicted initiator's round can never fire
        }
        if self.me == self.ring.initiator() {
            if !self.ring.awaits(&tok, &w.m) {
                // Only the return of the outstanding round counts; stale
                // rounds and duplicates are dropped.
                return VTime::ZERO;
            }
        } else if tok.round <= self.ring.forwarded_round() {
            // Duplicate (or initiator retransmission) of a round this
            // worker already served: re-send the cached out-token verbatim
            // so the wave survives a downstream drop.
            if let (Some(out), Some(succ)) = (self.sent_cache, self.ring.succ_live()) {
                return self.send(w, now, succ, Msg::Token(out), true);
            }
            return VTime::ZERO;
        } else if self.held_token.is_some_and(|h| h.round >= tok.round) {
            return VTime::ZERO; // duplicate of the token being held
        }
        if !w.bags[self.me].is_empty() {
            self.held_token = Some(tok);
            return VTime::ZERO;
        }
        self.forward_token(w, now, tok)
    }

    /// Serve a token with an empty bag: the initiator judges the round, a
    /// forwarder folds its counters in and passes it on.
    fn forward_token(&mut self, w: &mut TwoWorld, now: VTime, tok: Token) -> VTime {
        // Confirm every expired lease before folding, so lineage replays
        // land in the counters this fold reports.
        self.scan_confirm(now, w);
        if !w.bags[self.me].is_empty() {
            // A replay refilled the bag: hold the token until done.
            self.held_token = Some(tok);
            return VTime::ZERO;
        }
        if self.me == self.ring.initiator() {
            // `None`: a held duplicate of a round already judged, or one a
            // confirmation abandoned since it was accepted. Feeding it to
            // the detector again would let a single balanced round satisfy
            // the two-round rule.
            let Some(reduce) = self.ring.complete(&tok, &mut w.m) else {
                return VTime::ZERO;
            };
            self.sent_cache = None;
            w.note_round(&self.ring);
            reduce
        } else {
            let Some(succ) = self.ring.succ_live() else {
                return VTime::ZERO; // everyone else died: initiator duty next idle step
            };
            let out = self.ring.fold(tok, self.live_counters(w));
            self.sent_cache = Some(out);
            self.send(w, now, succ, Msg::Token(out), true)
        }
    }

    /// Handle one incoming message; returns its cost.
    fn handle(&mut self, w: &mut TwoWorld, now: VTime, from: WorkerId, msg: Msg) -> VTime {
        let me = self.me;
        let mut cost = w.m.message_handled(me);
        if self.ring.is_dead(from) && !matches!(msg, Msg::Token(_)) {
            // Epoch fencing: traffic from a confirmed-dead sender is
            // rejected — its batches were already replayed and its channel
            // excluded from the folds, so accepting now would double-count.
            return cost;
        }
        match msg {
            Msg::Request => {
                if w.bags[me].len() >= SURPLUS {
                    let k = w.bags[me].len() / 2;
                    cost += self.give_tasks(w, now, from, false);
                    debug_assert!(k >= 1);
                } else {
                    cost += self.send(w, now, from, Msg::Deny, true);
                }
            }
            Msg::Grant(seq, tasks) => {
                if seq > self.seen_seq.get(&from).copied().unwrap_or(0) {
                    self.seen_seq.insert(from, seq);
                    // A grant may land after the reply timeout already gave
                    // up on this victim: the tasks are still welcome, only
                    // the matching pending slot (if any) is cleared.
                    if matches!(self.pending, Some((v, _)) if v == from) {
                        self.pending = None;
                    }
                    self.fails = 0;
                    self.steals_ok += 1;
                    cost += self.accept_tasks(w, from, tasks);
                }
                // else: fabric duplicate of a grant already banked — drop.
            }
            Msg::Deny => {
                // Stale denies (after a timeout) and duplicates are ignored.
                if matches!(self.pending, Some((v, _)) if v == from) {
                    self.pending = None;
                    self.fails += 1;
                    self.steals_failed += 1;
                }
            }
            Msg::Lifeline => {
                if !self.armed_on_me.contains(&from) {
                    self.armed_on_me.push_back(from);
                }
            }
            Msg::Push(seq, tasks) => {
                self.my_armed.retain(|&v| v != from);
                if seq > self.seen_seq.get(&from).copied().unwrap_or(0) {
                    self.seen_seq.insert(from, seq);
                    cost += self.accept_tasks(w, from, tasks);
                    self.steals_ok += 1;
                }
                // else: fabric duplicate of a push already banked — drop.
            }
            Msg::Token(tok) => {
                cost += self.on_token(w, now, tok);
            }
        }
        cost
    }

    fn poll_one(&mut self, w: &mut TwoWorld, now: VTime) -> VTime {
        let mut cost = w.m.local_op(self.me);
        if let Some((from, msg)) = w.net.recv(self.me, now) {
            cost += self.handle(w, now, from, msg);
        }
        cost
    }

    /// End an idle step that has nothing left to do but poll for mail (a
    /// reply, a lifeline push, the token) or the done flag. If the step
    /// cost exactly one poll, so will every step after it until something
    /// arrives: the worker parks on its mailbox instead, on the grid those
    /// polls would have run on. The initiator only waits once its round is
    /// out — until then its next step seeds one.
    fn await_mail(&self, w: &mut TwoWorld, cost: VTime) -> Step {
        let me = self.me;
        let waiting = me != self.ring.initiator() || self.ring.outstanding();
        if w.may_park && waiting && cost == w.m.lat().local() {
            w.m.park_on_mailbox(me, w.net.next_delivery(me), cost, 1);
            return Step::Park;
        }
        Step::Yield(cost)
    }

    fn step_work(&mut self, w: &mut TwoWorld, now: VTime) -> Step {
        let me = self.me;
        // Poll between tasks — the receiver-side interruption two-sided
        // stealing imposes.
        let mut cost = self.poll_one(w, now);
        let Some(task) = w.bags[me].pop() else {
            // Release a held token before going idle.
            if let Some(tok) = self.held_token.take() {
                cost += self.forward_token(w, now, tok);
            }
            return Step::Yield(cost + w.m.local_op(me));
        };
        let (n_children, obs, c2) = self.work.execute(task, &mut w.bags[me], self.scale);
        cost += c2;
        let cnt = &mut w.counters[me];
        cnt.consumed += 1;
        cnt.created += n_children as u64;
        if let Some((id, delta)) = obs {
            cnt.nodes += delta;
            if self.armed {
                w.recovery.collector.observe(id, delta);
            }
        }
        // Lifeline distribution: feed one armed lifeline from surplus.
        if self.variant == Variant::Lifeline && w.bags[me].len() > SURPLUS {
            if let Some(dst) = self.armed_on_me.pop_front() {
                cost += self.give_tasks(w, now, dst, true);
            }
        }
        Step::Yield(cost)
    }

    fn step_idle(&mut self, w: &mut TwoWorld, now: VTime) -> Step {
        let me = self.me;
        // Woken, or never parked: either way no longer watching the mailbox.
        w.m.unpark(me);
        if w.m.is_done() {
            // Terminating with work in the bag is a detector bug; as in the
            // one-sided runtime it is left observable, for the post-run
            // check (`BotCheckOutcome::bags_nonempty`) to report.
            self.halted = true;
            return Step::Halt;
        }
        let mut cost = self.poll_one(w, now);
        self.scan_confirm(now, w);
        if !w.bags[me].is_empty() {
            return Step::Yield(cost);
        }
        // Release a token held since the busy phase.
        if let Some(tok) = self.held_token.take() {
            cost += self.forward_token(w, now, tok);
        }
        // Initiator token duty.
        if me == self.ring.initiator() {
            if !self.ring.outstanding() {
                let cnt = self.live_counters(w);
                let Some(succ) = self.ring.succ_live() else {
                    // Degenerate ring (single worker, or every peer dead).
                    self.ring.solo_round(&mut w.m, cnt);
                    w.note_round(&self.ring);
                    return Step::Yield(cost + w.m.local_op(me));
                };
                let tok = self.ring.seed(&w.m, now, cnt);
                self.round_sent = now;
                self.sent_cache = Some(tok);
                cost += self.send(w, now, succ, Msg::Token(tok), true);
            } else if w.m.faults_active() && now.saturating_sub(self.round_sent) > self.rto {
                // The wave went silent: the token (or a forward of it) was
                // probably dropped or died with a worker. Re-seed the round
                // verbatim — every hop is idempotent, so a late original
                // cannot double-count.
                if let (Some(tok), Some(succ)) = (self.sent_cache, self.ring.succ_live()) {
                    self.round_sent = now;
                    cost += self.send(w, now, succ, Msg::Token(tok), true);
                }
            }
        }
        if self.n == 1 {
            return Step::Yield(cost);
        }
        if let Some((_, at)) = self.pending {
            if w.m.faults_active() && now.saturating_sub(at) > self.rto {
                // Request or reply lost in the fabric: give up on this
                // victim, count the failure, and try elsewhere.
                self.pending = None;
                self.fails += 1;
                self.steals_failed += 1;
            } else {
                return self.await_mail(w, cost);
            }
        }
        match self.variant {
            Variant::Random => {
                let victim = self.rng.victim(self.n, me);
                if self.ring.is_dead(victim) {
                    self.steals_failed += 1;
                } else {
                    cost += self.send(w, now, victim, Msg::Request, true);
                    self.pending = Some((victim, now));
                }
            }
            Variant::Lifeline => {
                if self.fails < RANDOM_ATTEMPTS {
                    let victim = self.rng.victim(self.n, me);
                    if self.ring.is_dead(victim) {
                        self.steals_failed += 1;
                    } else {
                        cost += self.send(w, now, victim, Msg::Request, true);
                        self.pending = Some((victim, now));
                    }
                } else {
                    if w.m.faults_active()
                        && !self.my_armed.is_empty()
                        && now.saturating_sub(self.armed_at) > self.rto
                    {
                        // Arm messages may have been dropped: forget the old
                        // registrations and re-arm (arming is idempotent on
                        // the victim side).
                        self.my_armed.clear();
                    }
                    // Arm any un-armed lifelines, then wait passively.
                    let mut armed_any = false;
                    for i in 0..self.neighbours.len() {
                        let nb = self.neighbours[i];
                        if !self.ring.is_dead(nb) && !self.my_armed.contains(&nb) {
                            self.my_armed.push(nb);
                            cost += self.send(w, now, nb, Msg::Lifeline, true);
                            armed_any = true;
                        }
                    }
                    if armed_any {
                        self.armed_at = now;
                    } else {
                        return self.await_mail(w, cost);
                    }
                }
            }
        }
        Step::Yield(cost)
    }
}

impl Actor<TwoWorld> for TwoWorker {
    fn step(&mut self, me: WorkerId, now: VTime, w: &mut TwoWorld) -> Step {
        debug_assert_eq!(me, self.me);
        if self.halted {
            return Step::Halt;
        }
        w.m.begin_step(me, now);
        if w.m.is_dead(me, now) {
            // Fail-stop: resident tasks are lost with the worker; givers
            // replay them from lineage once the lease expires. Queued mail
            // is never polled again.
            w.recovery.lost_tasks += w.bags[me].len() as u64;
            w.bags[me].clear();
            self.halted = true;
            return Step::Halt;
        }
        if let Some(until) = w.m.crashed_until(me, now) {
            // Crash-stop window: freeze (mail piles up) until it ends.
            return Step::Yield(until.saturating_sub(now).max(VTime::ns(1)));
        }
        if w.bags[me].is_empty() {
            self.step_idle(w, now)
        } else {
            self.step_work(w, now)
        }
    }
}

/// Run UTS under a two-sided BoT runtime.
pub fn run_uts(
    spec: &UtsSpec,
    workers: usize,
    profile: MachineProfile,
    variant: Variant,
    seed: u64,
) -> BotReport {
    run_uts_faulty(spec, workers, profile, variant, seed, FaultPlan::none())
}

/// [`run_uts`] under a fault plan: the fabric may fail verbs, drop or
/// duplicate messages, degrade NICs, crash-stop workers and permanently
/// kill them, and the protocol must still produce the exact serial node
/// count.
pub fn run_uts_faulty(
    spec: &UtsSpec,
    workers: usize,
    profile: MachineProfile,
    variant: Variant,
    seed: u64,
    plan: FaultPlan,
) -> BotReport {
    run_workload_faulty(&Workload::Uts(spec.clone()), workers, profile, variant, seed, plan)
}

/// Run PFor as a bag of ranges under a two-sided runtime.
pub fn run_pfor_faulty(
    p: PforBag,
    workers: usize,
    profile: MachineProfile,
    variant: Variant,
    seed: u64,
    plan: FaultPlan,
) -> BotReport {
    run_workload_faulty(&Workload::Pfor(p), workers, profile, variant, seed, plan)
}

/// Run any bag workload under a fault plan.
pub fn run_workload_faulty(
    work: &Workload,
    workers: usize,
    profile: MachineProfile,
    variant: Variant,
    seed: u64,
    plan: FaultPlan,
) -> BotReport {
    let armed = plan.recovery_armed();
    let scale = profile.compute_scale;
    let m = Machine::new(
        MachineConfig::new(workers, profile)
            .with_seg_bytes(1 << 12)
            .with_faults(plan),
    );
    // Reply/retransmit timeout: generously above a round trip, so healthy
    // exchanges never trip it even under degraded-NIC scaling.
    let rto = VTime::ns((m.lat().message + m.lat().msg_handler) * 64);
    let world = BotWorld::new(m, work.root_task(), Mailbox::new(workers));

    let actors: Vec<TwoWorker> = (0..workers)
        .map(|me| TwoWorker {
            me,
            n: workers,
            variant,
            work: work.clone(),
            armed,
            scale,
            rng: SimRng::for_worker(seed, me),
            pending: None,
            fails: 0,
            armed_on_me: VecDeque::new(),
            neighbours: match variant {
                Variant::Random => Vec::new(),
                Variant::Lifeline => lifeline_neighbours(me, workers),
            },
            my_armed: Vec::new(),
            armed_at: VTime::ZERO,
            ring: Ring::new(me, workers),
            held_token: None,
            round_sent: VTime::ZERO,
            sent_cache: None,
            send_seq: 0,
            seen_seq: std::collections::BTreeMap::new(),
            sent_to: std::collections::BTreeMap::new(),
            recv_from: std::collections::BTreeMap::new(),
            sent_dead: 0,
            recv_dead: 0,
            rto,
            steals_ok: 0,
            steals_failed: 0,
            halted: false,
        })
        .collect();

    let mut engine = Engine::new(world, actors).with_waker(|w, out| w.m.take_wakeups(out));
    let run = engine.run();
    let (world, actors) = engine.into_parts();
    let steals_ok = actors.iter().map(|a| a.steals_ok).sum();
    let steals_failed = actors.iter().map(|a| a.steals_failed).sum();
    world.report(&run, steals_ok, steals_failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_apps::uts::{presets, serial_count};
    use dcs_sim::profiles;

    #[test]
    fn random_counts_match_serial() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for workers in [1, 2, 4, 8] {
            let r = run_uts(&spec, workers, profiles::test_profile(), Variant::Random, 11);
            assert_eq!(r.nodes, expected, "P={workers}");
        }
    }

    #[test]
    fn lifeline_counts_match_serial() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for workers in [1, 2, 4, 8] {
            let r = run_uts(&spec, workers, profiles::test_profile(), Variant::Lifeline, 13);
            assert_eq!(r.nodes, expected, "P={workers}");
        }
    }

    #[test]
    fn two_sided_runtimes_send_messages() {
        let spec = presets::tiny();
        let r = run_uts(&spec, 4, profiles::test_profile(), Variant::Random, 17);
        assert!(r.messages > 0);
        assert!(r.steals_ok > 0);
    }

    #[test]
    fn lifeline_cuts_failed_attempts_versus_random() {
        let spec = presets::small();
        let rnd = run_uts(&spec, 8, profiles::itoa(), Variant::Random, 23);
        let ll = run_uts(&spec, 8, profiles::itoa(), Variant::Lifeline, 23);
        assert_eq!(rnd.nodes, ll.nodes);
        assert!(
            ll.steals_failed < rnd.steals_failed,
            "lifelines should reduce failed requests: {} vs {}",
            ll.steals_failed,
            rnd.steals_failed
        );
    }

    #[test]
    fn deterministic() {
        let spec = presets::tiny();
        let a = run_uts(&spec, 4, profiles::test_profile(), Variant::Lifeline, 29);
        let b = run_uts(&spec, 4, profiles::test_profile(), Variant::Lifeline, 29);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn counts_survive_transient_faults_drops_and_dups() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for variant in [Variant::Random, Variant::Lifeline] {
            for workers in [2, 4, 8] {
                let plan = FaultPlan::transient(0.05, 91);
                let r = run_uts_faulty(&spec, workers, profiles::test_profile(), variant, 31, plan);
                assert_eq!(r.nodes, expected, "{variant:?} P={workers}");
            }
        }
    }

    /// Regression: the initiator used to feed a stale duplicate of an
    /// already-judged round — a retransmission it had parked in
    /// `held_token` while busy — to the detector a second time. That
    /// over-counted `token_rounds` (6 here) and let one real balanced round
    /// satisfy the two-round rule. The virtual timeline is unchanged: the
    /// extra "round" cost nothing, it only corrupted the detector.
    #[test]
    fn held_duplicate_of_a_judged_round_is_not_counted_again() {
        let plan = FaultPlan::parse("verb=0.02")
            .expect("plan parses")
            .with_seed(1);
        let r = run_uts_faulty(
            &presets::tiny(),
            8,
            profiles::test_profile(),
            Variant::Lifeline,
            1,
            plan,
        );
        assert_eq!(r.nodes, 3028);
        assert_eq!(r.token_rounds, 5);
        assert_eq!(r.elapsed, VTime::ns(72_136));
        assert_eq!(r.steps, 29_643);
    }

    #[test]
    fn counts_survive_crash_window() {
        use dcs_sim::CrashWindow;
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        let plan = FaultPlan::none().with_crash(CrashWindow {
            worker: 1,
            from: VTime::us(2),
            until: VTime::us(300),
        });
        for variant in [Variant::Random, Variant::Lifeline] {
            let r = run_uts_faulty(&spec, 4, profiles::test_profile(), variant, 37, plan.clone());
            assert_eq!(r.nodes, expected, "{variant:?}");
        }
    }

    #[test]
    fn faulty_runs_are_deterministic_and_no_fault_plan_is_identical() {
        let spec = presets::tiny();
        let plan = FaultPlan::transient(0.08, 5);
        let a = run_uts_faulty(&spec, 4, profiles::test_profile(), Variant::Random, 41, plan.clone());
        let b = run_uts_faulty(&spec, 4, profiles::test_profile(), Variant::Random, 41, plan);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.steals_failed, b.steals_failed);
        // The empty plan is bit-identical to the plain entry point.
        let plain = run_uts(&spec, 4, profiles::test_profile(), Variant::Random, 41);
        let none = run_uts_faulty(
            &spec,
            4,
            profiles::test_profile(),
            Variant::Random,
            41,
            FaultPlan::none(),
        );
        assert_eq!(plain.elapsed, none.elapsed);
        assert_eq!(plain.steps, none.steps);
        assert_eq!(plain.messages, none.messages);
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
        for variant in [Variant::Random, Variant::Lifeline] {
            for at_us in [5u64, 60, 120] {
                let plan = FaultPlan::none().with_kill(2, VTime::us(at_us));
                let r = run_uts_faulty(&spec, 4, profiles::test_profile(), variant, 43, plan);
                assert_eq!(r.nodes, expected, "{variant:?} kill at {at_us}us");
                assert_eq!(r.dead_workers, 1);
            }
        }
    }

    #[test]
    fn survives_killing_worker_zero() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for variant in [Variant::Random, Variant::Lifeline] {
            let plan = FaultPlan::none().with_kill(0, VTime::us(30));
            let r = run_uts_faulty(&spec, 4, profiles::test_profile(), variant, 47, plan);
            assert_eq!(r.nodes, expected, "{variant:?}");
        }
    }

    #[test]
    fn survives_half_the_workers_dying() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        let plan = FaultPlan::none()
            .with_kill(2, VTime::us(10))
            .with_kill(5, VTime::us(25))
            .with_kill(6, VTime::us(40))
            .with_kill(1, VTime::us(55));
        for variant in [Variant::Random, Variant::Lifeline] {
            let r = run_uts_faulty(&spec, 8, profiles::test_profile(), variant, 53, plan.clone());
            assert_eq!(r.nodes, expected, "{variant:?}");
            assert_eq!(r.dead_workers, 4);
        }
    }

    #[test]
    fn killed_runs_are_deterministic() {
        let spec = presets::tiny();
        let plan = FaultPlan::none().with_kill(3, VTime::us(45));
        let a = run_uts_faulty(&spec, 4, profiles::test_profile(), Variant::Lifeline, 59, plan.clone());
        let b = run_uts_faulty(&spec, 4, profiles::test_profile(), Variant::Lifeline, 59, plan);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn pfor_survives_kills() {
        let p = PforBag { n: 512, grain: 8, m: VTime::us(2) };
        let plan = FaultPlan::none().with_kill(1, VTime::us(50));
        for variant in [Variant::Random, Variant::Lifeline] {
            let r = run_pfor_faulty(p, 4, profiles::test_profile(), variant, 61, plan.clone());
            assert_eq!(r.nodes, 512, "{variant:?}");
        }
    }
}
