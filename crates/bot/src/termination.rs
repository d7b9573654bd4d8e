//! Distributed termination detection for bag-of-tasks runtimes.
//!
//! A BoT worker cannot know locally that the computation is over: work may
//! be in another worker's bag or in flight inside a steal. The classic
//! solution is **Mattern's four-counter token algorithm**: a token
//! circulates the worker ring accumulating every worker's monotone
//! `created` / `consumed` counters; when two *consecutive* rounds observe
//! identical, balanced sums (`C == D`), no task can be outstanding and the
//! initiator raises the global done flag.
//!
//! There is **one ring** ([`Ring`]), and it is the crash-tolerant one. Each
//! worker owns its view of it: which peers it has confirmed dead, whether it
//! is the initiator (the lowest worker it has not confirmed dead), who its
//! next live successor is, and — while it is the initiator — the detector
//! and the round it has outstanding. The transports (one-sided puts into
//! the successor's segment, or ring messages) only carry the [`Token`]
//! record verbatim. A fault-free run is the same ring with an empty dead
//! set: the initiator is worker 0, the successor is `(me + 1) % n`, the
//! round tag is the bare sequence number and the stability rule is vacuous
//! — not a second protocol.
//!
//! **Holes in the ring.** Confirmed-dead workers are skipped, and when the
//! initiator itself dies the lowest live worker takes over. Two token
//! fields support this:
//!
//! * `round` is *tagged* with the initiator's id and incarnation epoch in
//!   its high bits ([`tag_round_epoch`]), so a stale token from a dead
//!   ex-initiator is ignored (tags only grow: a successor initiator has a
//!   higher id, hence a higher tag, than every round the dead one ever
//!   started).
//! * `start_ns` stamps the round's start; the initiator fires a balanced
//!   double round only if every death it knows of was already confirmable
//!   at that instant (the stability rule) — otherwise some worker folded
//!   its counters before replaying its lineage to the newly dead peer, and
//!   the round is void.
//!
//! The two-sided runtime additionally folds `sent`/`recv` task-transfer
//! counters: with in-flight grants, balanced created/consumed sums alone
//! would miss tasks living inside the channel. The one-sided runtime folds
//! zeros there, which reduces [`Detector::round_done4`] to the classic
//! two-counter rule.

use std::collections::BTreeSet;

use dcs_sim::{Machine, VTime, WorkerId};

use crate::Counters;

/// Token contents while circulating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Token {
    /// Round number (monotone; doubles as the "new token arrived" signal).
    /// The high bits carry the initiator id and epoch ([`tag_round_epoch`]).
    pub round: u64,
    /// Sum of `created` counters accumulated this round.
    pub created: u64,
    /// Sum of `consumed` counters accumulated this round.
    pub consumed: u64,
    /// Sum of tasks handed to live peers (two-sided runtimes).
    pub sent: u64,
    /// Sum of tasks received from live peers (two-sided runtimes).
    pub recv: u64,
    /// Virtual time (ns) the round started at the initiator (stability rule).
    pub start_ns: u64,
}

/// Bits of `Token::round` holding the initiator id; the incarnation epoch
/// sits below it and the round sequence number at the bottom.
pub const ROUND_TAG_SHIFT: u32 = 48;

/// Bits of `Token::round` holding the initiator's incarnation epoch
/// (field `[32, 48)`; the sequence number occupies the low 32 bits).
pub const ROUND_EPOCH_SHIFT: u32 = 32;

/// Tag a round with the initiator's id *and* incarnation epoch. Under a
/// message-based detector a worker id can return as a fresh incarnation,
/// so "tags only grow with the initiator id" no longer kills every stale
/// token: a zombie ex-initiator shares its successor's id-ordering. The
/// epoch field restores the invariant — receivers drop any token whose
/// epoch trails their view of the initiator's incarnation.
pub fn tag_round_epoch(initiator: usize, epoch: u64, seq: u64) -> u64 {
    debug_assert!(epoch < 1 << (ROUND_TAG_SHIFT - ROUND_EPOCH_SHIFT));
    debug_assert!(seq < 1 << ROUND_EPOCH_SHIFT);
    ((initiator as u64) << ROUND_TAG_SHIFT) | (epoch << ROUND_EPOCH_SHIFT) | seq
}

/// The initiator id carried by a tagged round.
pub fn round_initiator(round: u64) -> usize {
    (round >> ROUND_TAG_SHIFT) as usize
}

/// The initiator incarnation epoch carried by a tagged round.
pub fn round_epoch(round: u64) -> u64 {
    (round >> ROUND_EPOCH_SHIFT) & ((1 << (ROUND_TAG_SHIFT - ROUND_EPOCH_SHIFT)) - 1)
}

/// The sequence number carried by a tagged round.
pub fn round_seq(round: u64) -> u64 {
    round & ((1 << ROUND_EPOCH_SHIFT) - 1)
}

/// Is `round` from an earlier incarnation of its initiator than
/// `epoch_now` (the receiver's current view)? Such a token was seeded by
/// a zombie — evicted but not yet self-fenced — and must be ignored: its
/// counter sums predate the lineage replay of the eviction and could
/// declare termination with replayed work still outstanding.
pub fn round_from_old_incarnation(round: u64, epoch_now: u64) -> bool {
    round_epoch(round) < epoch_now
}

/// Initiator-side state: remembers the previous round's sums.
#[derive(Clone, Copy, Debug, Default)]
pub struct Detector {
    prev: Option<(u64, u64, u64, u64)>,
    pub rounds: u64,
}

impl Detector {
    /// A completed round arrived back at the initiator. Fires only when
    /// bags are globally empty (`created + recv == consumed + sent`),
    /// nothing is in flight (`sent == recv`), and the previous round saw
    /// the identical four sums.
    pub fn round_done4(&mut self, created: u64, consumed: u64, sent: u64, recv: u64) -> bool {
        self.rounds += 1;
        let snap = (created, consumed, sent, recv);
        let done = created + recv == consumed + sent && sent == recv && self.prev == Some(snap);
        self.prev = Some(snap);
        done
    }
}

/// A worker folds its four counters into a passing token.
pub fn accumulate4(tok: Token, cnt: Counters) -> Token {
    Token {
        created: tok.created + cnt.created,
        consumed: tok.consumed + cnt.consumed,
        sent: tok.sent + cnt.sent,
        recv: tok.recv + cnt.recv,
        ..tok
    }
}

/// One worker's view of the termination ring: membership (who it has
/// confirmed dead, hence who initiates and who its successor is) and the
/// Mattern state it keeps as initiator or forwarder. The transports call
/// into it; it never sends anything itself.
#[derive(Debug)]
pub struct Ring {
    me: WorkerId,
    n: usize,
    /// Peers this worker has confirmed dead via the lease registry.
    /// Sparse: only confirmed workers appear, so scans over it cost
    /// O(confirmed), not O(W).
    dead: BTreeSet<WorkerId>,
    /// Position in the machine's death-candidate feed
    /// ([`Machine::death_candidates`]); replaces an O(W) sweep per scan.
    death_cursor: usize,
    /// The lowest worker not in `dead`, and my next ring successor not in
    /// `dead` (`None` when every other worker is, or there is none) — both
    /// refreshed on every confirmation, so the per-step reads are free.
    initiator: WorkerId,
    succ_live: Option<WorkerId>,
    /// Used while this worker believes it is the initiator.
    detector: Detector,
    outstanding: bool,
    /// Highest token round this worker forwarded (non-initiators).
    forwarded_round: u64,
}

impl Ring {
    pub fn new(me: WorkerId, n: usize) -> Ring {
        Ring {
            me,
            n,
            dead: BTreeSet::new(),
            death_cursor: 0,
            initiator: 0,
            succ_live: (n > 1).then_some((me + 1) % n),
            detector: Detector::default(),
            outstanding: false,
            forwarded_round: 0,
        }
    }

    /// The confirmed-dead set (sorted).
    pub fn dead(&self) -> &BTreeSet<WorkerId> {
        &self.dead
    }

    pub fn is_dead(&self, p: WorkerId) -> bool {
        self.dead.contains(&p)
    }

    /// The lowest worker this one has not confirmed dead — every live
    /// worker converges on the same answer because confirmation is sound.
    pub fn initiator(&self) -> WorkerId {
        self.initiator
    }

    /// Next ring successor not confirmed dead; `None` when every other
    /// worker is (or there is none).
    pub fn succ_live(&self) -> Option<WorkerId> {
        self.succ_live
    }

    /// Is a round seeded by this worker still circulating?
    pub fn outstanding(&self) -> bool {
        self.outstanding
    }

    /// Rounds this worker's detector has judged or abandoned.
    pub fn rounds(&self) -> u64 {
        self.detector.rounds
    }

    pub fn forwarded_round(&self) -> u64 {
        self.forwarded_round
    }

    /// Read the locally mirrored lease registry: the peers whose lease has
    /// expired at `now` and that this worker has not confirmed yet, in
    /// increasing id order. The caller [`confirm`](Ring::confirm)s each and
    /// does its own recovery. Driven by the machine's death-candidate feed:
    /// only workers whose status could have changed since the last scan are
    /// re-checked, so total scan cost over a run is O(status changes), and
    /// an empty feed (every fault-free step) allocates nothing.
    pub fn confirmable(&mut self, m: &mut Machine, now: VTime) -> Vec<WorkerId> {
        let mut cands = Vec::new();
        m.death_candidates(&mut self.death_cursor, now, &mut cands);
        if cands.is_empty() {
            return cands;
        }
        cands.sort_unstable();
        cands.dedup();
        cands.retain(|&p| p != self.me && !self.is_dead(p) && m.confirmed_dead(p, now));
        cands
    }

    /// Mark `d` confirmed dead; `false` if it already was (or is this
    /// worker). An outstanding round may have died with the peer — in its
    /// slot or its mailbox — so it is abandoned, burning its sequence
    /// number (forwarders already recorded it), and re-seeded later.
    pub fn confirm(&mut self, d: WorkerId) -> bool {
        if d == self.me || !self.dead.insert(d) {
            return false;
        }
        if self.outstanding {
            self.detector.rounds += 1;
            self.outstanding = false;
        }
        // The dead set is sorted, so the initiator walks its prefix and the
        // successor skips only confirmed peers: O(confirmed), not O(W).
        self.initiator = (0..).zip(&self.dead).take_while(|&(i, &d)| d == i).count();
        debug_assert!(self.initiator < self.n, "self is never confirmed dead");
        self.succ_live = (1..self.n)
            .map(|d| (self.me + d) % self.n)
            .find(|&p| !self.is_dead(p));
        true
    }

    /// The tag of the round this worker would seed, or has outstanding.
    fn next_tag(&self, m: &Machine) -> u64 {
        tag_round_epoch(self.me, m.epoch_of(self.me), self.detector.rounds + 1)
    }

    /// Start a round: the initiator seeds the token with its own counters,
    /// its tag and the start stamp.
    pub fn seed(&mut self, m: &Machine, now: VTime, cnt: Counters) -> Token {
        self.outstanding = true;
        let zero = Token {
            round: self.next_tag(m),
            start_ns: now.as_ns(),
            ..Token::default()
        };
        accumulate4(zero, cnt)
    }

    /// Could `round` still fire? Not if it was seeded by an initiator this
    /// worker knows to be dead (its tag can never grow again) or by a
    /// zombie incarnation the fabric has since evicted.
    pub fn live_seeder(&self, round: u64, m: &Machine) -> bool {
        let seeder = round_initiator(round);
        !self.is_dead(seeder) && !round_from_old_incarnation(round, m.epoch_of(seeder))
    }

    /// A forwarder folds its counters into `tok` and records the round.
    pub fn fold(&mut self, tok: Token, cnt: Counters) -> Token {
        self.forwarded_round = tok.round;
        accumulate4(tok, cnt)
    }

    /// Is `tok` the return of the round this initiator has outstanding?
    /// Stale rounds, duplicates, and rounds abandoned by a confirmation
    /// are not.
    pub fn awaits(&self, tok: &Token, m: &Machine) -> bool {
        self.outstanding && tok.round == self.next_tag(m)
    }

    /// The initiator offers a token that came back. `None` unless it is the
    /// outstanding round; otherwise the round is over and judged, and the
    /// result is the cost: zero, or — when termination fires, which raises
    /// the machine's done flag — the final collective reduction of the
    /// per-worker counts (log₂ P message steps).
    pub fn complete(&mut self, tok: &Token, m: &mut Machine) -> Option<VTime> {
        if !self.awaits(tok, m) {
            return None;
        }
        self.outstanding = false;
        // Stability: every death I know of must have been confirmable when
        // this round started.
        let start = VTime::ns(tok.start_ns);
        let stable = self.dead.iter().all(|&d| m.confirmed_dead(d, start));
        let (c, k, s, r) = (tok.created, tok.consumed, tok.sent, tok.recv);
        if !(self.detector.round_done4(c, k, s, r) && stable) {
            return Some(VTime::ZERO);
        }
        m.set_done();
        let hops = (self.n as f64).log2().ceil() as u64;
        Some(VTime::ns(hops * (m.lat().message + m.lat().msg_handler)))
    }

    /// Degenerate ring (a single worker, or every peer confirmed dead):
    /// run the detector directly on this worker's own counters.
    pub fn solo_round(&mut self, m: &mut Machine, cnt: Counters) {
        let (c, k, s, r) = (cnt.created, cnt.consumed, cnt.sent, cnt.recv);
        if self.detector.round_done4(c, k, s, r) {
            m.set_done();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_sim::{profiles, FaultPlan, MachineConfig};

    fn machine(n: usize, plan: FaultPlan) -> Machine {
        Machine::new(MachineConfig::new(n, profiles::test_profile()).with_faults(plan))
    }

    fn cnt(created: u64, consumed: u64) -> Counters {
        Counters {
            created,
            consumed,
            ..Counters::default()
        }
    }

    #[test]
    fn requires_two_identical_balanced_rounds() {
        let mut d = Detector::default();
        assert!(
            !d.round_done4(10, 10, 0, 0),
            "first balanced round is not enough"
        );
        assert!(
            d.round_done4(10, 10, 0, 0),
            "second identical balanced round fires"
        );
    }

    #[test]
    fn unbalanced_rounds_never_fire() {
        let mut d = Detector::default();
        assert!(!d.round_done4(10, 8, 0, 0));
        assert!(
            !d.round_done4(10, 8, 0, 0),
            "equal but unbalanced sums must not fire"
        );
        assert!(!d.round_done4(10, 10, 0, 0));
        assert!(d.round_done4(10, 10, 0, 0));
    }

    #[test]
    fn progress_between_rounds_resets() {
        let mut d = Detector::default();
        assert!(!d.round_done4(10, 10, 0, 0));
        // New work appeared (a task created and consumed between rounds).
        assert!(!d.round_done4(12, 12, 0, 0));
        assert!(d.round_done4(12, 12, 0, 0));
        assert_eq!(d.rounds, 3);
    }

    #[test]
    fn in_flight_transfers_hold_the_detector_back() {
        let mut d = Detector::default();
        // Bags balance only through a batch still inside the channel.
        assert!(!d.round_done4(10, 7, 3, 0));
        assert!(!d.round_done4(10, 7, 3, 0));
        assert!(!d.round_done4(10, 10, 3, 3));
        assert!(d.round_done4(10, 10, 3, 3));
    }

    #[test]
    fn token_accumulation() {
        let m = machine(3, FaultPlan::none());
        let t0 = Ring::new(0, 3).seed(&m, VTime::ZERO, cnt(5, 3));
        assert_eq!(t0.round, 1);
        let mut fwd = Ring::new(1, 3);
        let t1 = fwd.fold(t0, cnt(2, 4));
        assert_eq!(
            t1,
            Token {
                round: 1,
                created: 7,
                consumed: 7,
                ..Token::default()
            }
        );
        assert_eq!(fwd.forwarded_round(), 1);
    }

    #[test]
    fn epoch_zero_tag_is_the_bare_sequence_number() {
        // Nothing evicts in a bot run without the message detector, so
        // every golden runs at epoch 0 and worker 0's tag bytes are the
        // plain round counter.
        for (i, seq) in [(0usize, 1u64), (3, 7), (15, 1 << 20)] {
            let tag = tag_round_epoch(i, 0, seq);
            assert_eq!(round_initiator(tag), i);
            assert_eq!(round_epoch(tag), 0);
            assert_eq!(round_seq(tag), seq);
            assert_eq!(tag_round_epoch(0, 0, seq), seq);
        }
    }

    #[test]
    fn epoch_tag_round_trips_and_orders_incarnations() {
        let old = tag_round_epoch(2, 0, 9);
        let new = tag_round_epoch(2, 1, 1);
        assert_eq!(round_initiator(new), 2);
        assert_eq!(round_epoch(new), 1);
        assert_eq!(round_seq(new), 1);
        // A rejoined initiator's very first round outranks every round its
        // dead incarnation ever started, so `round > forwarded_round`
        // forwarding still works unchanged.
        assert!(new > old);
        // And the zombie's stale token is recognisably old.
        assert!(round_from_old_incarnation(old, 1));
        assert!(!round_from_old_incarnation(new, 1));
        assert!(!round_from_old_incarnation(new, 0));
    }

    #[test]
    fn seeded_round_carries_id_epoch_and_start_stamp() {
        let mut m = machine(2, FaultPlan::none());
        for _ in 0..3 {
            m.evict(1);
        }
        let mut ring = Ring::new(1, 2);
        ring.confirm(0);
        let tok = ring.seed(&m, VTime::ns(50), cnt(4, 4));
        assert_eq!(round_initiator(tok.round), 1);
        assert_eq!(round_epoch(tok.round), 3);
        assert_eq!(round_seq(tok.round), 1);
        assert_eq!(tok.start_ns, 50);
        // Every peer's view of worker 1 is at epoch 3: the round is live.
        assert!(Ring::new(0, 2).live_seeder(tok.round, &m));
        m.evict(1);
        assert!(!Ring::new(0, 2).live_seeder(tok.round, &m));
    }

    /// Simulated ring: N workers with fixed counter snapshots; verify the
    /// detector fires exactly when global sums balance twice.
    #[test]
    fn ring_simulation() {
        let workers = [cnt(4, 4), cnt(3, 3), cnt(2, 2)];
        let mut m = machine(3, FaultPlan::none());
        let mut rings: Vec<Ring> = (0..3).map(|me| Ring::new(me, 3)).collect();
        for round in 0..3 {
            let mut tok = rings[0].seed(&m, VTime::ZERO, workers[0]);
            for p in 1..3 {
                assert_eq!(rings[p - 1].succ_live(), Some(p));
                tok = rings[p].fold(tok, workers[p]);
            }
            let cost = rings[0]
                .complete(&tok, &mut m)
                .expect("the outstanding round");
            assert_eq!(m.is_done(), round >= 1, "round {round}");
            assert_eq!(
                cost > VTime::ZERO,
                m.is_done(),
                "only the firing round pays the reduce"
            );
            if m.is_done() {
                break;
            }
        }
        assert_eq!(rings[0].rounds(), 2);
    }

    #[test]
    fn empty_dead_set_is_the_plain_ring() {
        for n in [2usize, 3, 8] {
            for me in 0..n {
                let ring = Ring::new(me, n);
                assert_eq!(ring.initiator(), 0);
                assert_eq!(ring.succ_live(), Some((me + 1) % n));
            }
        }
        assert_eq!(Ring::new(0, 1).initiator(), 0);
        assert_eq!(Ring::new(0, 1).succ_live(), None);
        let mut m = machine(4, FaultPlan::none());
        let mut ring = Ring::new(0, 4);
        for seq in 1..=3 {
            let tok = ring.seed(&m, VTime::us(seq), cnt(1, 0));
            assert_eq!(tok.round, seq, "the seeded tag is the bare sequence number");
            assert!(ring.live_seeder(tok.round, &m));
            assert_eq!(ring.complete(&tok, &mut m), Some(VTime::ZERO));
        }
    }

    #[test]
    fn initiator_and_successor_skip_exactly_the_confirmed() {
        let mut ring = Ring::new(3, 6);
        assert!(ring.confirm(0));
        assert_eq!(ring.initiator(), 1);
        assert_eq!(ring.succ_live(), Some(4));
        assert!(ring.confirm(1));
        assert_eq!(ring.initiator(), 2);
        // A non-prefix set: 4 and 5 are holes after me, 2 is still alive.
        assert!(ring.confirm(4));
        assert!(ring.confirm(5));
        assert_eq!(ring.initiator(), 2);
        assert_eq!(ring.succ_live(), Some(2), "wraps past 4, 5, 0, 1");
        assert!(ring.confirm(2));
        assert_eq!(ring.initiator(), 3, "the last survivor initiates");
        assert_eq!(ring.succ_live(), None);
        assert!(!ring.confirm(2), "already confirmed");
        assert!(!ring.confirm(3), "self is never confirmed");
        assert_eq!(
            ring.dead().iter().copied().collect::<Vec<_>>(),
            [0, 1, 2, 4, 5]
        );
    }

    #[test]
    fn confirm_with_a_round_outstanding_burns_one_sequence_number() {
        let m = machine(4, FaultPlan::none());
        let mut ring = Ring::new(0, 4);
        assert!(ring.confirm(3));
        assert_eq!(ring.rounds(), 0, "nothing outstanding: nothing burned");
        let lost = ring.seed(&m, VTime::ZERO, cnt(1, 1));
        assert!(ring.outstanding());
        assert!(ring.confirm(2));
        assert!(!ring.outstanding());
        assert_eq!(ring.rounds(), 1);
        assert!(!ring.confirm(2));
        assert_eq!(ring.rounds(), 1, "a repeated confirmation burns nothing");
        let next = ring.seed(&m, VTime::ZERO, cnt(1, 1));
        assert_eq!(round_seq(next.round), round_seq(lost.round) + 1);
        assert!(
            !ring.awaits(&lost, &m),
            "the abandoned round can no longer complete"
        );
    }

    #[test]
    fn only_the_outstanding_round_reaches_the_detector() {
        let mut m = machine(2, FaultPlan::none());
        let mut ring = Ring::new(0, 2);
        let idle = Token {
            round: 1,
            created: 5,
            consumed: 5,
            ..Token::default()
        };
        assert_eq!(ring.complete(&idle, &mut m), None, "nothing outstanding");
        let tok = ring.seed(&m, VTime::ZERO, cnt(5, 5));
        for stale in [0, 2, tag_round_epoch(1, 0, 1)] {
            assert_eq!(
                ring.complete(
                    &Token {
                        round: stale,
                        ..tok
                    },
                    &mut m
                ),
                None
            );
        }
        assert_eq!(ring.rounds(), 0, "no stale token was counted");
        assert_eq!(ring.complete(&tok, &mut m), Some(VTime::ZERO));
        assert_eq!(ring.rounds(), 1);
        // The stale-held-duplicate bug: a fabric duplicate of the round
        // just judged (held while the initiator was busy) is offered again.
        // Counting it would let one real balanced round satisfy the
        // two-round rule.
        assert_eq!(ring.complete(&tok, &mut m), None);
        ring.seed(&m, VTime::ZERO, cnt(5, 5));
        assert_eq!(
            ring.complete(&tok, &mut m),
            None,
            "still round 1, not the outstanding 2"
        );
        assert_eq!(ring.rounds(), 1);
        assert!(!m.is_done());
    }

    #[test]
    fn a_death_after_the_round_started_voids_it() {
        let plan = FaultPlan::none().with_kill(2, VTime::us(10));
        let lease = plan.lease;
        let mut m = machine(3, plan);
        let mut ring = Ring::new(0, 3);
        assert!(
            ring.confirmable(&mut m, VTime::us(10)).is_empty(),
            "lease not expired yet"
        );
        // Two balanced rounds that started before the death was confirmable.
        let early = VTime::us(5);
        let t1 = ring.seed(&m, early, cnt(3, 3));
        assert_eq!(ring.complete(&t1, &mut m), Some(VTime::ZERO));
        let t2 = ring.seed(&m, early, cnt(3, 3));
        let confirmed_at = VTime::us(10) + lease;
        assert_eq!(ring.confirmable(&mut m, confirmed_at), [2]);
        assert!(ring.confirm(2));
        assert!(
            ring.confirmable(&mut m, confirmed_at).is_empty(),
            "the feed is consumed"
        );
        assert_eq!(
            ring.complete(&t2, &mut m),
            None,
            "abandoned by the confirmation"
        );
        // Same sums again, but this round still predates the confirmation:
        // identical and balanced, yet unstable.
        let t3 = ring.seed(&m, early, cnt(3, 3));
        assert_eq!(ring.complete(&t3, &mut m), Some(VTime::ZERO));
        assert!(!m.is_done());
        let t4 = ring.seed(&m, confirmed_at, cnt(3, 3));
        assert!(ring
            .complete(&t4, &mut m)
            .is_some_and(|reduce| reduce > VTime::ZERO));
        assert!(m.is_done());
    }
}
