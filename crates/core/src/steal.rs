//! The one steal core: a resumable steal machine that every thief drives —
//! the scheduler's idle loop and `dcs-check`'s raw-deque thief alike.
//!
//! A steal spans at most three engine steps, and whatever runs between two
//! of them is an interleaving the schedule explorer can choose:
//!
//! 1. **probe** ([`probe`]): one doorbell chain over the victim ring — per
//!    victim the lock CAS and/or the `[top, bottom]` span get — committing
//!    the first victim (in ring order) that landed with work and letting go
//!    of every other;
//! 2. **take or claim** ([`resume`] at [`Stage::Won`]): take the `top` entry
//!    under the won lock, win it with one CAS on `top`, or validate its
//!    ticket; then **commit**: post the release, let the host record the
//!    take, post the payload get;
//! 3. **reap** ([`Stage::Reap`]): only when the commit left completions
//!    outstanding — wait for them and hand the item over.
//!
//! The protocol families differ only in what the thief reads, what it
//! writes and who arbitrates ("Fully Read/Write Fence-Free Work-Stealing
//! with Multiplicity" presents its variants the same way). That difference
//! is one [`Desc`] row, built by [`Desc::of`] — the one `match` on
//! [`Protocol`] — which also carries the owner's push, pop and reclaim.
//! Each step gets the thief and its row as one [`Cx`]; everything else a
//! thief does (victim selection, fencing, statistics, lineage and adoption
//! in the scheduler; the ring script and the ledger in the checker) is its
//! [`Host`]'s.

use dcs_sim::{GlobalAddr, Machine, Step, VTime, VerbHandle, Window, WorkerId};

use crate::dedup::ClaimSet;
use crate::deque::{
    ff_decide, ff_owner_push, ff_owner_reclaim, ff_pop_if, lf_owner_push, lf_pop_if,
    lf_thief_claim, lock_word, owner_push, pop_if, thief_advance_top, thief_release_lock,
    thief_take_no_release, thief_take_no_release_at, DeadSlot, DequeError, FfSteal, Popped,
    StolenEntry,
};
use crate::layout::{SegLayout, DQ_LOCK, DQ_TOP};
use crate::policy::Protocol;
use crate::world::{QueueItem, WorkerShared};

/// How the probe's winner takes the `top` entry, and what it lets go of
/// when it commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// CAS-lock: the probe CASes the lock word (it also gates the owner);
    /// take the entry under it, advance `top`, release with a signaled put.
    Lock,
    /// Lock-free: one CAS on `top` decides the entry; nothing to release.
    TopCas,
    /// Fence-free: validate the ticket against the claim set, then write
    /// the `top` hint with an unsignaled put.
    Ticket,
}

type Push = fn(
    &mut Machine,
    &mut WorkerShared,
    &SegLayout,
    WorkerId,
    QueueItem,
) -> Result<VTime, DequeError>;
type Pop = fn(
    &mut Machine,
    &mut WorkerShared,
    &mut ClaimSet,
    &SegLayout,
    WorkerId,
    Option<GlobalAddr>,
) -> Popped;
type Reclaim = fn(&mut Machine, &mut WorkerShared, &mut ClaimSet, &SegLayout, WorkerId);

/// One steal-protocol family as data: the thief's claim and the owner's
/// operations on its own deque.
#[derive(Clone, Copy)]
pub struct Desc {
    pub claim: Claim,
    /// Push an item at the bottom of the caller's own deque.
    pub push: Push,
    /// Pop the bottom item; with `Some(e)`, only if it is the parent
    /// continuation of the dying thread whose entry is `e` (the Fig.-4 DIE
    /// fast path).
    pub pop: Pop,
    /// End-of-run sweep of the slots thieves claimed but the owner never
    /// walked past (fence-free; a no-op elsewhere).
    pub reclaim: Reclaim,
}

impl Desc {
    pub fn of(protocol: Protocol) -> Desc {
        match protocol {
            Protocol::CasLock => Desc {
                claim: Claim::Lock,
                push: |m, ws, lay, me, item| owner_push(m, &mut ws.items, lay, me, item),
                pop: |m, ws, _, lay, me, parent| pop_if(m, &mut ws.items, lay, me, parent),
                reclaim: |_, _, _, _, _| {},
            },
            Protocol::LockFree => Desc {
                claim: Claim::TopCas,
                push: |m, ws, lay, me, item| Ok(lf_owner_push(m, &mut ws.items, lay, me, item)),
                pop: |m, ws, _, lay, me, parent| lf_pop_if(m, &mut ws.items, lay, me, parent),
                reclaim: |_, _, _, _, _| {},
            },
            Protocol::FenceFree => Desc {
                claim: Claim::Ticket,
                push: |m, ws, lay, me, item| Ok(ff_owner_push(m, ws, lay, me, item)),
                pop: ff_pop_if,
                reclaim: ff_owner_reclaim,
            },
        }
    }

    /// Does the owner observe a lock word (so a fork must probe it before
    /// any side effect, and a push or pop can be [`DequeError::Busy`])?
    pub fn locks(&self) -> bool {
        self.claim == Claim::Lock
    }
}

/// What every step of a steal reads and none changes: the thief and the
/// protocol it speaks.
#[derive(Clone, Copy)]
pub struct Cx {
    pub me: WorkerId,
    /// The thief's incarnation epoch, stamped into the lock word it CASes.
    pub epoch: u64,
    pub lay: SegLayout,
    pub desc: Desc,
}

/// Where a steal stands between two engine steps.
#[derive(Clone, Copy, Debug)]
pub enum Stage {
    /// The probe committed to `victim` at `t0` (the probe step's start):
    /// it holds the victim's lock, or read non-empty `bounds`. A won lock
    /// freezes the bounds, so a CAS-lock take reuses them when the probe
    /// read them (rings of K ≥ 2) and reads them itself otherwise. `vepoch`
    /// is the victim's incarnation when the probe ran: an eviction and
    /// rejoin before the take voids the steal instead of letting a stale
    /// lock or bounds tear the fresh incarnation's deque.
    Won {
        victim: WorkerId,
        t0: VTime,
        bounds: Option<(u64, u64)>,
        vepoch: u64,
    },
    /// The commit's release and payload transfer were still in flight when
    /// its step ended: reap them and adopt the item. The extra step is the
    /// window in which the victim already sees its lock released while the
    /// thief has not yet adopted the item.
    Reap { victim: WorkerId },
}

/// A committed steal awaiting its completions: the item has left the
/// victim's slab, every verb is posted and its window charged.
pub struct Pending {
    pub(crate) item: QueueItem,
    size: usize,
    t0: VTime,
    /// Lock-release put (CAS-lock only: the fence-free hint write is
    /// unsignaled and the lock-free CAS already committed).
    pub(crate) h_release: Option<VerbHandle>,
    /// Payload `get_bulk`, posted at `copy_at`.
    pub(crate) h_copy: VerbHandle,
    copy_at: VTime,
    /// The thief's clock when it issued the payload get.
    issued: VTime,
    /// The instant the whole window has retired.
    fin: VTime,
    rec: Option<(WorkerId, usize)>,
}

/// A steal whose payload has landed, handed to [`Host::adopt`].
pub struct Landed {
    pub item: QueueItem,
    /// The lineage record [`Host::taken`] returned.
    pub rec: Option<(WorkerId, usize)>,
    pub size: usize,
    pub t0: VTime,
    /// From the probe to the payload's arrival, on the thief's clock.
    pub latency: VTime,
    /// The payload transfer alone.
    pub copy: VTime,
}

/// One victim of a probe ring.
struct Probe {
    victim: WorkerId,
    /// Lock CAS (CAS-lock only).
    h_lock: Option<VerbHandle>,
    /// `[top, bottom]` span get, with the words it read.
    bounds: Option<(VerbHandle, u64, u64)>,
    won: bool,
}

/// The victims of one probe, in ring order (reusable scratch).
#[derive(Default)]
pub struct Ring(Vec<Probe>);

impl Ring {
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Add `victim` unless it is already in the ring.
    pub fn add(&mut self, victim: WorkerId) {
        if !self.0.iter().any(|p| p.victim == victim) {
            self.0.push(Probe {
                victim,
                h_lock: None,
                bounds: None,
                won: true,
            });
        }
    }

    pub fn retain(&mut self, mut keep: impl FnMut(WorkerId) -> bool) {
        self.0.retain(|p| keep(p.victim));
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// What a thief driving the machine supplies. Every call is monomorphised:
/// the step path has no dynamic dispatch.
pub trait Host {
    /// The machine, every deque's payloads (indexed by owner) and the claim
    /// arbiter.
    fn parts(&mut self) -> (&mut Machine, &mut [WorkerShared], &mut ClaimSet);
    /// Attribute the fabric faults accrued since the last call to `victim`.
    /// (This and the two counting hooks are no-ops for a host that keeps no
    /// blacklist or statistics.)
    fn faults(&mut self, _now: VTime, _victim: WorkerId) {}
    /// One failed steal attempt.
    fn failed(&mut self) {}
    /// Work was there, but the ring committed to an earlier victim.
    fn abandoned(&mut self) {}
    /// This step stole nothing and cost `cost`: the step's outcome.
    fn idle(&mut self, now: VTime, cost: VTime) -> Step;
    /// Has the steal been voided since its probe (the victim died or was
    /// evicted, or the thief itself was)? Returns what finding out cost.
    fn voided(&mut self, now: VTime, victim: WorkerId, vepoch: u64) -> Option<VTime>;
    /// `victim`'s deque held a dead slot: a protocol violation.
    fn dead_slot(&mut self, victim: WorkerId, d: &DeadSlot);
    /// A CAS-lock take read `victim`'s deque empty under its won lock. The
    /// lock freezes the deque, so a checker whose ledger still holds items
    /// there has caught a stale read.
    fn empty(&mut self, _victim: WorkerId) {}
    /// Issue a CAS-lock take's `top` advance, ahead of its lock release. A
    /// host may defer it, issuing [`advance_top`] itself later (`dcs-check`'s
    /// planted `broken-release`).
    fn advance(&mut self, cx: &Cx, victim: WorkerId, top: u64) {
        advance_top(self.parts().0, cx, victim, top);
    }
    /// A fence-free claim lost its race; `dup` is the slab key of a task
    /// this taker paid the payload for and then found already claimed.
    fn raced(&mut self, victim: WorkerId, dup: Option<u32>);
    /// The item has left `victim`'s slab and the release is posted in `w`:
    /// record the take. `Err` discards the item as a stale duplicate; `Ok`
    /// carries a lineage record for [`Landed::rec`].
    #[allow(clippy::result_unit_err)]
    fn taken(
        &mut self,
        now: VTime,
        victim: WorkerId,
        item: &mut QueueItem,
        w: &mut Window,
    ) -> Result<Option<(WorkerId, usize)>, ()>;
    /// The payload landed: run the item. Returns the added cost.
    fn adopt(&mut self, now: VTime, victim: WorkerId, landed: Landed) -> VTime;
    /// Resume at `stage` next step, with `pending` parked until then
    /// (`Some` only for [`Stage::Reap`]).
    fn park(&mut self, stage: Stage, pending: Option<Pending>);
    /// The steal [`Self::park`] parked for its reap.
    fn unpark(&mut self) -> Pending;
}

fn machine<H: Host>(h: &mut H) -> &mut Machine {
    h.parts().0
}

/// Advance `victim`'s `top` to `top` (non-blocking put; its cost rides the
/// release's message window).
pub fn advance_top(m: &mut Machine, cx: &Cx, victim: WorkerId, top: u64) {
    thief_advance_top(m, &cx.lay, cx.me, victim, top);
}

/// Step 1 of every steal: keep probes on every victim of `ring` in one
/// window and commit the first (in ring order) that lands with work. `k` is
/// the configured ring width (`--multi-steal`); the ring may be narrower.
///
/// * **CAS-lock** — the lock CAS, its word carrying the thief's rank *and*
///   epoch so the owner can break it if the thief is evicted mid-steal.
///   Rings of K ≥ 2 chain the `[top, bottom]` span get behind it on the
///   victim's queue pair: issuing the read before the CAS outcome is known
///   is sound (gets have no memory effects, and in-order retirement lands
///   the bounds after the CAS), and a *won* CAS freezes the bounds until
///   release, so the take reuses them. A won-but-unused lock (ring order
///   lost, or empty deque) is always released at once, unsignaled.
/// * **lock-free / fence-free** — one bounds span get per victim; losers'
///   reads are dropped. The winner claims in the next step, leaving the
///   real protocols' race window open between the two — so a fence-free
///   ticket is claimed by the ring's single winner at most.
///
/// The whole ring rides one doorbell chain and one window: probes to
/// distinct victims cost one round trip when the machine overlaps them and
/// K when it does not.
pub fn probe<H: Host>(
    h: &mut H,
    cx: Cx,
    now: VTime,
    cost: VTime,
    ring: &mut Ring,
    k: usize,
) -> Step {
    let (me, lay, locks) = (cx.me, cx.lay, cx.desc.locks());
    let word = lock_word(cx.epoch, me);
    // Drop fault counts accrued before the probes so the per-victim drains
    // below attribute only each victim's own faults.
    let _ = machine(h).take_faults(me);
    let mut w = machine(h).window(me, now + cost);
    machine(h).chain_begin(me);
    for p in ring.0.iter_mut() {
        let m = machine(h);
        if locks {
            let lock = GlobalAddr::new(p.victim, lay.dq_word(DQ_LOCK));
            p.h_lock = Some(w.posted(m.post_cas_u64(me, lock, 0, word, w.at())));
        }
        if !locks || k >= 2 {
            let top = GlobalAddr::new(p.victim, lay.dq_word(DQ_TOP));
            let ([top, bottom], hb) = m.post_get_u64_span::<2>(me, top, w.at());
            p.bounds = Some((w.posted(hb), top, bottom));
        }
        h.faults(now, p.victim);
    }
    machine(h).chain_end(me);
    for p in ring.0.iter_mut() {
        if let Some(hl) = p.h_lock {
            p.won = machine(h).wait(me, hl).0 == 0;
        }
        if let Some((hb, ..)) = p.bounds {
            machine(h).wait(me, hb);
        }
    }
    let mut cost = machine(h).finish(&w).saturating_sub(now);
    // Commit the first probe in ring order that landed with work; let go of
    // the rest. The abandon releases ride their own doorbell chain.
    let mut won: Option<(WorkerId, Option<(u64, u64)>)> = None;
    machine(h).chain_begin(me);
    for p in ring.0.iter() {
        if !p.won {
            // CAS lost: an ordinary failed attempt.
            h.failed();
            continue;
        }
        // The fence-free `top` is a hint that can momentarily exceed
        // `bottom`; every family treats that as empty. A bare lock CAS
        // learns the bounds only in its take step.
        let bounds = p.bounds.map(|(_, top, bottom)| (top, bottom));
        let has_work = bounds.is_none_or(|(top, bottom)| top < bottom);
        if won.is_none() && has_work {
            won = Some((p.victim, bounds));
            continue;
        }
        if locks {
            let lock = GlobalAddr::new(p.victim, lay.dq_word(DQ_LOCK));
            cost += machine(h).post_put_u64_unsignaled(me, lock, 0);
        }
        if has_work {
            // Work was there but the ring committed to an earlier victim:
            // an abandoned attempt, never a latency sample.
            h.abandoned();
        } else {
            h.failed();
        }
    }
    machine(h).chain_end(me);
    let Some((victim, bounds)) = won else {
        return h.idle(now, cost);
    };
    // Probes and the commit run inside this one step, so the victim's epoch
    // now is the epoch every probe saw.
    let vepoch = machine(h).epoch_of(victim);
    h.park(
        Stage::Won {
            victim,
            t0: now,
            bounds,
            vepoch,
        },
        None,
    );
    Step::Yield(cost)
}

/// Steps 2 and 3: resume a steal parked at `stage`.
pub fn resume<H: Host>(h: &mut H, cx: Cx, now: VTime, stage: Stage) -> Step {
    let (victim, t0, bounds, vepoch) = match stage {
        Stage::Won {
            victim,
            t0,
            bounds,
            vepoch,
        } => (victim, t0, bounds, vepoch),
        Stage::Reap { victim } => {
            let ps = h.unpark();
            return finish(h, cx.me, now, victim, ps);
        }
    };
    if let Some(cost) = h.voided(now, victim, vepoch) {
        return miss(h, now, cost);
    }
    let Cx { me, lay, desc, .. } = cx;
    let won = (victim, t0);
    let top = || bounds.expect("a claim family's probe reads the bounds").0;
    match desc.claim {
        Claim::Lock => {
            let (m, ws, _) = h.parts();
            let items = &mut ws[victim].items;
            let took = match bounds {
                Some((top, bottom)) => {
                    thief_take_no_release_at(m, items, &lay, me, victim, top, bottom)
                }
                None => thief_take_no_release(m, items, &lay, me, victim),
            };
            match took {
                Err(mut d) => {
                    // The victim's deque held the corpse. Release so the
                    // victim can still make progress, but leave the bounds
                    // pointing at it for the oracle to see.
                    d.cost += thief_release_lock(machine(h), &lay, me, victim);
                    h.faults(now, victim);
                    h.dead_slot(victim, &d);
                    miss(h, now, d.cost)
                }
                Ok((None, mut cost)) => {
                    // Empty: a non-blocking put suffices to release.
                    h.empty(victim);
                    let lock = GlobalAddr::new(victim, lay.dq_word(DQ_LOCK));
                    cost += machine(h).post_put_u64_unsignaled(me, lock, 0);
                    h.faults(now, victim);
                    miss(h, now, cost)
                }
                Ok((Some(entry), cost)) => {
                    // The advance is issued *before* the lock release and
                    // rides its message window ([top, lock] are adjacent
                    // words), so no later lock acquirer can observe stale
                    // bounds.
                    h.advance(&cx, victim, entry.2 + 1);
                    commit(h, cx, now, won, entry, cost)
                }
            }
        }
        Claim::TopCas => {
            // Entry read + one CAS on `top`: a lost CAS is a benign failed
            // steal, a won one commits the take.
            let top = top();
            let (m, ws, _) = h.parts();
            let items = &mut ws[victim].items;
            let (got, cost) = match lf_thief_claim(m, items, &lay, me, victim, top) {
                Ok(x) => x,
                Err(d) => {
                    h.dead_slot(victim, &d);
                    (None, d.cost)
                }
            };
            h.faults(now, victim);
            match got {
                None => miss(h, now, cost),
                Some((item, size)) => commit(h, cx, now, won, (item, size, top), cost),
            }
        }
        Claim::Ticket => {
            // Entry span read (plain get), host-side ticket arbitration, then
            // a plain claim-write of the `top` hint — no atomic anywhere. A
            // lost race costs only the span read.
            let top = top();
            let slot = GlobalAddr::new(victim, lay.dq_slot(top));
            let (m, ws, claims) = h.parts();
            let (vals, mut cost) = m.get_u64_span::<3>(me, slot);
            let outcome = ff_decide(&mut ws[victim], claims, vals);
            h.faults(now, victim);
            match outcome {
                FfSteal::Lost => {
                    h.raced(victim, None);
                    miss(h, now, cost)
                }
                FfSteal::Dup => {
                    // The loser copied the payload before discovering the
                    // claim (the fence-free algorithm's cost of
                    // multiplicity), and still writes the hint so later
                    // thieves skip the slot.
                    let top_word = GlobalAddr::new(victim, lay.dq_word(DQ_TOP));
                    cost += machine(h).post_put_u64_unsignaled(me, top_word, top + 1);
                    cost += machine(h).get_bulk(me, victim, vals[1] as usize);
                    h.raced(victim, Some((vals[0] - 1) as u32));
                    miss(h, now, cost)
                }
                FfSteal::Taken(item, size) => commit(h, cx, now, won, (*item, size, top), cost),
            }
        }
    }
}

/// A failed attempt: count it, then yield the step.
fn miss<H: Host>(h: &mut H, now: VTime, cost: VTime) -> Step {
    h.failed();
    h.idle(now, cost)
}

/// The one commit, shared by every claim: open a window after the `cost`
/// spent so far, issue the protocol's release, let the host record the take
/// (before the payload crosses the wire), post the payload get and charge
/// the window. When a release is in flight and the machine left completions
/// outstanding, the steal parks for [`Stage::Reap`]; otherwise (depth 1, or
/// nothing to overlap the payload with) it finishes in this step.
fn commit<H: Host>(
    h: &mut H,
    cx: Cx,
    now: VTime,
    (victim, t0): (WorkerId, VTime),
    (mut item, size, top): StolenEntry,
    cost: VTime,
) -> Step {
    let Cx { me, lay, desc, .. } = cx;
    let mut w = machine(h).window(me, now + cost);
    let h_release = match desc.claim {
        Claim::Lock => {
            let lock = GlobalAddr::new(victim, lay.dq_word(DQ_LOCK));
            let hr = w.posted(machine(h).post_put_u64(me, lock, 0, w.at()));
            // The take's faults, the release's included, are the victim's;
            // the claim steps drained theirs already.
            h.faults(now, victim);
            Some(hr)
        }
        Claim::Ticket => {
            let top_word = GlobalAddr::new(victim, lay.dq_word(DQ_TOP));
            w.unsignaled(machine(h).post_put_u64_unsignaled(me, top_word, top + 1));
            None
        }
        Claim::TopCas => None,
    };
    let Ok(rec) = h.taken(now, victim, &mut item, &mut w) else {
        // The take still committed protocol-wise — top advanced, release
        // posted — but the stale duplicate must not run.
        if let Some(hr) = h_release {
            machine(h).wait(me, hr);
        }
        let cost = machine(h).finish(&w).saturating_sub(now);
        return miss(h, now, cost);
    };
    let m = machine(h);
    let (issued, copy_at) = (w.now(), w.at());
    let h_copy = w.posted(m.post_get_bulk(me, victim, size, copy_at));
    let fin = m.finish(&w);
    let ps = Pending {
        item,
        size,
        t0,
        h_release,
        h_copy,
        copy_at,
        issued,
        fin,
        rec,
    };
    if desc.claim != Claim::TopCas && m.outstanding(me, w.now()) {
        h.park(Stage::Reap { victim }, Some(ps));
        Step::Yield(w.now().saturating_sub(now))
    } else {
        finish(h, me, now, victim, ps)
    }
}

/// Reap a committed steal's completions and hand the item to the host. The
/// step pays whatever of the window is still ahead of `now`; the latency
/// runs from the probe to the payload's arrival as seen from the thief's
/// clock at issue. Even if the victim has died since the commit the steal
/// stands: the item left its slab at take time and every verb was already
/// posted and charged.
fn finish<H: Host>(h: &mut H, me: WorkerId, now: VTime, victim: WorkerId, ps: Pending) -> Step {
    if let Some(hr) = ps.h_release {
        machine(h).wait(me, hr);
    }
    machine(h).wait(me, ps.h_copy);
    let copy = ps.h_copy.finish().saturating_sub(ps.copy_at);
    let latency = ps.issued.saturating_sub(ps.t0) + copy;
    let landed = Landed {
        item: ps.item,
        rec: ps.rec,
        size: ps.size,
        t0: ps.t0,
        latency,
        copy,
    };
    let c2 = h.adopt(now, victim, landed);
    Step::Yield(ps.fin.saturating_sub(now) + c2)
}
