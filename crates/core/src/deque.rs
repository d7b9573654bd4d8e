//! The per-worker task deque with a one-sided steal protocol.
//!
//! Control words and the entry ring live in the owner's pinned segment
//! (offsets from [`SegLayout`]); the Rust payload objects live in the
//! owner's [`crate::world::WorkerShared::items`] slab and are referenced by
//! slab key from the ring. Owner operations (push/pop/peek) work on the
//! *bottom* end at local cost; thieves operate on the *top* (oldest) end so
//! the task with the most expected work is stolen (§II).
//!
//! Three steal-protocol families share this ring (selected by
//! [`crate::policy::Protocol`]):
//!
//! * **CAS-lock** (`owner_*` / `thief_*`, the paper's baseline) — a lock
//!   word serializes thieves and gates owner operations;
//! * **lock-free** (`lf_*`, ABP/Chase-Lev style) — no lock word; a thief
//!   claims the oldest task with one CAS on `top`, the owner resolves the
//!   last-item race with an owner-local CAS;
//! * **fence-free** (`ff_*`) — plain reads/writes only, with *bounded
//!   multiplicity*: a task may be taken more than once, and the shared
//!   [`ClaimSet`] guarantees it executes at most once (see the module doc
//!   on [`crate::dedup`] and docs/PROTOCOLS.md).
//!
//! The CAS-lock steal protocol mirrors MassiveThreads/DM's lock-based RDMA
//! deque:
//!
//! 1. `CAS` the lock word (one atomic round trip). Failure — somebody else
//!    holds it — is a failed steal attempt.
//! 2. `GET` the `[top, bottom]` words (adjacent; one round trip). Empty →
//!    release and report a failed steal.
//! 3. `GET` the ring entry, then `PUT` `[top := top+1, lock := 0]` (the two
//!    words are adjacent, one round trip advances and releases atomically
//!    from the victim's point of view — and the *order* puts the bound
//!    advance no later than the lock release, so no lock acquirer can ever
//!    observe stale bounds; see `docs/PROTOCOLS.md`).
//! 4. Transfer the payload (stack or descriptor bytes) — charged by the
//!    scheduler, which also records steal statistics.
//!
//! The thief holds the lock **across simulator steps** — from the steal
//! machine's probe step to its take step ([`crate::steal`]) — so a victim
//! touching its own deque in that window observes the lock and must retry:
//! the owner-side functions return [`DequeError::Busy`] and the caller
//! yields a local-op's worth of time, exactly the brief victim stall a real
//! lock-based RDMA deque causes.
//!
//! ## One body per operation
//!
//! Each family has one push and one pop body. The Fig.-4 DIE fast path
//! (pop the bottom item only if it is the dying thread's parent
//! continuation) is that family's pop body (`pop_if`, `lf_pop_if`,
//! `ff_pop_if`) with an accept test (`accepts`), not a second copy; the
//! CAS-lock and lock-free pushes share one ring write; the fence-free pops
//! and the end-of-run reclaim share one "look at the bottom slot, reclaim
//! it if a thief claimed it" step. On the thief side [`thief_lock`] +
//! [`thief_take`] is the blocking reference form of one steal (what the
//! tests and the benchmark ladder drive). The steal machine
//! ([`crate::steal`]) is what the scheduler and `dcs-check` run: it posts the lock CAS in its probe ring and composes
//! `thief_take_no_release` → `thief_advance_top` with a *posted* release,
//! so the payload transfer overlaps it; a multi-steal ring enters at
//! `thief_take_no_release_at` with the bounds its probe froze under the
//! won lock.
//!
//! ## Typed protocol violations
//!
//! Every slot decode (`key + 1` read from the ring) is guarded in release
//! builds: a zero word — or a stale key whose payload is gone — under a
//! reordered or fault-duplicated put surfaces as a [`DeadSlot`] error that
//! the scheduler reports as a deque-protocol violation, instead of
//! underflowing `keyp1 - 1` to `u64::MAX` and panicking deep inside
//! [`Slab::take`]. `dcs-check` relies on these typed errors as its deque
//! oracle.

use dcs_sim::{GlobalAddr, Machine, VTime, WorkerId};

use crate::dedup::ClaimSet;
use crate::layout::{SegLayout, DQ_BOTTOM, DQ_LOCK, DQ_TOP};
use crate::util::Slab;
use crate::world::{QueueItem, WorkerShared};

/// The deque is momentarily locked by a thief; retry next step. Kept as a
/// standalone token: the scheduler uses it as its cross-module
/// "side-effect-free retry" signal beyond deque operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy;

/// A ring slot referenced by the deque bounds decoded to a dead payload
/// key — a deque-protocol violation (the invariant "every index in
/// `[top, bottom)` holds a live `key + 1`" broke). State is left untouched:
/// the bounds still reference the corpse, so the caller must report the
/// violation and degrade (or abort), not retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadSlot {
    /// The operation that observed the dead slot.
    pub op: &'static str,
    /// Logical ring index whose slot was dead.
    pub index: u64,
    /// Fabric cost incurred before the violation was detected (the caller
    /// still owes this virtual time).
    pub cost: VTime,
}

/// Why a deque operation did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeError {
    /// Locked by a thief; retry next step (no side effects happened).
    Busy,
    /// Protocol violation: a bounds-referenced slot is dead.
    Dead(DeadSlot),
}

#[inline]
fn word(lay: &SegLayout, me: WorkerId, w: u32) -> GlobalAddr {
    GlobalAddr::new(me, lay.dq_word(w))
}

/// Owner-side lock check shared by all local operations.
fn owner_check_lock(m: &mut Machine, lay: &SegLayout, me: WorkerId) -> Result<(), DequeError> {
    match m.get_u64(me, word(lay, me, DQ_LOCK)).0 {
        0 => Ok(()),
        _ => Err(DequeError::Busy),
    }
}

/// What a pop returns: the item, if one was taken, and the charged cost.
pub type Popped = Result<(Option<QueueItem>, VTime), DequeError>;

/// The pop family's accept test. `None` takes whatever sits at the bottom;
/// `Some(e)` is the Fig.-4 DIE fast path — take the bottom item only if it
/// is the dying thread's parent continuation (a `Cont` whose
/// `spawned_child` equals `e`). A stale key (payload already gone) cannot
/// be anybody's parent: it is a non-match here, and the eventual plain pop
/// of the same slot surfaces the violation.
#[inline]
fn accepts(item: Option<&QueueItem>, parent_of: Option<GlobalAddr>) -> bool {
    match parent_of {
        None => true,
        Some(e) => matches!(
            item,
            Some(QueueItem::Cont { spawned_child, .. }) if *spawned_child == e
        ),
    }
}

/// The ring write shared by the CAS-lock and lock-free pushes: one O(1)
/// local operation covers the bounds, ring write and bottom update (all
/// cache-resident for the owner).
fn ring_push(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    item: QueueItem,
) -> VTime {
    let cost = m.local_op(me);
    let top = m.read_own(me, word(lay, me, DQ_TOP));
    let bottom = m.read_own(me, word(lay, me, DQ_BOTTOM));
    assert!(
        bottom - top < lay.deque_cap as u64,
        "deque overflow (cap {}): nesting deeper than configured",
        lay.deque_cap
    );
    let size = item.wire_size();
    let key = items.insert(item);
    let slot = GlobalAddr::new(me, lay.dq_slot(bottom));
    m.write_own(me, slot, key as u64 + 1);
    m.write_own(me, slot.field(1), size as u64);
    m.write_own(me, word(lay, me, DQ_BOTTOM), bottom + 1);
    cost
}

/// Push an item at the bottom (local end). Returns the charged cost.
pub fn owner_push(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    item: QueueItem,
) -> Result<VTime, DequeError> {
    owner_check_lock(m, lay, me)?;
    Ok(ring_push(m, items, lay, me, item))
}

/// The CAS-lock pop: lock probe, then check-and-pop of the bottom item in
/// one owner-local step. With `parent_of = Some(e)` it is the Fig.-4 DIE
/// fast path: pop the bottom item only if it is the parent continuation of
/// the dying thread whose entry is `e` (see [`accepts`]).
#[inline]
pub(crate) fn pop_if(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    parent_of: Option<GlobalAddr>,
) -> Popped {
    let op = parent_of.map_or("owner_pop", |_| "owner_pop_parent");
    owner_check_lock(m, lay, me)?;
    let cost = m.local_op(me);
    let top = m.read_own(me, word(lay, me, DQ_TOP));
    let bottom = m.read_own(me, word(lay, me, DQ_BOTTOM));
    if top == bottom {
        return Ok((None, cost));
    }
    let index = bottom - 1;
    let slot = GlobalAddr::new(me, lay.dq_slot(index));
    let keyp1 = m.read_own(me, slot);
    let dead = Err(DequeError::Dead(DeadSlot { op, index, cost }));
    if keyp1 == 0 {
        return dead;
    }
    let key = (keyp1 - 1) as u32;
    if !accepts(items.get(key), parent_of) {
        return Ok((None, cost));
    }
    let Some(item) = items.try_take(key) else {
        return dead;
    };
    m.write_own(me, word(lay, me, DQ_BOTTOM), index);
    m.write_own(me, slot, 0);
    Ok((Some(item), cost))
}

/// Pop the bottom item, if any.
pub fn owner_pop(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
) -> Popped {
    pop_if(m, items, lay, me, None)
}

/// Encode the deque lock word: the holder's rank (biased by 1 so 0 stays
/// "unlocked") in the low 16 bits, its incarnation epoch above. Epoch-0
/// holders — every holder until a worker is evicted — encode to exactly the
/// pre-epoch `rank + 1` word, so healthy runs are byte-identical.
#[inline]
pub fn lock_word(epoch: u64, rank: WorkerId) -> u64 {
    debug_assert!(rank < (1 << 16) - 1, "lock word holds ranks below 65535");
    (epoch << 16) | (rank as u64 + 1)
}

/// Decode a non-zero deque lock word into `(holder_epoch, holder_rank)`.
#[inline]
pub(crate) fn lock_holder(word: u64) -> (u64, WorkerId) {
    debug_assert!(word != 0, "the unlocked word has no holder");
    (word >> 16, (word & 0xFFFF) as WorkerId - 1)
}

/// Step 1 of a steal: try to lock `victim`'s deque with an epoch-0 lock
/// word (the steal machine stamps the thief's own epoch). Returns whether
/// the lock was acquired plus the atomic's cost.
pub fn thief_lock(
    m: &mut Machine,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
) -> (bool, VTime) {
    let (old, cost) = m.cas_u64(me, word(lay, victim, DQ_LOCK), 0, lock_word(0, me));
    (old == 0, cost)
}

/// Steps 2–3 of a steal (requires the lock): read bounds, take the oldest
/// item, advance `top` and release. Returns the stolen item with its wire
/// size, or `None` if the deque was empty (released either way). The payload
/// transfer (step 4) is charged by the caller.
///
/// A dead slot at `top` returns [`DeadSlot`] — the lock is still released
/// (so the victim is not wedged by the thief's failure) but `top` is *not*
/// advanced: the bounds keep pointing at the corpse for the oracle to see.
pub fn thief_take(
    m: &mut Machine,
    victim_items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
) -> Result<(Option<(QueueItem, usize)>, VTime), DeadSlot> {
    match thief_take_no_release(m, victim_items, lay, me, victim) {
        Ok((None, mut cost)) => {
            // Empty: release the lock (non-blocking put suffices).
            cost += m.post_put_u64_unsignaled(me, word(lay, victim, DQ_LOCK), 0);
            Ok((None, cost))
        }
        Ok((Some((item, size, top)), mut cost)) => {
            // Advance + release: [top, lock adjacency aside] the advance is
            // issued *before* the lock release, so by verb issue order no
            // later lock acquirer can observe stale bounds. Only the
            // blocking release round trip is charged — the advance rides in
            // the same message window ([top, lock] are adjacent words).
            thief_advance_top(m, lay, me, victim, top + 1);
            cost += thief_release_lock(m, lay, me, victim);
            Ok((Some((item, size)), cost))
        }
        Err(mut d) => {
            // Release so the victim can still make progress, but leave the
            // bounds untouched.
            d.cost += thief_release_lock(m, lay, me, victim);
            Err(d)
        }
    }
}

/// A stolen entry as seen mid-protocol: the item, its wire size, and the
/// `top` index it was taken from.
pub(crate) type StolenEntry = (QueueItem, usize, u64);

/// Steps 2–3 of a steal **without** the bounds advance or the lock release:
/// on success returns the item, its wire size, and the `top` index it was
/// taken from; the caller then issues [`thief_advance_top`] and the release
/// itself. The steal machine ([`crate::steal`]) composes them with a
/// *posted* release so the payload transfer can overlap it; `dcs-check`'s
/// `broken-release` defers the advance (through the machine's advance hook)
/// to one engine step after the release, the dead-slot window it proves the
/// schedule explorer catches.
pub(crate) fn thief_take_no_release(
    m: &mut Machine,
    victim_items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
) -> Result<(Option<StolenEntry>, VTime), DeadSlot> {
    debug_assert_ne!(me, victim, "stealing from self");
    // One get covers the adjacent [top, bottom] words.
    let (top, cost) = m.get_u64(me, word(lay, victim, DQ_TOP));
    let (bottom, _) = m.get_u64(me, word(lay, victim, DQ_BOTTOM));
    match thief_take_no_release_at(m, victim_items, lay, me, victim, top, bottom) {
        Ok((got, c)) => Ok((got, cost + c)),
        Err(mut d) => {
            d.cost += cost;
            Err(d)
        }
    }
}

/// [`thief_take_no_release`] with the bounds already known: a multi-steal
/// probe reads `[top, bottom]` in the same doorbell chain as its lock CAS,
/// and a won lock freezes the bounds (owner ops and rival thieves observe
/// the lock), so the take step can skip the bounds re-read — one small-get
/// round trip saved per successful steal.
pub(crate) fn thief_take_no_release_at(
    m: &mut Machine,
    victim_items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
    top: u64,
    bottom: u64,
) -> Result<(Option<StolenEntry>, VTime), DeadSlot> {
    debug_assert_ne!(me, victim, "stealing from self");
    if top == bottom {
        return Ok((None, VTime::ZERO));
    }
    let slot = GlobalAddr::new(victim, lay.dq_slot(top));
    let (keyp1, cost) = m.get_u64(me, slot);
    let (size, _) = m.get_u64(me, slot.field(1));
    let dead = |cost| {
        Err(DeadSlot {
            op: "thief_take",
            index: top,
            cost,
        })
    };
    if keyp1 == 0 {
        return dead(cost);
    }
    let Some(item) = victim_items.try_take((keyp1 - 1) as u32) else {
        return dead(cost);
    };
    m.post_put_u64_unsignaled(me, slot, 0);
    Ok((Some((item, size as usize, top)), cost))
}

/// Advance the victim's `top` to `new_top` (non-blocking put; the cost
/// rides in the release's message window and is not charged).
pub(crate) fn thief_advance_top(
    m: &mut Machine,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
    new_top: u64,
) {
    m.post_put_u64_unsignaled(me, word(lay, victim, DQ_TOP), new_top);
}

/// Release the victim's deque lock (blocking put; returns its round-trip
/// cost).
pub(crate) fn thief_release_lock(
    m: &mut Machine,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
) -> VTime {
    m.put_u64(me, word(lay, victim, DQ_LOCK), 0)
}

// ----------------------------------------------------------------------
// Shared thief helper (lock-free + fence-free families)
// ----------------------------------------------------------------------

/// Thief-side bounds read without a lock: one span get covers the adjacent
/// `[top, bottom]` words. Under the fence-free protocol `top` is a hint
/// that may momentarily exceed `bottom` (a stale claim-write), so callers
/// must treat `top >= bottom` as empty rather than subtracting.
pub fn thief_read_bounds(
    m: &mut Machine,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
) -> ((u64, u64), VTime) {
    let ([top, bottom], cost) = m.get_u64_span::<2>(me, word(lay, victim, DQ_TOP));
    ((top, bottom), cost)
}

// ----------------------------------------------------------------------
// Lock-free family (ABP / Chase-Lev style): no lock word, one CAS on
// `top` per steal, an owner-local CAS only on the last-item race.
// ----------------------------------------------------------------------

/// Lock-free owner push: the ring write of [`owner_push`] with no lock to
/// probe — the owner can never be blocked by a thief.
pub fn lf_owner_push(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    item: QueueItem,
) -> VTime {
    ring_push(m, items, lay, me, item)
}

/// The lock-free pop. Plain take except on the *last* item, where the
/// owner races thieves with a CAS on its own `top` (a cheap local atomic).
/// Engine steps are atomic, so a thief's claim either fully precedes this
/// pop (the owner then observes `top == bottom`, empty) or fully follows
/// it (the thief's CAS fails); the owner's CAS is charged because the real
/// protocol cannot know that, but it never loses here. The accept test
/// peeks first: only a match pays the pop (including the last-item CAS).
#[inline]
pub(crate) fn lf_pop_if(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    parent_of: Option<GlobalAddr>,
) -> Popped {
    let op = parent_of.map_or("lf_owner_pop", |_| "lf_owner_pop_parent");
    let mut cost = m.local_op(me);
    let top = m.read_own(me, word(lay, me, DQ_TOP));
    let bottom = m.read_own(me, word(lay, me, DQ_BOTTOM));
    if top == bottom {
        return Ok((None, cost));
    }
    let b = bottom - 1;
    let slot = GlobalAddr::new(me, lay.dq_slot(b));
    let keyp1 = m.read_own(me, slot);
    let dead = |cost| Err(DequeError::Dead(DeadSlot { op, index: b, cost }));
    if keyp1 == 0 {
        return dead(cost);
    }
    let key = (keyp1 - 1) as u32;
    if !accepts(items.get(key), parent_of) {
        return Ok((None, cost));
    }
    if b == top {
        // Last item: decide it with the top CAS before touching the slot.
        let (seen, c) = m.cas_u64(me, word(lay, me, DQ_TOP), top, top + 1);
        cost += c;
        m.write_own(me, word(lay, me, DQ_BOTTOM), top + 1);
        if seen != top {
            return Ok((None, cost));
        }
    } else {
        m.write_own(me, word(lay, me, DQ_BOTTOM), b);
    }
    let Some(item) = items.try_take(key) else {
        return dead(cost);
    };
    m.write_own(me, slot, 0);
    Ok((Some(item), cost))
}

/// Lock-free owner pop: plain take, except that the last item is decided
/// by an owner-local CAS on `top` (charged; it never loses here).
pub fn lf_owner_pop(
    m: &mut Machine,
    items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
) -> Popped {
    lf_pop_if(m, items, lay, me, None)
}

/// Lock-free thief claim (the second thief step, after a bounds read saw
/// `top < bottom`): read the entry at `top` and CAS `top → top+1`. A lost
/// CAS is a benign failed steal (`Ok(None)`); a won CAS guarantees the
/// slot was live (step atomicity + owner discipline), so a dead decode is
/// a typed protocol violation. The payload transfer is charged by the
/// caller.
pub fn lf_thief_claim(
    m: &mut Machine,
    victim_items: &mut Slab<QueueItem>,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
    top: u64,
) -> Result<(Option<(QueueItem, usize)>, VTime), DeadSlot> {
    debug_assert_ne!(me, victim, "stealing from self");
    let slot = GlobalAddr::new(victim, lay.dq_slot(top));
    let ([keyp1, size], mut cost) = m.get_u64_span::<2>(me, slot);
    let (seen, c_cas) = m.cas_u64(me, word(lay, victim, DQ_TOP), top, top + 1);
    cost += c_cas;
    if seen != top {
        return Ok((None, cost));
    }
    let dead = |cost| {
        Err(DeadSlot {
            op: "lf_thief_claim",
            index: top,
            cost,
        })
    };
    if keyp1 == 0 {
        return dead(cost);
    }
    let Some(item) = victim_items.try_take((keyp1 - 1) as u32) else {
        return dead(cost);
    };
    m.post_put_u64_unsignaled(me, slot, 0);
    Ok((Some((item, size as usize)), cost))
}

// ----------------------------------------------------------------------
// Fence-free family: plain reads/writes only, bounded multiplicity.
//
// The ring grows a third word per slot — an occupancy-unique *ticket*
// minted by the owner at push. A thief claims a task by (1) reading the
// entry span, (2) validating the ticket against the victim's live-payload
// table, (3) writing `top+1` with a plain put (a hint other thieves and
// nobody else trusts), and (4) claiming the ticket in the shared
// [`ClaimSet`] — the actual arbiter. Because a continuation payload is
// removed from the slab by its first taker within one atomic step, only
// cloneable Child descriptors can ever be doubly taken; the loser pays the
// wasted transfer and discards (`FfSteal::Dup`). The owner never trusts
// `top` (stale claim-writes can regress or overrun it); emptiness is "the
// slot below `bottom` is zero", which is sound because only the owner
// writes ring slots and only at the bottom end (stack discipline keeps
// the nonzero region contiguous).
// ----------------------------------------------------------------------

/// Outcome of a fence-free thief claim.
#[derive(Debug)]
pub enum FfSteal {
    /// First claim of this occupancy: the item (removed for `Cont`,
    /// cloned for `Child`) and its wire size. Payload transfer is charged
    /// by the caller.
    Taken(Box<QueueItem>, usize),
    /// The occupancy was already claimed by another taker — the bounded
    /// multiplicity case. The wasted payload transfer was already charged;
    /// the caller records a `ff_dups` stat and discards.
    Dup,
    /// The slot was empty, stale, or reused since the bounds read: a
    /// benign lost race (`ff_lost_races`), cheaper than a dup.
    Lost,
}

/// Fence-free owner push: three plain slot writes + bottom advance, one
/// local op, and *no* lock probe — the owner can never be blocked. Also
/// repairs the `top` hint if a stale thief claim-write overran `bottom`
/// (free: the hint lives in the owner's cache line).
pub fn ff_owner_push(
    m: &mut Machine,
    ws: &mut WorkerShared,
    lay: &SegLayout,
    me: WorkerId,
    item: QueueItem,
) -> VTime {
    let cost = m.local_op(me);
    let top = m.read_own(me, word(lay, me, DQ_TOP));
    let bottom = m.read_own(me, word(lay, me, DQ_BOTTOM));
    if top > bottom {
        m.write_own(me, word(lay, me, DQ_TOP), bottom);
    }
    let size = item.wire_size();
    let key = ws.items.insert(item);
    let ticket = ws.ff_fresh_ticket(me);
    ws.ff_tickets.insert(key as u64, ticket);
    let slot = GlobalAddr::new(me, lay.dq_slot(bottom));
    // `top` is a hint, so overflow is detected exactly: wrapping onto a
    // still-nonzero slot means the ring is full.
    assert!(
        m.read_own(me, slot) == 0,
        "deque overflow (cap {}): nesting deeper than configured",
        lay.deque_cap
    );
    m.write_own(me, slot, key as u64 + 1);
    m.write_own(me, slot.field(1), size as u64);
    m.write_own(me, slot.field(2), ticket);
    m.write_own(me, word(lay, me, DQ_BOTTOM), bottom + 1);
    cost
}

/// What the fence-free owner finds at the bottom of its ring.
enum FfBottom {
    /// `bottom == 0` or a zero slot. Only the owner zeroes slots,
    /// bottom-end first: the nonzero region is contiguous, so a zero slot
    /// here means empty.
    Empty,
    /// A thief owned the occupancy; the slot has been reclaimed.
    Reclaimed,
    /// A nonzero slot nobody has claimed.
    Unclaimed { b: u64, key: u64, ticket: u64 },
}

/// Look at the bottom slot and, if a thief claimed its ticket, reclaim it:
/// drop a still-present `Child` original (the thief cloned), retire the
/// ticket, zero the slot and lower `bottom`.
fn ff_bottom(
    m: &mut Machine,
    ws: &mut WorkerShared,
    claims: &mut ClaimSet,
    lay: &SegLayout,
    me: WorkerId,
) -> FfBottom {
    let bottom = m.read_own(me, word(lay, me, DQ_BOTTOM));
    if bottom == 0 {
        return FfBottom::Empty;
    }
    let b = bottom - 1;
    let slot = GlobalAddr::new(me, lay.dq_slot(b));
    let keyp1 = m.read_own(me, slot);
    if keyp1 == 0 {
        return FfBottom::Empty;
    }
    let key = keyp1 - 1;
    let ticket = m.read_own(me, slot.field(2));
    if !claims.contains(ticket) {
        return FfBottom::Unclaimed { b, key, ticket };
    }
    if ws.ff_tickets.get(&key) == Some(&ticket) {
        ws.ff_tickets.remove(&key);
        let _ = ws.items.try_take(key as u32);
    }
    claims.retire(ticket);
    m.write_own(me, slot, 0);
    m.write_own(me, slot.field(2), 0);
    m.write_own(me, word(lay, me, DQ_BOTTOM), b);
    FfBottom::Reclaimed
}

/// The fence-free pop: walk down from `bottom` through the slots thieves
/// claimed (one local op per reclaimed slot) to the first unclaimed one,
/// which must be live — a nonzero slot that decodes to neither a claimed
/// ticket nor a live payload is a typed [`DeadSlot`] — and claim + take it
/// if the accept test passes. Never returns [`DequeError::Busy`].
#[inline]
pub(crate) fn ff_pop_if(
    m: &mut Machine,
    ws: &mut WorkerShared,
    claims: &mut ClaimSet,
    lay: &SegLayout,
    me: WorkerId,
    parent_of: Option<GlobalAddr>,
) -> Popped {
    let op = parent_of.map_or("ff_owner_pop", |_| "ff_owner_pop_parent");
    let mut cost = m.local_op(me);
    let (b, key, ticket) = loop {
        match ff_bottom(m, ws, claims, lay, me) {
            FfBottom::Empty => return Ok((None, cost)),
            FfBottom::Reclaimed => cost += m.local_op(me),
            FfBottom::Unclaimed { b, key, ticket } => break (b, key, ticket),
        }
    };
    let dead = Err(DequeError::Dead(DeadSlot { op, index: b, cost }));
    if ws.ff_tickets.get(&key) != Some(&ticket) {
        return dead;
    }
    if !accepts(ws.items.get(key as u32), parent_of) {
        return Ok((None, cost));
    }
    let claimed = claims.first_claim(ticket);
    debug_assert!(claimed, "unclaimed ticket must be claimable in-step");
    claims.retire(ticket);
    ws.ff_tickets.remove(&key);
    let Some(item) = ws.items.try_take(key as u32) else {
        return dead;
    };
    let slot = GlobalAddr::new(me, lay.dq_slot(b));
    m.write_own(me, slot, 0);
    m.write_own(me, slot.field(2), 0);
    m.write_own(me, word(lay, me, DQ_BOTTOM), b);
    // The plain pop also pulls an overrun `top` hint back down; the DIE
    // fast path leaves that to the next push.
    if parent_of.is_none() && m.read_own(me, word(lay, me, DQ_TOP)) > b {
        m.write_own(me, word(lay, me, DQ_TOP), b);
    }
    Ok((Some(item), cost))
}

/// Fence-free owner pop: reclaim the slots thieves claimed, then claim and
/// take the first live one. Never [`DequeError::Busy`].
pub fn ff_owner_pop(
    m: &mut Machine,
    ws: &mut WorkerShared,
    claims: &mut ClaimSet,
    lay: &SegLayout,
    me: WorkerId,
) -> Popped {
    ff_pop_if(m, ws, claims, lay, me, None)
}

/// Decode one fence-free entry span `[key+1, wire_size, ticket]` read from
/// a victim's ring and decide the steal outcome — the host-side half of the
/// thief's claim step, shared by [`ff_thief_claim`] and the steal machine. Mutates
/// the victim's slab (`Cont` take / `Child` clone) and the claim set; the
/// caller charges the fabric (entry get, claim-write, payload or wasted
/// payload).
pub(crate) fn ff_decide(
    victim_ws: &mut WorkerShared,
    claims: &mut ClaimSet,
    vals: [u64; 3],
) -> FfSteal {
    let [keyp1, size, ticket] = vals;
    if keyp1 == 0 || ticket == 0 {
        return FfSteal::Lost;
    }
    let key = keyp1 - 1;
    if victim_ws.ff_tickets.get(&key) != Some(&ticket) {
        // The occupancy is gone (its first taker was a continuation, or
        // the owner popped it) or the slot was reused: benign lost race.
        return FfSteal::Lost;
    }
    // Live occupancy. In the fence-free algorithm the taker copies the
    // payload *before* writing its claim, so a second taker of a cloneable
    // Child pays the transfer and only then discovers the claim.
    if !claims.first_claim(ticket) {
        return FfSteal::Dup;
    }
    match victim_ws.items.get(key as u32) {
        Some(QueueItem::Child { f, arg, handle }) => {
            // Clone the descriptor; the original stays in the victim's
            // slab (and `ff_tickets`) until the owner reclaims the slot.
            FfSteal::Taken(
                Box::new(QueueItem::Child {
                    f: *f,
                    arg: arg.clone(),
                    handle: *handle,
                }),
                size as usize,
            )
        }
        Some(QueueItem::Cont { .. }) => {
            // First (and only possible) taker of a continuation: remove
            // the payload so any later taker loses the validation race.
            victim_ws.ff_tickets.remove(&key);
            let item = victim_ws
                .items
                .try_take(key as u32)
                .expect("validated live payload");
            FfSteal::Taken(Box::new(item), size as usize)
        }
        None => unreachable!("ff_tickets maps only live slab keys"),
    }
}

/// Fence-free thief claim, blocking charging: entry span get (one verb) +
/// plain claim-write of the `top` hint. A [`FfSteal::Dup`] additionally
/// charges the wasted payload transfer here; a winner's payload is charged
/// by the caller (so pipelined and blocking winners share one code path).
pub fn ff_thief_claim(
    m: &mut Machine,
    victim_ws: &mut WorkerShared,
    claims: &mut ClaimSet,
    lay: &SegLayout,
    me: WorkerId,
    victim: WorkerId,
    top: u64,
) -> (FfSteal, VTime) {
    debug_assert_ne!(me, victim, "stealing from self");
    let slot = GlobalAddr::new(victim, lay.dq_slot(top));
    let (vals, mut cost) = m.get_u64_span::<3>(me, slot);
    let outcome = ff_decide(victim_ws, claims, vals);
    if !matches!(outcome, FfSteal::Lost) {
        cost += m.post_put_u64_unsignaled(me, word(lay, victim, DQ_TOP), top + 1);
    }
    if let FfSteal::Dup = outcome {
        cost += m.get_bulk(me, victim, vals[1] as usize);
    }
    (outcome, cost)
}

/// End-of-run safety net (fence-free, strict runs): reclaim any trailing
/// claimed slots the owner never walked past, so thief-held `Child`
/// originals don't trip the strict "no leaked items" assert. Stops at the
/// first unclaimed slot — a genuinely lost item must still be caught.
pub(crate) fn ff_owner_reclaim(
    m: &mut Machine,
    ws: &mut WorkerShared,
    claims: &mut ClaimSet,
    lay: &SegLayout,
    me: WorkerId,
) {
    for _ in 0..lay.deque_cap {
        if !matches!(ff_bottom(m, ws, claims, lay, me), FfBottom::Reclaimed) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Effect, VThread};
    use crate::policy::{Policy, RunConfig};
    use crate::value::{ThreadHandle, Value};
    use dcs_sim::{profiles, MachineConfig, VTime};

    fn setup() -> (Machine, Slab<QueueItem>, SegLayout) {
        let cfg = RunConfig::new(2, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(2, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        (m, Slab::new(), lay)
    }

    fn body(_: Value, _: &mut crate::frame::TaskCtx) -> Effect {
        Effect::ret(0u64)
    }

    fn child_item(tag: u64) -> QueueItem {
        QueueItem::Child {
            f: body,
            arg: Value::U64(tag),
            handle: ThreadHandle::single(GlobalAddr::new(0, 8 * (tag as u32 + 1))),
        }
    }

    fn cont_item(tid: u64, spawned: GlobalAddr) -> QueueItem {
        QueueItem::Cont {
            th: VThread::new(
                tid,
                body,
                Value::Unit,
                ThreadHandle::single(GlobalAddr::NULL),
            ),
            spawned_child: spawned,
            since: VTime::ZERO,
        }
    }

    fn tag_of(item: &QueueItem) -> u64 {
        match item {
            QueueItem::Child { arg, .. } => arg.as_u64(),
            QueueItem::Cont { th, .. } => th.tid,
        }
    }

    /// Number of queued items, from the owner's perspective (it issues two
    /// counted `get_u64` verbs).
    fn owner_len(m: &mut Machine, lay: &SegLayout, me: WorkerId) -> u64 {
        let (top, _) = m.get_u64(me, word(lay, me, DQ_TOP));
        let (bottom, _) = m.get_u64(me, word(lay, me, DQ_BOTTOM));
        bottom - top
    }

    #[test]
    fn push_pop_is_lifo() {
        let (mut m, mut items, lay) = setup();
        for i in 0..3 {
            owner_push(&mut m, &mut items, &lay, 0, child_item(i)).unwrap();
        }
        assert_eq!(owner_len(&mut m, &lay, 0), 3);
        for i in (0..3).rev() {
            let (it, _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
            assert_eq!(tag_of(&it.unwrap()), i);
        }
        let (none, _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert!(none.is_none());
        assert!(items.is_empty());
    }

    #[test]
    fn steal_takes_oldest_fifo() {
        let (mut m, mut items, lay) = setup();
        for i in 0..3 {
            owner_push(&mut m, &mut items, &lay, 0, child_item(i)).unwrap();
        }
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        let (got, _) = thief_take(&mut m, &mut items, &lay, 1, 0).unwrap();
        let (item, size) = got.unwrap();
        assert_eq!(tag_of(&item), 0, "steals take the oldest task");
        assert_eq!(size, item.wire_size());
        // Owner still pops LIFO from the other end.
        let (it, _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert_eq!(tag_of(&it.unwrap()), 2);
        assert_eq!(owner_len(&mut m, &lay, 0), 1);
    }

    #[test]
    fn owner_blocked_while_thief_holds_lock() {
        let (mut m, mut items, lay) = setup();
        owner_push(&mut m, &mut items, &lay, 0, child_item(7)).unwrap();
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        // Victim's own operations observe the lock and must retry.
        assert_eq!(
            owner_pop(&mut m, &mut items, &lay, 0).unwrap_err(),
            DequeError::Busy
        );
        assert_eq!(
            owner_push(&mut m, &mut items, &lay, 0, child_item(8)).unwrap_err(),
            DequeError::Busy
        );
        // A second thief fails the lock CAS (= failed steal attempt).
        let (locked2, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(!locked2);
        // After the take releases, the owner proceeds.
        let _ = thief_take(&mut m, &mut items, &lay, 1, 0).unwrap();
        assert!(owner_pop(&mut m, &mut items, &lay, 0).is_ok());
    }

    #[test]
    fn steal_of_empty_deque_releases() {
        let (mut m, mut items, lay) = setup();
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        let (got, _) = thief_take(&mut m, &mut items, &lay, 1, 0).unwrap();
        assert!(got.is_none());
        // Lock released: owner can push again.
        assert!(owner_push(&mut m, &mut items, &lay, 0, child_item(0)).is_ok());
    }

    #[test]
    fn pop_parent_matches_only_spawned_child() {
        let (mut m, mut items, lay) = setup();
        let e1 = GlobalAddr::new(0, 0x100);
        let e2 = GlobalAddr::new(0, 0x200);
        owner_push(&mut m, &mut items, &lay, 0, cont_item(1, e1)).unwrap();
        // Wrong entry: no pop.
        let (none, _) = pop_if(&mut m, &mut items, &lay, 0, Some(e2)).unwrap();
        assert!(none.is_none());
        assert_eq!(owner_len(&mut m, &lay, 0), 1);
        // Child descriptors never match.
        owner_push(&mut m, &mut items, &lay, 0, child_item(9)).unwrap();
        let (none, _) = pop_if(&mut m, &mut items, &lay, 0, Some(e1)).unwrap();
        assert!(none.is_none());
        let _ = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        // Right entry at the bottom: popped.
        let (some, _) = pop_if(&mut m, &mut items, &lay, 0, Some(e1)).unwrap();
        assert_eq!(tag_of(&some.unwrap()), 1);
        assert_eq!(owner_len(&mut m, &lay, 0), 0);
    }

    #[test]
    fn ring_wraps_after_many_cycles() {
        let (mut m, mut items, lay) = setup();
        let cycles = lay.deque_cap as u64 * 2 + 3;
        for i in 0..cycles {
            owner_push(&mut m, &mut items, &lay, 0, child_item(i)).unwrap();
            let (it, _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
            assert_eq!(tag_of(&it.unwrap()), i);
        }
        assert!(items.is_empty());
    }

    #[test]
    fn dead_slot_is_a_typed_error_not_a_panic() {
        let (mut m, mut items, lay) = setup();
        owner_push(&mut m, &mut items, &lay, 0, child_item(3)).unwrap();
        // Corrupt the ring: zero the slot while the bounds still cover it.
        let slot = GlobalAddr::new(0, lay.dq_slot(0));
        m.write_own(0, slot, 0);
        assert!(matches!(
            owner_pop(&mut m, &mut items, &lay, 0).unwrap_err(),
            DequeError::Dead(DeadSlot {
                op: "owner_pop",
                index: 0,
                ..
            })
        ));
        let DequeError::Dead(d) =
            pop_if(&mut m, &mut items, &lay, 0, Some(GlobalAddr::NULL)).unwrap_err()
        else {
            panic!("expected dead slot");
        };
        assert_eq!((d.op, d.index), ("owner_pop_parent", 0));
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        let d = thief_take(&mut m, &mut items, &lay, 1, 0).unwrap_err();
        assert_eq!((d.op, d.index), ("thief_take", 0));
        // The failed thief still released the lock, and left `top` pointing
        // at the corpse.
        assert_eq!(m.get_u64(1, word(&lay, 0, DQ_LOCK)).0, 0);
        assert_eq!(m.get_u64(1, word(&lay, 0, DQ_TOP)).0, 0);
        // A stale non-zero key (payload gone from the slab) is a dead slot
        // too, instead of a panic inside `Slab::take`.
        m.write_own(0, slot, 77 + 1);
        assert!(matches!(
            owner_pop(&mut m, &mut items, &lay, 0),
            Err(DequeError::Dead(_))
        ));
    }

    #[test]
    fn thief_take_advances_top_no_later_than_release() {
        let (mut m, mut items, lay) = setup();
        owner_push(&mut m, &mut items, &lay, 0, child_item(1)).unwrap();
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        let (got, _) = thief_take(&mut m, &mut items, &lay, 1, 0).unwrap();
        assert!(got.is_some());
        // Post-state: bounds advanced AND lock released — never the lock
        // free while `top` still covers the emptied slot.
        assert_eq!(m.get_u64(1, word(&lay, 0, DQ_TOP)).0, 1);
        assert_eq!(m.get_u64(1, word(&lay, 0, DQ_LOCK)).0, 0);
        let (none, _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn known_bounds_take_skips_the_bounds_read() {
        let (mut m, mut items, lay) = setup();
        owner_push(&mut m, &mut items, &lay, 0, child_item(4)).unwrap();
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        let ((top, bottom), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let gets_before = m.stats_total().remote_gets;
        let (got, _) =
            thief_take_no_release_at(&mut m, &mut items, &lay, 1, 0, top, bottom).unwrap();
        let (item, size, from) = got.unwrap();
        assert_eq!((tag_of(&item), from), (4, top));
        assert_eq!(size, item.wire_size());
        // Only the ring-entry pair (adjacent [key, size] words) — the
        // bounds words of `thief_take` were not re-read.
        assert_eq!(m.stats_total().remote_gets, gets_before + 2);
        // The composition the scheduler ships: advance, then release.
        thief_advance_top(&mut m, &lay, 1, 0, from + 1);
        thief_release_lock(&mut m, &lay, 1, 0);
        assert_eq!(m.get_u64(1, word(&lay, 0, DQ_TOP)).0, 1);
        assert_eq!(m.get_u64(1, word(&lay, 0, DQ_LOCK)).0, 0);
        // Known-empty bounds cost nothing and touch nothing.
        let (none, cost) = thief_take_no_release_at(&mut m, &mut items, &lay, 1, 0, 1, 1).unwrap();
        assert!(none.is_none());
        assert_eq!(cost, VTime::ZERO);
    }

    #[test]
    fn wrong_release_order_exposes_dead_slot_window() {
        // Recompose the steal with the lock released *before* the bounds
        // advance — the historical ordering. An owner pop landing in that
        // window sees lock-free bounds covering a zeroed slot: exactly the
        // dead-slot window `dcs-check` must flush out.
        let (mut m, mut items, lay) = setup();
        owner_push(&mut m, &mut items, &lay, 0, child_item(5)).unwrap();
        let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
        assert!(locked);
        let (got, _) = thief_take_no_release(&mut m, &mut items, &lay, 1, 0).unwrap();
        let (_, _, top) = got.unwrap();
        thief_release_lock(&mut m, &lay, 1, 0);
        assert!(matches!(
            owner_pop(&mut m, &mut items, &lay, 0),
            Err(DequeError::Dead(DeadSlot {
                op: "owner_pop",
                index: 0,
                ..
            }))
        ));
        // Once top advances the deque is consistent (empty) again.
        thief_advance_top(&mut m, &lay, 1, 0, top + 1);
        let (none, _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert!(none.is_none());
    }

    // -- lock-free family -------------------------------------------------

    #[test]
    fn lf_push_pop_is_lifo_and_steal_is_fifo() {
        let (mut m, mut items, lay) = setup();
        for i in 0..3 {
            lf_owner_push(&mut m, &mut items, &lay, 0, child_item(i));
        }
        // Thief: bounds read (one span verb), then claim the oldest.
        let ((top, bottom), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        assert_eq!((top, bottom), (0, 3));
        let (got, _) = lf_thief_claim(&mut m, &mut items, &lay, 1, 0, top).unwrap();
        let (item, size) = got.unwrap();
        assert_eq!(tag_of(&item), 0, "steals take the oldest task");
        assert_eq!(size, item.wire_size());
        // Owner pops LIFO, unaffected — and never sees Busy.
        let (it, _) = lf_owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert_eq!(tag_of(&it.unwrap()), 2);
        let (it, _) = lf_owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert_eq!(tag_of(&it.unwrap()), 1);
        let (none, _) = lf_owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert!(none.is_none());
        assert!(items.is_empty());
    }

    #[test]
    fn lf_last_item_race_is_decided_by_the_top_cas() {
        let (mut m, mut items, lay) = setup();
        lf_owner_push(&mut m, &mut items, &lay, 0, child_item(7));
        // Thief reads bounds, then the owner pops the last item first: the
        // owner's top CAS wins, so the thief's stale claim must lose.
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let (it, _) = lf_owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert_eq!(tag_of(&it.unwrap()), 7);
        let (got, _) = lf_thief_claim(&mut m, &mut items, &lay, 1, 0, top).unwrap();
        assert!(got.is_none(), "stale claim loses the CAS, benignly");
        assert!(items.is_empty());
        // And the other order: the thief claims first, the owner then sees
        // an empty deque (top == bottom after the claim's CAS).
        lf_owner_push(&mut m, &mut items, &lay, 0, child_item(8));
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let (got, _) = lf_thief_claim(&mut m, &mut items, &lay, 1, 0, top).unwrap();
        assert_eq!(tag_of(&got.unwrap().0), 8);
        let (none, _) = lf_owner_pop(&mut m, &mut items, &lay, 0).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn lf_pop_parent_matches_only_spawned_child() {
        let (mut m, mut items, lay) = setup();
        let e1 = GlobalAddr::new(0, 0x100);
        let e2 = GlobalAddr::new(0, 0x200);
        lf_owner_push(&mut m, &mut items, &lay, 0, cont_item(1, e1));
        let (none, _) = lf_pop_if(&mut m, &mut items, &lay, 0, Some(e2)).unwrap();
        assert!(none.is_none());
        let (some, _) = lf_pop_if(&mut m, &mut items, &lay, 0, Some(e1)).unwrap();
        assert_eq!(tag_of(&some.unwrap()), 1);
        assert!(items.is_empty());
    }

    #[test]
    fn lf_dead_slot_is_a_typed_error() {
        let (mut m, mut items, lay) = setup();
        lf_owner_push(&mut m, &mut items, &lay, 0, child_item(3));
        let slot = GlobalAddr::new(0, lay.dq_slot(0));
        m.write_own(0, slot, 0);
        assert!(matches!(
            lf_owner_pop(&mut m, &mut items, &lay, 0),
            Err(DequeError::Dead(DeadSlot {
                op: "lf_owner_pop",
                index: 0,
                ..
            }))
        ));
        // Restore a stale (dangling) key: the thief wins its CAS but the
        // payload is gone — typed, not a slab panic.
        m.write_own(0, slot, 77 + 1);
        let d = lf_thief_claim(&mut m, &mut items, &lay, 1, 0, 0).unwrap_err();
        assert_eq!((d.op, d.index), ("lf_thief_claim", 0));
    }

    // -- fence-free family ------------------------------------------------

    fn ff_setup() -> (Machine, WorkerShared, ClaimSet, SegLayout) {
        let cfg = RunConfig::new(2, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(2, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        (m, WorkerShared::new(&cfg), ClaimSet::new(), lay)
    }

    #[test]
    fn ff_push_pop_is_lifo_and_issues_no_amos() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        for i in 0..3 {
            ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(i));
        }
        for i in (0..3).rev() {
            let (it, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
            assert_eq!(tag_of(&it.unwrap()), i);
        }
        let (none, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert!(none.is_none());
        assert!(ws.items.is_empty());
        assert!(ws.ff_tickets.is_empty());
        assert!(claims.is_empty());
        assert_eq!(m.stats_total().remote_amos, 0);
    }

    #[test]
    fn ff_steal_takes_oldest_with_plain_verbs_only() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        for i in 0..3 {
            ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(i));
        }
        let ((top, bottom), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        assert!(top < bottom);
        let (out, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        let FfSteal::Taken(item, size) = out else {
            panic!("expected a clean first take, got {out:?}");
        };
        assert_eq!(tag_of(&item), 0, "steals take the oldest task");
        assert_eq!(size, item.wire_size());
        // Not one AMO on the whole steal path.
        assert_eq!(m.stats_total().remote_amos, 0);
        // The Child original lingers until the owner's walk reclaims it.
        assert_eq!(ws.items.len(), 3);
        let (it, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert_eq!(tag_of(&it.unwrap()), 2);
        let (it, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert_eq!(tag_of(&it.unwrap()), 1);
        // The next pop walks onto the claimed slot, reclaims the original
        // and reports empty.
        let (none, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert!(none.is_none());
        assert!(ws.items.is_empty(), "claimed original reclaimed");
        assert!(claims.is_empty(), "ticket retired");
    }

    #[test]
    fn ff_double_take_of_a_child_is_a_bounded_dup() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(5));
        // Both thieves observed the same bounds before either claimed.
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let (first, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(matches!(first, FfSteal::Taken(..)));
        let (second, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(
            matches!(second, FfSteal::Dup),
            "second take pays and discards"
        );
        let (third, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(matches!(third, FfSteal::Dup));
        // The owner reclaims the original; nothing executes twice.
        let (none, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert!(none.is_none());
        assert!(ws.items.is_empty());
    }

    #[test]
    fn ff_continuations_are_taken_at_most_once() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        ff_owner_push(&mut m, &mut ws, &lay, 0, cont_item(1, GlobalAddr::NULL));
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let (first, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(matches!(first, FfSteal::Taken(..)));
        // A continuation payload leaves the victim with its first taker, so
        // the second take fails validation — a lost race, not even a dup.
        let (second, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(matches!(second, FfSteal::Lost));
        let (none, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert!(none.is_none());
        assert!(ws.items.is_empty());
    }

    #[test]
    fn ff_owner_never_trusts_the_top_hint() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        // A stale claim-write leaves top > bottom; pushes must repair the
        // hint and lose nothing.
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(1));
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let (out, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(matches!(out, FfSteal::Taken(..)));
        assert_eq!(m.read_own(0, GlobalAddr::new(0, lay.dq_word(DQ_TOP))), 1);
        let (none, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert!(none.is_none());
        // bottom is now 0 while the hint says 1: inverted.
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(2));
        let (it, _) = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        assert_eq!(
            tag_of(&it.unwrap()),
            2,
            "item pushed under an inverted hint survives"
        );
        assert!(ws.items.is_empty());
    }

    #[test]
    fn ff_stale_claims_on_consumed_slots_are_lost_races() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(1));
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(2));
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        // Owner drains both items before the thief's claim lands.
        let _ = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        let _ = ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0).unwrap();
        let (out, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        assert!(matches!(out, FfSteal::Lost));
        // Slot reuse: a new push re-occupies the slot with a fresh ticket;
        // a thief claiming with the *current* span steals the new item
        // legitimately (the untorn 3-word read names the new occupancy).
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(3));
        let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
        let (out, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
        let FfSteal::Taken(item, _) = out else {
            panic!("fresh occupancy steal must win");
        };
        assert_eq!(tag_of(&item), 3);
    }

    #[test]
    fn ff_corrupt_unclaimed_slot_is_a_typed_error() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(9));
        // Corrupt the key word while ticket stays nonzero and unclaimed.
        let slot = GlobalAddr::new(0, lay.dq_slot(0));
        m.write_own(0, slot, 555);
        assert!(matches!(
            ff_owner_pop(&mut m, &mut ws, &mut claims, &lay, 0),
            Err(DequeError::Dead(DeadSlot {
                op: "ff_owner_pop",
                index: 0,
                ..
            }))
        ));
    }

    #[test]
    fn ff_owner_reclaim_sweeps_trailing_claimed_slots() {
        let (mut m, mut ws, mut claims, lay) = ff_setup();
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(1));
        ff_owner_push(&mut m, &mut ws, &lay, 0, child_item(2));
        for _ in 0..2 {
            let ((top, _), _) = thief_read_bounds(&mut m, &lay, 1, 0);
            let (out, _) = ff_thief_claim(&mut m, &mut ws, &mut claims, &lay, 1, 0, top);
            assert!(matches!(out, FfSteal::Taken(..)));
        }
        assert_eq!(ws.items.len(), 2, "both originals linger");
        ff_owner_reclaim(&mut m, &mut ws, &mut claims, &lay, 0);
        assert!(ws.items.is_empty());
        assert!(ws.ff_tickets.is_empty());
        assert!(claims.is_empty());
    }

    #[test]
    fn steal_then_owner_drain_preserves_all_items() {
        let (mut m, mut items, lay) = setup();
        let n = 10;
        for i in 0..n {
            owner_push(&mut m, &mut items, &lay, 0, child_item(i)).unwrap();
        }
        let mut seen = vec![false; n as usize];
        // Alternate steals and pops until drained.
        loop {
            let (locked, _) = thief_lock(&mut m, &lay, 1, 0);
            assert!(locked);
            if let (Some((item, _)), _) = thief_take(&mut m, &mut items, &lay, 1, 0).unwrap() {
                seen[tag_of(&item) as usize] = true;
            } else {
                break;
            }
            if let (Some(item), _) = owner_pop(&mut m, &mut items, &lay, 0).unwrap() {
                seen[tag_of(&item) as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "no task lost or duplicated");
    }
}
