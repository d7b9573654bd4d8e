//! Freeing remote objects (§III-B).
//!
//! Thread entries and saved-context records are *remote objects*: allocated
//! in their owner's pinned segment but freed, possibly, by whichever worker
//! finishes the join protocol. Two strategies are implemented:
//!
//! * **Lock queue** (baseline, original MassiveThreads/DM): each worker has a
//!   lock-protected incoming buffer in pinned memory. A remote free acquires
//!   the lock, bumps the counter, inserts the object location and releases —
//!   four communication round trips charged to the *remote* worker. The
//!   owner drains the buffer locally when it next allocates.
//! * **Local collection** (the paper's optimization): the owner keeps every
//!   live remote object in a local registry; each object carries a *free
//!   bit* word in pinned memory. A remote free is one **non-blocking** put
//!   of the free bit; the owner sweeps the registry and reclaims marked
//!   objects when live bytes exceed a limit. This moves almost the entire
//!   cost from remote workers to cheap local operations.
//!
//! Both free protocols complete within a single simulator step, so the
//! lock-queue lock is never observed held across steps — contention
//! serializes through virtual time itself. (The deque lock, by contrast, is
//! deliberately held across steps; see `deque.rs`.)

use dcs_sim::{GlobalAddr, Machine, VTime, VerbHandle, WorkerId, WORD};

use crate::layout::{SegLayout, FQ_COUNT, FQ_LOCK};
use crate::policy::FreeStrategy;
use crate::util::U64Map;
use crate::world::WorkerShared;

/// Extra pinned word appended to every local-collection object for its free
/// bit.
const FREE_BIT_BYTES: u32 = WORD;

#[inline]
fn round_up(bytes: u32) -> u32 {
    bytes.div_ceil(WORD) * WORD
}

/// Byte offset of an object's free bit relative to the object base.
#[inline]
pub fn free_bit_off(bytes: u32) -> u32 {
    round_up(bytes)
}

/// Owner-side registry of live remote objects (local-collection state) and
/// counters for both strategies.
#[derive(Debug)]
pub struct RemoteRegistry {
    /// Live objects: (offset, bytes). Order is irrelevant; removal is
    /// swap-remove through `index`.
    list: Vec<(u32, u32)>,
    index: U64Map<usize>,
    live_bytes: u64,
    /// Hard sweep threshold from the run configuration.
    limit: u64,
    /// Soft threshold; doubled after an unproductive sweep so a long-lived
    /// working set cannot trigger quadratic rescanning, reset when a sweep
    /// reclaims meaningfully.
    soft_limit: u64,
    // Counters (ablation material).
    pub sweeps: u64,
    pub swept_items: u64,
    pub reclaimed: u64,
    pub remote_frees_sent: u64,
    pub local_frees: u64,
    pub lq_drains: u64,
    pub lq_drained_items: u64,
}

impl RemoteRegistry {
    pub fn new(limit: u64) -> RemoteRegistry {
        RemoteRegistry {
            list: Vec::new(),
            index: U64Map::default(),
            live_bytes: 0,
            limit,
            soft_limit: limit,
            sweeps: 0,
            swept_items: 0,
            reclaimed: 0,
            remote_frees_sent: 0,
            local_frees: 0,
            lq_drains: 0,
            lq_drained_items: 0,
        }
    }

    pub fn live(&self) -> usize {
        self.list.len()
    }

    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    fn register(&mut self, off: u32, bytes: u32) {
        self.index.insert(off as u64, self.list.len());
        self.list.push((off, bytes));
        self.live_bytes += bytes as u64;
    }

    fn unregister(&mut self, off: u32) -> u32 {
        let idx = self
            .index
            .remove(&(off as u64))
            .expect("freeing unregistered remote object");
        let (_, bytes) = self.list.swap_remove(idx);
        if idx < self.list.len() {
            let moved = self.list[idx].0;
            self.index.insert(moved as u64, idx);
        }
        self.live_bytes -= bytes as u64;
        bytes
    }
}

/// Allocate a remote object of `bytes` in `me`'s segment. Returns the
/// object's address and the virtual cost (allocation is always owner-local;
/// the cost covers allocator work plus any owner-side maintenance — a
/// lock-queue drain or a local-collection sweep — that piggybacks on the
/// allocation, exactly where the paper's implementation performs it).
pub fn alloc_robj(
    m: &mut Machine,
    ws: &mut WorkerShared,
    lay: &SegLayout,
    strategy: FreeStrategy,
    me: WorkerId,
    bytes: u32,
) -> (GlobalAddr, VTime) {
    let mut cost = m.local_op(me);
    match strategy {
        FreeStrategy::LocalCollection => {
            cost += maybe_sweep(m, ws, me);
            let addr = m.alloc(me, bytes + FREE_BIT_BYTES);
            ws.robj.register(addr.off, bytes);
            (addr, cost)
        }
        FreeStrategy::LockQueue => {
            cost += drain_lock_queue(m, ws, lay, me);
            let addr = m.alloc(me, bytes);
            (addr, cost)
        }
    }
}

/// Free a remote object from worker `me`. Dispatches on ownership and
/// strategy; returns the virtual cost charged to `me`.
pub fn free_robj(
    m: &mut Machine,
    owner_ws: &mut WorkerShared,
    lay: &SegLayout,
    strategy: FreeStrategy,
    me: WorkerId,
    addr: GlobalAddr,
    bytes: u32,
) -> VTime {
    let owner = addr.rank as usize;
    match strategy {
        FreeStrategy::LocalCollection => {
            if owner == me {
                // Owner frees immediately: unlink from the registry, free.
                let reg_bytes = owner_ws.robj.unregister(addr.off);
                debug_assert_eq!(reg_bytes, bytes);
                owner_ws.robj.local_frees += 1;
                m.free(addr, bytes + FREE_BIT_BYTES);
                m.local_op(me)
            } else {
                // One non-blocking put of the free bit. The owner reclaims at
                // its next sweep.
                owner_ws.robj.remote_frees_sent += 1;
                m.post_put_u64_unsignaled(me, addr.field(free_bit_off(bytes) / WORD), 1)
            }
        }
        FreeStrategy::LockQueue => {
            if owner == me {
                m.free(addr, bytes);
                m.local_op(me)
            } else {
                free_via_lock_queue(m, owner_ws, lay, me, addr, bytes)
            }
        }
    }
}

/// The baseline's four-round-trip remote free (§III-B: "this operation
/// involves four round trips"): lock, bump counter, insert, unlock.
fn free_via_lock_queue(
    m: &mut Machine,
    owner_ws: &mut WorkerShared,
    lay: &SegLayout,
    me: WorkerId,
    addr: GlobalAddr,
    bytes: u32,
) -> VTime {
    owner_ws.robj.remote_frees_sent += 1;
    let owner = addr.rank as usize;
    let lock = GlobalAddr::new(owner, lay.fq_word(FQ_LOCK));
    let count = GlobalAddr::new(owner, lay.fq_word(FQ_COUNT));
    // 1. Acquire the lock. Protocol steps are atomic within this simulator
    //    step and no lock-queue holder spans steps, so the CAS succeeds; the
    //    round trip is still charged.
    let (old, c1) = m.cas_u64(me, lock, 0, me as u64 + 1);
    debug_assert_eq!(old, 0, "lock-queue lock held across a step");
    // 2. Bump the counter (fetch-and-add round trip).
    let (n, c2) = m.fetch_add_u64(me, count, 1);
    let idx = n as u32;
    assert!(
        idx < lay.freeq_cap,
        "lock-queue free buffer overflow (cap {})",
        lay.freeq_cap
    );
    // 3. Insert the object location + size (one put; two words adjacent).
    // 4. Release the lock.
    // The insert and the unlock both target the owner's rank, so in-order
    // retirement on that queue pair makes the slot visible before the next
    // lock holder can acquire: the pair is one window — two round trips at
    // depth 1, one when overlapped (the baseline's four become three). The
    // unsignaled second slot word is injected before the unlock is posted
    // and charged on top of the pair at either depth.
    let slot = GlobalAddr::new(owner, lay.fq_slot(idx));
    let mut w = m.window(me, VTime::ZERO);
    let h3 = w.posted(m.post_put_u64(me, slot, addr.to_u64(), w.at()));
    let c3b = m.post_put_u64_unsignaled(me, slot.field(1), bytes as u64);
    let h4 = w.posted(m.post_put_u64(me, lock, 0, w.at()));
    m.wait(me, h3);
    m.wait(me, h4);
    c1 + c2 + c3b + m.finish(&w)
}

/// Owner-side drain of the lock-queue buffer (runs at allocation time; all
/// operations are local).
fn drain_lock_queue(m: &mut Machine, ws: &mut WorkerShared, lay: &SegLayout, me: WorkerId) -> VTime {
    let count_addr = GlobalAddr::new(me, lay.fq_word(FQ_COUNT));
    let (n, mut cost) = m.get_u64(me, count_addr);
    if n == 0 {
        return cost;
    }
    let lock = GlobalAddr::new(me, lay.fq_word(FQ_LOCK));
    let (old, c) = m.cas_u64(me, lock, 0, me as u64 + 1);
    cost += c;
    debug_assert_eq!(old, 0);
    for i in 0..n as u32 {
        let slot = GlobalAddr::new(me, lay.fq_slot(i));
        let (a, c1) = m.get_u64(me, slot);
        let (b, c2) = m.get_u64(me, slot.field(1));
        cost += c1 + c2;
        m.free(GlobalAddr::from_u64(a), b as u32);
        cost += m.local_op(me);
        ws.robj.lq_drained_items += 1;
    }
    cost += m.put_u64(me, count_addr, 0);
    cost += m.put_u64(me, lock, 0);
    ws.robj.lq_drains += 1;
    cost
}

/// Local-collection sweep: when live remote-object bytes exceed the
/// (soft) limit, scan the registry, reclaim objects whose free bit is set.
fn maybe_sweep(m: &mut Machine, ws: &mut WorkerShared, me: WorkerId) -> VTime {
    if ws.robj.live_bytes <= ws.robj.soft_limit {
        return VTime::ZERO;
    }
    let mut cost = VTime::ZERO;
    let mut reclaimed_bytes = 0u64;
    // Post every free-bit read of the registry up front, inside one
    // doorbell chain, and reap them together: dependent reads at depth 1,
    // a software-pipelined scan when overlapped. Values are reaped per
    // handle because the reclaim decision needs each bit.
    let mut w = m.window(me, VTime::ZERO);
    m.chain_begin(me);
    let mut scan: Vec<(u32, u32, VerbHandle)> = Vec::with_capacity(ws.robj.list.len());
    for &(off, bytes) in &ws.robj.list {
        cost += m.local_op(me);
        let bit_addr = GlobalAddr::new(me, off + free_bit_off(bytes));
        scan.push((off, bytes, w.posted(m.post_get_u64(me, bit_addr, w.at()))));
    }
    m.chain_end(me);
    ws.robj.swept_items += scan.len() as u64;
    for (off, bytes, h) in scan {
        if m.wait(me, h).0 != 0 {
            ws.robj.unregister(off);
            m.free(GlobalAddr::new(me, off), bytes + FREE_BIT_BYTES);
            ws.robj.reclaimed += 1;
            reclaimed_bytes += bytes as u64;
        }
    }
    cost += m.finish(&w);
    ws.robj.sweeps += 1;
    if reclaimed_bytes * 2 >= ws.robj.limit {
        ws.robj.soft_limit = ws.robj.limit;
    } else {
        // Unproductive sweep: double the threshold (geometric back-off) so
        // scan work stays amortized O(1) per allocation even when the live
        // working set is large and long-lived.
        ws.robj.soft_limit = (ws.robj.live_bytes * 2).max(ws.robj.limit);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, RunConfig};
    use dcs_sim::{profiles, MachineConfig};

    fn setup(strategy: FreeStrategy) -> (Machine, Vec<WorkerShared>, SegLayout, RunConfig) {
        let mut cfg = RunConfig::new(2, Policy::ContGreedy).with_free_strategy(strategy);
        cfg.collect_limit = 256; // tiny limit to force sweeps in tests
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(2, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        let ws = (0..2).map(|_| WorkerShared::new(&cfg)).collect();
        (m, ws, lay, cfg)
    }

    #[test]
    fn local_collection_owner_free_is_immediate() {
        let (mut m, mut ws, lay, _) = setup(FreeStrategy::LocalCollection);
        let (a, _) = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 24);
        assert_eq!(ws[0].robj.live(), 1);
        free_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, a, 24);
        assert_eq!(ws[0].robj.live(), 0);
        assert_eq!(ws[0].robj.local_frees, 1);
        // The block is reusable right away.
        let (b, _) = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 24);
        assert_eq!(b, a);
    }

    #[test]
    fn local_collection_remote_free_sets_bit_and_sweep_reclaims() {
        let (mut m, mut ws, lay, _) = setup(FreeStrategy::LocalCollection);
        // Owner 0 allocates a batch of objects.
        let addrs: Vec<_> = (0..8)
            .map(|_| {
                alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 64).0
            })
            .collect();
        // Worker 1 frees them remotely: each is one non-blocking put.
        let puts_before = m.stats(1).remote_puts;
        for &a in &addrs {
            free_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 1, a, 64);
        }
        assert_eq!(m.stats(1).remote_puts - puts_before, 8);
        assert_eq!(ws[0].robj.live(), 8, "owner has not swept yet");
        // Keep allocating: once live bytes pass the (possibly backed-off)
        // sweep threshold, the owner reclaims all eight marked objects.
        let mut fresh = 0;
        while ws[0].robj.reclaimed == 0 && fresh < 16 {
            let _ = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 64);
            fresh += 1;
        }
        assert_eq!(ws[0].robj.reclaimed, 8);
        assert_eq!(ws[0].robj.live(), fresh); // only the fresh allocations remain
    }

    #[test]
    fn lock_queue_remote_free_costs_four_round_trips() {
        let (mut m, mut ws, lay, _) = setup(FreeStrategy::LockQueue);
        let (a, _) = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LockQueue, 0, 48);
        let s0 = *m.stats(1);
        free_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LockQueue, 1, a, 48);
        let s1 = *m.stats(1);
        // 2 atomics (lock CAS + counter FAA) and 3 puts (two slot words, one
        // of them non-blocking, + unlock) — 4 blocking round trips total.
        assert_eq!(s1.remote_amos - s0.remote_amos, 2);
        assert_eq!(s1.remote_puts - s0.remote_puts, 3);
        // The owner drains on its next allocation.
        let (_, _) = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LockQueue, 0, 48);
        assert_eq!(ws[0].robj.lq_drained_items, 1);
        assert_eq!(ws[0].robj.lq_drains, 1);
    }

    #[test]
    fn lock_queue_owner_free_is_local() {
        let (mut m, mut ws, lay, _) = setup(FreeStrategy::LockQueue);
        let (a, _) = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LockQueue, 0, 48);
        let s0 = *m.stats(0);
        free_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LockQueue, 0, a, 48);
        let s1 = *m.stats(0);
        assert_eq!(s1.remote_total(), s0.remote_total());
    }

    #[test]
    fn unproductive_sweep_backs_off() {
        let (mut m, mut ws, lay, _) = setup(FreeStrategy::LocalCollection);
        // Fill past the limit with objects that are never freed.
        for _ in 0..16 {
            let _ = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 64);
        }
        let sweeps_after_fill = ws[0].robj.sweeps;
        // More allocations must not sweep on every call.
        for _ in 0..16 {
            let _ = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 64);
        }
        assert!(
            ws[0].robj.sweeps <= sweeps_after_fill + 2,
            "soft limit failed to back off: {} sweeps",
            ws[0].robj.sweeps
        );
    }

    #[test]
    #[should_panic(expected = "unregistered remote object")]
    fn double_local_free_panics() {
        let (mut m, mut ws, lay, _) = setup(FreeStrategy::LocalCollection);
        let (a, _) = alloc_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, 24);
        free_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, a, 24);
        free_robj(&mut m, &mut ws[0], &lay, FreeStrategy::LocalCollection, 0, a, 24);
    }
}
