//! Thread entries: the pinned-memory records behind the join protocols.
//!
//! A thread entry is allocated where a thread is spawned and acts as the
//! rendezvous between the joined (producer) and joining (consumer) threads
//! (§III-A). Both sides hold only its location ([`ThreadHandle`]), since
//! either thread may migrate at any time.
//!
//! Layouts (64-bit words):
//!
//! * single-consumer (Fig. 3 stalling / Fig. 4 greedy):
//!   `[ FLAG, CTXLOC ]` — `FLAG` is the completion flag (stalling) or the
//!   race counter (greedy); `CTXLOC` holds the suspended joiner's
//!   saved-context location (greedy only).
//! * multi-consumer future (§V-D), `n` consumers:
//!   `[ FLAG, CONSUMED, CTXLOC[0], …, CTXLOC[n-1] ]` — `FLAG` counts waiter
//!   arrivals in its low half and carries the DONE bit when the producer
//!   completes; `CONSUMED` counts value hand-offs so the *last* consumer
//!   frees the entry.
//!
//! The return value itself is conceptually stored in the entry
//! (`E.retval`); its Rust representation lives in the run-wide `retvals`
//! side table keyed by entry address, and fetching it is charged as a bulk
//! get of its wire size.
//!
//! Saved-context records (`ctxloc` targets) are 3-word remote objects:
//! `[ OWNER, SLOT, BYTES ]` — enough for the resumer to locate the evacuated
//! stack (in `WorkerShared::saved` of worker OWNER) and charge the stack
//! transfer.

use dcs_sim::{GlobalAddr, Machine, VTime, Verb, WorkerId};

use crate::layout::SegLayout;
use crate::policy::FreeStrategy;
use crate::remote_free::{alloc_robj, free_robj};
use crate::util::U64Map;
use crate::value::ThreadHandle;
use crate::world::EntryMeta;

/// Word index of the flag in every entry layout.
pub const E_FLAG: u32 = 0;
/// Word index of the single-consumer saved-context location.
pub const E_CTXLOC: u32 = 1;
/// Word index of the multi-consumer consumed counter.
pub const EM_CONSUMED: u32 = 1;
/// First ctxloc slot of a multi-consumer entry.
pub const EM_CTX0: u32 = 2;

/// DONE bit in a multi-consumer flag word (low 32 bits count arrivals).
pub const DONE_BIT: u64 = 1 << 32;

/// Pinned size of an entry with the given consumer count.
pub fn entry_bytes(consumers: u32) -> u32 {
    if consumers <= 1 {
        2 * 8
    } else {
        (2 + consumers) * 8
    }
}

/// Pinned size of a saved-context record.
pub const SAVED_CTX_BYTES: u32 = 3 * 8;

/// Allocate a thread entry in `me`'s segment (spawn site), registering its
/// metadata. Entries are remote objects — anybody may free them.
pub fn alloc_entry(
    m: &mut Machine,
    ws: &mut crate::world::WorkerShared,
    lay: &SegLayout,
    strategy: FreeStrategy,
    me: WorkerId,
    consumers: u32,
    meta: &mut U64Map<EntryMeta>,
) -> (ThreadHandle, VTime) {
    let bytes = entry_bytes(consumers);
    let (addr, cost) = alloc_robj(m, ws, lay, strategy, me, bytes);
    meta.insert(addr.to_u64(), EntryMeta { consumers, bytes });
    (ThreadHandle { entry: addr, consumers }, cost)
}

/// Free a thread entry from worker `me` (the last consumer), dropping its
/// metadata and any parked return value.
#[allow(clippy::too_many_arguments)]
pub fn free_entry(
    m: &mut Machine,
    owner_ws: &mut crate::world::WorkerShared,
    lay: &SegLayout,
    strategy: FreeStrategy,
    me: WorkerId,
    h: ThreadHandle,
    meta: &mut U64Map<EntryMeta>,
    retvals: &mut U64Map<crate::world::StoredVal>,
) -> VTime {
    let key = h.entry.to_u64();
    let em = meta
        .remove(&key)
        .expect("freeing an entry without metadata (double free?)");
    retvals.remove(&key);
    free_robj(m, owner_ws, lay, strategy, me, h.entry, em.bytes)
}

/// Allocate and fill a saved-context record for a thread suspended by `me`,
/// whose evacuated stack sits in `me`'s saved-slab slot `slot` with
/// `stack_bytes` of migratable state.
pub fn alloc_saved_ctx(
    m: &mut Machine,
    ws: &mut crate::world::WorkerShared,
    lay: &SegLayout,
    strategy: FreeStrategy,
    me: WorkerId,
    slot: u32,
    stack_bytes: usize,
) -> (GlobalAddr, VTime) {
    let (addr, mut cost) = alloc_robj(m, ws, lay, strategy, me, SAVED_CTX_BYTES);
    // Owner-local writes; one combined local touch.
    cost += m.call(me, Verb::Put(addr.field(0), me as u64)).1;
    cost += m.call(me, Verb::Put(addr.field(1), slot as u64)).1;
    cost += m.call(me, Verb::Put(addr.field(2), stack_bytes as u64)).1;
    (addr, cost)
}

/// The fields of a saved-context record, as read by a (possibly remote)
/// resumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedCtx {
    pub owner: WorkerId,
    pub slot: u32,
    pub stack_bytes: usize,
}

/// Read a saved-context record (one small get covers the 24-byte record).
pub fn read_saved_ctx(m: &mut Machine, me: WorkerId, addr: GlobalAddr) -> (SavedCtx, VTime) {
    let (owner, c1) = m.call(me, Verb::Get(addr.field(0)));
    // The record is 24 contiguous bytes; a real implementation reads it in
    // one verb. Charge one round trip; the remaining words are free reads.
    let (slot, _) = m.call(me, Verb::Get(addr.field(1)));
    let (bytes, _) = m.call(me, Verb::Get(addr.field(2)));
    (
        SavedCtx {
            owner: owner as WorkerId,
            slot: slot as u32,
            stack_bytes: bytes as usize,
        },
        c1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, RunConfig};
    use crate::world::WorkerShared;
    use dcs_sim::{profiles, MachineConfig};

    fn setup() -> (Machine, WorkerShared, SegLayout) {
        let cfg = RunConfig::new(2, Policy::ContGreedy);
        let lay = SegLayout::new(&cfg);
        let m = Machine::new(
            MachineConfig::new(2, profiles::test_profile())
                .with_seg_bytes(cfg.seg_bytes)
                .with_reserved(lay.reserved),
        );
        (m, WorkerShared::new(&cfg), lay)
    }

    #[test]
    fn entry_sizes() {
        assert_eq!(entry_bytes(1), 16);
        assert_eq!(entry_bytes(2), 32);
        assert_eq!(entry_bytes(3), 40);
    }

    #[test]
    fn entry_alloc_free_roundtrip() {
        let (mut m, mut ws, lay) = setup();
        let mut meta = U64Map::default();
        let mut retvals = U64Map::default();
        let st = FreeStrategy::LocalCollection;
        let (h, _) = alloc_entry(&mut m, &mut ws, &lay, st, 0, 1, &mut meta);
        assert_eq!(h.consumers, 1);
        assert!(meta.contains_key(&h.entry.to_u64()));
        // Fresh entries are zeroed (flag unset).
        let (flag, _) = m.call(0, Verb::Get(h.entry.field(E_FLAG)));
        assert_eq!(flag, 0);
        free_entry(&mut m, &mut ws, &lay, st, 0, h, &mut meta, &mut retvals);
        assert!(meta.is_empty());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn entry_double_free_panics() {
        let (mut m, mut ws, lay) = setup();
        let mut meta = U64Map::default();
        let mut retvals = U64Map::default();
        let st = FreeStrategy::LocalCollection;
        let (h, _) = alloc_entry(&mut m, &mut ws, &lay, st, 0, 1, &mut meta);
        free_entry(&mut m, &mut ws, &lay, st, 0, h, &mut meta, &mut retvals);
        free_entry(&mut m, &mut ws, &lay, st, 0, h, &mut meta, &mut retvals);
    }

    #[test]
    fn saved_ctx_roundtrip_local_and_remote() {
        let (mut m, mut ws, lay) = setup();
        let st = FreeStrategy::LocalCollection;
        let (addr, _) = alloc_saved_ctx(&mut m, &mut ws, &lay, st, 0, 42, 1792);
        let (ctx, local_cost) = read_saved_ctx(&mut m, 0, addr);
        assert_eq!(
            ctx,
            SavedCtx {
                owner: 0,
                slot: 42,
                stack_bytes: 1792
            }
        );
        let (ctx2, remote_cost) = read_saved_ctx(&mut m, 1, addr);
        assert_eq!(ctx, ctx2);
        assert!(remote_cost > local_cost);
    }

    #[test]
    fn multi_consumer_entry_has_slots() {
        let (mut m, mut ws, lay) = setup();
        let mut meta = U64Map::default();
        let st = FreeStrategy::LocalCollection;
        let (h, _) = alloc_entry(&mut m, &mut ws, &lay, st, 0, 3, &mut meta);
        // Write each ctxloc slot and read back through the fabric.
        for i in 0..3 {
            m.call(0, Verb::Put(h.entry.field(EM_CTX0 + i), 100 + i as u64));
        }
        for i in 0..3 {
            let (v, _) = m.call(1, Verb::Get(h.entry.field(EM_CTX0 + i)));
            assert_eq!(v, 100 + i as u64);
        }
        assert_eq!(meta[&h.entry.to_u64()].bytes, 40);
    }
}
