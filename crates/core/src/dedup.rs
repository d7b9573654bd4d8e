//! First-claimer-wins deduplication: the fence-free claim set.
//!
//! Fence-free stealing with multiplicity lets a task be *taken* by more
//! than one thief (no atomics on the wire), but only the first to claim its
//! ticket in the shared [`ClaimSet`] may *execute* it. Each engine step is
//! atomic, so no host-side locking is needed — see docs/PROTOCOLS.md, "What
//! the checker can and cannot see". The eviction arbiter
//! (`RtShared::evictions`) reuses the same set; lineage records are claimed
//! by taking them out of the log (`world::Lineage::take`).

use crate::util::U64Map;

/// A set of `u64` tickets with first-claimer-wins insertion — the dedup
/// arbiter for fence-free stealing. Tickets are globally unique per deque
/// occupancy (worker id ⊕ per-worker counter), so the set only ever grows
/// within a run; entries for consumed tasks are retired by the claimer to
/// keep the map bounded by in-flight multiplicity, not run length.
#[derive(Debug, Default)]
pub struct ClaimSet {
    claimed: U64Map<()>,
}

impl ClaimSet {
    pub fn new() -> ClaimSet {
        ClaimSet::default()
    }

    /// Attempt to claim `ticket`: `true` exactly once per ticket.
    #[must_use]
    pub fn first_claim(&mut self, ticket: u64) -> bool {
        self.claimed.insert(ticket, ()).is_none()
    }

    /// Has `ticket` been claimed (by anyone)?
    pub fn contains(&self, ticket: u64) -> bool {
        self.claimed.contains_key(&ticket)
    }

    /// Retire a claimed ticket once its slot has been consumed and can
    /// never be observed again (owner-side reclaim). No-op if absent.
    pub fn retire(&mut self, ticket: u64) {
        self.claimed.remove(&ticket);
    }

    pub fn len(&self) -> usize {
        self.claimed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.claimed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_set_first_claim_per_ticket() {
        let mut s = ClaimSet::new();
        assert!(s.is_empty());
        assert!(s.first_claim(7));
        assert!(!s.first_claim(7), "double-take of one ticket is denied");
        assert!(s.first_claim(8), "distinct tickets are independent");
        assert!(s.contains(7) && s.contains(8) && !s.contains(9));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn claim_set_retire_bounds_the_map() {
        let mut s = ClaimSet::new();
        assert!(s.first_claim(1));
        s.retire(1);
        assert!(s.is_empty());
        // Tickets are unique per occupancy, so a retired ticket never
        // reappears in a real run; retire exists purely to bound memory.
        s.retire(42); // absent: no-op
    }
}
