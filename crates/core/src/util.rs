//! Small allocation-friendly containers used on the simulator's hot paths.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for `u64` keys (thread-entry addresses, thread ids).
/// The default SipHash is needlessly slow for these hot per-protocol-op maps;
/// a Fibonacci-style multiply mixes segment offsets (which share low-bit
/// patterns) well enough.
#[derive(Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only fixed-width integer keys are expected; fall back to FNV-ish
        // folding for anything else so the hasher stays total.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed by `u64` with the fast hasher.
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// `HashSet` of `u64` (thread ids) with the fast hasher.
pub type U64Set = HashSet<u64, BuildHasherDefault<U64Hasher>>;

/// `HashMap` keyed by worker id with the fast hasher.
pub type WorkerMap<V> = HashMap<usize, V, BuildHasherDefault<U64Hasher>>;

/// Slot-reusing arena. Deque payload objects and evacuated threads are
/// addressed by slot index from pinned-memory words, so the container must
/// give out stable small integer keys — exactly a slab.
#[derive(Debug)]
pub struct Slab<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Slab<T> {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Insert, returning the slot key.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.items[idx as usize].is_none());
            self.items[idx as usize] = Some(value);
            idx
        } else {
            self.items.push(Some(value));
            (self.items.len() - 1) as u32
        }
    }

    /// Remove and return the value at `key`; panics on empty slots (a slot
    /// key in pinned memory that does not match a live object is a protocol
    /// bug).
    #[track_caller]
    pub fn take(&mut self, key: u32) -> T {
        let v = self.items[key as usize]
            .take()
            .expect("slab slot already empty");
        self.free.push(key);
        self.len -= 1;
        v
    }

    /// Remove and return the value at `key`, or `None` when the slot is
    /// empty or out of range. The deque protocol uses this to turn a stale
    /// slab key decoded from pinned memory into a typed protocol violation
    /// instead of the [`Slab::take`] panic.
    pub fn try_take(&mut self, key: u32) -> Option<T> {
        let v = self.items.get_mut(key as usize)?.take()?;
        self.free.push(key);
        self.len -= 1;
        Some(v)
    }

    pub fn get(&self, key: u32) -> Option<&T> {
        self.items.get(key as usize).and_then(|s| s.as_ref())
    }

    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.items.get_mut(key as usize).and_then(|s| s.as_mut())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_take_reuse() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.take(a), "a");
        let c = s.insert("c");
        assert_eq!(c, a, "slot reuse");
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.get(c), Some(&"c"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already empty")]
    fn slab_double_take_panics() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.take(a);
        s.take(a);
    }

    #[test]
    fn slab_try_take_tolerates_dead_keys() {
        let mut s = Slab::new();
        let a = s.insert(5);
        assert_eq!(s.try_take(a), Some(5));
        assert_eq!(s.try_take(a), None, "already empty");
        assert_eq!(s.try_take(999), None, "out of range");
        // The freed slot is still reusable after a failed try_take.
        let b = s.insert(6);
        assert_eq!(b, a);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slab_iter_skips_holes() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let _b = s.insert(2);
        let _c = s.insert(3);
        s.take(a);
        let vals: Vec<i32> = s.iter().map(|(_, &v)| v).collect();
        assert_eq!(vals, vec![2, 3]);
        assert!(!s.is_empty());
    }

    #[test]
    fn u64_map_works() {
        let mut m: U64Map<u32> = U64Map::default();
        for i in 0..1000u64 {
            m.insert(i * 8, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(500 * 8)), Some(&500));
        assert_eq!(m.remove(&0), Some(0));
    }
}
