//! Simulated pinned memory segments and global addresses.
//!
//! Each worker owns one [`Segment`]: the RDMA-registered ("pinned") memory
//! window that remote workers can read, write and atomically update through
//! the fabric verbs in [`crate::machine::Machine`]. A [`GlobalAddr`] names a
//! word in some worker's segment — it is the `Loc(T)` of the paper's
//! pseudocode (Fig. 3/4): worker rank + virtual address.
//!
//! Memory is word-granular (`u64`): every object the protocols place in
//! pinned memory (thread entries, deque control words, ring entries, saved
//! context descriptors, free bits) is a small record of u64 fields. Bulk
//! payloads (migrated call stacks, task arguments) are accounted by byte size
//! on the fabric but their Rust-side representation travels through typed
//! side tables owned by the runtime, so the segment itself never needs raw
//! byte storage. On the host a segment is paged, and its first cache line —
//! the deque control block — is stored inline (see [`Segment`]).
//!
//! The embedded allocator ([`SegAlloc`]) is a bump allocator with per-size
//! free lists — the workload is a high rate of small fixed-size records
//! (thread entries are allocated at every spawn), which is exactly what a
//! segregated free list is good at, and it keeps allocation O(1) and
//! deterministic.

use std::collections::BTreeMap;
use std::fmt;

/// Bytes per memory word.
pub const WORD: u32 = 8;

/// A global address: worker rank + byte offset within that worker's segment.
///
/// Packs to a single `u64` so that addresses themselves can be stored in
/// pinned memory words (e.g. `ctxloc` in the greedy-join thread entry).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddr {
    pub rank: u32,
    /// Byte offset, always a multiple of [`WORD`].
    pub off: u32,
}

impl GlobalAddr {
    /// The null address (no valid segment offset); used as "absent" marker in
    /// pinned-memory fields.
    pub const NULL: GlobalAddr = GlobalAddr {
        rank: u32::MAX,
        off: u32::MAX,
    };

    #[inline]
    pub fn new(rank: usize, off: u32) -> GlobalAddr {
        debug_assert_eq!(off % WORD, 0, "unaligned global address");
        GlobalAddr {
            rank: rank as u32,
            off,
        }
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self == GlobalAddr::NULL
    }

    /// Address of the `i`-th word field of a record starting at `self`.
    #[inline]
    pub fn field(self, i: u32) -> GlobalAddr {
        debug_assert!(!self.is_null());
        GlobalAddr {
            rank: self.rank,
            off: self.off + i * WORD,
        }
    }

    #[inline]
    pub fn to_u64(self) -> u64 {
        ((self.rank as u64) << 32) | self.off as u64
    }

    #[inline]
    pub fn from_u64(v: u64) -> GlobalAddr {
        GlobalAddr {
            rank: (v >> 32) as u32,
            off: v as u32,
        }
    }
}

impl fmt::Debug for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "GlobalAddr(NULL)")
        } else {
            write!(f, "GlobalAddr({}:{:#x})", self.rank, self.off)
        }
    }
}

/// Allocation statistics for a segment.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegStats {
    pub live_bytes: u64,
    pub peak_bytes: u64,
    pub total_allocs: u64,
    pub total_frees: u64,
}

/// Bump allocator with segregated free lists, embedded in each segment.
#[derive(Debug)]
pub struct SegAlloc {
    /// Next unallocated byte offset.
    bump: u32,
    /// Segment capacity in bytes.
    cap: u32,
    /// Free lists keyed by block size in bytes.
    free: BTreeMap<u32, Vec<u32>>,
    stats: SegStats,
}

impl SegAlloc {
    fn new(cap_bytes: u32, reserved: u32) -> SegAlloc {
        SegAlloc {
            bump: reserved,
            cap: cap_bytes,
            free: BTreeMap::new(),
            stats: SegStats::default(),
        }
    }

    /// Allocate `bytes` (rounded up to a word multiple). Returns the byte
    /// offset. Panics if the segment is exhausted — segment sizing is a
    /// configuration decision, running out is a setup bug, not a runtime
    /// condition the protocols handle.
    pub fn alloc(&mut self, bytes: u32) -> u32 {
        let size = round_up(bytes);
        let off = if let Some(list) = self.free.get_mut(&size) {
            let off = list.pop().expect("empty free list present");
            if list.is_empty() {
                self.free.remove(&size);
            }
            off
        } else {
            let off = self.bump;
            assert!(
                off.checked_add(size).is_some_and(|end| end <= self.cap),
                "segment exhausted: cap={} bump={} request={}",
                self.cap,
                self.bump,
                size
            );
            self.bump += size;
            off
        };
        self.stats.total_allocs += 1;
        self.stats.live_bytes += size as u64;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        off
    }

    /// Return a block to its size-class free list.
    pub fn free(&mut self, off: u32, bytes: u32) {
        let size = round_up(bytes);
        debug_assert!(off + size <= self.bump, "freeing unallocated block");
        self.free.entry(size).or_default().push(off);
        self.stats.total_frees += 1;
        debug_assert!(
            self.stats.live_bytes >= size as u64,
            "free without matching alloc"
        );
        self.stats.live_bytes -= size as u64;
    }

    pub fn stats(&self) -> SegStats {
        self.stats
    }
}

#[inline]
fn round_up(bytes: u32) -> u32 {
    bytes.div_ceil(WORD) * WORD
}

/// Bytes per page of a segment: the granularity at which the simulated
/// pinned footprint is *accounted* ([`Segment::resident_bytes`]) and at
/// which host backing is allocated for everything past the inline head.
/// The configured capacity is only an address-space bound; both figures
/// are O(touched pages), not O(workers × seg_bytes) (see [`Segment`]).
pub const PAGE_BYTES: u32 = 4096;

/// Words per page.
const PAGE_WORDS: usize = (PAGE_BYTES / WORD) as usize;

/// Words of page 0 stored inline in the [`Segment`] struct: one cache line,
/// which holds the deque control block (`DQ_LOCK/DQ_TOP/DQ_BOTTOM`, the
/// bag lock of `dcs-bot`) and the first ring words. At large worker counts
/// almost every steal probe and every own-deque pop lands on these words of
/// an otherwise empty segment; inline, they cost no 4 KiB host page (and no
/// TLB + cache miss through the page table) per idle worker.
const HEAD_WORDS: usize = 8;

/// One page-table slot; `None` until the first non-zero write to the page
/// (for page 0: to its body, past the inline head).
type PageSlot = Option<Box<[u64; PAGE_WORDS]>>;

fn zero_page() -> Box<[u64; PAGE_WORDS]> {
    // `vec![0; _]` lowers to a zeroed allocation; no 4 KiB stack round-trip.
    let page = vec![0u64; PAGE_WORDS].into_boxed_slice();
    page.try_into().expect("a page is PAGE_WORDS long")
}

/// One worker's pinned memory window.
///
/// The first `reserved` bytes are statically laid out by the runtime (deque
/// control words + ring buffer); the rest is managed by the embedded
/// allocator for dynamically created remote objects (thread entries, saved
/// contexts). Storage is the inline head (the first [`HEAD_WORDS`] words)
/// plus a page table of lazily boxed 4 KiB pages (see [`PAGE_BYTES`]): an
/// absent page reads as zero, and writing a zero to an absent page is a
/// no-op — so a fresh segment, a fresh page and a never-written word are
/// all indistinguishable, and laziness cannot change any simulation result.
/// The table is lazy too: it reaches only to the highest page whose boxed
/// part was ever written non-zero, and a page past its end is an absent
/// page. [`SegAlloc`] bumps upward from `reserved`, so the touched pages
/// are a prefix and a segment that holds little has a short table.
///
/// Two footprints are reported, and only the first is a simulation result:
/// [`Segment::resident_bytes`] is the *simulated* pinned footprint — one
/// [`PAGE_BYTES`] page per page that ever held a non-zero word anywhere in
/// it, head included — and [`Segment::backing_bytes`] is what the host
/// allocated, which for a segment whose traffic stays in the head is zero.
pub struct Segment {
    /// Words `0..HEAD_WORDS` of page 0. Page 0's box, when it exists, keeps
    /// these positions unused.
    head: [u64; HEAD_WORDS],
    /// Slots for pages `0..=highest page whose box was ever needed`.
    pages: Vec<PageSlot>,
    alloc: SegAlloc,
    /// Resident pages other than page 0. Monotone: pages are never
    /// released while the segment lives (a freed record's page stays
    /// resident, matching a real allocator's behaviour). Each of these has
    /// a box.
    resident_pages: usize,
    /// Page 0 is resident: it received a non-zero write, to its head or to
    /// its body. Kept apart from `resident_pages` so that the two stores of
    /// page 0 cannot count it twice.
    page0_resident: bool,
}

impl Segment {
    pub fn new(cap_bytes: u32, reserved_bytes: u32) -> Segment {
        assert_eq!(cap_bytes % WORD, 0);
        let reserved = round_up(reserved_bytes);
        assert!(reserved <= cap_bytes);
        Segment {
            head: [0; HEAD_WORDS],
            pages: Vec::new(),
            alloc: SegAlloc::new(cap_bytes, reserved),
            resident_pages: 0,
            page0_resident: false,
        }
    }

    /// Simulated pinned footprint of this segment at 4 KiB registration
    /// granularity: [`PAGE_BYTES`] per page that ever received a non-zero
    /// write. A simulation result (pinned by goldens); the host cost is
    /// [`Segment::backing_bytes`].
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        (self.resident_pages + usize::from(self.page0_resident)) as u64 * PAGE_BYTES as u64
    }

    /// Host bytes allocated behind this segment: the boxed pages plus the
    /// page table (one slot per page up to the highest boxed one). The
    /// inline head is part of the struct and not counted, so a segment that
    /// only ever saw its control block written reports 0.
    pub fn backing_bytes(&self) -> u64 {
        let boxed = self.resident_pages + usize::from(matches!(self.pages.first(), Some(Some(_))));
        boxed as u64 * PAGE_BYTES as u64
            + (self.pages.len() * std::mem::size_of::<PageSlot>()) as u64
    }

    /// Word index of `off`, checked in release builds too: past the table a
    /// stray offset would otherwise pass for an absent page, and a
    /// misaligned one would alias the word below it — across the head/body
    /// seam, a word of the other store.
    #[inline]
    fn word(&self, off: u32) -> usize {
        assert_eq!(off % WORD, 0, "offset {off:#x} is not word-aligned");
        assert!(
            off < self.alloc.cap,
            "offset {off:#x} past segment capacity"
        );
        (off / WORD) as usize
    }

    #[inline]
    pub fn read(&self, off: u32) -> u64 {
        let idx = self.word(off);
        if idx < HEAD_WORDS {
            return self.head[idx];
        }
        match self.pages.get(idx / PAGE_WORDS) {
            Some(Some(p)) => p[idx % PAGE_WORDS],
            _ => 0,
        }
    }

    #[inline]
    pub fn write(&mut self, off: u32, v: u64) {
        let idx = self.word(off);
        let (page, word) = (idx / PAGE_WORDS, idx % PAGE_WORDS);
        if idx < HEAD_WORDS {
            self.head[idx] = v;
            self.page0_resident |= v != 0;
        } else if let Some(Some(p)) = self.pages.get_mut(page) {
            p[word] = v;
        } else if v != 0 {
            // An absent page already reads as zero: only a non-zero write
            // needs backing. This keeps record-zeroing on alloc (and
            // protocol writes of 0 / NULL) free of host memory.
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, || None);
            }
            self.pages[page].insert(zero_page())[word] = v;
            if page == 0 {
                self.page0_resident = true;
            } else {
                self.resident_pages += 1;
            }
        }
    }

    #[inline]
    pub fn fetch_add(&mut self, off: u32, add: u64) -> u64 {
        let old = self.read(off);
        self.write(off, old.wrapping_add(add));
        old
    }

    /// Compare-and-swap; returns the observed value (swap happened iff it
    /// equals `expect`).
    #[inline]
    pub fn cas(&mut self, off: u32, expect: u64, new: u64) -> u64 {
        let old = self.read(off);
        if old == expect {
            self.write(off, new);
        }
        old
    }

    /// Allocate a record of `bytes` in this segment, zeroing its words.
    pub fn alloc(&mut self, bytes: u32) -> u32 {
        let off = self.alloc.alloc(bytes);
        for i in 0..round_up(bytes) / WORD {
            self.write(off + i * WORD, 0);
        }
        off
    }

    pub fn free(&mut self, off: u32, bytes: u32) {
        self.alloc.free(off, bytes);
    }

    pub fn alloc_stats(&self) -> SegStats {
        self.alloc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_addr_roundtrip() {
        let a = GlobalAddr::new(42, 0x1000);
        assert_eq!(GlobalAddr::from_u64(a.to_u64()), a);
        assert_eq!(a.field(3).off, 0x1000 + 24);
        assert!(GlobalAddr::NULL.is_null());
        assert!(!a.is_null());
        // NULL survives the u64 roundtrip too.
        assert!(GlobalAddr::from_u64(GlobalAddr::NULL.to_u64()).is_null());
    }

    #[test]
    fn segment_read_write_atomic() {
        let mut s = Segment::new(1024, 64);
        s.write(0, 7);
        assert_eq!(s.read(0), 7);
        assert_eq!(s.fetch_add(0, 5), 7);
        assert_eq!(s.read(0), 12);
        assert_eq!(s.cas(0, 12, 99), 12);
        assert_eq!(s.read(0), 99);
        assert_eq!(s.cas(0, 12, 1), 99); // failed CAS leaves value
        assert_eq!(s.read(0), 99);
    }

    #[test]
    fn alloc_reuses_freed_blocks() {
        let mut s = Segment::new(4096, 0);
        let a = s.alloc(24);
        let b = s.alloc(24);
        assert_ne!(a, b);
        s.free(a, 24);
        let c = s.alloc(24);
        assert_eq!(c, a, "freed block should be recycled");
        let st = s.alloc_stats();
        assert_eq!(st.total_allocs, 3);
        assert_eq!(st.total_frees, 1);
        assert_eq!(st.live_bytes, 48);
    }

    #[test]
    fn alloc_zeroes_memory() {
        let mut s = Segment::new(4096, 0);
        let a = s.alloc(16);
        s.write(a, u64::MAX);
        s.write(a + 8, u64::MAX);
        s.free(a, 16);
        let b = s.alloc(16);
        assert_eq!(b, a);
        assert_eq!(s.read(b), 0);
        assert_eq!(s.read(b + 8), 0);
    }

    #[test]
    fn alloc_rounds_to_words() {
        let mut s = Segment::new(4096, 0);
        let a = s.alloc(1);
        let b = s.alloc(1);
        assert_eq!(b - a, WORD);
    }

    #[test]
    #[should_panic(expected = "segment exhausted")]
    fn exhaustion_panics() {
        let mut s = Segment::new(64, 0);
        let _ = s.alloc(128);
    }

    /// Pages materialize only on the first *non-zero* write; reads and
    /// zero writes are free, and host cost tracks touched pages, not
    /// capacity.
    #[test]
    fn pages_materialize_on_first_nonzero_write() {
        let far = 512 * 1024; // well past the first page of a 1 MiB segment
        let mut s = Segment::new(1 << 20, 128);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.read(far), 0, "absent page reads as zero");
        s.write(far, 0);
        assert_eq!(s.resident_bytes(), 0, "zero write needs no backing");
        s.write(far, 7);
        assert_eq!(s.resident_bytes(), PAGE_BYTES as u64);
        assert_eq!(s.read(far), 7);
        // Same page: free. Distant page: one more page, regardless of the
        // untouched span in between.
        s.write(far + 8, 9);
        assert_eq!(s.resident_bytes(), PAGE_BYTES as u64);
        s.write(0, 1);
        assert_eq!(s.resident_bytes(), 2 * PAGE_BYTES as u64);
        // Overwriting with zero keeps the page (residency is monotone) and
        // the value round-trips.
        s.write(far, 0);
        assert_eq!(s.read(far), 0);
        assert_eq!(s.read(far + 8), 9);
        assert_eq!(s.resident_bytes(), 2 * PAGE_BYTES as u64);
    }

    /// The allocator's zeroing of recycled records really clears stale data
    /// on materialized pages (the zero-skip applies only to absent pages).
    #[test]
    fn realloc_on_materialized_page_is_zeroed() {
        let mut s = Segment::new(1 << 16, 0);
        let a = s.alloc(24);
        s.write(a, u64::MAX);
        s.write(a + 16, u64::MAX);
        s.free(a, 24);
        let b = s.alloc(24);
        assert_eq!(b, a);
        for i in 0..3 {
            assert_eq!(s.read(b + i * WORD), 0, "stale word at field {i}");
        }
    }

    /// The page table reaches only as far as the highest page whose box was
    /// ever needed: a big segment that holds its deque control words costs
    /// no host allocation at all, not `cap / PAGE_BYTES` slots.
    #[test]
    fn table_grows_with_the_boxed_prefix() {
        let cap: u32 = 64 << 20;
        let page = PAGE_BYTES as u64;
        let slot = std::mem::size_of::<PageSlot>() as u64;
        let mut s = Segment::new(cap, 128);
        assert_eq!(s.backing_bytes(), 0, "a fresh segment has no table");
        s.write(0, 1);
        s.write(16, 2);
        assert_eq!(s.backing_bytes(), 0, "control words live in the head");
        s.write(64, 2);
        assert_eq!(
            s.backing_bytes(),
            page + slot,
            "the ring goes on in page 0's box"
        );
        // Reads and zero writes past the table neither grow it nor fault.
        assert_eq!(s.read(cap - WORD), 0);
        s.write(cap - WORD, 0);
        assert_eq!(s.backing_bytes(), page + slot);
        assert_eq!(s.resident_bytes(), page);
        // The last page grows the table to capacity and no further.
        let slots = (cap / PAGE_BYTES) as u64 * slot;
        s.write(cap - WORD, 9);
        assert_eq!(s.backing_bytes(), 2 * page + slots);
        assert_eq!(s.resident_bytes(), 2 * page);
        s.write(cap - PAGE_BYTES, 3);
        assert_eq!(s.backing_bytes(), 2 * page + slots);
        assert_eq!(s.read(cap - WORD), 9);
        assert_eq!(s.read(cap / 2), 0, "a hole inside the table reads as zero");
    }

    /// Byte offset of the first word past the inline head.
    const SEAM: u32 = HEAD_WORDS as u32 * WORD;

    /// Page 0 has two stores and one count. "page 0 was resident already"
    /// is the assertion a double count (head write and body write each
    /// adding a page) fails, with 8192 for 4096.
    #[test]
    fn page_zero_is_counted_once_across_head_and_body() {
        let page = PAGE_BYTES as u64;
        let mut s = Segment::new(1 << 20, 128);
        s.write(0, 0);
        s.write(SEAM - WORD, 0);
        assert_eq!((s.resident_bytes(), s.backing_bytes()), (0, 0));
        // An idle worker whose lock word was probed and released.
        assert_eq!(s.cas(0, 0, 1), 0);
        s.write(0, 0);
        assert_eq!((s.resident_bytes(), s.backing_bytes()), (page, 0));
        s.write(SEAM, 5);
        assert_eq!(s.resident_bytes(), page, "page 0 was resident already");
        assert_eq!(
            s.backing_bytes(),
            page + std::mem::size_of::<PageSlot>() as u64
        );
        assert_eq!((s.read(0), s.read(SEAM)), (0, 5));

        // The other order: body first, head second.
        let mut s = Segment::new(1 << 20, 128);
        s.write(SEAM, 5);
        s.write(8, 3);
        assert_eq!(s.resident_bytes(), page);
        assert_eq!((s.read(8), s.read(SEAM)), (3, 5));
    }

    /// The atomics are compositions of `read` and `write`, so they work on
    /// either side of the seam without code of their own.
    #[test]
    fn atomics_on_both_sides_of_the_seam() {
        for (off, neighbour) in [(SEAM - WORD, SEAM), (SEAM, SEAM - WORD)] {
            let mut s = Segment::new(4096, 0);
            assert_eq!(s.fetch_add(off, 0), 0);
            assert_eq!(s.cas(off, 0, 0), 0);
            assert_eq!(s.resident_bytes(), 0, "zero results materialize nothing");
            assert_eq!(s.fetch_add(off, 5), 0);
            assert_eq!(s.fetch_add(off, 2), 5);
            assert_eq!(s.cas(off, 7, 11), 7);
            assert_eq!(s.cas(off, 7, 1), 11, "failed CAS leaves value");
            assert_eq!(s.read(off), 11);
            assert_eq!(s.read(neighbour), 0, "the other store is untouched");
            assert_eq!(s.resident_bytes(), PAGE_BYTES as u64);
        }
    }

    /// A record that straddles the seam (`reserved` inside the head) is
    /// zeroed in both stores when it is recycled.
    #[test]
    fn alloc_zeroes_across_the_seam() {
        let mut s = Segment::new(4096, SEAM - 2 * WORD);
        let a = s.alloc(4 * WORD);
        assert_eq!(a, SEAM - 2 * WORD);
        assert_eq!(s.resident_bytes(), 0, "zeroing a fresh record is free");
        for i in 0..4 {
            s.write(a + i * WORD, u64::MAX);
        }
        s.free(a, 4 * WORD);
        assert_eq!(s.alloc(4 * WORD), a);
        for i in 0..4 {
            assert_eq!(s.read(a + i * WORD), 0, "stale word at field {i}");
        }
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn misaligned_read_panics() {
        Segment::new(4096, 0).read(4);
    }

    /// Rounded down this would be the last head word, rounded up the first
    /// body word.
    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn misaligned_write_at_the_seam_panics() {
        Segment::new(4096, 0).write(SEAM - 4, 1);
    }

    /// Capacity that is not a page multiple: the last word sits in a
    /// partial page and is addressable through every accessor.
    const ODD_CAP: u32 = 3 * PAGE_BYTES + 64;

    #[test]
    fn last_word_of_capacity_is_addressable() {
        let mut s = Segment::new(ODD_CAP, 0);
        let last = ODD_CAP - WORD;
        assert_eq!(s.read(last), 0);
        s.write(last, 5);
        assert_eq!(s.fetch_add(last, 2), 5);
        assert_eq!(s.cas(last, 7, 11), 7);
        assert_eq!(s.read(last), 11);
    }

    #[test]
    #[should_panic(expected = "past segment capacity")]
    fn read_past_capacity_panics() {
        Segment::new(ODD_CAP, 0).read(ODD_CAP);
    }

    /// Even a zero write — a no-op on any absent page inside the segment —
    /// must not pass silently outside it.
    #[test]
    #[should_panic(expected = "past segment capacity")]
    fn zero_write_past_capacity_panics() {
        Segment::new(ODD_CAP, 0).write(ODD_CAP, 0);
    }

    #[test]
    #[should_panic(expected = "past segment capacity")]
    fn cas_past_capacity_panics() {
        Segment::new(ODD_CAP, 0).cas(ODD_CAP, 0, 1);
    }

    #[test]
    #[should_panic(expected = "past segment capacity")]
    fn fetch_add_past_capacity_panics() {
        Segment::new(ODD_CAP, 0).fetch_add(ODD_CAP, 0);
    }

    #[test]
    fn peak_tracking() {
        let mut s = Segment::new(4096, 0);
        let a = s.alloc(100); // rounds to 104
        s.free(a, 100);
        let _ = s.alloc(8);
        let st = s.alloc_stats();
        assert_eq!(st.peak_bytes, 104);
        assert_eq!(st.live_bytes, 8);
    }
}
