//! Model test: a paged [`Segment`] is indistinguishable from a dense buffer.
//!
//! Random `write/read/cas/fetch_add/alloc/free` sequences run against the
//! segment and against a plain `Vec<u64>` of its full capacity. Every
//! observed value must agree; `resident_bytes()` must be exactly one page
//! per page that ever held a non-zero word *anywhere in it*; and
//! `backing_bytes()` must be one page per page whose *body* — the words not
//! in the segment's inline head, so for every page but page 0 the whole
//! page — ever did, plus a table that reaches exactly to the highest such
//! page. So zero writes and reads past the grown prefix, holes inside it,
//! the partial last page of capacity and histories that touch only the
//! head, only the body or both sides of page 0 are all covered by the same
//! rules as everything else.
//!
//! The assertion that catches a double count of page 0 (head write and body
//! write each adding a page) is `residency after`: planted in the source, it
//! failed `segment_matches_dense_model` at case 0 and
//! `page_zero_has_two_stores_and_one_count` at its first body write.

use std::collections::BTreeSet;

use dcs_sim::{Segment, PAGE_BYTES, WORD};
use proptest::prelude::*;

/// Eight whole pages and a partial ninth.
const CAP: u32 = 8 * PAGE_BYTES + 64;
const RESERVED: u32 = 64;

#[derive(Clone, Debug)]
enum Op {
    Write(u32, u64),
    Read(u32),
    /// `hit` picks the current value as `expect`, so both outcomes occur.
    Cas(u32, bool, u64),
    FetchAdd(u32, u64),
    Alloc(u32),
    /// Frees the `n % live`-th live record, if any.
    Free(usize),
}

/// Words of page 0 that `Segment` stores inline (its private `HEAD_WORDS`):
/// the model needs the seam to say which writes need a boxed page.
const HEAD_WORDS: u32 = 8;

/// Word offsets: mostly the two sides of the head/body seam and the low
/// prefix the allocator also uses, sometimes anywhere, sometimes the last
/// (partial) page of capacity.
fn offset() -> impl Strategy<Value = u32> {
    let words = CAP / WORD;
    let last_page = (8 * PAGE_BYTES) / WORD;
    prop_oneof![
        3 => (0u32..2 * HEAD_WORDS).prop_map(|w| w * WORD),
        3 => (0u32..256).prop_map(|w| w * WORD),
        2 => (0u32..words).prop_map(|w| w * WORD),
        1 => (last_page..words).prop_map(|w| w * WORD),
    ]
}

/// Zero often: zero writes to absent pages are the interesting no-op.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![2 => Just(0u64), 3 => 1u64..5, 1 => Just(u64::MAX)]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (offset(), value()).prop_map(|(o, v)| Op::Write(o, v)),
        2 => offset().prop_map(Op::Read),
        2 => (offset(), proptest::bool::ANY, value()).prop_map(|(o, hit, v)| Op::Cas(o, hit, v)),
        2 => (offset(), value()).prop_map(|(o, v)| Op::FetchAdd(o, v)),
        2 => (1u32..80).prop_map(Op::Alloc),
        1 => (0usize..16).prop_map(Op::Free),
    ]
}

struct Model {
    words: Vec<u64>,
    /// Pages that ever held a non-zero word.
    touched: BTreeSet<u32>,
    /// Pages that ever held a non-zero word outside the inline head.
    boxed: BTreeSet<u32>,
}

impl Model {
    fn store(&mut self, off: u32, v: u64) {
        self.words[(off / WORD) as usize] = v;
        if v != 0 {
            self.touched.insert(off / PAGE_BYTES);
            if off / WORD >= HEAD_WORDS {
                self.boxed.insert(off / PAGE_BYTES);
            }
        }
    }

    fn load(&self, off: u32) -> u64 {
        self.words[(off / WORD) as usize]
    }
}

fn check(ops: Vec<Op>) {
    let mut seg = Segment::new(CAP, RESERVED);
    let mut model = Model {
        words: vec![0; (CAP / WORD) as usize],
        touched: BTreeSet::new(),
        boxed: BTreeSet::new(),
    };
    let mut live: Vec<(u32, u32)> = Vec::new();
    for op in &ops {
        match *op {
            Op::Write(off, v) => {
                seg.write(off, v);
                model.store(off, v);
            }
            Op::Read(off) => assert_eq!(seg.read(off), model.load(off), "{op:?}"),
            Op::Cas(off, hit, new) => {
                let old = model.load(off);
                let expect = if hit { old } else { old.wrapping_add(1) };
                assert_eq!(seg.cas(off, expect, new), old, "{op:?}");
                if hit {
                    model.store(off, new);
                }
            }
            Op::FetchAdd(off, add) => {
                let old = model.load(off);
                assert_eq!(seg.fetch_add(off, add), old, "{op:?}");
                model.store(off, old.wrapping_add(add));
            }
            Op::Alloc(bytes) => {
                let off = seg.alloc(bytes);
                assert!(off >= RESERVED && off % WORD == 0);
                for w in 0..bytes.div_ceil(WORD) {
                    model.store(off + w * WORD, 0);
                }
                live.push((off, bytes));
            }
            Op::Free(n) => {
                if !live.is_empty() {
                    let (off, bytes) = live.swap_remove(n % live.len());
                    seg.free(off, bytes);
                }
            }
        }
        assert_eq!(
            seg.resident_bytes(),
            model.touched.len() as u64 * PAGE_BYTES as u64,
            "residency after {op:?}"
        );
    }
    for (w, &v) in model.words.iter().enumerate() {
        assert_eq!(seg.read(w as u32 * WORD), v, "word {w} after {ops:?}");
    }
    // One page per boxed page and one thin pointer per slot, up to the
    // highest boxed page.
    let slots = model.boxed.last().map_or(0, |&p| p as u64 + 1);
    assert_eq!(
        seg.backing_bytes(),
        model.boxed.len() as u64 * PAGE_BYTES as u64 + slots * std::mem::size_of::<usize>() as u64,
        "backing after {ops:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn segment_matches_dense_model(ops in proptest::collection::vec(op(), 0..80)) {
        check(ops);
    }
}

/// The cases the random walk is least likely to line up on its own.
#[test]
fn absent_page_rules_hold_at_the_edges() {
    let last = CAP - WORD;
    check(vec![
        Op::Write(last, 0),       // zero write past an empty table
        Op::Read(last),           // read past an empty table
        Op::Write(PAGE_BYTES, 7), // table now reaches page 1
        Op::Read(0),              // hole inside the table
        Op::Write(0, 0),          // zero write into the hole
        Op::Read(3 * PAGE_BYTES), // read past the grown prefix
        Op::FetchAdd(last, 0),    // zero-sum add on the last page: still absent
        Op::Cas(last, true, 0),   // 0 -> 0 swap: still absent
        Op::FetchAdd(last, 3),    // now the last page exists
        Op::Cas(last, true, 0),   // back to zero, page stays resident
        Op::Alloc(24),
        Op::Free(0),
        Op::Alloc(24),
    ]);
}

/// Page 0 written head first, body first, and head only: counted once, and
/// boxed only for its body.
#[test]
fn page_zero_has_two_stores_and_one_count() {
    let (head, body) = ((HEAD_WORDS - 1) * WORD, HEAD_WORDS * WORD);
    check(vec![
        Op::Write(head, 0),    // zero write to the head: nothing resident
        Op::Cas(0, true, 1),   // a probe takes the lock word: resident, not boxed
        Op::Write(0, 0),       // and releases it: the page stays resident
        Op::FetchAdd(body, 2), // first body word: boxed, not counted again
        Op::Write(head, 3),
        Op::Read(head),
        Op::Read(body),
    ]);
    check(vec![
        Op::Write(body, 1),
        Op::Write(0, 1),
        Op::Write(body, 0),
    ]);
    check(vec![Op::Write(0, 1), Op::Write(PAGE_BYTES, 1)]);
}
