//! Task values.
//!
//! In the paper's programming model, "data are only exchanged via arguments
//! or return values of tasks" (§VII) — there is no global heap. [`Value`] is
//! the closed universe of such data, exactly what the paper's programs
//! pass: `u64` scalars and pairs (PFor ranges, counts), future handles (the
//! thread-entry locations of Fig. 3/4), the LCS boundary vectors (`U32s`)
//! and UTS node digests (`Bytes`). Every variant knows its wire size so the fabric can
//! charge bulk-transfer costs when a value crosses workers inside a thread
//! entry, a task descriptor, or a migrated stack.

use std::sync::Arc;

use dcs_sim::GlobalAddr;

/// Handle to a spawned thread / future: the location of its thread entry
/// plus the consumer multiplicity fixed at spawn (§V-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThreadHandle {
    /// Location of the thread entry in pinned memory.
    pub entry: GlobalAddr,
    /// Number of consumers that will join this thread (≥ 1). `1` selects the
    /// single-consumer protocols of Fig. 3/4; `> 1` selects the
    /// multi-consumer future protocol.
    pub consumers: u32,
}

impl ThreadHandle {
    pub const WIRE_SIZE: usize = 12; // 8-byte location + consumer count

    pub fn single(entry: GlobalAddr) -> ThreadHandle {
        ThreadHandle {
            entry,
            consumers: 1,
        }
    }
}

/// A value passed between tasks (argument, return value, or future payload);
/// one variant per shape the paper's programs exchange.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Unit,
    U64(u64),
    /// Two values, shared: cloning a pair (an armed run's lineage record
    /// keeps a copy of every forked task's argument) bumps a count instead
    /// of allocating both halves again.
    Pair(Arc<(Value, Value)>),
    /// A future handle (§V-D: handles are first-class and can be passed to
    /// any task, not just the parent).
    Handle(ThreadHandle),
    /// A fixed arity-3 handle bundle — the `(X01, X10, X11)` triple returned
    /// by intermediate LCS blocks (Fig. 11 line 66).
    Handles3([ThreadHandle; 3]),
    /// Shared immutable word vector (LCS boundary rows/columns). `Arc` keeps
    /// intra-simulation clones free; the wire size still charges the full
    /// payload whenever the value crosses workers.
    U32s(Arc<[u32]>),
    /// Shared immutable byte vector (UTS node digests).
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Serialized size in bytes, as charged on the fabric. One tag byte plus
    /// the payload, mirroring a compact binary encoding.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            Value::Unit => 0,
            Value::U64(_) => 8,
            Value::Pair(p) => p.0.wire_size() + p.1.wire_size(),
            Value::Handle(_) => ThreadHandle::WIRE_SIZE,
            Value::Handles3(_) => 3 * ThreadHandle::WIRE_SIZE,
            Value::U32s(v) => 4 + 4 * v.len(),
            Value::Bytes(v) => 4 + v.len(),
        }
    }

    pub fn unit() -> Value {
        Value::Unit
    }

    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Arc::new((a, b)))
    }

    /// Unwrap a `U64`, panicking with context on type confusion — task
    /// protocols are statically shaped, so a mismatch is a programming bug.
    #[track_caller]
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::U64(v) => *v,
            other => panic!("expected U64, got {other:?}"),
        }
    }

    #[track_caller]
    pub fn as_handle(&self) -> ThreadHandle {
        match self {
            Value::Handle(h) => *h,
            other => panic!("expected Handle, got {other:?}"),
        }
    }

    #[track_caller]
    pub fn as_handles3(&self) -> [ThreadHandle; 3] {
        match self {
            Value::Handles3(h) => *h,
            other => panic!("expected Handles3, got {other:?}"),
        }
    }

    #[track_caller]
    pub fn as_u32s(&self) -> &Arc<[u32]> {
        match self {
            Value::U32s(v) => v,
            other => panic!("expected U32s, got {other:?}"),
        }
    }

    /// Compact human-readable rendering: scalars verbatim, buffers
    /// summarized by length and head (for reports and logs).
    pub fn summary(&self) -> String {
        match self {
            Value::U32s(v) if v.len() > 8 => {
                format!("U32s(len={}, head={:?}…)", v.len(), &v[..4])
            }
            Value::Bytes(v) if v.len() > 16 => {
                format!("Bytes(len={}, head={:?}…)", v.len(), &v[..8])
            }
            other => format!("{other:?}"),
        }
    }

    #[track_caller]
    pub fn into_pair(self) -> (Value, Value) {
        match self {
            Value::Pair(p) => Arc::try_unwrap(p).unwrap_or_else(|p| (*p).clone()),
            other => panic!("expected Pair, got {other:?}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Value {
        Value::Unit
    }
}

impl From<ThreadHandle> for Value {
    fn from(h: ThreadHandle) -> Value {
        Value::Handle(h)
    }
}

impl From<Vec<u32>> for Value {
    fn from(v: Vec<u32>) -> Value {
        Value::U32s(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> ThreadHandle {
        ThreadHandle::single(GlobalAddr::new(3, 0x100))
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Unit.wire_size(), 1);
        assert_eq!(Value::U64(7).wire_size(), 9);
        assert_eq!(Value::pair(Value::U64(1), Value::Unit).wire_size(), 11);
        assert_eq!(Value::Handle(handle()).wire_size(), 13);
        assert_eq!(Value::Handles3([handle(); 3]).wire_size(), 37);
        let v: Value = vec![1u32, 2, 3].into();
        assert_eq!(v.wire_size(), 1 + 4 + 12);
        assert_eq!(Value::Bytes(vec![0u8; 10].into()).wire_size(), 15);
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::from(5u64).as_u64(), 5);
        assert_eq!(Value::from(handle()).as_handle(), handle());
        let (a, b) = Value::pair(1u64.into(), 2u64.into()).into_pair();
        assert_eq!((a.as_u64(), b.as_u64()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "expected U64")]
    fn type_confusion_panics() {
        Value::Unit.as_u64();
    }

    #[test]
    fn summary_truncates_buffers() {
        let big: Value = (0..100u32).collect::<Vec<_>>().into();
        let s = big.summary();
        assert!(s.contains("len=100"), "{s}");
        assert!(s.len() < 80);
        assert_eq!(Value::U64(7).summary(), "U64(7)");
        let small: Value = vec![1u32, 2].into();
        assert!(small.summary().contains("[1, 2]"));
    }

    #[test]
    fn u32s_clone_is_shallow() {
        let v: Value = vec![1u32; 1000].into();
        let w = v.clone();
        if let (Value::U32s(a), Value::U32s(b)) = (&v, &w) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            unreachable!()
        }
    }
}
