//! UTS — the Unbalanced Tree Search benchmark (§V-C).
//!
//! UTS counts the nodes of an implicitly defined, highly unbalanced tree.
//! Each node owns a SHA-1 digest; child `i`'s digest is
//! `SHA1(parent ‖ i)`, so the identical tree is generated deterministically
//! from the root seed on any machine, and the node count is a built-in
//! correctness check across runtimes.
//!
//! We implement the *geometric* tree family used by the paper (T1 series):
//! the number of children of a node at depth `d` is geometrically
//! distributed with mean `b(d)`, where the *linear* shape decreases
//! `b(d) = b0 · (1 − d/gen_mx)` and the *fixed* shape keeps `b(d) = b0`
//! until the depth cutoff. The paper's T1L/T1XXL/T1WL instances have 10⁸+
//! nodes; the [`presets`] here are the same family scaled to simulator-
//! friendly sizes (DESIGN.md §2 records the mapping).
//!
//! Three implementations are provided:
//!
//! * [`serial_count`] — the sequential depth-first traversal (the paper's
//!   baseline for parallel efficiency),
//! * [`program`] — the straightforward **fork-join parallelization** of the
//!   traversal for `dcs-core` (one task per subtree, joined with its
//!   parent), which is the paper's headline demonstration,
//! * task expansion helpers reused by the bag-of-tasks runtimes in
//!   `dcs-bot` (Fig. 8's SAWS/Charm++/X10-GLB comparators).

use std::sync::Arc;

use dcs_core::prelude::*;
use dcs_core::HostWork;

use crate::sha1::{digest_to_unit, sha1, sha1_child, Digest};

/// Shape of the expected branching factor over depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `b(d) = b0` for `d < gen_mx`, 0 after — bushy, abrupt cutoff.
    Fixed,
    /// `b(d) = b0 · (1 − d/gen_mx)` — the T1-series shape.
    Linear,
}

/// A geometric UTS tree instance.
#[derive(Clone, Debug)]
pub struct UtsSpec {
    pub b0: f64,
    pub gen_mx: u32,
    pub shape: Shape,
    pub seed: u64,
    /// Virtual cost per visited node (before per-child work); models the
    /// traversal bookkeeping of the native benchmark.
    pub node_cost: VTime,
    /// Virtual cost per generated child (one SHA-1 evaluation).
    pub child_cost: VTime,
}

impl UtsSpec {
    pub fn new(b0: f64, gen_mx: u32, shape: Shape, seed: u64) -> UtsSpec {
        UtsSpec {
            b0,
            gen_mx,
            shape,
            seed,
            // Calibrated against the paper's serial throughput on ITO-A
            // (5.27 Mnodes/s ≈ 190 ns/node with ~1 child per node on
            // average).
            node_cost: VTime::ns(120),
            child_cost: VTime::ns(60),
        }
    }

    /// Root digest for the instance.
    pub fn root(&self) -> Digest {
        sha1(&self.seed.to_be_bytes())
    }

    /// Expected branching factor at `depth`.
    fn b(&self, depth: u32) -> f64 {
        if depth >= self.gen_mx {
            return 0.0;
        }
        match self.shape {
            Shape::Fixed => self.b0,
            Shape::Linear => self.b0 * (1.0 - depth as f64 / self.gen_mx as f64),
        }
    }

    /// Number of children of a node: geometric with mean `b(depth)`, sampled
    /// from the node's digest (so it is a pure function of the tree). As in
    /// the reference UTS generator, the root has exactly `b0` children —
    /// otherwise a sizeable fraction of seeds would yield near-empty trees
    /// (a supercritical branching process still goes extinct with positive
    /// probability).
    pub fn num_children(&self, digest: &Digest, depth: u32) -> u32 {
        if depth == 0 {
            return self.b0.round() as u32;
        }
        let b = self.b(depth);
        if b <= 0.0 {
            return 0;
        }
        let p = 1.0 / (1.0 + b);
        let u = digest_to_unit(digest);
        // Geometric: floor(ln(1-u) / ln(1-p)), mean (1-p)/p = b.
        let m = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
        // Cap pathological tails; with b0 ≤ 8 this triggers with
        // probability < 1e-12 and keeps descriptor sizes bounded.
        m.min(10_000.0) as u32
    }

    /// Children digests of a node.
    pub fn children(&self, digest: &Digest, depth: u32) -> Vec<Digest> {
        let n = self.num_children(digest, depth);
        (0..n).map(|i| sha1_child(digest, i)).collect()
    }

    /// Virtual compute time to visit one node with `n_children` children.
    pub fn visit_cost(&self, n_children: u32) -> VTime {
        self.node_cost + self.child_cost * n_children as u64
    }
}

/// Result of a serial traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeInfo {
    pub nodes: u64,
    pub leaves: u64,
    pub max_depth: u32,
}

/// Sequential depth-first traversal (explicit stack; tree depth is bounded
/// by `gen_mx` but the node count is large).
pub fn serial_count(spec: &UtsSpec) -> TreeInfo {
    let mut stack: Vec<(Digest, u32)> = vec![(spec.root(), 0)];
    let mut info = TreeInfo {
        nodes: 0,
        leaves: 0,
        max_depth: 0,
    };
    while let Some((digest, depth)) = stack.pop() {
        info.nodes += 1;
        info.max_depth = info.max_depth.max(depth);
        let n = spec.num_children(&digest, depth);
        if n == 0 {
            info.leaves += 1;
            continue;
        }
        for i in 0..n {
            stack.push((sha1_child(&digest, i), depth + 1));
        }
    }
    info
}

/// The serial traversal's virtual execution time (for ideal-throughput
/// lines in Fig. 8/9): `Σ visit_cost(node)` at `compute_scale`.
pub fn serial_vtime(spec: &UtsSpec, compute_scale: f64) -> VTime {
    let mut stack: Vec<(Digest, u32)> = vec![(spec.root(), 0)];
    let mut total = VTime::ZERO;
    while let Some((digest, depth)) = stack.pop() {
        let n = spec.num_children(&digest, depth);
        total += spec.visit_cost(n);
        if n > 0 {
            for i in 0..n {
                stack.push((sha1_child(&digest, i), depth + 1));
            }
        }
    }
    total.scale(compute_scale)
}

// ---------------------------------------------------------------------
// Fork-join program
// ---------------------------------------------------------------------

fn digest_value(d: &Digest, depth: u32) -> Value {
    Value::pair(Value::Bytes(Arc::from(&d[..])), Value::U64(depth as u64))
}

fn value_digest(v: &Value) -> (Digest, u32) {
    let Value::Pair(p) = v else {
        panic!("expected UTS node value")
    };
    let (bytes, depth) = &**p;
    let Value::Bytes(b) = bytes else {
        panic!("expected digest bytes")
    };
    let mut d = [0u8; 20];
    d.copy_from_slice(b);
    (d, depth.as_u64() as u32)
}

/// Count the subtree rooted at the argument node: expand children (real
/// SHA-1 work, charged the calibrated visit cost), spawn a task per child,
/// run the last child inline, join and sum.
pub fn uts_count(arg: Value, ctx: &mut TaskCtx) -> Effect {
    let (digest, depth) = value_digest(&arg);
    let spec = ctx.app::<UtsSpec>();
    let n = spec.num_children(&digest, depth);
    let dur = ctx.scaled(spec.visit_cost(n));
    let work: HostWork = Box::new(move |_: &mut TaskCtx| {
        // Ship the children as a flat byte buffer.
        let mut flat = Vec::with_capacity(n as usize * 20);
        for i in 0..n {
            flat.extend_from_slice(&sha1_child(&digest, i));
        }
        Value::Bytes(flat.into())
    });
    Effect::compute_with(
        dur,
        work,
        frame(move |flat, _| spawn_children(flat, depth)),
    )
}

/// Spawn tasks for all children but the last, run the last inline, then
/// join the handles and return `1 + Σ child counts`.
fn spawn_children(flat: Value, depth: u32) -> Effect {
    let Value::Bytes(flat) = flat else {
        panic!("expected children bytes")
    };
    let n = flat.len() / 20;
    if n == 0 {
        return Effect::ret(1u64);
    }
    spawn_from(flat, 0, depth, Vec::with_capacity(n - 1))
}

fn child_digest(flat: &Arc<[u8]>, i: usize) -> Digest {
    let mut d = [0u8; 20];
    d.copy_from_slice(&flat[i * 20..(i + 1) * 20]);
    d
}

fn spawn_from(flat: Arc<[u8]>, i: usize, depth: u32, handles: Vec<ThreadHandle>) -> Effect {
    let n = flat.len() / 20;
    let d = child_digest(&flat, i);
    if i + 1 == n {
        // Last child runs inline (plain call), then the joins begin.
        return Effect::call(
            uts_count,
            digest_value(&d, depth + 1),
            frame(move |last, _| join_from(handles, 0, 1 + last.as_u64())),
        );
    }
    Effect::fork(
        uts_count,
        digest_value(&d, depth + 1),
        frame(move |h, _| {
            let mut handles = handles;
            handles.push(h.as_handle());
            spawn_from(flat, i + 1, depth, handles)
        }),
    )
}

fn join_from(handles: Vec<ThreadHandle>, i: usize, acc: u64) -> Effect {
    if i == handles.len() {
        return Effect::ret(acc);
    }
    let h = handles[i];
    Effect::join(
        h,
        frame(move |v, _| join_from(handles, i + 1, acc + v.as_u64())),
    )
}

/// Build the fork-join UTS program for `spec`.
pub fn program(spec: UtsSpec) -> Program {
    let root = digest_value(&spec.root(), 0);
    Program {
        root: uts_count,
        arg: root,
        app: Arc::new(spec),
    }
}

/// Named tree instances: the T1 geometric family (linear shape, b0 = 4)
/// scaled to simulator sizes.
pub mod presets {
    use super::*;

    /// ~3 k nodes — unit tests and smoke runs.
    pub fn tiny() -> UtsSpec {
        UtsSpec::new(4.0, 10, Shape::Linear, 19)
    }

    /// ~80 k nodes — scaled analogue of T1L (small tree in Fig. 8).
    pub fn small() -> UtsSpec {
        UtsSpec::new(4.0, 15, Shape::Linear, 19)
    }

    /// ~0.3 M nodes — scaled analogue of T1XXL (medium tree).
    pub fn medium() -> UtsSpec {
        UtsSpec::new(4.0, 17, Shape::Linear, 19)
    }

    /// ~1.2 M nodes — scaled analogue of T1WL (large tree).
    pub fn large() -> UtsSpec {
        UtsSpec::new(4.0, 19, Shape::Linear, 19)
    }

    /// ~16 M nodes — used for the top of the Fig. 9 sweep, where the
    /// smaller trees would be work-starved at 1024 workers.
    pub fn huge() -> UtsSpec {
        UtsSpec::new(4.0, 23, Shape::Linear, 19)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::policy::Policy;

    #[test]
    fn tree_is_deterministic() {
        let a = serial_count(&presets::tiny());
        let b = serial_count(&presets::tiny());
        assert_eq!(a, b);
        assert!(a.nodes > 1000, "tiny tree has {} nodes", a.nodes);
        assert!(a.max_depth <= 10);
        // Leaves + internal = nodes; a geometric tree has many leaves.
        assert!(a.leaves > a.nodes / 3);
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let a = serial_count(&UtsSpec::new(4.0, 6, Shape::Linear, 1));
        let b = serial_count(&UtsSpec::new(4.0, 6, Shape::Linear, 2));
        assert_ne!(a.nodes, b.nodes);
    }

    #[test]
    fn fixed_shape_is_bushier_than_linear() {
        let lin = serial_count(&UtsSpec::new(3.0, 6, Shape::Linear, 7));
        let fixed = serial_count(&UtsSpec::new(3.0, 6, Shape::Fixed, 7));
        assert!(fixed.nodes > lin.nodes);
    }

    #[test]
    fn depth_cutoff_respected() {
        let spec = UtsSpec::new(4.0, 5, Shape::Fixed, 3);
        let info = serial_count(&spec);
        assert!(info.max_depth <= 5);
        // A node at the cutoff has no children.
        assert_eq!(spec.num_children(&spec.root(), 5), 0);
    }

    #[test]
    fn fork_join_count_matches_serial_all_policies() {
        let spec = presets::tiny();
        let expected = serial_count(&spec).nodes;
        for policy in Policy::ALL {
            let cfg = RunConfig::new(4, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20);
            let report = dcs_core::run(cfg, program(spec.clone()));
            assert_eq!(report.result.as_u64(), expected, "{policy:?}");
        }
    }

    #[test]
    fn serial_vtime_scales() {
        let spec = presets::tiny();
        let t1 = serial_vtime(&spec, 1.0);
        let t2 = serial_vtime(&spec, 2.0);
        assert_eq!(t2, t1.scale(2.0));
        // Sanity: ~180 ns per node on average.
        let per_node = t1.as_ns() / serial_count(&spec).nodes;
        assert!((100..400).contains(&per_node), "{per_node} ns/node");
    }
}
