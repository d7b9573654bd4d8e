//! PFor and RecPFor — the synthetic benchmarks of §IV-C (Fig. 5).
//!
//! *PFor*: `K` consecutive parallel loops over `N` iterations, each
//! iteration computing for `M` microseconds; each loop is a recursive
//! binary fork-join (as `cilk_for` lowers). Total work `T1 = K·M·N`.
//!
//! *RecPFor*: recursive binary task tree; each recursion level runs
//! `PFor(n)` and then forks `RecPFor(n/2)` twice — the
//! quicksort/decision-tree pattern. Total work
//! `T1 = K·M·N·log₂N + M·N` (the trailing term is the `n = 1` leaves).
//!
//! The paper fixes `K = 5`, `M = 10 µs` and sweeps `N` (Fig. 6). `compute(M)`
//! runs a calibrated number of FMA operations in the original; here it is a
//! pure virtual-time charge scaled by the machine's compute factor.

use std::sync::Arc;

use dcs_core::prelude::*;

/// Workload parameters shared by PFor and RecPFor.
#[derive(Clone, Copy, Debug)]
pub struct PforParams {
    /// Problem size (iterations per parallel loop at the root).
    pub n: u64,
    /// Consecutive parallel loops per PFor call.
    pub k: u32,
    /// Leaf compute duration (nominal, ITO-A scale).
    pub m: VTime,
}

impl PforParams {
    /// The paper's configuration: K = 5, M = 10 µs.
    pub fn paper(n: u64) -> PforParams {
        PforParams {
            n,
            k: 5,
            m: VTime::us(10),
        }
    }

    /// Total work of the PFor benchmark, scaled for a machine.
    pub fn pfor_t1(&self, compute_scale: f64) -> VTime {
        (self.m * self.k as u64 * self.n).scale(compute_scale)
    }

    /// Total work of the RecPFor benchmark (`K·M·N·log₂N + M·N`).
    pub fn recpfor_t1(&self, compute_scale: f64) -> VTime {
        let log2n = self.n.ilog2() as u64;
        (self.m * self.k as u64 * self.n * log2n + self.m * self.n).scale(compute_scale)
    }
}

fn range_value(lo: u64, hi: u64) -> Value {
    Value::pair(lo.into(), hi.into())
}

/// One parallel loop over `[lo, hi)` as a recursive binary fork-join.
fn par_range(arg: Value, ctx: &mut TaskCtx) -> Effect {
    let (lo, hi) = arg.into_pair();
    let (lo, hi) = (lo.as_u64(), hi.as_u64());
    debug_assert!(lo < hi);
    if hi - lo == 1 {
        let app = ctx.app::<PforParams>();
        let dur = ctx.scaled(app.m);
        return Effect::compute(dur, ret_frame(Value::Unit));
    }
    let mid = lo + (hi - lo) / 2;
    Effect::fork(
        par_range,
        range_value(lo, mid),
        frame(move |h, _| {
            let h = h.as_handle();
            Effect::call(
                par_range,
                range_value(mid, hi),
                frame(move |_, _| Effect::join(h, ret_frame(Value::Unit))),
            )
        }),
    )
}

/// `PFor(n)`: run `K` consecutive parallel loops of `n` iterations.
/// Argument: `Pair(n, k_remaining)`.
fn pfor_loops(arg: Value, ctx: &mut TaskCtx) -> Effect {
    let (n, k) = arg.into_pair();
    let (n, k) = (n.as_u64(), k.as_u64());
    if k == 0 {
        return Effect::ret(Value::Unit);
    }
    let _ = ctx;
    Effect::call(
        par_range,
        range_value(0, n),
        frame(move |_, _| Effect::call(pfor_loops, Value::pair(n.into(), (k - 1).into()), ret_frame(Value::Unit))),
    )
}

/// PFor root task: argument is `n`.
pub fn pfor_root(arg: Value, ctx: &mut TaskCtx) -> Effect {
    let n = arg.as_u64();
    let k = ctx.app::<PforParams>().k as u64;
    Effect::call(pfor_loops, Value::pair(n.into(), k.into()), ret_frame(Value::Unit))
}

/// RecPFor: `PFor(n)`, then fork/call the two halves (Fig. 5 right).
pub fn recpfor(arg: Value, ctx: &mut TaskCtx) -> Effect {
    let n = arg.as_u64();
    if n == 1 {
        let app = ctx.app::<PforParams>();
        let dur = ctx.scaled(app.m);
        return Effect::compute(dur, ret_frame(Value::Unit));
    }
    let k = ctx.app::<PforParams>().k as u64;
    Effect::call(
        pfor_loops,
        Value::pair(n.into(), k.into()),
        frame(move |_, _| {
            Effect::fork(
                recpfor,
                n / 2,
                frame(move |h, _| {
                    let h = h.as_handle();
                    Effect::call(
                        recpfor,
                        n / 2,
                        frame(move |_, _| Effect::join(h, ret_frame(Value::Unit))),
                    )
                }),
            )
        }),
    )
}

/// Build the PFor program (`n` must be a power of two for clean math).
pub fn pfor_program(params: PforParams) -> Program {
    assert!(params.n.is_power_of_two());
    Program {
        root: pfor_root,
        arg: Value::U64(params.n),
        app: Arc::new(params),
    }
}

/// Build the RecPFor program.
pub fn recpfor_program(params: PforParams) -> Program {
    assert!(params.n.is_power_of_two());
    Program {
        root: recpfor,
        arg: Value::U64(params.n),
        app: Arc::new(params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::policy::Policy;

    fn quick(n: u64) -> PforParams {
        PforParams {
            n,
            k: 2,
            m: VTime::us(2),
        }
    }

    #[test]
    fn t1_formulas() {
        let p = PforParams::paper(1024);
        assert_eq!(p.pfor_t1(1.0), VTime::us(5 * 10 * 1024));
        assert_eq!(
            p.recpfor_t1(1.0),
            VTime::us(5 * 10 * 1024 * 10 + 10 * 1024)
        );
        assert_eq!(p.pfor_t1(2.0), p.pfor_t1(1.0) * 2);
    }

    #[test]
    fn pfor_runs_all_policies() {
        for policy in Policy::ALL {
            let cfg = RunConfig::new(4, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20);
            let r = dcs_core::run(cfg, pfor_program(quick(32)));
            assert_eq!(r.result, Value::Unit, "{policy:?}");
            // K loops × (N-1) forks each.
            assert_eq!(r.threads, 1 + 2 * 31, "{policy:?}");
        }
    }

    #[test]
    fn recpfor_runs_all_policies() {
        for policy in Policy::ALL {
            let cfg = RunConfig::new(4, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20);
            let r = dcs_core::run(cfg, recpfor_program(quick(16)));
            assert_eq!(r.result, Value::Unit, "{policy:?}");
        }
    }

    #[test]
    fn single_worker_time_approaches_t1() {
        // With 1 worker and negligible op costs, elapsed ≈ T1: validates the
        // work accounting end to end.
        let params = quick(64);
        let cfg = RunConfig::new(1, Policy::ContGreedy)
            .with_profile(profiles::test_profile())
            .with_seg_bytes(64 << 20);
        let r = dcs_core::run(cfg, pfor_program(params));
        let t1 = params.pfor_t1(1.0);
        let ratio = r.elapsed.as_ns() as f64 / t1.as_ns() as f64;
        assert!(
            (1.0..1.1).contains(&ratio),
            "elapsed {} vs T1 {} (ratio {ratio})",
            r.elapsed,
            t1
        );
    }

    #[test]
    fn compute_scale_slows_leaves() {
        let params = quick(16);
        let mut prof = profiles::test_profile();
        prof.compute_scale = 3.0;
        let base = dcs_core::run(
            RunConfig::new(1, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20),
            pfor_program(params),
        );
        let slow = dcs_core::run(
            RunConfig::new(1, Policy::ContGreedy)
                .with_profile(prof)
                .with_seg_bytes(64 << 20),
            pfor_program(params),
        );
        let ratio = slow.elapsed.as_ns() as f64 / base.elapsed.as_ns() as f64;
        assert!(
            (2.5..3.2).contains(&ratio),
            "compute scale not applied: ratio {ratio}"
        );
    }
}
