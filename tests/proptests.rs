//! Property-based tests over the whole stack (proptest).
//!
//! Strategy: generate random workload shapes, worker counts, policies and
//! seeds; assert the invariants the runtime must keep regardless of
//! schedule — result correctness, conservation of threads/entries (enforced
//! internally by strict mode), the work law, and determinism.

use proptest::prelude::*;

use dcs::apps::lcs::{self, LcsParams};
use dcs::apps::uts::{serial_count, Shape, UtsSpec};
use dcs::bot;
use dcs::prelude::*;

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::ContGreedy),
        Just(Policy::ContStalling),
        Just(Policy::ChildFull),
        Just(Policy::ChildRtc),
    ]
}

/// Random fork-join reduction: sum of i² over a random-size range, random
/// branching in the task tree via an uneven split.
fn sum_task(arg: Value, _ctx: &mut TaskCtx) -> Effect {
    let (lo, hi) = arg.into_pair();
    let (lo, hi) = (lo.as_u64(), hi.as_u64());
    if hi - lo <= 1 {
        return Effect::ret(lo * lo);
    }
    // Uneven split (1/3 : 2/3) exercises imbalanced schedules.
    let mid = lo + 1 + (hi - lo - 1) / 3;
    Effect::fork(
        sum_task,
        Value::pair(lo.into(), mid.into()),
        frame(move |h, _| {
            let h = h.as_handle();
            Effect::call(
                sum_task,
                Value::pair(mid.into(), hi.into()),
                frame(move |r, _| {
                    let r = r.as_u64();
                    Effect::join(h, frame(move |l, _| Effect::ret(l.as_u64() + r)))
                }),
            )
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fork-join reduction is correct for every (policy, P, size, seed).
    #[test]
    fn forkjoin_reduction_correct(
        policy in any_policy(),
        workers in 1usize..9,
        n in 2u64..400,
        seed in 0u64..1000,
    ) {
        let cfg = RunConfig::new(workers, policy)
            .with_profile(profiles::test_profile())
            .with_seed(seed)
            .with_seg_bytes(64 << 20);
        let r = run(cfg, Program::new(sum_task, Value::pair(0u64.into(), n.into())));
        let expected: u64 = (0..n).map(|i| i * i).sum();
        prop_assert_eq!(r.result.as_u64(), expected);
        // Strict mode already asserted no leaks; double-check the counters.
        prop_assert_eq!(r.stats.threads_spawned, r.stats.threads_died);
    }

    /// Random UTS trees: fork-join count equals serial count; the one-sided
    /// BoT agrees too.
    #[test]
    fn uts_counts_agree(
        b0 in 2u32..6,
        gen_mx in 2u32..7,
        tree_seed in 0u64..500,
        workers in 1usize..7,
        fixed in proptest::bool::ANY,
    ) {
        let shape = if fixed { Shape::Fixed } else { Shape::Linear };
        let spec = UtsSpec::new(b0 as f64, gen_mx, shape, tree_seed);
        let expected = serial_count(&spec).nodes;
        let r = run(
            RunConfig::new(workers, Policy::ContGreedy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20),
            dcs::apps::uts::program(spec.clone()),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
        let os = bot::onesided::run_uts(&spec, workers, profiles::test_profile(), tree_seed);
        prop_assert_eq!(os.nodes, expected);
    }

    /// LCS through the future machinery equals the reference DP for random
    /// sizes, block sizes, alphabets and schedules.
    #[test]
    fn lcs_matches_reference(
        n_log in 3u32..7,
        c_log in 2u32..5,
        alphabet in 2u8..8,
        workers in 1usize..7,
        seed in 0u64..500,
        policy in prop_oneof![
            Just(Policy::ContGreedy),
            Just(Policy::ContStalling),
            Just(Policy::ChildFull),
        ],
    ) {
        let n = 1u64 << n_log;
        let c = (1u64 << c_log).min(n);
        let params = LcsParams::random_alpha(n, c, seed, alphabet);
        let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::test_profile())
                .with_seed(seed)
                .with_seg_bytes(64 << 20),
            lcs::program(params),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
    }

    /// The work law T_P ≥ T1/P and the busy-time identity
    /// Σ busy ≤ P × elapsed hold for every schedule.
    #[test]
    fn time_accounting_sane(
        policy in any_policy(),
        workers in 1usize..9,
        seed in 0u64..100,
    ) {
        let params = dcs::apps::pfor::PforParams { n: 64, k: 2, m: VTime::us(5) };
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::itoa())
                .with_seed(seed)
                .with_seg_bytes(64 << 20),
            dcs::apps::pfor::pfor_program(params),
        );
        let t1 = params.pfor_t1(1.0);
        prop_assert!(r.elapsed >= t1 / workers as u64);
        prop_assert!(r.busy_total.as_ns() <= r.elapsed.as_ns() * workers as u64);
        // Busy time must at least cover the pure compute work.
        prop_assert!(r.busy_total >= t1);
    }

    /// Under randomized transient-fault schedules (verb failures, message
    /// drops and duplications) every runtime still terminates and produces
    /// the exact serial UTS node count — faults may only cost time.
    #[test]
    fn uts_counts_survive_random_faults(
        b0 in 2u32..5,
        gen_mx in 2u32..6,
        tree_seed in 0u64..200,
        workers in 2usize..7,
        policy in any_policy(),
        fault_permille in 5u64..120,
        fault_seed in 0u64..1000,
    ) {
        let spec = UtsSpec::new(b0 as f64, gen_mx, Shape::Linear, tree_seed);
        let expected = serial_count(&spec).nodes;
        let plan = FaultPlan::transient(fault_permille as f64 / 1000.0, fault_seed);
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fault_plan(plan.clone()),
            dcs::apps::uts::program(spec.clone()),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
        if let Some(wd) = &r.watchdog {
            prop_assert!(wd.is_clean(), "watchdog: {}", wd);
        }
        let os = bot::onesided::run_uts_faulty(
            &spec,
            workers,
            profiles::test_profile(),
            tree_seed,
            bot::onesided::StealAmount::Half,
            plan.clone(),
        );
        prop_assert_eq!(os.nodes, expected);
        let ts = bot::twosided::run_uts_faulty(
            &spec,
            workers,
            profiles::test_profile(),
            bot::twosided::Variant::Lifeline,
            tree_seed,
            plan,
        );
        prop_assert_eq!(ts.nodes, expected);
    }

    /// LCS through the future machinery still equals the reference DP when
    /// the fabric injects transient faults.
    #[test]
    fn lcs_matches_reference_under_faults(
        n_log in 3u32..6,
        workers in 2usize..7,
        seed in 0u64..200,
        fault_permille in 5u64..100,
        policy in prop_oneof![
            Just(Policy::ContGreedy),
            Just(Policy::ContStalling),
            Just(Policy::ChildFull),
        ],
    ) {
        let n = 1u64 << n_log;
        let params = LcsParams::random_alpha(n, 4.min(n), seed, 4);
        let expected = lcs::lcs_reference(&params.a, &params.b) as u64;
        let r = run(
            RunConfig::new(workers, policy)
                .with_profile(profiles::test_profile())
                .with_seed(seed)
                .with_seg_bytes(64 << 20)
                .with_fault_plan(FaultPlan::transient(
                    fault_permille as f64 / 1000.0,
                    seed ^ 0xF00D,
                )),
            lcs::program(params),
        );
        prop_assert_eq!(r.result.as_u64(), expected);
    }

    /// The posted-verb refactor is conservative: for random verb sequences
    /// (mixed kinds, issuers, targets, faults), the blocking wrappers are
    /// bit-identical — in observed value, charged time, and FabricStats —
    /// to (a) manual post-at-ZERO + wait and (b) posting at a running
    /// absolute clock and charging `finish − now` — and (c) a depth-1
    /// machine charges a whole `Window` (two signaled verbs around an
    /// unsignaled one) the sum of the three blocking costs. This is the
    /// contract that lets FabricMode::Blocking keep every golden valid.
    #[test]
    fn blocking_equals_posted(
        workers in 2usize..5,
        fault_permille in 0u64..80,
        fault_seed in 0u64..500,
        ops in proptest::collection::vec(
            (0u8..9, 0usize..4, 0u32..64, 1u64..1_000_000),
            1..40,
        ),
    ) {
        use dcs::sim::{FabricMode, GlobalAddr, Machine, MachineConfig};
        let mk = |mode| {
            let mut cfg = MachineConfig::new(workers, profiles::itoa())
                .with_seg_bytes(1 << 20)
                .with_fabric(mode);
            if fault_permille > 0 {
                cfg = cfg.with_faults(FaultPlan::transient(
                    fault_permille as f64 / 1000.0,
                    fault_seed,
                ));
            }
            Machine::new(cfg)
        };
        let (mut blk, mut posted, mut clocked) = (
            mk(FabricMode::Pipelined),
            mk(FabricMode::Pipelined),
            mk(FabricMode::Pipelined),
        );
        // Depth-1 machine: wrappers everywhere except the grouped kind.
        let mut grouped = mk(FabricMode::Blocking);
        let mut now = VTime::ZERO;
        for &(kind, tgt, woff, val) in &ops {
            let tgt = tgt % workers;
            let me = (tgt + val as usize) % workers; // sometimes local, sometimes remote
            let addr = GlobalAddr::new(tgt, 8 + woff * 8);
            let len = (val % 4096) as usize + 8;

            if kind == 8 {
                // A steal-commit-shaped group: signaled put, unsignaled
                // put, bulk get. Serial on the three reference machines;
                // one window at depth 1.
                let mut sum = VTime::ZERO;
                for m in [&mut blk, &mut posted, &mut clocked] {
                    sum = m.put_u64(me, addr, val)
                        + m.post_put_u64_unsignaled(me, addr.field(1), val)
                        + m.get_bulk(me, tgt, len);
                }
                let mut w = grouped.window(me, now);
                let h_put = w.posted(grouped.post_put_u64(me, addr, val, w.at()));
                w.unsignaled(grouped.post_put_u64_unsignaled(me, addr.field(1), val));
                let h_get = w.posted(grouped.post_get_bulk(me, tgt, len, w.at()));
                prop_assert!(!grouped.outstanding(me, w.now()), "depth 1 leaves nothing outstanding");
                grouped.wait(me, h_put);
                grouped.wait(me, h_get);
                prop_assert_eq!(grouped.finish(&w).saturating_sub(now), sum, "window != sum");
                now += sum;
                continue;
            }
            // The depth-1 machine sees the same traffic through wrappers.
            match kind {
                0 => drop(grouped.get_u64(me, addr)),
                1 => drop(grouped.put_u64(me, addr, val)),
                2 => drop(grouped.fetch_add_u64(me, addr, val)),
                3 => drop(grouped.cas_u64(me, addr, val % 7, val)),
                4 => drop(grouped.get_bulk(me, tgt, len)),
                5 => drop(grouped.put_bulk(me, tgt, len)),
                6 => drop(grouped.get_u64_span::<3>(me, addr)),
                _ => drop(grouped.post_put_u64_unsignaled(me, addr, val)),
            }

            if kind == 6 {
                // Fence-free bounds/entry read: the 3-word span get must be
                // bit-identical across the three issue styles too.
                let (v_b, c_b) = blk.get_u64_span::<3>(me, addr);
                let (v_p, h) = posted.post_get_u64_span::<3>(me, addr, VTime::ZERO);
                let (_, c_p) = posted.wait(me, h);
                prop_assert_eq!(v_b, v_p, "span values diverged");
                prop_assert_eq!(c_b, c_p, "span cost diverged");
                let (v_c, h) = clocked.post_get_u64_span::<3>(me, addr, now);
                let (_, fin) = clocked.wait(me, h);
                prop_assert_eq!(v_b, v_c);
                prop_assert_eq!(fin.saturating_sub(now), c_b);
                now = fin;
                continue;
            }
            if kind == 7 {
                // Fence-free claim write: the unsignaled put is eager and
                // charges the same non-blocking injection on every machine.
                let c_b = blk.post_put_u64_unsignaled(me, addr, val);
                let c_p = posted.post_put_u64_unsignaled(me, addr, val);
                let c_c = clocked.post_put_u64_unsignaled(me, addr, val);
                prop_assert_eq!(c_b, c_p, "unsignaled cost diverged");
                prop_assert_eq!(c_b, c_c);
                now += c_c;
                continue;
            }

            // Blocking wrapper: (value, cost). Puts and bulks carry no value.
            let (v_b, c_b) = match kind {
                0 => blk.get_u64(me, addr),
                1 => (0, blk.put_u64(me, addr, val)),
                2 => blk.fetch_add_u64(me, addr, val),
                3 => blk.cas_u64(me, addr, val % 7, val),
                4 => (0, blk.get_bulk(me, tgt, len)),
                _ => (0, blk.put_bulk(me, tgt, len)),
            };

            // Manual post at VTime::ZERO + wait: finish IS the cost.
            let h = match kind {
                0 => posted.post_get_u64(me, addr, VTime::ZERO),
                1 => posted.post_put_u64(me, addr, val, VTime::ZERO),
                2 => posted.post_fetch_add_u64(me, addr, val, VTime::ZERO),
                3 => posted.post_cas_u64(me, addr, val % 7, val, VTime::ZERO),
                4 => posted.post_get_bulk(me, tgt, len, VTime::ZERO),
                _ => posted.post_put_bulk(me, tgt, len, VTime::ZERO),
            };
            let (v_p, c_p) = posted.wait(me, h);
            prop_assert_eq!(c_b, c_p, "cost diverged on kind {}", kind);
            if matches!(kind, 0 | 2 | 3) {
                prop_assert_eq!(v_b, v_p, "value diverged on kind {}", kind);
            }

            // Post at a running absolute clock: the relative charge
            // `finish − now` must equal the blocking cost (empty CQ, so the
            // same-QP clamp never engages).
            let h = match kind {
                0 => clocked.post_get_u64(me, addr, now),
                1 => clocked.post_put_u64(me, addr, val, now),
                2 => clocked.post_fetch_add_u64(me, addr, val, now),
                3 => clocked.post_cas_u64(me, addr, val % 7, val, now),
                4 => clocked.post_get_bulk(me, tgt, len, now),
                _ => clocked.post_put_bulk(me, tgt, len, now),
            };
            let (v_c, fin) = clocked.wait(me, h);
            prop_assert_eq!(fin.saturating_sub(now), c_b);
            if matches!(kind, 0 | 2 | 3) {
                prop_assert_eq!(v_b, v_c);
            }
            now = fin;
        }
        // Identical traffic ⇒ bit-identical per-worker fabric stats, and a
        // serial issue pattern never overlaps: depth 1, no CQ polls.
        for w in 0..workers {
            prop_assert_eq!(blk.stats(w), posted.stats(w));
            prop_assert_eq!(blk.stats(w), clocked.stats(w));
            prop_assert_eq!(blk.stats(w), grouped.stats(w));
            prop_assert!(blk.stats(w).max_inflight <= 1);
            prop_assert_eq!(blk.stats(w).cq_polls, 0);
        }
    }

    /// Determinism: identical configuration ⇒ identical simulation.
    #[test]
    fn determinism(
        policy in any_policy(),
        workers in 2usize..8,
        seed in 0u64..100,
    ) {
        let mk = || {
            let spec = UtsSpec::new(3.0, 4, Shape::Linear, 11);
            run(
                RunConfig::new(workers, policy)
                    .with_profile(profiles::itoa())
                    .with_seed(seed)
                    .with_seg_bytes(64 << 20),
                dcs::apps::uts::program(spec),
            )
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.stats.steals_ok, b.stats.steals_ok);
        prop_assert_eq!(a.stats.steals_failed, b.stats.steals_failed);
        prop_assert_eq!(a.fabric.bytes_got, b.fabric.bytes_got);
    }
}

// The protocol-agreement family runs all three steal families per case (six
// full simulations each), so it gets its own smaller case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The three steal-protocol families are interchangeable: for every
    /// (tree, P, policy, fabric mode, fault schedule), cas-lock, lock-free
    /// and fence-free all produce the exact serial UTS node count and
    /// conserve every PFor thread — under a fault-free fabric and under
    /// random transient verb faults alike. Fence-free's bounded
    /// multiplicity must never leak into the observable result.
    #[test]
    fn protocols_agree_on_results(
        b0 in 2u32..5,
        gen_mx in 2u32..6,
        tree_seed in 0u64..300,
        workers in 2usize..7,
        policy in any_policy(),
        pipelined in proptest::bool::ANY,
        fault_permille in 0u64..80,
        fault_seed in 0u64..500,
    ) {
        let spec = UtsSpec::new(b0 as f64, gen_mx, Shape::Linear, tree_seed);
        let expected = serial_count(&spec).nodes;
        let mode = if pipelined { FabricMode::Pipelined } else { FabricMode::Blocking };
        let params = dcs::apps::pfor::PforParams { n: 64, k: 2, m: VTime::us(2) };
        for protocol in Protocol::ALL {
            let cfg = || {
                let mut c = RunConfig::new(workers, policy)
                    .with_profile(profiles::test_profile())
                    .with_seg_bytes(64 << 20)
                    .with_fabric(mode)
                    .with_protocol(protocol);
                if fault_permille > 0 {
                    c = c.with_fault_plan(FaultPlan::transient(
                        fault_permille as f64 / 1000.0,
                        fault_seed,
                    ));
                }
                c
            };
            let r = run(cfg(), dcs::apps::uts::program(spec.clone()));
            prop_assert_eq!(r.result.as_u64(), expected, "uts under {:?}", protocol);
            if let Some(wd) = &r.watchdog {
                prop_assert!(wd.is_clean(), "uts under {:?}: {}", protocol, wd);
            }
            let r = run(cfg(), dcs::apps::pfor::pfor_program(params));
            prop_assert!(r.outcome.is_complete(), "pfor under {:?}", protocol);
            prop_assert_eq!(r.stats.threads_spawned, r.stats.threads_died);
        }
    }

    /// Fail-stop worker loss is protocol-independent: random kill schedules
    /// (the root holder explicitly included) leave every recoverable policy
    /// × protocol × fabric mode combination with the exact serial node
    /// count — replayed lineage records dedup against fence-free's claim
    /// set the same way a doubly-taken entry does.
    #[test]
    fn protocols_agree_under_kill(
        raw in proptest::collection::vec((0usize..8, 1u64..120), 1..3),
        pipelined in proptest::bool::ANY,
        policy in prop_oneof![
            Just(Policy::ChildRtc),
            Just(Policy::ContGreedy),
            Just(Policy::ContStalling),
        ],
    ) {
        const WORKERS: usize = 6;
        let spec = dcs::apps::uts::presets::tiny();
        let truth = serial_count(&spec).nodes;
        let mode = if pipelined { FabricMode::Pipelined } else { FabricMode::Blocking };
        // Thin the raw (victim, at-µs) list to ≤ ⌊W/2⌋ distinct victims and
        // tune the registry so detection + replay fit the tiny makespan.
        let mut plan = FaultPlan::none();
        let mut victims: Vec<usize> = Vec::new();
        for &(v, at_us) in &raw {
            let v = v % WORKERS;
            if victims.len() >= WORKERS / 2 && !victims.contains(&v) {
                continue;
            }
            if !victims.contains(&v) {
                victims.push(v);
            }
            plan = plan.with_kill(v, VTime::us(at_us));
        }
        plan.hb_period = VTime::us(10);
        plan.lease = VTime::us(30);
        for protocol in Protocol::ALL {
            let mut cfg = RunConfig::new(WORKERS, policy)
                .with_profile(profiles::test_profile())
                .with_seg_bytes(64 << 20)
                .with_fabric(mode)
                .with_protocol(protocol)
                .with_fault_plan(plan.clone())
                .with_watchdog(true);
            cfg.max_steps = 50_000_000;
            let r = run(cfg, dcs::apps::uts::program(spec.clone()));
            prop_assert!(
                r.outcome.is_complete(),
                "{:?}/{:?}/{:?}: {:?}", policy, protocol, mode, r.outcome
            );
            prop_assert_eq!(
                r.result.as_u64(), truth,
                "{:?}/{:?}/{:?}", policy, protocol, mode
            );
            if let Some(wd) = &r.watchdog {
                // Armed runs legitimately abandon resources mid-recovery;
                // anything beyond a leak is a bug.
                let hard: Vec<_> = wd
                    .violations
                    .iter()
                    .filter(|v| !matches!(v, Violation::Leak { .. }))
                    .collect();
                prop_assert!(hard.is_empty(), "{:?}/{:?}: {:?}", policy, protocol, hard);
            }
        }
    }
}
