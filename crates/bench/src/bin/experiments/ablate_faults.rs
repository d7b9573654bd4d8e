//! Ablation — resilience of the four runtimes under deterministic fault
//! injection.
//!
//! Sweeps a transient-fault rate (verb failures, message drops, message
//! duplications) across the three fork-join policies and the one-sided
//! bag-of-tasks runtime, then adds a "hostile" scenario with a degraded
//! NIC window and a crash-stop window on top. Every configuration must
//! produce the exact serial UTS node count — faults may only cost time —
//! and the run reports what the resilience machinery did: verb retries,
//! verb timeouts, and (fork-join) blacklist-driven victim re-draws.

use dcs_apps::uts::{self, presets};
use dcs_bench::sweep;
use dcs_bot::onesided;
use dcs_core::prelude::*;
use dcs_sim::{CrashWindow, DegradeWindow};

use crate::table::{row, Table};
use crate::{config, mnodes, pick};

const FAULT_SEED: u64 = 0xAB1A7E;

/// The hostile scenario: transient faults plus a mid-run degraded NIC and a
/// crash-stop window.
fn hostile(p: usize) -> FaultPlan {
    FaultPlan::transient(0.02, FAULT_SEED)
        .with_degrade(DegradeWindow {
            worker: 1 % p,
            from: VTime::us(50),
            until: VTime::ms(2),
            factor: 8.0,
        })
        .with_crash(CrashWindow {
            worker: if p > 2 { 2 } else { 0 },
            from: VTime::us(80),
            until: VTime::ms(1),
        })
}

pub fn tables(jobs: usize) -> Vec<Table> {
    let spec = pick(presets::tiny(), presets::small());
    let p = pick(8, 32);
    let info = uts::serial_count(&spec);
    let profile = profiles::itoa();
    let rates: &[f64] = pick(&[0.0, 0.05], &[0.0, 0.01, 0.02, 0.05, 0.1]);
    let mut scenarios: Vec<(String, FaultPlan)> = rates
        .iter()
        .map(|&r| {
            let plan = if r == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::transient(r, FAULT_SEED)
            };
            (format!("transient {r}"), plan)
        })
        .collect();
    scenarios.push(("hostile".to_string(), hostile(p)));

    // One cell per (runtime, scenario); `None` is the one-sided BoT runtime.
    // Each job returns (elapsed, retries, timeouts, blacklist skips).
    let runtimes = [
        Some(Policy::ContGreedy),
        Some(Policy::ContStalling),
        Some(Policy::ChildFull),
        None,
    ];
    let mut cells = Vec::new();
    for rt in runtimes {
        for si in 0..scenarios.len() {
            cells.push((rt, si));
        }
    }
    let results = sweep::run_matrix(&cells, jobs, |_, &(rt, si)| {
        let (name, plan) = &scenarios[si];
        match rt {
            Some(policy) => {
                let rc = config(p, policy).with_fault_plan(plan.clone());
                let r = run(rc, uts::program(spec.clone()));
                assert_eq!(r.result.as_u64(), info.nodes, "{policy:?} under {name}");
                if let Some(wd) = &r.watchdog {
                    assert!(wd.is_clean(), "{policy:?} under {name}: {wd}");
                }
                (
                    r.elapsed,
                    r.fabric.retries,
                    r.fabric.timeouts,
                    r.stats.blacklist_skips,
                )
            }
            None => {
                let half = onesided::StealAmount::Half;
                let r = onesided::run_uts_faulty(&spec, p, profile.clone(), 1, half, plan.clone());
                assert_eq!(r.nodes, info.nodes, "one-sided BoT under {name}");
                (r.elapsed, r.fabric.retries, r.fabric.timeouts, 0)
            }
        }
    });

    // Slowdowns are against each runtime's first (fault-free) scenario.
    let mut rows = Vec::new();
    for (cs, rs) in cells
        .chunks(scenarios.len())
        .zip(results.chunks(scenarios.len()))
    {
        let base = rs[0].0.as_ns() as f64;
        for (&(rt, si), &(elapsed, retries, timeouts, bl_skips)) in cs.iter().zip(rs) {
            let (name, plan) = &scenarios[si];
            let slowdown = elapsed.as_ns() as f64 / base;
            rows.push(row(&[
                &rt.map_or("bot-onesided", |policy| policy.label()),
                &plan.verb_fail_p,
                name,
                &p,
                &elapsed.as_ns(),
                &format!("{:.3}", mnodes(info.nodes, elapsed)),
                &retries,
                &timeouts,
                &bl_skips,
                &format!("{slowdown:.3}"),
            ]));
        }
    }
    vec![Table {
        csv: "ablate_faults",
        title: format!(
            "fault-injection ablation (UTS {} nodes, P = {p}, {})",
            info.nodes, profile.name
        ),
        columns: "runtime,fault_p,scenario,p,elapsed_ns,throughput_mnodes_s,retries,timeouts,blacklist_skips,slowdown",
        rows,
        notes: vec![
            "Expected shape: identical node counts everywhere; elapsed grows".into(),
            "smoothly with the fault rate (retry/backoff absorbs transients);".into(),
            "the hostile scenario costs roughly the crash window, not a hang.".into(),
        ],
    }]
}
