//! The whole benchmark: every workload in its own child process.
//!
//! A process per workload keeps `VmHWM` per workload and stops one
//! workload's allocator state from reaching the next one's timings. The
//! children are this same binary in `run` mode; their detailed reports are
//! merged into `results/latest.json` and their spans into
//! `results/trace.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::workloads::WORKLOADS;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub trace: bool,
    pub results_dir: PathBuf,
}

/// Run one child to completion; returns its detailed report.
fn child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<Json, String> {
    let out = args
        .results_dir
        .join(format!(".{workload}.trace{}.json", trace as u8));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if args.quick {
        cmd.arg("--quick");
    }
    // stdout/stderr are inherited: the child prints its own metric table.
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{workload}: no report at {}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    let report = Json::parse(&text).map_err(|e| format!("{workload}: bad report: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            trace as u8
        ));
    }
    Ok(report)
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run the suite; returns the process exit code.
pub fn run(args: &SuiteArgs) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&args.results_dir) {
        eprintln!("error: cannot create {}: {e}", args.results_dir.display());
        return 2;
    }
    let t0 = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let mut workloads = Json::obj();
    let mut traces = Json::obj();
    for w in &WORKLOADS {
        let mut entry = Json::obj();
        let mut spans = Json::obj();
        let modes: &[(bool, &str)] = if args.trace {
            &[(false, "end_to_end"), (true, "per_layer")]
        } else {
            &[(false, "end_to_end")]
        };
        for &(trace, section) in modes {
            match child(args, w.name, trace) {
                Ok(report) => {
                    if !trace {
                        for key in ["vdigest", "runs_attempted", "runs_failed", "cells"] {
                            if let Some(v) = report.get(key) {
                                entry.set(key, v.clone());
                            }
                        }
                    }
                    if let Some(m) = report.get("metrics") {
                        entry.set(section, m.clone());
                    }
                    if let Some(s) = report.get("trace_spans") {
                        spans.set(section, s.clone());
                    }
                }
                Err(e) => failures.push(e),
            }
        }
        workloads.set(w.name, entry);
        traces.set(w.name, spans);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut host = Json::obj();
    host.set("nproc", nproc)
        .set("os", std::env::consts::OS)
        .set("arch", std::env::consts::ARCH);
    let mut latest = Json::obj();
    latest
        .set("schema", 1u64)
        .set("host", host)
        .set("seed", format!("{:#x}", args.seed))
        .set("seconds", args.seconds)
        .set("quick", args.quick)
        .set("workloads", workloads);
    let mut trace_file = Json::obj();
    trace_file.set("schema", 1u64).set("workloads", traces);
    for (name, json) in [("latest.json", &latest), ("trace.json", &trace_file)] {
        if let Err(e) = write(&args.results_dir.join(name), json) {
            eprintln!("error: {e}");
            return 2;
        }
    }
    println!(
        "\nsuite finished in {:.1} s; results in {}",
        t0.elapsed().as_secs_f64(),
        args.results_dir.join("latest.json").display()
    );
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    if failures.is_empty() {
        0
    } else {
        1
    }
}
