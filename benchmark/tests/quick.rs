//! Runs the whole benchmark in `--quick` mode (every workload shrunk to well
//! under a second, 2 reps, ladder at a tenth of its iterations) and checks
//! the result schema against the registry and `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::Command;

use dcs_benchmark::json::Json;
use dcs_benchmark::metrics::{self, END_TO_END, PER_LAYER};
use dcs_benchmark::workloads::WORKLOADS;

fn number(entry: &Json, section: &str, metric: &str) -> f64 {
    entry
        .get(section)
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{section}.{metric} missing or not a number"))
}

#[test]
fn quick_suite_emits_every_metric_for_every_workload() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-suite");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["suite", "--quick", "--seed", "7", "--results-dir"])
        .arg(&dir)
        .status()
        .expect("spawn benchmark");
    assert!(status.success(), "quick suite failed: {status}");

    let latest = std::fs::read_to_string(dir.join("latest.json")).expect("latest.json written");
    let latest = Json::parse(&latest).expect("latest.json parses");
    let workloads = latest.get("workloads").expect("workloads section");
    assert_eq!(workloads.fields().len(), WORKLOADS.len());
    for w in &WORKLOADS {
        let entry = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("{} missing", w.name));
        assert_eq!(
            entry.get("runs_failed").and_then(Json::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(entry.get("runs_attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            entry.get("vdigest").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        // End-to-end metrics: all there, none zero.
        for e in &END_TO_END {
            assert!(
                number(entry, "end_to_end", e.name) > 0.0,
                "{}.{} is 0",
                w.name,
                e.name
            );
        }
        assert_eq!(
            entry.get("end_to_end").unwrap().fields().len(),
            END_TO_END.len()
        );
        // Per-layer metrics: exactly the registry's names.
        let layers = entry.get("per_layer").expect("per_layer section");
        assert_eq!(layers.fields().len(), PER_LAYER.len(), "{}", w.name);
        for p in PER_LAYER {
            assert!(
                number(entry, "per_layer", p.name).is_finite(),
                "{}.{}",
                w.name,
                p.name
            );
        }
        // The cost model hides nothing: shares + residual = 1.
        let total: f64 = [
            "sim.engine.share",
            "sim.machine.share",
            "core.deque.share",
            "apps.kernel_share",
            "core.sched.residual_share",
        ]
        .iter()
        .map(|m| number(entry, "per_layer", m))
        .sum();
        assert!(
            (total - 1.0).abs() <= 0.01,
            "{}: shares sum to {total}",
            w.name
        );
        // T1/P <= T_P on the aggregate row too.
        assert!(
            number(entry, "per_layer", "core.sched.efficiency") <= 1.0,
            "{}",
            w.name
        );
    }
    // The lattice reports one makespan per cell.
    let cells = workloads
        .get("lattice_matrix")
        .and_then(|e| e.get("cells"))
        .and_then(Json::as_arr)
        .expect("lattice cells");
    assert_eq!(cells.len(), 48);

    // Spans were written out at exit, one identifier per workload.
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let trace = Json::parse(&trace).expect("trace.json parses");
    for w in &WORKLOADS {
        let spans = trace
            .get("workloads")
            .and_then(|t| t.get(w.name))
            .and_then(|t| t.get("per_layer"))
            .expect("per_layer spans");
        assert_eq!(spans.get("id").and_then(Json::as_str), Some(w.name));
        let names: Vec<&str> = spans
            .get("spans")
            .and_then(Json::as_arr)
            .expect("span list")
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for want in [
            "gen_input",
            "verify",
            "ladder",
            "ladder.sim.mem.write_hit_ns",
        ] {
            assert!(names.contains(&want), "{}: no `{want}` span", w.name);
        }
    }

    // Two runs of the same code and seed compare clean under --identical.
    let again = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-suite-again");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "suite",
            "--quick",
            "--no-trace",
            "--seed",
            "7",
            "--results-dir",
        ])
        .arg(&again)
        .status()
        .expect("spawn benchmark");
    assert!(status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("compare")
        .arg(dir.join("latest.json"))
        .arg(again.join("latest.json"))
        .arg("--identical")
        .output()
        .expect("spawn compare");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 exact value(s) differ"), "{text}");
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(on_disk.len() <= 64 << 10);
    let on_disk = Json::parse(&on_disk).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        metrics::manifest(),
        "regenerate with `benchmark/run.sh manifest`"
    );
    let keys: Vec<&str> = on_disk.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn an_unknown_workload_is_refused_before_anything_runs() {
    // An unknown workload is refused before anything runs.
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", "nope", "--quick"])
        .output()
        .expect("spawn benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
