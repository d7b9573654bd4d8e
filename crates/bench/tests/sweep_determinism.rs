//! The `experiments` binary, driven as a user drives it.
//!
//! Host parallelism may only change wall-clock time, never an output byte:
//! three cheap quick-mode experiments run at `--jobs 1`, `4` and `32`
//! (more jobs than cells), each in its own directory, and every CSV and
//! `.txt` they write must be byte-identical across the three. This is the
//! contract that makes `--jobs` safe to default on. The command line's
//! error path and `--list` are pinned too.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// Run the binary in a fresh directory named `tag`; return its output and
/// every file it wrote under `results/`.
fn run_in(tag: &str, args: &[&str]) -> (Output, BTreeMap<String, Vec<u8>>) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dcs-experiments-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let out = Command::new(BIN)
        .args(args)
        .current_dir(&dir)
        .env("DCS_QUICK", "1")
        .env_remove("DCS_JOBS")
        .output()
        .expect("run experiments");
    let mut files = BTreeMap::new();
    if let Ok(entries) = fs::read_dir(dir.join("results")) {
        for e in entries {
            let e = e.unwrap();
            files.insert(
                e.file_name().into_string().unwrap(),
                fs::read(e.path()).unwrap(),
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
    (out, files)
}

#[test]
fn job_count_never_changes_an_output_byte() {
    let names = ["ablate_join", "ablate_free", "fig7"];
    let runs: Vec<_> = ["1", "4", "32"]
        .iter()
        .map(|jobs| {
            let mut args = names.to_vec();
            args.extend(["--jobs", jobs]);
            let (out, files) = run_in(&format!("jobs{jobs}"), &args);
            assert!(
                out.status.success(),
                "--jobs {jobs}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            (out.stdout, files)
        })
        .collect();
    let (stdout, files) = &runs[0];
    let written: Vec<&str> = files.keys().map(|k| k.as_str()).collect();
    assert_eq!(
        written,
        [
            "ablate_free.csv",
            "ablate_free.txt",
            "ablate_join.csv",
            "ablate_join.txt",
            "fig7.csv",
            "fig7.txt"
        ]
    );
    assert!(files["fig7.csv"].starts_with(b"strategy,t_ms,busy_workers,ready_joins\n"));
    for (name, bytes) in files {
        assert!(bytes.len() > 64, "{name} is not trivially empty");
    }
    // Stdout is the three .txt files, in the order named.
    let txts = names.map(|n| String::from_utf8(files[&format!("{n}.txt")].clone()).unwrap());
    assert_eq!(String::from_utf8_lossy(stdout), txts.join("\n"));
    for (jobs, run) in ["4", "32"].iter().zip(&runs[1..]) {
        assert!(run.1 == *files, "--jobs {jobs} changed a results/ file");
        assert!(run.0 == *stdout, "--jobs {jobs} changed stdout");
    }
}

#[test]
fn unknown_name_exits_2_and_lists_the_names() {
    let (out, files) = run_in("unknown", &["ablate_join", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment 'fig99'"), "{err}");
    assert!(
        err.contains("ablate_overlap") && err.contains("table3"),
        "{err}"
    );
    assert!(files.is_empty(), "nothing runs when a name is wrong");
}

#[test]
fn list_prints_the_17_experiments() {
    let (out, files) = run_in("list", &["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 17, "{stdout}");
    assert_eq!((names[0], names[16]), ("fig6", "ablate_overlap"));
    assert!(files.is_empty());
}
