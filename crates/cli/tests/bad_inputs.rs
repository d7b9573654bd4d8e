//! Inputs that used to panic inside the simulator end in a usage error:
//! exit status 2 and one `error:` line naming the flag, before the help.

use std::process::Command;

/// Run `dcs ARGS` and return its exit code and the first line of stderr.
fn dcs(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcs"))
        .args(args.split_whitespace())
        .output()
        .expect("dcs runs");
    let err = String::from_utf8_lossy(&out.stderr);
    (
        out.status.code(),
        err.lines().next().unwrap_or("").to_string(),
    )
}

fn assert_usage_error(args: &str, says: &str) {
    let (code, first) = dcs(args);
    assert_eq!(code, Some(2), "dcs {args}: {first}");
    assert!(
        first.starts_with("error: ") && first.contains(says),
        "dcs {args}: {first}"
    );
}

#[test]
fn a_kill_of_a_worker_the_run_lacks() {
    assert_usage_error(
        "run --bench fib --workers 4 --fault-plan kill=9@1us",
        "kill= names worker 9, but the run has 4 workers",
    );
}

#[test]
fn a_node_size_of_zero() {
    assert_usage_error(
        "run --bench fib --workers 4 --node-size 0",
        "--node-size needs n >= 1",
    );
}

#[test]
fn zero_workers_under_run_and_sweep() {
    assert_usage_error("run --bench fib --workers 0", "every count must be >= 1");
    assert_usage_error(
        "sweep --bench fib --workers 2,0",
        "every count must be >= 1",
    );
}

#[test]
fn an_lcs_size_that_is_not_a_power_of_two() {
    assert_usage_error(
        "run --bench lcs --n 3",
        "--bench lcs needs --n a power of two, got 3",
    );
}
