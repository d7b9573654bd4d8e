//! Library half of the repo benchmark (the `benchmark` binary is a thin
//! command-line front end over these modules; `tests/quick.rs` uses them to
//! check the result schema).

pub mod compare;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;
