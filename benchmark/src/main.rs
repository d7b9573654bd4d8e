//! The repo benchmark: seven workloads, two clocks, and an outside-in layer
//! ladder. See `benchmark/README.md` for what is measured and why, and
//! `BENCHMARK.json` at the repo root for the contract the driver reads.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
//! benchmark suite [--seed N] [--seconds S] [--quick] [--no-trace] [--results-dir DIR]
//! benchmark compare A.json B.json [--identical]
//! benchmark manifest            # prints BENCHMARK.json
//! ```

use std::path::PathBuf;

use dcs_benchmark::{compare, metrics, run, suite, RUN_SECONDS};

/// Default workload seed.
const DEFAULT_SEED: u64 = 0x5EED;

const USAGE: &str = "usage:
  benchmark run --workload W --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
  benchmark suite [--seed N] [--seconds S] [--quick] [--no-trace] [--results-dir DIR]
  benchmark compare A.json B.json [--identical]
  benchmark manifest";

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("bad --seed `{v}` (decimal or 0x-hex u64)"))
}

fn parse_seconds(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => Ok(s),
        _ => Err(format!("bad --seconds `{v}` (a number in (0, 600])")),
    }
}

/// Flags shared by `run` and `suite`, collected from `args`.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    no_trace: bool,
    identical: bool,
    out: Option<PathBuf>,
    results_dir: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => f.workload = Some(value("--workload")?),
            "--seed" => f.seed = Some(parse_seed(&value("--seed")?)?),
            "--seconds" => f.seconds = Some(parse_seconds(&value("--seconds")?)?),
            "--trace" => {
                f.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                })
            }
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--results-dir" => f.results_dir = Some(PathBuf::from(value("--results-dir")?)),
            "--quick" => f.quick = true,
            "--no-trace" => f.no_trace = true,
            "--identical" => f.identical = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".to_string());
    };
    let f = parse_flags(rest)?;
    let default_seconds = if f.quick { 0.5 } else { RUN_SECONDS as f64 };
    match cmd.as_str() {
        "run" => {
            let args = run::RunArgs {
                workload: f.workload.ok_or("run needs --workload")?,
                seed: f.seed.unwrap_or(DEFAULT_SEED),
                seconds: f.seconds.unwrap_or(default_seconds),
                trace: f.trace.unwrap_or(false),
                quick: f.quick,
                out: f.out,
            };
            Ok(run::run(&args))
        }
        "suite" => {
            let args = suite::SuiteArgs {
                seed: f.seed.unwrap_or(DEFAULT_SEED),
                seconds: f.seconds.unwrap_or(default_seconds),
                quick: f.quick,
                trace: !f.no_trace,
                results_dir: f
                    .results_dir
                    .unwrap_or_else(|| PathBuf::from("benchmark/results")),
            };
            Ok(suite::run(&args))
        }
        "compare" => match f.positional.as_slice() {
            [a, b] => Ok(compare::run(a, b, f.identical)),
            _ => Err("compare needs exactly two result files".to_string()),
        },
        "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
