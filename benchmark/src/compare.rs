//! `benchmark compare <a.json> <b.json>`: the no-regression check.
//!
//! One row per (workload, end-to-end metric): both medians, the ratio with
//! its base, the rep quartiles, and a verdict. Host metrics are judged
//! against the metric's bound and are `unresolved` — not "same" — when the
//! rep spread of either side exceeds that bound. Virtual metrics, exact
//! per-layer counts and `vdigest` are compared for equality; with
//! `--identical` (two runs of the same code) any difference there fails.

use crate::json::Json;
use crate::metrics::{Clock, END_TO_END, PER_LAYER};
use crate::stats::sig;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a` for a lower-is-better metric. `spread` is the
/// larger rep IQR/median of the two sides.
pub fn judge(a: f64, b: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if b > a * (1.0 + bound) {
        Verdict::Worse
    } else if b < a * (1.0 - bound) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct Side<'a> {
    value: f64,
    reps: Option<&'a Json>,
}

impl Side<'_> {
    fn spread(&self) -> f64 {
        self.reps
            .and_then(|r| r.get("iqr_over_median"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn quartiles(&self) -> String {
        let q = |k: &str| self.reps.and_then(|r| r.get(k)).and_then(Json::as_f64);
        match (
            q("q1"),
            q("q3"),
            self.reps.and_then(|r| r.get("n")).and_then(Json::as_f64),
        ) {
            (Some(q1), Some(q3), Some(n)) if n > 1.0 => {
                format!("[{}..{}] n={n}", sig(q1), sig(q3))
            }
            _ => "n=1".to_string(),
        }
    }
}

fn side<'a>(workload: &'a Json, section: &str, metric: &str) -> Option<Side<'a>> {
    let m = workload.get(section)?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        reps: m.get("reps"),
    })
}

/// Compare two result files; returns the process exit code (1 when any row
/// is worse, or — under `identical` — when any exact value differs).
pub fn run(path_a: &str, path_b: &str, identical: bool) -> i32 {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let empty = Json::obj();
    let wa = a.get("workloads").unwrap_or(&empty);
    let wb = b.get("workloads").unwrap_or(&empty);
    println!("base a = {path_a}\n     b = {path_b}\n");
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>9}  {:<11} quartiles a | b",
        "workload", "metric", "a", "b", "b/a", "verdict"
    );
    let (mut worse, mut unresolved, mut inexact) = (0, 0, 0);
    for (name, ea) in wa.fields() {
        let Some(eb) = wb.get(name) else {
            println!("{name:<16} missing from b");
            worse += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(ea, "end_to_end", def.name),
                side(eb, "end_to_end", def.name),
            ) else {
                continue;
            };
            let verdict = match def.clock {
                Clock::Host => judge(sa.value, sb.value, sa.spread().max(sb.spread()), def.bound),
                // Deterministic: there is no noise to resolve.
                Clock::Virtual => judge(sa.value, sb.value, 0.0, def.bound),
            };
            let exact_note = if def.clock == Clock::Virtual && sa.value != sb.value {
                inexact += 1;
                "  (virtual: NOT identical)"
            } else {
                ""
            };
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Better | Verdict::Same => {}
            }
            println!(
                "{:<16} {:<12} {:>12} {:>12} {:>9.4}  {:<11} {} | {}{}",
                name,
                def.name,
                sig(sa.value),
                sig(sb.value),
                sb.value / sa.value,
                verdict.label(),
                sa.quartiles(),
                sb.quartiles(),
                exact_note
            );
        }
        let digest = |e: &Json| e.get("vdigest").and_then(Json::as_str).map(str::to_string);
        if digest(ea) != digest(eb) {
            inexact += 1;
            println!(
                "{name:<16} vdigest      {:?} != {:?}",
                digest(ea),
                digest(eb)
            );
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            if let (Some(sa), Some(sb)) = (
                side(ea, "per_layer", def.name),
                side(eb, "per_layer", def.name),
            ) {
                if sa.value != sb.value {
                    inexact += 1;
                    println!(
                        "{name:<16} {:<40} {} != {}  (b/a {:.4}, base a)",
                        def.name,
                        sa.value,
                        sb.value,
                        sb.value / sa.value
                    );
                }
            }
        }
    }
    println!(
        "\n{worse} worse, {unresolved} unresolved, {inexact} exact value(s) differ \
         (ratios are b/a, base a; bounds: {})",
        END_TO_END
            .iter()
            .map(|e| format!("{} {:.0}%", e.name, 100.0 * e.bound))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if worse > 0 || (identical && inexact > 0) {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(judge(1.0, 1.05, 0.01, 0.10), Verdict::Same);
        assert_eq!(judge(1.0, 1.11, 0.01, 0.10), Verdict::Worse);
        assert_eq!(judge(1.0, 0.89, 0.01, 0.10), Verdict::Better);
        // Spread wider than the bound: unresolved, never "same".
        assert_eq!(judge(1.0, 1.00, 0.11, 0.10), Verdict::Unresolved);
        assert_eq!(judge(1.0, 2.00, 0.11, 0.10), Verdict::Unresolved);
    }
}
