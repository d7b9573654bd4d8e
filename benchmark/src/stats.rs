//! Order statistics for rep lists and trace series.

use crate::json::Json;

/// Render with a few significant digits whatever the magnitude: set-up
/// times are microseconds, pass times seconds, makespans thousands.
pub fn sig(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them — the driver's acceptance
/// check computes its spreads that way, so the self-report must too.
/// A single sample has no spread: all three quartiles are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Min/quartiles/max of one metric's reps, with the noise verdict the
/// harness prints beside every host metric.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        // The exclusive method's middle quartile *is* the median.
        let (q1, median, q3) = quartiles(xs);
        Summary {
            n: xs.len(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("n", self.n)
            .set("min", self.min)
            .set("q1", self.q1)
            .set("median", self.median)
            .set("q3", self.q3)
            .set("max", self.max)
            .set("iqr_over_median", self.spread());
        o
    }
}

/// Nearest-rank percentile of a series, and how many samples it has.
/// `p99` is reported only when at least ten samples lie beyond it, as the
/// choosing-metrics guide asks; otherwise `None`.
pub struct Series {
    sorted: Vec<u64>,
}

impl Series {
    pub fn new(mut xs: Vec<u64>) -> Series {
        xs.sort_unstable();
        Series { sorted: xs }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn percentile(&self, p: f64) -> Option<u64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    pub fn p99(&self) -> Option<u64> {
        (self.sorted.len() >= 1000)
            .then(|| self.percentile(99.0))
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        for xs in [vec![3.0, 9.0, 1.0, 4.0], vec![5.0, 2.0, 8.0, 1.0, 7.0]] {
            assert_eq!(quartiles(&xs).1, median(&xs));
        }
    }

    #[test]
    fn medians_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        let s = Summary::of(&[10.0, 10.0, 10.0, 10.0]);
        assert_eq!(s.spread(), 0.0);
        assert_eq!((s.min, s.max, s.n), (10.0, 10.0, 4));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few = Series::new((0..999).collect());
        assert_eq!(few.p99(), None);
        assert_eq!(few.p50(), Some(499));
        let enough = Series::new((1..=1000).collect());
        assert_eq!(enough.p99(), Some(990));
        assert_eq!(Series::new(vec![]).p50(), None);
    }
}
