//! Order statistics used everywhere a number is reported: exact quantiles
//! over the raw samples (never a bucketed histogram), and the
//! median/quartile summary of k repetitions.

use crate::json::{self, Json};

/// Median, quartiles and range of one metric over its repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0
    /// or there are too few samples to have quartiles).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// True when every repetition read the same value.
    pub fn is_exact(&self) -> bool {
        self.min == self.max
    }

    /// The row a result file holds for one metric.
    pub fn to_json(self) -> Json {
        json::obj([
            ("median", json::num(self.median)),
            ("q1", json::num(self.q1)),
            ("q3", json::num(self.q3)),
            ("min", json::num(self.min)),
            ("max", json::num(self.max)),
            ("n", json::num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        Ok(Summary {
            median: json::get_num(v, "median")?,
            q1: json::get_num(v, "q1")?,
            q3: json::get_num(v, "q3")?,
            min: json::get_num(v, "min")?,
            max: json::get_num(v, "max")?,
            n: json::get_num(v, "n")? as usize,
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples when n is even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread printed here is the spread an outside checker computes from the
/// same samples. Needs at least two samples; with fewer, all three are the
/// single value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median/quartile summary of k repetitions.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let [q1, _, q3] = quartiles(&v);
    Summary {
        median: median(&v),
        q1,
        q3,
        min: v.first().copied().unwrap_or(0.0),
        max: v.last().copied().unwrap_or(0.0),
        n: v.len(),
    }
}

/// Exact nearest-rank quantile: the smallest sample with at least `p` of the
/// samples at or below it. `p` in (0, 1]; 0 on an empty set.
pub fn quantile_exact(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Candidate tail percentiles, lowest first.
const TAIL_PERCENTILES: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// The highest tail percentile that still has at least ten samples beyond
/// it, or `None` when even p90 does not (n < 100): a p99 over 240 samples
/// would rest on two of them.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|p| samples_beyond(n, *p) >= 10)
}

/// Samples strictly above the nearest-rank `p` quantile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn summary_reports_spread_and_exactness() {
        let s = summarize(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (30.0, 10.0, 50.0, 5));
        assert_eq!(s.spread(), 1.0);
        assert!(!s.is_exact());
        let e = summarize(&[7.0; 5]);
        assert!(e.is_exact());
        assert_eq!(e.spread(), 0.0);
        assert_eq!(summarize(&[4.0]).median, 4.0);
        assert_eq!(Summary::from_json(&s.to_json()), Ok(s));
        assert!(Summary::from_json(&Json::Null).is_err());
    }

    #[test]
    fn exact_quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(quantile_exact(&v, 0.5), 120.0);
        assert_eq!(quantile_exact(&v, 0.95), 228.0);
        assert_eq!(quantile_exact(&v, 1.0), 240.0);
        assert_eq!(quantile_exact(&[5.0], 0.95), 5.0);
        assert_eq!(quantile_exact(&[], 0.5), 0.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 240 samples: 12 lie beyond p95, only 2 beyond p99.
        assert_eq!(samples_beyond(240, 0.95), 12);
        assert_eq!(samples_beyond(240, 0.99), 2);
        assert_eq!(highest_percentile(240), Some(0.95));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(99), None);
    }
}
