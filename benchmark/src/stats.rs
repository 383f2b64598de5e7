//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median with quartiles and the sample
//! count; latencies additionally get the highest percentile that still
//! has ten samples beyond it (a p99 over 200 samples rests on two
//! points and is not reported). Quartiles use the same "exclusive"
//! method as Python's `statistics.quantiles(values, n=4)`, so the
//! spreads `aa.sh` prints are the ones the acceptance driver computes.

/// Minimum, median, quartiles and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `k`-th of `n` cut points of sorted `v`, exclusive method:
/// position `k·(len+1)/n`, linearly interpolated, clamped to the ends.
fn cut_point(v: &[f64], k: usize, n: usize) -> f64 {
    let len = v.len();
    let pos = k * (len + 1);
    let j = (pos / n).clamp(1, len - 1);
    let delta = pos as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// Median of `values`; 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and quartiles of `values`. A single value is its own
/// quartiles; an empty set summarises to zeros.
pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    let median = median(&v);
    let (q1, q3) = if n >= 2 {
        (cut_point(&v, 1, 4), cut_point(&v, 3, 4))
    } else {
        (median, median)
    };
    let min = v.first().copied().unwrap_or(0.0);
    Summary {
        n,
        min,
        median,
        q1,
        q3,
    }
}

/// Nearest-rank percentile `p` (in percent) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentile ladder tail latencies are reported from.
const LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest ladder percentile with at least ten samples beyond it,
/// as `(percent, value)`; `None` under 100 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    LADDER
        .iter()
        .rev()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|&p| (p, percentile(values, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min), (10, 1.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summary(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let of = |n: usize| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            tail_percentile(&v).map(|(p, _)| p)
        };
        assert_eq!(of(99), None);
        assert_eq!(of(100), Some(90.0));
        assert_eq!(of(999), Some(90.0));
        assert_eq!(of(1000), Some(99.0));
        assert_eq!(of(5000), Some(99.0));
        assert_eq!(of(10_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
    }
}
