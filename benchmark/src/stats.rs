//! Order statistics over small samples: exact nearest-rank percentiles
//! (never the telemetry crate's log2 buckets), median/MAD, and the
//! quartile spread the acceptance rule of the benchmark uses.

/// Nearest-rank percentile of `sorted` (ascending) at `permille` ‰:
/// the smallest sample with at least that share of the samples at or
/// below it. 0 for an empty sample.
pub fn percentile<T: Copy + Default>(sorted: &[T], permille: u64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// The highest of the usual tail percentiles (‰) that still has at least
/// ten samples beyond it, so the reported tail is a measurement and not
/// one outlier. Falls back to the median for samples too small for p90.
pub fn tail_permille(n: usize) -> u64 {
    [999u64, 990, 950, 900]
        .into_iter()
        .find(|p| n as u64 * (1000 - p) >= 10_000)
        .unwrap_or(500)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// First and third quartile, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses — the driver computes its
/// spread this way, so `compare` does too.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// n, min, median, p90 and MAD of a sample of durations, plus its tail:
/// the highest percentile the sample size supports ([`tail_permille`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub p90: f64,
    pub mad: f64,
    pub tail_permille: u64,
    pub tail: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_permille = tail_permille(v.len());
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(0.0),
        median: median(&v),
        p90: percentile(&v, 900),
        mad: mad(&v),
        tail_permille,
        tail: percentile(&v, tail_permille),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 999), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[7], 990), 7);
        assert_eq!(percentile::<u64>(&[], 990), 0);
        // Nearest rank never interpolates: p50 of four samples is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 500), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 510), 30);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(9_999), 990);
        assert_eq!(tail_permille(1_000), 990);
        assert_eq!(tail_permille(999), 950);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(199), 900);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(99), 500);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Deviations from the median 3 are 2,1,0,1,6 -> median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((s.n, s.min, s.median, s.p90), (10, 1.0, 5.5, 9.0));
        assert_eq!(
            (s.tail_permille, s.tail),
            (500, 5.0),
            "ten samples support no tail"
        );
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&hundred);
        assert_eq!((s.p90, s.tail_permille, s.tail), (90.0, 900, 90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
