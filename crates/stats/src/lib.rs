//! Shared timing statistics for the workspace.
//!
//! One home for the summary statistics every timing consumer needs:
//! the paper's Table 4 range/quartile/average [`Summary`] (used by the
//! bench harness and the experiment runner) plus the robust location and
//! spread estimators — [`median`] and [`mad`] — that the cutoff-tuning
//! sweeps report. `strassen::tuning` and `bench::stats` both consume this
//! crate, so a timing statistic is defined exactly once.

#![warn(missing_docs)]

/// Range / quartile / average summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub n: usize,
}

/// Linear-interpolation percentile of an **ascending-sorted** slice
/// (`p` in `[0, 1]`) — the estimator behind [`Summary`]'s quartiles,
/// exposed for latency-distribution reporting (p50/p99/p999 in the
/// serving-layer load harness), where the caller sorts once and reads
/// many percentiles.
///
/// # Panics
/// On an empty slice.
///
/// ```
/// let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(stats::percentile(&sorted, 0.0), 1.0);
/// assert_eq!(stats::percentile(&sorted, 0.5), 3.0);
/// assert_eq!(stats::percentile(&sorted, 0.875), 4.5);
/// assert_eq!(stats::percentile(&sorted, 1.0), 5.0);
/// ```
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile: empty sample");
    if n == 1 {
        return sorted[0];
    }
    let idx = p * (n - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("stats: NaN observation"));
    sorted
}

/// Summarize a non-empty sample.
///
/// # Panics
/// On an empty sample or NaN observations.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize: empty sample");
    let sorted = sorted_copy(values);
    Summary {
        min: sorted[0],
        q1: percentile(&sorted, 0.25),
        median: percentile(&sorted, 0.50),
        q3: percentile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
        mean: values.iter().sum::<f64>() / values.len() as f64,
        n: values.len(),
    }
}

/// Median of a non-empty sample (linear interpolation for even sizes).
///
/// # Panics
/// On an empty sample or NaN observations.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median: empty sample");
    percentile(&sorted_copy(values), 0.5)
}

/// Median absolute deviation: `median(|x_i − median(x)|)` — the robust
/// spread statistic the tuning sweeps report alongside each median, since
/// a handful of preempted runs would blow up a standard deviation.
///
/// # Panics
/// On an empty sample or NaN observations.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// First quartile, median, third quartile of a non-empty sample (linear
/// interpolation between order statistics; `values` need not be sorted).
///
/// # Panics
/// On an empty sample or NaN observations.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles: empty sample");
    let sorted = sorted_copy(values);
    [percentile(&sorted, 0.25), percentile(&sorted, 0.5), percentile(&sorted, 0.75)]
}

impl Summary {
    /// The paper's Table 4 row format:
    /// `range  quartiles  average` for a ratio sample.
    pub fn paper_row(&self) -> String {
        format!(
            "{:.4}-{:.4}  {:.4};{:.4};{:.4}  {:.4}",
            self.min, self.max, self.q1, self.median, self.q3, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value() {
        let s = summarize(&[2.0]);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn known_quartiles() {
        // 1..=5: median 3, q1 2, q3 4.
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn interpolated_quartiles() {
        // 1..=4: q1 = 1.75, median = 2.5, q3 = 3.25.
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_known_values() {
        // {1, 2, 3, 4, 9}: median 3, |d| = {2, 1, 0, 1, 6}, MAD = 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        // Constant sample: zero spread.
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
        // MAD shrugs off one wild outlier where a stddev would not.
        assert_eq!(mad(&[1.0, 1.0, 1.0, 1.0, 1000.0]), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn row_renders() {
        let s = summarize(&[0.9, 1.0, 1.1]);
        let row = s.paper_row();
        assert!(row.contains("0.9000-1.1000"));
        assert!(row.contains("1.0000"));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_panics() {
        summarize(&[]);
    }
}
