//! Order statistics for the reported timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least ten samples beyond it — a p99 of 200 samples is the
//! second-worst sample, not a quantile.

/// Percentiles the tail rule chooses among, ascending.
const TAIL_CANDIDATES: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Samples strictly beyond percentile `p` in a sample of `n`. Counted in
/// tenths of a percent so 200 samples at p95 is exactly ten, not 9.99….
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let beyond_permille = (1000.0 - (p * 10.0).round()).max(0.0) as usize;
    n * beyond_permille / 1000
}

/// The highest candidate percentile with at least ten samples beyond it,
/// or `None` when even p90 does not have ten (n < 100).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Linear-interpolated percentile of an ascending-sorted sample
/// (`p` in `[0, 100]`). Returns `None` on an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p.clamp(0.0, 100.0) / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// A sample sorted once, queried many times.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Takes ownership of `values` and sorts them (NaNs order last and are
    /// a caller bug: timings are never NaN).
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Sample size.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, 0.0 on an empty sample (an empty layer reads zero).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p).unwrap_or(0.0)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Distance between the first and third quartile as a share of the
    /// median — the spread `compare` weighs a bound against. 0.0 below two
    /// samples or on a zero median.
    pub fn relative_iqr(&self) -> f64 {
        let median = self.median();
        if self.sorted.len() < 2 || median == 0.0 {
            return 0.0;
        }
        ((self.percentile(75.0) - self.percentile(25.0)) / median).abs()
    }
}

/// Median of a small unsorted slice (set-up repeats, per-block rates).
pub fn median_of(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_samples() {
        let s = Sample::new((1..=101).map(f64::from).collect());
        assert_eq!(s.n(), 101);
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 101.0);
        assert_eq!(s.percentile(95.0), 96.0);
        // Interpolates between ranks.
        let t = Sample::new(vec![10.0, 20.0]);
        assert_eq!(t.percentile(25.0), 12.5);
        assert_eq!(t.median(), 15.0);
        // Input order does not matter.
        assert_eq!(Sample::new(vec![3.0, 1.0, 2.0]).median(), 2.0);
    }

    #[test]
    fn empty_and_single_samples_do_not_panic() {
        let e = Sample::new(Vec::new());
        assert_eq!(e.median(), 0.0);
        assert_eq!(e.relative_iqr(), 0.0);
        assert_eq!(percentile_sorted(&[], 50.0), None);
        let one = Sample::new(vec![7.0]);
        assert_eq!(one.percentile(99.0), 7.0);
        assert_eq!(one.relative_iqr(), 0.0);
    }

    #[test]
    fn ten_beyond_rule_picks_the_reported_tail() {
        // 200 samples: exactly ten lie beyond p95, two beyond p99.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(200, 99.0), 2);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        // p99 needs a thousand samples, p99.9 ten thousand.
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // Below a hundred samples no tail is a quantile.
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
    }

    #[test]
    fn relative_iqr_is_quartile_distance_over_median() {
        let s = Sample::new(vec![90.0, 95.0, 100.0, 105.0, 110.0]);
        assert!((s.relative_iqr() - 0.10).abs() < 1e-12);
    }
}
