//! Log-bucketed quantile histograms with fixed relative resolution.
//!
//! The design is HdrHistogram's, adapted to `f64` with no dependencies: a
//! value's bucket is derived directly from its IEEE-754 bit pattern — the
//! 11 exponent bits concatenated with the top [`SUB_BITS`] mantissa bits —
//! which yields `2^SUB_BITS` linear sub-buckets per power of two across the
//! entire positive `f64` range. Bucketing is therefore *monotone* in the
//! value, bucket boundaries are exact dyadic rationals, and every bucket's
//! width is at most [`REL_ERROR`] (= `2^-SUB_BITS` ≈ 3.1%) of its lower
//! edge.
//!
//! That gives the quantile guarantee the paper's tail-latency reporting
//! needs: for any quantile `q`, [`Histogram::quantile`] returns a value
//! within `REL_ERROR` *relative* error of the true sample quantile (same
//! rank definition), because the reported bucket midpoint and the true
//! sample share a bucket. The property suite in `tests/properties.rs` pins
//! this bound against uniform and exponential sample sets.
//!
//! Buckets are stored sparsely (`BTreeMap`), so an idle histogram costs a
//! few hundred bytes and a latency histogram with microsecond-to-second
//! spread costs a few KB — cheap enough to keep one per collective op and
//! per worker.

use std::collections::BTreeMap;

/// Linear sub-buckets per power of two, as a bit count (32 sub-buckets).
pub const SUB_BITS: u32 = 5;

/// Worst-case relative error of a reported quantile: one bucket width over
/// the bucket's lower edge, `2^-SUB_BITS` = 1/32 = 3.125%.
pub const REL_ERROR: f64 = 1.0 / (1u64 << SUB_BITS) as f64;

/// Bucket index of a positive finite value: exponent bits ‖ top mantissa
/// bits. Monotone in `v` for `v > 0`.
#[inline]
fn bucket_index(v: f64) -> u32 {
    (v.to_bits() >> (52 - SUB_BITS)) as u32
}

/// Lower edge of bucket `idx` (exact).
#[inline]
fn bucket_lower(idx: u32) -> f64 {
    f64::from_bits((idx as u64) << (52 - SUB_BITS))
}

/// Midpoint of bucket `idx` — the reported representative value.
#[inline]
fn bucket_mid(idx: u32) -> f64 {
    0.5 * (bucket_lower(idx) + bucket_lower(idx + 1))
}

/// A fixed-resolution quantile histogram over `f64` samples.
///
/// Non-finite samples are ignored; zero and negative samples are counted in
/// a dedicated underflow bucket and represented by the exact tracked
/// minimum (latencies and byte counts are non-negative by construction, so
/// this is a guard, not a code path experiments exercise).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: BTreeMap<u32, u64>,
    non_positive: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: BTreeMap::new(),
            non_positive: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Non-finite values are dropped.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v > 0.0 {
            *self.counts.entry(bucket_index(v)).or_insert(0) += 1;
        } else {
            self.non_positive += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` clamped into `[0, 1]`), `None` when empty.
    ///
    /// Rank definition: the returned value represents the sample at 1-based
    /// rank `ceil(q·count)` (at least 1) in sorted order — the same
    /// convention the property tests apply to the raw samples. The result
    /// is the containing bucket's midpoint, clamped into `[min, max]`, and
    /// is within [`REL_ERROR`] relative error of that sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.non_positive {
            // All non-positive samples sort before every positive one; the
            // tracked minimum bounds them. (Exact only when there is a
            // single distinct non-positive value, which is the practical
            // case: a zero-duration guard.)
            return Some(self.min);
        }
        let mut cum = self.non_positive;
        for (&idx, &n) in &self.counts {
            cum += n;
            if cum >= rank {
                return Some(bucket_mid(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one (same bucket layout always —
    /// the layout is a compile-time constant).
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.counts {
            *self.counts.entry(idx).or_insert(0) += n;
        }
        self.non_positive += other.non_positive;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(lower_edge, upper_edge, count)`, ascending —
    /// the raw material for external exporters.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.counts
            .iter()
            .map(|(&idx, &n)| (bucket_lower(idx), bucket_lower(idx + 1), n))
    }

    /// Appends the fleet wire encoding of this histogram: scalar state, then
    /// `(bucket_index, count)` pairs. The bucket layout is a compile-time
    /// constant ([`SUB_BITS`]), so shipping raw indices is lossless.
    pub(crate) fn wire_encode(&self, out: &mut Vec<u8>) {
        use gcs_trace::bytes::{put_f64, put_u32, put_u64};
        put_u64(out, self.non_positive);
        put_u64(out, self.count);
        put_f64(out, self.sum);
        put_f64(out, self.min);
        put_f64(out, self.max);
        put_u32(out, self.counts.len() as u32);
        for (&idx, &n) in &self.counts {
            put_u32(out, idx);
            put_u64(out, n);
        }
    }

    /// Inverse of [`Histogram::wire_encode`]; rejects bucket counts that
    /// could not fit in the remaining payload.
    pub(crate) fn wire_decode(r: &mut gcs_trace::bytes::Cursor<'_>) -> Result<Histogram, String> {
        use gcs_trace::bytes::Prefix;
        let non_positive = r.u64()?;
        let count = r.u64()?;
        let sum = r.f64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        // Each bucket occupies 12 bytes.
        let n_buckets = r.count(Prefix::U32, 12)?;
        let mut counts = BTreeMap::new();
        for _ in 0..n_buckets {
            let idx = r.u32()?;
            let n = r.u64()?;
            counts.insert(idx, n);
        }
        Ok(Histogram {
            counts,
            non_positive,
            count,
            sum,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(42.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 42.0).abs() <= 42.0 * REL_ERROR, "q={q}: {v}");
        }
        assert_eq!(h.min(), Some(42.0));
        assert_eq!(h.max(), Some(42.0));
        assert_eq!(h.mean(), Some(42.0));
    }

    #[test]
    fn bucketing_is_monotone_and_tight() {
        // Adjacent representable magnitudes across ten decades: indices
        // never decrease and every value sits inside its bucket.
        let mut prev = 0;
        let mut v = 1e-6;
        while v < 1e6 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index decreased at {v}");
            assert!(bucket_lower(idx) <= v && v < bucket_lower(idx + 1));
            // Bucket width is within the documented resolution.
            let width = bucket_lower(idx + 1) - bucket_lower(idx);
            assert!(width <= bucket_lower(idx) * REL_ERROR * (1.0 + 1e-12));
            prev = idx;
            v *= 1.37;
        }
    }

    #[test]
    fn quantiles_of_a_known_sequence() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((p50 - 500.0).abs() <= 500.0 * REL_ERROR, "p50 = {p50}");
        assert!((p99 - 990.0).abs() <= 990.0 * REL_ERROR, "p99 = {p99}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
    }

    #[test]
    fn non_finite_samples_are_dropped_and_non_positive_kept() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        h.record(0.0);
        h.record(5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0.0));
        // Rank 1 (p0..p50) is the non-positive sample, reported as min.
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=50 {
            a.record(i as f64);
        }
        for i in 51..=100 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(100.0));
        let p50 = a.p50().unwrap();
        assert!((p50 - 50.0).abs() <= 50.0 * REL_ERROR, "p50 = {p50}");
    }

    #[test]
    fn small_magnitudes_keep_relative_resolution() {
        // Sub-second durations recorded in seconds (flow completion times)
        // must not collapse into one bucket.
        let mut h = Histogram::new();
        for i in 0..100 {
            h.record(1e-3 * (1.0 + i as f64 / 100.0));
        }
        let p50 = h.p50().unwrap();
        let exact = 1e-3 * 1.5;
        assert!((p50 - exact).abs() <= exact * (REL_ERROR + 0.01), "{p50}");
    }

    #[test]
    fn buckets_iterate_in_ascending_order() {
        let mut h = Histogram::new();
        for v in [1.0, 3.0, 1000.0, 2.0] {
            h.record(v);
        }
        let edges: Vec<(f64, f64, u64)> = h.buckets().collect();
        assert!(edges.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(edges.iter().map(|e| e.2).sum::<u64>(), 4);
    }
}
