//! Count-sketch: the linear data structure behind sketch-based gradient
//! compression (FetchSGD-style).
//!
//! A count-sketch is a `rows × width` table; coordinate `i` is hashed into
//! one bucket per row with a random sign. Crucially the map is **linear**:
//! `sketch(g1) + sketch(g2) = sketch(g1 + g2)` — so sketches can be summed
//! by a plain ring all-reduce with *no* per-hop decompression, making
//! sketching the canonical all-reduce-compatible compression structure
//! (contrast §2.1's incompatibility discussion). Heavy hitters of the
//! aggregate are then recovered from the summed sketch by median estimation.

use crate::rng::{splitmix64, SharedSeed};
use crate::vector::TopKScratch;

/// Reusable scratch for heavy-hitter recovery: the estimation path touches
/// all `d` coordinates (`O(d·rows)` — the recovery cost §3 prices in), and
/// threading this through [`CountSketch::heavy_hitters_into`] keeps the
/// per-round work free of the `O(d)` estimate/selection allocations.
#[derive(Clone, Debug, Default)]
pub struct SketchScratch {
    /// Per-coordinate median estimates.
    est: Vec<f32>,
    /// Median-of-rows working buffer (one slot per hash row).
    vals: Vec<f32>,
    /// Selection scratch for the final top-k over the estimates.
    topk: TopKScratch,
}

impl SketchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A count-sketch over `d`-dimensional vectors.
#[derive(Clone, Debug)]
pub struct CountSketch {
    rows: usize,
    width: usize,
    seed: u64,
    /// Row-major `rows × width` table.
    table: Vec<f32>,
}

impl CountSketch {
    /// Creates an empty sketch. All workers must use the same `seed` for
    /// their sketches to be summable.
    ///
    /// # Panics
    /// Panics if `rows` or `width` is zero.
    pub fn new(rows: usize, width: usize, seed: SharedSeed) -> CountSketch {
        assert!(rows > 0 && width > 0, "CountSketch: degenerate shape");
        CountSketch {
            rows,
            width,
            seed: seed.value(),
            table: vec![0.0; rows * width],
        }
    }

    /// Number of hash rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The table values (for transport).
    pub fn table(&self) -> &[f32] {
        &self.table
    }

    /// Mutable table access (for transport).
    pub fn table_mut(&mut self) -> &mut [f32] {
        &mut self.table
    }

    /// Size of the sketch payload in f32 values.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the sketch has no cells (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    #[inline]
    fn bucket_and_sign(&self, row: usize, i: usize) -> (usize, f32) {
        let h = splitmix64(self.seed ^ ((row as u64) << 48) ^ i as u64);
        let bucket = (h % self.width as u64) as usize;
        let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
        (bucket, sign)
    }

    /// Accumulates a vector into the sketch.
    pub fn insert(&mut self, v: &[f32]) {
        for (i, &x) in v.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for row in 0..self.rows {
                let (b, s) = self.bucket_and_sign(row, i);
                self.table[row * self.width + b] += s * x;
            }
        }
    }

    /// Median-of-rows estimate of coordinate `i`, staged in a caller-owned
    /// median buffer — a per-call allocation would be the entire cost of an
    /// estimation loop, so heavy-hitter recovery and the per-worker EF
    /// contributions reuse one buffer across all `d` coordinates.
    pub fn estimate_with(&self, i: usize, vals: &mut Vec<f32>) -> f32 {
        vals.clear();
        vals.extend((0..self.rows).map(|row| {
            let (b, s) = self.bucket_and_sign(row, i);
            s * self.table[row * self.width + b]
        }));
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let m = vals.len() / 2;
        if vals.len() % 2 == 1 {
            vals[m]
        } else {
            0.5 * (vals[m - 1] + vals[m])
        }
    }

    /// Heavy-hitter recovery: estimates all `d` coordinates and writes the
    /// indices of the `k` largest-magnitude estimates to `out`. Allocation-
    /// free at steady state: estimates stage in `scratch.est`, each median
    /// reuses `scratch.vals`, and the final selection threads `scratch.topk`
    /// through [`crate::vector::top_k_indices_into`].
    pub fn heavy_hitters_into(
        &self,
        d: usize,
        k: usize,
        scratch: &mut SketchScratch,
        out: &mut Vec<usize>,
    ) {
        let SketchScratch { est, vals, topk } = scratch;
        est.clear();
        est.extend((0..d).map(|i| self.estimate_with(i, vals)));
        crate::vector::top_k_indices_into(est, k, topk, out);
    }

    /// Element-wise addition of another sketch (linearity). Both must share
    /// shape and seed.
    ///
    /// # Panics
    /// Panics on shape or seed mismatch.
    pub fn merge(&mut self, other: &CountSketch) {
        assert_eq!(self.rows, other.rows, "CountSketch::merge: rows");
        assert_eq!(self.width, other.width, "CountSketch::merge: width");
        assert_eq!(self.seed, other.seed, "CountSketch::merge: seed mismatch");
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            *a += b;
        }
    }

    /// Zeroes the table.
    pub fn clear(&mut self) {
        self.table.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> SharedSeed {
        SharedSeed::new(77)
    }

    #[test]
    fn single_heavy_coordinate_is_recovered_exactly_in_expectation() {
        let d = 1000;
        let mut v = vec![0.0f32; d];
        v[123] = 5.0;
        let mut s = CountSketch::new(5, 64, seed());
        s.insert(&v);
        assert!((s.estimate_with(123, &mut Vec::new()) - 5.0).abs() < 1e-6);
        let mut found = Vec::new();
        s.heavy_hitters_into(d, 1, &mut SketchScratch::new(), &mut found);
        assert_eq!(found, vec![123]);
    }

    #[test]
    fn linearity_sketch_of_sum_equals_sum_of_sketches() {
        let d = 256;
        let a: Vec<f32> = (0..d).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..d).map(|i| (i as f32 * 1.3).cos()).collect();
        let mut sa = CountSketch::new(3, 32, seed());
        sa.insert(&a);
        let mut sb = CountSketch::new(3, 32, seed());
        sb.insert(&b);
        sa.merge(&sb);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let mut s_sum = CountSketch::new(3, 32, seed());
        s_sum.insert(&sum);
        for (x, y) in sa.table().iter().zip(s_sum.table()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn heavy_hitters_beat_noise() {
        let d = 2000;
        let mut v = vec![0.0f32; d];
        // 5 heavy coordinates over light noise.
        let heavy = [3usize, 500, 999, 1500, 1999];
        for &h in &heavy {
            v[h] = 10.0;
        }
        for (i, x) in v.iter_mut().enumerate() {
            *x += ((i * 37) % 13) as f32 * 0.01;
        }
        let mut s = CountSketch::new(5, 256, seed());
        s.insert(&v);
        let mut found = Vec::new();
        s.heavy_hitters_into(d, 5, &mut SketchScratch::new(), &mut found);
        found.sort_unstable();
        assert_eq!(found, heavy.to_vec());
    }

    #[test]
    fn estimates_are_unbiased_across_seeds() {
        // Mean estimate of a fixed coordinate over many hash seeds
        // converges to the true value despite collisions.
        let d = 512;
        let v: Vec<f32> = (0..d).map(|i| ((i * 31) % 7) as f32 - 3.0).collect();
        let mut acc = 0.0f64;
        let trials = 200;
        let mut vals = Vec::new();
        for t in 0..trials {
            let mut s = CountSketch::new(1, 32, SharedSeed::new(t));
            s.insert(&v);
            acc += s.estimate_with(200, &mut vals) as f64;
        }
        let avg = acc / trials as f64;
        assert!(
            (avg - v[200] as f64).abs() < 0.5,
            "avg {avg} vs true {}",
            v[200]
        );
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merging_different_seeds_is_rejected() {
        let mut a = CountSketch::new(2, 8, SharedSeed::new(1));
        let b = CountSketch::new(2, 8, SharedSeed::new(2));
        a.merge(&b);
    }
}
