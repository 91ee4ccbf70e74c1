//! Flat `f32` vector kernels.
//!
//! These are the primitive operations the compression schemes are built from:
//! norms (chunk scoring in TopKC), scaling, element-wise sums, and top-k
//! index selection. Above per-kernel element thresholds
//! they fan out on [`crate::parallel`]; every reduction uses *fixed* chunk
//! boundaries with an ordered fold, and top-k selection uses a total order,
//! so each kernel's output is bitwise-identical whether it ran on 1 thread or
//! 8. The *cost* of the corresponding GPU kernel is modelled separately in
//! `gcs-gpusim`, keeping functional behaviour and performance modelling
//! decoupled.

use crate::parallel;

/// Fixed chunk length for deterministic reductions (norms, vnmse).
/// Reductions over longer inputs accumulate per-chunk partials that are
/// folded in chunk order, independent of thread count.
const REDUCE_CHUNK: usize = 1 << 15;

/// Chunk length for element-wise kernels (scale, add/sub). These are
/// partition-invariant, so the constant only tunes scheduling granularity.
const ELEMWISE_CHUNK: usize = 1 << 15;

fn squared_norm_seq(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum()
}

/// Returns the squared L2 norm of `v`.
pub fn squared_norm(v: &[f32]) -> f32 {
    if v.len() <= REDUCE_CHUNK {
        return squared_norm_seq(v);
    }
    if parallel::max_threads() == 1 {
        // The same fold over the same partials, without a `Vec` to hold
        // them: callers on the round's hot path must not allocate.
        return v.chunks(REDUCE_CHUNK).map(squared_norm_seq).sum();
    }
    let partials = parallel::map_chunks(v, REDUCE_CHUNK, |_, chunk| squared_norm_seq(chunk));
    partials.into_iter().sum()
}

/// Returns the L2 norm of `v`.
pub fn norm(v: &[f32]) -> f32 {
    squared_norm(v).sqrt()
}

/// Scales `v` in place by `alpha`.
pub fn scale(v: &mut [f32], alpha: f32) {
    parallel::for_each_chunk_mut(v, ELEMWISE_CHUNK, |_, chunk| {
        crate::simd::scale(chunk, alpha);
    });
}

/// Element-wise sum of `b` into `a`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
    parallel::for_each_chunk_mut(a, ELEMWISE_CHUNK, |i, chunk| {
        let lo = i * ELEMWISE_CHUNK;
        let hi = lo + chunk.len();
        for (x, y) in chunk.iter_mut().zip(&b[lo..hi]) {
            *x += y;
        }
    });
}

/// Returns the element-wise mean of `n` equal-length vectors.
///
/// Per output element the vectors are accumulated in their given order and
/// scaled last, so the result matches the sequential add-then-scale loop
/// bit-for-bit under any parallel partition of the output.
///
/// # Panics
/// Panics if `vectors` is empty or lengths differ.
pub fn mean(vectors: &[Vec<f32>]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "mean: no vectors");
    let d = vectors[0].len();
    for v in vectors {
        assert_eq!(v.len(), d, "mean: length mismatch");
    }
    let inv = 1.0 / vectors.len() as f32;
    let mut out = vec![0.0f32; d];
    parallel::for_each_chunk_mut(&mut out, ELEMWISE_CHUNK, |i, chunk| {
        let lo = i * ELEMWISE_CHUNK;
        let hi = lo + chunk.len();
        for v in vectors {
            for (x, y) in chunk.iter_mut().zip(&v[lo..hi]) {
                *x += y;
            }
        }
        for x in chunk.iter_mut() {
            *x *= inv;
        }
    });
    out
}

/// Reusable scratch for [`top_k_indices_into`]: hot loops (per-worker TopK
/// compression, per-round chunk scoring) call selection thousands of times,
/// and reusing the index/key buffers avoids `O(d)` allocations each call.
#[derive(Clone, Default, Debug)]
pub struct TopKScratch {
    idx: Vec<usize>,
    keys: Vec<u32>,
}

impl TopKScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Indices of the `k` elements of `v` with the largest absolute value,
/// written to `out` (cleared first) in descending order of |value|, ties
/// broken by lower index first. The order is total — larger
/// `|v[i]|.total_cmp`, then lower `i` — so the selected list is unique.
///
/// This is the local TopK selection of sparsification schemes (§3.1.1), one
/// threshold scan at every length. Magnitudes are materialized as `u32` sort
/// keys (`|v[i]|.to_bits()` — unsigned key order is exactly `total_cmp` of
/// absolute values once the sign bit is cleared, NaN above infinity), the
/// k-th largest key `T` is found by integer partial selection (average
/// O(d), the asymptotics of GPU radix-select), and a SIMD scan
/// ([`crate::simd::collect_indices_above`]) collects every `key > T` in
/// ascending index order. Keys *equal* to `T` fill the remaining slots by
/// ascending index, and the final `k` are sorted `(key desc, index asc)`.
/// The key fill fans out over fixed chunks; nothing in the result depends
/// on the thread count. Neither `scratch` nor `out` reallocate once grown
/// to their high-water mark.
pub fn top_k_indices_into(v: &[f32], k: usize, scratch: &mut TopKScratch, out: &mut Vec<usize>) {
    out.clear();
    let n = v.len();
    let k = k.min(n);
    if k == 0 {
        return;
    }
    let keys = &mut scratch.keys;
    keys.clear();
    keys.resize(n, 0);
    let fill = |keys: &mut [u32]| {
        parallel::for_each_chunk_mut(keys, ELEMWISE_CHUNK, |i, chunk| {
            let lo = i * ELEMWISE_CHUNK;
            crate::simd::abs_keys_into(&v[lo..lo + chunk.len()], chunk);
        });
    };
    fill(keys);
    // Integer partial selection: ascending position n-k holds the k-th
    // largest key. It permutes the keys, so they are filled a second time
    // for the scan — one more cheap pass instead of a second d-long buffer.
    let (_, &mut threshold, _) = keys.select_nth_unstable(n - k);
    fill(keys);

    let idx = &mut scratch.idx;
    idx.clear();
    crate::simd::collect_indices_above(keys, threshold, 0, idx);
    debug_assert!(idx.len() < k, "more than k-1 keys above the k-th largest");
    // Fill the remaining slots with threshold ties, lowest index first.
    let mut need = k - idx.len();
    for (i, &key) in keys.iter().enumerate() {
        if need == 0 {
            break;
        }
        if key == threshold {
            idx.push(i);
            need -= 1;
        }
    }
    idx.sort_unstable_by(|&a, &b| keys[b].cmp(&keys[a]).then(a.cmp(&b)));
    out.extend_from_slice(idx);
}

/// The vector-normalized mean squared error between an estimate and the true
/// vector: `||est - truth||^2 / ||truth||^2`.
///
/// This is the paper's cheap convergence proxy (§2.2, Tables 4 and 7), used
/// on the *aggregated* gradient: `truth` is the exact average of the workers'
/// gradients and `est` is what the compression scheme delivered.
///
/// Returns 0 when both vectors are zero, and infinity when the truth is zero
/// but the estimate is not.
pub fn vnmse(est: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(est.len(), truth.len(), "vnmse: length mismatch");
    let seq = |e: &[f32], t: &[f32]| {
        let mut err = 0.0f64;
        let mut denom = 0.0f64;
        for (x, y) in e.iter().zip(t) {
            let diff = (*x as f64) - (*y as f64);
            err += diff * diff;
            denom += (*y as f64) * (*y as f64);
        }
        (err, denom)
    };
    let (err, denom) = if est.len() <= REDUCE_CHUNK {
        seq(est, truth)
    } else {
        let partials = parallel::map_chunks(est, REDUCE_CHUNK, |i, chunk| {
            let lo = i * REDUCE_CHUNK;
            seq(chunk, &truth[lo..lo + chunk.len()])
        });
        partials
            .into_iter()
            .fold((0.0, 0.0), |(e, d), (pe, pd)| (e + pe, d + pd))
    };
    if denom == 0.0 {
        if err == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        err / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    #[test]
    fn norms() {
        let v = [3.0, 4.0];
        assert_eq!(squared_norm(&v), 25.0);
        assert_eq!(norm(&v), 5.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0, 1.0];
        crate::simd::axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn mean_of_vectors() {
        let m = mean(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(m, vec![2.0, 4.0]);
    }

    fn top_k(v: &[f32], k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        top_k_indices_into(v, k, &mut TopKScratch::new(), &mut out);
        out
    }

    #[test]
    fn top_k_selects_largest_magnitudes() {
        let v = [0.1, -5.0, 3.0, -0.2, 4.0];
        assert_eq!(top_k(&v, 2), vec![1, 4]);
        assert_eq!(top_k(&v, 0), Vec::<usize>::new());
        // k >= len returns everything sorted by magnitude.
        assert_eq!(top_k(&v, 10), vec![1, 4, 2, 3, 0]);
    }

    #[test]
    fn top_k_tie_break_is_stable_by_index() {
        let v = [1.0, -1.0, 1.0];
        assert_eq!(top_k(&v, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_scratch_reuse_matches_fresh_calls() {
        let mut scratch = TopKScratch::new();
        let mut out = Vec::new();
        let a = [0.5f32, -9.0, 2.0, 2.0, -2.0, 7.5];
        let b = [1.0f32, 0.0, -3.0];
        for (v, k) in [(&a[..], 3), (&b[..], 2), (&a[..], 5)] {
            top_k_indices_into(v, k, &mut scratch, &mut out);
            assert_eq!(out, top_k(v, k));
        }
    }

    #[test]
    fn reductions_are_thread_count_invariant() {
        let d = REDUCE_CHUNK * 2 + 321;
        let v: Vec<f32> = (0..d).map(|i| ((i as f32) * 0.37).sin()).collect();
        let w: Vec<f32> = (0..d).map(|i| ((i as f32) * 0.11).cos()).collect();
        let base = with_threads(1, || (squared_norm(&v), vnmse(&v, &w)));
        for threads in [2usize, 3, 8] {
            let got = with_threads(threads, || (squared_norm(&v), vnmse(&v, &w)));
            assert_eq!(got.0.to_bits(), base.0.to_bits(), "threads={threads}");
            assert_eq!(got.1.to_bits(), base.1.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn one_thread_squared_norm_folds_the_partials_the_fan_out_collects() {
        for d in [REDUCE_CHUNK + 1, 2 * REDUCE_CHUNK, 3 * REDUCE_CHUNK + 321] {
            let v: Vec<f32> = (0..d)
                .map(|i| {
                    if i % 7 == 0 {
                        -0.0
                    } else {
                        (i as f32 * 0.37).sin() * 3.0
                    }
                })
                .collect();
            let collected: f32 = parallel::map_chunks(&v, REDUCE_CHUNK, |_, c| squared_norm_seq(c))
                .into_iter()
                .sum();
            for threads in [1usize, 2] {
                let got = with_threads(threads, || squared_norm(&v));
                assert_eq!(
                    got.to_bits(),
                    collected.to_bits(),
                    "d={d} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn vnmse_basics() {
        let truth = [1.0, 0.0, -1.0];
        assert_eq!(vnmse(&truth, &truth), 0.0);
        // est = 0 gives vNMSE = 1 (all signal lost).
        assert!((vnmse(&[0.0, 0.0, 0.0], &truth) - 1.0).abs() < 1e-12);
        assert_eq!(vnmse(&[0.0], &[0.0]), 0.0);
        assert_eq!(vnmse(&[1.0], &[0.0]), f64::INFINITY);
    }
}
