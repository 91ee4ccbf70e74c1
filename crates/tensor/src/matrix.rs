//! Dense row-major matrices and the linear algebra PowerSGD needs.
//!
//! PowerSGD (§3.3) views each layer's gradient as a matrix `M (m×n)` and
//! maintains a rank-`r` approximation `M ≈ P Qᵀ` via one step of subspace
//! iteration per round:
//!
//! 1. `P = M Q`              (m×r)
//! 2. `P̂ = orthonormalize(P)` — **the expensive Gram–Schmidt step the paper
//!    profiles at 39.7–47.4% of training time for r=64**
//! 3. `Q = Mᵀ P̂`            (n×r)
//!
//! This module supplies the matmuls and the modified Gram–Schmidt.
//!
//! The matmuls fan out over **output rows** on the [`crate::parallel`]
//! runtime: every output row is produced by exactly one task using the same
//! per-element accumulation order as the sequential loops, so results are
//! bitwise-identical for any `GCS_THREADS`.

use crate::parallel;

/// Minimum number of multiply-adds before a matmul fans out to threads.
/// Below this the spawn cost dominates; PowerSGD's P/Q products on real
/// layer shapes sit far above it.
const MATMUL_PAR_MIN: usize = 1 << 16;

/// Minimum element count before `transpose` fans out.
const TRANSPOSE_PAR_MIN: usize = 1 << 16;

/// A dense row-major `f32` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "Matrix::from_vec: size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self * other` — returns an `m×p` product.
    ///
    /// Fans out over output rows when the flop count warrants it; each row is
    /// computed by exactly one task with the sequential accumulation order,
    /// so the product is bitwise-identical for any thread count.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let n = self.rows * self.cols;
        if self.rows > 0 && n >= TRANSPOSE_PAR_MIN && parallel::max_threads() > 1 {
            // One output row (= input column) per chunk; pure writes, so
            // parallelism cannot affect the result.
            let rows = self.rows;
            parallel::for_each_chunk_mut(&mut out.data, rows, |c, orow| {
                for (r, o) in orow.iter_mut().enumerate() {
                    *o = self.get(r, c);
                }
            });
        } else {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    out.set(c, r, self.get(r, c));
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        crate::vector::norm(&self.data)
    }
}

/// Accumulates row `i` of `A(ar×ac) · B(ac×bc)` into `crow` using the kj
/// (streaming) inner order — shared by every sequential and parallel matmul
/// path so all produce identical bits.
#[inline]
fn matmul_row(a: &[f32], ac: usize, b: &[f32], bc: usize, i: usize, crow: &mut [f32]) {
    let arow = &a[i * ac..(i + 1) * ac];
    for (k, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b[k * bc..(k + 1) * bc];
        for (c, &bv) in crow.iter_mut().zip(brow) {
            *c += av * bv;
        }
    }
}

/// Accumulates row `i` of `A(ar×ac)ᵀ · B(ar×bc)` into `crow`. Per element,
/// terms are added in ascending `k` — the sequential k-outer order.
#[inline]
fn transpose_matmul_row(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    i: usize,
    crow: &mut [f32],
) {
    for k in 0..ar {
        let av = a[k * ac + i];
        if av == 0.0 {
            continue;
        }
        let brow = &b[k * bc..(k + 1) * bc];
        for (c, &bv) in crow.iter_mut().zip(brow) {
            *c += av * bv;
        }
    }
}

/// `out = A(ar×ac) · B(ac×bc)` over row-major slices — the pooled-buffer
/// matmul: callers keep `out` in reusable scratch, so a steady-state round
/// performs no allocation. `out` is overwritten. Fans out over output rows
/// above the flop threshold with the same per-row accumulation order as the
/// sequential loop, so results are bitwise-identical for any thread count.
///
/// # Panics
/// Panics if slice lengths disagree with the shapes.
pub fn matmul_into(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
    assert_eq!(a.len(), ar * ac, "matmul_into: lhs size mismatch");
    assert_eq!(b.len(), ac * bc, "matmul_into: rhs size mismatch");
    assert_eq!(out.len(), ar * bc, "matmul_into: out size mismatch");
    out.fill(0.0);
    let work = ar * ac * bc;
    if bc > 0 && work >= MATMUL_PAR_MIN && parallel::max_threads() > 1 {
        // One output row per chunk: chunk index == row index.
        parallel::for_each_chunk_mut(out, bc, |i, crow| {
            matmul_row(a, ac, b, bc, i, crow);
        });
    } else {
        // ikj loop order: streaming access on `b` and `out` rows.
        for (i, crow) in out.chunks_exact_mut(bc.max(1)).enumerate() {
            matmul_row(a, ac, b, bc, i, crow);
        }
    }
}

/// `out = A(ar×ac)ᵀ · B(ar×bc)` over row-major slices, without
/// materializing the transpose; `out` (ac×bc) is overwritten. Same pooled,
/// thread-count-invariant contract as [`matmul_into`].
///
/// # Panics
/// Panics if slice lengths disagree with the shapes.
pub fn transpose_matmul_into(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), ar * ac, "transpose_matmul_into: lhs size mismatch");
    assert_eq!(b.len(), ar * bc, "transpose_matmul_into: rhs size mismatch");
    assert_eq!(
        out.len(),
        ac * bc,
        "transpose_matmul_into: out size mismatch"
    );
    out.fill(0.0);
    let work = ar * ac * bc;
    if bc > 0 && work >= MATMUL_PAR_MIN && parallel::max_threads() > 1 {
        parallel::for_each_chunk_mut(out, bc, |i, crow| {
            transpose_matmul_row(a, ar, ac, b, bc, i, crow);
        });
    } else {
        for (i, crow) in out.chunks_exact_mut(bc.max(1)).enumerate() {
            transpose_matmul_row(a, ar, ac, b, bc, i, crow);
        }
    }
}

/// `out = A(ar×ac) · B(br×ac)ᵀ` over row-major slices; `out` (ar×br) is
/// overwritten. Every output element is a dot of two *contiguous* rows, so
/// this runs on [`crate::simd::dot_folded`] directly — no transpose is
/// materialized and no scratch is needed. The fold shape is fixed, so the
/// result is identical for any thread count or SIMD dispatch.
///
/// # Panics
/// Panics if slice lengths disagree with the shapes.
pub fn matmul_bt_into(a: &[f32], ar: usize, ac: usize, b: &[f32], br: usize, out: &mut [f32]) {
    assert_eq!(a.len(), ar * ac, "matmul_bt_into: lhs size mismatch");
    assert_eq!(b.len(), br * ac, "matmul_bt_into: rhs size mismatch");
    assert_eq!(out.len(), ar * br, "matmul_bt_into: out size mismatch");
    let work = ar * ac * br;
    let row_body = |i: usize, crow: &mut [f32]| {
        let arow = &a[i * ac..(i + 1) * ac];
        for (j, c) in crow.iter_mut().enumerate() {
            *c = crate::simd::dot_folded(arow, &b[j * ac..(j + 1) * ac]);
        }
    };
    if br > 0 && work >= MATMUL_PAR_MIN && parallel::max_threads() > 1 {
        parallel::for_each_chunk_mut(out, br, |i, crow| row_body(i, crow));
    } else {
        for (i, crow) in out.chunks_exact_mut(br.max(1)).enumerate() {
            row_body(i, crow);
        }
    }
}

/// Reusable scratch for Gram–Schmidt: a column-major staging buffer that
/// makes every inner loop run over *contiguous* memory, which is what lets
/// the [`crate::simd`] dot/axpy fast paths apply. Grown on first use and
/// reused — [`orthonormalize_columns_with`] performs no heap allocation
/// once the scratch has reached its high-water mark.
#[derive(Clone, Default, Debug)]
pub struct GsScratch {
    colmajor: Vec<f32>,
}

impl GsScratch {
    /// An empty scratch; the staging buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Orthonormalizes the **columns** of `m` in place using modified
/// Gram–Schmidt.
///
/// This is the numerically stable variant PowerSGD uses; its cost is
/// `O(rows · cols²)` flops, which is exactly the superlinear term the paper
/// identifies as PowerSGD's bottleneck (§3.3, "overwhelmingly expensive
/// matrix orthogonalization").
///
/// Columns whose residual norm underflows (linearly dependent input) are
/// replaced with a deterministic unit basis vector orthogonal to nothing in
/// particular — matching the "add epsilon" fallback of practical
/// implementations and keeping downstream matmuls finite.
pub fn orthonormalize_columns(m: &mut Matrix) {
    orthonormalize_columns_with(m, &mut GsScratch::new());
}

/// [`orthonormalize_columns`] with caller-owned scratch — the
/// zero-allocation steady-state entry point for PowerSGD's per-round call.
pub fn orthonormalize_columns_with(m: &mut Matrix, scratch: &mut GsScratch) {
    let (rows, cols) = (m.rows, m.cols);
    orthonormalize_columns_slice(&mut m.data, rows, cols, scratch);
}

/// Slice form of [`orthonormalize_columns_with`] for row-major data held in
/// pooled buffers rather than a [`Matrix`].
///
/// The matrix is staged column-major in `scratch` so the Gram–Schmidt inner
/// loops (projection dots, subtraction axpys, normalization scales) all run
/// over contiguous columns and dispatch to the SIMD primitives. The dots
/// use [`crate::simd::dot_folded`]'s fixed lane-fold shape, so results are
/// identical whichever path (scalar or AVX2) executes, and the computation
/// involves no data-dependent partitioning — thread count and call site
/// cannot change a bit.
///
/// # Panics
/// Panics if `data.len() != rows * cols`.
pub fn orthonormalize_columns_slice(
    data: &mut [f32],
    rows: usize,
    cols: usize,
    scratch: &mut GsScratch,
) {
    assert_eq!(
        data.len(),
        rows * cols,
        "orthonormalize_columns_slice: size mismatch"
    );
    if rows == 0 || cols == 0 {
        return;
    }
    let buf = &mut scratch.colmajor;
    buf.clear();
    buf.resize(rows * cols, 0.0);
    for (r, row) in data.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            buf[c * rows + r] = v;
        }
    }
    // "Twice is enough" (Kahan/Parlett): a single modified-GS pass can
    // leave O(eps·kappa) non-orthogonality for ill-conditioned inputs,
    // which downstream error feedback amplifies round over round (PowerSGD
    // at rank >> true gradient rank hits exactly this). A second pass
    // restores orthogonality to machine precision.
    orthonormalize_contig_once(buf, rows, cols);
    orthonormalize_contig_once(buf, rows, cols);
    for (r, row) in data.chunks_exact_mut(cols).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = buf[c * rows + r];
        }
    }
}

/// One modified-GS pass over a column-major buffer with contiguous columns.
fn orthonormalize_contig_once(buf: &mut [f32], rows: usize, cols: usize) {
    for c in 0..cols {
        let (done, rest) = buf.split_at_mut(c * rows);
        let cur = &mut rest[..rows];
        // Subtract projections onto previous columns (modified GS: use the
        // already-orthonormalized columns one at a time).
        for prev in 0..c {
            let pcol = &done[prev * rows..(prev + 1) * rows];
            let proj = crate::simd::dot_folded(pcol, cur);
            crate::simd::axpy(-proj, pcol, cur);
        }
        let nrm = crate::simd::dot_folded(cur, cur).sqrt();
        if nrm > 1e-6 {
            crate::simd::scale(cur, 1.0 / nrm);
        } else {
            // Degenerate column (linearly dependent input): substitute a
            // canonical basis vector, re-orthogonalized against the
            // previous columns so the output stays orthonormal. Try basis
            // vectors until one survives the projection.
            let mut placed = false;
            for attempt in 0..rows {
                let pivot = (c + attempt) % rows;
                for (r, x) in cur.iter_mut().enumerate() {
                    *x = if r == pivot { 1.0 } else { 0.0 };
                }
                for prev in 0..c {
                    let pcol = &done[prev * rows..(prev + 1) * rows];
                    let proj = crate::simd::dot_folded(pcol, cur);
                    crate::simd::axpy(-proj, pcol, cur);
                }
                let nrm2 = crate::simd::dot_folded(cur, cur).sqrt();
                if nrm2 > 1e-4 {
                    crate::simd::scale(cur, 1.0 / nrm2);
                    placed = true;
                    break;
                }
            }
            if !placed {
                // cols > rows: no orthogonal direction remains; zero the
                // column (its contribution to any P Qᵀ product vanishes).
                cur.fill(0.0);
            }
        }
    }
}

/// Reshapes a flat gradient of length `len` into the most square matrix
/// possible: rows = ceil(len / cols) with `cols = ceil(sqrt(len))`, padding
/// with zeros. PowerSGD applies this to non-matrix parameters.
pub fn reshape_to_matrix(grad: &[f32]) -> Matrix {
    let len = grad.len();
    if len == 0 {
        return Matrix::zeros(0, 0);
    }
    let cols = (len as f64).sqrt().ceil() as usize;
    let rows = len.div_ceil(cols);
    let mut data = vec![0.0f32; rows * cols];
    data[..len].copy_from_slice(grad);
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-4
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut via_helper = Matrix::zeros(2, 2);
        transpose_matmul_into(a.data(), 3, 2, b.data(), 2, via_helper.data_mut());
        let via_transpose = a.transpose().matmul(&b);
        assert_eq!(via_helper, via_transpose);
    }

    #[test]
    fn gram_schmidt_produces_orthonormal_columns() {
        let mut m = Matrix::from_vec(4, 3, vec![1., 1., 0., 1., 0., 1., 0., 1., 1., 1., 1., 1.]);
        orthonormalize_columns(&mut m);
        for c1 in 0..3 {
            for c2 in 0..3 {
                let mut d = 0.0;
                for r in 0..4 {
                    d += m.get(r, c1) * m.get(r, c2);
                }
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                assert!(approx_eq(d, expect), "col {c1}·col {c2} = {d}");
            }
        }
    }

    #[test]
    fn gram_schmidt_preserves_column_span_direction() {
        // First column only gets normalized.
        let mut m = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        orthonormalize_columns(&mut m);
        assert!(approx_eq(m.get(0, 0), 0.6) && approx_eq(m.get(1, 0), 0.8));
    }

    #[test]
    fn gram_schmidt_degenerate_column_recovers() {
        // Second column is a multiple of the first.
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 1., 2.]);
        orthonormalize_columns(&mut m);
        for v in m.data() {
            assert!(v.is_finite());
        }
        // First column still unit.
        let n0 = (m.get(0, 0).powi(2) + m.get(1, 0).powi(2)).sqrt();
        assert!(approx_eq(n0, 1.0));
    }

    fn random_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let bits = crate::rng::splitmix64(i as u64 ^ salt);
                ((bits >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn parallel_matmul_is_bitwise_identical_to_sequential() {
        // PowerSGD-ish shapes: M (m×n) * Q (n×r), well above MATMUL_PAR_MIN.
        let a = random_matrix(256, 96, 0x11);
        let b = random_matrix(96, 32, 0x22);
        let reference = crate::parallel::with_threads(1, || a.matmul(&b));
        for threads in [2, 3, 8] {
            let got = crate::parallel::with_threads(threads, || a.matmul(&b));
            assert_eq!(got.rows(), reference.rows());
            assert_eq!(got.cols(), reference.cols());
            for (x, y) in got.data().iter().zip(reference.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn parallel_transpose_matmul_is_bitwise_identical_to_sequential() {
        // Mᵀ P̂ with M (m×n), P̂ (m×r).
        let a = random_matrix(256, 96, 0x33);
        let b = random_matrix(256, 32, 0x44);
        let mut reference = vec![0.0f32; 96 * 32];
        crate::parallel::with_threads(1, || {
            transpose_matmul_into(a.data(), 256, 96, b.data(), 32, &mut reference)
        });
        for threads in [2, 3, 8] {
            let mut got = vec![0.0f32; 96 * 32];
            crate::parallel::with_threads(threads, || {
                transpose_matmul_into(a.data(), 256, 96, b.data(), 32, &mut got)
            });
            for (x, y) in got.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn parallel_transpose_matches_sequential() {
        let a = random_matrix(300, 250, 0x55);
        let reference = crate::parallel::with_threads(1, || a.transpose());
        for threads in [2, 5] {
            let got = crate::parallel::with_threads(threads, || a.transpose());
            assert_eq!(got, reference);
        }
        // And transposing twice round-trips.
        assert_eq!(reference.transpose(), a);
    }

    #[test]
    fn reshape_pads_with_zeros() {
        let m = reshape_to_matrix(&[1., 2., 3., 4., 5.]);
        assert!(m.rows() * m.cols() >= 5);
        assert_eq!(&m.data()[..5], &[1., 2., 3., 4., 5.]);
        assert!(m.data()[5..].iter().all(|&x| x == 0.0));
        let empty = reshape_to_matrix(&[]);
        assert_eq!((empty.rows(), empty.cols()), (0, 0));
    }
}
