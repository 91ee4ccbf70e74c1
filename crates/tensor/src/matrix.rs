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
//! The three products of a round — `M·Q`, `Mᵀ·P̂` and the `P̂·Qᵀ` of the
//! estimate and the error-feedback contributions — have the rank as their
//! inner or output dimension, so each kernel blocks over the rank and
//! vectorises along the long dimension. Each fixes, in its doc comment, the
//! expression tree of one output element; blocking, streaming and the
//! [`crate::parallel`] fan-out over **blocks of output rows** only decide
//! who evaluates a tree, so results are bitwise-identical for any
//! `GCS_THREADS`. `tests/powersgd_kernels.rs` holds the plain row loops the
//! trees are read off.

use crate::parallel;
use crate::simd::LANES;

/// Minimum number of multiply-adds a matmul hands one thread — some 150 µs
/// of these kernels' work. Below this the spawn cost dominates.
const MATMUL_PAR_MIN: usize = 1 << 20;

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

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }
}

/// `dst = srcᵀ` for a row-major `src` of `cols > 0` columns.
fn transpose_into(src: &[f32], cols: usize, dst: &mut [f32]) {
    let rows = src.len() / cols;
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Runs `body(first_row, block)` over blocks of whole output rows of `out`
/// (`row_len` floats and `row_work` multiply-adds a row): one block per
/// thread, but never more blocks than the product has multiples of
/// [`MATMUL_PAR_MIN`] multiply-adds — so one thread, or a small product, is
/// a single in-thread call of the same body.
fn for_each_row_block(
    out: &mut [f32],
    row_len: usize,
    row_work: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    let rows = out.len() / row_len;
    let tasks = parallel::max_threads()
        .min(rows * row_work / MATMUL_PAR_MIN)
        .max(1);
    let rows_per_task = rows.div_ceil(tasks);
    parallel::for_each_chunk_mut(out, rows_per_task * row_len, |t, block| {
        body(t * rows_per_task, block)
    });
}

/// Rows a register block spans: the output rows [`matmul_into`] carries
/// through its `k` loop together (one load of a `B` row feeds all of them,
/// and their sums are independent add chains), and the rows of `A`
/// [`transpose_matmul_into`] adds per pass over its output.
const BLOCK: usize = 4;

/// Output columns a register block spans; columns past the last whole tile
/// go one at a time through the same body.
const TILE: usize = 4;

/// Columns `c0..c0 + W` of `R` output rows of `A·B`, held in registers
/// across the whole `k` loop. `a` and `out` hold exactly those `R` rows.
#[inline(always)]
fn matmul_tile<const R: usize, const W: usize>(
    a: &[f32],
    ac: usize,
    b: &[f32],
    bc: usize,
    c0: usize,
    out: &mut [f32],
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * ac..(r + 1) * ac]);
    let mut acc = [[0.0f32; W]; R];
    for (k, brow) in b.chunks_exact(bc).enumerate() {
        let bk: [f32; W] = brow[c0..c0 + W].try_into().expect("tile width");
        for (accr, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[k];
            for (s, &bv) in accr.iter_mut().zip(&bk) {
                *s += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * bc + c0..r * bc + c0 + W].copy_from_slice(accr);
    }
}

/// `out = A·B` for a whole number of `R`-row blocks, tile by tile.
fn matmul_blocks<const R: usize>(a: &[f32], ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
    let tiled = bc - bc % TILE;
    for (arows, orows) in a.chunks_exact(R * ac).zip(out.chunks_exact_mut(R * bc)) {
        for c0 in (0..tiled).step_by(TILE) {
            matmul_tile::<R, TILE>(arows, ac, b, bc, c0, orows);
        }
        for c0 in tiled..bc {
            matmul_tile::<R, 1>(arows, ac, b, bc, c0, orows);
        }
    }
}

/// `out = A(ar×ac) · B(ac×bc)` over row-major slices — the pooled-buffer
/// matmul: callers keep `out` in reusable scratch, so a steady-state round
/// performs no allocation. `out` is overwritten.
///
/// Every output element is `((+0.0 + a[i][0]·b[0][c]) + a[i][1]·b[1][c]) + …`
/// — multiply, then add, `k` ascending. Which elements share a register
/// block or a task only decides who computes a sum, never its terms or their
/// order, so the product is bitwise-identical for any thread count. Zero
/// entries of `A` are multiplied like any other: a sum that starts at `+0.0`
/// can never become `−0.0`, so adding a `±0.0` product leaves it unchanged
/// on finite data (the [`crate::simd`] caveat about `0·∞` applies).
///
/// # Panics
/// Panics if slice lengths disagree with the shapes.
pub fn matmul_into(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize, out: &mut [f32]) {
    assert_eq!(a.len(), ar * ac, "matmul_into: lhs size mismatch");
    assert_eq!(b.len(), ac * bc, "matmul_into: rhs size mismatch");
    assert_eq!(out.len(), ar * bc, "matmul_into: out size mismatch");
    if ac == 0 {
        out.fill(0.0);
        return;
    }
    for_each_row_block(out, bc, ac * bc, |row0, block| {
        let rows = block.len() / bc;
        let blocked = rows - rows % BLOCK;
        let (a_blocks, a_tail) = a[row0 * ac..(row0 + rows) * ac].split_at(blocked * ac);
        let (out_blocks, out_tail) = block.split_at_mut(blocked * bc);
        matmul_blocks::<BLOCK>(a_blocks, ac, b, bc, out_blocks);
        matmul_blocks::<1>(a_tail, ac, b, bc, out_tail);
    });
}

/// Adds `K` consecutive rows' terms of the `Aᵀ·B` sum, in row order, to
/// columns `c0..c0 + W` of every row of `block`. `a` starts at the first of
/// those rows of `A`, at the column `block` starts at; `b` at the same row of
/// `B`, whose `K` tiles sit in registers while `A` is read left to right.
#[inline(always)]
fn transpose_matmul_tile<const K: usize, const W: usize>(
    a: &[f32],
    ac: usize,
    b: &[f32],
    bc: usize,
    c0: usize,
    block: &mut [f32],
) {
    let ni = block.len() / bc;
    let arows: [&[f32]; K] = std::array::from_fn(|k| &a[k * ac..k * ac + ni]);
    let bk: [[f32; W]; K] =
        std::array::from_fn(|k| b[k * bc + c0..][..W].try_into().expect("tile width"));
    for (i, orow) in block.chunks_exact_mut(bc).enumerate() {
        let o = &mut orow[c0..c0 + W];
        for (arow, bkk) in arows.iter().zip(&bk) {
            let av = arow[i];
            for (s, &bv) in o.iter_mut().zip(bkk) {
                *s += av * bv;
            }
        }
    }
}

/// One pass over `block` (output rows `i0..` of `Aᵀ·B`) per `K` rows of `a`
/// and `b`, which hold the same whole number of `K`-row blocks.
fn transpose_matmul_passes<const K: usize>(
    a: &[f32],
    ac: usize,
    b: &[f32],
    bc: usize,
    i0: usize,
    block: &mut [f32],
) {
    let tiled = bc - bc % TILE;
    for (arows, brows) in a.chunks_exact(K * ac).zip(b.chunks_exact(K * bc)) {
        for c0 in (0..tiled).step_by(TILE) {
            transpose_matmul_tile::<K, TILE>(&arows[i0..], ac, brows, bc, c0, block);
        }
        for c0 in tiled..bc {
            transpose_matmul_tile::<K, 1>(&arows[i0..], ac, brows, bc, c0, block);
        }
    }
}

/// `out = A(ar×ac)ᵀ · B(ar×bc)` over row-major slices, without
/// materializing the transpose; `out` (ac×bc) is overwritten. Same pooled,
/// thread-count-invariant contract and the same per-element sum as
/// [`matmul_into`]: `+0.0`, then `a[k][i]·b[k][c]` for `k` ascending.
///
/// `k` is the outer loop, so `A` streams row-major while the output block
/// stays in cache; each pass adds [`BLOCK`] rows' terms to an element as one
/// chain in `k` order, which is the order the element's sum has anyway.
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
    let blocked = ar - ar % BLOCK;
    let (a_blocks, a_tail) = a.split_at(blocked * ac);
    let (b_blocks, b_tail) = b.split_at(blocked * bc);
    for_each_row_block(out, bc, ar * bc, |i0, block| {
        block.fill(0.0);
        transpose_matmul_passes::<BLOCK>(a_blocks, ac, b_blocks, bc, i0, block);
        transpose_matmul_passes::<1>(a_tail, ac, b_tail, bc, i0, block);
    });
}

/// Columns [`matmul_bt_into`] folds at a time when the inner dimension
/// reaches [`LANES`]: the eight partial rows of this width live on the stack.
const FOLD_TILE: usize = 256;

/// One output row of `A·Bᵀ` from row `arow` of `A` and the staged `Bᵀ`
/// (`arow.len() × br`): [`crate::simd::dot_folded`]'s expression tree,
/// replayed for the whole row at once with every term a row AXPY.
fn matmul_bt_row(arow: &[f32], bt: &[f32], br: usize, crow: &mut [f32]) {
    let main = arow.len() - arow.len() % LANES;
    if main == 0 {
        // All eight partials are `+0.0`, and so is their fold.
        crow.fill(0.0);
    } else {
        for (t, ctile) in crow.chunks_mut(FOLD_TILE).enumerate() {
            let w = ctile.len();
            let mut p = [[0.0f32; FOLD_TILE]; LANES];
            for (k, &av) in arow[..main].iter().enumerate() {
                let x = &bt[k * br + t * FOLD_TILE..][..w];
                crate::simd::axpy(av, x, &mut p[k % LANES][..w]);
            }
            for (j, c) in ctile.iter_mut().enumerate() {
                *c = ((p[0][j] + p[1][j]) + (p[2][j] + p[3][j]))
                    + ((p[4][j] + p[5][j]) + (p[6][j] + p[7][j]));
            }
        }
    }
    for (k, &av) in arow.iter().enumerate().skip(main) {
        crate::simd::axpy(av, &bt[k * br..(k + 1) * br], crow);
    }
}

/// `out = A(ar×ac) · B(br×ac)ᵀ` over row-major slices; `out` (ar×br) is
/// overwritten. `stage` is caller-owned scratch that receives `Bᵀ`
/// (`ac × br`); it grows on first use and is reused after.
///
/// Every output element is `dot_folded(a[i], b[j])` to the bit —
/// [`crate::simd::dot_folded`]: eight stride-8 partials each started at
/// `+0.0`, the fixed tree `((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7))`, then the
/// tail terms in order; below eight terms that is `((+0.0 + t₀) + t₁) + …`.
/// The tree is evaluated for a whole output row at a time: with `Bᵀ`
/// staged, term `k` of every dot in row `i` is the row AXPY `a[i][k] · bᵀ[k]`
/// (multiply, then add, per element), so each element still sees its own
/// terms in its own order. Thread count and SIMD dispatch cannot change a
/// bit.
///
/// # Panics
/// Panics if slice lengths disagree with the shapes.
pub fn matmul_bt_into(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    br: usize,
    stage: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(a.len(), ar * ac, "matmul_bt_into: lhs size mismatch");
    assert_eq!(b.len(), br * ac, "matmul_bt_into: rhs size mismatch");
    assert_eq!(out.len(), ar * br, "matmul_bt_into: out size mismatch");
    if ac == 0 {
        out.fill(0.0);
        return;
    }
    stage.clear();
    stage.resize(ac * br, 0.0);
    transpose_into(b, ac, stage);
    let bt = &stage[..];
    for_each_row_block(out, br, ac * br, |row0, block| {
        let arows = a[row0 * ac..].chunks_exact(ac);
        for (crow, arow) in block.chunks_exact_mut(br).zip(arows) {
            matmul_bt_row(arow, bt, br, crow);
        }
    });
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
///
/// `scratch` is caller-owned: no heap allocation once it has reached its
/// high-water mark.
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
    transpose_into(data, cols, buf);
    // "Twice is enough" (Kahan/Parlett): a single modified-GS pass can
    // leave O(eps·kappa) non-orthogonality for ill-conditioned inputs,
    // which downstream error feedback amplifies round over round (PowerSGD
    // at rank >> true gradient rank hits exactly this). A second pass
    // restores orthogonality to machine precision.
    orthonormalize_contig_once(buf, rows, cols);
    orthonormalize_contig_once(buf, rows, cols);
    transpose_into(buf, rows, data);
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
        let mut c = [0.0f32; 4];
        matmul_into(a.data(), 2, 3, b.data(), 2, &mut c);
        assert_eq!(c, [58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut via_helper = [0.0f32; 4];
        transpose_matmul_into(a.data(), 3, 2, b.data(), 2, &mut via_helper);
        let a_t = [1., 3., 5., 2., 4., 6.];
        let mut via_transpose = [0.0f32; 4];
        matmul_into(&a_t, 2, 3, b.data(), 2, &mut via_transpose);
        assert_eq!(via_helper, via_transpose);
    }

    #[test]
    fn gram_schmidt_produces_orthonormal_columns() {
        let mut m = Matrix::from_vec(4, 3, vec![1., 1., 0., 1., 0., 1., 0., 1., 1., 1., 1., 1.]);
        orthonormalize_columns_with(&mut m, &mut GsScratch::new());
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
        orthonormalize_columns_with(&mut m, &mut GsScratch::new());
        assert!(approx_eq(m.get(0, 0), 0.6) && approx_eq(m.get(1, 0), 0.8));
    }

    #[test]
    fn gram_schmidt_degenerate_column_recovers() {
        // Second column is a multiple of the first.
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 1., 2.]);
        orthonormalize_columns_with(&mut m, &mut GsScratch::new());
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
        // PowerSGD-ish shapes: M (m×n) * Q (n×r), four times MATMUL_PAR_MIN.
        let a = random_matrix(512, 128, 0x11);
        let b = random_matrix(128, 64, 0x22);
        let product = |threads: usize| {
            let mut out = vec![0.0f32; 512 * 64];
            crate::parallel::with_threads(threads, || {
                matmul_into(a.data(), 512, 128, b.data(), 64, &mut out)
            });
            out
        };
        let reference = product(1);
        for threads in [2, 3, 8] {
            for (x, y) in product(threads).iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn parallel_transpose_matmul_is_bitwise_identical_to_sequential() {
        // Mᵀ P̂ with M (m×n), P̂ (m×r).
        let a = random_matrix(512, 128, 0x33);
        let b = random_matrix(512, 64, 0x44);
        let mut reference = vec![0.0f32; 128 * 64];
        crate::parallel::with_threads(1, || {
            transpose_matmul_into(a.data(), 512, 128, b.data(), 64, &mut reference)
        });
        for threads in [2, 3, 8] {
            let mut got = vec![0.0f32; 128 * 64];
            crate::parallel::with_threads(threads, || {
                transpose_matmul_into(a.data(), 512, 128, b.data(), 64, &mut got)
            });
            for (x, y) in got.iter().zip(&reference) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
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
