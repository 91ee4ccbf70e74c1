//! Explicit x86-64 SIMD fast paths for the four hottest kernels.
//!
//! The paper's end-to-end-utility argument (§3) is that compression only
//! pays when its *compute* overhead is small relative to the communication
//! it saves. Profiling the simulator puts four kernels on that critical
//! path: the FWHT/RHT butterflies, the fused quantize+pack bit-writer, the
//! top-k threshold scan, and PowerSGD's linear algebra — the row AXPYs of
//! its `P̂·Qᵀ` products, which carry the round at the ranks the substrate
//! trains at, and the Gram–Schmidt inner loops (39.7–47.4% of PowerSGD
//! training time at the paper's r = 64, §3.3). This module supplies the
//! vector primitives those kernels dispatch to.
//!
//! **Bitwise contract.** Every primitive has a `_scalar` reference and an
//! AVX2 variant that computes the *same expression tree*:
//!
//! * element-wise ops ([`butterfly`], [`axpy`], [`scale`], [`abs_keys_into`],
//!   [`quantize_stochastic`]) perform one independent IEEE-754 operation
//!   sequence per element, so vectorization cannot change a bit;
//! * the one reduction ([`dot_folded`]) fixes its shape in the *scalar*
//!   definition: 8 stride-8 partial accumulators (exactly the 8 lanes of a
//!   `__m256`), folded in a fixed tree, then a sequential tail. The AVX2
//!   path is the same computation with the partials held in one register;
//! * [`collect_indices_above`] is pure integer compare-and-append in
//!   ascending index order (the AVX2 path walks its compare movemask in
//!   bit order).
//!
//! No FMA is used anywhere: fused multiply-add skips the intermediate
//! rounding step and would break scalar/SIMD bitwise identity.
//!
//! **Finite-data caveat.** The bitwise contract for the float primitives
//! holds whenever no individual operation produces a NaN. When one does
//! (e.g. `inf × 0` or `inf − inf`), IEEE-754 fixes that the result is *a*
//! quiet NaN but not its sign/payload bits, and Rust/LLVM explicitly treat
//! those bits as unspecified — constant folding and instruction selection
//! are free to pick different NaNs on the scalar and packed paths (observed:
//! `0x7FC00000` vs `0xFFC00000` for the same `inf × -0`). Gradient data is
//! always finite, so this never affects the kernels; the integer primitives
//! ([`abs_keys_into`], [`collect_indices_above`]) are exact on *all* inputs,
//! NaN included.
//!
//! Dispatch is by runtime feature detection ([`avx2_enabled`], cached); the
//! scalar path runs on non-x86-64 targets and wherever AVX2 is absent.
//! Tests pin `f(_) == f_scalar(_)` bit-for-bit on every primitive, so the
//! dispatch choice is unobservable in outputs.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Number of `f32` lanes per SIMD register (AVX2 `__m256`). The scalar
/// reference paths use the same stride so both sides share one fold shape.
pub const LANES: usize = 8;

/// True when the running CPU supports AVX2 (cached after first query).
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// FWHT butterfly: lo[i], hi[i] = (lo[i]+hi[i])*c, (lo[i]-hi[i])*c
// ---------------------------------------------------------------------------

/// Scalar reference butterfly stage over two equal-length halves.
pub fn butterfly_scalar(lo: &mut [f32], hi: &mut [f32], c: f32) {
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let x = *a;
        let y = *b;
        *a = (x + y) * c;
        *b = (x - y) * c;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn butterfly_avx2(lo: &mut [f32], hi: &mut [f32], c: f32) {
    let n = lo.len().min(hi.len());
    let main = n - n % LANES;
    let vc = _mm256_set1_ps(c);
    let mut i = 0;
    while i < main {
        let a = _mm256_loadu_ps(lo.as_ptr().add(i));
        let b = _mm256_loadu_ps(hi.as_ptr().add(i));
        _mm256_storeu_ps(
            lo.as_mut_ptr().add(i),
            _mm256_mul_ps(_mm256_add_ps(a, b), vc),
        );
        _mm256_storeu_ps(
            hi.as_mut_ptr().add(i),
            _mm256_mul_ps(_mm256_sub_ps(a, b), vc),
        );
        i += LANES;
    }
    butterfly_scalar(&mut lo[main..], &mut hi[main..], c);
}

/// One butterfly stage: `lo[i], hi[i] = (lo[i]+hi[i])·c, (lo[i]−hi[i])·c`.
/// Element-wise, so the AVX2 path is bitwise-identical to the scalar one.
///
/// # Panics
/// Panics if the halves have different lengths.
pub fn butterfly(lo: &mut [f32], hi: &mut [f32], c: f32) {
    assert_eq!(lo.len(), hi.len(), "butterfly: half length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return unsafe { butterfly_avx2(lo, hi, c) };
    }
    butterfly_scalar(lo, hi, c);
}

// ---------------------------------------------------------------------------
// Lane-folded dot product (Gram–Schmidt projections and norms; the shape
// `matrix::matmul_bt_into` replays a row at a time)
// ---------------------------------------------------------------------------

/// Folds 8 stride-8 partial sums in a fixed tree, then adds the tail terms
/// sequentially. Shared verbatim by the scalar and AVX2 dot paths.
#[inline]
fn fold_partials(p: [f32; LANES], a: &[f32], b: &[f32], main: usize) -> f32 {
    let mut sum = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        sum += x * y;
    }
    sum
}

/// Scalar reference for [`dot_folded`]: 8 interleaved partial accumulators
/// (partial `j` sums elements with index ≡ j mod 8) folded in a fixed tree.
pub fn dot_folded_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let mut p = [0.0f32; LANES];
    let mut i = 0;
    while i < main {
        for (j, pj) in p.iter_mut().enumerate() {
            *pj += a[i + j] * b[i + j];
        }
        i += LANES;
    }
    fold_partials(p, a, b, main)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_folded_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    // mul then add (no FMA): lane j replays the scalar partial j exactly.
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < main {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += LANES;
    }
    let mut p = [0.0f32; LANES];
    _mm256_storeu_ps(p.as_mut_ptr(), acc);
    fold_partials(p, a, b, main)
}

/// Dot product with a fixed lane-fold shape: 8 stride-8 partials, one fold
/// tree, sequential tail. Both paths compute identical bits — the price is
/// that this is *not* the same value as a plain sequential sum, which is
/// why Gram–Schmidt (whose reductions are private to one matrix) uses it
/// while the cross-worker reductions in `vector.rs` keep their chunked
/// sequential folds.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_folded(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_folded: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return unsafe { dot_folded_avx2(a, b) };
    }
    dot_folded_scalar(a, b)
}

// ---------------------------------------------------------------------------
// axpy / scale (the terms of `P̂·Qᵀ`; Gram–Schmidt projection subtraction and
// normalization)
// ---------------------------------------------------------------------------

/// Scalar reference for [`axpy`]: `y[i] += alpha · x[i]`.
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len().min(y.len());
    let main = n - n % LANES;
    let va = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i < main {
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        let vy = _mm256_loadu_ps(y.as_ptr().add(i));
        _mm256_storeu_ps(
            y.as_mut_ptr().add(i),
            _mm256_add_ps(vy, _mm256_mul_ps(va, vx)),
        );
        i += LANES;
    }
    axpy_scalar(alpha, &x[main..], &mut y[main..]);
}

/// `y += alpha · x`, element-wise (bitwise-identical across paths).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return unsafe { axpy_avx2(alpha, x, y) };
    }
    axpy_scalar(alpha, x, y);
}

/// Scalar reference for [`scale`]: `v[i] *= alpha`.
pub fn scale_scalar(v: &mut [f32], alpha: f32) {
    for x in v.iter_mut() {
        *x *= alpha;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(v: &mut [f32], alpha: f32) {
    let n = v.len();
    let main = n - n % LANES;
    let va = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i < main {
        let vx = _mm256_loadu_ps(v.as_ptr().add(i));
        _mm256_storeu_ps(v.as_mut_ptr().add(i), _mm256_mul_ps(vx, va));
        i += LANES;
    }
    scale_scalar(&mut v[main..], alpha);
}

/// `v *= alpha`, element-wise (bitwise-identical across paths).
pub fn scale(v: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return unsafe { scale_avx2(v, alpha) };
    }
    scale_scalar(v, alpha);
}

// ---------------------------------------------------------------------------
// Top-k threshold scan primitives
// ---------------------------------------------------------------------------

/// Scalar reference for [`abs_keys_into`]: `out[i] = v[i].abs().to_bits()`.
pub fn abs_keys_scalar(v: &[f32], out: &mut [u32]) {
    for (o, x) in out.iter_mut().zip(v) {
        *o = x.to_bits() & 0x7fff_ffff;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn abs_keys_avx2(v: &[f32], out: &mut [u32]) {
    let n = v.len().min(out.len());
    let main = n - n % LANES;
    let mask = _mm256_set1_epi32(0x7fff_ffff);
    let mut i = 0;
    while i < main {
        let bits = _mm256_loadu_si256(v.as_ptr().add(i) as *const __m256i);
        _mm256_storeu_si256(
            out.as_mut_ptr().add(i) as *mut __m256i,
            _mm256_and_si256(bits, mask),
        );
        i += LANES;
    }
    abs_keys_scalar(&v[main..], &mut out[main..]);
}

/// Materializes magnitude sort keys: `out[i] = v[i].abs().to_bits()`.
///
/// For floats with the sign bit cleared, unsigned comparison of these keys
/// is exactly `f32::total_cmp` of the absolute values (NaNs order above
/// infinity on both sides) — the property the top-k threshold scan relies
/// on to stay bitwise-identical to comparator-based selection.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn abs_keys_into(v: &[f32], out: &mut [u32]) {
    assert_eq!(v.len(), out.len(), "abs_keys_into: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return unsafe { abs_keys_avx2(v, out) };
    }
    abs_keys_scalar(v, out);
}

/// Scalar reference for [`collect_indices_above`].
pub fn collect_indices_above_scalar(keys: &[u32], t: u32, base: usize, out: &mut Vec<usize>) {
    for (i, &k) in keys.iter().enumerate() {
        if k > t {
            out.push(base + i);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collect_indices_above_avx2(keys: &[u32], t: u32, base: usize, out: &mut Vec<usize>) {
    let n = keys.len();
    let main = n - n % LANES;
    // Keys are abs-value bit patterns, always <= 0x7fffffff, so they are
    // non-negative as i32 and the signed compare is exact.
    let vt = _mm256_set1_epi32(t as i32);
    let mut i = 0;
    while i < main {
        let vk = _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i);
        let gt = _mm256_cmpgt_epi32(vk, vt);
        let mut m = _mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u32;
        // Walk set bits low-to-high: ascending index order, same as scalar.
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            out.push(base + i + j);
            m &= m - 1;
        }
        i += LANES;
    }
    collect_indices_above_scalar(&keys[main..], t, base + main, out);
}

/// Appends `base + i` for every `keys[i] > t`, in ascending index order —
/// the survivor scan of the top-k threshold pass. The AVX2 path compares 8
/// keys per step and decodes the movemask in bit order, so its output is
/// identical to the scalar loop. Thresholds with the top bit set fall back
/// to the scalar loop (the vector compare is signed, which is only exact
/// while both sides stay below `2^31` — always true for abs-value keys).
pub fn collect_indices_above(keys: &[u32], t: u32, base: usize, out: &mut Vec<usize>) {
    #[cfg(target_arch = "x86_64")]
    if t <= i32::MAX as u32 && avx2_enabled() {
        return unsafe { collect_indices_above_avx2(keys, t, base, out) };
    }
    collect_indices_above_scalar(keys, t, base, out);
}

// ---------------------------------------------------------------------------
// Stochastic quantization to signed integer lanes (THC, §3.2.1)
// ---------------------------------------------------------------------------

/// Below this magnitude every `f32` converts to `i32` exactly, so the
/// truncate-and-correct floor (scalar) and `cvttps` (AVX2) are exact.
const EXACT_INT_LIMIT: f32 = 8_388_608.0; // 2^23

/// One lane of [`quantize_stochastic_scalar`].
///
/// `y = (x / s) · qmax` stays a division then a multiply (a reciprocal or an
/// FMA would change bits). For `|y| < 2^23` the floor is computed without
/// the libm call baseline x86-64 needs for `f32::floor`: truncate toward
/// zero, then subtract one where truncation rounded up (negative
/// non-integers). Everything else (huge, ±inf, NaN) takes `y.floor()`. The
/// two forms can differ only in the sign of a zero `lo`, which neither the
/// `u < y − lo` compare nor `lo as i32` can observe.
#[inline]
fn quantize_lane(x: f32, u: f32, s: f32, qmax: i32) -> i32 {
    let y = (x / s) * qmax as f32;
    let lo = if y.abs() < EXACT_INT_LIMIT {
        let t = (y as i32) as f32;
        t - ((t > y) as i32 as f32)
    } else {
        y.floor()
    };
    let up = u < y - lo;
    ((lo as i32) + i32::from(up)).max(-qmax).min(qmax)
}

/// Scalar reference for [`quantize_stochastic`].
pub fn quantize_stochastic_scalar(xs: &[f32], us: &[f32], s: f32, qmax: i32, out: &mut [i32]) {
    for ((o, &x), &u) in out.iter_mut().zip(xs).zip(us) {
        *o = quantize_lane(x, u, s, qmax);
    }
}

/// # Safety
/// The CPU must support AVX2, and `xs`, `us` and `out` must have equal
/// lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_stochastic_avx2(xs: &[f32], us: &[f32], s: f32, qmax: i32, out: &mut [i32]) {
    let n = xs.len();
    debug_assert!(us.len() == n && out.len() == n);
    let main = n - n % LANES;
    let vs = _mm256_set1_ps(s);
    let vq = _mm256_set1_ps(qmax as f32);
    let limit = _mm256_set1_ps(EXACT_INT_LIMIT);
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let vmax = _mm256_set1_epi32(qmax);
    let vmin = _mm256_set1_epi32(-qmax);
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= n`, and all three slices hold `n`
        // elements (caller contract, debug-asserted above), so every
        // unaligned 8-lane load and store below stays in bounds.
        let x = _mm256_loadu_ps(xs.as_ptr().add(i));
        let u = _mm256_loadu_ps(us.as_ptr().add(i));
        let y = _mm256_mul_ps(_mm256_div_ps(x, vs), vq);
        // `cvttps` answers 0x8000_0000 where `as i32` saturates or gives 0,
        // so a group goes through the vector body only when all eight
        // |y| < 2^23 under an *ordered* compare (NaN fails it).
        let small = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(y, abs_mask), limit);
        if _mm256_movemask_ps(small) != 0xff {
            quantize_stochastic_scalar(
                &xs[i..i + LANES],
                &us[i..i + LANES],
                s,
                qmax,
                &mut out[i..i + LANES],
            );
            i += LANES;
            continue;
        }
        let lo = _mm256_floor_ps(y);
        // All-ones (−1) where the lane rounds up; subtracting it adds one.
        let up = _mm256_cmp_ps::<_CMP_LT_OQ>(u, _mm256_sub_ps(y, lo));
        let lane = _mm256_sub_epi32(_mm256_cvttps_epi32(lo), _mm256_castps_si256(up));
        let lane = _mm256_min_epi32(_mm256_max_epi32(lane, vmin), vmax);
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, lane);
        i += LANES;
    }
    quantize_stochastic_scalar(&xs[main..], &us[main..], s, qmax, &mut out[main..]);
}

/// Unbiased stochastic rounding of `xs` onto the signed grid of step
/// `s / qmax`, clamped to `[−qmax, qmax]`:
/// `out[i] = clamp(⌊y⌋ + [us[i] < y − ⌊y⌋])` with `y = (xs[i] / s) · qmax`.
///
/// The uniforms are **pre-drawn** by the caller (`us[i] ∈ [0, 1)`, one per
/// lane, in lane order), which keeps the kernel purely element-wise — the
/// sequential RNG stream never enters it, so the AVX2 path is
/// bitwise-identical to the scalar one on every input, ±inf and NaN
/// included (a NaN `y` quantizes to lane 0, as `NaN as i32` does).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn quantize_stochastic(xs: &[f32], us: &[f32], s: f32, qmax: i32, out: &mut [i32]) {
    assert_eq!(xs.len(), us.len(), "quantize_stochastic: length mismatch");
    assert_eq!(xs.len(), out.len(), "quantize_stochastic: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: AVX2 support was just detected at run time, and the
        // asserts above establish the equal-length contract.
        return unsafe { quantize_stochastic_avx2(xs, us, s, qmax, out) };
    }
    quantize_stochastic_scalar(xs, us, s, qmax, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probe with IEEE specials — for the integer-exact key primitives,
    /// which are bit-exact on every input including NaN/±inf.
    fn probe(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let bits = crate::rng::splitmix64(i as u64 ^ salt);
                // Mix magnitudes, signs, exact ties and specials.
                match bits % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => f32::NAN,
                    5 => 1.0,
                    6 => -1.0,
                    _ => (((bits >> 16) as f32 / (1u64 << 32) as f32) - 0.5) * 8.0,
                }
            })
            .collect()
    }

    /// Finite-only probe for the float primitives: the bitwise contract is
    /// scoped to inputs whose operations never produce a NaN (see module
    /// docs — NaN sign/payload is unspecified and differs between scalar
    /// and packed codegen). Signed zeros, exact ties and subnormals stay in.
    fn finite_probe(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let bits = crate::rng::splitmix64(i as u64 ^ salt);
                match bits % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::MIN_POSITIVE / 2.0, // subnormal
                    3 => -1.5e-42,                // subnormal
                    4 => 3.0e37,                  // large but inf-safe in sums
                    5 => 1.0,
                    6 => -1.0,
                    _ => (((bits >> 16) as f32 / (1u64 << 32) as f32) - 0.5) * 8.0,
                }
            })
            .collect()
    }

    #[test]
    fn butterfly_dispatch_matches_scalar_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000, 1 << 12] {
            let lo0 = finite_probe(n, 0x10);
            let hi0 = finite_probe(n, 0x20);
            let (mut lo_a, mut hi_a) = (lo0.clone(), hi0.clone());
            let (mut lo_b, mut hi_b) = (lo0.clone(), hi0.clone());
            let c = std::f32::consts::FRAC_1_SQRT_2;
            butterfly(&mut lo_a, &mut hi_a, c);
            butterfly_scalar(&mut lo_b, &mut hi_b, c);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lo_a), bits(&lo_b), "n={n}");
            assert_eq!(bits(&hi_a), bits(&hi_b), "n={n}");
        }
    }

    #[test]
    fn dot_folded_dispatch_matches_scalar_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4096] {
            let a = finite_probe(n, 0x30);
            let b = finite_probe(n, 0x40);
            assert_eq!(
                dot_folded(&a, &b).to_bits(),
                dot_folded_scalar(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn axpy_and_scale_dispatch_match_scalar_bitwise() {
        for n in [0usize, 1, 9, 64, 1000] {
            let x = finite_probe(n, 0x50);
            let y0 = finite_probe(n, 0x60);
            let mut ya = y0.clone();
            let mut yb = y0.clone();
            axpy(-0.73, &x, &mut ya);
            axpy_scalar(-0.73, &x, &mut yb);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ya), bits(&yb), "axpy n={n}");
            scale(&mut ya, 1.37);
            scale_scalar(&mut yb, 1.37);
            assert_eq!(bits(&ya), bits(&yb), "scale n={n}");
        }
    }

    /// The quantizer as the THC round wrote it before this kernel existed:
    /// a libm `floor`, a branch on the draw, `clamp`.
    fn quantize_original(x: f32, u: f32, s: f32, qmax: i32) -> i32 {
        let y = (x / s) * qmax as f32;
        let lo = y.floor();
        ((lo as i32) + i32::from(u < y - lo)).clamp(-qmax, qmax)
    }

    /// The next `f32` towards +inf.
    fn ulp_up(x: f32) -> f32 {
        if x == 0.0 {
            f32::from_bits(1)
        } else if x > 0.0 {
            f32::from_bits(x.to_bits() + 1)
        } else {
            f32::from_bits(x.to_bits() - 1)
        }
    }

    #[test]
    fn quantize_stochastic_dispatch_matches_scalar_and_the_floor_form() {
        // Where a vector convert and `as i32` disagree, and where the
        // truncate-and-correct floor could: ±0, subnormals, both sides of
        // 2^23 and of i32's range, ±inf, NaN, and integers k ± 1 ulp.
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_608.0,
            8_388_609.0,
            2_147_483_648.0,
            -2_147_483_648.0,
            4.0e9,
            -4.0e9,
            3.0e38,
            -3.0e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for k in -130i32..=130 {
            let k = k as f32;
            xs.extend([k, ulp_up(k), -ulp_up(-k), k + 0.5, k * 0.37]);
        }
        xs.extend(probe(400, 0x90).iter().map(|x| x * 37.5));
        let us = [
            0.0f32,
            f32::from_bits(1),
            0.25,
            0.5,
            0.75,
            1.0 - 1.0 / (1u64 << 24) as f32,
        ];
        for (s, qmax) in [
            (1.0f32, 1),
            (1.0, 7),
            (0.37, 7),
            (3.0, 127),
            (1.0e-3, 32767),
            (6.0e-8, 7),
            (f32::INFINITY, 7),
            (f32::NAN, 7),
        ] {
            // Rotate the probe so every value meets every position of an
            // 8-lane group, and specials share groups with ordinary values.
            for rot in 0..LANES {
                let mut x_col = Vec::new();
                let mut u_col = Vec::new();
                for (i, &x) in xs.iter().cycle().skip(rot).take(xs.len()).enumerate() {
                    for (j, &u) in us.iter().enumerate() {
                        x_col.push(x);
                        // Also the uniform sitting exactly on the fraction.
                        let y = (x / s) * qmax as f32;
                        u_col.push(if (i + j) % 5 == 0 { y - y.floor() } else { u });
                    }
                }
                // An odd length leaves a scalar tail.
                x_col.truncate(x_col.len() - 3);
                u_col.truncate(x_col.len());
                let mut got = vec![0i32; x_col.len()];
                let mut scalar = vec![0i32; x_col.len()];
                quantize_stochastic(&x_col, &u_col, s, qmax, &mut got);
                quantize_stochastic_scalar(&x_col, &u_col, s, qmax, &mut scalar);
                for i in 0..x_col.len() {
                    let expect = quantize_original(x_col[i], u_col[i], s, qmax);
                    let at = format!("x={:e} u={:e} s={s:e} qmax={qmax}", x_col[i], u_col[i]);
                    assert_eq!(scalar[i], expect, "scalar, {at}");
                    assert_eq!(got[i], expect, "dispatched, {at}");
                }
            }
        }
    }

    #[test]
    fn abs_keys_match_total_cmp_order() {
        let v = probe(2000, 0x70);
        let mut keys = vec![0u32; v.len()];
        abs_keys_into(&v, &mut keys);
        let mut keys_ref = vec![0u32; v.len()];
        abs_keys_scalar(&v, &mut keys_ref);
        assert_eq!(keys, keys_ref);
        // Unsigned key order == total_cmp order of absolute values.
        for i in (0..v.len()).step_by(17) {
            for j in (1..v.len()).step_by(23) {
                assert_eq!(
                    keys[i].cmp(&keys[j]),
                    v[i].abs().total_cmp(&v[j].abs()),
                    "i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn collect_indices_above_matches_scalar() {
        let v = probe(3000, 0x80);
        let mut keys = vec![0u32; v.len()];
        abs_keys_into(&v, &mut keys);
        for t in [0u32, 1.0f32.to_bits(), 4.0f32.to_bits(), u32::MAX] {
            let mut got = Vec::new();
            let mut expect = Vec::new();
            collect_indices_above(&keys, t, 5, &mut got);
            collect_indices_above_scalar(&keys, t, 5, &mut expect);
            assert_eq!(got, expect, "t={t:#x}");
        }
    }
}
