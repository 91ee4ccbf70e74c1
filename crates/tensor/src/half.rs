//! IEEE-754 half precision: scalar reference conversions and F16C bulk
//! kernels.
//!
//! The paper's central evaluation point is that **FP16 is the baseline to
//! beat**: communicating gradients in IEEE-754 binary16 halves traffic with
//! negligible accuracy loss (§2.2, Table 2). A baseline is only as strong as
//! its own overhead is small, so the slice kernels below convert with the
//! CPU's F16C instructions where it has them (x86-64 `vcvtps2ph` with
//! round-to-nearest-even and `vcvtph2ps`, 8 lanes an instruction), as a GPU
//! would in hardware. The software conversions stay as the scalar reference
//! and run on every other target: bit-exact, round-to-nearest-even — the
//! same rounding NVIDIA tensor cores use. [`F16`] is binary16: 1 sign,
//! 5 exponent and 10 mantissa bits.
//!
//! **Bitwise contract.** Each slice kernel ([`encode_f16_slice`],
//! [`decode_f16_slice`], [`add_f16_slice`]) has a `_scalar` reference, and
//! the F16C path computes the same bits on every input, so the dispatch
//! choice is unobservable:
//!
//! * the hardware rounds every non-NaN `f32` exactly as [`F16::from_f32`]
//!   does, and widens every binary16 pattern, NaN included, exactly as
//!   [`F16::to_f32`] does;
//! * on a NaN the encodes differ (the hardware sets the quiet bit `0x0200`,
//!   the software bit 0), so an 8-lane block whose encode input — or, for
//!   the add, whose `f32` sum — holds a NaN is redone by the scalar code.
//!
//! The exhaustive test in this module (`--ignored`) checks all 2^32
//! encodes, all 2^16 decodes and all 2^32 add pairs.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Lanes one F16C conversion handles: a `__m256` of `f32` or a `__m128i` of
/// binary16.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// IEEE-754 binary16 stored as its raw bit pattern.
///
/// All arithmetic is performed by converting to `f32`, operating, and
/// converting back; this matches how mixed-precision training accumulates in
/// higher precision but *stores and communicates* in 16 bits.
///
/// `repr(transparent)`: a `[F16]` has the layout of a `[u16]`, which the
/// F16C kernels load and store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// The largest finite binary16 value, 65504.
    pub const MAX: F16 = F16(0x7bff);
    /// Zero.
    pub const ZERO: F16 = F16(0);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Handles normals, subnormals, overflow to infinity, and NaN
    /// (quietized, payload truncated).
    pub fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Converts back to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Returns true if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// Sum performed in binary16 precision: convert both to f32, add, round
    /// back to binary16. This is the reduction NCCL performs for
    /// `ncclFloat16` all-reduce and is what the FP16 baseline and TopKC's
    /// chunk aggregation (§3.1.2, step 2) use.
    pub fn add_f16(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32() + other.to_f32())
    }
}

/// Converts an f32 bit pattern to binary16 bits with round-to-nearest-even.
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf or NaN.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            // Quiet NaN, keep top mantissa bits, ensure non-zero payload.
            sign | 0x7c00 | ((mant >> 13) as u16) | 1
        };
    }

    // Unbiased exponent.
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow -> infinity.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal range. Round 23-bit mantissa to 10 bits, RNE.
        let mant16 = mant >> 13;
        let rem = mant & 0x1fff;
        let halfway = 0x1000;
        let mut out = sign | (((unbiased + 15) as u16) << 10) | (mant16 as u16);
        if rem > halfway || (rem == halfway && (mant16 & 1) == 1) {
            // May carry into exponent; the bit layout makes that correct
            // (mantissa overflow increments the exponent field).
            out = out.wrapping_add(1);
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal half. Implicit leading 1 becomes explicit.
        let full_mant = mant | 0x0080_0000;
        let shift = (-14 - unbiased) + 13; // 14..24
        let mant16 = full_mant >> shift;
        let rem_mask = (1u32 << shift) - 1;
        let rem = full_mant & rem_mask;
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | (mant16 as u16);
        if rem > halfway || (rem == halfway && (mant16 & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    // Underflow to signed zero.
    sign
}

/// Converts binary16 bits to an f32 (exact).
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;

    let bits = if exp == 0 {
        if mant == 0 {
            sign // signed zero
        } else {
            // Subnormal: normalize.
            let mut m = mant;
            let mut e = -14i32;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        if mant == 0 {
            sign | 0x7f80_0000
        } else {
            sign | 0x7fc0_0000 | (mant << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// True when the running CPU supports F16C and AVX and `GCS_SIMD=scalar` is
/// not set (cached after first query).
#[cfg(target_arch = "x86_64")]
fn f16c_enabled() -> bool {
    use std::sync::OnceLock;
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        crate::simd::simd_allowed()
            && is_x86_feature_detected!("f16c")
            && is_x86_feature_detected!("avx")
    })
}

// ---------------------------------------------------------------------------
// Encode: dst[i] = f16(src[i])
// ---------------------------------------------------------------------------

/// Scalar reference for [`encode_f16_slice`]. The slices may differ in
/// length: it stops at the shorter one.
pub fn encode_f16_slice_scalar(src: &[f32], dst: &mut [F16]) {
    for (h, &v) in dst.iter_mut().zip(src) {
        *h = F16::from_f32(v);
    }
}

/// # Safety
/// The CPU must support F16C and AVX. The slices may differ in length: the
/// vector body stops at the shorter one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn encode_f16_slice_f16c(src: &[f32], dst: &mut [F16]) {
    let n = src.len().min(dst.len());
    let main = n - n % LANES;
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= n`, and both slices hold at least
        // `n` elements, so the 8-lane load from `src` and the 16-byte store
        // of 8 `F16` (`repr(transparent)` over `u16`) into `dst` stay in
        // bounds. The F16C and AVX intrinsics are this function's contract.
        let v = _mm256_loadu_ps(src.as_ptr().add(i));
        if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) == 0 {
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), h);
        } else {
            encode_f16_slice_scalar(&src[i..i + LANES], &mut dst[i..i + LANES]);
        }
        i += LANES;
    }
    encode_f16_slice_scalar(&src[main..n], &mut dst[main..n]);
}

/// `dst[i] = F16::from_f32(src[i])` for every `i`, 8 lanes at a time with
/// F16C where the CPU has it; bitwise-identical to
/// [`encode_f16_slice_scalar`].
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn encode_f16_slice(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "encode_f16_slice: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_enabled() {
        // SAFETY: `f16c_enabled()` just detected F16C and AVX at run time.
        return unsafe { encode_f16_slice_f16c(src, dst) };
    }
    encode_f16_slice_scalar(src, dst);
}

// ---------------------------------------------------------------------------
// Decode: dst[i] = f32(src[i])
// ---------------------------------------------------------------------------

/// Scalar reference for [`decode_f16_slice`]. The slices may differ in
/// length: it stops at the shorter one.
pub fn decode_f16_slice_scalar(src: &[F16], dst: &mut [f32]) {
    for (v, h) in dst.iter_mut().zip(src) {
        *v = h.to_f32();
    }
}

/// # Safety
/// The CPU must support F16C and AVX. The slices may differ in length: the
/// vector body stops at the shorter one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn decode_f16_slice_f16c(src: &[F16], dst: &mut [f32]) {
    let n = src.len().min(dst.len());
    let main = n - n % LANES;
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= n`, and both slices hold at least
        // `n` elements, so the 16-byte load of 8 `F16` (`repr(transparent)`
        // over `u16`) from `src` and the 8-lane store into `dst` stay in
        // bounds. The F16C and AVX intrinsics are this function's contract.
        let h = _mm_loadu_si128(src.as_ptr().add(i).cast());
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_cvtph_ps(h));
        i += LANES;
    }
    decode_f16_slice_scalar(&src[main..n], &mut dst[main..n]);
}

/// `dst[i] = src[i].to_f32()` for every `i`, 8 lanes at a time with F16C
/// where the CPU has it; bitwise-identical to [`decode_f16_slice_scalar`]
/// on every pattern, NaN included.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn decode_f16_slice(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "decode_f16_slice: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_enabled() {
        // SAFETY: `f16c_enabled()` just detected F16C and AVX at run time.
        return unsafe { decode_f16_slice_f16c(src, dst) };
    }
    decode_f16_slice_scalar(src, dst);
}

// ---------------------------------------------------------------------------
// Binary16 add: acc[i] = f16(f32(acc[i]) + f32(xs[i]))
// ---------------------------------------------------------------------------

/// Scalar reference for [`add_f16_slice`]: [`F16::add_f16`] per element.
/// The slices may differ in length: it stops at the shorter one.
pub fn add_f16_slice_scalar(acc: &mut [F16], xs: &[F16]) {
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a = a.add_f16(x);
    }
}

/// # Safety
/// The CPU must support F16C and AVX. The slices may differ in length: the
/// vector body stops at the shorter one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn add_f16_slice_f16c(acc: &mut [F16], xs: &[F16]) {
    let n = acc.len().min(xs.len());
    let main = n - n % LANES;
    let mut i = 0;
    while i < main {
        // SAFETY: `i + LANES <= main <= n`, and both slices hold at least
        // `n` elements, so the two 16-byte loads and the one 16-byte store
        // of 8 `F16` (`repr(transparent)` over `u16`) stay in bounds. The
        // F16C and AVX intrinsics are this function's contract.
        let a = _mm256_cvtph_ps(_mm_loadu_si128(acc.as_ptr().add(i).cast()));
        let x = _mm256_cvtph_ps(_mm_loadu_si128(xs.as_ptr().add(i).cast()));
        let sum = _mm256_add_ps(a, x);
        if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(sum, sum)) == 0 {
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(sum);
            _mm_storeu_si128(acc.as_mut_ptr().add(i).cast(), h);
        } else {
            add_f16_slice_scalar(&mut acc[i..i + LANES], &xs[i..i + LANES]);
        }
        i += LANES;
    }
    add_f16_slice_scalar(&mut acc[main..n], &xs[main..n]);
}

/// Binary16 sum in place, `acc[i] = acc[i].add_f16(xs[i])`: widen both,
/// add in `f32`, round back. 8 lanes at a time with F16C where the CPU has
/// it; bitwise-identical to [`add_f16_slice_scalar`].
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_f16_slice(acc: &mut [F16], xs: &[F16]) {
    assert_eq!(acc.len(), xs.len(), "add_f16_slice: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16c_enabled() {
        // SAFETY: `f16c_enabled()` just detected F16C and AVX at run time.
        return unsafe { add_f16_slice_f16c(acc, xs) };
    }
    add_f16_slice_scalar(acc, xs);
}

/// Rounds every element of a slice through binary16 (lossy round-trip).
///
/// This is the "communicate in FP16" operator: after this call the slice
/// contains exactly the values the receiving side would decode.
pub fn round_trip_f16(values: &mut [f32]) {
    let mut halves = [F16::ZERO; 256];
    for chunk in values.chunks_mut(halves.len()) {
        let halves = &mut halves[..chunk.len()];
        encode_f16_slice(chunk, halves);
        decode_f16_slice(halves, chunk);
    }
}

/// Encodes a slice of f32 into binary16 bit patterns in a caller-owned
/// buffer (cleared first; capacity reused).
pub fn encode_f16_into(values: &[f32], out: &mut Vec<F16>) {
    out.clear();
    out.resize(values.len(), F16::ZERO);
    encode_f16_slice(values, out);
}

/// Decodes binary16 bit patterns into f32 in a caller-owned buffer (cleared
/// first; capacity reused).
pub fn decode_f16_into(values: &[F16], out: &mut Vec<f32>) {
    out.clear();
    out.resize(values.len(), 0.0);
    decode_f16_slice(values, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_known_values() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3c00);
        assert_eq!(F16::from_f32(-2.0).0, 0xc000);
        assert_eq!(F16::from_f32(65504.0).0, 0x7bff);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(0.099975586).0, 0x2e66);
    }

    #[test]
    fn f16_overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        // 65520 is the rounding boundary: rounds to infinity.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        // Just below the boundary rounds to MAX.
        assert_eq!(F16::from_f32(65519.0).0, F16::MAX.0);
    }

    #[test]
    fn f16_subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).0, 0x0001);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        // Below half the smallest subnormal underflows to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).0, 0x0000);
        // Largest subnormal.
        let max_sub = 2.0f32.powi(-14) - 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(max_sub).0, 0x03ff);
    }

    #[test]
    fn f16_nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10;
        // RNE picks the even mantissa (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).0, 0x3c00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE picks even
        // (1+2^-9, mantissa 0b10).
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).0, 0x3c02);
    }

    #[test]
    fn f16_round_trip_is_idempotent() {
        for i in 0..=u16::MAX {
            let h = F16(i);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, h.0, "bit pattern {i:#06x} not preserved");
        }
    }

    #[test]
    fn f16_relative_error_bounded() {
        // For normal-range values the round-trip relative error is <= 2^-11.
        let mut x = 1e-3f32;
        while x < 6e4 {
            let rt = F16::from_f32(x).to_f32();
            let rel = ((rt - x) / x).abs();
            assert!(rel <= 2.0f32.powi(-11), "x={x} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn f16_sum_precision_loss_visible() {
        // 2048 + 1 is not representable in binary16 (spacing is 2 there):
        // the FP16 reduction drops the addend entirely.
        let a = F16::from_f32(2048.0);
        let b = F16::from_f32(1.0);
        assert_eq!(a.add_f16(b).to_f32(), 2048.0);
    }

    /// Every encode, decode and add input, through the dispatching kernel
    /// and the scalar reference (~40 s in release with F16C; run with
    /// `cargo test --release -p gcs-tensor -- --ignored`).
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: run in release with --ignored"]
    fn slice_kernels_match_scalar_on_every_input() {
        const BLOCK: usize = 1 << 16;
        let (mut src, mut fast, mut slow) = (
            vec![0f32; BLOCK],
            vec![F16::ZERO; BLOCK],
            vec![F16::ZERO; BLOCK],
        );
        for hi in 0..1u64 << 16 {
            for (lo, v) in src.iter_mut().enumerate() {
                *v = f32::from_bits(((hi << 16) as u32) | lo as u32);
            }
            encode_f16_slice(&src, &mut fast);
            encode_f16_slice_scalar(&src, &mut slow);
            assert!(fast == slow, "encode differs in block {hi:#06x}");
        }

        let halves: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let (mut fast, mut slow) = (vec![0f32; BLOCK], vec![0f32; BLOCK]);
        decode_f16_slice(&halves, &mut fast);
        decode_f16_slice_scalar(&halves, &mut slow);
        for (h, (f, s)) in halves.iter().zip(fast.iter().zip(&slow)) {
            assert_eq!(f.to_bits(), s.to_bits(), "decode differs at {:#06x}", h.0);
        }

        let (mut fast, mut slow) = (vec![F16::ZERO; BLOCK], vec![F16::ZERO; BLOCK]);
        for a in 0..=u16::MAX {
            fast.fill(F16(a));
            slow.fill(F16(a));
            add_f16_slice(&mut fast, &halves);
            add_f16_slice_scalar(&mut slow, &halves);
            assert!(fast == slow, "add differs for acc {a:#06x}");
        }
    }

    #[test]
    fn round_trip_helpers() {
        let mut v = vec![0.1f32, -3.7, 1234.5];
        round_trip_f16(&mut v);
        for (orig, rt) in [0.1f32, -3.7, 1234.5].iter().zip(&v) {
            assert!((orig - rt).abs() / orig.abs() < 1e-3);
        }
        let (mut enc, mut dec) = (Vec::new(), Vec::new());
        encode_f16_into(&v, &mut enc);
        decode_f16_into(&enc, &mut dec);
        assert_eq!(dec, v);
    }
}
