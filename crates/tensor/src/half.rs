//! Software reduced-precision floating-point formats.
//!
//! The paper's central evaluation point is that **FP16 is the baseline to
//! beat**: communicating gradients in IEEE-754 binary16 halves traffic with
//! negligible accuracy loss (§2.2, Table 2). To model that faithfully without
//! hardware support we implement the conversions in software, bit-exactly,
//! with round-to-nearest-even — the same rounding NVIDIA tensor cores use.
//!
//! Three formats are provided:
//!
//! * [`F16`] — IEEE-754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
//! * [`Bf16`] — bfloat16 (1 sign, 8 exponent, 7 mantissa bits).
//! * [`tf32_round`] — NVIDIA TF32: an f32 whose mantissa is truncated to
//!   10 bits (19-bit total precision); used to model TF32 *training* math.

/// IEEE-754 binary16 stored as its raw bit pattern.
///
/// All arithmetic is performed by converting to `f32`, operating, and
/// converting back; this matches how mixed-precision training accumulates in
/// higher precision but *stores and communicates* in 16 bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct F16(pub u16);

/// bfloat16 stored as its raw bit pattern (top 16 bits of an f32).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Bf16(pub u16);

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

    /// Returns true if the value is +/- infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }

    /// Sum performed in binary16 precision: convert both to f32, add, round
    /// back to binary16. This is the reduction NCCL performs for
    /// `ncclFloat16` all-reduce and is what the FP16 baseline and TopKC's
    /// chunk aggregation (§3.1.2, step 2) use.
    pub fn add_f16(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32() + other.to_f32())
    }
}

impl Bf16 {
    /// Converts an `f32` to bfloat16 with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Bf16 {
        let bits = value.to_bits();
        if value.is_nan() {
            // Quiet NaN with a truncation-proof payload bit.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even on the 16 discarded bits: adding
        // 0x7fff + lsb carries into bit 16 exactly when the remainder is
        // above halfway, or exactly halfway with an odd kept LSB.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x0000_7fff + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts back to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }
}

/// Rounds an `f32` to NVIDIA TF32 precision (10 mantissa bits), using
/// round-to-nearest-even. The exponent range is unchanged (8 bits), so no
/// overflow handling is needed beyond what f32 already does.
///
/// TF32 is what A100 tensor cores use for FP32-typed matmuls by default; the
/// paper's Table 2 distinguishes TF32 vs FP32 *training* precision.
pub fn tf32_round(value: f32) -> f32 {
    if value.is_nan() || value.is_infinite() {
        return value;
    }
    let bits = value.to_bits();
    // Keep 10 mantissa bits out of 23: round away the low 13.
    let lsb = (bits >> 13) & 1;
    let rounded = bits.wrapping_add(0x0fff + lsb);
    f32::from_bits(rounded & !0x1fff)
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

/// Rounds every element of a slice through binary16 (lossy round-trip).
///
/// This is the "communicate in FP16" operator: after this call the slice
/// contains exactly the values the receiving side would decode.
pub fn round_trip_f16(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = F16::from_f32(*v).to_f32();
    }
}

/// Encodes a slice of f32 into binary16 bit patterns in a caller-owned
/// buffer (cleared first; capacity reused).
pub fn encode_f16_into(values: &[f32], out: &mut Vec<F16>) {
    out.clear();
    out.extend(values.iter().map(|&v| F16::from_f32(v)));
}

/// Decodes binary16 bit patterns into f32 in a caller-owned buffer (cleared
/// first; capacity reused).
pub fn decode_f16_into(values: &[F16], out: &mut Vec<f32>) {
    out.clear();
    out.extend(values.iter().map(|v| v.to_f32()));
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
        assert!(F16::from_f32(65520.0).is_infinite());
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
    fn bf16_round_trip() {
        assert_eq!(Bf16::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(Bf16::from_f32(-0.5).to_f32(), -0.5);
        // bf16 has f32's range: no overflow at 1e38.
        assert!((Bf16::from_f32(1e38).to_f32() - 1e38).abs() / 1e38 < 0.01);
        assert!(Bf16::from_f32(f32::NAN).to_f32().is_nan());
    }

    /// Reference bf16 conversion: explicit compare-based round-to-nearest-
    /// even on the 16 discarded bits, written independently of the add-trick
    /// used by `Bf16::from_f32`.
    fn bf16_reference(value: f32) -> u16 {
        let bits = value.to_bits();
        if value.is_nan() {
            return ((bits >> 16) as u16) | 0x0040;
        }
        let kept = (bits >> 16) as u16;
        let rem = bits & 0xffff;
        let halfway = 0x8000;
        if rem > halfway || (rem == halfway && (kept & 1) == 1) {
            kept.wrapping_add(1)
        } else {
            kept
        }
    }

    #[test]
    fn bf16_rne_matches_reference_exhaustively() {
        // Every upper-half bit pattern, with remainders just below halfway,
        // exactly halfway (where RNE ties break on the kept LSB's parity),
        // and just above halfway. This covers both LSB parities for every
        // exponent, including the carry into the exponent field.
        for upper in 0..=u16::MAX {
            for rem in [0x0000u32, 0x7fff, 0x8000, 0x8001, 0xffff] {
                let bits = ((upper as u32) << 16) | rem;
                let v = f32::from_bits(bits);
                if v.is_nan() {
                    continue; // payload handling tested separately
                }
                let got = Bf16::from_f32(v).0;
                let want = bf16_reference(v);
                assert_eq!(
                    got, want,
                    "bits {bits:#010x}: got {got:#06x}, want {want:#06x}"
                );
            }
        }
    }

    #[test]
    fn bf16_tie_breaks_to_even() {
        // Even kept mantissa (LSB 0) + exact halfway remainder: stays.
        let even = f32::from_bits(0x3f80_8000); // 1.0 + 2^-8, kept LSB 0
        assert_eq!(Bf16::from_f32(even).0, 0x3f80);
        // Odd kept mantissa (LSB 1) + exact halfway remainder: rounds up.
        let odd = f32::from_bits(0x3f81_8000);
        assert_eq!(Bf16::from_f32(odd).0, 0x3f82);
        // Carry propagates into the exponent: mantissa all-ones, halfway up.
        let carry = f32::from_bits(0x3fff_8000);
        assert_eq!(Bf16::from_f32(carry).0, 0x4000);
    }

    #[test]
    fn tf32_mantissa_truncation() {
        // TF32 keeps 10 mantissa bits, so 1 + 2^-10 is representable...
        let x = 1.0 + 2.0f32.powi(-10);
        assert_eq!(tf32_round(x), x);
        // ...but 1 + 2^-12 rounds back to 1.
        assert_eq!(tf32_round(1.0 + 2.0f32.powi(-12)), 1.0);
        assert_eq!(tf32_round(f32::INFINITY), f32::INFINITY);
        assert!(tf32_round(f32::NAN).is_nan());
    }

    #[test]
    fn f16_sum_precision_loss_visible() {
        // 2048 + 1 is not representable in binary16 (spacing is 2 there):
        // the FP16 reduction drops the addend entirely.
        let a = F16::from_f32(2048.0);
        let b = F16::from_f32(1.0);
        assert_eq!(a.add_f16(b).to_f32(), 2048.0);
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
