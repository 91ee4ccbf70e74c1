//! Reduction operators for collective aggregation.
//!
//! All-reduce compatibility (§2.1) boils down to one question: *what
//! operation do intermediate hops apply to partially aggregated payloads?*
//! This module makes that operation a first-class value. A compression
//! scheme is all-reduce-compatible exactly when its wire format admits a
//! [`ReduceOp`] — no decompress/recompress, no growing payloads.
//!
//! Operators provided:
//!
//! * [`F32Sum`] — exact float sum (the FP32 baseline).
//! * [`F16Sum`] — sum rounded to binary16 after every addition, NCCL's
//!   FP16 all-reduce semantics (the paper's stronger baseline, and TopKC's
//!   chunk aggregation).
//! * [`WideIntSum`] — plain integer sum for widened payloads (THC's
//!   "simple adaptation": communicate `b > q` bits so sums cannot
//!   overflow).
//! * [`SaturatingIntSum`] — the paper's `Sat(x,y)` operator (§3.2.2):
//!   clamp to `[−(2^{b−1}−1), 2^{b−1}−1]`, enabling `b = q`.
//! * [`F32Max`] — element-wise maximum, for agreeing on quantization scales.

use gcs_tensor::F16;

/// An associative-enough binary reduction over elements of type `T`.
///
/// "Enough": FP16 and saturating sums are *not* exactly associative; the
/// collectives apply them in a deterministic order, mirroring real NCCL
/// behaviour where reduction order is topology-determined.
pub trait ReduceOp<T>: Sync {
    /// Folds `x` into the accumulator.
    fn reduce(&self, acc: &mut T, x: &T);

    /// Reduces a pair of equal-length slices element-wise into `acc`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn reduce_slice(&self, acc: &mut [T], xs: &[T]) {
        assert_eq!(acc.len(), xs.len(), "reduce_slice: length mismatch");
        for (a, x) in acc.iter_mut().zip(xs) {
            self.reduce(a, x);
        }
    }
}

/// Exact f32 addition.
#[derive(Clone, Copy, Debug, Default)]
pub struct F32Sum;

impl ReduceOp<f32> for F32Sum {
    fn reduce(&self, acc: &mut f32, x: &f32) {
        *acc += *x;
    }
}

/// Binary16 addition: the sum is rounded back to f16 after every step, as
/// NCCL's `ncclFloat16` reduction does on tensor-core hardware.
#[derive(Clone, Copy, Debug, Default)]
pub struct F16Sum;

impl ReduceOp<F16> for F16Sum {
    fn reduce(&self, acc: &mut F16, x: &F16) {
        *acc = acc.add_f16(*x);
    }

    /// The bulk binary16 add (F16C where the CPU has it), bitwise-identical
    /// to folding `reduce` over the elements.
    fn reduce_slice(&self, acc: &mut [F16], xs: &[F16]) {
        gcs_tensor::half::add_f16_slice(acc, xs);
    }
}

/// Plain i32 addition (for widened integer payloads where overflow is
/// impossible by construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct WideIntSum;

impl ReduceOp<i32> for WideIntSum {
    fn reduce(&self, acc: &mut i32, x: &i32) {
        *acc += *x;
    }
}

/// The paper's saturation operator over `b`-bit signed lanes:
/// `Sat(x, y) = min(2^{b−1}−1, max(−2^{b−1}+1, x+y))`.
#[derive(Clone, Copy, Debug)]
pub struct SaturatingIntSum {
    hi: i32,
}

impl SaturatingIntSum {
    /// Creates the operator for `b`-bit lanes (`2 <= b <= 31`).
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn new(b: u32) -> SaturatingIntSum {
        assert!(
            (2..=31).contains(&b),
            "SaturatingIntSum: b={b} out of range"
        );
        SaturatingIntSum {
            hi: (1i32 << (b - 1)) - 1,
        }
    }

    /// The symmetric clamp bound `2^{b−1}−1`.
    pub fn bound(&self) -> i32 {
        self.hi
    }
}

impl ReduceOp<i32> for SaturatingIntSum {
    fn reduce(&self, acc: &mut i32, x: &i32) {
        *acc = (*acc + *x).clamp(-self.hi, self.hi);
    }
}

/// Element-wise f32 maximum. Used to agree on quantization scales across
/// workers (a max-all-reduce of per-block ranges) without a parameter
/// server.
#[derive(Clone, Copy, Debug, Default)]
pub struct F32Max;

impl ReduceOp<f32> for F32Max {
    fn reduce(&self, acc: &mut f32, x: &f32) {
        if *x > *acc {
            *acc = *x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_sum_is_exact() {
        let op = F32Sum;
        let mut acc = vec![1.0f32, 2.0];
        op.reduce_slice(&mut acc, &[0.5, -2.0]);
        assert_eq!(acc, vec![1.5, 0.0]);
    }

    #[test]
    fn f16_sum_rounds_each_step() {
        let op = F16Sum;
        // 2048 + 1 is not representable in f16: the addend vanishes.
        let mut acc = F16::from_f32(2048.0);
        op.reduce(&mut acc, &F16::from_f32(1.0));
        assert_eq!(acc.to_f32(), 2048.0);
    }

    #[test]
    fn f16_sum_reduce_slice_matches_the_element_wise_fold() {
        // Every binary16 pattern against a shifted copy of itself: NaNs,
        // infinities, subnormals and overflowing sums all meet.
        let xs: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let mut bulk: Vec<F16> = (0..=u16::MAX).map(|b| F16(b.wrapping_mul(40503))).collect();
        let mut fold = bulk.clone();
        F16Sum.reduce_slice(&mut bulk, &xs);
        for (a, x) in fold.iter_mut().zip(&xs) {
            F16Sum.reduce(a, x);
        }
        assert_eq!(bulk, fold);
    }

    #[test]
    fn saturating_sum_clamps() {
        let op = SaturatingIntSum::new(4); // lanes in [-7, 7]
        let mut acc = 6i32;
        op.reduce(&mut acc, &5);
        assert_eq!(acc, 7);
        let mut acc = -6i32;
        op.reduce(&mut acc, &-5);
        assert_eq!(acc, -7);
        let mut acc = 6i32;
        op.reduce(&mut acc, &-5);
        assert_eq!(acc, 1);
    }

    #[test]
    fn saturating_matches_packed_int_vec_semantics() {
        // The collectives' i32 lanes and the wire-format PackedIntVec must
        // agree on what Sat() means.
        use gcs_tensor::PackedIntVec;
        let q = 4u32;
        let a = [7i32, -7, 3, -3, 0];
        let b = [5i32, -5, 5, -5, 7];
        let mut lanes = a.to_vec();
        let op = SaturatingIntSum::new(q);
        op.reduce_slice(&mut lanes, &b);
        let mut packed = PackedIntVec::from_signed(q, &a);
        packed.add_saturating(&PackedIntVec::from_signed(q, &b));
        assert_eq!(lanes, packed.to_signed_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn saturating_rejects_bad_width() {
        SaturatingIntSum::new(1);
    }
}
