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
//! * [`F32Max`] — element-wise maximum, for agreeing on quantization scales.
//!
//! Quantized integer payloads are not summed through a [`ReduceOp`]: they
//! travel as bit-packed lanes, and the packed ring
//! ([`crate::ring_all_reduce_packed_into`]) folds them a word at a time with
//! a [`gcs_tensor::bitpack::LaneAdd`] — the paper's `Sat(x, y)` (§3.2.2) or
//! the wrapping sum widened payloads run under.

use gcs_tensor::F16;

/// An associative-enough binary reduction over elements of type `T`.
///
/// "Enough": FP16 sums are *not* exactly associative; the collectives
/// apply them in a deterministic order, mirroring real NCCL behaviour
/// where reduction order is topology-determined.
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
}
