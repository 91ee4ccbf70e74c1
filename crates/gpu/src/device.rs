//! Device specifications and presets.

/// Floating-point arithmetic precision of a kernel's math.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// IEEE binary32 on CUDA cores.
    Fp32,
    /// TensorFloat-32 on tensor cores (A100 default for FP32-typed matmul).
    Tf32,
    /// IEEE binary16 on tensor cores.
    Fp16,
}

/// An accelerator's achievable (not peak-datasheet) rates.
///
/// All rates are *achieved* figures for large DNN kernels, not marketing
/// peaks: real training reaches a modest fraction of peak flops, and
/// bandwidth-bound kernels reach 65–80% of peak HBM bandwidth. The A100
/// preset is tuned so that, combined with the network model, the paper's
/// Table 2 baseline round rates are approximately reproduced.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Achieved FP32 (CUDA core) flop rate, flops/s.
    pub fp32_flops: f64,
    /// Achieved TF32 (tensor core) flop rate, flops/s.
    pub tf32_flops: f64,
    /// Achieved FP16 (tensor core) flop rate, flops/s.
    pub fp16_flops: f64,
    /// Achieved HBM bandwidth for streaming kernels, bytes/s.
    pub mem_bandwidth: f64,
    /// Shared-memory capacity per thread block, bytes. Determines the
    /// largest FWHT block that can be rotated in a single kernel (§3.2.2).
    pub shared_mem_bytes: usize,
    /// Penalty multiplier applied to the byte traffic of kernels with
    /// non-coalesced / data-dependent access patterns (TopK selection,
    /// scatter-add, cross-block butterfly stages). Derived from the gap
    /// between streaming and random-access HBM throughput.
    pub non_coalesced_penalty: f64,
    /// Fixed cost of one serialized kernel step (launch + small reduction),
    /// seconds. Gram–Schmidt pays this once per column per matrix.
    pub serial_step_latency: f64,
    /// Achieved flop rate for low-occupancy, serialized linear algebra
    /// (per-column Gram–Schmidt arithmetic), flops/s. Far below
    /// [`Self::fp32_flops`] because each step is a skinny reduction.
    pub low_occupancy_flops: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-40GB, calibrated for this suite.
    ///
    /// Datasheet peaks are 19.5 TF FP32 / 156 TF TF32 / 312 TF FP16 and
    /// 1555 GB/s HBM; the achieved figures below are the fractions typical
    /// of real layers plus the calibration described in `EXPERIMENTS.md`.
    pub fn a100() -> DeviceSpec {
        DeviceSpec {
            name: "A100-SXM4-40GB",
            fp32_flops: 14.0e12,
            tf32_flops: 70.0e12,
            fp16_flops: 140.0e12,
            mem_bandwidth: 1.30e12,
            shared_mem_bytes: 48 * 1024,
            non_coalesced_penalty: 4.0,
            serial_step_latency: 6.0e-6,
            low_occupancy_flops: 5.0e10,
        }
    }

    /// Achieved flop rate for a given precision.
    pub fn flops(&self, p: Precision) -> f64 {
        match p {
            Precision::Fp32 => self.fp32_flops,
            Precision::Tf32 => self.tf32_flops,
            Precision::Fp16 => self.fp16_flops,
        }
    }

    /// The largest power-of-two number of f32 elements that fits in shared
    /// memory — the paper's bound on the partial-rotation block size
    /// (`l'` such that `2^{l'} * 4 bytes <= shared`).
    pub fn shared_mem_block_log2(&self) -> usize {
        let elems = self.shared_mem_bytes / 4;
        if elems == 0 {
            0
        } else {
            (usize::BITS - 1 - elems.leading_zeros()) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_shared_block() {
        // 48 KiB / 4 B = 12288 floats -> largest power of two is 8192 = 2^13.
        assert_eq!(DeviceSpec::a100().shared_mem_block_log2(), 13);
    }

    #[test]
    fn precision_rates_ordered() {
        let d = DeviceSpec::a100();
        assert!(d.flops(Precision::Fp16) > d.flops(Precision::Tf32));
        assert!(d.flops(Precision::Tf32) > d.flops(Precision::Fp32));
    }
}
