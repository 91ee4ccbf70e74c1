//! The uncompressed baselines: FP32 and the stronger FP16.
//!
//! §2.2's point: FP16 aggregation halves traffic with negligible accuracy
//! loss and wide hardware support, so *it* — not FP32 — is the bar a
//! compression scheme must clear. Both baselines here run a genuine ring
//! all-reduce; the FP16 one rounds to binary16 before communication and
//! reduces **in binary16** at every hop (NCCL semantics), so its (tiny)
//! precision cost is real in our experiments too.

use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{ring_all_reduce_into, F16Sum, F32Sum, RingScratch};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::half::{decode_f16_into, encode_f16_into, F16};
use gcs_tensor::pool::WorkerBufs;

/// Communication precision of an uncompressed baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommPrecision {
    /// 32-bit aggregation — the weak baseline most prior work compares to.
    Fp32,
    /// 16-bit aggregation — the stronger baseline the paper argues for.
    Fp16,
}

impl CommPrecision {
    /// Bits per coordinate on the wire.
    pub fn bits(self) -> f64 {
        match self {
            CommPrecision::Fp32 => 32.0,
            CommPrecision::Fp16 => 16.0,
        }
    }
}

/// Round scratch owned across rounds: the per-worker wire buffers and ring
/// staging of whichever precision runs, at their high-water mark after the
/// first round (the zero-allocation steady state).
#[derive(Clone, Debug, Default)]
struct BaselineScratch {
    f32_bufs: WorkerBufs<f32>,
    f16_bufs: WorkerBufs<F16>,
    ring_f32: RingScratch<f32>,
    ring_f16: RingScratch<F16>,
}

/// An uncompressed baseline at the given communication precision.
#[derive(Clone, Debug)]
pub struct PrecisionBaseline {
    precision: CommPrecision,
    scratch: BaselineScratch,
}

impl PrecisionBaseline {
    fn new(precision: CommPrecision) -> PrecisionBaseline {
        PrecisionBaseline {
            precision,
            scratch: BaselineScratch::default(),
        }
    }

    /// FP32 aggregation.
    pub fn fp32() -> PrecisionBaseline {
        PrecisionBaseline::new(CommPrecision::Fp32)
    }

    /// FP16 aggregation (the paper's recommended baseline).
    pub fn fp16() -> PrecisionBaseline {
        PrecisionBaseline::new(CommPrecision::Fp16)
    }

    /// The configured precision.
    pub fn precision(&self) -> CommPrecision {
        self.precision
    }
}

impl CompressionScheme for PrecisionBaseline {
    fn name(&self) -> String {
        match self.precision {
            CommPrecision::Fp32 => "Baseline FP32".to_string(),
            CommPrecision::Fp16 => "Baseline FP16".to_string(),
        }
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        _ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let scratch = &mut self.scratch;
        let mean = &mut out.mean_estimate;
        mean.clear();
        match self.precision {
            CommPrecision::Fp32 => {
                let bufs = scratch.f32_bufs.copy_from(grads);
                ring_all_reduce_into(bufs, &F32Sum, 4.0, &mut scratch.ring_f32, &mut out.traffic);
                mean.extend_from_slice(&bufs[0]);
                gcs_tensor::vector::scale(mean, 1.0 / n as f32);
            }
            CommPrecision::Fp16 => {
                let bufs = scratch.f16_bufs.prepare(n);
                {
                    let _s = gcs_trace::span(gcs_trace::Phase::Compress, "encode_f16");
                    for (buf, g) in bufs.iter_mut().zip(grads) {
                        encode_f16_into(g, buf);
                    }
                }
                ring_all_reduce_into(bufs, &F16Sum, 2.0, &mut scratch.ring_f16, &mut out.traffic);
                let _s = gcs_trace::span(gcs_trace::Phase::Decompress, "decode_f16");
                decode_f16_into(&bufs[0], mean);
                for m in mean.iter_mut() {
                    *m /= n as f32;
                }
            }
        }
        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: self.precision.bits() / 8.0 * d as f64,
        });
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, _d: u64) -> f64 {
        self.precision.bits()
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: self.precision.bits() / 8.0 * d as f64,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        match self.precision {
            CommPrecision::Fp32 => 0.0,
            // FP16 pays one cast pass each way (fused in practice; nearly
            // free, and Table 2 confirms the comm saving dominates).
            CommPrecision::Fp16 => {
                ops::elementwise(d, 6.0, 1.0).seconds(device)
                    + ops::elementwise(d, 6.0, 1.0).seconds(device)
            }
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_tensor::vector::vnmse;

    fn grads() -> Vec<Vec<f32>> {
        vec![
            vec![0.5, -1.25, 3.0, 0.001],
            vec![1.5, 0.25, -1.0, 0.002],
            vec![-1.0, 1.0, 2.0, 0.003],
        ]
    }

    fn exact_mean(g: &[Vec<f32>]) -> Vec<f32> {
        gcs_tensor::vector::mean(g)
    }

    #[test]
    fn fp32_baseline_is_exact() {
        let mut s = PrecisionBaseline::fp32();
        let out = s.aggregate_round(&grads(), &RoundContext::new(1, 0));
        let exact = exact_mean(&grads());
        for (a, b) in out.mean_estimate.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(out.bits_per_coord(4) as u32, 32);
    }

    #[test]
    fn fp16_baseline_has_tiny_but_nonzero_error() {
        let mut s = PrecisionBaseline::fp16();
        let out = s.aggregate_round(&grads(), &RoundContext::new(1, 0));
        let exact = exact_mean(&grads());
        let err = vnmse(&out.mean_estimate, &exact);
        assert!(err > 0.0, "f16 rounding should be visible");
        assert!(err < 1e-5, "but negligible (got {err})");
        assert_eq!(out.bits_per_coord(4) as u32, 16);
    }

    #[test]
    fn fp16_halves_traffic() {
        let g = grads();
        let mut s32 = PrecisionBaseline::fp32();
        let mut s16 = PrecisionBaseline::fp16();
        let t32 = s32.aggregate_round(&g, &RoundContext::new(1, 0)).traffic;
        let t16 = s16.aggregate_round(&g, &RoundContext::new(1, 0)).traffic;
        // Within rounding of ceil() per segment.
        assert!(t16.total() * 2 <= t32.total() + 16);
    }

    #[test]
    fn metadata() {
        let s = PrecisionBaseline::fp16();
        assert!(s.all_reduce_compatible());
        assert_eq!(s.nominal_bits_per_coord(100), 16.0);
        assert_eq!(s.comm_events(100)[0].payload_bytes, 200.0);
    }
}
