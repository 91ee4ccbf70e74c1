//! Workload profiles for the paper's two training tasks.
//!
//! A [`ModelProfile`] describes one DNN training job from the cost model's
//! point of view: gradient dimensionality `d`, the per-layer matrix shapes
//! (PowerSGD operates layer-wise), and the calibrated forward+backward
//! compute time per round.
//!
//! ## Calibration
//!
//! The per-round compute seconds are back-solved from the paper's Table 2
//! together with the network model's effective all-reduce bandwidth
//! (9.53 GB/s; see `gcs-netsim`): for each training precision,
//! `compute = 1/throughput − comm(FP16)`, cross-checked against the FP32-
//! communication rows. The resulting constants:
//!
//! | model | TF32 train | FP32 train |
//! |---|---|---|
//! | BERT-large (batch 4/GPU)  | 0.1926 s | 0.2069 s |
//! | VGG19 (batch 32/GPU)      | 0.0621 s | 0.0692 s |
//!
//! FP16 training compute is extrapolated (~15% faster than TF32, consistent
//! with mixed-precision speedups on attention/conv workloads); it is used
//! only by ablation benches, never by paper tables.

use crate::device::Precision;

/// One training workload's static description.
#[derive(Clone, Debug)]
pub struct ModelProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Total gradient coordinates `d`.
    pub params: u64,
    /// Per-layer matrix shapes `(rows, cols)` as PowerSGD sees them
    /// (conv kernels reshaped to `(out_channels, in_channels·k²)`).
    pub layer_shapes: Vec<(u64, u64)>,
    /// Per-worker batch size used by the paper.
    pub batch_per_worker: usize,
    /// Calibrated fwd+bwd+optimizer seconds per round at TF32 training math.
    pub compute_tf32: f64,
    /// Calibrated seconds per round at FP32 training math.
    pub compute_fp32: f64,
    /// Extrapolated seconds per round at FP16 training math.
    pub compute_fp16: f64,
}

/// Training (not communication) numeric precision — Table 2's first factor.
pub type TrainPrecision = Precision;

impl ModelProfile {
    /// Per-round compute seconds at the given training precision.
    pub fn compute_seconds(&self, p: TrainPrecision) -> f64 {
        match p {
            Precision::Tf32 => self.compute_tf32,
            Precision::Fp32 => self.compute_fp32,
            Precision::Fp16 => self.compute_fp16,
        }
    }

    /// BERT-large for masked language modelling (345 M parameters), per the
    /// paper's setup: per-worker batch 4.
    pub fn bert_large() -> ModelProfile {
        let mut shapes: Vec<(u64, u64)> = vec![
            (30522, 1024), // token embeddings
            (512, 1024),   // position embeddings
        ];
        for _ in 0..24 {
            shapes.push((1024, 1024)); // Q
            shapes.push((1024, 1024)); // K
            shapes.push((1024, 1024)); // V
            shapes.push((1024, 1024)); // attention output
            shapes.push((4096, 1024)); // FFN up
            shapes.push((1024, 4096)); // FFN down
        }
        shapes.push((1024, 1024)); // pooler
        let params = shapes.iter().map(|&(r, c)| r * c).sum::<u64>() + 2_000_000; // biases/LN
        ModelProfile {
            name: "BERT-large",
            params,
            layer_shapes: shapes,
            batch_per_worker: 4,
            compute_tf32: 0.1926,
            compute_fp32: 0.2069,
            compute_fp16: 0.1650,
        }
    }

    /// VGG19 for TinyImageNet classification (144 M parameters), per-worker
    /// batch 32. Standard VGG19 head (the paper reports 144 M params, i.e.
    /// the ImageNet-shaped classifier).
    pub fn vgg19() -> ModelProfile {
        let convs: [(u64, u64); 16] = [
            (64, 27),
            (64, 576),
            (128, 576),
            (128, 1152),
            (256, 1152),
            (256, 2304),
            (256, 2304),
            (256, 2304),
            (512, 2304),
            (512, 4608),
            (512, 4608),
            (512, 4608),
            (512, 4608),
            (512, 4608),
            (512, 4608),
            (512, 4608),
        ];
        let mut shapes: Vec<(u64, u64)> = convs.to_vec();
        shapes.push((4096, 25088)); // fc1
        shapes.push((4096, 4096)); // fc2
        shapes.push((1000, 4096)); // fc3
        let params = shapes.iter().map(|&(r, c)| r * c).sum::<u64>() + 60_000; // biases
        ModelProfile {
            name: "VGG19",
            params,
            layer_shapes: shapes,
            batch_per_worker: 32,
            compute_tf32: 0.0621,
            compute_fp32: 0.0692,
            compute_fp16: 0.0530,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_match_the_paper() {
        let bert = ModelProfile::bert_large();
        // Paper: 345 M params.
        assert!(
            (bert.params as f64 - 345e6).abs() / 345e6 < 0.05,
            "bert params = {}",
            bert.params
        );
        let vgg = ModelProfile::vgg19();
        // Paper: 144 M params.
        assert!(
            (vgg.params as f64 - 144e6).abs() / 144e6 < 0.05,
            "vgg params = {}",
            vgg.params
        );
    }

    #[test]
    fn powersgd_bits_per_coordinate_near_table9() {
        // Table 9 reports b = 2.95 (BERT, r=64) and b = 1.36 (VGG, r=64)
        // with FP32-communicated P/Q factors.
        // PowerSGD communicates `(rows + cols) · r` values (P and Q) per
        // layer matrix.
        let values = |m: &ModelProfile| {
            m.layer_shapes
                .iter()
                .map(|&(rows, cols)| (rows + cols) * 64)
                .sum::<u64>()
        };
        let bert = ModelProfile::bert_large();
        let b_bert = values(&bert) as f64 * 32.0 / bert.params as f64;
        assert!((b_bert - 2.95).abs() < 0.45, "bert b = {b_bert}");
        let vgg = ModelProfile::vgg19();
        let b_vgg = values(&vgg) as f64 * 32.0 / vgg.params as f64;
        assert!((b_vgg - 1.36).abs() < 0.25, "vgg b = {b_vgg}");
    }

    #[test]
    fn compute_seconds_ordering() {
        let m = ModelProfile::bert_large();
        assert!(m.compute_seconds(Precision::Fp16) < m.compute_seconds(Precision::Tf32));
        assert!(m.compute_seconds(Precision::Tf32) < m.compute_seconds(Precision::Fp32));
    }
}
