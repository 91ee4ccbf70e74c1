//! Paper-scale throughput estimation (rounds/second).
//!
//! Combines the three cost models — model compute (calibrated, Table 2),
//! compression compute (`gcs-gpusim` roofline), and collective time
//! (`gcs-netsim` alpha–beta) — into per-round step times. All throughput
//! tables (2, 5, 6, 8, 9) are produced through this module.
//!
//! The model is deliberately non-overlapping (`step = compute +
//! compression + communication`): the paper's prototypes hook the full
//! gradient after backward, which serializes these phases.

use gcs_core::scheme::CompressionScheme;
use gcs_gpusim::{DeviceSpec, ModelProfile, Precision};
use gcs_netsim::{ClusterSpec, Collective};

/// The composed cost model.
#[derive(Clone, Debug)]
pub struct ThroughputModel {
    /// Per-GPU compute/kernels model.
    pub device: DeviceSpec,
    /// Collective timing model.
    pub cluster: ClusterSpec,
}

/// One step's time decomposition, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBreakdown {
    /// Model forward+backward+optimizer.
    pub compute: f64,
    /// Compression/decompression kernels.
    pub compression: f64,
    /// Collective communication.
    pub communication: f64,
}

impl StepBreakdown {
    /// Total step seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.compression + self.communication
    }

    /// Rounds per second.
    ///
    /// A degenerate breakdown whose total is zero (or negative, from bad
    /// calibration inputs) models "no work per round"; rather than returning
    /// `inf`/`NaN` and poisoning downstream tables, this reports 0.0 —
    /// throughput is undefined, not infinite.
    pub fn rounds_per_sec(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 / total
    }

    /// The compression-overhead fraction the paper's Table 6 reports:
    /// compression compute time over total step time. Returns 0.0 when the
    /// total is non-positive (no step time means no overhead to attribute).
    pub fn compression_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.compression / total
    }
}

impl ThroughputModel {
    /// The paper's testbed (A100 × 4, 100 Gbps).
    pub fn paper_testbed() -> ThroughputModel {
        ThroughputModel {
            device: DeviceSpec::a100(),
            cluster: ClusterSpec::paper_testbed(),
        }
    }

    /// Step breakdown for a compression scheme on a model profile.
    pub fn step(
        &self,
        scheme: &dyn CompressionScheme,
        model: &ModelProfile,
        train: Precision,
    ) -> StepBreakdown {
        let d = model.params;
        StepBreakdown {
            compute: model.compute_seconds(train),
            compression: scheme.compute_seconds(d, &self.device),
            communication: scheme
                .comm_events(d)
                .iter()
                .map(|e| e.seconds(&self.cluster))
                .sum(),
        }
    }

    /// Rounds/second for a scheme (Table 5/8/9 cells).
    pub fn rounds_per_sec(
        &self,
        scheme: &dyn CompressionScheme,
        model: &ModelProfile,
        train: Precision,
    ) -> f64 {
        self.step(scheme, model, train).rounds_per_sec()
    }

    /// Table 2 cell: an uncompressed baseline at (training precision,
    /// communication precision).
    pub fn baseline_rounds_per_sec(
        &self,
        model: &ModelProfile,
        train: Precision,
        comm_bits: f64,
    ) -> f64 {
        let comm = self.cluster.collective_seconds_bits(
            Collective::RingAllReduce,
            comm_bits,
            model.params,
        );
        1.0 / (model.compute_seconds(train) + comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::schemes::baseline::PrecisionBaseline;
    use gcs_core::schemes::topk::TopK;
    use gcs_core::schemes::topkc::TopKC;

    fn model() -> ModelProfile {
        ModelProfile::bert_large()
    }

    #[test]
    fn table2_bert_row_reproduced_within_ten_percent() {
        let tm = ThroughputModel::paper_testbed();
        let m = model();
        let cells = [
            (Precision::Tf32, 16.0, 3.32),
            (Precision::Tf32, 32.0, 2.44),
            (Precision::Fp32, 16.0, 3.17),
            (Precision::Fp32, 32.0, 2.36),
        ];
        for (train, bits, paper) in cells {
            let ours = tm.baseline_rounds_per_sec(&m, train, bits);
            assert!(
                (ours - paper).abs() / paper < 0.10,
                "train={train:?} bits={bits}: ours {ours:.2} vs paper {paper}"
            );
        }
    }

    #[test]
    fn table2_vgg_row_reproduced_within_ten_percent() {
        let tm = ThroughputModel::paper_testbed();
        let m = ModelProfile::vgg19();
        let cells = [
            (Precision::Tf32, 16.0, 9.31),
            (Precision::Tf32, 32.0, 6.59),
            (Precision::Fp32, 16.0, 8.73),
            (Precision::Fp32, 32.0, 6.37),
        ];
        for (train, bits, paper) in cells {
            let ours = tm.baseline_rounds_per_sec(&m, train, bits);
            assert!(
                (ours - paper).abs() / paper < 0.10,
                "train={train:?} bits={bits}: ours {ours:.2} vs paper {paper}"
            );
        }
    }

    #[test]
    fn topkc_beats_topk_at_every_bit_budget() {
        // Table 5's headline shape.
        let tm = ThroughputModel::paper_testbed();
        let m = model();
        for b in [0.5, 2.0, 8.0] {
            let topk = TopK::with_bits(b, 4, true);
            let topkc = TopKC::paper_config(b, 4);
            let r_topk = tm.rounds_per_sec(&topk, &m, Precision::Tf32);
            let r_topkc = tm.rounds_per_sec(&topkc, &m, Precision::Tf32);
            assert!(
                r_topkc > r_topk,
                "b={b}: TopKC {r_topkc:.2} should beat TopK {r_topk:.2}"
            );
        }
    }

    #[test]
    fn topk_degrades_faster_with_b_than_topkc() {
        let tm = ThroughputModel::paper_testbed();
        let m = model();
        let ratio = |scheme: &dyn CompressionScheme| tm.rounds_per_sec(scheme, &m, Precision::Tf32);
        let topk_drop =
            ratio(&TopK::with_bits(0.5, 4, true)) / ratio(&TopK::with_bits(8.0, 4, true));
        let topkc_drop = ratio(&TopKC::paper_config(0.5, 4)) / ratio(&TopKC::paper_config(8.0, 4));
        assert!(topk_drop > topkc_drop, "{topk_drop} vs {topkc_drop}");
    }

    #[test]
    fn fp16_baseline_beats_fp32_baseline() {
        let tm = ThroughputModel::paper_testbed();
        let m = model();
        let fp16 = PrecisionBaseline::fp16();
        let fp32 = PrecisionBaseline::fp32();
        assert!(
            tm.rounds_per_sec(&fp16, &m, Precision::Tf32)
                > tm.rounds_per_sec(&fp32, &m, Precision::Tf32)
        );
    }

    #[test]
    fn breakdown_sums() {
        let tm = ThroughputModel::paper_testbed();
        let m = model();
        let s = tm.step(&TopK::with_bits(2.0, 4, true), &m, Precision::Tf32);
        assert!(s.compute > 0.0 && s.compression > 0.0 && s.communication > 0.0);
        assert!((s.total() - (s.compute + s.compression + s.communication)).abs() < 1e-12);
        assert!(s.compression_fraction() > 0.0 && s.compression_fraction() < 1.0);
    }

    #[test]
    fn zero_total_breakdown_is_finite() {
        // An all-zero breakdown (e.g. a placeholder row before calibration)
        // must not produce inf/NaN that poisons a table.
        let z = StepBreakdown::default();
        assert_eq!(z.total(), 0.0);
        assert_eq!(z.rounds_per_sec(), 0.0);
        assert_eq!(z.compression_fraction(), 0.0);
        assert!(z.rounds_per_sec().is_finite());
        assert!(z.compression_fraction().is_finite());
    }

    #[test]
    fn negative_total_breakdown_is_finite() {
        // Bad calibration inputs can go negative; still no inf/NaN.
        let b = StepBreakdown {
            compute: -1.0,
            compression: 0.25,
            communication: 0.25,
        };
        assert!(b.total() < 0.0);
        assert_eq!(b.rounds_per_sec(), 0.0);
        assert_eq!(b.compression_fraction(), 0.0);
    }
}
