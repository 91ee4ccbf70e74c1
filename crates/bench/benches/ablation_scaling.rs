//! Ablation — scheme throughput vs cluster size (the scalability claims of
//! §2.1 and §3.2.2, quantified).
//!
//! Expectations: all-reduce schemes (baselines, TopKC, THC-Sat) hold their
//! round rate as n grows; all-gather schemes (TopK) collapse; THC's widened
//! adaptation needs `q + ceil(log2 n)` bits, so its traffic creeps up while
//! saturation's stays flat.

use gcs_bench::{expect, header, measured_only};
use gcs_core::schemes::baseline::PrecisionBaseline;
use gcs_core::schemes::thc::{Thc, ThcAggregation};
use gcs_core::schemes::topk::TopK;
use gcs_core::schemes::topkc::TopKC;
use gcs_ddp::ThroughputModel;
use gcs_gpusim::{DeviceSpec, ModelProfile, Precision};
use gcs_netsim::ClusterSpec;
use gcs_tensor::hadamard::RotationMode;

fn main() {
    header(
        "Ablation: cluster scaling",
        "rounds/s vs n for all-reduce vs all-gather schemes (BERT-large)",
    );
    let profile = ModelProfile::bert_large();
    let mut topk_rates = Vec::new();
    let mut topkc_rates = Vec::new();
    for n in [4usize, 8, 16, 32, 64] {
        println!("\nn = {n}:");
        let tm = ThroughputModel {
            device: DeviceSpec::a100(),
            cluster: ClusterSpec::scaled(n),
        };
        let fp16 = PrecisionBaseline::fp16();
        let topk = TopK::with_bits(2.0, n, true);
        let topkc = TopKC::paper_config(2.0, n);
        let sat = Thc::improved(4, &DeviceSpec::a100(), n);
        // Widened to exactly the bits this cluster size needs — the
        // baseline's fixed q + 4 stops holding the sum past 18 workers.
        let widened = Thc::new(
            4,
            RotationMode::Full,
            ThcAggregation::Widened {
                b: sat.overflow_free_bits(),
            },
            n,
        );
        let r_fp16 = tm.rounds_per_sec(&fp16, &profile, Precision::Tf32);
        let r_topk = tm.rounds_per_sec(&topk, &profile, Precision::Tf32);
        let r_topkc = tm.rounds_per_sec(&topkc, &profile, Precision::Tf32);
        measured_only("  FP16 baseline rounds/s", r_fp16);
        measured_only("  TopK (all-gather) rounds/s", r_topk);
        measured_only("  TopKC (all-reduce) rounds/s", r_topkc);
        measured_only(
            "  THC-Sat rounds/s",
            tm.rounds_per_sec(&sat, &profile, Precision::Tf32),
        );
        measured_only(
            "  THC widened rounds/s",
            tm.rounds_per_sec(&widened, &profile, Precision::Tf32),
        );
        measured_only(
            "  widened bits needed (q + log2 n)",
            sat.overflow_free_bits() as f64,
        );
        topk_rates.push(r_topk);
        topkc_rates.push(r_topkc);
    }
    let topk_drop = topk_rates[0] / topk_rates.last().unwrap();
    let topkc_drop = topkc_rates[0] / topkc_rates.last().unwrap();
    expect(
        &format!(
            "TopK collapses with n ({topk_drop:.1}x drop) while TopKC holds ({topkc_drop:.2}x)"
        ),
        topk_drop > 3.0 && topkc_drop < 1.5,
    );
}
