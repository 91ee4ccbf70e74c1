//! Property tests for the roofline cost model: the sanity laws any cost
//! model must obey, checked over randomized inputs.

use gcs_gpusim::{ops, DeviceSpec, KernelCost, ModelProfile, Precision};
use proptest::prelude::*;

/// The A100 preset and an older part without TF32 (its TF32 rate is its
/// FP32 rate) and with a larger FP16 advantage.
fn devices() -> Vec<DeviceSpec> {
    let older = DeviceSpec {
        name: "no-TF32 device",
        fp32_flops: 10.0e12,
        tf32_flops: 10.0e12,
        fp16_flops: 80.0e12,
        mem_bandwidth: 0.80e12,
        shared_mem_bytes: 48 * 1024,
        non_coalesced_penalty: 4.0,
        serial_step_latency: 8.0e-6,
        low_occupancy_flops: 3.0e10,
    };
    vec![DeviceSpec::a100(), older]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_time_is_monotone_in_flops_and_bytes(
        flops in 0.0f64..1e15,
        bytes in 0.0f64..1e12,
        extra in 1.0f64..1e12,
    ) {
        for d in devices() {
            let base = KernelCost::streaming(flops, bytes).seconds(&d);
            let more_flops = KernelCost::streaming(flops + extra, bytes).seconds(&d);
            let more_bytes = KernelCost::streaming(flops, bytes + extra).seconds(&d);
            prop_assert!(more_flops >= base);
            prop_assert!(more_bytes >= base);
        }
    }

    #[test]
    fn non_coalesced_never_faster(flops in 0.0f64..1e12, bytes in 1.0f64..1e12) {
        for d in devices() {
            let fast = KernelCost::streaming(flops, bytes).seconds(&d);
            let slow = KernelCost::scattered(flops, bytes).seconds(&d);
            prop_assert!(slow >= fast);
        }
    }

    #[test]
    fn fwht_cost_monotone_in_iterations(
        log_d in 10u32..30,
        iters in 0usize..30,
    ) {
        let d = DeviceSpec::a100();
        let padded = 1u64 << log_d;
        let iters = iters.min(log_d as usize);
        let t1 = ops::fwht(padded, iters, &d).seconds(&d);
        let t2 = ops::fwht(padded, (iters + 1).min(log_d as usize), &d).seconds(&d);
        prop_assert!(t2 >= t1, "iters {iters}: {t1} then {t2}");
    }

    #[test]
    fn topk_cost_grows_with_d(log_d in 16u32..29) {
        let dev = DeviceSpec::a100();
        let small = ops::topk_select(1 << log_d, 1000).seconds(&dev);
        let big = ops::topk_select(1 << (log_d + 1), 1000).seconds(&dev);
        prop_assert!(big > small);
    }

    #[test]
    fn gram_schmidt_superadditive_in_rank(rows in 100u64..100_000, r in 1u32..64) {
        let dev = DeviceSpec::a100();
        let t1 = ops::gram_schmidt(rows, r, &dev);
        let t2 = ops::gram_schmidt(rows, 2 * r, &dev);
        // Superlinear: doubling the rank more than doubles the cost.
        prop_assert!(t2 > 2.0 * t1 * 0.99, "r={r}: {t1} -> {t2}");
    }

    #[test]
    fn powersgd_round_dominated_by_its_parts(r in 1u32..65) {
        let dev = DeviceSpec::a100();
        let m = ModelProfile::bert_large();
        let total = ops::powersgd_round(&m.layer_shapes, r, &dev);
        let gs: f64 = m
            .layer_shapes
            .iter()
            .map(|&(rows, _)| ops::gram_schmidt(rows, r, &dev))
            .sum();
        prop_assert!(total > gs, "total {total} must exceed GS alone {gs}");
        let frac = ops::powersgd_gs_fraction(&m.layer_shapes, r, &dev);
        prop_assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    fn compute_seconds_ordering_holds_for_both_models(_x in 0..1i32) {
        for m in [ModelProfile::bert_large(), ModelProfile::vgg19()] {
            prop_assert!(m.compute_seconds(Precision::Fp16) < m.compute_seconds(Precision::Tf32));
            prop_assert!(m.compute_seconds(Precision::Tf32) < m.compute_seconds(Precision::Fp32));
        }
    }
}

#[test]
fn device_presets_are_internally_consistent() {
    for d in devices() {
        assert!(d.fp16_flops >= d.tf32_flops);
        assert!(d.tf32_flops >= d.fp32_flops);
        assert!(d.mem_bandwidth > 0.0);
        assert!(d.shared_mem_block_log2() >= 10);
        assert!(d.non_coalesced_penalty >= 1.0);
    }
}
