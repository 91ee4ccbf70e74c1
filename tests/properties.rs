//! Property-based tests across the full stack.

use gradient_utility::collectives::{
    ring_all_reduce_into, ring_all_reduce_packed_into, F32Sum, RingScratch, Traffic,
};
use gradient_utility::core::scheme::{CompressionScheme, RoundContext};
use gradient_utility::core::schemes::baseline::PrecisionBaseline;
use gradient_utility::core::schemes::thc::{Thc, ThcAggregation};
use gradient_utility::core::schemes::topkc::TopKC;
use gradient_utility::netsim::{ClusterSpec, Collective};
use gradient_utility::tensor::bitpack::{LaneAdd, PackedIntVec};
use gradient_utility::tensor::hadamard::RotationMode;
use gradient_utility::tensor::vector::{mean, vnmse};
use proptest::prelude::*;

fn worker_grads() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (2usize..5, 8usize..100).prop_flat_map(|(n, d)| {
        prop::collection::vec(prop::collection::vec(-10.0f32..10.0, d..=d), n..=n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fp32_baseline_is_always_exact(grads in worker_grads()) {
        let mut s = PrecisionBaseline::fp32();
        let out = s.aggregate_round(&grads, &RoundContext::new(1, 0));
        let exact = mean(&grads);
        prop_assert!(vnmse(&out.mean_estimate, &exact) < 1e-9);
    }

    #[test]
    fn fp16_baseline_error_is_tiny_for_moderate_values(grads in worker_grads()) {
        let mut s = PrecisionBaseline::fp16();
        let out = s.aggregate_round(&grads, &RoundContext::new(1, 0));
        let exact = mean(&grads);
        prop_assert!(vnmse(&out.mean_estimate, &exact) < 1e-4);
    }

    #[test]
    fn topkc_estimate_never_invents_coordinates(
        grads in worker_grads(),
        bits in 2.5f64..10.0, // the C=8 chunk's norm round alone costs 2 bits
    ) {
        // Every nonzero coordinate of the estimate must lie in a selected
        // chunk; coordinates outside must be exactly zero, and the estimate
        // never exceeds the max |corrected value| across workers.
        let n = grads.len();
        let mut s = TopKC::with_bits(bits, 8, n, false);
        let out = s.aggregate_round(&grads, &RoundContext::new(2, 0));
        let d = grads[0].len();
        let maxabs = grads
            .iter()
            .flat_map(|g| g.iter())
            .fold(0.0f32, |a, &x| a.max(x.abs()));
        for i in 0..d {
            prop_assert!(out.mean_estimate[i].abs() <= maxabs * 1.01 + 1e-3);
        }
    }

    #[test]
    fn ring_all_reduce_agrees_with_direct_sum(grads in worker_grads()) {
        let mut bufs = grads.clone();
        let (scratch, traffic) = (&mut RingScratch::new(), &mut Traffic::default());
        ring_all_reduce_into(&mut bufs, &F32Sum, 4.0, scratch, traffic);
        let mut expect = vec![0.0f32; grads[0].len()];
        for g in &grads {
            for (e, x) in expect.iter_mut().zip(g) {
                *e += x;
            }
        }
        for b in &bufs {
            for (x, e) in b.iter().zip(&expect) {
                prop_assert!((x - e).abs() < 1e-3 * e.abs().max(1.0));
            }
        }
    }

    #[test]
    fn saturating_reduction_is_bounded_regardless_of_input(
        lanes in prop::collection::vec(prop::collection::vec(-7i32..=7, 16), 2..6),
    ) {
        let mut bufs: Vec<PackedIntVec> =
            lanes.iter().map(|l| PackedIntVec::from_signed(4, l)).collect();
        let (scratch, traffic) = (&mut RingScratch::new(), &mut Traffic::default());
        ring_all_reduce_packed_into(&mut bufs, LaneAdd::Saturating, scratch, traffic);
        let mut out = [0i32; 16];
        for b in &bufs {
            b.unpack_into(0, &mut out);
            for &v in &out {
                prop_assert!(v.abs() <= 7);
            }
        }
    }

    #[test]
    fn thc_bits_accounting_consistent_with_wire_format(
        q in 2u32..8,
        // From the narrowest width `Thc::new` accepts for 4 workers.
        widen_extra in 2u32..7,
    ) {
        let n = 4;
        let d = 1u64 << 14;
        let sat = Thc::new(q, RotationMode::None, ThcAggregation::Saturating, n);
        let wide = Thc::new(q, RotationMode::None, ThcAggregation::Widened { b: q + widen_extra }, n);
        let b_sat = sat.nominal_bits_per_coord(d);
        let b_wide = wide.nominal_bits_per_coord(d);
        prop_assert!(b_sat >= q as f64);
        prop_assert!(b_wide >= b_sat);
        prop_assert!((b_wide - b_sat - widen_extra as f64).abs() < 0.01);
    }

    #[test]
    fn collective_times_are_monotone_in_payload(
        payload in 1e3f64..1e9,
        factor in 1.1f64..10.0,
    ) {
        let c = ClusterSpec::paper_testbed();
        for coll in [
            Collective::RingAllReduce,
            Collective::TreeAllReduce,
            Collective::AllGather,
            Collective::ReduceScatter,
            Collective::ParameterServer,
            Collective::Broadcast,
        ] {
            let t1 = c.collective_seconds(coll, payload);
            let t2 = c.collective_seconds(coll, payload * factor);
            prop_assert!(t2 > t1, "{coll:?} not monotone");
        }
    }

    #[test]
    fn utility_is_scale_invariant_in_time(
        scale in 0.1f64..10.0,
    ) {
        use gradient_utility::core::metrics::{utility, Direction, TtaCurve};
        let mut a = TtaCurve::new("a", Direction::HigherIsBetter);
        let mut b = TtaCurve::new("b", Direction::HigherIsBetter);
        let mut a2 = TtaCurve::new("a2", Direction::HigherIsBetter);
        let mut b2 = TtaCurve::new("b2", Direction::HigherIsBetter);
        for i in 1..20 {
            let t = i as f64;
            let m = 1.0 - (-t / 6.0).exp();
            a.push(t, m);
            b.push(t * 1.7, m);
            a2.push(t * scale, m);
            b2.push(t * 1.7 * scale, m);
        }
        let u = utility(&a, &b, 0.8).unwrap();
        let u2 = utility(&a2, &b2, 0.8).unwrap();
        prop_assert!((u - u2).abs() < 1e-9);
    }
}
