//! Concurrency stress and property tests for the collectives.

use gcs_collectives::{
    ring_all_reduce_into, threaded_ring_all_reduce, F16Sum, F32Sum, ReduceOp, RingScratch,
    SaturatingIntSum, Traffic,
};
use gcs_tensor::half::encode_f16_into;
use proptest::prelude::*;

/// The sequential reference ring with fresh scratch, returning its traffic.
fn ring_all_reduce<T: Clone>(bufs: &mut [Vec<T>], op: &dyn ReduceOp<T>, bytes: f64) -> Traffic {
    let mut traffic = Traffic::default();
    ring_all_reduce_into(bufs, op, bytes, &mut RingScratch::new(), &mut traffic);
    traffic
}

#[test]
fn threaded_ring_survives_many_concurrent_invocations() {
    // Launch several threaded all-reduces back to back with varying shapes;
    // any deadlock or cross-talk between channel meshes would hang or
    // corrupt results.
    for round in 0..20 {
        let n = 2 + (round % 5);
        let len = 17 + round * 13;
        let bufs: Vec<Vec<f32>> = (0..n)
            .map(|w| {
                (0..len)
                    .map(|i| ((w * len + i + round) as f32).sin())
                    .collect()
            })
            .collect();
        let mut reference = bufs.clone();
        ring_all_reduce(&mut reference, &F32Sum, 4.0);
        let (threaded, traffic) =
            threaded_ring_all_reduce(bufs, F32Sum, 4.0).expect("healthy cluster");
        assert_eq!(threaded, reference, "round {round}");
        assert_eq!(traffic.sent.len(), n);
    }
}

#[test]
fn threaded_ring_handles_large_payloads() {
    let n = 4;
    let len = 200_000;
    let bufs: Vec<Vec<f32>> = (0..n)
        .map(|w| (0..len).map(|i| ((w + i) % 17) as f32 * 0.125).collect())
        .collect();
    let mut reference = bufs.clone();
    ring_all_reduce(&mut reference, &F32Sum, 4.0);
    let (threaded, _) = threaded_ring_all_reduce(bufs, F32Sum, 4.0).expect("healthy cluster");
    assert_eq!(threaded, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f16_threaded_equals_sequential_for_random_inputs(
        n in 2usize..6,
        data in prop::collection::vec(-100.0f32..100.0, 8..60),
    ) {
        let bufs: Vec<Vec<gcs_tensor::F16>> = (0..n)
            .map(|w| {
                let v: Vec<f32> = data.iter().map(|x| x + w as f32).collect();
                let mut enc = Vec::new();
                encode_f16_into(&v, &mut enc);
                enc
            })
            .collect();
        let mut reference = bufs.clone();
        ring_all_reduce(&mut reference, &F16Sum, 2.0);
        let (threaded, _) = threaded_ring_all_reduce(bufs, F16Sum, 2.0).expect("healthy cluster");
        prop_assert_eq!(threaded, reference);
    }

    #[test]
    fn saturating_allreduce_result_independent_of_start_rank_symmetry(
        n in 2usize..6,
        lanes in prop::collection::vec(-7i32..=7, 8..40),
    ) {
        // All workers identical: the saturated sum must equal the clamped
        // n*value per lane.
        let bufs: Vec<Vec<i32>> = (0..n).map(|_| lanes.clone()).collect();
        let op = SaturatingIntSum::new(4);
        let mut out = bufs.clone();
        ring_all_reduce(&mut out, &op, 0.5);
        for (lane, &orig) in out[0].iter().zip(&lanes) {
            let expect = (orig * n as i32).clamp(-7, 7);
            prop_assert_eq!(*lane, expect);
        }
    }

    #[test]
    fn traffic_is_conserved(
        n in 2usize..8,
        len in 1usize..200,
    ) {
        let bufs: Vec<Vec<f32>> = (0..n).map(|w| vec![w as f32; len]).collect();
        let mut b = bufs.clone();
        let t = ring_all_reduce(&mut b, &F32Sum, 4.0);
        let sent: u64 = t.sent.iter().sum();
        let recv: u64 = t.received.iter().sum();
        prop_assert_eq!(sent, recv, "bytes sent must equal bytes received");
    }
}
