//! Cross-crate integration: the threaded (mpsc-channel) collectives, the
//! sequential reference collectives, and the network timing layer must
//! agree with each other.

use gradient_utility::collectives::{
    all_gather_into, ring_all_reduce_into, ring_all_reduce_packed_into, threaded_ring_all_reduce,
    F16Sum, F32Sum, ReduceOp, RingScratch, Traffic,
};
use gradient_utility::netsim::flowsim::{ring_all_reduce_phases, Network};
use gradient_utility::netsim::{ClusterSpec, Collective};
use gradient_utility::tensor::bitpack::{LaneAdd, PackedIntVec};
use gradient_utility::tensor::half::{encode_f16_into, F16};

/// The sequential reference ring with fresh scratch, returning its traffic.
fn ring_all_reduce<T: Clone>(bufs: &mut [Vec<T>], op: &dyn ReduceOp<T>, bytes: f64) -> Traffic {
    let mut traffic = Traffic::default();
    ring_all_reduce_into(bufs, op, bytes, &mut RingScratch::new(), &mut traffic);
    traffic
}

fn grads(n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| {
            (0..len)
                .map(|i| ((w * len + i) as f32 * 0.173).sin())
                .collect()
        })
        .collect()
}

#[test]
fn threaded_ring_is_bit_identical_to_sequential_for_f32() {
    for n in [2usize, 3, 5, 8] {
        let bufs = grads(n, 101);
        let mut seq = bufs.clone();
        ring_all_reduce(&mut seq, &F32Sum, 4.0);
        let (thr, _) = threaded_ring_all_reduce(bufs, F32Sum, 4.0).expect("healthy cluster");
        assert_eq!(thr, seq, "n={n}");
    }
}

#[test]
fn threaded_ring_is_bit_identical_for_non_associative_f16() {
    // FP16 summation is order-sensitive; the threaded path must follow the
    // exact same order as the reference.
    for n in [2usize, 4, 7] {
        let bufs: Vec<Vec<F16>> = grads(n, 64)
            .iter()
            .map(|g| {
                let mut enc = Vec::new();
                encode_f16_into(g, &mut enc);
                enc
            })
            .collect();
        let mut seq = bufs.clone();
        ring_all_reduce(&mut seq, &F16Sum, 2.0);
        let (thr, _) = threaded_ring_all_reduce(bufs, F16Sum, 2.0).expect("healthy cluster");
        let decode = |v: &[F16]| v.iter().map(|h| h.to_f32()).collect::<Vec<f32>>();
        for (a, b) in thr.iter().zip(&seq) {
            assert_eq!(decode(a), decode(b), "n={n}");
        }
    }
}

/// The paper's `Sat(x, y)` over 4-bit lanes held one per `i32`, defined
/// here so the threaded ring runs it without sharing the packed kernel.
#[derive(Clone)]
struct Sat4;

impl ReduceOp<i32> for Sat4 {
    fn reduce(&self, acc: &mut i32, x: &i32) {
        *acc = (*acc + *x).clamp(-7, 7);
    }
}

#[test]
fn threaded_ring_matches_for_saturating_lanes() {
    // Saturation is order-sensitive: the threaded ring must clamp partial
    // sums in the same order as the packed ring the schemes run.
    let lanes: Vec<Vec<i32>> = (0..4i32).map(|w| vec![w * 3 - 4; 33]).collect();
    let mut packed: Vec<PackedIntVec> = lanes
        .iter()
        .map(|l| PackedIntVec::from_signed(4, l))
        .collect();
    let seq_traffic = &mut Traffic::default();
    ring_all_reduce_packed_into(
        &mut packed,
        LaneAdd::Saturating,
        &mut RingScratch::new(),
        seq_traffic,
    );
    let (thr, thr_traffic) = threaded_ring_all_reduce(lanes, Sat4, 0.5).expect("healthy cluster");
    let mut seq = vec![0i32; 33];
    for (p, t) in packed.iter().zip(&thr) {
        p.unpack_into(0, &mut seq);
        assert_eq!(t, &seq);
    }
    assert_eq!(&thr_traffic, seq_traffic);
}

#[test]
fn measured_ring_traffic_matches_the_timing_models_wire_bytes() {
    // The data-moving layer and the closed-form timing layer must agree on
    // wire volume, or throughput tables would diverge from the functional
    // system.
    let n = 4;
    let len = 1000usize;
    let mut bufs = grads(n, len);
    let traffic = ring_all_reduce(&mut bufs, &F32Sum, 4.0);
    let payload = (len * 4) as f64;
    let expected_per_worker = 2.0 * payload * (n as f64 - 1.0) / n as f64;
    for &sent in &traffic.sent {
        let dev = (sent as f64 - expected_per_worker).abs() / expected_per_worker;
        assert!(dev < 0.01, "sent {sent} vs {expected_per_worker}");
    }
    // And the flow simulator agrees with the alpha-beta closed form.
    let bw = 9.53e9;
    let net = Network::homogeneous(n, bw);
    let flow_t = net.simulate_phases(&ring_all_reduce_phases(n, payload));
    let cluster = ClusterSpec {
        alpha: 0.0,
        ..ClusterSpec::paper_testbed()
    };
    let model_t = cluster.collective_seconds(Collective::RingAllReduce, payload);
    assert!(
        (flow_t - model_t).abs() / model_t < 0.01,
        "flowsim {flow_t} vs model {model_t}"
    );
}

#[test]
fn all_gather_total_traffic_scales_quadratically() {
    let per = |n: usize| {
        let inputs: Vec<Vec<f32>> = grads(n, 100);
        let mut traffic = Traffic::default();
        all_gather_into(&inputs, 4.0, &mut Vec::new(), &mut traffic);
        traffic.total()
    };
    let t4 = per(4);
    let t8 = per(8);
    // n(n-1) scaling: 8 workers => 56/12 of 4 workers.
    let ratio = t8 as f64 / t4 as f64;
    assert!((ratio - 56.0 / 12.0).abs() < 0.05, "ratio = {ratio}");
}
