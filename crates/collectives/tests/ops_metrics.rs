//! A ring all-reduce reports its wire bytes and latency once per call.
//!
//! The metrics hub is process-global, so this lives in a test binary of its
//! own: nothing else in the process runs a ring while the capture is open,
//! and the counts can be exact.

use gcs_collectives::{ring_all_reduce_into, F32Sum, RingScratch, Traffic};

#[test]
fn collectives_emit_per_op_wire_and_latency_metrics() {
    let (traffic, reg) = gcs_metrics::with_capture(|| {
        let mut bufs: Vec<Vec<f32>> = (0..4)
            .map(|w| (0..64).map(|i| (w * 64 + i) as f32 * 0.01 - 1.0).collect())
            .collect();
        let mut traffic = Traffic::default();
        ring_all_reduce_into(
            &mut bufs,
            &F32Sum,
            4.0,
            &mut RingScratch::new(),
            &mut traffic,
        );
        traffic
    });
    if !gcs_metrics::is_captured() {
        return;
    }
    let wire = traffic.total() as f64;
    assert_eq!(
        reg.counter("collective/ring_all_reduce/wire_bytes_total"),
        Some(wire)
    );
    let bytes_hist = reg.hist("collective/ring_all_reduce/wire_bytes").unwrap();
    assert_eq!(bytes_hist.count(), 1);
    assert_eq!(bytes_hist.max(), Some(wire));
    let lat = reg.hist("collective/ring_all_reduce/latency_ns").unwrap();
    assert_eq!(lat.count(), 1);
    assert!(lat.max().unwrap() > 0.0);
}
