//! `aggregate_round` is timed once per round under its scheme family.
//!
//! The metrics hub is process-global, so this lives in a test binary of its
//! own: nothing else in the process runs a TopK round while the capture is
//! open, and the count can be exact (a double-timed round reads 4).

use gcs_core::schemes::TopK;
use gcs_core::{CompressionScheme, RoundContext};

#[test]
fn aggregate_round_is_timed_per_scheme_family() {
    let grads = vec![vec![1.0f32, -2.0, 0.5], vec![0.5, 1.0, -0.25]];
    let (_, reg) = gcs_metrics::with_capture(|| {
        let mut s = TopK::with_bits(8.0, 2, true);
        s.aggregate_round(&grads, &RoundContext::new(7, 0));
        s.aggregate_round(&grads, &RoundContext::new(7, 1));
    });
    if !gcs_metrics::is_captured() {
        return;
    }
    let h = reg.hist("scheme/topk/round_ns").unwrap();
    assert_eq!(h.count(), 2);
    assert!(h.min().unwrap() >= 0.0);
}
