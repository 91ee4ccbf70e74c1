//! A chaos run publishes the `faults/*` counters. The `gcs-metrics` hub is
//! process-global and every `run_chaos` exports into it, so this capture
//! owns its process: beside other chaos tests their counters land in it.

use gcs_faults::{canned_inputs, run_chaos, ChaosOp, FaultPlan, RetryPolicy};

#[test]
fn chaos_run_exports_fault_counters() {
    let (outcome, registry) = gcs_metrics::with_capture(|| {
        run_chaos(
            ChaosOp::Ring,
            canned_inputs(4, 19),
            FaultPlan::lossy(7, 0.25),
            RetryPolicy::fast_test(),
        )
    });
    assert!(outcome.recovered(), "{:?}", outcome.results);
    let injected = registry.counter("faults/injected_total").unwrap_or(0.0);
    assert_eq!(injected, outcome.stats.injected() as f64);
    assert_eq!(
        registry.counter("faults/aborted_total").unwrap_or(-1.0),
        0.0
    );
}
