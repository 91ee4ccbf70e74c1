//! The steady-state allocation budget of `tests/alloc_budget.rs`, for the
//! error-feedback schemes, **while `gcs-trace` records**.
//!
//! Recording switches on diagnostics the unrecorded round skips — the
//! `ef_residual_norm` counter takes the norm of every worker's memory — and
//! a traced benchmark run reads its `allocs_per_round` with them on. The
//! recorder is process-global, so this pin has a test binary to itself:
//! beside the unrecorded pins it would switch their probes on too, and a
//! probe's buffer growing is a heap event.

use gcs_alloc::{counting_enabled, measure, CountingAlloc};
use gradient_utility::core::scheme::{AggregationOutcome, CompressionScheme, RoundContext};
use gradient_utility::core::schemes::powersgd::PowerSgd;
use gradient_utility::core::schemes::topkc::TopKC;
use gradient_utility::tensor::parallel::with_threads;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 4;
/// Longer than `vector.rs`'s reduction chunk, so the residual norm is a
/// chunked reduction, as it is at the benchmark's gradient lengths.
const D: usize = 40_000;

#[test]
fn recorded_error_feedback_rounds_are_allocation_free_at_steady_state() {
    assert!(counting_enabled());
    let schemes: [Box<dyn CompressionScheme>; 2] = [
        Box::new(PowerSgd::new(2, vec![(32, 32)], N)),
        Box::new(TopKC::with_bits(2.0, 64, N, true)),
    ];
    let grads: Vec<Vec<f32>> = (0..N)
        .map(|w| (0..D).map(|i| ((w * D + i) as f32 * 0.37).sin()).collect())
        .collect();
    for mut scheme in schemes {
        let mut out = AggregationOutcome::default();
        // Two warm-up rounds, then the quietest of four: the recorder's own
        // buffers double as they fill, which no two consecutive rounds see.
        let mut events = u64::MAX;
        let trace = gradient_utility::trace::with_recording(|| {
            with_threads(1, || {
                for round in 0..6 {
                    let ctx = RoundContext::new(42, round);
                    let ((), stats) =
                        measure(|| scheme.aggregate_round_into(&grads, &ctx, &mut out));
                    if round >= 2 {
                        events = events.min(stats.total_events());
                    }
                }
            })
        });
        assert!(
            trace.counters.iter().any(|c| c.name == "ef_residual_norm"),
            "{}: the recorded round takes the residual norm",
            scheme.name()
        );
        assert_eq!(events, 0, "{}: a recorded round allocates", scheme.name());
    }
}
