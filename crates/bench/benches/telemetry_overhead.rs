//! Overhead contract of the fleet telemetry plane: the per-round cost of
//! shipping one trace + one registry snapshot + one flight-recorder dump
//! to a live [`TelemetryCollector`] must stay **well under 2%** of a real
//! training round — telemetry that taxes the thing it observes is worse
//! than no telemetry.
//!
//! Method: first time a `VggMini` fleet round body (compute + SGD; no
//! network — the conservative denominator, since a real round is strictly
//! slower), then time a full per-round ship (trace encode + snapshot
//! encode + flight JSONL + three framed sends over localhost TCP), and
//! assert `ship / round < 2%`.

use std::time::Instant;

use gcs_bench::{expect, header, measured_only};
use gcs_collectives::telemetry::{TelemetryCollector, TelemetryConfig, TelemetryShipper};
use gcs_metrics::fleet::{FlightRecorder, ROUND_HIST, WIRE_BYTES_COUNTER};
use gcs_metrics::Registry;
use gcs_nn::{Model, Sgd, VggMini};
use std::hint::black_box;

/// Median seconds per call of `f` over `samples` timed batches.
fn time_median(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

fn main() {
    header(
        "telemetry overhead",
        "cost of per-round fleet telemetry shipping vs a training round",
    );

    // The denominator: one local training round (shard → backward → SGD).
    let mut model = VggMini::new(11);
    let mut opt = Sgd::new(0.05, 0.9, 0.0);
    let mut round = 0u64;
    let round_s = time_median(7, 2, || {
        let batch = model.train_batch(4, 0, round);
        let loss = model.forward_backward(&batch);
        let grads = model.grads_flat().to_vec();
        opt.step_into(model.params_flat_mut(), &grads);
        black_box(loss);
        round += 1;
    });
    measured_only("training round (ms)", round_s * 1e3);

    // The numerator: everything a worker ships per round, against a live
    // collector on localhost — representative payloads (a recorded round's
    // spans, a populated registry, a warm flight recorder).
    let collector = TelemetryCollector::spawn(TelemetryConfig::default()).expect("collector");
    let mut shipper = TelemetryShipper::connect(collector.addr(), 1).expect("shipper");

    let mut snapshot = Registry::new();
    for r in 0..32 {
        snapshot.observe(ROUND_HIST, 1.0e6 + r as f64 * 1.0e4);
        snapshot.counter_add(WIRE_BYTES_COUNTER, 4096.0);
    }

    let trace = gcs_trace::with_recording(|| {
        for _ in 0..8 {
            let _c = gcs_trace::span(gcs_trace::Phase::Compute, "bench_compute");
            let _n = gcs_trace::span(gcs_trace::Phase::Network, "bench_all_reduce");
            gcs_trace::counter("bench_wire_bytes", 4096.0);
        }
    });
    let mut flight = FlightRecorder::new();
    flight.record_trace(&trace);
    flight.record_event("bench", "telemetry overhead probe");
    let jsonl = flight.to_jsonl();

    let mut ship_round = 0u64;
    let ship_s = time_median(9, 20, || {
        shipper.ship_trace(0, &trace).expect("ship trace");
        shipper
            .ship_snapshot(0, 1, &snapshot)
            .expect("ship snapshot");
        shipper.ship_flight(0, &jsonl).expect("ship flight");
        ship_round += 1;
    });
    measured_only("per-round ship: trace+snapshot+flight (us)", ship_s * 1e6);

    let overhead = ship_s / round_s;
    measured_only("telemetry overhead (%)", overhead * 100.0);
    expect(
        "per-round telemetry shipping costs < 2% of a training round",
        overhead < 0.02,
    );

    // The shipped bytes actually landed: the collector accounted frames.
    let (frames, bytes) = collector.aggregator().transfer_totals();
    measured_only("frames shipped", frames as f64);
    measured_only("bytes shipped", bytes as f64);
    expect(
        "collector accounted all shipped frames",
        frames > 0 && bytes > 0,
    );
}
