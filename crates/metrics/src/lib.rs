//! `gcs-metrics` — live telemetry layered on [`gcs_trace`].
//!
//! Where `gcs-trace` records *raw events* (spans, counter samples) for post
//! hoc analysis, this crate maintains *aggregated live state*: monotonic
//! counters, gauges, log-bucketed quantile histograms ([`Histogram`]),
//! per-round time series ([`TimeSeries`]), and the two monitors the paper's
//! evaluation methodology calls for — [`TtaMonitor`] (time-to-accuracy,
//! rolling averages, utility vs FP16, divergence early warning) and
//! [`StragglerMonitor`] (per-worker skew, per-collective tail latencies).
//! [`Registry::to_prometheus`] serializes the state in the Prometheus text
//! format; [`Json`] is the dependency-free value type machine-readable
//! reports are built from.
//!
//! # Probe contract (same as `gcs-trace`)
//!
//! Instrumentation sites call the free functions here ([`counter_add`],
//! [`gauge_set`], [`observe`], [`series_push`], [`timer`]) with `&'static
//! str` names. The cost model is identical to the PR 2 tracing contract:
//!
//! - built with `--no-default-features`: probes compile to nothing;
//! - built with the default `capture` feature but not [`enable`]d: each
//!   probe is **one relaxed atomic load** (the `metrics_overhead` bench in
//!   `gcs-bench` pins this below 2% of an aggregation round);
//! - [`enable`]d: probes take a global mutex and update the hub registry —
//!   intended for per-round/per-op cadence, not per-element loops.
//!
//! Recording never changes numerical behavior: the Trainer bitwise-identity
//! test passes with metrics enabled.
//!
//! ```
//! gcs_metrics::with_capture(|| {
//!     gcs_metrics::counter_add("collective/ring/wire_bytes", 4096.0);
//!     let _t = gcs_metrics::timer("collective/ring/latency_ns");
//! });
//! let reg = gcs_metrics::take();
//! # let _ = reg.to_prometheus();
//! ```

pub mod fleet;
mod hist;
mod json;
mod registry;
mod series;
mod straggler;
mod tta;

pub use fleet::{
    decode_registry, encode_registry, FleetAggregator, FleetMember, FlightEntry, FlightRecorder,
    FLEET_WIRE_VERSION, FLIGHT_CAPACITY,
};
pub use hist::{Histogram, REL_ERROR, SUB_BITS};
pub use json::Json;
pub use registry::Registry;
pub use series::{TimeSeries, DEFAULT_CAPACITY};
pub use straggler::{OpTail, StragglerMonitor, StragglerReport, WorkerStat};
pub use tta::{TtaMonitor, EVAL_METRIC_SERIES, EVAL_TIME_SERIES};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

#[cfg(feature = "capture")]
static HUB: std::sync::Mutex<Registry> = std::sync::Mutex::new(Registry::new());

#[cfg(feature = "capture")]
fn hub() -> std::sync::MutexGuard<'static, Registry> {
    HUB.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// True when the crate was built with the `capture` feature (probes exist).
pub const fn is_captured() -> bool {
    cfg!(feature = "capture")
}

/// True when probes are currently recording into the global hub.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns probe recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns probe recording off. Hub contents are kept until [`take`]/[`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Adds `v` to counter `name` in the global hub (no-op unless enabled).
#[inline]
pub fn counter_add(name: &'static str, v: f64) {
    #[cfg(feature = "capture")]
    if enabled() {
        hub().counter_add(name, v);
    }
    #[cfg(not(feature = "capture"))]
    let _ = (name, v);
}

/// Sets gauge `name` to `v` in the global hub (no-op unless enabled).
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    #[cfg(feature = "capture")]
    if enabled() {
        hub().gauge_set(name, v);
    }
    #[cfg(not(feature = "capture"))]
    let _ = (name, v);
}

/// Records sample `v` into histogram `name` (no-op unless enabled).
#[inline]
pub fn observe(name: &'static str, v: f64) {
    #[cfg(feature = "capture")]
    if enabled() {
        hub().observe(name, v);
    }
    #[cfg(not(feature = "capture"))]
    let _ = (name, v);
}

/// Appends `v` to time series `name` at the current training round (as set
/// via [`gcs_trace::set_round`]); no-op unless enabled.
#[inline]
pub fn series_push(name: &'static str, v: f64) {
    #[cfg(feature = "capture")]
    if enabled() {
        let round = gcs_trace::current_round();
        hub().series_push(name, round, v);
    }
    #[cfg(not(feature = "capture"))]
    let _ = (name, v);
}

/// A scope timer: records elapsed nanoseconds into histogram `name` when
/// dropped. Costs one atomic load (and no clock read) while disabled.
#[must_use = "a timer records on drop; binding it to _ drops it immediately"]
pub struct Timer {
    armed: Option<(&'static str, Instant)>,
}

/// Starts a [`Timer`] for histogram `name`.
#[inline]
pub fn timer(name: &'static str) -> Timer {
    #[cfg(feature = "capture")]
    {
        if enabled() {
            return Timer {
                armed: Some((name, Instant::now())),
            };
        }
    }
    #[cfg(not(feature = "capture"))]
    let _ = name;
    Timer { armed: None }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            observe(name, start.elapsed().as_nanos() as f64);
        }
    }
}

/// Clones the current hub contents without stopping recording.
pub fn snapshot() -> Registry {
    #[cfg(feature = "capture")]
    {
        return hub().clone();
    }
    #[cfg(not(feature = "capture"))]
    Registry::new()
}

/// Stops recording and drains the hub, returning everything recorded.
pub fn take() -> Registry {
    disable();
    #[cfg(feature = "capture")]
    {
        return std::mem::take(&mut *hub());
    }
    #[cfg(not(feature = "capture"))]
    Registry::new()
}

/// Stops recording and discards hub contents.
pub fn clear() {
    disable();
    #[cfg(feature = "capture")]
    {
        *hub() = Registry::new();
    }
}

/// Folds a raw trace into the global hub (regardless of [`enabled`]), so
/// span-level evidence and live metrics land in one registry. No-op without
/// the `capture` feature.
pub fn ingest_trace(trace: &gcs_trace::Trace) {
    #[cfg(feature = "capture")]
    {
        hub().ingest_trace(trace);
    }
    #[cfg(not(feature = "capture"))]
    let _ = trace;
}

/// Runs `f` with recording enabled and returns its result plus everything
/// recorded. The hub is cleared first, so the registry contains only `f`'s
/// telemetry. Tests and the bench harness use this; note the hub is global,
/// so concurrent `with_capture` calls interleave.
pub fn with_capture<R>(f: impl FnOnce() -> R) -> (R, Registry) {
    clear();
    enable();
    let result = f();
    (result, take())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The hub is global state shared by every test in this binary, so each
    // test runs the full scenario inside `with_capture` and asserts on the
    // returned registry.

    #[test]
    fn probes_are_inert_until_enabled() {
        clear();
        counter_add("c", 1.0);
        observe("h", 1.0);
        series_push("s", 1.0);
        gauge_set("g", 1.0);
        drop(timer("t"));
        assert!(take().is_empty());
    }

    #[test]
    fn with_capture_records_all_probe_kinds() {
        let ((), reg) = with_capture(|| {
            counter_add("collective/ring/wire_bytes", 100.0);
            counter_add("collective/ring/wire_bytes", 50.0);
            gauge_set("train/loss", 0.25);
            observe("lat", 7.0);
            {
                let _t = timer("scheme/topk/round_ns");
            }
        });
        if !is_captured() {
            assert!(reg.is_empty());
            return;
        }
        assert_eq!(reg.counter("collective/ring/wire_bytes"), Some(150.0));
        assert_eq!(reg.gauge("train/loss"), Some(0.25));
        assert_eq!(reg.hist("lat").unwrap().count(), 1);
        let t = reg.hist("scheme/topk/round_ns").unwrap();
        assert_eq!(t.count(), 1);
        assert!(t.max().unwrap() >= 0.0);
    }

    #[test]
    fn series_push_tags_the_current_round() {
        let ((), reg) = with_capture(|| {
            gcs_trace::set_round(7);
            series_push("train/vnmse", 0.5);
            gcs_trace::set_round(8);
            series_push("train/vnmse", 0.4);
        });
        gcs_trace::set_round(0);
        if !is_captured() {
            return;
        }
        let s = reg.series("train/vnmse").unwrap();
        assert_eq!(s.to_vec(), vec![(7, 0.5), (8, 0.4)]);
    }

    #[test]
    fn take_drains_and_disables() {
        let ((), first) = with_capture(|| counter_add("x", 1.0));
        assert!(!enabled());
        counter_add("x", 1.0); // disabled: ignored
        let second = take();
        if is_captured() {
            assert_eq!(first.counter("x"), Some(1.0));
        }
        assert!(second.is_empty());
    }

    #[test]
    fn disabled_timer_reads_no_clock() {
        clear();
        let t = timer("never");
        assert!(t.armed.is_none());
        drop(t);
        assert!(take().is_empty());
    }
}
