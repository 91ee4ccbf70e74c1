//! `gcs-metrics` — live telemetry layered on [`gcs_trace`].
//!
//! Where `gcs-trace` records *raw events* (spans, counter samples) for post
//! hoc analysis, this crate maintains *aggregated live state*: monotonic
//! counters, gauges and log-bucketed quantile histograms ([`Histogram`]),
//! plus the fleet-wide aggregation in [`fleet`], whose one derived skew
//! gauge is [`FleetAggregator::straggler_skew`]. Time-to-accuracy, utility
//! against FP16 and early stopping are defined once, in `gcs_core::metrics`.
//! [`Registry::to_prometheus`] serializes the state in the Prometheus text
//! format; [`Json`] is the dependency-free value type machine-readable
//! reports are built from.
//!
//! Nothing here is process-global: the owner of a run (a fleet worker, a
//! daemon, a test) holds its [`Registry`] and fills it.
//!
//! ```
//! let mut reg = gcs_metrics::Registry::new();
//! reg.counter_add("collective/ring/wire_bytes", 4096.0);
//! reg.observe("collective/ring/latency_ns", 1.5e6);
//! assert!(reg.to_prometheus().contains("4096"));
//! ```

pub mod fleet;
mod hist;
mod json;
mod registry;

pub use fleet::{
    decode_registry, encode_registry, FleetAggregator, FleetMember, FlightEntry, FlightRecorder,
    FLEET_WIRE_VERSION, FLIGHT_CAPACITY,
};
pub use hist::{Histogram, REL_ERROR, SUB_BITS};
pub use json::Json;
pub use registry::Registry;
