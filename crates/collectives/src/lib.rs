//! # gcs-collectives
//!
//! Data-moving collective communication, the substrate NCCL provides on the
//! paper's testbed.
//!
//! Unlike `gcs-netsim` (which models *time*), this crate moves *actual
//! bytes*: the compression schemes run their aggregation through these
//! collectives so that all-reduce compatibility — the paper's central design
//! constraint (§2.1) — is enforced by construction, not by assumption. A
//! scheme that would need decompress/recompress at intermediate hops simply
//! cannot be expressed through [`ops`]'s reduction interface.
//!
//! * [`reduce`] — reduction operators: exact f32 sum, FP16-precision sum
//!   (NCCL `ncclFloat16` semantics) and f32 max.
//! * [`ops`] — the three collectives the schemes run, in memory: the ring
//!   all-reduce (reduce-scatter + all-gather) over any element type and
//!   reduction operator, the same walk over bit-packed lanes (where the
//!   saturating and widened q-bit sums of THC and TopKC-Q run), and the
//!   all-gather — each with exact per-worker traffic accounting. (Tree,
//!   parameter-server and hierarchical shapes exist as `gcs-netsim` time
//!   models; the parameter server as running code is `gcs-aggd`.)
//! * [`transport`] — message-passing execution: an mpsc-channel
//!   [`transport::ThreadedCluster`] runs one thread per worker; integration
//!   tests assert the threaded ring all-reduce is bit-identical to the
//!   sequential reference.
//! * [`error`] — typed collective failures ([`CollectiveError`]): peer
//!   loss, retry exhaustion, injected crashes. Transports return these
//!   instead of panicking, which is what lets the `gcs-faults` layer and
//!   the chaos suite exercise degraded fabrics.
//! * [`telemetry`] — the fleet telemetry plane: each worker ships registry
//!   snapshots, trace spans, and its crash flight recorder over a second
//!   framed TCP connection to a [`telemetry::TelemetryCollector`], which
//!   merges fleet-wide aggregates, aligns clocks, serves a live Prometheus
//!   `GET /metrics` scrape, and dumps a dead worker's last flight recorder.
//! * [`tcp`] — the socket transport: length-prefixed frames over localhost
//!   TCP in a connection-per-directed-link mesh, plus the rendezvous
//!   registry and join/leave membership protocol that make the fleet
//!   *elastic* (workers can die **or join** mid-run; ranks renumber over
//!   the live roster each epoch). The same worker bodies run over
//!   [`tcp::TcpLinks`] and [`transport::WorkerLinks`], differential-tested
//!   bitwise.

pub mod error;
pub mod ops;
pub mod reduce;
pub mod tcp;
pub mod telemetry;
pub mod transport;

pub use error::CollectiveError;
/// The byte layer under every wire format (lives in `gcs-trace`, the crate
/// at the bottom of the dependency graph); re-exported for crates that
/// reach it through this one.
pub use gcs_trace::bytes;
pub use ops::{
    all_gather_into, ring_all_reduce_into, ring_all_reduce_packed_into, RingScratch, Traffic,
};
pub use reduce::{F16Sum, F32Max, F32Sum, ReduceOp};
pub use tcp::{
    decode_elems, decode_elems_into, encode_elems_into, FleetWorker, FramedStream, RecvFail,
    Registry, RoundStart, TcpCluster, TcpLinks, TcpMesh, TcpTimeouts, WireElem,
    DEFAULT_TCP_CHUNK_BYTES,
};
pub use telemetry::{
    FleetEvent, TelemetryCollector, TelemetryConfig, TelemetryShipper, TELEMETRY_MAGIC,
};
pub use transport::{
    all_gather_worker, broadcast_worker, ring_all_reduce_worker_into, threaded_ring_all_reduce,
    MessageLinks, ThreadedCluster, WorkerLinks,
};
