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
//!   (NCCL `ncclFloat16` semantics), and the saturating / wrapping / widened
//!   q-bit integer sums that THC-style quantization needs.
//! * [`ops`] — the collective algorithms themselves (ring all-reduce as
//!   reduce-scatter + all-gather, binomial-tree all-reduce, all-gather,
//!   reduce-scatter, broadcast, parameter-server), implemented generically
//!   over element type and reduction operator, with exact per-worker
//!   traffic accounting.
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

pub mod advanced;
pub mod error;
pub mod ops;
pub mod reduce;
pub mod tcp;
pub mod telemetry;
pub mod transport;

pub use advanced::{double_tree_all_reduce_into, hierarchical_ring_all_reduce_into};
pub use error::CollectiveError;
/// The byte layer under every wire format (lives in `gcs-trace`, the crate
/// at the bottom of the dependency graph); re-exported for crates that
/// reach it through this one.
pub use gcs_trace::bytes;
pub use ops::{
    all_gather, all_gather_into, broadcast, broadcast_into, parameter_server,
    parameter_server_into, reduce_scatter, reduce_scatter_into, ring_all_reduce,
    ring_all_reduce_into, ring_all_reduce_packed_into, tree_all_reduce, tree_all_reduce_into,
    RingScratch, Traffic,
};
pub use reduce::{
    copy_lanes, reduce_lanes, F16Sum, F32Max, F32Sum, ReduceOp, SaturatingIntSum, WideIntSum,
    WrappingIntSum,
};
pub use tcp::{
    decode_elems, decode_elems_into, encode_elems, encode_elems_into, FleetWorker, FramedStream,
    RecvFail, Registry, RoundStart, TcpCluster, TcpLinks, TcpMesh, TcpTimeouts, WireElem,
    DEFAULT_TCP_CHUNK_BYTES,
};
pub use telemetry::{
    FleetEvent, TelemetryCollector, TelemetryConfig, TelemetryShipper, TELEMETRY_MAGIC,
};
pub use transport::{
    all_gather_worker, broadcast_worker, ring_all_reduce_worker_into, threaded_ring_all_reduce,
    MessageLinks, ThreadedCluster, WorkerLinks,
};
