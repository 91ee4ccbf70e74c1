//! # gcs-netsim
//!
//! Network timing substrate for the gradient-compression suite.
//!
//! Two layers, from cheap to detailed:
//!
//! * [`timing`] — closed-form alpha-beta models for every collective the
//!   compression schemes use (ring/tree all-reduce, all-gather,
//!   reduce-scatter, broadcast, parameter-server). These drive the
//!   throughput tables: given a payload size in bytes per worker, they
//!   return seconds.
//! * [`flowsim`] — a flow-level event simulator with max-min fair bandwidth
//!   sharing. It exists to *validate* the closed forms (integration tests
//!   compare them) and to expose the incast effects that make all-gather and
//!   parameter-server aggregation less scalable than all-reduce (§2.1):
//!   many-to-one traffic serializes on the receiver's ingress link. Each
//!   node's capacity can be set on its own (a slow straggler NIC, a beefy
//!   parameter server, a dead link at zero); flows stranded on a dead link
//!   abort finitely instead of panicking.
//!
//! The calibrated [`timing::ClusterSpec::paper_testbed`] reflects the paper's
//! 2-node x 2-A100, 100 Gbps setup: the *effective* per-worker all-reduce
//! bandwidth back-solved from Table 2 is 9.53 GB/s (~76% of line rate,
//! typical NCCL goodput).

pub mod flowsim;
pub mod timing;

pub use flowsim::{Flow, FlowReport, Network};
pub use timing::{ClusterSpec, Collective, HierarchicalSpec};
