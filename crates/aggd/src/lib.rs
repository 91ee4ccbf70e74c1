//! Aggregation-as-a-service: a multi-tenant parameter-server daemon.
//!
//! The paper argues gradient compression must be judged by end-to-end
//! utility under realistic deployment conditions. The condition this crate
//! models is *many concurrent training jobs contending for one aggregation
//! service* — the "millions of users" proxy: thousands of small tenants,
//! each running its own compression scheme (TopK / THC / QSGD / PowerSGD),
//! sharing one daemon's shards, queues, and NIC.
//!
//! The stack, bottom to top:
//!
//! * [`proto`] — the framed session protocol (HELLO/SUBMIT/FETCH/BYE, typed
//!   REJECT/RETRY-AFTER) layered on the collectives `FramedStream`;
//! * [`state`] — per-tenant aggregation state with in-order round folding
//!   through the pooled `aggregate_round_into` seam (bitwise identical to a
//!   standalone run, steady-state allocation-free);
//! * [`daemon`] — the sharded daemon: admission control, bounded queues
//!   everywhere, per-tenant metric registries aggregated through the fleet
//!   plane and served on the Prometheus scrape path;
//! * [`client`] — the synchronous tenant client;
//! * [`loadgen`] — the open-loop load generator and capacity sweep behind
//!   the `gcs_loadgen` binary.

pub mod client;
pub mod daemon;
pub mod loadgen;
pub mod proto;
pub mod state;

pub use client::{ClientError, TenantClient};
pub use daemon::{AggDaemon, AggdConfig};
pub use loadgen::{
    capacity_sweep, run_capacity_point, synth_grad, tenant_config, CapacityPoint, LoadgenConfig,
};
pub use proto::{Reject, RejectCode, SchemeSpec, TenantConfig, TenantFaultSpec};
pub use state::{FetchVerdict, SubmitVerdict, TenantState};
