//! # gcs-ddp
//!
//! The distributed data-parallel training engine: ties the NN substrate, the
//! compression schemes, the collectives, and the cost models into end-to-end
//! experiments.
//!
//! * [`engine`] — the training loop: n workers compute real gradients on
//!   their shards, a compression scheme aggregates them (for real), the
//!   shared model steps, and the simulated clock advances by
//!   `compute + compression + communication` time at *paper scale*.
//! * [`throughput`] — closed-form round-rate estimation used by the paper's
//!   throughput tables (2, 5, 6, 8, 9).
//! * [`bucketing`] — PyTorch-DDP-style gradient buckets and a pipelined
//!   (comm/compute-overlapping) step-time model, quantifying how much of a
//!   compression scheme's advantage survives overlap (the Espresso/CUPCAKE
//!   dimension of Table 1).
//! * [`experiments`] — canned configurations reproducing each figure.
//! * [`fleet`] — transport-generic training rounds over the `MessageLinks`
//!   seam: the same round body runs in-process (`ThreadedCluster`) or
//!   across processes (`TcpLinks`), with a parameter checksum for bitwise
//!   cross-transport comparison and elastic re-sync after membership
//!   changes.

pub mod bucketing;
pub mod engine;
pub mod experiments;
pub mod fleet;
pub mod throughput;

pub use bucketing::{bucket_ranges, PipelineModel};
pub use engine::{FaultEvent, TrainLog, Trainer, TrainerConfig};
pub use experiments::{ExperimentPlan, Task};
pub use fleet::{fleet_round, param_checksum, sync_params, FleetRoundOutcome, FleetScratch};
pub use throughput::{StepBreakdown, ThroughputModel};
