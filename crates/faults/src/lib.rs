//! # gcs-faults
//!
//! Deterministic fault injection for the collective transport, with
//! retry/backoff recovery — the testability layer behind the paper's
//! end-to-end-utility argument. A compression scheme's wall-clock win is
//! only real if the fabric carrying it survives real fabrics: lossy links,
//! transient stragglers, duplicated packets, dead workers. This crate makes
//! those conditions *reproducible* so the rest of the workspace can be
//! tested under them.
//!
//! * [`plan`] — [`FaultPlan`]: a seedable, **pure** function from
//!   `(seed, src, dst, seq, attempt)` to an injected fault, built on the
//!   same counter-based SplitMix64 as `gcs-tensor::rng`, so injection is
//!   independent of thread scheduling. Plus [`TrainFaultPlan`]: scheduled
//!   worker crashes for `gcs-ddp`'s degraded-training path.
//! * [`policy`] — [`RetryPolicy`]: bounded exponential backoff, per-frame
//!   attempt budgets, and the send/recv time budgets that guarantee every
//!   wait in a degraded cluster terminates.
//! * [`links`] — [`FaultyLinks`]: wraps `gcs-collectives`'
//!   `WorkerLinks` in a sequenced ack-and-resend protocol, injects the
//!   plan's faults on data frames, and recovers — or returns a typed
//!   `CollectiveError`. Implements `MessageLinks`, so the *same* collective
//!   worker bodies run over healthy or faulty fabric.
//! * [`chaos`] — the differential harness: run a real collective over
//!   [`FaultyLinks`] and compare bitwise against the sequential reference;
//!   the outcome carries the run's merged [`FaultStats`].
//! * [`tcp`] — the socket carrier: [`FaultyLinks`] is generic over
//!   [`FrameTransport`], and [`TcpFrameLinks`] implements it over
//!   `gcs-collectives`' `TcpMesh`, so the same chaos suite reruns over real
//!   TCP connections (`run_chaos_tcp`) with process-realistic failure
//!   signatures (reset/EOF instead of dropped channel ends).

#![warn(missing_docs)]

pub mod chaos;
pub mod links;
pub mod plan;
pub mod policy;
pub mod tcp;

pub use chaos::{canned_inputs, run_chaos, run_chaos_tcp, ChaosOp, ChaosOutcome};
pub use links::{FaultStats, FaultyLinks, Frame, FrameTransport};
pub use plan::{CrashPoint, FaultPlan, Injection, TrainFaultPlan, WorkerCrash};
pub use policy::RetryPolicy;
pub use tcp::TcpFrameLinks;
