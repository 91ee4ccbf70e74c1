//! The compression schemes of the case study (§3) plus two literature
//! baselines: QSGD, which `gcs-aggd` tenants run, and RandomK, which the
//! `utility_report` example runs.
//!
//! | module | scheme | family | aggregation |
//! |---|---|---|---|
//! | [`baseline`] | FP32 / FP16 | none | ring all-reduce |
//! | [`topk`] | TopK \[12, 51\] | sparsification | all-gather |
//! | [`topkc`] | **TopKC** (ours, §3.1.2) | sparsification | ring all-reduce |
//! | [`thc`] | THC \[34\] + **saturation/partial rotation** (§3.2.2) | quantization | ring all-reduce |
//! | [`powersgd`] | PowerSGD \[57\] | low-rank | ring all-reduce |
//! | [`topkc_q`] | **TopKC-Q** (extension, §3.1.2's generalization note) | sparsification + quantization | ring all-reduce |
//! | [`literature`] | QSGD, RandomK | quantization, sparsification | all-gather, ring all-reduce |

pub mod baseline;
pub mod literature;
pub mod powersgd;
pub mod thc;
pub mod topk;
pub mod topkc;
pub mod topkc_q;

pub use baseline::{CommPrecision, PrecisionBaseline};
pub use literature::{Qsgd, RandomK};
pub use powersgd::PowerSgd;
pub use thc::{Thc, ThcAggregation};
pub use topk::TopK;
pub use topkc::TopKC;
pub use topkc_q::TopKCQ;
