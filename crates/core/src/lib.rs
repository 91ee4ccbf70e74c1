//! # gcs-core
//!
//! The paper's primary contribution: gradient-compression schemes built for
//! **end-to-end utility**, plus the evaluation framework that measures it.
//!
//! ## Schemes ([`schemes`])
//!
//! | family | baseline | the paper's variant |
//! |---|---|---|
//! | none | [`schemes::baseline::PrecisionBaseline`] (FP32 / the stronger FP16) | — |
//! | sparsification | [`schemes::topk::TopK`] (all-gather) | [`schemes::topkc::TopKC`] — chunk-norm consensus, all-reduce compatible (§3.1) |
//! | quantization | [`schemes::thc::Thc`] widened b>q | THC + partial rotation + saturation (§3.2) |
//! | low-rank | [`schemes::powersgd::PowerSgd`] | rank study + orthogonalization profiling (§3.3) |
//! | literature | [`schemes::literature`]: QSGD (`gcs-aggd` tenants), RandomK (`utility_report`) | Table 1 context |
//!
//! Every scheme implements [`scheme::CompressionScheme`]: given all workers'
//! gradients it runs one *distributed* aggregation round through
//! `gcs-collectives`, returning the aggregate estimate every worker ends up
//! with, plus exact traffic and compute-cost accounting. Error feedback
//! ([`ef`]) wraps any scheme.
//!
//! ## Metrics ([`metrics`])
//!
//! The evaluation side of the paper: vNMSE proxies, TTA curves with rolling
//! averages, time-to-target queries, early stopping (Prechelt's GL
//! criterion), and the *utility* score — TTA improvement over the FP16
//! baseline (§1, §2.2).
//!
//! ## Beyond TTA ([`economics`])
//!
//! The paper's §4 future work, implemented: cost-to-accuracy and
//! power-to-accuracy conversions of TTA curves under cloud billing and
//! electrical models.
//!
//! ## Survey ([`survey`])
//!
//! Table 1's assessment of eight prior systems, encoded as data.

pub mod economics;
pub mod ef;
pub mod metrics;
pub mod scheme;
pub mod schemes;
pub mod survey;
pub mod synthetic;

pub use ef::ErrorFeedback;
pub use scheme::{AggregationOutcome, CompressionScheme, RoundContext};
