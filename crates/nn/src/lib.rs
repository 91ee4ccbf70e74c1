//! # gcs-nn
//!
//! A from-scratch neural-network substrate: enough of a deep-learning
//! framework to train real models whose gradients the compression schemes
//! can chew on.
//!
//! The paper trains BERT-large and VGG19; at CPU scale we train shape-
//! preserving miniatures (see `DESIGN.md` for the substitution argument):
//!
//! * [`models::VggMini`] — a small conv net classifying synthetic images
//!   with genuine spatial structure (top-1 accuracy metric).
//! * [`models::BertMini`] — a next-token language model over synthetic
//!   Markov text (perplexity metric).
//!
//! Parameters and gradients live in **arena-backed flat storage**
//! ([`gcs_tensor::ParamArena`]): each [`layers::Sequential`] owns one
//! contiguous parameter arena and one gradient arena that its layers view
//! as slices, so a whole model's gradient *is* one flat slice — exactly the
//! view a gradient-compression system has of a model — and replica sync /
//! optimizer updates are single-pass operations over that slice. Activations
//! live in a third, chunk-sized arena ([`gcs_tensor::ActivationArena`]), so
//! a warm forward/backward pass or evaluation allocates nothing. Backprop
//! correctness is finite-difference checked in the layer tests, and the
//! kernels are pinned bit for bit against per-element oracles in
//! `tests/nn_kernels.rs`.

pub mod attention;
pub mod data;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;

pub use attention::SelfAttention;
pub use data::{Batch, ImageDataset, TextDataset};
pub use layers::{Layer, LayerNorm, ParamSegment, Sequential};
pub use models::{BertMini, Model, TransformerMini, VggMini};
pub use optim::Sgd;
