//! The two miniature training tasks mirroring the paper's workloads.
//!
//! | paper | here | metric |
//! |---|---|---|
//! | VGG19 on TinyImageNet | [`VggMini`]: conv-conv-pool CNN on [`ImageDataset`] | top-1 accuracy |
//! | BERT-large MLM on WikiText-103 | [`BertMini`]: embedding-MLP LM on [`TextDataset`] | perplexity |
//!
//! Both expose the [`Model`] interface the DDP engine drives: compute a
//! gradient on a batch, read/apply flat parameter vectors, evaluate the task
//! metric. Gradient *shape* matters more than model scale here — the conv
//! layers give the spatially structured gradients sparsification cares
//! about, and the embedding + dense stack gives the heavy-tailed gradients
//! quantization cares about.

use crate::data::{Batch, ImageDataset, TextDataset};
use crate::layers::{Conv3x3, Dense, Embedding, Layer, LayerNorm, MaxPool2, Relu, Sequential};
use crate::loss::{perplexity, softmax_cross_entropy, top1_accuracy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trainable model with flat parameter access and a task metric.
pub trait Model {
    /// Human-readable task name.
    fn name(&self) -> &'static str;

    /// Total parameter count (the gradient dimension `d`).
    fn param_count(&self) -> usize;

    /// Computes the mean loss and its gradient on `batch`, leaving the
    /// gradient readable via [`Model::grads_flat`].
    fn forward_backward(&mut self, batch: &Batch) -> f32;

    /// The whole-model gradient from the last [`Model::forward_backward`]
    /// as one contiguous arena slice (no copy).
    fn grads_flat(&self) -> &[f32];

    /// The whole-model parameters as one contiguous arena slice (no copy).
    fn params_flat(&self) -> &[f32];

    /// Mutable whole-model parameter slice for in-place optimizer updates
    /// and `copy_from_slice` replica sync.
    fn params_flat_mut(&mut self) -> &mut [f32];

    /// Overwrites the flat parameters (one `copy_from_slice`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    fn set_flat_params(&mut self, params: &[f32]) {
        let p = self.params_flat_mut();
        assert_eq!(params.len(), p.len(), "set_flat_params: size");
        p.copy_from_slice(params);
    }

    /// Evaluates the task metric on a held-out batch. Higher-is-better is
    /// reported by [`Model::higher_is_better`].
    fn evaluate(&mut self) -> f64;

    /// Direction of [`Model::evaluate`]'s metric.
    fn higher_is_better(&self) -> bool;

    /// Weight-matrix shapes for low-rank compression.
    fn matrix_shapes(&self) -> Vec<(usize, usize)>;

    /// Samples the training batch for `(worker, round)` into `out`,
    /// reusing its buffers (a caller that keeps `out` across rounds
    /// allocates nothing once it has grown).
    fn train_batch_into(&self, batch_size: usize, worker: usize, round: u64, out: &mut Batch);

    /// [`Model::train_batch_into`] into a new batch.
    fn train_batch(&self, batch_size: usize, worker: usize, round: u64) -> Batch {
        let mut batch = Batch::default();
        self.train_batch_into(batch_size, worker, round, &mut batch);
        batch
    }

    /// Deep copy of the model for parallel per-worker gradient computation
    /// (parameters, optimizer-visible state, dataset — everything a worker
    /// replica needs). Models that cannot be replicated return `None` and
    /// the training loop falls back to its sequential path.
    fn clone_boxed(&self) -> Option<Box<dyn Model + Send>> {
        None
    }
}

/// The CNN miniature of VGG19/TinyImageNet.
#[derive(Clone)]
pub struct VggMini {
    net: Sequential,
    dataset: ImageDataset,
    classes: usize,
    eval_batch: Batch,
    /// The held-out batch's logits — the only evaluation-sized buffer.
    eval_logits: Vec<f32>,
}

impl VggMini {
    /// Builds the model and its dataset from a seed.
    pub fn new(seed: u64) -> VggMini {
        let mut rng = StdRng::seed_from_u64(seed);
        let size = 16usize;
        let channels = 3usize;
        let classes = 10usize;
        let layers = vec![
            Box::new(Conv3x3::new(channels, 16, size, size, &mut rng)) as Box<dyn Layer + Send>,
            Box::new(Relu::new()),
            Box::new(MaxPool2::new(16, size, size)),
            Box::new(Conv3x3::new(16, 32, size / 2, size / 2, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new(32, size / 2, size / 2)),
            Box::new(Dense::new(32 * (size / 4) * (size / 4), 128, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(128, classes, &mut rng)),
        ];
        let net = Sequential::new(channels * size * size, layers);
        let dataset = ImageDataset::new(size, channels, classes, 1.2, seed ^ 0xDA7A);
        let eval_batch = dataset.eval_batch(160);
        VggMini {
            net,
            dataset,
            classes,
            eval_logits: vec![0.0; eval_batch.targets.len() * classes],
            eval_batch,
        }
    }

    /// The underlying network, exposing the parameter/gradient arenas
    /// (layer offsets, per-layer views) for layout-sensitive callers.
    pub fn net(&self) -> &Sequential {
        &self.net
    }
}

impl Model for VggMini {
    fn name(&self) -> &'static str {
        "VggMini"
    }
    fn param_count(&self) -> usize {
        self.net.param_count()
    }
    fn forward_backward(&mut self, batch: &Batch) -> f32 {
        self.net.softmax_loss_grad(batch)
    }
    fn grads_flat(&self) -> &[f32] {
        self.net.grads_flat()
    }
    fn params_flat(&self) -> &[f32] {
        self.net.params_flat()
    }
    fn params_flat_mut(&mut self) -> &mut [f32] {
        self.net.params_flat_mut()
    }
    fn evaluate(&mut self) -> f64 {
        let Batch { inputs, targets } = &self.eval_batch;
        self.net
            .predict_into(inputs, targets.len(), &mut self.eval_logits);
        top1_accuracy(&self.eval_logits, targets, self.classes)
    }
    fn higher_is_better(&self) -> bool {
        true
    }
    fn matrix_shapes(&self) -> Vec<(usize, usize)> {
        self.net.matrix_shapes()
    }
    fn train_batch_into(&self, batch_size: usize, worker: usize, round: u64, out: &mut Batch) {
        self.dataset
            .sample_into(batch_size, (worker as u64) << 40 | round, out);
    }
    fn clone_boxed(&self) -> Option<Box<dyn Model + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// The language-model miniature of BERT-large/WikiText-103 (next-token
/// prediction over synthetic Markov text; metric: perplexity).
#[derive(Clone)]
pub struct BertMini {
    net: Sequential,
    dataset: TextDataset,
    vocab: usize,
    eval_batch: Batch,
    /// The held-out batch's logits — the only evaluation-sized buffer.
    eval_logits: Vec<f32>,
}

impl BertMini {
    /// Builds the model and dataset from a seed.
    ///
    /// Proportions mirror BERT: a large token-indexed embedding table and a
    /// token-indexed output projection hold a substantial share of the
    /// parameters, with rows wider than TopKC's chunk size — the structural
    /// source of the spatial locality the paper measures (Table 4).
    pub fn new(seed: u64) -> BertMini {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = 256usize;
        let ctx = 4usize;
        let dim = 128usize;
        let hidden = 128usize;
        let layers = vec![
            Box::new(Embedding::new(vocab, dim, ctx, &mut rng)) as Box<dyn Layer + Send>,
            Box::new(Dense::new(ctx * dim, hidden, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(hidden, hidden, &mut rng)),
            Box::new(Relu::new()),
            Box::new(LayerNorm::new(hidden)),
            Box::new(Dense::new(hidden, vocab, &mut rng)),
        ];
        let net = Sequential::new(ctx, layers);
        let dataset = TextDataset::new(vocab, ctx, 3, seed ^ 0x7E57);
        let eval_batch = dataset.eval_batch(512);
        BertMini {
            net,
            dataset,
            vocab,
            eval_logits: vec![0.0; eval_batch.targets.len() * vocab],
            eval_batch,
        }
    }

    /// The underlying network, exposing the parameter/gradient arenas
    /// (layer offsets, per-layer views) for layout-sensitive callers.
    pub fn net(&self) -> &Sequential {
        &self.net
    }
}

impl Model for BertMini {
    fn name(&self) -> &'static str {
        "BertMini"
    }
    fn param_count(&self) -> usize {
        self.net.param_count()
    }
    fn forward_backward(&mut self, batch: &Batch) -> f32 {
        self.net.softmax_loss_grad(batch)
    }
    fn grads_flat(&self) -> &[f32] {
        self.net.grads_flat()
    }
    fn params_flat(&self) -> &[f32] {
        self.net.params_flat()
    }
    fn params_flat_mut(&mut self) -> &mut [f32] {
        self.net.params_flat_mut()
    }
    fn evaluate(&mut self) -> f64 {
        let Batch { inputs, targets } = &self.eval_batch;
        self.net
            .predict_into(inputs, targets.len(), &mut self.eval_logits);
        let loss = softmax_cross_entropy(&self.eval_logits, targets, self.vocab, None);
        perplexity(loss as f64)
    }
    fn higher_is_better(&self) -> bool {
        false
    }
    fn matrix_shapes(&self) -> Vec<(usize, usize)> {
        self.net.matrix_shapes()
    }
    fn train_batch_into(&self, batch_size: usize, worker: usize, round: u64, out: &mut Batch) {
        self.dataset
            .sample_into(batch_size, (worker as u64) << 40 | round, out);
    }
    fn clone_boxed(&self) -> Option<Box<dyn Model + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// A genuinely transformer-shaped miniature: embedding -> self-attention ->
/// LayerNorm -> feed-forward -> vocabulary projection, on the same
/// Markov-text task as [`BertMini`]. Slower per round than the MLP
/// (attention is O(s^2 d)) but structurally closest to the paper's BERT
/// workload; used by the transformer example and available everywhere.
#[derive(Clone)]
pub struct TransformerMini {
    net: Sequential,
    dataset: TextDataset,
    vocab: usize,
    eval_batch: Batch,
    /// The held-out batch's logits — the only evaluation-sized buffer.
    eval_logits: Vec<f32>,
}

impl TransformerMini {
    /// Builds the model and dataset from a seed.
    pub fn new(seed: u64) -> TransformerMini {
        use crate::attention::SelfAttention;
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = 128usize;
        let ctx = 8usize;
        let dim = 32usize;
        let hidden = 128usize;
        let layers = vec![
            Box::new(Embedding::new(vocab, dim, ctx, &mut rng)) as Box<dyn Layer + Send>,
            Box::new(SelfAttention::new(ctx, dim, &mut rng)),
            Box::new(LayerNorm::new(ctx * dim)),
            Box::new(Dense::new(ctx * dim, hidden, &mut rng)),
            Box::new(Relu::new()),
            Box::new(LayerNorm::new(hidden)),
            Box::new(Dense::new(hidden, vocab, &mut rng)),
        ];
        let net = Sequential::new(ctx, layers);
        let dataset = TextDataset::new(vocab, ctx, 3, seed ^ 0xA77);
        let eval_batch = dataset.eval_batch(160);
        TransformerMini {
            net,
            dataset,
            vocab,
            eval_logits: vec![0.0; eval_batch.targets.len() * vocab],
            eval_batch,
        }
    }
}

impl Model for TransformerMini {
    fn name(&self) -> &'static str {
        "TransformerMini"
    }
    fn param_count(&self) -> usize {
        self.net.param_count()
    }
    fn forward_backward(&mut self, batch: &Batch) -> f32 {
        self.net.softmax_loss_grad(batch)
    }
    fn grads_flat(&self) -> &[f32] {
        self.net.grads_flat()
    }
    fn params_flat(&self) -> &[f32] {
        self.net.params_flat()
    }
    fn params_flat_mut(&mut self) -> &mut [f32] {
        self.net.params_flat_mut()
    }
    fn evaluate(&mut self) -> f64 {
        let Batch { inputs, targets } = &self.eval_batch;
        self.net
            .predict_into(inputs, targets.len(), &mut self.eval_logits);
        let loss = softmax_cross_entropy(&self.eval_logits, targets, self.vocab, None);
        perplexity(loss as f64)
    }
    fn higher_is_better(&self) -> bool {
        false
    }
    fn matrix_shapes(&self) -> Vec<(usize, usize)> {
        self.net.matrix_shapes()
    }
    fn train_batch_into(&self, batch_size: usize, worker: usize, round: u64, out: &mut Batch) {
        self.dataset
            .sample_into(batch_size, (worker as u64) << 40 | round, out);
    }
    fn clone_boxed(&self) -> Option<Box<dyn Model + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    #[test]
    fn transformer_mini_learns() {
        let mut m = TransformerMini::new(9);
        let before = m.evaluate();
        let mut opt = Sgd::new(0.05, 0.0, 0.0);
        for round in 0..150 {
            let b = m.train_batch(32, 0, round);
            m.forward_backward(&b);
            let g = m.grads_flat().to_vec();
            opt.step_into(m.params_flat_mut(), &g);
        }
        let after = m.evaluate();
        assert!(
            after < before * 0.8,
            "transformer perplexity {before} -> {after}"
        );
        // Attention contributes 4 dim x dim matrices to the shape list.
        assert!(
            m.matrix_shapes()
                .iter()
                .filter(|&&(r, c)| r == 32 && c == 32)
                .count()
                >= 4
        );
    }

    #[test]
    fn vgg_mini_has_tens_of_thousands_of_params() {
        let m = VggMini::new(1);
        let d = m.param_count();
        assert!(d > 50_000 && d < 200_000, "d = {d}");
        assert!(!m.matrix_shapes().is_empty());
    }

    #[test]
    fn bert_mini_param_count_and_shapes() {
        let m = BertMini::new(1);
        let d = m.param_count();
        assert!(d > 80_000 && d < 250_000, "d = {d}");
        // vocab embedding is the first matrix.
        assert_eq!(m.matrix_shapes()[0], (256, 128));
    }

    #[test]
    fn vgg_mini_learns_above_chance_quickly() {
        let mut m = VggMini::new(3);
        let before = m.evaluate();
        let mut opt = Sgd::new(0.02, 0.0, 0.0);
        for round in 0..250 {
            let b = m.train_batch(32, 0, round);
            m.forward_backward(&b);
            let g = m.grads_flat().to_vec();
            opt.step_into(m.params_flat_mut(), &g);
        }
        let after = m.evaluate();
        assert!(
            after > before + 0.15 && after > 0.3,
            "accuracy {before} -> {after}"
        );
    }

    #[test]
    fn bert_mini_perplexity_decreases() {
        let mut m = BertMini::new(4);
        let before = m.evaluate();
        assert!(before > 100.0, "initial ppl ~ vocab, got {before}");
        let mut opt = Sgd::new(0.02, 0.0, 0.0);
        for round in 0..400 {
            let b = m.train_batch(64, 0, round);
            m.forward_backward(&b);
            let g = m.grads_flat().to_vec();
            opt.step_into(m.params_flat_mut(), &g);
        }
        let after = m.evaluate();
        assert!(after < before * 0.6, "perplexity {before} -> {after}");
    }

    #[test]
    fn gradients_are_deterministic_given_params_and_batch() {
        let mut m1 = BertMini::new(5);
        let mut m2 = BertMini::new(5);
        let b = m1.train_batch(8, 1, 3);
        m1.forward_backward(&b);
        m2.forward_backward(&b);
        assert_eq!(m1.grads_flat(), m2.grads_flat());
    }

    #[test]
    fn flat_param_round_trip() {
        let mut m = VggMini::new(6);
        let p = m.params_flat().to_vec();
        let mut p2 = p.clone();
        p2[10] += 1.0;
        m.set_flat_params(&p2);
        assert_eq!(m.params_flat()[10], p[10] + 1.0);
    }
}
