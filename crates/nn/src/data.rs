//! Synthetic datasets standing in for TinyImageNet and WikiText-103.
//!
//! The paper's TTA experiments need tasks with (a) genuine learning signal,
//! (b) the right *metric* (top-1 accuracy, perplexity), and (c) gradient
//! structure that resembles the real models' — notably the spatial locality
//! TopKC exploits. Both generators are deterministic given a seed.
//!
//! * [`ImageDataset`] — a `classes`-way classification task over
//!   `channels × size × size` images. Each class has a smooth random
//!   template (sum of Gaussian blobs); samples are templates plus pixel
//!   noise. Convolutional gradients on such data exhibit strong spatial
//!   structure.
//! * [`TextDataset`] — a first-order Markov chain over a `vocab`-token
//!   alphabet with a peaked transition matrix; samples are (context window,
//!   next token). A model that learns the transition statistics drives
//!   perplexity from `vocab` down toward the chain's entropy.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A batch of supervised samples: flat inputs plus integer targets.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// `[batch × features]` inputs.
    pub inputs: Vec<f32>,
    /// Per-sample class / token targets.
    pub targets: Vec<usize>,
}

/// Synthetic image classification with spatially structured class
/// templates.
#[derive(Clone, Debug)]
pub struct ImageDataset {
    /// Image side length.
    pub size: usize,
    /// Channels.
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    templates: Vec<Vec<f32>>,
    noise: f32,
    seed: u64,
}

impl ImageDataset {
    /// Creates the dataset.
    pub fn new(
        size: usize,
        channels: usize,
        classes: usize,
        noise: f32,
        seed: u64,
    ) -> ImageDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = channels * size * size;
        // Smooth random field as a sum of Gaussian blobs.
        let mut blob_field = |amp_scale: f32, blobs: usize| -> Vec<f32> {
            let mut t = vec![0.0f32; dim];
            for c in 0..channels {
                for _ in 0..blobs {
                    let cy = rng.gen_range(0.0..size as f32);
                    let cx = rng.gen_range(0.0..size as f32);
                    let amp = rng.gen_range(0.5..1.5f32)
                        * amp_scale
                        * if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    let sigma = rng.gen_range(1.0..(size as f32 / 3.0));
                    for y in 0..size {
                        for x in 0..size {
                            let d2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                            t[(c * size + y) * size + x] +=
                                amp * (-d2 / (2.0 * sigma * sigma)).exp();
                        }
                    }
                }
            }
            t
        };
        // Classes share a strong common background and differ only by a
        // weaker class-specific detail field — so the task is genuinely
        // hard (classes are confusable under pixel noise) the way natural
        // image classes are, rather than trivially separable prototypes.
        let base = blob_field(1.0, 3);
        let templates = (0..classes)
            .map(|_| {
                let detail = blob_field(0.4, 3);
                base.iter().zip(&detail).map(|(b, d)| b + d).collect()
            })
            .collect();
        ImageDataset {
            size,
            channels,
            classes,
            templates,
            noise,
            seed,
        }
    }

    /// Input features per sample.
    pub fn feature_dim(&self) -> usize {
        self.channels * self.size * self.size
    }

    /// Samples a batch with the given RNG stream id (worker/round scoped)
    /// into `out`, reusing its buffers.
    pub fn sample_into(&self, batch: usize, stream: u64, out: &mut Batch) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let Batch { inputs, targets } = out;
        inputs.clear();
        targets.clear();
        for _ in 0..batch {
            let class = rng.gen_range(0..self.classes);
            targets.push(class);
            let t = &self.templates[class];
            // Per-sample augmentation: random circular shift and amplitude
            // jitter, then pixel noise — intra-class variance that makes the
            // task a learning problem rather than prototype matching.
            let dy = rng.gen_range(0..self.size);
            let dx = rng.gen_range(0..self.size / 2);
            let gain = rng.gen_range(0.8..1.2f32);
            for c in 0..self.channels {
                for y in 0..self.size {
                    for x in 0..self.size {
                        let sy = (y + dy) % self.size;
                        let sx = (x + dx) % self.size;
                        let v = t[(c * self.size + sy) * self.size + sx];
                        inputs.push(v * gain + rng.gen_range(-self.noise..self.noise));
                    }
                }
            }
        }
    }

    /// A fixed held-out evaluation batch.
    pub fn eval_batch(&self, batch: usize) -> Batch {
        let mut out = Batch::default();
        self.sample_into(batch, u64::MAX / 2, &mut out);
        out
    }
}

/// Markov-chain language modelling.
#[derive(Clone, Debug)]
pub struct TextDataset {
    /// Vocabulary size.
    pub vocab: usize,
    /// Context window length.
    pub context: usize,
    /// Row-stochastic transition matrix, `[vocab × vocab]`.
    transitions: Vec<f32>,
    seed: u64,
}

impl TextDataset {
    /// Creates a chain whose rows are peaked on `peak` preferred successors
    /// (lower `peak` → lower entropy → lower achievable perplexity).
    ///
    /// Heavy successors are drawn preferentially from a small **hub** set
    /// (one eighth of the vocabulary), giving the token distribution the
    /// Zipf-like skew of natural text. This matters for gradient structure:
    /// frequent tokens concentrate embedding/output-layer gradient energy
    /// in a few contiguous rows — the spatial locality real language-model
    /// gradients exhibit (and that TopKC exploits, paper §3.1.2/Table 4).
    pub fn new(vocab: usize, context: usize, peak: usize, seed: u64) -> TextDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let hubs = (vocab / 16).max(2);
        let mut transitions = vec![0.0f32; vocab * vocab];
        for r in 0..vocab {
            let row = &mut transitions[r * vocab..(r + 1) * vocab];
            // Background mass + a few heavy successors, mostly hubs.
            for v in row.iter_mut() {
                *v = rng.gen_range(0.001..0.004);
            }
            for _ in 0..peak.max(1) {
                let succ = if rng.gen::<f32>() < 0.8 {
                    rng.gen_range(0..hubs)
                } else {
                    rng.gen_range(0..vocab)
                };
                row[succ] += rng.gen_range(0.5f32..1.5);
            }
            let sum: f32 = row.iter().sum();
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        TextDataset {
            vocab,
            context,
            transitions,
            seed,
        }
    }

    fn step(&self, state: usize, rng: &mut StdRng) -> usize {
        let row = &self.transitions[state * self.vocab..(state + 1) * self.vocab];
        let mut u: f32 = rng.gen();
        for (i, &p) in row.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return i;
            }
        }
        self.vocab - 1
    }

    /// Samples a batch of (context, next-token) pairs into `out`, reusing
    /// its buffers. Inputs are token ids encoded as f32 for the
    /// [`crate::layers::Embedding`] layer.
    pub fn sample_into(&self, batch: usize, stream: u64, out: &mut Batch) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let Batch { inputs, targets } = out;
        inputs.clear();
        targets.clear();
        for _ in 0..batch {
            let mut state = rng.gen_range(0..self.vocab);
            for _ in 0..self.context {
                inputs.push(state as f32);
                state = self.step(state, &mut rng);
            }
            targets.push(state);
        }
    }

    /// A fixed held-out evaluation batch.
    pub fn eval_batch(&self, batch: usize) -> Batch {
        let mut out = Batch::default();
        self.sample_into(batch, u64::MAX / 2, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_batch(d: &ImageDataset, batch: usize, stream: u64) -> Batch {
        let mut out = Batch::default();
        d.sample_into(batch, stream, &mut out);
        out
    }

    fn text_batch(d: &TextDataset, batch: usize, stream: u64) -> Batch {
        let mut out = Batch::default();
        d.sample_into(batch, stream, &mut out);
        out
    }

    #[test]
    fn image_dataset_is_deterministic() {
        let d = ImageDataset::new(8, 2, 4, 0.1, 7);
        let a = image_batch(&d, 5, 3);
        let b = image_batch(&d, 5, 3);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.targets, b.targets);
        let c = image_batch(&d, 5, 4);
        assert_ne!(a.targets, c.targets);
        // A reused, longer batch holds exactly the new sample.
        let mut reused = image_batch(&d, 7, 4);
        d.sample_into(5, 3, &mut reused);
        assert_eq!((&reused.inputs, &reused.targets), (&a.inputs, &a.targets));
    }

    #[test]
    fn image_classes_are_separable_by_shifted_template_matching() {
        let size = 8usize;
        let d = ImageDataset::new(size, 1, 3, 0.05, 9);
        let batch = image_batch(&d, 30, 1);
        let dim = d.feature_dim();
        // Best match over all circular shifts and a small gain grid must be
        // the labelled class (the augmentation preserves class identity).
        let mut correct = 0;
        for (s, &t) in batch.targets.iter().enumerate() {
            let x = &batch.inputs[s * dim..(s + 1) * dim];
            let mut best = (f32::INFINITY, 0usize);
            for (k, tmpl) in d.templates.iter().enumerate() {
                for dy in 0..size {
                    for dx in 0..size {
                        for gain in [0.8f32, 1.0, 1.2] {
                            let mut dist = 0.0f32;
                            for y in 0..size {
                                for xx in 0..size {
                                    let sy = (y + dy) % size;
                                    let sx = (xx + dx) % size;
                                    let v = tmpl[sy * size + sx] * gain;
                                    dist += (x[y * size + xx] - v).powi(2);
                                }
                            }
                            if dist < best.0 {
                                best = (dist, k);
                            }
                        }
                    }
                }
            }
            correct += usize::from(best.1 == t);
        }
        assert!(correct >= 27, "only {correct}/30 matched their class");
    }

    #[test]
    fn images_have_spatial_smoothness() {
        // Adjacent pixels of a template correlate far more than distant
        // ones — the locality property TopKC's evaluation needs.
        let d = ImageDataset::new(16, 1, 2, 0.0, 11);
        let t = &d.templates[0];
        let mut adj_diff = 0.0f32;
        let mut far_diff = 0.0f32;
        let n = 15 * 16;
        for y in 0..16 {
            for x in 0..15 {
                adj_diff += (t[y * 16 + x] - t[y * 16 + x + 1]).abs();
                far_diff += (t[y * 16 + x] - t[(15 - y) * 16 + (14 - x)]).abs();
            }
        }
        assert!(
            adj_diff / n as f32 * 3.0 < far_diff / n as f32 + 0.3,
            "adjacent {adj_diff} vs far {far_diff}"
        );
    }

    #[test]
    fn markov_chain_rows_are_stochastic() {
        let d = TextDataset::new(16, 4, 2, 5);
        for r in 0..16 {
            let s: f32 = d.transitions[r * 16..(r + 1) * 16].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn text_samples_respect_shapes() {
        let d = TextDataset::new(16, 6, 2, 5);
        let b = text_batch(&d, 9, 2);
        assert_eq!(b.inputs.len(), 9 * 6);
        assert_eq!(b.targets.len(), 9);
        assert!(b.inputs.iter().all(|&t| (t as usize) < 16));
        assert!(b.targets.iter().all(|&t| t < 16));
    }

    #[test]
    fn peaked_chain_is_predictable() {
        // With peak=1 most transitions go to a single successor: verify the
        // empirical conditional mode probability is high.
        let d = TextDataset::new(8, 1, 1, 13);
        let b = text_batch(&d, 4000, 1);
        let mut counts = vec![vec![0u32; 8]; 8];
        for (s, &t) in b.targets.iter().enumerate() {
            counts[b.inputs[s] as usize][t] += 1;
        }
        let mut mode_mass = 0.0;
        let mut total = 0.0;
        for row in counts {
            let sum: u32 = row.iter().sum();
            if sum == 0 {
                continue;
            }
            mode_mass += *row.iter().max().unwrap() as f64;
            total += sum as f64;
        }
        assert!(mode_mass / total > 0.4, "chain not peaked enough");
    }
}
