//! A statistical model of large-model gradients, for controlled
//! compression-error studies.
//!
//! The paper measures vNMSE on live BERT-large gradients (Tables 4 and 7).
//! We cannot run BERT-large; our mini models train too cleanly (their
//! gradient energy is far more concentrated than a 345 M-parameter model's),
//! so live mini-model vNMSE under-shoots the paper's absolute values. This
//! module provides the documented substitution: gradients drawn from a
//! generative model with the three properties that drive sparsifier
//! behaviour, each independently controllable:
//!
//! 1. **Heavy-tailed energy** — block energies follow a Zipf law
//!    `E_rank ∝ rank^{−a}`. The exponent is calibrated (see
//!    [`GradientModel::bert_like`]) so plain TopK's vNMSE-vs-b curve matches
//!    the paper's Table 7 TopK row; every other number is then a
//!    *prediction* of the model, not a fit.
//! 2. **Spatial locality** — energy is assigned per contiguous block of
//!    [`GradientModel::block`] coordinates (envelope constant within a
//!    block), mirroring how transformer gradients concentrate in embedding
//!    /projection rows. The permutation ablation destroys exactly this.
//! 3. **Worker disagreement** — each worker sees the shared signal plus
//!    private Gaussian noise of relative power
//!    [`GradientModel::worker_noise`], which is what separates local TopK
//!    selections across workers.

use gcs_tensor::rng::SharedSeed;
use rand::Rng;

/// Generative model for per-worker gradients.
#[derive(Clone, Debug)]
pub struct GradientModel {
    /// Gradient dimensionality.
    pub d: usize,
    /// Envelope block length (locality scale), in coordinates.
    pub block: usize,
    /// Zipf exponent of sorted block energies (larger = more concentrated).
    pub zipf_a: f64,
    /// Per-worker noise power relative to the signal power.
    pub worker_noise: f32,
    /// Within-block magnitude spread `w ∈ \[0, 1\]`: coordinate magnitude is
    /// `(1−w) + w·|N(0,1)|` times the block scale. `w = 1` gives fully
    /// Gaussian coordinates (heavy within-block variation, favouring exact
    /// per-coordinate selection); small `w` gives near-uniform magnitudes
    /// inside a block (how energy spreads across a hot embedding row,
    /// favouring block-aligned selection).
    pub magnitude_spread: f32,
}

impl GradientModel {
    /// The BERT-like calibration. The Zipf exponent is tuned so plain
    /// TopK's vNMSE-vs-b curve lands near the paper's Table 7 TopK row
    /// (0.303 / 0.185 / 0.0865 at b = 0.5 / 2 / 8); block 256 puts the
    /// locality scale at embedding-row width (wider than any chunk size the
    /// paper uses); moderate within-block spread and 10% worker noise model
    /// row-level energy sharing and small-batch gradient variance. With
    /// the TopK row fixed, the TopKC and permutation numbers are
    /// *predictions* of the model, not fits.
    pub fn bert_like(d: usize) -> GradientModel {
        GradientModel {
            d,
            block: 256,
            zipf_a: 1.20,
            worker_noise: 0.10,
            magnitude_spread: 0.6,
        }
    }

    /// Generates `n` workers' gradients for a given round seed. All
    /// structure (envelope, signal) is shared; only the noise is private.
    pub fn generate(&self, n_workers: usize, seed: SharedSeed) -> Vec<Vec<f32>> {
        let mut rng = seed.rng();
        let blocks = self.d.div_ceil(self.block);
        // Sorted Zipf energies, then shuffled to random block positions.
        let mut energies: Vec<f64> = (0..blocks)
            .map(|r| ((r + 1) as f64).powf(-self.zipf_a))
            .collect();
        // Fisher-Yates with the shared rng.
        for i in (1..blocks).rev() {
            let j = rng.gen_range(0..=i);
            energies.swap(i, j);
        }
        // Shared signal: per-coordinate magnitude `(1−w) + w·|N(0,1)|`
        // scaled by the block energy, with random sign.
        let w = self.magnitude_spread.clamp(0.0, 1.0);
        let mut signal = Vec::with_capacity(self.d);
        for i in 0..self.d {
            let e = energies[i / self.block];
            let std = (e / self.block as f64).sqrt() as f32;
            let magnitude = (1.0 - w) + w * gaussian(&mut rng).abs();
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            signal.push(std * magnitude * sign);
        }
        let signal_power = gcs_tensor::vector::squared_norm(&signal) / self.d.max(1) as f32;
        let noise_std = (signal_power * self.worker_noise).sqrt();
        (0..n_workers)
            .map(|w| {
                let mut wrng = gcs_tensor::rng::worker_rng(seed.value() ^ 0x6e01, w, 0);
                signal
                    .iter()
                    .map(|&s| s + noise_std * gaussian(&mut wrng))
                    .collect()
            })
            .collect()
    }
}

/// Standard normal via Box-Muller (two uniforms).
fn gaussian(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7f32..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{CompressionScheme, RoundContext};
    use crate::schemes::topk::TopK;
    use crate::schemes::topkc::TopKC;
    use gcs_tensor::vector::{mean, vnmse};

    fn model() -> GradientModel {
        GradientModel::bert_like(1 << 18)
    }

    fn measure(scheme: &mut dyn CompressionScheme, rounds: u64) -> f64 {
        let m = model();
        let mut sum = 0.0;
        for r in 0..rounds {
            let grads = m.generate(4, SharedSeed::new(100 + r));
            let exact = mean(&grads);
            let out = scheme.aggregate_round(&grads, &RoundContext::new(9, r));
            sum += vnmse(&out.mean_estimate, &exact);
        }
        sum / rounds as f64
    }

    #[test]
    fn calibration_matches_paper_topk_row() {
        // The calibration target: TopK vNMSE ~ 0.303 / 0.185 / 0.0865.
        for (b, paper) in [(0.5, 0.303), (2.0, 0.185), (8.0, 0.0865)] {
            let mut topk = TopK::with_bits(b, 4, false);
            let v = measure(&mut topk, 3);
            assert!(
                (v - paper).abs() / paper < 0.35,
                "b={b}: calibrated TopK vNMSE {v} too far from paper {paper}"
            );
        }
    }

    #[test]
    fn topkc_beats_topk_under_the_model() {
        for b in [0.5, 2.0, 8.0] {
            let c = if b < 1.0 { 128 } else { 64 };
            let mut topk = TopK::with_bits(b, 4, false);
            let mut topkc = TopKC::with_bits(b, c, 4, false);
            let v_topk = measure(&mut topk, 3);
            let v_topkc = measure(&mut topkc, 3);
            assert!(
                v_topkc < v_topk,
                "b={b}: TopKC {v_topkc} should beat TopK {v_topk}"
            );
        }
    }

    #[test]
    fn permutation_destroys_locality_advantage() {
        let b = 2.0;
        let mut plain = TopKC::with_bits(b, 64, 4, false);
        let mut permuted = TopKC::with_bits(b, 64, 4, false).with_permutation();
        let v_plain = measure(&mut plain, 3);
        let v_perm = measure(&mut permuted, 3);
        assert!(
            v_perm > 1.5 * v_plain,
            "permuted {v_perm} vs plain {v_plain}"
        );
    }

    #[test]
    fn workers_share_signal_but_differ_in_noise() {
        let m = model();
        let grads = m.generate(2, SharedSeed::new(5));
        assert_ne!(grads[0], grads[1]);
        let dot: f32 = grads[0].iter().zip(&grads[1]).map(|(a, b)| a * b).sum();
        let corr =
            dot / (gcs_tensor::vector::norm(&grads[0]) * gcs_tensor::vector::norm(&grads[1]));
        assert!(corr > 0.8, "workers should be highly correlated: {corr}");
    }
}
