//! Single-head self-attention with full hand-written backprop.
//!
//! Included so the substrate can express transformer-shaped models (the
//! paper's BERT-large workload class), not just MLPs: attention's gradient
//! structure — Q/K/V projection matrices whose rows light up for attended
//! positions — is part of what makes transformer gradients chunk-friendly.
//! The backward pass is finite-difference checked like every other layer.

use crate::layers::{Layer, ParamSegment};

/// Single-head scaled dot-product self-attention over a sequence.
///
/// Input: `[batch × (seq · dim)]` (concatenated token embeddings);
/// output: same shape. Parameters: square Q/K/V/O projections (`dim×dim`
/// each, no biases), viewed as this layer's slice of the model arena.
#[derive(Clone)]
pub struct SelfAttention {
    seq: usize,
    dim: usize,
    /// Initial `[Wq | Wk | Wv | Wo]`, each `dim × dim` row-major; consumed
    /// into the arena by `Sequential::new`.
    init: Vec<f32>,
    // What backward needs of the forward pass beyond the layer's input and
    // output; sized by the largest batch seen and reused.
    cached_q: Vec<f32>,
    cached_k: Vec<f32>,
    cached_v: Vec<f32>,
    cached_attn: Vec<f32>,
    cached_ctx: Vec<f32>,
    // Backward's per-sample scratch (`5·seq·dim` and `2·seq²`), sized on
    // first use and zeroed for each sample.
    per_token: Vec<f32>,
    per_pair: Vec<f32>,
}

/// `out[t] = W x[t]` for every token (`x`: `[seq × d]`, `w`: `[d × d]`).
fn project(w: &[f32], x: &[f32], out: &mut [f32], d: usize) {
    for (xi, oi) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        for (o, row) in oi.iter_mut().zip(w.chunks_exact(d)) {
            *o = row.iter().zip(xi).map(|(a, b)| a * b).sum();
        }
    }
}

/// Accumulates `dW += dy[t] ⊗ x[t]` and `dx[t] += Wᵀ dy[t]`.
fn project_backward(w: &[f32], x: &[f32], dy: &[f32], dx: &mut [f32], dw: &mut [f32], d: usize) {
    for ((xi, dyi), dxi) in x
        .chunks_exact(d)
        .zip(dy.chunks_exact(d))
        .zip(dx.chunks_exact_mut(d))
    {
        for (r, &g) in dyi.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            for c in 0..d {
                dw[r * d + c] += g * xi[c];
                dxi[c] += g * w[r * d + c];
            }
        }
    }
}

impl SelfAttention {
    /// Creates the layer for sequences of `seq` tokens of `dim` features.
    pub fn new(seq: usize, dim: usize, rng: &mut impl rand::Rng) -> SelfAttention {
        let bound = (3.0 / dim as f32).sqrt();
        let init: Vec<f32> = (0..4 * dim * dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        SelfAttention {
            seq,
            dim,
            init,
            cached_q: Vec::new(),
            cached_k: Vec::new(),
            cached_v: Vec::new(),
            cached_attn: Vec::new(),
            cached_ctx: Vec::new(),
            per_token: Vec::new(),
            per_pair: Vec::new(),
        }
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, input: &[f32], output: &mut [f32], params: &[f32]) {
        let (s, d) = (self.seq, self.dim);
        let sample = s * d;
        assert!(
            sample > 0 && input.len().is_multiple_of(sample),
            "SelfAttention: bad input"
        );
        assert_eq!(output.len(), input.len(), "SelfAttention: bad output");
        let batch = input.len() / sample;
        for cache in [
            &mut self.cached_q,
            &mut self.cached_k,
            &mut self.cached_v,
            &mut self.cached_ctx,
        ] {
            cache.resize(batch * sample, 0.0);
        }
        self.cached_attn.resize(batch * s * s, 0.0);
        let (wq, rest) = params.split_at(d * d);
        let (wk, rest) = rest.split_at(d * d);
        let (wv, wo) = rest.split_at(d * d);
        let scale = 1.0 / (d as f32).sqrt();
        for (b, (x, out)) in input
            .chunks_exact(sample)
            .zip(output.chunks_exact_mut(sample))
            .enumerate()
        {
            let at = b * sample..(b + 1) * sample;
            let q = &mut self.cached_q[at.clone()];
            let k = &mut self.cached_k[at.clone()];
            let v = &mut self.cached_v[at.clone()];
            project(wq, x, q, d);
            project(wk, x, k, d);
            project(wv, x, v, d);
            // Attention weights: softmax over keys per query.
            let attn = &mut self.cached_attn[b * s * s..(b + 1) * s * s];
            for (qi, arow) in q.chunks_exact(d).zip(attn.chunks_exact_mut(s)) {
                for (a, kj) in arow.iter_mut().zip(k.chunks_exact(d)) {
                    *a = qi.iter().zip(kj).map(|(a, c)| a * c).sum::<f32>() * scale;
                }
                let max = arow.iter().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
                for a in arow.iter_mut() {
                    *a = (*a - max).exp();
                }
                let sum: f32 = arow.iter().sum();
                for a in arow.iter_mut() {
                    *a /= sum;
                }
            }
            // Context: ctx[i] = Σ_j a[i][j] v[j]; output = Wo ctx.
            let ctx = &mut self.cached_ctx[at];
            ctx.fill(0.0);
            for (ci, arow) in ctx.chunks_exact_mut(d).zip(attn.chunks_exact(s)) {
                for (&a, vj) in arow.iter().zip(v.chunks_exact(d)) {
                    for (c, vv) in ci.iter_mut().zip(vj) {
                        *c += a * vv;
                    }
                }
            }
            project(wo, ctx, out, d);
        }
    }

    fn backward(
        &mut self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        params: &[f32],
        grads: &mut [f32],
        mut grad_in: Option<&mut [f32]>,
    ) {
        let (s, d) = (self.seq, self.dim);
        let sample = s * d;
        let scale = 1.0 / (d as f32).sqrt();
        let (wq, rest) = params.split_at(d * d);
        let (wk, rest) = rest.split_at(d * d);
        let (wv, wo) = rest.split_at(d * d);
        grads.fill(0.0);
        let (dwq, rest) = grads.split_at_mut(d * d);
        let (dwk, rest) = rest.split_at_mut(d * d);
        let (dwv, dwo) = rest.split_at_mut(d * d);
        self.per_token.resize(5 * sample, 0.0);
        self.per_pair.resize(2 * s * s, 0.0);
        for (b, (x, dy)) in input
            .chunks_exact(sample)
            .zip(grad_out.chunks_exact(sample))
            .enumerate()
        {
            let at = b * sample..(b + 1) * sample;
            let (q, k, v) = (
                &self.cached_q[at.clone()],
                &self.cached_k[at.clone()],
                &self.cached_v[at.clone()],
            );
            let ctx = &self.cached_ctx[at.clone()];
            let attn = &self.cached_attn[b * s * s..(b + 1) * s * s];
            self.per_token.fill(0.0);
            self.per_pair.fill(0.0);
            let (dctx, rest) = self.per_token.split_at_mut(sample);
            let (dv, rest) = rest.split_at_mut(sample);
            let (dq, rest) = rest.split_at_mut(sample);
            let (dk, dx) = rest.split_at_mut(sample);
            let (da, dlogits) = self.per_pair.split_at_mut(s * s);

            // Through Wo.
            project_backward(wo, ctx, dy, dctx, dwo, d);

            // Through the attention mix: dV and dA.
            for i in 0..s {
                for j in 0..s {
                    let a = attn[i * s + j];
                    let mut dot = 0.0f32;
                    for c in 0..d {
                        dv[j * d + c] += a * dctx[i * d + c];
                        dot += dctx[i * d + c] * v[j * d + c];
                    }
                    da[i * s + j] = dot;
                }
            }
            // Softmax backward per query row.
            for i in 0..s {
                let arow = &attn[i * s..(i + 1) * s];
                let darow = &da[i * s..(i + 1) * s];
                let inner: f32 = arow.iter().zip(darow).map(|(a, g)| a * g).sum();
                for j in 0..s {
                    dlogits[i * s + j] = arow[j] * (darow[j] - inner);
                }
            }
            // Through Q·Kᵀ.
            for i in 0..s {
                for j in 0..s {
                    let g = dlogits[i * s + j] * scale;
                    if g == 0.0 {
                        continue;
                    }
                    for c in 0..d {
                        dq[i * d + c] += g * k[j * d + c];
                        dk[j * d + c] += g * q[i * d + c];
                    }
                }
            }
            // Through the Q/K/V projections into dX.
            project_backward(wq, x, dq, dx, dwq, d);
            project_backward(wk, x, dk, dx, dwk, d);
            project_backward(wv, x, dv, dx, dwv, d);
            if let Some(gin) = grad_in.as_deref_mut() {
                gin[at].copy_from_slice(dx);
            }
        }
    }

    fn param_len(&self) -> usize {
        4 * self.dim * self.dim
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }
    fn layout(&self) -> Vec<ParamSegment> {
        (0..4)
            .map(|_| ParamSegment::Matrix {
                rows: self.dim,
                cols: self.dim,
            })
            .collect()
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testing::{backward, forward, half_sq_loss};
    use rand::SeedableRng;

    #[test]
    fn output_shape_and_attention_rows_sum_to_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut layer = SelfAttention::new(3, 4, &mut rng);
        let params = layer.take_init();
        let input: Vec<f32> = (0..2 * 12).map(|i| (i as f32 * 0.3).sin()).collect();
        let out = forward(&mut layer, &input, 2, &params);
        assert_eq!(out.len(), 24);
        for b in 0..2 {
            for i in 0..3 {
                let row_sum: f32 = (0..3).map(|j| layer.cached_attn[(b * 3 + i) * 3 + j]).sum();
                assert!((row_sum - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn parameter_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut layer = SelfAttention::new(3, 4, &mut rng);
        let mut params = layer.take_init();
        let mut grads = vec![0.0f32; params.len()];
        let input: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).cos()).collect();
        // Loss = 0.5 sum(out^2).
        let out = forward(&mut layer, &input, 1, &params);
        backward(&mut layer, &input, &out, &out, &params, &mut grads);
        let eps = 1e-3f32;
        let n = params.len();
        for pi in (0..n).step_by(7) {
            let orig = params[pi];
            params[pi] = orig + eps;
            let lp = half_sq_loss(&mut layer, &input, 1, &params);
            params[pi] = orig - eps;
            let lm = half_sq_loss(&mut layer, &input, 1, &params);
            params[pi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = grads[pi].abs().max(numeric.abs()).max(0.5);
            assert!(
                (grads[pi] - numeric).abs() / denom < 3e-2,
                "param {pi}: analytic {} vs numeric {numeric}",
                grads[pi]
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut layer = SelfAttention::new(2, 3, &mut rng);
        let params = layer.take_init();
        let mut grads = vec![0.0f32; params.len()];
        let input: Vec<f32> = (0..6).map(|i| (i as f32 * 1.1).sin()).collect();
        let out = forward(&mut layer, &input, 1, &params);
        let gin = backward(&mut layer, &input, &out, &out, &params, &mut grads);
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut ip = input.clone();
            ip[i] += eps;
            let lp = half_sq_loss(&mut layer, &ip, 1, &params);
            let mut im = input.clone();
            im[i] -= eps;
            let lm = half_sq_loss(&mut layer, &im, 1, &params);
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = gin[i].abs().max(numeric.abs()).max(0.5);
            assert!(
                (gin[i] - numeric).abs() / denom < 3e-2,
                "input {i}: {} vs {numeric}",
                gin[i]
            );
        }
    }

    #[test]
    fn layout_exposes_four_square_matrices() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let layer = SelfAttention::new(4, 8, &mut rng);
        let layout = layer.layout();
        assert_eq!(layout.len(), 4);
        let total: usize = layout.iter().map(|s| s.len()).sum();
        assert_eq!(total, layer.param_len());
    }
}
