//! Differential and golden tests for `gcs-nn`'s compute path.
//!
//! The kernels in `crates/nn/src/layers.rs` are written for speed (register
//! tiles over a transposed or tap-staged input in the forward passes, row
//! AXPYs and tap ranges found once per position in the backward passes)
//! under one rule: every output, parameter gradient and input gradient is
//! **bit for bit** what the textbook per-element loops produce. Those loops
//! live here, as oracles, and nowhere in `src/`. The inputs, weights and
//! biases include `−0.0`, and the batches reach every tile shape.
//!
//! The golden half pins whole training runs — parameter checksum and
//! evaluation curve after ten `Trainer::train` rounds — to constants
//! captured on the commit before the kernels were rewritten.

use gradient_utility::core::scheme::CompressionScheme;
use gradient_utility::core::schemes::baseline::PrecisionBaseline;
use gradient_utility::core::schemes::powersgd::PowerSgd;
use gradient_utility::core::schemes::thc::Thc;
use gradient_utility::ddp::experiments::Task;
use gradient_utility::ddp::{param_checksum, Trainer, TrainerConfig};
use gradient_utility::gpusim::DeviceSpec;
use gradient_utility::nn::layers::{Conv3x3, Dense, Layer, MaxPool2, Relu, Sequential};
use gradient_utility::tensor::parallel::with_threads;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Oracles: the per-element loops the kernels must reproduce exactly.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct ConvShape {
    in_ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
}

impl ConvShape {
    fn widx(&self, o: usize, c: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_ch + c) * 3 + ky) * 3 + kx
    }
    fn in_sz(&self) -> usize {
        self.in_ch * self.h * self.w
    }
    fn out_sz(&self) -> usize {
        self.out_ch * self.h * self.w
    }
    fn wlen(&self) -> usize {
        self.out_ch * self.in_ch * 9
    }
}

fn conv_forward_naive(sh: ConvShape, input: &[f32], batch: usize, params: &[f32]) -> Vec<f32> {
    let (h, w) = (sh.h, sh.w);
    let mut out = vec![0.0f32; batch * sh.out_sz()];
    for s in 0..batch {
        let xin = &input[s * sh.in_sz()..(s + 1) * sh.in_sz()];
        for o in 0..sh.out_ch {
            let bias = params[sh.wlen() + o];
            for y in 0..h {
                for x in 0..w {
                    let mut acc = bias;
                    for c in 0..sh.in_ch {
                        for ky in 0..3usize {
                            let sy = y + ky;
                            if sy < 1 || sy > h {
                                continue;
                            }
                            let sy = sy - 1;
                            for kx in 0..3usize {
                                let sx = x + kx;
                                if sx < 1 || sx > w {
                                    continue;
                                }
                                let sx = sx - 1;
                                acc += params[sh.widx(o, c, ky, kx)] * xin[(c * h + sy) * w + sx];
                            }
                        }
                    }
                    out[((s * sh.out_ch + o) * h + y) * w + x] = acc;
                }
            }
        }
    }
    out
}

/// Accumulates into `grads`, returns `d(loss)/d(input)`.
fn conv_backward_naive(
    sh: ConvShape,
    input: &[f32],
    grad_out: &[f32],
    batch: usize,
    params: &[f32],
    grads: &mut [f32],
) -> Vec<f32> {
    let (h, w) = (sh.h, sh.w);
    let (in_sz, out_sz) = (sh.in_sz(), sh.out_sz());
    let mut grad_in = vec![0.0f32; batch * in_sz];
    for s in 0..batch {
        let xin = &input[s * in_sz..(s + 1) * in_sz];
        let gout = &grad_out[s * out_sz..(s + 1) * out_sz];
        for o in 0..sh.out_ch {
            for y in 0..h {
                for x in 0..w {
                    let g = gout[(o * h + y) * w + x];
                    if g == 0.0 {
                        continue;
                    }
                    grads[sh.wlen() + o] += g;
                    for c in 0..sh.in_ch {
                        for ky in 0..3usize {
                            let sy = y + ky;
                            if sy < 1 || sy > h {
                                continue;
                            }
                            let sy = sy - 1;
                            for kx in 0..3usize {
                                let sx = x + kx;
                                if sx < 1 || sx > w {
                                    continue;
                                }
                                let sx = sx - 1;
                                let wi = sh.widx(o, c, ky, kx);
                                grads[wi] += g * xin[(c * h + sy) * w + sx];
                                grad_in[s * in_sz + (c * h + sy) * w + sx] += g * params[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    grad_in
}

fn dense_forward_naive(
    in_dim: usize,
    out_dim: usize,
    input: &[f32],
    batch: usize,
    params: &[f32],
) -> Vec<f32> {
    let (w, b) = params.split_at(out_dim * in_dim);
    let mut out = vec![0.0f32; batch * out_dim];
    for s in 0..batch {
        let x = &input[s * in_dim..(s + 1) * in_dim];
        let y = &mut out[s * out_dim..(s + 1) * out_dim];
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &w[o * in_dim..(o + 1) * in_dim];
            *yo = b[o] + row.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f32>();
        }
    }
    out
}

/// Accumulates into `grads`, returns `d(loss)/d(input)`.
fn dense_backward_naive(
    in_dim: usize,
    out_dim: usize,
    input: &[f32],
    grad_out: &[f32],
    batch: usize,
    params: &[f32],
    grads: &mut [f32],
) -> Vec<f32> {
    let wlen = out_dim * in_dim;
    let mut grad_in = vec![0.0f32; batch * in_dim];
    for s in 0..batch {
        let x = &input[s * in_dim..(s + 1) * in_dim];
        let gy = &grad_out[s * out_dim..(s + 1) * out_dim];
        let gx = &mut grad_in[s * in_dim..(s + 1) * in_dim];
        for (o, &g) in gy.iter().enumerate() {
            let wrow = o * in_dim;
            for i in 0..in_dim {
                grads[wrow + i] += g * x[i];
                gx[i] += g * params[wrow + i];
            }
            grads[wlen + o] += g;
        }
    }
    grad_in
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Finite values in `(-2, 2)`, about one in eight an exact zero and one
/// in eight a negative zero (a `−0.0` bias is where skipping a border tap
/// and adding `w·0` differ).
fn values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// An output gradient as pooling and ReLU leave it: mostly exact zeros (of
/// either sign), and whole rows of `row` elements zeroed.
fn sparse_gradient(rng: &mut StdRng, len: usize, row: usize) -> Vec<f32> {
    let mut g = values(rng, len);
    for v in g.iter_mut() {
        match rng.gen_range(0..4) {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    for r in g.chunks_mut(row.max(1)) {
        if rng.gen_range(0..3) == 0 {
            r.fill(0.0);
        }
    }
    g
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Forward and backward of `layer` on the buffers a `Sequential` would lend
/// it: `(output, d(loss)/d(input))`, with `grads` accumulated into.
fn run_layer(
    layer: &mut dyn Layer,
    input: &[f32],
    out_len: usize,
    grad_out: &[f32],
    params: &[f32],
    grads: &mut [f32],
) -> (Vec<f32>, Vec<f32>) {
    let mut output = vec![f32::NAN; out_len];
    layer.forward(input, &mut output, params);
    let mut grad_in = vec![f32::NAN; input.len()];
    layer.backward(input, &output, grad_out, params, grads, Some(&mut grad_in));
    (output, grad_in)
}

/// Map sides that hit every border case: 1, 2, odd, and VggMini's own.
fn side() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(5),
        Just(7),
        Just(8),
        Just(16)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conv3x3_matches_the_per_element_loops_bit_for_bit(
        in_ch in 1usize..5,
        out_ch in 1usize..6,
        h in side(),
        w in side(),
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sh = ConvShape { in_ch, out_ch, h, w };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Conv3x3::new(in_ch, out_ch, h, w, &mut rng);
        let params = values(&mut rng, layer.param_len());
        let input = values(&mut rng, batch * sh.in_sz());
        let grad_out = sparse_gradient(&mut rng, batch * sh.out_sz(), w);
        // Gradients accumulate: start both sides from the same non-zero state.
        let grads0 = values(&mut rng, params.len());

        let want_out = conv_forward_naive(sh, &input, batch, &params);
        let mut want_grads = grads0.clone();
        let want_gin =
            conv_backward_naive(sh, &input, &grad_out, batch, &params, &mut want_grads);

        let mut grads = grads0;
        let (out, gin) =
            run_layer(&mut layer, &input, want_out.len(), &grad_out, &params, &mut grads);
        prop_assert_eq!(bits(&out), bits(&want_out), "output, {:?} batch {}", sh, batch);
        prop_assert_eq!(bits(&grads), bits(&want_grads), "dW/db, {:?} batch {}", sh, batch);
        prop_assert_eq!(bits(&gin), bits(&want_gin), "d_in, {:?} batch {}", sh, batch);
    }

    #[test]
    fn dense_matches_the_per_element_loops_bit_for_bit(
        in_dim in 1usize..41,
        out_dim in 1usize..14,
        // 8- and 4-sample tiles and single-sample tails.
        batch in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(in_dim, out_dim, &mut rng);
        let params = values(&mut rng, layer.param_len());
        let input = values(&mut rng, batch * in_dim);
        let grad_out = sparse_gradient(&mut rng, batch * out_dim, out_dim);
        let grads0 = values(&mut rng, params.len());

        let want_out = dense_forward_naive(in_dim, out_dim, &input, batch, &params);
        let mut want_grads = grads0.clone();
        let want_gin = dense_backward_naive(
            in_dim, out_dim, &input, &grad_out, batch, &params, &mut want_grads,
        );

        let mut grads = grads0;
        let (out, gin) =
            run_layer(&mut layer, &input, want_out.len(), &grad_out, &params, &mut grads);
        prop_assert_eq!(bits(&out), bits(&want_out), "output, {}->{}", in_dim, out_dim);
        prop_assert_eq!(bits(&grads), bits(&want_grads), "dW/db, {}->{}", in_dim, out_dim);
        prop_assert_eq!(bits(&gin), bits(&want_gin), "d_in, {}->{}", in_dim, out_dim);
    }

    /// Evaluation streams the held-out batch through chunk-sized buffers;
    /// the logits must be those of one pass over the whole batch.
    #[test]
    fn chunked_prediction_equals_the_unchunked_forward(
        in_ch in 1usize..4,
        mid_ch in 1usize..5,
        half in 1usize..4,
        classes in 1usize..7,
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        let side = 2 * half;
        let mut rng = StdRng::seed_from_u64(seed);
        let in_dim = in_ch * side * side;
        let mut chunked = Sequential::new(in_dim, vec![
            Box::new(Conv3x3::new(in_ch, mid_ch, side, side, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new(mid_ch, side, side)),
            Box::new(Dense::new(mid_ch * half * half, classes, &mut rng)),
        ]);
        let mut whole = chunked.clone();
        let inputs = values(&mut rng, n * in_dim);
        let mut logits = vec![f32::NAN; n * classes];
        chunked.predict_into(&inputs, n, &mut logits);
        prop_assert_eq!(bits(&logits), bits(whole.forward(&inputs, n)), "n = {}", n);
    }
}

// ---------------------------------------------------------------------------
// Golden: ten trainer rounds, against the commit before the rewrite.
// ---------------------------------------------------------------------------

/// `(param_checksum, evaluation curve as f64 bits)` after ten rounds with
/// an evaluation every five.
fn ten_rounds(task: Task, scheme: &str, threads: usize) -> (u64, Vec<u64>) {
    with_threads(threads, || {
        let cfg = TrainerConfig {
            max_rounds: 10,
            eval_every: 5,
            ..task.trainer_config()
        };
        let mut model = task.build_model(cfg.seed);
        let powersgd = |r| Box::new(PowerSgd::new(r, model.matrix_shapes(), cfg.n_workers));
        let mut scheme: Box<dyn CompressionScheme> = match scheme {
            "fp16" => Box::new(PrecisionBaseline::fp16()),
            "thc_sat" => Box::new(Thc::improved(4, &DeviceSpec::a100(), cfg.n_workers)),
            "powersgd_r1" => powersgd(1),
            "powersgd_r4" => powersgd(4),
            "powersgd_r16" => powersgd(16),
            other => panic!("no golden for scheme {other}"),
        };
        let log = Trainer::new(cfg).train(model.as_mut(), scheme.as_mut(), 0.25);
        (
            param_checksum(model.as_ref()),
            log.curve.points.iter().map(|p| p.1.to_bits()).collect(),
        )
    })
}

#[test]
fn ten_trainer_rounds_match_the_pre_rewrite_constants() {
    let golden: [(Task, &str, u64, [u64; 2]); 10] = [
        (
            Task::Vgg,
            "fp16",
            0x22d3_d593_fc28_7396,
            [0x3fc0_0000_0000_0000, 0x3fca_6666_6666_6666],
        ),
        (
            Task::Vgg,
            "thc_sat",
            0xf34c_9577_e630_6027,
            [0x3fbc_cccc_cccc_cccd, 0x3fc3_3333_3333_3333],
        ),
        (
            Task::Bert,
            "fp16",
            0x2a87_1042_ca45_6b76,
            [0x406e_7331_b67e_7854, 0x4060_9527_d07c_1a3b],
        ),
        (
            Task::Bert,
            "thc_sat",
            0x3c45_dd26_6583_3b35,
            [0x406f_88cd_3697_3be1, 0x4061_04b8_2d01_e77e],
        ),
        // PowerSGD: r = 16 is the rank whose `P̂·Qᵀ` dots run the 8-partial
        // fold tree.
        (
            Task::Vgg,
            "powersgd_r1",
            0x7a67_67f1_bf38_d23a,
            [0x3fc0_0000_0000_0000, 0x3fbe_6666_6666_6666],
        ),
        (
            Task::Vgg,
            "powersgd_r4",
            0xf2e6_c5d5_a5b0_0b67,
            [0x3fbc_cccc_cccc_cccd, 0x3fc8_0000_0000_0000],
        ),
        (
            Task::Vgg,
            "powersgd_r16",
            0xeddc_3f4f_9d8c_7d09,
            [0x3fc0_0000_0000_0000, 0x3fca_6666_6666_6666],
        ),
        (
            Task::Bert,
            "powersgd_r1",
            0x2762_0569_d3b2_4f44,
            [0x4072_b13c_2fa4_d375, 0x4064_1085_5c5c_c4fc],
        ),
        (
            Task::Bert,
            "powersgd_r4",
            0xab02_0339_f952_977f,
            [0x4070_0688_5920_aa56, 0x4061_8ea3_1f14_db9c],
        ),
        (
            Task::Bert,
            "powersgd_r16",
            0x6b80_9870_35fd_e9fc,
            [0x406e_7648_9e0e_2c87, 0x4060_b546_970a_662d],
        ),
    ];
    for (task, scheme, checksum, curve) in golden {
        for threads in [1, 2] {
            let (got_checksum, got_curve) = ten_rounds(task, scheme, threads);
            assert_eq!(
                got_checksum, checksum,
                "{task:?} {scheme} at {threads} thread(s): checksum {got_checksum:#018x}"
            );
            assert_eq!(
                got_curve, curve,
                "{task:?} {scheme} at {threads} thread(s): curve {got_curve:x?}"
            );
        }
    }
}
