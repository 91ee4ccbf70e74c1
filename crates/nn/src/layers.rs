//! Neural-network layers over arena-backed flat parameter and activation
//! storage.
//!
//! Layers own neither their parameters nor their activations. A
//! [`Sequential`] owns two [`ParamArena`]s — one for parameters, one for
//! gradients — and passes each layer its slice on every `forward`/`backward`
//! call; it also owns an [`ActivationArena`] in which layer `i`'s output is
//! layer `i + 1`'s input, so a pass copies and (once sized) allocates
//! nothing. The payoff of the first is the view
//! a gradient-compression system wants: a whole model's parameters (and its
//! whole gradient) is *one contiguous slice*, so replica sync is a single
//! `copy_from_slice`, optimizers update in place, and collectives operate on
//! the full model in one pooled call instead of per-layer fragments.
//!
//! Construction still draws initial values inside each layer's constructor
//! (preserving the exact RNG consumption order of the per-layer storage era,
//! so model initialization is bitwise-identical); `Sequential::new` then
//! moves those values into the arena via [`Layer::take_init`].
//!
//! The kernels are loop interchanges and register tiles of the textbook
//! per-element loops, never a change in the order any single accumulator
//! is summed in (and never an FMA): they are bit-identical to those loops,
//! which `tests/nn_kernels.rs` keeps as oracles. DESIGN.md §6g has the
//! argument per kernel.
//!
//! Four of them have explicit AVX2 versions, none of which uses FMA,
//! behind [`simd::avx2_enabled`] (`GCS_SIMD=scalar` turns them off): the
//! `Dense` forward tiles (4 rows × 8 samples, and 8 rows × 4 samples for a
//! 4-sample batch), the `Conv3x3` forward tile (8 out-channels × 8
//! positions), a one-pass `Dense` backward for batches of 4 and 8 with
//! `in % 8 == 0`, and a `Conv3x3` backward that runs each plane's non-zero
//! output gradients through a register-held `dW` row and a position-major
//! `d_in`. The portable tiles and the scatter stay as the scalar reference
//! and take every tail.
//!
//! Correctness is guarded by finite-difference gradient checks in the test
//! module (the strongest test a hand-written backprop can have).

use crate::data::Batch;
use crate::loss::softmax_cross_entropy;
use gcs_tensor::{simd, ActivationArena, ParamArena};

/// A differentiable layer viewing externally owned parameter *and*
/// activation storage: `input` and `output` are regions of the owning
/// [`Sequential`]'s activation arena (layer `i`'s output region is layer
/// `i + 1`'s input), so a layer keeps no copy of either. The batch size is
/// `input.len()` over the layer's per-sample input width.
pub trait Layer {
    /// Forward pass over a batch: overwrites every element of `output`.
    /// `params` is this layer's slice of the model arena (`param_len()`
    /// values).
    fn forward(&mut self, input: &[f32], output: &mut [f32], params: &[f32]);

    /// Backward pass, given the `input`/`output` of the matching forward
    /// call and `grad_out = d(loss)/d(output)`: **overwrites** `grads` (this
    /// layer's slice of the gradient arena, whatever it held; a layer that
    /// scatter-adds zeroes it first) and, unless the caller has no use for
    /// it (the first layer of a stack), overwrites `grad_in` with
    /// `d(loss)/d(input)`.
    fn backward(
        &mut self,
        input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        params: &[f32],
        grads: &mut [f32],
        grad_in: Option<&mut [f32]>,
    );

    /// Number of parameters this layer owns in the arena.
    fn param_len(&self) -> usize;

    /// Takes the initial parameter values drawn at construction time
    /// (consumed once by [`Sequential::new`] when filling the arena).
    fn take_init(&mut self) -> Vec<f32> {
        Vec::new()
    }

    /// Output features per sample given input features per sample.
    fn out_dim(&self, in_dim: usize) -> usize;

    /// The layer's flat-parameter layout (matrix vs vector segments), used
    /// by low-rank compression to find weight matrices. Defaults to one
    /// opaque vector segment.
    fn layout(&self) -> Vec<ParamSegment> {
        if self.param_len() == 0 {
            Vec::new()
        } else {
            vec![ParamSegment::Vector {
                len: self.param_len(),
            }]
        }
    }

    /// Deep copy of the layer (dims and scratch; parameters and activations
    /// live in the arenas), boxed and `Send` so whole models can be
    /// replicated onto worker threads for parallel per-worker gradient
    /// computation.
    fn clone_layer(&self) -> Box<dyn Layer + Send>;
}

/// Samples in `buf`, a batch of `width` values per sample.
fn batch_of(buf: &[f32], width: usize, layer: &str) -> usize {
    assert!(
        width > 0 && buf.len().is_multiple_of(width),
        "{layer}: bad input size"
    );
    buf.len() / width
}

/// Fully connected layer `y = x W^T + b`, weights stored `[out × in]`.
#[derive(Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Initial `[weights (out*in) | bias (out)]`, consumed into the arena.
    init: Vec<f32>,
    /// The input batch transposed, `[in × batch]`, so a tile loads its
    /// samples' `x[i]` contiguously; sized by the largest batch seen and
    /// reused.
    xt: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl rand::Rng) -> Dense {
        let bound = (6.0 / in_dim as f32).sqrt();
        let mut init = Vec::with_capacity(out_dim * in_dim + out_dim);
        for _ in 0..out_dim * in_dim {
            init.push(rng.gen_range(-bound..bound));
        }
        init.extend(std::iter::repeat_n(0.0, out_dim));
        Dense {
            in_dim,
            out_dim,
            init,
            xt: Vec::new(),
        }
    }

    /// Every output row of samples `s..s + S`: the AVX2 tiles where they
    /// apply, then `R` rows a tile (4, then single rows for the tail).
    fn rows_of<const S: usize>(&self, w: &[f32], b: &[f32], s: usize, output: &mut [f32]) {
        let mut o = 0;
        #[cfg(target_arch = "x86_64")]
        if S != 1 && simd::avx2_enabled() {
            let (xt, ind) = (&self.xt[..], self.in_dim);
            o = if S == 8 {
                // SAFETY: AVX2 was just detected; the tile asserts the
                // shapes it indexes by.
                unsafe { avx2::dense_tiles_4x8(xt, ind, s, w, b, sum_seed(), output) }
            } else {
                // SAFETY: as above.
                unsafe { avx2::dense_tiles_8x4(xt, ind, s, w, b, sum_seed(), output) }
            };
        }
        while o + 4 <= self.out_dim {
            self.tile::<4, S>(w, b, o, s, output);
            o += 4;
        }
        for o in o..self.out_dim {
            self.tile::<1, S>(w, b, o, s, output);
        }
    }

    /// Outputs `o..o + R` of samples `s..s + S`: `R × S` independent add
    /// chains, each `seed + w[o][0]·x[0] + w[o][1]·x[1] + …` in `i` order,
    /// then `b[o] + chain`.
    fn tile<const R: usize, const S: usize>(
        &self,
        w: &[f32],
        b: &[f32],
        o: usize,
        s: usize,
        output: &mut [f32],
    ) {
        let (ind, outd) = (self.in_dim, self.out_dim);
        let batch = self.xt.len() / ind;
        let seed = sum_seed();
        let rows: [&[f32]; R] = std::array::from_fn(|r| &w[(o + r) * ind..][..ind]);
        let mut acc = [[seed; S]; R];
        for (i, xs) in self.xt.chunks_exact(batch).enumerate() {
            let xs: &[f32; S] = xs[s..s + S].try_into().expect("S samples");
            for (acc, row) in acc.iter_mut().zip(&rows) {
                let wv = row[i];
                for (a, x) in acc.iter_mut().zip(xs) {
                    *a += wv * x;
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (l, a) in acc.iter().enumerate() {
                output[(s + l) * outd + o + r] = b[o + r] + a;
            }
        }
    }
}

/// The value `Iterator::sum` starts an `f32` sum from, whatever the
/// toolchain makes it.
fn sum_seed() -> f32 {
    std::iter::empty::<f32>().sum()
}

impl Layer for Dense {
    /// `y[o] = b[o] + Σ_i w[o][i]·x[i]`, every dot a strict left-to-right
    /// sum seeded as `Iterator::sum` seeds it. One such sum is bound by the
    /// latency of its add chain, so the batch is staged transposed and
    /// register tiles of 4 rows × 8 samples (then 4 samples, then single
    /// samples; single rows for the row tail) advance 32 independent
    /// chains together, each in its own unchanged order. With AVX2 the
    /// 8-sample tile is four `__m256` accumulators, and the 4-sample tile
    /// takes 8 rows, two rows a register.
    fn forward(&mut self, input: &[f32], output: &mut [f32], params: &[f32]) {
        let (ind, outd) = (self.in_dim, self.out_dim);
        let batch = batch_of(input, ind, "Dense");
        assert_eq!(output.len(), batch * outd, "Dense: bad output size");
        let (w, b) = params.split_at(outd * ind);
        let b = &b[..outd];
        self.xt.resize(ind * batch, 0.0);
        for (s, x) in input.chunks_exact(ind).enumerate() {
            for (xt, &v) in self.xt[s..].iter_mut().step_by(batch).zip(x) {
                *xt = v;
            }
        }
        let mut s = 0;
        while s + 8 <= batch {
            self.rows_of::<8>(w, b, s, output);
            s += 8;
        }
        if s + 4 <= batch {
            self.rows_of::<4>(w, b, s, output);
            s += 4;
        }
        for s in s..batch {
            self.rows_of::<1>(w, b, s, output);
        }
    }

    /// Per output `o` and sample, two row AXPYs: `dW[o] += g·x` and
    /// `dx += g·W[o]`, onto rows zeroed first. Outputs run outermost, so
    /// `W[o]` and `dW[o]` stay in L1 across the batch. Every `dW` element
    /// still accumulates over
    /// samples in order and every `dx` element over outputs in order; the
    /// elements of a row are independent, which is what lets the rows
    /// vectorise. With AVX2, batches of 4 and 8 and `in % 8 == 0`, blocks
    /// of 4 rows take one pass instead: each 8-lane `dW` slice takes every
    /// sample's product in a register (one load and one store, not one per
    /// sample), and each `dx` slice the block's 4 rows in order.
    fn backward(
        &mut self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        params: &[f32],
        grads: &mut [f32],
        mut grad_in: Option<&mut [f32]>,
    ) {
        let (ind, outd) = (self.in_dim, self.out_dim);
        let batch = batch_of(input, ind, "Dense");
        assert_eq!(grad_out.len(), batch * outd, "Dense: bad grad size");
        let w = &params[..outd * ind];
        let (dw, db) = grads.split_at_mut(outd * ind);
        let db = &mut db[..outd];
        db.fill(0.0);
        if let Some(gin) = grad_in.as_deref_mut() {
            gin.fill(0.0);
        }
        let mut done = 0;
        #[cfg(target_arch = "x86_64")]
        if ind.is_multiple_of(simd::LANES) && simd::avx2_enabled() {
            let gin = grad_in.as_deref_mut();
            done = match batch {
                // SAFETY: AVX2 was just detected; the pass asserts the
                // shapes it indexes by.
                4 => unsafe { avx2::dense_backward_rows::<4>(input, grad_out, w, dw, db, gin) },
                // SAFETY: as above.
                8 => unsafe { avx2::dense_backward_rows::<8>(input, grad_out, w, dw, db, gin) },
                _ => 0,
            };
        }
        for (o, (w_o, dw_o)) in w
            .chunks_exact(ind)
            .zip(dw.chunks_exact_mut(ind))
            .enumerate()
            .skip(done)
        {
            dw_o.fill(0.0);
            for (s, x) in input.chunks_exact(ind).enumerate() {
                let g = grad_out[s * outd + o];
                simd::axpy(g, x, dw_o);
                if let Some(gin) = grad_in.as_deref_mut() {
                    simd::axpy(g, w_o, &mut gin[s * ind..(s + 1) * ind]);
                }
                db[o] += g;
            }
        }
    }

    fn param_len(&self) -> usize {
        self.out_dim * self.in_dim + self.out_dim
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, _in: usize) -> usize {
        self.out_dim
    }
    fn layout(&self) -> Vec<ParamSegment> {
        vec![
            ParamSegment::Matrix {
                rows: self.out_dim,
                cols: self.in_dim,
            },
            ParamSegment::Vector { len: self.out_dim },
        ]
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// Element-wise ReLU.
#[derive(Clone, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Relu {
        Relu
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &[f32], output: &mut [f32], _params: &[f32]) {
        assert_eq!(input.len(), output.len(), "Relu: bad output size");
        for (y, &x) in output.iter_mut().zip(input) {
            *y = x.max(0.0);
        }
    }
    /// The gradient passes where the input was positive, which is exactly
    /// where the output is.
    fn backward(
        &mut self,
        _input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        _params: &[f32],
        _grads: &mut [f32],
        grad_in: Option<&mut [f32]>,
    ) {
        let Some(grad_in) = grad_in else { return };
        for ((gi, &g), &y) in grad_in.iter_mut().zip(grad_out).zip(output) {
            *gi = if y > 0.0 { g } else { 0.0 };
        }
    }
    fn param_len(&self) -> usize {
        0
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// 3×3 same-padding convolution over `[C, H, W]` feature maps.
#[derive(Clone)]
pub struct Conv3x3 {
    in_ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
    /// Initial `[weights (out*in*9) | bias (out)]`, consumed into the arena.
    init: Vec<f32>,
    /// `[9 × hw]`: all ones where tap `(ky, kx)` of an output position falls
    /// inside the map, 0 where it falls on the padding.
    tap_mask: Vec<u32>,
    /// One sample's input as `[in_ch·9 × hw]`: row `(c, ky, kx)` is plane
    /// `c` shifted by the tap, 0 where the tap is off the map.
    taps: Vec<f32>,
    /// The AVX2 backward's staging, sized on its first call.
    back: BackwardStage,
}

/// [`Conv3x3`]'s AVX2 backward staging: sized by the layer's shape (`hw ·
/// in_ch · 9` and `out_ch · in_ch · 9` floats), never by the batch, and
/// reused. `k9p` is `in_ch·9` and `cp` is `in_ch`, each rounded up to
/// whole 8-lane registers.
#[derive(Clone, Default)]
struct BackwardStage {
    /// One sample's input transposed, `[hw × k9p]`: row `pos` holds the
    /// `(c, ky, kx)` taps of output position `pos`; 0 off the map and in
    /// the padding, written once when sized and never again.
    cols: Vec<f32>,
    /// `[16 × k9p]`: row `ends(y, h)·4 + ends(x, w)` is all ones where
    /// that border class's tap `(c, ky, kx)` is inside the map, 0 where it
    /// falls on the padding and past `in_ch·9`.
    masks: Vec<u32>,
    /// `dW` as `[out_ch × k9p]` rows.
    dw: Vec<f32>,
    /// The weights transposed per call to `[out_ch × 9 × cp]`, for `d_in`.
    wt: Vec<f32>,
    /// One sample's `d_in`, position-major: `[hw × cp]`.
    din: Vec<f32>,
    /// The non-zero output gradients of one plane, in position order, at
    /// the front of `[hw]` entries.
    nz: Vec<NonZero>,
}

/// One non-zero output gradient `g` at `(y, x)`.
#[derive(Clone, Copy)]
struct NonZero {
    y: u32,
    x: u32,
    g: f32,
}

impl Conv3x3 {
    /// Creates the conv layer for `h × w` maps.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        h: usize,
        w: usize,
        rng: &mut impl rand::Rng,
    ) -> Conv3x3 {
        let fan_in = in_ch * 9;
        let bound = (6.0 / fan_in as f32).sqrt();
        let wlen = out_ch * in_ch * 9;
        let mut init = Vec::with_capacity(wlen + out_ch);
        for _ in 0..wlen {
            init.push(rng.gen_range(-bound..bound));
        }
        init.extend(std::iter::repeat_n(0.0, out_ch));
        let mut tap_mask = vec![0u32; 9 * h * w];
        for (k, mask) in tap_mask.chunks_exact_mut(h * w).enumerate() {
            for y in tap_range(k / 3, h) {
                mask[y * w..][tap_range(k % 3, w)].fill(u32::MAX);
            }
        }
        Conv3x3 {
            in_ch,
            out_ch,
            h,
            w,
            init,
            tap_mask,
            taps: Vec::new(),
            back: BackwardStage::default(),
        }
    }

    /// Stages one sample's input `xin` into `taps`, `[in_ch·9 × hw]`: row
    /// `(c, ky, kx)` is plane `c` shifted by the tap. Off-map entries are
    /// written as 0 when the buffer is sized and never again.
    fn stage_taps(&mut self, xin: &[f32]) {
        let (h, w) = (self.h, self.w);
        let hw = h * w;
        self.taps.resize(self.in_ch * 9 * hw, 0.0);
        for (xc, plane) in xin.chunks_exact(hw).zip(self.taps.chunks_exact_mut(9 * hw)) {
            for (k, row) in plane.chunks_exact_mut(hw).enumerate() {
                let (ky, kx) = (k / 3, k % 3);
                let cols = tap_range(kx, w);
                for y in tap_range(ky, h) {
                    let src = (y + ky - 1) * w + kx;
                    row[y * w..][cols.clone()]
                        .copy_from_slice(&xc[src + cols.start - 1..src + cols.end - 1]);
                }
            }
        }
    }

    /// Every out-channel of positions `p..p + P` of one sample: the AVX2
    /// tiles where they apply, then `R` channels a tile (4, then single
    /// channels for the tail).
    fn channels_of<const P: usize>(
        &self,
        weights: &[f32],
        bias: &[f32],
        p: usize,
        out: &mut [f32],
    ) {
        let mut o = 0;
        #[cfg(target_arch = "x86_64")]
        if P == 8 && simd::avx2_enabled() {
            let (taps, mask) = (&self.taps[..], &self.tap_mask[..]);
            // SAFETY: AVX2 was just detected; the tile asserts the shapes
            // it indexes by.
            o = unsafe { avx2::conv_tiles_8x8(taps, mask, p, weights, bias, out) };
        }
        while o + 4 <= self.out_ch {
            self.tile::<4, P>(weights, bias, o, p, out);
            o += 4;
        }
        for o in o..self.out_ch {
            self.tile::<1, P>(weights, bias, o, p, out);
        }
    }

    /// Out-channels `o..o + R` at positions `p..p + P`: each accumulator
    /// starts at its bias and takes `acc + w·x` for `(c, ky, kx)` ascending
    /// only in the lanes whose tap is inside the map; elsewhere it keeps
    /// its bits.
    fn tile<const R: usize, const P: usize>(
        &self,
        weights: &[f32],
        bias: &[f32],
        o: usize,
        p: usize,
        out: &mut [f32],
    ) {
        let (hw, k9) = (self.h * self.w, self.in_ch * 9);
        let rows: [&[f32]; R] = std::array::from_fn(|r| &weights[(o + r) * k9..][..k9]);
        let mut acc: [[f32; P]; R] = std::array::from_fn(|r| [bias[o + r]; P]);
        for j in 0..k9 {
            let xs: &[f32; P] = self.taps[j * hw + p..][..P]
                .try_into()
                .expect("P positions");
            let ms: &[u32; P] = self.tap_mask[j % 9 * hw + p..][..P]
                .try_into()
                .expect("P positions");
            for (acc, row) in acc.iter_mut().zip(&rows) {
                let wv = row[j];
                for ((a, x), m) in acc.iter_mut().zip(xs).zip(ms) {
                    let sum = (*a + wv * x).to_bits();
                    *a = f32::from_bits((sum & m) | (a.to_bits() & !m));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out[(o + r) * hw + p..][..P].copy_from_slice(acc);
        }
    }

    /// The AVX2 backward onto a zeroed `dW`/`db`. Per sample the input is
    /// staged transposed (`cols`); per out-channel the plane's non-zero
    /// `g` are listed in position order and each list runs through `db[o]`,
    /// `dW[o]`'s row ([`avx2::conv_dw_row`]) and, unless this is the first
    /// layer, the sample's position-major `d_in` ([`avx2::conv_din`]),
    /// which is then transposed into `grad_in`.
    #[cfg(target_arch = "x86_64")]
    fn backward_avx2(
        &mut self,
        input: &[f32],
        grad_out: &[f32],
        weights: &[f32],
        dw: &mut [f32],
        db: &mut [f32],
        mut grad_in: Option<&mut [f32]>,
    ) {
        let (in_ch, h, w) = (self.in_ch, self.h, self.w);
        let (hw, k9) = (h * w, in_ch * 9);
        let (k9p, cp) = (k9.next_multiple_of(8), in_ch.next_multiple_of(8));
        let st = &mut self.back;
        // Off-map and padding entries of `cols` come from `taps` as 0, or
        // stay at the 0 written here.
        if st.cols.len() != hw * k9p {
            st.cols = vec![0.0; hw * k9p];
            st.masks = vec![0; 16 * k9p];
            for (class, mask) in st.masks.chunks_exact_mut(k9p).enumerate() {
                let (kys, kxs) = (taps_at(class / 4), taps_at(class % 4));
                for (j, m) in mask[..k9].iter_mut().enumerate() {
                    if kys.contains(&(j % 9 / 3)) && kxs.contains(&(j % 3)) {
                        *m = u32::MAX;
                    }
                }
            }
            st.dw = vec![0.0; self.out_ch * k9p];
            st.wt = vec![0.0; self.out_ch * 9 * cp];
            st.din = vec![0.0; hw * cp];
            st.nz = vec![NonZero { y: 0, x: 0, g: 0.0 }; hw];
        }
        st.dw.fill(0.0);
        if grad_in.is_some() {
            for (wt, wo) in st.wt.chunks_exact_mut(9 * cp).zip(weights.chunks_exact(k9)) {
                for (c, wc) in wo.chunks_exact(9).enumerate() {
                    for (k, &v) in wc.iter().enumerate() {
                        wt[k * cp + c] = v;
                    }
                }
            }
        }
        let samples = input
            .chunks_exact(in_ch * hw)
            .zip(grad_out.chunks_exact(self.out_ch * hw));
        for (s, (xin, gout)) in samples.enumerate() {
            self.stage_taps(xin);
            let st = &mut self.back;
            // SAFETY: AVX2 was detected by the caller; the kernel asserts
            // the shapes it indexes by.
            let done = unsafe { avx2::transpose_taps(&self.taps, hw, &mut st.cols) };
            for p in done..hw {
                for (j, c) in st.cols[p * k9p..][..k9].iter_mut().enumerate() {
                    *c = self.taps[j * hw + p];
                }
            }
            let gin = grad_in
                .as_deref_mut()
                .map(|g| &mut g[s * in_ch * hw..][..in_ch * hw]);
            if gin.is_some() {
                st.din.fill(0.0);
            }
            for (o, gplane) in gout.chunks_exact(hw).enumerate() {
                // Every position is written and the count advances past
                // the non-zero ones: no branch on `g`.
                let mut n = 0;
                for (y, grow) in gplane.chunks_exact(w).enumerate() {
                    for (x, &g) in grow.iter().enumerate() {
                        let (y, x) = (y as u32, x as u32);
                        st.nz[n] = NonZero { y, x, g };
                        n += usize::from(g != 0.0);
                    }
                }
                let nz = &st.nz[..n];
                for e in nz {
                    db[o] += e.g;
                }
                let dw_o = &mut st.dw[o * k9p..][..k9p];
                // SAFETY: AVX2 was detected by the caller; the kernel
                // asserts the shapes and list positions it indexes by.
                unsafe { avx2::conv_dw_row(&st.cols, &st.masks, h, w, nz, dw_o) };
                if gin.is_some() {
                    let wt_o = &st.wt[o * 9 * cp..][..9 * cp];
                    // SAFETY: as above.
                    unsafe { avx2::conv_din(wt_o, h, w, nz, &mut st.din) };
                }
            }
            if let Some(gin) = gin {
                for (c, gc) in gin.chunks_exact_mut(hw).enumerate() {
                    for (gi, d) in gc.iter_mut().zip(st.din[c..].iter().step_by(cp)) {
                        *gi = *d;
                    }
                }
            }
        }
        for (dw_o, st_o) in dw.chunks_exact_mut(k9).zip(self.back.dw.chunks_exact(k9p)) {
            dw_o.copy_from_slice(&st_o[..k9]);
        }
    }
}

/// The output positions along an axis of length `len` whose tap `k`
/// (source position `p + k − 1`) falls inside the map.
fn tap_range(k: usize, len: usize) -> std::ops::Range<usize> {
    usize::from(k == 0)..if k == 2 { len - 1 } else { len }
}

/// The taps `k` of output position `p` that fall inside an axis of length
/// `len`.
fn taps_inside(p: usize, len: usize) -> std::ops::Range<usize> {
    taps_at(ends(p, len))
}

/// Which ends of an axis of length `len` position `p` sits on: bit 0 the
/// first (tap 0 is off the map), bit 1 the last (tap 2 is).
fn ends(p: usize, len: usize) -> usize {
    usize::from(p == 0) | usize::from(p + 1 == len) << 1
}

/// The taps inside the map at a position on the [`ends`] `e`.
fn taps_at(e: usize) -> std::ops::Range<usize> {
    (e & 1)..3 - (e >> 1)
}

/// The AVX2 tiles of [`Dense`] and [`Conv3x3`]. Each computes the
/// expression tree of the scalar tile or loop it stands in for: a product,
/// then a separate add (no FMA), every accumulator taking its addends in
/// the scalar order. Each covers whole blocks of rows or channels and
/// returns the first one it left to the scalar tails.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// [`super::Dense`]'s tiles of 4 rows × samples `s..s + 8`: one
    /// `__m256` accumulator per row, lane `l` being sample `s + l`, each
    /// `seed + w[o][0]·x[0] + w[o][1]·x[1] + …` in `i` order, then
    /// `b[o] + acc`.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `xt` is `[ind × batch]` with `s + 8 <= batch`, `w` is
    /// `b.len() × ind` and `output` is `batch × b.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_tiles_4x8(
        xt: &[f32],
        ind: usize,
        s: usize,
        w: &[f32],
        b: &[f32],
        seed: f32,
        output: &mut [f32],
    ) -> usize {
        let (batch, outd) = (xt.len() / ind, b.len());
        assert!(
            xt.len() == ind * batch && s + 8 <= batch,
            "xt is [in × batch]"
        );
        assert!(
            w.len() == outd * ind && output.len() == batch * outd,
            "Dense shapes"
        );
        let mut o = 0;
        while o + 4 <= outd {
            let mut acc = [_mm256_set1_ps(seed); 4];
            for i in 0..ind {
                // SAFETY: `i < ind` and `s + 8 <= batch` (asserted), so the
                // 8 samples of `xt` row `i` are inside `xt`; `o + 4 <= outd`
                // and `w.len() == outd · ind` (asserted) keep `w[o + r][i]`
                // inside `w`.
                let x = _mm256_loadu_ps(xt.as_ptr().add(i * batch + s));
                for (r, a) in acc.iter_mut().enumerate() {
                    let wv = _mm256_set1_ps(*w.get_unchecked((o + r) * ind + i));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, x));
                }
            }
            let mut lanes = [[0.0f32; 8]; 4];
            for (v, a) in lanes.iter_mut().zip(acc) {
                // SAFETY: `v` is the 8 lanes of one store.
                _mm256_storeu_ps(v.as_mut_ptr(), a);
            }
            for (r, v) in lanes.iter().enumerate() {
                for (l, a) in v.iter().enumerate() {
                    output[(s + l) * outd + o + r] = b[o + r] + a;
                }
            }
            o += 4;
        }
        o
    }

    /// [`super::Dense`]'s tiles of 8 rows × samples `s..s + 4`, for a
    /// 4-sample batch: two rows a `__m256`, lanes `0..4` row `o + 2k` and
    /// lanes `4..8` row `o + 2k + 1`, each lane the chain of
    /// [`dense_tiles_4x8`].
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `xt` is `[ind × batch]` with `s + 4 <= batch`, `w` is
    /// `b.len() × ind` and `output` is `batch × b.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_tiles_8x4(
        xt: &[f32],
        ind: usize,
        s: usize,
        w: &[f32],
        b: &[f32],
        seed: f32,
        output: &mut [f32],
    ) -> usize {
        let (batch, outd) = (xt.len() / ind, b.len());
        assert!(
            xt.len() == ind * batch && s + 4 <= batch,
            "xt is [in × batch]"
        );
        assert!(
            w.len() == outd * ind && output.len() == batch * outd,
            "Dense shapes"
        );
        let mut o = 0;
        while o + 8 <= outd {
            let mut acc = [_mm256_set1_ps(seed); 4];
            for i in 0..ind {
                // SAFETY: `i < ind` and `s + 4 <= batch` (asserted), so the
                // 4 samples of `xt` row `i` are inside `xt`; `o + 8 <= outd`
                // and `w.len() == outd · ind` (asserted) keep `w[o + r][i]`
                // inside `w`.
                let x4 = _mm_loadu_ps(xt.as_ptr().add(i * batch + s));
                let x = _mm256_set_m128(x4, x4);
                for (k, a) in acc.iter_mut().enumerate() {
                    let lo = _mm256_broadcast_ss(w.get_unchecked((o + 2 * k) * ind + i));
                    let hi = _mm256_broadcast_ss(w.get_unchecked((o + 2 * k + 1) * ind + i));
                    let wv = _mm256_blend_ps::<0xF0>(lo, hi);
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, x));
                }
            }
            let mut lanes = [[0.0f32; 8]; 4];
            for (v, a) in lanes.iter_mut().zip(acc) {
                // SAFETY: `v` is the 8 lanes of one store.
                _mm256_storeu_ps(v.as_mut_ptr(), a);
            }
            for (r, v) in lanes.iter().flat_map(|v| v.chunks_exact(4)).enumerate() {
                for (l, a) in v.iter().enumerate() {
                    output[(s + l) * outd + o + r] = b[o + r] + a;
                }
            }
            o += 8;
        }
        o
    }

    /// [`super::Conv3x3`]'s tiles of 8 out-channels × positions `p..p + 8`
    /// of one sample: one `__m256` accumulator per channel, from its bias,
    /// taking `acc + w·x` for `j = (c, ky, kx)` ascending only in the lanes
    /// whose tap mask is set (`sum & m | acc & !m`); elsewhere a lane keeps
    /// its bits. A tap that no lane takes is skipped and one that every
    /// lane takes is added unmasked: both are what the select would leave.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `mask` is `[9 × hw]` with `p + 8 <= hw`, `taps` is
    /// `[k9 × hw]`, `weights` is `bias.len() × k9` and `out` is `bias.len()
    /// × hw`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_tiles_8x8(
        taps: &[f32],
        mask: &[u32],
        p: usize,
        weights: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) -> usize {
        let (hw, out_ch) = (mask.len() / 9, bias.len());
        assert!(mask.len() == 9 * hw && p + 8 <= hw, "mask is [9 × hw]");
        let k9 = taps.len() / hw;
        assert!(taps.len() == k9 * hw, "taps are [in_ch·9 × hw]");
        assert!(
            weights.len() == out_ch * k9 && out.len() == out_ch * hw,
            "Conv3x3 shapes"
        );
        let mut o = 0;
        while o + 8 <= out_ch {
            let mut acc = [_mm256_setzero_ps(); 8];
            for (a, &b) in acc.iter_mut().zip(&bias[o..o + 8]) {
                *a = _mm256_set1_ps(b);
            }
            for j in 0..k9 {
                // SAFETY: `j < k9` and `p + 8 <= hw` (asserted), so the 8
                // positions of tap row `j` are inside `taps` and those of
                // mask row `j % 9` inside `mask`; `o + 8 <= out_ch` and
                // `weights.len() == out_ch · k9` (asserted) keep
                // `weights[o + r][j]` inside `weights`.
                let x = _mm256_loadu_ps(taps.as_ptr().add(j * hw + p));
                let m = _mm256_loadu_ps(mask.as_ptr().add(j % 9 * hw + p).cast());
                let w = |r: usize| _mm256_set1_ps(*weights.get_unchecked((o + r) * k9 + j));
                match _mm256_movemask_ps(m) {
                    0 => {}
                    0xFF => {
                        for (r, a) in acc.iter_mut().enumerate() {
                            *a = _mm256_add_ps(*a, _mm256_mul_ps(w(r), x));
                        }
                    }
                    _ => {
                        for (r, a) in acc.iter_mut().enumerate() {
                            let sum = _mm256_add_ps(*a, _mm256_mul_ps(w(r), x));
                            *a = _mm256_or_ps(_mm256_and_ps(sum, m), _mm256_andnot_ps(m, *a));
                        }
                    }
                }
            }
            for (r, a) in acc.into_iter().enumerate() {
                // SAFETY: `o + r < out_ch`, `p + 8 <= hw` and `out.len() ==
                // out_ch · hw` (asserted): inside `out`.
                _mm256_storeu_ps(out.as_mut_ptr().add((o + r) * hw + p), a);
            }
            o += 8;
        }
        o
    }

    /// [`super::Dense`]'s backward for a batch of `B`, 4 rows a pass: per
    /// 8-lane slice `i..i + 8`, each row's `dW` slice takes `g[s][o]·x[s]`
    /// for `s` ascending in a register from `+0.0`, and each sample's `dx`
    /// slice `g[s][o]·W[o]` for the 4 rows `o` ascending; then `db[o] +=
    /// g[s][o]` onto a zeroed `db`. Those are the row-AXPY loop's orders.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `x` is `B × ind` with `ind % 8 == 0`, `g` is `B ×
    /// db.len()`, `w` and `dw` are `db.len() × ind`, and `gin`, when given,
    /// is `B × ind`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_backward_rows<const B: usize>(
        x: &[f32],
        g: &[f32],
        w: &[f32],
        dw: &mut [f32],
        db: &mut [f32],
        gin: Option<&mut [f32]>,
    ) -> usize {
        let (ind, outd) = (x.len() / B, db.len());
        assert!(
            x.len() == B * ind && ind.is_multiple_of(8),
            "x is [B × in], in % 8 == 0"
        );
        assert!(
            g.len() == B * outd && w.len() == outd * ind && dw.len() == w.len(),
            "Dense shapes"
        );
        assert!(
            gin.as_ref().is_none_or(|gin| gin.len() == x.len()),
            "dx is [B × in]"
        );
        let gin = gin.map(|gin| gin.as_mut_ptr());
        let mut o = 0;
        while o + 4 <= outd {
            for i in (0..ind).step_by(8) {
                let (mut wr, mut dwr) = ([_mm256_setzero_ps(); 4], [_mm256_setzero_ps(); 4]);
                for (r, wv) in wr.iter_mut().enumerate() {
                    // SAFETY: `o + r < outd` and `i + 8 <= ind` (`ind % 8 ==
                    // 0`), and `w` and `dw` are `outd × ind` (asserted).
                    *wv = _mm256_loadu_ps(w.as_ptr().add((o + r) * ind + i));
                }
                for s in 0..B {
                    // SAFETY: `s < B` and `i + 8 <= ind`, and `x` and `gin`
                    // are `B × ind` (asserted); `o + 4 <= outd` and `g` being
                    // `B × outd` (asserted) keep `g[s][o + r]` inside `g`.
                    let xv = _mm256_loadu_ps(x.as_ptr().add(s * ind + i));
                    let mut gv = [_mm256_setzero_ps(); 4];
                    for (r, v) in gv.iter_mut().enumerate() {
                        *v = _mm256_set1_ps(*g.get_unchecked(s * outd + o + r));
                    }
                    for (dv, gv) in dwr.iter_mut().zip(gv) {
                        *dv = _mm256_add_ps(*dv, _mm256_mul_ps(gv, xv));
                    }
                    if let Some(gin) = gin {
                        let dst = gin.add(s * ind + i);
                        let mut d = _mm256_loadu_ps(dst);
                        for (gv, wv) in gv.into_iter().zip(wr) {
                            d = _mm256_add_ps(d, _mm256_mul_ps(gv, wv));
                        }
                        _mm256_storeu_ps(dst, d);
                    }
                }
                for (r, dv) in dwr.into_iter().enumerate() {
                    // SAFETY: as for the loads above.
                    _mm256_storeu_ps(dw.as_mut_ptr().add((o + r) * ind + i), dv);
                }
            }
            for (r, d) in db[o..o + 4].iter_mut().enumerate() {
                for s in 0..B {
                    *d += g[s * outd + o + r];
                }
            }
            o += 4;
        }
        o
    }

    /// [`super::Conv3x3`]'s staged taps `[k9 × hw]` transposed into `cols`
    /// `[hw × k9p]`, `k9p` being `k9` rounded up to a whole register, in
    /// 8 × 8 blocks of positions `p..p + 8` × taps `j..j + 8` (rows past
    /// `k9` read as 0); a pure permutation of bits. Returns the first
    /// position it left to the scalar tail (`hw` rounded down to 8).
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `taps` is `[k9 × hw]` and `cols` `[hw × k9p]` with
    /// `k9 <= k9p`, `k9p % 8 == 0`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_taps(taps: &[f32], hw: usize, cols: &mut [f32]) -> usize {
        let (k9, k9p) = (taps.len() / hw, cols.len() / hw);
        assert!(
            taps.len() == k9 * hw && cols.len() == hw * k9p,
            "taps are [k9 × hw], cols [hw × k9p]"
        );
        assert!(
            k9 <= k9p && k9p.is_multiple_of(8),
            "k9p is k9 in whole registers"
        );
        let mut p = 0;
        while p + 8 <= hw {
            for j in (0..k9p).step_by(8) {
                let mut r = [_mm256_setzero_ps(); 8];
                for (i, r) in r.iter_mut().enumerate().take(k9.saturating_sub(j)) {
                    // SAFETY: `j + i < k9` and `p + 8 <= hw`: inside `taps`.
                    *r = _mm256_loadu_ps(taps.as_ptr().add((j + i) * hw + p));
                }
                let t0 = _mm256_unpacklo_ps(r[0], r[1]);
                let t1 = _mm256_unpackhi_ps(r[0], r[1]);
                let t2 = _mm256_unpacklo_ps(r[2], r[3]);
                let t3 = _mm256_unpackhi_ps(r[2], r[3]);
                let t4 = _mm256_unpacklo_ps(r[4], r[5]);
                let t5 = _mm256_unpackhi_ps(r[4], r[5]);
                let t6 = _mm256_unpacklo_ps(r[6], r[7]);
                let t7 = _mm256_unpackhi_ps(r[6], r[7]);
                let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
                let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
                let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
                let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
                let out = [
                    _mm256_permute2f128_ps::<0x20>(u0, u4),
                    _mm256_permute2f128_ps::<0x20>(u1, u5),
                    _mm256_permute2f128_ps::<0x20>(u2, u6),
                    _mm256_permute2f128_ps::<0x20>(u3, u7),
                    _mm256_permute2f128_ps::<0x31>(u0, u4),
                    _mm256_permute2f128_ps::<0x31>(u1, u5),
                    _mm256_permute2f128_ps::<0x31>(u2, u6),
                    _mm256_permute2f128_ps::<0x31>(u3, u7),
                ];
                for (l, v) in out.into_iter().enumerate() {
                    // SAFETY: `p + l < hw` and `j + 8 <= k9p`: inside `cols`.
                    _mm256_storeu_ps(cols.as_mut_ptr().add((p + l) * k9p + j), v);
                }
            }
            p += 8;
        }
        p
    }

    /// [`super::Conv3x3`]'s `dW` row of one out-channel over one sample,
    /// held in groups of up to 6 `__m256`s: for each non-zero `g` of `nz`
    /// in list order, `acc + g·col` in the lanes whose tap is inside the
    /// map and the accumulator's own bits elsewhere, which is the
    /// scatter's skip. For a finite `g` that is the plain `acc + g·col`:
    /// an off-map `col` is the staged `+0.0`, `g·0` is `±0.0`, and `acc +
    /// ±0.0` is `acc`, since an accumulator that starts at `+0.0` is never
    /// `−0.0` (a round-to-nearest sum is `−0.0` only when both addends
    /// are). A non-finite `g` makes `g·0` NaN, so it takes the select:
    /// `blendv` on the position's border-class mask.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `dw` is `k9p` long with `k9p % 8 == 0`, `cols` is `[h·w
    /// × k9p]`, `masks` is `[16 × k9p]` and every entry of `nz` is inside
    /// the `h × w` map.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_dw_row(
        cols: &[f32],
        masks: &[u32],
        h: usize,
        w: usize,
        nz: &[super::NonZero],
        dw: &mut [f32],
    ) {
        let k9p = dw.len();
        assert!(k9p.is_multiple_of(8), "dW rows are whole registers");
        assert!(
            cols.len() == h * w * k9p && masks.len() == 16 * k9p,
            "cols is [hw × k9p], masks [16 × k9p]"
        );
        assert!(
            nz.iter().all(|e| (e.y as usize) < h && (e.x as usize) < w),
            "non-zeros inside the map"
        );
        let regs = k9p / 8;
        let mut r = 0;
        while r < regs {
            let off = r * 8;
            // SAFETY (each arm): `off + 8·G <= k9p` and the shapes and
            // positions are asserted above.
            match regs - r {
                1 => dw_group::<1>(cols, masks, h, w, nz, dw, off),
                2 => dw_group::<2>(cols, masks, h, w, nz, dw, off),
                3 => dw_group::<3>(cols, masks, h, w, nz, dw, off),
                4 => dw_group::<4>(cols, masks, h, w, nz, dw, off),
                5 => dw_group::<5>(cols, masks, h, w, nz, dw, off),
                _ => dw_group::<6>(cols, masks, h, w, nz, dw, off),
            }
            r += 6;
        }
    }

    /// Registers `off / 8..off / 8 + G` of [`conv_dw_row`]'s row.
    ///
    /// # Safety
    /// The CPU must support AVX2, `off + 8·G <= dw.len()`, and the shapes
    /// and positions are as [`conv_dw_row`] asserts.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dw_group<const G: usize>(
        cols: &[f32],
        masks: &[u32],
        h: usize,
        w: usize,
        nz: &[super::NonZero],
        dw: &mut [f32],
        off: usize,
    ) {
        let k9p = dw.len();
        let mut acc = [_mm256_setzero_ps(); G];
        for (r, a) in acc.iter_mut().enumerate() {
            // SAFETY: `off + 8·G <= k9p` (caller).
            *a = _mm256_loadu_ps(dw.as_ptr().add(off + 8 * r));
        }
        for e in nz {
            let (y, x) = (e.y as usize, e.x as usize);
            let g = _mm256_set1_ps(e.g);
            // SAFETY: `y < h` and `x < w` keep the row inside `cols`
            // (`[hw × k9p]`).
            let col = cols.as_ptr().add((y * w + x) * k9p + off);
            if e.g.is_finite() {
                for (r, a) in acc.iter_mut().enumerate() {
                    let p = _mm256_mul_ps(g, _mm256_loadu_ps(col.add(8 * r)));
                    *a = _mm256_add_ps(*a, p);
                }
            } else {
                let class = super::ends(y, h) * 4 + super::ends(x, w);
                // SAFETY: `class < 16` keeps the row inside `masks` (`[16 ×
                // k9p]`).
                let mask = masks.as_ptr().add(class * k9p + off).cast::<f32>();
                for (r, a) in acc.iter_mut().enumerate() {
                    let sum = _mm256_add_ps(*a, _mm256_mul_ps(g, _mm256_loadu_ps(col.add(8 * r))));
                    *a = _mm256_blendv_ps(*a, sum, _mm256_loadu_ps(mask.add(8 * r)));
                }
            }
        }
        for (r, a) in acc.into_iter().enumerate() {
            // SAFETY: as for the loads.
            _mm256_storeu_ps(dw.as_mut_ptr().add(off + 8 * r), a);
        }
    }

    /// [`super::Conv3x3`]'s `d_in` of one sample from one out-channel: for
    /// each non-zero `g` of `nz` in list order and each of its in-map taps
    /// `(ky, kx)`, `d_in[q] += g·wT[tap]` at the source position `q`, `cp`
    /// channels a row, 8 a register.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    ///
    /// # Panics
    /// Panics unless `wt` is `[9 × cp]` with `cp % 8 == 0`, `din` is `[h·w
    /// × cp]` and every entry of `nz` is inside the `h × w` map.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_din(
        wt: &[f32],
        h: usize,
        w: usize,
        nz: &[super::NonZero],
        din: &mut [f32],
    ) {
        let cp = wt.len() / 9;
        assert!(
            wt.len() == 9 * cp && cp.is_multiple_of(8),
            "wT is [9 × cp], cp % 8 == 0"
        );
        assert_eq!(din.len(), h * w * cp, "d_in is [hw × cp]");
        assert!(
            nz.iter().all(|e| (e.y as usize) < h && (e.x as usize) < w),
            "non-zeros inside the map"
        );
        for e in nz {
            let (y, x) = (e.y as usize, e.x as usize);
            let g = _mm256_set1_ps(e.g);
            let kxs = super::taps_inside(x, w);
            // Per `ky`, the in-map taps `kx` are one run of `wT` rows and
            // their source positions one run of `d_in` rows.
            let run = kxs.len() * cp;
            for ky in super::taps_inside(y, h) {
                // SAFETY: every tap of the run is inside the map, so its
                // source position `(y + ky − 1, x + kx − 1)` is below `hw`
                // and its row inside `din`; `ky·3 + kx < 9` keeps its tap
                // row inside `wt`.
                let q = (y + ky - 1) * w + x + kxs.start - 1;
                let src = wt.as_ptr().add((ky * 3 + kxs.start) * cp);
                let dst = din.as_mut_ptr().add(q * cp);
                for r in (0..run).step_by(8) {
                    let d = _mm256_loadu_ps(dst.add(r));
                    let p = _mm256_mul_ps(g, _mm256_loadu_ps(src.add(r)));
                    _mm256_storeu_ps(dst.add(r), _mm256_add_ps(d, p));
                }
            }
        }
    }
}

impl Layer for Conv3x3 {
    /// Register-tiled over staged taps. Per sample, the 9 shifted copies of
    /// each input plane are staged as `[in_ch·9 × hw]`, after which every
    /// tile of 4 out-channels × 8 positions (single channels and single
    /// positions for the tails) is a small matrix product: from the bias,
    /// `acc + w·x` for `(in-channel, ky, kx)` ascending, kept only in the
    /// lanes whose tap is inside the map. Every output element receives the
    /// same products in the same order as the textbook per-element loop,
    /// and a skipped tap leaves its bits alone (a −0.0 bias stays −0.0).
    /// With AVX2 a tile is 8 out-channels × 8 positions in eight `__m256`
    /// accumulators, and the lane select is an and/andnot/or against the
    /// mask.
    fn forward(&mut self, input: &[f32], output: &mut [f32], params: &[f32]) {
        let hw = self.h * self.w;
        let batch = batch_of(input, self.in_ch * hw, "Conv3x3");
        assert_eq!(
            output.len(),
            batch * self.out_ch * hw,
            "Conv3x3: bad output size"
        );
        let (weights, bias) = params.split_at(self.out_ch * self.in_ch * 9);
        let bias = &bias[..self.out_ch];
        let samples = input
            .chunks_exact(self.in_ch * hw)
            .zip(output.chunks_exact_mut(self.out_ch * hw));
        for (xin, out) in samples {
            self.stage_taps(xin);
            let mut p = 0;
            while p + 8 <= hw {
                self.channels_of::<8>(weights, bias, p, out);
                p += 8;
            }
            for p in p..hw {
                self.channels_of::<1>(weights, bias, p, out);
            }
        }
    }

    /// Every `dW`, `db` and `d_in` element is a sum from `+0.0` over the
    /// non-zero output gradients `g` that reach it, in `(sample,
    /// out-channel, y, x)` order: `dW += g·in`, `db += g`, `d_in += g·w`,
    /// skipping a tap that falls off the map. The portable path is that
    /// scatter, with the in-map taps found once per position. With AVX2,
    /// per sample and out-channel, the plane's non-zero `g` are listed in
    /// position order, and `Conv3x3::backward_avx2` runs them through
    /// `dW`'s row in registers and through a position-major `d_in`.
    fn backward(
        &mut self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        params: &[f32],
        grads: &mut [f32],
        mut grad_in: Option<&mut [f32]>,
    ) {
        let (h, w) = (self.h, self.w);
        let hw = h * w;
        let in_sz = self.in_ch * hw;
        let batch = batch_of(input, in_sz, "Conv3x3");
        assert_eq!(
            grad_out.len(),
            batch * self.out_ch * hw,
            "Conv3x3: bad grad size"
        );
        let wlen = self.out_ch * self.in_ch * 9;
        let weights = &params[..wlen];
        grads.fill(0.0);
        let (dw, db) = grads.split_at_mut(wlen);
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_enabled() {
            self.backward_avx2(input, grad_out, weights, dw, db, grad_in);
            return;
        }
        if let Some(gin) = grad_in.as_deref_mut() {
            gin.fill(0.0);
        }
        let samples = input
            .chunks_exact(in_sz)
            .zip(grad_out.chunks_exact(self.out_ch * hw));
        for (s, (xin, gout)) in samples.enumerate() {
            let mut gin = grad_in.as_deref_mut().map(|g| &mut g[s * in_sz..][..in_sz]);
            for (o, gplane) in gout.chunks_exact(hw).enumerate() {
                for (pos, &g) in gplane.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    db[o] += g;
                    let (y, x) = (pos / w, pos % w);
                    let kxs = taps_inside(x, w);
                    for c in 0..self.in_ch {
                        for ky in taps_inside(y, h) {
                            let wi = ((o * self.in_ch + c) * 3 + ky) * 3;
                            let xi = (c * h + y + ky - 1) * w + x;
                            let taps = wi + kxs.start..wi + kxs.end;
                            let src = xi + kxs.start - 1..xi + kxs.end - 1;
                            for (d, iv) in dw[taps.clone()].iter_mut().zip(&xin[src.clone()]) {
                                *d += g * iv;
                            }
                            if let Some(gin) = gin.as_deref_mut() {
                                for (gi, wv) in gin[src].iter_mut().zip(&weights[taps]) {
                                    *gi += g * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn param_len(&self) -> usize {
        self.out_ch * self.in_ch * 9 + self.out_ch
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, _in: usize) -> usize {
        self.out_ch * self.h * self.w
    }
    fn layout(&self) -> Vec<ParamSegment> {
        vec![
            ParamSegment::Matrix {
                rows: self.out_ch,
                cols: self.in_ch * 9,
            },
            ParamSegment::Vector { len: self.out_ch },
        ]
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// 2×2 max pooling with stride 2 over `[C, H, W]` maps.
#[derive(Clone)]
pub struct MaxPool2 {
    ch: usize,
    h: usize,
    w: usize,
    /// Per output element, the batch-wide input index that won its window;
    /// sized by the largest batch seen and reused.
    argmax: Vec<u32>,
}

impl MaxPool2 {
    /// Creates the pool for `ch` channels of `h × w` maps (`h`, `w` even).
    ///
    /// # Panics
    /// Panics if `h` or `w` is odd.
    pub fn new(ch: usize, h: usize, w: usize) -> MaxPool2 {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "MaxPool2: dims must be even"
        );
        MaxPool2 {
            ch,
            h,
            w,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, input: &[f32], output: &mut [f32], _params: &[f32]) {
        let (w, ow) = (self.w, self.w / 2);
        let batch = batch_of(input, self.ch * self.h * w, "MaxPool2");
        assert_eq!(output.len(), input.len() / 4, "MaxPool2: bad output size");
        assert!(
            u32::try_from(input.len()).is_ok(),
            "MaxPool2: batch of {batch} exceeds u32 indices"
        );
        self.argmax.resize(output.len(), 0);
        // Output rows are the pairs of input rows, across samples and
        // channels alike.
        for (r, (orow, arow)) in output
            .chunks_exact_mut(ow)
            .zip(self.argmax.chunks_exact_mut(ow))
            .enumerate()
        {
            let top = 2 * r * w;
            for (x, (ov, av)) in orow.iter_mut().zip(arow).enumerate() {
                // The window's own first element seeds the search, so a
                // window with no element greater than another (all NaN,
                // all −inf) still routes its gradient to itself.
                let first = top + 2 * x;
                let (mut best, mut best_idx) = (input[first], first);
                for idx in [first + 1, first + w, first + w + 1] {
                    if input[idx] > best {
                        best = input[idx];
                        best_idx = idx;
                    }
                }
                *ov = best;
                *av = best_idx as u32;
            }
        }
    }

    fn backward(
        &mut self,
        _input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        _params: &[f32],
        _grads: &mut [f32],
        grad_in: Option<&mut [f32]>,
    ) {
        let Some(grad_in) = grad_in else { return };
        grad_in.fill(0.0);
        for (&idx, &g) in self.argmax.iter().zip(grad_out) {
            grad_in[idx as usize] += g;
        }
    }

    fn param_len(&self) -> usize {
        0
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim / 4
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// Parameter-free layer normalization over each sample's feature vector:
/// `y = (x − μ) / √(σ² + ε)`.
///
/// Besides being standard in transformer stacks, LayerNorm equalizes
/// activation scales — which is what gives BERT-style models their
/// *uniformly* hot gradient rows (all entries of a frequent token's
/// embedding/output row carry comparable gradient magnitude). That row-level
/// uniformity is the gradient structure TopKC's chunk selection exploits.
#[derive(Clone, Default)]
pub struct LayerNorm {
    /// `1/√(σ² + ε)` per sample of the last forward (the normalized values
    /// themselves are the layer's output); reused across calls.
    inv_std: Vec<f32>,
    features: usize,
}

impl LayerNorm {
    /// Creates a LayerNorm over `features`-dimensional samples.
    pub fn new(features: usize) -> LayerNorm {
        LayerNorm {
            inv_std: Vec::new(),
            features,
        }
    }

    const EPS: f32 = 1e-5;
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &[f32], output: &mut [f32], _params: &[f32]) {
        let f = self.features;
        let batch = batch_of(input, f, "LayerNorm");
        assert_eq!(output.len(), input.len(), "LayerNorm: bad output size");
        self.inv_std.resize(batch, 0.0);
        let samples = input.chunks_exact(f).zip(output.chunks_exact_mut(f));
        for ((x, y), inv_std) in samples.zip(&mut self.inv_std) {
            let mean = x.iter().sum::<f32>() / f as f32;
            let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
            let inv = 1.0 / (var + Self::EPS).sqrt();
            *inv_std = inv;
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = (xi - mean) * inv;
            }
        }
    }

    fn backward(
        &mut self,
        _input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        _params: &[f32],
        _grads: &mut [f32],
        grad_in: Option<&mut [f32]>,
    ) {
        let Some(grad_in) = grad_in else { return };
        let f = self.features;
        let samples = grad_out.chunks_exact(f).zip(output.chunks_exact(f));
        for (((g, xhat), gx), &inv) in samples.zip(grad_in.chunks_exact_mut(f)).zip(&self.inv_std) {
            let mean_g = g.iter().sum::<f32>() / f as f32;
            let mean_gx = g.iter().zip(xhat).map(|(a, b)| a * b).sum::<f32>() / f as f32;
            for ((gxi, gi), xi) in gx.iter_mut().zip(g).zip(xhat) {
                *gxi = inv * (gi - mean_g - xi * mean_gx);
            }
        }
    }

    fn param_len(&self) -> usize {
        0
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// Token embedding lookup: input is a batch of `ctx` token ids (as f32),
/// output is the concatenated embeddings `[batch × ctx·dim]`.
#[derive(Clone)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    ctx: usize,
    init: Vec<f32>,
}

impl Embedding {
    /// Creates an embedding table for `vocab` tokens of `dim` dimensions,
    /// consuming `ctx` tokens per sample.
    pub fn new(vocab: usize, dim: usize, ctx: usize, rng: &mut impl rand::Rng) -> Embedding {
        let init: Vec<f32> = (0..vocab * dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
        Embedding {
            vocab,
            dim,
            ctx,
            init,
        }
    }

    /// The table row of token `t`.
    fn row(&self, t: f32) -> std::ops::Range<usize> {
        let id = t as usize;
        assert!(id < self.vocab, "Embedding: token {id} out of vocab");
        id * self.dim..(id + 1) * self.dim
    }
}

impl Layer for Embedding {
    fn forward(&mut self, input: &[f32], output: &mut [f32], params: &[f32]) {
        batch_of(input, self.ctx, "Embedding");
        assert_eq!(
            output.len(),
            input.len() * self.dim,
            "Embedding: bad output size"
        );
        for (&t, slot) in input.iter().zip(output.chunks_exact_mut(self.dim)) {
            slot.copy_from_slice(&params[self.row(t)]);
        }
    }

    fn backward(
        &mut self,
        input: &[f32],
        _output: &[f32],
        grad_out: &[f32],
        _params: &[f32],
        grads: &mut [f32],
        grad_in: Option<&mut [f32]>,
    ) {
        grads.fill(0.0);
        for (&t, g) in input.iter().zip(grad_out.chunks_exact(self.dim)) {
            for (gi, gv) in grads[self.row(t)].iter_mut().zip(g) {
                *gi += gv;
            }
        }
        // Token ids have no gradient.
        if let Some(grad_in) = grad_in {
            grad_in.fill(0.0);
        }
    }

    fn param_len(&self) -> usize {
        self.vocab * self.dim
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, _in: usize) -> usize {
        self.ctx * self.dim
    }
    fn layout(&self) -> Vec<ParamSegment> {
        vec![ParamSegment::Matrix {
            rows: self.vocab,
            cols: self.dim,
        }]
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// A sequential stack of layers over one parameter arena, one gradient
/// arena and one activation arena: layer `i` views `params.layer(i)` /
/// `grads.layer(i)`, the whole model's parameters and gradient are each a
/// single contiguous slice, and every layer reads its input from, and
/// writes its output into, the activation arena — the input batch itself is
/// only ever borrowed.
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send>>,
    params: ParamArena,
    grads: ParamArena,
    acts: ActivationArena,
}

impl Clone for Sequential {
    fn clone(&self) -> Sequential {
        Sequential {
            layers: self.layers.iter().map(|l| l.clone_layer()).collect(),
            params: self.params.clone(),
            grads: self.grads.clone(),
            acts: self.acts.clone(),
        }
    }
}

impl Sequential {
    /// Samples the activation arena holds until a larger batch arrives.
    const INITIAL_CHUNK: usize = 8;

    /// Builds from boxed layers taking `in_dim` values per sample, moving
    /// each layer's construction-time initial values into the parameter
    /// arena.
    ///
    /// # Panics
    /// Panics if `layers` is empty.
    pub fn new(in_dim: usize, mut layers: Vec<Box<dyn Layer + Send>>) -> Sequential {
        assert!(!layers.is_empty(), "Sequential: no layers");
        let lens: Vec<usize> = layers.iter().map(|l| l.param_len()).collect();
        let mut params = ParamArena::from_layer_lens(&lens);
        let grads = ParamArena::from_layer_lens(&lens);
        let mut widths = Vec::with_capacity(layers.len());
        let mut width = in_dim;
        for (i, l) in layers.iter_mut().enumerate() {
            let init = l.take_init();
            assert_eq!(
                init.len(),
                lens[i],
                "Sequential: layer {i} init/param_len mismatch"
            );
            params.layer_mut(i).copy_from_slice(&init);
            width = l.out_dim(width);
            widths.push(width);
        }
        Sequential {
            layers,
            params,
            grads,
            acts: ActivationArena::new(&widths, Self::INITIAL_CHUNK),
        }
    }

    /// Forward through all layers; returns the last layer's output, which
    /// stays in the activation arena.
    pub fn forward(&mut self, input: &[f32], batch: usize) -> &[f32] {
        self.acts.reserve(batch);
        let last = self.layers.len() - 1;
        for (i, l) in self.layers.iter_mut().enumerate() {
            let params = self.params.layer(i);
            if i == 0 {
                l.forward(input, self.acts.output_mut(0, batch), params);
            } else {
                let (x, y) = self.acts.forward_views(i, batch);
                l.forward(x, y, params);
            }
        }
        self.acts.output(last, batch)
    }

    /// The last [`Sequential::forward`]'s output and the buffer a loss
    /// writes `d(loss)/d(output)` into before [`Sequential::backward`].
    pub fn output_and_grad_mut(&mut self, batch: usize) -> (&[f32], &mut [f32]) {
        self.acts.output_and_grad_mut(self.layers.len() - 1, batch)
    }

    /// Backward through all layers, after a forward pass over the same
    /// `input` and with the output gradient in place.
    pub fn backward(&mut self, input: &[f32], batch: usize) {
        for (i, l) in self.layers.iter_mut().enumerate().rev() {
            let (params, grads) = (self.params.layer(i), self.grads.layer_mut(i));
            if i == 0 {
                let (y, gy) = self.acts.output_and_grad_mut(0, batch);
                l.backward(input, y, gy, params, grads, None);
            } else {
                let v = self.acts.backward_views(i, batch);
                l.backward(
                    v.input,
                    v.output,
                    v.grad_out,
                    params,
                    grads,
                    Some(v.grad_in),
                );
            }
        }
    }

    /// Mean softmax cross-entropy of `batch` under this stack's logits,
    /// leaving its gradient in [`Sequential::grads_flat`].
    pub fn softmax_loss_grad(&mut self, batch: &Batch) -> f32 {
        let n = batch.targets.len();
        let classes = self.forward(&batch.inputs, n).len() / n.max(1);
        let (logits, grad) = self.output_and_grad_mut(n);
        let loss = softmax_cross_entropy(logits, &batch.targets, classes, Some(grad));
        self.backward(&batch.inputs, n);
        loss
    }

    /// Forward only, over any number of samples: streams `inputs` through
    /// the activation arena a chunk at a time and collects the outputs in
    /// `logits`. Samples do not interact in a forward pass, so the result
    /// is the same as one pass over all of them, at a chunk's memory.
    ///
    /// # Panics
    /// Panics if `logits` is not `n` samples of the stack's output width.
    pub fn predict_into(&mut self, inputs: &[f32], n: usize, logits: &mut [f32]) {
        if n == 0 {
            return;
        }
        let (in_dim, out_dim) = (inputs.len() / n, logits.len() / n);
        let chunk = self.acts.chunk();
        for (x, y) in inputs
            .chunks(chunk * in_dim)
            .zip(logits.chunks_mut(chunk * out_dim))
        {
            y.copy_from_slice(self.forward(x, x.len() / in_dim));
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The whole model's parameters as one contiguous slice.
    pub fn params_flat(&self) -> &[f32] {
        self.params.as_slice()
    }

    /// Mutable whole-model parameter slice (in-place optimizer updates).
    pub fn params_flat_mut(&mut self) -> &mut [f32] {
        self.params.as_mut_slice()
    }

    /// The last backward pass's whole-model gradient as one slice.
    pub fn grads_flat(&self) -> &[f32] {
        self.grads.as_slice()
    }

    /// The parameter arena (per-layer offsets included).
    pub fn param_arena(&self) -> &ParamArena {
        &self.params
    }

    /// The gradient arena (per-layer offsets included).
    pub fn grad_arena(&self) -> &ParamArena {
        &self.grads
    }

    /// Overwrites all parameters from a flat vector — one `copy_from_slice`
    /// over the arena.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        self.params.copy_from(flat);
    }

    /// Per-layer parameter shapes as `(rows, cols)` for low-rank schemes:
    /// weight matrices only (dense `[out, in]`, conv `[out, in·9]`,
    /// embedding `[vocab, dim]`); biases excluded.
    pub fn matrix_shapes(&self) -> Vec<(usize, usize)> {
        // The flat layout interleaves weights and biases per layer; callers
        // that need exact offsets should use `param_layout`.
        self.param_layout()
            .into_iter()
            .filter_map(|seg| match seg {
                ParamSegment::Matrix { rows, cols } => Some((rows, cols)),
                ParamSegment::Vector { .. } => None,
            })
            .collect()
    }

    /// The exact flat-parameter layout: a sequence of matrix and vector
    /// segments whose sizes sum to `param_count()`.
    pub fn param_layout(&self) -> Vec<ParamSegment> {
        let mut segs = Vec::new();
        for l in &self.layers {
            for s in l.layout() {
                segs.push(s);
            }
        }
        segs
    }
}

/// One contiguous segment of the flat parameter vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamSegment {
    /// A weight matrix of `rows × cols` values.
    Matrix {
        /// Output dimension.
        rows: usize,
        /// Input dimension.
        cols: usize,
    },
    /// A non-matrix parameter (bias etc.) of `len` values.
    Vector {
        /// Number of values.
        len: usize,
    },
}

impl ParamSegment {
    /// Values in this segment.
    pub fn len(&self) -> usize {
        match *self {
            ParamSegment::Matrix { rows, cols } => rows * cols,
            ParamSegment::Vector { len } => len,
        }
    }

    /// True if the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs a single layer outside a [`Sequential`], lending it the buffers the
/// activation arena otherwise would (NaN-filled, so an element a layer
/// fails to overwrite shows).
#[cfg(test)]
pub(crate) mod testing {
    use super::Layer;

    pub(crate) fn forward(
        layer: &mut dyn Layer,
        input: &[f32],
        batch: usize,
        params: &[f32],
    ) -> Vec<f32> {
        let mut output = vec![f32::NAN; batch * layer.out_dim(input.len() / batch)];
        layer.forward(input, &mut output, params);
        output
    }

    /// Backward of the forward that produced `output`; returns
    /// `d(loss)/d(input)`.
    pub(crate) fn backward(
        layer: &mut dyn Layer,
        input: &[f32],
        output: &[f32],
        grad_out: &[f32],
        params: &[f32],
        grads: &mut [f32],
    ) -> Vec<f32> {
        let mut grad_in = vec![f32::NAN; input.len()];
        layer.backward(input, output, grad_out, params, grads, Some(&mut grad_in));
        grad_in
    }

    /// `0.5 · Σ out²` of a forward pass — the loss whose `d/d(out)` is `out`.
    pub(crate) fn half_sq_loss(
        layer: &mut dyn Layer,
        input: &[f32],
        batch: usize,
        params: &[f32],
    ) -> f32 {
        forward(layer, input, batch, params)
            .iter()
            .map(|x| 0.5 * x * x)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{backward, forward, half_sq_loss};
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a layer + squared-error loss,
    /// with the parameter/gradient storage held externally (as the arena
    /// does in a real model).
    fn grad_check(layer: &mut dyn Layer, input: &[f32], batch: usize, tol: f32) {
        let mut params = layer.take_init();
        assert_eq!(params.len(), layer.param_len());
        let mut grads = vec![0.0f32; params.len()];
        // Loss = 0.5 * sum(out^2); dLoss/dout = out.
        let out = forward(layer, input, batch, &params);
        backward(layer, input, &out, &out, &params, &mut grads);
        let eps = 1e-3f32;
        let n_params = params.len();
        for pi in (0..n_params).step_by((n_params / 24).max(1)) {
            let orig = params[pi];
            params[pi] = orig + eps;
            let lp = half_sq_loss(layer, input, batch, &params);
            params[pi] = orig - eps;
            let lm = half_sq_loss(layer, input, batch, &params);
            params[pi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = grads[pi];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            assert!(
                (a - numeric).abs() / denom < tol,
                "param {pi}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// Finite-difference check of `d(loss)/d(input)` under the same loss.
    fn input_grad_check(layer: &mut dyn Layer, input: &[f32], batch: usize, tol: f32) {
        let params = layer.take_init();
        let mut grads = vec![0.0f32; params.len()];
        let out = forward(layer, input, batch, &params);
        let gin = backward(layer, input, &out, &out, &params, &mut grads);
        let eps = 1e-3;
        for i in 0..input.len() {
            let mut ip = input.to_vec();
            ip[i] += eps;
            let mut im = input.to_vec();
            im[i] -= eps;
            let numeric = (half_sq_loss(layer, &ip, batch, &params)
                - half_sq_loss(layer, &im, batch, &params))
                / (2.0 * eps);
            assert!(
                (gin[i] - numeric).abs() / numeric.abs().max(1.0) < tol,
                "input {i}: {} vs {numeric}",
                gin[i]
            );
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn dense_gradient_check() {
        let mut r = rng();
        let mut layer = Dense::new(5, 4, &mut r);
        let input: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).sin()).collect();
        grad_check(&mut layer, &input, 2, 2e-2);
        // Six outputs: one 4-row tile and two single-row tails.
        grad_check(&mut Dense::new(5, 6, &mut r), &input, 2, 2e-2);
    }

    #[test]
    fn conv_gradient_check() {
        let mut r = rng();
        let mut layer = Conv3x3::new(2, 3, 4, 4, &mut r);
        let input: Vec<f32> = (0..2 * 2 * 16).map(|i| (i as f32 * 0.31).cos()).collect();
        grad_check(&mut layer, &input, 2, 2e-2);
        input_grad_check(&mut Conv3x3::new(2, 3, 4, 4, &mut r), &input, 2, 2e-2);
    }

    #[test]
    fn embedding_gradient_check() {
        let mut r = rng();
        let mut layer = Embedding::new(7, 3, 4, &mut r);
        let input = vec![0.0f32, 3.0, 6.0, 1.0, 2.0, 2.0, 5.0, 4.0];
        grad_check(&mut layer, &input, 2, 2e-2);
    }

    #[test]
    fn layernorm_normalizes_and_gradient_checks() {
        let mut l = LayerNorm::new(4);
        let out = forward(&mut l, &[1.0, 2.0, 3.0, 4.0], 1, &[]);
        let mean: f32 = out.iter().sum::<f32>() / 4.0;
        let var: f32 = out.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5 && (var - 1.0).abs() < 1e-3);

        // Input-gradient finite-difference check under loss = 0.5*sum((y*w)^2)
        // with asymmetric weights (plain sum-of-squares has zero gradient
        // through a normalizer by construction).
        let input = vec![0.5f32, -1.0, 2.0, 0.3];
        let w = [1.0f32, 2.0, -1.0, 0.5];
        let loss = |l: &mut LayerNorm, x: &[f32]| -> f32 {
            forward(l, x, 1, &[])
                .iter()
                .zip(&w)
                .map(|(y, wi)| 0.5 * (y * wi) * (y * wi))
                .sum()
        };
        let y = forward(&mut l, &input, 1, &[]);
        let gy: Vec<f32> = y.iter().zip(&w).map(|(yi, wi)| yi * wi * wi).collect();
        let gin = backward(&mut l, &input, &y, &gy, &[], &mut []);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = input.clone();
            xp[i] += eps;
            let mut xm = input.clone();
            xm[i] -= eps;
            let numeric = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            assert!(
                (gin[i] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "input {i}: {} vs {numeric}",
                gin[i]
            );
        }
    }

    #[test]
    fn relu_masks_gradient() {
        let mut l = Relu::new();
        let input = [-1.0, 2.0, 0.0, 3.0];
        let out = forward(&mut l, &input, 1, &[]);
        assert_eq!(out, vec![0.0, 2.0, 0.0, 3.0]);
        let gin = backward(&mut l, &input, &out, &[1.0; 4], &[], &mut []);
        assert_eq!(gin, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut l = MaxPool2::new(1, 2, 2);
        let input = [1.0, 5.0, 2.0, 3.0];
        let out = forward(&mut l, &input, 1, &[]);
        assert_eq!(out, vec![5.0]);
        let gin = backward(&mut l, &input, &out, &[7.0], &[], &mut []);
        assert_eq!(gin, vec![0.0, 7.0, 0.0, 0.0]);
    }

    /// Regression: the search used to start from the batch-wide index 0, so
    /// a window in which no element is greater than another (all NaN, all
    /// −inf) sent its gradient to element 0 of sample 0.
    #[test]
    fn maxpool_degenerate_window_keeps_its_gradient_in_its_own_sample() {
        let mut l = MaxPool2::new(1, 2, 2);
        for degenerate in [f32::NAN, f32::NEG_INFINITY] {
            let mut input = vec![1.0, 5.0, 2.0, 3.0];
            input.extend([degenerate; 4]);
            let out = forward(&mut l, &input, 2, &[]);
            let gin = backward(&mut l, &input, &out, &[7.0, 11.0], &[], &mut []);
            assert_eq!(gin[..4], [0.0, 7.0, 0.0, 0.0], "sample 0 of {degenerate}");
            assert_eq!(gin[4..], [11.0, 0.0, 0.0, 0.0], "sample 1 of {degenerate}");
        }
    }

    #[test]
    fn dense_input_gradient_check() {
        let mut r = rng();
        let input: Vec<f32> = (0..4).map(|i| (i as f32 * 0.9).sin()).collect();
        input_grad_check(&mut Dense::new(4, 3, &mut r), &input, 1, 2e-2);
    }

    #[test]
    fn sequential_flat_round_trip() {
        let mut r = rng();
        let mut seq = Sequential::new(
            6,
            vec![
                Box::new(Dense::new(6, 5, &mut r)),
                Box::new(Relu::new()),
                Box::new(Dense::new(5, 2, &mut r)),
            ],
        );
        let p = seq.params_flat().to_vec();
        assert_eq!(p.len(), 6 * 5 + 5 + 5 * 2 + 2);
        let mut p2 = p.clone();
        p2[0] = 42.0;
        seq.set_flat_params(&p2);
        assert_eq!(seq.params_flat()[0], 42.0);
        for v in seq.params_flat_mut() {
            *v += 1.0;
        }
        assert_eq!(seq.params_flat()[0], 43.0);
    }

    #[test]
    fn arena_layers_are_views_into_the_flat_params() {
        let mut r = rng();
        let seq = Sequential::new(
            3,
            vec![
                Box::new(Dense::new(3, 2, &mut r)),
                Box::new(Relu::new()),
                Box::new(Dense::new(2, 4, &mut r)),
            ],
        );
        let arena = seq.param_arena();
        assert_eq!(arena.offsets().len(), 4);
        assert_eq!(arena.layer(0).len(), 3 * 2 + 2);
        assert_eq!(arena.layer(1).len(), 0);
        assert_eq!(arena.layer(2).len(), 2 * 4 + 4);
        // Layer slices concatenate to exactly the flat view, in order.
        let flat = seq.params_flat();
        assert_eq!(&flat[..arena.layer(0).len()], arena.layer(0));
        assert_eq!(&flat[arena.offsets()[2]..], arena.layer(2));
        assert_eq!(arena.len(), flat.len());
    }

    #[test]
    fn sequential_trains_a_linear_map() {
        // One dense layer can fit y = 2x exactly with SGD on MSE.
        let mut r = rng();
        let mut seq = Sequential::new(1, vec![Box::new(Dense::new(1, 1, &mut r))]);
        let x = [0.5f32, -1.0, 2.0];
        let mut opt = crate::optim::Sgd::new(0.05, 0.0, 0.0);
        for _ in 0..300 {
            seq.forward(&x, 3);
            let (y, grad) = seq.output_and_grad_mut(3);
            for ((g, yi), xi) in grad.iter_mut().zip(y).zip(&x) {
                *g = yi - 2.0 * xi;
            }
            seq.backward(&x, 3);
            let g = seq.grads_flat().to_vec();
            opt.step_into(seq.params_flat_mut(), &g);
        }
        let out = seq.forward(&[1.0], 1);
        assert!((out[0] - 2.0).abs() < 0.05, "learned {}", out[0]);
    }

    #[test]
    fn predict_into_streams_in_chunks_and_matches_one_pass() {
        let mut r = rng();
        let mut seq = Sequential::new(
            6,
            vec![
                Box::new(Dense::new(6, 5, &mut r)),
                Box::new(Relu::new()),
                Box::new(LayerNorm::new(5)),
                Box::new(Dense::new(5, 3, &mut r)),
            ],
        );
        // 21 samples: two full chunks of the initial arena and a ragged one.
        let n = 2 * Sequential::INITIAL_CHUNK + 5;
        let inputs: Vec<f32> = (0..n * 6).map(|i| (i as f32 * 0.13).sin()).collect();
        let mut streamed = vec![0.0f32; n * 3];
        seq.predict_into(&inputs, n, &mut streamed);
        assert_eq!(seq.acts.chunk(), Sequential::INITIAL_CHUNK);
        let one_pass = seq.forward(&inputs, n).to_vec();
        assert_eq!(seq.acts.chunk(), n);
        assert_eq!(streamed, one_pass);
    }
}
