//! THC-style stochastic quantization with the paper's two improvements:
//! **partial rotation** and **saturation-based aggregation** (§3.2).
//!
//! Pipeline per round, block by block (a *block* is the span one scale
//! covers: the rotation block under partial rotation, the whole padded
//! vector otherwise):
//!
//! 1. Pad the gradient to `2^l` and apply a Randomized Hadamard Transform —
//!    fully (`l` iterations), partially (`l' = log2(shared-memory block)`
//!    iterations ≡ independent per-block rotations), or not at all. Each
//!    block is signed, transformed and scanned for its max magnitude while
//!    it is cache-resident.
//! 2. Agree on per-block symmetric scales: each worker's per-block max
//!    magnitude is max-all-reduced (tiny payload), so every worker uses the
//!    *same* quantization grid — a precondition for summing lanes at
//!    intermediate hops.
//! 3. Stochastically round each coordinate to a signed `q`-bit lane
//!    (unbiased) with the block's scale hoisted, streaming the lanes
//!    straight into a [`PackedIntVec`] at the **wire width** — `q` bits for
//!    saturation, `b` for widening. There is no unpacked lane buffer.
//! 4. Aggregate the packed words with a ring all-reduce
//!    ([`ring_all_reduce_packed_into`]) whose reduction is either the
//!    paper's **`Sat(·,·)`** operator at `b = q` bits (§3.2.2), or THC's
//!    original "simple adaptation": widen to `b > q` bits so sums cannot
//!    overflow — more traffic, still `n`-limited. The ring moves exactly the
//!    `wire_bits / 8` bytes per lane that [`Traffic`] records, and folds
//!    them a word at a time.
//! 5. Unpack, rescale, inverse-rotate (again per block), truncate.
//!
//! The round is pinned, bit for bit, to a plain one-`i32`-per-lane
//! formulation that shares none of these kernels (the oracle in
//! `tests/thc_round.rs`; DESIGN.md, "THC round on packed lanes", says why
//! each step is exact). The one shared-state subtlety is the rounding
//! stream: each worker draws one uniform per lane, in lane order, from its
//! `(worker, round)` stream — and **nothing** for a block whose agreed scale
//! is zero.
//!
//! Why saturation is safe *after rotation*: the RHT spreads each gradient
//! into approximately Gaussian coordinates concentrated near zero, and
//! opposite-signed contributions cancel during summation, so clamping at
//! `±(2^{b−1}−1)` rarely triggers (§3.2.2). Without rotation the raw
//! gradient's heavy tail saturates far more often — tests below check
//! exactly this.

use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{
    ring_all_reduce_into, ring_all_reduce_packed_into, F32Max, RingScratch, Traffic,
};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::bitpack::{LaneAdd, PackedIntVec};
use gcs_tensor::hadamard::{
    fwht, padded_len, rademacher_diagonal, rademacher_diagonal_at, RotationMode,
};
use gcs_tensor::half::F16;
use gcs_tensor::pool::WorkerBufs;
use gcs_tensor::rng::{worker_rng, SharedSeed, Stream};
use gcs_tensor::simd::quantize_stochastic;
use rand::Rng;

/// Lanes quantized per kernel call: uniforms are drawn into, and lanes
/// packed out of, stack blocks of this many.
const LANE_BLOCK: usize = 64;

/// `q + ceil(log2 n)`: lane bits that always hold the exact sum of `n`
/// workers' `q`-bit lanes.
fn sufficient_bits(q: u32, n: usize) -> u32 {
    q + (n.max(1) as f64).log2().ceil() as u32
}

/// How quantized lanes are aggregated across workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThcAggregation {
    /// The paper's saturation operator at `b = q` bits — no widening.
    Saturating,
    /// THC's simple adaptation: widen lanes to `b > q` bits so the exact sum
    /// fits: `n · (2^{q−1}−1) <= 2^{b−1}−1`, for which
    /// `b >= q + ceil(log2 n)` suffices. [`Thc::new`] and every round
    /// enforce it — on `b`-bit lanes a sum that does not fit would wrap.
    Widened {
        /// Communication bits per lane.
        b: u32,
    },
}

/// Round scratch owned across rounds: per-worker rotation and scale buffers,
/// the packed wire lanes, and collective staging, all at their high-water
/// mark after the first round (the zero-allocation steady state).
#[derive(Clone, Debug, Default)]
struct ThcScratch {
    rotated: WorkerBufs<f32>,
    scales: WorkerBufs<f32>,
    packed: Vec<PackedIntVec>,
    ring_f32: RingScratch<f32>,
    ring_words: RingScratch<u64>,
    lane_traffic: Traffic,
}

/// THC quantization scheme.
#[derive(Clone, Debug)]
pub struct Thc {
    q: u32,
    rotation: RotationMode,
    aggregation: ThcAggregation,
    n_workers: usize,
    scratch: ThcScratch,
}

impl Thc {
    /// Creates THC with `q`-bit quantization.
    ///
    /// # Panics
    /// Panics if `q` is outside `2..=16`, or a widened config has `b < q`,
    /// `b > 32`, or a `b` too narrow for the exact sum of `n_workers` lanes
    /// ([`Thc::widened_sum_fits`]).
    pub fn new(
        q: u32,
        rotation: RotationMode,
        aggregation: ThcAggregation,
        n_workers: usize,
    ) -> Thc {
        assert!((2..=16).contains(&q), "Thc: q={q} out of range");
        if let ThcAggregation::Widened { b } = aggregation {
            assert!(b >= q, "Thc: widened b={b} must be >= q={q}");
            assert!(b <= 32, "Thc: widened b={b} exceeds the 32-bit lane limit");
        }
        let thc = Thc {
            q,
            rotation,
            aggregation,
            n_workers,
            scratch: ThcScratch::default(),
        };
        thc.assert_sum_fits(n_workers);
        thc
    }

    /// Whether the exact sum of `n_workers` quantized `q`-bit lanes fits a
    /// signed `b`-bit lane: `n · (2^{q−1}−1) <= 2^{b−1}−1` (false for widths
    /// outside `1..=32`).
    pub fn widened_sum_fits(q: u32, b: u32, n_workers: usize) -> bool {
        if !(1..=32).contains(&q) || !(1..=32).contains(&b) {
            return false;
        }
        let qmax = (1u64 << (q - 1)) - 1;
        (n_workers as u64).saturating_mul(qmax) < 1u64 << (b - 1)
    }

    /// Panics if this is a widened configuration whose lanes cannot hold the
    /// exact sum of `n` workers' lanes.
    fn assert_sum_fits(&self, n: usize) {
        if let ThcAggregation::Widened { b } = self.aggregation {
            assert!(
                Thc::widened_sum_fits(self.q, b, n),
                "Thc: the sum of {n} workers' q={} lanes overflows widened b={b} lanes \
                 (overflow_free_bits() = {} always suffices)",
                self.q,
                sufficient_bits(self.q, n),
            );
        }
    }

    /// The paper's improved configuration: partial rotation sized to the
    /// device's shared memory + saturation at `b = q`.
    pub fn improved(q: u32, device: &DeviceSpec, n_workers: usize) -> Thc {
        Thc::new(
            q,
            RotationMode::Partial {
                block_log2: device.shared_mem_block_log2(),
            },
            ThcAggregation::Saturating,
            n_workers,
        )
    }

    /// Extra lane bits [`Thc::baseline`] widens by.
    pub const BASELINE_WIDENING: u32 = 4;

    /// The baseline THC adaptation from §3.2.1: full rotation, widened to
    /// `b = q + 4` (the paper's Table 8 baseline uses q=4, b=8) — room for
    /// the exact sum of 16–18 workers.
    ///
    /// # Panics
    /// Panics as [`Thc::new`] does, in particular when `n_workers` lanes
    /// cannot be summed in `q + 4` bits.
    pub fn baseline(q: u32, n_workers: usize) -> Thc {
        Thc::new(
            q,
            RotationMode::Full,
            ThcAggregation::Widened {
                b: q + Thc::BASELINE_WIDENING,
            },
            n_workers,
        )
    }

    /// Communication bits per lane.
    pub fn wire_bits(&self) -> u32 {
        match self.aggregation {
            ThcAggregation::Saturating => self.q,
            ThcAggregation::Widened { b } => b,
        }
    }

    fn qmax(&self) -> i32 {
        (1i32 << (self.q - 1)) - 1
    }

    /// The widening THC's simple adaptation needs to make the exact sum of
    /// this cluster's `n` workers overflow-free: `q + ceil(log2 n)` bits.
    /// The paper's point (§3.2.2) is that this grows with `n` while
    /// saturation stays at `b = q`.
    pub fn overflow_free_bits(&self) -> u32 {
        sufficient_bits(self.q, self.n_workers)
    }

    /// Functional padded length for a gradient of `d` coordinates.
    ///
    /// Full rotation genuinely needs the next power of two; partial rotation
    /// only needs a multiple of the block size (the paper's observation that
    /// partial rotation ≡ independent per-block rotations); no rotation
    /// needs no padding. Production systems rotate per-bucket, so padding
    /// overhead is negligible there — the *cost* accounting below therefore
    /// uses `d` directly (see `EXPERIMENTS.md`).
    fn padded_for(&self, d: usize) -> usize {
        match self.rotation {
            RotationMode::Full => padded_len(d.max(1)),
            RotationMode::Partial { block_log2 } => {
                let block = 1usize << block_log2;
                d.max(1).div_ceil(block) * block
            }
            RotationMode::None => d.max(1),
        }
    }

    /// Scale-metadata block length for a padded vector.
    fn block_len_for(&self, padded: usize) -> usize {
        match self.rotation {
            RotationMode::Full => padded,
            RotationMode::Partial { block_log2 } => (1usize << block_log2).min(padded.max(1)),
            RotationMode::None => padded,
        }
    }

    /// Scale metadata blocks for a padded vector.
    fn scale_blocks(&self, padded: usize) -> usize {
        padded.max(1).div_ceil(self.block_len_for(padded))
    }

    /// Whether blocks are rotated at all.
    fn rotates(&self) -> bool {
        self.rotation != RotationMode::None
    }

    /// Step 1 for one worker: `rotated` becomes the padded gradient with
    /// every block signed and transformed, `scales` each block's max
    /// magnitude rounded to FP16 for the wire — one visit per block.
    fn rotate_blocks(
        &self,
        grad: &[f32],
        padded: usize,
        block_len: usize,
        seed: SharedSeed,
        rotated: &mut Vec<f32>,
        scales: &mut Vec<f32>,
    ) {
        rotated.extend_from_slice(grad);
        rotated.resize(padded, 0.0);
        for (b, block) in rotated.chunks_mut(block_len).enumerate() {
            if self.rotates() {
                rademacher_diagonal_at(block, seed, b * block_len);
                fwht(block);
            }
            let max = block.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
            scales.push(F16::from_f32(max).to_f32());
        }
    }

    /// Step 3 for one worker: unbiased stochastic rounding of every block
    /// onto its agreed grid, packed at the wire width. One uniform per lane,
    /// in lane order, from `rng`; a block with `s <= 0` is all-zero on every
    /// worker, writes zero lanes and draws nothing.
    fn quantize_blocks(
        &self,
        rotated: &[f32],
        block_len: usize,
        scales: &[f32],
        rng: &mut impl Rng,
        packed: &mut PackedIntVec,
    ) {
        let qmax = self.qmax();
        packed.reset(self.wire_bits(), rotated.len());
        let mut writer = packed.writer();
        let mut uniforms = [0.0f32; LANE_BLOCK];
        let mut lanes = [0i32; LANE_BLOCK];
        for (block, &s) in rotated.chunks(block_len).zip(scales) {
            if s <= 0.0 {
                writer.push_zeros(block.len());
                continue;
            }
            for xs in block.chunks(LANE_BLOCK) {
                let (us, lanes) = (&mut uniforms[..xs.len()], &mut lanes[..xs.len()]);
                us.fill_with(|| rng.gen::<f32>());
                quantize_stochastic(xs, us, s, qmax, lanes);
                writer.push(lanes);
            }
        }
        writer.finish();
    }

    /// Step 5: the aggregated lanes back to a gradient-sum estimate —
    /// unpack, rescale and inverse-transform block by block, then truncate
    /// the padding and undo the signs.
    fn decode_blocks(
        &self,
        sum: &PackedIntVec,
        block_len: usize,
        scales: &[f32],
        seed: SharedSeed,
        d: usize,
        est: &mut Vec<f32>,
    ) {
        let qmax = self.qmax() as f32;
        let mut lanes = [0i32; LANE_BLOCK];
        est.clear();
        for (b, &s) in scales.iter().enumerate() {
            let lo = b * block_len;
            let hi = (lo + block_len).min(sum.len());
            for at in (lo..hi).step_by(LANE_BLOCK) {
                let lanes = &mut lanes[..LANE_BLOCK.min(hi - at)];
                sum.unpack_into(at, lanes);
                est.extend(lanes.iter().map(|&l| l as f32 * s / qmax));
            }
            if self.rotates() {
                fwht(&mut est[lo..hi]);
            }
        }
        est.truncate(d);
        if self.rotates() {
            rademacher_diagonal(est, seed);
        }
    }
}

impl CompressionScheme for Thc {
    fn name(&self) -> String {
        let rot = match self.rotation {
            RotationMode::Full => "full-rot",
            RotationMode::Partial { .. } => "partial-rot",
            RotationMode::None => "no-rot",
        };
        match self.aggregation {
            ThcAggregation::Saturating => format!("THC-Sat(q={}, {rot})", self.q),
            ThcAggregation::Widened { b } => format!("THC-Wide(q={}, b={b}, {rot})", self.q),
        }
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let _round_timer = gcs_metrics::timer("scheme/thc/round_ns");
        let n = grads.len();
        let d = grads[0].len();
        self.assert_sum_fits(n);
        let padded = self.padded_for(d);
        let seed = SharedSeed::derive(ctx.experiment_seed, ctx.round, Stream::RhtSigns);
        let blocks = self.scale_blocks(padded);
        let block_len = self.block_len_for(padded);
        let wire_bits = self.wire_bits();

        // The round scratch moves out of `self` for the duration of the
        // round (disjoint borrows against `&self` config reads) and back in
        // at the end — its buffers persist across rounds.
        let mut scratch = std::mem::take(&mut self.scratch);
        let this = &*self;

        // Rotate and take per-block maxima. Workers are independent (shared
        // seed, private data), so they fan out; with few workers the FWHT
        // kernel inside parallelizes over the vector instead.
        {
            let _s = gcs_trace::span(gcs_trace::Phase::Compress, "thc_rotate");
            let rotated = scratch.rotated.prepare(n);
            let scale_bufs = scratch.scales.prepare(n);
            gcs_tensor::parallel::for_each_zip2_mut(rotated, scale_bufs, 1, |w, r, s| {
                this.rotate_blocks(&grads[w], padded, block_len, seed, &mut r[0], &mut s[0]);
            });
        }

        // Agree on per-block scales (max |value| across workers).
        ring_all_reduce_into(
            scratch.scales.slice_mut(n),
            &F32Max,
            2.0,
            &mut scratch.ring_f32,
            &mut out.traffic,
        );

        // Quantize + pack. Each worker owns a private counter-derived RNG
        // stream, so quantization parallelizes across workers without
        // perturbing any random sequence.
        if scratch.packed.len() < n {
            scratch
                .packed
                .resize_with(n, || PackedIntVec::zeros(wire_bits, 0));
        }
        {
            let _s = gcs_trace::span(gcs_trace::Phase::Compress, "thc_quantize");
            let rotated = scratch.rotated.slice(n);
            let scales = &scratch.scales.slice(n)[0];
            gcs_tensor::parallel::for_each_chunk_mut(&mut scratch.packed[..n], 1, |w, slot| {
                let mut rng = worker_rng(ctx.experiment_seed ^ 0x74c0u64, w, ctx.round);
                this.quantize_blocks(&rotated[w], block_len, scales, &mut rng, &mut slot[0]);
            });
        }

        // Aggregate the packed lanes.
        let lane_add = match self.aggregation {
            ThcAggregation::Saturating => LaneAdd::Saturating,
            // Exact: `assert_sum_fits` rules out a wrap.
            ThcAggregation::Widened { .. } => LaneAdd::Wrapping,
        };
        ring_all_reduce_packed_into(
            &mut scratch.packed[..n],
            lane_add,
            &mut scratch.ring_words,
            &mut scratch.lane_traffic,
        );
        out.traffic.merge(&scratch.lane_traffic);

        // Decode: rescale, inverse rotation, truncate, divide by n.
        {
            let _s = gcs_trace::span(gcs_trace::Phase::Decompress, "thc_decode");
            let scales = &scratch.scales.slice(n)[0];
            let est = &mut out.mean_estimate;
            self.decode_blocks(&scratch.packed[0], block_len, scales, seed, d, est);
            gcs_tensor::vector::scale(est, 1.0 / n as f32);
        }

        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: blocks as f64 * 2.0,
        });
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: padded as f64 * wire_bits as f64 / 8.0,
        });
        self.scratch = scratch;
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        // Production deployments rotate per bucket, so padding adds <1
        // block per bucket — negligible at paper scale. Account with `d`.
        let block = self.block_len_for(self.padded_for(d as usize)) as u64;
        let blocks = d.max(1).div_ceil(block);
        (d as f64 * self.wire_bits() as f64 + blocks as f64 * 16.0) / d as f64
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        let block = self.block_len_for(self.padded_for(d as usize)) as u64;
        let blocks = d.max(1).div_ceil(block);
        vec![
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: blocks as f64 * 2.0,
            },
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: d as f64 * self.wire_bits() as f64 / 8.0,
            },
        ]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        // `iterations` relative to the full-vector padding: Full runs
        // log2(d) stages (multi-pass), Partial exactly its block stages
        // (single pass).
        let pow2 = padded_len(d.max(1) as usize);
        let iters = self.rotation.iterations(pow2);
        // Forward rotation + quantize on the send side; dequantize + inverse
        // rotation on the receive side.
        2.0 * ops::fwht(d, iters, device).seconds(device)
            + ops::quantize(d, self.q).seconds(device)
            + ops::dequantize(d, self.q).seconds(device)
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_tensor::vector::{mean, vnmse};
    use rand::SeedableRng;

    fn ctx(round: u64) -> RoundContext {
        RoundContext::new(99, round)
    }

    fn gaussian_grads(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        // Box-Muller-ish: sum of uniforms.
                        let s: f32 = (0..6).map(|_| rng.gen_range(-0.5f32..0.5)).sum();
                        s * 0.5
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn high_precision_quantization_is_accurate() {
        let grads = gaussian_grads(4, 200, 3);
        let exact = mean(&grads);
        let mut s = Thc::new(8, RotationMode::Full, ThcAggregation::Widened { b: 12 }, 4);
        let out = s.aggregate_round(&grads, &ctx(0));
        let err = vnmse(&out.mean_estimate, &exact);
        assert!(err < 5e-3, "q=8 widened vNMSE = {err}");
    }

    #[test]
    fn saturation_close_to_widened_after_rotation() {
        // §3.2.2's claim: post-RHT, saturation adds little error vs the
        // widened (exact-sum) aggregation at the same q.
        let grads = gaussian_grads(4, 512, 5);
        let exact = mean(&grads);
        let mut sat = Thc::new(4, RotationMode::Full, ThcAggregation::Saturating, 4);
        let mut wide = Thc::new(4, RotationMode::Full, ThcAggregation::Widened { b: 8 }, 4);
        let e_sat = vnmse(&sat.aggregate_round(&grads, &ctx(0)).mean_estimate, &exact);
        let e_wide = vnmse(&wide.aggregate_round(&grads, &ctx(0)).mean_estimate, &exact);
        assert!(
            e_sat < 2.0 * e_wide + 1e-3,
            "saturation error {e_sat} should be near widened error {e_wide}"
        );
    }

    #[test]
    fn rotation_helps_spiky_gradients() {
        // One giant coordinate: without rotation the global scale is huge
        // and everything else quantizes to noise; rotation spreads it.
        let mut grads = gaussian_grads(2, 1024, 7);
        for g in &mut grads {
            g[100] = 50.0;
        }
        let exact = mean(&grads);
        let mut rotated = Thc::new(4, RotationMode::Full, ThcAggregation::Widened { b: 8 }, 2);
        let mut unrotated = Thc::new(4, RotationMode::None, ThcAggregation::Widened { b: 8 }, 2);
        let e_rot = vnmse(
            &rotated.aggregate_round(&grads, &ctx(0)).mean_estimate,
            &exact,
        );
        let e_none = vnmse(
            &unrotated.aggregate_round(&grads, &ctx(0)).mean_estimate,
            &exact,
        );
        assert!(
            e_rot < e_none,
            "rotation should reduce error: rot={e_rot} none={e_none}"
        );
    }

    #[test]
    fn partial_rotation_between_none_and_full() {
        let mut grads = gaussian_grads(2, 2048, 11);
        for g in &mut grads {
            g[5] = 30.0;
        }
        let exact = mean(&grads);
        let mut err = std::collections::BTreeMap::new();
        for (name, mode) in [
            ("full", RotationMode::Full),
            ("partial", RotationMode::Partial { block_log2: 6 }),
            ("none", RotationMode::None),
        ] {
            let mut s = Thc::new(4, mode, ThcAggregation::Widened { b: 8 }, 2);
            // Average a few rounds to tame stochastic-rounding noise.
            let mut e = 0.0;
            for r in 0..5 {
                e += vnmse(&s.aggregate_round(&grads, &ctx(r)).mean_estimate, &exact);
            }
            err.insert(name, e / 5.0);
        }
        assert!(err["partial"] <= err["none"] * 1.1, "{err:?}");
        // Partial localizes the spike's damage to one block.
        assert!(err["partial"] < 10.0 * err["full"] + 1e-3, "{err:?}");
    }

    #[test]
    fn quantization_is_unbiased() {
        // Averaging the estimate over many rounds converges to the truth.
        let grads = vec![vec![0.37f32; 64]];
        let mut s = Thc::new(3, RotationMode::None, ThcAggregation::Widened { b: 8 }, 1);
        let mut acc = vec![0.0f64; 64];
        let rounds = 400;
        for r in 0..rounds {
            let out = s.aggregate_round(&grads, &ctx(r));
            for (a, &x) in acc.iter_mut().zip(&out.mean_estimate) {
                *a += x as f64;
            }
        }
        let avg = acc[0] / rounds as f64;
        assert!(
            (avg - 0.37).abs() < 0.01,
            "stochastic rounding is biased: {avg}"
        );
    }

    #[test]
    fn saturation_saves_half_the_traffic_of_b8() {
        let grads = gaussian_grads(4, 256, 13);
        let mut sat = Thc::new(4, RotationMode::Full, ThcAggregation::Saturating, 4);
        let mut wide = Thc::new(4, RotationMode::Full, ThcAggregation::Widened { b: 8 }, 4);
        let t_sat = sat.aggregate_round(&grads, &ctx(0)).traffic.total();
        let t_wide = wide.aggregate_round(&grads, &ctx(0)).traffic.total();
        // The lane payload halves; scale metadata is shared.
        assert!(
            (t_wide as f64) > 1.7 * (t_sat as f64),
            "wide={t_wide} sat={t_sat}"
        );
    }

    #[test]
    fn bits_per_coord_accounting() {
        let s = Thc::new(4, RotationMode::Full, ThcAggregation::Saturating, 4);
        // d = 4096 (already a power of two): b = 4 + 16/4096.
        let b = s.nominal_bits_per_coord(4096);
        assert!((b - 4.004).abs() < 0.01, "b = {b}");
        let wide = Thc::baseline(4, 4);
        assert!((wide.nominal_bits_per_coord(4096) - 8.0).abs() < 0.1);
    }

    #[test]
    fn widened_lanes_must_hold_the_exact_sum() {
        // q = 4: lanes in [-7, 7]; four workers sum to at most 28 < 32.
        assert!(Thc::widened_sum_fits(4, 6, 4));
        assert!(!Thc::widened_sum_fits(4, 5, 4));
        // Tighter than `q + ceil(log2 n)`: 3 x 1 fits 3-bit lanes.
        assert!(Thc::widened_sum_fits(2, 3, 3));
        // The baseline's q + 4 bits carry 16-18 workers, not 32.
        assert!(Thc::widened_sum_fits(4, 8, 18));
        assert!(!Thc::widened_sum_fits(4, 8, 19));
        assert!(
            !Thc::widened_sum_fits(4, 33, 1),
            "no lane is wider than 32 bits"
        );
        let s = Thc::new(4, RotationMode::Full, ThcAggregation::Widened { b: 6 }, 4);
        assert_eq!(s.overflow_free_bits(), 6);
    }

    #[test]
    #[should_panic(expected = "overflow_free_bits() = 6")]
    fn constructor_rejects_widened_lanes_too_narrow_for_the_cluster() {
        Thc::new(4, RotationMode::Full, ThcAggregation::Widened { b: 4 }, 4);
    }

    #[test]
    #[should_panic(expected = "32-bit lane limit")]
    fn constructor_rejects_lanes_wider_than_32_bits() {
        Thc::new(4, RotationMode::Full, ThcAggregation::Widened { b: 33 }, 4);
    }

    #[test]
    #[should_panic(expected = "the sum of 8 workers")]
    fn a_round_with_more_workers_than_configured_is_checked_too() {
        let mut s = Thc::new(4, RotationMode::None, ThcAggregation::Widened { b: 6 }, 4);
        s.aggregate_round(&gaussian_grads(8, 16, 1), &ctx(0));
    }

    #[test]
    fn many_workers_stress_saturation() {
        // The paper's caveat: larger n increases overflow probability. At
        // n = 32 and q = 2 the saturated aggregate should show real error.
        let grads = gaussian_grads(32, 256, 17);
        let exact = mean(&grads);
        let mut s = Thc::new(2, RotationMode::Full, ThcAggregation::Saturating, 32);
        let e = vnmse(&s.aggregate_round(&grads, &ctx(0)).mean_estimate, &exact);
        assert!(e > 0.01, "expected visible saturation error, got {e}");
    }
}
