//! **TopKC-Q** — the generalization the paper gestures at in §3.1.2
//! ("our chunk-based aggregation approach … may be generalizable to other
//! schemes"): chunk-norm consensus *composed with* THC-style quantization.
//!
//! TopKC spends 16 bits (FP16) on every selected coordinate. But once all
//! workers agree on the chunks, the selected sub-vector is just another
//! dense vector — so it can be rotated, stochastically quantized to `q`
//! bits, and saturate-aggregated exactly like THC's payload. Total budget:
//!
//! `b = 16/C  +  (J'/d)·q  +  16/C_scale-ish metadata`
//!
//! At `q = 4` this packs ~4× more coordinates than FP16 TopKC into the same
//! bit budget, trading per-coordinate precision for coverage — the same
//! coverage-vs-precision dial the paper turns throughout §3.
//!
//! The composition inherits both all-reduce compatibilities: consensus
//! makes the coordinate set uniform, saturation keeps the integer payload
//! width fixed at intermediate hops.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{
    ring_all_reduce_into, F16Sum, F32Max, RingScratch, SaturatingIntSum, Traffic,
};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::half::F16;
use gcs_tensor::pool::WorkerBufs;
use gcs_tensor::rng::worker_rng;
use gcs_tensor::vector::TopKScratch;
use rand::Rng;

/// Round scratch owned across rounds: every per-round buffer of the
/// consensus + quantize pipeline, so the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
struct TopKCQScratch {
    corrected: Vec<Vec<f32>>,
    norms: WorkerBufs<F16>,
    gathered: WorkerBufs<f32>,
    scales: WorkerBufs<f32>,
    lanes: WorkerBufs<i32>,
    sent: WorkerBufs<f32>,
    agg_norms: Vec<f32>,
    selected: Vec<usize>,
    topk: TopKScratch,
    ring_f16: RingScratch<F16>,
    ring_f32: RingScratch<f32>,
    ring_i32: RingScratch<i32>,
    stage_traffic: Traffic,
}

/// Chunked sparsification with q-bit quantized, saturate-aggregated values.
#[derive(Clone, Debug)]
pub struct TopKCQ {
    chunk: usize,
    bits: f64,
    q: u32,
    ef: ErrorFeedback,
    scratch: TopKCQScratch,
}

impl TopKCQ {
    /// Creates TopKC-Q targeting `bits` bits/coordinate total, with chunk
    /// size `chunk` and `q`-bit quantized values.
    ///
    /// # Panics
    /// Panics if `chunk == 0`, `q` outside `2..=8`, or the budget cannot
    /// cover the consensus round.
    pub fn with_bits(bits: f64, chunk: usize, q: u32, n_workers: usize) -> TopKCQ {
        assert!(chunk > 0, "TopKCQ: chunk must be positive");
        assert!((2..=8).contains(&q), "TopKCQ: q={q} out of range");
        assert!(
            bits > 16.0 / chunk as f64,
            "TopKCQ: bits budget {bits} cannot cover the norm round"
        );
        TopKCQ {
            chunk,
            bits,
            q,
            ef: ErrorFeedback::new(n_workers, true),
            scratch: TopKCQScratch::default(),
        }
    }

    /// Number of selected chunks at dimension `d`.
    pub fn j_for(&self, d: usize) -> usize {
        let chunks = d.div_ceil(self.chunk);
        // bits = 16/C (norms) + (J*C/d)*q (values) + (J/d)*16 (scales)
        let per_chunk_bits = self.chunk as f64 * self.q as f64 + 16.0;
        let value_budget = (self.bits - 16.0 / self.chunk as f64) * d as f64;
        ((value_budget / per_chunk_bits).round() as usize).clamp(1, chunks)
    }

    fn qmax(&self) -> i32 {
        (1i32 << (self.q - 1)) - 1
    }
}

impl CompressionScheme for TopKCQ {
    fn name(&self) -> String {
        format!("TopKC-Q(b={}, C={}, q={})", self.bits, self.chunk, self.q)
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let chunk = self.chunk;
        let chunks = d.div_ceil(chunk);
        let j = self.j_for(d);
        let qmax = self.qmax();

        // All per-round buffers live in the owned scratch (borrowed out of
        // `self` so EF and config reads stay available); the steady state
        // allocates nothing.
        let mut scratch = std::mem::take(&mut self.scratch);

        self.ef.corrected_all_into(grads, &mut scratch.corrected);

        // Stage 1: chunk-norm consensus (identical to TopKC).
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topkcq_chunk_norms");
            let corrected = &scratch.corrected;
            let norm_bufs = scratch.norms.prepare(n);
            for (buf, c) in norm_bufs.iter_mut().zip(corrected) {
                buf.extend(
                    c.chunks(chunk)
                        .map(|ch| F16::from_f32(gcs_tensor::vector::squared_norm(ch))),
                );
            }
        }
        ring_all_reduce_into(
            scratch.norms.slice_mut(n),
            &F16Sum,
            2.0,
            &mut scratch.ring_f16,
            &mut out.traffic,
        );
        scratch.agg_norms.clear();
        scratch
            .agg_norms
            .extend(scratch.norms.slice(n)[0].iter().map(|x| x.to_f32()));
        gcs_tensor::vector::top_k_indices_into(
            &scratch.agg_norms,
            j,
            &mut scratch.topk,
            &mut scratch.selected,
        );
        scratch.selected.sort_unstable();

        // Stage 2: shared per-chunk scales (max |value| across workers).
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topkcq_scales");
            let corrected = &scratch.corrected;
            let selected = &scratch.selected;
            let gathered = scratch.gathered.prepare(n);
            for (buf, c) in gathered.iter_mut().zip(corrected) {
                for &p in selected {
                    let lo = p * chunk;
                    let hi = (lo + chunk).min(d);
                    buf.extend_from_slice(&c[lo..hi]);
                }
            }
        }
        {
            let gathered = scratch.gathered.slice(n);
            let scale_bufs = scratch.scales.prepare(n);
            for (buf, g) in scale_bufs.iter_mut().zip(gathered) {
                buf.extend(g.chunks(chunk).map(|ch| {
                    let m = ch.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
                    F16::from_f32(m).to_f32()
                }));
            }
        }
        ring_all_reduce_into(
            scratch.scales.slice_mut(n),
            &F32Max,
            2.0,
            &mut scratch.ring_f32,
            &mut scratch.stage_traffic,
        );
        out.traffic.merge(&scratch.stage_traffic);

        // Stage 3: stochastic quantization + saturating all-reduce. Unlike
        // THC-Sat (which banks on cross-worker cancellation), the quantizer
        // here is *average-targeting*: each worker encodes `v/n`, so the
        // aggregated sum is bounded by the shared scale by construction —
        // `|Σ v_w/n| <= max_w |v_w| <= scale` — and the clamp never loses
        // signal even with perfectly correlated workers.
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topkcq_quantize");
            let gathered = scratch.gathered.slice(n);
            let scales = &scratch.scales.slice(n)[0];
            let lane_bufs = scratch.lanes.prepare(n);
            for (w, (lanes, g)) in lane_bufs.iter_mut().zip(gathered).enumerate() {
                let mut rng = worker_rng(ctx.experiment_seed ^ 0x1c9, w, ctx.round);
                lanes.extend(g.iter().enumerate().map(|(i, &x)| {
                    let s = scales[i / chunk];
                    if s <= 0.0 {
                        return 0;
                    }
                    let y = (x / (n as f32 * s)) * qmax as f32;
                    let lo = y.floor();
                    let up: bool = rng.gen::<f32>() < y - lo;
                    ((lo as i32) + i32::from(up)).clamp(-qmax, qmax)
                }));
            }
        }
        ring_all_reduce_into(
            scratch.lanes.slice_mut(n),
            &SaturatingIntSum::new(self.q),
            self.q as f64 / 8.0,
            &mut scratch.ring_i32,
            &mut scratch.stage_traffic,
        );
        out.traffic.merge(&scratch.stage_traffic);

        // Decode into the dense estimate.
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Decompress, "topkcq_decode");
            let mean = &mut out.mean_estimate;
            mean.clear();
            mean.resize(d, 0.0);
            let summed = &scratch.lanes.slice(n)[0];
            let scales = &scratch.scales.slice(n)[0];
            let mut cursor = 0usize;
            for &p in &scratch.selected {
                let lo = p * chunk;
                let hi = (lo + chunk).min(d);
                for m in &mut mean[lo..hi] {
                    let s = scales[cursor / chunk];
                    *m = summed[cursor] as f32 * s / qmax as f32;
                    cursor += 1;
                }
            }
        }

        // EF update: each worker's own dequantized expectation is its raw
        // value (stochastic rounding is unbiased), so we feed back the
        // gathered values it actually contributed.
        {
            let corrected = &scratch.corrected;
            let selected = &scratch.selected;
            let sent_bufs = scratch.sent.prepare(n);
            for (sent, c) in sent_bufs.iter_mut().zip(corrected) {
                sent.resize(d, 0.0);
                for &p in selected {
                    let lo = p * chunk;
                    let hi = (lo + chunk).min(d);
                    sent[lo..hi].copy_from_slice(&c[lo..hi]);
                }
            }
        }
        self.ef
            .update_all(&scratch.corrected, scratch.sent.slice(n));

        let j_prime: usize = scratch
            .selected
            .iter()
            .map(|&p| (p * chunk + chunk).min(d) - p * chunk)
            .sum();
        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: chunks as f64 * 2.0,
        });
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: scratch.selected.len() as f64 * 2.0,
        });
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: j_prime as f64 * self.q as f64 / 8.0,
        });
        self.scratch = scratch;
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        let d = d as usize;
        let j = self.j_for(d);
        let j_prime = (j * self.chunk).min(d);
        (d.div_ceil(self.chunk) as f64 * 16.0 + j as f64 * 16.0 + j_prime as f64 * self.q as f64)
            / d as f64
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        let d = d as usize;
        let j = self.j_for(d);
        let j_prime = (j * self.chunk).min(d);
        vec![
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: d.div_ceil(self.chunk) as f64 * 2.0,
            },
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: j as f64 * 2.0,
            },
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: j_prime as f64 * self.q as f64 / 8.0,
            },
        ]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        let chunks = (d as usize).div_ceil(self.chunk) as u64;
        let j_prime = (self.j_for(d as usize) * self.chunk).min(d as usize) as u64;
        ops::chunk_norms(d, self.chunk).seconds(device)
            + ops::topk_select(chunks, self.j_for(d as usize) as u64).seconds(device)
            + ops::quantize(j_prime, self.q).seconds(device)
            + ops::dequantize(j_prime, self.q).seconds(device)
    }

    fn reset(&mut self) {
        self.ef.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::topkc::TopKC;
    use crate::synthetic::GradientModel;
    use gcs_tensor::rng::SharedSeed;
    use gcs_tensor::vector::{mean, vnmse};

    fn synthetic(scheme: &mut dyn CompressionScheme, rounds: u64) -> f64 {
        let m = GradientModel::bert_like(1 << 16);
        let mut sum = 0.0;
        for r in 0..rounds {
            let grads = m.generate(4, SharedSeed::new(300 + r));
            let exact = mean(&grads);
            let out = scheme.aggregate_round(&grads, &RoundContext::new(13, r));
            sum += vnmse(&out.mean_estimate, &exact);
        }
        sum / rounds as f64
    }

    #[test]
    fn covers_more_coordinates_than_fp16_topkc_at_equal_budget() {
        let d = 1 << 16;
        let q = TopKCQ::with_bits(2.0, 64, 4, 4);
        let plain = TopKC::with_bits(2.0, 64, 4, false);
        let covered_q = q.j_for(d) * 64;
        let covered_plain = plain.j_prime_for(d);
        assert!(
            covered_q as f64 > 2.5 * covered_plain as f64,
            "q covers {covered_q}, plain covers {covered_plain}"
        );
    }

    #[test]
    fn bits_accounting_is_honest() {
        let s = TopKCQ::with_bits(2.0, 64, 4, 4);
        let b = s.nominal_bits_per_coord(1 << 16);
        assert!((b - 2.0).abs() < 0.15, "b = {b}");
    }

    #[test]
    fn beats_plain_topkc_at_aggressive_budgets() {
        // 4x the coverage at q=4 should reduce vNMSE on heavy-but-wide
        // gradients at a tight budget.
        let mut q = TopKCQ::with_bits(1.0, 64, 4, 4);
        let mut plain = TopKC::with_bits(1.0, 128, 4, false);
        let e_q = synthetic(&mut q, 3);
        let e_plain = synthetic(&mut plain, 3);
        assert!(
            e_q < e_plain,
            "TopKC-Q {e_q} should beat plain TopKC {e_plain} at b=1"
        );
    }

    #[test]
    fn estimate_is_unbiased_on_selected_chunks() {
        let grads = vec![vec![0.5f32; 64]];
        let mut s = TopKCQ::with_bits(6.0, 8, 4, 1);
        let mut acc = vec![0.0f64; 64];
        let rounds = 300;
        for r in 0..rounds {
            s.reset(); // keep EF out of the unbiasedness measurement
            let out = s.aggregate_round(&grads, &RoundContext::new(21, r));
            for (a, &x) in acc.iter_mut().zip(&out.mean_estimate) {
                *a += x as f64 / rounds as f64;
            }
        }
        // All chunks identical: selection arbitrary but some chunk present;
        // check a selected coordinate's average is near 0.5.
        let nonzero: Vec<f64> = acc.iter().copied().filter(|&x| x != 0.0).collect();
        assert!(!nonzero.is_empty());
        let avg = nonzero.iter().sum::<f64>() / nonzero.len() as f64;
        assert!((avg - 0.5).abs() < 0.05, "avg = {avg}");
    }

    #[test]
    fn all_reduce_compatible_and_stateful_reset() {
        let s = TopKCQ::with_bits(2.0, 64, 4, 4);
        assert!(s.all_reduce_compatible());
        assert!(s.name().contains("TopKC-Q"));
    }
}
