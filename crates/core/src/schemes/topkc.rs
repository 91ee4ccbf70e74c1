//! **TopKC** — TopK Chunked, the paper's all-reduce-compatible sparsifier
//! (§3.1.2).
//!
//! The insight: spend a *cheap consensus round* so every worker aggregates
//! the **same** coordinates, which makes the main round a plain (FP16)
//! all-reduce:
//!
//! 1. Partition the gradient into fixed chunks of size `C`. Each worker
//!    computes per-chunk squared L2 norms; a small FP16 all-reduce sums them
//!    (`16/C` bits per coordinate).
//! 2. Every worker locally picks the same top-`J` chunks by aggregated
//!    norm (deterministic tie-breaks), then the selected `J' = J·C`
//!    coordinates are summed with an FP16 ring all-reduce.
//!
//! Total `b = 16(J'/d + 1/C)` bits per coordinate. Chunk norms are computed
//! with one sequential pass (fast), and the top-k runs over `d/C` values
//! instead of `d` (§3.1.2's computational win).
//!
//! TopKC works because of **spatial locality** — large coordinates cluster
//! (Table 4). The `permute` flag enables the paper's ablation: a shared
//! random permutation destroys locality and with it most of TopKC's
//! advantage.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{ring_all_reduce_into, F16Sum, RingScratch, Traffic};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::half::{decode_f16_into, decode_f16_slice, encode_f16_slice, round_trip_f16, F16};
use gcs_tensor::pool::WorkerBufs;
use gcs_tensor::rng::{shared_permutation, SharedSeed, Stream};
use gcs_tensor::vector::TopKScratch;

/// Round scratch owned across rounds (zero-allocation steady state): EF
/// staging, per-worker norm/value/sent buffers, consensus-selection
/// workspace and collective staging. The permutation ablation still
/// allocates (it is not a production path).
#[derive(Clone, Debug, Default)]
struct TopKCScratch {
    corrected: Vec<Vec<f32>>,
    permuted: WorkerBufs<f32>,
    norms: WorkerBufs<F16>,
    values: WorkerBufs<F16>,
    sent: WorkerBufs<f32>,
    agg_norms: Vec<f32>,
    selected: Vec<usize>,
    topk: TopKScratch,
    ring: RingScratch<F16>,
    value_traffic: Traffic,
    unperm: Vec<f32>,
}

/// TopK Chunked sparsification.
#[derive(Clone, Debug)]
pub struct TopKC {
    chunk: usize,
    bits: f64,
    permute: bool,
    ef: ErrorFeedback,
    scratch: TopKCScratch,
}

impl TopKC {
    /// Creates TopKC targeting `bits` bits/coordinate with chunk size
    /// `chunk`. The paper uses `C = 64` for `b ∈ {2, 8}` and `C = 128` for
    /// `b = 0.5`.
    ///
    /// # Panics
    /// Panics if `chunk == 0`, or if `bits <= 16/chunk` (the norm round
    /// alone would exceed the budget).
    pub fn with_bits(bits: f64, chunk: usize, n_workers: usize, error_feedback: bool) -> TopKC {
        assert!(chunk > 0, "TopKC: chunk must be positive");
        assert!(
            bits > 16.0 / chunk as f64,
            "TopKC: bits budget {bits} cannot cover the norm round (16/C = {})",
            16.0 / chunk as f64
        );
        TopKC {
            chunk,
            bits,
            permute: false,
            ef: ErrorFeedback::new(n_workers, error_feedback),
            scratch: TopKCScratch::default(),
        }
    }

    /// The paper's chunk-size choice for a given bit budget.
    pub fn paper_config(bits: f64, n_workers: usize) -> TopKC {
        let chunk = if bits < 1.0 { 128 } else { 64 };
        TopKC::with_bits(bits, chunk, n_workers, true)
    }

    /// Enables the random-permutation ablation (Table 4): a shared
    /// permutation is applied before chunking, destroying spatial locality.
    pub fn with_permutation(mut self) -> TopKC {
        self.permute = true;
        self
    }

    /// Number of top chunks `J` selected for a gradient of dimension `d`.
    pub fn j_for(&self, d: usize) -> usize {
        let chunks = d.div_ceil(self.chunk);
        let j_prime = d as f64 * (self.bits / 16.0 - 1.0 / self.chunk as f64);
        ((j_prime / self.chunk as f64).round() as usize).clamp(1, chunks)
    }

    /// Total selected coordinates `J' = J·C` at dimension `d`.
    pub fn j_prime_for(&self, d: usize) -> usize {
        (self.j_for(d) * self.chunk).min(d)
    }
}

impl CompressionScheme for TopKC {
    fn name(&self) -> String {
        if self.permute {
            format!("TopKC-Perm(b={}, C={})", self.bits, self.chunk)
        } else {
            format!("TopKC(b={}, C={})", self.bits, self.chunk)
        }
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let chunks = d.div_ceil(self.chunk);
        let j = self.j_for(d);
        let chunk = self.chunk;

        // Optional shared permutation (locality-destroying ablation). All
        // workers derive the same permutation from shared randomness.
        let perm = if self.permute {
            Some(shared_permutation(
                d,
                SharedSeed::derive(ctx.experiment_seed, ctx.round, Stream::Permutation),
            ))
        } else {
            None
        };

        // All per-round buffers live in the owned scratch, so the steady
        // state allocates nothing (borrowed out of `self` so EF and config
        // reads stay available).
        let mut scratch = std::mem::take(&mut self.scratch);

        // Stage 0: EF-corrected (and permuted) local gradients. EF and the
        // permutation scatter are per-worker independent, so both fan out.
        self.ef.corrected_all_into(grads, &mut scratch.corrected);
        if let Some(p) = &perm {
            let src = &scratch.corrected;
            let bufs = scratch.permuted.prepare(n);
            gcs_tensor::parallel::for_each_chunk_mut(bufs, 1, |w, slot| {
                let v = &mut slot[0];
                v.resize(d, 0.0);
                let c = &src[w];
                for (i, &pi) in p.iter().enumerate() {
                    v[pi] = c[i];
                }
            });
        }

        // Stage 1: per-chunk squared norms, all-reduced in FP16. Workers are
        // independent; within a worker the chunk norms use the (itself
        // deterministic) chunked reduction kernel.
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topkc_chunk_norms");
            let corrected: &[Vec<f32>] = match &perm {
                Some(_) => scratch.permuted.slice(n),
                None => &scratch.corrected,
            };
            let norm_bufs = scratch.norms.prepare(n);
            gcs_tensor::parallel::for_each_chunk_mut(norm_bufs, 1, |w, slot| {
                slot[0].extend(
                    corrected[w]
                        .chunks(chunk)
                        .map(|ch| F16::from_f32(gcs_tensor::vector::squared_norm(ch))),
                );
            });
        }
        ring_all_reduce_into(
            scratch.norms.slice_mut(n),
            &F16Sum,
            2.0,
            &mut scratch.ring,
            &mut out.traffic,
        );
        decode_f16_into(&scratch.norms.slice(n)[0], &mut scratch.agg_norms);
        debug_assert_eq!(scratch.agg_norms.len(), chunks);

        // Stage 2: consensus top-J chunks (identical on every worker).
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topkc_consensus_select");
            gcs_tensor::vector::top_k_indices_into(
                &scratch.agg_norms,
                j,
                &mut scratch.topk,
                &mut scratch.selected,
            );
            scratch.selected.sort_unstable();
        }

        // Stage 3: FP16 all-reduce over the selected chunks' values
        // (gathered per worker in parallel).
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topkc_value_gather");
            let corrected: &[Vec<f32>] = match &perm {
                Some(_) => scratch.permuted.slice(n),
                None => &scratch.corrected,
            };
            let selected = &scratch.selected;
            let value_bufs = scratch.values.prepare(n);
            gcs_tensor::parallel::for_each_chunk_mut(value_bufs, 1, |w, slot| {
                let c = &corrected[w];
                let buf = &mut slot[0];
                for &p in selected {
                    let lo = p * chunk;
                    let hi = (lo + chunk).min(d);
                    let start = buf.len();
                    buf.resize(start + (hi - lo), F16::ZERO);
                    encode_f16_slice(&c[lo..hi], &mut buf[start..]);
                }
            });
        }
        ring_all_reduce_into(
            scratch.values.slice_mut(n),
            &F16Sum,
            2.0,
            &mut scratch.ring,
            &mut scratch.value_traffic,
        );

        // Scatter back into dense coordinates (undoing the permutation).
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Decompress, "topkc_scatter_back");
            let mean = &mut out.mean_estimate;
            mean.clear();
            mean.resize(d, 0.0);
            let summed = &scratch.values.slice(n)[0];
            let mut cursor = 0usize;
            for &p in &scratch.selected {
                let lo = p * chunk;
                let hi = (lo + chunk).min(d);
                decode_f16_slice(&summed[cursor..cursor + (hi - lo)], &mut mean[lo..hi]);
                for m in &mut mean[lo..hi] {
                    *m /= n as f32;
                }
                cursor += hi - lo;
            }
            if let Some(p) = &perm {
                let unperm = &mut scratch.unperm;
                unperm.clear();
                unperm.resize(d, 0.0);
                for (i, &pi) in p.iter().enumerate() {
                    unperm[i] = mean[pi];
                }
                mean.copy_from_slice(unperm);
            }
        }

        // EF update: what each worker contributed (its own FP16-rounded
        // values in the selected chunks), in the *original* coordinate
        // order. Per-worker independent, so the sent vectors are built in
        // parallel into pooled buffers and committed through the batched EF
        // API.
        if self.ef.enabled() {
            {
                let corrected: &[Vec<f32>] = match &perm {
                    Some(_) => scratch.permuted.slice(n),
                    None => &scratch.corrected,
                };
                let selected = &scratch.selected;
                let sent_bufs = scratch.sent.prepare(n);
                gcs_tensor::parallel::for_each_chunk_mut(sent_bufs, 1, |w, slot| {
                    let c = &corrected[w];
                    let sent = &mut slot[0];
                    sent.resize(d, 0.0);
                    for &p in selected {
                        let lo = p * chunk;
                        let hi = (lo + chunk).min(d);
                        sent[lo..hi].copy_from_slice(&c[lo..hi]);
                        round_trip_f16(&mut sent[lo..hi]);
                    }
                });
            }
            match &perm {
                Some(pvec) => {
                    // Ablation path: un-permute into freshly allocated pairs
                    // (not a steady-state configuration).
                    let corrected = scratch.permuted.slice(n);
                    let sent_view = scratch.sent.slice(n);
                    let pairs: Vec<(Vec<f32>, Vec<f32>)> =
                        gcs_tensor::parallel::map_tasks(n, |w| {
                            let c = &corrected[w];
                            let s = &sent_view[w];
                            let mut co = vec![0.0f32; d];
                            let mut so = vec![0.0f32; d];
                            for (i, &pi) in pvec.iter().enumerate() {
                                co[i] = c[pi];
                                so[i] = s[pi];
                            }
                            (co, so)
                        });
                    let (corr_orig, sent_orig): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
                    self.ef.update_all(&corr_orig, &sent_orig);
                }
                None => self
                    .ef
                    .update_all(&scratch.corrected, scratch.sent.slice(n)),
            }
        }

        out.traffic.merge(&scratch.value_traffic);
        let j_prime = scratch
            .selected
            .iter()
            .map(|&p| (p * chunk + chunk).min(d) - p * chunk)
            .sum::<usize>();
        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: chunks as f64 * 2.0,
        });
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: j_prime as f64 * 2.0,
        });
        self.scratch = scratch;
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        let d = d as usize;
        16.0 * (self.j_prime_for(d) as f64 / d as f64 + 1.0 / self.chunk as f64)
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        let d = d as usize;
        vec![
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: d.div_ceil(self.chunk) as f64 * 2.0,
            },
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: self.j_prime_for(d) as f64 * 2.0,
            },
        ]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        let chunks = (d as usize).div_ceil(self.chunk) as u64;
        let j_prime = self.j_prime_for(d as usize) as u64;
        // Norms pass + tiny top-k over chunk norms + gather/scatter of the
        // selected coordinates (sequential within chunks -> streaming).
        ops::chunk_norms(d, self.chunk).seconds(device)
            + ops::topk_select(chunks, self.j_for(d as usize) as u64).seconds(device)
            + 2.0 * ops::elementwise(j_prime, 8.0, 1.0).seconds(device)
    }

    fn reset(&mut self) {
        self.ef.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_tensor::vector::{mean, vnmse};

    fn ctx(round: u64) -> RoundContext {
        RoundContext::new(42, round)
    }

    /// Gradients with strong spatial locality: energy concentrated in one
    /// contiguous region.
    fn local_grads(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|w| {
                (0..d)
                    .map(|i| {
                        let hot = i >= d / 4 && i < d / 4 + d / 8;
                        let base = ((w * d + i) as f32 * 0.37).sin();
                        if hot {
                            base * 10.0
                        } else {
                            base * 0.1
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn full_budget_recovers_mean() {
        // b = 16 + 16/C: every chunk selected.
        let grads = local_grads(3, 64);
        let mut s = TopKC::with_bits(18.0, 8, 3, false);
        let out = s.aggregate_round(&grads, &ctx(0));
        let exact = mean(&grads);
        assert!(vnmse(&out.mean_estimate, &exact) < 1e-4);
    }

    #[test]
    fn all_workers_agree_and_consensus_chunks_cover_hot_region() {
        let d = 256;
        let grads = local_grads(4, d);
        let mut s = TopKC::with_bits(4.0, 16, 4, false);
        let out = s.aggregate_round(&grads, &ctx(0));
        // The hot region [d/4, d/4 + d/8) must be covered.
        let hot = d / 4..(d / 4 + d / 8);
        for i in hot {
            assert!(
                out.mean_estimate[i] != 0.0,
                "hot coordinate {i} was not aggregated"
            );
        }
    }

    #[test]
    fn permutation_hurts_on_local_gradients() {
        // Table 4's ablation: with locality, TopKC beats its permuted self.
        let grads = local_grads(4, 512);
        let exact = mean(&grads);
        let mut plain = TopKC::with_bits(2.0, 32, 4, false);
        let mut permuted = TopKC::with_bits(2.0, 32, 4, false).with_permutation();
        let e_plain = vnmse(
            &plain.aggregate_round(&grads, &ctx(0)).mean_estimate,
            &exact,
        );
        let e_perm = vnmse(
            &permuted.aggregate_round(&grads, &ctx(0)).mean_estimate,
            &exact,
        );
        assert!(
            e_perm > 1.5 * e_plain,
            "permuted {e_perm} should be clearly worse than plain {e_plain}"
        );
    }

    #[test]
    fn bits_accounting() {
        // d = 6400, C = 64, b = 2: J' = 6400*(2/16 - 1/64) = 700 -> J = 11.
        let s = TopKC::with_bits(2.0, 64, 2, false);
        assert_eq!(s.j_for(6400), 11);
        let b = s.nominal_bits_per_coord(6400);
        assert!((b - 2.0).abs() < 0.1, "b = {b}");
    }

    #[test]
    fn comm_uses_allreduce_only() {
        let grads = local_grads(2, 128);
        let mut s = TopKC::with_bits(4.0, 16, 2, false);
        let out = s.aggregate_round(&grads, &ctx(0));
        assert!(out
            .comm
            .iter()
            .all(|e| e.collective == Collective::RingAllReduce));
        assert!(s.all_reduce_compatible());
    }

    #[test]
    fn error_feedback_flushes_cold_chunks() {
        // Constant gradient outside the selected chunks: EF must eventually
        // promote the cold chunk.
        let d = 64;
        let mut grads = vec![vec![0.4f32; d]];
        for g in grads[0].iter_mut().take(8) {
            *g = 2.0; // chunk 0 is hot
        }
        let mut s = TopKC::with_bits(3.0, 8, 1, true); // J = 1 chunk of 8
        let mut cold_seen = false;
        for round in 0..25 {
            let out = s.aggregate_round(&grads, &ctx(round));
            if out.mean_estimate[d - 1] != 0.0 {
                cold_seen = true;
                break;
            }
        }
        assert!(cold_seen, "EF never promoted a cold chunk");
    }

    #[test]
    fn ragged_last_chunk_handled() {
        let d = 70; // 70 = 8*8 + 6: last chunk short
        let grads = vec![(0..d).map(|i| i as f32 * 0.01).collect::<Vec<f32>>()];
        let mut s = TopKC::with_bits(18.5, 8, 1, false); // select everything
        let out = s.aggregate_round(&grads, &ctx(0));
        let exact = mean(&grads);
        assert!(vnmse(&out.mean_estimate, &exact) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "cannot cover the norm round")]
    fn rejects_impossible_budget() {
        TopKC::with_bits(0.1, 64, 2, false);
    }
}
