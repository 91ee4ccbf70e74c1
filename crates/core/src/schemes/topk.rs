//! Local TopK sparsification with all-gather aggregation — the incumbent
//! sparsifier (§3.1.1).
//!
//! Each worker selects its `K` largest-magnitude coordinates and transmits
//! `(index, value)` pairs: 32-bit indices + FP16 values = 48 bits per
//! selected coordinate, following the typical implementations the paper
//! cites (\[28, 48\]), so `b = 48K/d`. Because different workers select
//! different indices, the payloads cannot be summed coordinate-wise at
//! intermediate hops — TopK is **not** all-reduce compatible and falls back
//! to all-gather, whose traffic grows with `n` and whose many-to-one
//! patterns congest (§2.1). Error feedback accumulates what was left
//! behind.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::all_gather_into;
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::half::F16;
use gcs_tensor::pool::WorkerBufs;
use gcs_tensor::vector::{top_k_indices_into, TopKScratch};

/// A sparse payload entry: 32-bit coordinate index + FP16 value (48 bits
/// total on the wire).
#[derive(Clone, Copy, Debug)]
pub struct SparseEntry {
    /// Coordinate index.
    pub index: u32,
    /// FP16-rounded value.
    pub value: F16,
}

/// How TopK encodes coordinate indices on the wire.
///
/// The paper's footnote 2: 32-bit absolute indices are the practical
/// default; 16-bit **delta** encoding (sorted indices, consecutive
/// differences, padding coordinates inserted wherever a gap exceeds
/// `u16::MAX`) halves index traffic to 32 bits/entry but requires a
/// sequential scan that is GPU-unfriendly — "the TTA may not improve".
/// Both are implemented so the trade-off is measurable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexEncoding {
    /// 32-bit absolute indices (48 bits per entry with the FP16 value).
    Absolute32,
    /// 16-bit deltas with gap-filling padding entries (32 bits per entry).
    Delta16,
}

impl IndexEncoding {
    /// Wire bits per (index, value) entry.
    pub fn entry_bits(self) -> f64 {
        match self {
            IndexEncoding::Absolute32 => 48.0,
            IndexEncoding::Delta16 => 32.0,
        }
    }
}

/// Per-worker selection workspace (each parallel selection task owns one,
/// so the fan-out stays allocation-free).
#[derive(Clone, Debug, Default)]
struct SelectScratch {
    topk: TopKScratch,
    idx: Vec<usize>,
}

/// Round scratch owned across rounds: EF staging, per-worker selection
/// workspaces and payloads, the gathered union, and EF sent buffers.
#[derive(Clone, Debug, Default)]
struct TopKRoundScratch {
    corrected: Vec<Vec<f32>>,
    selects: Vec<SelectScratch>,
    payloads: WorkerBufs<SparseEntry>,
    sent: WorkerBufs<f32>,
    gathered: Vec<SparseEntry>,
}

/// TopK sparsification, parameterized by target bits-per-coordinate.
#[derive(Clone, Debug)]
pub struct TopK {
    bits: f64,
    encoding: IndexEncoding,
    ef: ErrorFeedback,
    scratch: TopKRoundScratch,
}

impl TopK {
    /// Creates TopK targeting `bits` bits per coordinate (`K = b·d/48`,
    /// 32-bit absolute indices — the typical implementation).
    ///
    /// # Panics
    /// Panics if `bits <= 0`.
    pub fn with_bits(bits: f64, n_workers: usize, error_feedback: bool) -> TopK {
        assert!(bits > 0.0, "TopK: bits must be positive");
        TopK {
            bits,
            encoding: IndexEncoding::Absolute32,
            ef: ErrorFeedback::new(n_workers, error_feedback),
            scratch: TopKRoundScratch::default(),
        }
    }

    /// Switches to 16-bit delta-encoded indices (footnote 2). `K` is then
    /// derived as `b·d/32`, before gap-filling padding.
    pub fn with_delta_indices(mut self) -> TopK {
        self.encoding = IndexEncoding::Delta16;
        self
    }

    /// The index encoding in use.
    pub fn encoding(&self) -> IndexEncoding {
        self.encoding
    }

    /// The `K` used for a gradient of dimension `d`.
    pub fn k_for(&self, d: usize) -> usize {
        (((self.bits * d as f64) / self.encoding.entry_bits()).round() as usize).clamp(1, d)
    }

    /// For delta encoding: the selected indices (sorted) plus padding
    /// entries wherever a gap exceeds `u16::MAX`. Returns the padded,
    /// sorted index list actually transmitted.
    pub fn delta_pad(mut indices: Vec<usize>) -> Vec<usize> {
        indices.sort_unstable();
        let mut out = Vec::with_capacity(indices.len());
        let mut prev = 0usize;
        for idx in indices {
            let mut gap = idx - prev;
            while gap > u16::MAX as usize {
                prev += u16::MAX as usize;
                out.push(prev); // padding coordinate (value 0)
                gap = idx - prev;
            }
            out.push(idx);
            prev = idx;
        }
        out.dedup();
        out
    }
}

impl CompressionScheme for TopK {
    fn name(&self) -> String {
        match self.encoding {
            IndexEncoding::Absolute32 => format!("TopK(b={})", self.bits),
            IndexEncoding::Delta16 => format!("TopK-Delta16(b={})", self.bits),
        }
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        _ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let k = self.k_for(d);
        let encoding = self.encoding;

        // All per-round buffers live in the owned scratch, so the steady
        // state allocates nothing (Delta16 gap-padding, an ablation, still
        // does).
        let mut scratch = std::mem::take(&mut self.scratch);

        // Compress: each worker selects its own top-K of the EF-corrected
        // gradient and rounds values to FP16 for the wire. Delta encoding
        // additionally sorts and gap-pads the index list (footnote 2).
        // Workers are independent, so selection fans out across them (the
        // per-vector top-k kernel itself parallelizes when workers are few).
        self.ef.corrected_all_into(grads, &mut scratch.corrected);
        if scratch.selects.len() < n {
            scratch.selects.resize_with(n, SelectScratch::default);
        }
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "topk_select");
            let corrected_all = &scratch.corrected;
            gcs_tensor::parallel::for_each_chunk_mut(&mut scratch.selects[..n], 1, |w, slot| {
                let ws = &mut slot[0];
                let corrected = &corrected_all[w];
                top_k_indices_into(corrected, k, &mut ws.topk, &mut ws.idx);
                if encoding == IndexEncoding::Delta16 {
                    ws.idx = TopK::delta_pad(std::mem::take(&mut ws.idx));
                }
            });
            let selects = &scratch.selects;
            let payloads = scratch.payloads.prepare(n);
            gcs_tensor::parallel::for_each_chunk_mut(payloads, 1, |w, slot| {
                let corrected = &corrected_all[w];
                slot[0].extend(selects[w].idx.iter().map(|&i| SparseEntry {
                    index: i as u32,
                    value: F16::from_f32(corrected[i]),
                }));
            });
        }

        // Aggregate: all-gather the sparse payloads, then every worker
        // scatter-adds the union locally (up to nK distinct coordinates,
        // §3.1.1).
        let entry_bytes = self.encoding.entry_bits() / 8.0;
        all_gather_into(
            scratch.payloads.slice(n),
            entry_bytes,
            &mut scratch.gathered,
            &mut out.traffic,
        );
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Decompress, "topk_scatter_add");
            let mean = &mut out.mean_estimate;
            mean.clear();
            mean.resize(d, 0.0);
            for e in &scratch.gathered {
                mean[e.index as usize] += e.value.to_f32();
            }
            for m in mean.iter_mut() {
                *m /= n as f32;
            }
        }

        // EF update: what each worker actually contributed.
        if self.ef.enabled() {
            {
                let payloads = scratch.payloads.slice(n);
                let sent_bufs = scratch.sent.prepare(n);
                gcs_tensor::parallel::for_each_chunk_mut(sent_bufs, 1, |w, slot| {
                    let sent = &mut slot[0];
                    sent.resize(d, 0.0);
                    for e in &payloads[w] {
                        sent[e.index as usize] = e.value.to_f32();
                    }
                });
            }
            self.ef
                .update_all(&scratch.corrected, scratch.sent.slice(n));
        }

        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::AllGather,
            payload_bytes: k as f64 * entry_bytes,
        });
        self.scratch = scratch;
    }

    fn all_reduce_compatible(&self) -> bool {
        false
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        self.k_for(d as usize) as f64 * self.encoding.entry_bits() / d as f64
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::AllGather,
            payload_bytes: self.k_for(d as usize) as f64 * self.encoding.entry_bits() / 8.0,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        let k = self.k_for(d as usize) as u64;
        let n = self.ef.n_workers().max(2) as u64;
        // Selection + compaction, then scatter-adding the gathered union.
        let base = ops::topk_select(d, k).seconds(device)
            + ops::sparse_gather_scatter(k).seconds(device)
            + ops::sparse_gather_scatter(n * k).seconds(device);
        match self.encoding {
            IndexEncoding::Absolute32 => base,
            // Footnote 2's caveat, modelled: delta encoding needs a sort of
            // K indices plus an inherently sequential prefix scan to emit
            // deltas / reconstruct absolutes — poorly suited to the GPU.
            IndexEncoding::Delta16 => {
                let n_workers = self.ef.n_workers().max(2) as f64;
                let sort = gcs_gpusim::KernelCost {
                    flops: 2.0 * k as f64 * (k.max(2) as f64).log2(),
                    bytes: 8.0 * k as f64 * (k.max(2) as f64).log2(),
                    coalesced: false,
                    serial_steps: (k.max(2) as f64).log2().ceil(),
                    precision: None,
                };
                let scan = gcs_gpusim::KernelCost {
                    flops: 2.0 * n_workers * k as f64,
                    bytes: 8.0 * n_workers * k as f64,
                    coalesced: false,
                    serial_steps: 32.0, // multi-pass prefix sums
                    precision: None,
                };
                base + sort.seconds(device) + scan.seconds(device)
            }
        }
    }

    fn reset(&mut self) {
        self.ef.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_tensor::vector::vnmse;

    fn ctx() -> RoundContext {
        RoundContext::new(7, 0)
    }

    #[test]
    fn dense_k_recovers_exact_mean() {
        // b = 48 => K = d: lossless up to f16 rounding.
        let grads = vec![vec![1.0f32, -2.0, 0.5], vec![0.5, 1.0, -0.25]];
        let mut s = TopK::with_bits(48.0, 2, true);
        let out = s.aggregate_round(&grads, &ctx());
        let exact = gcs_tensor::vector::mean(&grads);
        assert!(vnmse(&out.mean_estimate, &exact) < 1e-5);
    }

    #[test]
    fn sparse_k_keeps_largest() {
        let grads = vec![vec![10.0f32, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]];
        let mut s = TopK::with_bits(6.0, 1, false); // K = 1
        let out = s.aggregate_round(&grads, &ctx());
        assert!((out.mean_estimate[0] - 10.0).abs() < 0.01);
        assert!(out.mean_estimate[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn error_feedback_eventually_sends_small_coords() {
        // One large coordinate and one small: with EF, the small one's
        // memory grows until it wins a round.
        let grads = vec![vec![1.0f32, 0.3]];
        let mut s = TopK::with_bits(24.0, 1, true); // K = 1 of d = 2
        let mut small_sent = false;
        for round in 0..5 {
            let out = s.aggregate_round(&grads, &RoundContext::new(7, round));
            if out.mean_estimate[1] != 0.0 {
                small_sent = true;
                break;
            }
        }
        assert!(small_sent, "EF never flushed the small coordinate");
    }

    #[test]
    fn without_ef_small_coordinate_starves() {
        let grads = vec![vec![1.0f32, 0.3]];
        let mut s = TopK::with_bits(24.0, 1, false);
        for round in 0..5 {
            let out = s.aggregate_round(&grads, &RoundContext::new(7, round));
            assert_eq!(out.mean_estimate[1], 0.0);
        }
    }

    #[test]
    fn traffic_grows_with_workers() {
        let d = 96;
        let make = |n: usize| {
            let grads: Vec<Vec<f32>> = (0..n)
                .map(|w| (0..d).map(|i| ((w * d + i) as f32).sin()).collect())
                .collect();
            let mut s = TopK::with_bits(4.0, n, false);
            s.aggregate_round(&grads, &ctx()).traffic.total()
        };
        let t2 = make(2);
        let t4 = make(4);
        // all-gather total traffic ~ n(n-1): 4 workers >> 2x the 2-worker traffic.
        assert!(t4 > 3 * t2, "t2={t2} t4={t4}");
    }

    #[test]
    fn delta_padding_keeps_gaps_representable() {
        let idx = vec![10usize, 200_000, 70_000];
        let padded = TopK::delta_pad(idx);
        let mut prev = 0usize;
        for &i in &padded {
            assert!(i - prev <= u16::MAX as usize, "gap {} too wide", i - prev);
            prev = i;
        }
        // Original indices all survive.
        for want in [10usize, 70_000, 200_000] {
            assert!(padded.contains(&want));
        }
    }

    #[test]
    fn delta_encoding_fits_more_coordinates_but_costs_more_compute() {
        use gcs_gpusim::DeviceSpec;
        let d = 1_000_000u64;
        let abs = TopK::with_bits(2.0, 4, false);
        let delta = TopK::with_bits(2.0, 4, false).with_delta_indices();
        assert!(delta.k_for(d as usize) > abs.k_for(d as usize));
        assert!((delta.nominal_bits_per_coord(d) - 2.0).abs() < 0.05);
        let device = DeviceSpec::a100();
        assert!(
            delta.compute_seconds(d, &device) > abs.compute_seconds(d, &device),
            "footnote 2: delta encoding must cost extra compute"
        );
    }

    #[test]
    fn delta_variant_aggregates_correctly() {
        let grads = vec![vec![1.0f32, -2.0, 0.5, 3.0], vec![0.5, 1.0, -0.25, -1.0]];
        let mut s = TopK::with_bits(32.0, 2, false).with_delta_indices(); // K = d
        let out = s.aggregate_round(&grads, &ctx());
        let exact = gcs_tensor::vector::mean(&grads);
        assert!(vnmse(&out.mean_estimate, &exact) < 1e-4);
    }

    #[test]
    fn bits_accounting_matches_nominal() {
        let d = 4800usize;
        let s = TopK::with_bits(2.0, 2, false);
        let b = s.nominal_bits_per_coord(d as u64);
        assert!((b - 2.0).abs() < 0.05, "b = {b}");
        assert!(!s.all_reduce_compatible());
    }
}
