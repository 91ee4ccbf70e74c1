//! Literature-baseline compressors referenced by the paper's survey
//! (Table 1 context): QSGD \[13\] and RandomK \[51\].
//!
//! Each has one runner outside the tests: (1) QSGD is the per-worker-scale
//! quantizer `gcs-aggd` tenants run (`SchemeSpec::Qsgd`, and the loadgen's
//! scheme mix) — its per-worker norms make payloads non-summable, which
//! forces all-gather; (2) RandomK is the `utility_report` example's
//! counterpoint — *shared randomness* is an alternative route to all-reduce
//! compatibility (every worker picks the same coordinates, no consensus
//! round needed), with a fine compression ratio and throughput but, blind
//! to gradient content, far worse error than TopKC's at equal budget.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{all_gather_into, ring_all_reduce_into, F16Sum, RingScratch};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::half::F16;
use gcs_tensor::pool::WorkerBufs;
use gcs_tensor::rng::{worker_rng, SharedSeed, Stream};
use rand::Rng;

/// QSGD's round tail: gather the workers' `d`-long payloads, leave their
/// mean (accumulated in worker order) in `out.mean_estimate`, and report
/// the one collective.
fn gather_and_average(
    payloads: &[Vec<f32>],
    bytes_per_elem: f64,
    decode_span: &'static str,
    out: &mut AggregationOutcome,
) {
    let (n, d) = (payloads.len(), payloads[0].len());
    let mut gathered = Vec::new();
    all_gather_into(payloads, bytes_per_elem, &mut gathered, &mut out.traffic);
    let _decode_span = gcs_trace::span(gcs_trace::Phase::Decompress, decode_span);
    let mean = &mut out.mean_estimate;
    mean.clear();
    mean.resize(d, 0.0);
    for chunk in gathered.chunks(d) {
        gcs_tensor::vector::add_assign(mean, chunk);
    }
    gcs_tensor::vector::scale(mean, 1.0 / n as f32);
    out.comm.clear();
    out.comm.push(CommEvent {
        collective: Collective::AllGather,
        payload_bytes: d as f64 * bytes_per_elem + 4.0,
    });
}

/// QSGD stochastic quantization: each worker normalizes by its own L2 norm
/// and quantizes magnitudes to `2^q − 1` levels with stochastic rounding;
/// sign carried separately. Per-worker scales force all-gather aggregation.
#[derive(Clone, Debug)]
pub struct Qsgd {
    q: u32,
    n_workers: usize,
}

impl Qsgd {
    /// Creates QSGD with `q`-bit level quantization.
    ///
    /// # Panics
    /// Panics if `q` is not in `1..=8`.
    pub fn new(q: u32, n_workers: usize) -> Qsgd {
        assert!((1..=8).contains(&q), "Qsgd: q={q} out of range");
        Qsgd { q, n_workers }
    }

    fn levels(&self) -> f32 {
        ((1u32 << self.q) - 1) as f32
    }
}

impl CompressionScheme for Qsgd {
    fn name(&self) -> String {
        format!("QSGD(q={})", self.q)
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let s = self.levels();
        // Each worker's payload: (norm, quantized magnitudes with sign).
        let encode_span = gcs_trace::span(gcs_trace::Phase::Compress, "qsgd_quantize");
        let mut payloads: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (w, g) in grads.iter().enumerate() {
            let norm = gcs_tensor::vector::norm(g);
            let mut rng = worker_rng(ctx.experiment_seed ^ 0x95d, w, ctx.round);
            let mut p = Vec::with_capacity(d);
            for &x in g {
                if norm == 0.0 {
                    p.push(0.0);
                    continue;
                }
                let y = x.abs() / norm * s;
                let lo = y.floor();
                let lane = lo + f32::from(rng.gen::<f32>() < y - lo);
                p.push(lane.copysign(x) * norm / s);
            }
            payloads.push(p);
        }
        drop(encode_span);
        let bytes_per_elem = (self.q as f64 + 1.0) / 8.0;
        gather_and_average(&payloads, bytes_per_elem, "qsgd_mean", out);
    }

    fn all_reduce_compatible(&self) -> bool {
        false
    }

    fn nominal_bits_per_coord(&self, _d: u64) -> f64 {
        self.q as f64 + 1.0
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::AllGather,
            payload_bytes: d as f64 * (self.q as f64 + 1.0) / 8.0 + 4.0,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        ops::quantize(d, self.q).seconds(device)
            + self.n_workers as f64 * ops::dequantize(d, self.q).seconds(device)
    }

    fn reset(&mut self) {}
}

/// RandomK sparsification with **shared** coordinate selection: every
/// worker picks the same K random coordinates from shared randomness, so
/// the selected sub-vector can be ring-all-reduced in FP16 with no index
/// traffic at all — all-reduce compatible, but blind to gradient content.
#[derive(Clone, Debug)]
pub struct RandomK {
    bits: f64,
    ef: ErrorFeedback,
    scratch: RandomKScratch,
}

/// Round scratch owned across rounds: the shared permutation, the FP16
/// payloads and the ring's staging.
#[derive(Clone, Debug, Default)]
struct RandomKScratch {
    perm: Vec<usize>,
    values: WorkerBufs<F16>,
    ring: RingScratch<F16>,
}

impl RandomK {
    /// Creates RandomK targeting `bits` bits per coordinate
    /// (`K = bits·d/16`).
    ///
    /// # Panics
    /// Panics if `bits <= 0`.
    pub fn with_bits(bits: f64, n_workers: usize) -> RandomK {
        assert!(bits > 0.0, "RandomK: bits must be positive");
        RandomK {
            bits,
            ef: ErrorFeedback::new(n_workers, true),
            scratch: RandomKScratch::default(),
        }
    }

    /// K for dimension d.
    pub fn k_for(&self, d: usize) -> usize {
        (((self.bits * d as f64) / 16.0).round() as usize).clamp(1, d)
    }
}

impl CompressionScheme for RandomK {
    fn name(&self) -> String {
        format!("RandomK(b={})", self.bits)
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let k = self.k_for(d);
        let scratch = &mut self.scratch;
        // Shared selection: the first K entries of a shared permutation.
        gcs_tensor::rng::shared_permutation_into(
            d,
            SharedSeed::derive(ctx.experiment_seed, ctx.round, Stream::Custom(0xA11)),
            &mut scratch.perm,
        );
        let selected = &scratch.perm[..k];

        let corrected = self.ef.correct(grads);
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Compress, "randomk_gather");
            let values = scratch.values.prepare(n);
            for (buf, c) in values.iter_mut().zip(corrected) {
                buf.extend(selected.iter().map(|&i| F16::from_f32(c[i])));
            }
        }
        ring_all_reduce_into(
            scratch.values.slice_mut(n),
            &F16Sum,
            2.0,
            &mut scratch.ring,
            &mut out.traffic,
        );
        {
            let _span = gcs_trace::span(gcs_trace::Phase::Decompress, "randomk_scatter");
            let mean = &mut out.mean_estimate;
            mean.clear();
            mean.resize(d, 0.0);
            let summed = &scratch.values.slice(n)[0];
            for (slot, &i) in selected.iter().enumerate() {
                mean[i] = summed[slot].to_f32() / n as f32;
            }
        }
        self.ef.settle(n, |_, memory| {
            for &i in selected {
                memory[i] -= F16::from_f32(memory[i]).to_f32();
            }
        });
        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: k as f64 * 2.0,
        });
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        self.k_for(d as usize) as f64 * 16.0 / d as f64
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: self.k_for(d as usize) as f64 * 2.0,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        let k = self.k_for(d as usize) as u64;
        2.0 * ops::sparse_gather_scatter(k).seconds(device)
    }

    fn reset(&mut self) {
        self.ef.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_tensor::vector::{mean, vnmse};
    use rand::SeedableRng;

    fn ctx(round: u64) -> RoundContext {
        RoundContext::new(31, round)
    }

    fn grads(n: usize, d: usize) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn qsgd_is_roughly_unbiased() {
        let g = vec![vec![0.5f32; 128]];
        let mut s = Qsgd::new(4, 1);
        let mut acc = 0.0f64;
        let rounds = 200;
        for r in 0..rounds {
            acc += s.aggregate_round(&g, &ctx(r)).mean_estimate[0] as f64;
        }
        let avg = acc / rounds as f64;
        assert!((avg - 0.5).abs() < 0.02, "avg = {avg}");
    }

    #[test]
    fn qsgd_more_bits_less_error() {
        let g = grads(4, 256);
        let exact = mean(&g);
        let err = |q: u32| {
            let mut s = Qsgd::new(q, 4);
            let mut e = 0.0;
            for r in 0..5 {
                e += vnmse(&s.aggregate_round(&g, &ctx(r)).mean_estimate, &exact);
            }
            e
        };
        assert!(err(6) < err(2));
    }

    #[test]
    fn randomk_is_allreduce_compatible_and_consistent() {
        let g = grads(3, 100);
        let mut s = RandomK::with_bits(4.0, 3);
        let out = s.aggregate_round(&g, &ctx(0));
        assert!(s.all_reduce_compatible());
        // Exactly K coordinates non-zero (with overwhelming probability).
        let nnz = out.mean_estimate.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nnz, s.k_for(100));
    }

    #[test]
    fn randomk_changes_selection_each_round() {
        let g = grads(1, 200);
        let mut s = RandomK::with_bits(2.0, 1);
        let nz = |est: &[f32]| -> Vec<usize> {
            est.iter()
                .enumerate()
                .filter(|(_, &x)| x != 0.0)
                .map(|(i, _)| i)
                .collect()
        };
        let a = nz(&s.aggregate_round(&g, &ctx(0)).mean_estimate);
        let b = nz(&s.aggregate_round(&g, &ctx(1)).mean_estimate);
        assert_ne!(a, b, "selection should be re-randomized per round");
    }
}
