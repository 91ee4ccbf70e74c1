//! Sketched sparsification (FetchSGD-style): compress via a **linear**
//! count-sketch, aggregate sketches with a plain ring all-reduce, recover
//! the aggregate's heavy hitters, and carry the residual in error feedback.
//!
//! This is the third route to all-reduce compatibility in this suite, and
//! the most structural one:
//!
//! * TopKC earns compatibility through a *consensus round* (§3.1.2);
//! * THC+Sat earns it through *closed-under-addition payloads* (§3.2.2);
//! * a sketch is compatible *by linearity* — `S(Σg) = ΣS(g)` — so
//!   intermediate hops just add tables, and what gets recovered are the
//!   heavy hitters of the **global sum** (an approximation of Global TopK,
//!   which §3.1.1 notes is unobtainable directly!).
//!
//! The price is recovery compute (`O(d·rows)` estimation) and collision
//! noise, both measurable here.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{ring_all_reduce_into, F32Sum, RingScratch};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::rng::{SharedSeed, Stream};
use gcs_tensor::sketch::{CountSketch, SketchScratch};

/// FetchSGD-style sketched compression.
#[derive(Clone, Debug)]
pub struct SketchScheme {
    rows: usize,
    /// Sketch width as a fraction of `d` (total payload = rows × width).
    width_frac: f64,
    /// Heavy hitters recovered per round, as a fraction of `d`.
    k_frac: f64,
    ef: ErrorFeedback,
    /// Estimation scratch owned across rounds: the `O(d·rows)` recovery
    /// pass reuses these buffers instead of allocating per coordinate.
    scratch: SketchScratch,
}

impl SketchScheme {
    /// Creates the scheme. `bits` is the target payload bits/coordinate;
    /// width is derived as `bits·d / (32·rows)`.
    ///
    /// # Panics
    /// Panics if parameters are degenerate.
    pub fn with_bits(bits: f64, rows: usize, k_frac: f64, n_workers: usize) -> SketchScheme {
        assert!(rows > 0, "SketchScheme: rows must be positive");
        assert!(bits > 0.0, "SketchScheme: bits must be positive");
        assert!(
            (0.0..=1.0).contains(&k_frac) && k_frac > 0.0,
            "SketchScheme: k_frac out of range"
        );
        SketchScheme {
            rows,
            width_frac: bits / (32.0 * rows as f64),
            k_frac,
            ef: ErrorFeedback::new(n_workers, true),
            scratch: SketchScratch::new(),
        }
    }

    fn width_for(&self, d: usize) -> usize {
        ((self.width_frac * d as f64).round() as usize).max(8)
    }

    fn k_for(&self, d: usize) -> usize {
        ((self.k_frac * d as f64).round() as usize).clamp(1, d)
    }
}

impl CompressionScheme for SketchScheme {
    fn name(&self) -> String {
        format!(
            "Sketch(r={}, b~{:.1})",
            self.rows,
            self.width_frac * 32.0 * self.rows as f64
        )
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let _round_timer = gcs_metrics::timer("scheme/sketch/round_ns");
        let n = grads.len();
        let d = grads[0].len();
        let width = self.width_for(d);
        let k = self.k_for(d);
        // The hash seed is *fixed per experiment* (not per round): EF
        // residuals live partly in collision space, and re-hashing every
        // round would decorrelate them from the memory.
        let seed = SharedSeed::derive(ctx.experiment_seed, 0, Stream::Custom(0x57e7));

        // Sketch each worker's EF-corrected gradient.
        let encode_span = gcs_trace::span(gcs_trace::Phase::Compress, "sketch_insert");
        let mut corrected_all = Vec::with_capacity(n);
        let mut tables: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (w, g) in grads.iter().enumerate() {
            let corrected = self.ef.corrected(w, g);
            let mut sk = CountSketch::new(self.rows, width, seed);
            sk.insert(&corrected);
            tables.push(sk.table().to_vec());
            corrected_all.push(corrected);
        }

        drop(encode_span);

        // Linear aggregation: ring all-reduce over the raw tables.
        ring_all_reduce_into(
            &mut tables,
            &F32Sum,
            4.0,
            &mut RingScratch::new(),
            &mut out.traffic,
        );
        let mut agg = CountSketch::new(self.rows, width, seed);
        agg.table_mut().copy_from_slice(&tables[0]);

        // Recover the aggregate's heavy hitters through the pooled
        // estimation scratch (median buffer + TopK selection scratch).
        let decode_span = gcs_trace::span(gcs_trace::Phase::Decompress, "sketch_recover");
        let mut hitters = Vec::with_capacity(k);
        agg.heavy_hitters_into(d, k, &mut self.scratch, &mut hitters);
        let mut vals = Vec::with_capacity(self.rows);
        let mean = &mut out.mean_estimate;
        mean.clear();
        mean.resize(d, 0.0);
        for &i in &hitters {
            mean[i] = agg.estimate_with(i, &mut vals) / n as f32;
        }
        drop(decode_span);

        // EF: each worker's transmitted contribution is its own sketch's
        // estimate at the recovered coordinates.
        for (w, corrected) in corrected_all.iter().enumerate() {
            let mut own = CountSketch::new(self.rows, width, seed);
            own.insert(corrected);
            let mut sent = vec![0.0f32; d];
            for &i in &hitters {
                sent[i] = own.estimate_with(i, &mut vals);
            }
            self.ef.update(w, corrected, &sent);
        }

        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: (self.rows * width * 4) as f64,
        });
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        (self.rows * self.width_for(d as usize)) as f64 * 32.0 / d as f64
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: (self.rows * self.width_for(d as usize) * 4) as f64,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        // Insertion: rows scattered updates per coordinate; recovery:
        // rows reads per coordinate (both non-coalesced).
        let r = self.rows as f64;
        ops::sparse_gather_scatter((d as f64 * r) as u64).seconds(device)
            + ops::sparse_gather_scatter((d as f64 * r) as u64).seconds(device)
    }

    fn reset(&mut self) {
        self.ef.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::GradientModel;
    use gcs_tensor::vector::{mean, vnmse};

    #[test]
    fn recovers_heavy_hitters_of_the_global_sum() {
        // Worker gradients whose *sum* has heavy coordinates that no single
        // worker's local TopK would rank first — the Global-TopK advantage.
        let d = 400;
        let n = 4;
        let mut grads = vec![vec![0.0f32; d]; n];
        // Coordinate 7: every worker contributes 1.0 (sum 4.0).
        // Coordinate 100+w: worker w alone contributes 2.5 (sum 2.5).
        for (w, g) in grads.iter_mut().enumerate() {
            g[7] = 1.0;
            g[100 + w] = 2.5;
        }
        let mut s = SketchScheme::with_bits(8.0, 5, 0.01, n);
        let out = s.aggregate_round(&grads, &RoundContext::new(3, 0));
        // k = 4 coordinates recovered; coordinate 7 (global heavy) must be
        // among them even though each worker's local top-1 is 100+w.
        assert!(
            out.mean_estimate[7] > 0.5,
            "global heavy hitter missed: {}",
            out.mean_estimate[7]
        );
    }

    #[test]
    fn is_allreduce_compatible_and_linear_traffic() {
        let s = SketchScheme::with_bits(4.0, 4, 0.05, 4);
        assert!(s.all_reduce_compatible());
        let b = s.nominal_bits_per_coord(100_000);
        assert!((b - 4.0).abs() < 0.2, "b = {b}");
    }

    #[test]
    fn error_feedback_recovers_tail_coordinates_over_time() {
        let d = 300;
        let grads = vec![{
            let mut g = vec![0.1f32; d];
            g[5] = 3.0;
            g
        }];
        let mut s = SketchScheme::with_bits(6.0, 3, 0.02, 1);
        let mut seen_tail = false;
        for r in 0..20 {
            let out = s.aggregate_round(&grads, &RoundContext::new(9, r));
            if out
                .mean_estimate
                .iter()
                .enumerate()
                .any(|(i, &x)| i != 5 && x > 0.3)
            {
                seen_tail = true;
                break;
            }
        }
        assert!(seen_tail, "EF never surfaced tail coordinates");
    }

    #[test]
    fn works_in_its_regime_sparse_heavy_signals() {
        // Sketching recovers signals whose energy concentrates in FEW
        // coordinates (FetchSGD applies it to momentum-accumulated
        // gradients for exactly this reason). Build 4 workers around a
        // shared 20-spike signal plus light noise.
        use rand::{Rng, SeedableRng};
        let d = 4096;
        let n = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut signal = vec![0.0f32; d];
        for _ in 0..20 {
            let i = rng.gen_range(0..d);
            signal[i] = rng.gen_range(2.0f32..5.0) * if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        let grads: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                signal
                    .iter()
                    .map(|&x| x + rng.gen_range(-0.05f32..0.05))
                    .collect()
            })
            .collect();
        let exact = mean(&grads);
        let mut s = SketchScheme::with_bits(8.0, 5, 0.01, n);
        let out = s.aggregate_round(&grads, &RoundContext::new(17, 0));
        let err = vnmse(&out.mean_estimate, &exact);
        assert!(err < 0.3, "sketch missed the sparse signal: vNMSE {err}");
    }

    #[test]
    fn dense_gradients_are_outside_the_sketchs_regime() {
        // The flip side, documented as a test: on wide heavy-tailed
        // gradients (bert_like), collision noise drowns per-coordinate
        // estimates and recovery is poor — the reason the paper's case
        // study uses chunking/quantization rather than sketching for dense
        // gradients.
        let model = GradientModel::bert_like(1 << 12);
        let grads = model.generate(4, gcs_tensor::rng::SharedSeed::new(31));
        let exact = mean(&grads);
        let mut s = SketchScheme::with_bits(8.0, 5, 0.01, 4);
        let out = s.aggregate_round(&grads, &RoundContext::new(17, 0));
        let err = vnmse(&out.mean_estimate, &exact);
        assert!(err > 0.5, "unexpectedly good on dense input: {err}");
    }
}
