//! PowerSGD low-rank gradient compression (§3.3).
//!
//! Each layer's gradient matrix `M (m×n)` is approximated as `P̂ Qᵀ` with
//! rank `r` via one step of subspace iteration per round, warm-started from
//! the previous round's `Q`:
//!
//! 1. `P = Σᵢ Mᵢ Q`       — ring all-reduce of `m×r` (FP32)
//! 2. `P̂ = GramSchmidt(P)` — §3.3's profiled bottleneck at the paper's
//!    `r = 64`
//! 3. `Q' = Σᵢ Mᵢᵀ P̂ / n` — ring all-reduce of `n×r` (FP32)
//! 4. estimate `= P̂ Q'ᵀ`; per-worker error feedback
//!    `memᵢ = Mᵢ − P̂ (Mᵢᵀ P̂)ᵀ`
//!
//! PowerSGD is natively all-reduce compatible (summing `P`s and `Q`s *is*
//! the aggregation — the paper's Table 1 credits it via \[11\]), and achieves
//! extreme compression ratios (`b` well below 1 bit/coordinate, Table 9) —
//! but its throughput is bounded by compute, not communication: §3.3's
//! finding, which our cost model reproduces. On this substrate the compute
//! is a layer's `3n + 1` thin matrix products (steps 1, 3 and 4);
//! EXPERIMENTS.md (Table 9) has the measured split by rank.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{ring_all_reduce_into, F32Sum, RingScratch, Traffic};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::matrix::{
    matmul_bt_into, matmul_into, orthonormalize_columns_slice, transpose_matmul_into, GsScratch,
    Matrix,
};
use gcs_tensor::pool::WorkerBufs;
use gcs_tensor::rng::{SharedSeed, Stream};
use rand::Rng;

/// Round scratch owned across rounds. Every buffer the round touches —
/// EF-corrected gradients, per-worker P/Q factors, the orthonormalized P̂,
/// Gram–Schmidt staging, ring staging — lives here and is refilled in
/// place, so the steady-state round performs no heap allocation (asserted
/// by `tests/alloc_budget.rs`). The per-layer matmuls write straight into
/// these buffers via the `_into` matrix free functions.
#[derive(Clone, Debug, Default)]
struct PowerSgdScratch {
    corrected: Vec<Vec<f32>>,
    sent: WorkerBufs<f32>,
    p_bufs: WorkerBufs<f32>,
    /// Per-worker `Mᵢᵀ P̂`, kept un-reduced for the EF contributions.
    q_locals: WorkerBufs<f32>,
    q_bufs: WorkerBufs<f32>,
    /// The summed-and-orthonormalized P factor for the current layer.
    p_hat: Vec<f32>,
    /// `Qᵀ` staging for the `P̂ Qᵀ` products.
    q_t: Vec<f32>,
    gs: GsScratch,
    rest: WorkerBufs<f32>,
    ring: RingScratch<f32>,
    stage_traffic: Traffic,
}

/// PowerSGD low-rank compression.
#[derive(Clone, Debug)]
pub struct PowerSgd {
    rank: u32,
    shapes: Vec<(usize, usize)>,
    /// Paper-scale shapes used only by the cost/traffic model.
    cost_shapes: Vec<(u64, u64)>,
    q_states: Vec<Matrix>,
    ef: ErrorFeedback,
    scratch: PowerSgdScratch,
}

impl PowerSgd {
    /// Creates PowerSGD with target rank `r` over the given per-layer
    /// matrix shapes. The shapes' element counts must not exceed the
    /// gradient dimension; any remainder is carried as one extra column
    /// vector.
    ///
    /// # Panics
    /// Panics if `rank == 0` or any shape is degenerate.
    pub fn new(rank: u32, shapes: Vec<(usize, usize)>, n_workers: usize) -> PowerSgd {
        assert!(rank > 0, "PowerSgd: rank must be positive");
        assert!(
            shapes.iter().all(|&(r, c)| r > 0 && c > 0),
            "PowerSgd: degenerate shape"
        );
        let cost_shapes = shapes.iter().map(|&(r, c)| (r as u64, c as u64)).collect();
        PowerSgd {
            rank,
            shapes,
            cost_shapes,
            q_states: Vec::new(),
            ef: ErrorFeedback::new(n_workers, true),
            scratch: PowerSgdScratch::default(),
        }
    }

    /// Disables error feedback (ablation; the paper always runs PowerSGD
    /// with EF, as does the original algorithm).
    pub fn without_ef(mut self) -> PowerSgd {
        let n = self.ef.n_workers();
        self.ef = ErrorFeedback::new(n, false);
        self
    }

    /// Overrides the shapes used by the *cost model* (paper-scale layer
    /// shapes) while keeping the functional shapes for real data.
    pub fn with_cost_shapes(mut self, cost_shapes: Vec<(u64, u64)>) -> PowerSgd {
        self.cost_shapes = cost_shapes;
        self
    }

    /// Target rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    fn layer_rank(&self, rows: usize, cols: usize) -> usize {
        (self.rank as usize).min(rows).min(cols)
    }

    /// Values communicated per round (P plus Q factors) at the cost shapes.
    fn comm_values(&self) -> u64 {
        self.cost_shapes
            .iter()
            .map(|&(r, c)| (r + c) * self.rank as u64)
            .sum()
    }

    fn cost_d(&self) -> u64 {
        self.cost_shapes.iter().map(|&(r, c)| r * c).sum()
    }
}

impl CompressionScheme for PowerSgd {
    fn name(&self) -> String {
        format!("PowerSGD(r={})", self.rank)
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let n = grads.len();
        let d = grads[0].len();
        let covered: usize = self.shapes.iter().map(|&(r, c)| r * c).sum();
        assert!(
            covered <= d,
            "PowerSgd: shapes cover {covered} > gradient dim {d}"
        );

        let mut scratch = std::mem::take(&mut self.scratch);

        // EF-corrected gradients (batched, parallel across workers). The
        // per-layer matmuls below parallelize internally over output rows,
        // which fits PowerSGD's few-workers/large-matrices regime better
        // than fanning out over the worker loop.
        self.ef.corrected_all_into(grads, &mut scratch.corrected);

        // Lazily initialize Q states from shared randomness so all workers
        // (and reruns) agree.
        if self.q_states.len() != self.shapes.len() {
            self.q_states = self
                .shapes
                .iter()
                .enumerate()
                .map(|(l, &(rows, cols))| {
                    let r = self.layer_rank(rows, cols);
                    let mut rng =
                        SharedSeed::derive(ctx.experiment_seed, l as u64, Stream::Custom(0x505))
                            .rng();
                    let data: Vec<f32> = (0..cols * r).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    Matrix::from_vec(cols, r, data)
                })
                .collect();
        }

        out.mean_estimate.clear();
        out.mean_estimate.resize(d, 0.0);
        let estimate = &mut out.mean_estimate;
        out.traffic.reset(n);
        let mut p_bytes = 0.0f64;
        let mut q_bytes = 0.0f64;
        let mut offset = 0usize;
        let PowerSgdScratch {
            corrected,
            sent,
            p_bufs,
            q_locals,
            q_bufs,
            p_hat,
            q_t,
            gs,
            rest,
            ring,
            stage_traffic,
        } = &mut scratch;
        for s in sent.prepare(n).iter_mut() {
            s.resize(d, 0.0);
        }

        for (l, &(rows, cols)) in self.shapes.iter().enumerate() {
            let len = rows * cols;
            let r = self.layer_rank(rows, cols);
            let q_prev = &self.q_states[l];

            // P_i = M_i Q, all-reduced. Each worker's matrix is the layer
            // slice of its corrected gradient — viewed in place, never
            // copied.
            {
                let _s = gcs_trace::span(gcs_trace::Phase::Compress, "powersgd_matmul_p");
                for (buf, c) in p_bufs.prepare(n).iter_mut().zip(corrected.iter()) {
                    buf.resize(rows * r, 0.0);
                    matmul_into(&c[offset..offset + len], rows, cols, q_prev.data(), r, buf);
                }
            }
            ring_all_reduce_into(p_bufs.slice_mut(n), &F32Sum, 4.0, ring, stage_traffic);
            out.traffic.merge(stage_traffic);
            p_bytes += (rows * r * 4) as f64;

            // Orthonormalize the summed P in the persistent P̂ buffer.
            p_hat.clear();
            p_hat.extend_from_slice(&p_bufs.slice(n)[0]);
            {
                let _s = gcs_trace::span(gcs_trace::Phase::Compress, "gram_schmidt");
                orthonormalize_columns_slice(p_hat, rows, r, gs);
            }

            // Q_i = M_iᵀ P̂, kept per worker for the EF contributions, with
            // a copy all-reduced then averaged. The factors stay `cols × r`
            // through the ring: an element's segment fixes the order its
            // workers are summed in, so a transposed layout would change bits.
            {
                let _s = gcs_trace::span(gcs_trace::Phase::Compress, "powersgd_matmul_q");
                for (buf, c) in q_locals.prepare(n).iter_mut().zip(corrected.iter()) {
                    buf.resize(cols * r, 0.0);
                    transpose_matmul_into(&c[offset..offset + len], rows, cols, p_hat, r, buf);
                }
            }
            for (buf, q) in q_bufs.prepare(n).iter_mut().zip(q_locals.slice(n)) {
                buf.extend_from_slice(q);
            }
            ring_all_reduce_into(q_bufs.slice_mut(n), &F32Sum, 4.0, ring, stage_traffic);
            out.traffic.merge(stage_traffic);
            q_bytes += (cols * r * 4) as f64;

            // Average the summed Q straight into the warm-start state
            // (same shape every round, so this is a pure overwrite).
            let q_state = &mut self.q_states[l];
            q_state.data_mut().copy_from_slice(&q_bufs.slice(n)[0]);
            gcs_tensor::vector::scale(q_state.data_mut(), 1.0 / n as f32);

            // Estimate = P̂ Q_meanᵀ (mean of per-worker approximations),
            // written directly into the outcome's layer slice.
            {
                let _s = gcs_trace::span(gcs_trace::Phase::Decompress, "powersgd_estimate");
                matmul_bt_into(
                    p_hat,
                    rows,
                    r,
                    q_state.data(),
                    cols,
                    q_t,
                    &mut estimate[offset..offset + len],
                );
            }

            // Per-worker contributions for EF: P̂ (M_iᵀ P̂)ᵀ. Only needed
            // when EF is on — `sent` feeds `update_all`, which no-ops when
            // disabled, so skip the n_workers extra matmuls in that case.
            if self.ef.enabled() {
                let _s = gcs_trace::span(gcs_trace::Phase::Compress, "powersgd_ef_contrib");
                let sent = sent.slice_mut(n);
                for (w, q_local) in q_locals.slice(n).iter().enumerate() {
                    matmul_bt_into(
                        p_hat,
                        rows,
                        r,
                        q_local,
                        cols,
                        q_t,
                        &mut sent[w][offset..offset + len],
                    );
                }
            }

            offset += len;
        }

        // Remainder coordinates (biases etc.): aggregated uncompressed in
        // FP32 — matching PowerSGD deployments, which only compress matrix
        // parameters.
        if offset < d {
            for (buf, c) in rest.prepare(n).iter_mut().zip(corrected.iter()) {
                buf.extend_from_slice(&c[offset..]);
            }
            ring_all_reduce_into(rest.slice_mut(n), &F32Sum, 4.0, ring, stage_traffic);
            out.traffic.merge(stage_traffic);
            q_bytes += ((d - offset) * 4) as f64;
            let rest = &rest.slice(n)[0];
            let sent = sent.slice_mut(n);
            for (i, &v) in rest.iter().enumerate() {
                estimate[offset + i] = v / n as f32;
            }
            for (w, s) in sent.iter_mut().enumerate() {
                s[offset..].copy_from_slice(&corrected[w][offset..]);
            }
        }

        // EF update (batched, parallel across workers).
        self.ef.update_all(corrected, sent.slice(n));

        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: p_bytes,
        });
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: q_bytes,
        });
        self.scratch = scratch;
    }

    fn all_reduce_compatible(&self) -> bool {
        true
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        self.comm_values() as f64 * 32.0 / d.max(self.cost_d()).max(1) as f64
    }

    fn comm_events(&self, _d: u64) -> Vec<CommEvent> {
        let half = self.comm_values() as f64 * 4.0 / 2.0;
        vec![
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: half,
            },
            CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes: half,
            },
        ]
    }

    fn compute_seconds(&self, _d: u64, device: &DeviceSpec) -> f64 {
        ops::powersgd_round(&self.cost_shapes, self.rank, device)
    }

    fn reset(&mut self) {
        self.q_states.clear();
        self.ef.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_tensor::vector::{mean, vnmse};
    use rand::SeedableRng;

    fn ctx(round: u64) -> RoundContext {
        RoundContext::new(123, round)
    }

    /// A set of gradients that are genuinely low-rank: outer products.
    fn low_rank_grads(n: usize, rows: usize, cols: usize, rank: usize) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        (0..n)
            .map(|_| {
                let mut m = vec![0.0f32; rows * cols];
                for _ in 0..rank {
                    let u: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let v: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    for i in 0..rows {
                        for j in 0..cols {
                            m[i * cols + j] += u[i] * v[j];
                        }
                    }
                }
                m
            })
            .collect()
    }

    #[test]
    fn rank1_matrix_recovered_almost_exactly() {
        // All workers hold scalar multiples of the same rank-1 matrix, so
        // the *mean* is also rank-1 and a rank-2 approximation is exact.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let u: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let v: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let grads: Vec<Vec<f32>> = (0..3)
            .map(|w| {
                let c = 0.5 + w as f32 * 0.3;
                (0..48).map(|i| c * u[i / 6] * v[i % 6]).collect()
            })
            .collect();
        let exact = mean(&grads);
        let mut s = PowerSgd::new(2, vec![(8, 6)], 3).without_ef();
        // A couple of warm-up rounds for the power iteration to lock on.
        let mut out = s.aggregate_round(&grads, &ctx(0));
        for r in 1..4 {
            out = s.aggregate_round(&grads, &ctx(r));
        }
        let err = vnmse(&out.mean_estimate, &exact);
        assert!(err < 1e-2, "rank-1 input, rank-2 approx: vNMSE = {err}");
    }

    #[test]
    fn higher_rank_reduces_error() {
        let grads = low_rank_grads(2, 16, 12, 6);
        let exact = mean(&grads);
        let err_at = |rank: u32| {
            let mut s = PowerSgd::new(rank, vec![(16, 12)], 2);
            let mut out = s.aggregate_round(&grads, &ctx(0));
            for r in 1..5 {
                out = s.aggregate_round(&grads, &ctx(r));
            }
            vnmse(&out.mean_estimate, &exact)
        };
        let e1 = err_at(1);
        let e6 = err_at(6);
        assert!(e6 < e1 * 0.5, "e1={e1} e6={e6}");
    }

    #[test]
    fn error_feedback_preserves_signal_over_time() {
        // With EF, repeated compression of the same gradient accumulates the
        // full signal: cumulative estimates converge to the true mean.
        let grads = low_rank_grads(2, 10, 10, 5);
        let exact = mean(&grads);
        let mut s = PowerSgd::new(1, vec![(10, 10)], 2);
        let mut cum = vec![0.0f32; 100];
        let rounds = 30;
        for r in 0..rounds {
            let out = s.aggregate_round(&grads, &ctx(r));
            gcs_tensor::vector::add_assign(&mut cum, &out.mean_estimate);
        }
        let mut avg = cum.clone();
        gcs_tensor::vector::scale(&mut avg, 1.0 / rounds as f32);
        let err = vnmse(&avg, &exact);
        assert!(err < 0.05, "EF-averaged error = {err}");
    }

    #[test]
    fn remainder_coordinates_pass_through_exactly() {
        // Shapes cover 12 of 15 coordinates; the rest must be exact.
        let grads = vec![
            (0..15).map(|i| i as f32 * 0.1).collect::<Vec<f32>>(),
            (0..15).map(|i| -(i as f32) * 0.05).collect::<Vec<f32>>(),
        ];
        let exact = mean(&grads);
        let mut s = PowerSgd::new(1, vec![(4, 3)], 2);
        let out = s.aggregate_round(&grads, &ctx(0));
        for (i, (got, want)) in out.mean_estimate[12..15]
            .iter()
            .zip(&exact[12..15])
            .enumerate()
        {
            assert!((got - want).abs() < 1e-6, "remainder coord {}", 12 + i);
        }
    }

    #[test]
    fn bits_per_coordinate_is_tiny() {
        // 1000x1000 matrix at rank 4: b = (2000*4*32)/1e6 = 0.256.
        let s = PowerSgd::new(4, vec![(1000, 1000)], 2);
        let b = s.nominal_bits_per_coord(1_000_000);
        assert!((b - 0.256).abs() < 1e-3, "b = {b}");
        assert!(s.all_reduce_compatible());
    }

    #[test]
    fn rank_clamped_to_matrix_dims() {
        let grads = low_rank_grads(2, 3, 2, 1);
        let mut s = PowerSgd::new(64, vec![(3, 2)], 2);
        // Must not panic; effective rank is 2.
        let out = s.aggregate_round(&grads, &ctx(0));
        assert_eq!(out.mean_estimate.len(), 6);
    }
}
