//! Literature-baseline compressors referenced by the paper's survey
//! (Table 1 context): QSGD \[13\], TernGrad \[63\], signSGD with error feedback
//! \[18, 29\], and RandomK \[51\].
//!
//! These serve three purposes: (1) the ablation benches compare the case
//! study's schemes against the broader design space; (2) RandomK
//! demonstrates that *shared randomness* is an alternative route to
//! all-reduce compatibility (every worker picks the same coordinates, no
//! consensus round needed — but without locality-seeking selection its
//! error is far worse than TopKC's at equal budget); (3) QSGD/TernGrad show
//! per-worker-scale quantization, which forces all-gather.

use crate::ef::ErrorFeedback;
use crate::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_collectives::{all_gather_into, ring_all_reduce_into, F16Sum, RingScratch};
use gcs_gpusim::{ops, DeviceSpec};
use gcs_netsim::Collective;
use gcs_tensor::half::F16;
use gcs_tensor::rng::{worker_rng, SharedSeed, Stream};
use rand::Rng;

/// The round tail the dense all-gather schemes share: gather the workers'
/// `d`-long payloads, leave their mean (accumulated in worker order) in
/// `out.mean_estimate`, and report the one collective.
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
        let _round_timer = gcs_metrics::timer("scheme/qsgd/round_ns");
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

/// TernGrad: values in {−1, 0, +1} scaled by the per-worker max magnitude.
#[derive(Clone, Debug)]
pub struct TernGrad {
    n_workers: usize,
}

impl TernGrad {
    /// Creates TernGrad.
    pub fn new(n_workers: usize) -> TernGrad {
        TernGrad { n_workers }
    }
}

impl CompressionScheme for TernGrad {
    fn name(&self) -> String {
        "TernGrad".to_string()
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let _round_timer = gcs_metrics::timer("scheme/terngrad/round_ns");
        let n = grads.len();
        let encode_span = gcs_trace::span(gcs_trace::Phase::Compress, "terngrad_ternarize");
        let mut payloads: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (w, g) in grads.iter().enumerate() {
            let (lo, hi) = gcs_tensor::vector::min_max(g);
            let s = lo.abs().max(hi.abs());
            let mut rng = worker_rng(ctx.experiment_seed ^ 0x7e4, w, ctx.round);
            let p: Vec<f32> = g
                .iter()
                .map(|&x| {
                    if s == 0.0 {
                        0.0
                    } else {
                        let keep = rng.gen::<f32>() < x.abs() / s;
                        if keep {
                            s.copysign(x)
                        } else {
                            0.0
                        }
                    }
                })
                .collect();
            payloads.push(p);
        }
        drop(encode_span);
        gather_and_average(&payloads, 2.0 / 8.0, "terngrad_mean", out);
    }

    fn all_reduce_compatible(&self) -> bool {
        false
    }

    fn nominal_bits_per_coord(&self, _d: u64) -> f64 {
        2.0
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::AllGather,
            payload_bytes: d as f64 * 0.25 + 4.0,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        ops::quantize(d, 2).seconds(device)
            + self.n_workers as f64 * ops::dequantize(d, 2).seconds(device)
    }

    fn reset(&mut self) {}
}

/// signSGD with error feedback (EF-SIGNSGD \[29\]): transmit
/// `(‖c‖₁/d) · sign(c)` — one bit per coordinate plus a scalar.
#[derive(Clone, Debug)]
pub struct SignSgdEf {
    ef: ErrorFeedback,
}

impl SignSgdEf {
    /// Creates EF-signSGD.
    pub fn new(n_workers: usize) -> SignSgdEf {
        SignSgdEf {
            ef: ErrorFeedback::new(n_workers, true),
        }
    }
}

impl CompressionScheme for SignSgdEf {
    fn name(&self) -> String {
        "signSGD+EF".to_string()
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        _ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let _round_timer = gcs_metrics::timer("scheme/signsgd_ef/round_ns");
        let n = grads.len();
        let d = grads[0].len();
        let encode_span = gcs_trace::span(gcs_trace::Phase::Compress, "signsgd_sign");
        let mut payloads: Vec<Vec<f32>> = Vec::with_capacity(n);
        for (w, g) in grads.iter().enumerate() {
            let corrected = self.ef.corrected(w, g);
            let scale = corrected.iter().map(|x| x.abs()).sum::<f32>() / d.max(1) as f32;
            let sent: Vec<f32> = corrected.iter().map(|&x| scale.copysign(x)).collect();
            self.ef.update(w, &corrected, &sent);
            payloads.push(sent);
        }
        drop(encode_span);
        gather_and_average(&payloads, 1.0 / 8.0, "signsgd_mean", out);
    }

    fn all_reduce_compatible(&self) -> bool {
        false
    }

    fn nominal_bits_per_coord(&self, _d: u64) -> f64 {
        1.0
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        vec![CommEvent {
            collective: Collective::AllGather,
            payload_bytes: d as f64 / 8.0 + 4.0,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        ops::elementwise(d, 8.0, 2.0).seconds(device)
    }

    fn reset(&mut self) {
        self.ef.reset();
    }
}

/// RandomK sparsification with **shared** coordinate selection: every
/// worker picks the same K random coordinates from shared randomness, so
/// the selected sub-vector can be ring-all-reduced in FP16 with no index
/// traffic at all — all-reduce compatible, but blind to gradient content.
#[derive(Clone, Debug)]
pub struct RandomK {
    bits: f64,
    ef: ErrorFeedback,
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
        let _round_timer = gcs_metrics::timer("scheme/randomk/round_ns");
        let n = grads.len();
        let d = grads[0].len();
        let k = self.k_for(d);
        // Shared selection: the first K entries of a shared permutation.
        let perm = gcs_tensor::rng::shared_permutation(
            d,
            SharedSeed::derive(ctx.experiment_seed, ctx.round, Stream::Custom(0xA11)),
        );
        let selected = &perm[..k];

        let encode_span = gcs_trace::span(gcs_trace::Phase::Compress, "randomk_gather");
        let mut corrected_all = Vec::with_capacity(n);
        let mut bufs: Vec<Vec<F16>> = Vec::with_capacity(n);
        for (w, g) in grads.iter().enumerate() {
            let corrected = self.ef.corrected(w, g);
            bufs.push(
                selected
                    .iter()
                    .map(|&i| F16::from_f32(corrected[i]))
                    .collect(),
            );
            corrected_all.push(corrected);
        }
        drop(encode_span);
        ring_all_reduce_into(
            &mut bufs,
            &F16Sum,
            2.0,
            &mut RingScratch::new(),
            &mut out.traffic,
        );
        let _decode_span = gcs_trace::span(gcs_trace::Phase::Decompress, "randomk_scatter");
        let mean = &mut out.mean_estimate;
        mean.clear();
        mean.resize(d, 0.0);
        for (slot, &i) in selected.iter().enumerate() {
            mean[i] = bufs[0][slot].to_f32() / n as f32;
        }
        for (w, corrected) in corrected_all.iter().enumerate() {
            let mut sent = vec![0.0f32; d];
            for &i in selected {
                sent[i] = F16::from_f32(corrected[i]).to_f32();
            }
            self.ef.update(w, corrected, &sent);
        }
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

/// DRIVE \[55\]: one-bit distributed mean estimation — rotate with a shared
/// RHT, transmit the **sign** of every rotated coordinate plus one optimal
/// scale `S = ‖Rg‖² / ‖Rg‖₁`, reconstruct `S·sign`, inverse-rotate.
///
/// `b ≈ 1` bit/coordinate. Per-worker scales make payloads non-summable, so
/// aggregation is all-gather (each worker's reconstruction is averaged) —
/// another data point for the paper's compatibility column. The rotation
/// machinery is shared with THC, which is why the paper suggests its
/// partial-rotation trick "may generalize … e.g. for \[52, 55\]" — and the
/// `rotation` knob here accepts exactly that.
#[derive(Clone, Debug)]
pub struct Drive {
    rotation: gcs_tensor::hadamard::RotationMode,
}

impl Drive {
    /// Creates DRIVE with a full rotation (the original algorithm).
    pub fn new() -> Drive {
        Drive {
            rotation: gcs_tensor::hadamard::RotationMode::Full,
        }
    }

    /// Uses a partial rotation (the paper's §3.2.2 generalization note).
    pub fn with_rotation(rotation: gcs_tensor::hadamard::RotationMode) -> Drive {
        Drive { rotation }
    }
}

impl Default for Drive {
    fn default() -> Drive {
        Drive::new()
    }
}

impl CompressionScheme for Drive {
    fn name(&self) -> String {
        match self.rotation {
            gcs_tensor::hadamard::RotationMode::Full => "DRIVE".to_string(),
            _ => "DRIVE(partial)".to_string(),
        }
    }

    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        let _round_timer = gcs_metrics::timer("scheme/drive/round_ns");
        use gcs_tensor::hadamard::{padded_len, rht_forward, rht_inverse};
        let n = grads.len();
        let d = grads[0].len();
        let padded = padded_len(d.max(1));
        let iters = self.rotation.iterations(padded);
        let seed = SharedSeed::derive(ctx.experiment_seed, ctx.round, Stream::RhtSigns);

        // Each worker's payload: sign vector (as ±1 f32 lanes on the wire
        // at 1 bit each) scaled by its own optimal S.
        let encode_span = gcs_trace::span(gcs_trace::Phase::Compress, "drive_rotate_sign");
        let mut payloads: Vec<Vec<f32>> = Vec::with_capacity(n);
        for g in grads {
            let mut r = g.clone();
            r.resize(padded, 0.0);
            rht_forward(&mut r, iters, seed);
            let l2: f32 = gcs_tensor::vector::squared_norm(&r);
            let l1: f32 = r.iter().map(|x| x.abs()).sum();
            let scale = if l1 > 0.0 { l2 / l1 } else { 0.0 };
            payloads.push(r.iter().map(|&x| scale.copysign(x)).collect());
        }
        drop(encode_span);
        let mut gathered = Vec::new();
        all_gather_into(&payloads, 1.0 / 8.0, &mut gathered, &mut out.traffic);
        let _decode_span = gcs_trace::span(gcs_trace::Phase::Decompress, "drive_unrotate");
        let sum = &mut out.mean_estimate;
        sum.clear();
        sum.resize(padded, 0.0);
        for chunk in gathered.chunks(padded) {
            gcs_tensor::vector::add_assign(sum, chunk);
        }
        rht_inverse(sum, iters, seed);
        sum.truncate(d);
        gcs_tensor::vector::scale(sum, 1.0 / n as f32);
        out.comm.clear();
        out.comm.push(CommEvent {
            collective: Collective::AllGather,
            payload_bytes: padded as f64 / 8.0 + 4.0,
        });
    }

    fn all_reduce_compatible(&self) -> bool {
        false
    }

    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        use gcs_tensor::hadamard::padded_len;
        (padded_len(d.max(1) as usize) as f64 + 32.0) / d as f64
    }

    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        use gcs_tensor::hadamard::padded_len;
        vec![CommEvent {
            collective: Collective::AllGather,
            payload_bytes: padded_len(d.max(1) as usize) as f64 / 8.0 + 4.0,
        }]
    }

    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        use gcs_tensor::hadamard::padded_len;
        let padded = padded_len(d.max(1) as usize);
        let iters = self.rotation.iterations(padded);
        2.0 * ops::fwht(padded as u64, iters, device).seconds(device)
            + ops::elementwise(padded as u64, 8.0, 2.0).seconds(device)
    }

    fn reset(&mut self) {}
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
    fn terngrad_produces_ternary_scaled_values() {
        let g = grads(1, 64);
        let mut s = TernGrad::new(1);
        let out = s.aggregate_round(&g, &ctx(0));
        let scale = g[0].iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        for &v in &out.mean_estimate {
            let ok = v == 0.0 || (v.abs() - scale).abs() < 1e-5;
            assert!(ok, "value {v} not in ternary set of scale {scale}");
        }
    }

    #[test]
    fn signsgd_error_feedback_converges_on_average() {
        let g = vec![vec![0.3f32, -0.8, 0.05, 0.5]];
        let mut s = SignSgdEf::new(1);
        let mut cum = vec![0.0f32; 4];
        let rounds = 200;
        for r in 0..rounds {
            let out = s.aggregate_round(&g, &ctx(r));
            gcs_tensor::vector::add_assign(&mut cum, &out.mean_estimate);
        }
        gcs_tensor::vector::scale(&mut cum, 1.0 / rounds as f32);
        let err = vnmse(&cum, &g[0]);
        assert!(err < 0.01, "EF-averaged signSGD error = {err}");
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
    fn drive_one_bit_estimate_correlates_with_truth() {
        let g = grads(4, 256);
        let exact = mean(&g);
        let mut s = Drive::new();
        let out = s.aggregate_round(&g, &ctx(0));
        let err = vnmse(&out.mean_estimate, &exact);
        // One bit per coordinate: coarse but far better than nothing.
        assert!(err < 0.8, "DRIVE vNMSE = {err}");
        let b = s.nominal_bits_per_coord(256);
        assert!(b > 1.0 && b < 1.4, "b = {b}");
        assert!(!s.all_reduce_compatible());
    }

    #[test]
    fn drive_rotation_improves_one_bit_quality() {
        // DRIVE without rotation degenerates on spiky vectors; the RHT is
        // what makes sign+scale a reasonable code.
        let mut g = grads(2, 512);
        for gw in &mut g {
            gw[13] = 40.0;
        }
        let exact = mean(&g);
        let mut with_rot = Drive::new();
        let mut no_rot = Drive::with_rotation(gcs_tensor::hadamard::RotationMode::None);
        let e_rot = vnmse(&with_rot.aggregate_round(&g, &ctx(0)).mean_estimate, &exact);
        let e_none = vnmse(&no_rot.aggregate_round(&g, &ctx(0)).mean_estimate, &exact);
        assert!(e_rot < e_none, "rot {e_rot} vs none {e_none}");
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
