//! Differential pins for the three matrix products of the PowerSGD round.
//!
//! `gcs-tensor`'s `matmul_into` (`P = M·Q`), `transpose_matmul_into`
//! (`Q = Mᵀ·P̂`) and `matmul_bt_into` (`P̂·Qᵀ`) are shaped for a rank-sized
//! inner or output dimension — register blocks, row streaming, row AXPYs —
//! under one rule: every output element is **bit for bit** the sum the plain
//! row loops produce. Those loops live here, as oracles, and nowhere in
//! `src/`; they share no code with the kernels under test.
//!
//! * the three products against the oracles at 1, 2 and 3 threads, over
//!   shapes that are not multiples of any block or tile, ranks on both sides
//!   of `dot_folded`'s eight lanes, products on both sides of the fork-join
//!   threshold, and inputs holding exact `+0.0`, `−0.0`, all-zero rows and
//!   subnormals (finite only — `simd.rs`'s caveat);
//! * the whole round — estimate bits, `Traffic`, comm events — against a
//!   round assembled from the oracles, over three consecutive rounds on one
//!   instance, so the error-feedback memory and the warm-started `Q` are
//!   compared through what they do to the next round.

use gradient_utility::collectives::{ring_all_reduce_into, F32Sum, RingScratch, Traffic};
use gradient_utility::core::scheme::{
    AggregationOutcome, CommEvent, CompressionScheme, RoundContext,
};
use gradient_utility::core::schemes::powersgd::PowerSgd;
use gradient_utility::netsim::Collective;
use gradient_utility::tensor::matrix::{
    matmul_bt_into, matmul_into, orthonormalize_columns_slice, transpose_matmul_into, GsScratch,
};
use gradient_utility::tensor::parallel::with_threads;
use gradient_utility::tensor::rng::{splitmix64, SharedSeed, Stream};
use gradient_utility::tensor::simd::dot_folded_scalar;
use proptest::prelude::*;
use rand::Rng;

// ---------------------------------------------------------------------------
// The oracles: the row loops the kernels replaced
// ---------------------------------------------------------------------------

/// Accumulates row `i` of `A(ar×ac) · B(ac×bc)` into `crow` using the kj
/// (streaming) inner order.
fn matmul_row(a: &[f32], ac: usize, b: &[f32], bc: usize, i: usize, crow: &mut [f32]) {
    let arow = &a[i * ac..(i + 1) * ac];
    for (k, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b[k * bc..(k + 1) * bc];
        for (c, &bv) in crow.iter_mut().zip(brow) {
            *c += av * bv;
        }
    }
}

/// Accumulates row `i` of `A(ar×ac)ᵀ · B(ar×bc)` into `crow`. Per element,
/// terms are added in ascending `k`.
fn transpose_matmul_row(
    a: &[f32],
    ar: usize,
    ac: usize,
    b: &[f32],
    bc: usize,
    i: usize,
    crow: &mut [f32],
) {
    for k in 0..ar {
        let av = a[k * ac + i];
        if av == 0.0 {
            continue;
        }
        let brow = &b[k * bc..(k + 1) * bc];
        for (c, &bv) in crow.iter_mut().zip(brow) {
            *c += av * bv;
        }
    }
}

fn oracle_matmul(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ar * bc];
    for (i, crow) in out.chunks_exact_mut(bc.max(1)).enumerate() {
        matmul_row(a, ac, b, bc, i, crow);
    }
    out
}

fn oracle_transpose_matmul(a: &[f32], ar: usize, ac: usize, b: &[f32], bc: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ac * bc];
    for (i, crow) in out.chunks_exact_mut(bc.max(1)).enumerate() {
        transpose_matmul_row(a, ar, ac, b, bc, i, crow);
    }
    out
}

/// `A(ar×ac) · B(br×ac)ᵀ`, one folded dot per output element.
fn oracle_matmul_bt(a: &[f32], ar: usize, ac: usize, b: &[f32], br: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ar * br];
    for (i, crow) in out.chunks_exact_mut(br.max(1)).enumerate() {
        let arow = &a[i * ac..(i + 1) * ac];
        for (j, c) in crow.iter_mut().enumerate() {
            *c = dot_folded_scalar(arow, &b[j * ac..(j + 1) * ac]);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// `rows × cols` finite values: mostly uniform in `±4`, with exact zeros of
/// both signs, subnormals and exact ties mixed in, and about one row in six
/// all zero (alternating the zero's sign).
fn probe(rows: usize, cols: usize, salt: u64) -> Vec<f32> {
    let mut v: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let bits = splitmix64(i as u64 ^ salt);
            match bits % 19 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE / 2.0,
                3 => -1.5e-42,
                4 => f32::from_bits(1),
                5 => 1.0,
                6 => -1.0,
                _ => (((bits >> 16) as f32 / (1u64 << 32) as f32) - 0.5) * 8.0,
            }
        })
        .collect();
    for (r, row) in v.chunks_exact_mut(cols.max(1)).enumerate() {
        let pick = splitmix64(salt.rotate_left(17) ^ r as u64);
        if pick.is_multiple_of(6) {
            row.fill(if pick & 64 == 0 { 0.0 } else { -0.0 });
        }
    }
    v
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// The three products
// ---------------------------------------------------------------------------

const RANKS: [usize; 12] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64];
const THREADS: [usize; 3] = [1, 2, 3];

/// All three products of one `rows × cols` layer at rank `r` against the
/// oracles, at every thread count. `r` is not clamped: the kernels take any
/// shape.
fn assert_products_match_oracles(rows: usize, cols: usize, r: usize, salt: u64) {
    let m = probe(rows, cols, salt);
    let q = probe(cols, r, salt ^ 0x51);
    let p_hat = probe(rows, r, salt ^ 0x9a7);
    let want_p = oracle_matmul(&m, rows, cols, &q, r);
    let want_q = oracle_transpose_matmul(&m, rows, cols, &p_hat, r);
    let want_est = oracle_matmul_bt(&p_hat, rows, r, &q, cols);
    // Dirty outputs and a dirty, wrongly sized stage: all are overwritten.
    let mut stage = vec![f32::NAN; 3];
    for threads in THREADS {
        let at = format!("{rows}x{cols} r={r} threads={threads} salt={salt:#x}");
        with_threads(threads, || {
            let mut p = vec![f32::NAN; rows * r];
            matmul_into(&m, rows, cols, &q, r, &mut p);
            assert_eq!(bits(&p), bits(&want_p), "M·Q, {at}");
            let mut qn = vec![f32::NAN; cols * r];
            transpose_matmul_into(&m, rows, cols, &p_hat, r, &mut qn);
            assert_eq!(bits(&qn), bits(&want_q), "Mᵀ·P̂, {at}");
            let mut est = vec![f32::NAN; rows * cols];
            matmul_bt_into(&p_hat, rows, r, &q, cols, &mut stage, &mut est);
            assert_eq!(bits(&est), bits(&want_est), "P̂·Qᵀ, {at}");
        });
    }
}

/// 1..=70, or one of the sizes around the benchmark's layers.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=70,
        1usize..=70,
        1usize..=70,
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(512usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn products_match_the_row_loops_bit_for_bit(
        rows in dim(),
        cols in dim(),
        r in 0..RANKS.len(),
        salt in any::<u64>(),
    ) {
        assert_products_match_oracles(rows, cols, RANKS[r], salt);
    }
}

/// Shapes chosen by where they fall against the fork-join threshold of
/// 2^20 multiply-adds: under it, exactly on it, two and more blocks with
/// ragged row blocks in each — at ranks under, on and over eight lanes.
#[test]
fn products_match_on_both_sides_of_the_fork_join_threshold() {
    let shapes = [
        (256, 128, 4), // BertMini's first layer: far under
        (511, 512, 4), // just under
        (512, 512, 4), // exactly on: one task
        (512, 512, 8), // two tasks
        (519, 517, 9), // two or three tasks of 260 or 173 rows
        (1024, 520, 4),
        (61, 67, 16), // under, folded dots
        (70, 129, 17),
        (259, 512, 16),
        (129, 512, 64), // four blocks' worth: one task a thread
    ];
    for (i, (rows, cols, r)) in shapes.into_iter().enumerate() {
        assert_products_match_oracles(rows, cols, r, 0x9e37 + i as u64);
    }
}

#[test]
fn empty_products_are_empty_or_zero() {
    let mut stage = Vec::new();
    let mut out = vec![f32::NAN; 6];
    // Inner dimension zero: every sum is the empty sum.
    matmul_into(&[], 3, 0, &[], 2, &mut out);
    assert_eq!(bits(&out), bits(&[0.0; 6]));
    out.fill(f32::NAN);
    transpose_matmul_into(&[], 0, 3, &[], 2, &mut out);
    assert_eq!(bits(&out), bits(&[0.0; 6]));
    out.fill(f32::NAN);
    matmul_bt_into(&[], 3, 0, &[], 2, &mut stage, &mut out);
    assert_eq!(bits(&out), bits(&[0.0; 6]));
    // Output dimension zero: nothing to write, nothing to panic about.
    matmul_into(&[1.0; 6], 3, 2, &[], 0, &mut []);
    transpose_matmul_into(&[1.0; 6], 3, 2, &[], 0, &mut []);
    matmul_bt_into(&[1.0; 6], 3, 2, &[], 0, &mut stage, &mut []);
}

// ---------------------------------------------------------------------------
// The whole round
// ---------------------------------------------------------------------------

/// The PowerSGD round over the oracle products, with its own error-feedback
/// memory and warm-started `Q`.
struct OraclePowerSgd {
    rank: usize,
    shapes: Vec<(usize, usize)>,
    error_feedback: bool,
    q_states: Vec<Vec<f32>>,
    memories: Vec<Vec<f32>>,
}

impl OraclePowerSgd {
    fn new(rank: usize, shapes: &[(usize, usize)], error_feedback: bool) -> Self {
        OraclePowerSgd {
            rank,
            shapes: shapes.to_vec(),
            error_feedback,
            q_states: Vec::new(),
            memories: Vec::new(),
        }
    }

    fn round(&mut self, grads: &[Vec<f32>], ctx: &RoundContext) -> AggregationOutcome {
        let n = grads.len();
        let d = grads[0].len();
        let mut out = AggregationOutcome::default();
        out.traffic.reset(n);
        let mut stage = Traffic::default();
        let mut ring = RingScratch::new();

        if self.memories.is_empty() {
            self.memories = vec![vec![0.0; d]; n];
        }
        let corrected: Vec<Vec<f32>> = if self.error_feedback {
            grads
                .iter()
                .zip(&self.memories)
                .map(|(g, mem)| g.iter().zip(mem).map(|(g, m)| g + m).collect())
                .collect()
        } else {
            grads.to_vec()
        };

        if self.q_states.is_empty() {
            self.q_states = self
                .shapes
                .iter()
                .enumerate()
                .map(|(l, &(rows, cols))| {
                    let r = self.rank.min(rows).min(cols);
                    let mut rng =
                        SharedSeed::derive(ctx.experiment_seed, l as u64, Stream::Custom(0x505))
                            .rng();
                    (0..cols * r).map(|_| rng.gen_range(-1.0..1.0)).collect()
                })
                .collect();
        }

        out.mean_estimate = vec![0.0; d];
        let mut sent = vec![vec![0.0f32; d]; n];
        let (mut p_bytes, mut q_bytes) = (0.0f64, 0.0f64);
        let mut offset = 0;
        for (l, &(rows, cols)) in self.shapes.iter().enumerate() {
            let layer = offset..offset + rows * cols;
            let r = self.rank.min(rows).min(cols);

            let mut p: Vec<Vec<f32>> = corrected
                .iter()
                .map(|c| oracle_matmul(&c[layer.clone()], rows, cols, &self.q_states[l], r))
                .collect();
            ring_all_reduce_into(&mut p, &F32Sum, 4.0, &mut ring, &mut stage);
            out.traffic.merge(&stage);
            p_bytes += (rows * r * 4) as f64;
            let mut p_hat = p.swap_remove(0);
            orthonormalize_columns_slice(&mut p_hat, rows, r, &mut GsScratch::new());

            let q_locals: Vec<Vec<f32>> = corrected
                .iter()
                .map(|c| oracle_transpose_matmul(&c[layer.clone()], rows, cols, &p_hat, r))
                .collect();
            let mut q_sum = q_locals.clone();
            ring_all_reduce_into(&mut q_sum, &F32Sum, 4.0, &mut ring, &mut stage);
            out.traffic.merge(&stage);
            q_bytes += (cols * r * 4) as f64;
            let mut q_mean = q_sum.swap_remove(0);
            for x in &mut q_mean {
                *x *= 1.0 / n as f32;
            }

            out.mean_estimate[layer.clone()]
                .copy_from_slice(&oracle_matmul_bt(&p_hat, rows, r, &q_mean, cols));
            if self.error_feedback {
                for (s, q_local) in sent.iter_mut().zip(&q_locals) {
                    let contribution = oracle_matmul_bt(&p_hat, rows, r, q_local, cols);
                    s[layer.clone()].copy_from_slice(&contribution);
                }
            }
            self.q_states[l] = q_mean;
            offset = layer.end;
        }

        if offset < d {
            let mut rest: Vec<Vec<f32>> = corrected.iter().map(|c| c[offset..].to_vec()).collect();
            ring_all_reduce_into(&mut rest, &F32Sum, 4.0, &mut ring, &mut stage);
            out.traffic.merge(&stage);
            q_bytes += ((d - offset) * 4) as f64;
            for (e, &v) in out.mean_estimate[offset..].iter_mut().zip(&rest[0]) {
                *e = v / n as f32;
            }
            for (s, c) in sent.iter_mut().zip(&corrected) {
                s[offset..].copy_from_slice(&c[offset..]);
            }
        }

        if self.error_feedback {
            for ((mem, c), s) in self.memories.iter_mut().zip(&corrected).zip(&sent) {
                *mem = c.iter().zip(s).map(|(c, s)| c - s).collect();
            }
        }

        for payload_bytes in [p_bytes, q_bytes] {
            out.comm.push(CommEvent {
                collective: Collective::RingAllReduce,
                payload_bytes,
            });
        }
        out
    }
}

/// Per-worker gradients of a low-rank-plus-noise flavour, with the probe's
/// zeros and subnormals sprinkled in; fresh every round.
fn make_grads(n: usize, d: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| {
            let specials = probe(1, d, salt ^ ((w as u64) << 32));
            specials
                .iter()
                .enumerate()
                .map(|(i, &s)| ((w * d + i) as f32 * 0.37).sin() * 0.5 + s * 0.125)
                .collect()
        })
        .collect()
}

/// Three consecutive rounds on one warm instance (reused scratch and
/// outcome) against the oracle round, at 1 and 2 threads.
fn assert_round_matches_oracle(
    n: usize,
    rank: u32,
    shapes: &[(usize, usize)],
    tail: usize,
    error_feedback: bool,
    salt: u64,
) {
    let d = shapes.iter().map(|&(r, c)| r * c).sum::<usize>() + tail;
    let what = format!("n={n} rank={rank} {shapes:?}+{tail} ef={error_feedback}");
    for threads in [1, 2] {
        with_threads(threads, || {
            let mut scheme = PowerSgd::new(rank, shapes.to_vec(), n);
            if !error_feedback {
                scheme = scheme.without_ef();
            }
            let mut oracle = OraclePowerSgd::new(rank as usize, shapes, error_feedback);
            let mut out = AggregationOutcome::default();
            for round in 0..3u64 {
                let grads = make_grads(n, d, salt ^ round);
                let ctx = RoundContext::new(salt, round);
                scheme.aggregate_round_into(&grads, &ctx, &mut out);
                let expect = oracle.round(&grads, &ctx);
                let at = format!("{what} threads={threads} round={round}");
                assert_eq!(
                    bits(&out.mean_estimate),
                    bits(&expect.mean_estimate),
                    "estimate, {at}"
                );
                assert_eq!(out.traffic, expect.traffic, "traffic, {at}");
                assert_eq!(out.comm.len(), expect.comm.len(), "comm, {at}");
                for (a, b) in out.comm.iter().zip(&expect.comm) {
                    assert_eq!(a.collective, b.collective, "comm, {at}");
                    assert_eq!(
                        a.payload_bytes.to_bits(),
                        b.payload_bytes.to_bits(),
                        "comm, {at}"
                    );
                }
            }
        });
    }
}

#[test]
fn round_matches_the_round_assembled_from_the_oracles() {
    // Small layers with a remainder tail, the last one clamping the rank
    // to 2.
    let small: &[(usize, usize)] = &[(8, 6), (5, 7), (3, 2)];
    let mut salt = 0x505;
    for n in [1usize, 2, 3, 4, 8] {
        for error_feedback in [true, false] {
            for rank in [1u32, 4, 9, 16] {
                salt += 1;
                assert_round_matches_oracle(n, rank, small, 5, error_feedback, salt);
            }
        }
    }
    // A layer whose products pass the fork-join threshold at either rank.
    let large: &[(usize, usize)] = &[(1024, 520), (70, 129)];
    for n in [2usize, 3] {
        for error_feedback in [true, false] {
            for rank in [4u32, 16] {
                salt += 1;
                assert_round_matches_oracle(n, rank, large, 0, error_feedback, salt);
            }
        }
    }
}
