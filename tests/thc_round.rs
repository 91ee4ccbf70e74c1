//! Differential and exhaustive pins for the THC round on packed lanes.
//!
//! `Thc::aggregate_round_into` quantizes block by block straight into
//! bit-packed words and all-reduces those words with a word-parallel `Sat`.
//! It replaced a round that kept one `i32` per lane; that round lives on
//! here, verbatim in its arithmetic, as the **oracle** — and it deliberately
//! shares no kernel with the code under test: its FWHT is the plain stage
//! loop over `butterfly_scalar`, its sign flip a branch and a negation, its
//! quantizer the original `floor`-based expression, its ring the generic
//! `i32` ring with `SaturatingIntSum` / `WideIntSum`.
//!
//! * the whole round — estimate bits, `Traffic`, comm events — against the
//!   oracle over consecutive rounds on one instance, at 1 and 2 threads,
//!   across worker counts, dimensions that are not multiples of 8 / 64 / the
//!   block, every rotation mode, lane widths that do and do not divide 64,
//!   and inputs that saturate for real, clamp every lane, or leave whole
//!   blocks zero (which must draw nothing);
//! * the packed ring against the `i32` ring, segment edges unaligned;
//! * the word kernel at widths 2, 8 (every pair of lane values in every lane
//!   position), 16 and 32 (sampled).
//!
//! The single-kernel pins live beside their kernels in `gcs-tensor` — the
//! 4-bit word kernel and lane-range fold / copy / unpack in `bitpack.rs`,
//! the quantizer (AVX2 == scalar == the `floor` form) in `simd.rs`, the
//! radix-8 FWHT head and the sign XOR in `hadamard.rs`.

use gradient_utility::collectives::{
    ring_all_reduce_into, ring_all_reduce_packed_into, F32Max, RingScratch, SaturatingIntSum,
    Traffic, WideIntSum,
};
use gradient_utility::core::scheme::{
    AggregationOutcome, CommEvent, CompressionScheme, RoundContext,
};
use gradient_utility::core::schemes::thc::{Thc, ThcAggregation};
use gradient_utility::netsim::Collective;
use gradient_utility::tensor::bitpack::{LaneAdd, PackedIntVec};
use gradient_utility::tensor::hadamard::{padded_len, rademacher_sign_bits, RotationMode};
use gradient_utility::tensor::half::F16;
use gradient_utility::tensor::parallel::with_threads;
use gradient_utility::tensor::rng::{splitmix64, worker_rng, SharedSeed, Stream};
use gradient_utility::tensor::simd::butterfly_scalar;
use proptest::prelude::*;
use rand::Rng;

// ---------------------------------------------------------------------------
// The oracle: the i32-lane round this PR removed from `src/`
// ---------------------------------------------------------------------------

struct OracleThc {
    q: u32,
    rotation: RotationMode,
    aggregation: ThcAggregation,
}

impl OracleThc {
    fn wire_bits(&self) -> u32 {
        match self.aggregation {
            ThcAggregation::Saturating => self.q,
            ThcAggregation::Widened { b } => b,
        }
    }

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

    fn block_len_for(&self, padded: usize) -> usize {
        match self.rotation {
            RotationMode::Full | RotationMode::None => padded,
            RotationMode::Partial { block_log2 } => (1usize << block_log2).min(padded.max(1)),
        }
    }

    /// Plain stage-by-stage FWHT over each aligned `block`.
    fn fwht_blocks(v: &mut [f32], block: usize) {
        for chunk in v.chunks_mut(block) {
            let mut h = 1;
            while h < chunk.len() {
                for window in chunk.chunks_mut(2 * h) {
                    let (lo, hi) = window.split_at_mut(h);
                    butterfly_scalar(lo, hi, std::f32::consts::FRAC_1_SQRT_2);
                }
                h *= 2;
            }
        }
    }

    fn diagonal(v: &mut [f32], seed: SharedSeed) {
        for (i, x) in v.iter_mut().enumerate() {
            if (rademacher_sign_bits(seed, (i / 64) as u64) >> (i % 64)) & 1 == 1 {
                *x = -*x;
            }
        }
    }

    fn rotate(&self, v: &mut [f32], seed: SharedSeed, inverse: bool) {
        let block = match self.rotation {
            RotationMode::None => return,
            RotationMode::Full => v.len(),
            RotationMode::Partial { block_log2 } => (1usize << block_log2).min(v.len().max(1)),
        };
        if inverse {
            Self::fwht_blocks(v, block);
            Self::diagonal(v, seed);
        } else {
            Self::diagonal(v, seed);
            Self::fwht_blocks(v, block);
        }
    }

    fn round(&self, grads: &[Vec<f32>], ctx: &RoundContext) -> AggregationOutcome {
        let n = grads.len();
        let d = grads[0].len();
        let padded = self.padded_for(d);
        let seed = SharedSeed::derive(ctx.experiment_seed, ctx.round, Stream::RhtSigns);
        let qmax = (1i32 << (self.q - 1)) - 1;
        let block_len = self.block_len_for(padded);
        let blocks = padded.max(1).div_ceil(block_len);
        let mut out = AggregationOutcome::default();

        let rotated: Vec<Vec<f32>> = grads
            .iter()
            .map(|g| {
                let mut v = g.clone();
                v.resize(padded, 0.0);
                self.rotate(&mut v, seed, false);
                v
            })
            .collect();

        let mut scales: Vec<Vec<f32>> = rotated
            .iter()
            .map(|r| {
                r.chunks(block_len)
                    .map(|c| {
                        let m = c.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
                        F16::from_f32(m).to_f32()
                    })
                    .collect()
            })
            .collect();
        ring_all_reduce_into(
            &mut scales,
            &F32Max,
            2.0,
            &mut RingScratch::new(),
            &mut out.traffic,
        );
        let scales = &scales[0];

        let mut lanes: Vec<Vec<i32>> = rotated
            .iter()
            .enumerate()
            .map(|(w, r)| {
                let mut rng = worker_rng(ctx.experiment_seed ^ 0x74c0u64, w, ctx.round);
                r.iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let s = scales[i / block_len];
                        if s <= 0.0 {
                            return 0;
                        }
                        let y = (x / s) * qmax as f32;
                        let lo = y.floor();
                        let frac = y - lo;
                        let up: bool = rng.gen::<f32>() < frac;
                        ((lo as i32) + i32::from(up)).clamp(-qmax, qmax)
                    })
                    .collect()
            })
            .collect();

        let mut lane_traffic = Traffic::default();
        match self.aggregation {
            ThcAggregation::Saturating => ring_all_reduce_into(
                &mut lanes,
                &SaturatingIntSum::new(self.q),
                self.q as f64 / 8.0,
                &mut RingScratch::new(),
                &mut lane_traffic,
            ),
            ThcAggregation::Widened { b } => ring_all_reduce_into(
                &mut lanes,
                &WideIntSum,
                b as f64 / 8.0,
                &mut RingScratch::new(),
                &mut lane_traffic,
            ),
        }
        out.traffic.merge(&lane_traffic);

        let est = &mut out.mean_estimate;
        est.extend(
            lanes[0]
                .iter()
                .enumerate()
                .map(|(i, &l)| l as f32 * scales[i / block_len] / qmax as f32),
        );
        self.rotate(est, seed, true);
        est.truncate(d);
        for x in est.iter_mut() {
            *x *= 1.0 / n as f32;
        }

        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: blocks as f64 * 2.0,
        });
        out.comm.push(CommEvent {
            collective: Collective::RingAllReduce,
            payload_bytes: padded as f64 * self.wire_bits() as f64 / 8.0,
        });
        out
    }
}

// ---------------------------------------------------------------------------
// Round inputs
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Input {
    /// Sum of uniforms: rotation leaves it near-Gaussian.
    Gaussian,
    /// Cubed, with spikes: saturates for real, most of all unrotated.
    HeavyTailed,
    /// Every worker pushes every coordinate the same way: every lane clamps.
    SameSign,
    /// Alternate 64-lane blocks zero on every worker: under `Partial{6}`
    /// their scale is 0 and they must consume no uniforms.
    ZeroBlocks,
    /// Nothing but zeros.
    AllZero,
}

const INPUTS: [Input; 5] = [
    Input::Gaussian,
    Input::HeavyTailed,
    Input::SameSign,
    Input::ZeroBlocks,
    Input::AllZero,
];

fn make_grads(kind: Input, n: usize, d: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| {
            (0..d)
                .map(|i| {
                    let r = splitmix64(salt ^ ((w as u64) << 40) ^ i as u64);
                    let unit = |k: u32| ((r >> (16 * k)) & 0xffff) as f32 / 65536.0 - 0.5;
                    let g = unit(0) + unit(1) + unit(2);
                    match kind {
                        Input::Gaussian => g,
                        Input::HeavyTailed if r.is_multiple_of(97) => g * 400.0,
                        Input::HeavyTailed => g * g * g * 8.0,
                        Input::SameSign => 0.25 + g.abs(),
                        Input::ZeroBlocks if (i / 64) % 2 == 0 => 0.0,
                        Input::ZeroBlocks => g,
                        Input::AllZero => 0.0,
                    }
                })
                .collect()
        })
        .collect()
}

const ROTATIONS: [RotationMode; 4] = [
    RotationMode::Full,
    RotationMode::Partial { block_log2: 6 },
    RotationMode::Partial { block_log2: 13 },
    RotationMode::None,
];

/// `(q, widening)`: `None` saturates at `q` bits; `Some(extra)` widens to
/// `overflow_free_bits() + extra`, which walks through wire widths that do
/// not divide 64 (3, 9, 10, 11, 12, …).
const LANES: [(u32, Option<u32>); 10] = [
    (2, None),
    (3, None),
    (4, None),
    (8, None),
    (11, None),
    (16, None),
    (4, Some(0)),
    (4, Some(1)),
    (5, Some(3)),
    (8, Some(0)),
];

fn aggregation(q: u32, widening: Option<u32>, n: usize) -> ThcAggregation {
    match widening {
        None => ThcAggregation::Saturating,
        Some(extra) => ThcAggregation::Widened {
            b: q + (n as f64).log2().ceil() as u32 + extra,
        },
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Three consecutive rounds on one warm instance (reused scratch and
/// outcome) against the oracle, at each of `thread_counts`.
fn assert_round_matches_oracle(
    n: usize,
    d: usize,
    rotation: RotationMode,
    (q, widening): (u32, Option<u32>),
    input: Input,
    salt: u64,
    thread_counts: &[usize],
) {
    let agg = aggregation(q, widening, n);
    let oracle = OracleThc {
        q,
        rotation,
        aggregation: agg,
    };
    let what = format!("n={n} d={d} {rotation:?} q={q} {agg:?} {input:?}");
    for &threads in thread_counts {
        with_threads(threads, || {
            let mut thc = Thc::new(q, rotation, agg, n);
            let mut out = AggregationOutcome::default();
            for round in 0..3u64 {
                let grads = make_grads(input, n, d, salt ^ round);
                let ctx = RoundContext::new(salt, round);
                thc.aggregate_round_into(&grads, &ctx, &mut out);
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

/// The small shapes where segment edges are not word edges — one worker,
/// more workers than lanes, `many_workers_stress_saturation`'s 8 two-bit
/// lanes per segment, odd `d` unrotated — crossed with every mode, width
/// and input kind (all-zero gradients are left to the sampled test below).
/// One thread: where a segment edge falls does not depend on the thread
/// count, and the sampled test covers two.
#[test]
fn round_matches_the_i32_lane_oracle_on_the_edge_grid() {
    let mut salt = 0x7c0;
    for n in [1usize, 2, 3, 5, 8, 32] {
        // A 32-worker ring is 62 steps of 32 hops; two dimensions suffice.
        let dims: &[usize] = if n < 32 {
            &[1, 5, 63, 65, 256]
        } else {
            &[5, 256]
        };
        for &d in dims {
            for rotation in ROTATIONS {
                for lanes in LANES {
                    for input in &INPUTS[..4] {
                        salt += 1;
                        assert_round_matches_oracle(n, d, rotation, lanes, *input, salt, &[1]);
                    }
                }
            }
        }
    }
}

const WORKERS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 32];
const DIMS: [usize; 10] = [7, 64, 100, 255, 1000, 1024, 4099, 8192, 8229, 20000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn round_matches_the_i32_lane_oracle(
        n in 0..WORKERS.len(),
        d in 0..DIMS.len(),
        rotation in 0..ROTATIONS.len(),
        lanes in 0..LANES.len(),
        input in 0..INPUTS.len(),
        salt in any::<u64>(),
    ) {
        assert_round_matches_oracle(
            WORKERS[n],
            DIMS[d],
            ROTATIONS[rotation],
            LANES[lanes],
            INPUTS[input],
            salt,
            &[1, 2],
        );
    }
}

// ---------------------------------------------------------------------------
// Word kernel, packed ring
// ---------------------------------------------------------------------------

fn lane_range(w: u32) -> (i64, i64) {
    (-(1i64 << (w - 1)), (1i64 << (w - 1)) - 1)
}

fn sat_ref(x: i32, y: i32, w: u32) -> i32 {
    let hi = lane_range(w).1;
    (x as i64 + y as i64).clamp(-hi, hi) as i32
}

fn wrap_ref(x: i32, y: i32, w: u32) -> i32 {
    let sum = (x as i64 + y as i64) & ((1i64 << w) - 1);
    ((sum << (64 - w)) >> (64 - w)) as i32
}

/// Adds `xs + ys` through `PackedIntVec` at every lane position of a word
/// (by prepending `shift` filler lanes) and checks both lane-wise adds.
fn assert_adds_match_at_every_position(w: u32, xs: &[i32], ys: &[i32]) {
    let per_word = (64 / w) as usize;
    for shift in 0..per_word {
        let pad = |v: &[i32]| [&vec![-1i32; shift], v].concat();
        let (xs, ys) = (pad(xs), pad(ys));
        let a = PackedIntVec::from_signed(w, &xs);
        let b = PackedIntVec::from_signed(w, &ys);
        let mut sat = a.clone();
        sat.add_saturating(&b);
        let mut wrap = a.clone();
        wrap.add_wrapping(&b);
        let (sat, wrap) = (sat.to_signed_vec(), wrap.to_signed_vec());
        for i in 0..xs.len() {
            let at = format!("w={w} shift={shift} {} + {}", xs[i], ys[i]);
            assert_eq!(sat[i], sat_ref(xs[i], ys[i], w), "Sat, {at}");
            assert_eq!(wrap[i], wrap_ref(xs[i], ys[i], w), "wrap, {at}");
        }
    }
}

#[test]
fn word_kernel_matches_the_clamp_on_every_pair_in_every_lane_position() {
    // w = 4 has this same pin beside the kernel, in `bitpack.rs`.
    for w in [2u32, 8] {
        let (lo, hi) = lane_range(w);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for x in lo..=hi {
            for y in lo..=hi {
                xs.push(x as i32);
                ys.push(y as i32);
            }
        }
        assert_adds_match_at_every_position(w, &xs, &ys);
    }
}

#[test]
fn word_kernel_matches_the_clamp_on_sampled_wide_lanes() {
    for w in [16u32, 32] {
        let (lo, hi) = lane_range(w);
        let mut probe: Vec<i64> = vec![lo, lo + 1, lo + 2, -2, -1, 0, 1, 2, hi - 1, hi];
        probe.extend([
            lo / 2 - 1,
            lo / 2,
            lo / 2 + 1,
            hi / 2,
            hi / 2 + 1,
            hi / 2 + 2,
        ]);
        for i in 0..200u64 {
            probe.push(lo + (splitmix64(i ^ w as u64) % (hi - lo + 1) as u64) as i64);
        }
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for &x in &probe {
            for &y in &probe {
                xs.push(x as i32);
                ys.push(y as i32);
            }
        }
        assert_adds_match_at_every_position(w, &xs, &ys);
    }
}

fn random_lanes(w: u32, len: usize, salt: u64) -> Vec<i32> {
    let (lo, hi) = lane_range(w);
    (0..len)
        .map(|i| (lo + (splitmix64(i as u64 ^ salt) % (hi - lo + 1) as u64) as i64) as i32)
        .collect()
}

#[test]
fn packed_ring_matches_the_i32_ring() {
    for w in [2u32, 3, 4, 8, 9, 16] {
        for n in [1usize, 2, 3, 4, 7, 32] {
            for len in [0usize, 1, 5, 64, 97, 256, 1000] {
                // Quantized lanes never hold −2^(w−1); partial sums never
                // reach it under Sat either.
                let symmetric = |v: Vec<i32>| -> Vec<i32> {
                    let lo = lane_range(w).0 as i32;
                    v.into_iter().map(|x| x.max(lo + 1)).collect()
                };
                let mut lanes: Vec<Vec<i32>> = (0..n)
                    .map(|i| symmetric(random_lanes(w, len, (i * 131 + len) as u64 ^ 0xc0)))
                    .collect();
                let mut packed: Vec<PackedIntVec> = lanes
                    .iter()
                    .map(|l| PackedIntVec::from_signed(w, l))
                    .collect();
                let (mut t_lanes, mut t_packed) = (Traffic::default(), Traffic::default());
                ring_all_reduce_into(
                    &mut lanes,
                    &SaturatingIntSum::new(w),
                    w as f64 / 8.0,
                    &mut RingScratch::new(),
                    &mut t_lanes,
                );
                ring_all_reduce_packed_into(
                    &mut packed,
                    LaneAdd::Saturating,
                    &mut RingScratch::new(),
                    &mut t_packed,
                );
                assert_eq!(t_packed, t_lanes, "traffic w={w} n={n} len={len}");
                for (p, l) in packed.iter().zip(&lanes) {
                    assert_eq!(&p.to_signed_vec(), l, "w={w} n={n} len={len}");
                }
            }
        }
    }
}
