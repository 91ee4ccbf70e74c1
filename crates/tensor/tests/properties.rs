//! Property-based tests for the tensor substrate's core invariants.

use gcs_tensor::bitpack::PackedIntVec;
use gcs_tensor::hadamard::{fwht, fwht_iterations, rht_forward, rht_inverse};
use gcs_tensor::half::{
    add_f16_slice, add_f16_slice_scalar, decode_f16_slice, decode_f16_slice_scalar,
    encode_f16_slice, encode_f16_slice_scalar, F16,
};
use gcs_tensor::matrix::{orthonormalize_columns_with, GsScratch, Matrix};
use gcs_tensor::rng::{invert_permutation, shared_permutation, SharedSeed};
use gcs_tensor::vector::{squared_norm, top_k_indices_into, vnmse, TopKScratch};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    // Keep within the binary16 normal range for round-trip error bounds.
    prop_oneof![
        -60000.0f32..60000.0,
        -1.0f32..1.0,
        -1e-3f32..1e-3,
        Just(0.0f32),
    ]
}

proptest! {
    #[test]
    fn f16_round_trip_error_is_bounded(x in finite_f32()) {
        let rt = F16::from_f32(x).to_f32();
        if x == 0.0 {
            prop_assert_eq!(rt, 0.0);
        } else if x.abs() >= 6.2e-5 {
            // Normal binary16 range: relative error <= 2^-11.
            let rel = ((rt - x) / x).abs();
            prop_assert!(rel <= 2.0f32.powi(-11), "x={} rt={} rel={}", x, rt, rel);
        } else {
            // Subnormal range: absolute error <= half the subnormal spacing.
            prop_assert!((rt - x).abs() <= 2.0f32.powi(-25), "x={} rt={}", x, rt);
        }
    }

    #[test]
    fn f16_conversion_is_monotonic(a in finite_f32(), b in finite_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    #[test]
    fn fwht_is_involution_and_isometry(
        data in prop::collection::vec(-10.0f32..10.0, 1..200),
    ) {
        let padded = data.len().next_power_of_two();
        let mut v = data.clone();
        v.resize(padded, 0.0);
        let orig = v.clone();
        let before = squared_norm(&v);
        fwht(&mut v);
        let mid = squared_norm(&v);
        prop_assert!((before - mid).abs() <= 1e-3 * before.max(1.0));
        fwht(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn rht_round_trips_for_any_iteration_count(
        data in prop::collection::vec(-5.0f32..5.0, 1..128),
        seed in any::<u64>(),
        iters_frac in 0.0f64..=1.0,
    ) {
        let padded = data.len().next_power_of_two();
        let l = padded.trailing_zeros() as usize;
        let iters = ((l as f64) * iters_frac).round() as usize;
        let mut v = data.clone();
        v.resize(padded, 0.0);
        let orig = v.clone();
        let seed = SharedSeed::new(seed);
        rht_forward(&mut v, iters, seed);
        rht_inverse(&mut v, iters, seed);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn partial_fwht_only_mixes_within_blocks(
        block_log2 in 0usize..5,
        seed in any::<u64>(),
    ) {
        // Impulse response: a single 1 at position p only spreads within its
        // aligned 2^block_log2 block.
        let n = 64usize;
        let mut rng_val = seed as usize % n;
        let mut v = vec![0.0f32; n];
        v[rng_val] = 1.0;
        fwht_iterations(&mut v, block_log2);
        let block = 1usize << block_log2;
        let start = (rng_val / block) * block;
        for (i, &x) in v.iter().enumerate() {
            if i < start || i >= start + block {
                prop_assert_eq!(x, 0.0, "leaked to index {}", i);
            }
        }
        rng_val = rng_val.wrapping_add(1); // silence unused warnings
        let _ = rng_val;
    }

    #[test]
    fn packed_int_round_trip(
        q in 1u32..=16,
        values in prop::collection::vec(any::<i32>(), 0..100),
    ) {
        let hi = if q == 32 { i32::MAX } else { (1i32 << (q - 1)) - 1 };
        let lo = -hi - 1;
        let clamped: Vec<i32> = values.iter().map(|&v| v.clamp(lo, hi)).collect();
        let packed = PackedIntVec::from_signed(q, &clamped);
        prop_assert_eq!(packed.to_signed_vec(), clamped);
    }

    #[test]
    fn saturating_add_is_commutative_and_bounded(
        q in 2u32..=8,
        pairs in prop::collection::vec((any::<i16>(), any::<i16>()), 1..50),
    ) {
        let hi = (1i32 << (q - 1)) - 1;
        let a: Vec<i32> = pairs.iter().map(|p| (p.0 as i32).clamp(-hi, hi)).collect();
        let b: Vec<i32> = pairs.iter().map(|p| (p.1 as i32).clamp(-hi, hi)).collect();
        let pa = PackedIntVec::from_signed(q, &a);
        let pb = PackedIntVec::from_signed(q, &b);
        let mut ab = pa.clone();
        ab.add_saturating(&pb);
        let mut ba = pb.clone();
        ba.add_saturating(&pa);
        prop_assert_eq!(ab.to_signed_vec(), ba.to_signed_vec());
        for v in ab.to_signed_vec() {
            prop_assert!(v.abs() <= hi);
        }
    }

    #[test]
    fn widening_then_adding_never_saturates_for_two_workers(
        values in prop::collection::vec(-7i32..=7, 1..40),
    ) {
        // q=4 payloads carried in b=8 lanes absorb any 2-worker sum exactly.
        let mut wide = PackedIntVec::from_signed(8, &values);
        wide.add_saturating(&PackedIntVec::from_signed(8, &values));
        let expect: Vec<i32> = values.iter().map(|v| v * 2).collect();
        prop_assert_eq!(wide.to_signed_vec(), expect);
    }

    #[test]
    fn top_k_returns_a_true_top_set(
        values in prop::collection::vec(-100.0f32..100.0, 1..60),
        k in 0usize..60,
    ) {
        let k = k.min(values.len());
        let mut idx = Vec::new();
        top_k_indices_into(&values, k, &mut TopKScratch::new(), &mut idx);
        prop_assert_eq!(idx.len(), k);
        // Every selected magnitude >= every unselected magnitude.
        let selected: std::collections::HashSet<usize> = idx.iter().copied().collect();
        let min_sel = idx.iter().map(|&i| values[i].abs()).fold(f32::INFINITY, f32::min);
        for (i, v) in values.iter().enumerate() {
            if !selected.contains(&i) {
                prop_assert!(v.abs() <= min_sel + 1e-6);
            }
        }
    }

    #[test]
    fn gram_schmidt_orthonormal_for_random_tall_matrices(
        rows in 2usize..12,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cols = cols.min(rows);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut m = Matrix::from_vec(rows, cols, data);
        orthonormalize_columns_with(&mut m, &mut GsScratch::new());
        for c1 in 0..cols {
            for c2 in 0..cols {
                let mut d = 0.0f32;
                for r in 0..rows {
                    d += m.get(r, c1) * m.get(r, c2);
                }
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-3, "col{} . col{} = {}", c1, c2, d);
            }
        }
    }

    #[test]
    fn permutations_invert(n in 1usize..200, seed in any::<u64>()) {
        let p = shared_permutation(n, SharedSeed::new(seed));
        let inv = invert_permutation(&p);
        for i in 0..n {
            prop_assert_eq!(p[inv[i]], i);
        }
    }

    #[test]
    fn vnmse_of_scaled_estimate((s, ) in ((0.0f32..2.0), )) {
        // vNMSE(s * truth, truth) = (s - 1)^2 exactly.
        let truth = vec![1.0f32, -2.0, 3.0, 0.5];
        let est: Vec<f32> = truth.iter().map(|t| t * s).collect();
        let expect = ((s - 1.0) as f64).powi(2);
        prop_assert!((vnmse(&est, &truth) - expect).abs() < 1e-5);
    }
}

/// Deterministic pseudo-random fill (splitmix64) for the large inputs the
/// parallel kernels need — per-element `proptest` generation at 10^5
/// elements per case would dominate the run time.
fn salted_vec(len: usize, salt: u64) -> Vec<f32> {
    let mut x = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

// Bitwise equivalence of the parallel kernels against their single-thread
// reference, across thread counts (including counts that do not divide the
// input evenly). Inputs sit above the per-kernel parallel thresholds so the
// multi-threaded path is actually exercised; `with_threads` forces the
// runtime, so these hold even on a single-core CI machine.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_fwht_is_bitwise_identical(salt in any::<u64>(), threads in 2usize..=8) {
        let d = 1usize << 16;
        let base = salted_vec(d, salt);
        let mut seq = base.clone();
        gcs_tensor::parallel::with_threads(1, || fwht(&mut seq));
        let mut par = base;
        gcs_tensor::parallel::with_threads(threads, || fwht(&mut par));
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_rht_is_bitwise_identical(
        salt in any::<u64>(),
        seed in any::<u64>(),
        threads in 2usize..=8,
    ) {
        let d = 1usize << 16;
        let base = salted_vec(d, salt);
        let s = SharedSeed::new(seed);
        let mut seq = base.clone();
        gcs_tensor::parallel::with_threads(1, || rht_forward(&mut seq, 4, s));
        let mut par = base;
        gcs_tensor::parallel::with_threads(threads, || rht_forward(&mut par, 4, s));
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_top_k_is_identical(salt in any::<u64>(), threads in 2usize..=8) {
        let d = (1usize << 16) + 4099; // uneven tail chunk
        let v = salted_vec(d, salt);
        let k = d / 100;
        let select = |threads: usize| {
            let mut out = Vec::new();
            gcs_tensor::parallel::with_threads(threads, || {
                top_k_indices_into(&v, k, &mut TopKScratch::new(), &mut out)
            });
            out
        };
        prop_assert_eq!(select(1), select(threads));
    }

    #[test]
    fn parallel_reductions_are_bitwise_identical(
        salt in any::<u64>(),
        threads in 2usize..=8,
    ) {
        let d = (1usize << 16) + 77;
        let a = salted_vec(d, salt);
        let b = salted_vec(d, salt ^ 0xdead);
        let seq = gcs_tensor::parallel::with_threads(1, || (squared_norm(&a), vnmse(&a, &b)));
        let par = gcs_tensor::parallel::with_threads(threads, || (squared_norm(&a), vnmse(&a, &b)));
        prop_assert_eq!(seq.0.to_bits(), par.0.to_bits());
        prop_assert_eq!(seq.1.to_bits(), par.1.to_bits());
    }

    #[test]
    fn parallel_bitpack_is_bitwise_identical(
        salt in any::<u64>(),
        q in 2u32..=12,
        threads in 2usize..=8,
    ) {
        let d = (1usize << 16) + 13;
        let hi = (1i32 << (q - 1)) - 1;
        let vals: Vec<i32> = salted_vec(d, salt)
            .iter()
            .map(|x| ((x * 2.0 * hi as f32) as i32).clamp(-hi - 1, hi))
            .collect();
        let other: Vec<i32> = salted_vec(d, salt ^ 0xbeef)
            .iter()
            .map(|x| ((x * 2.0 * hi as f32) as i32).clamp(-hi - 1, hi))
            .collect();
        let run = |threads: usize| {
            gcs_tensor::parallel::with_threads(threads, || {
                let mut p = PackedIntVec::from_signed(q, &vals);
                p.add_saturating(&PackedIntVec::from_signed(q, &other));
                (p.to_signed_vec(), p)
            })
        };
        let (seq_vals, seq_packed) = run(1);
        let (par_vals, par_packed) = run(threads);
        prop_assert_eq!(seq_vals, par_vals);
        prop_assert_eq!(seq_packed.words(), par_packed.words());
    }
}

/// The order top-k selects by: larger |value| first (`total_cmp`, so NaN
/// sorts above infinity and the order is total), ties by lower index.
fn magnitude_order(v: &[f32], a: usize, b: usize) -> std::cmp::Ordering {
    v[b].abs().total_cmp(&v[a].abs()).then(a.cmp(&b))
}

/// Oracle for `top_k_indices_into`: the chunked path it took past 2^16
/// elements before it had one path, with each chunk's selection written as
/// its definition (sort the chunk's indices by [`magnitude_order`], keep
/// `k`). `sorted_chunks` is that sort, done once per input.
fn sorted_chunks(v: &[f32]) -> Vec<Vec<usize>> {
    const CHUNK: usize = 1 << 16;
    v.chunks(CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let mut idx: Vec<usize> = (i * CHUNK..i * CHUNK + chunk.len()).collect();
            idx.sort_unstable_by(|&a, &b| magnitude_order(v, a, b));
            idx
        })
        .collect()
}

/// The k-way merge of the per-chunk lists (each cut to `k`), best head first.
fn top_k_chunked(v: &[f32], lists: &[Vec<usize>], k: usize) -> Vec<usize> {
    let k = k.min(v.len());
    let lists: Vec<&[usize]> = lists.iter().map(|l| &l[..k.min(l.len())]).collect();
    let mut cursors = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let best = (0..lists.len())
            .filter(|&l| cursors[l] < lists[l].len())
            .min_by(|&a, &b| magnitude_order(v, lists[a][cursors[a]], lists[b][cursors[b]]))
            .expect("top_k merge ran out of candidates");
        out.push(lists[best][cursors[best]]);
        cursors[best] += 1;
    }
    out
}

/// [`salted_vec`] with what a selection must not trip over: runs of equal
/// magnitudes with mixed signs, ±0.0, infinities and NaNs of both signs.
fn adversarial_vec(len: usize, salt: u64) -> Vec<f32> {
    let mut v = salted_vec(len, salt);
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];
    let start = (salt as usize) % len;
    for (j, x) in v.iter_mut().enumerate().skip(start).take(len / 3 + 1) {
        // A run of few distinct magnitudes: ties decide most of the order.
        *x = ((j % 5) as f32 * 0.125).copysign(*x);
    }
    for (j, &s) in specials.iter().cycle().take(24).enumerate() {
        let at = (salt.rotate_left(j as u32) as usize).wrapping_add(j * 7919) % len;
        v[at] = s;
    }
    v
}

/// `top_k_indices_into` against the oracle for every `k` shape, at 1, 2 and
/// 4 threads through one reused scratch and output.
fn check_top_k_against_oracle(len: usize, salt: u64, scratch: &mut TopKScratch) {
    let v = adversarial_vec(len, salt);
    let lists = sorted_chunks(&v);
    let mut out = Vec::new();
    for k in [0, 1, 17, len / 100, len / 24, len - 1, len, len + 5] {
        let expect = top_k_chunked(&v, &lists, k);
        for threads in [1usize, 2, 4] {
            gcs_tensor::parallel::with_threads(threads, || {
                top_k_indices_into(&v, k, scratch, &mut out)
            });
            assert_eq!(out, expect, "len={len} k={k} threads={threads}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn top_k_matches_the_chunked_path_it_replaced(salt in any::<u64>()) {
        let mut scratch = TopKScratch::new();
        for len in [1usize, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 1234] {
            check_top_k_against_oracle(len, salt, &mut scratch);
        }
    }
}

#[test]
fn top_k_matches_the_chunked_path_it_replaced_at_the_benchmark_length() {
    check_top_k_against_oracle(1 << 20, 0x5eed, &mut TopKScratch::new());
}

/// Raw `f32` bit patterns, weighted towards what a binary16 conversion
/// treats specially: NaN payloads of both signs, ±inf, ±0, values that
/// round to binary16 subnormals or underflow, and the 65504 / 65520
/// rounding edges.
fn f32_patterns() -> impl Strategy<Value = u32> {
    let sign = |b: u32| b & 0x8000_0000;
    prop_oneof![
        any::<u32>(),
        any::<u32>().prop_map(move |b| sign(b) | 0x7f80_0000 | (b & 0x007f_ffff).max(1)),
        prop_oneof![
            Just(0x7f80_0000u32),
            Just(0xff80_0000),
            Just(0),
            Just(0x8000_0000)
        ],
        (any::<u32>(), 0x3280_0000u32..0x3880_0000).prop_map(move |(b, m)| sign(b) | m),
        (any::<u32>(), 0x477f_df00u32..0x477f_f100).prop_map(move |(b, m)| sign(b) | m),
    ]
}

/// Raw binary16 bit patterns: uniform, plus NaN payloads, infinities,
/// zeros and subnormals of both signs.
fn f16_patterns() -> impl Strategy<Value = u16> {
    prop_oneof![
        any::<u16>(),
        any::<u16>().prop_map(|b| (b & 0x8000) | 0x7c00 | (b & 0x03ff).max(1)),
        prop_oneof![
            Just(0x7c00u16),
            Just(0xfc00),
            Just(0),
            Just(0x8000),
            Just(0x7bff)
        ],
        any::<u16>().prop_map(|b| b & 0x83ff),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lengths 0..=40 give every tail length after the 8-lane body.
    #[test]
    fn f16_slice_kernels_match_their_scalar_references_bitwise(
        bits in prop::collection::vec(f32_patterns(), 0..=40),
        acc in prop::collection::vec(f16_patterns(), 40),
        xs in prop::collection::vec(f16_patterns(), 40),
    ) {
        let n = bits.len();
        let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let (mut fast, mut slow) = (vec![F16::ZERO; n], vec![F16::ZERO; n]);
        encode_f16_slice(&src, &mut fast);
        encode_f16_slice_scalar(&src, &mut slow);
        prop_assert_eq!(&fast, &slow, "encode of {:08x?}", bits);

        let halves: Vec<F16> = acc[..n].iter().map(|&b| F16(b)).collect();
        let (mut fast, mut slow) = (vec![0f32; n], vec![0f32; n]);
        decode_f16_slice(&halves, &mut fast);
        decode_f16_slice_scalar(&halves, &mut slow);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(to_bits(&fast), to_bits(&slow), "decode of {:04x?}", &acc[..n]);

        let addend: Vec<F16> = xs[..n].iter().map(|&b| F16(b)).collect();
        let (mut fast, mut slow) = (halves.clone(), halves);
        add_f16_slice(&mut fast, &addend);
        add_f16_slice_scalar(&mut slow, &addend);
        prop_assert_eq!(fast, slow, "add of {:04x?} + {:04x?}", &acc[..n], &xs[..n]);
    }
}
