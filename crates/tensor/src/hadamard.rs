//! The (randomized) fast Walsh–Hadamard transform, full and **partial**.
//!
//! THC (§3.2) rotates gradients with a Randomized Hadamard Transform before
//! stochastic quantization: the rotation concentrates coordinates around zero
//! (approximately `N(0, ||∇||²/d)` entries), shrinking the `[min, max]`
//! quantization range and thereby the quantization error.
//!
//! The paper's *partial rotation* (§3.2.2) observes that stopping the
//! butterfly recursion after `l' ≤ l` of the `l = log2(d)` iterations is
//! mathematically equivalent to splitting the vector into `2^l'`-sized blocks
//! and rotating each block independently — and if `2^l'` elements fit in GPU
//! shared memory, the whole transform runs in one fast kernel. Ranges are then
//! computed per block, so an outlier only degrades precision locally.
//!
//! The transform here is normalized (`H/√2` butterflies), making it an
//! involution: applying it twice returns the input. The *randomized* variant
//! conjugates with a seeded Rademacher diagonal, which all workers derive from
//! shared randomness so rotation/derotation agree across the cluster.
//!
//! Both the transform and the diagonal are multi-threaded via
//! [`crate::parallel`] above a size threshold. The butterflies are
//! element-wise per stage and the sign bits are a *counter-based* PRF of
//! `(seed, 64-element block index)`, so any partition of the work produces
//! bitwise-identical results — thread count is unobservable in the output.

use crate::parallel;
use crate::rng::{splitmix64, SharedSeed};

/// Below this length the transform runs its plain sequential loop.
const FWHT_PAR_MIN: usize = 1 << 15;

/// log2 of the blockwise phase's chunk (2^14 f32 = 64 KiB, L2-resident).
const FWHT_BLOCK_LOG2: usize = 14;

/// Chunk length for the Rademacher diagonal.
const RADEMACHER_CHUNK: usize = 1 << 15;

/// In-place normalized fast Walsh–Hadamard transform on a power-of-two
/// length slice.
///
/// Each butterfly computes `(a+b)/√2, (a−b)/√2`, so the transform is
/// orthonormal and self-inverse.
///
/// # Panics
/// Panics if `data.len()` is not a power of two (zero length is allowed).
pub fn fwht(data: &mut [f32]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "fwht: length {n} not a power of two");
    fwht_iterations(data, n.trailing_zeros() as usize);
}

/// The sequential stage loop; also the within-chunk worker of the parallel
/// path (each aligned power-of-two chunk runs its local stages with exactly
/// this code, so parallel results are bitwise-identical). Stages `h = 1, 2,
/// 4` run as one radix-8 pass in registers ([`fwht_head8`]); from `h = 8` on
/// every stage routes through [`butterfly_halves`], whose halves are then at
/// least one SIMD register wide.
fn fwht_seq(data: &mut [f32], iters: usize) {
    let (mut h, done) = if iters >= 3 {
        for group in data.chunks_exact_mut(8) {
            fwht_head8(group.try_into().expect("chunks_exact_mut(8)"));
        }
        (8usize, 3)
    } else {
        (1usize, 0)
    };
    for _ in done..iters {
        for window in data.chunks_mut(h * 2) {
            let (lo, hi) = window.split_at_mut(h);
            butterfly_halves(lo, hi);
        }
        h *= 2;
    }
}

/// Stages `h = 1, 2, 4` on one aligned 8-group, in registers. Per element
/// and per stage this is the same `(a+b)·c`, `(a−b)·c` that three
/// [`crate::simd::butterfly_scalar`] passes compute, in the same order, so
/// the group's bits are identical — only the 0.875·n calls on halves too
/// short for a SIMD register are gone.
#[inline]
fn fwht_head8(g: &mut [f32; 8]) {
    const C: f32 = std::f32::consts::FRAC_1_SQRT_2;
    let [a0, a1, a2, a3, a4, a5, a6, a7] = *g;
    // h = 1: pairs (0,1) (2,3) (4,5) (6,7).
    let (b0, b1) = ((a0 + a1) * C, (a0 - a1) * C);
    let (b2, b3) = ((a2 + a3) * C, (a2 - a3) * C);
    let (b4, b5) = ((a4 + a5) * C, (a4 - a5) * C);
    let (b6, b7) = ((a6 + a7) * C, (a6 - a7) * C);
    // h = 2: pairs (0,2) (1,3) (4,6) (5,7).
    let (c0, c2) = ((b0 + b2) * C, (b0 - b2) * C);
    let (c1, c3) = ((b1 + b3) * C, (b1 - b3) * C);
    let (c4, c6) = ((b4 + b6) * C, (b4 - b6) * C);
    let (c5, c7) = ((b5 + b7) * C, (b5 - b7) * C);
    // h = 4: pairs (0,4) (1,5) (2,6) (3,7).
    *g = [
        (c0 + c4) * C,
        (c1 + c5) * C,
        (c2 + c6) * C,
        (c3 + c7) * C,
        (c0 - c4) * C,
        (c1 - c5) * C,
        (c2 - c6) * C,
        (c3 - c7) * C,
    ];
}

/// One butterfly stage over an aligned `2h` window, given its two halves.
/// The butterfly is element-wise `(a+b)/√2, (a−b)/√2`, so the AVX2 path in
/// [`crate::simd`] is bitwise-identical to the scalar loop.
fn butterfly_halves(lo: &mut [f32], hi: &mut [f32]) {
    crate::simd::butterfly(lo, hi, std::f32::consts::FRAC_1_SQRT_2);
}

/// Runs only the first `iters` butterfly stages of the FWHT on `data`.
///
/// After `iters` stages, element `i` has interacted exactly with the elements
/// whose index differs in the low `iters` bits — i.e. the transform is the
/// full FWHT applied independently to each aligned block of `2^iters`
/// elements. This is the paper's *partial rotation*.
///
/// Large inputs run in two phases, on however many threads there are — one
/// included, where the first phase is what keeps the working set in cache:
/// stages `< FWHT_BLOCK_LOG2` execute blockwise (each aligned chunk runs its
/// local stages independently), and each remaining stage parallelizes over its
/// independent `2h` windows — or, when the windows are few and large, over
/// zip-chunks of each window's two halves. Every decomposition computes the
/// same per-element expressions, so the output is bitwise-identical to the
/// sequential loop for any thread count.
///
/// # Panics
/// Panics if `data.len()` is not a power of two or `iters > log2(len)`.
pub fn fwht_iterations(data: &mut [f32], iters: usize) {
    let n = data.len();
    if n <= 1 || iters == 0 {
        return;
    }
    assert!(n.is_power_of_two(), "fwht: length {n} not a power of two");
    let max_iters = n.trailing_zeros() as usize;
    assert!(
        iters <= max_iters,
        "fwht_iterations: {iters} iterations exceed log2({n}) = {max_iters}"
    );
    if n < FWHT_PAR_MIN {
        fwht_seq(data, iters);
        return;
    }

    // Phase 1: blockwise. Stages < b only mix within aligned 2^b blocks, so
    // each block runs them locally, in parallel.
    let b = iters.min(FWHT_BLOCK_LOG2);
    parallel::for_each_chunk_mut(data, 1 << b, |_, chunk| fwht_seq(chunk, b));

    // Phase 2: the remaining stages, one at a time. At stage size h the
    // aligned 2h windows are independent.
    let mut h = 1usize << b;
    for _ in b..iters {
        let window = 2 * h;
        let n_windows = n / window;
        if n_windows >= parallel::max_threads() {
            parallel::for_each_chunk_mut(data, window, |_, w| {
                let (lo, hi) = w.split_at_mut(h);
                butterfly_halves(lo, hi);
            });
        } else {
            // Few large windows: parallelize inside each one by chunking the
            // zipped halves.
            for w in data.chunks_mut(window) {
                let (lo, hi) = w.split_at_mut(h);
                parallel::for_each_zip2_mut(lo, hi, 1 << FWHT_BLOCK_LOG2, |_, la, hb| {
                    butterfly_halves(la, hb);
                });
            }
        }
        h = window;
    }
}

/// Returns the smallest power of two that is `>= len`.
pub fn padded_len(len: usize) -> usize {
    len.next_power_of_two()
}

/// The 64 Rademacher sign bits for elements `[64*block, 64*block + 64)`.
///
/// A counter-based PRF (SplitMix64 finalizer over seed and block index): any
/// worker — or any thread — can generate any block's signs independently,
/// with no sequential RNG stream to advance. Bit `j` set means element
/// `64*block + j` flips sign.
pub fn rademacher_sign_bits(seed: SharedSeed, block: u64) -> u64 {
    splitmix64(seed.value() ^ block.wrapping_mul(0xa076_1d64_78bd_642f))
}

/// Applies a seeded Rademacher (±1) diagonal in place.
///
/// The signs are derived from `seed` via [`rademacher_sign_bits`], so every
/// worker flips the same signs — the "shared randomness" THC assumes — and a
/// sign depends only on `(seed, index)`, never on the slice length or on how
/// the work was partitioned. Applying the same diagonal twice is a no-op,
/// which makes the randomized transform below an involution too.
pub fn rademacher_diagonal(data: &mut [f32], seed: SharedSeed) {
    rademacher_diagonal_at(data, seed, 0);
}

/// [`rademacher_diagonal`] for a window of a longer vector: `data[0]` is
/// element `start` of the vector the signs are indexed by, so a block can be
/// signed on its own while it is cache-resident. `start` need not be a
/// multiple of 64.
pub fn rademacher_diagonal_at(data: &mut [f32], seed: SharedSeed, start: usize) {
    // XOR into the sign bit: negation for every bit pattern (NaN and ±0
    // included), without a branch per element. Bit `j` of `bits` flips
    // `run[j]`.
    #[inline(always)]
    fn flip(run: &mut [f32], bits: u64) {
        for (j, x) in run.iter_mut().enumerate() {
            *x = f32::from_bits(x.to_bits() ^ ((((bits >> j) & 1) as u32) << 31));
        }
    }
    parallel::for_each_chunk_mut(data, RADEMACHER_CHUNK, |chunk_idx, chunk| {
        let at = start + chunk_idx * RADEMACHER_CHUNK;
        // A head run up to the next 64-bit sign word, whole words (a fixed
        // 64-element body the compiler unrolls), and a tail run.
        let off = at % 64;
        let (head, rest) = chunk.split_at_mut(((64 - off) % 64).min(chunk.len()));
        flip(head, rademacher_sign_bits(seed, (at / 64) as u64) >> off);
        let mut block = (at + head.len()) as u64 / 64;
        let mut words = rest.chunks_exact_mut(64);
        for word in words.by_ref() {
            let word: &mut [f32; 64] = word.try_into().expect("chunks_exact_mut(64)");
            flip(word, rademacher_sign_bits(seed, block));
            block += 1;
        }
        flip(words.into_remainder(), rademacher_sign_bits(seed, block));
    });
}

/// The randomized Hadamard transform: Rademacher diagonal followed by the
/// first `iters` FWHT stages (`iters = log2(len)` gives the full RHT).
pub fn rht_forward(data: &mut [f32], iters: usize, seed: SharedSeed) {
    rademacher_diagonal(data, seed);
    fwht_iterations(data, iters);
}

/// Inverse of [`rht_forward`]: FWHT stages (self-inverse) then the same
/// diagonal.
pub fn rht_inverse(data: &mut [f32], iters: usize, seed: SharedSeed) {
    fwht_iterations(data, iters);
    rademacher_diagonal(data, seed);
}

/// Describes how much of the transform to run — the paper's three settings in
/// Table 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotationMode {
    /// Full RHT: `l = log2(d_padded)` iterations; touches global memory for
    /// large `d`.
    Full,
    /// Partial rotation with blocks of `2^l'` elements, `l'` chosen so a
    /// block fits in shared memory (`block_log2 = l'`).
    Partial {
        /// log2 of the block size; a block of `2^block_log2` f32 values must
        /// fit in GPU shared memory for the single-kernel argument to hold.
        block_log2: usize,
    },
    /// No rotation at all (quantize raw gradients).
    None,
}

impl RotationMode {
    /// Number of butterfly iterations to run for a padded vector of length
    /// `padded` (a power of two).
    pub fn iterations(self, padded: usize) -> usize {
        let l = if padded <= 1 {
            0
        } else {
            padded.trailing_zeros() as usize
        };
        match self {
            RotationMode::Full => l,
            RotationMode::Partial { block_log2 } => block_log2.min(l),
            RotationMode::None => 0,
        }
    }

    /// The effective block size over which values mix (and over which THC
    /// computes per-block `[min,max]` ranges).
    pub fn block_len(self, padded: usize) -> usize {
        1usize << self.iterations(padded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;
    use crate::vector::squared_norm;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn fwht_is_involution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let orig: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut v = orig.clone();
        fwht(&mut v);
        fwht(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn fwht_preserves_norm() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut v: Vec<f32> = (0..256).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let before = squared_norm(&v);
        fwht(&mut v);
        let after = squared_norm(&v);
        assert!((before - after).abs() / before < 1e-4);
    }

    #[test]
    fn fwht_known_small() {
        // H2 * [1, 0] = [1/√2, 1/√2]
        let mut v = vec![1.0, 0.0];
        fwht(&mut v);
        let s = std::f32::consts::FRAC_1_SQRT_2;
        assert!((v[0] - s).abs() < 1e-6 && (v[1] - s).abs() < 1e-6);
    }

    #[test]
    fn partial_equals_blockwise_full() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let orig: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Partial with block_log2 = 4 (blocks of 16)...
        let mut partial = orig.clone();
        fwht_iterations(&mut partial, 4);
        // ...equals running the full FWHT on each 16-block separately.
        let mut blockwise = orig.clone();
        for chunk in blockwise.chunks_mut(16) {
            fwht(chunk);
        }
        for (a, b) in partial.iter().zip(&blockwise) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn parallel_fwht_is_bitwise_identical_to_sequential() {
        // Long enough to take both parallel phases, with stages past the
        // blockwise cutoff.
        let n = 1usize << 17;
        let orig: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.137).sin()).collect();
        for iters in [10usize, FWHT_BLOCK_LOG2, 16, 17] {
            let mut reference = orig.clone();
            fwht_seq(&mut reference, iters);
            for threads in [1usize, 2, 3, 8] {
                let mut v = orig.clone();
                with_threads(threads, || fwht_iterations(&mut v, iters));
                assert!(
                    v.iter()
                        .zip(&reference)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "iters={iters} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn radix8_head_is_bitwise_three_butterfly_stages() {
        for n in [8usize, 16, 256, 1 << 13] {
            // Signed zeros, a subnormal and a large value among the rest.
            let orig: Vec<f32> = (0..n)
                .map(|i| match crate::rng::splitmix64(i as u64 ^ 0xf1) % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.5e-42,
                    3 => 3.0e37,
                    r => (r as f32 - 5.0) * 0.731 + (i as f32 * 0.137).sin(),
                })
                .collect();
            for iters in 3..=n.trailing_zeros() as usize {
                let mut got = orig.clone();
                fwht_seq(&mut got, iters);
                let mut expect = orig.clone();
                let mut h = 1;
                for _ in 0..iters {
                    for window in expect.chunks_mut(2 * h) {
                        let (lo, hi) = window.split_at_mut(h);
                        crate::simd::butterfly_scalar(lo, hi, std::f32::consts::FRAC_1_SQRT_2);
                    }
                    h *= 2;
                }
                assert!(
                    got.iter()
                        .zip(&expect)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n={n} iters={iters}"
                );
            }
        }
    }

    #[test]
    fn rht_round_trips() {
        let seed = SharedSeed::new(42);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let orig: Vec<f32> = (0..128).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for iters in [0usize, 3, 7] {
            let mut v = orig.clone();
            rht_forward(&mut v, iters, seed);
            rht_inverse(&mut v, iters, seed);
            for (a, b) in v.iter().zip(&orig) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn rht_shrinks_value_range_of_spiky_vectors() {
        // A vector with one huge coordinate: rotation spreads its energy,
        // shrinking max-min — the whole point of RHT for quantization.
        let mut v = vec![0.01f32; 1024];
        v[17] = 100.0;
        let range = |v: &[f32]| {
            let lo = v.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            hi - lo
        };
        let range_before = range(&v);
        rht_forward(&mut v, 10, SharedSeed::new(3));
        let range_after = range(&v);
        assert!(
            range_after < range_before / 4.0,
            "range {range_before} -> {range_after}"
        );
    }

    /// Compatibility pin for the counter-based sign sequence: all workers
    /// (and all future builds) must derive exactly these signs, or rotation
    /// and derotation stop agreeing across the cluster.
    #[test]
    fn rademacher_sign_sequence_is_pinned() {
        let seed = SharedSeed::new(42);
        assert_eq!(rademacher_sign_bits(seed, 0), PINNED_BITS[0]);
        assert_eq!(rademacher_sign_bits(seed, 1), PINNED_BITS[1]);
        assert_eq!(rademacher_sign_bits(seed, 2), PINNED_BITS[2]);
        let mut v = vec![1.0f32; 24];
        rademacher_diagonal(&mut v, seed);
        let got: Vec<bool> = v.iter().map(|&x| x < 0.0).collect();
        let expect: Vec<bool> = (0..24).map(|j| (PINNED_BITS[0] >> j) & 1 == 1).collect();
        assert_eq!(got, expect);
    }

    /// Pinned `rademacher_sign_bits(SharedSeed::new(42), block)` for blocks
    /// 0..3 — regenerate only on a deliberate, documented format change.
    const PINNED_BITS: [u64; 3] = [
        0xbdd7_3226_2feb_6e95,
        0xc549_d6f3_8899_c014,
        0xcdac_ef9d_79af_ab42,
    ];

    #[test]
    fn rademacher_is_seekable_and_length_independent() {
        let seed = SharedSeed::new(7);
        let mut long = vec![1.0f32; 1000];
        rademacher_diagonal(&mut long, seed);
        // A shorter application sees the same per-index signs.
        let mut short = vec![1.0f32; 200];
        rademacher_diagonal(&mut short, seed);
        assert_eq!(&long[..200], &short[..]);
        // Applying twice is the identity.
        let orig: Vec<f32> = (0..1000).map(|i| i as f32 - 500.0).collect();
        let mut v = orig.clone();
        rademacher_diagonal(&mut v, seed);
        rademacher_diagonal(&mut v, seed);
        assert_eq!(v, orig);
    }

    #[test]
    fn sign_xor_is_negation_on_every_kind_of_bit_pattern() {
        // Every exponent (zeros, subnormals, infinities and NaNs among them)
        // with sampled mantissas, both signs.
        let mut orig: Vec<f32> = Vec::new();
        for exp in 0..=255u32 {
            for m in [0u32, 1, 0x40_0000, 0x7f_ffff, 0x2a_aaaa, 0x12_3456] {
                orig.push(f32::from_bits((exp << 23) | m));
                orig.push(f32::from_bits((1 << 31) | (exp << 23) | m));
            }
        }
        let seed = SharedSeed::new(0x51);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut got = orig.clone();
        rademacher_diagonal(&mut got, seed);
        let mut expect = orig.clone();
        for (i, x) in expect.iter_mut().enumerate() {
            if (rademacher_sign_bits(seed, (i / 64) as u64) >> (i % 64)) & 1 == 1 {
                *x = -*x;
            }
        }
        assert_eq!(bits(&got), bits(&expect));
        assert_ne!(bits(&got), bits(&orig), "some sign must have flipped");
    }

    #[test]
    fn rademacher_window_sees_the_whole_vectors_signs() {
        let seed = SharedSeed::new(21);
        let orig: Vec<f32> = (0..700).map(|i| i as f32 - 350.5).collect();
        let mut whole = orig.clone();
        rademacher_diagonal(&mut whole, seed);
        for start in [0usize, 1, 63, 64, 65, 130, 699] {
            for len in [0usize, 1, 5, 64, 200] {
                let end = (start + len).min(orig.len());
                let mut window = orig[start..end].to_vec();
                rademacher_diagonal_at(&mut window, seed, start);
                assert_eq!(window, whole[start..end], "start={start} len={len}");
            }
        }
    }

    #[test]
    fn rademacher_is_thread_count_invariant() {
        let seed = SharedSeed::new(13);
        let n = RADEMACHER_CHUNK * 2 + 77;
        let orig: Vec<f32> = (0..n).map(|i| (i as f32) + 0.5).collect();
        let mut reference = orig.clone();
        with_threads(1, || rademacher_diagonal(&mut reference, seed));
        for threads in [2usize, 3, 8] {
            let mut v = orig.clone();
            with_threads(threads, || rademacher_diagonal(&mut v, seed));
            assert_eq!(v, reference, "threads={threads}");
        }
    }

    #[test]
    fn rotation_mode_iterations() {
        assert_eq!(RotationMode::Full.iterations(1024), 10);
        assert_eq!(RotationMode::Partial { block_log2: 6 }.iterations(1024), 6);
        // Partial never exceeds the full length.
        assert_eq!(RotationMode::Partial { block_log2: 20 }.iterations(64), 6);
        assert_eq!(RotationMode::None.iterations(1024), 0);
        assert_eq!(RotationMode::Partial { block_log2: 6 }.block_len(1024), 64);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn fwht_rejects_non_power_of_two() {
        let mut v = vec![0.0; 48];
        fwht(&mut v);
    }
}
