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
//!
//! **One pass per block.** THC rotates block by block, and the paper's point
//! is that a block small enough for fast memory is rotated in one visit.
//! [`rht_block_forward`] and [`rht_block_inverse`] do that for a block of
//! up to `2^14` elements (longer ones, which only Full rotation makes, run
//! the separate passes): the forward transform loads and signs the block
//! and puts it through stages h = 1, 2, 4 in registers, the inverse puts it
//! through the same head; both then run the later stages two at a time
//! while the block stays in cache, and end with a scan for the max
//! (forward) or a sign-and-scale epilogue (inverse). Their AVX2 path fuses
//! what [`rademacher_diagonal_at`], [`fwht_iterations`], an `f32::max`
//! fold and a scale did as separate passes, and every element keeps its
//! operations and their order, so the bits are the same:
//!
//! * the sign XOR is exact: negation for every bit pattern, wherever it
//!   happens;
//! * the radix-8 head and each radix-4 stage pair compute, per element,
//!   the same `(a ± b) · c` as the radix-2 passes, stage after stage (no
//!   FMA, `c = 1/√2` per stage);
//! * `max_ps(|x|, acc)` answers `acc` for a NaN `|x|`, as `f32::max`
//!   ignores a NaN operand, and without NaN a max of magnitudes is exact in
//!   any order;
//! * flipping a sign and then multiplying by `1/n` is what
//!   [`rademacher_diagonal`] followed by a scale computed.
//!
//! The separate passes remain as the path without AVX2; the tests below pin
//! both dispatches to the stage-by-stage [`crate::simd::butterfly_scalar`]
//! loop. As everywhere in [`crate::simd`], a NaN's sign and payload bits
//! are unspecified.

use crate::parallel;
use crate::rng::{splitmix64, SharedSeed};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

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
/// 4` run as one radix-8 pass in registers ([`fwht_head`]); the rest run
/// through [`fwht_stages`].
fn fwht_seq(data: &mut [f32], iters: usize) {
    let done = if iters >= 3 {
        fwht_head(data);
        3
    } else {
        0
    };
    fwht_stages(data, done, iters);
}

/// Stages `h = 1, 2, 4` on every aligned 8-group of `data`: [`fwht_head8`]
/// per group, or eight lanes of a register at a time where AVX2 is on
/// (the same expressions, operands in the same order).
fn fwht_head(data: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_enabled() {
        // SAFETY: AVX2 was detected just above.
        unsafe { fwht_head_avx2(data) };
        return;
    }
    fwht_head_scalar(data);
}

/// The scalar reference of [`fwht_head`].
fn fwht_head_scalar(data: &mut [f32]) {
    for group in data.chunks_exact_mut(8) {
        fwht_head8(group.try_into().expect("chunks_exact_mut(8)"));
    }
}

/// Stages `from..to` (stage `s` has `h = 2^s`) over every aligned window of
/// `data`, in order: radix-4 pairs ([`crate::simd::butterfly_pairs`]), then
/// one radix-2 stage when the count is odd. A pair computes, per element,
/// the two radix-2 passes' expressions in the same order, so the bits do
/// not depend on how the stages are grouped.
fn fwht_stages(data: &mut [f32], from: usize, to: usize) {
    let mut s = from;
    while s + 2 <= to {
        crate::simd::butterfly_pairs(data, 1 << s, std::f32::consts::FRAC_1_SQRT_2);
        s += 2;
    }
    if s < to {
        let h = 1 << s;
        for window in data.chunks_mut(2 * h) {
            let (lo, hi) = window.split_at_mut(h);
            butterfly_halves(lo, hi);
        }
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
/// local stages independently), and the remaining stages run in radix-4
/// pairs parallelized over their independent `4h` windows — or one at a
/// time, when the windows are few and large, over zip-chunks of each
/// window's two halves. Every decomposition computes the same per-element
/// expressions, so the output is bitwise-identical to the sequential loop
/// for any thread count.
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

    fwht_wide_stages(data, b, iters);
}

/// Phase 2 of [`fwht_iterations`]: stages `from..to`, each stage pair or
/// stage a pass over the whole of `data`, in order. Aligned `4h` (or `2h`)
/// windows are independent, so a pass fans out over them; when there are
/// fewer windows than threads, a stage runs alone and parallelizes over
/// zip-chunks of each window's two halves instead. Every grouping computes
/// the same per-element expressions in the same stage order, so the output
/// does not depend on the thread count.
fn fwht_wide_stages(data: &mut [f32], from: usize, to: usize) {
    const C: f32 = std::f32::consts::FRAC_1_SQRT_2;
    let n = data.len();
    let mut s = from;
    while s < to {
        let h = 1usize << s;
        if s + 2 <= to && n / (4 * h) >= parallel::max_threads() {
            parallel::for_each_chunk_mut(data, 4 * h, |_, w| {
                crate::simd::butterfly_pairs(w, h, C);
            });
            s += 2;
        } else if n / (2 * h) >= parallel::max_threads() {
            parallel::for_each_chunk_mut(data, 2 * h, |_, w| {
                let (lo, hi) = w.split_at_mut(h);
                butterfly_halves(lo, hi);
            });
            s += 1;
        } else {
            // Few large windows: parallelize inside each one by chunking the
            // zipped halves.
            for w in data.chunks_mut(2 * h) {
                let (lo, hi) = w.split_at_mut(h);
                parallel::for_each_zip2_mut(lo, hi, 1 << FWHT_BLOCK_LOG2, |_, la, hb| {
                    butterfly_halves(la, hb);
                });
            }
            s += 1;
        }
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

/// Where a block sits on the Rademacher diagonal: its element `j` takes the
/// sign of element `start + j` of `seed`'s diagonal. `start` need not be a
/// multiple of 64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignWindow {
    /// The diagonal's shared seed.
    pub seed: SharedSeed,
    /// Index, in the whole vector, of the block's first element.
    pub start: usize,
}

/// The sign bits of a [`SignWindow`], eight elements at a time: one
/// [`rademacher_sign_bits`] word per 64 elements, whatever `start` is.
#[cfg(target_arch = "x86_64")]
struct SignBytes {
    seed: SharedSeed,
    next_word: u64,
    /// Pending bits, the next element's in bit 0; `have` of them are valid.
    bits: u128,
    have: u32,
}

#[cfg(target_arch = "x86_64")]
impl SignBytes {
    fn new(w: SignWindow) -> SignBytes {
        let word = (w.start / 64) as u64;
        let off = (w.start % 64) as u32;
        SignBytes {
            seed: w.seed,
            next_word: word + 1,
            bits: u128::from(rademacher_sign_bits(w.seed, word) >> off),
            have: 64 - off,
        }
    }

    /// The next eight elements' sign bits, the first element's in bit 0.
    #[inline(always)]
    fn next_byte(&mut self) -> u32 {
        if self.have < 8 {
            let word = rademacher_sign_bits(self.seed, self.next_word);
            self.bits |= u128::from(word) << self.have;
            self.next_word += 1;
            self.have += 64;
        }
        let byte = (self.bits & 0xff) as u32;
        self.bits >>= 8;
        self.have -= 8;
        byte
    }
}

/// One block of the randomized Hadamard transform, forward, in one
/// cache-resident visit: `block` becomes `src` zero-padded to
/// `block.len()`, signed by `signs` (left unsigned for `None`), put through
/// the first `iters` FWHT stages; returns the block's largest `|x|`,
/// skipping NaN (0 when there is none).
///
/// The same bits as the separate passes: copy and pad,
/// [`rademacher_diagonal_at`], [`fwht_iterations`] on each aligned
/// `2^iters` run, an `f32::max` fold (the module doc says why).
///
/// # Panics
/// Panics if `src` is longer than `block`, or `block.len()` is not a
/// multiple of `2^iters`.
pub fn rht_block_forward(
    src: &[f32],
    block: &mut [f32],
    iters: usize,
    signs: Option<SignWindow>,
) -> f32 {
    check_block(block.len(), iters);
    assert!(
        src.len() <= block.len(),
        "rht_block_forward: {} source elements overflow a block of {}",
        src.len(),
        block.len()
    );
    #[cfg(target_arch = "x86_64")]
    if one_pass_avx2(block.len()) {
        // SAFETY: AVX2 was detected by `one_pass_avx2`; `block.len()` is a
        // multiple of `LANES` and of `2^iters` (checked above).
        unsafe {
            forward_avx2(src, block, iters, signs);
            return max_abs_avx2(block);
        }
    }
    rht_block_forward_passes(src, block, iters, signs)
}

/// One block of the inverse randomized Hadamard transform in one
/// cache-resident visit: `block` is put through the first `iters` FWHT
/// stages; then each of the first `keep` elements is signed by `signs`
/// (left unsigned for `None`) and multiplied by `inv_n`. Elements from
/// `keep` on are left after the stages (a caller truncates them away).
///
/// The same bits as the separate passes: [`fwht_iterations`] on each
/// aligned `2^iters` run, [`rademacher_diagonal_at`], then
/// [`crate::simd::scale`] over the kept part.
///
/// # Panics
/// Panics if `block.len()` is not a multiple of `2^iters` or `keep`
/// exceeds it.
pub fn rht_block_inverse(
    block: &mut [f32],
    iters: usize,
    signs: Option<SignWindow>,
    keep: usize,
    inv_n: f32,
) {
    check_block(block.len(), iters);
    assert!(
        keep <= block.len(),
        "rht_block_inverse: keep {keep} of a block of {}",
        block.len()
    );
    fwht_runs(block, iters);
    #[cfg(target_arch = "x86_64")]
    if one_pass_avx2(block.len()) {
        // SAFETY: AVX2 was detected by `one_pass_avx2`.
        return unsafe { epilogue_avx2(&mut block[..keep], signs, inv_n) };
    }
    sign_and_scale_passes(&mut block[..keep], signs, inv_n);
}

/// Panics unless `len` is a multiple of `2^iters`.
fn check_block(len: usize, iters: usize) {
    assert!(
        len.trailing_zeros() as usize >= iters,
        "rht block: {len} elements are not whole runs of 2^{iters}"
    );
}

/// Whether a block of `len` takes the one-pass AVX2 kernels: AVX2 is on,
/// the length is whole registers, and the block fits the cache-resident
/// chunk of [`fwht_iterations`]' first phase. A longer block (only Full
/// rotation makes one) runs the separate passes, which fan out over
/// threads.
#[cfg(target_arch = "x86_64")]
fn one_pass_avx2(len: usize) -> bool {
    len.is_multiple_of(crate::simd::LANES)
        && len <= 1 << FWHT_BLOCK_LOG2
        && crate::simd::avx2_enabled()
}

/// The forward block transform as separate passes: the reference the AVX2
/// path is pinned to, and the path without AVX2.
fn rht_block_forward_passes(
    src: &[f32],
    block: &mut [f32],
    iters: usize,
    signs: Option<SignWindow>,
) -> f32 {
    let (head, tail) = block.split_at_mut(src.len());
    head.copy_from_slice(src);
    tail.fill(0.0);
    if let Some(w) = signs {
        rademacher_diagonal_at(block, w.seed, w.start);
    }
    fwht_runs(block, iters);
    block.iter().fold(0.0f32, |a, &x| a.max(x.abs()))
}

/// [`fwht_iterations`] on each aligned `2^iters` run of `block`.
fn fwht_runs(block: &mut [f32], iters: usize) {
    if iters > 0 {
        for run in block.chunks_mut(1 << iters) {
            fwht_iterations(run, iters);
        }
    }
}

/// The inverse's epilogue as separate passes: the reference
/// [`epilogue_avx2`] is pinned to, and the path without AVX2.
fn sign_and_scale_passes(kept: &mut [f32], signs: Option<SignWindow>, inv_n: f32) {
    if let Some(w) = signs {
        rademacher_diagonal_at(kept, w.seed, w.start);
    }
    crate::simd::scale(kept, inv_n);
}

/// The first `stages` (at most 3) FWHT stages of one aligned 8-group held
/// in a register: stage `h` adds each lane to its partner `h` away and
/// keeps the sum in the lower lane, the difference (lower minus upper) in
/// the upper one — [`fwht_head8`]'s expressions, operands in its order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn head8_avx2(mut x: __m256, stages: usize, c: __m256) -> __m256 {
    if stages >= 1 {
        let t = _mm256_permute_ps::<0b10_11_00_01>(x);
        x = _mm256_mul_ps(
            _mm256_blend_ps::<0b1010_1010>(_mm256_add_ps(x, t), _mm256_sub_ps(t, x)),
            c,
        );
    }
    if stages >= 2 {
        let t = _mm256_permute_ps::<0b01_00_11_10>(x);
        x = _mm256_mul_ps(
            _mm256_blend_ps::<0b1100_1100>(_mm256_add_ps(x, t), _mm256_sub_ps(t, x)),
            c,
        );
    }
    if stages >= 3 {
        let t = _mm256_permute2f128_ps::<0x01>(x, x);
        x = _mm256_mul_ps(
            _mm256_blend_ps::<0b1111_0000>(_mm256_add_ps(x, t), _mm256_sub_ps(t, x)),
            c,
        );
    }
    x
}

/// Eight sign bits (element `j`'s in bit `j`) spread to the sign bit of
/// each lane, for an XOR.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sign_mask_avx2(byte: u32) -> __m256 {
    let shifts = _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24);
    let spread = _mm256_sllv_epi32(_mm256_set1_epi32(byte as i32), shifts);
    _mm256_castsi256_ps(_mm256_and_si256(spread, _mm256_set1_epi32(i32::MIN)))
}

/// The forward transform of one block: load `src` (zeros past its end),
/// XOR the signs, run the in-register head, store; then the block's
/// remaining stages below `iters` as radix-4 pairs.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn forward_avx2(src: &[f32], block: &mut [f32], iters: usize, signs: Option<SignWindow>) {
    const L: usize = crate::simd::LANES;
    let len = block.len();
    assert!(
        len.is_multiple_of(L) && src.len() <= len,
        "forward_avx2: {} source elements into {len}",
        src.len()
    );
    let c = _mm256_set1_ps(std::f32::consts::FRAC_1_SQRT_2);
    let mut bytes = signs.map(SignBytes::new);
    let full = src.len() - src.len() % L;
    let out = block.as_mut_ptr();
    let mut i = 0;
    while i < len {
        let x = if i < full {
            // SAFETY: `i + L <= full <= src.len()`.
            unsafe { _mm256_loadu_ps(src.as_ptr().add(i)) }
        } else {
            let mut part = [0.0f32; L];
            let rest = &src[i.min(src.len())..];
            part[..rest.len()].copy_from_slice(rest);
            // SAFETY: `part` holds exactly `L` elements.
            unsafe { _mm256_loadu_ps(part.as_ptr()) }
        };
        let x = match bytes.as_mut() {
            Some(b) => _mm256_xor_ps(x, sign_mask_avx2(b.next_byte())),
            None => x,
        };
        // SAFETY: `i + L <= len = block.len()` (`len` is a multiple of `L`).
        unsafe { _mm256_storeu_ps(out.add(i), head8_avx2(x, iters.min(3), c)) };
        i += L;
    }
    fwht_stages(block, iters.min(3), iters);
}

/// [`fwht_head`] on AVX2: each aligned 8-group loaded, put through
/// [`head8_avx2`] and stored back (a ragged tail is left alone, as
/// [`fwht_head_scalar`] leaves it).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fwht_head_avx2(data: &mut [f32]) {
    const L: usize = crate::simd::LANES;
    let c = _mm256_set1_ps(std::f32::consts::FRAC_1_SQRT_2);
    for x in data.chunks_exact_mut(L) {
        // SAFETY: `x` is an exact `L`-element chunk.
        let v = unsafe { _mm256_loadu_ps(x.as_ptr()) };
        // SAFETY: as for the load, `x` holds exactly `L` elements.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr(), head8_avx2(v, 3, c)) };
    }
}

/// The largest `|x|` of `data`, NaN skipped: `max_ps(|x|, acc)` answers
/// `acc` when `|x|` is NaN, as `f32::max` does; without NaN, `max` is
/// exact in any order.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_abs_avx2(data: &[f32]) -> f32 {
    const L: usize = crate::simd::LANES;
    assert!(
        data.len().is_multiple_of(L),
        "max_abs_avx2: ragged length {}",
        data.len()
    );
    let abs = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MAX));
    let mut acc = _mm256_setzero_ps();
    for x in data.chunks_exact(L) {
        // SAFETY: `x` is an exact `L`-element chunk.
        let v = unsafe { _mm256_loadu_ps(x.as_ptr()) };
        acc = _mm256_max_ps(_mm256_and_ps(v, abs), acc);
    }
    let mut lanes = [0.0f32; L];
    // SAFETY: `lanes` holds exactly `L` elements.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
    lanes.iter().fold(0.0f32, |a, &x| a.max(x))
}

/// The inverse's last pass: XOR each element's sign (none for `None`),
/// then multiply by `inv_n` — what [`rademacher_diagonal_at`] then
/// [`crate::simd::scale`] computed.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn epilogue_avx2(data: &mut [f32], signs: Option<SignWindow>, inv_n: f32) {
    const L: usize = crate::simd::LANES;
    let vn = _mm256_set1_ps(inv_n);
    let mut bytes = signs.map(SignBytes::new);
    let mut groups = data.chunks_exact_mut(L);
    for x in groups.by_ref() {
        // SAFETY: `x` is an exact `L`-element chunk.
        let v = unsafe { _mm256_loadu_ps(x.as_ptr()) };
        let v = match bytes.as_mut() {
            Some(b) => _mm256_xor_ps(v, sign_mask_avx2(b.next_byte())),
            None => v,
        };
        // SAFETY: as for the load, `x` holds exactly `L` elements.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr(), _mm256_mul_ps(v, vn)) };
    }
    let tail = groups.into_remainder();
    let byte = bytes.as_mut().map_or(0, SignBytes::next_byte);
    for (j, x) in tail.iter_mut().enumerate() {
        *x = f32::from_bits(x.to_bits() ^ (((byte >> j) & 1) << 31)) * inv_n;
    }
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

    /// The first `iters` stages as one radix-2 [`crate::simd::butterfly_scalar`]
    /// pass each: the reference every grouping of stages is pinned to.
    fn stage_loop(v: &mut [f32], iters: usize) {
        let mut h = 1;
        for _ in 0..iters {
            for window in v.chunks_mut(2 * h) {
                let (lo, hi) = window.split_at_mut(h);
                crate::simd::butterfly_scalar(lo, hi, std::f32::consts::FRAC_1_SQRT_2);
            }
            h *= 2;
        }
    }

    /// Equal bits, or both NaN: a NaN's sign and payload are unspecified
    /// (the `simd` module's finite-data caveat).
    fn same_bits(got: &[f32], expect: &[f32]) -> bool {
        got.len() == expect.len()
            && got
                .iter()
                .zip(expect)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    #[test]
    fn parallel_fwht_is_bitwise_identical_to_sequential() {
        // Long enough to take both parallel phases, with 1, 2 and 3 stages
        // past the blockwise cutoff (odd and even pair counts).
        let n = 1usize << 17;
        let orig: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.137).sin()).collect();
        for iters in [10usize, FWHT_BLOCK_LOG2, 15, 16, 17] {
            let mut reference = orig.clone();
            stage_loop(&mut reference, iters);
            for threads in [1usize, 2, 3, 8] {
                let mut v = orig.clone();
                with_threads(threads, || fwht_iterations(&mut v, iters));
                assert!(same_bits(&v, &reference), "iters={iters} threads={threads}");
            }
        }
    }

    /// Values of every kind a block can meet: ordinary magnitudes, ±0,
    /// subnormals, and — when `specials` — ±inf and NaN.
    fn payload(n: usize, salt: u64, specials: bool) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let bits = crate::rng::splitmix64(i as u64 ^ salt);
                match bits % 29 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.5e-42,
                    3 => -f32::MIN_POSITIVE / 4.0,
                    4 => 3.0e37,
                    5 if specials => f32::INFINITY,
                    6 if specials => f32::NEG_INFINITY,
                    7 if specials => f32::NAN,
                    _ => (((bits >> 16) as f32 / (1u64 << 32) as f32) - 0.5) * 8.0,
                }
            })
            .collect()
    }

    /// Whether element `e` of `seed`'s diagonal flips sign, read bit by bit.
    fn flips(seed: SharedSeed, e: usize) -> bool {
        (rademacher_sign_bits(seed, (e / 64) as u64) >> (e % 64)) & 1 == 1
    }

    /// The forward block transform as separate textbook passes: pad, a
    /// branch negation per flipped sign, the stage loop, an `f32::max` fold.
    fn forward_oracle(
        src: &[f32],
        len: usize,
        iters: usize,
        signs: Option<SignWindow>,
    ) -> (Vec<f32>, f32) {
        let mut v = src.to_vec();
        v.resize(len, 0.0);
        if let Some(w) = signs {
            for (j, x) in v.iter_mut().enumerate() {
                if flips(w.seed, w.start + j) {
                    *x = -*x;
                }
            }
        }
        stage_loop(&mut v, iters);
        let max = v.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        (v, max)
    }

    /// The inverse as textbook passes: the stage loop, then a branch
    /// negation and the `1/n` product on the kept part.
    fn inverse_oracle(
        src: &[f32],
        iters: usize,
        signs: Option<SignWindow>,
        keep: usize,
        inv_n: f32,
    ) -> Vec<f32> {
        let mut v = src.to_vec();
        stage_loop(&mut v, iters);
        for (j, x) in v[..keep].iter_mut().enumerate() {
            if signs.is_some_and(|w| flips(w.seed, w.start + j)) {
                *x = -*x;
            }
            *x *= inv_n;
        }
        v
    }

    #[test]
    fn block_forward_is_bitwise_the_separate_passes() {
        let seed = SharedSeed::new(0x5eed);
        for log in 0..=15usize {
            let len = 1usize << log;
            for iters in 0..=log {
                for (case, specials) in [(0usize, false), (1, true), (2, false), (3, true)] {
                    let salt = (log * 64 + iters) as u64 * 8 + case as u64;
                    // Whole, ragged-short and empty sources; sign windows at
                    // 0, mid-word, straddling a word edge, and none.
                    let src_len = [len, len.saturating_sub(3), len / 2 + 1, 0][case].min(len);
                    let signs = [Some(0), Some(37), Some(64 * 3 + 61), None][case]
                        .map(|start| SignWindow { seed, start });
                    let src = payload(src_len, salt, specials);
                    let (expect, expect_max) = forward_oracle(&src, len, iters, signs);
                    let at = format!("len={len} iters={iters} case={case}");
                    let mut got = vec![f32::NAN; len];
                    let max = rht_block_forward(&src, &mut got, iters, signs);
                    assert!(same_bits(&got, &expect), "dispatched, {at}");
                    assert_eq!(max.to_bits(), expect_max.to_bits(), "dispatched max, {at}");
                    let mut got = vec![f32::NAN; len];
                    let max = rht_block_forward_passes(&src, &mut got, iters, signs);
                    assert!(same_bits(&got, &expect), "passes, {at}");
                    assert_eq!(max.to_bits(), expect_max.to_bits(), "passes max, {at}");
                }
            }
        }
    }

    #[test]
    fn block_forward_max_skips_nan() {
        // Unrotated, so the NaN stays one element and the max must pass
        // over it, in the vector body and in a lane of its own.
        for len in [8usize, 64, 1 << 13] {
            let mut src = payload(len, 0x4a, false);
            src[len / 2] = f32::NAN;
            src[len - 1] = -f32::NAN;
            let expect = src
                .iter()
                .filter(|x| !x.is_nan())
                .fold(0.0f32, |a, &x| a.max(x.abs()));
            let mut block = vec![0.0; len];
            let max = rht_block_forward(&src, &mut block, 0, None);
            assert_eq!(max.to_bits(), expect.to_bits(), "len={len}");
            assert_eq!(rht_block_forward_passes(&src, &mut block, 0, None), expect);
        }
    }

    #[test]
    fn block_inverse_is_bitwise_the_separate_passes() {
        let seed = SharedSeed::new(0x1ae5);
        for log in 0..=15usize {
            let len = 1usize << log;
            for iters in 0..=log {
                for (case, specials) in [(0usize, false), (1, true), (2, false), (3, true)] {
                    let salt = (log * 64 + iters) as u64 * 8 + case as u64;
                    let src = payload(len, salt, specials);
                    // Whole, ragged and empty kept parts; sign windows at 0,
                    // mid-word, none, and straddling a word edge.
                    let keep = [len, len.saturating_sub(3), len / 2 + 1, 0][case].min(len);
                    let signs = [Some(0), Some(37), None, Some(64 * 3 + 61)][case]
                        .map(|start| SignWindow { seed, start });
                    let inv_n = 1.0 / 3.0;
                    let expect = inverse_oracle(&src, iters, signs, keep, inv_n);
                    let place = format!("len={len} iters={iters} case={case}");
                    let mut got = src.clone();
                    rht_block_inverse(&mut got, iters, signs, keep, inv_n);
                    assert!(same_bits(&got, &expect), "dispatched, {place}");
                    let mut got = src.clone();
                    fwht_runs(&mut got, iters);
                    sign_and_scale_passes(&mut got[..keep], signs, inv_n);
                    assert!(same_bits(&got, &expect), "passes, {place}");
                }
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
            // Both dispatches of the head alone.
            let mut expect = orig.clone();
            stage_loop(&mut expect, 3);
            for head in [fwht_head, fwht_head_scalar] {
                let mut got = orig.clone();
                head(&mut got);
                assert!(same_bits(&got, &expect), "head, n={n}");
            }
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
