//! `q`-bit packed integer vectors — the wire format of quantized gradients.
//!
//! THC communicates each coordinate as a `q`-bit integer (§3.2.1). For
//! all-reduce, intermediate hops must *sum* these lanes, and the sum of `n`
//! worker values can overflow `q` bits. The paper contrasts two remedies:
//!
//! * **Widening** (THC's "simple adaptation"): communicate `b > q` bits so
//!   sums fit — extra traffic, still not scalable in `n`.
//! * **Saturation** (the paper's proposal): keep `b = q` and clamp the lane
//!   sum to `[-(2^{b-1}-1), 2^{b-1}-1]` — no extra traffic; safe in practice
//!   because post-RHT coordinates concentrate near zero and partially cancel.
//!
//! [`PackedIntVec`] stores signed lanes in two's complement inside a `u64`
//! backing array and implements both lane-wise reductions, plus the exact
//! byte accounting the throughput models need. It is the buffer the THC
//! round quantizes into ([`LaneWriter`]), all-reduces
//! ([`PackedIntVec::covering_words`] / [`PackedIntVec::fold_lanes`] /
//! [`PackedIntVec::copy_lanes`] over arbitrary lane ranges) and decodes from
//! ([`PackedIntVec::unpack_into`]), so the words a ring hop moves are the
//! bytes the traffic accounting claims.
//!
//! Lane widths that divide 64 (2, 4, 8, 16, 32) never straddle a word, and
//! their adds run **a word at a time** (`Swar`): sixteen 4-bit `Sat`s in
//! ~25 word operations instead of sixteen extract/clamp/insert round trips.
//! Other widths keep the per-lane loop — same results, lane for lane.
//!
//! Pack, unpack and the lane-wise adds fan out on [`crate::parallel`] over
//! **word-aligned lane segments**: a segment always spans a whole number of
//! `u64` words (its lane count is a multiple of `64 / gcd(q, 64)`), so
//! concurrent segment writers never touch the same word, and segment
//! boundaries depend only on `q` — never on the thread count.

use crate::parallel;

/// Minimum lane count before packed-lane operations fan out to threads.
const PACK_PAR_MIN_LANES: usize = 1 << 15;

/// Target lanes per parallel segment (rounded up to word alignment).
const PACK_SEG_TARGET_LANES: usize = 1 << 14;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Lanes per parallel segment: the smallest multiple of the word-alignment
/// block (`64 / gcd(q, 64)` lanes) at or above the target, so every segment
/// boundary falls exactly on a `u64` boundary.
fn aligned_seg_lanes(q: u32) -> usize {
    let block = 64 / gcd(q as usize, 64);
    PACK_SEG_TARGET_LANES.div_ceil(block) * block
}

#[inline]
fn mask_for(q: u32) -> u64 {
    if q == 64 {
        u64::MAX
    } else {
        (1u64 << q) - 1
    }
}

/// Reads the `q`-bit lane starting at bit `bit` of a word slice (raw,
/// unsigned).
#[inline]
fn raw_at(words: &[u64], q: u32, mask: u64, bit: u64) -> u64 {
    let q = q as u64;
    let word = (bit / 64) as usize;
    let off = bit % 64;
    if off + q <= 64 {
        (words[word] >> off) & mask
    } else {
        let lo = words[word] >> off;
        let hi = words[word + 1] << (64 - off);
        (lo | hi) & mask
    }
}

/// Writes the `q`-bit lane starting at bit `bit` of a word slice (raw,
/// pre-masked or not).
#[inline]
fn set_raw_at(words: &mut [u64], q: u32, mask: u64, bit: u64, raw: u64) {
    let q = q as u64;
    let word = (bit / 64) as usize;
    let off = bit % 64;
    let raw = raw & mask;
    if off + q <= 64 {
        words[word] &= !(mask << off);
        words[word] |= raw << off;
    } else {
        let lo_bits = 64 - off;
        words[word] &= !(mask << off);
        words[word] |= raw << off;
        let hi_mask = mask >> lo_bits;
        words[word + 1] &= !hi_mask;
        words[word + 1] |= raw >> lo_bits;
    }
}

/// Sign-extends a raw `q`-bit lane.
#[inline]
fn sign_extend(raw: u64, q: u32) -> i32 {
    let shift = 32 - q;
    (((raw as u32) << shift) as i32) >> shift
}

/// The lane-wise addition a reduction hop applies to packed lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneAdd {
    /// The paper's `Sat(x, y)`: the sum clamped to the *symmetric* range
    /// `[−(2^{q−1}−1), 2^{q−1}−1]` (§3.2.2).
    Saturating,
    /// The sum mod `2^q` — exact whenever the true sum fits the lane, which
    /// is the precondition widened aggregation runs under.
    Wrapping,
}

/// Word-parallel (SWAR) lane arithmetic for a lane width `w` dividing 64:
/// `h` holds every lane's sign bit, `l` the bits below it, `o` every lane's
/// bit 0.
#[derive(Clone, Copy, Debug)]
struct Swar {
    h: u64,
    l: u64,
    o: u64,
    /// `w − 1`: the distance from a lane's bit 0 to its sign bit.
    top: u32,
}

impl Swar {
    /// `None` when lanes of `q` bits can straddle words (or `q == 1`, whose
    /// symmetric range is the single value 0).
    fn new(q: u32) -> Option<Swar> {
        if q < 2 || 64 % q != 0 {
            return None;
        }
        let o = u64::MAX / mask_for(q);
        let h = o << (q - 1);
        Some(Swar {
            h,
            l: !h,
            o,
            top: q - 1,
        })
    }

    /// Lane-wise sum mod `2^w`: add the low bits (a carry stops at the
    /// cleared sign position), then put the sign bits back with XOR.
    #[inline(always)]
    fn add_wrapping(self, a: u64, b: u64) -> u64 {
        ((a & self.l).wrapping_add(b & self.l)) ^ ((a ^ b) & self.h)
    }

    /// Widens per-lane sign-position flags to whole-lane masks.
    #[inline(always)]
    fn spread(self, flags: u64) -> u64 {
        (flags << 1).wrapping_sub(flags >> self.top)
    }

    /// Lane-wise `Sat`: identical, lane for lane, to
    /// `(x + y).clamp(−(2^{w−1}−1), 2^{w−1}−1)` on sign-extended lanes.
    #[inline(always)]
    fn add_saturating(self, a: u64, b: u64) -> u64 {
        let s = self.add_wrapping(a, b);
        // Two's-complement overflow: operands agree in sign, sum does not.
        let ov = !(a ^ b) & (a ^ s) & self.h;
        let over = self.spread(ov);
        let under = self.spread(a & ov);
        // Overflowed lanes become 0111… (`l`), or 1000…1 where `a` was
        // negative; all others keep the wrapped sum.
        let r = (s & !over) | ((over & self.l) ^ (under & !self.o));
        // Symmetric clamp: a lane left at −2^{w−1} (sign bit alone) gets
        // its low bit set, i.e. becomes −(2^{w−1}−1).
        let nonzero_low = (r & self.l).wrapping_add(self.l) & self.h;
        r | ((r & self.h & !nonzero_low) >> self.top)
    }
}

/// Applies `f(dst_word, src_word)` to bits `[bit_lo, bit_hi)` of the words
/// covering them, leaving every other bit of `dst` untouched. `dst` and
/// `src` are exactly the covering words (word 0 holds bit `bit_lo`).
#[inline(always)]
fn zip_bit_range(
    dst: &mut [u64],
    src: &[u64],
    bit_lo: u64,
    bit_hi: u64,
    f: impl Fn(u64, u64) -> u64,
) {
    let n = dst.len();
    assert_eq!(n, src.len(), "lane range: covering word count mismatch");
    if n == 0 {
        return;
    }
    let head = u64::MAX << (bit_lo % 64);
    let tail = match bit_hi % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    };
    let masked = |d: u64, s: u64, m: u64| (d & !m) | (f(d, s) & m);
    if n == 1 {
        dst[0] = masked(dst[0], src[0], head & tail);
        return;
    }
    dst[0] = masked(dst[0], src[0], head);
    for (d, &s) in dst[1..n - 1].iter_mut().zip(&src[1..n - 1]) {
        *d = f(*d, s);
    }
    dst[n - 1] = masked(dst[n - 1], src[n - 1], tail);
}

/// Folds lanes `[lo, hi)` of `src` into the same lanes of `words`, where
/// `src` holds the covering words of that range (see
/// [`PackedIntVec::covering_words`]). Widths dividing 64 fold a word at a
/// time; the rest lane by lane.
fn fold_lane_range(op: LaneAdd, q: u32, words: &mut [u64], lo: usize, hi: usize, src: &[u64]) {
    if lo == hi {
        return;
    }
    let (bit_lo, bit_hi) = (lo as u64 * q as u64, hi as u64 * q as u64);
    let first = (bit_lo / 64) as usize;
    if let Some(swar) = Swar::new(q) {
        let dst = &mut words[first..bit_hi.div_ceil(64) as usize];
        match op {
            LaneAdd::Saturating => {
                zip_bit_range(dst, src, bit_lo, bit_hi, |a, b| swar.add_saturating(a, b))
            }
            LaneAdd::Wrapping => {
                zip_bit_range(dst, src, bit_lo, bit_hi, |a, b| swar.add_wrapping(a, b))
            }
        }
        return;
    }
    let mask = mask_for(q);
    let hi_val = ((1i64 << (q - 1)) - 1) as i32;
    let src_bit0 = first as u64 * 64;
    for bit in (bit_lo..bit_hi).step_by(q as usize) {
        let x = raw_at(words, q, mask, bit);
        let y = raw_at(src, q, mask, bit - src_bit0);
        let sum = match op {
            LaneAdd::Saturating => {
                (sign_extend(x, q) + sign_extend(y, q)).clamp(-hi_val, hi_val) as u64
            }
            LaneAdd::Wrapping => x.wrapping_add(y),
        };
        set_raw_at(words, q, mask, bit, sum);
    }
}

/// A fixed-width signed integer vector, bit-packed `q` bits per lane.
///
/// Lanes are two's-complement `q`-bit integers in `[-2^{q-1}, 2^{q-1}-1]`.
/// `q` may be 1..=32. Lanes may straddle `u64` word boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedIntVec {
    q: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedIntVec {
    /// Creates a zeroed vector of `len` lanes of `q` bits each.
    ///
    /// # Panics
    /// Panics unless `1 <= q <= 32`.
    pub fn zeros(q: u32, len: usize) -> PackedIntVec {
        assert!((1..=32).contains(&q), "PackedIntVec: q={q} out of range");
        let bits = (len as u64) * (q as u64);
        let words = vec![0u64; bits.div_ceil(64) as usize];
        PackedIntVec { q, len, words }
    }

    /// Packs a slice of signed values.
    ///
    /// Parallel over word-aligned lane segments for large inputs; the packed
    /// bits are identical for any thread count.
    ///
    /// # Panics
    /// Panics (in debug builds) if any value is outside the `q`-bit signed
    /// range; release builds truncate.
    pub fn from_signed(q: u32, values: &[i32]) -> PackedIntVec {
        let mut v = PackedIntVec::zeros(q, values.len());
        if values.len() >= PACK_PAR_MIN_LANES && parallel::max_threads() > 1 {
            let seg_lanes = aligned_seg_lanes(q);
            let seg_words = seg_lanes * q as usize / 64;
            let mask = mask_for(q);
            let len = values.len();
            let lane_min = v.lane_min();
            let lane_max = v.lane_max();
            parallel::for_each_chunk_mut(&mut v.words, seg_words, |si, words| {
                let lane_lo = si * seg_lanes;
                let n = seg_lanes.min(len.saturating_sub(lane_lo));
                for j in 0..n {
                    let x = values[lane_lo + j];
                    debug_assert!(
                        x >= lane_min && x <= lane_max,
                        "value {x} does not fit in {q} signed bits"
                    );
                    set_raw_at(words, q, mask, j as u64 * q as u64, x as u64);
                }
            });
        } else {
            for (i, &x) in values.iter().enumerate() {
                v.set(i, x);
            }
        }
        v
    }

    /// Re-shapes this vector to `len` zeroed lanes of `q` bits, reusing the
    /// word allocation — the zero-allocation steady-state entry point for
    /// refilling a wire buffer each round (pair with [`PackedIntVec::pack_with`]).
    ///
    /// # Panics
    /// Panics unless `1 <= q <= 32`.
    pub fn reset(&mut self, q: u32, len: usize) {
        assert!((1..=32).contains(&q), "PackedIntVec: q={q} out of range");
        let bits = (len as u64) * (q as u64);
        self.q = q;
        self.len = len;
        self.words.clear();
        self.words.resize(bits.div_ceil(64) as usize, 0);
    }

    /// Fused quantize+pack: fills every lane from `quantize(lane_index)`,
    /// streaming bits directly into the packed words — no intermediate
    /// `Vec<i32>`/`Vec<u32>` materialization. Runs sequentially by design:
    /// the quantizer is typically RNG-stateful (stochastic rounding), so
    /// lane order is part of the contract. Bitwise-identical to
    /// `from_signed(q, &collected_values)`.
    ///
    /// Lanes are quantized into a fixed stack block first and then handed
    /// to a [`LaneWriter`], so the bit arithmetic runs in a tight loop with
    /// no opaque closure call between iterations.
    ///
    /// # Panics
    /// Panics (in debug builds) if any produced value is outside the
    /// `q`-bit signed range; release builds truncate.
    #[inline]
    pub fn pack_with(&mut self, mut quantize: impl FnMut(usize) -> i32) {
        /// Lanes quantized per stack block.
        const LANE_BLOCK: usize = 64;
        let len = self.len;
        let mut writer = self.writer();
        let mut lanes = [0i32; LANE_BLOCK];
        for base in (0..len).step_by(LANE_BLOCK) {
            let m = LANE_BLOCK.min(len - base);
            for (j, lane) in lanes[..m].iter_mut().enumerate() {
                *lane = quantize(base + j);
            }
            writer.push(&lanes[..m]);
        }
        writer.finish();
    }

    /// A streaming writer positioned at lane 0 (see [`LaneWriter`]).
    pub fn writer(&mut self) -> LaneWriter<'_> {
        LaneWriter {
            mask: self.lane_mask(),
            q: self.q,
            words: &mut self.words,
            acc: 0,
            nbits: 0,
            w: 0,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane width in bits.
    pub fn lane_bits(&self) -> u32 {
        self.q
    }

    /// The smallest representable lane value, `-2^{q-1}`.
    pub fn lane_min(&self) -> i32 {
        if self.q == 32 {
            i32::MIN
        } else {
            -(1i32 << (self.q - 1))
        }
    }

    /// The largest representable lane value, `2^{q-1} - 1`.
    pub fn lane_max(&self) -> i32 {
        if self.q == 32 {
            i32::MAX
        } else {
            (1i32 << (self.q - 1)) - 1
        }
    }

    /// The raw packed words — the exact wire representation. Exposed so
    /// tests can assert bitwise identity of whole payloads.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads lane `i` as a sign-extended i32.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> i32 {
        assert!(i < self.len, "PackedIntVec::get: index {i} out of bounds");
        sign_extend(self.get_raw(i), self.q)
    }

    /// Writes lane `i` from an i32 (debug-asserted to fit; truncated in
    /// release).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: i32) {
        assert!(i < self.len, "PackedIntVec::set: index {i} out of bounds");
        debug_assert!(
            value >= self.lane_min() && value <= self.lane_max(),
            "value {value} does not fit in {} signed bits",
            self.q
        );
        let mask = self.lane_mask();
        self.set_raw(i, (value as u64) & mask);
    }

    fn lane_mask(&self) -> u64 {
        mask_for(self.q)
    }

    fn get_raw(&self, i: usize) -> u64 {
        raw_at(&self.words, self.q, self.lane_mask(), self.bit_of(i))
    }

    fn set_raw(&mut self, i: usize, raw: u64) {
        let (mask, bit) = (self.lane_mask(), self.bit_of(i));
        set_raw_at(&mut self.words, self.q, mask, bit, raw);
    }

    /// Bit offset of lane `i` in the word stream.
    fn bit_of(&self, i: usize) -> u64 {
        i as u64 * self.q as u64
    }

    /// Indices of the words holding any bit of lanes `[lo, hi)`.
    fn word_range(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        assert!(
            lo <= hi && hi <= self.len,
            "PackedIntVec: lane range {lo}..{hi} out of bounds"
        );
        let first = (self.bit_of(lo) / 64) as usize;
        if lo == hi {
            return first..first;
        }
        first..self.bit_of(hi).div_ceil(64) as usize
    }

    /// The words holding lanes `[lo, hi)` — what a reduction hop puts on
    /// the wire for that lane segment. The first and last word may also
    /// hold neighbouring lanes; [`PackedIntVec::fold_lanes`] and
    /// [`PackedIntVec::copy_lanes`] mask those out on the receiving side.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn covering_words(&self, lo: usize, hi: usize) -> &[u64] {
        &self.words[self.word_range(lo, hi)]
    }

    /// Folds lanes `[lo, hi)` of a same-shaped vector, given as their
    /// `covering` words, into this vector's lanes `[lo, hi)`. Lanes outside
    /// the range are untouched.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or `covering` is not exactly
    /// the covering words of that range.
    pub fn fold_lanes(&mut self, op: LaneAdd, lo: usize, hi: usize, covering: &[u64]) {
        assert_eq!(
            covering.len(),
            self.word_range(lo, hi).len(),
            "fold_lanes: covering word count mismatch"
        );
        fold_lane_range(op, self.q, &mut self.words, lo, hi, covering);
    }

    /// Overwrites lanes `[lo, hi)` with those of a same-shaped vector, given
    /// as their `covering` words. Lanes outside the range are untouched.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or `covering` is not exactly
    /// the covering words of that range.
    pub fn copy_lanes(&mut self, lo: usize, hi: usize, covering: &[u64]) {
        let range = self.word_range(lo, hi);
        let (bit_lo, bit_hi) = (self.bit_of(lo), self.bit_of(hi));
        zip_bit_range(&mut self.words[range], covering, bit_lo, bit_hi, |_, s| s);
    }

    /// Sign-extends lanes `[lo, lo + out.len())` into `out`. Widths
    /// dividing 64 unpack a word at a time between the range's partial
    /// edge words.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn unpack_into(&self, lo: usize, out: &mut [i32]) {
        let hi = lo + out.len();
        assert!(
            hi <= self.len,
            "PackedIntVec: lane range {lo}..{hi} out of bounds"
        );
        let (q, mask) = (self.q, self.lane_mask());
        let per_lane = |lo: usize, out: &mut [i32]| {
            for (j, o) in out.iter_mut().enumerate() {
                *o = sign_extend(raw_at(&self.words, q, mask, self.bit_of(lo + j)), q);
            }
        };
        if 64 % q != 0 {
            return per_lane(lo, out);
        }
        let per_word = (64 / q) as usize;
        let head = (lo.next_multiple_of(per_word) - lo).min(out.len());
        let (head_out, rest) = out.split_at_mut(head);
        per_lane(lo, head_out);
        let first_word = (lo + head) / per_word;
        let mut groups = rest.chunks_exact_mut(per_word);
        for (group, &word) in groups.by_ref().zip(&self.words[first_word..]) {
            for (j, o) in group.iter_mut().enumerate() {
                *o = sign_extend(word >> (j as u32 * q), q);
            }
        }
        let tail_out = groups.into_remainder();
        per_lane(hi - tail_out.len(), tail_out);
    }

    /// Runs `f(n_lanes, self_segment_words, other_segment_words)` over
    /// word-aligned lane segments of both vectors — in parallel when the
    /// vector is large, sequentially (one segment) otherwise. Lanes inside
    /// `f` are segment-relative: lane 0 is bit 0 of both word slices.
    fn zip_segments_mut<F>(&mut self, other: &PackedIntVec, f: F)
    where
        F: Fn(usize, &mut [u64], &[u64]) + Sync,
    {
        debug_assert_eq!(self.q, other.q);
        debug_assert_eq!(self.len, other.len);
        if self.len < PACK_PAR_MIN_LANES || parallel::max_threads() <= 1 {
            f(self.len, &mut self.words, &other.words);
            return;
        }
        let seg_lanes = aligned_seg_lanes(self.q);
        let seg_words = seg_lanes * self.q as usize / 64;
        let len = self.len;
        let other_words = &other.words;
        parallel::for_each_chunk_mut(&mut self.words, seg_words, |si, words| {
            let lane_lo = si * seg_lanes;
            let n = seg_lanes.min(len.saturating_sub(lane_lo));
            let wlo = si * seg_words;
            f(n, words, &other_words[wlo..wlo + words.len()]);
        });
    }

    /// Lane-wise **saturating** addition: the paper's `Sat(x, y) =
    /// min(2^{b-1}−1, max(−2^{b-1}+1, x+y))` operator (§3.2.2).
    ///
    /// Note the *symmetric* clamp at `−2^{b-1}+1` (not `−2^{b-1}`), matching
    /// the paper's definition exactly.
    ///
    /// # Panics
    /// Panics if lane widths or lengths differ.
    pub fn add_saturating(&mut self, other: &PackedIntVec) {
        assert_eq!(self.q, other.q, "add_saturating: lane width mismatch");
        assert_eq!(self.len, other.len, "add_saturating: length mismatch");
        let q = self.q;
        self.zip_segments_mut(other, |n, aw, bw| {
            fold_lane_range(LaneAdd::Saturating, q, aw, 0, n, bw);
        });
    }

    /// Lane-wise **wrapping** addition (mod `2^q`): what naive integer
    /// all-reduce would do, included so tests and ablations can demonstrate
    /// the overflow corruption that motivates saturation/widening.
    ///
    /// # Panics
    /// Panics if lane widths or lengths differ.
    pub fn add_wrapping(&mut self, other: &PackedIntVec) {
        assert_eq!(self.q, other.q, "add_wrapping: lane width mismatch");
        assert_eq!(self.len, other.len, "add_wrapping: length mismatch");
        let q = self.q;
        self.zip_segments_mut(other, |n, aw, bw| {
            fold_lane_range(LaneAdd::Wrapping, q, aw, 0, n, bw);
        });
    }
}

/// Streams lanes into a [`PackedIntVec`]'s words in lane order: lanes
/// accumulate in one `u64` and whole words are flushed as they fill, so every
/// word the stream reaches is fully overwritten (pre-zeroed words are not
/// required) and nothing is ever read back. While the stream sits on a word
/// boundary and the width divides 64, [`LaneWriter::push`] assembles whole
/// words directly.
#[derive(Debug)]
pub struct LaneWriter<'a> {
    words: &'a mut [u64],
    q: u32,
    mask: u64,
    /// The partially filled word: its low `nbits` bits are pending lanes.
    acc: u64,
    nbits: u32,
    /// Index of the word `acc` will be flushed to.
    w: usize,
}

impl LaneWriter<'_> {
    /// Appends `lanes`.
    ///
    /// # Panics
    /// Panics if more lanes are pushed than the vector holds, and (in debug
    /// builds) if a value is outside the `q`-bit signed range; release
    /// builds truncate.
    #[inline]
    pub fn push(&mut self, mut lanes: &[i32]) {
        let (q, mask) = (self.q, self.mask);
        debug_assert!(
            lanes.iter().all(|&x| sign_extend(x as u64, q) == x),
            "a value does not fit in {q} signed bits"
        );
        if self.nbits == 0 && 64 % q == 0 {
            let per_word = (64 / q) as usize;
            let whole = lanes.len() / per_word;
            let (groups, rest) = lanes.split_at(whole * per_word);
            let dst = &mut self.words[self.w..self.w + whole];
            for (word, group) in dst.iter_mut().zip(groups.chunks_exact(per_word)) {
                *word = group
                    .iter()
                    .rev()
                    .fold(0u64, |acc, &x| (acc << q) | (x as u64 & mask));
            }
            self.w += whole;
            lanes = rest;
        }
        for &x in lanes {
            let raw = x as u64 & mask;
            self.acc |= raw << self.nbits;
            self.nbits += q;
            if self.nbits >= 64 {
                self.words[self.w] = self.acc;
                self.w += 1;
                self.nbits -= 64;
                self.acc = if self.nbits == 0 {
                    0
                } else {
                    raw >> (q - self.nbits)
                };
            }
        }
    }

    /// Appends `n` zero lanes.
    pub fn push_zeros(&mut self, n: usize) {
        let mut pending = self.nbits as u64 + n as u64 * self.q as u64;
        while pending >= 64 {
            self.words[self.w] = self.acc;
            self.acc = 0;
            self.w += 1;
            pending -= 64;
        }
        self.nbits = pending as u32;
    }

    /// Flushes the partially filled last word (its high bits zero).
    pub fn finish(self) {
        if self.nbits > 0 {
            self.words[self.w] = self.acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lane of `v`, sign-extended.
    fn lanes(v: &PackedIntVec) -> Vec<i32> {
        let mut out = vec![0i32; v.len()];
        v.unpack_into(0, &mut out);
        out
    }

    #[test]
    fn round_trip_various_widths() {
        for q in [1u32, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32] {
            let mut v = PackedIntVec::zeros(q, 100);
            let lo = v.lane_min();
            let hi = v.lane_max();
            let vals: Vec<i32> = (0..100)
                .map(|i| {
                    let span = hi as i64 - lo as i64;
                    (lo as i64 + (i as i64 * 7919) % (span + 1)) as i32
                })
                .collect();
            for (i, &x) in vals.iter().enumerate() {
                v.set(i, x);
            }
            assert_eq!(lanes(&v), vals, "q={q}");
        }
    }

    #[test]
    fn fused_pack_matches_from_signed_bitwise() {
        // Cover widths that divide 64, straddle words, and fill words
        // exactly, over lengths with and without a partial tail word.
        for q in [1u32, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32] {
            for len in [0usize, 1, 7, 63, 64, 65, 100, 257] {
                let probe = PackedIntVec::zeros(q, 1);
                let (lo, hi) = (probe.lane_min() as i64, probe.lane_max() as i64);
                let span = hi - lo;
                let value = |i: usize| (lo + (i as i64 * 7919) % (span + 1)) as i32;
                let vals: Vec<i32> = (0..len).map(value).collect();
                let reference = PackedIntVec::from_signed(q, &vals);
                let mut fused = PackedIntVec::zeros(q, len);
                fused.pack_with(value);
                assert_eq!(fused.words(), reference.words(), "q={q} len={len}");
                assert_eq!(fused.len(), reference.len());
            }
        }
    }

    #[test]
    fn fused_pack_with_stateful_quantizer_visits_lanes_in_order() {
        // An RNG-stateful quantizer (here: a running accumulator) must see
        // lanes strictly in order — the fused path's sequential contract.
        let q = 6;
        let mut state = 1u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 63) as i32 - 31
        };
        let vals: Vec<i32> = (0..200).map(|_| step()).collect();
        let mut state2 = 1u64;
        let mut fused = PackedIntVec::zeros(q, 200);
        fused.pack_with(move |_| {
            state2 = state2.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state2 >> 33) % 63) as i32 - 31
        });
        assert_eq!(lanes(&fused), vals);
    }

    #[test]
    fn reset_reuses_words_and_zeroes() {
        let mut v = PackedIntVec::from_signed(8, &[1, -2, 3, -4, 5, -6, 7, -8, 9]);
        let ptr = v.words().as_ptr();
        v.reset(8, 9);
        assert_eq!(v.words().as_ptr(), ptr, "reset must reuse the words");
        assert_eq!(lanes(&v), vec![0; 9]);
        // Re-shape to a different width within the same word budget.
        v.reset(4, 16);
        assert_eq!(v.lane_bits(), 4);
        assert_eq!(v.len(), 16);
        assert_eq!(lanes(&v), vec![0; 16]);
    }

    #[test]
    fn reset_then_pack_with_round_trips() {
        let mut v = PackedIntVec::zeros(5, 77);
        for round in 0..3 {
            v.reset(5, 77);
            v.pack_with(|i| ((i as i32 + round) % 31) - 15);
            let expect: Vec<i32> = (0..77).map(|i| ((i + round) % 31) - 15).collect();
            assert_eq!(lanes(&v), expect, "round={round}");
        }
    }

    #[test]
    fn lanes_straddle_word_boundaries() {
        // q=7: lane 9 spans bits 63..70, crossing the first u64.
        let mut v = PackedIntVec::zeros(7, 20);
        v.set(9, -64);
        v.set(8, 63);
        v.set(10, -1);
        assert_eq!(v.get(9), -64);
        assert_eq!(v.get(8), 63);
        assert_eq!(v.get(10), -1);
    }

    #[test]
    fn saturating_add_clamps_symmetrically() {
        // q=4: lanes in [-8, 7]; Sat clamps to [-7, 7].
        let a = PackedIntVec::from_signed(4, &[7, -7, 3, -3]);
        let b = PackedIntVec::from_signed(4, &[5, -5, -1, 1]);
        let mut s = a.clone();
        s.add_saturating(&b);
        assert_eq!(lanes(&s), vec![7, -7, 2, -2]);
    }

    #[test]
    fn word_parallel_adds_match_the_per_lane_definition() {
        // Every pair of 4-bit values (−8 included), spread over every lane
        // position of a word by a shifting prefix.
        let pairs: Vec<(i32, i32)> = (-8..8).flat_map(|x| (-8..8).map(move |y| (x, y))).collect();
        for shift in 0..16 {
            let xs: Vec<i32> = (0..shift)
                .map(|_| -8)
                .chain(pairs.iter().map(|p| p.0))
                .collect();
            let ys: Vec<i32> = (0..shift)
                .map(|_| 7)
                .chain(pairs.iter().map(|p| p.1))
                .collect();
            let b = PackedIntVec::from_signed(4, &ys);
            let mut sat = PackedIntVec::from_signed(4, &xs);
            sat.add_saturating(&b);
            let mut wrap = PackedIntVec::from_signed(4, &xs);
            wrap.add_wrapping(&b);
            for i in 0..xs.len() {
                let sum = xs[i] + ys[i];
                assert_eq!(sat.get(i), sum.clamp(-7, 7), "{} + {}", xs[i], ys[i]);
                assert_eq!(wrap.get(i), ((sum + 8) & 15) - 8, "{} + {}", xs[i], ys[i]);
            }
        }
    }

    #[test]
    fn lane_range_ops_touch_only_their_lanes() {
        // Widths on the word kernel (masked edge words) and on the per-lane
        // loop (lanes straddling words), over ranges with unaligned edges.
        const LEN: usize = 203;
        for q in [2u32, 3, 4, 8, 9, 11, 16, 32] {
            let (min, max) = (-(1i64 << (q - 1)), (1i64 << (q - 1)) - 1);
            let value = |i: usize, salt: u64| {
                let r = crate::rng::splitmix64(i as u64 ^ salt) % (max - min + 1) as u64;
                (min + r as i64) as i32
            };
            let xs: Vec<i32> = (0..LEN).map(|i| value(i, 1)).collect();
            let ys: Vec<i32> = (0..LEN).map(|i| value(i, 2)).collect();
            let a = PackedIntVec::from_signed(q, &xs);
            let b = PackedIntVec::from_signed(q, &ys);
            for (lo, hi) in [
                (0, LEN),
                (0, 0),
                (LEN, LEN),
                (3, 4),
                (5, 37),
                (15, 17),
                (16, 32),
                (63, 129),
                (101, LEN - 1),
                (LEN - 1, LEN),
            ] {
                let covering = b.covering_words(lo, hi);
                let inside = |i: usize| (lo..hi).contains(&i);
                for op in [LaneAdd::Saturating, LaneAdd::Wrapping] {
                    let mut folded = a.clone();
                    folded.fold_lanes(op, lo, hi, covering);
                    for i in 0..LEN {
                        let sum = xs[i] as i64 + ys[i] as i64;
                        let expect = match op {
                            _ if !inside(i) => xs[i],
                            LaneAdd::Saturating => sum.clamp(-max, max) as i32,
                            LaneAdd::Wrapping => ((sum << (64 - q)) >> (64 - q)) as i32,
                        };
                        assert_eq!(folded.get(i), expect, "q={q} {op:?} [{lo},{hi}) lane {i}");
                    }
                }
                let mut copied = a.clone();
                copied.copy_lanes(lo, hi, covering);
                for i in 0..LEN {
                    let expect = if inside(i) { ys[i] } else { xs[i] };
                    assert_eq!(copied.get(i), expect, "q={q} copy [{lo},{hi}) lane {i}");
                }
                let mut unpacked = vec![0i32; hi - lo];
                b.unpack_into(lo, &mut unpacked);
                assert_eq!(unpacked, ys[lo..hi], "q={q} unpack [{lo},{hi})");
            }
        }
    }

    #[test]
    fn lane_writer_matches_from_signed_for_any_push_pattern() {
        for q in [3u32, 4, 8, 9] {
            let hi = (1i32 << (q - 1)) - 1;
            let mut vals: Vec<i32> = (0..300).map(|i| (i * 7919 % (2 * hi + 1)) - hi).collect();
            vals[40..110].fill(0);
            let reference = PackedIntVec::from_signed(q, &vals);
            // Stale words must be overwritten, not OR-ed into.
            let mut v = PackedIntVec::from_signed(q, &vec![-1; 300]);
            let mut w = v.writer();
            w.push(&vals[..5]);
            w.push(&vals[5..40]);
            w.push_zeros(70);
            w.push(&vals[110..110]);
            w.push(&vals[110..238]);
            w.push(&vals[238..]);
            w.finish();
            assert_eq!(v.words(), reference.words(), "q={q}");
        }
    }

    #[test]
    fn wrapping_add_corrupts_on_overflow() {
        // Demonstrates why naive integer all-reduce is wrong: 7 + 5 wraps to
        // -4 in 4-bit lanes.
        let a = PackedIntVec::from_signed(4, &[7]);
        let b = PackedIntVec::from_signed(4, &[5]);
        let mut s = a.clone();
        s.add_wrapping(&b);
        assert_eq!(s.get(0), -4);
    }

    #[test]
    fn cancellation_avoids_saturation() {
        // Positive and negative contributions cancel — the property the
        // paper's saturation argument relies on after RHT.
        let a = PackedIntVec::from_signed(4, &[6]);
        let b = PackedIntVec::from_signed(4, &[-5]);
        let mut s = a.clone();
        s.add_saturating(&b);
        assert_eq!(s.get(0), 1);
    }

    #[test]
    fn parallel_pack_ops_are_bitwise_identical_to_sequential() {
        // Large enough to cross PACK_PAR_MIN_LANES; odd length so the last
        // segment is partial; q values chosen so lanes straddle words (3, 7)
        // and divide them exactly (4, 16).
        let len = 100_003;
        for q in [3u32, 4, 7, 16] {
            let hi = PackedIntVec::zeros(q, 1).lane_max() as i64;
            let lo = PackedIntVec::zeros(q, 1).lane_min() as i64;
            let span = hi - lo + 1;
            let make = |salt: u64| -> Vec<i32> {
                (0..len)
                    .map(|i| {
                        let r = crate::rng::splitmix64(i as u64 ^ salt);
                        (lo + (r % span as u64) as i64) as i32
                    })
                    .collect()
            };
            let a_vals = make(0xa5a5);
            let b_vals = make(0x5a5a);
            let reference = crate::parallel::with_threads(1, || {
                let mut a = PackedIntVec::from_signed(q, &a_vals);
                let b = PackedIntVec::from_signed(q, &b_vals);
                let mut w = a.clone();
                a.add_saturating(&b);
                w.add_wrapping(&b);
                (a, w)
            });
            for threads in [2, 5] {
                let got = crate::parallel::with_threads(threads, || {
                    let mut a = PackedIntVec::from_signed(q, &a_vals);
                    let b = PackedIntVec::from_signed(q, &b_vals);
                    let mut w = a.clone();
                    a.add_saturating(&b);
                    w.add_wrapping(&b);
                    assert_eq!(lanes(&a), lanes(&reference.0));
                    (a, w)
                });
                assert_eq!(got, reference, "q={q} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        PackedIntVec::zeros(4, 3).get(3);
    }

    #[test]
    #[should_panic(expected = "lane width mismatch")]
    fn mixed_width_add_panics() {
        let mut a = PackedIntVec::zeros(4, 2);
        let b = PackedIntVec::zeros(8, 2);
        a.add_saturating(&b);
    }
}
