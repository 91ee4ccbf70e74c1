//! The collective algorithms, operating on real data.
//!
//! Each function takes one buffer per worker and performs the collective by
//! actually moving (cloning) data between buffers in the algorithm's
//! step/segment structure, applying a [`ReduceOp`] at intermediate hops —
//! so non-associativity effects (FP16 rounding order, saturation at partial
//! aggregates) appear exactly where a real deployment would produce them.
//!
//! Every operation fills a [`Traffic`] record with exact per-worker byte
//! counts; the timing layer (`gcs-netsim`) turns those into seconds.
//!
//! The ring also runs over bit-packed integer lanes
//! ([`ring_all_reduce_packed_into`]): one walk, two buffer kinds, so
//! quantized payloads move — and are reduced in — their wire words.
//!
//! The three collectives the schemes run — [`ring_all_reduce_into`], its
//! packed-lane form and [`all_gather_into`] — write into caller-owned
//! scratch ([`RingScratch`], a reused [`Traffic`], a reused output vector):
//! after warm-up they perform **zero heap allocations** (asserted by
//! `tests/alloc_budget.rs` under a counting global allocator).

use crate::reduce::ReduceOp;
use gcs_tensor::bitpack::{LaneAdd, PackedIntVec};

/// Exact communication accounting for one collective invocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes sent by each worker.
    pub sent: Vec<u64>,
    /// Bytes received by each worker.
    pub received: Vec<u64>,
    /// Number of synchronous communication steps.
    pub steps: u32,
}

impl Traffic {
    #[cfg(test)]
    fn new(n: usize) -> Traffic {
        Traffic {
            sent: vec![0; n],
            received: vec![0; n],
            steps: 0,
        }
    }

    /// Resets to `n` workers with zeroed counters, reusing the existing
    /// allocations when capacity suffices (no heap traffic at steady state).
    pub fn reset(&mut self, n: usize) {
        self.sent.clear();
        self.sent.resize(n, 0);
        self.received.clear();
        self.received.resize(n, 0);
        self.steps = 0;
    }

    fn record(&mut self, from: usize, to: usize, bytes: u64) {
        self.sent[from] += bytes;
        self.received[to] += bytes;
    }

    /// The heaviest single worker's sent bytes (the bandwidth bottleneck).
    pub fn max_sent(&self) -> u64 {
        self.sent.iter().copied().max().unwrap_or(0)
    }

    /// Total bytes crossing the network.
    pub fn total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Merges another collective's traffic (sequential composition).
    ///
    /// # Panics
    /// Panics if worker counts differ.
    pub fn merge(&mut self, other: &Traffic) {
        assert_eq!(
            self.sent.len(),
            other.sent.len(),
            "Traffic::merge: n mismatch"
        );
        for (a, b) in self.sent.iter_mut().zip(&other.sent) {
            *a += b;
        }
        for (a, b) in self.received.iter_mut().zip(&other.received) {
            *a += b;
        }
        self.steps += other.steps;
    }
}

/// Persistent staging for the in-flight segments of one ring step.
///
/// The ring captures every worker's outgoing segment before applying any
/// reduction (all sends within a step are simultaneous). Instead of one
/// fresh `to_vec()` per worker per step, the segments are packed
/// back-to-back into `staging` with `offsets` delimiting them — after the
/// first step the allocation is at its high-water mark (≤ buffer length
/// plus one extra element per worker) and is reused for every subsequent
/// step and round.
#[derive(Clone, Debug)]
pub struct RingScratch<T> {
    staging: Vec<T>,
    offsets: Vec<usize>,
}

impl<T> Default for RingScratch<T> {
    fn default() -> Self {
        RingScratch {
            staging: Vec::new(),
            offsets: Vec::new(),
        }
    }
}

impl<T> RingScratch<T> {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Lane range of ring segment `seg`: as even as possible, the first
/// `len % n` segments one longer. The one definition every ring shares.
pub(crate) fn segment_bounds(len: usize, n: usize, seg: usize) -> (usize, usize) {
    let base = len / n;
    let extra = len % n;
    let start = seg * base + seg.min(extra);
    let size = base + usize::from(seg < extra);
    (start, start + size)
}

/// Ring all-reduce: reduce-scatter followed by all-gather, `2(n−1)` steps.
///
/// On return every worker's buffer holds the identical reduction of all
/// inputs. The reduction order for segment `s` is fixed by the ring
/// (worker `s+1, s+2, …` folding into the running partial), so
/// non-associative operators give deterministic, realistic results. Zero
/// heap allocations once `scratch` and `traffic` have reached their
/// high-water marks.
///
/// # Panics
/// Panics if buffers have unequal lengths or `bufs` is empty.
pub fn ring_all_reduce_into<T: Clone>(
    bufs: &mut [Vec<T>],
    op: &dyn ReduceOp<T>,
    bytes_per_elem: f64,
    scratch: &mut RingScratch<T>,
    traffic: &mut Traffic,
) {
    assert!(!bufs.is_empty(), "ring_all_reduce: no workers");
    let len = bufs[0].len();
    assert!(
        bufs.iter().all(|b| b.len() == len),
        "ring_all_reduce: ragged buffers"
    );
    ring_walk(
        bufs,
        len,
        bytes_per_elem,
        scratch,
        traffic,
        |buf, lo, hi, staging| staging.extend_from_slice(&buf[lo..hi]),
        |buf, lo, hi, data| op.reduce_slice(&mut buf[lo..hi], data),
        |buf, lo, hi, data| buf[lo..hi].clone_from_slice(data),
    );
}

/// Ring all-reduce over bit-packed integer lanes: the same walk as
/// [`ring_all_reduce_into`] — segments are [`segment_bounds`] **in lanes**,
/// so the lane → segment map, and with it the order a non-associative `Sat`
/// is applied in, is exactly that of an `i32`-lane ring — but each hop
/// stages the words covering its lane segment and folds them a word at a
/// time. The words moved are the `lane_bits / 8` bytes per lane that
/// `traffic` records.
///
/// # Panics
/// Panics if `bufs` is empty or the vectors differ in length or lane width.
pub fn ring_all_reduce_packed_into(
    bufs: &mut [PackedIntVec],
    op: LaneAdd,
    scratch: &mut RingScratch<u64>,
    traffic: &mut Traffic,
) {
    assert!(!bufs.is_empty(), "ring_all_reduce: no workers");
    let (len, bits) = (bufs[0].len(), bufs[0].lane_bits());
    assert!(
        bufs.iter().all(|b| b.len() == len && b.lane_bits() == bits),
        "ring_all_reduce: ragged buffers"
    );
    ring_walk(
        bufs,
        len,
        bits as f64 / 8.0,
        scratch,
        traffic,
        |buf, lo, hi, staging| staging.extend_from_slice(buf.covering_words(lo, hi)),
        |buf, lo, hi, data| buf.fold_lanes(op, lo, hi, data),
        |buf, lo, hi, data| buf.copy_lanes(lo, hi, data),
    );
}

/// The ring walk itself, over any buffer kind that can `stage` a lane range
/// into the step's staging area, `fold` staged data into a lane range, and
/// `copy` staged data over one. `len` is the buffers' common lane count.
#[allow(clippy::too_many_arguments)]
fn ring_walk<B, W>(
    bufs: &mut [B],
    len: usize,
    bytes_per_lane: f64,
    scratch: &mut RingScratch<W>,
    traffic: &mut Traffic,
    stage: impl Fn(&B, usize, usize, &mut Vec<W>),
    fold: impl Fn(&mut B, usize, usize, &[W]),
    copy: impl Fn(&mut B, usize, usize, &[W]),
) {
    let _span = gcs_trace::span(gcs_trace::Phase::Network, "ring_all_reduce");
    let _timer = gcs_metrics::timer("collective/ring_all_reduce/latency_ns");
    let n = bufs.len();
    traffic.reset(n);
    if n == 1 || len == 0 {
        return;
    }

    // Reduce-scatter (`shift` 0): at step k, worker i sends segment (i - k)
    // to i+1, which folds it into its own copy. After n-1 steps worker i
    // owns the full reduction of segment (i + 1) mod n. All-gather
    // (`shift` 1) then circulates the finished segments the same way,
    // copying instead of folding.
    for shift in [0usize, 1] {
        for k in 0..n - 1 {
            let segment = |i: usize| segment_bounds(len, n, (i + shift + n - k) % n);
            // Capture the sends before mutating (simultaneous steps).
            scratch.staging.clear();
            scratch.offsets.clear();
            scratch.offsets.push(0);
            for (i, buf) in bufs.iter().enumerate() {
                let (lo, hi) = segment(i);
                stage(buf, lo, hi, &mut scratch.staging);
                scratch.offsets.push(scratch.staging.len());
                let bytes = ((hi - lo) as f64 * bytes_per_lane).ceil() as u64;
                traffic.record(i, (i + 1) % n, bytes);
            }
            for i in 0..n {
                let (lo, hi) = segment(i);
                let data = &scratch.staging[scratch.offsets[i]..scratch.offsets[i + 1]];
                let dst = &mut bufs[(i + 1) % n];
                if shift == 0 {
                    fold(dst, lo, hi, data);
                } else {
                    copy(dst, lo, hi, data);
                }
            }
            traffic.steps += 1;
        }
    }
    gcs_trace::counter("wire_bytes", traffic.total() as f64);
    gcs_metrics::counter_add(
        "collective/ring_all_reduce/wire_bytes_total",
        traffic.total() as f64,
    );
    gcs_metrics::observe(
        "collective/ring_all_reduce/wire_bytes",
        traffic.total() as f64,
    );
}

/// All-gather: `out` becomes each worker's concatenated view
/// `[w0 | w1 | …]` (identical across workers, so a single copy; cleared
/// first, capacity reused), and `traffic` records every worker sending its
/// payload to all `n−1` peers.
///
/// # Panics
/// Panics if `inputs` is empty. Ragged inputs are allowed (TopK payload
/// sizes can differ per worker after ties).
pub fn all_gather_into<T: Clone>(
    inputs: &[Vec<T>],
    bytes_per_elem: f64,
    out: &mut Vec<T>,
    traffic: &mut Traffic,
) {
    let _span = gcs_trace::span(gcs_trace::Phase::Network, "all_gather");
    let _timer = gcs_metrics::timer("collective/all_gather/latency_ns");
    let n = inputs.len();
    assert!(n > 0, "all_gather: no workers");
    traffic.reset(n);
    out.clear();
    for (i, inp) in inputs.iter().enumerate() {
        let bytes = (inp.len() as f64 * bytes_per_elem).ceil() as u64;
        for j in 0..n {
            if j != i {
                traffic.record(i, j, bytes);
            }
        }
        out.extend_from_slice(inp);
    }
    traffic.steps = (n - 1) as u32;
    gcs_trace::counter("wire_bytes", traffic.total() as f64);
    gcs_metrics::counter_add(
        "collective/all_gather/wire_bytes_total",
        traffic.total() as f64,
    );
    gcs_metrics::observe("collective/all_gather/wire_bytes", traffic.total() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{F32Sum, SaturatingIntSum};

    fn worker_bufs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|w| {
                (0..len)
                    .map(|i| (w * len + i) as f32 * 0.01 - 1.0)
                    .collect()
            })
            .collect()
    }

    /// The ring with fresh scratch, returning its traffic.
    fn ring_all_reduce<T: Clone>(
        bufs: &mut [Vec<T>],
        op: &dyn ReduceOp<T>,
        bytes_per_elem: f64,
    ) -> Traffic {
        let mut traffic = Traffic::default();
        ring_all_reduce_into(
            bufs,
            op,
            bytes_per_elem,
            &mut RingScratch::new(),
            &mut traffic,
        );
        traffic
    }

    fn exact_sum(bufs: &[Vec<f32>]) -> Vec<f32> {
        let mut out = vec![0.0f32; bufs[0].len()];
        for b in bufs {
            for (o, x) in out.iter_mut().zip(b) {
                *o += x;
            }
        }
        out
    }

    #[test]
    fn ring_all_reduce_computes_the_sum() {
        for n in [1usize, 2, 3, 4, 7] {
            for len in [0usize, 1, 5, 64, 97] {
                let mut bufs = worker_bufs(n, len);
                let expect = exact_sum(&bufs);
                ring_all_reduce(&mut bufs, &F32Sum, 4.0);
                for b in &bufs {
                    for (x, e) in b.iter().zip(&expect) {
                        assert!((x - e).abs() < 1e-4, "n={n} len={len}");
                    }
                }
            }
        }
    }

    /// The pre-pool reference ring, preserved verbatim (per-step
    /// `to_vec()` staging) to pin that the staged rewrite is
    /// bitwise-identical.
    fn reference_ring_all_reduce<T: Clone>(bufs: &mut [Vec<T>], op: &dyn ReduceOp<T>) {
        let n = bufs.len();
        let len = bufs[0].len();
        if n == 1 || len == 0 {
            return;
        }
        for k in 0..n - 1 {
            let mut pending: Vec<(usize, usize, Vec<T>)> = Vec::with_capacity(n);
            for (i, buf) in bufs.iter().enumerate() {
                let seg = (i + n - k) % n;
                let (lo, hi) = segment_bounds(len, n, seg);
                pending.push(((i + 1) % n, seg, buf[lo..hi].to_vec()));
            }
            for (dst, seg, data) in pending {
                let (lo, hi) = segment_bounds(len, n, seg);
                op.reduce_slice(&mut bufs[dst][lo..hi], &data);
            }
        }
        for k in 0..n - 1 {
            let mut pending: Vec<(usize, usize, Vec<T>)> = Vec::with_capacity(n);
            for (i, buf) in bufs.iter().enumerate() {
                let seg = (i + 1 + n - k) % n;
                let (lo, hi) = segment_bounds(len, n, seg);
                pending.push(((i + 1) % n, seg, buf[lo..hi].to_vec()));
            }
            for (dst, seg, data) in pending {
                let (lo, hi) = segment_bounds(len, n, seg);
                bufs[dst][lo..hi].clone_from_slice(&data);
            }
        }
    }

    #[test]
    fn staged_ring_is_bitwise_identical_to_reference() {
        for n in [2usize, 3, 4, 7] {
            for len in [1usize, 5, 64, 97] {
                let mut a = worker_bufs(n, len);
                let mut b = a.clone();
                ring_all_reduce(&mut a, &F32Sum, 4.0);
                reference_ring_all_reduce(&mut b, &F32Sum);
                for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} len={len}");
                }
            }
        }
    }

    #[test]
    fn ring_into_scratch_reuse_is_stable_across_rounds() {
        let mut scratch = RingScratch::new();
        let mut traffic = Traffic::default();
        let mut expect_traffic = None;
        for round in 0..3 {
            let mut bufs = worker_bufs(4, 97);
            let expect = {
                let mut r = bufs.clone();
                reference_ring_all_reduce(&mut r, &F32Sum);
                r
            };
            ring_all_reduce_into(&mut bufs, &F32Sum, 4.0, &mut scratch, &mut traffic);
            for (x, y) in bufs.iter().flatten().zip(expect.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits(), "round={round}");
            }
            match &expect_traffic {
                None => expect_traffic = Some(traffic.clone()),
                Some(t) => assert_eq!(&traffic, t, "traffic must reset per call"),
            }
        }
    }

    #[test]
    fn collective_spans_are_tagged_network_phase() {
        gcs_trace::clear();
        let trace = gcs_trace::with_recording(|| {
            let mut bufs = worker_bufs(3, 32);
            ring_all_reduce(&mut bufs, &F32Sum, 4.0);
        });
        if trace.spans.is_empty() {
            return; // trace capture disabled
        }
        assert!(trace
            .spans
            .iter()
            .any(|s| s.phase == gcs_trace::Phase::Network && s.name == "ring_all_reduce"));
        assert!(!trace
            .spans
            .iter()
            .any(|s| s.phase == gcs_trace::Phase::Reduce));
    }

    #[test]
    fn ring_traffic_matches_closed_form() {
        let n = 4;
        let len = 100;
        let mut bufs = worker_bufs(n, len);
        let t = ring_all_reduce(&mut bufs, &F32Sum, 4.0);
        assert_eq!(t.steps, 2 * (n as u32 - 1));
        // Each worker sends ~2(n-1)/n * len elements * 4 bytes.
        let expect = (2.0 * (n as f64 - 1.0) / n as f64 * len as f64 * 4.0) as u64;
        for &s in &t.sent {
            assert!(
                (s as i64 - expect as i64).unsigned_abs() <= 8,
                "{s} vs {expect}"
            );
        }
    }

    #[test]
    fn all_gather_concatenates_and_counts() {
        let inputs = vec![vec![1i32, 2], vec![3], vec![4, 5, 6]];
        let (mut out, mut t) = (Vec::new(), Traffic::default());
        all_gather_into(&inputs, 4.0, &mut out, &mut t);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(t.sent, vec![16, 8, 24]); // payload * (n-1)
        assert_eq!(t.received[0], 4 + 12);
    }

    #[test]
    fn all_gather_into_reuses_output() {
        let inputs = vec![vec![1i32, 2], vec![3], vec![4, 5, 6]];
        let mut out = Vec::with_capacity(16);
        let ptr = out.as_ptr();
        let mut traffic = Traffic::default();
        for _ in 0..2 {
            all_gather_into(&inputs, 4.0, &mut out, &mut traffic);
            assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
            assert_eq!(out.as_ptr(), ptr, "output allocation must be reused");
        }
    }

    #[test]
    fn saturating_ring_all_reduce_stays_in_range() {
        // Four workers each contribute +6 in 4-bit lanes: the exact sum (24)
        // saturates at 7 somewhere along the ring — and every worker agrees
        // on the final (clamped) value.
        let op = SaturatingIntSum::new(4);
        let mut bufs: Vec<Vec<i32>> = (0..4).map(|_| vec![6i32; 8]).collect();
        ring_all_reduce(&mut bufs, &op, 0.5);
        for b in &bufs {
            assert_eq!(b, &vec![7i32; 8]);
        }
    }

    #[test]
    fn ring_with_uneven_segments() {
        // len=5, n=4: segments of 2,1,1,1.
        let mut bufs = worker_bufs(4, 5);
        let expect = exact_sum(&bufs);
        ring_all_reduce(&mut bufs, &F32Sum, 4.0);
        for (x, e) in bufs[2].iter().zip(&expect) {
            assert!((x - e).abs() < 1e-4);
        }
    }

    #[test]
    fn traffic_merge_accumulates() {
        let mut a = Traffic::new(2);
        a.record(0, 1, 10);
        a.steps = 1;
        let mut b = Traffic::new(2);
        b.record(1, 0, 5);
        b.steps = 2;
        a.merge(&b);
        assert_eq!(a.sent, vec![10, 5]);
        assert_eq!(a.received, vec![5, 10]);
        assert_eq!(a.steps, 3);
        assert_eq!(a.total(), 15);
        assert_eq!(a.max_sent(), 10);
    }

    #[test]
    fn traffic_reset_reuses_and_zeroes() {
        let mut t = Traffic::new(4);
        t.record(0, 1, 10);
        t.steps = 3;
        let ptr = t.sent.as_ptr();
        t.reset(4);
        assert_eq!(t, Traffic::new(4));
        assert_eq!(t.sent.as_ptr(), ptr, "reset must reuse the allocation");
        // Growing is allowed (allocates once), shrinking reuses.
        t.reset(2);
        assert_eq!(t, Traffic::new(2));
    }
}
