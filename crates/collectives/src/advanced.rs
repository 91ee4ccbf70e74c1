//! Advanced all-reduce algorithms: the double binary tree of Sanders,
//! Speck & Träff \[42\] (cited by the paper as "tree all-reduce") and the
//! two-level hierarchical ring that NCCL uses across NVLink islands.
//!
//! Both compute exactly the same reduction as [`crate::ops::ring_all_reduce`]
//! (same per-segment fold order is *not* guaranteed — only ring vs ring is
//! bit-identical; cross-algorithm equality holds for associative ops and is
//! tested within float tolerance).

use crate::ops::Traffic;
use crate::reduce::{copy_lanes, reduce_lanes, ReduceOp};

/// Double binary tree all-reduce \[42\]: the payload is split in half; each
/// half is reduced up + broadcast down a different binary tree, with the
/// trees chosen so every node is an inner node in one tree and a leaf in
/// the other — achieving full bandwidth (every link busy) at logarithmic
/// latency, unlike the single tree whose leaves idle half the time.
///
/// Tree A over ranks is the standard heap layout; tree B is the mirror
/// (rank `i` maps to `n-1-i`), which suffices for the inner/leaf swap
/// property when `n` is even and is a good approximation otherwise.
///
/// `traffic` is the caller's accumulator, [`Traffic::reset`] here rather
/// than rebuilt, and segments hop through in-place [`reduce_lanes`] /
/// [`copy_lanes`] split borrows, so after the first round the simulated
/// data path is allocation-free.
///
/// # Panics
/// Panics on ragged or empty input.
pub fn double_tree_all_reduce_into<T: Clone>(
    bufs: &mut [Vec<T>],
    op: &dyn ReduceOp<T>,
    bytes_per_elem: f64,
    traffic: &mut Traffic,
) {
    let _span = gcs_trace::span(gcs_trace::Phase::Network, "double_tree_all_reduce");
    let _timer = gcs_metrics::timer("collective/double_tree_all_reduce/latency_ns");
    let n = bufs.len();
    assert!(n > 0, "double_tree_all_reduce: no workers");
    let len = bufs[0].len();
    assert!(
        bufs.iter().all(|b| b.len() == len),
        "double_tree_all_reduce: ragged buffers"
    );
    traffic.reset(n);
    if n == 1 || len == 0 {
        return;
    }
    let half = len / 2;

    // Reduce+broadcast one half over a tree defined by a rank mapping.
    let mut run_half = |lo: usize, hi: usize, map: &dyn Fn(usize) -> usize| {
        if lo >= hi {
            return 0u32;
        }
        let bytes = ((hi - lo) as f64 * bytes_per_elem).ceil() as u64;
        let mut steps = 0u32;
        // Reduce up the binomial tree on mapped ranks.
        let mut dstep = 1usize;
        while dstep < n {
            for v in 0..n {
                if v % (2 * dstep) == dstep {
                    let src = map(v);
                    let dst = map(v - dstep);
                    reduce_lanes(bufs, op, dst, src, lo, hi);
                    traffic.sent[src] += bytes;
                    traffic.received[dst] += bytes;
                }
            }
            steps += 1;
            dstep *= 2;
        }
        // Broadcast down.
        while dstep > 1 {
            dstep /= 2;
            for v in 0..n {
                if v % (2 * dstep) == dstep {
                    let src = map(v - dstep);
                    let dst = map(v);
                    copy_lanes(bufs, dst, src, lo, hi);
                    traffic.sent[src] += bytes;
                    traffic.received[dst] += bytes;
                }
            }
            steps += 1;
        }
        steps
    };

    let s1 = run_half(0, half, &|v| v);
    let s2 = run_half(half, len, &|v| n - 1 - v);
    traffic.steps = s1.max(s2); // the two trees run concurrently
    gcs_trace::counter("wire_bytes", traffic.total() as f64);
    gcs_metrics::counter_add(
        "collective/double_tree_all_reduce/wire_bytes_total",
        traffic.total() as f64,
    );
    gcs_metrics::observe(
        "collective/double_tree_all_reduce/wire_bytes",
        traffic.total() as f64,
    );
}

/// Two-level hierarchical ring all-reduce: ranks are grouped into nodes of
/// `group` consecutive ranks; phase 1 reduce-scatters within each node,
/// phase 2 runs an inter-node ring all-reduce per shard (driven by the
/// shard's owner in each node), phase 3 all-gathers within each node.
///
/// Matches NCCL's behaviour on NVLink+NIC clusters; the inter-node phase is
/// what the per-node NIC actually carries (see
/// `gcs_netsim::timing::HierarchicalSpec`).
///
/// `traffic` is the caller's accumulator and all three phases hop through
/// in-place [`reduce_lanes`] / [`copy_lanes`] split borrows, so reruns are
/// allocation-free.
///
/// # Panics
/// Panics if `group` does not divide the worker count, or on ragged input.
pub fn hierarchical_ring_all_reduce_into<T: Clone>(
    bufs: &mut [Vec<T>],
    group: usize,
    op: &dyn ReduceOp<T>,
    bytes_per_elem: f64,
    traffic: &mut Traffic,
) {
    let _span = gcs_trace::span(gcs_trace::Phase::Network, "hierarchical_ring_all_reduce");
    let _timer = gcs_metrics::timer("collective/hierarchical_ring_all_reduce/latency_ns");
    let n = bufs.len();
    assert!(n > 0 && group > 0, "hierarchical_ring: bad sizes");
    assert!(
        n.is_multiple_of(group),
        "hierarchical_ring: group {group} must divide n {n}"
    );
    let len = bufs[0].len();
    assert!(
        bufs.iter().all(|b| b.len() == len),
        "hierarchical_ring: ragged buffers"
    );
    let nodes = n / group;
    traffic.reset(n);
    if len == 0 {
        return;
    }

    let shard_bounds = |s: usize| -> (usize, usize) {
        let base = len / group;
        let extra = len % group;
        let start = s * base + s.min(extra);
        (start, start + base + usize::from(s < extra))
    };

    // Phase 1: intra-node reduce-scatter — shard s of node m accumulates at
    // rank m*group + s.
    for node in 0..nodes {
        for s in 0..group {
            let owner = node * group + s;
            let (lo, hi) = shard_bounds(s);
            let bytes = ((hi - lo) as f64 * bytes_per_elem).ceil() as u64;
            for j in 1..group {
                let src = node * group + (s + j) % group;
                reduce_lanes(bufs, op, owner, src, lo, hi);
                traffic.sent[src] += bytes;
                traffic.received[owner] += bytes;
            }
        }
    }
    traffic.steps += (group - 1) as u32;

    // Phase 2: inter-node ring all-reduce per shard among the owners.
    if nodes > 1 {
        for s in 0..group {
            let (lo, hi) = shard_bounds(s);
            let bytes = ((hi - lo) as f64 * bytes_per_elem).ceil() as u64;
            // Gather-reduce around the node ring, then broadcast back.
            let owner0 = s; // node 0's owner of shard s
            for node in 1..nodes {
                let src = node * group + s;
                reduce_lanes(bufs, op, owner0, src, lo, hi);
                traffic.sent[src] += bytes;
                traffic.received[owner0] += bytes;
            }
            for node in 1..nodes {
                let dst = node * group + s;
                copy_lanes(bufs, dst, owner0, lo, hi);
                traffic.sent[owner0] += bytes;
                traffic.received[dst] += bytes;
            }
        }
        traffic.steps += 2 * (nodes as u32 - 1);
    }

    // Phase 3: intra-node all-gather from each shard's owner.
    for node in 0..nodes {
        for s in 0..group {
            let owner = node * group + s;
            let (lo, hi) = shard_bounds(s);
            let bytes = ((hi - lo) as f64 * bytes_per_elem).ceil() as u64;
            for j in 1..group {
                let dst = node * group + (s + j) % group;
                copy_lanes(bufs, dst, owner, lo, hi);
                traffic.sent[owner] += bytes;
                traffic.received[dst] += bytes;
            }
        }
    }
    traffic.steps += (group - 1) as u32;
    gcs_trace::counter("wire_bytes", traffic.total() as f64);
    gcs_metrics::counter_add(
        "collective/hierarchical_ring_all_reduce/wire_bytes_total",
        traffic.total() as f64,
    );
    gcs_metrics::observe(
        "collective/hierarchical_ring_all_reduce/wire_bytes",
        traffic.total() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ring_all_reduce;
    use crate::reduce::F32Sum;

    fn grads(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|w| {
                (0..len)
                    .map(|i| ((w * len + i) as f32 * 0.311).cos())
                    .collect()
            })
            .collect()
    }

    fn assert_matches_ring(mut bufs: Vec<Vec<f32>>, got: &[Vec<f32>]) {
        ring_all_reduce(&mut bufs, &F32Sum, 4.0);
        for (w, (a, b)) in got.iter().zip(&bufs).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    (x - y).abs() < 1e-3 * y.abs().max(1.0),
                    "worker {w} coord {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn double_tree_matches_ring_for_various_n() {
        for n in [2usize, 3, 4, 6, 8] {
            let orig = grads(n, 57);
            let mut bufs = orig.clone();
            double_tree_all_reduce_into(&mut bufs, &F32Sum, 4.0, &mut Traffic::default());
            assert_matches_ring(orig, &bufs);
        }
    }

    #[test]
    fn double_tree_balances_send_load_better_than_single_tree() {
        // In the single binomial tree, rank 0 sends the full payload down;
        // in the double tree, send load spreads. Compare max/mean skew.
        let n = 8;
        let mut bufs = grads(n, 1024);
        let mut t = Traffic::default();
        double_tree_all_reduce_into(&mut bufs, &F32Sum, 4.0, &mut t);
        let mut single = grads(n, 1024);
        let t_single = crate::ops::tree_all_reduce(&mut single, &F32Sum, 4.0);
        let skew = |tr: &Traffic| {
            let max = *tr.sent.iter().max().unwrap() as f64;
            let mean = tr.sent.iter().sum::<u64>() as f64 / tr.sent.len() as f64;
            max / mean
        };
        assert!(
            skew(&t) < skew(&t_single),
            "double-tree skew {} vs single-tree {}",
            skew(&t),
            skew(&t_single)
        );
    }

    #[test]
    fn hierarchical_matches_ring() {
        for (n, group) in [(4usize, 2usize), (8, 2), (8, 4), (6, 3), (4, 4), (4, 1)] {
            let orig = grads(n, 83);
            let mut bufs = orig.clone();
            hierarchical_ring_all_reduce_into(
                &mut bufs,
                group,
                &F32Sum,
                4.0,
                &mut Traffic::default(),
            );
            assert_matches_ring(orig, &bufs);
        }
    }

    #[test]
    fn hierarchical_cuts_inter_node_traffic() {
        // Count bytes crossing node boundaries: hierarchical should move
        // only ~2 payloads per node pair vs the flat ring's interleaved
        // crossings at n=8, group=4.
        let n = 8;
        let group = 4;
        let len = 1000;
        let mut bufs = grads(n, len);
        let mut t_h = Traffic::default();
        hierarchical_ring_all_reduce_into(&mut bufs, group, &F32Sum, 4.0, &mut t_h);
        // Inter-node traffic = what shard owners exchange: per shard,
        // (nodes-1) sends each way. Total here: 2 * (2-1) * payload.
        let payload = (len * 4) as u64;
        let inter: u64 = {
            // Approximate: owners are ranks 0..group (node 0) and
            // group..2*group (node 1); inter-node bytes = total sent minus
            // intra-node phases (2*(group-1)/group * payload per worker).
            let intra_per_worker =
                (2.0 * (group as f64 - 1.0) / group as f64 * payload as f64) as u64;
            t_h.total().saturating_sub(n as u64 * intra_per_worker)
        };
        assert!(
            inter <= 3 * payload,
            "inter-node bytes {inter} should be ~2x payload {payload}"
        );
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn hierarchical_rejects_uneven_groups() {
        let mut bufs = grads(6, 10);
        hierarchical_ring_all_reduce_into(&mut bufs, 4, &F32Sum, 4.0, &mut Traffic::default());
    }
}
