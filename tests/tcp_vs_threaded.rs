//! Differential suite: `TcpLinks` (socket mesh) vs `ThreadedCluster`
//! (in-process channels) running the *same* collective worker bodies
//! (ISSUE 7 satellite).
//!
//! Property, over randomized `(op, n, payload length, thread count)`:
//! both transports produce **bitwise-identical** per-worker results *and*
//! identical per-worker `(bytes_sent, bytes_received)` traffic accounting
//! — the worker bodies count payload bytes transport-independently, so any
//! difference isolates a transport bug (reordering, duplication, loss),
//! not float noise or accounting drift.
//!
//! The thread-count dimension pins transport behaviour as independent of
//! `GCS_THREADS`: kernels underneath the collectives may split work
//! differently, but what goes over the wire must not change.
//!
//! A deterministic elastic case rides along: two founders run a round at
//! n=2, a third worker joins mid-run, and the n=3 round after admission is
//! compared against the threaded reference at n=3 — membership changes
//! renumber ranks, not results.

use gradient_utility::collectives::tcp::{FleetWorker, Registry, TcpCluster, TcpTimeouts};
use gradient_utility::collectives::transport::{
    all_gather_worker, broadcast_worker, ring_all_reduce_worker_into, MessageLinks, ThreadedCluster,
};
use gradient_utility::collectives::{
    ring_all_reduce_into, CollectiveError, F32Sum, ReduceOp, RingScratch, Traffic,
};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    Ring,
    Broadcast { root: usize },
    AllGather,
}

fn op_from(idx: usize, n: usize, root: usize) -> Op {
    match idx % 3 {
        0 => Op::Ring,
        1 => Op::Broadcast { root: root % n },
        _ => Op::AllGather,
    }
}

fn inputs(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| {
            (0..len)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((w * len + i) as u64);
                    (x as f32 * 1e-19).sin()
                })
                .collect()
        })
        .collect()
}

/// `(result, bytes_sent, bytes_received)` for one worker — the traffic
/// counts come from the worker bodies themselves.
type WorkerOut = (Vec<f32>, u64, u64);

fn run_op<L: MessageLinks<f32>>(op: Op, links: &mut L, mut buf: Vec<f32>) -> WorkerOut {
    match op {
        Op::Ring => ring_all_reduce_worker_into(links, &mut buf, &F32Sum, 4.0, &mut Vec::new())
            .map(|(sent, received)| (buf, sent, received)),
        Op::Broadcast { root } => broadcast_worker(links, buf, root, 4.0),
        Op::AllGather => all_gather_worker(links, buf, 4.0),
    }
    .expect("healthy cluster")
}

fn run_threaded(op: Op, bufs: Vec<Vec<f32>>, threads: usize) -> Vec<WorkerOut> {
    ThreadedCluster::<f32>::new(bufs.len()).run(move |rank, mut links| {
        gcs_tensor::parallel::with_threads(threads, || run_op(op, &mut links, bufs[rank].clone()))
    })
}

fn run_tcp(op: Op, bufs: Vec<Vec<f32>>, threads: usize) -> Vec<WorkerOut> {
    TcpCluster::run(bufs.len(), move |rank, links: &mut _| {
        gcs_tensor::parallel::with_threads(threads, || run_op(op, links, bufs[rank].clone()))
    })
}

proptest! {
    // Each case builds a real socket mesh; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn tcp_and_threaded_agree_bitwise_with_identical_traffic(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        len in 1usize..96,
        op_idx in 0usize..3,
        root in 0usize..5,
        threads in 1usize..3,
    ) {
        let op = op_from(op_idx, n, root);
        let bufs = inputs(n, len, seed);
        let threaded = run_threaded(op, bufs.clone(), threads);
        let tcp = run_tcp(op, bufs, threads);
        for (rank, (t, s)) in threaded.iter().zip(&tcp).enumerate() {
            prop_assert_eq!(
                &t.0, &s.0,
                "seed {} {:?} rank {}: results diverged across transports",
                seed, op, rank
            );
            prop_assert_eq!(
                (t.1, t.2), (s.1, s.2),
                "seed {} {:?} rank {}: traffic accounting diverged",
                seed, op, rank
            );
        }
    }
}

/// The ring over a socket mesh whose every rank uses `chunk_bytes` frames
/// (`None`: the default), one result per rank in rank order.
fn run_tcp_ring(bufs: Vec<Vec<f32>>, chunk_bytes: Option<usize>) -> Vec<WorkerOut> {
    let n = bufs.len();
    let registry = Registry::spawn(n).expect("registry");
    let addr = registry.addr();
    let bufs = std::sync::Arc::new(bufs);
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let bufs = std::sync::Arc::clone(&bufs);
            std::thread::spawn(move || {
                let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                let rs = w.next_round(0).expect("round");
                // Every rank must use the same value (frame counts are
                // derived, not signaled).
                if let Some(bytes) = chunk_bytes {
                    w.mesh_mut().set_chunk_bytes(bytes);
                }
                let mut links = w.links::<f32>();
                let out = run_op(Op::Ring, &mut links, bufs[rs.rank].clone());
                w.leave().expect("leave");
                (rs.rank, out)
            })
        })
        .collect();
    let mut results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    registry.shutdown();
    results.sort_by_key(|(rank, _)| *rank);
    results.into_iter().map(|(_, out)| out).collect()
}

/// Pipelined-chunking differential (ISSUE 9): forcing small chunks on every
/// worker's mesh — so each ring segment crosses several frame boundaries —
/// must change neither the bitwise result nor the per-worker traffic
/// accounting relative to the threaded reference, which never chunks.
#[test]
fn chunked_tcp_ring_matches_threaded_reference_bitwise_with_identical_traffic() {
    // (chunk bytes, payload length): two f32 lanes per frame, then 256 —
    // lengths deliberately not chunk- or n-aligned, and long enough that
    // every segment at n = 4 still spans several chunks.
    for (chunk_bytes, len) in [(8usize, 53usize), (1024, 2053)] {
        for n in [2usize, 3, 4] {
            let bufs = inputs(n, len, 99 + n as u64);
            let expect = run_threaded(Op::Ring, bufs.clone(), 1);
            let results = run_tcp_ring(bufs, Some(chunk_bytes));
            for (rank, out) in results.into_iter().enumerate() {
                assert_eq!(
                    out, expect[rank],
                    "chunk={chunk_bytes} n={n} rank={rank}: chunked TCP ring diverged from \
                     threaded reference"
                );
            }
        }
    }
}

/// Inputs whose fold must come through bit for bit: NaNs with distinct
/// payloads — quiet, signaling and negative, one rank per position so no
/// two NaNs meet in a sum — signed zeros, and subnormals of both signs.
fn awkward_inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| {
            (0..len)
                .map(|i| {
                    let tag = i as u32;
                    if i % 11 == w {
                        return f32::from_bits(match i % 3 {
                            0 => 0x7fc0_0000 | tag,
                            1 => 0x7f80_0001 + tag,
                            _ => 0xffc0_0000 | tag,
                        });
                    }
                    match (i * 7 + w * 3) % 5 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => f32::from_bits(1 + tag * 13 + w as u32),
                        3 => -f32::from_bits(0x0040_0000 + tag),
                        _ => ((i + w) as f32).sin(),
                    }
                })
                .collect()
        })
        .collect()
}

/// `recv_reduce`'s TCP override (the fold straight from the wire bytes)
/// against its default (`recv_into` + `reduce_slice`, which the channel
/// transport runs): bit for bit, NaN payloads included, at 8-byte chunks
/// and at the default chunk with segments longer than one chunk.
#[test]
fn fused_receive_fold_matches_threaded_twin_bit_for_bit() {
    let bits = |out: &[WorkerOut]| -> Vec<(Vec<u32>, u64, u64)> {
        out.iter()
            .map(|(buf, s, r)| (buf.iter().map(|x| x.to_bits()).collect(), *s, *r))
            .collect()
    };
    for (chunk_bytes, len) in [(Some(8usize), 41usize), (None, 40_000)] {
        for n in [2usize, 3] {
            let bufs = awkward_inputs(n, len);
            let expect = run_threaded(Op::Ring, bufs.clone(), 1);
            assert!(expect[0].0.iter().any(|x| x.is_nan()), "inputs carry NaNs");
            let got = run_tcp_ring(bufs, chunk_bytes);
            assert_eq!(
                bits(&got),
                bits(&expect),
                "chunk={chunk_bytes:?} n={n}: fused fold diverged from the threaded twin"
            );
        }
    }
}

/// A message of the wrong length is a typed protocol error for
/// `recv_reduce`, on the default path and the TCP override alike.
/// `F32Sum` reachable only in bulk: the per-element `reduce` panics.
#[derive(Clone, Copy)]
struct BulkOnlySum;

impl ReduceOp<f32> for BulkOnlySum {
    fn reduce(&self, _: &mut f32, _: &f32) {
        panic!("BulkOnlySum: the per-element fold was reached");
    }

    fn reduce_slice(&self, acc: &mut [f32], xs: &[f32]) {
        for (a, x) in acc.iter_mut().zip(xs) {
            *a += *x;
        }
    }
}

/// The socket mesh's receive-fold hands decoded blocks to the op's
/// `reduce_slice`, never its `reduce`, and still produces the in-memory
/// `F32Sum` ring's bits — across stack-block and frame-chunk edges.
#[test]
fn tcp_fold_reaches_the_ops_bulk_reduce_slice() {
    for (n, len) in [(2usize, 1usize), (3, 203), (4, 40_001)] {
        let bufs = awkward_inputs(n, len);
        let mut expect = bufs.clone();
        let scratch = &mut RingScratch::new();
        ring_all_reduce_into(&mut expect, &F32Sum, 4.0, scratch, &mut Traffic::default());
        let results = TcpCluster::run(n, move |rank, links: &mut _| {
            let mut buf = bufs[rank].clone();
            ring_all_reduce_worker_into(links, &mut buf, &BulkOnlySum, 4.0, &mut Vec::new())
                .expect("healthy cluster");
            buf
        });
        for (rank, (out, want)) in results.iter().zip(&expect).enumerate() {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out), bits(want), "n={n} len={len} rank={rank}");
        }
    }
}

#[test]
fn recv_reduce_length_mismatch_is_protocol_error_on_both_transports() {
    fn body<L: MessageLinks<f32>>(rank: usize, links: &mut L) -> Option<CollectiveError> {
        if rank == 0 {
            links.send_slice(1, &[1.0, 2.0]).expect("send_slice");
            return None;
        }
        let (mut acc, mut scratch) = ([0.0f32; 3], [0.0f32; 3]);
        Some(
            links
                .recv_reduce(0, &mut acc, &F32Sum, &mut scratch)
                .expect_err("length mismatch"),
        )
    }
    let threaded = ThreadedCluster::<f32>::new(2).run(|rank, mut links| body(rank, &mut links));
    let tcp = TcpCluster::run(2, |rank, links: &mut _| body(rank, links));
    for (transport, results) in [("threaded", threaded), ("tcp", tcp)] {
        assert!(
            matches!(results[1], Some(CollectiveError::Protocol { peer: 0, .. })),
            "{transport}: {:?}",
            results[1]
        );
    }
}

/// Elastic membership differential: round 0 at n=2 and the post-join round
/// at n=3 each match the threaded reference for that membership, traffic
/// included.
#[test]
fn mid_run_join_matches_threaded_reference_per_round() {
    const LEN: usize = 24;
    let bufs2 = inputs(2, LEN, 41);
    let bufs3 = inputs(3, LEN, 42);
    let expect2 = run_threaded(Op::Ring, bufs2.clone(), 1);
    let expect3 = run_threaded(Op::Ring, bufs3.clone(), 1);

    let registry = Registry::spawn(2).expect("registry");
    let addr = registry.addr();
    let founders: Vec<_> = {
        let bufs2 = bufs2.clone();
        (0..2)
            .map(|_| {
                let bufs2 = bufs2.clone();
                std::thread::spawn(move || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    let r0 = w.next_round(0).expect("round 0");
                    assert_eq!(r0.n, 2);
                    let mut links = w.links::<f32>();
                    let out = run_op(Op::Ring, &mut links, bufs2[r0.rank].clone());
                    (w, r0.rank, out)
                })
            })
            .collect()
    };
    let founders: Vec<_> = founders
        .into_iter()
        .map(|h| h.join().expect("founder"))
        .collect();
    for (_, rank, out) in &founders {
        assert_eq!(out, &expect2[*rank], "n=2 round diverged from reference");
    }

    // Joiner registers before the founders barrier again → deterministic
    // admission at the n=3 round.
    let late = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join late");
    let joiner = {
        let bufs3 = bufs3.clone();
        std::thread::spawn(move || {
            let mut w = late;
            let rs = w.next_round(0).expect("joiner round");
            assert_eq!(
                (rs.n, rs.round),
                (3, 1),
                "joiner admitted on the fleet clock"
            );
            let mut links = w.links::<f32>();
            let out = run_op(Op::Ring, &mut links, bufs3[rs.rank].clone());
            w.leave().expect("leave");
            (rs.rank, out)
        })
    };
    let founder_handles: Vec<_> = founders
        .into_iter()
        .map(|(mut w, _, _)| {
            let bufs3 = bufs3.clone();
            std::thread::spawn(move || {
                let rs = w.next_round(1).expect("round 1");
                assert_eq!(rs.n, 3, "founder sees the joiner");
                let mut links = w.links::<f32>();
                let out = run_op(Op::Ring, &mut links, bufs3[rs.rank].clone());
                w.leave().expect("leave");
                (rs.rank, out)
            })
        })
        .collect();

    let mut round1 = vec![joiner.join().expect("joiner thread")];
    for h in founder_handles {
        round1.push(h.join().expect("founder thread"));
    }
    registry.shutdown();
    for (rank, out) in &round1 {
        assert_eq!(
            out, &expect3[*rank],
            "n=3 post-join round diverged from reference"
        );
    }
}
