//! Socket transport: the collectives over real localhost TCP, with elastic
//! membership.
//!
//! The worker bodies ([`crate::transport::ring_all_reduce_worker_into`] &
//! friends) are generic over [`MessageLinks`](crate::transport::MessageLinks);
//! this module is the implementation over real sockets instead of
//! in-process channels. Layers, bottom-up:
//!
//! * [`WireElem`] — fixed-width little-endian encoding of element types, so
//!   a reduction over TCP is bitwise-comparable to one over channels. The
//!   codec is `gcs_trace::bytes`; `encode_elems_into` & co. add the peer to a
//!   typed [`CollectiveError`](crate::CollectiveError).
//! * [`FramedStream`] — length-prefixed frames over a `TcpStream`, with
//!   bounded blocking reads (a dead or wedged peer surfaces as a typed
//!   [`RecvFail`], never a hung socket read).
//! * [`Listener`] — the one accept loop: connections are routed by their
//!   4-byte magic, `GET ` scrapes ([`serve_metrics`]) included.
//! * [`TcpMesh`] — a connection-per-directed-link mesh: worker *i* dials one
//!   stream to every peer *j* (used only for `i → j` traffic) and accepts
//!   one from every peer (used only for `j → i`). Handshakes carry
//!   `(magic, epoch, from)` so stale connections from a previous membership
//!   epoch are rejected during a rebuild.
//! * [`TcpLinks`] — the `MessageLinks` adapter over a mesh; the worker
//!   bodies run unchanged and count traffic identically, which is what makes
//!   the `tcp_vs_threaded` differential tests meaningful.
//! * [`Registry`] / [`FleetWorker`] — rendezvous and elastic membership: a
//!   registry assigns stable worker ids, runs a per-round barrier, and
//!   renumbers ranks over the *live* membership each round, so workers can
//!   join mid-run (epoch bumps, meshes rebuild, ranks stay dense) as well
//!   as die.
//!
//! ## Registry protocol (framed, one TCP connection per worker)
//!
//! A worker writes the magic `GCSR`, then both ends speak frames whose
//! payload starts with a tag byte ([`RegistryMsg`]); integers are
//! little-endian, `str` is `u16`-length-prefixed UTF-8:
//!
//! | tag | frame | direction | body |
//! |-----|-------|-----------|------|
//! | 0x01 | JOIN | worker → registry | `listen_addr:str` — register; listener already bound |
//! | 0x02 | ID | registry → worker | `worker_id:u64` |
//! | 0x03 | BEGIN | worker → registry | `train_round:u64` — barrier for the next round |
//! | 0x04 | ROUND | registry → worker | `round:u64`, `epoch:u64`, `rank:u64`, `n:u32`, `n × addr:str` |
//! | 0x05 | LEAVE | worker → registry | empty — graceful exit |
//! | 0x06 | BYE | registry → worker | empty |
//!
//! Unknown tags are ignored.
//!
//! The barrier releases when every *live* registered worker has sent
//! `BEGIN`. Deaths are detected by registry-connection EOF (a SIGKILLed
//! process's sockets are closed by the kernel), joins by new `JOIN`s; either
//! changes the member set, which bumps `epoch` at the next release. Ranks
//! are the index of each worker id in the sorted live-id roster — dense,
//! deterministic, and stable for survivors in the common suffix. `round`
//! is the max `train_round` offered at the barrier, so a late joiner
//! (offering 0) adopts the survivors' training clock.
//!
//! Liveness note: a worker killed *between* `BEGIN` and the `ROUND` reply is
//! still included in that release (the registry learns of the death when the
//! reply write fails); the survivors' mesh build then fails, they re-enter
//! the barrier, and the next release excludes the corpse. One wasted round,
//! no deadlock — the chaos and fleet tests pin this.

mod framing;
mod listener;
mod mesh;
mod registry;

use std::sync::{Arc, Mutex};

pub use framing::{push_frame, FramedStream, RecvFail};
pub use gcs_trace::bytes::WireElem;
pub use listener::{serve_metrics, Listener, HTTP_GET};
pub use mesh::{
    decode_elems, decode_elems_into, encode_elems_into, TcpLinks, TcpMesh, DEFAULT_TCP_CHUNK_BYTES,
    DEFAULT_TCP_RECV_DEADLINE,
};
pub use registry::{FleetWorker, Registry, RegistryMsg, RoundStart, TcpTimeouts, REGISTRY_MAGIC};

/// In-process analogue of [`crate::transport::ThreadedCluster`] over real
/// sockets: a registry plus one worker *thread* per rank, each with its own
/// listener, mesh and [`TcpLinks`]. The fast path for differential tests
/// and benches; the multi-process story lives in the `gcs_tcp_worker`
/// binary and `tests/tcp_fleet.rs`.
pub struct TcpCluster;

impl TcpCluster {
    /// Runs `body(rank, links)` on `n` socket-connected worker threads and
    /// returns the outputs in rank order.
    ///
    /// # Panics
    /// Panics if the registry cannot bind, a worker fails rendezvous, or a
    /// worker thread panics.
    pub fn run<T, R, F>(n: usize, body: F) -> Vec<R>
    where
        T: WireElem,
        R: Send + 'static,
        F: Fn(usize, &mut TcpLinks<'_, T>) -> R + Send + Sync + 'static,
    {
        assert!(n > 0, "TcpCluster: n must be positive");
        let registry = Registry::spawn(n).expect("registry bind");
        let addr = registry.addr();
        let body = Arc::new(body);
        let results: Arc<Mutex<Vec<Option<R>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let mut handles = Vec::new();
        for _ in 0..n {
            let body = Arc::clone(&body);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let mut worker =
                    FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("worker join");
                let rs = worker.next_round(0).expect("rendezvous round");
                assert_eq!(rs.n, n, "cluster formed with wrong size");
                let mut links = worker.links::<T>();
                let out = body(rs.rank, &mut links);
                results.lock().expect("results mutex")[rs.rank] = Some(out);
                worker.leave().expect("leave");
            }));
        }
        for h in handles {
            h.join().expect("tcp worker thread panicked");
        }
        registry.shutdown();
        Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("worker results still shared"))
            .into_inner()
            .expect("results mutex")
            .into_iter()
            .map(|r| r.expect("worker produced no result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    use super::*;
    use crate::error::CollectiveError;
    use crate::reduce::F32Sum;
    use crate::transport::MessageLinks;
    use crate::transport::{
        all_gather_worker, broadcast_worker, ring_all_reduce_worker_into, threaded_ring_all_reduce,
    };

    fn bufs(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|w| (0..len).map(|i| ((w * len + i) as f32).sin()).collect())
            .collect()
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let vals = vec![0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::MAX, -1e-37];
        let mut enc = Vec::new();
        encode_elems_into(&vals, &mut enc);
        let dec: Vec<f32> = decode_elems(&enc, 0).expect("aligned payload");
        for (a, b) in vals.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_elems::<f32>(&enc[..enc.len() - 1], 3).is_err());
    }

    #[test]
    fn tcp_ring_all_reduce_matches_threaded_bitwise() {
        for n in [2usize, 3, 5] {
            let inputs = bufs(n, 41);
            let (expect, _) =
                threaded_ring_all_reduce(inputs.clone(), F32Sum, 4.0).expect("threaded");
            let inputs = Arc::new(inputs);
            let results = TcpCluster::run(n, move |rank, links: &mut TcpLinks<'_, f32>| {
                let mut buf = inputs[rank].clone();
                ring_all_reduce_worker_into(links, &mut buf, &F32Sum, 4.0, &mut Vec::new())
                    .map(|(sent, recv)| (buf, sent, recv))
            });
            for (rank, r) in results.into_iter().enumerate() {
                let (buf, sent, recv) = r.expect("healthy tcp cluster");
                assert_eq!(buf, expect[rank], "n={n} rank={rank}");
                assert!(sent > 0 && recv > 0);
            }
        }
    }

    #[test]
    fn tcp_broadcast_and_all_gather_match_reference() {
        let n = 4;
        let payload: Vec<f32> = (0..17).map(|i| (i as f32).cos()).collect();
        let root_payload = payload.clone();
        let results = TcpCluster::run(n, move |rank, links: &mut TcpLinks<'_, f32>| {
            let buf = if rank == 2 {
                root_payload.clone()
            } else {
                Vec::new()
            };
            broadcast_worker(links, buf, 2, 4.0)
        });
        for r in results {
            assert_eq!(r.expect("broadcast").0, payload);
        }

        let inputs = bufs(n, 6);
        let mut reference = Vec::new();
        let mut traffic = crate::ops::Traffic::default();
        crate::ops::all_gather_into(&inputs, 4.0, &mut reference, &mut traffic);
        let inputs = Arc::new(inputs);
        let results = TcpCluster::run(n, move |rank, links: &mut TcpLinks<'_, f32>| {
            all_gather_worker(links, inputs[rank].clone(), 4.0)
        });
        for r in results {
            assert_eq!(r.expect("all-gather").0, reference);
        }
    }

    #[test]
    fn killed_peer_surfaces_typed_error_and_survivors_renumber() {
        let registry = Registry::spawn(3).expect("registry");
        let addr = registry.addr();
        let n = 3;
        let mut handles = Vec::new();
        for _ in 0..n {
            handles.push(std::thread::spawn(move || {
                let mut timeouts = TcpTimeouts::fast_test();
                timeouts.recv = Duration::from_millis(500);
                let mut worker = FleetWorker::join(addr, timeouts).expect("join");
                let rs = worker.next_round(0).expect("round 0");
                if rs.rank == 1 {
                    // Die abruptly: drop everything without LEAVE, like a
                    // SIGKILL (sockets close, registry sees EOF).
                    return (rs.rank, None, 0usize);
                }
                let mut links = worker.links::<f32>();
                let mut buf: Vec<f32> = (0..16).map(|i| (rs.rank * 16 + i) as f32).collect();
                let mut scratch = Vec::new();
                let err =
                    ring_all_reduce_worker_into(&mut links, &mut buf, &F32Sum, 4.0, &mut scratch)
                        .expect_err("dead peer must surface");
                assert!(err.is_peer_failure(), "unexpected error {err:?}");
                // Re-barrier: the registry must renumber the survivors.
                let rs2 = worker.next_round(1).expect("survivor round");
                assert_eq!(rs2.n, 2, "survivors renumbered to n=2");
                assert!(rs2.rebuilt);
                let mut links = worker.links::<f32>();
                let mut out: Vec<f32> = (0..16).map(|i| (rs2.rank * 16 + i) as f32).collect();
                ring_all_reduce_worker_into(&mut links, &mut out, &F32Sum, 4.0, &mut scratch)
                    .expect("survivor ring");
                worker.leave().expect("leave");
                (rs.rank, Some(err), out.len())
            }));
        }
        let mut results: Vec<(usize, Option<CollectiveError>, usize)> = Vec::new();
        for h in handles {
            results.push(h.join().expect("worker thread"));
        }
        registry.shutdown();
        let survivors: Vec<_> = results.iter().filter(|(_, e, _)| e.is_some()).collect();
        assert_eq!(survivors.len(), 2);
        for (_, _, out_len) in survivors {
            assert_eq!(*out_len, 16);
        }
    }

    #[test]
    fn late_joiner_is_admitted_next_round() {
        let registry = Registry::spawn(2).expect("registry");
        let addr = registry.addr();
        // Two founding workers run a round alone, then a third joins.
        let founders: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    let r0 = w.next_round(0).expect("round 0");
                    assert_eq!(r0.n, 2);
                    (w, r0)
                })
            })
            .collect();
        let mut founders: Vec<_> = founders
            .into_iter()
            .map(|h| h.join().expect("founder"))
            .collect();

        // Register the joiner *before* the founders barrier again, so the
        // admission is deterministic (a JOIN races with BEGINs in general;
        // it simply lands at whichever barrier it precedes).
        let late = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join late");
        let joiner = std::thread::spawn(move || {
            let mut w = late;
            let rs = w.next_round(0).expect("joiner round");
            assert_eq!(rs.n, 3, "joiner sees the full fleet");
            assert_eq!(rs.round, 1, "joiner adopts the survivors' clock");
            let mut links = w.links::<f32>();
            let mut out = vec![1.0f32; 8];
            ring_all_reduce_worker_into(&mut links, &mut out, &F32Sum, 4.0, &mut Vec::new())
                .expect("ring");
            w.leave().expect("leave");
            out
        });
        let founder_handles: Vec<_> = founders
            .drain(..)
            .map(|(mut w, _)| {
                std::thread::spawn(move || {
                    let rs = w.next_round(1).expect("round 1");
                    assert_eq!(rs.n, 3, "founder sees the joiner");
                    assert!(rs.rebuilt, "epoch change rebuilds the mesh");
                    let mut links = w.links::<f32>();
                    let mut out = vec![1.0f32; 8];
                    ring_all_reduce_worker_into(
                        &mut links,
                        &mut out,
                        &F32Sum,
                        4.0,
                        &mut Vec::new(),
                    )
                    .expect("ring");
                    w.leave().expect("leave");
                    out
                })
            })
            .collect();
        let mut outs = vec![joiner.join().expect("joiner thread")];
        for h in founder_handles {
            outs.push(h.join().expect("founder thread"));
        }
        registry.shutdown();
        for out in outs {
            assert_eq!(out, vec![3.0f32; 8], "n=3 sum of ones");
        }
    }

    /// Connected localhost socket pair for framing-layer tests.
    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("dial");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn vectored_writer_frames_survive_boundary_sizes() {
        let (a, b) = stream_pair();
        let mut tx = FramedStream::new(a);
        let mut rx = FramedStream::new(b);
        // Sizes straddling the vectored header/payload split and the
        // reader's 64 KiB drain chunk.
        let sizes = [
            0usize,
            1,
            3,
            4,
            4096,
            64 * 1024 - 4,
            64 * 1024,
            64 * 1024 + 5,
        ];
        for &len in &sizes {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            tx.send_frame(&payload).expect("send");
        }
        for &len in &sizes {
            let got = rx.recv_frame(Duration::from_secs(5)).expect("recv");
            assert_eq!(got.len(), len, "frame length must round-trip");
            assert!(got.iter().enumerate().all(|(i, &v)| v == (i % 251) as u8));
        }
    }

    #[test]
    fn truncated_frame_times_out_then_completes() {
        let (mut raw, b) = stream_pair();
        let mut rx = FramedStream::new(b);
        // Header promises 8 bytes; deliver only 3 — the frame must neither
        // be delivered short nor hang forever.
        raw.write_all(&8u32.to_le_bytes()).expect("header");
        raw.write_all(&[1, 2, 3]).expect("partial payload");
        assert!(matches!(
            rx.recv_frame(Duration::from_millis(50)),
            Err(RecvFail::TimedOut)
        ));
        // The partial bytes stay in the reassembly buffer: completing the
        // frame later delivers the original payload intact.
        raw.write_all(&[4, 5, 6, 7, 8]).expect("rest of payload");
        let got = rx
            .recv_frame(Duration::from_secs(5))
            .expect("completed frame");
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn frames_from_a_peer_far_ahead_arrive_intact_in_order() {
        // The sender queues 300 frames before the reader starts, so reads
        // return many frames at once and split others anywhere: consuming
        // advances over whole frames, and a partial one moves to the front
        // of the buffer only when a read needs the room.
        let (a, b) = stream_pair();
        let mut tx = FramedStream::new(a);
        let mut rx = FramedStream::new(b);
        rx.reserve_frames(2048);
        let sizes = |i: usize| (i * 37) % 2049;
        let writer = std::thread::spawn(move || {
            for i in 0..300 {
                let payload: Vec<u8> = (0..sizes(i)).map(|j| (i + j) as u8).collect();
                tx.send_frame(&payload).expect("send");
            }
            tx
        });
        std::thread::sleep(Duration::from_millis(50));
        for i in 0..300 {
            let got = if i % 3 == 0 {
                rx.recv_frame(Duration::from_secs(5)).expect("recv")
            } else {
                loop {
                    match rx.try_recv_frame().expect("poll") {
                        Some(frame) => break frame,
                        None => std::thread::yield_now(),
                    }
                }
            };
            let want: Vec<u8> = (0..sizes(i)).map(|j| (i + j) as u8).collect();
            assert_eq!(got, want, "frame {i}");
        }
        drop(writer.join().expect("writer"));
        assert!(matches!(
            rx.recv_frame(Duration::from_secs(5)),
            Err(RecvFail::Closed)
        ));
    }

    #[test]
    fn cached_read_timeout_never_stretches_a_deadline() {
        let (mut raw, b) = stream_pair();
        let mut rx = FramedStream::new(b);
        // A long deadline, answered: the socket now carries a ~5 s timeout.
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            raw.write_all(&[1, 0, 0, 0, 9]).expect("frame");
            raw
        });
        assert_eq!(
            rx.recv_frame(Duration::from_secs(5)).expect("answered"),
            [9]
        );
        let _raw = sender.join().expect("sender");
        // A short deadline on the now silent peer must not inherit it.
        let t0 = std::time::Instant::now();
        assert!(matches!(
            rx.recv_frame(Duration::from_millis(50)),
            Err(RecvFail::TimedOut)
        ));
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(150),
            "50 ms deadline took {took:?}"
        );
    }

    #[test]
    fn recv_frame_until_sees_stop_within_one_poll_slice() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut raw, b) = stream_pair();
        let mut rx = FramedStream::new(b);
        let stop = Arc::new(AtomicBool::new(false));
        raw.write_all(&[0, 0, 0, 0]).expect("empty frame");
        assert_eq!(
            rx.recv_frame_until(Duration::MAX, &stop).expect("frame"),
            Vec::<u8>::new()
        );
        let setter = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::Relaxed);
            })
        };
        let t0 = std::time::Instant::now();
        assert!(matches!(
            rx.recv_frame_until(Duration::MAX, &stop),
            Err(RecvFail::TimedOut)
        ));
        let took = t0.elapsed();
        setter.join().expect("setter");
        // Set at 50 ms, seen at the end of the 200 ms poll slice it was set
        // in, with 100 ms to spare.
        assert!(
            took < Duration::from_millis(50 + 200 + 100),
            "stop seen after {took:?}"
        );
    }

    #[test]
    fn oversized_frame_length_is_malformed_not_an_allocation() {
        let (mut raw, b) = stream_pair();
        let mut rx = FramedStream::new(b);
        raw.write_all(&u32::MAX.to_le_bytes())
            .expect("bogus header");
        match rx.recv_frame(Duration::from_secs(5)) {
            Err(RecvFail::Malformed(detail)) => {
                assert!(detail.contains("exceeds"), "unexpected detail {detail}")
            }
            Err(_) => panic!("oversized length must be Malformed"),
            Ok(_) => panic!("oversized length must not deliver a frame"),
        }
    }

    #[test]
    fn slice_send_and_recv_into_roundtrip_bitwise() {
        let payload: Vec<f32> = (0..100)
            .map(|i| if i == 7 { f32::NAN } else { (i as f32).sin() })
            .collect();
        let expect = payload.clone();
        let results = TcpCluster::run(2, move |rank, links: &mut TcpLinks<'_, f32>| {
            if rank == 0 {
                links.send_slice(1, &payload).expect("send_slice");
                Vec::new()
            } else {
                let mut out = vec![0.0f32; 100];
                links.recv_into(0, &mut out).expect("recv_into");
                out
            }
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&results[1]), bits(&expect), "NaN bits must survive");
    }

    #[test]
    fn recv_into_length_mismatch_is_protocol_error() {
        let results = TcpCluster::run(2, move |rank, links: &mut TcpLinks<'_, f32>| {
            if rank == 0 {
                links.send_slice(1, &[1.0f32, 2.0]).expect("send_slice");
                None
            } else {
                let mut out = vec![0.0f32; 3];
                Some(links.recv_into(0, &mut out).expect_err("length mismatch"))
            }
        });
        assert!(matches!(
            results[1],
            Some(CollectiveError::Protocol { peer: 0, .. })
        ));
    }

    #[test]
    fn tiny_chunks_keep_ring_bitwise_identical() {
        // Force 2-element chunks so every segment crosses multiple chunk
        // boundaries (len 41 is deliberately not chunk- or n-aligned).
        for n in [2usize, 3] {
            let inputs = bufs(n, 41);
            let (expect, _) =
                threaded_ring_all_reduce(inputs.clone(), F32Sum, 4.0).expect("threaded");
            let inputs = Arc::new(inputs);
            let registry = Registry::spawn(n).expect("registry");
            let addr = registry.addr();
            let mut handles = Vec::new();
            for _ in 0..n {
                let inputs = Arc::clone(&inputs);
                handles.push(std::thread::spawn(move || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    let rs = w.next_round(0).expect("round");
                    w.mesh_mut().set_chunk_bytes(8); // two f32 lanes per frame
                    let mut links = w.links::<f32>();
                    let mut buf = inputs[rs.rank].clone();
                    let (sent, recv) = ring_all_reduce_worker_into(
                        &mut links,
                        &mut buf,
                        &F32Sum,
                        4.0,
                        &mut Vec::new(),
                    )
                    .expect("chunked ring");
                    w.leave().expect("leave");
                    (rs.rank, (buf, sent, recv))
                }));
            }
            let mut results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect();
            registry.shutdown();
            results.sort_by_key(|(rank, _)| *rank);
            for (rank, (buf, sent, recv)) in results {
                assert_eq!(buf, expect[rank], "n={n} rank={rank} under tiny chunks");
                // Traffic is counted per segment, so chunking must not
                // change the accounting either.
                assert!(sent > 0 && recv > 0);
            }
        }
    }

    #[test]
    fn mesh_recv_times_out_on_silent_peer() {
        let results = TcpCluster::run(2, move |rank, links: &mut TcpLinks<'_, f32>| {
            if rank == 0 {
                // Wedge: never send; peer must time out, not hang.
                std::thread::sleep(Duration::from_millis(300));
                Ok(vec![])
            } else {
                links.mesh.set_recv_deadline(Duration::from_millis(50));
                MessageLinks::recv(links, 0)
            }
        });
        assert!(matches!(
            results[1],
            Err(CollectiveError::Timeout { peer: 0, .. })
        ));
    }
}
