//! Message transports: run collective algorithms over real message-passing.
//!
//! [`crate::ops`] implements collectives as array shuffles for speed and
//! determinism. This module provides the *distributed* execution path: each
//! worker is an independent execution context that can only `send`/`recv`
//! typed messages to peers. Two implementations:
//!
//! * [`ThreadedCluster`] — one OS thread per worker, `std::sync::mpsc`
//!   channels as links. This is the "it actually works concurrently" proof:
//!   integration tests assert that a threaded ring all-reduce produces
//!   bit-identical results to the sequential reference.
//! * The sequential reference lives in `ops`; equivalence is the test.
//!
//! Failure semantics: the seed version of this module *panicked* on any
//! peer disconnect, which made degraded-fabric scenarios untestable. Every
//! link operation now returns [`CollectiveError`] instead — a vanished peer
//! surfaces as [`CollectiveError::PeerLost`] on whichever worker observes
//! it first, and the per-op worker functions propagate it. The
//! [`MessageLinks`] trait is the seam the fault-injection layer
//! (`gcs-faults`) plugs into: the same worker bodies run unchanged over
//! healthy [`WorkerLinks`] or a lossy, delaying, crashing wrapper.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::CollectiveError;
use crate::ops::Traffic;
use crate::reduce::ReduceOp;

/// A worker's view of some transport: typed point-to-point links to every
/// peer, with typed failures. Implemented by [`WorkerLinks`] (healthy mpsc
/// mesh) and by `gcs-faults`' `FaultyLinks` (injected delay / drop /
/// duplication / crash with ack-and-resend recovery).
///
/// The per-op worker functions ([`ring_all_reduce_worker_into`],
/// [`broadcast_worker`], [`all_gather_worker`]) are generic over this trait,
/// so a faulty execution runs the *same* algorithm as the reference — which
/// is what makes "recovered run is bitwise-identical" a meaningful test.
pub trait MessageLinks<T> {
    /// This worker's rank.
    fn rank(&self) -> usize;
    /// Number of workers in the cluster.
    fn n(&self) -> usize;
    /// Sends a message to `peer`. May block (e.g. settling delivery of a
    /// previous frame under a reliability protocol).
    fn send(&mut self, peer: usize, data: Vec<T>) -> Result<(), CollectiveError>;
    /// Blocks until a message from `peer` arrives (bounded by the
    /// implementation's timeout discipline, if any).
    fn recv(&mut self, peer: usize) -> Result<Vec<T>, CollectiveError>;
    /// Settles any outstanding delivery guarantees before the worker
    /// returns (no-op for transports with fire-and-forget sends).
    fn flush(&mut self) -> Result<(), CollectiveError> {
        Ok(())
    }
    /// Borrow-based send (ISSUE 9): transmits `data` without taking
    /// ownership. The default routes through the owned [`MessageLinks::send`]
    /// — one clone, exactly what the pre-seam worker bodies paid — so
    /// channel transports and `gcs-faults`' `FaultyLinks` work unchanged.
    /// Byte-oriented transports override this to encode straight from the
    /// caller's slice into persistent scratch (zero allocations per send).
    fn send_slice(&mut self, peer: usize, data: &[T]) -> Result<(), CollectiveError>
    where
        T: Clone,
    {
        self.send(peer, data.to_vec())
    }
    /// Borrow-based receive (ISSUE 9): blocks for one message from `peer`
    /// and decodes it into `out`, which must be exactly the message's
    /// element count (a mismatch is a [`CollectiveError::Protocol`] framing
    /// bug, not a resize request). The default routes through the owned
    /// [`MessageLinks::recv`]; byte-oriented transports override it to
    /// decode in place from their reassembly buffer.
    fn recv_into(&mut self, peer: usize, out: &mut [T]) -> Result<(), CollectiveError>
    where
        T: Clone,
    {
        let data = self.recv(peer)?;
        if data.len() != out.len() {
            return Err(CollectiveError::Protocol {
                peer,
                detail: format!(
                    "recv_into expected {} elements, peer sent {}",
                    out.len(),
                    data.len()
                ),
            });
        }
        out.clone_from_slice(&data);
        Ok(())
    }
    /// Fused receive-and-fold: blocks for one message from `peer` of
    /// exactly `acc.len()` elements (a mismatch is a
    /// [`CollectiveError::Protocol`], as for [`MessageLinks::recv_into`])
    /// and folds it into `acc` with `op`, element by element in ascending
    /// order. The default stages the message in `scratch` (as long as
    /// `acc`) and calls `op.reduce_slice`, so channel and fault transports
    /// keep their exact path; byte-oriented transports override it to fold
    /// straight from the received bytes, leaving `scratch` untouched.
    fn recv_reduce<O: ReduceOp<T>>(
        &mut self,
        peer: usize,
        acc: &mut [T],
        op: &O,
        scratch: &mut [T],
    ) -> Result<(), CollectiveError>
    where
        T: Clone,
    {
        self.recv_into(peer, scratch)?;
        op.reduce_slice(acc, scratch);
        Ok(())
    }
    /// Preferred elements-per-message for pipelined segment streaming.
    /// Worker bodies split larger transfers into messages of at most this
    /// many elements, posting the next message's send while the previous
    /// receive drains — which is what lets reduce compute overlap wire
    /// transfer on a socket transport. The default (`usize::MAX`) disables
    /// chunking: in-process channels gain nothing from it, and the fault
    /// layer's frame protocol keeps its one-message-per-hop shape.
    ///
    /// Both sides of a link derive the chunk count from the same value
    /// (process-wide config) and the same element count, so the frame
    /// sequence always agrees without any length prelude on the wire.
    fn chunk_elems(&self) -> usize {
        usize::MAX
    }
}

/// Default bound on a blocking [`WorkerLinks::recv`]. Generous enough that
/// no healthy in-process collective ever hits it, small enough that a wedged
/// peer (thread alive, never sends) surfaces as a typed
/// [`CollectiveError::Timeout`] instead of hanging the run forever.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// A worker's view of the cluster: typed point-to-point links to every peer.
pub struct WorkerLinks<T> {
    rank: usize,
    n: usize,
    senders: Vec<Sender<Vec<T>>>,
    receivers: Vec<Receiver<Vec<T>>>,
    recv_deadline: Duration,
}

impl<T: Send + 'static> WorkerLinks<T> {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of workers in the cluster.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sends a message to `peer` (non-blocking, unbounded queue).
    ///
    /// Returns [`CollectiveError::PeerLost`] if the peer's receiving end has
    /// been dropped (its thread exited).
    ///
    /// # Panics
    /// Panics if `peer` is this worker or out of range (those are caller
    /// bugs, not runtime fabric conditions).
    pub fn send(&self, peer: usize, data: Vec<T>) -> Result<(), CollectiveError> {
        assert!(peer != self.rank && peer < self.n, "send: bad peer {peer}");
        self.senders[peer]
            .send(data)
            .map_err(|_| CollectiveError::PeerLost { peer })
    }

    /// Blocks until a message from `peer` arrives, bounded by the link's
    /// receive deadline ([`DEFAULT_RECV_DEADLINE`] unless overridden via
    /// [`WorkerLinks::set_recv_deadline`]).
    ///
    /// Returns [`CollectiveError::PeerLost`] if the peer hung up (its
    /// sending end dropped) with no message pending, and
    /// [`CollectiveError::Timeout`] if the peer is still alive but sent
    /// nothing within the deadline — a wedged peer must surface as a typed
    /// error, never as a hung collective.
    ///
    /// # Panics
    /// Panics if `peer` is this worker or out of range.
    pub fn recv(&self, peer: usize) -> Result<Vec<T>, CollectiveError> {
        self.recv_timeout(peer, self.recv_deadline)
    }

    /// Overrides the deadline that bounds blocking [`WorkerLinks::recv`]
    /// calls on this worker's links. Tests use a short deadline to pin the
    /// wedged-peer behaviour without waiting out the generous default.
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.recv_deadline = deadline;
    }

    /// The deadline currently bounding blocking receives.
    pub fn recv_deadline(&self) -> Duration {
        self.recv_deadline
    }

    /// Non-blocking receive: returns `Ok(None)` when no message from `peer`
    /// is queued. A disconnected peer reports [`CollectiveError::PeerLost`];
    /// pollers that merely service side traffic may choose to ignore it and
    /// let a blocking op that *needs* the peer surface the loss.
    ///
    /// # Panics
    /// Panics if `peer` is this worker or out of range.
    pub fn try_recv(&self, peer: usize) -> Result<Option<Vec<T>>, CollectiveError> {
        assert!(peer != self.rank && peer < self.n, "recv: bad peer {peer}");
        match self.receivers[peer].try_recv() {
            Ok(data) => Ok(Some(data)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CollectiveError::PeerLost { peer }),
        }
    }

    /// Like [`WorkerLinks::recv`] but gives up after `timeout`, returning
    /// [`CollectiveError::Timeout`]. The building block of the fault layer's
    /// bounded-wait discipline (no blocking wait in a degraded cluster may
    /// be unbounded, or a crash upstream becomes a deadlock here).
    ///
    /// # Panics
    /// Panics if `peer` is this worker or out of range.
    pub fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Vec<T>, CollectiveError> {
        assert!(peer != self.rank && peer < self.n, "recv: bad peer {peer}");
        self.receivers[peer]
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => CollectiveError::Timeout { peer, attempts: 1 },
                RecvTimeoutError::Disconnected => CollectiveError::PeerLost { peer },
            })
    }
}

impl<T: Send + 'static> MessageLinks<T> for WorkerLinks<T> {
    fn rank(&self) -> usize {
        WorkerLinks::rank(self)
    }

    fn n(&self) -> usize {
        WorkerLinks::n(self)
    }

    fn send(&mut self, peer: usize, data: Vec<T>) -> Result<(), CollectiveError> {
        WorkerLinks::send(self, peer, data)
    }

    fn recv(&mut self, peer: usize) -> Result<Vec<T>, CollectiveError> {
        WorkerLinks::recv(self, peer)
    }
}

/// A cluster of `n` workers connected all-to-all with typed channels.
pub struct ThreadedCluster<T> {
    links: Vec<WorkerLinks<T>>,
}

impl<T: Send + 'static> ThreadedCluster<T> {
    /// Builds the all-to-all channel mesh for `n` workers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> ThreadedCluster<T> {
        assert!(n > 0, "ThreadedCluster: n must be positive");
        // channel[from][to]
        let mut senders: Vec<Vec<Option<Sender<Vec<T>>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Vec<T>>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    let (tx, rx) = channel();
                    senders[from][to] = Some(tx);
                    // receivers indexed by [owner][peer]: owner `to` receives
                    // from peer `from`.
                    receivers[to][from] = Some(rx);
                }
            }
        }
        let links = (0..n)
            .map(|rank| {
                let s: Vec<Sender<Vec<T>>> = senders[rank]
                    .iter_mut()
                    .enumerate()
                    .map(|(to, slot)| {
                        slot.take().unwrap_or_else(|| {
                            // Self-link: a dangling channel never used (send
                            // to self is forbidden by WorkerLinks::send).
                            let (tx, _rx) = channel();
                            let _ = to;
                            tx
                        })
                    })
                    .collect();
                let r: Vec<Receiver<Vec<T>>> = receivers[rank]
                    .iter_mut()
                    .map(|slot| {
                        slot.take().unwrap_or_else(|| {
                            let (_tx, rx) = channel();
                            rx
                        })
                    })
                    .collect();
                WorkerLinks {
                    rank,
                    n,
                    senders: s,
                    receivers: r,
                    recv_deadline: DEFAULT_RECV_DEADLINE,
                }
            })
            .collect();
        ThreadedCluster { links }
    }

    /// Overrides the blocking-receive deadline on every worker's links
    /// (see [`WorkerLinks::set_recv_deadline`]).
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        for links in &mut self.links {
            links.set_recv_deadline(deadline);
        }
    }

    /// Runs `body(rank, links)` on one thread per worker and returns each
    /// worker's output, in rank order. Each worker *owns* its links, so a
    /// worker that returns early (crash, error) drops its endpoints and its
    /// peers observe [`CollectiveError::PeerLost`] instead of hanging.
    ///
    /// # Panics
    /// Propagates any worker panic. (Workers that *fail* should return a
    /// `Result` rather than panic; the chaos suite enforces this.)
    pub fn run<R, F>(self, body: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, WorkerLinks<T>) -> R + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let results: Arc<Mutex<Vec<Option<R>>>> =
            Arc::new(Mutex::new((0..self.links.len()).map(|_| None).collect()));
        let mut handles = Vec::new();
        for links in self.links {
            let body = Arc::clone(&body);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let rank = links.rank();
                let out = body(rank, links);
                results.lock().expect("results mutex poisoned")[rank] = Some(out);
            }));
        }
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("worker results still shared"))
            .into_inner()
            .expect("results mutex poisoned")
            .into_iter()
            .map(|r| r.expect("worker produced no result"))
            .collect()
    }
}

/// How many messages a transfer of `len` elements becomes under `chunk`.
/// Zero-length transfers still cost one (empty) message, preserving the
/// per-hop frame count of the unchunked algorithm.
fn chunk_count(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk).max(1)
}

/// Ring all-reduce executed by one worker over message-passing links:
/// reduces `buf` in place and returns this worker's traffic counts
/// `(bytes_sent, bytes_received)` or the first [`CollectiveError`] the
/// transport surfaced. `scratch` is the caller-owned staging space of the
/// default [`MessageLinks::recv_reduce`] (sized once to the largest
/// segment; no heap traffic at steady state when it is reused across
/// rounds).
///
/// Segments stream through the borrow-based [`MessageLinks::send_slice`]
/// entry point in chunks of at most [`MessageLinks::chunk_elems`]
/// elements, with chunk `c`'s send posted before chunk `c`'s receive is
/// drained — the pipelining that lets reduce compute overlap wire transfer
/// on a socket transport. A reduce-scatter chunk is received and folded
/// into `buf` in one step ([`MessageLinks::recv_reduce`]: over TCP, straight
/// from the bytes in the link's reassembly buffer); an all-gather chunk is
/// decoded straight into its final position in `buf`
/// ([`MessageLinks::recv_into`]).
///
/// Bitwise identity with the unchunked algorithm holds because chunking
/// never reorders anything: chunks of a segment are sent, received and
/// reduced in ascending offset order over a FIFO link, and the fold is
/// elementwise in ascending order, so the per-element fold order is exactly
/// that of [`crate::ops::ring_all_reduce_into`]. Traffic is counted per
/// segment (not per chunk), so `(sent, received)` match the channel
/// transport exactly — the differential suite's accounting identity.
pub fn ring_all_reduce_worker_into<T, O, L>(
    links: &mut L,
    buf: &mut [T],
    op: &O,
    bytes_per_elem: f64,
    scratch: &mut Vec<T>,
) -> Result<(u64, u64), CollectiveError>
where
    T: Clone,
    O: ReduceOp<T>,
    L: MessageLinks<T>,
{
    let n = links.n();
    let i = links.rank();
    let len = buf.len();
    let mut sent = 0u64;
    let mut received = 0u64;
    if n == 1 || len == 0 {
        return Ok((0, 0));
    }
    let seg_bounds = |seg: usize| crate::ops::segment_bounds(len, n, seg);
    let next = (i + 1) % n;
    let prev = (i + n - 1) % n;
    let chunk = links.chunk_elems().max(1);
    // Size the staging buffer to the largest segment once; the default
    // recv_reduce overwrites every element it stages, so stale contents are
    // harmless.
    let max_seg = len / n + usize::from(!len.is_multiple_of(n));
    if scratch.len() < max_seg {
        scratch.resize(max_seg, buf[0].clone());
    }

    // Reduce-scatter.
    for k in 0..n - 1 {
        let (slo, shi) = seg_bounds((i + n - k) % n);
        let (rlo, rhi) = seg_bounds((prev + n - k) % n);
        let (send_chunks, recv_chunks) =
            (chunk_count(shi - slo, chunk), chunk_count(rhi - rlo, chunk));
        for c in 0..send_chunks.max(recv_chunks) {
            if c < send_chunks {
                let lo = slo + c * chunk;
                let hi = shi.min(lo.saturating_add(chunk));
                links.send_slice(next, &buf[lo..hi])?;
            }
            if c < recv_chunks {
                let o0 = c * chunk;
                let o1 = (rhi - rlo).min(o0.saturating_add(chunk));
                links.recv_reduce(prev, &mut buf[rlo + o0..rlo + o1], op, &mut scratch[o0..o1])?;
            }
        }
        sent += ((shi - slo) as f64 * bytes_per_elem).ceil() as u64;
        received += ((rhi - rlo) as f64 * bytes_per_elem).ceil() as u64;
    }
    // All-gather: received chunks decode straight into their final position.
    for k in 0..n - 1 {
        let (slo, shi) = seg_bounds((i + 1 + n - k) % n);
        let (rlo, rhi) = seg_bounds((prev + 1 + n - k) % n);
        let (send_chunks, recv_chunks) =
            (chunk_count(shi - slo, chunk), chunk_count(rhi - rlo, chunk));
        for c in 0..send_chunks.max(recv_chunks) {
            if c < send_chunks {
                let lo = slo + c * chunk;
                let hi = shi.min(lo.saturating_add(chunk));
                links.send_slice(next, &buf[lo..hi])?;
            }
            if c < recv_chunks {
                let lo = rlo + c * chunk;
                let hi = rhi.min(lo.saturating_add(chunk));
                links.recv_into(prev, &mut buf[lo..hi])?;
            }
        }
        sent += ((shi - slo) as f64 * bytes_per_elem).ceil() as u64;
        received += ((rhi - rlo) as f64 * bytes_per_elem).ceil() as u64;
    }
    links.flush()?;
    Ok((sent, received))
}

/// Broadcast executed by one worker: the root sends its buffer to every
/// peer (ascending rank order), everyone else receives from the root:
/// every worker returns the root's buffer.
pub fn broadcast_worker<T, L>(
    links: &mut L,
    buf: Vec<T>,
    root: usize,
    bytes_per_elem: f64,
) -> Result<(Vec<T>, u64, u64), CollectiveError>
where
    T: Clone + Send + 'static,
    L: MessageLinks<T>,
{
    let n = links.n();
    let i = links.rank();
    assert!(root < n, "broadcast_worker: root {root} out of range");
    if n == 1 {
        return Ok((buf, 0, 0));
    }
    let bytes = (buf.len() as f64 * bytes_per_elem).ceil() as u64;
    if i == root {
        for peer in 0..n {
            if peer != root {
                links.send_slice(peer, &buf)?;
            }
        }
        links.flush()?;
        Ok((buf, bytes * (n as u64 - 1), 0))
    } else {
        let data = links.recv(root)?;
        let bytes = (data.len() as f64 * bytes_per_elem).ceil() as u64;
        links.flush()?;
        Ok((data, 0, bytes))
    }
}

/// All-gather executed by one worker: sends its buffer to every peer and
/// returns the concatenation of all workers' buffers in rank order —
/// matching [`crate::ops::all_gather_into`]'s output exactly.
pub fn all_gather_worker<T, L>(
    links: &mut L,
    buf: Vec<T>,
    bytes_per_elem: f64,
) -> Result<(Vec<T>, u64, u64), CollectiveError>
where
    T: Clone + Send + 'static,
    L: MessageLinks<T>,
{
    let n = links.n();
    let i = links.rank();
    if n == 1 {
        return Ok((buf, 0, 0));
    }
    let own_bytes = (buf.len() as f64 * bytes_per_elem).ceil() as u64;
    let mut sent = 0u64;
    let mut received = 0u64;
    // Push to peers in ring order starting after self (spreads instantaneous
    // fan-in across the mesh; delivery order per pair is what matters).
    for k in 1..n {
        let peer = (i + k) % n;
        links.send_slice(peer, &buf)?;
        sent += own_bytes;
    }
    let mut parts: Vec<Option<Vec<T>>> = (0..n).map(|_| None).collect();
    parts[i] = Some(buf);
    for k in 1..n {
        let peer = (i + k) % n;
        let data = links.recv(peer)?;
        received += (data.len() as f64 * bytes_per_elem).ceil() as u64;
        parts[peer] = Some(data);
    }
    links.flush()?;
    let mut out = Vec::new();
    for p in parts {
        out.extend(p.expect("all parts present"));
    }
    Ok((out, sent, received))
}

/// Convenience: runs a full threaded ring all-reduce over the given worker
/// buffers, returning each worker's reduced buffer plus aggregate traffic,
/// or the first worker error (lowest rank) on a degraded cluster.
pub fn threaded_ring_all_reduce<T, O>(
    bufs: Vec<Vec<T>>,
    op: O,
    bytes_per_elem: f64,
) -> Result<(Vec<Vec<T>>, Traffic), CollectiveError>
where
    T: Clone + Send + 'static,
    O: ReduceOp<T> + Send + Sync + Clone + 'static,
{
    let _span = gcs_trace::span(gcs_trace::Phase::Network, "threaded_ring_all_reduce");
    let n = bufs.len();
    let cluster: ThreadedCluster<T> = ThreadedCluster::new(n);
    let bufs = Arc::new(Mutex::new(
        bufs.into_iter().map(Some).collect::<Vec<Option<Vec<T>>>>(),
    ));
    let bufs_for_run = Arc::clone(&bufs);
    let results = cluster.run(move |rank, mut links| {
        let mut buf = bufs_for_run.lock().expect("buffer mutex poisoned")[rank]
            .take()
            .expect("buffer taken twice");
        ring_all_reduce_worker_into(&mut links, &mut buf, &op, bytes_per_elem, &mut Vec::new())
            .map(|(sent, received)| (buf, sent, received))
    });
    let mut traffic = Traffic {
        sent: vec![0; n],
        received: vec![0; n],
        steps: 2 * (n as u32).saturating_sub(2) + 2,
    };
    let mut out = Vec::with_capacity(n);
    for (rank, result) in results.into_iter().enumerate() {
        let (buf, s, r) = result?;
        traffic.sent[rank] = s;
        traffic.received[rank] = r;
        out.push(buf);
    }
    gcs_trace::counter("wire_bytes", traffic.total() as f64);
    Ok((out, traffic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::F32Sum;

    #[test]
    fn threaded_matches_sequential_reference() {
        for n in [2usize, 3, 4, 6] {
            let bufs: Vec<Vec<f32>> = (0..n)
                .map(|w| (0..37).map(|i| ((w * 37 + i) as f32).sin()).collect())
                .collect();
            let mut reference = bufs.clone();
            crate::ops::ring_all_reduce_into(
                &mut reference,
                &F32Sum,
                4.0,
                &mut crate::ops::RingScratch::new(),
                &mut Traffic::default(),
            );
            let (threaded, traffic) =
                threaded_ring_all_reduce(bufs, F32Sum, 4.0).expect("healthy cluster");
            for (t, r) in threaded.iter().zip(&reference) {
                assert_eq!(t, r, "n={n}: threaded != sequential");
            }
            assert_eq!(traffic.sent.len(), n);
            assert!(traffic.sent.iter().all(|&s| s > 0));
        }
    }

    #[test]
    fn single_worker_is_identity() {
        let bufs = vec![vec![1.0f32, 2.0, 3.0]];
        let (out, traffic) =
            threaded_ring_all_reduce(bufs.clone(), F32Sum, 4.0).expect("healthy cluster");
        assert_eq!(out, bufs);
        assert_eq!(traffic.total(), 0);
    }

    #[test]
    fn links_reject_self_send() {
        let cluster: ThreadedCluster<f32> = ThreadedCluster::new(2);
        let results = cluster.run(|rank, links| {
            if rank == 0 {
                links.send(1, vec![1.0]).expect("peer alive");
                0usize
            } else {
                links.recv(0).expect("peer alive").len()
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn threaded_broadcast_matches_reference() {
        let n = 4;
        let payload: Vec<f32> = (0..13).map(|i| (i as f32).cos()).collect();
        let cluster: ThreadedCluster<f32> = ThreadedCluster::new(n);
        let root_payload = payload.clone();
        let results = cluster.run(move |rank, mut links| {
            let buf = if rank == 1 {
                root_payload.clone()
            } else {
                Vec::new()
            };
            broadcast_worker(&mut links, buf, 1, 4.0)
        });
        for r in results {
            let (buf, _, _) = r.expect("healthy cluster");
            assert_eq!(buf, payload);
        }
    }

    #[test]
    fn threaded_all_gather_matches_reference() {
        let n = 3;
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|w| (0..5).map(|i| (w * 5 + i) as f32).collect())
            .collect();
        let mut reference = Vec::new();
        crate::ops::all_gather_into(&inputs, 4.0, &mut reference, &mut Traffic::default());
        let cluster: ThreadedCluster<f32> = ThreadedCluster::new(n);
        let inputs_for_run = inputs.clone();
        let results = cluster.run(move |rank, mut links| {
            all_gather_worker(&mut links, inputs_for_run[rank].clone(), 4.0)
        });
        for r in results {
            let (buf, _, _) = r.expect("healthy cluster");
            assert_eq!(buf, reference);
        }
    }

    /// Regression (ISSUE 5 satellite): a worker that disappears before the
    /// collective must surface as `CollectiveError::PeerLost` on the
    /// survivors — never a panic, never a hang. The seed code panicked here
    /// with "peer disconnected during collective".
    #[test]
    fn dropped_worker_surfaces_peer_lost_not_panic() {
        let n = 3;
        let cluster: ThreadedCluster<f32> = ThreadedCluster::new(n);
        let results = cluster.run(move |rank, mut links| {
            if rank == 0 {
                // Simulated pre-collective death: drop all links immediately.
                return Err(CollectiveError::WorkerCrashed { rank });
            }
            let mut buf: Vec<f32> = (0..24).map(|i| (rank * 24 + i) as f32).collect();
            ring_all_reduce_worker_into(&mut links, &mut buf, &F32Sum, 4.0, &mut Vec::new())
                .map(|_| ())
        });
        assert_eq!(results[0], Err(CollectiveError::WorkerCrashed { rank: 0 }));
        for (rank, r) in results.iter().enumerate().skip(1) {
            match r {
                Err(CollectiveError::PeerLost { .. }) => {}
                other => panic!("worker {rank}: expected PeerLost, got {other:?}"),
            }
        }
    }

    /// Regression (ISSUE 7 satellite): a *wedged* peer — thread alive,
    /// links held open, but never sending — used to hang `recv` forever
    /// because the blocking path had no deadline. It must now surface as a
    /// typed `CollectiveError::Timeout` within the configured deadline.
    #[test]
    fn wedged_peer_surfaces_timeout_not_hang() {
        use std::sync::mpsc::channel;
        let mut cluster: ThreadedCluster<f32> = ThreadedCluster::new(2);
        cluster.set_recv_deadline(Duration::from_millis(30));
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Mutex::new(Some(release_rx));
        let results = cluster.run(move |rank, mut links| {
            if rank == 0 {
                // Wedge: keep the links alive (so no PeerLost fires) and
                // send nothing until the peer has had time to give up.
                let rx = release_rx
                    .lock()
                    .expect("release rx lock")
                    .take()
                    .expect("single wedged worker");
                let _ = rx.recv_timeout(Duration::from_secs(5));
                Ok(vec![])
            } else {
                let out = MessageLinks::recv(&mut links, 0);
                let _ = release_tx.send(());
                out
            }
        });
        assert!(
            matches!(results[1], Err(CollectiveError::Timeout { peer: 0, .. })),
            "expected Timeout from a wedged peer, got {:?}",
            results[1]
        );
    }

    #[test]
    fn recv_timeout_times_out_on_silent_peer() {
        let cluster: ThreadedCluster<f32> = ThreadedCluster::new(2);
        let results = cluster.run(|rank, links| {
            if rank == 0 {
                // Never sends; peer 1 must time out rather than hang.
                std::thread::sleep(Duration::from_millis(20));
                Ok(vec![])
            } else {
                links.recv_timeout(0, Duration::from_millis(5))
            }
        });
        assert!(matches!(
            results[1],
            Err(CollectiveError::Timeout { peer: 0, .. })
        ));
    }
}
