//! `FaultyLinks`: a lossy, delaying, crashing wrapper over the threaded
//! transport, with ack-and-resend recovery.
//!
//! ## Protocol
//!
//! Every logical message becomes a sequenced [`Frame::Data`]; the receiver
//! answers each accepted frame with [`Frame::Ack`]. The window is one frame
//! per directed link (stop-and-wait), but the ack wait is *deferred*: a
//! `send` transmits immediately and only settles the *previous* frame to
//! that peer, so the collective's natural send→recv pipelining is preserved
//! and the settle dependency chain terminates at the first frame instead of
//! deadlocking the ring. `flush` settles every outstanding frame before the
//! worker returns.
//!
//! Receivers dedup by sequence number (a retransmitted or duplicated frame
//! whose seq is already consumed is re-acked and discarded), which is what
//! makes recovered executions **bitwise identical** to fault-free ones: the
//! algorithm above the links observes exactly-once, in-order delivery no
//! matter what the plan injected. Both sides retransmit their own unacked
//! frames while waiting (the receiver too — that breaks the mutual-drop
//! stall where both ends of a pair lost their frame and each would otherwise
//! wait for the other), and every wait is bounded by the [`RetryPolicy`]
//! budgets, so a degraded cluster ends in a typed [`CollectiveError`] —
//! never a deadlock.
//!
//! Faults apply to **data frames only**; acks ride unfaulted. Injecting ack
//! loss would add nothing the data-drop path doesn't already exercise
//! (the sender retransmits, the receiver dedups) but would let a sender
//! keep retrying into a peer that already consumed the frame and exited,
//! turning a completed collective into a spurious `PeerLost`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use gcs_collectives::error::CollectiveError;
use gcs_collectives::transport::{MessageLinks, WorkerLinks};

use crate::plan::{FaultPlan, Injection};
use crate::policy::RetryPolicy;

/// Wire format of the faulty transport: sequenced data frames plus acks.
#[derive(Clone, Debug)]
pub enum Frame<T> {
    /// Sequenced payload frame.
    Data {
        /// Per-directed-link sequence number, starting at 0.
        seq: u64,
        /// The logical message.
        payload: Vec<T>,
    },
    /// Acknowledges consumption of `Data { seq }` on the reverse link.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
}

/// The carrier a [`FaultyLinks`] injects faults *over*: anything that can
/// move [`Frame`]s point-to-point with bounded waits. Two implementations:
/// [`WorkerLinks<Frame<T>>`] (in-process channels, the original PR 5 shape)
/// and the TCP carrier in [`crate::tcp`] — so the same fault-injection
/// protocol, and the same chaos suite, runs over real sockets unchanged.
pub trait FrameTransport<T> {
    /// This worker's rank.
    fn rank(&self) -> usize;
    /// Cluster size.
    fn n(&self) -> usize;
    /// Ships one frame to `peer`.
    fn send_frame(&mut self, peer: usize, frame: Frame<T>) -> Result<(), CollectiveError>;
    /// Blocks up to `timeout` for at least one frame from `peer`.
    fn recv_frames(
        &mut self,
        peer: usize,
        timeout: Duration,
    ) -> Result<Vec<Frame<T>>, CollectiveError>;
    /// Non-blocking poll: `Ok(None)` when nothing from `peer` is queued.
    fn try_recv_frames(&mut self, peer: usize) -> Result<Option<Vec<Frame<T>>>, CollectiveError>;
}

impl<T: Send + 'static> FrameTransport<T> for WorkerLinks<Frame<T>> {
    fn rank(&self) -> usize {
        WorkerLinks::rank(self)
    }

    fn n(&self) -> usize {
        WorkerLinks::n(self)
    }

    fn send_frame(&mut self, peer: usize, frame: Frame<T>) -> Result<(), CollectiveError> {
        WorkerLinks::send(self, peer, vec![frame])
    }

    fn recv_frames(
        &mut self,
        peer: usize,
        timeout: Duration,
    ) -> Result<Vec<Frame<T>>, CollectiveError> {
        WorkerLinks::recv_timeout(self, peer, timeout)
    }

    fn try_recv_frames(&mut self, peer: usize) -> Result<Option<Vec<Frame<T>>>, CollectiveError> {
        WorkerLinks::try_recv(self, peer)
    }
}

/// Counters describing what a run injected and how the protocol coped.
/// Deterministic for a given plan and message schedule (latency samples are
/// wall-clock and vary, but the *counts* do not).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Data frames handed to `send` (excluding retransmissions).
    pub frames_sent: u64,
    /// Transmissions suppressed by the plan.
    pub injected_drops: u64,
    /// Transmissions delayed by the plan.
    pub injected_delays: u64,
    /// Transmissions duplicated by the plan.
    pub injected_dups: u64,
    /// Retransmissions performed by the recovery machinery.
    pub retries: u64,
    /// Frames that needed at least one retransmission and were then acked.
    pub recovered_frames: u64,
    /// Link operations that returned a [`CollectiveError`].
    pub aborted_ops: u64,
    /// Injected worker crashes observed (0 or 1 per worker).
    pub crashes: u64,
    /// Duplicate data frames discarded by the receiver's seq discipline.
    pub dups_discarded: u64,
    /// First-send→ack latency of each recovered frame, nanoseconds.
    pub recovery_latency_ns: Vec<u64>,
}

impl FaultStats {
    /// Total faults the plan injected into this worker's transmissions.
    pub fn injected(&self) -> u64 {
        self.injected_drops + self.injected_delays + self.injected_dups + self.crashes
    }

    /// Folds another worker's stats into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.frames_sent += other.frames_sent;
        self.injected_drops += other.injected_drops;
        self.injected_delays += other.injected_delays;
        self.injected_dups += other.injected_dups;
        self.retries += other.retries;
        self.recovered_frames += other.recovered_frames;
        self.aborted_ops += other.aborted_ops;
        self.crashes += other.crashes;
        self.dups_discarded += other.dups_discarded;
        self.recovery_latency_ns
            .extend_from_slice(&other.recovery_latency_ns);
    }
}

/// An unacked data frame awaiting settlement.
struct Pending<T> {
    seq: u64,
    payload: Vec<T>,
    /// Transmissions so far (1 after the initial send).
    attempts: u32,
    first_sent: Instant,
}

/// A worker's faulty view of the cluster: wraps a [`FrameTransport`]
/// carrying [`Frame`]s (in-process channels by default, TCP via
/// [`crate::tcp`]), injects the plan's faults on transmission, and recovers
/// via ack-and-resend under the policy's bounded backoff.
pub struct FaultyLinks<T, R = WorkerLinks<Frame<T>>> {
    inner: R,
    plan: FaultPlan,
    policy: RetryPolicy,
    /// Link operations performed (crash-trigger clock).
    ops: u64,
    crashed: bool,
    /// Next outgoing data seq, per peer.
    send_seq: Vec<u64>,
    /// Next expected incoming data seq, per peer.
    recv_seq: Vec<u64>,
    /// Outstanding unacked frame, per peer (window = 1).
    pending: Vec<Option<Pending<T>>>,
    /// Accepted in-order payloads not yet consumed by `recv`, per peer.
    inbox: Vec<VecDeque<Vec<T>>>,
    /// What happened so far.
    pub stats: FaultStats,
}

impl<T: Clone + Send + 'static, R: FrameTransport<T>> FaultyLinks<T, R> {
    /// Wraps `inner` with the given plan and policy.
    pub fn new(inner: R, plan: FaultPlan, policy: RetryPolicy) -> Self {
        let n = inner.n();
        FaultyLinks {
            inner,
            plan,
            policy,
            ops: 0,
            crashed: false,
            send_seq: vec![0; n],
            recv_seq: vec![0; n],
            pending: (0..n).map(|_| None).collect(),
            inbox: (0..n).map(|_| VecDeque::new()).collect(),
            stats: FaultStats::default(),
        }
    }

    /// Consumes the wrapper, returning its fault statistics.
    pub fn into_stats(self) -> FaultStats {
        self.stats
    }

    /// Advances the crash clock; returns the crash error once triggered.
    fn tick(&mut self) -> Result<(), CollectiveError> {
        let rank = self.inner.rank();
        if self.crashed {
            return Err(CollectiveError::WorkerCrashed { rank });
        }
        self.ops += 1;
        if self.plan.crashes(rank, self.ops) {
            self.crashed = true;
            self.stats.crashes += 1;
            self.stats.aborted_ops += 1;
            return Err(CollectiveError::WorkerCrashed { rank });
        }
        Ok(())
    }

    /// Transmits (or injects a fault into) one copy of a pending frame.
    fn transmit(&mut self, peer: usize) -> Result<(), CollectiveError> {
        let rank = self.inner.rank();
        let p = self.pending[peer]
            .as_mut()
            .expect("transmit without pending");
        let injection = self.plan.injection(rank, peer, p.seq, p.attempts);
        p.attempts += 1;
        let frame = Frame::Data {
            seq: p.seq,
            payload: p.payload.clone(),
        };
        match injection {
            Injection::Drop => {
                self.stats.injected_drops += 1;
                Ok(())
            }
            Injection::Delay(d) => {
                self.stats.injected_delays += 1;
                // Clamp so an injected delay can stretch, but never starve,
                // the ack window (a delay >= the ack timeout would alias
                // into a retransmission storm and hide the delay behavior).
                std::thread::sleep(d.min(self.policy.base_timeout / 4));
                self.send_data(peer, frame)
            }
            Injection::Duplicate => {
                self.stats.injected_dups += 1;
                self.send_data(peer, frame.clone())?;
                self.send_data(peer, frame)
            }
            Injection::Deliver => self.send_data(peer, frame),
        }
    }

    /// Sends a data frame, tolerating the exited-after-acking race: a peer
    /// that finished the collective drops its endpoints, but its buffered
    /// acks stay readable. If the send fails and a buffered ack settles the
    /// pending frame, nothing was actually lost.
    fn send_data(&mut self, peer: usize, frame: Frame<T>) -> Result<(), CollectiveError> {
        match self.inner.send_frame(peer, frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.try_drain(peer)?;
                if self.pending[peer].is_none() {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Non-blocking drain of one peer's channel.
    fn try_drain(&mut self, peer: usize) -> Result<(), CollectiveError> {
        while let Ok(Some(frames)) = self.inner.try_recv_frames(peer) {
            for frame in frames {
                match frame {
                    Frame::Ack { seq } => self.on_ack(peer, seq),
                    Frame::Data { seq, payload } => self.on_data(peer, seq, payload)?,
                }
            }
        }
        Ok(())
    }

    /// Handles an ack from `peer`: settles the matching pending frame,
    /// ignores stale ones (retransmit races ack twice).
    fn on_ack(&mut self, peer: usize, seq: u64) {
        if let Some(p) = &self.pending[peer] {
            if p.seq == seq {
                let p = self.pending[peer].take().expect("checked above");
                if p.attempts > 1 {
                    self.stats.recovered_frames += 1;
                    self.stats
                        .recovery_latency_ns
                        .push(p.first_sent.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    /// Handles a data frame from `peer`: accepts in-order frames (ack +
    /// enqueue), re-acks consumed duplicates, rejects future seqs (window-1
    /// cannot produce them; seeing one is a protocol bug, not a fault).
    fn on_data(&mut self, peer: usize, seq: u64, payload: Vec<T>) -> Result<(), CollectiveError> {
        use std::cmp::Ordering;
        match seq.cmp(&self.recv_seq[peer]) {
            Ordering::Equal => {
                self.recv_seq[peer] += 1;
                // Best-effort ack: a peer that vanished after sending will
                // surface as PeerLost on the next op that truly needs it.
                let _ = self.inner.send_frame(peer, Frame::Ack { seq });
                self.inbox[peer].push_back(payload);
                Ok(())
            }
            Ordering::Less => {
                self.stats.dups_discarded += 1;
                let _ = self.inner.send_frame(peer, Frame::Ack { seq });
                Ok(())
            }
            Ordering::Greater => Err(CollectiveError::Protocol {
                peer,
                detail: format!(
                    "data seq {seq} ahead of expected {} under window-1",
                    self.recv_seq[peer]
                ),
            }),
        }
    }

    /// Drains one incoming frame from `peer` within `timeout`.
    fn pump(&mut self, peer: usize, timeout: Duration) -> Result<(), CollectiveError> {
        let frames = self.inner.recv_frames(peer, timeout)?;
        for frame in frames {
            match frame {
                Frame::Ack { seq } => self.on_ack(peer, seq),
                Frame::Data { seq, payload } => self.on_data(peer, seq, payload)?,
            }
        }
        Ok(())
    }

    /// Non-blocking service pass over every *other* peer's channel: settles
    /// acks, stashes in-order data, re-acks duplicates. This is what keeps a
    /// worker responsive to the whole mesh while it blocks on one peer —
    /// without it, a cycle of workers each waiting on a dropped frame whose
    /// sender is itself blocked would stall until the recv budget expires
    /// (the classic ring livelock under correlated drops). A peer observed
    /// disconnected here is skipped: the loss surfaces on whichever blocking
    /// op actually needs that peer.
    fn drain_others(&mut self, focus: usize) -> Result<(), CollectiveError> {
        let rank = self.inner.rank();
        for p in 0..self.inner.n() {
            if p != rank && p != focus {
                self.try_drain(p)?;
            }
        }
        Ok(())
    }

    /// Retransmits the pending frame to `peer` (if a just-arrived ack
    /// hasn't already settled it), failing once the attempt budget is
    /// exhausted.
    fn retransmit_or_abort(&mut self, peer: usize) -> Result<(), CollectiveError> {
        self.try_drain(peer)?;
        let attempts = match self.pending[peer].as_ref() {
            Some(p) => p.attempts,
            None => return Ok(()), // settled by a buffered ack
        };
        if attempts >= self.policy.max_attempts {
            self.stats.aborted_ops += 1;
            return Err(CollectiveError::Timeout { peer, attempts });
        }
        self.stats.retries += 1;
        self.transmit(peer)
    }

    /// Blocks until the outstanding frame to `peer` (if any) is acked,
    /// retransmitting per policy. Keeps servicing every other peer's
    /// channel while it waits.
    fn settle(&mut self, peer: usize) -> Result<(), CollectiveError> {
        while let Some(p) = &self.pending[peer] {
            let wait = self.policy.timeout(p.attempts.saturating_sub(1));
            let deadline = Instant::now() + wait;
            loop {
                self.drain_others(peer)?;
                if self.pending[peer].is_none() {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    self.retransmit_or_abort(peer)?;
                    break;
                }
                // Cap the blocking slice so side traffic keeps being
                // serviced even while this peer's ack is in flight.
                let slice = (deadline - now).min(self.policy.base_timeout / 2);
                match self.pump(peer, slice) {
                    Ok(()) => {}
                    Err(CollectiveError::Timeout { .. }) => {}
                    Err(e) => {
                        self.stats.aborted_ops += 1;
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
}

impl<T: Clone + Send + 'static, R: FrameTransport<T>> MessageLinks<T> for FaultyLinks<T, R> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    /// Transmits immediately after settling the *previous* frame to this
    /// peer (deferred stop-and-wait; see module docs).
    fn send(&mut self, peer: usize, data: Vec<T>) -> Result<(), CollectiveError> {
        self.tick()?;
        self.settle(peer)?;
        let seq = self.send_seq[peer];
        self.send_seq[peer] += 1;
        self.pending[peer] = Some(Pending {
            seq,
            payload: data,
            attempts: 0,
            first_sent: Instant::now(),
        });
        self.stats.frames_sent += 1;
        self.transmit(peer)
    }

    /// Returns the next in-order message from `peer`, waiting at most the
    /// policy's receive budget. While waiting it services every peer's
    /// channel, and on each silent slice it retransmits *all* of its own
    /// unacked frames — a blocked peer may be waiting on exactly one of
    /// them (mutual-drop and ring-cycle stalls).
    fn recv(&mut self, peer: usize) -> Result<Vec<T>, CollectiveError> {
        self.tick()?;
        let deadline = Instant::now() + self.policy.recv_budget();
        loop {
            self.drain_others(peer)?;
            if let Some(payload) = self.inbox[peer].pop_front() {
                return Ok(payload);
            }
            let now = Instant::now();
            if now >= deadline {
                self.stats.aborted_ops += 1;
                return Err(CollectiveError::Timeout {
                    peer,
                    attempts: self.policy.max_attempts,
                });
            }
            let slice = self.policy.timeout(0).min(deadline - now);
            match self.pump(peer, slice) {
                Ok(()) => {}
                Err(CollectiveError::Timeout { .. }) => {
                    // Nothing arrived in this slice: re-offer every unacked
                    // frame in case a blocked peer is waiting on one.
                    for p in 0..self.inner.n() {
                        if p != self.inner.rank() && self.pending[p].is_some() {
                            self.retransmit_or_abort(p)?;
                        }
                    }
                }
                Err(e) => {
                    self.stats.aborted_ops += 1;
                    return Err(e);
                }
            }
        }
    }

    /// Settles every outstanding frame before the worker returns.
    fn flush(&mut self) -> Result<(), CollectiveError> {
        if self.crashed {
            return Err(CollectiveError::WorkerCrashed {
                rank: self.inner.rank(),
            });
        }
        for peer in 0..self.inner.n() {
            if peer != self.inner.rank() {
                self.settle(peer)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_collectives::transport::ThreadedCluster;

    /// Two workers exchange a message each over a lossy pair; both must
    /// recover and the stats must show the injected drops.
    #[test]
    fn lossy_pair_recovers_via_retransmit() {
        // Seed chosen so at least one first transmission drops (asserted).
        let plan = FaultPlan::lossy(11, 0.5);
        let policy = RetryPolicy::fast_test();
        let cluster: ThreadedCluster<Frame<f32>> = ThreadedCluster::new(2);
        let results = cluster.run(move |rank, links| {
            let mut fl = FaultyLinks::new(links, plan.clone(), policy);
            let peer = 1 - rank;
            fl.send(peer, vec![rank as f32; 8])?;
            let got = fl.recv(peer)?;
            fl.flush()?;
            Ok::<(Vec<f32>, FaultStats), CollectiveError>((got, fl.into_stats()))
        });
        let mut merged = FaultStats::default();
        for (rank, r) in results.into_iter().enumerate() {
            let (got, stats) = r.expect("lossy pair should recover");
            assert_eq!(got, vec![(1 - rank) as f32; 8]);
            merged.merge(&stats);
        }
        assert_eq!(merged.frames_sent, 2);
        assert!(
            merged.injected_drops > 0,
            "plan injected nothing; pick another seed"
        );
        assert!(merged.recovered_frames >= 1);
        assert!(merged.retries >= merged.recovered_frames);
    }

    /// A crashed worker dies with a typed error and its peer times out or
    /// loses the link — nobody panics, nobody hangs.
    #[test]
    fn crash_yields_typed_errors_on_both_sides() {
        let plan = FaultPlan::healthy().with_crash(0, 0);
        let policy = RetryPolicy::fast_test();
        let cluster: ThreadedCluster<Frame<f32>> = ThreadedCluster::new(2);
        let t0 = Instant::now();
        let results = cluster.run(move |rank, links| {
            let mut fl = FaultyLinks::new(links, plan.clone(), policy);
            let peer = 1 - rank;
            fl.send(peer, vec![1.0])?;
            let got = fl.recv(peer)?;
            fl.flush()?;
            Ok::<Vec<f32>, CollectiveError>(got)
        });
        assert_eq!(results[0], Err(CollectiveError::WorkerCrashed { rank: 0 }));
        match &results[1] {
            Err(CollectiveError::Timeout { peer: 0, .. })
            | Err(CollectiveError::PeerLost { peer: 0 }) => {}
            other => panic!("expected timeout/peer-lost, got {other:?}"),
        }
        // Bounded: the survivor gave up within the policy's budgets.
        assert!(t0.elapsed() < policy.recv_budget() + policy.send_budget());
    }

    /// Duplicated frames are consumed exactly once.
    #[test]
    fn duplicates_are_discarded_by_seq_discipline() {
        let plan = FaultPlan {
            seed: 5,
            dup_p: 1.0,
            ..FaultPlan::healthy()
        };
        let policy = RetryPolicy::fast_test();
        let cluster: ThreadedCluster<Frame<f32>> = ThreadedCluster::new(2);
        let results = cluster.run(move |rank, links| {
            let mut fl = FaultyLinks::new(links, plan.clone(), policy);
            let peer = 1 - rank;
            let mut got = Vec::new();
            for k in 0..4 {
                fl.send(peer, vec![(rank * 10 + k) as f32])?;
                got.push(fl.recv(peer)?);
            }
            fl.flush()?;
            Ok::<(Vec<Vec<f32>>, FaultStats), CollectiveError>((got, fl.into_stats()))
        });
        for (rank, r) in results.into_iter().enumerate() {
            let (got, stats) = r.expect("dups must not break delivery");
            let expect: Vec<Vec<f32>> =
                (0..4).map(|k| vec![((1 - rank) * 10 + k) as f32]).collect();
            assert_eq!(got, expect);
            assert_eq!(stats.injected_dups, 4);
            assert_eq!(stats.dups_discarded, 4, "{stats:?}");
        }
    }
}
