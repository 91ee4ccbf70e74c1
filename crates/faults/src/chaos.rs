//! Chaos harness: run real collectives over a faulty fabric and compare
//! against the sequential reference.
//!
//! This is the executable form of the layer's central claim: for any
//! recoverable [`FaultPlan`], a collective over [`FaultyLinks`] returns
//! **bitwise-identical** results to the fault-free reference in
//! `gcs-collectives::ops`, and for any unrecoverable plan it returns a typed
//! [`CollectiveError`] in bounded time — never a panic, never a deadlock.
//! The proptest suite in `tests/chaos_collectives.rs` drives this harness
//! over randomized (seed, plan, op) triples and pins one canned plan.

use std::sync::{Arc, Mutex};

use gcs_collectives::error::CollectiveError;
use gcs_collectives::reduce::F32Sum;
use gcs_collectives::tcp::{FleetWorker, Registry, TcpTimeouts};
use gcs_collectives::transport::{
    all_gather_worker, broadcast_worker, ring_all_reduce_worker_into, MessageLinks, ThreadedCluster,
};
use gcs_collectives::{all_gather_into, ring_all_reduce_into, RingScratch, Traffic};

use crate::links::{FaultStats, FaultyLinks, Frame};
use crate::plan::FaultPlan;
use crate::policy::RetryPolicy;
use crate::tcp::TcpFrameLinks;

/// Which collective a chaos run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosOp {
    /// Ring all-reduce with exact f32 summation.
    Ring,
    /// Broadcast from the given root.
    Broadcast {
        /// Root rank.
        root: usize,
    },
    /// All-gather (concatenation in rank order).
    AllGather,
}

/// Everything a chaos run produced: per-worker results plus merged stats.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Per-worker result, in rank order.
    pub results: Vec<Result<Vec<f32>, CollectiveError>>,
    /// Fault statistics merged across all workers.
    pub stats: FaultStats,
}

impl ChaosOutcome {
    /// True if every worker completed the collective.
    pub fn recovered(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Number of workers that returned an error.
    pub fn aborted_workers(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// Fault-free reference output for `op` over `inputs`: what every worker
/// must hold after a successful collective, in rank order.
pub fn reference(op: ChaosOp, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    match op {
        ChaosOp::Ring => {
            let mut bufs = inputs.to_vec();
            let (scratch, traffic) = (&mut RingScratch::new(), &mut Traffic::default());
            ring_all_reduce_into(&mut bufs, &F32Sum, 4.0, scratch, traffic);
            bufs
        }
        ChaosOp::Broadcast { root } => vec![inputs[root].clone(); inputs.len()],
        ChaosOp::AllGather => {
            let mut out = Vec::new();
            all_gather_into(inputs, 4.0, &mut out, &mut Traffic::default());
            vec![out; inputs.len()]
        }
    }
}

/// Runs `op`'s worker body over any [`MessageLinks`] — the shared core of
/// the channel and socket chaos harnesses.
fn run_op<L: MessageLinks<f32>>(
    op: ChaosOp,
    links: &mut L,
    mut buf: Vec<f32>,
) -> Result<Vec<f32>, CollectiveError> {
    match op {
        ChaosOp::Ring => {
            ring_all_reduce_worker_into(links, &mut buf, &F32Sum, 4.0, &mut Vec::new()).map(|_| buf)
        }
        ChaosOp::Broadcast { root } => broadcast_worker(links, buf, root, 4.0).map(|(b, _, _)| b),
        ChaosOp::AllGather => all_gather_worker(links, buf, 4.0).map(|(b, _, _)| b),
    }
}

/// Runs `op` over a threaded cluster whose every link is wrapped in
/// [`FaultyLinks`] under `plan`/`policy`, merges per-worker stats, and
/// exports the `faults/*` counters to `gcs-metrics`.
pub fn run_chaos(
    op: ChaosOp,
    inputs: Vec<Vec<f32>>,
    plan: FaultPlan,
    policy: RetryPolicy,
) -> ChaosOutcome {
    let n = inputs.len();
    if let ChaosOp::Broadcast { root } = op {
        assert!(root < n, "run_chaos: root {root} out of range for n={n}");
    }
    let cluster: ThreadedCluster<Frame<f32>> = ThreadedCluster::new(n);
    let worker_results = cluster.run(move |rank, links| {
        let mut fl = FaultyLinks::new(links, plan.clone(), policy);
        let buf = inputs[rank].clone();
        let result = run_op(op, &mut fl, buf);
        (result, fl.into_stats())
    });
    let mut stats = FaultStats::default();
    let mut results = Vec::with_capacity(n);
    for (r, s) in worker_results {
        stats.merge(&s);
        results.push(r);
    }
    export_metrics(&stats, results.iter().filter(|r| r.is_err()).count());
    ChaosOutcome { results, stats }
}

/// [`run_chaos`] over real sockets: the same fault plan, policy, and worker
/// bodies, but every link is a TCP connection ([`TcpFrameLinks`] over a
/// registry-rendezvoused mesh). A worker that crashes (injected
/// `WorkerCrashed`) returns early and *drops its sockets* — so its peers
/// observe the loss the way a real fleet would (reset/EOF), not through a
/// shared-memory side channel. The chaos suite runs both harnesses and
/// asserts identical recovery semantics.
pub fn run_chaos_tcp(
    op: ChaosOp,
    inputs: Vec<Vec<f32>>,
    plan: FaultPlan,
    policy: RetryPolicy,
) -> ChaosOutcome {
    let n = inputs.len();
    if let ChaosOp::Broadcast { root } = op {
        assert!(
            root < n,
            "run_chaos_tcp: root {root} out of range for n={n}"
        );
    }
    let registry = Registry::spawn(n).expect("chaos registry bind");
    let addr = registry.addr();
    type WorkerSlot = Option<(Result<Vec<f32>, CollectiveError>, FaultStats)>;
    let inputs = Arc::new(inputs);
    let slots: Arc<Mutex<Vec<WorkerSlot>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let mut handles = Vec::new();
    for _ in 0..n {
        let inputs = Arc::clone(&inputs);
        let slots = Arc::clone(&slots);
        let plan = plan.clone();
        handles.push(std::thread::spawn(move || {
            let mut worker =
                FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("chaos worker join");
            let rs = worker.next_round(0).expect("chaos rendezvous");
            let mut fl =
                FaultyLinks::new(TcpFrameLinks::<f32>::new(worker.mesh_mut()), plan, policy);
            let result = run_op(op, &mut fl, inputs[rs.rank].clone());
            let stats = fl.into_stats();
            slots.lock().expect("chaos slots")[rs.rank] = Some((result, stats));
            // Graceful workers deregister; crashed/errored ones just drop
            // (sockets close, registry sees EOF) — like a real process exit.
            let _ = worker.leave();
        }));
    }
    for h in handles {
        h.join().expect("chaos tcp worker panicked");
    }
    registry.shutdown();
    let worker_results = Arc::try_unwrap(slots)
        .unwrap_or_else(|_| panic!("chaos slots still shared"))
        .into_inner()
        .expect("chaos slots");
    let mut stats = FaultStats::default();
    let mut results = Vec::with_capacity(n);
    for slot in worker_results {
        let (r, s) = slot.expect("chaos worker produced no result");
        stats.merge(&s);
        results.push(r);
    }
    export_metrics(&stats, results.iter().filter(|r| r.is_err()).count());
    ChaosOutcome { results, stats }
}

/// Publishes `faults/*` counters and recovery-latency samples for one run.
pub fn export_metrics(stats: &FaultStats, aborted_workers: usize) {
    gcs_metrics::counter_add("faults/injected_total", stats.injected() as f64);
    gcs_metrics::counter_add("faults/retried_total", stats.retries as f64);
    gcs_metrics::counter_add("faults/recovered_total", stats.recovered_frames as f64);
    gcs_metrics::counter_add("faults/aborted_total", aborted_workers as f64);
    gcs_metrics::counter_add("faults/crashed_total", stats.crashes as f64);
    for &ns in &stats.recovery_latency_ns {
        gcs_metrics::observe("faults/recovery_latency_ns", ns as f64);
    }
}

/// Deterministic per-worker input buffers for chaos runs.
pub fn canned_inputs(n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| (0..len).map(|i| ((w * len + i) as f32).sin()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Healthy plan: all three collectives bitwise-match the reference and
    /// inject nothing.
    #[test]
    fn healthy_chaos_is_bitwise_identical() {
        for op in [
            ChaosOp::Ring,
            ChaosOp::Broadcast { root: 1 },
            ChaosOp::AllGather,
        ] {
            let inputs = canned_inputs(4, 23);
            let expect = reference(op, &inputs);
            let outcome = run_chaos(op, inputs, FaultPlan::healthy(), RetryPolicy::fast_test());
            assert!(outcome.recovered(), "{op:?}: {:?}", outcome.results);
            assert_eq!(outcome.stats.injected(), 0);
            for (rank, r) in outcome.results.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap(), &expect[rank], "{op:?} rank {rank}");
            }
        }
    }

    /// Degraded-but-recoverable plan: recovery is exact, and the stats show
    /// the protocol actually worked for its result.
    #[test]
    fn degraded_ring_recovers_bitwise() {
        let inputs = canned_inputs(4, 31);
        let expect = reference(ChaosOp::Ring, &inputs);
        let plan = FaultPlan::degraded(99, 0.2, 0.1, 0.1);
        let outcome = run_chaos(ChaosOp::Ring, inputs, plan, RetryPolicy::fast_test());
        assert!(outcome.recovered(), "{:?}", outcome.results);
        for (rank, r) in outcome.results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &expect[rank], "rank {rank}");
        }
        assert!(outcome.stats.injected() > 0, "plan injected nothing");
        assert!(
            outcome.stats.injected_drops == 0 || outcome.stats.recovered_frames > 0,
            "drops happened but nothing recovered: {:?}",
            outcome.stats
        );
    }

    /// Crash plan: the crashed rank reports `WorkerCrashed`, survivors get
    /// typed peer-failure errors, and the `aborted` count is honest.
    #[test]
    fn crashed_ring_aborts_with_typed_errors() {
        let inputs = canned_inputs(3, 17);
        let plan = FaultPlan::healthy().with_crash(1, 2);
        let outcome = run_chaos(ChaosOp::Ring, inputs, plan, RetryPolicy::fast_test());
        assert!(!outcome.recovered());
        assert_eq!(outcome.stats.crashes, 1);
        assert!(matches!(
            outcome.results[1],
            Err(CollectiveError::WorkerCrashed { rank: 1 })
        ));
        for (rank, r) in outcome.results.iter().enumerate() {
            if rank != 1 {
                if let Err(e) = r {
                    assert!(
                        e.is_peer_failure(),
                        "rank {rank}: expected peer failure, got {e:?}"
                    );
                }
            }
        }
        assert!(outcome.aborted_workers() >= 1);
    }

    /// The socket harness obeys the same contract as the channel harness:
    /// recoverable plans recover bitwise, crash plans end in typed errors.
    #[test]
    fn tcp_chaos_matches_channel_semantics() {
        let inputs = canned_inputs(3, 19);
        let expect = reference(ChaosOp::Ring, &inputs);
        let plan = FaultPlan::degraded(41, 0.15, 0.1, 0.1);
        let outcome = run_chaos_tcp(
            ChaosOp::Ring,
            inputs.clone(),
            plan,
            RetryPolicy::fast_test(),
        );
        assert!(outcome.recovered(), "{:?}", outcome.results);
        for (rank, r) in outcome.results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &expect[rank], "rank {rank}");
        }

        let plan = FaultPlan::healthy().with_crash(1, 2);
        let outcome = run_chaos_tcp(ChaosOp::Ring, inputs, plan, RetryPolicy::fast_test());
        assert!(!outcome.recovered());
        assert_eq!(outcome.stats.crashes, 1);
        assert!(matches!(
            outcome.results[1],
            Err(CollectiveError::WorkerCrashed { rank: 1 })
        ));
        for (rank, r) in outcome.results.iter().enumerate() {
            if rank != 1 {
                if let Err(e) = r {
                    assert!(e.is_peer_failure(), "rank {rank}: {e:?}");
                }
            }
        }
    }
}
