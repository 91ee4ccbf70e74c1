//! Chaos/differential suite for the fault-injection layer (ISSUE 5
//! satellite 1).
//!
//! Property, over randomized `(seed, fault plan, collective op)` triples:
//!
//! * a faulty run whose recovery machinery succeeds is **bitwise identical**
//!   to the fault-free sequential reference;
//! * an unrecoverable plan surfaces as a typed `CollectiveError` on every
//!   affected worker — never a panic, never a deadlock (each case runs
//!   under a wall-clock watchdog).

use std::time::{Duration, Instant};

use gradient_utility::collectives::CollectiveError;
use gradient_utility::faults::chaos::reference;
use gradient_utility::faults::{run_chaos, ChaosOp, ChaosOutcome, FaultPlan, RetryPolicy};
use proptest::prelude::*;

/// Deterministic per-worker buffers, varied by seed so every case reduces
/// different data.
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

fn op_from(idx: usize, n: usize, root: usize) -> ChaosOp {
    match idx % 3 {
        0 => ChaosOp::Ring,
        1 => ChaosOp::Broadcast { root: root % n },
        _ => ChaosOp::AllGather,
    }
}

/// Runs one chaos case under a hard wall-clock bound. A case that exceeds
/// the bound is a liveness bug (deadlock/livelock) and fails loudly.
fn bounded_chaos(
    op: ChaosOp,
    bufs: Vec<Vec<f32>>,
    plan: FaultPlan,
    bound: Duration,
) -> ChaosOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(run_chaos(op, bufs, plan, RetryPolicy::fast_test()));
    });
    match rx.recv_timeout(bound) {
        Ok(outcome) => {
            let _ = handle.join();
            outcome
        }
        Err(_) => panic!("chaos case exceeded {bound:?} — deadlock or livelock under faults"),
    }
}

/// Generous liveness bound: every link op is bounded by the policy budgets,
/// so even a fully degraded cluster must resolve well inside this.
fn case_bound() -> Duration {
    let p = RetryPolicy::fast_test();
    p.recv_budget() * 24 + Duration::from_secs(5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recoverable plans (lossy/delaying/duplicating links, no crash):
    /// every worker must finish with output bitwise-equal to the fault-free
    /// reference, and when the plan actually dropped frames the stats must
    /// show the retry machinery doing the recovering.
    #[test]
    fn recovered_runs_are_bitwise_identical(
        seed in 0u64..1_000_000,
        n in 2usize..6,
        len in 1usize..48,
        op_idx in 0usize..3,
        root in 0usize..6,
        drop_p in 0.0f64..0.25,
        delay_p in 0.0f64..0.2,
        dup_p in 0.0f64..0.2,
    ) {
        let op = op_from(op_idx, n, root);
        let bufs = inputs(n, len, seed);
        let expect = reference(op, &bufs);
        let plan = FaultPlan::degraded(seed, drop_p, delay_p, dup_p);
        let outcome = bounded_chaos(op, bufs, plan, case_bound());
        prop_assert!(
            outcome.recovered(),
            "recoverable plan failed (seed {seed}, {op:?}): {:?}",
            outcome.results
        );
        for (rank, r) in outcome.results.iter().enumerate() {
            prop_assert_eq!(
                r.as_ref().unwrap(),
                &expect[rank],
                "seed {} {:?} rank {}: recovered run diverged bitwise",
                seed, op, rank
            );
        }
        if outcome.stats.injected_drops > 0 {
            prop_assert!(
                outcome.stats.retries > 0,
                "drops were injected but nothing retried: {:?}",
                outcome.stats
            );
        }
    }

    /// Crash plans: whatever the crash point, no worker panics and no
    /// worker hangs. The crashed rank reports `WorkerCrashed`; every other
    /// worker either completes bitwise-correctly (crash fired after its
    /// dependencies were served) or returns a typed peer-failure error.
    #[test]
    fn crash_plans_yield_typed_errors_not_panics(
        seed in 0u64..1_000_000,
        n in 2usize..6,
        len in 1usize..32,
        op_idx in 0usize..3,
        root in 0usize..6,
        crash_rank in 0usize..6,
        after_ops in 0u64..12,
        drop_p in 0.0f64..0.15,
    ) {
        let op = op_from(op_idx, n, root);
        let crash_rank = crash_rank % n;
        let bufs = inputs(n, len, seed);
        let expect = reference(op, &bufs);
        let plan = FaultPlan::lossy(seed, drop_p).with_crash(crash_rank, after_ops);
        let t0 = Instant::now();
        let outcome = bounded_chaos(op, bufs, plan, case_bound());
        prop_assert!(t0.elapsed() < case_bound());
        for (rank, r) in outcome.results.iter().enumerate() {
            match r {
                Ok(buf) => prop_assert_eq!(
                    buf, &expect[rank],
                    "seed {} {:?} rank {}: completed-but-wrong under crash plan",
                    seed, op, rank
                ),
                Err(CollectiveError::WorkerCrashed { rank: r }) => {
                    prop_assert_eq!(*r, crash_rank, "wrong rank reported crashed");
                    prop_assert_eq!(rank, crash_rank, "crash surfaced on the wrong worker");
                }
                Err(e) => prop_assert!(
                    e.is_peer_failure(),
                    "rank {} got a non-peer-failure error {:?} from a crash plan",
                    rank, e
                ),
            }
        }
        // The crashed worker either died (typed) or finished before the
        // trigger; both are legal, silent disappearance is not.
        prop_assert!(outcome.stats.crashes <= 1);
    }
}

/// A canned highly-degraded-but-recoverable run, pinned as a regression:
/// this exact plan must recover bitwise.
#[test]
fn canned_bench_plan_recovers() {
    use gradient_utility::faults::canned_inputs;
    let bufs = canned_inputs(4, 96);
    let expect = reference(ChaosOp::Ring, &bufs);
    let plan = FaultPlan::degraded(2024, 0.2, 0.1, 0.1);
    let outcome = bounded_chaos(ChaosOp::Ring, bufs, plan, case_bound());
    assert!(outcome.recovered(), "{:?}", outcome.results);
    for (rank, r) in outcome.results.iter().enumerate() {
        assert_eq!(r.as_ref().unwrap(), &expect[rank], "rank {rank}");
    }
    assert!(outcome.stats.injected() > 0);
}

/// An unrecoverable plan (certain drop on every transmission) must abort
/// every worker with a typed error inside the policy budgets.
#[test]
fn certain_loss_aborts_with_timeouts_in_bounded_time() {
    let bufs = inputs(3, 16, 7);
    let plan = FaultPlan::lossy(7, 1.0);
    let t0 = Instant::now();
    let outcome = bounded_chaos(ChaosOp::Ring, bufs, plan, case_bound());
    assert!(t0.elapsed() < case_bound());
    assert!(!outcome.recovered());
    for (rank, r) in outcome.results.iter().enumerate() {
        let e = r
            .as_ref()
            .expect_err("nothing can deliver under p=1.0 loss");
        assert!(
            matches!(
                e,
                CollectiveError::Timeout { .. } | CollectiveError::PeerLost { .. }
            ),
            "rank {rank}: unexpected error {e:?}"
        );
    }
    assert!(outcome.stats.aborted_ops > 0);
    assert_eq!(outcome.stats.recovered_frames, 0);
}
