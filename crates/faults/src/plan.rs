//! Deterministic, seedable fault plans.
//!
//! A [`FaultPlan`] is a *pure function* from `(seed, src, dst, seq,
//! attempt)` to an [`Injection`], built on the same counter-based SplitMix64
//! derivation as `gcs-tensor::rng`. No mutable RNG state is threaded through
//! the transport, so the set of injected faults is independent of thread
//! scheduling: two runs with the same plan inject byte-for-byte the same
//! faults, which is what lets the chaos suite assert *bitwise* recovery.
//!
//! Including `attempt` in the derivation matters: a frame dropped on its
//! first transmission gets a fresh draw on each retransmission, so a lossy
//! link converges to delivery with probability `1 − drop_p^attempts` instead
//! of replaying the same drop forever.

use std::time::Duration;

use gcs_tensor::rng::splitmix64;

/// What happens to one transmission of one data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Frame goes through untouched.
    Deliver,
    /// Frame is silently lost on the wire; the sender's retry/ack machinery
    /// must recover it.
    Drop,
    /// Frame is held back for the given duration before delivery
    /// (a transient straggler on this link).
    Delay(Duration),
    /// Frame is delivered twice; together with retransmit races this is how
    /// out-of-order / duplicated arrivals reach the receiver, whose sequence
    /// discipline must dedup them.
    Duplicate,
}

/// Kills one worker after it has performed a number of link operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Rank of the worker to kill.
    pub rank: usize,
    /// Number of link operations (sends + recvs) the worker completes
    /// before dying; `0` crashes it on its first operation.
    pub after_ops: u64,
}

/// A deterministic description of the faults a run injects.
///
/// Probabilities apply independently per data-frame transmission; delays are
/// drawn uniformly in `1..=max_delay_us` microseconds. Acks are never
/// faulted (see `links` module docs for why that keeps the protocol's
/// recovery obligations receiver-independent).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed of the counter RNG.
    pub seed: u64,
    /// Probability a data-frame transmission is dropped.
    pub drop_p: f64,
    /// Probability a data-frame transmission is delayed.
    pub delay_p: f64,
    /// Probability a data-frame transmission is duplicated.
    pub dup_p: f64,
    /// Upper bound on injected delay, microseconds.
    pub max_delay_us: u64,
    /// Optional worker crash.
    pub crash: Option<CrashPoint>,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper).
    pub fn healthy() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            delay_p: 0.0,
            dup_p: 0.0,
            max_delay_us: 0,
            crash: None,
        }
    }

    /// A lossy-link plan: drops with probability `drop_p`, no other faults.
    pub fn lossy(seed: u64, drop_p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p,
            ..FaultPlan::healthy()
        }
    }

    /// A mixed degradation plan: drops, delays, and duplicates.
    pub fn degraded(seed: u64, drop_p: f64, delay_p: f64, dup_p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p,
            delay_p,
            dup_p,
            max_delay_us: 300,
            ..FaultPlan::healthy()
        }
    }

    /// Adds a worker crash to the plan.
    pub fn with_crash(mut self, rank: usize, after_ops: u64) -> FaultPlan {
        self.crash = Some(CrashPoint { rank, after_ops });
        self
    }

    /// The injection applied to transmission `attempt` of data frame `seq`
    /// on the directed link `src → dst`. Pure and deterministic.
    pub fn injection(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> Injection {
        if !(self.drop_p > 0.0 || self.delay_p > 0.0 || self.dup_p > 0.0) {
            return Injection::Deliver;
        }
        let link = ((src as u64) << 40) ^ ((dst as u64) << 20);
        let h = splitmix64(
            self.seed
                ^ splitmix64(link ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                ^ (attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
        );
        let u = to_unit(h);
        if u < self.drop_p {
            Injection::Drop
        } else if u < self.drop_p + self.delay_p {
            let d = splitmix64(h);
            let us = 1 + d % self.max_delay_us.max(1);
            Injection::Delay(Duration::from_micros(us))
        } else if u < self.drop_p + self.delay_p + self.dup_p {
            Injection::Duplicate
        } else {
            Injection::Deliver
        }
    }

    /// Whether `rank` crashes at link-operation count `ops` under this plan.
    pub fn crashes(&self, rank: usize, ops: u64) -> bool {
        matches!(self.crash, Some(c) if c.rank == rank && ops > c.after_ops)
    }
}

/// Maps a 64-bit hash to `[0, 1)` with 53 bits of precision.
fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Fault schedule for a training run: which workers crash at which rounds.
/// Consumed by `gcs-ddp`'s engine, which renormalizes the ring over the
/// survivors and keeps training.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrainFaultPlan {
    /// Injected crashes, in any order.
    pub crashes: Vec<WorkerCrash>,
}

/// One injected worker crash during training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerCrash {
    /// Round at whose start the worker dies (before gradient computation).
    pub round: u64,
    /// Worker id at the time of the crash (post-renormalization ids if
    /// earlier crashes already shrank the ring).
    pub worker: usize,
}

impl TrainFaultPlan {
    /// A plan with a single crash.
    pub fn crash_at(round: u64, worker: usize) -> TrainFaultPlan {
        TrainFaultPlan {
            crashes: vec![WorkerCrash { round, worker }],
        }
    }

    /// Crashes scheduled for `round`, in plan order.
    pub fn crashes_at(&self, round: u64) -> impl Iterator<Item = WorkerCrash> + '_ {
        self.crashes
            .iter()
            .copied()
            .filter(move |c| c.round == round)
    }

    /// Total number of scheduled crashes.
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_is_deterministic() {
        let plan = FaultPlan::degraded(42, 0.3, 0.2, 0.1);
        for seq in 0..50 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.injection(0, 1, seq, attempt),
                    plan.injection(0, 1, seq, attempt)
                );
            }
        }
    }

    #[test]
    fn injection_varies_across_links_seqs_and_attempts() {
        let plan = FaultPlan::lossy(7, 0.5);
        let mut kinds = std::collections::BTreeSet::new();
        for seq in 0..64 {
            kinds.insert(format!("{:?}", plan.injection(0, 1, seq, 0)));
        }
        assert!(kinds.len() > 1, "all 64 draws identical: {kinds:?}");
        // A dropped frame must get an independent draw on retry: over many
        // seqs, at least one first-attempt drop is followed by a delivery.
        let recovered = (0..256).any(|seq| {
            plan.injection(2, 3, seq, 0) == Injection::Drop
                && plan.injection(2, 3, seq, 1) == Injection::Deliver
        });
        assert!(recovered, "retries never re-draw");
    }

    #[test]
    fn empirical_rates_track_probabilities() {
        let plan = FaultPlan::degraded(3, 0.25, 0.25, 0.1);
        let n = 20_000;
        let mut drops = 0;
        let mut delays = 0;
        let mut dups = 0;
        for seq in 0..n {
            match plan.injection(1, 2, seq, 0) {
                Injection::Drop => drops += 1,
                Injection::Delay(d) => {
                    assert!(d >= Duration::from_micros(1));
                    assert!(d <= Duration::from_micros(plan.max_delay_us));
                    delays += 1;
                }
                Injection::Duplicate => dups += 1,
                Injection::Deliver => {}
            }
        }
        let f = |c: i32| c as f64 / n as f64;
        assert!((f(drops) - 0.25).abs() < 0.02, "drop rate {}", f(drops));
        assert!((f(delays) - 0.25).abs() < 0.02, "delay rate {}", f(delays));
        assert!((f(dups) - 0.1).abs() < 0.02, "dup rate {}", f(dups));
    }

    #[test]
    fn healthy_plan_always_delivers() {
        let plan = FaultPlan::healthy();
        for seq in 0..100 {
            assert_eq!(plan.injection(0, 1, seq, 0), Injection::Deliver);
        }
        assert!(!plan.crashes(0, 1_000_000));
    }

    #[test]
    fn crash_point_triggers_after_ops() {
        let plan = FaultPlan::healthy().with_crash(2, 5);
        assert!(!plan.crashes(2, 5));
        assert!(plan.crashes(2, 6));
        assert!(!plan.crashes(1, 100));
    }

    #[test]
    fn train_plan_filters_by_round() {
        let crash = |round, worker| WorkerCrash { round, worker };
        let plan = TrainFaultPlan {
            crashes: vec![crash(10, 3), crash(10, 1), crash(20, 0)],
        };
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.crashes_at(10).count(), 2);
        assert_eq!(plan.crashes_at(20).count(), 1);
        assert_eq!(plan.crashes_at(11).count(), 0);
        assert!(TrainFaultPlan::default().is_empty());
    }
}
