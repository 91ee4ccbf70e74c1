//! Per-tenant aggregation state, owned exclusively by one shard thread.
//!
//! A tenant's rounds fold strictly in order (`next_round` is the cursor):
//! compression schemes are stateful (error feedback, PowerSGD warm factors),
//! so the shard must feed them the same round sequence a standalone run
//! would — that in-order discipline is what makes daemon estimates bitwise
//! identical to `aggregate_round` called in a loop, which the conformance
//! suite pins.
//!
//! Memory is bounded and steady-state allocation-free by construction:
//! * at most [`MAX_PENDING_ROUNDS`] partially-submitted rounds are buffered
//!   (per-rank gradient slots preallocated at HELLO); a submit beyond the
//!   window is a typed `TenantBusy` reject — backpressure, not growth;
//! * folded estimates live in a [`RESULT_RETAIN`]-deep ring of reused
//!   buffers; older rounds answer `Evicted`;
//! * the fold itself runs through the pooled `aggregate_round_into` seam
//!   with one reused [`AggregationOutcome`], so a warm round performs zero
//!   heap events (pinned in `tests/alloc_budget.rs`).

use std::time::Instant;

use gcs_core::scheme::{AggregationOutcome, CompressionScheme, RoundContext};
use gcs_metrics::Registry;

use crate::proto::{RejectCode, TenantConfig, MAX_WORKERS};

/// Most rounds a tenant may have partially submitted (in-flight) at once.
pub const MAX_PENDING_ROUNDS: usize = 4;

/// Folded estimates retained per tenant before eviction.
pub const RESULT_RETAIN: usize = 4;

/// Backoff hint handed to tenants that outrun their own window.
pub const BUSY_RETRY_MS: u32 = 2;

/// Poll hint for fetches of rounds that have not folded yet.
pub const NOT_READY_RETRY_MS: u32 = 1;

/// One partially-submitted round: per-rank gradient slots plus a presence
/// mask.
struct PendingRound {
    round: u64,
    mask: u64,
    grads: Vec<Vec<f32>>,
    t0: Instant,
    active: bool,
}

/// One retained folded estimate.
struct ResultSlot {
    round: u64,
    data: Vec<f32>,
    valid: bool,
}

/// What a submit did.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitVerdict {
    /// Gradient accepted; `folded` rounds (possibly zero) completed as a
    /// result — the fold cursor is now `next_round()`.
    Accepted {
        /// Number of rounds folded by this submit.
        folded: u64,
    },
    /// Typed refusal: `(code, retry_after_ms)`.
    Rejected(RejectCode, u32),
    /// The tenant's fault plan says its sessions crash now.
    Crash,
}

/// What a fetch found.
#[derive(Debug, PartialEq, Eq)]
pub enum FetchVerdict {
    /// Estimate copied into the caller's buffer.
    Ready,
    /// Round not folded yet — poll again.
    NotReady,
    /// Round folded long ago and its slot was reused.
    Evicted,
}

/// All daemon-side state of one `(tenant, model)` job.
pub struct TenantState {
    cfg: TenantConfig,
    scheme: Box<dyn CompressionScheme + Send>,
    next_round: u64,
    pending: Vec<PendingRound>,
    results: Vec<ResultSlot>,
    outcome: AggregationOutcome,
    full_mask: u64,
    reg: Registry,
    names: MetricNames,
}

/// Preformatted per-tenant metric names — formatted once at HELLO so the
/// warm path never builds a `String`.
struct MetricNames {
    round_ns: String,
    rounds: String,
    wire_bytes: String,
    /// Shard-side rejects only: the ones `submit` and `fetch` return (fault
    /// plan, bad frame, evicted or out-of-window round, duplicate rank).
    /// Session-layer rejects (queue full, inflight cap) count only in the
    /// daemon-wide `aggd/rejects_total`.
    rejects: String,
    faults: String,
    queue_depth: String,
}

impl TenantState {
    /// Builds the state for one admitted tenant: constructs the scheme and
    /// preallocates every buffer the warm path touches.
    pub fn new(cfg: TenantConfig) -> Result<TenantState, String> {
        if cfg.dim == 0 {
            return Err("dim must be positive".into());
        }
        if !(1..=MAX_WORKERS).contains(&cfg.n_workers) {
            return Err(format!(
                "n_workers={} outside 1..={MAX_WORKERS}",
                cfg.n_workers
            ));
        }
        let scheme = cfg.scheme.build(cfg.n_workers, cfg.dim)?;
        let pending = (0..MAX_PENDING_ROUNDS)
            .map(|_| PendingRound {
                round: 0,
                mask: 0,
                grads: vec![vec![0.0; cfg.dim]; cfg.n_workers],
                t0: Instant::now(),
                active: false,
            })
            .collect();
        let results = (0..RESULT_RETAIN)
            .map(|_| ResultSlot {
                round: 0,
                data: Vec::with_capacity(cfg.dim),
                valid: false,
            })
            .collect();
        let prefix = format!("aggd/tenant/{}:{}", cfg.tenant, cfg.model);
        let names = MetricNames {
            round_ns: format!("{prefix}/round_ns"),
            rounds: format!("{prefix}/rounds_total"),
            wire_bytes: format!("{prefix}/wire_bytes_total"),
            rejects: format!("{prefix}/rejects_total"),
            faults: format!("{prefix}/faults_total"),
            queue_depth: format!("{prefix}/queue_depth"),
        };
        let full_mask = if cfg.n_workers == 64 {
            u64::MAX
        } else {
            (1u64 << cfg.n_workers) - 1
        };
        let mut reg = Registry::new();
        // Touch every counter so warm-path lookups never insert.
        reg.counter_add(&names.rounds, 0.0);
        reg.counter_add(&names.wire_bytes, 0.0);
        reg.counter_add(&names.rejects, 0.0);
        reg.counter_add(&names.faults, 0.0);
        reg.gauge_set(&names.queue_depth, 0.0);
        Ok(TenantState {
            cfg,
            scheme,
            next_round: 0,
            pending,
            results,
            outcome: AggregationOutcome::default(),
            full_mask,
            reg,
            names,
        })
    }

    /// The config declared at HELLO.
    pub fn config(&self) -> &TenantConfig {
        &self.cfg
    }

    /// The fold cursor: lowest round not yet folded.
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// This tenant's metric registry (merged into the shard snapshot).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// One worker's gradient for `round`. `now` is injected by the caller
    /// (the shard thread) so tests can drive a deterministic clock.
    pub fn submit(&mut self, round: u64, rank: usize, data: &[f32], now: Instant) -> SubmitVerdict {
        if let Some(f) = self.cfg.fault {
            if round == f.crash_round {
                return SubmitVerdict::Crash;
            }
            if f.rejects(round, rank) {
                self.reg.counter_add(&self.names.faults, 1.0);
                self.reg.counter_add(&self.names.rejects, 1.0);
                return SubmitVerdict::Rejected(RejectCode::FaultInjected, 0);
            }
        }
        if rank >= self.cfg.n_workers || data.len() != self.cfg.dim {
            self.reg.counter_add(&self.names.rejects, 1.0);
            return SubmitVerdict::Rejected(RejectCode::BadFrame, 0);
        }
        if round < self.next_round {
            self.reg.counter_add(&self.names.rejects, 1.0);
            return SubmitVerdict::Rejected(RejectCode::Evicted, 0);
        }
        if round >= self.next_round + MAX_PENDING_ROUNDS as u64 {
            self.reg.counter_add(&self.names.rejects, 1.0);
            return SubmitVerdict::Rejected(RejectCode::TenantBusy, BUSY_RETRY_MS);
        }
        let slot = &mut self.pending[(round % MAX_PENDING_ROUNDS as u64) as usize];
        if !slot.active {
            slot.active = true;
            slot.round = round;
            slot.mask = 0;
            slot.t0 = now;
        }
        debug_assert_eq!(slot.round, round, "window slot collision");
        if slot.mask & (1 << rank) != 0 {
            self.reg.counter_add(&self.names.rejects, 1.0);
            return SubmitVerdict::Rejected(RejectCode::BadFrame, 0);
        }
        slot.grads[rank].copy_from_slice(data);
        slot.mask |= 1 << rank;
        // Frame-level accounting: tag + round + rank + payload + length
        // prefix, mirroring what actually crossed the wire.
        self.reg
            .counter_add(&self.names.wire_bytes, (21 + 4 * self.cfg.dim) as f64);
        let mut folded = 0u64;
        while self.fold_next(now) {
            folded += 1;
        }
        self.reg.gauge_set(
            &self.names.queue_depth,
            self.pending.iter().filter(|p| p.active).count() as f64,
        );
        SubmitVerdict::Accepted { folded }
    }

    /// Folds `next_round` if every rank has submitted it. Returns whether a
    /// fold happened.
    fn fold_next(&mut self, now: Instant) -> bool {
        let idx = (self.next_round % MAX_PENDING_ROUNDS as u64) as usize;
        let slot = &mut self.pending[idx];
        if !slot.active || slot.round != self.next_round || slot.mask != self.full_mask {
            return false;
        }
        let ctx = RoundContext::new(self.cfg.experiment_seed, slot.round);
        self.scheme
            .aggregate_round_into(&slot.grads, &ctx, &mut self.outcome);
        let res = &mut self.results[(slot.round % RESULT_RETAIN as u64) as usize];
        res.data.clear();
        res.data.extend_from_slice(&self.outcome.mean_estimate);
        res.round = slot.round;
        res.valid = true;
        slot.active = false;
        let elapsed_ns = now.saturating_duration_since(slot.t0).as_nanos() as f64;
        self.reg.observe(&self.names.round_ns, elapsed_ns);
        self.reg.counter_add(&self.names.rounds, 1.0);
        self.next_round += 1;
        true
    }

    /// Copies `round`'s folded estimate into `out` (cleared, capacity
    /// reused) if it is ready and still retained.
    pub fn fetch_into(&mut self, round: u64, out: &mut Vec<f32>) -> FetchVerdict {
        if round >= self.next_round {
            return FetchVerdict::NotReady;
        }
        let res = &self.results[(round % RESULT_RETAIN as u64) as usize];
        if !res.valid || res.round != round {
            self.reg.counter_add(&self.names.rejects, 1.0);
            return FetchVerdict::Evicted;
        }
        out.clear();
        out.extend_from_slice(&res.data);
        self.reg
            .counter_add(&self.names.wire_bytes, (13 + 4 * self.cfg.dim) as f64);
        FetchVerdict::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SchemeSpec;

    fn cfg(n_workers: usize) -> TenantConfig {
        TenantConfig {
            tenant: 1,
            model: 1,
            dim: 32,
            n_workers,
            experiment_seed: 7,
            scheme: SchemeSpec::TopK {
                bits_x100: 200,
                error_feedback: true,
            },
            fault: None,
        }
    }

    fn grad(round: u64, rank: usize, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = crate::proto::splitmix64(round ^ (rank as u64) << 20 ^ (i as u64) << 40);
                (h % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn in_order_folds_match_standalone() {
        let mut st = TenantState::new(cfg(2)).unwrap();
        let mut reference = cfg(2).scheme.build(2, 32).unwrap();
        let now = Instant::now();
        let mut out = Vec::with_capacity(32);
        for round in 0..6u64 {
            let g0 = grad(round, 0, 32);
            let g1 = grad(round, 1, 32);
            // Reverse rank order on odd rounds: arrival order must not
            // matter, only the fold order.
            if round % 2 == 0 {
                assert_eq!(
                    st.submit(round, 0, &g0, now),
                    SubmitVerdict::Accepted { folded: 0 }
                );
                assert_eq!(
                    st.submit(round, 1, &g1, now),
                    SubmitVerdict::Accepted { folded: 1 }
                );
            } else {
                assert_eq!(
                    st.submit(round, 1, &g1, now),
                    SubmitVerdict::Accepted { folded: 0 }
                );
                assert_eq!(
                    st.submit(round, 0, &g0, now),
                    SubmitVerdict::Accepted { folded: 1 }
                );
            }
            assert_eq!(st.fetch_into(round, &mut out), FetchVerdict::Ready);
            let want = reference
                .aggregate_round(&[g0, g1], &RoundContext::new(7, round))
                .mean_estimate;
            assert_eq!(out, want, "round {round} diverged");
        }
    }

    #[test]
    fn window_and_retention_bounds_are_typed() {
        let mut st = TenantState::new(cfg(2)).unwrap();
        let now = Instant::now();
        let g = grad(0, 0, 32);
        // Fill the window with partial rounds (rank 1 never arrives).
        for round in 0..MAX_PENDING_ROUNDS as u64 {
            assert_eq!(
                st.submit(round, 0, &g, now),
                SubmitVerdict::Accepted { folded: 0 }
            );
        }
        assert_eq!(
            st.submit(MAX_PENDING_ROUNDS as u64, 0, &g, now),
            SubmitVerdict::Rejected(RejectCode::TenantBusy, BUSY_RETRY_MS)
        );
        // Duplicate rank within a pending round.
        assert_eq!(
            st.submit(0, 0, &g, now),
            SubmitVerdict::Rejected(RejectCode::BadFrame, 0)
        );
        // Unready fetch is a poll, not a park.
        let mut out = Vec::new();
        assert_eq!(st.fetch_into(0, &mut out), FetchVerdict::NotReady);

        // Single-worker tenant: run past the retention ring and observe
        // eviction of the oldest round.
        let mut solo = TenantState::new(cfg(1)).unwrap();
        for round in 0..(RESULT_RETAIN as u64 + 2) {
            assert_eq!(
                solo.submit(round, 0, &g, now),
                SubmitVerdict::Accepted { folded: 1 }
            );
        }
        assert_eq!(solo.fetch_into(0, &mut out), FetchVerdict::Evicted);
        assert_eq!(
            solo.fetch_into(RESULT_RETAIN as u64 + 1, &mut out),
            FetchVerdict::Ready
        );
    }
}
