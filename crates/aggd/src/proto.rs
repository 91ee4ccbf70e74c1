//! Wire protocol of the aggregation daemon: tenant sessions speak
//! `u32`-length-prefixed frames (the collectives [`FramedStream`] framing)
//! whose payloads start with a one-byte tag. A session opens with the
//! 4-byte magic [`AGGD_MAGIC`], which the daemon's listener routes on — so
//! framed tenants and Prometheus `GET ` scrapes share one port, exactly
//! like the fleet telemetry plane.
//!
//! Every client request receives exactly one reply frame — an `*_OK` tag or
//! a typed [`Reject`]. Nothing is ever dropped silently: backpressure is a
//! `REJECT` with a non-zero `retry_after_ms`, protocol violations are a
//! `REJECT` followed by session close.
//!
//! [`FramedStream`]: gcs_collectives::FramedStream

pub use gcs_collectives::bytes::Cursor;
use gcs_collectives::bytes::{put_elems, put_str, put_u64, Prefix};

/// Session magic written immediately after connect, before the first frame.
pub const AGGD_MAGIC: [u8; 4] = *b"GCSA";

/// Tenant → daemon: declare `(tenant, model)` config and admit the session.
pub const T_HELLO: u8 = 0x01;
/// Tenant → daemon: one worker's gradient for one round.
pub const T_SUBMIT: u8 = 0x02;
/// Tenant → daemon: request the folded estimate of one round.
pub const T_FETCH: u8 = 0x03;
/// Tenant → daemon: orderly goodbye.
pub const T_BYE: u8 = 0x04;
/// Daemon → tenant: session admitted; carries the owning shard index.
pub const T_HELLO_OK: u8 = 0x81;
/// Daemon → tenant: the submit was folded into its round.
pub const T_SUBMIT_OK: u8 = 0x82;
/// Daemon → tenant: the round's aggregated estimate.
pub const T_FETCH_OK: u8 = 0x83;
/// Daemon → tenant: goodbye acknowledged; the daemon closes after this.
pub const T_BYE_OK: u8 = 0x84;
/// Daemon → tenant: typed rejection (see [`RejectCode`]).
pub const T_REJECT: u8 = 0x7f;

/// Most workers a single tenant may declare (ranks fit one presence mask).
pub const MAX_WORKERS: usize = 64;

/// Why the daemon refused a request. The numeric value is the wire byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The owning shard's job queue is full — retry after the hinted delay.
    QueueFull = 1,
    /// This tenant is over its own bound (pending-round window or in-flight
    /// reply cap) — retry after the hinted delay. Other tenants are not.
    TenantBusy = 2,
    /// Admission control refused the HELLO (tenant cap, dim cap, bad
    /// scheme config).
    AdmissionDenied = 3,
    /// A second HELLO for the same `(tenant, model)` declared a different
    /// config.
    ConfigMismatch = 4,
    /// Malformed, oversized, or out-of-protocol frame. The session closes
    /// right after this reply.
    BadFrame = 5,
    /// The tenant's own fault plan injected a failure for this submit.
    FaultInjected = 6,
    /// The requested round's estimate was already evicted from the bounded
    /// retention ring, or the round predates the fold cursor.
    Evicted = 7,
    /// The requested round has not folded yet — poll again after the hint.
    NotReady = 8,
}

impl RejectCode {
    /// Wire byte → code.
    pub fn from_u8(b: u8) -> Option<RejectCode> {
        Some(match b {
            1 => RejectCode::QueueFull,
            2 => RejectCode::TenantBusy,
            3 => RejectCode::AdmissionDenied,
            4 => RejectCode::ConfigMismatch,
            5 => RejectCode::BadFrame,
            6 => RejectCode::FaultInjected,
            7 => RejectCode::Evicted,
            8 => RejectCode::NotReady,
            _ => return None,
        })
    }

    /// Stable lowercase label (metric names, logs, REJECT details).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::QueueFull => "queue_full",
            RejectCode::TenantBusy => "tenant_busy",
            RejectCode::AdmissionDenied => "admission_denied",
            RejectCode::ConfigMismatch => "config_mismatch",
            RejectCode::BadFrame => "bad_frame",
            RejectCode::FaultInjected => "fault_injected",
            RejectCode::Evicted => "evicted",
            RejectCode::NotReady => "not_ready",
        }
    }

    /// True when the same request may lawfully succeed later.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            RejectCode::QueueFull | RejectCode::TenantBusy | RejectCode::NotReady
        )
    }
}

/// A decoded REJECT reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reject {
    /// Why.
    pub code: RejectCode,
    /// Suggested client backoff; 0 means "do not retry".
    pub retry_after_ms: u32,
    /// Human-readable context.
    pub detail: String,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (retry_after_ms={}): {}",
            self.code.as_str(),
            self.retry_after_ms,
            self.detail
        )
    }
}

/// Per-tenant deterministic fault plan, declared at HELLO. Faults are a
/// pure function of `(seed, round, rank)` so a run is exactly replayable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantFaultSpec {
    /// Plan seed.
    pub seed: u64,
    /// Reject roughly one in `reject_period` submits with
    /// [`RejectCode::FaultInjected`]; 0 disables injection.
    pub reject_period: u32,
    /// Daemon closes every session of this tenant when a submit for this
    /// round arrives (a server-visible tenant crash). `u64::MAX` = never.
    pub crash_round: u64,
}

impl TenantFaultSpec {
    /// True when the plan injects a fault for this `(round, rank)` submit.
    pub fn rejects(&self, round: u64, rank: usize) -> bool {
        if self.reject_period == 0 {
            return false;
        }
        let h = splitmix64(self.seed ^ round.wrapping_mul(0x9e37_79b9) ^ (rank as u64) << 32);
        h.is_multiple_of(self.reject_period as u64)
    }
}

/// Which compression scheme a tenant runs, with just enough parameters to
/// rebuild a bit-identical instance on the shard (and in the standalone
/// conformance reference).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeSpec {
    /// `TopK::with_bits(bits, n, error_feedback)`.
    TopK {
        /// Nominal bits per coordinate (×100, so the wire stays integral).
        bits_x100: u32,
        /// Enable error feedback.
        error_feedback: bool,
    },
    /// `Thc::baseline(q, n)`.
    Thc {
        /// Quantization bits.
        q: u32,
    },
    /// `Qsgd::new(q, n)`.
    Qsgd {
        /// Quantization bits.
        q: u32,
    },
    /// `PowerSgd::new(rank, vec![(rows, cols)], n)`; requires
    /// `rows * cols == dim`.
    PowerSgd {
        /// Approximation rank.
        rank: u32,
        /// Matrix rows.
        rows: u32,
        /// Matrix cols.
        cols: u32,
    },
}

impl SchemeSpec {
    /// Family label for metrics.
    pub fn family(&self) -> &'static str {
        match self {
            SchemeSpec::TopK { .. } => "topk",
            SchemeSpec::Thc { .. } => "thc",
            SchemeSpec::Qsgd { .. } => "qsgd",
            SchemeSpec::PowerSgd { .. } => "powersgd",
        }
    }

    /// Builds the scheme instance, validating parameters against `dim`.
    pub fn build(
        &self,
        n_workers: usize,
        dim: usize,
    ) -> Result<Box<dyn gcs_core::scheme::CompressionScheme + Send>, String> {
        use gcs_core::schemes::literature::Qsgd;
        use gcs_core::schemes::powersgd::PowerSgd;
        use gcs_core::schemes::thc::Thc;
        use gcs_core::schemes::topk::TopK;
        match *self {
            SchemeSpec::TopK {
                bits_x100,
                error_feedback,
            } => {
                if !(1..=3200).contains(&bits_x100) {
                    return Err(format!("topk bits_x100={bits_x100} out of range"));
                }
                Ok(Box::new(TopK::with_bits(
                    bits_x100 as f64 / 100.0,
                    n_workers,
                    error_feedback,
                )))
            }
            SchemeSpec::Thc { q } => {
                if !(2..=16).contains(&q) {
                    return Err(format!("thc q={q} out of range"));
                }
                // `Thc::baseline`'s widened lanes hold the exact sum of at
                // most 16–18 workers; a HELLO may declare up to
                // `MAX_WORKERS`, so refuse here rather than let the
                // constructor's assertion fire on a shard thread.
                let b = q + Thc::BASELINE_WIDENING;
                if !Thc::widened_sum_fits(q, b, n_workers) {
                    return Err(format!(
                        "thc q={q}: {n_workers} workers overflow its {b}-bit widened lanes"
                    ));
                }
                Ok(Box::new(Thc::baseline(q, n_workers)))
            }
            SchemeSpec::Qsgd { q } => {
                if !(1..=8).contains(&q) {
                    return Err(format!("qsgd q={q} out of range"));
                }
                Ok(Box::new(Qsgd::new(q, n_workers)))
            }
            SchemeSpec::PowerSgd { rank, rows, cols } => {
                if rank == 0 || rows == 0 || cols == 0 {
                    return Err("powersgd rank/rows/cols must be positive".into());
                }
                if rows as usize * cols as usize != dim {
                    return Err(format!("powersgd {rows}x{cols} != dim {dim}"));
                }
                Ok(Box::new(PowerSgd::new(
                    rank,
                    vec![(rows as usize, cols as usize)],
                    n_workers,
                )))
            }
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            SchemeSpec::TopK {
                bits_x100,
                error_feedback,
            } => {
                out.push(1);
                put_u64(out, bits_x100 as u64);
                out.push(u8::from(error_feedback));
            }
            SchemeSpec::Thc { q } => {
                out.push(2);
                put_u64(out, q as u64);
            }
            SchemeSpec::Qsgd { q } => {
                out.push(3);
                put_u64(out, q as u64);
            }
            SchemeSpec::PowerSgd { rank, rows, cols } => {
                out.push(4);
                put_u64(out, rank as u64);
                put_u64(out, rows as u64);
                put_u64(out, cols as u64);
            }
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<SchemeSpec, String> {
        Ok(match c.u8()? {
            1 => SchemeSpec::TopK {
                bits_x100: c.u64()? as u32,
                error_feedback: c.u8()? != 0,
            },
            2 => SchemeSpec::Thc { q: c.u64()? as u32 },
            3 => SchemeSpec::Qsgd { q: c.u64()? as u32 },
            4 => SchemeSpec::PowerSgd {
                rank: c.u64()? as u32,
                rows: c.u64()? as u32,
                cols: c.u64()? as u32,
            },
            t => return Err(format!("unknown scheme tag {t}")),
        })
    }
}

/// Everything a HELLO declares about one `(tenant, model)` job.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Tenant id (one training job owner).
    pub tenant: u64,
    /// Model id within the tenant.
    pub model: u64,
    /// Gradient dimension.
    pub dim: usize,
    /// Workers submitting per round (1..=[`MAX_WORKERS`]).
    pub n_workers: usize,
    /// Seed threaded into every `RoundContext` — the same seed a standalone
    /// run of the scheme would use, so estimates are bit-comparable.
    pub experiment_seed: u64,
    /// The compression scheme this tenant runs.
    pub scheme: SchemeSpec,
    /// Optional deterministic fault plan.
    pub fault: Option<TenantFaultSpec>,
}

impl TenantConfig {
    /// The daemon's state key.
    pub fn key(&self) -> (u64, u64) {
        (self.tenant, self.model)
    }
}

/// SplitMix64 — the same mixer the fault and data-generation layers use.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Message encode/decode
// ---------------------------------------------------------------------------

/// Encodes a HELLO payload into `out` (cleared first).
pub fn encode_hello(out: &mut Vec<u8>, cfg: &TenantConfig) {
    out.clear();
    out.push(T_HELLO);
    put_u64(out, cfg.tenant);
    put_u64(out, cfg.model);
    put_u64(out, cfg.dim as u64);
    put_u64(out, cfg.n_workers as u64);
    put_u64(out, cfg.experiment_seed);
    cfg.scheme.encode(out);
    match cfg.fault {
        None => out.push(0),
        Some(f) => {
            out.push(1);
            put_u64(out, f.seed);
            put_u64(out, f.reject_period as u64);
            put_u64(out, f.crash_round);
        }
    }
}

/// Decodes a HELLO payload (tag already consumed).
pub fn decode_hello(c: &mut Cursor<'_>) -> Result<TenantConfig, String> {
    let tenant = c.u64()?;
    let model = c.u64()?;
    let dim = c.u64()? as usize;
    let n_workers = c.u64()? as usize;
    let experiment_seed = c.u64()?;
    let scheme = SchemeSpec::decode(c)?;
    let fault = match c.u8()? {
        0 => None,
        1 => Some(TenantFaultSpec {
            seed: c.u64()?,
            reject_period: c.u64()? as u32,
            crash_round: c.u64()?,
        }),
        f => return Err(format!("bad fault flag {f}")),
    };
    Ok(TenantConfig {
        tenant,
        model,
        dim,
        n_workers,
        experiment_seed,
        scheme,
        fault,
    })
}

/// Encodes a SUBMIT payload into `out` (cleared first).
pub fn encode_submit(out: &mut Vec<u8>, round: u64, rank: usize, grad: &[f32]) {
    out.clear();
    out.push(T_SUBMIT);
    put_u64(out, round);
    put_u64(out, rank as u64);
    put_elems(out, grad);
}

/// Encodes a FETCH payload into `out` (cleared first).
pub fn encode_fetch(out: &mut Vec<u8>, round: u64) {
    out.clear();
    out.push(T_FETCH);
    put_u64(out, round);
}

/// Encodes a BYE payload into `out` (cleared first).
pub fn encode_bye(out: &mut Vec<u8>) {
    out.clear();
    out.push(T_BYE);
}

/// Appends a HELLO_OK frame body to `out`.
pub fn encode_hello_ok(out: &mut Vec<u8>, shard: usize) {
    out.push(T_HELLO_OK);
    put_u64(out, shard as u64);
}

/// Appends a SUBMIT_OK frame body to `out`.
pub fn encode_submit_ok(out: &mut Vec<u8>, round: u64) {
    out.push(T_SUBMIT_OK);
    put_u64(out, round);
}

/// Appends a FETCH_OK frame body to `out`.
pub fn encode_fetch_ok(out: &mut Vec<u8>, round: u64, estimate: &[f32]) {
    out.push(T_FETCH_OK);
    put_u64(out, round);
    put_elems(out, estimate);
}

/// Appends a BYE_OK frame body to `out`.
pub fn encode_bye_ok(out: &mut Vec<u8>) {
    out.push(T_BYE_OK);
}

/// Appends a REJECT frame body to `out`.
pub fn encode_reject(out: &mut Vec<u8>, code: RejectCode, retry_after_ms: u32, detail: &str) {
    out.push(T_REJECT);
    out.push(code as u8);
    put_u64(out, retry_after_ms as u64);
    put_str(out, Prefix::U64, detail);
}

/// Decodes a REJECT payload (tag already consumed).
pub fn decode_reject(c: &mut Cursor<'_>) -> Result<Reject, String> {
    let code_b = c.u8()?;
    let code = RejectCode::from_u8(code_b).ok_or_else(|| format!("bad reject code {code_b}"))?;
    let retry_after_ms = c.u64()? as u32;
    let detail = c.str(Prefix::U64)?;
    Ok(Reject {
        code,
        retry_after_ms,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let cfg = TenantConfig {
            tenant: 7,
            model: 9,
            dim: 128,
            n_workers: 4,
            experiment_seed: 0xdead_beef,
            scheme: SchemeSpec::PowerSgd {
                rank: 2,
                rows: 16,
                cols: 8,
            },
            fault: Some(TenantFaultSpec {
                seed: 3,
                reject_period: 5,
                crash_round: 11,
            }),
        };
        let mut buf = Vec::new();
        encode_hello(&mut buf, &cfg);
        let mut c = Cursor::new(&buf[1..]);
        assert_eq!(decode_hello(&mut c).unwrap(), cfg);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn thc_with_more_workers_than_its_widened_lanes_hold_is_a_build_error() {
        let spec = SchemeSpec::Thc { q: 4 };
        assert!(spec.build(4, 256).is_ok());
        assert!(spec.build(18, 256).is_ok());
        let err = spec.build(32, 256).err().expect("32 x 7 > 127");
        assert!(err.contains("overflow"), "{err}");
        assert!(spec.build(MAX_WORKERS, 256).is_err());
    }

    #[test]
    fn reject_round_trips_and_truncation_is_typed() {
        let mut buf = Vec::new();
        encode_reject(&mut buf, RejectCode::QueueFull, 5, "shard 3 full");
        let mut c = Cursor::new(&buf[1..]);
        let r = decode_reject(&mut c).unwrap();
        assert_eq!(r.code, RejectCode::QueueFull);
        assert_eq!(r.retry_after_ms, 5);
        assert!(RejectCode::QueueFull.retryable());
        assert!(!RejectCode::BadFrame.retryable());

        let mut short = Cursor::new(&buf[1..4]);
        assert!(decode_reject(&mut short).is_err());
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let f = TenantFaultSpec {
            seed: 42,
            reject_period: 3,
            crash_round: u64::MAX,
        };
        let a: Vec<bool> = (0..64).map(|r| f.rejects(r, 0)).collect();
        let b: Vec<bool> = (0..64).map(|r| f.rejects(r, 0)).collect();
        assert_eq!(a, b);
        assert!(
            a.iter().any(|&x| x),
            "period 3 should fire within 64 rounds"
        );
        assert!(!a.iter().all(|&x| x), "period 3 must not fire every round");
    }
}
