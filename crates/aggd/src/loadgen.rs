//! Open-loop tenant load generator and capacity sweep.
//!
//! Each simulated tenant is one client stream: it HELLOs its own
//! `(tenant, model)` state, then runs rounds whose *arrival* times follow
//! an open-loop schedule (`t0 + (k+1)/rate`, phase-shifted per tenant so
//! the fleet never beats in lockstep). Round latency is measured from the
//! scheduled arrival to fetch completion, so queueing delay under overload
//! is charged to the daemon — the open-loop property that makes the
//! capacity curve honest.
//!
//! Tenants are multiplexed over a bounded pool of driver threads (the
//! harness machine has far fewer cores than tenants); every driver keeps
//! its tenants' connections open concurrently, so `tenants` live sockets
//! are held against the daemon for the whole point.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcs_metrics::Histogram;

use crate::client::TenantClient;
use crate::proto::{splitmix64, SchemeSpec, TenantConfig};

/// One load point's shape.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent tenant streams.
    pub tenants: usize,
    /// Rounds per tenant.
    pub rounds: u64,
    /// Open-loop round arrival rate per tenant (Hz).
    pub rate_hz: f64,
    /// Model-size mix: tenant `i` uses `dims[i % dims.len()]`.
    pub dims: Vec<usize>,
    /// Driver threads multiplexing the tenant streams.
    pub drivers: usize,
    /// Base seed for configs and synthetic gradients.
    pub seed: u64,
    /// Per-request client deadline.
    pub deadline: Duration,
    /// Model id tenants declare. Each sweep point uses a fresh epoch so its
    /// tenants start from round 0 in fresh daemon state.
    pub model_epoch: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            tenants: 64,
            rounds: 3,
            rate_hz: 20.0,
            dims: vec![32, 64, 128],
            drivers: 16,
            seed: 0xA66D,
            deadline: Duration::from_secs(10),
            model_epoch: 1,
        }
    }
}

/// One measured point of the capacity curve.
#[derive(Clone, Debug)]
pub struct CapacityPoint {
    /// Concurrent tenant streams offered.
    pub tenants: usize,
    /// Open-loop per-tenant round rate (Hz).
    pub round_rate_hz: f64,
    /// Rounds offered per tenant.
    pub rounds_per_tenant: u64,
    /// Rounds that completed (submit folded + estimate fetched).
    pub completed: u64,
    /// Typed retryable rejects absorbed (backpressure events).
    pub rejects: u64,
    /// Rounds that failed outright (deadline or fatal reject).
    pub failed: u64,
    /// p50 of round latency (scheduled arrival → fetch done), nanoseconds.
    pub p50_ns: f64,
    /// p99 of the same, nanoseconds.
    pub p99_ns: f64,
    /// Wall-clock of the whole point, seconds.
    pub wall_s: f64,
    /// All streams connected and every offered round completed.
    pub sustained: bool,
}

/// The scheme mix tenants cycle through — all four families the daemon
/// serves, sized small enough for thousand-tenant sweeps.
pub fn scheme_mix(dim: usize) -> Vec<SchemeSpec> {
    let mut mix = vec![
        SchemeSpec::TopK {
            bits_x100: 200,
            error_feedback: true,
        },
        SchemeSpec::Thc { q: 4 },
        SchemeSpec::Qsgd { q: 4 },
    ];
    // PowerSGD needs a matrix shape; offer it whenever dim factors evenly.
    let rows = (1..=dim)
        .rev()
        .find(|r| dim.is_multiple_of(*r) && *r * *r <= dim);
    if let Some(rows) = rows {
        if rows > 1 {
            mix.push(SchemeSpec::PowerSgd {
                rank: 1,
                rows: rows as u32,
                cols: (dim / rows) as u32,
            });
        }
    }
    mix
}

/// The tenant config loadgen uses for stream `idx`.
pub fn tenant_config(cfg: &LoadgenConfig, idx: usize) -> TenantConfig {
    let dim = cfg.dims[idx % cfg.dims.len()];
    let mix = scheme_mix(dim);
    TenantConfig {
        tenant: idx as u64 + 1,
        model: cfg.model_epoch,
        dim,
        n_workers: 1,
        experiment_seed: cfg.seed ^ (idx as u64) << 17,
        scheme: mix[idx % mix.len()],
        fault: None,
    }
}

/// Deterministic synthetic gradient for `(seed, tenant, round, rank)`.
pub fn synth_grad(seed: u64, tenant: u64, round: u64, rank: usize, out: &mut [f32]) {
    let base = splitmix64(seed ^ tenant.wrapping_mul(0x9e37) ^ round.rotate_left(17) ^ rank as u64);
    for (i, x) in out.iter_mut().enumerate() {
        let h = splitmix64(base ^ (i as u64) << 1);
        *x = (h % 2048) as f32 / 1024.0 - 1.0;
    }
}

/// Runs one load point against a live daemon.
pub fn run_capacity_point(addr: SocketAddr, cfg: &LoadgenConfig) -> CapacityPoint {
    let t_start = Instant::now();
    let completed = Arc::new(AtomicU64::new(0));
    let rejects = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let drivers = cfg.drivers.max(1).min(cfg.tenants.max(1));
    let mut handles = Vec::new();
    for d in 0..drivers {
        let cfg = cfg.clone();
        let completed = Arc::clone(&completed);
        let rejects = Arc::clone(&rejects);
        let failed = Arc::clone(&failed);
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{d}"))
                .stack_size(256 * 1024)
                .spawn(move || drive(addr, &cfg, d, drivers, &completed, &rejects, &failed))
                .expect("spawn driver"),
        );
    }
    let mut hist = Histogram::new();
    let mut connect_failures = 0u64;
    for h in handles {
        let (h2, conn_fail) = h.join().expect("driver panicked");
        hist.merge(&h2);
        connect_failures += conn_fail;
    }
    let offered = cfg.tenants as u64 * cfg.rounds;
    let done = completed.load(Ordering::Relaxed);
    CapacityPoint {
        tenants: cfg.tenants,
        round_rate_hz: cfg.rate_hz,
        rounds_per_tenant: cfg.rounds,
        completed: done,
        rejects: rejects.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        p50_ns: hist.p50().unwrap_or(0.0),
        p99_ns: hist.p99().unwrap_or(0.0),
        wall_s: t_start.elapsed().as_secs_f64(),
        sustained: done == offered && connect_failures == 0,
    }
}

/// One driver thread: owns tenants `idx ≡ driver (mod drivers)`, keeps all
/// their connections open, and fires rounds at the earliest-due stream.
fn drive(
    addr: SocketAddr,
    cfg: &LoadgenConfig,
    driver: usize,
    drivers: usize,
    completed: &AtomicU64,
    rejects: &AtomicU64,
    failed: &AtomicU64,
) -> (Histogram, u64) {
    struct Stream {
        client: TenantClient,
        tcfg: TenantConfig,
        next_round: u64,
        phase: Duration,
        done: bool,
        grad: Vec<f32>,
        out: Vec<f32>,
    }
    let mut hist = Histogram::new();
    let mut connect_failures = 0u64;
    let mut streams = Vec::new();
    for idx in (driver..cfg.tenants).step_by(drivers) {
        let tcfg = tenant_config(cfg, idx);
        match TenantClient::connect(addr, &tcfg, cfg.deadline) {
            Ok(client) => {
                // Spread arrivals across the period so tenants do not beat
                // in phase.
                let phase =
                    Duration::from_secs_f64((idx % 101) as f64 / 101.0 / cfg.rate_hz.max(1e-6));
                streams.push(Stream {
                    client,
                    grad: vec![0.0; tcfg.dim],
                    out: Vec::with_capacity(tcfg.dim),
                    tcfg,
                    next_round: 0,
                    phase,
                    done: cfg.rounds == 0,
                });
            }
            Err(_) => connect_failures += 1,
        }
    }
    let t0 = Instant::now();
    let period = Duration::from_secs_f64(1.0 / cfg.rate_hz.max(1e-6));
    loop {
        // Earliest-due unfinished stream.
        let mut best: Option<(usize, Duration)> = None;
        for (i, s) in streams.iter().enumerate() {
            if s.done {
                continue;
            }
            let due = s.phase + period.mul_f64(s.next_round as f64 + 1.0);
            if best.map(|(_, b)| due < b).unwrap_or(true) {
                best = Some((i, due));
            }
        }
        let Some((i, due)) = best else { break };
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        let s = &mut streams[i];
        let round = s.next_round;
        synth_grad(cfg.seed, s.tcfg.tenant, round, 0, &mut s.grad);
        match s.client.run_round(round, 0, &s.grad, &mut s.out) {
            Ok(absorbed) => {
                rejects.fetch_add(absorbed, Ordering::Relaxed);
                completed.fetch_add(1, Ordering::Relaxed);
                // Open-loop latency: scheduled arrival → fetch complete,
                // so time spent queued behind the daemon counts.
                let latency = t0.elapsed().saturating_sub(due);
                hist.record(latency.as_nanos() as f64);
            }
            Err(_) => {
                // This stream is broken; charge all its remaining rounds.
                failed.fetch_add(cfg.rounds - round, Ordering::Relaxed);
                s.done = true;
                continue;
            }
        }
        s.next_round += 1;
        if s.next_round >= cfg.rounds {
            s.done = true;
        }
    }
    for s in streams {
        let _ = s.client.bye();
    }
    (hist, connect_failures)
}

/// Runs one point per tenant count (rate, rounds, and mix fixed), in the
/// given order — the capacity curve `gcs_loadgen --tenants N,N,...` prints.
pub fn capacity_sweep(
    addr: SocketAddr,
    tenant_counts: &[usize],
    base: &LoadgenConfig,
) -> Vec<CapacityPoint> {
    tenant_counts
        .iter()
        .enumerate()
        .map(|(i, &tenants)| {
            let mut cfg = base.clone();
            cfg.tenants = tenants;
            cfg.model_epoch = base.model_epoch + i as u64;
            run_capacity_point(addr, &cfg)
        })
        .collect()
}
