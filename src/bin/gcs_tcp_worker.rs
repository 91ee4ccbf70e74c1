//! Elastic TCP fleet worker: one OS process in a data-parallel training
//! fleet coordinated by a `gcs_collectives::tcp::Registry`.
//!
//! Spawned by `tests/tcp_fleet.rs`, `tests/fleet_observability.rs`, and
//! `examples/tcp_fleet.rs`; speaks a line-oriented protocol on stdout so
//! the parent can follow progress and compare results across processes:
//!
//! ```text
//! ID <worker_id>
//! ROUND <round> <epoch> <rank> <n>
//! LOSS <round> <loss-bits-hex>
//! EVENT collective_error <display>
//! RESULT checksum=<hex> rounds=<r> epochs=<e> n=<n> rank=<rank>
//! ```
//!
//! Rust's stdout is line-buffered even when piped, so the parent sees each
//! line as it happens — the kill tests rely on that to SIGKILL a worker
//! only after it demonstrably started training.
//!
//! The loop is the elastic protocol end-to-end: barrier at the registry,
//! re-sync parameters whenever the roster (epoch) changed, run one atomic
//! [`fleet_round`], and on a peer failure simply go back to the barrier —
//! the registry renumbers the survivors and the round is retried under the
//! new `(rank, n)`.
//!
//! With `--telemetry <addr>` the worker additionally joins the fleet
//! telemetry plane: trace recording is enabled, each round's spans and the
//! worker's metrics registry are shipped to the
//! `TelemetryCollector` at `addr`, and a bounded flight recorder is both
//! shipped and (with `--flight <path>`) persisted locally every round —
//! so a SIGKILL leaves a post-mortem JSONL on disk *and* at the collector.
//! Telemetry failure is never fatal: a lost collector downgrades the
//! worker to silent training, printed once as `EVENT telemetry_error`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gcs_collectives::tcp::{FleetWorker, TcpTimeouts};
use gcs_collectives::telemetry::TelemetryShipper;
use gcs_ddp::fleet::{fleet_round, param_checksum, sync_params, FleetScratch};
use gcs_metrics::fleet::{FlightRecorder, ROUND_HIST, WIRE_BYTES_COUNTER};
use gcs_metrics::Registry;
use gcs_nn::{Sgd, VggMini};

struct Config {
    registry: SocketAddr,
    rounds: u64,
    batch: usize,
    seed: u64,
    lr: f32,
    stall: Duration,
    telemetry: Option<SocketAddr>,
    flight: Option<PathBuf>,
}

fn parse_args() -> Result<Config, String> {
    let mut registry = None;
    let mut rounds = 4u64;
    let mut batch = 4usize;
    let mut seed = 11u64;
    let mut lr = 0.05f32;
    let mut stall = Duration::ZERO;
    let mut telemetry = None;
    let mut flight = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--registry" => {
                registry = Some(
                    value()?
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad --registry: {e}"))?,
                )
            }
            "--rounds" => rounds = value()?.parse().map_err(|e| format!("bad --rounds: {e}"))?,
            "--batch" => batch = value()?.parse().map_err(|e| format!("bad --batch: {e}"))?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--lr" => lr = value()?.parse().map_err(|e| format!("bad --lr: {e}"))?,
            "--stall-ms" => {
                stall = Duration::from_millis(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --stall-ms: {e}"))?,
                )
            }
            "--telemetry" => {
                telemetry = Some(
                    value()?
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad --telemetry: {e}"))?,
                )
            }
            "--flight" => flight = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config {
        registry: registry.ok_or("--registry is required")?,
        rounds,
        batch,
        seed,
        lr,
        stall,
        telemetry,
        flight,
    })
}

/// The worker's telemetry half: optional shipper, always-on flight
/// recorder and metrics registry, optional local flight persistence. Every
/// operation degrades silently — telemetry must never fail training.
struct Telemetry {
    shipper: Option<TelemetryShipper>,
    flight: FlightRecorder,
    metrics: Registry,
    flight_path: Option<PathBuf>,
    errored: bool,
}

impl Telemetry {
    fn start(cfg: &Config, worker_id: u64) -> Telemetry {
        let shipper =
            cfg.telemetry
                .and_then(|addr| match TelemetryShipper::connect(addr, worker_id) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        println!("EVENT telemetry_error {e}");
                        None
                    }
                });
        if shipper.is_some() || cfg.flight.is_some() {
            gcs_trace::enable();
        }
        Telemetry {
            shipper,
            flight: FlightRecorder::new(),
            metrics: Registry::new(),
            flight_path: cfg.flight.clone(),
            errored: false,
        }
    }

    fn drop_shipper(&mut self, e: String) {
        if !self.errored {
            println!("EVENT telemetry_error {e}");
            self.errored = true;
        }
        self.shipper = None;
    }

    /// Records a lifecycle/fault event into the flight recorder and ships
    /// it (best-effort).
    fn event(&mut self, rank: u64, kind: &str, detail: &str) {
        self.flight.record_event(kind, detail);
        if let Some(s) = self.shipper.as_mut() {
            if let Err(e) = s.ship_event(rank, kind, detail) {
                self.drop_shipper(e);
            }
        }
        self.persist();
    }

    /// End-of-round shipping: drain the trace into the flight recorder,
    /// ship spans + the metrics registry + the flight JSONL, and
    /// rewrite the local flight file (tmp+rename, SIGKILL-safe).
    fn ship_round(&mut self, rank: u64, epoch: u64) {
        let trace = gcs_trace::take();
        gcs_trace::enable(); // take() disables; re-arm for the next round
        self.flight.record_trace(&trace);
        if let Some(s) = self.shipper.as_mut() {
            let shipped = s
                .ship_trace(rank, &trace)
                .and_then(|()| s.ship_snapshot(rank, epoch, &self.metrics))
                .and_then(|()| s.ship_flight(rank, &self.flight.to_jsonl()));
            if let Err(e) = shipped {
                self.drop_shipper(e);
            }
        }
        self.persist();
    }

    fn persist(&self) {
        if let Some(path) = &self.flight_path {
            let _ = self.flight.write_to(path);
        }
    }

    fn finish(&mut self, rank: u64) {
        self.event(rank, "shutdown", "worker finished all rounds");
        if let Some(s) = self.shipper.as_mut() {
            let _ = s.bye();
        }
    }
}

fn run(cfg: &Config) -> Result<(), gcs_collectives::error::CollectiveError> {
    let mut worker = FleetWorker::join(cfg.registry, TcpTimeouts::default())?;
    println!("ID {}", worker.worker_id);
    let mut tele = Telemetry::start(cfg, worker.worker_id);

    let mut model = VggMini::new(cfg.seed);
    let mut opt = Sgd::new(cfg.lr, 0.9, 0.0);
    let mut scratch = FleetScratch::default();
    let mut round = 0u64;
    let mut last_epoch: Option<u64> = None;
    let mut epochs_seen = 0u64;
    let mut last = (0usize, 0usize); // (rank, n) of the last barrier

    while round < cfg.rounds {
        let rs = worker.next_round(round)?;
        round = rs.round;
        last = (rs.rank, rs.n);
        println!("ROUND {} {} {} {}", rs.round, rs.epoch, rs.rank, rs.n);
        gcs_trace::set_round(round);

        // Roster changed (or this is a post-formation joiner): survivors'
        // parameters are authoritative, so rank 0 broadcasts and everyone
        // resets optimizer state to keep the fleet bit-identical. The very
        // first formation (epoch 1, seen by a founder) needs no sync —
        // deterministic seeding already made everyone identical, which is
        // what keeps healthy runs bitwise-equal to the threaded reference.
        let epoch_changed = last_epoch.map_or(rs.epoch > 1, |e| e != rs.epoch);
        if epoch_changed {
            tele.metrics
                .counter_add("fleet/membership/churn_total", 1.0);
            tele.event(
                rs.rank as u64,
                "epoch_change",
                &format!("epoch {} rank {} n {}", rs.epoch, rs.rank, rs.n),
            );
            let mut links = worker.links::<f32>();
            match sync_params(&mut model, &mut opt, &mut links) {
                Ok(()) => {}
                Err(e) if e.is_peer_failure() => {
                    println!("EVENT collective_error {e}");
                    tele.event(rs.rank as u64, "collective_error", &e.to_string());
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        if last_epoch != Some(rs.epoch) {
            epochs_seen += 1;
        }
        last_epoch = Some(rs.epoch);
        tele.metrics.gauge_set("fleet/epoch", rs.epoch as f64);

        let mut links = worker.links::<f32>();
        let t0 = Instant::now();
        match fleet_round(
            &mut model,
            &mut opt,
            &mut links,
            cfg.batch,
            round,
            &mut scratch,
        ) {
            Ok(out) => {
                tele.metrics
                    .observe(ROUND_HIST, t0.elapsed().as_nanos() as f64);
                tele.metrics.counter_add(
                    WIRE_BYTES_COUNTER,
                    (out.bytes_sent + out.bytes_received) as f64,
                );
                // Loss printed as f32 bits so the parent can compare
                // *bitwise*, not through a lossy decimal round-trip.
                println!("LOSS {} {:08x}", round, out.loss.to_bits());
                tele.ship_round(rs.rank as u64, rs.epoch);
                round += 1;
            }
            Err(e) if e.is_peer_failure() => {
                println!("EVENT collective_error {e}");
                tele.event(rs.rank as u64, "collective_error", &e.to_string());
                continue;
            }
            Err(e) => {
                tele.event(rs.rank as u64, "fatal", &e.to_string());
                return Err(e);
            }
        }
        if !cfg.stall.is_zero() {
            std::thread::sleep(cfg.stall);
        }
    }

    println!(
        "RESULT checksum={:016x} rounds={} epochs={} n={} rank={}",
        param_checksum(&model),
        cfg.rounds,
        epochs_seen,
        last.1,
        last.0,
    );
    tele.finish(last.0 as u64);
    worker.leave()
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("gcs_tcp_worker: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gcs_tcp_worker: {e}");
            println!("EVENT fatal {e}");
            ExitCode::FAILURE
        }
    }
}
