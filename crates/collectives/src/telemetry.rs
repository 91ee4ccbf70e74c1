//! The fleet telemetry plane's transport: cross-process metric/trace
//! shipping, the live Prometheus scrape endpoint, and collector-side crash
//! detection.
//!
//! One [`TelemetryCollector`] runs next to the rendezvous [`Registry`]
//! (usually in the same process); every fleet worker holds a
//! [`TelemetryShipper`]. The wire is a second, independent TCP connection
//! per worker — telemetry never rides the collective mesh, so a slow
//! scrape cannot stall an all-reduce.
//!
//! # Protocol
//!
//! A connecting client writes a 4-byte magic, which the collector's
//! [`Listener`] routes on. `"GCST"` starts a framed telemetry session
//! (`u32`-length-prefixed frames, the same [`FramedStream`] carrier as the
//! mesh); `"GET "` is an HTTP request, answered with a Prometheus text
//! exposition of the merged fleet registry — `curl http://addr/metrics`
//! works mid-run. Frame payloads begin with a tag byte
//! ([`TelemetryFrame`]):
//!
//! | tag | frame | body |
//! |-----|-------|------|
//! | 0x01 | PING | `t0:u64` (shipper clock, ns) |
//! | 0x02 | PONG | `t0:u64` echoed, `t_c:u64` (collector clock, ns) |
//! | 0x03 | HELLO | `worker_id:u64`, `offset:i64`, `err:u64` |
//! | 0x04 | SNAPSHOT | `rank:u64`, `epoch:u64`, [`encode_registry`] bytes |
//! | 0x05 | TRACE | `rank:u64`, [`encode_trace`] bytes |
//! | 0x06 | EVENT | `rank:u64`, `kind:str`, `detail:str` |
//! | 0x07 | FLIGHT | `rank:u64`, flight-recorder JSONL |
//! | 0x08 | BYE | empty |
//!
//! # Clock alignment
//!
//! [`TelemetryShipper::connect`] runs five PING/PONG rounds and keeps the
//! minimum-RTT sample: `offset = t_c − (t0 + t1)/2`, so
//! `collector_time ≈ worker_time + offset`, with error bounded by half
//! that round's RTT (the collector could have stamped `t_c` anywhere
//! inside it). On loopback this is microseconds — far below the
//! millisecond-scale spans it aligns. Both sides stamp with
//! [`gcs_trace::now_ns`], the same origin span timestamps use, so the
//! offset applies to shipped spans directly.
//!
//! # Crash detection
//!
//! Workers ship their bounded flight recorder every round. When a
//! connection dies without a BYE (SIGKILL, panic, network loss), the
//! collector marks the worker dead, records a `death` membership event,
//! and dumps the worker's *last shipped* flight JSONL to the configured
//! directory — the post-mortem survives even though the victim never got
//! to write anything.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gcs_metrics::fleet::{decode_registry, encode_registry, FleetAggregator};
use gcs_metrics::Registry as MetricsRegistry;
use gcs_trace::bytes::{put_str, put_u64, Cursor, Prefix};
use gcs_trace::wire::{decode_trace, encode_trace, merged_chrome_json, OwnedTrace, RankTrace};

use crate::tcp::{serve_metrics, FramedStream, Listener, RecvFail, HTTP_GET};

/// Magic written by a telemetry client immediately after connect.
pub const TELEMETRY_MAGIC: [u8; 4] = *b"GCST";

/// Ping/pong rounds in the connect handshake; minimum-RTT sample wins.
const CLOCK_SYNC_ROUNDS: usize = 5;

/// Handshake and ship deadlines.
const IO_DEADLINE: Duration = Duration::from_secs(10);

const TAG_PING: u8 = 0x01;
const TAG_PONG: u8 = 0x02;
const TAG_HELLO: u8 = 0x03;
const TAG_SNAPSHOT: u8 = 0x04;
const TAG_TRACE: u8 = 0x05;
const TAG_EVENT: u8 = 0x06;
const TAG_FLIGHT: u8 = 0x07;
const TAG_BYE: u8 = 0x08;

/// One decoded telemetry frame (layouts in the [module docs](self)).
#[derive(Debug)]
pub enum TelemetryFrame {
    Ping {
        t0: u64,
    },
    Pong {
        t0: u64,
        t_c: u64,
    },
    Hello {
        worker_id: u64,
        offset_ns: i64,
        err_ns: u64,
    },
    Snapshot {
        rank: u64,
        epoch: u64,
        registry: MetricsRegistry,
    },
    Trace {
        rank: u64,
        trace: OwnedTrace,
    },
    Event {
        rank: u64,
        kind: String,
        detail: String,
    },
    Flight {
        rank: u64,
        jsonl: String,
    },
    Bye,
}

impl TelemetryFrame {
    /// Decodes one frame payload; an empty frame, an unknown tag or a
    /// truncated body is an error.
    pub fn decode(frame: &[u8]) -> Result<TelemetryFrame, String> {
        let mut b = Cursor::new(frame);
        Ok(match b.u8()? {
            TAG_PING => TelemetryFrame::Ping { t0: b.u64()? },
            TAG_PONG => TelemetryFrame::Pong {
                t0: b.u64()?,
                t_c: b.u64()?,
            },
            TAG_HELLO => TelemetryFrame::Hello {
                worker_id: b.u64()?,
                offset_ns: b.u64()? as i64,
                err_ns: b.u64()?,
            },
            TAG_SNAPSHOT => TelemetryFrame::Snapshot {
                rank: b.u64()?,
                epoch: b.u64()?,
                registry: decode_registry(b.rest())?,
            },
            TAG_TRACE => TelemetryFrame::Trace {
                rank: b.u64()?,
                trace: decode_trace(b.rest())?,
            },
            TAG_EVENT => TelemetryFrame::Event {
                rank: b.u64()?,
                kind: b.str(Prefix::U64)?,
                detail: b.str(Prefix::U64)?,
            },
            TAG_FLIGHT => TelemetryFrame::Flight {
                rank: b.u64()?,
                jsonl: b.str(Prefix::U64)?,
            },
            TAG_BYE => TelemetryFrame::Bye,
            tag => return Err(format!("unknown telemetry tag {tag:#x}")),
        })
    }
}

// -- collector ---------------------------------------------------------------

/// Collector tuning knobs.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Where death-triggered flight-recorder dumps are written
    /// (`flight_worker<id>.jsonl`); `None` disables collector-side dumps.
    pub flight_dir: Option<PathBuf>,
    /// A connection silent for this long is treated as dead.
    pub idle_timeout: Duration,
    /// Per-worker bound on retained merged-trace events (oldest dropped).
    pub max_spans_per_worker: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            flight_dir: None,
            idle_timeout: Duration::from_secs(60),
            max_spans_per_worker: 1 << 16,
        }
    }
}

/// A membership or fault event observed by the collector, in arrival order.
#[derive(Clone, Debug)]
pub struct FleetEvent {
    /// Worker the event concerns (0 before its HELLO named it).
    pub worker_id: u64,
    /// The worker's last-known rank.
    pub rank: u64,
    /// Event kind: `join`, `leave`, `death`, or a worker-reported kind
    /// (`collective_error`, `epoch_change`, `fatal`, …).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

#[derive(Default)]
struct CollectorState {
    agg: FleetAggregator,
    /// Per-worker `(rank, retained events)` for the merged trace.
    traces: BTreeMap<u64, (u64, OwnedTrace)>,
    /// Per-worker last shipped flight-recorder JSONL.
    flights: BTreeMap<u64, String>,
    events: Vec<FleetEvent>,
    scrapes: u64,
    malformed: u64,
}

impl CollectorState {
    fn fleet_registry(&self) -> MetricsRegistry {
        let mut reg = self.agg.fleet_registry();
        reg.counter_add("fleet/telemetry/scrapes_total", self.scrapes as f64);
        reg.counter_add("fleet/telemetry/malformed_total", self.malformed as f64);
        reg
    }
}

/// The collector: one [`Listener`] routing telemetry sessions and HTTP
/// scrapes, aggregating everything into a [`FleetAggregator`]. Dropping it
/// stops the listener and, within a poll slice, every session.
pub struct TelemetryCollector {
    listener: Listener,
    state: Arc<Mutex<CollectorState>>,
}

impl TelemetryCollector {
    /// Binds `127.0.0.1:0` and starts serving.
    pub fn spawn(config: TelemetryConfig) -> std::io::Result<TelemetryCollector> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(CollectorState::default()));
        let listener = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&shutdown));
            Listener::spawn(
                "gcs-telemetry",
                0,
                shutdown,
                move |magic, stream| match magic {
                    Some(TELEMETRY_MAGIC) => serve_telemetry(stream, &state, &stop, &config),
                    Some(HTTP_GET) => serve_metrics(stream, || {
                        let mut st = lock(&state);
                        st.scrapes += 1;
                        st.fleet_registry().to_prometheus()
                    }),
                    _ => lock(&state).malformed += 1,
                },
            )?
        };
        Ok(TelemetryCollector { listener, state })
    }

    /// The address workers connect (and scrapers `GET /metrics`) to.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    fn state(&self) -> MutexGuard<'_, CollectorState> {
        lock(&self.state)
    }

    /// The merged fleet registry: every member's latest snapshot folded
    /// together plus derived `fleet/*` metrics (see
    /// [`FleetAggregator::fleet_registry`]) and the collector's own scrape
    /// and malformed-connection counters.
    pub fn fleet_registry(&self) -> MetricsRegistry {
        self.state().fleet_registry()
    }

    /// Prometheus text exposition of [`TelemetryCollector::fleet_registry`]
    /// — the same body the HTTP endpoint serves.
    pub fn prometheus(&self) -> String {
        self.fleet_registry().to_prometheus()
    }

    /// One merged Chrome trace: every worker's shipped spans with
    /// `pid = rank` and clock-offset-aligned timestamps.
    pub fn merged_chrome_json(&self) -> String {
        let st = self.state();
        let ranks: Vec<RankTrace> = st
            .traces
            .iter()
            .map(|(&worker_id, (rank, trace))| RankTrace {
                pid: *rank,
                label: format!("rank {rank} (worker {worker_id})"),
                clock_offset_ns: st
                    .agg
                    .member(worker_id)
                    .map(|m| m.clock_offset_ns)
                    .unwrap_or(0),
                trace: trace.clone(),
            })
            .collect();
        merged_chrome_json(&ranks)
    }

    /// Writes the merged Chrome trace to `path`.
    pub fn write_merged_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.merged_chrome_json())
    }

    /// Membership and fault events in arrival order.
    pub fn events(&self) -> Vec<FleetEvent> {
        self.state().events.clone()
    }

    /// A snapshot of the membership aggregator.
    pub fn aggregator(&self) -> FleetAggregator {
        self.state().agg.clone()
    }

    /// The last flight-recorder JSONL shipped by `worker_id`, if any.
    pub fn flight_of(&self, worker_id: u64) -> Option<String> {
        self.state().flights.get(&worker_id).cloned()
    }

    /// HTTP scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.state().scrapes
    }

    /// Connections dropped for protocol violations so far.
    pub fn malformed(&self) -> u64 {
        self.state().malformed
    }
}

fn lock<'a>(state: &'a Mutex<CollectorState>) -> MutexGuard<'a, CollectorState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs one worker's framed telemetry session to completion.
fn serve_telemetry(
    stream: TcpStream,
    state: &Mutex<CollectorState>,
    shutdown: &AtomicBool,
    config: &TelemetryConfig,
) {
    let mut fs = FramedStream::new(stream);
    let mut worker_id: Option<u64> = None;
    let mut rank: u64 = 0;
    let clean_bye = loop {
        let frame = match fs.recv_frame_until(config.idle_timeout, shutdown) {
            Ok(frame) => frame,
            Err(RecvFail::Malformed(_)) => {
                lock(state).malformed += 1;
                break false;
            }
            Err(_) => break false,
        };
        match handle_frame(&frame, &mut fs, state, config, &mut worker_id, &mut rank) {
            FrameOutcome::Continue => {}
            FrameOutcome::Bye => break true,
            FrameOutcome::Malformed => {
                lock(state).malformed += 1;
                break false;
            }
        }
    };
    let Some(id) = worker_id else { return };
    if clean_bye {
        let mut st = lock(state);
        st.agg.on_leave(id);
        st.events.push(FleetEvent {
            worker_id: id,
            rank,
            kind: "leave".into(),
            detail: String::new(),
        });
        return;
    }
    // Connection lost without BYE: the worker died. Record it and dump its
    // last shipped flight recorder as the post-mortem artifact.
    let mut st = lock(state);
    if st.agg.on_death(id) {
        st.events.push(FleetEvent {
            worker_id: id,
            rank,
            kind: "death".into(),
            detail: "connection lost without BYE".into(),
        });
        if let (Some(dir), Some(jsonl)) = (&config.flight_dir, st.flights.get(&id)) {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(format!("flight_worker{id}.jsonl")), jsonl);
        }
    }
}

enum FrameOutcome {
    Continue,
    Bye,
    Malformed,
}

fn handle_frame(
    frame: &[u8],
    fs: &mut FramedStream,
    state: &Mutex<CollectorState>,
    config: &TelemetryConfig,
    worker_id: &mut Option<u64>,
    rank: &mut u64,
) -> FrameOutcome {
    if !frame.is_empty() {
        lock(state).agg.note_frame(frame.len() as u64);
    }
    let Ok(decoded) = TelemetryFrame::decode(frame) else {
        return FrameOutcome::Malformed;
    };
    // Everything but the handshake needs a HELLO to attribute it to.
    let id = match (&decoded, *worker_id) {
        (TelemetryFrame::Ping { .. } | TelemetryFrame::Hello { .. } | TelemetryFrame::Bye, _) => 0,
        (_, Some(id)) => id,
        (_, None) => return FrameOutcome::Malformed,
    };
    match decoded {
        TelemetryFrame::Ping { t0 } => {
            let mut pong = vec![TAG_PONG];
            put_u64(&mut pong, t0);
            put_u64(&mut pong, gcs_trace::now_ns());
            if fs.send_frame(&pong).is_err() {
                return FrameOutcome::Malformed;
            }
        }
        TelemetryFrame::Pong { .. } => return FrameOutcome::Malformed,
        TelemetryFrame::Hello {
            worker_id: id,
            offset_ns,
            err_ns,
        } => {
            *worker_id = Some(id);
            let mut st = lock(state);
            st.agg.on_join(id, offset_ns, err_ns);
            st.events.push(FleetEvent {
                worker_id: id,
                rank: *rank,
                kind: "join".into(),
                detail: format!("clock offset {offset_ns} ns (±{err_ns} ns)"),
            });
        }
        TelemetryFrame::Snapshot {
            rank: r,
            epoch,
            registry,
        } => {
            *rank = r;
            lock(state).agg.on_snapshot(id, r, epoch, registry);
        }
        TelemetryFrame::Trace { rank: r, trace } => {
            *rank = r;
            let mut st = lock(state);
            let entry = st
                .traces
                .entry(id)
                .or_insert_with(|| (r, OwnedTrace::default()));
            entry.0 = r;
            entry.1.extend(trace);
            entry.1.truncate_oldest(config.max_spans_per_worker);
        }
        TelemetryFrame::Event {
            rank: r,
            kind,
            detail,
        } => {
            *rank = r;
            lock(state).events.push(FleetEvent {
                worker_id: id,
                rank: r,
                kind,
                detail,
            });
        }
        TelemetryFrame::Flight { rank: r, jsonl } => {
            *rank = r;
            lock(state).flights.insert(id, jsonl);
        }
        TelemetryFrame::Bye => return FrameOutcome::Bye,
    }
    FrameOutcome::Continue
}

// -- shipper -----------------------------------------------------------------

/// The worker-side end of the telemetry plane: one connection, periodic
/// snapshot/trace/flight shipping, clean BYE on exit. All methods return
/// `Err` (never panic) on a lost collector, so telemetry failure can never
/// take down training.
pub struct TelemetryShipper {
    fs: FramedStream,
    worker_id: u64,
    clock_offset_ns: i64,
    clock_err_ns: u64,
}

impl TelemetryShipper {
    /// Connects, estimates the clock offset over [`CLOCK_SYNC_ROUNDS`]
    /// ping/pongs (minimum-RTT sample wins), and announces `worker_id`.
    pub fn connect(addr: SocketAddr, worker_id: u64) -> Result<TelemetryShipper, String> {
        let mut stream = TcpStream::connect_timeout(&addr, IO_DEADLINE)
            .map_err(|e| format!("telemetry connect: {e}"))?;
        stream
            .write_all(&TELEMETRY_MAGIC)
            .map_err(|e| format!("telemetry magic: {e}"))?;
        let mut fs = FramedStream::new(stream);
        let mut best_rtt = u64::MAX;
        let mut offset: i64 = 0;
        for _ in 0..CLOCK_SYNC_ROUNDS {
            let t0 = gcs_trace::now_ns();
            let mut ping = vec![TAG_PING];
            put_u64(&mut ping, t0);
            fs.send_frame(&ping)
                .map_err(|e| format!("telemetry ping: {e}"))?;
            let frame = match fs.recv_frame(IO_DEADLINE) {
                Ok(f) => f,
                Err(_) => return Err("telemetry pong: no response".into()),
            };
            let t1 = gcs_trace::now_ns();
            let Ok(TelemetryFrame::Pong { t0: t0_echo, t_c }) = TelemetryFrame::decode(&frame)
            else {
                return Err("telemetry pong: unexpected frame".into());
            };
            if t0_echo != t0 {
                return Err("telemetry pong: echo mismatch".into());
            }
            let rtt = t1.saturating_sub(t0);
            if rtt < best_rtt {
                best_rtt = rtt;
                let midpoint = (t0 as i128 + t1 as i128) / 2;
                offset = (t_c as i128 - midpoint) as i64;
            }
        }
        let clock_err_ns = best_rtt / 2;
        let mut hello = vec![TAG_HELLO];
        put_u64(&mut hello, worker_id);
        put_u64(&mut hello, offset as u64);
        put_u64(&mut hello, clock_err_ns);
        fs.send_frame(&hello)
            .map_err(|e| format!("telemetry hello: {e}"))?;
        Ok(TelemetryShipper {
            fs,
            worker_id,
            clock_offset_ns: offset,
            clock_err_ns,
        })
    }

    /// This shipper's worker id.
    pub fn worker_id(&self) -> u64 {
        self.worker_id
    }

    /// Estimated `collector − worker` clock offset in nanoseconds.
    pub fn clock_offset_ns(&self) -> i64 {
        self.clock_offset_ns
    }

    /// Half-RTT error bound on the offset estimate, nanoseconds.
    pub fn clock_err_ns(&self) -> u64 {
        self.clock_err_ns
    }

    fn ship(&mut self, what: &str, frame: &[u8]) -> Result<(), String> {
        self.fs
            .send_frame(frame)
            .map_err(|e| format!("telemetry {what}: {e}"))
    }

    /// Ships a full registry snapshot (the collector replaces, not merges).
    pub fn ship_snapshot(
        &mut self,
        rank: u64,
        epoch: u64,
        reg: &MetricsRegistry,
    ) -> Result<(), String> {
        let mut frame = vec![TAG_SNAPSHOT];
        put_u64(&mut frame, rank);
        put_u64(&mut frame, epoch);
        frame.extend_from_slice(&encode_registry(reg));
        self.ship("snapshot", &frame)
    }

    /// Ships a batch of trace events (no-op for an empty trace).
    pub fn ship_trace(&mut self, rank: u64, trace: &gcs_trace::Trace) -> Result<(), String> {
        if trace.spans.is_empty() && trace.counters.is_empty() {
            return Ok(());
        }
        let mut frame = vec![TAG_TRACE];
        put_u64(&mut frame, rank);
        frame.extend_from_slice(&encode_trace(trace));
        self.ship("trace", &frame)
    }

    /// Ships a fault/membership/lifecycle event.
    pub fn ship_event(&mut self, rank: u64, kind: &str, detail: &str) -> Result<(), String> {
        let mut frame = vec![TAG_EVENT];
        put_u64(&mut frame, rank);
        put_str(&mut frame, Prefix::U64, kind);
        put_str(&mut frame, Prefix::U64, detail);
        self.ship("event", &frame)
    }

    /// Ships the current flight-recorder JSONL (collector keeps the latest).
    pub fn ship_flight(&mut self, rank: u64, jsonl: &str) -> Result<(), String> {
        let mut frame = vec![TAG_FLIGHT];
        put_u64(&mut frame, rank);
        put_str(&mut frame, Prefix::U64, jsonl);
        self.ship("flight", &frame)
    }

    /// Announces a clean departure (the collector records `leave`, not
    /// `death`).
    pub fn bye(&mut self) -> Result<(), String> {
        self.ship("bye", &[TAG_BYE])
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::time::Instant;

    use super::*;
    use gcs_metrics::fleet::{FlightRecorder, ROUND_HIST, WIRE_BYTES_COUNTER};

    fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !ok() {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn sample_registry(latency_ns: f64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for _ in 0..10 {
            reg.observe(ROUND_HIST, latency_ns);
        }
        reg.counter_add(WIRE_BYTES_COUNTER, 4096.0);
        reg
    }

    fn sample_trace() -> gcs_trace::Trace {
        gcs_trace::Trace {
            spans: vec![gcs_trace::SpanRecord {
                phase: gcs_trace::Phase::Network,
                name: "ring_all_reduce",
                start_ns: 5_000,
                dur_ns: 2_000,
                round: 1,
                tid: 0,
            }],
            counters: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_ship_scrape_death_and_flight_dump() {
        let dir = std::env::temp_dir().join(format!("gcs_tele_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let collector = TelemetryCollector::spawn(TelemetryConfig {
            flight_dir: Some(dir.clone()),
            ..TelemetryConfig::default()
        })
        .unwrap();

        // Worker 11 (rank 0): ships then departs cleanly.
        let mut a = TelemetryShipper::connect(collector.addr(), 11).unwrap();
        assert!(
            a.clock_offset_ns().unsigned_abs() < 1_000_000_000,
            "loopback offset must be sub-second, got {} ns",
            a.clock_offset_ns()
        );
        a.ship_snapshot(0, 1, &sample_registry(1000.0)).unwrap();
        a.ship_trace(0, &sample_trace()).unwrap();
        a.bye().unwrap();
        drop(a);

        // Worker 12 (rank 1): ships a flight recorder, then vanishes
        // without a BYE — a SIGKILL as the collector sees it.
        let mut b = TelemetryShipper::connect(collector.addr(), 12).unwrap();
        b.ship_snapshot(1, 1, &sample_registry(3000.0)).unwrap();
        b.ship_trace(1, &sample_trace()).unwrap();
        let mut fr = FlightRecorder::with_capacity(8);
        fr.record_event("collective_error", "peer 0 closed");
        b.ship_flight(1, &fr.to_jsonl()).unwrap();
        drop(b);

        wait_until("leave + death events", || {
            let kinds: Vec<String> = collector.events().iter().map(|e| e.kind.clone()).collect();
            kinds.contains(&"leave".to_string()) && kinds.contains(&"death".to_string())
        });

        let agg = collector.aggregator();
        let (joins, deaths, leaves, _) = agg.membership_totals();
        assert_eq!((joins, deaths, leaves), (2, 1, 1));
        assert!(!agg.member(12).unwrap().alive);

        // Merged trace: both ranks present as distinct pids.
        let merged = collector.merged_chrome_json();
        assert!(merged.contains("\"pid\":0"), "{merged}");
        assert!(merged.contains("\"pid\":1"), "{merged}");
        assert!(merged.contains("rank 1 (worker 12)"));

        // Fleet registry carries per-rank gauges and membership counters.
        let text = collector.prometheus();
        assert!(text.contains("gcs_fleet_rank_0_round_p50_ns"), "{text}");
        assert!(text.contains("gcs_fleet_rank_1_round_p50_ns"), "{text}");
        assert!(
            text.contains("gcs_fleet_membership_deaths_total 1"),
            "{text}"
        );

        // The victim's flight recorder was dumped collector-side.
        let dumped = std::fs::read_to_string(dir.join("flight_worker12.jsonl")).unwrap();
        assert!(dumped.contains("collective_error"));
        assert_eq!(collector.flight_of(12).as_deref(), Some(dumped.as_str()));
        drop(collector);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_scrape_serves_prometheus_text() {
        let collector = TelemetryCollector::spawn(TelemetryConfig::default()).unwrap();
        let mut w = TelemetryShipper::connect(collector.addr(), 7).unwrap();
        w.ship_snapshot(0, 1, &sample_registry(2000.0)).unwrap();
        wait_until("snapshot applied", || {
            collector.aggregator().member(7).map(|m| m.snapshots) == Some(1)
        });

        let mut sock = TcpStream::connect(collector.addr()).unwrap();
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        sock.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain"));
        assert!(response.contains("gcs_fleet_members 1"), "{response}");
        assert!(
            response.contains("gcs_fleet_rank_0_round_p50_ns"),
            "{response}"
        );
        assert!(response.contains("gcs_fleet_telemetry_scrapes_total 1"));
        assert_eq!(collector.scrapes(), 1);
        w.bye().unwrap();
    }

    #[test]
    fn malformed_connections_are_counted_and_ignored() {
        let collector = TelemetryCollector::spawn(TelemetryConfig::default()).unwrap();
        let mut sock = TcpStream::connect(collector.addr()).unwrap();
        sock.write_all(b"JUNKJUNKJUNK").unwrap();
        drop(sock);
        wait_until("malformed counted", || collector.malformed() >= 1);
        // The listener still works afterwards.
        let mut w = TelemetryShipper::connect(collector.addr(), 1).unwrap();
        w.ship_event(0, "probe", "still alive").unwrap();
        wait_until("event after junk", || {
            collector.events().iter().any(|e| e.kind == "probe")
        });
    }
}
