//! The aggregation daemon: one listener, a pool of non-blocking session
//! I/O threads, and shard worker threads that exclusively own tenant state.
//!
//! Threading model (no locks anywhere on the request path):
//!
//! * the shared [`Listener`] routes each connection by its 4-byte magic:
//!   `GCSA` sessions go to an I/O thread round-robin; `GET ` connections
//!   get the Prometheus exposition of the fleet-aggregated per-tenant
//!   registries;
//! * each **I/O thread** owns its sessions outright and never blocks: it
//!   polls frames with `try_recv_frame`, forwards jobs to shards over
//!   *bounded* channels (`try_send` full ⇒ typed `QueueFull` reject), and
//!   drains reply queues into a bounded per-session write buffer flushed
//!   with non-blocking writes — a slow consumer throttles only itself
//!   (reads from its socket stop while its write buffer is full);
//! * each **shard thread** owns a disjoint set of `(tenant, model)` states
//!   keyed by hash, so round folding needs no synchronization at all —
//!   single-owner message passing is the "lock-free folding" discipline,
//!   and gradient buffers ride the job/reply messages so the warm path
//!   recycles them instead of allocating.
//!
//! Every queue in the pipeline is bounded: shard job queues by
//! [`AggdConfig::shard_queue`], per-session replies by
//! [`AggdConfig::max_inflight`], write buffers by the reply bound times the
//! frame size. Overload therefore surfaces as typed `REJECT`s with
//! retry-after hints, never as unbounded memory or silent drops.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcs_collectives::tcp::{push_frame, serve_metrics, Listener, HTTP_GET};
use gcs_collectives::{FramedStream, RecvFail};
use gcs_metrics::{FleetAggregator, Registry};

use crate::proto::{
    decode_hello, encode_bye_ok, encode_fetch_ok, encode_hello_ok, encode_reject, encode_submit_ok,
    splitmix64, Cursor, RejectCode, AGGD_MAGIC, T_BYE, T_FETCH, T_HELLO, T_SUBMIT,
};
use crate::state::{FetchVerdict, SubmitVerdict, TenantState, NOT_READY_RETRY_MS};

/// Daemon sizing and admission limits.
#[derive(Clone, Debug)]
pub struct AggdConfig {
    /// Shard worker threads (tenant states are hash-partitioned over them).
    pub shards: usize,
    /// Session I/O threads.
    pub io_threads: usize,
    /// Most `(tenant, model)` states admitted daemon-wide.
    pub max_tenants: usize,
    /// Largest gradient dimension a HELLO may declare.
    pub max_dim: usize,
    /// Depth of each shard's bounded job queue.
    pub shard_queue: usize,
    /// Most unanswered requests one session may have in flight.
    pub max_inflight: usize,
    /// Test hook: submits for this model id stall the owning shard for
    /// this many milliseconds, making queue-full backpressure reproducible.
    pub stall_ms_on_model: Option<(u64, u64)>,
    /// Loopback port to bind (0 = ephemeral).
    pub bind_port: u16,
}

impl Default for AggdConfig {
    fn default() -> AggdConfig {
        AggdConfig {
            shards: 2,
            io_threads: 2,
            max_tenants: 4096,
            max_dim: 1 << 16,
            shard_queue: 256,
            max_inflight: 16,
            stall_ms_on_model: None,
            bind_port: 0,
        }
    }
}

type Key = (u64, u64);
type ReplyTx = mpsc::Sender<Reply>;

/// Shard → session messages. Gradient buffers travel back inside replies
/// so sessions recycle them.
enum Reply {
    HelloOk {
        shard: usize,
    },
    SubmitOk {
        round: u64,
        buf: Vec<f32>,
    },
    FetchOk {
        round: u64,
        data: Vec<f32>,
    },
    Rejected {
        code: RejectCode,
        retry_after_ms: u32,
        buf: Option<Vec<f32>>,
    },
    /// The tenant's fault plan crashed its sessions: close without reply.
    Close,
}

/// Session → shard jobs.
enum ShardJob {
    Hello {
        cfg: crate::proto::TenantConfig,
        reply: ReplyTx,
    },
    Submit {
        key: Key,
        round: u64,
        rank: usize,
        buf: Vec<f32>,
        reply: ReplyTx,
    },
    Fetch {
        key: Key,
        round: u64,
        out: Vec<f32>,
        reply: ReplyTx,
    },
    Snapshot {
        reply: mpsc::Sender<Registry>,
    },
}

/// Daemon-wide counters surfaced in the scrape.
#[derive(Default)]
struct Stats {
    sessions_total: AtomicU64,
    scrapes_total: AtomicU64,
    malformed_total: AtomicU64,
    rejects_total: AtomicU64,
}

/// A running aggregation daemon. Dropping it shuts every thread down.
pub struct AggDaemon {
    listener: Listener,
    shutdown: Arc<AtomicBool>,
    shards: Vec<SyncSender<ShardJob>>,
    stats: Arc<Stats>,
    threads: Vec<JoinHandle<()>>,
}

impl AggDaemon {
    /// Binds `127.0.0.1:0` and starts the listener, I/O, and shard threads.
    pub fn spawn(config: AggdConfig) -> std::io::Result<AggDaemon> {
        assert!(config.shards >= 1 && config.io_threads >= 1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Stats::default());
        let mut threads = Vec::new();

        let mut shard_txs = Vec::new();
        for idx in 0..config.shards {
            let (tx, rx) = mpsc::sync_channel::<ShardJob>(config.shard_queue);
            shard_txs.push(tx);
            let cfg = config.clone();
            let stop = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aggd-shard-{idx}"))
                    .spawn(move || shard_main(idx, rx, cfg, stop))
                    .expect("spawn shard"),
            );
        }

        let mut io_txs = Vec::new();
        for idx in 0..config.io_threads {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            io_txs.push(tx);
            let cfg = config.clone();
            let stop = Arc::clone(&shutdown);
            let st = Arc::clone(&stats);
            let shards = shard_txs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aggd-io-{idx}"))
                    .spawn(move || io_main(rx, shards, cfg, stop, st))
                    .expect("spawn io"),
            );
        }

        let listener = {
            let (st, shards, next_io) =
                (Arc::clone(&stats), shard_txs.clone(), AtomicUsize::new(0));
            let stop = Arc::clone(&shutdown);
            Listener::spawn(
                "aggd-accept",
                config.bind_port,
                stop,
                move |magic, stream| match magic {
                    Some(AGGD_MAGIC) => {
                        st.sessions_total.fetch_add(1, Ordering::Relaxed);
                        let io = next_io.fetch_add(1, Ordering::Relaxed) % io_txs.len();
                        let _ = io_txs[io].send(stream);
                    }
                    Some(HTTP_GET) => serve_metrics(stream, || {
                        st.scrapes_total.fetch_add(1, Ordering::Relaxed);
                        scrape_registry(&shards, &st).to_prometheus()
                    }),
                    _ => {
                        st.malformed_total.fetch_add(1, Ordering::Relaxed);
                    }
                },
            )?
        };

        Ok(AggDaemon {
            listener,
            shutdown,
            shards: shard_txs,
            stats,
            threads,
        })
    }

    /// The address tenants connect (and scrapers `GET /metrics`) to.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The fleet-aggregated registry: every shard's snapshot (each the
    /// merge of its tenants' registries) folded through the PR 8
    /// [`FleetAggregator`], plus daemon-level session counters.
    pub fn registry(&self) -> Registry {
        scrape_registry(&self.shards, &self.stats)
    }

    /// Prometheus text exposition of [`AggDaemon::registry`] — the same
    /// body the HTTP scrape path serves.
    pub fn prometheus(&self) -> String {
        self.registry().to_prometheus()
    }
}

impl Drop for AggDaemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Routes a tenant key to its owning shard.
fn shard_of(key: Key, shards: usize) -> usize {
    (splitmix64(key.0 ^ key.1.rotate_left(32)) % shards as u64) as usize
}

// ---------------------------------------------------------------------------
// Scrape path
// ---------------------------------------------------------------------------

/// Collects one registry snapshot from every shard and folds them through
/// the fleet aggregator (each shard is a "fleet member"), then layers the
/// daemon's own counters on top.
fn scrape_registry(shards: &[SyncSender<ShardJob>], stats: &Stats) -> Registry {
    let mut agg = FleetAggregator::new();
    for (idx, shard) in shards.iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        agg.on_join(idx as u64, 0, 0);
        // The job queue is bounded; retry briefly rather than block forever.
        let mut job = ShardJob::Snapshot { reply: tx };
        for _ in 0..200 {
            match shard.try_send(job) {
                Ok(()) => break,
                Err(TrySendError::Full(j)) => {
                    job = j;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(TrySendError::Disconnected(_)) => return Registry::new(),
            }
        }
        if let Ok(reg) = rx.recv_timeout(Duration::from_secs(2)) {
            agg.on_snapshot(idx as u64, idx as u64, 0, reg);
        }
    }
    let mut reg = agg.fleet_registry();
    reg.counter_add(
        "aggd/sessions_total",
        stats.sessions_total.load(Ordering::Relaxed) as f64,
    );
    reg.counter_add(
        "aggd/scrapes_total",
        stats.scrapes_total.load(Ordering::Relaxed) as f64,
    );
    reg.counter_add(
        "aggd/malformed_total",
        stats.malformed_total.load(Ordering::Relaxed) as f64,
    );
    reg.counter_add(
        "aggd/rejects_total",
        stats.rejects_total.load(Ordering::Relaxed) as f64,
    );
    reg
}

// ---------------------------------------------------------------------------
// Shard threads
// ---------------------------------------------------------------------------

fn shard_main(idx: usize, rx: Receiver<ShardJob>, cfg: AggdConfig, shutdown: Arc<AtomicBool>) {
    let mut tenants: HashMap<Key, TenantState> = HashMap::new();
    let max_tenants_here = cfg.max_tenants.div_ceil(cfg.shards);
    let mut jobs: u64 = 0;
    loop {
        let job = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(j) => j,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        jobs += 1;
        match job {
            ShardJob::Hello { cfg: tcfg, reply } => {
                let key = tcfg.key();
                let r = match tenants.get(&key) {
                    Some(st) if st.config() == &tcfg => Reply::HelloOk { shard: idx },
                    Some(_) => Reply::Rejected {
                        code: RejectCode::ConfigMismatch,
                        retry_after_ms: 0,
                        buf: None,
                    },
                    None if tenants.len() >= max_tenants_here => Reply::Rejected {
                        code: RejectCode::AdmissionDenied,
                        retry_after_ms: 0,
                        buf: None,
                    },
                    None => match TenantState::new(tcfg) {
                        Ok(st) => {
                            tenants.insert(key, st);
                            Reply::HelloOk { shard: idx }
                        }
                        Err(_) => Reply::Rejected {
                            code: RejectCode::AdmissionDenied,
                            retry_after_ms: 0,
                            buf: None,
                        },
                    },
                };
                let _ = reply.send(r);
            }
            ShardJob::Submit {
                key,
                round,
                rank,
                buf,
                reply,
            } => {
                if let Some((model, ms)) = cfg.stall_ms_on_model {
                    if key.1 == model {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                let r = match tenants.get_mut(&key) {
                    None => Reply::Rejected {
                        code: RejectCode::BadFrame,
                        retry_after_ms: 0,
                        buf: Some(buf),
                    },
                    Some(st) => match st.submit(round, rank, &buf, Instant::now()) {
                        SubmitVerdict::Accepted { .. } => Reply::SubmitOk { round, buf },
                        SubmitVerdict::Rejected(code, retry_after_ms) => Reply::Rejected {
                            code,
                            retry_after_ms,
                            buf: Some(buf),
                        },
                        SubmitVerdict::Crash => Reply::Close,
                    },
                };
                let _ = reply.send(r);
            }
            ShardJob::Fetch {
                key,
                round,
                mut out,
                reply,
            } => {
                let r = match tenants.get_mut(&key) {
                    None => Reply::Rejected {
                        code: RejectCode::BadFrame,
                        retry_after_ms: 0,
                        buf: Some(out),
                    },
                    Some(st) => match st.fetch_into(round, &mut out) {
                        FetchVerdict::Ready => Reply::FetchOk { round, data: out },
                        FetchVerdict::NotReady => Reply::Rejected {
                            code: RejectCode::NotReady,
                            retry_after_ms: NOT_READY_RETRY_MS,
                            buf: Some(out),
                        },
                        FetchVerdict::Evicted => Reply::Rejected {
                            code: RejectCode::Evicted,
                            retry_after_ms: 0,
                            buf: Some(out),
                        },
                    },
                };
                let _ = reply.send(r);
            }
            ShardJob::Snapshot { reply } => {
                let mut reg = Registry::new();
                for st in tenants.values() {
                    reg.merge(st.registry());
                }
                reg.gauge_set("aggd/shard/tenants", tenants.len() as f64);
                reg.counter_add("aggd/shard/jobs_total", jobs as f64);
                let _ = reply.send(reg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Session I/O threads
// ---------------------------------------------------------------------------

/// One tenant connection, owned by exactly one I/O thread.
struct Session {
    fs: FramedStream,
    /// Second handle to the same socket for non-blocking writes (the
    /// `FramedStream` side is only used for reads).
    wh: TcpStream,
    key: Option<Key>,
    shard: usize,
    dim: usize,
    reply_tx: ReplyTx,
    reply_rx: Receiver<Reply>,
    inflight: usize,
    /// Recycled gradient/estimate buffers (bounded by `max_inflight`).
    spare: Vec<Vec<f32>>,
    outbuf: Vec<u8>,
    written: usize,
    /// Close once the write buffer drains.
    closing: bool,
    dead: bool,
}

impl Session {
    fn new(stream: TcpStream) -> std::io::Result<Session> {
        let wh = stream.try_clone()?;
        let (reply_tx, reply_rx) = mpsc::channel();
        Ok(Session {
            fs: FramedStream::new(stream),
            wh,
            key: None,
            shard: 0,
            dim: 0,
            reply_tx,
            reply_rx,
            inflight: 0,
            spare: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            closing: false,
            dead: false,
        })
    }

    fn take_buf(&mut self) -> Vec<f32> {
        self.spare.pop().unwrap_or_default()
    }

    /// Appends one frame (length prefix + payload) built by `build` to the
    /// write buffer.
    fn push_frame(&mut self, build: impl FnOnce(&mut Vec<u8>)) {
        push_frame(&mut self.outbuf, build);
    }

    fn push_reject(&mut self, code: RejectCode, retry_after_ms: u32, detail: &'static str) {
        self.push_frame(|out| encode_reject(out, code, retry_after_ms, detail));
    }

    /// Non-blocking flush of the write buffer. Returns true if bytes moved.
    fn flush(&mut self) -> bool {
        if self.written == self.outbuf.len() {
            self.outbuf.clear();
            self.written = 0;
            if self.closing {
                self.dead = true;
            }
            return false;
        }
        let _ = self.wh.set_nonblocking(true);
        let mut moved = false;
        while self.written < self.outbuf.len() {
            match self.wh.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(k) => {
                    self.written += k;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.written == self.outbuf.len() {
            self.outbuf.clear();
            self.written = 0;
            if self.closing {
                self.dead = true;
            }
        }
        moved
    }
}

fn io_main(
    new_rx: Receiver<TcpStream>,
    shards: Vec<SyncSender<ShardJob>>,
    cfg: AggdConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Stats>,
) {
    let mut sessions: Vec<Session> = Vec::new();
    // A session may buffer one reply frame per in-flight request; cap the
    // write buffer so a slow consumer's memory is bounded by construction.
    let out_cap = |dim: usize| (cfg.max_inflight + 1) * (4 * dim.max(8) + 64);
    loop {
        while let Ok(stream) = new_rx.try_recv() {
            if let Ok(s) = Session::new(stream) {
                sessions.push(s);
            }
        }
        let mut worked = false;
        for s in &mut sessions {
            let cap = out_cap(s.dim);
            worked |= pump(s, &shards, &cfg, &stats, cap);
        }
        sessions.retain(|s| !s.dead);
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        if !worked {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// One poll pass over one session. Returns true if any work happened.
fn pump(
    s: &mut Session,
    shards: &[SyncSender<ShardJob>],
    cfg: &AggdConfig,
    stats: &Stats,
    out_cap: usize,
) -> bool {
    let mut worked = false;
    // 1. Drain shard replies into the write buffer while there is room.
    while s.inflight > 0 && s.outbuf.len() < out_cap {
        match s.reply_rx.try_recv() {
            Ok(reply) => {
                s.inflight -= 1;
                worked = true;
                match reply {
                    Reply::HelloOk { shard } => {
                        s.shard = shard;
                        s.push_frame(|out| encode_hello_ok(out, shard));
                    }
                    Reply::SubmitOk { round, buf } => {
                        s.spare.push(buf);
                        s.push_frame(|out| encode_submit_ok(out, round));
                    }
                    Reply::FetchOk { round, data } => {
                        s.push_frame(|out| encode_fetch_ok(out, round, &data));
                        s.spare.push(data);
                    }
                    Reply::Rejected {
                        code,
                        retry_after_ms,
                        buf,
                    } => {
                        if let Some(b) = buf {
                            s.spare.push(b);
                        }
                        stats.rejects_total.fetch_add(1, Ordering::Relaxed);
                        s.push_reject(code, retry_after_ms, code.as_str());
                    }
                    Reply::Close => {
                        s.closing = true;
                    }
                }
            }
            Err(_) => break,
        }
    }
    // 2. Flush pending output.
    worked |= s.flush();
    if s.dead || s.closing {
        return worked;
    }
    // 3. Read new frames only while this session is under its own bounds —
    //    a stuffed write buffer or full in-flight window stops *its* reads
    //    (TCP backpressure to that tenant), never anyone else's.
    if s.outbuf.len() >= out_cap {
        return worked;
    }
    if s.inflight >= cfg.max_inflight {
        // The window is reply-bounded; nudge the client with a typed busy
        // signal instead of silently stalling would double-count replies,
        // so just stop reading: in-flight replies will drain first.
        return worked;
    }
    match s.fs.try_recv_frame() {
        Ok(Some(frame)) => {
            worked = true;
            handle_frame(s, shards, cfg, stats, &frame);
        }
        Ok(None) => {}
        Err(RecvFail::Closed) | Err(RecvFail::TimedOut) => {
            s.dead = true;
        }
        Err(RecvFail::Malformed(_)) => {
            stats.malformed_total.fetch_add(1, Ordering::Relaxed);
            s.push_reject(RejectCode::BadFrame, 0, "malformed frame");
            s.closing = true;
        }
    }
    worked
}

fn handle_frame(
    s: &mut Session,
    shards: &[SyncSender<ShardJob>],
    cfg: &AggdConfig,
    stats: &Stats,
    frame: &[u8],
) {
    // Oversized frames are rejected before any decode: the bound is the
    // declared dim's submit payload, not the transport's 1 GiB ceiling.
    let frame_cap = 4 * cfg.max_dim + 128;
    if frame.len() > frame_cap {
        stats.rejects_total.fetch_add(1, Ordering::Relaxed);
        s.push_reject(RejectCode::BadFrame, 0, "frame exceeds session bound");
        s.closing = true;
        return;
    }
    let mut c = Cursor::new(frame);
    let tag = match c.u8() {
        Ok(t) => t,
        Err(_) => {
            s.push_reject(RejectCode::BadFrame, 0, "empty frame");
            s.closing = true;
            return;
        }
    };
    match tag {
        T_HELLO => {
            let tcfg = match decode_hello(&mut c) {
                Ok(t) => t,
                Err(_) => {
                    stats.rejects_total.fetch_add(1, Ordering::Relaxed);
                    s.push_reject(RejectCode::BadFrame, 0, "bad hello");
                    s.closing = true;
                    return;
                }
            };
            if tcfg.dim > cfg.max_dim {
                stats.rejects_total.fetch_add(1, Ordering::Relaxed);
                s.push_reject(RejectCode::AdmissionDenied, 0, "dim exceeds daemon cap");
                return;
            }
            if let Some(k) = s.key {
                if k != tcfg.key() {
                    stats.rejects_total.fetch_add(1, Ordering::Relaxed);
                    s.push_reject(RejectCode::BadFrame, 0, "session already bound");
                    return;
                }
            }
            s.key = Some(tcfg.key());
            s.dim = tcfg.dim;
            let shard = shard_of(tcfg.key(), shards.len());
            let reply = s.reply_tx.clone();
            forward(
                s,
                stats,
                &shards[shard],
                ShardJob::Hello { cfg: tcfg, reply },
            );
        }
        T_SUBMIT => {
            let Some(key) = s.key else {
                s.push_reject(RejectCode::BadFrame, 0, "submit before hello");
                s.closing = true;
                return;
            };
            let (round, rank) = match (c.u64(), c.u64()) {
                (Ok(r), Ok(k)) => (r, k as usize),
                _ => {
                    s.push_reject(RejectCode::BadFrame, 0, "bad submit header");
                    s.closing = true;
                    return;
                }
            };
            let mut buf = s.take_buf();
            if c.remaining() != 4 * s.dim || c.f32s_into(s.dim, &mut buf).is_err() {
                s.spare.push(buf);
                stats.rejects_total.fetch_add(1, Ordering::Relaxed);
                s.push_reject(RejectCode::BadFrame, 0, "payload size mismatch");
                s.closing = true;
                return;
            }
            let shard = shard_of(key, shards.len());
            let reply = s.reply_tx.clone();
            forward(
                s,
                stats,
                &shards[shard],
                ShardJob::Submit {
                    key,
                    round,
                    rank,
                    buf,
                    reply,
                },
            );
        }
        T_FETCH => {
            let Some(key) = s.key else {
                s.push_reject(RejectCode::BadFrame, 0, "fetch before hello");
                s.closing = true;
                return;
            };
            let round = match c.u64() {
                Ok(r) => r,
                Err(_) => {
                    s.push_reject(RejectCode::BadFrame, 0, "bad fetch header");
                    s.closing = true;
                    return;
                }
            };
            let out = s.take_buf();
            let shard = shard_of(key, shards.len());
            let reply = s.reply_tx.clone();
            forward(
                s,
                stats,
                &shards[shard],
                ShardJob::Fetch {
                    key,
                    round,
                    out,
                    reply,
                },
            );
        }
        T_BYE => {
            s.push_frame(encode_bye_ok);
            s.closing = true;
        }
        _ => {
            stats.rejects_total.fetch_add(1, Ordering::Relaxed);
            s.push_reject(RejectCode::BadFrame, 0, "unknown tag");
            s.closing = true;
        }
    }
}

/// Forwards a job over the bounded shard queue; a full queue becomes a
/// typed `QueueFull` reject with a retry hint (the shard is draining).
fn forward(s: &mut Session, stats: &Stats, shard: &SyncSender<ShardJob>, job: ShardJob) {
    match shard.try_send(job) {
        Ok(()) => s.inflight += 1,
        Err(TrySendError::Full(job)) => {
            // Recycle any gradient buffer riding the refused job.
            match job {
                ShardJob::Submit { buf, .. } => s.spare.push(buf),
                ShardJob::Fetch { out, .. } => s.spare.push(out),
                _ => {}
            }
            stats.rejects_total.fetch_add(1, Ordering::Relaxed);
            s.push_reject(RejectCode::QueueFull, 5, "shard queue full");
        }
        Err(TrySendError::Disconnected(_)) => {
            s.dead = true;
        }
    }
}
