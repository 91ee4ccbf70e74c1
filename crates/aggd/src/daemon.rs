//! The aggregation daemon: one listener, two blocking threads per session,
//! and shard worker threads that exclusively own tenant state.
//!
//! Threading model (no locks anywhere on the request path, and nothing
//! sleeps on it — every thread blocks on the one thing it waits for):
//!
//! * the shared [`Listener`] routes each connection by its 4-byte magic,
//!   on the connection's own thread: `GET ` gets the Prometheus exposition
//!   of the fleet-aggregated per-tenant registries; a `GCSA` session keeps
//!   the thread as its **reader**;
//! * the **reader** blocks in a frame read, decodes the request, and
//!   forwards a job to the owning shard over its *bounded* channel
//!   (`try_send` full ⇒ typed `QueueFull` reject). Before each read it takes
//!   one slot of the session's `max_inflight`-deep window, so a tenant with
//!   that many unanswered requests stops only its own reads;
//! * the session's **writer** blocks on the session's reply channel,
//!   batches whatever replies are ready into one buffer, writes it with a
//!   blocking write, and frees one window slot per reply written — a
//!   client that does not read fills its socket, blocks its writer, and so
//!   throttles only itself. Replies the reader makes itself (bad frames,
//!   admission, `QueueFull`, `BYE_OK`) ride the same channel and are held
//!   until the shard replies before them are written, so every request is
//!   answered exactly once, in order, and a closing reject is written
//!   before the socket closes;
//! * each **shard thread** owns a disjoint set of `(tenant, model)` states
//!   keyed by hash, so round folding needs no synchronization at all —
//!   single-owner message passing is the "lock-free folding" discipline,
//!   and gradient buffers ride the job/reply messages (and back from the
//!   writer to the reader) so the warm path recycles them instead of
//!   allocating.
//!
//! Every queue in the pipeline is bounded: shard job queues by
//! [`AggdConfig::shard_queue`], a session's replies and its write buffer by
//! [`AggdConfig::max_inflight`]. Overload therefore surfaces as typed
//! `REJECT`s with retry-after hints, never as unbounded memory or silent
//! drops. Blocking reads, reply waits and writes wake every `STOP_SLICE`
//! to notice a shutdown.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// How long a session's blocking read, reply wait or write lasts before it
/// re-checks the shutdown flag.
const STOP_SLICE: Duration = Duration::from_millis(200);

/// Shard (or reader) → session writer messages. Gradient buffers travel
/// back inside replies so sessions recycle them.
enum Reply {
    /// A reply the session's reader makes itself (`None` answers a BYE),
    /// written after the session's first `after` shard replies.
    Local {
        after: u64,
        reject: Option<(RejectCode, u32, &'static str)>,
    },
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
    /// Binds `127.0.0.1:0` and starts the listener and shard threads.
    pub fn spawn(config: AggdConfig) -> std::io::Result<AggDaemon> {
        assert!(config.shards >= 1 && config.max_inflight >= 1);
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

        let listener = {
            let (st, shards, cfg) = (Arc::clone(&stats), shard_txs.clone(), config.clone());
            let stop = Arc::clone(&shutdown);
            Listener::spawn(
                "aggd-accept",
                config.bind_port,
                Arc::clone(&shutdown),
                move |magic, stream| match magic {
                    Some(AGGD_MAGIC) => {
                        st.sessions_total.fetch_add(1, Ordering::Relaxed);
                        serve_session(stream, &shards, &cfg, &stop, &st);
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
        // Waits for room in the bounded job queue; fails only once the
        // shard has exited.
        if shard.send(ShardJob::Snapshot { reply: tx }).is_err() {
            return Registry::new();
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
// Sessions
// ---------------------------------------------------------------------------

/// The reader's side of one tenant connection.
struct Session {
    fs: FramedStream,
    key: Option<Key>,
    dim: usize,
    reply_tx: ReplyTx,
    /// Gradient/estimate buffers returned by the writer (and refused jobs).
    spare_tx: SyncSender<Vec<f32>>,
    spare_rx: Receiver<Vec<f32>>,
    /// Jobs the shard has accepted; orders the reader's own replies.
    forwarded: u64,
}

impl Session {
    fn take_buf(&mut self) -> Vec<f32> {
        self.spare_rx.try_recv().unwrap_or_default()
    }

    fn reply(&mut self, reject: Option<(RejectCode, u32, &'static str)>) {
        let after = self.forwarded;
        let _ = self.reply_tx.send(Reply::Local { after, reject });
    }

    /// Answers a protocol violation with `BadFrame`; the session then
    /// closes. Returns false, the reader's "stop reading".
    fn close(&mut self, detail: &'static str) -> bool {
        self.reply(Some((RejectCode::BadFrame, 0, detail)));
        false
    }

    /// Forwards a job over the bounded shard queue; a full queue becomes a
    /// typed `QueueFull` reject with a retry hint (the shard is draining).
    /// Returns false once the shard has exited.
    fn forward(&mut self, shard: &SyncSender<ShardJob>, job: ShardJob) -> bool {
        match shard.try_send(job) {
            Ok(()) => self.forwarded += 1,
            Err(TrySendError::Full(job)) => {
                // Recycle any gradient buffer riding the refused job.
                if let ShardJob::Submit { buf, .. } | ShardJob::Fetch { out: buf, .. } = job {
                    let _ = self.spare_tx.try_send(buf);
                }
                self.reply(Some((RejectCode::QueueFull, 5, "shard queue full")));
            }
            Err(TrySendError::Disconnected(_)) => return false,
        }
        true
    }
}

/// Serves one `GCSA` session on the connection's own thread (the reader)
/// plus one writer thread, until the peer leaves, a protocol violation or
/// crash plan closes it, or the daemon shuts down.
fn serve_session(
    stream: TcpStream,
    shards: &[SyncSender<ShardJob>],
    cfg: &AggdConfig,
    stop: &Arc<AtomicBool>,
    stats: &Arc<Stats>,
) {
    let Ok(wh) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    // The window: one slot per unanswered request.
    let (slot_tx, slot_rx) = mpsc::sync_channel(cfg.max_inflight);
    let (spare_tx, spare_rx) = mpsc::sync_channel(cfg.max_inflight);
    let writer = {
        let (spare_tx, stop, stats) = (spare_tx.clone(), Arc::clone(stop), Arc::clone(stats));
        std::thread::Builder::new()
            .name("aggd-writer".into())
            .spawn(move || write_replies(wh, reply_rx, slot_rx, spare_tx, &stop, &stats))
    };
    let Ok(writer) = writer else {
        return;
    };
    let mut s = Session {
        fs: FramedStream::new(stream),
        key: None,
        dim: 0,
        reply_tx,
        spare_tx,
        spare_rx,
        forwarded: 0,
    };
    while slot_tx.send(()).is_ok() {
        let open = match s.fs.recv_frame_until(Duration::MAX, stop) {
            Ok(frame) => handle_frame(&mut s, shards, cfg, &frame),
            Err(RecvFail::Malformed(_)) => {
                stats.malformed_total.fetch_add(1, Ordering::Relaxed);
                s.close("malformed frame")
            }
            // Closed, or shutdown.
            Err(_) => false,
        };
        if !open {
            break;
        }
    }
    // The writer closes the socket once every reply is written.
    drop(s);
    let _ = writer.join();
}

/// Decodes one request and forwards it to its shard, or answers it on the
/// spot. Returns false when the session closes after this frame's reply.
fn handle_frame(
    s: &mut Session,
    shards: &[SyncSender<ShardJob>],
    cfg: &AggdConfig,
    frame: &[u8],
) -> bool {
    // Oversized frames are rejected before any decode: the bound is the
    // declared dim's submit payload, not the transport's 1 GiB ceiling.
    if frame.len() > 4 * cfg.max_dim + 128 {
        return s.close("frame exceeds session bound");
    }
    let mut c = Cursor::new(frame);
    let reply = s.reply_tx.clone();
    match c.u8() {
        Ok(T_HELLO) => {
            let Ok(tcfg) = decode_hello(&mut c) else {
                return s.close("bad hello");
            };
            if tcfg.dim > cfg.max_dim {
                s.reply(Some((
                    RejectCode::AdmissionDenied,
                    0,
                    "dim exceeds daemon cap",
                )));
                return true;
            }
            if s.key.is_some_and(|k| k != tcfg.key()) {
                s.reply(Some((RejectCode::BadFrame, 0, "session already bound")));
                return true;
            }
            s.key = Some(tcfg.key());
            s.dim = tcfg.dim;
            let shard = &shards[shard_of(tcfg.key(), shards.len())];
            s.forward(shard, ShardJob::Hello { cfg: tcfg, reply })
        }
        Ok(T_SUBMIT) => {
            let Some(key) = s.key else {
                return s.close("submit before hello");
            };
            let (Ok(round), Ok(rank)) = (c.u64(), c.u64()) else {
                return s.close("bad submit header");
            };
            let mut buf = s.take_buf();
            if c.remaining() != 4 * s.dim || c.f32s_into(s.dim, &mut buf).is_err() {
                return s.close("payload size mismatch");
            }
            let job = ShardJob::Submit {
                key,
                round,
                rank: rank as usize,
                buf,
                reply,
            };
            s.forward(&shards[shard_of(key, shards.len())], job)
        }
        Ok(T_FETCH) => {
            let Some(key) = s.key else {
                return s.close("fetch before hello");
            };
            let Ok(round) = c.u64() else {
                return s.close("bad fetch header");
            };
            let out = s.take_buf();
            let job = ShardJob::Fetch {
                key,
                round,
                out,
                reply,
            };
            s.forward(&shards[shard_of(key, shards.len())], job)
        }
        Ok(T_BYE) => {
            s.reply(None);
            false
        }
        Ok(_) => s.close("unknown tag"),
        Err(_) => s.close("empty frame"),
    }
}

/// A session's writer: blocks on the reply channel, encodes every reply
/// that is ready into one buffer, writes it, and frees one window slot per
/// reply written. The reader's own replies are held until `answered` shard
/// replies reach their `after`. Ends when every reply sender is gone (the
/// reader left and the shard answered), on a crash plan's `Close`, on a
/// dead socket, or on shutdown — and with it the window, which releases a
/// reader parked on a slot.
fn write_replies(
    mut wh: TcpStream,
    replies: Receiver<Reply>,
    slots: Receiver<()>,
    spare: SyncSender<Vec<f32>>,
    stop: &AtomicBool,
    stats: &Stats,
) {
    let _ = wh.set_write_timeout(Some(STOP_SLICE));
    let (mut out, mut held) = (Vec::new(), VecDeque::new());
    let mut answered = 0u64;
    let recycle = |buf: Vec<f32>| {
        let _ = spare.try_send(buf);
    };
    let reject = |out: &mut Vec<u8>, code: RejectCode, retry_after_ms: u32, detail: &str| {
        stats.rejects_total.fetch_add(1, Ordering::Relaxed);
        push_frame(out, |o| encode_reject(o, code, retry_after_ms, detail));
    };
    loop {
        let mut next = match replies.recv_timeout(STOP_SLICE) {
            Ok(reply) => Some(reply),
            Err(mpsc::RecvTimeoutError::Timeout) if !stop.load(Ordering::Relaxed) => continue,
            Err(_) => return,
        };
        out.clear();
        let mut written = 0;
        while let Some(reply) = next.take().or_else(|| replies.try_recv().ok()) {
            let from_shard = !matches!(reply, Reply::Local { .. });
            match reply {
                Reply::Local { after, reject } => held.push_back((after, reject)),
                Reply::HelloOk { shard } => push_frame(&mut out, |o| encode_hello_ok(o, shard)),
                Reply::SubmitOk { round, buf } => {
                    recycle(buf);
                    push_frame(&mut out, |o| encode_submit_ok(o, round));
                }
                Reply::FetchOk { round, data } => {
                    push_frame(&mut out, |o| encode_fetch_ok(o, round, &data));
                    recycle(data);
                }
                Reply::Rejected {
                    code,
                    retry_after_ms,
                    buf,
                } => {
                    if let Some(buf) = buf {
                        recycle(buf);
                    }
                    reject(&mut out, code, retry_after_ms, code.as_str());
                }
                Reply::Close => {
                    // Wakes the reader's blocking read.
                    let _ = wh.shutdown(Shutdown::Both);
                    return;
                }
            }
            answered += u64::from(from_shard);
            written += usize::from(from_shard);
            while let Some(&(_, local)) = held.front().filter(|(after, _)| *after <= answered) {
                held.pop_front();
                written += 1;
                match local {
                    Some((code, retry_after_ms, detail)) => {
                        reject(&mut out, code, retry_after_ms, detail)
                    }
                    None => push_frame(&mut out, encode_bye_ok),
                }
            }
        }
        if !write_until(&mut wh, &out, stop) {
            return;
        }
        for _ in 0..written {
            let _ = slots.try_recv();
        }
    }
}

/// Writes all of `out`, waking every `STOP_SLICE` while the peer is not
/// reading to notice a shutdown. False once the session cannot go on.
fn write_until(wh: &mut TcpStream, mut out: &[u8], stop: &AtomicBool) -> bool {
    while !out.is_empty() {
        match wh.write(out) {
            Ok(0) => return false,
            Ok(k) => out = &out[k..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}
