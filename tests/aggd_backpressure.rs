//! Backpressure and admission regression suite for the aggregation daemon.
//!
//! The daemon's overload contract: every queue is bounded, every refusal
//! is a typed REJECT with a retry hint, and nothing is ever dropped
//! silently or deadlocks — one reply per request, in order, always. A slow
//! consumer is throttled by *its own* bounds (reply window, TCP); other
//! tenants keep completing rounds meanwhile, and a shutdown reaches every
//! session however it is stuck.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gradient_utility::aggd::proto::{
    decode_reject, encode_fetch, encode_hello, encode_submit, Cursor, RejectCode, AGGD_MAGIC,
    T_HELLO_OK, T_REJECT, T_SUBMIT_OK,
};
use gradient_utility::aggd::{AggDaemon, AggdConfig, SchemeSpec, TenantClient, TenantConfig};
use gradient_utility::collectives::tcp::{FleetWorker, Registry, TcpTimeouts};
use gradient_utility::collectives::{FramedStream, RecvFail};

const DEADLINE: Duration = Duration::from_secs(20);

fn cfg(tenant: u64, model: u64, n_workers: usize) -> TenantConfig {
    TenantConfig {
        tenant,
        model,
        dim: 32,
        n_workers,
        experiment_seed: 42,
        scheme: SchemeSpec::TopK {
            bits_x100: 200,
            error_feedback: true,
        },
        fault: None,
    }
}

/// Reads replies until `want` frames arrived, classifying each.
/// Returns `(accepted_rounds, rejects_by_code)`.
fn drain_replies(client: &mut TenantClient, want: usize) -> (Vec<u64>, Vec<(RejectCode, u32)>) {
    let mut accepted = Vec::new();
    let mut rejects = Vec::new();
    for _ in 0..want {
        let frame = client
            .raw_stream()
            .recv_frame(DEADLINE)
            .expect("every pipelined frame must be answered");
        match frame[0] {
            T_SUBMIT_OK => {
                accepted.push(Cursor::new(&frame[1..]).u64().expect("submit_ok round"));
            }
            T_REJECT => {
                let r = decode_reject(&mut Cursor::new(&frame[1..])).expect("typed reject");
                rejects.push((r.code, r.retry_after_ms));
            }
            t => panic!("unexpected reply tag {t:#x}"),
        }
    }
    (accepted, rejects)
}

/// Overrunning the per-tenant pending-round window draws typed
/// `TenantBusy` rejects with retry hints — and every single pipelined
/// frame is answered (nothing dropped, nothing deadlocked).
#[test]
fn window_overrun_is_typed_and_every_frame_answered() {
    let daemon = AggDaemon::spawn(AggdConfig::default()).expect("spawn");
    // Two workers and only rank 0 submitting: rounds never fold, so the
    // 4-round window fills deterministically.
    let tcfg = cfg(1, 1, 2);
    let mut client = TenantClient::connect(daemon.addr(), &tcfg, DEADLINE).expect("connect");
    let grad = vec![0.25f32; 32];
    let total = 30usize;
    let mut enc = Vec::new();
    for round in 0..total as u64 {
        encode_submit(&mut enc, round, 0, &grad);
        client
            .raw_stream()
            .send_frame(&enc)
            .expect("pipeline submit");
    }
    let (accepted, rejects) = drain_replies(&mut client, total);
    assert_eq!(
        accepted,
        vec![0, 1, 2, 3],
        "exactly the window's worth of submits accepted"
    );
    assert_eq!(rejects.len(), total - 4);
    for (code, retry_ms) in rejects {
        assert_eq!(code, RejectCode::TenantBusy);
        assert!(retry_ms > 0, "backpressure must carry a retry hint");
    }
}

/// A stalled shard fills its bounded job queue; the overflow becomes typed
/// `QueueFull` rejects (with hints), service resumes when the shard
/// drains, and the stalled tenant never perturbs a tenant on another
/// daemon run's path to completion.
#[test]
fn shard_queue_full_is_typed_queue_full() {
    let daemon = AggDaemon::spawn(AggdConfig {
        shards: 1,
        shard_queue: 2,
        // Any submit for model 99 stalls the (only) shard 300 ms.
        stall_ms_on_model: Some((99, 300)),
        ..AggdConfig::default()
    })
    .expect("spawn");
    let staller_cfg = cfg(7, 99, 1);
    let victim_cfg = cfg(8, 1, 1);
    let mut staller =
        TenantClient::connect(daemon.addr(), &staller_cfg, DEADLINE).expect("connect");
    let mut victim = TenantClient::connect(daemon.addr(), &victim_cfg, DEADLINE).expect("connect");

    let grad = vec![1.0f32; 32];
    let mut enc = Vec::new();
    // Kick the stall, give the shard time to pick the job up, then flood.
    encode_submit(&mut enc, 0, 0, &grad);
    staller
        .raw_stream()
        .send_frame(&enc)
        .expect("staller submit");
    std::thread::sleep(Duration::from_millis(100));

    let flood = 10usize;
    for round in 0..flood as u64 {
        encode_submit(&mut enc, round, 0, &grad);
        victim.raw_stream().send_frame(&enc).expect("flood submit");
    }
    let (accepted, rejects) = drain_replies(&mut victim, flood);
    assert!(
        !accepted.is_empty(),
        "queued submits complete once the shard drains"
    );
    assert!(
        rejects.iter().any(|(c, _)| *c == RejectCode::QueueFull),
        "a full bounded shard queue must surface as QueueFull, got {rejects:?}"
    );
    for (code, retry_ms) in &rejects {
        assert!(
            matches!(code, RejectCode::QueueFull | RejectCode::TenantBusy),
            "overload must stay typed backpressure, got {code:?}"
        );
        assert!(*retry_ms > 0, "backpressure must carry a retry hint");
    }
    // The staller's own submit was answered too.
    let (s_accepted, s_rejects) = drain_replies(&mut staller, 1);
    assert_eq!((s_accepted.len(), s_rejects.len()), (1, 0));

    // Service is healthy again: resubmit the rejected rounds in order
    // (the fold cursor is strictly in-order), then complete fresh rounds.
    let done: std::collections::HashSet<u64> = accepted.iter().copied().collect();
    let mut out = Vec::new();
    for round in 0..flood as u64 {
        if !done.contains(&round) {
            victim
                .run_round(round, 0, &grad, &mut out)
                .expect("recovery round");
        }
    }
    for round in flood as u64..flood as u64 + 3 {
        victim
            .run_round(round, 0, &grad, &mut out)
            .expect("post-overload round");
    }
}

/// A tenant that never reads its replies is bounded by its own reply
/// window and write buffer; a concurrent well-behaved tenant keeps
/// completing rounds, and when the slow consumer finally drains it finds
/// one reply per request — nothing was dropped.
#[test]
fn slow_consumer_is_isolated_and_lossless() {
    let daemon = AggDaemon::spawn(AggdConfig::default()).expect("spawn");
    let slow_cfg = cfg(21, 1, 1);
    let fast_cfg = cfg(22, 1, 1);
    let mut slow = TenantClient::connect(daemon.addr(), &slow_cfg, DEADLINE).expect("connect");
    let grad = vec![0.5f32; 32];

    // Stuff the slow tenant's pipe without ever reading a reply.
    let stuffed = 200usize;
    let mut enc = Vec::new();
    for round in 0..stuffed as u64 {
        encode_submit(&mut enc, round, 0, &grad);
        slow.raw_stream().send_frame(&enc).expect("stuff submit");
    }

    // Meanwhile the fast tenant completes a full workload promptly.
    let fast_rounds = 20u64;
    let t0 = Instant::now();
    let mut fast = TenantClient::connect(daemon.addr(), &fast_cfg, DEADLINE).expect("connect");
    let mut out = Vec::new();
    for round in 0..fast_rounds {
        fast.run_round(round, 0, &grad, &mut out)
            .expect("fast tenant round while slow consumer stuffed");
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "fast tenant stalled behind a slow consumer: {:?}",
        t0.elapsed()
    );

    // The slow consumer drains: exactly one reply per pipelined frame.
    let (accepted, rejects) = drain_replies(&mut slow, stuffed);
    assert_eq!(
        accepted.len() + rejects.len(),
        stuffed,
        "every stuffed frame answered exactly once"
    );
    // Single-worker rounds fold immediately, so accepted submits dominate;
    // any rejects must be typed backpressure, never silent loss.
    for (code, _) in rejects {
        assert!(
            matches!(code, RejectCode::TenantBusy | RejectCode::QueueFull),
            "unexpected reject {code:?}"
        );
    }

    // Daemon-side accounting saw both tenants.
    let reg = daemon.registry();
    assert!(reg.counter("aggd/tenant/21:1/rounds_total").unwrap_or(0.0) >= 1.0);
    assert_eq!(
        reg.counter("aggd/tenant/22:1/rounds_total"),
        Some(fast_rounds as f64)
    );
}

/// Admission control: over-cap dims and over-cap tenant counts draw typed
/// `AdmissionDenied`, and a config mismatch on re-HELLO is typed too.
#[test]
fn admission_and_config_mismatch_are_typed() {
    let daemon = AggDaemon::spawn(AggdConfig {
        max_dim: 64,
        max_tenants: 2,
        shards: 1,
        ..AggdConfig::default()
    })
    .expect("spawn");

    fn expect_reject(
        got: Result<TenantClient, gradient_utility::aggd::ClientError>,
        want: RejectCode,
        what: &str,
    ) {
        match got {
            Err(gradient_utility::aggd::ClientError::Rejected(r)) => {
                assert_eq!(r.code, want, "{what}")
            }
            Ok(_) => panic!("{what}: admitted instead of {want:?}"),
            Err(e) => panic!("{what}: wanted {want:?}, got {e}"),
        }
    }

    // Oversized dim.
    let mut big = cfg(1, 1, 1);
    big.dim = 128;
    expect_reject(
        TenantClient::connect(daemon.addr(), &big, DEADLINE),
        RejectCode::AdmissionDenied,
        "oversized dim",
    );

    // Tenant cap: the cap is per daemon (ceil-divided over shards).
    let _a = TenantClient::connect(daemon.addr(), &cfg(1, 1, 1), DEADLINE).expect("first");
    let _b = TenantClient::connect(daemon.addr(), &cfg(2, 1, 1), DEADLINE).expect("second");
    expect_reject(
        TenantClient::connect(daemon.addr(), &cfg(3, 1, 1), DEADLINE),
        RejectCode::AdmissionDenied,
        "over-cap tenant",
    );

    // Re-HELLO with a different config for an existing tenant.
    let mut changed = cfg(1, 1, 1);
    changed.experiment_seed = 777;
    expect_reject(
        TenantClient::connect(daemon.addr(), &changed, DEADLINE),
        RejectCode::ConfigMismatch,
        "config drift",
    );
}

/// Connections that never send their magic must not stall anyone else's
/// connect: the accept thread hands each to a thread of its own and goes
/// back to accepting. The deadline is the only clock in these tests.
#[test]
fn silent_connections_do_not_stall_a_tenant_connect() {
    let daemon = AggDaemon::spawn(AggdConfig::default()).expect("spawn");
    let _silent: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(daemon.addr()).expect("silent dial"))
        .collect();
    let deadline = Duration::from_millis(1500);
    TenantClient::connect(daemon.addr(), &cfg(31, 1, 1), deadline)
        .expect("connect behind three silent connections");
}

/// The rendezvous registry shares the daemon's accept path.
#[test]
fn silent_connections_do_not_stall_a_registry_join() {
    let registry = Registry::spawn(1).expect("registry");
    let _silent: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(registry.addr()).expect("silent dial"))
        .collect();
    let timeouts = TcpTimeouts {
        barrier: Duration::from_millis(1500),
        ..TcpTimeouts::fast_test()
    };
    FleetWorker::join(registry.addr(), timeouts).expect("join behind three silent connections");
}

/// Reads frames until the daemon's side of `fs` is closed, within
/// `deadline`; returns how many arrived first. Closed is the socket's EOF,
/// which comes only once the session's reader and writer have both let go
/// of it.
fn frames_until_eof(fs: &mut FramedStream, deadline: Duration) -> usize {
    let t0 = Instant::now();
    let mut frames = 0;
    loop {
        let left = deadline.saturating_sub(t0.elapsed());
        match fs.recv_frame(left) {
            Ok(_) => frames += 1,
            Err(RecvFail::Closed) => return frames,
            Err(e) => panic!("wanted EOF within {deadline:?}, got {e:?} after {frames} frames"),
        }
    }
}

/// A session that closes on a protocol violation answers everything it
/// read before it, in order, then the `BadFrame`, then closes. The shard
/// is slowed so its replies are still pending when the reader meets the
/// bad frame: the reject must wait for them.
#[test]
fn closing_reject_follows_every_earlier_reply_then_eof() {
    let daemon = AggDaemon::spawn(AggdConfig {
        shards: 1,
        stall_ms_on_model: Some((5, 2)),
        ..AggdConfig::default()
    })
    .expect("spawn");
    let mut client =
        TenantClient::connect(daemon.addr(), &cfg(41, 5, 1), DEADLINE).expect("connect");
    let grad = vec![0.75f32; 32];
    let pipelined = 6u64;
    let mut enc = Vec::new();
    for round in 0..pipelined {
        encode_submit(&mut enc, round, 0, &grad);
        client
            .raw_stream()
            .send_frame(&enc)
            .expect("pipeline submit");
    }
    // A SUBMIT whose payload is one element short.
    encode_submit(&mut enc, pipelined, 0, &grad[1..]);
    client
        .raw_stream()
        .send_frame(&enc)
        .expect("send bad frame");

    for round in 0..pipelined {
        let reply = drain_replies(&mut client, 1);
        assert_eq!(reply, (vec![round], vec![]), "reply {round} out of order");
    }
    let last = drain_replies(&mut client, 1);
    assert_eq!(last, (vec![], vec![(RejectCode::BadFrame, 0)]));
    assert_eq!(frames_until_eof(client.raw_stream(), DEADLINE), 0);
}

/// Dropping the daemon closes an idle session: its reader and writer both
/// notice the shutdown and let go of the socket.
#[test]
fn shutdown_closes_an_idle_session() {
    let daemon = AggDaemon::spawn(AggdConfig::default()).expect("spawn");
    let mut idle = TenantClient::connect(daemon.addr(), &cfg(51, 1, 1), DEADLINE).expect("connect");
    drop(daemon);
    assert_eq!(
        frames_until_eof(idle.raw_stream(), Duration::from_secs(5)),
        0
    );
}

/// Dropping the daemon also closes a session stuck every way at once: its
/// client pipelined far more max-dim FETCHes than the socket buffers hold
/// and never reads, so the writer is blocked in a write, the reader is
/// parked on a window slot, and the client's own sends back up. The client
/// drains what was buffered and then sees EOF.
#[test]
fn shutdown_closes_a_session_stuffed_with_unread_replies() {
    let config = AggdConfig::default();
    let dim = config.max_dim;
    let daemon = AggDaemon::spawn(config).expect("spawn");
    let mut tcfg = cfg(61, 1, 1);
    tcfg.dim = dim;

    // A raw session, so the test owns the socket's write timeout.
    let mut raw = TcpStream::connect(daemon.addr()).expect("dial");
    raw.write_all(&AGGD_MAGIC).expect("magic");
    let mut fs = FramedStream::new(raw.try_clone().expect("clone"));
    let mut enc = Vec::new();
    encode_hello(&mut enc, &tcfg);
    fs.send_frame(&enc).expect("hello");
    assert_eq!(fs.recv_frame(DEADLINE).expect("hello reply")[0], T_HELLO_OK);
    let grad = vec![0.5f32; dim];
    encode_submit(&mut enc, 0, 0, &grad);
    fs.send_frame(&enc).expect("submit");
    assert_eq!(
        fs.recv_frame(DEADLINE).expect("submit reply")[0],
        T_SUBMIT_OK
    );

    // 64 FETCH replies of 256 KiB each: four times what loopback buffers
    // and the writer's window hold.
    encode_fetch(&mut enc, 0);
    for _ in 0..64 {
        fs.send_frame(&enc).expect("pipeline fetch");
    }
    // The session's reader must stop reading: more max-dim SUBMITs go out
    // until the client's own send stalls.
    raw.set_write_timeout(Some(Duration::from_millis(300)))
        .expect("write timeout");
    encode_submit(&mut enc, 1, 0, &grad);
    let stalled = (0..400).any(|_| fs.send_frame(&enc).is_err());
    assert!(
        stalled,
        "a session that never reads its replies kept reading requests"
    );

    drop(daemon);
    let frames = frames_until_eof(&mut fs, Duration::from_secs(10));
    assert!(
        frames < 64,
        "the stuffed session ran to completion instead of closing"
    );
}
