//! End-to-end fleet telemetry plane: 8 real worker processes shipping
//! metrics, traces, and flight recorders to an in-parent
//! [`TelemetryCollector`] while training over real sockets.
//!
//! This is the acceptance test for the observability plane:
//!
//! * mid-run, a live HTTP `GET /metrics` scrape of the collector returns
//!   per-rank `fleet/*` gauges for **all 8 ranks** — proof the scrape
//!   endpoint works while framed telemetry sessions are active on the
//!   same listener;
//! * the merged Chrome trace contains spans from all 8 ranks as distinct
//!   `pid`s on one clock-aligned timeline;
//! * `kill -9` of one worker produces a collector-side `death` membership
//!   event, a collector-dumped flight-recorder JSONL for the victim, and
//!   a victim-side local flight file that survived the SIGKILL (it is
//!   rewritten tmp+rename every round) — the post-mortem story end-to-end;
//! * telemetry never perturbs training: survivors still agree bitwise.
//!
//! A second test pins the aggregator hardening: registries produced by a
//! *chaotic* (faulty, crashing) run feed `FleetAggregator` without
//! panicking, answering with `None`/zero instead of garbage.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gcs_collectives::tcp::Registry;
use gcs_collectives::telemetry::{TelemetryCollector, TelemetryConfig};
use gcs_metrics::Json;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_gcs_tcp_worker");
const SEED: u64 = 11;

/// Kills every child on drop so a panicking test never leaks workers.
struct Fleet {
    children: Vec<Child>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn spawn_worker(
    registry: std::net::SocketAddr,
    telemetry: std::net::SocketAddr,
    flight: &std::path::Path,
    rounds: u64,
    stall_ms: u64,
) -> Child {
    Command::new(WORKER_BIN)
        .args([
            "--registry",
            &registry.to_string(),
            "--rounds",
            &rounds.to_string(),
            "--batch",
            "4",
            "--seed",
            &SEED.to_string(),
            "--stall-ms",
            &stall_ms.to_string(),
            "--telemetry",
            &telemetry.to_string(),
            "--flight",
            flight.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gcs_tcp_worker")
}

type Line = (usize, Option<String>);

fn stream_stdout(fleet: &mut Fleet, tx: &mpsc::Sender<Line>) {
    for (idx, child) in fleet.children.iter_mut().enumerate() {
        if let Some(stdout) = child.stdout.take() {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if tx.send((idx, Some(line))).is_err() {
                        return;
                    }
                }
                let _ = tx.send((idx, None));
            });
        }
    }
}

#[derive(Default, Debug)]
struct WorkerLog {
    worker_id: Option<u64>,
    losses: Vec<u64>,
    events: Vec<String>,
    result: Option<HashMap<String, String>>,
}

fn parse_line(log: &mut WorkerLog, line: &str) {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("ID") => log.worker_id = parts.next().and_then(|v| v.parse().ok()),
        Some("LOSS") => log.losses.push(parts.next().unwrap().parse().unwrap()),
        Some("EVENT") => log.events.push(line.to_string()),
        Some("RESULT") => {
            log.result = Some(
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            );
        }
        _ => {}
    }
}

/// Raw HTTP/1.1 scrape of the collector's `/metrics` endpoint — a real
/// socket client, not a call into the collector's own accessors.
fn http_scrape(addr: std::net::SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    (head.to_string(), body.to_string())
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_until(what: &str, deadline: Instant, mut probe: impl FnMut() -> bool) {
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Distinct `"pid":N` values among the merged trace's metadata records.
fn distinct_pids(merged: &str) -> BTreeSet<u64> {
    let mut pids = BTreeSet::new();
    for chunk in merged.split("\"process_name\"").skip(1) {
        if let Some(rest) = chunk.split("\"pid\":").nth(1) {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            pids.insert(digits.parse().expect("pid digits"));
        }
    }
    pids
}

#[test]
fn eight_rank_fleet_scrapes_merges_and_survives_a_sigkill() {
    const N: usize = 8;
    const ROUNDS: u64 = 4;
    const STALL_MS: u64 = 150;
    let deadline = Instant::now() + Duration::from_secs(300);

    let flight_dir = std::env::temp_dir().join(format!("gcs_fleetobs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    std::fs::create_dir_all(&flight_dir).expect("flight dir");

    let registry = Registry::spawn(N).expect("registry");
    let collector = TelemetryCollector::spawn(TelemetryConfig {
        flight_dir: Some(flight_dir.clone()),
        ..TelemetryConfig::default()
    })
    .expect("collector");

    let local_flight = |idx: usize| -> PathBuf { flight_dir.join(format!("local_{idx}.jsonl")) };
    let mut fleet = Fleet {
        children: Vec::new(),
    };
    for idx in 0..N {
        fleet.children.push(spawn_worker(
            registry.addr(),
            collector.addr(),
            &local_flight(idx),
            ROUNDS,
            STALL_MS,
        ));
    }
    let (tx, rx) = mpsc::channel();
    stream_stdout(&mut fleet, &tx);
    drop(tx);

    // Phase 1: let every worker finish round 1 so all 8 have shipped at
    // least one snapshot + trace, then assert the live telemetry surface
    // *mid-run* (rounds remain thanks to the inter-round stall).
    let victim = 0usize;
    let mut killed = false;
    let mut probed_live = false;
    let mut logs: Vec<WorkerLog> = (0..N).map(|_| WorkerLog::default()).collect();
    let mut open = N;
    while open > 0 {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok((idx, Some(line))) => {
                parse_line(&mut logs[idx], &line);
                let all_past_round_1 = logs.iter().all(|l| l.losses.iter().any(|&r| r >= 1));
                if !probed_live && all_past_round_1 {
                    probed_live = true;

                    // Shipping happens *after* the LOSS line is printed, so
                    // poll until all 8 ranks' gauges and spans landed.
                    wait_until("8 ranks in /metrics scrape", deadline, || {
                        let (head, body) = http_scrape(collector.addr());
                        head.starts_with("HTTP/1.1 200")
                            && (0..N)
                                .all(|r| body.contains(&format!("gcs_fleet_rank_{r}_round_p50_ns")))
                    });
                    wait_until("8 distinct pids in merged trace", deadline, || {
                        distinct_pids(&collector.merged_chrome_json()).len() >= N
                    });

                    // Live mid-run scrape: 200 OK, per-rank fleet/* gauges
                    // for every rank, fleet-level aggregates present.
                    let (head, body) = http_scrape(collector.addr());
                    assert!(head.starts_with("HTTP/1.1 200"), "scrape head: {head}");
                    assert!(head.contains("text/plain"), "scrape head: {head}");
                    for r in 0..N {
                        for gauge in ["round_p50_ns", "wire_bytes_total", "up"] {
                            let name = format!("gcs_fleet_rank_{r}_{gauge}");
                            assert!(body.contains(&name), "scrape missing {name}:\n{body}");
                        }
                    }
                    assert!(body.contains("gcs_fleet_members 8"), "members: {body}");
                    assert!(body.contains("gcs_fleet_straggler_skew"));
                    assert!(body.contains("gcs_fleet_telemetry_frames_total"));

                    // Merged Chrome trace: all 8 ranks as distinct pids on a
                    // shared timeline, with spans from the training loop.
                    let merged = collector.merged_chrome_json();
                    let pids = distinct_pids(&merged);
                    assert_eq!(pids, (0..N as u64).collect(), "pids: {pids:?}");
                    for span in ["fleet_compute", "fleet_all_reduce", "fleet_sgd_step"] {
                        assert!(merged.contains(span), "merged trace missing {span}");
                    }

                    // Now SIGKILL one rank: its telemetry socket dies without
                    // a BYE, which the collector must record as a death.
                    fleet.children[victim].kill().expect("kill -9 victim");
                    killed = true;
                }
            }
            Ok((_, None)) => open -= 1,
            Err(_) => panic!("fleet watchdog fired: telemetry run wedged"),
        }
    }
    assert!(killed, "live-probe phase never completed");

    let victim_id = logs[victim].worker_id.expect("victim printed ID");

    // Phase 2: post-mortem. The collector saw the death and dumped the
    // victim's last shipped flight recorder.
    wait_until("collector death event", deadline, || {
        collector
            .events()
            .iter()
            .any(|e| e.kind == "death" && e.worker_id == victim_id)
    });
    let (_, deaths, _, _) = collector.aggregator().membership_totals();
    assert!(deaths >= 1, "aggregator recorded no deaths");

    let dumped = flight_dir.join(format!("flight_worker{victim_id}.jsonl"));
    let dump = std::fs::read_to_string(&dumped).expect("collector-side flight dump");
    let victim_local =
        std::fs::read_to_string(local_flight(victim)).expect("victim's local flight file");
    for (what, jsonl) in [("collector dump", &dump), ("victim local", &victim_local)] {
        let lines: Vec<&str> = jsonl.lines().filter(|l| !l.is_empty()).collect();
        assert!(!lines.is_empty(), "{what} flight recorder is empty");
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("{what} bad JSONL line {line}: {e}"));
        }
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"span\"")),
            "{what} has no span entries"
        );
    }

    // Telemetry must not perturb training: all survivors finished every
    // round and agree bitwise.
    let checksums: Vec<u64> = logs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(i, l)| {
            let result = l
                .result
                .as_ref()
                .unwrap_or_else(|| panic!("survivor {i} missing RESULT: {:?}", l.events));
            u64::from_str_radix(&result["checksum"], 16).expect("hex checksum")
        })
        .collect();
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "survivors disagree under telemetry: {checksums:x?}"
    );

    // Survivors that outlived the victim left gracefully (BYE): the
    // collector's totals reflect 8 joins, ≥1 death, and the leaves.
    let agg = collector.aggregator();
    let (joins, _, leaves, _) = agg.membership_totals();
    assert_eq!(joins, N as u64, "every worker should have joined");
    assert!(leaves >= (N - 1) as u64, "survivors should leave cleanly");
    let (frames, bytes) = agg.transfer_totals();
    assert!(frames > 0 && bytes > 0, "no telemetry traffic accounted");

    let _ = std::fs::remove_dir_all(&flight_dir);
}

/// Metrics registries produced by a chaotic run — worker crashes,
/// dropped/dup'd frames, partial series — must feed the fleet aggregator
/// without panicking, answering `None`/zero.
#[test]
fn chaotic_partial_registries_never_panic_the_monitors() {
    use gcs_faults::{canned_inputs, run_chaos, ChaosOp, FaultPlan, RetryPolicy};
    use gcs_metrics::FleetAggregator;

    // A degraded fabric with a mid-collective crash: some workers abort.
    gcs_metrics::enable();
    let outcome = run_chaos(
        ChaosOp::Ring,
        canned_inputs(4, 64),
        FaultPlan::degraded(7, 0.05, 0.05, 0.05).with_crash(2, 3),
        RetryPolicy::fast_test(),
    );
    assert!(
        outcome.aborted_workers() > 0,
        "crash plan should abort someone"
    );
    let chaotic = gcs_metrics::take();

    // FleetAggregator over members that died before ever snapshotting, or
    // shipped registries with no fleet/round_ns histogram.
    let mut agg = FleetAggregator::new();
    agg.on_join(1, 0, 0);
    agg.on_join(2, -5_000, 100);
    agg.on_snapshot(2, 0, 1, chaotic.clone());
    assert!(agg.on_death(1), "live member death must register");
    assert_eq!(agg.straggler_skew(), None, "no round hists → no skew");
    let reg = agg.fleet_registry();
    let prom = reg.to_prometheus();
    assert!(prom.contains("gcs_fleet_members 1"));
    assert!(prom.contains("gcs_fleet_membership_deaths_total 1"));

    // A member whose snapshot *does* carry round data coexists with the
    // dead and empty ones.
    let mut with_rounds = gcs_metrics::Registry::new();
    for v in [1.0e6, 2.0e6, 3.0e6] {
        with_rounds.observe(gcs_metrics::fleet::ROUND_HIST, v);
    }
    agg.on_join(3, 0, 0);
    agg.on_snapshot(3, 1, 1, with_rounds);
    let skew = agg.straggler_skew();
    assert!(
        skew.is_none() || skew.unwrap().is_finite(),
        "skew must be None or finite, got {skew:?}"
    );
}
