//! Multi-process elastic TCP fleet tests: real OS processes, real sockets,
//! real SIGKILL.
//!
//! The parent hosts the rendezvous [`Registry`] and spawns
//! `gcs_tcp_worker` child processes (the binary Cargo builds alongside
//! these tests — `CARGO_BIN_EXE_gcs_tcp_worker`). Children speak a
//! line-oriented protocol on stdout (`ID` / `ROUND` / `LOSS` / `EVENT` /
//! `RESULT`); the parent streams those lines through a channel so it can
//! react mid-run — kill a worker the moment it enters a round, admit a
//! late joiner once training is underway — under a global wall-clock
//! watchdog that kills the whole fleet instead of letting a wedged test
//! hang CI.
//!
//! What the suite pins down:
//! * a healthy 8-process fleet ends **bitwise identical** to the
//!   in-process `ThreadedCluster` reference — same checksums, same
//!   per-rank loss bits (`eight_process_fleet_matches_threaded_bitwise`);
//! * `kill -9` mid-round surfaces as a typed `CollectiveError` on the
//!   survivors, who renumber and finish the run agreeing with each other
//!   (`sigkilled_worker_surfaces_error_and_survivors_renumber`);
//! * a worker that joins mid-run is admitted at the next barrier, adopts
//!   the fleet's round clock and parameters, and converges to the same
//!   final checksum (`late_joiner_is_admitted_and_converges`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gcs_collectives::tcp::Registry;
use gcs_collectives::transport::ThreadedCluster;
use gcs_ddp::fleet::{fleet_round, param_checksum, FleetScratch};
use gcs_nn::{Sgd, VggMini};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_gcs_tcp_worker");
const SEED: u64 = 11;
const LR: f32 = 0.05;

/// Kills every child on drop so a panicking (or timed-out) test never
/// leaves orphan workers spinning on the box.
struct Fleet {
    children: Vec<Child>,
}

impl Fleet {
    fn new() -> Fleet {
        Fleet {
            children: Vec::new(),
        }
    }

    fn spawn(&mut self, registry: std::net::SocketAddr, rounds: u64, batch: usize, stall_ms: u64) {
        let child = Command::new(WORKER_BIN)
            .args([
                "--registry",
                &registry.to_string(),
                "--rounds",
                &rounds.to_string(),
                "--batch",
                &batch.to_string(),
                "--seed",
                &SEED.to_string(),
                "--lr",
                &LR.to_string(),
                "--stall-ms",
                &stall_ms.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gcs_tcp_worker");
        self.children.push(child);
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One stdout line from child `idx`, or `None` when its pipe closed.
type Line = (usize, Option<String>);

/// Streams each child's stdout into `tx`, line by line, from a thread per
/// child — the parent multiplexes all children over one channel.
fn stream_stdout(fleet: &mut Fleet, tx: &mpsc::Sender<Line>) {
    for (idx, child) in fleet.children.iter_mut().enumerate() {
        if let Some(stdout) = child.stdout.take() {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    match line {
                        Ok(l) => {
                            if tx.send((idx, Some(l))).is_err() {
                                return;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let _ = tx.send((idx, None));
            });
        }
    }
}

#[derive(Default, Debug)]
struct WorkerLog {
    /// `(round, loss_bits)` in emission order.
    losses: Vec<(u64, u32)>,
    /// ranks observed in `ROUND` lines, in order.
    ranks: Vec<usize>,
    events: Vec<String>,
    /// Parsed `RESULT` key=value map, present once the worker finished.
    result: Option<HashMap<String, String>>,
    done: bool,
}

fn parse_line(log: &mut WorkerLog, line: &str) {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("LOSS") => {
            let round: u64 = parts.next().unwrap().parse().unwrap();
            let bits = u32::from_str_radix(parts.next().unwrap(), 16).unwrap();
            log.losses.push((round, bits));
        }
        Some("ROUND") => {
            let _round = parts.next();
            let _epoch = parts.next();
            let rank: usize = parts.next().unwrap().parse().unwrap();
            log.ranks.push(rank);
        }
        Some("EVENT") => log.events.push(line.to_string()),
        Some("RESULT") => {
            let map = line
                .split_whitespace()
                .skip(1)
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            log.result = Some(map);
        }
        _ => {}
    }
}

/// In-process reference: the same `fleet_round` body over `ThreadedCluster`
/// channels. Returns `(checksum, per-rank loss bits)`.
fn threaded_reference(n: usize, rounds: u64, batch: usize) -> (u64, Vec<Vec<u32>>) {
    let results = ThreadedCluster::<f32>::new(n).run(move |_rank, mut links| {
        let mut model = VggMini::new(SEED);
        let mut opt = Sgd::new(LR, 0.9, 0.0);
        let mut losses = Vec::new();
        let mut scratch = FleetScratch::default();
        for round in 0..rounds {
            let out = fleet_round(&mut model, &mut opt, &mut links, batch, round, &mut scratch)
                .expect("healthy threaded cluster");
            losses.push(out.loss.to_bits());
        }
        (param_checksum(&model), losses)
    });
    let checksum = results[0].0;
    assert!(
        results.iter().all(|(c, _)| *c == checksum),
        "threaded reference must itself be fleet-wide identical"
    );
    (checksum, results.into_iter().map(|(_, l)| l).collect())
}

fn checksum_of(log: &WorkerLog) -> u64 {
    let result = log.result.as_ref().expect("worker finished with RESULT");
    u64::from_str_radix(&result["checksum"], 16).expect("hex checksum")
}

#[test]
fn eight_process_fleet_matches_threaded_bitwise() {
    const N: usize = 8;
    const ROUNDS: u64 = 2;
    const BATCH: usize = 4;
    let deadline = Instant::now() + Duration::from_secs(300);

    let registry = Registry::spawn(N).expect("registry");
    let mut fleet = Fleet::new();
    for _ in 0..N {
        fleet.spawn(registry.addr(), ROUNDS, BATCH, 0);
    }
    let (tx, rx) = mpsc::channel();
    stream_stdout(&mut fleet, &tx);
    drop(tx);

    let mut logs: Vec<WorkerLog> = (0..N).map(|_| WorkerLog::default()).collect();
    let mut open = N;
    while open > 0 {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok((idx, Some(line))) => parse_line(&mut logs[idx], &line),
            Ok((idx, None)) => {
                logs[idx].done = true;
                open -= 1;
            }
            Err(_) => panic!("fleet watchdog fired: healthy 8-process run wedged"),
        }
    }

    let (ref_checksum, ref_losses) = threaded_reference(N, ROUNDS, BATCH);
    for (idx, log) in logs.iter().enumerate() {
        assert_eq!(
            checksum_of(log),
            ref_checksum,
            "worker {idx} diverged from the threaded reference"
        );
        // Stronger than end-state equality: every per-round local loss is
        // bit-identical to the reference worker at the same rank.
        let rank = *log.ranks.first().expect("worker ran at least one round");
        let bits: Vec<u32> = log.losses.iter().map(|&(_, b)| b).collect();
        assert_eq!(
            bits, ref_losses[rank],
            "worker {idx} (rank {rank}) loss history diverged"
        );
        assert!(
            log.events.is_empty(),
            "healthy run surfaced {:?}",
            log.events
        );
    }
}

#[test]
fn sigkilled_worker_surfaces_error_and_survivors_renumber() {
    const N: usize = 4;
    const ROUNDS: u64 = 4;
    // Chunky batches widen the window between a worker announcing a round
    // and completing its sends, so the SIGKILL below lands mid-collective.
    const BATCH: usize = 48;
    let deadline = Instant::now() + Duration::from_secs(300);

    let registry = Registry::spawn(N).expect("registry");
    let mut fleet = Fleet::new();
    for _ in 0..N {
        fleet.spawn(registry.addr(), ROUNDS, BATCH, 0);
    }
    let (tx, rx) = mpsc::channel();
    stream_stdout(&mut fleet, &tx);
    drop(tx);

    let victim = 0usize;
    let mut killed = false;
    let mut logs: Vec<WorkerLog> = (0..N).map(|_| WorkerLog::default()).collect();
    let mut open = N;
    while open > 0 {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok((idx, Some(line))) => {
                parse_line(&mut logs[idx], &line);
                // SIGKILL the victim the moment it *starts* its second
                // round: it dies between announcing the round and
                // finishing its part of the all-reduce, so survivors see
                // a hard peer failure, not a graceful LEAVE.
                if !killed && idx == victim && line.starts_with("ROUND 1 ") {
                    fleet.children[victim].kill().expect("kill -9 victim");
                    killed = true;
                }
            }
            Ok((idx, None)) => {
                logs[idx].done = true;
                open -= 1;
            }
            Err(_) => panic!("fleet watchdog fired: kill-recovery run wedged"),
        }
    }
    assert!(killed, "victim never reached round 1");

    let survivors: Vec<&WorkerLog> = logs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, l)| l)
        .collect();
    // The SIGKILL surfaced as a *typed* error on at least one survivor
    // (printed via CollectiveError's Display — never a panic or a hang).
    let event_count: usize = survivors.iter().map(|l| l.events.len()).sum();
    assert!(
        event_count > 0,
        "no survivor reported a collective_error event: {logs:?}"
    );
    // Survivors renumbered down to n=3 and finished all rounds agreeing
    // with each other bitwise.
    let checksums: Vec<u64> = survivors.iter().map(|l| checksum_of(l)).collect();
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "survivors disagree: {checksums:x?}"
    );
    for log in &survivors {
        let result = log.result.as_ref().unwrap();
        assert_eq!(result["n"], "3", "survivors should end renumbered to n=3");
        assert_eq!(result["rounds"], ROUNDS.to_string());
        // The roster changed at least once: formation plus the death.
        assert!(result["epochs"].parse::<u64>().unwrap() >= 2);
    }
}

#[test]
fn late_joiner_is_admitted_and_converges() {
    const FOUNDERS: usize = 3;
    const ROUNDS: u64 = 6;
    const BATCH: usize = 4;
    const STALL_MS: u64 = 150;
    let deadline = Instant::now() + Duration::from_secs(300);

    let registry = Registry::spawn(FOUNDERS).expect("registry");
    let mut fleet = Fleet::new();
    for _ in 0..FOUNDERS {
        fleet.spawn(registry.addr(), ROUNDS, BATCH, STALL_MS);
    }
    let (tx, rx) = mpsc::channel();
    stream_stdout(&mut fleet, &tx);

    let mut joined = false;
    let mut first_loss_seen = [false; FOUNDERS];
    let mut logs: Vec<WorkerLog> = (0..FOUNDERS).map(|_| WorkerLog::default()).collect();
    let mut open = FOUNDERS;
    while open > 0 {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(timeout) {
            Ok((idx, Some(line))) => {
                parse_line(&mut logs[idx], &line);
                if !joined && idx < FOUNDERS && line.starts_with("LOSS 0 ") {
                    first_loss_seen[idx] = true;
                    if first_loss_seen.iter().all(|&s| s) {
                        // Every founder completed round 0 — the fleet is
                        // demonstrably mid-run. Admit a fourth worker; the
                        // inter-round stall guarantees rounds remain.
                        fleet.spawn(registry.addr(), ROUNDS, BATCH, STALL_MS);
                        logs.push(WorkerLog::default());
                        open += 1;
                        let n = fleet.children.len();
                        if let Some(stdout) = fleet.children[n - 1].stdout.take() {
                            let tx = tx.clone();
                            std::thread::spawn(move || {
                                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                                    if tx.send((n - 1, Some(line))).is_err() {
                                        return;
                                    }
                                }
                                let _ = tx.send((n - 1, None));
                            });
                        }
                        joined = true;
                    }
                }
            }
            Ok((idx, None)) => {
                logs[idx].done = true;
                open -= 1;
            }
            Err(_) => panic!("fleet watchdog fired: late-join run wedged"),
        }
    }
    assert!(joined, "joiner was never spawned");

    // Everyone — founders and joiner — converged to the same parameters.
    let checksums: Vec<u64> = logs.iter().map(checksum_of).collect();
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "fleet disagrees after elastic join: {checksums:x?}"
    );
    let joiner = &logs[FOUNDERS];
    let jr = joiner.result.as_ref().unwrap();
    assert_eq!(jr["n"], "4", "joiner should have been admitted into n=4");
    // The joiner adopted the fleet's round clock: its first loss is at a
    // round > 0, proving it did not restart training from scratch.
    assert!(
        joiner.losses.first().map(|&(r, _)| r).unwrap_or(0) > 0,
        "joiner should start mid-run, got {:?}",
        joiner.losses.first()
    );
    for log in &logs[..FOUNDERS] {
        let result = log.result.as_ref().unwrap();
        assert_eq!(result["n"], "4", "founders should end at n=4");
    }
}
