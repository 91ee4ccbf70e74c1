//! `tcp_ring`: ring all-reduce of `2^20` f32 (4 MiB) over a persistent
//! `T`-rank `TcpMesh` on loopback, closed loop.
//!
//! `gcs-collectives::tcp` does all the work here — encode, vectored write,
//! in-place decode, chunk pipelining — with no model and no scheme. The
//! message is large on purpose: a 1 Ki-element round measures thread
//! wake-ups, not the program. Ranks free-run (no per-round coordinator);
//! rank 0's clock times the rounds. A round is "refill the 4 MiB buffer,
//! then all-reduce it", the refill standing in for the gradient a trainer
//! would have produced.

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcs_collectives::tcp::{FleetWorker, Registry, TcpTimeouts};
use gcs_collectives::{ring_all_reduce_into, ring_all_reduce_worker_into, F32Sum};
use gcs_collectives::{RingScratch, Traffic};
use gcs_metrics::Json;

use super::{
    more_setups, report_end_to_end, report_process, timed_setup, ClosedLoop, RunCtx, SectionClock,
    TimedSection,
};
use crate::inputs::{fold_bits, uniform_vec, FOLD_INIT};
use crate::layers::{self, span, SpanTable};
use crate::report::Outcome;
use crate::stats::Sample;

/// Elements per rank buffer.
const ELEMS: usize = 1 << 20;
/// Timed rounds at the reference length.
const BASE_ROUNDS: u64 = 2300;
/// Warm-up rounds, part of set-up.
const WARM_ROUNDS: u64 = 5;
/// Set-ups per end-to-end run (registry, rendezvous, mesh and five warm
/// rounds: about 40 ms each).
const SETUP_REPEATS: usize = 9;
/// Elements per one-way transfer (1 MiB).
const ONEWAY_ELEMS: usize = 1 << 18;
/// One-way transfers timed back to back.
const ONEWAY_TRANSFERS: usize = 200;

/// Rank `rank`'s buffer before every round.
fn source(seed: u64, rank: usize) -> Vec<f32> {
    uniform_vec(seed, 0x200 + rank as u64, ELEMS)
}

enum Cmd {
    /// Run `rounds` rounds back to back.
    Run { rounds: u64, count_allocs: bool },
    /// Rank 0 streams 1 MiB messages to rank 1, which times them.
    Oneway,
    /// Hand the buffer back and leave the fleet.
    Finish,
}

/// What a rank reports after a command.
enum Report {
    Ready,
    Ran { rank: usize, run: RankRun },
    Oneway { mib_per_s: f64 },
    Finished { rank: usize, buf: Vec<f32> },
}

fn rank_main(
    addr: std::net::SocketAddr,
    seed: u64,
    cmds: Receiver<Cmd>,
    reports: Sender<Report>,
) -> Result<(), String> {
    let fail = |what: &str, e: gcs_collectives::CollectiveError| format!("{what}: {e}");
    let mut worker =
        FleetWorker::join(addr, TcpTimeouts::fast_test()).map_err(|e| fail("join", e))?;
    let start = worker.next_round(0).map_err(|e| fail("rendezvous", e))?;
    let rank = start.rank;
    let src = source(seed, rank);
    let mut buf = src.clone();
    let mut scratch = Vec::new();
    let send = |r: Report| {
        reports
            .send(r)
            .map_err(|_| "main thread went away".to_string())
    };
    send(Report::Ready)?;
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Run {
                rounds,
                count_allocs,
            } => {
                let mut links = worker.links::<f32>();
                let mut round_ms = Vec::with_capacity(rounds as usize);
                let mut ends = Vec::with_capacity(rounds as usize);
                let mut allocs = Vec::new();
                let mut sent_bytes = 0;
                let begun = Instant::now();
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    buf.copy_from_slice(&src);
                    let _s = span("collectives.tcp_ring_round");
                    let mut ring = || {
                        ring_all_reduce_worker_into(
                            &mut links,
                            &mut buf,
                            &F32Sum,
                            4.0,
                            &mut scratch,
                        )
                    };
                    let result = if count_allocs {
                        let (r, stats) = gcs_alloc::measure(&mut ring);
                        allocs.push(stats.total_events() as f64);
                        r
                    } else {
                        ring()
                    };
                    (sent_bytes, _) = result.map_err(|e| fail("ring round", e))?;
                    let end = Instant::now();
                    round_ms.push(end.duration_since(t0).as_secs_f64() * 1e3);
                    ends.push(end);
                }
                let wall_s = begun.elapsed().as_secs_f64();
                gcs_trace::flush_thread();
                send(Report::Ran {
                    rank,
                    run: RankRun {
                        round_ms,
                        ends,
                        wall_s,
                        sent_bytes,
                        allocs_per_round: Sample::new(allocs).median(),
                    },
                })?;
            }
            Cmd::Oneway => {
                let mesh = worker.mesh_mut();
                let mut mib_per_s = 0.0;
                if mesh.n() >= 2 && rank <= 1 {
                    let peer = 1 - rank;
                    let mut msg = vec![0.0f32; ONEWAY_ELEMS];
                    let mut ack = [0.0f32; 1];
                    if rank == 0 {
                        msg.copy_from_slice(&src[..ONEWAY_ELEMS]);
                        for _ in 0..ONEWAY_TRANSFERS {
                            mesh.send_elems(peer, &msg)
                                .map_err(|e| fail("oneway send", e))?;
                        }
                        mesh.recv_elems_into(peer, &mut ack)
                            .map_err(|e| fail("oneway ack", e))?;
                    } else {
                        let t0 = Instant::now();
                        for _ in 0..ONEWAY_TRANSFERS {
                            let _s = span("collectives.tcp_oneway_recv");
                            mesh.recv_elems_into(peer, &mut msg)
                                .map_err(|e| fail("oneway recv", e))?;
                        }
                        let mib = (ONEWAY_TRANSFERS * ONEWAY_ELEMS * 4) as f64 / (1 << 20) as f64;
                        mib_per_s = mib / t0.elapsed().as_secs_f64();
                        mesh.send_elems(peer, &ack)
                            .map_err(|e| fail("oneway ack", e))?;
                    }
                }
                gcs_trace::flush_thread();
                send(Report::Oneway { mib_per_s })?;
            }
            Cmd::Finish => {
                send(Report::Finished {
                    rank,
                    buf: std::mem::take(&mut buf),
                })?;
                return worker.leave().map_err(|e| fail("leave", e));
            }
        }
    }
    Ok(())
}

/// A live fleet: registry, rank threads, and their command channels.
struct Fleet {
    registry: Registry,
    cmds: Vec<Sender<Cmd>>,
    reports: Receiver<Report>,
    threads: Vec<JoinHandle<Result<(), String>>>,
    mesh_setup_s: f64,
}

/// What one rank measured over one `Run` command.
struct RankRun {
    round_ms: Vec<f64>,
    ends: Vec<Instant>,
    wall_s: f64,
    sent_bytes: u64,
    allocs_per_round: f64,
}

impl Fleet {
    fn spawn(ranks: usize, seed: u64) -> Result<Fleet, String> {
        let t0 = Instant::now();
        let registry = Registry::spawn(ranks).map_err(|e| format!("registry: {e}"))?;
        let addr = registry.addr();
        let (report_tx, reports) = mpsc::channel();
        let mut cmds = Vec::new();
        let mut threads = Vec::new();
        for i in 0..ranks {
            let (tx, rx) = mpsc::channel();
            cmds.push(tx);
            let report_tx = report_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("e2e-rank-{i}"))
                    .spawn(move || rank_main(addr, seed, rx, report_tx))
                    .map_err(|e| format!("spawn rank: {e}"))?,
            );
        }
        let mut fleet = Fleet {
            registry,
            cmds,
            reports,
            threads,
            mesh_setup_s: 0.0,
        };
        for _ in 0..ranks {
            match fleet.next_report()? {
                Report::Ready => {}
                _ => return Err("rank reported before it was ready".into()),
            }
        }
        fleet.mesh_setup_s = t0.elapsed().as_secs_f64();
        fleet.run(WARM_ROUNDS, false)?;
        Ok(fleet)
    }

    /// The next report, or the error of whichever rank died instead.
    fn next_report(&mut self) -> Result<Report, String> {
        match self.reports.recv_timeout(Duration::from_secs(120)) {
            Ok(r) => Ok(r),
            Err(_) => {
                for t in self.threads.drain(..) {
                    if let Ok(Err(e)) = t.join() {
                        return Err(e);
                    }
                }
                Err("no report from the ranks within 120 s".into())
            }
        }
    }

    fn broadcast(&self, make: impl Fn() -> Cmd) -> Result<(), String> {
        for tx in &self.cmds {
            tx.send(make()).map_err(|_| "a rank thread exited early")?;
        }
        Ok(())
    }

    /// Every rank runs `rounds` rounds; reports indexed by rank.
    fn run(&mut self, rounds: u64, count_allocs: bool) -> Result<Vec<RankRun>, String> {
        self.broadcast(|| Cmd::Run {
            rounds,
            count_allocs,
        })?;
        let mut runs: Vec<Option<RankRun>> = self.cmds.iter().map(|_| None).collect();
        for _ in 0..self.cmds.len() {
            match self.next_report()? {
                Report::Ran { rank, run } => runs[rank] = Some(run),
                _ => return Err("unexpected report during a run".into()),
            }
        }
        runs.into_iter()
            .map(|r| r.ok_or_else(|| "two ranks claimed one rank id".to_string()))
            .collect()
    }

    fn oneway(&mut self) -> Result<f64, String> {
        self.broadcast(|| Cmd::Oneway)?;
        let mut best = 0.0f64;
        for _ in 0..self.cmds.len() {
            match self.next_report()? {
                Report::Oneway { mib_per_s } => best = best.max(mib_per_s),
                _ => return Err("unexpected report during one-way transfers".into()),
            }
        }
        Ok(best)
    }

    /// Stops the fleet and returns every rank's final buffer, by rank.
    fn finish(mut self) -> Result<Vec<Vec<f32>>, String> {
        self.broadcast(|| Cmd::Finish)?;
        let mut bufs: Vec<Vec<f32>> = self.cmds.iter().map(|_| Vec::new()).collect();
        for _ in 0..self.cmds.len() {
            match self.next_report()? {
                Report::Finished { rank, buf } => bufs[rank] = buf,
                _ => return Err("unexpected report during shutdown".into()),
            }
        }
        for t in self.threads.drain(..) {
            t.join().map_err(|_| "rank thread panicked")??;
        }
        self.registry.shutdown();
        Ok(bufs)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Closing the command channels ends each rank's loop.
        self.cmds.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.registry.shutdown();
    }
}

/// Runs the workload.
pub fn run(ctx: &RunCtx<'_>) -> Result<Outcome, String> {
    let ranks = ctx.env.t;
    ctx.env.audit_generator(ranks, ranks)?;
    let rounds = ctx.scaled(BASE_ROUNDS);
    let mut out = Outcome::default();
    out.note("ranks", Json::Num(ranks as f64));
    out.note("elems", Json::Num(ELEMS as f64));
    out.note("rounds", Json::Num(rounds as f64));

    let (mut fleet, first_setup) = timed_setup(|| Fleet::spawn(ranks, ctx.seed))?;
    let mut section = None;
    if ctx.traced {
        traced(ctx, rounds, &mut fleet, &mut out)?;
    } else {
        let clock = SectionClock::start()?;
        let mut runs = fleet.run(rounds, false)?;
        let end = clock.stop()?;
        let rank0 = runs.swap_remove(0);
        out.attempted = rounds;
        section = Some(TimedSection {
            latency_ms: vec![rank0.round_ms],
            closed_rounds: rounds,
            closed_wall_s: rank0.wall_s,
            closed: ClosedLoop::Section,
            end,
        });
    }

    // The last round's output on every rank against the in-memory ring on
    // the same inputs, bit for bit.
    let finals = fleet.finish()?;
    let mut reference: Vec<Vec<f32>> = (0..ranks).map(|r| source(ctx.seed, r)).collect();
    ring_all_reduce_into(
        &mut reference,
        &F32Sum,
        4.0,
        &mut RingScratch::new(),
        &mut Traffic::default(),
    );
    for (rank, (got, want)) in finals.iter().zip(&reference).enumerate() {
        let (g, w) = (fold_bits(FOLD_INIT, got), fold_bits(FOLD_INIT, want));
        out.check(
            &format!("rank {rank} output equals ring_all_reduce_into bitwise"),
            got.len() == want.len() && g == w,
            format!("tcp {g:016x} in-memory {w:016x}"),
        );
    }
    if let Some(section) = section {
        let setups = more_setups(first_setup, SETUP_REPEATS, || Fleet::spawn(ranks, ctx.seed))?;
        report_end_to_end(&mut out, &setups, &section);
    }
    Ok(out)
}

fn traced(
    ctx: &RunCtx<'_>,
    rounds: u64,
    fleet: &mut Fleet,
    out: &mut Outcome,
) -> Result<(), String> {
    let third = (rounds / 3).max(1);
    out.note("traced_rounds", Json::Num(third as f64));
    let clock = SectionClock::start()?;
    let plain = fleet.run(third, true)?;
    let mut with_spans = None;
    let trace = gcs_trace::with_recording(|| with_spans = Some(fleet.run(third, true)));
    let with_spans = with_spans.expect("recording closure ran")?;
    let end = clock.stop()?;
    out.attempted = 2 * third;
    report_process(out, &end);
    out.metric(
        "trace.overhead_share",
        (with_spans[0].wall_s - plain[0].wall_s) / plain[0].wall_s,
        third as usize,
    );
    // A round ends when its slower rank ends: the gap between the first
    // and last rank to finish each round.
    let skew_us: Vec<f64> = (0..third as usize)
        .map(|k| {
            let ends = with_spans.iter().map(|r| r.ends[k]);
            let (first, last) = (ends.clone().min(), ends.max());
            match (first, last) {
                (Some(a), Some(b)) => b.duration_since(a).as_secs_f64() * 1e6,
                _ => 0.0,
            }
        })
        .collect();
    let skew = Sample::new(skew_us);
    out.metric("collectives.tcp_rank_skew_us", skew.median(), skew.n());
    out.metric(
        "collectives.tcp_wire_bytes_per_round",
        with_spans.iter().map(|r| r.sent_bytes as f64).sum(),
        1,
    );
    out.metric(
        "collectives.tcp_allocs_per_round",
        with_spans.iter().map(|r| r.allocs_per_round).sum(),
        third as usize,
    );
    out.metric("collectives.tcp_mesh_setup_ms", fleet.mesh_setup_s * 1e3, 1);
    let ring = SpanTable::from_trace(&trace).sample("collectives.tcp_ring_round");
    out.note("tcp_ring_round_span_p50_ms", Json::Num(ring.median() / 1e6));

    let mut oneway = None;
    let micro = gcs_trace::with_recording(|| {
        oneway = Some(fleet.oneway());
        layers::tcp_codec_layers(out, &source(ctx.seed, 0));
    });
    out.metric(
        "collectives.tcp_oneway_mb_per_s",
        oneway.expect("recording closure ran")?,
        ONEWAY_TRANSFERS,
    );
    let rtt = gcs_trace::with_recording(|| {
        if let Err(e) = layers::tcp_frame_rtt(out) {
            out.check("frame round trip measured", false, e);
        }
    });
    out.trace = trace;
    out.trace.spans.extend(micro.spans);
    out.trace.spans.extend(rtt.spans);
    Ok(())
}
