//! `aggd_small` / `aggd_large`: tenants' rounds through an in-process
//! `gcs-aggd` daemon over loopback, open loop.
//!
//! `T` driver threads each own one `TenantClient` (one connection, one
//! tenant). A round is four workers' gradients: ranks 0–2 by `submit`, rank 3
//! by `run_round`, which also fetches the folded estimate. Rounds are offered
//! on a fixed schedule and timed from their due time, at four fixed rates;
//! the reference rate gives the end-to-end latencies, the sweep gives the
//! highest rate that still meets the latency limit, and a closing
//! back-to-back phase gives closed-loop rounds per second.
//!
//! The two sizes use the same daemon the opposite way. At 256 elements the
//! fold is microseconds and a round is five request/reply hops, so framing,
//! io-thread polling and the reply path decide the latency. At 65 536
//! elements (the daemon's `max_dim`) the fold and the 256 KiB payload copies
//! decide it, and polling barely shows.
//!
//! No fetch is ever answered `NotReady` here: one connection submits every
//! rank and a SUBMIT is acknowledged after the shard has folded, so the round
//! is ready before its FETCH is sent. The retry path needs a connection per
//! worker, which two tenants cannot have within `T` connections.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gcs_aggd::proto::{encode_submit, Cursor};
use gcs_aggd::{
    synth_grad, AggDaemon, AggdConfig, SchemeSpec, SubmitVerdict, TenantClient, TenantConfig,
    TenantState,
};
use gcs_core::scheme::{AggregationOutcome, RoundContext};
use gcs_metrics::Json;

use super::{
    more_setups, report_end_to_end, report_process, timed_setup, ClosedLoop, RunCtx, SectionClock,
    TimedSection, N_WORKERS,
};
use crate::inputs::{derive, fold_bits, FOLD_INIT};
use crate::layers::{self, span, time_calls, SpanTable};
use crate::openloop::{OpenLoop, RoundSample, Schedule, WallClock};
use crate::report::Outcome;
use crate::stats::{highest_supported_percentile, Sample};

/// One of the two daemon workloads. Tenant ids, model epochs and the rate
/// table are fixed here, so shard placement is the same on every run.
pub struct Spec {
    /// Gradient length per worker.
    pub dim: usize,
    /// Offered rounds per second per stream, ascending.
    pub rates: [f64; 4],
    /// Index of the reference rate in `rates`.
    pub reference: usize,
    /// Seconds offered at each rate (at the reference length), ascending
    /// like `rates`.
    pub step_secs: [f64; 4],
    /// Back-to-back rounds per stream in the closing closed-loop phase.
    pub closed_rounds: u64,
    /// Closed-loop warm-up rounds per stream, part of set-up.
    pub warm_rounds: u64,
    /// Latency limit on the tail percentile, milliseconds.
    pub limit_ms: f64,
    /// Rounds per epoch and tenant checked against the standalone twin.
    pub verify_rounds: u64,
    /// Set-ups per end-to-end run.
    pub setup_repeats: usize,
}

/// 256-element tenants.
pub const SMALL: Spec = Spec {
    dim: 256,
    rates: [100.0, 200.0, 400.0, 800.0],
    reference: 0,
    step_secs: [8.0, 2.0, 2.0, 2.0],
    closed_rounds: 2400,
    warm_rounds: 50,
    limit_ms: 10.0,
    // Every fetched estimate.
    verify_rounds: u64::MAX,
    setup_repeats: 7,
};

/// 65 536-element tenants (`AggdConfig::default().max_dim`).
pub const LARGE: Spec = Spec {
    dim: 1 << 16,
    rates: [10.0, 20.0, 40.0, 80.0],
    reference: 1,
    step_secs: [5.0, 5.0, 2.5, 1.5],
    closed_rounds: 110,
    warm_rounds: 10,
    limit_ms: 50.0,
    // The twin costs what the daemon's fold costs; a prefix per epoch (EF
    // and window state build on it) keeps the check inside the run.
    verify_rounds: 48,
    setup_repeats: 5,
};

/// Round latencies a rate step needs for its p90 to have ten samples beyond
/// it, and the reference step for its p95; a shorter step is lengthened.
const MIN_STEP_SAMPLES: u64 = 100;
const MIN_REFERENCE_SAMPLES: u64 = 200;
/// Distinct gradient sets a tenant cycles through.
const POOL: u64 = 8;
/// Per-request client deadline.
const DEADLINE: Duration = Duration::from_secs(10);
/// Model epoch of the set-up warm-up; timed phases count up from here.
const WARM_EPOCH: u64 = 100;

/// One tenant: its fixed identity and its seed-generated gradients.
struct Tenant {
    id: u64,
    scheme: SchemeSpec,
    experiment_seed: u64,
    /// `pool[p][rank]`: round `r` submits `pool[r % POOL]`.
    pool: Vec<Vec<Vec<f32>>>,
}

impl Tenant {
    fn config(&self, spec: &Spec, epoch: u64) -> TenantConfig {
        TenantConfig {
            tenant: self.id,
            model: epoch,
            dim: spec.dim,
            n_workers: N_WORKERS,
            experiment_seed: self.experiment_seed,
            scheme: self.scheme,
            fault: None,
        }
    }

    fn grads(&self, round: u64) -> &[Vec<f32>] {
        &self.pool[(round % POOL) as usize]
    }
}

fn tenants(spec: &Spec, streams: usize, seed: u64) -> Vec<Tenant> {
    let schemes = [
        SchemeSpec::Thc { q: 4 },
        SchemeSpec::TopK {
            bits_x100: 200,
            error_feedback: true,
        },
    ];
    (0..streams)
        .map(|i| {
            let id = i as u64 + 1;
            let grad_seed = derive(seed, 0xa66d);
            let pool = (0..POOL)
                .map(|p| {
                    (0..N_WORKERS)
                        .map(|rank| {
                            let mut g = vec![0.0f32; spec.dim];
                            synth_grad(grad_seed, id, p, rank, &mut g);
                            g
                        })
                        .collect()
                })
                .collect();
            Tenant {
                id,
                scheme: schemes[i % schemes.len()],
                experiment_seed: derive(seed, 0xe5 + id),
                pool,
            }
        })
        .collect()
}

/// How a phase offers its rounds.
#[derive(Clone, Copy)]
enum Load {
    /// On a fixed schedule, `rounds` per stream at `rate_hz`.
    Open { rate_hz: f64, rounds: u64 },
    /// Back to back.
    Closed { rounds: u64 },
}

impl Load {
    fn rounds(self) -> u64 {
        match self {
            Load::Open { rounds, .. } | Load::Closed { rounds } => rounds,
        }
    }
}

/// One stream's record of one phase.
struct StreamRun {
    samples: Vec<RoundSample>,
    /// Fold over the bits of the first `verified` fetched estimates.
    prefix_checksum: u64,
    verified: u64,
    wall_s: f64,
    error: Option<String>,
}

/// One round on one connection: ranks 0..n-1 submit, the last also fetches.
fn one_round(
    client: &mut TenantClient,
    grads: &[Vec<f32>],
    round: u64,
    estimate: &mut Vec<f32>,
) -> Result<(), gcs_aggd::ClientError> {
    let (last, rest) = grads.split_last().expect("at least one worker");
    for (rank, g) in rest.iter().enumerate() {
        let _s = span("aggd.submit");
        client.submit(round, rank, g)?;
    }
    let _s = span("aggd.run_round");
    client.run_round(round, rest.len(), last, estimate)?;
    Ok(())
}

/// Runs one tenant's stream for one phase on the calling thread.
fn run_stream(
    addr: SocketAddr,
    spec: &Spec,
    tenant: &Tenant,
    epoch: u64,
    load: Load,
    stream: usize,
    streams: usize,
) -> StreamRun {
    let mut run = StreamRun {
        samples: Vec::new(),
        prefix_checksum: FOLD_INIT,
        verified: 0,
        wall_s: 0.0,
        error: None,
    };
    let connected = {
        let _s = span("aggd.connect");
        TenantClient::connect(addr, &tenant.config(spec, epoch), DEADLINE)
    };
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(format!("connect: {e}"));
            return run;
        }
    };
    let mut estimate: Vec<f32> = Vec::with_capacity(spec.dim);
    // Performs round `k` and returns whether it succeeded.
    let mut round = |run: &mut StreamRun, estimate: &mut Vec<f32>, k: u64| -> bool {
        match one_round(&mut client, tenant.grads(k), k, estimate) {
            Ok(()) => true,
            Err(e) => {
                run.error = Some(format!("round {k}: {e}"));
                false
            }
        }
    };
    // Folds a fetched estimate into the prefix checksum. Called after the
    // round's completion time is taken and before the next round is due, so
    // it is never inside a latency.
    let fold = |run: &mut StreamRun, estimate: &[f32]| {
        if run.verified < spec.verify_rounds {
            run.prefix_checksum = fold_bits(run.prefix_checksum, estimate);
            run.verified += 1;
        }
    };
    let begun = Instant::now();
    match load {
        Load::Open { rate_hz, rounds } => {
            let clock = WallClock::start();
            let mut offered =
                OpenLoop::new(Schedule::new(rate_hz, rounds, stream, streams), &clock);
            while let Some(k) = offered.begin() {
                let ok = round(&mut run, &mut estimate, k);
                offered.end(ok);
                if ok {
                    fold(&mut run, &estimate);
                }
            }
            run.samples = offered.into_samples();
        }
        Load::Closed { rounds } => {
            for k in 0..rounds {
                let t0 = Instant::now();
                let ok = round(&mut run, &mut estimate, k);
                run.samples.push(RoundSample {
                    latency: t0.elapsed(),
                    late: Duration::ZERO,
                    overslept: Duration::ZERO,
                    ok,
                });
                if !ok {
                    break;
                }
                fold(&mut run, &estimate);
            }
        }
    }
    run.wall_s = begun.elapsed().as_secs_f64();
    if run.error.is_none() {
        if let Err(e) = client.bye() {
            run.error = Some(format!("bye: {e}"));
        }
    }
    gcs_trace::flush_thread();
    run
}

/// A live daemon and the tenants that use it.
struct Service {
    daemon: AggDaemon,
    tenants: Vec<Tenant>,
    next_epoch: u64,
}

/// Every stream's record of one phase.
struct PhaseRun {
    epoch: u64,
    load: Load,
    streams: Vec<StreamRun>,
}

impl PhaseRun {
    fn offered(&self) -> u64 {
        self.load.rounds() * self.streams.len() as u64
    }

    fn failed(&self) -> u64 {
        let ok: u64 = self
            .streams
            .iter()
            .map(|s| s.samples.iter().filter(|r| r.ok).count() as u64)
            .sum();
        self.offered() - ok
    }

    fn latencies_ms(&self) -> Sample {
        Sample::new(
            self.streams
                .iter()
                .flat_map(|s| s.samples.iter().filter(|r| r.ok))
                .map(|r| r.latency.as_secs_f64() * 1e3)
                .collect(),
        )
    }

    fn ms_of(&self, pick: impl Fn(&RoundSample) -> Duration) -> Sample {
        Sample::new(
            self.streams
                .iter()
                .flat_map(|s| s.samples.iter())
                .map(|r| pick(r).as_secs_f64() * 1e3)
                .collect(),
        )
    }

    /// Each stream's completed round latencies, milliseconds. Tenants run
    /// different schemes, so a round's kind is its stream.
    fn latencies_ms_by_stream(&self) -> Vec<Vec<f64>> {
        self.streams
            .iter()
            .map(|s| {
                s.samples
                    .iter()
                    .filter(|r| r.ok)
                    .map(|r| r.latency.as_secs_f64() * 1e3)
                    .collect()
            })
            .collect()
    }

    /// Completed rounds and the wall seconds the slowest stream took.
    fn completed(&self) -> (u64, f64) {
        let rounds = self.offered() - self.failed();
        let wall_s = self.streams.iter().map(|s| s.wall_s).fold(0.0, f64::max);
        (rounds, wall_s)
    }
}

impl Service {
    fn spawn(spec: &Spec, streams: usize, seed: u64) -> Result<Service, String> {
        let daemon =
            AggDaemon::spawn(AggdConfig::default()).map_err(|e| format!("spawn daemon: {e}"))?;
        let mut service = Service {
            daemon,
            tenants: tenants(spec, streams, seed),
            next_epoch: WARM_EPOCH,
        };
        let warm = service.phase(
            spec,
            Load::Closed {
                rounds: spec.warm_rounds,
            },
        );
        match warm.streams.iter().find_map(|s| s.error.clone()) {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(service),
        }
    }

    /// Runs one phase: a fresh model epoch (fresh tenant state, fresh
    /// connections), one thread per stream, joined before returning — so a
    /// phase starts only after the previous one has drained.
    fn phase(&mut self, spec: &Spec, load: Load) -> PhaseRun {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let addr = self.daemon.addr();
        let n = self.tenants.len();
        let streams = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, tenant)| {
                    scope.spawn(move || run_stream(addr, spec, tenant, epoch, load, i, n))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream thread panicked"))
                .collect()
        });
        PhaseRun {
            epoch,
            load,
            streams,
        }
    }
}

/// One rate step, judged.
struct Step {
    rate_hz: f64,
    /// Round latencies behind the percentiles.
    n: usize,
    p50_ms: f64,
    tail_ms: f64,
    tail_percentile: f64,
    late_p95_ms: f64,
    late_growth_ms: f64,
    overslept_p95_ms: f64,
    failed: u64,
    /// Met the limit, lost nothing, and lateness did not grow.
    ok: bool,
}

fn judge(spec: &Spec, rate_hz: f64, run: &PhaseRun) -> Step {
    let lat = run.latencies_ms();
    // The limit binds p95, or p90 where the step has fewer than ten samples
    // beyond p95; every step is sized for at least p90 (`MIN_STEP_SAMPLES`).
    let tail_percentile = highest_supported_percentile(lat.n()).map_or(90.0, |p| p.min(95.0));
    let late = run.ms_of(|r| r.late);
    // Lateness that keeps growing is a backlog: compare each stream's last
    // quarter with its first.
    let quarter_median = |s: &StreamRun, last: bool| {
        let q = (s.samples.len() / 4).max(1);
        let part = if last {
            &s.samples[s.samples.len().saturating_sub(q)..]
        } else {
            &s.samples[..q.min(s.samples.len())]
        };
        Sample::new(part.iter().map(|r| r.late.as_secs_f64() * 1e3).collect()).median()
    };
    let late_growth_ms = run
        .streams
        .iter()
        .map(|s| quarter_median(s, true) - quarter_median(s, false))
        .fold(0.0, f64::max);
    let period_ms = 1e3 / rate_hz;
    let tail_ms = lat.percentile(tail_percentile);
    let failed = run.failed();
    Step {
        rate_hz,
        n: lat.n(),
        p50_ms: lat.median(),
        tail_ms,
        tail_percentile,
        late_p95_ms: late.percentile(95.0),
        late_growth_ms,
        overslept_p95_ms: run.ms_of(|r| r.overslept).percentile(95.0),
        failed,
        ok: failed == 0 && tail_ms <= spec.limit_ms && late_growth_ms <= period_ms,
    }
}

/// Everything the sweep produced.
struct Sweep {
    steps: Vec<Step>,
    reference: PhaseRun,
    closed: PhaseRun,
    phases: Vec<(u64, Vec<(u64, u64)>)>,
    attempted: u64,
    failed: u64,
    scrape_ms: Vec<f64>,
    scrape_bytes: usize,
}

/// The four rate steps in ascending order, then the closed-loop phase.
fn sweep(service: &mut Service, spec: &Spec, ctx: &RunCtx<'_>, scrape: bool) -> Sweep {
    let mut steps = Vec::new();
    let mut reference = None;
    let mut phases = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut scrape_ms = Vec::new();
    let mut scrape_bytes = 0;
    let mut keep = |run: &PhaseRun| {
        phases.push((
            run.epoch,
            run.streams
                .iter()
                .map(|s| (s.verified, s.prefix_checksum))
                .collect(),
        ));
        attempted += run.offered();
        failed += run.failed();
    };
    let streams = service.tenants.len() as u64;
    for (i, (&rate_hz, secs)) in spec.rates.iter().zip(spec.step_secs).enumerate() {
        let min_samples = if i == spec.reference {
            MIN_REFERENCE_SAMPLES
        } else {
            MIN_STEP_SAMPLES
        };
        let rounds = ctx
            .scaled((rate_hz * secs).round() as u64)
            .max(min_samples.div_ceil(streams));
        let run = service.phase(spec, Load::Open { rate_hz, rounds });
        keep(&run);
        steps.push(judge(spec, rate_hz, &run));
        if i == spec.reference {
            reference = Some(run);
        }
        if scrape {
            // A read beside the writes: the snapshot goes through the same
            // shard queues the next step's submits will.
            let t0 = Instant::now();
            let body = {
                let _s = span("aggd.scrape");
                service.daemon.prometheus()
            };
            scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            scrape_bytes = body.len();
        }
    }
    let closed = service.phase(
        spec,
        Load::Closed {
            rounds: ctx.scaled(spec.closed_rounds),
        },
    );
    keep(&closed);
    Sweep {
        steps,
        reference: reference.expect("reference rate is one of the rates"),
        closed,
        phases,
        attempted,
        failed,
        scrape_ms,
        scrape_bytes,
    }
}

/// Checksums the standalone twin's first `rounds` estimates for `tenant`.
fn twin_checksum(spec: &Spec, tenant: &Tenant, rounds: u64) -> Result<u64, String> {
    let mut scheme = tenant.scheme.build(N_WORKERS, spec.dim)?;
    let mut outcome = AggregationOutcome::default();
    let mut acc = FOLD_INIT;
    for round in 0..rounds {
        let ctx = RoundContext::new(tenant.experiment_seed, round);
        scheme.aggregate_round_into(tenant.grads(round), &ctx, &mut outcome);
        acc = fold_bits(acc, &outcome.mean_estimate);
    }
    Ok(acc)
}

/// After the timed section: every epoch's fetched estimates against a
/// standalone twin (`SchemeSpec::build` + `aggregate_round_into` on the same
/// inputs), tenants in parallel.
fn verify_twins(out: &mut Outcome, spec: &Spec, service: &Service, sweep: &Sweep) {
    let verdicts: Vec<Result<(u64, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .tenants
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                let phases = &sweep.phases;
                scope.spawn(move || {
                    // Epochs share inputs, so one twin per distinct prefix
                    // length serves them all.
                    let mut twins: Vec<(u64, u64)> = Vec::new();
                    let (mut checked, mut wrong) = (0, 0);
                    for (_, streams) in phases {
                        let (verified, got) = streams[i];
                        let want = match twins.iter().find(|t| t.0 == verified) {
                            Some(t) => t.1,
                            None => {
                                let c = twin_checksum(spec, tenant, verified)?;
                                twins.push((verified, c));
                                c
                            }
                        };
                        checked += verified;
                        wrong += u64::from(got != want);
                    }
                    Ok((checked, wrong))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("twin thread panicked"))
            .collect()
    });
    for (tenant, verdict) in service.tenants.iter().zip(verdicts) {
        let name = format!(
            "tenant {} ({}) estimates equal the standalone twin bitwise",
            tenant.id,
            tenant.scheme.family()
        );
        match verdict {
            Ok((checked, wrong)) => out.check(
                &name,
                wrong == 0 && checked > 0,
                format!(
                    "{checked} estimates over {} epochs, {wrong} epochs differ",
                    sweep.phases.len()
                ),
            ),
            Err(e) => out.check(&name, false, e),
        }
    }
}

/// The highest rate whose step was judged ok (0 when none was).
fn max_rate_ok(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.rate_hz)
        .fold(0.0, f64::max)
}

fn note_steps(out: &mut Outcome, spec: &Spec, steps: &[Step]) {
    let rows = steps
        .iter()
        .map(|s| {
            Json::Object(vec![
                ("rate_rps".into(), Json::Num(s.rate_hz)),
                ("p50_ms".into(), Json::Num(s.p50_ms)),
                ("tail_percentile".into(), Json::Num(s.tail_percentile)),
                ("tail_ms".into(), Json::Num(s.tail_ms)),
                ("late_p95_ms".into(), Json::Num(s.late_p95_ms)),
                ("late_growth_ms".into(), Json::Num(s.late_growth_ms)),
                ("overslept_p95_ms".into(), Json::Num(s.overslept_p95_ms)),
                ("failed".into(), Json::Num(s.failed as f64)),
                ("ok".into(), Json::Bool(s.ok)),
            ])
        })
        .collect();
    out.note("rate_steps", Json::Array(rows));
    out.note("limit_ms", Json::Num(spec.limit_ms));
    // A sustained step whose generator overslept a whole period measured
    // the generator, not the daemon.
    for s in steps.iter().filter(|s| s.ok) {
        out.check(
            &format!("generator kept its schedule at {} rounds/s", s.rate_hz),
            s.overslept_p95_ms <= 1e3 / s.rate_hz,
            format!(
                "overslept p95 {:.3} ms, period {:.3} ms",
                s.overslept_p95_ms,
                1e3 / s.rate_hz
            ),
        );
    }
    // The reference rate must sit below capacity: nothing lost and no
    // backlog building. (Whether it also met the latency limit is the
    // sweep's finding, not a correctness matter: one descheduled interval
    // on a shared box can push a tail past any limit.)
    let reference = &steps[spec.reference];
    out.check(
        "reference rate runs without loss or growing backlog",
        reference.failed == 0 && reference.late_growth_ms <= 1e3 / reference.rate_hz,
        format!(
            "p{} {:.3} ms against a limit of {} ms, {} failed, lateness grew {:.3} ms",
            reference.tail_percentile,
            reference.tail_ms,
            spec.limit_ms,
            reference.failed,
            reference.late_growth_ms
        ),
    );
}

/// Runs one daemon workload.
pub fn run(spec: &Spec, ctx: &RunCtx<'_>) -> Result<Outcome, String> {
    let streams = ctx.env.t;
    ctx.env.audit_generator(streams, streams)?;
    let mut out = Outcome::default();
    out.note("dim", Json::Num(spec.dim as f64));
    out.note("streams", Json::Num(streams as f64));
    out.note("n_workers", Json::Num(N_WORKERS as f64));
    out.note(
        "rates_rps",
        Json::Array(spec.rates.iter().map(|&r| Json::Num(r)).collect()),
    );
    out.note("reference_rate_rps", Json::Num(spec.rates[spec.reference]));
    out.note("first_model_epoch", Json::Num(WARM_EPOCH as f64));

    let (mut service, first_setup) = timed_setup(|| Service::spawn(spec, streams, ctx.seed))?;
    out.note(
        "tenants",
        Json::Array(
            service
                .tenants
                .iter()
                .map(|t| Json::Str(format!("{}:{}", t.id, t.scheme.family())))
                .collect(),
        ),
    );
    if ctx.traced {
        return traced(spec, ctx, service, out);
    }

    let clock = SectionClock::start()?;
    let sweep = sweep(&mut service, spec, ctx, false);
    let end = clock.stop()?;
    out.attempted = sweep.attempted;
    out.failed = sweep.failed;
    if let Some(e) = first_error(&sweep) {
        out.check("every stream ran to the end", false, e);
    }
    note_steps(&mut out, spec, &sweep.steps);
    verify_twins(&mut out, spec, &service, &sweep);
    drop(service);
    let setups = more_setups(first_setup, spec.setup_repeats, || {
        Service::spawn(spec, streams, ctx.seed)
    })?;
    let (closed_rounds, closed_wall_s) = sweep.closed.completed();
    report_end_to_end(
        &mut out,
        &setups,
        &TimedSection {
            latency_ms: sweep.reference.latencies_ms_by_stream(),
            closed_rounds,
            closed_wall_s,
            closed: ClosedLoop::Streams(sweep.closed.latencies_ms_by_stream()),
            end,
        },
    );
    out.metric(
        "max_rate_ok_rps",
        max_rate_ok(&sweep.steps),
        sweep.steps.len(),
    );
    Ok(out)
}

fn first_error(sweep: &Sweep) -> Option<String> {
    std::iter::once(&sweep.reference)
        .chain(std::iter::once(&sweep.closed))
        .flat_map(|p| p.streams.iter())
        .find_map(|s| s.error.clone())
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

fn traced(
    spec: &Spec,
    ctx: &RunCtx<'_>,
    mut service: Service,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let clock = SectionClock::start()?;
    let mut swept = None;
    let trace = gcs_trace::with_recording(|| swept = Some(sweep(&mut service, spec, ctx, true)));
    let sweep = swept.expect("recording closure ran");
    let end = clock.stop()?;
    // The sweep's closing closed-loop phase again, spans off, right after
    // it: the pair the tracing overhead is read from.
    let plain = service.phase(
        spec,
        Load::Closed {
            rounds: ctx.scaled(spec.closed_rounds),
        },
    );
    out.attempted = sweep.attempted + plain.offered();
    out.failed = sweep.failed + plain.failed();
    if let Some(e) = first_error(&sweep) {
        out.check("every stream ran to the end", false, e);
    }
    note_steps(&mut out, spec, &sweep.steps);
    verify_twins(&mut out, spec, &service, &sweep);
    report_process(&mut out, &end);
    let (off, on) = (
        plain.latencies_ms().median(),
        sweep.closed.latencies_ms().median(),
    );
    out.metric(
        "trace.overhead_share",
        (on - off) / off,
        sweep.closed.latencies_ms().n(),
    );

    // Rate sweep.
    for (i, s) in sweep.steps.iter().enumerate() {
        out.metric(&format!("aggd.rate{i}_p50_ms"), s.p50_ms, s.n);
        out.metric(&format!("aggd.rate{i}_tail_ms"), s.tail_ms, s.n);
    }
    out.metric("aggd.max_rate_ok_rps", max_rate_ok(&sweep.steps), 4);
    let reference = &sweep.reference;
    let ref_latency = reference.latencies_ms();
    out.metric(
        "loadgen.late_p95_ms",
        sweep.steps[spec.reference].late_p95_ms,
        ref_latency.n(),
    );
    let offered_rps: f64 = reference
        .streams
        .iter()
        .map(|s| s.samples.len() as f64 / s.wall_s)
        .sum();
    out.metric("loadgen.offered_rps", offered_rps, ref_latency.n());
    out.metric(
        "loadgen.completed",
        (out.attempted - out.failed) as f64,
        out.attempted as usize,
    );
    out.metric(
        "loadgen.failed_share",
        out.failed as f64 / out.attempted as f64,
        out.attempted as usize,
    );

    // Client calls, from the spans the streams opened.
    let spans = SpanTable::from_trace(&trace);
    let (connect, submit) = (spans.sample("aggd.connect"), spans.sample("aggd.submit"));
    out.metric("aggd.connect_ms", connect.median() / 1e6, connect.n());
    out.metric("aggd.submit_rtt_us", submit.median() / 1e3, submit.n());
    let scrapes = Sample::new(sweep.scrape_ms.clone());
    out.metric("aggd.scrape_ms", scrapes.median(), scrapes.n());
    out.metric("aggd.scrape_bytes", sweep.scrape_bytes as f64, 1);
    let registry = service.daemon.registry();
    out.metric(
        "aggd.shard_jobs_total",
        registry.counter("aggd/shard/jobs_total").unwrap_or(0.0),
        1,
    );
    out.metric(
        "aggd.rejects_total",
        registry.counter("aggd/rejects_total").unwrap_or(0.0),
        1,
    );

    // Single calls.
    let micro = gcs_trace::with_recording(|| {
        if let Err(e) = single_calls(spec, &service, &mut out) {
            out.check("single-call layers measured", false, e);
        }
    });
    let fold_ms = out
        .metrics
        .iter()
        .find(|m| m.name == "aggd.state_fold_ms")
        .map_or(0.0, |m| m.value);
    let fold_share = fold_ms / ref_latency.median();
    out.note("fold_share_of_round_p50", Json::Num(fold_share));
    // The workload must stress what it claims to.
    if spec.dim >= LARGE.dim {
        out.check(
            "the fold is at least half the round",
            fold_share >= 0.5,
            format!("{fold_share:.3}"),
        );
    } else {
        out.check(
            "the fold is at most a tenth of the round",
            fold_share <= 0.1,
            format!("{fold_share:.3}"),
        );
    }
    out.trace = trace;
    out.trace.spans.extend(micro.spans);
    Ok(out)
}

/// Times the layers under a round one public call at a time: a successful
/// fetch, the tenant state machine with an injected clock, the protocol
/// codec, and (small tenants) one framed request/reply.
fn single_calls(spec: &Spec, service: &Service, out: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_millis(300);
    let tenant = &service.tenants[0];
    let fail = |what: &str, e: gcs_aggd::ClientError| format!("{what}: {e}");

    // A fetch that succeeds at once: the round is folded and retained.
    let cfg = tenant.config(spec, WARM_EPOCH - 1);
    let mut client = TenantClient::connect(service.daemon.addr(), &cfg, DEADLINE)
        .map_err(|e| fail("connect", e))?;
    let mut estimate = Vec::with_capacity(spec.dim);
    for (rank, g) in tenant.grads(0).iter().enumerate().take(N_WORKERS - 1) {
        client.submit(0, rank, g).map_err(|e| fail("submit", e))?;
    }
    client
        .run_round(
            0,
            N_WORKERS - 1,
            &tenant.grads(0)[N_WORKERS - 1],
            &mut estimate,
        )
        .map_err(|e| fail("run_round", e))?;
    let mut fetch_error = None;
    let fetch = time_calls("aggd.fetch", budget, || {
        if let Err(e) = client.fetch_into(0, &mut estimate) {
            fetch_error = Some(e);
        }
    });
    if let Some(e) = fetch_error {
        return Err(fail("fetch", e));
    }
    client.bye().map_err(|e| fail("bye", e))?;
    out.metric("aggd.fetch_rtt_us", fetch.median() / 1e3, fetch.n());

    // The tenant state machine alone, fed the clock it is told; every
    // tenant, since the round latencies pool them too.
    let now = Instant::now();
    let rounds = if spec.dim >= LARGE.dim { 16 } else { 300 };
    let (mut submits, mut folds, mut fetches) = (Vec::new(), Vec::new(), Vec::new());
    for tenant in &service.tenants {
        let mut state = TenantState::new(tenant.config(spec, 0))?;
        for round in 0..rounds {
            let grads = tenant.grads(round);
            for (rank, g) in grads.iter().enumerate() {
                let last = rank == N_WORKERS - 1;
                let t0 = Instant::now();
                let verdict = {
                    let _s = span(if last {
                        "aggd.state_fold"
                    } else {
                        "aggd.state_submit"
                    });
                    state.submit(round, rank, g, now)
                };
                let ns = t0.elapsed().as_nanos() as f64;
                if !matches!(verdict, SubmitVerdict::Accepted { .. }) {
                    return Err(format!(
                        "state refused round {round} rank {rank}: {verdict:?}"
                    ));
                }
                if last {
                    folds.push(ns);
                } else {
                    submits.push(ns);
                }
            }
            let t0 = Instant::now();
            {
                let _s = span("aggd.state_fetch");
                state.fetch_into(round, &mut estimate);
            }
            fetches.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let (submits, folds, fetches) = (
        Sample::new(submits),
        Sample::new(folds),
        Sample::new(fetches),
    );
    out.metric("aggd.state_submit_us", submits.median() / 1e3, submits.n());
    out.metric("aggd.state_fold_ms", folds.median() / 1e6, folds.n());
    out.metric("aggd.state_fetch_us", fetches.median() / 1e3, fetches.n());

    // The SUBMIT codec at this payload size.
    let grad = &tenant.grads(0)[0];
    let mut frame = Vec::new();
    let enc = time_calls("aggd.proto_encode", budget / 3, || {
        encode_submit(&mut frame, 0, 0, grad);
    });
    out.metric(
        "aggd.proto_encode_ns_per_elem",
        enc.median() / spec.dim as f64,
        enc.n(),
    );
    let mut decoded = Vec::with_capacity(spec.dim);
    // tag (1) + round (8) + rank (8) precede the payload.
    let dec = time_calls("aggd.proto_decode", budget / 3, || {
        let mut cursor = Cursor::new(&frame[17..]);
        cursor
            .f32s_into(spec.dim, &mut decoded)
            .expect("own encoding decodes");
    });
    out.metric(
        "aggd.proto_decode_ns_per_elem",
        dec.median() / spec.dim as f64,
        dec.n(),
    );
    if spec.dim < LARGE.dim {
        layers::tcp_frame_rtt(out)?;
    }
    Ok(())
}
