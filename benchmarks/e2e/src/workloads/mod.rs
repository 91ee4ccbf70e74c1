//! The six workloads and what they share: the scheme mix, the round-stamping
//! scheme wrapper, repeated set-up, and the end-to-end metric set.

pub mod agg_large;
pub mod aggd;
pub mod tcp_ring;
pub mod train;

use std::time::Instant;

use gcs_core::scheme::{AggregationOutcome, CommEvent, CompressionScheme, RoundContext};
use gcs_core::schemes::baseline::PrecisionBaseline;
use gcs_core::schemes::powersgd::PowerSgd;
use gcs_core::schemes::thc::Thc;
use gcs_core::schemes::topk::TopK;
use gcs_core::schemes::topkc::TopKC;
use gcs_ddp::Task;
use gcs_gpusim::DeviceSpec;

use crate::env::{self, CpuMark, Environment};
use crate::report::Outcome;
use crate::stats::{median_of, samples_beyond, Sample};
use gcs_metrics::Json;

/// `--seconds` the fixed round counts below are sized for. Another value
/// scales every count in proportion, so parent and change always do the
/// same work for the same arguments.
pub const REFERENCE_SECONDS: f64 = 20.0;

/// Logical workers in every scheme round.
pub const N_WORKERS: usize = 4;

/// One workload's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Trainer::train` on VggMini: `gcs-nn` dominates.
    TrainVgg,
    /// `Trainer::train` on BertMini: `gcs-core` dominates.
    TrainBert,
    /// `aggregate_round_into` at `d = 2^20`: the schemes out of cache.
    AggLarge,
    /// Ring all-reduce of 4 MiB over a persistent loopback `TcpMesh`.
    TcpRing,
    /// `gcs-aggd` with 256-element tenants: per-frame cost dominates.
    AggdSmall,
    /// `gcs-aggd` with 65 536-element tenants: the fold dominates.
    AggdLarge,
}

impl Workload {
    /// Every workload, in the order `run.sh` runs them.
    pub const ALL: [Workload; 6] = [
        Workload::TrainVgg,
        Workload::TrainBert,
        Workload::AggLarge,
        Workload::TcpRing,
        Workload::AggdSmall,
        Workload::AggdLarge,
    ];

    /// The workloads `BENCHMARK.json` lists, so the ones its driver runs and
    /// gates. The other two stay runnable by name and in `run.sh`'s full pass,
    /// but stream tens of MiB per round through memory the box shares with
    /// its neighbours: their timings moved 1.4x to 1.7x with the neighbours'
    /// load for minutes at a time (`agg_large` 30 -> 51 ms per fp16 round,
    /// `aggd_large` 14 -> 19.4 ms per Thc round), which no run length inside
    /// the driver's budget averages out. The four listed keep their working
    /// sets in the core's own caches and still cover every layer.
    pub const LISTED: [Workload; 4] = [
        Workload::TrainVgg,
        Workload::TrainBert,
        Workload::TcpRing,
        Workload::AggdSmall,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainVgg => "train_vgg",
            Workload::TrainBert => "train_bert",
            Workload::AggLarge => "agg_large",
            Workload::TcpRing => "tcp_ring",
            Workload::AggdSmall => "aggd_small",
            Workload::AggdLarge => "aggd_large",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once.
    pub fn run(self, ctx: &RunCtx<'_>) -> Result<Outcome, String> {
        match self {
            Workload::TrainVgg => train::run(Task::Vgg, ctx),
            Workload::TrainBert => train::run(Task::Bert, ctx),
            Workload::AggLarge => agg_large::run(ctx),
            Workload::TcpRing => tcp_ring::run(ctx),
            Workload::AggdSmall => aggd::run(&aggd::SMALL, ctx),
            Workload::AggdLarge => aggd::run(&aggd::LARGE, ctx),
        }
    }
}

/// Arguments of one run.
pub struct RunCtx<'a> {
    /// The measured environment (cores, `T`).
    pub env: &'a Environment,
    /// `--seed`: feeds generated inputs only.
    pub seed: u64,
    /// `--seconds`: scales the fixed round counts.
    pub seconds: f64,
    /// `--trace 1`: record spans and report per-layer metrics.
    pub traced: bool,
}

impl RunCtx<'_> {
    /// `base` rounds at the reference length, scaled to `--seconds`.
    pub fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.seconds / REFERENCE_SECONDS).round() as u64).max(1)
    }
}

/// Short names of the scheme mix, in cycle order.
pub const SCHEMES: [&str; 6] = ["fp16", "topk", "topkc", "thc_wide", "thc_sat", "powersgd"];

/// Builds scheme `name` of the mix exactly as `gcs_ddp::experiments` does.
/// `shapes` are the matrices PowerSGD factors; `cost_shapes` the paper-scale
/// layer shapes its cost model charges (training workloads only).
pub fn build_scheme(
    name: &str,
    n_workers: usize,
    shapes: &[(usize, usize)],
    cost_shapes: Option<&[(u64, u64)]>,
) -> Box<dyn CompressionScheme> {
    match name {
        "fp16" => Box::new(PrecisionBaseline::fp16()),
        "topk" => Box::new(TopK::with_bits(2.0, n_workers, true)),
        "topkc" => Box::new(TopKC::paper_config(2.0, n_workers)),
        "thc_wide" => Box::new(Thc::baseline(4, n_workers)),
        "thc_sat" => Box::new(Thc::improved(4, &DeviceSpec::a100(), n_workers)),
        "powersgd" => {
            let scheme = PowerSgd::new(4, shapes.to_vec(), n_workers);
            match cost_shapes {
                Some(cost) => Box::new(scheme.with_cost_shapes(cost.to_vec())),
                None => Box::new(scheme),
            }
        }
        other => panic!("scheme {other} is not in the mix"),
    }
}

/// The span name of one aggregation round of scheme `name` (spans need
/// `'static` names).
pub fn scheme_span(name: &str) -> &'static str {
    match name {
        "fp16" => "core.fp16.round",
        "topk" => "core.topk.round",
        "topkc" => "core.topkc.round",
        "thc_wide" => "core.thc_wide.round",
        "thc_sat" => "core.thc_sat.round",
        "powersgd" => "core.powersgd.round",
        other => panic!("scheme {other} is not in the mix"),
    }
}

/// A scheme that stamps the start of every aggregation. `Trainer::train`
/// aggregates exactly once per round, so consecutive stamps are one round
/// apart — round latencies without touching the trainer.
pub struct StampedScheme<'a> {
    inner: &'a mut dyn CompressionScheme,
    /// When each aggregation began.
    pub stamps: Vec<Instant>,
}

impl<'a> StampedScheme<'a> {
    /// Wraps `inner`, with room for `rounds` stamps.
    pub fn new(inner: &'a mut dyn CompressionScheme, rounds: u64) -> StampedScheme<'a> {
        StampedScheme {
            inner,
            stamps: Vec::with_capacity(rounds as usize),
        }
    }
}

impl CompressionScheme for StampedScheme<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn aggregate_round(&mut self, grads: &[Vec<f32>], ctx: &RoundContext) -> AggregationOutcome {
        self.stamps.push(Instant::now());
        self.inner.aggregate_round(grads, ctx)
    }
    fn aggregate_round_into(
        &mut self,
        grads: &[Vec<f32>],
        ctx: &RoundContext,
        out: &mut AggregationOutcome,
    ) {
        self.stamps.push(Instant::now());
        self.inner.aggregate_round_into(grads, ctx, out);
    }
    fn all_reduce_compatible(&self) -> bool {
        self.inner.all_reduce_compatible()
    }
    fn nominal_bits_per_coord(&self, d: u64) -> f64 {
        self.inner.nominal_bits_per_coord(d)
    }
    fn comm_events(&self, d: u64) -> Vec<CommEvent> {
        self.inner.comm_events(d)
    }
    fn compute_seconds(&self, d: u64, device: &DeviceSpec) -> f64 {
        self.inner.compute_seconds(d, device)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Round latencies (ms) from the stamps of a run that began at `t0` and
/// ended at `t1`. Stamps sit mid-round, so round `k` is stamp `k` → stamp
/// `k+1`, and the last wraps: head of round 0 plus tail of the final round.
/// The latencies sum to exactly `t1 - t0`.
pub fn round_latencies_ms(t0: Instant, stamps: &[Instant], t1: Instant) -> Vec<f64> {
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    let (Some(&first), Some(&last)) = (stamps.first(), stamps.last()) else {
        return Vec::new();
    };
    let mut out: Vec<f64> = stamps.windows(2).map(|w| ms(w[0], w[1])).collect();
    out.push(ms(t0, first) + ms(last, t1));
    out
}

/// Runs `setup` once and returns the state with the seconds it took.
pub fn timed_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let t0 = Instant::now();
    let state = setup()?;
    Ok((state, t0.elapsed().as_secs_f64()))
}

/// Sets up and tears down `repeats` more times and returns every set-up's
/// seconds, `first` included. Called after the timed section, once its state
/// is torn down and its peak memory read, so the repeats cost the measured
/// run nothing.
pub fn more_setups<S>(
    first: f64,
    repeats: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<Vec<f64>, String> {
    let mut seconds = vec![first];
    for _ in 1..repeats {
        let (state, s) = timed_setup(&mut setup)?;
        drop(state);
        seconds.push(s);
    }
    Ok(seconds)
}

/// What the clocks and the process counters read over a timed section.
pub struct SectionEnd {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds, every thread (scheduler-accounted, not sampled).
    pub cpu_s: f64,
    /// Kernel share of the CPU time (tick-sampled; indicative only).
    pub sys_share_of_cpu: f64,
    /// `VmHWM` when the section ended, MiB.
    pub peak_rss_mib: f64,
}

/// Marks the start of a timed section (wall and CPU clocks).
pub struct SectionClock {
    wall: Instant,
    cpu_s: f64,
    ticks: CpuMark,
}

impl SectionClock {
    /// Starts the clocks.
    pub fn start() -> Result<SectionClock, String> {
        Ok(SectionClock {
            ticks: CpuMark::start()?,
            cpu_s: env::process_cpu_seconds()?,
            wall: Instant::now(),
        })
    }

    /// Stops the clocks and reads the peak memory, before anything that
    /// comes after the section (checks, further set-ups) can raise it.
    pub fn stop(&self) -> Result<SectionEnd, String> {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = env::process_cpu_seconds()? - self.cpu_s;
        let (user, sys) = self.ticks.elapsed()?;
        Ok(SectionEnd {
            wall_s,
            cpu_s,
            sys_share_of_cpu: if user + sys > 0.0 {
                sys / (user + sys)
            } else {
                0.0
            },
            peak_rss_mib: env::peak_rss_mib()?,
        })
    }
}

/// The closed loop `calm_rounds_per_s` is read from.
pub enum ClosedLoop {
    /// The section's own rounds, one after another on one thread.
    Section,
    /// A phase of its own in which several streams ran back to back at the
    /// same time: each stream's round latencies, milliseconds.
    Streams(Vec<Vec<f64>>),
}

/// The timed section of an end-to-end run.
pub struct TimedSection {
    /// Latency of every timed round, milliseconds, one list per kind of
    /// round (scheme, plain or evaluating; tenant): latencies of different
    /// kinds are not one distribution.
    pub latency_ms: Vec<Vec<f64>>,
    /// Rounds the closed loop ran and the wall seconds it took them.
    pub closed_rounds: u64,
    /// See `closed_rounds`.
    pub closed_wall_s: f64,
    /// Where the closed loop's single rounds are.
    pub closed: ClosedLoop,
    /// Clocks and counters at the end of the section.
    pub end: SectionEnd,
}

/// The percentile of a kind's round latencies that stands for its calm pace.
///
/// The box this runs on shares its cores and memory with other tenants of
/// its host: for seconds to minutes at a time every round takes 1.3x to 1.6x
/// as long, with nothing in the guest to show for it (its other CPU idle, no
/// steal time). Whole-run means and medians follow how much of a run fell
/// into such a period — 9 to 21 % between the quartiles of ten runs of one
/// binary — while the lower decile stays on the undisturbed pace as long as a
/// tenth of a kind's rounds met it: 2 to 8 % on the same runs (13 % once,
/// when whole kinds ran disturbed). Lower percentiles gain nothing more and
/// begin to catch the rare round that runs *faster* than the usual pace.
pub const CALM_PERCENTILE: f64 = 10.0;

/// One statistic per kind of round, averaged over the kinds by their round
/// counts. A workload cycles through schemes or tenants and has one latency
/// cluster per kind; a percentile of the pooled mixture falls between
/// clusters and jumps from one to the next on the smallest shift.
fn over_kinds(kinds: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let rounds: usize = kinds.iter().map(Vec::len).sum();
    let weighted: f64 = kinds.iter().map(|v| v.len() as f64 * stat(v)).sum();
    weighted / rounds.max(1) as f64
}

fn percentile_of(values: &[f64], p: f64) -> f64 {
    Sample::new(values.to_vec()).percentile(p)
}

/// Milliseconds per round at the calm pace of each kind.
pub fn calm_round_ms(kinds: &[Vec<f64>]) -> f64 {
    over_kinds(kinds, |v| percentile_of(v, CALM_PERCENTILE))
}

/// Rounds per second of the closed loop at its calm pace: one loop does a
/// round per `calm_round_ms`; concurrent streams add their rates.
fn calm_rounds_per_s(section: &TimedSection) -> f64 {
    match &section.closed {
        ClosedLoop::Section => 1e3 / calm_round_ms(&section.latency_ms),
        ClosedLoop::Streams(streams) => streams
            .iter()
            .map(|s| 1e3 / percentile_of(s, CALM_PERCENTILE))
            .sum(),
    }
}

/// Records the end-to-end timings of an untraced run. The two the driver
/// gates read each kind of round at its calm pace; the plain ones beside them
/// are over every timed round of the section.
pub fn report_end_to_end(out: &mut Outcome, setups: &[f64], section: &TimedSection) {
    let pooled = Sample::new(section.latency_ms.iter().flatten().copied().collect());
    let n = pooled.n();
    out.metric(
        "calm_rounds_per_s",
        calm_rounds_per_s(section),
        section.closed_rounds as usize,
    );
    out.metric("calm_round_ms", calm_round_ms(&section.latency_ms), n);
    out.metric("peak_rss_mb", section.end.peak_rss_mib, 1);
    out.metric("setup_s", median_of(setups), setups.len());
    out.metric(
        "rounds_per_s",
        section.closed_rounds as f64 / section.closed_wall_s,
        section.closed_rounds as usize,
    );
    out.metric(
        "round_p50_ms",
        over_kinds(&section.latency_ms, median_of),
        n,
    );
    out.metric("round_p95_ms", pooled.percentile(95.0), n);
    out.metric(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    out.check(
        "p95 has ten samples beyond it",
        samples_beyond(n, 95.0) >= 10,
        format!("{} of {n} round latencies", samples_beyond(n, 95.0)),
    );
    // Informational: p99 where a thousand samples support it.
    if samples_beyond(n, 99.0) >= 10 {
        out.note("round_p99_ms", Json::Num(pooled.percentile(99.0)));
    }
    out.note(
        "round_p50_ms_by_kind",
        Json::Array(
            section
                .latency_ms
                .iter()
                .map(|v| Json::Num(median_of(v)))
                .collect(),
        ),
    );
    out.note("wall_s", Json::Num(section.end.wall_s));
    out.note("cpu_s", Json::Num(section.end.cpu_s));
    // The raw latencies, in the order the rounds ran, for whoever wants
    // another statistic than the ones above.
    out.note(
        "round_ms_by_kind",
        Json::Array(
            section
                .latency_ms
                .iter()
                .map(|v| Json::Array(v.iter().map(|&ms| Json::Num(ms)).collect()))
                .collect(),
        ),
    );
}

/// Records the process-level layer metrics of a traced run.
pub fn report_process(out: &mut Outcome, end: &SectionEnd) {
    let cpu_share = end.cpu_s / end.wall_s;
    out.metric("proc.cpu_share", cpu_share, 1);
    out.metric("proc.sys_share", cpu_share * end.sys_share_of_cpu, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn stamped_latencies_sum_to_the_run() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let lat = round_latencies_ms(t0, &[at(3), at(13), at(24)], at(30));
        assert_eq!(lat.len(), 3);
        assert!((lat[0] - 10.0).abs() < 1e-9);
        assert!((lat[1] - 11.0).abs() < 1e-9);
        assert!((lat[2] - 9.0).abs() < 1e-9);
        assert!((lat.iter().sum::<f64>() - 30.0).abs() < 1e-9);
        assert!(round_latencies_ms(t0, &[], at(5)).is_empty());
    }

    #[test]
    fn further_setups_are_timed_and_torn_down() {
        let mut built = 0;
        let mut setup = || {
            built += 1;
            Ok(built)
        };
        let (state, first) = timed_setup(&mut setup).unwrap();
        assert_eq!(state, 1);
        let secs = more_setups(first, 4, &mut setup).unwrap();
        assert_eq!((secs.len(), built), (4, 4));
    }

    fn section(latency_ms: Vec<Vec<f64>>, closed: ClosedLoop) -> TimedSection {
        TimedSection {
            latency_ms,
            closed_rounds: 300,
            closed_wall_s: 2.0,
            closed,
            end: SectionEnd {
                wall_s: 2.0,
                cpu_s: 1.0,
                sys_share_of_cpu: 0.1,
                peak_rss_mib: 7.0,
            },
        }
    }

    fn value(out: &Outcome, name: &str) -> f64 {
        out.metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn plain_timings_cover_every_timed_round() {
        // Two kinds of round: 150 at 1 ms with every tenth at 3 ms, and 150
        // at 10 ms. 300 rounds took 2 s of closed-loop wall time.
        let fast: Vec<f64> = (0..150)
            .map(|i| if i % 10 == 9 { 3.0 } else { 1.0 })
            .collect();
        let mut out = Outcome::default();
        report_end_to_end(
            &mut out,
            &[0.3, 0.1, 0.2],
            &section(vec![fast, vec![10.0; 150]], ClosedLoop::Section),
        );
        assert_eq!(value(&out, "rounds_per_s"), 150.0);
        // Kind medians 1 and 10; the pooled median (6.5) is in neither.
        assert_eq!(value(&out, "round_p50_ms"), 5.5);
        // Slow rounds are in the tail, not dropped.
        assert_eq!(value(&out, "round_p95_ms"), 10.0);
        assert_eq!(value(&out, "setup_s"), 0.2);
        assert!(out.checks.iter().all(|c| c.ok));

        // 199 rounds leave fewer than ten beyond p95.
        let mut out = Outcome::default();
        report_end_to_end(
            &mut out,
            &[0.1],
            &section(vec![vec![1.0; 199]], ClosedLoop::Section),
        );
        assert!(out.checks.iter().any(|c| !c.ok));
    }

    #[test]
    fn calm_timings_ignore_a_disturbed_stretch_and_weigh_kinds_by_rounds() {
        // 90 plain rounds at 2 ms and 10 evaluating ones at 12 ms; the last
        // 60 % of both ran 1.5x slower.
        let disturbed = |ms: f64, n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| if i * 10 >= n * 4 { ms * 1.5 } else { ms })
                .collect()
        };
        let kinds = vec![disturbed(2.0, 90), disturbed(12.0, 10)];
        assert!((calm_round_ms(&kinds) - 3.0).abs() < 1e-9);
        let mut out = Outcome::default();
        report_end_to_end(&mut out, &[0.1], &section(kinds, ClosedLoop::Section));
        assert!((value(&out, "calm_round_ms") - 3.0).abs() < 1e-9);
        assert!((value(&out, "calm_rounds_per_s") - 1e3 / 3.0).abs() < 1e-9);
        // The plain median sits on the disturbed pace.
        assert!((value(&out, "round_p50_ms") - 4.5).abs() < 1e-9);

        // Two concurrent streams at 2 ms and 4 ms a round add their rates.
        let streams = ClosedLoop::Streams(vec![vec![2.0; 50], vec![4.0; 50]]);
        let mut out = Outcome::default();
        report_end_to_end(&mut out, &[0.1], &section(vec![vec![5.0; 200]], streams));
        assert!((value(&out, "calm_rounds_per_s") - 750.0).abs() < 1e-9);
        assert!((value(&out, "calm_round_ms") - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scheme_mix_builds_every_name() {
        for name in SCHEMES {
            let s = build_scheme(name, N_WORKERS, &[(8, 8)], None);
            assert!(!s.name().is_empty());
            assert!(scheme_span(name).contains(name));
        }
    }
}
