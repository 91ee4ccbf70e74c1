//! `agg_large`: `aggregate_round_into` called directly at `d = 2^20`, a
//! cycle over all six schemes, closed loop.
//!
//! The same `gcs-core` layer `train_bert` leans on, but out of cache: four
//! workers' gradients are 16 MiB of input against a 2–4 MiB L2, the regime
//! the paper's 144 M–345 M-parameter models live in. A kernel fusion that wins
//! inside L2 and loses here is caught. No `gcs-nn`, no sockets.

use std::time::Instant;

use gcs_core::scheme::{AggregationOutcome, CompressionScheme, RoundContext};
use gcs_core::schemes::topk::TopK;
use gcs_metrics::Json;
use gcs_tensor::vector::{mean, vnmse};

use super::{
    build_scheme, more_setups, report_end_to_end, report_process, scheme_span, timed_setup,
    ClosedLoop, RunCtx, SectionClock, TimedSection, N_WORKERS, SCHEMES,
};
use crate::inputs::{checksum, derive, worker_gradients};
use crate::layers::{self, span, KernelShapes, SpanTable};
use crate::report::Outcome;
use crate::stats::Sample;

/// Gradient length: four workers' gradients are 16 MiB of input.
const D: usize = 1 << 20;
/// PowerSGD sees the gradient as one matrix.
const SHAPE: (usize, usize) = (1 << 10, 1 << 10);
/// Cycles over the six schemes at the reference length: 204 rounds, the
/// fewest whole cycles that leave ten samples beyond p95.
const BASE_CYCLES: u64 = 34;
/// Set-ups per end-to-end run (each generates 16 MiB of gradients and runs
/// one warm cycle, about 0.7 s).
const SETUP_REPEATS: usize = 3;

/// Largest vNMSE each scheme of [`SCHEMES`] may show on its first round
/// (error-feedback memories still empty) over uniform gradients. Uniform
/// coordinates have no heavy tail, so the sparsifiers and the rank-4
/// factorization keep little of the energy and sit near 1, far above the
/// figures EXPERIMENTS.md records for trained-model gradients; what is
/// pinned here is that each scheme stays in its own regime.
const VNMSE_MAX: [f64; 6] = [1e-6, 1.0, 1.0, 0.15, 0.15, 1.0];

struct State {
    grads: Vec<Vec<f32>>,
    schemes: Vec<Box<dyn CompressionScheme>>,
    outcomes: Vec<AggregationOutcome>,
    experiment_seed: u64,
    next_round: u64,
    /// Each scheme's vNMSE on its first round.
    first_vnmse: Vec<f64>,
}

impl State {
    /// One aggregation round of scheme `s`, returning its seconds.
    fn round(&mut self, s: usize, count_allocs: bool) -> (f64, u64) {
        let ctx = RoundContext::new(self.experiment_seed, self.next_round);
        self.next_round += 1;
        let (scheme, outcome, grads) = (&mut self.schemes[s], &mut self.outcomes[s], &self.grads);
        let t0 = Instant::now();
        let allocs = {
            let _s = span(scheme_span(SCHEMES[s]));
            if count_allocs {
                let ((), stats) =
                    gcs_alloc::measure(|| scheme.aggregate_round_into(grads, &ctx, outcome));
                stats.total_events()
            } else {
                scheme.aggregate_round_into(grads, &ctx, outcome);
                0
            }
        };
        (t0.elapsed().as_secs_f64(), allocs)
    }

    /// `cycles` passes over the mix; per-round milliseconds in mix order.
    fn cycles(&mut self, cycles: u64, count_allocs: bool) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut ms = Vec::with_capacity(cycles as usize * SCHEMES.len());
        let mut allocs = vec![Vec::new(); SCHEMES.len()];
        for _ in 0..cycles {
            for (s, per_scheme) in allocs.iter_mut().enumerate() {
                let (secs, events) = self.round(s, count_allocs);
                ms.push(secs * 1e3);
                per_scheme.push(events as f64);
            }
        }
        (ms, allocs)
    }
}

fn setup(seed: u64) -> Result<State, String> {
    let grads = worker_gradients(seed, N_WORKERS, D);
    let schemes: Vec<_> = SCHEMES
        .iter()
        .map(|name| build_scheme(name, N_WORKERS, &[SHAPE], None))
        .collect();
    let mut state = State {
        grads,
        outcomes: schemes
            .iter()
            .map(|_| AggregationOutcome::default())
            .collect(),
        schemes,
        experiment_seed: derive(seed, 0xa9),
        next_round: 0,
        first_vnmse: Vec::new(),
    };
    // One warm cycle grows every scheme's round scratch to its high-water
    // mark; timed rounds then run allocation-free where the scheme is.
    state.cycles(1, false);
    let exact = mean(&state.grads);
    state.first_vnmse = state
        .outcomes
        .iter()
        .map(|o| vnmse(&o.mean_estimate, &exact))
        .collect();
    Ok(state)
}

/// Runs the workload.
pub fn run(ctx: &RunCtx<'_>) -> Result<Outcome, String> {
    ctx.env.audit_generator(1, 0)?;
    let cycles = ctx.scaled(BASE_CYCLES);
    let mut out = Outcome::default();
    let (mut state, first_setup) = timed_setup(|| setup(ctx.seed))?;
    out.note("d", Json::Num(D as f64));
    out.note("cycles", Json::Num(cycles as f64));
    out.note("schemes", Json::Str(SCHEMES.join(",")));
    out.note(
        "input_checksum",
        Json::Str(format!("{:016x}", checksum(&state.grads))),
    );

    let mut section = None;
    if ctx.traced {
        traced(ctx, cycles, &mut state, &mut out)?;
    } else {
        let clock = SectionClock::start()?;
        let (ms, _) = state.cycles(cycles, false);
        let end = clock.stop()?;
        out.attempted = ms.len() as u64;
        // `ms` is in mix order: a round's kind is its scheme.
        let latency_ms = (0..SCHEMES.len())
            .map(|s| ms.iter().skip(s).step_by(SCHEMES.len()).copied().collect())
            .collect();
        section = Some(TimedSection {
            latency_ms,
            closed_rounds: out.attempted,
            closed_wall_s: end.wall_s,
            closed: ClosedLoop::Section,
            end,
        });
    }

    // Every scheme's first estimate against the exact mean.
    for ((name, outcome), (&v, vmax)) in SCHEMES
        .iter()
        .zip(&state.outcomes)
        .zip(state.first_vnmse.iter().zip(VNMSE_MAX))
    {
        out.check(
            &format!("{name} vNMSE inside its band"),
            v < vmax,
            format!("{v:.3e} < {vmax:.1e}"),
        );
        if ctx.traced {
            out.metric(&format!("core.{name}.vnmse"), v, 1);
            out.metric(
                &format!("core.{name}.bits_per_coord"),
                outcome.bits_per_coord(D as u64),
                1,
            );
        }
    }
    if let Some(section) = section {
        drop(state);
        let setups = more_setups(first_setup, SETUP_REPEATS, || setup(ctx.seed))?;
        report_end_to_end(&mut out, &setups, &section);
    }
    Ok(out)
}

fn traced(
    ctx: &RunCtx<'_>,
    cycles: u64,
    state: &mut State,
    out: &mut Outcome,
) -> Result<(), String> {
    let third = (cycles / 3).max(1);
    out.note("traced_cycles", Json::Num(third as f64));
    let clock = SectionClock::start()?;
    let (plain_ms, _) = state.cycles(third, true);
    let mut traced_ms = Vec::new();
    let mut allocs = Vec::new();
    let trace = gcs_trace::with_recording(|| {
        (traced_ms, allocs) = state.cycles(third, true);
    });
    let end = clock.stop()?;
    out.attempted = (plain_ms.len() + traced_ms.len()) as u64;
    report_process(out, &end);
    let (plain, with_spans): (f64, f64) = (plain_ms.iter().sum(), traced_ms.iter().sum());
    out.metric(
        "trace.overhead_share",
        (with_spans - plain) / plain,
        traced_ms.len(),
    );
    let spans = SpanTable::from_trace(&trace);
    for (name, events) in SCHEMES.iter().zip(allocs) {
        let s = spans.sample(scheme_span(name));
        out.metric(&format!("core.{name}.round_ms"), s.median() / 1e6, s.n());
        let events = Sample::new(events);
        out.metric(
            &format!("core.{name}.allocs_per_round"),
            events.median(),
            events.n(),
        );
    }
    let micro = gcs_trace::with_recording(|| {
        layers::tensor_layers(
            out,
            &KernelShapes {
                d: D,
                topk_k: TopK::with_bits(2.0, N_WORKERS, true).k_for(D),
                matrix: SHAPE,
                rank: 4,
            },
            ctx.seed,
        );
        layers::mem_collective_layers(out, &state.grads);
    });
    out.trace = trace;
    out.trace.spans.extend(micro.spans);
    Ok(())
}
