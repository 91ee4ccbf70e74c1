//! `train_vgg` / `train_bert`: whole training runs through `Trainer::train`,
//! one per scheme of the mix, closed loop.
//!
//! The two tasks put the round's time in opposite places. VggMini's
//! forward/backward dwarfs any aggregation, so `gcs-nn` and the parameter
//! arena show here; BertMini's forward/backward is small next to a THC or
//! PowerSGD round, so `gcs-core` and `gcs-tensor` show there. Both also carry
//! the paper's own metric — utility against FP16 on a simulated paper-scale
//! clock — which repeats exactly for a given seed.

use std::time::Instant;

use gcs_core::metrics::{utility, Direction, TtaCurve};
use gcs_core::scheme::{AggregationOutcome, CompressionScheme, RoundContext};
use gcs_core::schemes::topk::TopK;
use gcs_ddp::{param_checksum, Task, ThroughputModel, Trainer, TrainerConfig};
use gcs_gpusim::Precision;
use gcs_metrics::Json;
use gcs_nn::{Model, Sgd};
use gcs_tensor::parallel;
use gcs_tensor::vector::vnmse;

use super::{
    build_scheme, more_setups, report_end_to_end, report_process, round_latencies_ms, scheme_span,
    timed_setup, ClosedLoop, RunCtx, SectionClock, StampedScheme, TimedSection, CALM_PERCENTILE,
    N_WORKERS,
};
use crate::inputs::derive;
use crate::layers::{self, self_time_ns, span, KernelShapes, SpanTable};
use crate::report::Outcome;
use crate::stats::Sample;

/// Schemes a training workload runs, baseline first.
const MIX: [&str; 4] = ["fp16", "topkc", "thc_sat", "powersgd"];

/// Set-ups per end-to-end run (each builds four models and warms four
/// schemes, about a second on VggMini).
const SETUP_REPEATS: usize = 5;

/// Rounds per scheme at the reference length, the target every scheme must
/// reach, and the band each scheme's mean vNMSE must stay inside. The bands
/// bracket what the trainer measures on these models with error feedback
/// live (topkc ≈ 0.6, thc_sat ≈ 0.07, powersgd 0.25–0.96): a scheme that
/// leaves its regime fails, ordinary seed-to-seed movement does not.
struct TaskPlan {
    base_rounds: u64,
    target: f64,
    /// Upper vNMSE bound per scheme of [`MIX`] (fp16 is checked < 1e-6).
    vnmse_max: [f64; 4],
}

fn plan_of(task: Task) -> TaskPlan {
    match task {
        // Top-1 accuracy 0.5 (figure 1's lowest VGG target).
        Task::Vgg => TaskPlan {
            base_rounds: 100,
            target: 0.5,
            vnmse_max: [1e-6, 0.8, 0.2, 1.2],
        },
        // Perplexity 60 (figure 1's loosest BERT target).
        Task::Bert => TaskPlan {
            base_rounds: 270,
            target: 60.0,
            vnmse_max: [1e-6, 0.8, 0.2, 1.2],
        },
    }
}

/// One scheme's slot: the scheme, its simulated paper-scale step time, and
/// the model it will train.
struct Slot {
    name: &'static str,
    scheme: Box<dyn CompressionScheme>,
    step_seconds: f64,
    model: Box<dyn Model>,
}

struct State {
    cfg: TrainerConfig,
    model_seed: u64,
    slots: Vec<Slot>,
}

/// What one `Trainer::train` call produced.
struct Trained {
    curve: TtaCurve,
    mean_vnmse: f64,
    bits_per_coord: f64,
    checksum: u64,
    round_ms: Vec<f64>,
}

fn trainer_config(task: Task, ctx: &RunCtx<'_>, plan: &TaskPlan) -> TrainerConfig {
    let mut cfg = task.trainer_config();
    cfg.n_workers = N_WORKERS;
    // The run seed drives the schemes' shared randomness (rotation signs,
    // stochastic rounding); model and data stay the task's own.
    cfg.seed = derive(ctx.seed, 0x7a);
    // Whole evaluation periods, so no trailing partial one skews a round.
    let periods = (ctx.scaled(plan.base_rounds) / cfg.eval_every).max(1);
    cfg.max_rounds = periods * cfg.eval_every;
    cfg
}

fn setup(task: Task, cfg: &TrainerConfig) -> Result<State, String> {
    let model_seed = task.trainer_config().seed;
    let tm = ThroughputModel::paper_testbed();
    let profile = task.profile();
    let shapes = task.build_model(model_seed).matrix_shapes();
    let mut slots = Vec::new();
    for name in MIX {
        let scheme = build_scheme(name, cfg.n_workers, &shapes, Some(&profile.layer_shapes));
        let step_seconds = {
            let _s = span("ddp.plan");
            tm.step(scheme.as_ref(), &profile, Precision::Tf32).total()
        };
        slots.push(Slot {
            name,
            scheme,
            step_seconds,
            model: task.build_model(model_seed),
        });
    }
    // Warm-up: a few rounds of every scheme on a throwaway model, so code,
    // scheme scratch and worker replicas are warm before the first timed
    // round. `train` resets scheme state, so nothing carries over.
    let warm = Trainer::new(TrainerConfig {
        max_rounds: 2,
        eval_every: 2,
        ..cfg.clone()
    });
    for slot in &mut slots {
        let mut scratch = task.build_model(model_seed);
        warm.train(scratch.as_mut(), slot.scheme.as_mut(), slot.step_seconds);
    }
    Ok(State {
        cfg: cfg.clone(),
        model_seed,
        slots,
    })
}

/// Trains `slot` for `rounds` rounds through the real trainer.
fn train_slot(slot: &mut Slot, cfg: &TrainerConfig, rounds: u64) -> Trained {
    let trainer = Trainer::new(TrainerConfig {
        max_rounds: rounds,
        ..cfg.clone()
    });
    let mut stamped = StampedScheme::new(slot.scheme.as_mut(), rounds);
    let t0 = Instant::now();
    let log = trainer.train(slot.model.as_mut(), &mut stamped, slot.step_seconds);
    let t1 = Instant::now();
    Trained {
        curve: log.curve,
        mean_vnmse: log.mean_vnmse,
        bits_per_coord: log.bits_per_coord,
        checksum: param_checksum(slot.model.as_ref()),
        round_ms: round_latencies_ms(t0, &stamped.stamps, t1),
    }
}

/// First evaluation (as a round count) at which the smoothed curve meets
/// the target, if it does.
fn rounds_to_target(task: Task, curve: &TtaCurve, target: f64, step_seconds: f64) -> Option<f64> {
    curve
        .rolling_average(task.rolling_window())
        .time_to_target(target)
        .map(|t| (t / step_seconds).round())
}

/// Geometric mean over the non-baseline schemes of utility against FP16.
fn utility_vs_fp16(task: Task, curves: &[TtaCurve], target: f64) -> Option<f64> {
    let smooth: Vec<TtaCurve> = curves
        .iter()
        .map(|c| c.rolling_average(task.rolling_window()))
        .collect();
    let (fp16, rest) = smooth.split_first()?;
    let mut log_sum = 0.0;
    for c in rest {
        log_sum += utility(c, fp16, target)?.ln();
    }
    Some((log_sum / rest.len() as f64).exp())
}

/// The correctness checks both modes share, from full-length runs.
fn check_runs(
    out: &mut Outcome,
    task: Task,
    plan: &TaskPlan,
    state: &State,
    runs: &[Trained],
) -> Option<f64> {
    for ((slot, run), &vmax) in state.slots.iter().zip(runs).zip(&plan.vnmse_max) {
        let reached = rounds_to_target(task, &run.curve, plan.target, slot.step_seconds);
        out.check(
            &format!("{} reaches the target", slot.name),
            reached.is_some(),
            format!(
                "target {} at round {:?}; final {:?}",
                plan.target,
                reached,
                run.curve.final_metric()
            ),
        );
        out.check(
            &format!("{} vNMSE inside its band", slot.name),
            run.mean_vnmse < vmax,
            format!("mean vNMSE {:.3e} < {vmax:.1e}", run.mean_vnmse),
        );
    }
    let curves: Vec<TtaCurve> = runs.iter().map(|r| r.curve.clone()).collect();
    let u = utility_vs_fp16(task, &curves, plan.target);
    out.check(
        "utility against FP16 is defined",
        u.is_some_and(|u| u.is_finite() && u > 0.0),
        format!("{u:?}"),
    );
    u
}

/// Runs one training workload.
pub fn run(task: Task, ctx: &RunCtx<'_>) -> Result<Outcome, String> {
    // The trainer fans gradient computation out over GCS_THREADS itself;
    // the benchmark adds no load threads and no connections.
    ctx.env.audit_generator(1, 0)?;
    let plan = plan_of(task);
    let cfg = trainer_config(task, ctx, &plan);
    let rounds = cfg.max_rounds;
    let mut out = Outcome::default();
    out.note("rounds_per_scheme", Json::Num(rounds as f64));
    out.note("schemes", Json::Str(MIX.join(",")));
    out.note("trainer_seed", Json::Str(cfg.seed.to_string()));

    let (mut state, first_setup) = timed_setup(|| setup(task, &cfg))?;
    if ctx.traced {
        traced(task, ctx, &plan, &mut state, &mut out)?;
        return Ok(out);
    }

    let clock = SectionClock::start()?;
    let runs: Vec<Trained> = state
        .slots
        .iter_mut()
        .map(|slot| train_slot(slot, &cfg, rounds))
        .collect();
    let end = clock.stop()?;
    out.attempted = rounds * MIX.len() as u64;
    let u = check_runs(&mut out, task, &plan, &state, &runs);
    out.metric("utility_vs_fp16", u.unwrap_or(0.0), MIX.len() - 1);
    drop(state);
    let setups = more_setups(first_setup, SETUP_REPEATS, || setup(task, &cfg))?;
    // A round's kind is its scheme and whether the round ends an evaluation
    // period (those also evaluate the model, several plain rounds' worth).
    // The stamped latencies of a scheme sum to its `train` call, so the four
    // calls are the closed loop's wall time.
    let every = cfg.eval_every as usize;
    let section = TimedSection {
        latency_ms: runs
            .iter()
            .flat_map(|r| {
                let (evaluating, plain): (Vec<_>, Vec<_>) = r
                    .round_ms
                    .iter()
                    .enumerate()
                    .partition(|(i, _)| i % every == every - 1);
                [plain, evaluating].map(|kind| kind.into_iter().map(|(_, &ms)| ms).collect())
            })
            .collect(),
        closed_rounds: out.attempted,
        closed_wall_s: end.wall_s,
        closed: ClosedLoop::Section,
        end,
    };
    report_end_to_end(&mut out, &setups, &section);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced run: the trainer's round rebuilt from public calls, under spans.
// ---------------------------------------------------------------------------

/// A worker replica of the parallel gradient path.
struct Replica {
    model: Box<dyn Model + Send>,
    grads: Vec<f32>,
}

/// Computes every worker's gradient for `round` exactly as the trainer
/// does: on replicas in parallel when the model can be cloned and more than
/// one thread is available, else one after another on `model`.
fn replica_gradients(
    model: &mut dyn Model,
    replicas: &mut [Replica],
    grads: &mut [Vec<f32>],
    batch: usize,
    round: u64,
) {
    if replicas.is_empty() {
        for (w, g) in grads.iter_mut().enumerate() {
            let b = {
                let _s = span("nn.train_batch");
                model.train_batch(batch, w, round)
            };
            {
                let _s = span("nn.fwd_bwd");
                model.forward_backward(&b);
            }
            g.copy_from_slice(model.grads_flat());
        }
        return;
    }
    let params = model.params_flat();
    parallel::for_each_chunk_mut(replicas, 1, |w, chunk| {
        let r = &mut chunk[0];
        r.model.set_flat_params(params);
        let b = {
            let _s = span("nn.train_batch");
            r.model.train_batch(batch, w, round)
        };
        {
            let _s = span("nn.fwd_bwd");
            r.model.forward_backward(&b);
        }
        r.grads.copy_from_slice(r.model.grads_flat());
    });
    for (r, g) in replicas.iter_mut().zip(grads.iter_mut()) {
        std::mem::swap(&mut r.grads, g);
    }
}

/// What the replica loop measured for one scheme.
struct ReplicaRun {
    checksum: u64,
    curve: TtaCurve,
    round_ms: Vec<f64>,
    allocs: Vec<f64>,
    bits: Vec<f64>,
    vnmse: Vec<f64>,
}

/// One scheme's training run rebuilt from the public calls `Trainer::train`
/// makes, in the same order on the same seeds, each under a span.
fn replica_run(task: Task, state: &State, slot_idx: usize, rounds: u64) -> ReplicaRun {
    let cfg = &state.cfg;
    let slot = &state.slots[slot_idx];
    let round_span = scheme_span(slot.name);
    let mut scheme = build_scheme(
        slot.name,
        cfg.n_workers,
        &slot.model.matrix_shapes(),
        Some(&task.profile().layer_shapes),
    );
    let mut model = task.build_model(state.model_seed);
    let d = model.param_count();
    let mut replicas: Vec<Replica> = Vec::new();
    if cfg.n_workers > 1 && parallel::max_threads() > 1 {
        replicas = (0..cfg.n_workers)
            .map_while(|_| model.clone_boxed())
            .map(|m| Replica {
                model: m,
                grads: vec![0.0; d],
            })
            .collect();
        if replicas.len() != cfg.n_workers {
            replicas.clear();
        }
    }
    let mut grads = vec![vec![0.0f32; d]; cfg.n_workers];
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut outcome = AggregationOutcome::default();
    let direction = if model.higher_is_better() {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    };
    let mut curve = TtaCurve::new(slot.name, direction);
    let mut run = ReplicaRun {
        checksum: 0,
        curve: TtaCurve::new(slot.name, direction),
        round_ms: Vec::with_capacity(rounds as usize),
        allocs: Vec::new(),
        bits: Vec::new(),
        vnmse: Vec::new(),
    };
    scheme.reset();
    for round in 0..rounds {
        gcs_trace::set_round(round);
        let began = Instant::now();
        let _round = span("ddp.round");
        {
            let _s = span("ddp.compute");
            replica_gradients(
                model.as_mut(),
                &mut replicas,
                &mut grads,
                cfg.batch_per_worker,
                round,
            );
        }
        {
            let _s = span("ddp.aggregate");
            let _r = span(round_span);
            let ctx = RoundContext::new(cfg.seed, round);
            let ((), stats) =
                gcs_alloc::measure(|| scheme.aggregate_round_into(&grads, &ctx, &mut outcome));
            run.allocs.push(stats.total_events() as f64);
        }
        run.bits.push(outcome.bits_per_coord(d as u64));
        if cfg.vnmse_every > 0 && round % cfg.vnmse_every == 0 {
            let _s = span("ddp.vnmse_probe");
            let exact = gcs_tensor::vector::mean(&grads);
            run.vnmse.push(vnmse(&outcome.mean_estimate, &exact));
        }
        {
            let _s = span("ddp.optimizer");
            opt.step_into(model.params_flat_mut(), &outcome.mean_estimate);
        }
        if round % cfg.eval_every == cfg.eval_every - 1 {
            let _s = span("ddp.eval");
            curve.push((round + 1) as f64 * slot.step_seconds, model.evaluate());
        }
        run.round_ms.push(began.elapsed().as_secs_f64() * 1e3);
    }
    run.checksum = param_checksum(model.as_ref());
    run.curve = curve;
    run
}

fn traced(
    task: Task,
    ctx: &RunCtx<'_>,
    plan: &TaskPlan,
    state: &mut State,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = state.cfg.clone();
    let rounds = cfg.max_rounds;
    // Whole evaluation periods again, a third of the run.
    let short = (rounds / 3 / cfg.eval_every).max(1) * cfg.eval_every;
    out.note("traced_rounds_per_scheme", Json::Num(short as f64));

    // 1. The full-length runs, untraced: curves, and the reference timing
    //    of the first `short` rounds.
    let clock = SectionClock::start()?;
    let full: Vec<Trained> = state
        .slots
        .iter_mut()
        .map(|slot| train_slot(slot, &cfg, rounds))
        .collect();
    let end = clock.stop()?;
    out.attempted = rounds * MIX.len() as u64;
    let u = check_runs(out, task, plan, state, &full);
    out.metric("ddp.utility_vs_fp16", u.unwrap_or(0.0), MIX.len() - 1);
    for (slot, run) in state.slots.iter().zip(&full) {
        let r = rounds_to_target(task, &run.curve, plan.target, slot.step_seconds);
        out.metric(
            &format!("ddp.rounds_to_target.{}", slot.name),
            r.unwrap_or(0.0),
            run.curve.points.len(),
        );
        out.metric(
            &format!("core.{}.bits_per_coord", slot.name),
            run.bits_per_coord,
            rounds as usize,
        );
        out.metric(
            &format!("core.{}.vnmse", slot.name),
            run.mean_vnmse,
            (rounds / cfg.vnmse_every.max(1)) as usize,
        );
    }
    let untraced_short_ms: f64 = full
        .iter()
        .map(|r| r.round_ms[..short as usize].iter().sum::<f64>())
        .sum();
    report_process(out, &end);

    // 2. The same first `short` rounds with spans on: once through the real
    //    trainer, once through the replica. Fresh models, same seeds.
    let mut fresh = None;
    let mut trainer_runs = Vec::new();
    let mut replica_runs = Vec::new();
    let trace = gcs_trace::with_recording(|| {
        let fresh = fresh.insert(setup(task, &cfg));
        let Ok(fresh) = fresh else { return };
        for i in 0..MIX.len() {
            trainer_runs.push(train_slot(&mut fresh.slots[i], &cfg, short));
            replica_runs.push(replica_run(task, fresh, i, short));
        }
    });
    let fresh = fresh.expect("recording closure ran")?;
    let traced_short_ms: f64 = trainer_runs
        .iter()
        .map(|r| r.round_ms.iter().sum::<f64>())
        .sum();
    for ((slot, t), r) in fresh.slots.iter().zip(&trainer_runs).zip(&replica_runs) {
        out.check(
            &format!("{} replica ends on the trainer's parameters", slot.name),
            t.checksum == r.checksum,
            format!("trainer {:016x} replica {:016x}", t.checksum, r.checksum),
        );
        let same_curve = t.curve.points == r.curve.points;
        out.check(
            &format!("{} replica records the trainer's curve", slot.name),
            same_curve,
            format!("{} evaluation points", r.curve.points.len()),
        );
        out.metric(
            &format!("core.{}.allocs_per_round", slot.name),
            Sample::new(r.allocs.clone()).median(),
            r.allocs.len(),
        );
    }

    // 3. Shares of the replica round, and how well the parts reconcile.
    let spans = SpanTable::from_trace(&trace);
    let round_total = spans.total_ns("ddp.round");
    let share = |name: &str| spans.total_ns(name) / round_total;
    let round = spans.sample("ddp.round");
    out.metric("ddp.round_ms", round.median() / 1e6, round.n());
    out.metric("ddp.compute_share", share("ddp.compute"), round.n());
    out.metric("ddp.aggregate_share", share("ddp.aggregate"), round.n());
    out.metric("ddp.optimizer_share", share("ddp.optimizer"), round.n());
    out.metric("ddp.eval_share", share("ddp.eval"), round.n());
    let unexplained = self_time_ns(&trace, "ddp.round") / round_total;
    // Replica against trainer on each scheme's round at its calm pace: the
    // two run back to back, and a disturbed stretch that covers most of one
    // of them moves its median (15 % apart in one traced run) but not the
    // lower decile.
    let calm = |runs: &mut dyn Iterator<Item = &Vec<f64>>| -> f64 {
        runs.map(|ms| Sample::new(ms.clone()).percentile(CALM_PERCENTILE))
            .sum()
    };
    let trainer_ms = calm(&mut trainer_runs.iter().map(|r| &r.round_ms));
    let replica_ms = calm(&mut replica_runs.iter().map(|r| &r.round_ms));
    let replica_vs_trainer = (replica_ms - trainer_ms).abs() / trainer_ms;
    let residual = unexplained.abs().max(replica_vs_trainer);
    out.metric("ddp.residual_share", residual, round.n());
    out.note("ddp.unexplained_share", Json::Num(unexplained));
    out.note("ddp.replica_vs_trainer", Json::Num(replica_vs_trainer));
    out.check(
        "replica round reconciles with its parts and with the trainer",
        residual <= 0.10,
        format!("unexplained {unexplained:.4}, replica vs trainer {replica_vs_trainer:.4}"),
    );
    out.metric(
        "trace.overhead_share",
        (traced_short_ms - untraced_short_ms) / untraced_short_ms,
        (short as usize) * MIX.len(),
    );
    for name in MIX {
        let s = spans.sample(scheme_span(name));
        out.metric(&format!("core.{name}.round_ms"), s.median() / 1e6, s.n());
    }
    let per_call = |name: &str| spans.sample(name);
    let (tb, fb) = (per_call("nn.train_batch"), per_call("nn.fwd_bwd"));
    let (os, ev) = (per_call("ddp.optimizer"), per_call("ddp.eval"));
    let pl = per_call("ddp.plan");
    out.metric("nn.train_batch_us", tb.median() / 1e3, tb.n());
    out.metric("nn.fwd_bwd_ms", fb.median() / 1e6, fb.n());
    out.metric("nn.optimizer_step_us", os.median() / 1e3, os.n());
    out.metric("nn.evaluate_ms", ev.median() / 1e6, ev.n());
    out.metric("ddp.plan_us", pl.median() / 1e3, pl.n());
    // The workload must stress what it claims to. `gcs-nn` is the
    // gradient computation, the optimizer step and the periodic evaluation;
    // on BertMini the evaluation alone is about a quarter of the run, so the
    // per-round work (everything but evaluation) is what is held small.
    let nn_per_round = share("ddp.compute") + share("ddp.optimizer");
    let nn_share = nn_per_round + share("ddp.eval");
    out.note("nn_share", Json::Num(nn_share));
    out.note("nn_share_without_eval", Json::Num(nn_per_round));
    match task {
        Task::Vgg => out.check(
            "gcs-nn is at least 60 % of the round",
            nn_share >= 0.60,
            format!("{nn_share:.3}"),
        ),
        Task::Bert => {
            out.check(
                "gcs-nn's per-round work is at most 25 % of the round",
                nn_per_round <= 0.25,
                format!("{nn_per_round:.3} ({nn_share:.3} with evaluation)"),
            );
            out.check(
                "aggregation is at least 50 % of the round",
                share("ddp.aggregate") >= 0.50,
                format!("{:.3}", share("ddp.aggregate")),
            );
        }
    }

    // 4. Single calls: allocation count of one forward/backward on this
    //    thread, and the tensor kernels at this model's sizes.
    let mut probe = task.build_model(state.model_seed);
    let batch = probe.train_batch(cfg.batch_per_worker, 0, 0);
    probe.forward_backward(&batch);
    let (_, stats) = gcs_alloc::measure(|| probe.forward_backward(&batch));
    out.metric("nn.allocs_per_fwd_bwd", stats.total_events() as f64, 1);
    let d = probe.param_count();
    let matrix = probe
        .matrix_shapes()
        .into_iter()
        .max_by_key(|&(r, c)| r * c)
        .unwrap_or((1, 1));
    let micro = gcs_trace::with_recording(|| {
        layers::tensor_layers(
            out,
            &KernelShapes {
                d,
                topk_k: TopK::with_bits(2.0, cfg.n_workers, true).k_for(d),
                matrix,
                rank: 4,
            },
            ctx.seed,
        );
    });
    out.trace = trace;
    out.trace.spans.extend(micro.spans);
    Ok(())
}
