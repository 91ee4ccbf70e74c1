//! The distributed data-parallel training loop.
//!
//! One [`Trainer`] run is the paper's unit of end-to-end evaluation: a model
//! trained to convergence under a compression scheme, producing a
//! [`TtaCurve`]. Per round:
//!
//! 1. every worker computes a *real* gradient on its own batch shard
//!    (same parameters, different data — exactly DDP's data parallelism);
//! 2. the compression scheme runs a *real* distributed aggregation round
//!    (error feedback, consensus, quantization, saturation — all live);
//! 3. the shared parameters take an SGD step on the aggregated estimate;
//! 4. the simulated clock advances by the **paper-scale** step time, so the
//!    x-axis of the resulting curve is "wall-clock seconds on the paper's
//!    testbed" while the y-axis is genuine convergence of the mini model.
//!
//! This factorization (convergence measured, time modelled) is the
//! substitution documented in `DESIGN.md` §2.

use gcs_core::metrics::{Direction, EarlyStopping, TtaCurve};
use gcs_core::scheme::{AggregationOutcome, CompressionScheme, RoundContext};
use gcs_faults::TrainFaultPlan;
use gcs_nn::{Adam, LrSchedule, Model, Sgd};
use gcs_tensor::vector::vnmse;

/// Configuration of one training run.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Number of DDP workers.
    pub n_workers: usize,
    /// Per-worker batch size.
    pub batch_per_worker: usize,
    /// Master seed (drives data sharding and shared randomness).
    pub seed: u64,
    /// Hard cap on training rounds.
    pub max_rounds: u64,
    /// Evaluate the task metric every this many rounds.
    pub eval_every: u64,
    /// Learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Early stopping (GL threshold %, patience, min evals); `None` trains
    /// to `max_rounds`.
    pub early_stopping: Option<(f64, usize, usize)>,
    /// Measure vNMSE on every k-th round (0 disables); measuring requires
    /// an extra exact reduction, so sampling keeps runs fast.
    pub vnmse_every: u64,
    /// Which optimizer consumes the aggregated gradient.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule applied on top of `lr`.
    pub lr_schedule: LrSchedule,
    /// Injected worker crashes (`None`/empty = healthy run). On a crash the
    /// trainer renormalizes the ring over the survivors and keeps training;
    /// see [`TrainLog::fault_events`].
    pub faults: Option<TrainFaultPlan>,
}

/// Optimizer selection for a training run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimizerKind {
    /// SGD with momentum (the paper's VGG-style setting).
    Sgd,
    /// AdamW (the practical choice for transformer LMs).
    Adam,
}

/// Internal: unified optimizer dispatch.
enum AnyOptimizer {
    Sgd(Sgd),
    Adam(Adam),
}

impl AnyOptimizer {
    fn new(cfg: &TrainerConfig) -> AnyOptimizer {
        match cfg.optimizer {
            OptimizerKind::Sgd => {
                AnyOptimizer::Sgd(Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay))
            }
            OptimizerKind::Adam => AnyOptimizer::Adam(Adam::new(cfg.lr, cfg.weight_decay)),
        }
    }

    /// Takes one scheduled-LR step in place on the model's flat parameter
    /// slice — no delta vector, no allocation in steady state.
    fn step_into(&mut self, params: &mut [f32], grad: &[f32], lr_factor: f32) {
        match self {
            AnyOptimizer::Sgd(o) => {
                let base = o.lr;
                o.lr = base * lr_factor;
                o.step_into(params, grad);
                o.lr = base;
            }
            AnyOptimizer::Adam(o) => {
                let base = o.lr;
                o.lr = base * lr_factor;
                o.step_into(params, grad);
                o.lr = base;
            }
        }
    }
}

impl Default for TrainerConfig {
    fn default() -> TrainerConfig {
        TrainerConfig {
            n_workers: 4,
            batch_per_worker: 8,
            seed: 1,
            max_rounds: 400,
            eval_every: 10,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            early_stopping: None,
            vnmse_every: 10,
            optimizer: OptimizerKind::Sgd,
            lr_schedule: LrSchedule::Constant,
            faults: None,
        }
    }
}

/// One graceful-degradation event recorded during training: a worker
/// crashed, the ring was renormalized over the survivors, training went on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Round at whose start the crash fired.
    pub round: u64,
    /// Worker id that crashed (pre-renormalization numbering of that round).
    pub worker: usize,
    /// Active workers *after* renormalization (0 = the run had to stop).
    pub survivors: usize,
}

/// The result of a training run.
#[derive(Clone, Debug)]
pub struct TrainLog {
    /// Raw (un-smoothed) TTA curve; x = simulated seconds, y = task metric.
    pub curve: TtaCurve,
    /// Per-round training-loss history `(round, loss)`.
    pub loss_history: Vec<(u64, f32)>,
    /// Mean vNMSE of the aggregated gradient over sampled rounds.
    pub mean_vnmse: f64,
    /// Rounds actually executed.
    pub rounds: u64,
    /// Mean measured payload bits per coordinate.
    pub bits_per_coord: f64,
    /// Whether early stopping triggered.
    pub early_stopped: bool,
    /// Final task metric.
    pub final_metric: f64,
    /// Injected worker crashes the run absorbed, in firing order.
    pub fault_events: Vec<FaultEvent>,
    /// Workers still active at the end of the run.
    pub survivors: usize,
}

/// One worker replica plus its per-round outputs, used by the parallel
/// gradient path. `grads` is a persistent buffer refilled by
/// `copy_from_slice` every round, so the steady state allocates nothing.
struct WorkerSlot {
    model: Box<dyn Model + Send>,
    loss: f32,
    grads: Vec<f32>,
}

/// Builds per-worker model replicas when the parallel gradient path is
/// usable: more than one worker, a multi-threaded runtime, and a model that
/// supports replication ([`Model::clone_boxed`]). Returns an empty vec to
/// select the sequential fallback.
fn make_worker_slots(model: &dyn Model, n_workers: usize) -> Vec<WorkerSlot> {
    if n_workers <= 1 || gcs_tensor::parallel::max_threads() <= 1 {
        return Vec::new();
    }
    let mut slots = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        match model.clone_boxed() {
            Some(m) => slots.push(WorkerSlot {
                model: m,
                loss: 0.0,
                grads: Vec::new(),
            }),
            None => return Vec::new(),
        }
    }
    slots
}

/// Computes all per-worker gradients for one round into the caller's
/// persistent `grads` buffers: in parallel on the replicas in `slots`
/// (synced to `model`'s current parameters with one whole-arena
/// `copy_from_slice`), or sequentially on `model` itself when `slots` is
/// empty. Buffers are sized on first use and refilled in place afterwards,
/// so the steady state performs no heap allocation.
///
/// Both paths produce bitwise-identical losses and gradients: a worker's
/// gradient depends only on (parameters, batch), each replica carries the
/// same parameters the shared model would, and losses are folded in worker
/// order regardless of which thread computed them.
fn worker_gradients(
    model: &mut dyn Model,
    slots: &mut [WorkerSlot],
    grads: &mut Vec<Vec<f32>>,
    batch_per_worker: usize,
    n_workers: usize,
    round: u64,
) -> f32 {
    let d = model.param_count();
    if grads.len() != n_workers {
        grads.resize_with(n_workers, Vec::new);
    }
    if slots.is_empty() {
        let mut loss_acc = 0.0f32;
        for (w, gbuf) in grads.iter_mut().enumerate() {
            let batch = model.train_batch(batch_per_worker, w, round);
            loss_acc += model.forward_backward(&batch);
            if gbuf.len() != d {
                gbuf.resize(d, 0.0);
            }
            gbuf.copy_from_slice(model.grads_flat());
        }
        return loss_acc;
    }
    // Replica sync is one contiguous copy of the parameter arena per worker.
    let params: &[f32] = model.params_flat();
    gcs_tensor::parallel::for_each_chunk_mut(slots, 1, |w, slot| {
        let s = &mut slot[0];
        s.model.set_flat_params(params);
        let batch = s.model.train_batch(batch_per_worker, w, round);
        s.loss = s.model.forward_backward(&batch);
        if s.grads.len() != d {
            s.grads.resize(d, 0.0);
        }
        s.grads.copy_from_slice(s.model.grads_flat());
    });
    let mut loss_acc = 0.0f32;
    for (s, gbuf) in slots.iter_mut().zip(grads.iter_mut()) {
        loss_acc += s.loss;
        // Alternate ownership of the two full-size buffers instead of
        // copying: allocation-free once both are warm.
        std::mem::swap(&mut s.grads, gbuf);
    }
    loss_acc
}

/// Drives a model + scheme to convergence.
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Trainer {
        Trainer { config }
    }

    /// Runs the full training loop. `step_seconds` is the simulated
    /// paper-scale time per round for this scheme (from
    /// [`crate::throughput::ThroughputModel`]).
    pub fn train(
        &self,
        model: &mut dyn Model,
        scheme: &mut dyn CompressionScheme,
        step_seconds: f64,
    ) -> TrainLog {
        let cfg = &self.config;
        assert!(cfg.n_workers > 0, "Trainer: need at least one worker");
        assert!(step_seconds > 0.0, "Trainer: step time must be positive");
        scheme.reset();
        let direction = if model.higher_is_better() {
            Direction::HigherIsBetter
        } else {
            Direction::LowerIsBetter
        };
        let mut curve = TtaCurve::new(scheme.name(), direction);
        let mut opt = AnyOptimizer::new(cfg);
        let mut stopper = cfg.early_stopping.map(|(alpha, patience, min_evals)| {
            EarlyStopping::new(alpha, patience, min_evals, direction)
        });

        let d = model.param_count();
        let mut loss_history = Vec::new();
        let mut vnmse_sum = 0.0f64;
        let mut vnmse_n = 0u64;
        let mut bits_sum = 0.0f64;
        let mut early_stopped = false;
        let mut rounds_done = 0u64;
        let mut last_eval_round = 0u64;
        let mut slots = make_worker_slots(model, cfg.n_workers);
        // One reusable outcome and one set of per-worker gradient buffers
        // across rounds: with the pooled schemes the steady-state
        // aggregation path performs no heap allocation.
        let mut outcome = AggregationOutcome::default();
        let mut grads: Vec<Vec<f32>> = Vec::new();
        // Graceful degradation state: `active` shrinks when an injected
        // crash fires; survivors are renumbered 0..active-1, which is the
        // shard assignment an `active`-worker clean run would use.
        let mut active = cfg.n_workers;
        let mut fault_events: Vec<FaultEvent> = Vec::new();

        for round in 0..cfg.max_rounds {
            gcs_trace::set_round(round);
            let _round_timer = gcs_metrics::timer("train/round_latency_ns");

            // 0. Injected worker crashes scheduled at the top of this round:
            //    record the event, renormalize the ring over the survivors,
            //    and keep training. Only a cluster with zero survivors stops.
            if let Some(plan) = &cfg.faults {
                for crash in plan.crashes_at(round) {
                    if crash.worker >= active {
                        continue; // stale id: that slot is already gone
                    }
                    gcs_metrics::counter_add("faults/injected_total", 1.0);
                    gcs_metrics::counter_add("faults/worker_crash_total", 1.0);
                    active -= 1;
                    fault_events.push(FaultEvent {
                        round,
                        worker: crash.worker,
                        survivors: active,
                    });
                    if active > 0 {
                        gcs_metrics::counter_add("faults/recovered_total", 1.0);
                    } else {
                        gcs_metrics::counter_add("faults/train_aborted_total", 1.0);
                    }
                }
                slots.truncate(active);
            }
            if active == 0 {
                break;
            }

            // 1. Per-worker gradients on disjoint shards (parallel across
            //    workers when the model supports replication).
            let loss_acc = {
                let _s = gcs_trace::span(gcs_trace::Phase::Compute, "worker_gradients");
                worker_gradients(
                    model,
                    &mut slots,
                    &mut grads,
                    cfg.batch_per_worker,
                    active,
                    round,
                )
            };
            let mean_loss = loss_acc / active as f32;
            loss_history.push((round, mean_loss));
            gcs_metrics::series_push("train/loss", mean_loss as f64);

            // 2. Distributed aggregation through the scheme.
            let ctx = RoundContext::new(cfg.seed, round);
            scheme.aggregate_round_into(&grads, &ctx, &mut outcome);
            let bits = outcome.bits_per_coord(d as u64);
            bits_sum += bits;
            gcs_trace::counter("bits_per_coord", bits);
            gcs_metrics::series_push("train/bits_per_coord", bits);

            if cfg.vnmse_every > 0 && round % cfg.vnmse_every == 0 {
                let exact = gcs_tensor::vector::mean(&grads);
                let sample = vnmse(&outcome.mean_estimate, &exact);
                vnmse_sum += sample;
                vnmse_n += 1;
                gcs_trace::counter("vnmse", sample);
                gcs_metrics::series_push("train/vnmse", sample);
            }

            // 3. Optimizer step on the aggregate (scheduled LR), in place
            //    on the model's flat parameter arena.
            {
                let _s = gcs_trace::span(gcs_trace::Phase::Optimizer, "optimizer_step");
                opt.step_into(
                    model.params_flat_mut(),
                    &outcome.mean_estimate,
                    cfg.lr_schedule.factor(round),
                );
            }
            rounds_done = round + 1;

            // 4. Periodic evaluation on the simulated clock.
            if round % cfg.eval_every == cfg.eval_every - 1 {
                let t = (round + 1) as f64 * step_seconds;
                let metric = {
                    let _s = gcs_trace::span(gcs_trace::Phase::Eval, "evaluate");
                    model.evaluate()
                };
                curve.push(t, metric);
                gcs_metrics::series_push(gcs_metrics::EVAL_TIME_SERIES, t);
                gcs_metrics::series_push(gcs_metrics::EVAL_METRIC_SERIES, metric);
                last_eval_round = round + 1;
                if let Some(es) = stopper.as_mut() {
                    if es.observe(metric) {
                        early_stopped = true;
                        break;
                    }
                }
            }
        }

        // When max_rounds is not a multiple of eval_every the trailing
        // rounds trained past the last recorded point; evaluate once more at
        // the true end of training so `final_metric` (and the curve's tail)
        // reflect the parameters the run actually produced.
        if rounds_done > last_eval_round {
            let t = rounds_done as f64 * step_seconds;
            let metric = {
                let _s = gcs_trace::span(gcs_trace::Phase::Eval, "evaluate");
                model.evaluate()
            };
            curve.push(t, metric);
            gcs_metrics::series_push(gcs_metrics::EVAL_TIME_SERIES, t);
            gcs_metrics::series_push(gcs_metrics::EVAL_METRIC_SERIES, metric);
        }

        let final_metric = curve.final_metric().unwrap_or_else(|| model.evaluate());
        TrainLog {
            curve,
            loss_history,
            mean_vnmse: if vnmse_n > 0 {
                vnmse_sum / vnmse_n as f64
            } else {
                f64::NAN
            },
            rounds: rounds_done,
            bits_per_coord: bits_sum / rounds_done.max(1) as f64,
            early_stopped,
            final_metric,
            fault_events,
            survivors: active,
        }
    }

    /// Measures only the mean vNMSE of a scheme over `rounds` aggregation
    /// rounds of real training gradients (Tables 4 and 7), without
    /// recording TTA.
    pub fn measure_vnmse(
        &self,
        model: &mut dyn Model,
        scheme: &mut dyn CompressionScheme,
        rounds: u64,
    ) -> f64 {
        let cfg = &self.config;
        scheme.reset();
        let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        let mut sum = 0.0f64;
        let mut slots = make_worker_slots(model, cfg.n_workers);
        let mut outcome = AggregationOutcome::default();
        let mut grads: Vec<Vec<f32>> = Vec::new();
        for round in 0..rounds {
            gcs_trace::set_round(round);
            {
                let _s = gcs_trace::span(gcs_trace::Phase::Compute, "worker_gradients");
                worker_gradients(
                    model,
                    &mut slots,
                    &mut grads,
                    cfg.batch_per_worker,
                    cfg.n_workers,
                    round,
                );
            }
            scheme.aggregate_round_into(&grads, &RoundContext::new(cfg.seed, round), &mut outcome);
            let exact = gcs_tensor::vector::mean(&grads);
            let sample = vnmse(&outcome.mean_estimate, &exact);
            gcs_trace::counter("vnmse", sample);
            sum += sample;
            // Keep training (on the *exact* mean, so every scheme sees the
            // same gradient distribution — the paper's vNMSE protocol
            // measures compression error, not compounded trajectories).
            opt.step_into(model.params_flat_mut(), &exact);
        }
        sum / rounds.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::schemes::baseline::PrecisionBaseline;
    use gcs_core::schemes::topkc::TopKC;
    use gcs_nn::BertMini;

    fn quick_config() -> TrainerConfig {
        TrainerConfig {
            n_workers: 2,
            batch_per_worker: 16,
            max_rounds: 150,
            eval_every: 25,
            lr: 0.01,
            momentum: 0.9,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn fp32_baseline_trains_the_lm() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp32();
        let log = Trainer::new(quick_config()).train(&mut model, &mut scheme, 0.5);
        let first = log.curve.first_metric().expect("run recorded evals");
        let last = log.final_metric;
        assert!(last < first, "perplexity should fall: {first} -> {last}");
        assert!((log.bits_per_coord - 32.0).abs() < 0.5);
        assert!(log.mean_vnmse < 1e-10);
    }

    #[test]
    fn topkc_trains_with_nonzero_compression_error() {
        let mut model = BertMini::new(2);
        let mut scheme = TopKC::with_bits(2.0, 64, 2, true);
        let log = Trainer::new(quick_config()).train(&mut model, &mut scheme, 0.25);
        assert!(log.mean_vnmse > 1e-4, "vNMSE = {}", log.mean_vnmse);
        assert!(log.final_metric < log.curve.first_metric().expect("run recorded evals"));
        assert!((log.bits_per_coord - 2.0).abs() < 0.5);
    }

    #[test]
    fn curve_time_axis_uses_step_seconds() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp16();
        let cfg = TrainerConfig {
            max_rounds: 40,
            eval_every: 10,
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 2.0);
        let times: Vec<f64> = log.curve.points.iter().map(|p| p.0).collect();
        assert_eq!(times, vec![20.0, 40.0, 60.0, 80.0]);
    }

    /// Regression: with `max_rounds % eval_every != 0` the run used to end
    /// with a TTA curve (and `final_metric`) frozen at the last periodic
    /// eval, ignoring the trailing rounds of training. The trainer must
    /// record one final evaluation at the true end of the run.
    #[test]
    fn final_metric_reflects_true_end_of_training() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp16();
        let cfg = TrainerConfig {
            max_rounds: 37,
            eval_every: 10,
            ..quick_config()
        };
        let step_seconds = 2.0;
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, step_seconds);
        assert_eq!(log.rounds, 37);
        let times: Vec<f64> = log.curve.points.iter().map(|p| p.0).collect();
        // Periodic evals at rounds 10/20/30 plus the final one at round 37.
        assert_eq!(times, vec![20.0, 40.0, 60.0, 74.0]);
        // final_metric is the metric of that last point, i.e. the model
        // after all 37 rounds — not the stale round-30 evaluation.
        let last = log.curve.final_metric().expect("run recorded evals");
        assert_eq!(log.final_metric, last);
        assert_eq!(log.final_metric, model.evaluate());
    }

    /// When the budget divides evenly, no duplicate end-of-run point is
    /// appended.
    #[test]
    fn no_duplicate_final_eval_when_budget_divides_evenly() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp16();
        let cfg = TrainerConfig {
            max_rounds: 40,
            eval_every: 10,
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 2.0);
        assert_eq!(log.curve.points.len(), 4);
        assert_eq!(log.curve.total_time(), 80.0);
    }

    #[test]
    fn early_stopping_cuts_training_short() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp32();
        let cfg = TrainerConfig {
            max_rounds: 2000,
            eval_every: 10,
            early_stopping: Some((2.0, 2, 5)),
            lr: 0.02,
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 0.1);
        assert!(
            log.rounds < 2000 || !log.early_stopped,
            "either it stopped early or it used the budget"
        );
    }

    #[test]
    fn adam_with_cosine_schedule_trains_the_lm() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp32();
        let cfg = TrainerConfig {
            optimizer: OptimizerKind::Adam,
            lr: 0.003,
            lr_schedule: gcs_nn::LrSchedule::WarmupCosine {
                warmup: 10,
                total: 150,
                floor: 0.1,
            },
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 0.5);
        let first = log.curve.first_metric().expect("run recorded evals");
        assert!(
            log.final_metric < first,
            "Adam run did not improve: {first} -> {}",
            log.final_metric
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut model = BertMini::new(2);
            let mut scheme = TopKC::with_bits(2.0, 64, 2, true);
            let cfg = TrainerConfig {
                max_rounds: 30,
                ..quick_config()
            };
            Trainer::new(cfg).train(&mut model, &mut scheme, 0.5)
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_metric, b.final_metric);
        assert_eq!(a.mean_vnmse, b.mean_vnmse);
    }

    /// Tracing observes a training run without changing it: the same run
    /// with recording enabled is bitwise-identical to one with it off, and
    /// the trace covers every step phase (compute, compress, network,
    /// optimizer, eval) plus the per-round counters.
    #[test]
    fn tracing_captures_phases_without_perturbing_training() {
        let run = || {
            let mut model = BertMini::new(2);
            let mut scheme = TopKC::with_bits(2.0, 64, 2, true);
            let cfg = TrainerConfig {
                max_rounds: 12,
                eval_every: 5,
                ..quick_config()
            };
            Trainer::new(cfg).train(&mut model, &mut scheme, 0.5)
        };
        let baseline = run();
        let mut traced_log = None;
        let trace = gcs_trace::with_recording(|| traced_log = Some(run()));
        let traced = traced_log.unwrap();
        assert_eq!(baseline.loss_history, traced.loss_history);
        assert_eq!(baseline.final_metric, traced.final_metric);

        let report = gcs_trace::Report::from_trace(&trace);
        for phase in [
            gcs_trace::Phase::Compute,
            gcs_trace::Phase::Compress,
            gcs_trace::Phase::Network,
            gcs_trace::Phase::Optimizer,
            gcs_trace::Phase::Eval,
        ] {
            assert!(
                report.phase_total_ns(phase) > 0,
                "no spans recorded for phase {}",
                phase.as_str()
            );
        }
        // Lower bounds, not equalities: the trace recorder is process-global
        // and sibling tests running concurrently may record extra events
        // while this test has tracing enabled.
        assert!(report.op_calls("worker_gradients") >= 12);
        assert!(report.op_calls("optimizer_step") >= 12);
        assert!(report.counter("wire_bytes").unwrap().sum > 0.0);
        assert!(report.counter("bits_per_coord").unwrap().samples >= 12);
        assert!(report.counter("ef_residual_norm").is_some());
        assert!(report.rounds >= 12);
    }

    /// The PR 3 telemetry contract: a run with metrics recording enabled is
    /// bitwise-identical to one with it off, and the registry carries the
    /// per-round series, round-latency histogram, and collective wire-byte
    /// counters the exporters and monitors consume.
    #[test]
    fn metrics_capture_is_bitwise_invisible_to_training() {
        let run = || {
            let mut model = BertMini::new(2);
            let mut scheme = TopKC::with_bits(2.0, 64, 2, true);
            let cfg = TrainerConfig {
                max_rounds: 12,
                eval_every: 5,
                ..quick_config()
            };
            Trainer::new(cfg).train(&mut model, &mut scheme, 0.5)
        };
        let baseline = run();
        let (recorded, reg) = gcs_metrics::with_capture(run);
        assert_eq!(baseline.loss_history, recorded.loss_history);
        assert_eq!(baseline.final_metric, recorded.final_metric);
        assert_eq!(baseline.mean_vnmse, recorded.mean_vnmse);
        if !gcs_metrics::is_captured() {
            return;
        }
        // Lower bounds, not equalities: the hub is process-global and
        // sibling tests may record while capture is on.
        assert!(reg.series("train/loss").unwrap().len() >= 12);
        assert!(reg.series("train/bits_per_coord").unwrap().len() >= 12);
        assert!(reg.hist("train/round_latency_ns").unwrap().count() >= 12);
        assert!(reg
            .counter("collective/ring_all_reduce/wire_bytes_total")
            .is_some());
        let evals = reg.series(gcs_metrics::EVAL_METRIC_SERIES).unwrap().len();
        assert!(evals >= 3, "expected >= 3 eval points, got {evals}");
        // The TTA monitor rebuilds its curve from the registry series.
        let mon = gcs_metrics::TtaMonitor::from_registry(&reg, false, 2);
        assert_eq!(mon.curve().len(), evals);
        assert!(mon.latest().unwrap().is_finite());
    }

    /// Graceful degradation: an injected mid-run crash shrinks the ring,
    /// records the event, and the run finishes its full round budget over
    /// the survivors.
    #[test]
    fn injected_crash_shrinks_ring_and_training_continues() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp32();
        let cfg = TrainerConfig {
            n_workers: 3,
            max_rounds: 20,
            eval_every: 10,
            faults: Some(gcs_faults::TrainFaultPlan::crash_at(5, 1)),
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 0.5);
        assert_eq!(log.rounds, 20, "run must finish over the survivors");
        assert_eq!(log.survivors, 2);
        assert_eq!(
            log.fault_events,
            vec![FaultEvent {
                round: 5,
                worker: 1,
                survivors: 2
            }]
        );
        assert!(log.final_metric.is_finite());
    }

    /// Killing every worker stops the run at the crash round instead of
    /// panicking or dividing by zero.
    #[test]
    fn crashing_all_workers_stops_the_run() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp32();
        let cfg = TrainerConfig {
            n_workers: 2,
            max_rounds: 30,
            eval_every: 10,
            faults: Some(gcs_faults::TrainFaultPlan::crash_at(3, 0).and_crash(3, 0)),
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 0.5);
        assert_eq!(log.rounds, 3, "training stops once nobody survives");
        assert_eq!(log.survivors, 0);
        assert_eq!(log.fault_events.len(), 2);
        assert_eq!(log.fault_events[1].survivors, 0);
    }

    /// Regression for the reporter-panic bug: a run whose workers all die
    /// before the first eval produces an *empty* TTA curve. The `Option`
    /// accessors must surface that as `None` — consumers used to call
    /// `curve.points.first().unwrap()` and abort the whole report.
    #[test]
    fn run_dead_before_first_eval_yields_none_not_panic() {
        let mut model = BertMini::new(2);
        let mut scheme = PrecisionBaseline::fp32();
        let cfg = TrainerConfig {
            n_workers: 2,
            max_rounds: 30,
            eval_every: 10,
            faults: Some(gcs_faults::TrainFaultPlan::crash_at(0, 0).and_crash(0, 0)),
            ..quick_config()
        };
        let log = Trainer::new(cfg).train(&mut model, &mut scheme, 0.5);
        assert_eq!(log.rounds, 0);
        assert_eq!(log.survivors, 0);
        assert!(log.curve.points.is_empty());
        assert_eq!(log.curve.first_metric(), None);
        assert_eq!(log.curve.final_metric(), None);
        // The struct-level final_metric still falls back to a live eval so
        // downstream f64 consumers stay finite.
        assert!(log.final_metric.is_finite());
    }

    /// The scheme contract extended to the runtime: an entire training run —
    /// loss history, vNMSE, TTA curve — is bitwise-identical whether the
    /// per-worker gradients (and every kernel underneath the scheme) run on
    /// one thread or four.
    #[test]
    fn training_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            gcs_tensor::parallel::with_threads(threads, || {
                let mut model = BertMini::new(2);
                let mut scheme = TopKC::with_bits(2.0, 64, 4, true);
                let cfg = TrainerConfig {
                    n_workers: 4,
                    max_rounds: 12,
                    ..quick_config()
                };
                Trainer::new(cfg).train(&mut model, &mut scheme, 0.5)
            })
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.curve.points, b.curve.points);
        assert_eq!(a.mean_vnmse, b.mean_vnmse);
        assert_eq!(a.final_metric, b.final_metric);
    }
}
