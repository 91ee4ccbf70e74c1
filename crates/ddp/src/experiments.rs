//! Canned experiment definitions shared by the bench harness and examples.
//!
//! Each paper figure is a set of (scheme, simulated step time) pairs trained
//! on the same task; each throughput table is a set of schemes evaluated
//! through [`crate::throughput::ThroughputModel`]. Centralizing the
//! configurations here keeps `EXPERIMENTS.md`, the benches, and the examples
//! consistent.

use crate::engine::TrainerConfig;
use crate::throughput::ThroughputModel;
use gcs_core::scheme::CompressionScheme;
use gcs_core::schemes::baseline::PrecisionBaseline;
use gcs_core::schemes::powersgd::PowerSgd;
use gcs_core::schemes::thc::{Thc, ThcAggregation};
use gcs_core::schemes::topk::TopK;
use gcs_core::schemes::topkc::TopKC;
use gcs_gpusim::{DeviceSpec, ModelProfile, Precision};
use gcs_nn::{BertMini, Model, VggMini};
use gcs_tensor::hadamard::RotationMode;

/// The two evaluation tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// BERT-large-like language modelling (perplexity).
    Bert,
    /// VGG19-like image classification (top-1 accuracy).
    Vgg,
}

impl Task {
    /// The paper-scale cost profile.
    pub fn profile(self) -> ModelProfile {
        match self {
            Task::Bert => ModelProfile::bert_large(),
            Task::Vgg => ModelProfile::vgg19(),
        }
    }

    /// Builds the mini training model.
    pub fn build_model(self, seed: u64) -> Box<dyn Model> {
        match self {
            Task::Bert => Box::new(BertMini::new(seed)),
            Task::Vgg => Box::new(VggMini::new(seed)),
        }
    }

    /// Trainer defaults tuned per task.
    pub fn trainer_config(self) -> TrainerConfig {
        match self {
            Task::Bert => TrainerConfig {
                n_workers: 4,
                batch_per_worker: 4, // the paper's per-worker batch for BERT
                seed: 17,
                max_rounds: 700,
                eval_every: 10,
                lr: 0.006,
                momentum: 0.9,
                weight_decay: 0.0,
                early_stopping: None,
                vnmse_every: 10,
                faults: None,
            },
            Task::Vgg => TrainerConfig {
                n_workers: 4,
                batch_per_worker: 8,
                seed: 23,
                max_rounds: 300,
                eval_every: 15,
                lr: 0.012,
                momentum: 0.9,
                weight_decay: 1e-4,
                early_stopping: None,
                vnmse_every: 30,
                faults: None,
            },
        }
    }

    /// Rolling-average window (in evaluation points) used for the figures —
    /// the paper smooths over 0.3 epochs (BERT) / 10 epochs (VGG).
    pub fn rolling_window(self) -> usize {
        match self {
            Task::Bert => 3,
            Task::Vgg => 5,
        }
    }
}

/// One scheme's slot in a figure: label, scheme, simulated step seconds.
pub struct ExperimentPlan {
    /// Display label.
    pub label: String,
    /// The scheme (fresh state).
    pub scheme: Box<dyn CompressionScheme>,
    /// Simulated paper-scale seconds per round.
    pub step_seconds: f64,
}

fn plan(scheme: Box<dyn CompressionScheme>, task: Task, tm: &ThroughputModel) -> ExperimentPlan {
    let profile = task.profile();
    let step = tm.step(scheme.as_ref(), &profile, Precision::Tf32).total();
    ExperimentPlan {
        label: scheme.name(),
        scheme,
        step_seconds: step,
    }
}

/// The two uncompressed baselines every figure includes.
pub fn baseline_plans(task: Task) -> Vec<ExperimentPlan> {
    let tm = ThroughputModel::paper_testbed();
    vec![
        plan(Box::new(PrecisionBaseline::fp16()), task, &tm),
        plan(Box::new(PrecisionBaseline::fp32()), task, &tm),
    ]
}

/// Figure 1: TopK vs TopKC at b ∈ {0.5, 2, 8}, plus baselines.
pub fn figure1_plans(task: Task, n_workers: usize) -> Vec<ExperimentPlan> {
    let tm = ThroughputModel::paper_testbed();
    let mut plans = baseline_plans(task);
    for b in [0.5, 2.0, 8.0] {
        plans.push(plan(
            Box::new(TopK::with_bits(b, n_workers, true)),
            task,
            &tm,
        ));
        plans.push(plan(Box::new(TopKC::paper_config(b, n_workers)), task, &tm));
    }
    plans
}

/// Figure 2: THC variants — the widened baseline (b=8, q=4) vs saturation +
/// partial rotation at b=q∈{4,2} — plus baselines.
pub fn figure2_plans(task: Task, n_workers: usize) -> Vec<ExperimentPlan> {
    let tm = ThroughputModel::paper_testbed();
    let device = DeviceSpec::a100();
    let mut plans = baseline_plans(task);
    plans.push(plan(Box::new(Thc::baseline(4, n_workers)), task, &tm));
    plans.push(plan(
        Box::new(Thc::improved(4, &device, n_workers)),
        task,
        &tm,
    ));
    plans.push(plan(
        Box::new(Thc::improved(2, &device, n_workers)),
        task,
        &tm,
    ));
    plans
}

/// Figure 3: PowerSGD at r ∈ {1, 4, 16, 64}, plus baselines. `shapes` are
/// the mini model's weight-matrix shapes (functional); the paper profile's
/// layer shapes drive the cost model.
pub fn figure3_plans(
    task: Task,
    n_workers: usize,
    shapes: &[(usize, usize)],
) -> Vec<ExperimentPlan> {
    let tm = ThroughputModel::paper_testbed();
    let profile = task.profile();
    let mut plans = baseline_plans(task);
    for r in [1u32, 4, 16, 64] {
        let scheme = PowerSgd::new(r, shapes.to_vec(), n_workers)
            .with_cost_shapes(profile.layer_shapes.clone());
        plans.push(plan(Box::new(scheme), task, &tm));
    }
    plans
}

/// Table 8's six THC configurations (rotation × saturation) plus the
/// widened baseline, as (label, scheme) pairs for the throughput model.
pub fn table8_schemes(n_workers: usize) -> Vec<(String, Thc)> {
    let device = DeviceSpec::a100();
    let partial = RotationMode::Partial {
        block_log2: device.shared_mem_block_log2(),
    };
    let mut out = Vec::new();
    for q in [2u32, 4] {
        for (rot_name, rot) in [
            ("full", RotationMode::Full),
            ("partial", partial),
            ("none", RotationMode::None),
        ] {
            let s = Thc::new(q, rot, ThcAggregation::Saturating, n_workers);
            out.push((format!("Sat b=q={q}, {rot_name} rotation"), s));
        }
    }
    out.push((
        "BL b=8, q=4, full rotation".to_string(),
        Thc::baseline(4, n_workers),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_baselines_and_six_scheme_variants() {
        let plans = figure1_plans(Task::Bert, 4);
        assert_eq!(plans.len(), 8);
        assert!(plans[0].label.contains("FP16"));
        assert!(plans.iter().all(|p| p.step_seconds > 0.0));
    }

    #[test]
    fn fp16_baseline_has_fastest_steps_of_the_baselines() {
        let plans = baseline_plans(Task::Bert);
        assert!(plans[0].step_seconds < plans[1].step_seconds);
    }

    #[test]
    fn figure3_powersgd_steps_grow_with_rank() {
        let shapes = vec![(64, 32), (128, 64)];
        let plans = figure3_plans(Task::Vgg, 4, &shapes);
        let powersgd: Vec<&ExperimentPlan> = plans
            .iter()
            .filter(|p| p.label.contains("PowerSGD"))
            .collect();
        assert_eq!(powersgd.len(), 4);
        for w in powersgd.windows(2) {
            assert!(
                w[1].step_seconds > w[0].step_seconds,
                "{} {} vs {} {}",
                w[0].label,
                w[0].step_seconds,
                w[1].label,
                w[1].step_seconds
            );
        }
    }

    #[test]
    fn table8_has_seven_rows() {
        assert_eq!(table8_schemes(4).len(), 7);
    }

    #[test]
    fn tasks_build_models() {
        assert_eq!(Task::Bert.build_model(1).name(), "BertMini");
        assert_eq!(Task::Vgg.build_model(1).name(), "VggMini");
        assert!(Task::Bert.profile().params > Task::Vgg.profile().params);
    }
}
