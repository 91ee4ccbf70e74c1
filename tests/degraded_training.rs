//! Degraded training: an injected worker crash mid-run must not end
//! training — the engine renormalizes the ring over the survivors, keeps
//! optimizing, and lands within tolerance of a run that had the surviving
//! worker count from the start. The run's `fault_events` must match the
//! injected plan exactly.

use gradient_utility::ddp::{FaultEvent, Trainer, TrainerConfig};
use gradient_utility::faults::TrainFaultPlan;
use gradient_utility::nn::BertMini;

fn base_config(n_workers: usize) -> TrainerConfig {
    TrainerConfig {
        n_workers,
        batch_per_worker: 16,
        seed: 1,
        max_rounds: 120,
        eval_every: 20,
        lr: 0.01,
        momentum: 0.9,
        vnmse_every: 0,
        ..TrainerConfig::default()
    }
}

fn run(cfg: TrainerConfig) -> gradient_utility::ddp::TrainLog {
    let mut model = BertMini::new(2);
    let mut scheme = gradient_utility::core::schemes::baseline::PrecisionBaseline::fp32();
    Trainer::new(cfg).train(&mut model, &mut scheme, 0.5)
}

/// One crash: fault events exact, training continues, final metric within
/// tolerance of the (n−1)-worker clean run.
#[test]
fn crash_mid_run_degrades_gracefully() {
    let crash_round = 20u64;
    let crashed_worker = 2usize;
    let plan = TrainFaultPlan::crash_at(crash_round, crashed_worker);

    let faulty_cfg = TrainerConfig {
        faults: Some(plan),
        ..base_config(3)
    };
    let faulty = run(faulty_cfg);

    // Training continued over the survivors for the full budget.
    assert_eq!(faulty.rounds, 120, "crash must not end the run");
    assert_eq!(faulty.survivors, 2);
    assert_eq!(
        faulty.fault_events,
        vec![FaultEvent {
            round: crash_round,
            worker: crashed_worker,
            survivors: 2
        }]
    );
    assert!(faulty.final_metric.is_finite());

    // Graceful degradation, quantified: the degraded run converges, and its
    // final metric is within tolerance of a clean run that had the
    // surviving worker count from round 0. (They are not bitwise equal —
    // the first `crash_round` rounds saw three gradient shards — but the
    // trajectory must land in the same place.)
    let clean_survivor = run(base_config(2));
    let first = faulty.curve.points.first().expect("curve has points").1;
    assert!(
        faulty.final_metric < first,
        "degraded run did not converge: {first} -> {}",
        faulty.final_metric
    );
    let rel =
        (faulty.final_metric - clean_survivor.final_metric).abs() / clean_survivor.final_metric;
    assert!(
        rel < 0.2,
        "degraded run diverged from (n-1)-worker clean run: {} vs {} (rel {rel:.3})",
        faulty.final_metric,
        clean_survivor.final_metric
    );
}

/// Control: a healthy plan records no fault events and keeps every worker.
#[test]
fn healthy_plan_records_no_fault_events() {
    let log = run(TrainerConfig {
        faults: Some(TrainFaultPlan::default()),
        max_rounds: 30,
        ..base_config(3)
    });
    assert_eq!(log.rounds, 30);
    assert_eq!(log.survivors, 3);
    assert!(log.fault_events.is_empty());
}
