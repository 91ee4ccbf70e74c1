//! Allocation-budget regression tests for the steady-state hot path.
//!
//! The tentpole claim of the workspace-pool refactor is *zero heap
//! allocations per steady-state round* for the pooled collectives, the
//! fused quantize+pack kernel, and the sparsifier/THC aggregation rounds.
//! These tests install [`gcs_alloc::CountingAlloc`] as the global
//! allocator, warm each path up (first rounds may size buffers), then
//! measure one more round and assert its allocation-event count.
//!
//! Everything runs under `with_threads(1)`: the deterministic runtime takes
//! its sequential in-thread path there, so the measuring thread observes
//! every allocation the round makes. (Thread fan-out itself allocates by
//! design — pools are per-scheme, not per-thread.)

use gcs_alloc::{counting_enabled, measure, CountingAlloc};
use gradient_utility::collectives::tcp::{FleetWorker, Registry, TcpTimeouts};
use gradient_utility::collectives::{
    all_gather_into, ring_all_reduce_into, ring_all_reduce_worker_into, F32Sum, RingScratch,
    Traffic,
};
use gradient_utility::core::scheme::{AggregationOutcome, CompressionScheme, RoundContext};
use gradient_utility::core::schemes::baseline::PrecisionBaseline;
use gradient_utility::core::schemes::literature::RandomK;
use gradient_utility::core::schemes::powersgd::PowerSgd;
use gradient_utility::core::schemes::thc::{Thc, ThcAggregation};
use gradient_utility::core::schemes::topk::TopK;
use gradient_utility::core::schemes::topkc::TopKC;
use gradient_utility::core::schemes::topkc_q::TopKCQ;
use gradient_utility::ddp::fleet::{fleet_round, FleetScratch};
use gradient_utility::ddp::{Trainer, TrainerConfig};
use gradient_utility::gpusim::DeviceSpec;
use gradient_utility::nn::{BertMini, Model, Sgd, TransformerMini, VggMini};
use gradient_utility::tensor::bitpack::PackedIntVec;
use gradient_utility::tensor::hadamard::RotationMode;
use gradient_utility::tensor::parallel::with_threads;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 4;
const D: usize = 1024;

fn grads(n: usize, d: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|w| (0..d).map(|i| ((w * d + i) as f32 * 0.37).sin()).collect())
        .collect()
}

/// Warm up twice (buffer sizing, EF memory init), then measure round 3.
fn steady_events(mut round: impl FnMut()) -> u64 {
    round();
    round();
    let ((), stats) = measure(&mut round);
    stats.total_events()
}

#[test]
fn counting_allocator_is_installed() {
    assert!(
        counting_enabled(),
        "CountingAlloc must be this binary's global allocator"
    );
}

#[test]
fn ring_all_reduce_steady_state_is_allocation_free() {
    with_threads(1, || {
        let src = grads(N, D);
        let mut bufs = src.clone();
        let mut scratch = RingScratch::default();
        let mut traffic = Traffic::default();
        let events = steady_events(|| {
            for (b, s) in bufs.iter_mut().zip(&src) {
                b.clear();
                b.extend_from_slice(s);
            }
            ring_all_reduce_into(&mut bufs, &F32Sum, 4.0, &mut scratch, &mut traffic);
        });
        assert_eq!(
            events, 0,
            "ring_all_reduce must not allocate at steady state"
        );
    });
}

#[test]
fn all_gather_steady_state_is_allocation_free() {
    with_threads(1, || {
        let src = grads(N, D);
        let mut gathered = Vec::new();
        let mut traffic = Traffic::default();
        let events = steady_events(|| {
            all_gather_into(&src, 4.0, &mut gathered, &mut traffic);
        });
        assert_eq!(events, 0, "all_gather must not allocate at steady state");
    });
}

#[test]
fn tcp_ring_steady_state_is_allocation_free() {
    // The ISSUE 9 acceptance bar: 0 heap events per round on the TCP
    // steady-state path. Each worker measures on its *own* thread (the
    // alloc counters are thread-local), over a persistent mesh: the send
    // side encodes into the mesh's scratch and writes vectored frames, the
    // receive side decodes in place out of the link's reassembly buffer,
    // and the worker body stages segments in a caller-owned scratch — after
    // two warm-up rounds, nothing on the round path touches the heap.
    let registry = Registry::spawn(2).expect("registry");
    let addr = registry.addr();
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                let rs = w.next_round(0).expect("round");
                let src: Vec<f32> = (0..D)
                    .map(|i| ((rs.rank * D + i) as f32 * 0.37).sin())
                    .collect();
                let mut buf = src.clone();
                let mut scratch = Vec::new();
                let mut links = w.links::<f32>();
                let mut round = || {
                    buf.copy_from_slice(&src);
                    ring_all_reduce_worker_into(&mut links, &mut buf, &F32Sum, 4.0, &mut scratch)
                        .expect("healthy fleet");
                };
                round();
                round();
                let ((), stats) = measure(&mut round);
                w.leave().expect("leave");
                stats.total_events()
            })
        })
        .collect();
    let events: Vec<u64> = handles
        .into_iter()
        .map(|h| h.join().expect("tcp worker thread"))
        .collect();
    registry.shutdown();
    for (rank, e) in events.iter().enumerate() {
        assert_eq!(
            *e, 0,
            "TCP ring steady state must not allocate (rank {rank})"
        );
    }
}

#[test]
fn tcp_fleet_round_steady_state_is_allocation_free() {
    // A whole fleet training round over the persistent TCP mesh — batch
    // sampling, forward/backward, the gradient's ring all-reduce and the
    // SGD step — with every buffer in the caller's `FleetScratch`: after
    // two warm-up rounds, no heap event on any rank.
    let registry = Registry::spawn(2).expect("registry");
    let addr = registry.addr();
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                with_threads(1, || {
                    let mut w = FleetWorker::join(addr, TcpTimeouts::fast_test()).expect("join");
                    w.next_round(0).expect("round");
                    let mut model = VggMini::new(7);
                    let mut opt = Sgd::new(0.05, 0.9, 0.0);
                    let mut scratch = FleetScratch::default();
                    let mut links = w.links::<f32>();
                    let mut r = 0u64;
                    let mut round = || {
                        fleet_round(&mut model, &mut opt, &mut links, 4, r, &mut scratch)
                            .expect("healthy fleet");
                        r += 1;
                    };
                    round();
                    round();
                    let ((), stats) = measure(&mut round);
                    w.leave().expect("leave");
                    stats.total_events()
                })
            })
        })
        .collect();
    let events: Vec<u64> = handles
        .into_iter()
        .map(|h| h.join().expect("tcp worker thread"))
        .collect();
    registry.shutdown();
    for (rank, e) in events.iter().enumerate() {
        assert_eq!(*e, 0, "a warm fleet round must not allocate (rank {rank})");
    }
}

#[test]
fn fused_quantize_pack_steady_state_is_allocation_free() {
    with_threads(1, || {
        let len = 1000;
        let mut packed = PackedIntVec::zeros(5, len);
        let mut round = 0i32;
        let events = steady_events(|| {
            round += 1;
            packed.reset(5, len);
            packed.pack_with(|i| ((i as i32 + round) % 31) - 15);
        });
        assert_eq!(events, 0, "fused quantize+pack must not allocate");
    });
}

/// Drives `scheme.aggregate_round_into` with a reused outcome and an
/// incrementing round counter, returning steady-state allocation events.
fn scheme_steady_events(scheme: &mut dyn CompressionScheme, n: usize, d: usize) -> u64 {
    let g = grads(n, d);
    let mut out = AggregationOutcome::default();
    let mut round = 0u64;
    steady_events(move || {
        let ctx = RoundContext::new(42, round);
        round += 1;
        scheme.aggregate_round_into(&g, &ctx, &mut out);
    })
}

#[test]
fn thc_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        // Full rotation at both aggregations; the benchmark's `thc_sat`
        // (partial rotation) and an odd wire width (the per-lane fold) at a
        // `d` that is not a multiple of the rotation block.
        let a100 = DeviceSpec::a100();
        let odd_d = 3 * (1usize << a100.shared_mem_block_log2()) + 77;
        let cases = [
            (
                Thc::new(4, RotationMode::Full, ThcAggregation::Saturating, N),
                D,
            ),
            (Thc::baseline(4, N), D),
            (Thc::improved(4, &a100, N), odd_d),
            (
                Thc::new(
                    4,
                    RotationMode::Partial { block_log2: 6 },
                    ThcAggregation::Widened { b: 9 },
                    N,
                ),
                1000,
            ),
        ];
        for (mut s, d) in cases {
            let events = scheme_steady_events(&mut s, N, d);
            assert_eq!(events, 0, "{} at d={d} must not allocate", s.name());
        }
    });
}

#[test]
fn precision_baseline_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        for mut s in [PrecisionBaseline::fp16(), PrecisionBaseline::fp32()] {
            let events = scheme_steady_events(&mut s, N, D);
            assert_eq!(events, 0, "{} round must not allocate", s.name());
        }
    });
}

#[test]
fn topkc_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        let mut s = TopKC::with_bits(2.0, 64, N, true);
        let events = scheme_steady_events(&mut s, N, 4096);
        assert_eq!(events, 0, "TopKC round must not allocate at steady state");
    });
}

#[test]
fn topkc_perm_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        let mut s = TopKC::with_bits(2.0, 64, N, true).with_permutation();
        let events = scheme_steady_events(&mut s, N, 4096);
        assert_eq!(
            events, 0,
            "TopKC-Perm round must not allocate at steady state"
        );
    });
}

#[test]
fn randomk_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        let mut s = RandomK::with_bits(4.0, N);
        let events = scheme_steady_events(&mut s, N, 4096);
        assert_eq!(events, 0, "RandomK round must not allocate at steady state");
    });
}

#[test]
fn topkc_q_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        let mut s = TopKCQ::with_bits(2.0, 64, 4, N);
        let events = scheme_steady_events(&mut s, N, 4096);
        assert_eq!(events, 0, "TopKC-Q round must not allocate at steady state");
    });
}

#[test]
fn topk_round_steady_state_is_allocation_free() {
    with_threads(1, || {
        // 2^20 is the length `agg_large` runs: past every chunk constant.
        for d in [4096, 1 << 20] {
            let mut s = TopK::with_bits(2.0, N, true);
            let events = scheme_steady_events(&mut s, N, d);
            assert_eq!(events, 0, "TopK round at d={d} must not allocate");
        }
    });
}

#[test]
fn powersgd_round_allocation_budget_is_bounded() {
    // PowerSGD's matmuls write into pooled factor buffers (`matmul_into`
    // and friends) and Gram–Schmidt stages through a persistent scratch,
    // so the steady-state round — like the sparsifiers' — is allocation
    // free.
    with_threads(1, || {
        let mut s = PowerSgd::new(2, vec![(32, 32)], N);
        let events = scheme_steady_events(&mut s, N, D);
        assert_eq!(
            events, 0,
            "PowerSGD round must not allocate at steady state"
        );
    });
}

#[test]
fn trainer_gradient_steps_are_allocation_free_once_warm() {
    // `Trainer::train` keeps the batch, the per-worker gradients, the
    // scheme's scratch and the outcome across rounds, so a longer run makes
    // no more allocation events than a shorter one. Both runs probe vNMSE
    // at round 0 only and evaluate once, at the end, so the rounds that
    // differ are gradient steps: gradients, aggregation, optimizer.
    with_threads(1, || {
        let model = BertMini::new(7);
        let shapes = model.matrix_shapes();
        for name in ["fp16", "topkc", "thc_sat", "powersgd"] {
            let make = || -> Box<dyn CompressionScheme> {
                match name {
                    "fp16" => Box::new(PrecisionBaseline::fp16()),
                    "topkc" => Box::new(TopKC::with_bits(2.0, 64, 2, true)),
                    "thc_sat" => Box::new(Thc::improved(4, &DeviceSpec::a100(), 2)),
                    _ => Box::new(PowerSgd::new(4, shapes.clone(), 2)),
                }
            };
            let events = |rounds: u64| {
                let trainer = Trainer::new(TrainerConfig {
                    n_workers: 2,
                    batch_per_worker: 4,
                    max_rounds: rounds,
                    eval_every: 1000,
                    vnmse_every: 1000,
                    ..TrainerConfig::default()
                });
                let mut model = BertMini::new(7);
                let mut scheme = make();
                let (log, stats) = measure(|| trainer.train(&mut model, scheme.as_mut(), 0.25));
                assert_eq!(log.rounds, rounds);
                stats.total_events()
            };
            let (short, long) = (events(3), events(9));
            assert_eq!(long, short, "{name}: six more warm Trainer rounds allocate");
        }
    });
}

#[test]
fn optimizer_step_into_steady_state_is_allocation_free() {
    // `step_into` updates in place, with the velocity sized once on the
    // first call (covered by the warm-up rounds).
    with_threads(1, || {
        let g = grads(1, D);
        let mut params = vec![0.1f32; D];
        let mut sgd = Sgd::new(0.05, 0.9, 1e-4);
        let events = steady_events(|| sgd.step_into(&mut params, &g[0]));
        assert_eq!(events, 0, "Sgd::step_into must not allocate");
    });
}

#[test]
fn aggd_tenant_round_steady_state_is_allocation_free() {
    // The daemon steady state: one warm tenant round on a shard is
    // `TenantState::submit` per rank (copy into a preallocated pending
    // slot, fold through the pooled `aggregate_round_into` seam, copy into
    // the result ring, metrics on pre-registered names) plus `fetch_into`
    // (copy out of the ring). The clock is injected, so a fixed `Instant`
    // makes the round latency 0 and the histogram records into its
    // non-positive counter — no bucket insertion. Pinned for every pooled
    // family; QSGD builds fresh payloads each round and allocates by design.
    use gradient_utility::aggd::{
        FetchVerdict, SchemeSpec, SubmitVerdict, TenantConfig, TenantState,
    };
    with_threads(1, || {
        let specs = [
            SchemeSpec::TopK {
                bits_x100: 200,
                error_feedback: true,
            },
            SchemeSpec::Thc { q: 4 },
            SchemeSpec::PowerSgd {
                rank: 2,
                rows: 32,
                cols: 32,
            },
        ];
        for spec in specs {
            let mut st = TenantState::new(TenantConfig {
                tenant: 9,
                model: 1,
                dim: D,
                n_workers: N,
                experiment_seed: 42,
                scheme: spec,
                fault: None,
            })
            .expect("tenant state");
            let g = grads(N, D);
            let clock = std::time::Instant::now();
            let mut out = Vec::new();
            let mut round = 0u64;
            let events = steady_events(|| {
                for (rank, grad) in g.iter().enumerate() {
                    match st.submit(round, rank, grad, clock) {
                        SubmitVerdict::Accepted { .. } => {}
                        v => panic!("round {round} rank {rank}: {v:?}"),
                    }
                }
                match st.fetch_into(round, &mut out) {
                    FetchVerdict::Ready => {}
                    v => panic!("fetch round {round}: {v:?}"),
                }
                round += 1;
            });
            assert_eq!(
                events, 0,
                "aggd tenant round must not allocate at steady state ({spec:?})"
            );
        }
    });
}

#[test]
fn whole_model_collective_round_steady_state_is_allocation_free() {
    // The flat-arena payoff: a full model's gradient is ONE contiguous
    // slice, so a round is one pooled whole-model collective over
    // `param_count` elements plus one in-place optimizer step on the
    // model's flat parameter slice — and none of it allocates.
    with_threads(1, || {
        let mut model = VggMini::new(7);
        let d = model.param_count();
        let src = grads(N, d);
        let mut bufs = src.clone();
        let mut scratch = RingScratch::default();
        let mut traffic = Traffic::default();
        let mut mean = vec![0.0f32; d];
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let events = steady_events(|| {
            for (b, s) in bufs.iter_mut().zip(&src) {
                b.clear();
                b.extend_from_slice(s);
            }
            ring_all_reduce_into(&mut bufs, &F32Sum, 4.0, &mut scratch, &mut traffic);
            mean.copy_from_slice(&bufs[0]);
            gradient_utility::tensor::vector::scale(&mut mean, 1.0 / N as f32);
            opt.step_into(model.params_flat_mut(), &mean);
        });
        assert_eq!(
            events, 0,
            "whole-model collective + flat optimizer step must not allocate"
        );
    });
}

#[test]
fn forward_backward_and_evaluate_steady_state_are_allocation_free() {
    // The activation arena's pin: every layer reads its input from, and
    // writes its output into, one chunk-sized buffer the model owns, and
    // evaluation streams the held-out batch through that same buffer — so
    // once the training batch has sized it, neither a gradient computation
    // nor an evaluation touches the heap.
    with_threads(1, || {
        let models: [(Box<dyn Model>, usize); 3] = [
            (Box::new(VggMini::new(7)), 8),
            (Box::new(BertMini::new(7)), 4),
            (Box::new(TransformerMini::new(7)), 4),
        ];
        for (mut model, batch_size) in models {
            let batch = model.train_batch(batch_size, 0, 0);
            let events = steady_events(|| {
                model.forward_backward(&batch);
            });
            assert_eq!(events, 0, "{}: forward_backward allocates", model.name());
            let events = steady_events(|| {
                model.evaluate();
            });
            assert_eq!(events, 0, "{}: evaluate allocates", model.name());
            // `Trainer::train` interleaves the two: a training batch of 4 or
            // 8 samples, then an evaluation in chunks of 8. Layer scratch
            // sized by one call must serve the other as it stands.
            for train_size in [4, 8] {
                let batch = model.train_batch(train_size, 0, 0);
                let events = steady_events(|| {
                    model.forward_backward(&batch);
                    model.evaluate();
                });
                assert_eq!(
                    events,
                    0,
                    "{}: training at batch {train_size} between evaluations allocates",
                    model.name()
                );
            }
        }
    });
}
