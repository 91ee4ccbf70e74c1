//! Contract tests every compression scheme must satisfy, run across the
//! whole scheme zoo (baselines, case-study schemes, literature schemes).

use gradient_utility::core::scheme::{
    AggregationOutcome, CommEvent, CompressionScheme, RoundContext,
};
use gradient_utility::core::schemes::baseline::PrecisionBaseline;
use gradient_utility::core::schemes::literature::{Drive, Qsgd, RandomK, SignSgdEf, TernGrad};
use gradient_utility::core::schemes::powersgd::PowerSgd;
use gradient_utility::core::schemes::sketch::SketchScheme;
use gradient_utility::core::schemes::thc::{Thc, ThcAggregation};
use gradient_utility::core::schemes::topk::TopK;
use gradient_utility::core::schemes::topkc::TopKC;
use gradient_utility::core::schemes::topkc_q::TopKCQ;
use gradient_utility::gpusim::DeviceSpec;
use gradient_utility::tensor::hadamard::RotationMode;
use gradient_utility::tensor::vector::{mean, vnmse};
use rand::{Rng, SeedableRng};

const N: usize = 4;
const D: usize = 512;

fn zoo() -> Vec<Box<dyn CompressionScheme>> {
    let device = DeviceSpec::a100();
    vec![
        Box::new(PrecisionBaseline::fp32()),
        Box::new(PrecisionBaseline::fp16()),
        Box::new(TopK::with_bits(4.0, N, true)),
        Box::new(TopKC::with_bits(4.0, 16, N, true)),
        Box::new(TopKC::with_bits(4.0, 16, N, true).with_permutation()),
        Box::new(Thc::new(
            4,
            RotationMode::Full,
            ThcAggregation::Saturating,
            N,
        )),
        Box::new(Thc::improved(4, &device, N)),
        Box::new(Thc::baseline(4, N)),
        Box::new(Thc::new(
            6,
            RotationMode::None,
            ThcAggregation::Widened { b: 10 },
            N,
        )),
        Box::new(PowerSgd::new(3, vec![(16, 16)], N)),
        Box::new(Qsgd::new(4, N)),
        Box::new(TernGrad::new(N)),
        Box::new(SignSgdEf::new(N)),
        Box::new(RandomK::with_bits(4.0, N)),
        Box::new(Drive::new()),
        Box::new(SketchScheme::with_bits(8.0, 3, 0.02, N)),
        Box::new(TopKCQ::with_bits(4.0, 16, 4, N)),
        Box::new(TopK::with_bits(4.0, N, true).with_delta_indices()),
    ]
}

fn grads(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..N)
        .map(|_| (0..D).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
        .collect()
}

#[test]
fn every_scheme_returns_a_full_length_finite_estimate() {
    let g = grads(1);
    for mut s in zoo() {
        let out = s.aggregate_round(&g, &RoundContext::new(3, 0));
        assert_eq!(out.mean_estimate.len(), D, "{}", s.name());
        assert!(
            out.mean_estimate.iter().all(|x| x.is_finite()),
            "{} produced non-finite values",
            s.name()
        );
    }
}

#[test]
fn every_scheme_moves_traffic_and_reports_bits() {
    // Use a dimension large enough that THC's shared-memory-sized rotation
    // blocks (8192 f32) don't dominate via padding.
    const BIG: usize = 1 << 15;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let g: Vec<Vec<f32>> = (0..N)
        .map(|_| (0..BIG).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
        .collect();
    for mut s in zoo() {
        let out = s.aggregate_round(&g, &RoundContext::new(3, 0));
        assert!(
            out.traffic.total() > 0,
            "{} reported zero traffic",
            s.name()
        );
        let b = out.bits_per_coord(BIG as u64);
        assert!(b > 0.0 && b <= 64.0, "{}: b = {b}", s.name());
        // Nominal accounting should be in the same ballpark as measured
        // payloads (within ~2.6x: padding/metadata allowed; PowerSGD's
        // remainder pass-through is excluded since its functional shapes
        // cover only part of this synthetic vector).
        if s.name().contains("PowerSGD") {
            continue;
        }
        let nominal = s.nominal_bits_per_coord(BIG as u64);
        assert!(
            b / nominal < 2.6 && nominal / b < 2.6,
            "{}: measured {b} vs nominal {nominal}",
            s.name()
        );
    }
}

#[test]
fn allreduce_compatibility_flags_match_the_collectives_used() {
    use gradient_utility::netsim::Collective;
    let g = grads(3);
    for mut s in zoo() {
        let out = s.aggregate_round(&g, &RoundContext::new(4, 0));
        let uses_gather_or_ps = out.comm.iter().any(|e| {
            matches!(
                e.collective,
                Collective::AllGather | Collective::ParameterServer
            )
        });
        assert_eq!(
            s.all_reduce_compatible(),
            !uses_gather_or_ps,
            "{}: compatibility flag contradicts the collectives it invoked",
            s.name()
        );
    }
}

#[test]
fn estimates_are_deterministic_given_context() {
    let g = grads(4);
    for make in 0..2 {
        let _ = make;
    }
    for (a, b) in zoo().into_iter().zip(zoo()) {
        let mut a = a;
        let mut b = b;
        let out_a = a.aggregate_round(&g, &RoundContext::new(5, 7));
        let out_b = b.aggregate_round(&g, &RoundContext::new(5, 7));
        assert_eq!(
            out_a.mean_estimate,
            out_b.mean_estimate,
            "{} is not deterministic",
            a.name()
        );
    }
}

#[test]
fn reset_restores_initial_behaviour() {
    let g = grads(5);
    for mut s in zoo() {
        let first = s
            .aggregate_round(&g, &RoundContext::new(6, 0))
            .mean_estimate;
        let _ = s.aggregate_round(&g, &RoundContext::new(6, 1));
        s.reset();
        let again = s
            .aggregate_round(&g, &RoundContext::new(6, 0))
            .mean_estimate;
        assert_eq!(first, again, "{}: reset did not clear state", s.name());
    }
}

#[test]
fn compute_cost_is_positive_and_finite_at_paper_scale() {
    let device = DeviceSpec::a100();
    for s in zoo() {
        let t = s.compute_seconds(345_000_000, &device);
        assert!(t.is_finite() && t >= 0.0, "{}: compute {t}", s.name());
        assert!(t < 2.0, "{}: implausible compute {t} s", s.name());
        assert!(!s.comm_events(345_000_000).is_empty(), "{}", s.name());
    }
}

#[test]
fn identical_worker_gradients_are_recovered_by_every_lossy_scheme() {
    // When all workers hold the same gradient, disagreement effects vanish
    // and every scheme's estimate should correlate strongly with the truth.
    let one: Vec<f32> = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        (0..D).map(|_| rng.gen_range(-0.5f32..0.5)).collect()
    };
    let g: Vec<Vec<f32>> = (0..N).map(|_| one.clone()).collect();
    let exact = mean(&g);
    for mut s in zoo() {
        if s.name().starts_with("Sketch") {
            // Sketch recovery targets sparse-heavy signals; a uniformly
            // dense random vector is explicitly outside its regime (see
            // `schemes::sketch::tests::dense_gradients_are_outside_the_sketchs_regime`).
            continue;
        }
        // Average several rounds to smooth stochastic schemes.
        let mut acc = vec![0.0f32; D];
        let rounds = 8;
        for r in 0..rounds {
            let out = s.aggregate_round(&g, &RoundContext::new(12, r));
            for (a, x) in acc.iter_mut().zip(&out.mean_estimate) {
                *a += x / rounds as f32;
            }
        }
        let err = vnmse(&acc, &exact);
        assert!(
            err < 0.9,
            "{}: averaged estimate lost the signal entirely (vNMSE {err})",
            s.name()
        );
    }
}

/// Rounds the round-seam contracts below run on one instance (state such as
/// EF memories and PowerSGD's warm start carries from one to the next).
const ROUNDS: u64 = 3;

#[test]
fn provided_round_equals_the_borrowing_round_into_a_reused_outcome() {
    let g = grads(21);
    for (mut owned, mut borrowed) in zoo().into_iter().zip(zoo()) {
        let mut out = AggregationOutcome::default();
        for round in 0..ROUNDS {
            let ctx = RoundContext::new(17, round);
            let fresh = owned.aggregate_round(&g, &ctx);
            borrowed.aggregate_round_into(&g, &ctx, &mut out);
            let name = owned.name();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&fresh.mean_estimate),
                bits(&out.mean_estimate),
                "{name} round {round}: estimate"
            );
            assert_eq!(fresh.traffic, out.traffic, "{name} round {round}: traffic");
            let events = |o: &AggregationOutcome| {
                o.comm
                    .iter()
                    .map(|e| (e.collective, e.payload_bytes.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(events(&fresh), events(&out), "{name} round {round}: comm");
        }
    }
}

#[test]
fn a_reused_outcome_keeps_its_estimate_allocation_across_rounds() {
    let g = grads(22);
    let mut moved = Vec::new();
    for mut s in zoo() {
        let mut out = AggregationOutcome::default();
        s.aggregate_round_into(&g, &RoundContext::new(18, 0), &mut out);
        let first = (out.mean_estimate.as_ptr(), out.mean_estimate.capacity());
        for round in 1..ROUNDS {
            s.aggregate_round_into(&g, &RoundContext::new(18, round), &mut out);
            let now = (out.mean_estimate.as_ptr(), out.mean_estimate.capacity());
            if now != first {
                moved.push(format!("{} (round {round})", s.name()));
                break;
            }
        }
    }
    assert!(
        moved.is_empty(),
        "schemes that replaced the caller's mean_estimate buffer: {moved:?}"
    );
}

#[test]
fn a_round_reports_the_collectives_its_nominal_form_names() {
    // A power of two no smaller than THC's partial-rotation block (2^13 on
    // the A100 preset), so no scheme pads: wherever the nominal payload is a
    // function of `d`, the measured one must equal it exactly.
    const POW2: usize = 1 << 13;
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let g: Vec<Vec<f32>> = (0..N)
        .map(|_| (0..POW2).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
        .collect();
    for mut s in zoo() {
        let nominal = s.comm_events(POW2 as u64);
        for round in 0..ROUNDS {
            let out = s.aggregate_round(&g, &RoundContext::new(19, round));
            let name = s.name();
            let kinds = |c: &[CommEvent]| c.iter().map(|e| e.collective).collect::<Vec<_>>();
            assert_eq!(kinds(&out.comm), kinds(&nominal), "{name}: collectives");
            let measured: Vec<f64> = out.comm.iter().map(|e| e.payload_bytes).collect();
            let mut expect: Vec<f64> = nominal.iter().map(|e| e.payload_bytes).collect();
            if name.starts_with("PowerSGD") {
                // PowerSGD's nominal shape is configured, not derived from
                // `d`: the P and Q rings carry the configured factors, and
                // the coordinates the shapes do not cover ride uncompressed
                // (4 bytes each) on the second ring.
                let covered = 16 * 16;
                expect[1] += ((POW2 - covered) * 4) as f64;
            }
            assert_eq!(measured, expect, "{name} round {round}: payload bytes");
        }
    }
}
