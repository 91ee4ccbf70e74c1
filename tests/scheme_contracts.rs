//! Contract tests every compression scheme must satisfy, run across the
//! whole scheme zoo (baselines, case-study schemes, literature schemes).

use gradient_utility::core::scheme::{
    AggregationOutcome, CommEvent, CompressionScheme, RoundContext,
};
use gradient_utility::core::schemes::baseline::PrecisionBaseline;
use gradient_utility::core::schemes::literature::{Qsgd, RandomK};
use gradient_utility::core::schemes::powersgd::PowerSgd;
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
        Box::new(RandomK::with_bits(4.0, N)),
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

#[test]
fn every_scheme_in_the_zoo_has_a_distinct_name() {
    let names: Vec<String> = zoo().iter().map(|s| s.name()).collect();
    for (i, name) in names.iter().enumerate() {
        assert!(
            !names[..i].contains(name),
            "two zoo entries report the name {name}: {names:?}"
        );
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one round's outcome into `h`: every estimate bit pattern, the
/// per-worker traffic, the step count, and each collective with its payload
/// bit pattern.
fn fold_outcome(mut h: u64, out: &AggregationOutcome) -> u64 {
    for x in &out.mean_estimate {
        h = fnv1a(h, &x.to_bits().to_le_bytes());
    }
    for &b in out.traffic.sent.iter().chain(&out.traffic.received) {
        h = fnv1a(h, &b.to_le_bytes());
    }
    h = fnv1a(h, &out.traffic.steps.to_le_bytes());
    for e in &out.comm {
        h = fnv1a(h, &(e.collective as u64).to_le_bytes());
        h = fnv1a(h, &e.payload_bytes.to_bits().to_le_bytes());
    }
    h
}

/// Dimensions of the zoo golden: a small vector, THC's partial-rotation
/// block, and an odd size every padding path sees.
const GOLDEN_DIMS: [usize; 3] = [512, 8192, 70001];

/// One FNV-1a-64 per (zoo entry, dimension in [`GOLDEN_DIMS`]) over
/// [`ROUNDS`] rounds of `RoundContext::new(7, r)` on one instance. Any
/// change to a scheme's arithmetic, traffic or collectives moves its row.
const ZOO_GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "Baseline FP32",
        [0x5df19db873b977b7, 0xbd89a688d825eaa5, 0xe5a5bfda71e82131],
    ),
    (
        "Baseline FP16",
        [0x94f9a863126f2d7b, 0x8e3874b711961abf, 0x23577cfbafe6056b],
    ),
    (
        "TopK(b=4)",
        [0x702dc11865f3f8c8, 0x485480e88c901a87, 0xc373c6e7d29e742e],
    ),
    (
        "TopKC(b=4, C=16)",
        [0x5d20cc847f874461, 0x47d16807f23be5ef, 0xcb7760755db56387],
    ),
    (
        "TopKC-Perm(b=4, C=16)",
        [0x0ba3f9e3cafa4640, 0xdf964ea11ab10db6, 0xce2c63324a343868],
    ),
    (
        "THC-Sat(q=4, full-rot)",
        [0xa862cb0d99b6592d, 0xbe58e508819fbd70, 0x58042e628dcc4510],
    ),
    (
        "THC-Sat(q=4, partial-rot)",
        [0x4729aff001950972, 0xbe58e508819fbd70, 0xe0e41f10d7a6218d],
    ),
    (
        "THC-Wide(q=4, b=8, full-rot)",
        [0x06fb738e8c72d174, 0x0913df39c48524c8, 0x2d704c4db7f073eb],
    ),
    (
        "THC-Wide(q=6, b=10, no-rot)",
        [0xf644804e7141cdd2, 0x95edff769528356f, 0xd96d2f3455c04f19],
    ),
    (
        "PowerSGD(r=3)",
        [0xaaf86c7c26c47635, 0x91fb9af9fea67b60, 0xf09f28ce1ace1c40],
    ),
    (
        "QSGD(q=4)",
        [0x4486a85dc02e21eb, 0x4bee79f89da9294a, 0x89c0bacb08e776ef],
    ),
    (
        "RandomK(b=4)",
        [0x03df5bfce204fa1f, 0x71063584bf987102, 0xd6c690c357ea1fbf],
    ),
    (
        "TopKC-Q(b=4, C=16, q=4)",
        [0x5f4be96abef5a5f9, 0x8cf067b7ced18ec5, 0x2afb99f31e9e4232],
    ),
    (
        "TopK-Delta16(b=4)",
        [0x40086feb7b2424af, 0x265ed35a5b69cc82, 0xf53285a90b99c4e0],
    ),
];

/// Hashes `make()`'s schemes as [`ZOO_GOLDEN`] does, each on `N` workers'
/// gradients of every dimension in [`GOLDEN_DIMS`], element by element
/// from `draw` on a generator seeded with the dimension.
fn golden_rows(
    make: impl Fn() -> Vec<(String, Box<dyn CompressionScheme>)>,
    draw: impl Fn(&mut rand::rngs::StdRng) -> f32,
) -> Vec<(String, [u64; 3])> {
    let mut got: Vec<(String, [u64; 3])> = make().into_iter().map(|(l, _)| (l, [0; 3])).collect();
    for (slot, &d) in GOLDEN_DIMS.iter().enumerate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(d as u64);
        let g: Vec<Vec<f32>> = (0..N)
            .map(|_| (0..d).map(|_| draw(&mut rng)).collect())
            .collect();
        for ((_, mut s), (_, row)) in make().into_iter().zip(&mut got) {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for r in 0..ROUNDS {
                h = fold_outcome(h, &s.aggregate_round(&g, &RoundContext::new(7, r)));
            }
            row[slot] = h;
        }
    }
    got
}

/// Panics with the computed table unless `got` is `want`.
fn assert_golden(got: &[(String, [u64; 3])], want: &[(&str, [u64; 3])], what: &str) {
    let table: String = got
        .iter()
        .map(|(name, [a, b, c])| format!("    (\"{name}\", [{a:#018x}, {b:#018x}, {c:#018x}]),\n"))
        .collect();
    let want: Vec<(String, [u64; 3])> = want
        .iter()
        .map(|&(name, row)| (name.to_string(), row))
        .collect();
    assert!(got == want, "{what} hashes moved; computed table:\n{table}");
}

#[test]
fn every_scheme_reproduces_its_golden_hash() {
    let zoo = || zoo().into_iter().map(|s| (s.name(), s)).collect();
    let got = golden_rows(zoo, |rng| rng.gen_range(-0.5f32..0.5));
    assert_golden(&got, ZOO_GOLDEN, "zoo");
}

/// Error-feedback paths the zoo golden does not reach: TopK, TopKC and
/// PowerSGD with EF off (the round reads the gradients themselves), on
/// the zoo's gradients.
fn ef_off() -> Vec<(String, Box<dyn CompressionScheme>)> {
    vec![
        (
            "TopK no-EF".into(),
            Box::new(TopK::with_bits(4.0, N, false)),
        ),
        (
            "TopKC no-EF".into(),
            Box::new(TopKC::with_bits(4.0, 16, N, false)),
        ),
        (
            "PowerSGD no-EF".into(),
            Box::new(PowerSgd::new(3, vec![(16, 16)], N).without_ef()),
        ),
    ]
}

/// Every scheme that runs error feedback, for the gradients of
/// [`signed_zero_or_subnormal`].
fn ef_on() -> Vec<(String, Box<dyn CompressionScheme>)> {
    let schemes: Vec<Box<dyn CompressionScheme>> = vec![
        Box::new(TopK::with_bits(4.0, N, true)),
        Box::new(TopKC::with_bits(4.0, 16, N, true)),
        Box::new(TopKC::with_bits(4.0, 16, N, true).with_permutation()),
        Box::new(RandomK::with_bits(4.0, N)),
        Box::new(TopKCQ::with_bits(4.0, 16, 4, N)),
        Box::new(PowerSgd::new(3, vec![(16, 16)], N)),
    ];
    schemes.into_iter().map(|s| (s.name(), s)).collect()
}

/// A gradient element that is `+0.0`, `−0.0`, a subnormal of either sign
/// (FP16 flushes each to zero, so it stays in the EF memory) or the zoo's
/// value, one in four each.
fn signed_zero_or_subnormal(rng: &mut rand::rngs::StdRng) -> f32 {
    match rng.gen_range(0..4) {
        0 => 0.0,
        1 => -0.0,
        2 => {
            let sign = if rng.gen::<bool>() { 0x8000_0000 } else { 0 };
            f32::from_bits(sign | rng.gen_range(1u32..0x0080_0000))
        }
        _ => rng.gen_range(-0.5f32..0.5),
    }
}

const EF_OFF_GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "TopK no-EF",
        [0xc166af538aad6da6, 0x3fde836adaf25139, 0xc6be3b9baa978a53],
    ),
    (
        "TopKC no-EF",
        [0x675c2b4ad3de642a, 0x20ab182dcfa8c60d, 0xb59a21713edfbe04],
    ),
    (
        "PowerSGD no-EF",
        [0x9d04dde42764007f, 0x04b9a48a82662112, 0xf1783c580c2ccc3e],
    ),
];

const EF_EDGE_GOLDEN: &[(&str, [u64; 3])] = &[
    (
        "TopK(b=4)",
        [0x56a15713c61c2eb8, 0xf230dfa054b4e4eb, 0x6317236f0d22a877],
    ),
    (
        "TopKC(b=4, C=16)",
        [0x3118bb74c5da8d33, 0xbc6b6e78adc8ed78, 0xa1dcd67868c8205d],
    ),
    (
        "TopKC-Perm(b=4, C=16)",
        [0x6b1677d43a9836a7, 0x45963974aa48af8b, 0xfa3b4d7064a080a3],
    ),
    (
        "RandomK(b=4)",
        [0xcba5c07bfbe2622f, 0x567d8aa489633d46, 0x2a7e532bc5b4b70d],
    ),
    (
        "TopKC-Q(b=4, C=16, q=4)",
        [0x380fbb8668281747, 0xd75c6b71d96173d2, 0xb475e2155f9619e5],
    ),
    (
        "PowerSGD(r=3)",
        [0xf3e7483c256a2c3a, 0x8ab3cd1746927ded, 0x1cff6940efb9f091],
    ),
];

#[test]
fn error_feedback_paths_reproduce_their_golden_hashes() {
    let got = golden_rows(ef_off, |rng| rng.gen_range(-0.5f32..0.5));
    assert_golden(&got, EF_OFF_GOLDEN, "EF-off");
    let got = golden_rows(ef_on, signed_zero_or_subnormal);
    assert_golden(&got, EF_EDGE_GOLDEN, "signed-zero/subnormal EF");
}
