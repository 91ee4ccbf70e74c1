//! Flat-arena equivalence suite (ISSUE 6 tentpole): the arena-backed model
//! storage must be a pure *layout* change. These properties pin, bitwise:
//!
//! * the whole-model flat gradient equals the per-layer views gathered in
//!   layer order (the old `Vec<f32>`-per-layer storage discipline), for
//!   VggMini and BertMini, at 1/2/4 threads;
//! * a single whole-model optimizer step equals independent per-layer
//!   optimizer steps over the arena's layer slices (SGD+momentum);
//! * arena offsets tile the parameter space exactly (no gaps, no overlap).
//!
//! Together these justify the engine's single-slice replica sync and the
//! schemes' whole-model pooled collective calls: nothing about flattening
//! can change a bit of the training trajectory.

use gradient_utility::nn::{BertMini, Model, Sgd, VggMini};
use gradient_utility::tensor::parallel::with_threads;
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 4];

fn vgg_grads(seed: u64, round: u64, batch: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut m = VggMini::new(seed);
    let b = m.train_batch(batch, 0, round);
    m.forward_backward(&b);
    let arena = m.net().grad_arena();
    let layered = (0..arena.n_layers())
        .map(|l| arena.layer(l).to_vec())
        .collect();
    (m.grads_flat().to_vec(), layered)
}

fn bert_grads(seed: u64, round: u64, batch: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut m = BertMini::new(seed);
    let b = m.train_batch(batch, 0, round);
    m.forward_backward(&b);
    let arena = m.net().grad_arena();
    let layered = (0..arena.n_layers())
        .map(|l| arena.layer(l).to_vec())
        .collect();
    (m.grads_flat().to_vec(), layered)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the flat gradient is exactly the layer views in order, and that
/// re-running at every thread count reproduces the single-thread bits.
fn assert_flat_matches_layered(
    name: &str,
    compute: impl Fn(u64, u64, usize) -> (Vec<f32>, Vec<Vec<f32>>),
    seed: u64,
    round: u64,
    batch: usize,
) {
    let (ref_flat, ref_layered) = with_threads(1, || compute(seed, round, batch));
    let regathered: Vec<f32> = ref_layered.iter().flatten().copied().collect();
    assert_eq!(
        bits(&ref_flat),
        bits(&regathered),
        "{name}: flat gradient != per-layer gather"
    );
    for &t in &THREADS {
        let (flat, layered) = with_threads(t, || compute(seed, round, batch));
        assert_eq!(
            bits(&ref_flat),
            bits(&flat),
            "{name}: flat gradient differs at {t} threads"
        );
        for (l, (a, b)) in ref_layered.iter().zip(&layered).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "{name}: layer {l} gradient differs at {t} threads"
            );
        }
    }
}

/// Splits `flat` at the arena offsets and applies one optimizer step per
/// layer with an independent optimizer instance; element-wise optimizer
/// state makes this bitwise-equal to the whole-model step.
fn step_per_layer(params: &mut [f32], grad: &[f32], offsets: &[usize], opts: &mut [Sgd]) {
    for (l, w) in offsets.windows(2).enumerate() {
        let (lo, hi) = (w[0], w[1]);
        opts[l].step_into(&mut params[lo..hi], &grad[lo..hi]);
    }
}

#[test]
fn whole_model_sgd_step_matches_per_layer_steps_bitwise() {
    let mut whole = VggMini::new(11);
    let mut layered = VggMini::new(11);
    let offsets: Vec<usize> = whole.net().param_arena().offsets().to_vec();
    let n_layers = offsets.len() - 1;
    let make_opt = || Sgd::new(0.05, 0.9, 1e-4);
    let mut whole_opt = make_opt();
    let mut layer_opts: Vec<Sgd> = (0..n_layers).map(|_| make_opt()).collect();
    for round in 0..3u64 {
        let batch = whole.train_batch(4, 0, round);
        whole.forward_backward(&batch);
        layered.forward_backward(&batch);
        let grad = whole.grads_flat().to_vec();
        whole_opt.step_into(whole.params_flat_mut(), &grad);
        step_per_layer(layered.params_flat_mut(), &grad, &offsets, &mut layer_opts);
        assert_eq!(
            bits(whole.params_flat()),
            bits(layered.params_flat()),
            "round {round}: whole-model step != per-layer steps"
        );
    }
}

#[test]
fn arena_offsets_tile_the_parameter_space_exactly() {
    for (name, arena_len, offsets, lens) in [
        {
            let m = VggMini::new(3);
            let a = m.net().param_arena();
            (
                "VggMini",
                a.len(),
                a.offsets().to_vec(),
                (0..a.n_layers())
                    .map(|l| a.layer_len(l))
                    .collect::<Vec<_>>(),
            )
        },
        {
            let m = BertMini::new(3);
            let a = m.net().param_arena();
            (
                "BertMini",
                a.len(),
                a.offsets().to_vec(),
                (0..a.n_layers())
                    .map(|l| a.layer_len(l))
                    .collect::<Vec<_>>(),
            )
        },
    ] {
        assert_eq!(offsets[0], 0, "{name}: first offset");
        assert_eq!(*offsets.last().unwrap(), arena_len, "{name}: last offset");
        for (l, w) in offsets.windows(2).enumerate() {
            assert_eq!(
                w[1] - w[0],
                lens[l],
                "{name}: layer {l} not contiguous with its neighbor"
            );
        }
        assert_eq!(lens.iter().sum::<usize>(), arena_len, "{name}: coverage");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn vgg_flat_gradient_matches_per_layer_path_at_all_thread_counts(
        seed in 0u64..64,
        round in 0u64..8,
    ) {
        assert_flat_matches_layered("VggMini", vgg_grads, seed, round, 3);
    }

    #[test]
    fn bert_flat_gradient_matches_per_layer_path_at_all_thread_counts(
        seed in 0u64..64,
        round in 0u64..8,
    ) {
        assert_flat_matches_layered("BertMini", bert_grads, seed, round, 6);
    }
}
