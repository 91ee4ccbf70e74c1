//! Criterion micro-benchmarks of the compression kernels themselves.
//!
//! These measure our *functional* Rust implementations (not the GPU cost
//! model): useful for catching algorithmic regressions and for verifying
//! asymptotic claims — e.g. that partial rotation does the same work as full
//! rotation per element but fewer stages, and that TopKC's selection over
//! `d/C` chunk norms is far cheaper than TopK's over `d` values.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gcs_collectives::{ring_all_reduce_into, F32Sum, RingScratch, Traffic};
use gcs_nn::layers::{Conv3x3, Dense, Layer};
use gcs_tensor::hadamard::{fwht, fwht_iterations};
use gcs_tensor::matrix::{matmul_into, orthonormalize_columns_with, GsScratch, Matrix};
use gcs_tensor::vector::{top_k_indices_into, TopKScratch};
use rand::{Rng, SeedableRng};

fn data(d: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_fwht(c: &mut Criterion) {
    let mut g = c.benchmark_group("fwht");
    let d = 1 << 16;
    g.bench_function(BenchmarkId::new("full", d), |b| {
        let v = data(d, 1);
        b.iter(|| {
            let mut x = v.clone();
            fwht(black_box(&mut x));
            x
        })
    });
    g.bench_function(BenchmarkId::new("partial_l8", d), |b| {
        let v = data(d, 1);
        b.iter(|| {
            let mut x = v.clone();
            fwht_iterations(black_box(&mut x), 8);
            x
        })
    });
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("selection");
    let d = 1 << 16;
    let v = data(d, 2);
    let (mut scratch, mut idx) = (TopKScratch::new(), Vec::new());
    g.bench_function("topk_over_d", |b| {
        b.iter(|| top_k_indices_into(black_box(&v), d / 100, &mut scratch, &mut idx))
    });
    // TopKC's equivalent: norms of 64-sized chunks, then top-k over d/64.
    g.bench_function("topkc_chunk_norms_and_select", |b| {
        b.iter(|| {
            let norms: Vec<f32> = v.chunks(64).map(gcs_tensor::vector::squared_norm).collect();
            top_k_indices_into(black_box(&norms), norms.len() / 100, &mut scratch, &mut idx)
        })
    });
    g.finish();
}

fn bench_gram_schmidt(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram_schmidt");
    for r in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::new("rows512", r), &r, |b, &r| {
            let m0 = Matrix::from_vec(512, r, data(512 * r, 3));
            let mut gs = GsScratch::new();
            b.iter(|| {
                let mut m = m0.clone();
                orthonormalize_columns_with(black_box(&mut m), &mut gs);
                m
            })
        });
    }
    g.finish();
}

fn bench_ring_all_reduce(c: &mut Criterion) {
    c.bench_function("ring_all_reduce_4x65536_f32", |b| {
        let bufs: Vec<Vec<f32>> = (0..4).map(|w| data(1 << 16, w as u64)).collect();
        let (mut scratch, mut traffic) = (RingScratch::new(), Traffic::default());
        b.iter(|| {
            let mut bb = bufs.clone();
            ring_all_reduce_into(black_box(&mut bb), &F32Sum, 4.0, &mut scratch, &mut traffic);
            bb
        })
    });
}

/// Sequential vs parallel runtime for the threaded kernels. The thread
/// counts are forced through `with_threads`, so the comparison is meaningful
/// regardless of `GCS_THREADS`; on a single-core machine the "par" rows
/// mostly measure fork-join overhead, on real multi-core hardware they show
/// the speedup. Determinism means the outputs are bitwise-identical either
/// way — only the time differs.
fn bench_parallel_runtime(c: &mut Criterion) {
    use gcs_tensor::parallel::with_threads;
    let threads = [1usize, 2, 4];

    let mut g = c.benchmark_group("par_fwht");
    let d = 1 << 20;
    let v = data(d, 7);
    for &t in &threads {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            b.iter(|| {
                let mut x = v.clone();
                with_threads(t, || fwht(black_box(&mut x)));
                x
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("par_topk");
    let v = data(d, 8);
    let (mut scratch, mut idx) = (TopKScratch::new(), Vec::new());
    for &t in &threads {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            b.iter(|| {
                with_threads(t, || {
                    top_k_indices_into(black_box(&v), d / 100, &mut scratch, &mut idx)
                })
            })
        });
    }
    g.finish();

    // PowerSGD's hot shapes: (d/cols x cols) * (cols x rank).
    let mut g = c.benchmark_group("par_matmul");
    let (rows, cols, rank) = (4096usize, 256usize, 8usize);
    let (m, q) = (data(rows * cols, 9), data(cols * rank, 10));
    let mut p = vec![0.0f32; rows * rank];
    for &t in &threads {
        g.bench_with_input(BenchmarkId::new("threads", t), &t, |b, &t| {
            b.iter(|| {
                with_threads(t, || {
                    matmul_into(black_box(&m), rows, cols, black_box(&q), rank, &mut p)
                })
            })
        });
    }
    g.finish();
}

/// `gcs-nn`'s two heavy layers at VggMini's shapes, at the training batch
/// (8) and the evaluation batch (160): forward alone, and backward on the
/// forward's buffers with an output gradient as sparse as pooling and ReLU
/// leave it (one element in eight non-zero).
fn bench_nn_layers(c: &mut Criterion) {
    let mut g = c.benchmark_group("nn_layers");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let layers: Vec<(&str, Box<dyn Layer>, usize)> = vec![
        (
            "conv_3to16_16x16",
            Box::new(Conv3x3::new(3, 16, 16, 16, &mut rng)),
            3 * 256,
        ),
        (
            "conv_16to32_8x8",
            Box::new(Conv3x3::new(16, 32, 8, 8, &mut rng)),
            16 * 64,
        ),
        (
            "dense_512to128",
            Box::new(Dense::new(512, 128, &mut rng)),
            512,
        ),
        (
            "dense_128to256",
            Box::new(Dense::new(128, 256, &mut rng)),
            128,
        ),
    ];
    for (name, mut layer, in_dim) in layers {
        let params = layer.take_init();
        let mut grads = vec![0.0f32; params.len()];
        for batch in [8usize, 160] {
            let input = data(batch * in_dim, 8);
            let mut output = vec![0.0f32; batch * layer.out_dim(in_dim)];
            let mut grad_out = data(output.len(), 9);
            for (i, gv) in grad_out.iter_mut().enumerate() {
                if i % 8 != 0 {
                    *gv = 0.0;
                }
            }
            let mut grad_in = vec![0.0f32; input.len()];
            g.bench_function(BenchmarkId::new(format!("{name}/forward"), batch), |b| {
                b.iter(|| layer.forward(black_box(&input), &mut output, &params))
            });
            g.bench_function(BenchmarkId::new(format!("{name}/backward"), batch), |b| {
                b.iter(|| {
                    layer.backward(
                        black_box(&input),
                        &output,
                        &grad_out,
                        &params,
                        &mut grads,
                        Some(&mut grad_in),
                    )
                })
            });
        }
    }
    g.finish();
}

/// The THC round's stages on one partial-rotation block of the benchmark's
/// `thc_sat` (2^13 lanes, 32 KiB of `f32`): the FWHT, the quantize kernel on
/// pre-drawn uniforms, a worker's whole draw → quantize → pack pass, the
/// word-parallel `Sat` fold a ring hop applies at 4 and 8 bits (and the
/// per-lane fold an odd width takes), and the unpack. For looking, not for
/// claiming — claims come from `benchmarks/e2e/run.sh compare`.
fn bench_thc_stages(c: &mut Criterion) {
    use gcs_tensor::bitpack::{LaneAdd, PackedIntVec};
    use gcs_tensor::simd::quantize_stochastic;
    const BLOCK: usize = 1 << 13;
    let mut g = c.benchmark_group("thc_stages");
    let v = data(BLOCK, 11);
    let uniforms: Vec<f32> = data(BLOCK, 12).iter().map(|u| (u + 1.0) * 0.5).collect();

    g.bench_function(BenchmarkId::new("fwht", BLOCK), |b| {
        let mut x = v.clone();
        b.iter(|| fwht(black_box(&mut x)))
    });
    g.bench_function(BenchmarkId::new("quantize_q4", BLOCK), |b| {
        let mut lanes = vec![0i32; BLOCK];
        b.iter(|| quantize_stochastic(black_box(&v), &uniforms, 1.0, 7, &mut lanes))
    });
    g.bench_function(BenchmarkId::new("draw_quantize_pack_q4", BLOCK), |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut packed = PackedIntVec::zeros(4, BLOCK);
        let (mut us, mut lanes) = ([0.0f32; 64], [0i32; 64]);
        b.iter(|| {
            let mut writer = packed.writer();
            for xs in black_box(&v).chunks(64) {
                us.fill_with(|| rng.gen::<f32>());
                quantize_stochastic(xs, &us, 1.0, 7, &mut lanes);
                writer.push(&lanes);
            }
            writer.finish();
        })
    });
    for q in [4u32, 8, 9] {
        let max = (1i32 << (q - 1)) - 1;
        let lanes = |seed| -> Vec<i32> {
            data(BLOCK, seed)
                .iter()
                .map(|x| (x * max as f32) as i32)
                .collect()
        };
        let src = PackedIntVec::from_signed(q, &lanes(14));
        let mut acc = PackedIntVec::from_signed(q, &lanes(15));
        g.bench_function(BenchmarkId::new(format!("sat_fold_q{q}"), BLOCK), |b| {
            b.iter(|| {
                acc.fold_lanes(
                    LaneAdd::Saturating,
                    0,
                    BLOCK,
                    black_box(&src).covering_words(0, BLOCK),
                )
            })
        });
        g.bench_function(BenchmarkId::new(format!("unpack_q{q}"), BLOCK), |b| {
            let mut out = vec![0i32; BLOCK];
            b.iter(|| black_box(&src).unpack_into(0, &mut out))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_thc_stages,
    bench_fwht,
    bench_selection,
    bench_gram_schmidt,
    bench_ring_all_reduce,
    bench_parallel_runtime,
    bench_nn_layers
);
criterion_main!(benches);
