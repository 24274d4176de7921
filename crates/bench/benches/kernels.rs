//! Compute-kernel microbenches: the allocation-free inference path
//! (im2col conv + cache-blocked GEMM through a reusable scratch arena)
//! against the allocating `infer`, and bounded (Hamerly) versus plain
//! Lloyd K-means fits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msvs_bench::archetype_features;
use msvs_cluster::{KMeans, KMeansConfig};
use msvs_nn::{kernels, Conv1d, Dense, Flatten, Layer, Relu, Scratch, Sequential, Tensor};
use std::hint::black_box;

fn encoder(window: usize) -> Sequential {
    let conv1 = Conv1d::new(4, 8, 3, 2, 1);
    let l1 = conv1.out_len(window).expect("window fits");
    let conv2 = Conv1d::new(8, 8, 3, 2, 2);
    let l2 = conv2.out_len(l1).expect("window fits");
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(conv1),
        Box::new(Relu::new()),
        Box::new(conv2),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(8 * l2, 8, 3)),
    ];
    Sequential::new(layers)
}

fn batch(n: usize, window: usize) -> Tensor {
    Tensor::from_vec(
        (0..n * 4 * window)
            .map(|i| (i % 97) as f32 / 97.0)
            .collect(),
        vec![n, 4, window],
    )
    .expect("shape matches")
}

/// Steady-state inference through a reused scratch arena (zero heap
/// allocations per call) versus `infer`, which builds a fresh arena and
/// output tensor per call.
fn bench_infer_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cnn_infer");
    for &n in &[32usize, 128, 512] {
        let net = encoder(32);
        let x = batch(n, 32);
        group.bench_with_input(BenchmarkId::new("alloc", n), &n, |b, _| {
            b.iter(|| net.infer(black_box(&x)))
        });
        let mut scratch = Scratch::new();
        group.bench_with_input(BenchmarkId::new("scratch", n), &n, |b, _| {
            b.iter(|| {
                let (out, shape) = net.infer_scratch(black_box(&x), &mut scratch);
                black_box((out[0], shape.len()))
            })
        });
    }
    group.finish();
}

/// The cache-blocked zero-skip GEMM behind `Dense` inference.
fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &(m, k, n) in &[(64usize, 64usize, 64usize), (256, 128, 64), (512, 56, 8)] {
        let a: Vec<f32> = (0..m * k).map(|i| (i % 89) as f32 / 89.0).collect();
        let b_mat: Vec<f32> = (0..k * n).map(|i| (i % 83) as f32 / 83.0).collect();
        let mut out = vec![0.0f32; m * n];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(m, k, n),
            |bch, _| {
                bch.iter(|| {
                    kernels::gemm_zero_skip(black_box(&a), black_box(&b_mat), &mut out, m, k, n);
                    black_box(out[0])
                })
            },
        );
    }
    group.finish();
}

/// Hamerly-bounded fit against the plain Lloyd sweep on the same blobs:
/// identical results, fewer distance evaluations per round.
fn bench_bounded_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_bounded");
    for &n_per in &[100usize, 400] {
        let features = archetype_features(5, n_per, 0.4, 7);
        for bounded in [false, true] {
            let label = if bounded { "bounded" } else { "plain" };
            group.bench_with_input(
                BenchmarkId::new(label, features.len()),
                &features,
                |b, feats| {
                    b.iter(|| {
                        KMeans::new(KMeansConfig {
                            k: 5,
                            seed: 1,
                            bounded,
                            ..Default::default()
                        })
                        .fit(black_box(feats))
                        .expect("fit succeeds")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_infer_scratch, bench_gemm, bench_bounded_kmeans
}
criterion_main!(benches);
