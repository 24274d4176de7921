//! 1D-CNN throughput: forward and forward+backward passes of the twin
//! compressor's encoder over a user batch, and one whole autoencoder
//! training epoch at the end-to-end benchmark's shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msvs_core::{CnnCompressor, CompressorConfig};
use msvs_nn::{mse_loss, Conv1d, Dense, Flatten, Layer, Relu, Sequential, Tensor};
use msvs_udt::FeatureWindow;
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

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("cnn_encode_forward");
    for &n in &[32usize, 128, 512] {
        let net = encoder(32);
        let x = batch(n, 32);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| net.infer(black_box(&x)))
        });
    }
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let mut net = encoder(32);
    let x = batch(64, 32);
    let target = Tensor::zeros(vec![64, 8]);
    c.bench_function("cnn_train_step_64", |b| {
        b.iter(|| {
            let out = net.forward_train(black_box(&x));
            let (_, grad) = mse_loss(&out, &target);
            net.zero_grad();
            net.backward_params(&grad)
        })
    });
}

/// One `CnnCompressor::train` epoch over 1,000 users' 4 × 16 windows:
/// encoder and decoder forward, MSE, both backward passes (the encoder's
/// first layer skips its input gradient) and both Adam steps.
fn bench_autoencoder_epoch(c: &mut Criterion) {
    let windows: Vec<FeatureWindow> = (0..1000)
        .map(|u| FeatureWindow {
            series: (0..4)
                .map(|ch| {
                    (0..16)
                        .map(|t| ((u * 7 + ch * 5 + t * 3) % 23) as f32 / 23.0)
                        .collect()
                })
                .collect(),
            preference: vec![0.125; 8],
        })
        .collect();
    let mut compressor = CnnCompressor::new(CompressorConfig {
        window: 16,
        epochs: 1,
        ..Default::default()
    })
    .expect("valid config");
    c.bench_function("compressor_epoch_1000x4x16", |b| {
        b.iter(|| compressor.train(black_box(&windows)).expect("trains"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_forward, bench_train_step, bench_autoencoder_epoch
}
criterion_main!(benches);
