//! Serial-vs-parallel wall time for the hot paths behind `msvs-par`: a
//! full 1000-user reservation interval, one prediction pass, CNN
//! training, batched CNN encoding, the tiled silhouette kernel and the
//! pool's own per-call overhead. Seeded runs are
//! bit-identical at any thread count, so these benches measure pure
//! wall-time — the speedup is hardware-dependent (single-core machines
//! show ~1×).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use msvs_bench::archetype_features;
use msvs_channel::Link;
use msvs_core::{CnnCompressor, CompressorConfig, DtAssistedPredictor, SchemeConfig};
use msvs_edge::{EdgeServer, TranscodeModel};
use msvs_par::Pool;
use msvs_sim::{Simulation, SimulationConfig};
use msvs_types::SimDuration;
use msvs_udt::FeatureWindow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A 1000-user scenario trimmed to one cheap scored interval so the
/// per-sample setup (construction + warm-up) stays tractable.
fn thousand_user_config(threads: usize) -> SimulationConfig {
    let mut scheme = SchemeConfig::default();
    scheme.compressor.window = 16;
    scheme.compressor.epochs = 5;
    scheme.demand.interval = SimDuration::from_mins(2);
    SimulationConfig::builder()
        .users(1000)
        .intervals(1)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(scheme)
        .pretrain_rounds(0)
        .threads(threads)
        .seed(11)
        .build()
        .expect("bench scenario is valid")
}

fn synthetic_windows(n: usize, seed: u64) -> Vec<FeatureWindow> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let series = (0..4)
                .map(|_| (0..16).map(|_| rng.gen::<f32>()).collect())
                .collect();
            FeatureWindow {
                series,
                preference: vec![0.125; 8],
            }
        })
        .collect()
}

fn bench_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_1000u");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter_with_setup(
                    || {
                        let mut sim = Simulation::new(thousand_user_config(threads))
                            .expect("scenario builds");
                        sim.warm_up().expect("warm-up runs");
                        sim
                    },
                    |mut sim| sim.run_interval(0).expect("interval runs"),
                )
            },
        );
    }
    group.finish();
}

/// One prediction pass (fused feature extraction and CNN encode,
/// grouping, then the per-group swiping and demand pass) over the twins
/// of a warmed 1000-user scenario, at the serial pool and the two-worker
/// pool the repository benchmark configures.
fn bench_predict(c: &mut Criterion) {
    let config = thousand_user_config(1);
    let mut sim = Simulation::new(config.clone()).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    let edge = EdgeServer::new(config.edge, sim.catalog());
    let transcode = TranscodeModel::default();
    let link = Link::new(config.link);
    let mut group = c.benchmark_group("predict_1000");
    for threads in [1, 2] {
        let mut predictor = DtAssistedPredictor::new(SchemeConfig {
            threads,
            ..config.scheme.clone()
        })
        .expect("scheme config is valid");
        let mut predict = || {
            predictor
                .predict(
                    sim.store().twins(),
                    sim.catalog(),
                    edge.cache(),
                    &transcode,
                    &link,
                )
                .expect("prediction runs")
        };
        // The first pass trains the compressor; time the frozen passes.
        predict();
        group.bench_function(BenchmarkId::from_parameter(threads), |b| {
            b.iter(&mut predict)
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let windows = synthetic_windows(1000, 3);
    let mut comp = CnnCompressor::new(CompressorConfig {
        window: 16,
        epochs: 3,
        ..Default::default()
    })
    .expect("compressor config is valid");
    comp.train(&windows[..64]).expect("training runs");
    comp.freeze();
    let mut group = c.benchmark_group("cnn_encode_1000w");
    for threads in THREAD_COUNTS {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter(|| comp.encode_with(&windows, pool).expect("encode runs"));
        });
    }
    group.finish();
}

/// Full-batch CNN training on 1000 windows with the repository
/// benchmark's compressor (window 16, 10 epochs), at the serial pool and
/// the two-worker pool it configures.
fn bench_train(c: &mut Criterion) {
    let windows = synthetic_windows(1000, 5);
    let config = CompressorConfig {
        window: 16,
        epochs: 10,
        ..Default::default()
    };
    let mut group = c.benchmark_group("cnn_train_1000");
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter_with_setup(
                || CnnCompressor::new(config).expect("compressor config is valid"),
                |mut comp| comp.train_with(&windows, pool).expect("training runs"),
            )
        });
    }
    group.finish();
}

/// The per-interval silhouette of 1000 users at the two-worker pool the
/// repository benchmark configures.
fn bench_silhouette(c: &mut Criterion) {
    let points = archetype_features(5, 200, 0.6, 7);
    let fit = msvs_cluster::KMeans::new(msvs_cluster::KMeansConfig {
        k: 5,
        seed: 5,
        ..Default::default()
    })
    .fit(&points)
    .expect("fit converges");
    let mut group = c.benchmark_group("silhouette_1000");
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter(|| msvs_cluster::silhouette_sampled_with(&points, &fit.assignments, 0, pool));
        });
    }
    group.finish();
}

/// The pool's own cost per call: `for_each_mut` over 8 trivial items,
/// on the caller's thread alone and at the two-worker pool the repository
/// benchmark configures.
fn bench_pool_call(c: &mut Criterion) {
    let mut items = [0u64; 8];
    let mut group = c.benchmark_group("pool_call");
    for threads in [1, 2] {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &pool, |b, pool| {
            b.iter(|| pool.for_each_mut(black_box(&mut items), |i, x| *x += i as u64));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_interval, bench_predict, bench_train, bench_encode, bench_silhouette,
        bench_pool_call
}
criterion_main!(benches);
