//! Swiping-abstraction costs: Kaplan–Meier fitting, tabulating a group
//! size's expected-max curve, and the expectation queries the demand
//! predictor issues per recommended video (one-off and tabulated).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msvs_core::SwipingAbstraction;
use msvs_types::{RepresentationLevel, SimDuration, VideoCategory, VideoId};
use msvs_udt::WatchRecord;
use std::hint::black_box;

/// `samples` watch records with distinct millisecond durations, so the
/// curve has one breakpoint per swipe, as with real twin histories.
fn abstraction(samples: usize) -> SwipingAbstraction {
    let records: Vec<WatchRecord> = (0..samples)
        .map(|i| WatchRecord {
            video: VideoId(0),
            category: VideoCategory::Music,
            level: RepresentationLevel::P720,
            watched: SimDuration::from_millis(500 + (i as u64 * 7_919) % 54_500),
            video_duration: SimDuration::from_secs(55),
            completed: i % 5 == 0,
        })
        .collect();
    SwipingAbstraction::from_records(records.iter())
}

fn bench_expected_max(c: &mut Criterion) {
    let mut group = c.benchmark_group("swiping_expected_max");
    for &n_samples in &[128usize, 1024, 2048] {
        let s = abstraction(n_samples);
        group.bench_with_input(BenchmarkId::from_parameter(n_samples), &s, |b, s| {
            b.iter(|| {
                s.expected_max_engagement(
                    black_box(VideoCategory::Music),
                    black_box(24),
                    black_box(SimDuration::from_secs(40)),
                )
            })
        });
    }
    group.finish();
}

fn bench_max_table_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("swiping_max_table_build");
    for &n_samples in &[128usize, 1024, 2048] {
        let s = abstraction(n_samples);
        group.bench_with_input(BenchmarkId::from_parameter(n_samples), &s, |b, s| {
            b.iter(|| s.max_engagement(black_box(VideoCategory::Music), black_box(24)))
        });
    }
    group.finish();
}

fn bench_max_table_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("swiping_max_table_query");
    for &n_samples in &[128usize, 1024, 2048] {
        let table = abstraction(n_samples).max_engagement(VideoCategory::Music, 24);
        group.bench_with_input(BenchmarkId::from_parameter(n_samples), &table, |b, t| {
            b.iter(|| t.expected(black_box(SimDuration::from_secs(40))))
        });
    }
    group.finish();
}

fn bench_cdf_eval(c: &mut Criterion) {
    let s = abstraction(2048);
    c.bench_function("swiping_cdf_eval", |b| {
        b.iter(|| s.cumulative_probability(black_box(VideoCategory::Music), black_box(12.5)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_expected_max, bench_max_table_build, bench_max_table_query, bench_cdf_eval
}
criterion_main!(benches);
