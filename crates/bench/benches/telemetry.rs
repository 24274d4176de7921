//! Telemetry hot-path overhead: counter increments and stage spans must
//! stay cheap enough to leave inside the simulation loop (target: well
//! under 50 ns per counter operation on the pre-resolved handles).

use criterion::{criterion_group, criterion_main, Criterion};
use msvs_telemetry::{stages, Registry, Telemetry};
use std::hint::black_box;

fn bench_counter(c: &mut Criterion) {
    let registry = Registry::new();
    let counter = registry.counter("bench_ops", "hot");
    c.bench_function("counter_inc", |b| b.iter(|| black_box(&counter).inc()));
    let gauge = registry.gauge("bench_gauge", "hot");
    c.bench_function("gauge_set", |b| {
        b.iter(|| black_box(&gauge).set(black_box(42.0)))
    });
}

/// Spans accumulate in the collector, so each sample opens and closes a
/// fixed batch on a fresh handle instead of growing one without bound.
fn bench_stage_scope(c: &mut Criterion) {
    const BATCH: usize = 1_000;
    c.bench_function("stage_scope_start_stop_x1000", |b| {
        b.iter_with_setup(Telemetry::new, |telemetry| {
            for _ in 0..BATCH {
                black_box(telemetry.stage_scope(stages::KMEANS_FIT).stop());
            }
            telemetry
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_counter, bench_stage_scope
}
criterion_main!(benches);
