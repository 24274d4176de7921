//! Telemetry hot-path overhead: counter increments and scoped stage
//! timers must stay cheap enough to leave inside the simulation loop
//! (target: well under 50 ns per operation on the pre-resolved handles).

use criterion::{criterion_group, criterion_main, Criterion};
use msvs_telemetry::{stages, Registry, ScopedTimer, Telemetry};
use std::hint::black_box;

fn bench_counter(c: &mut Criterion) {
    let registry = Registry::new();
    let counter = registry.counter("bench_ops", "hot");
    c.bench_function("counter_inc", |b| b.iter(|| black_box(&counter).inc()));
    let gauge = registry.gauge("bench_gauge", "hot");
    c.bench_function("gauge_set", |b| {
        b.iter(|| black_box(&gauge).set(black_box(42.0)))
    });
    let histogram = registry.histogram("bench_hist", "hot");
    c.bench_function("histogram_record", |b| {
        b.iter(|| black_box(&histogram).record(black_box(1.25)))
    });
}

fn bench_scoped_timer(c: &mut Criterion) {
    let telemetry = Telemetry::new();
    c.bench_function("scoped_timer_start_stop", |b| {
        b.iter(|| telemetry.stage_timer(stages::KMEANS_FIT).stop())
    });
    // Timing the resolution path separately: histogram lookup + RAII drop.
    let registry = Registry::new();
    let sink = registry.histogram(msvs_telemetry::STAGE_MS, stages::CNN_FORWARD);
    c.bench_function("scoped_timer_prebound", |b| {
        b.iter(|| ScopedTimer::new(black_box(sink.clone())).stop())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_counter, bench_scoped_timer
}
criterion_main!(benches);
