//! Fault-plane overhead: a no-op plan must cost the same as no plan at
//! all (the runner filters inactive plans out before the hot loop), an
//! active plan's per-report fate lookup must stay in the nanosecond
//! range, and a hostile plan bounds the worst-case end-to-end slowdown.

use criterion::{criterion_group, criterion_main, Criterion};
use msvs_faults::{DelaySpec, FaultInjector, FaultPlan};
use msvs_sim::{Simulation, SimulationConfig};
use msvs_types::SimDuration;
use msvs_udt::Attribute;
use std::hint::black_box;

fn small_scheme() -> msvs_core::SchemeConfig {
    let mut scheme = msvs_core::SchemeConfig {
        compressor: msvs_core::CompressorConfig {
            window: 16,
            epochs: 10,
            ..Default::default()
        },
        grouping: msvs_core::GroupingConfig {
            k_min: 2,
            k_max: 5,
            ..Default::default()
        },
        ..Default::default()
    };
    scheme.demand.interval = SimDuration::from_mins(2);
    scheme
}

fn small_config(faults: Option<FaultPlan>) -> SimulationConfig {
    let mut cfg = SimulationConfig::builder()
        .users(24)
        .intervals(1)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(1)
        .seed(17)
        .build()
        .expect("bench config is valid");
    cfg.faults = faults;
    cfg
}

fn active_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA_17,
        uplink_loss: 0.30,
        delay: DelaySpec {
            probability: 0.10,
            max_ticks: 2,
        },
        corruption: 0.05,
        ..FaultPlan::none()
    }
}

/// Per-report fate lookup — the only code an active plan adds to every
/// uplink report in the collection hot loop.
fn bench_fate_lookup(c: &mut Criterion) {
    let plan = active_plan();
    let injector = FaultInjector::new(&plan, 42);
    let mut t = 0u64;
    c.bench_function("fault_fate_lookup", |b| {
        b.iter(|| {
            t = t.wrapping_add(5_000);
            injector.fate(
                black_box((t % 128) as u32),
                black_box(t),
                Attribute::Channel,
            )
        })
    });
}

/// End-to-end interval cost with no plan, a filtered-out no-op plan, and
/// an active hostile plan. The first two must be indistinguishable.
fn bench_sim_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_overhead");
    group.sample_size(10);
    group.bench_function("clean", |b| {
        b.iter(|| Simulation::run(small_config(None)).expect("clean run"))
    });
    group.bench_function("noop_plan", |b| {
        b.iter(|| Simulation::run(small_config(Some(FaultPlan::none()))).expect("noop run"))
    });
    group.bench_function("active_plan", |b| {
        b.iter(|| Simulation::run(small_config(Some(active_plan()))).expect("faulted run"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fate_lookup, bench_sim_overhead
}
criterion_main!(benches);
