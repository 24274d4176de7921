//! UDT store throughput: single-threaded update ingestion and feature
//! window extraction (the collection and prediction hot paths), plus one
//! interval's batched ingest across a 1000-user store.

use criterion::{criterion_group, criterion_main, Criterion};
use msvs_types::{Position, SimTime, UserId};
use msvs_udt::{TwinReports, UdtStore, UserDigitalTwin};
use std::hint::black_box;

fn warm_store(n_users: u32) -> UdtStore {
    let mut store = UdtStore::new();
    for u in 0..n_users {
        let mut twin = UserDigitalTwin::new(UserId(u));
        for s in 0..64u64 {
            twin.update_channel(SimTime::from_secs(s), 12.0 + (s % 9) as f64);
            twin.update_location(SimTime::from_secs(s), Position::new(s as f64 * 3.0, 400.0));
        }
        store.insert(twin);
    }
    store
}

fn bench_channel_update(c: &mut Criterion) {
    let mut store = warm_store(128);
    let mut t = 0u64;
    c.bench_function("udt_channel_update", |b| {
        b.iter(|| {
            t += 1;
            store
                .with_twin_mut(black_box(UserId((t % 128) as u32)), |twin| {
                    twin.update_channel(SimTime(t), 14.2)
                })
                .expect("user exists")
        })
    });
}

/// One 2-minute interval at the default 5 s tick: a channel and a
/// location sample per tick, one preference refresh, in one write per
/// user, as the simulator's collect phase applies them.
fn bench_interval_batch(c: &mut Criterion) {
    const USERS: u32 = 1000;
    const TICKS: u64 = 24;
    let mut store = warm_store(USERS);
    let outboxes: Vec<TwinReports> = (0..USERS)
        .map(|u| {
            let mut reports = TwinReports::default();
            for s in 0..TICKS {
                let t = SimTime::from_secs(100 + 5 * s);
                reports.channel(t, 8.0 + f64::from(u % 7) + (s % 5) as f64);
                reports.location(t, Position::new(s as f64 * 2.0, f64::from(u)));
            }
            reports.refresh_preference(SimTime::from_secs(100 + 5 * TICKS), 0.4);
            reports
        })
        .collect();
    c.bench_function("udt_interval_batch", |b| {
        b.iter(|| {
            for (u, reports) in outboxes.iter().enumerate() {
                store
                    .with_twin_mut(UserId(u as u32), |twin| {
                        twin.apply_reports(black_box(reports))
                    })
                    .expect("user exists");
            }
        })
    });
}

fn bench_feature_window(c: &mut Criterion) {
    let store = warm_store(128);
    c.bench_function("udt_feature_window", |b| {
        b.iter(|| {
            store
                .with_twin(black_box(UserId(7)), |twin| {
                    twin.feature_window(32, 1200.0, 1000.0)
                })
                .expect("user exists")
        })
    });
}

fn bench_snapshot(c: &mut Criterion) {
    let store = warm_store(128);
    c.bench_function("udt_snapshot_128", |b| b.iter(|| store.snapshot()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_channel_update, bench_interval_batch, bench_feature_window, bench_snapshot
}
criterion_main!(benches);
