//! DDQN costs: greedy inference (per-interval K decision) and one
//! observe+train step (online learning).

use criterion::{criterion_group, criterion_main, Criterion};
use msvs_rl::{DdqnAgent, DdqnConfig, Transition};
use std::hint::black_box;

fn agent() -> DdqnAgent {
    DdqnAgent::new(DdqnConfig {
        state_dim: 19,
        action_count: 11,
        hidden: vec![64, 32],
        min_replay: 32,
        batch_size: 32,
        seed: 5,
        ..Default::default()
    })
    .expect("valid config")
}

fn bench_inference(c: &mut Criterion) {
    let mut a = agent();
    let state = vec![0.05f32; 19];
    c.bench_function("ddqn_act_greedy", |b| {
        b.iter(|| a.act_greedy(black_box(&state)))
    });
}

/// One observe + 32-transition train step, first over an all-terminal
/// replay (grouping's case: no next-state passes run), then over one
/// where every transition bootstraps (both next-state passes run).
fn bench_observe_train(c: &mut Criterion) {
    for (name, done) in [
        ("ddqn_observe_train_all_terminal_32", true),
        ("ddqn_observe_train_bootstrapped_32", false),
    ] {
        let mut a = agent();
        // Warm the replay buffer so every observe triggers a train step.
        for i in 0..64 {
            a.observe(Transition {
                state: vec![(i % 7) as f32 * 0.1; 19],
                action: i % 11,
                reward: 0.5,
                next_state: vec![(i % 5) as f32 * 0.1; 19],
                done,
            });
        }
        c.bench_function(name, |b| {
            b.iter(|| {
                a.observe(black_box(Transition {
                    state: vec![0.1; 19],
                    action: 3,
                    reward: 0.7,
                    next_state: vec![0.2; 19],
                    done,
                }))
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_inference, bench_observe_train
}
criterion_main!(benches);
