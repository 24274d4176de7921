//! Quickstart: run a small campus scenario end-to-end and print the
//! per-interval prediction scorecard.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use msvs::sim::{report, Simulation, SimulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 60-user campus, 8 scored 5-minute reservation intervals.
    let config = SimulationConfig {
        n_users: 60,
        n_intervals: 8,
        warmup_intervals: 2,
        seed: 7,
        ..Default::default()
    };
    println!(
        "simulating {} users, {} x {} intervals (+{} warm-up)...\n",
        config.n_users, config.n_intervals, config.interval, config.warmup_intervals
    );
    let t0 = std::time::Instant::now();
    let mut sim = Simulation::new(config)?;
    let result = sim.run_schedule()?;
    println!(
        "{}",
        report::interval_table(&sim.telemetry().journal().entries())
    );
    println!(
        "radio demand prediction accuracy : {:.2}% (paper reports 95.04%)",
        100.0 * result.mean_radio_accuracy()
    );
    println!(
        "computing demand accuracy        : {:.2}%",
        100.0 * result.mean_computing_accuracy()
    );
    println!(
        "multicast saving vs unicast      : {:.1}%",
        100.0 * result.mean_multicast_saving()
    );
    println!(
        "mean grouping: K = {:.1}, silhouette = {:.3}, predict = {:.1} ms",
        result.mean_k(),
        result.mean_silhouette(),
        result.mean_predict_wall_ms()
    );
    println!("\ntotal wall time: {:.2} s", t0.elapsed().as_secs_f64());
    Ok(())
}
