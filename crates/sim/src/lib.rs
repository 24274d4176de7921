//! End-to-end multicast short-video streaming simulator.
//!
//! Reproduces the paper's evaluation loop: users move across the Waterloo
//! campus, base stations collect status into user digital twins at
//! per-attribute frequencies, and every reservation interval (5 minutes in
//! the paper) the DT-assisted scheme predicts each multicast group's radio
//! and computing demand. The simulator then plays the interval out — group
//! feeds, individual swipes, multicast transmission, edge transcoding —
//! measures the *actual* demand, and scores the prediction.
//!
//! # Examples
//!
//! ```no_run
//! use msvs_sim::{Simulation, SimulationConfig};
//!
//! let report = Simulation::run(SimulationConfig {
//!     n_users: 60,
//!     n_intervals: 6,
//!     seed: 7,
//!     ..Default::default()
//! }).unwrap();
//! println!("radio accuracy: {:.2}%", 100.0 * report.mean_radio_accuracy());
//! ```

pub mod bench;
pub mod config;
pub mod metrics;
pub mod report;
pub mod runner;

pub use bench::{
    bench_backend_name, peak_rss_kb, run_bench, validate_bench_json, BenchOptions, BENCH_SCHEMA,
};
pub use config::{
    DemandPredictorKind, MobilityMix, SimulationConfig, SimulationConfigBuilder, SHARDS_ENV,
    THREADS_ENV,
};
pub use metrics::{IntervalRecord, SimulationReport};
pub use report::{format_table, to_csv};
pub use runner::Simulation;
