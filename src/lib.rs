//! # msvs — digital twin-assisted multicast short video streaming
//!
//! A full Rust reproduction of *"Digital Twin-Assisted Resource Demand
//! Prediction for Multicast Short Video Streaming"* (Huang, Wu & Shen,
//! ICDCS 2023): user digital twins at the edge, 1D-CNN feature
//! compression, DDQN + K-means++ multicast group construction, swiping
//! probability abstraction, and per-group radio/computing resource demand
//! prediction — plus every substrate the scheme stands on (neural nets,
//! DDQN, clustering, mobility, wireless channel, a synthetic short-video
//! dataset, the twin store, and an edge cache/transcoder).
//!
//! This facade crate re-exports the workspace members under stable module
//! names so applications depend on one crate.
//!
//! # Quickstart
//!
//! ```
//! use msvs::sim::{Simulation, SimulationConfig};
//! use msvs::types::SimDuration;
//!
//! let mut scheme = msvs::core::SchemeConfig::default();
//! scheme.demand.interval = SimDuration::from_mins(2);
//! let report = Simulation::run(SimulationConfig {
//!     n_users: 24,
//!     n_intervals: 1,
//!     warmup_intervals: 1,
//!     interval: SimDuration::from_mins(2),
//!     pretrain_rounds: 10,
//!     scheme,
//!     seed: 1,
//!     ..Default::default()
//! })?;
//! assert_eq!(report.intervals.len(), 1);
//! # Ok::<(), msvs::types::Error>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and
//! `crates/bench/src/bin/` for the harnesses that regenerate the paper's
//! figures.

/// Shared identifiers, units and samplers ([`msvs_types`]).
pub use msvs_types as types;

/// Zero-dependency scoped worker pool (deterministic parallel execution).
pub use msvs_par as par;

/// Neural-network substrate ([`msvs_nn`]).
pub use msvs_nn as nn;

/// DDQN reinforcement learning ([`msvs_rl`]).
pub use msvs_rl as rl;

/// K-means++ clustering ([`msvs_cluster`]).
pub use msvs_cluster as cluster;

/// Campus mobility models ([`msvs_mobility`]).
pub use msvs_mobility as mobility;

/// Wireless channel models ([`msvs_channel`]).
pub use msvs_channel as channel;

/// Synthetic short-video dataset ([`msvs_video`]).
pub use msvs_video as video;

/// User digital twins ([`msvs_udt`]).
pub use msvs_udt as udt;

/// Edge cache and transcoder ([`msvs_edge`]).
pub use msvs_edge as edge;

/// The paper's prediction scheme ([`msvs_core`]).
pub use msvs_core as core;

/// Multi-BS sharded deployment: shard ownership of twins, handover by
/// relabelling, crash failover, shard checkpoints and the global
/// reservation aggregator ([`msvs_shard`]).
pub use msvs_shard as shard;

/// End-to-end simulator ([`msvs_sim`]).
pub use msvs_sim as sim;

/// Metrics, stage spans and the event journal
/// ([`msvs_telemetry`]).
pub use msvs_telemetry as telemetry;

/// Seeded, deterministic fault injection for the UDT uplink
/// ([`msvs_faults`]).
pub use msvs_faults as faults;
