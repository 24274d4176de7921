//! Multi-BS sharded deployment of the DT-assisted pipeline.
//!
//! The paper models a single edge server; its successor ("Digital Twin
//! Based User-Centric Resource Management for Multicast Short Video
//! Streaming", arXiv 2308.08995) is explicitly multi-BS: users roam
//! across cells and each twin's owning base station follows them. This
//! crate models that ownership while keeping every twin in one store and
//! the *control plane* (grouping, demand prediction, reservation
//! scoring) global, so a sharded run produces a bit-identical
//! `SimulationReport` at any shard count:
//!
//! - [`ShardRouter`] maps positions to shards deterministically via the
//!   nearest base station;
//! - [`ShardCoordinator`] owns the one [`msvs_udt::UdtStore`] and an
//!   owner label per user, hands the store itself to readers and
//!   writers, and runs the serial handover sweep and the outage lifecycle — a handover or a
//!   crash failover relabels a user and never moves its twin, and the
//!   users' uplink sync state stays with the caller;
//! - [`ShardCheckpoint`] snapshots one shard's users at an interval
//!   boundary under a versioned schema (`msvs checkpoint` writes and
//!   restores it; the outage path captures none);
//! - [`ReservationAggregator`] folds per-group demand predictions into
//!   per-shard rows that sum back to the global reservation totals.

pub mod aggregate;
pub mod checkpoint;
pub mod coordinator;
pub mod router;

pub use aggregate::{ReservationAggregator, ShardDemandRow, ShardSummary};
pub use checkpoint::{CheckpointEntry, ShardCheckpoint, CHECKPOINT_SCHEMA};
pub use coordinator::{OutagePhase, OutageTransition, ShardCoordinator};
pub use router::ShardRouter;
