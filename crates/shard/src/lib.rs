//! Multi-BS sharded deployment of the DT-assisted pipeline.
//!
//! The paper models a single edge server; its successor ("Digital Twin
//! Based User-Centric Resource Management for Multicast Short Video
//! Streaming", arXiv 2308.08995) is explicitly multi-BS: users roam
//! across cells and their twins must follow. This crate partitions the
//! *data plane* per base station while keeping the *control plane*
//! (grouping, demand prediction, reservation scoring) global, so a
//! sharded run produces a bit-identical `SimulationReport` at any shard
//! count:
//!
//! - [`Shard`] owns one cell's twin registry ([`msvs_udt::UdtStore`]
//!   with a disjoint instance-nonce namespace);
//! - [`ShardRouter`] maps positions to shards deterministically via the
//!   nearest base station;
//! - [`ShardCoordinator`] mirrors the `UdtStore` write API (routed by an
//!   ownership map), merges per-shard snapshots into the canonical
//!   population view on the worker pool, and runs the serial cross-shard
//!   handover sweep — a handover never duplicates or drops a twin, and
//!   the users' uplink sync state stays with the caller;
//! - [`ReservationAggregator`] folds per-group demand predictions into
//!   per-shard rows that sum back to the global reservation totals.

pub mod aggregate;
pub mod checkpoint;
pub mod coordinator;
pub mod router;
pub mod shard;

pub use aggregate::{ReservationAggregator, ShardDemandRow, ShardSummary};
pub use checkpoint::{CheckpointEntry, ShardCheckpoint, CHECKPOINT_SCHEMA};
pub use coordinator::{OutagePhase, OutageTransition, ShardCoordinator};
pub use router::ShardRouter;
pub use shard::Shard;
