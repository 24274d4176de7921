//! Shared vocabulary for the `msvs` workspace.
//!
//! This crate defines the identifiers, physical units, video categories,
//! geometric primitives, simulation clock, and statistical samplers used by
//! every other crate in the workspace. Everything here is plain data:
//! deterministic, serializable, and free of I/O.
//!
//! # Examples
//!
//! ```
//! use msvs_types::{UserId, Mbps, VideoCategory};
//!
//! let user = UserId(7);
//! let rate = Mbps(2.5);
//! assert_eq!(rate.as_bits_per_sec(), 2_500_000.0);
//! assert_eq!(VideoCategory::ALL.len(), 8);
//! println!("{user} watches {:?} at {rate}", VideoCategory::News);
//! ```

pub mod error;
pub mod ids;
pub mod position;
pub mod stats;
pub mod time;
pub mod units;
pub mod video;

pub use error::{Error, Result};
pub use ids::{BsId, GroupId, SegmentId, UserId, VideoId};
pub use position::Position;
pub use time::{SimDuration, SimTime};
pub use units::{CpuCycles, Hertz, Mbps, Meters, ResourceBlocks, Watts};
pub use video::{Representation, RepresentationLevel, VideoCategory};

/// Most base-station shards one deployment may run; shard ids lie in
/// `0..MAX_SHARDS`. An input bound: `SimulationConfig::validate` and the
/// checkpoint decoder reject shard counts and ids past it.
pub const MAX_SHARDS: usize = 1024;
