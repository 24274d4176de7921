//! User digital twin (UDT) substrate.
//!
//! UDTs live on the edge server and mirror each user's status — channel
//! condition, location, watching duration, preference — as time series
//! collected by base stations at *per-attribute frequencies* (the paper's
//! "different data attributes are collected with different frequencies").
//!
//! - [`attribute`] — bounded time series with staleness tracking;
//! - [`twin`] — the per-user twin and its feature-window extraction for
//!   the 1D-CNN compressor;
//! - [`sync`] — collection policies (per-attribute periods) and their
//!   signalling cost;
//! - [`store`] — the edge-resident registry of twins, ordered by user id.
//!
//! # Examples
//!
//! ```
//! use msvs_udt::{UserDigitalTwin, UdtStore};
//! use msvs_types::{UserId, SimTime, Position};
//!
//! let mut store = UdtStore::new();
//! store.insert(UserDigitalTwin::new(UserId(3)));
//! store.with_twin_mut(UserId(3), |t| {
//!     t.update_channel(SimTime::from_secs(1), 17.0);
//!     t.update_location(SimTime::from_secs(1), Position::new(100.0, 250.0));
//! }).unwrap();
//! let snr = store.with_twin(UserId(3), |t| t.latest_snr_db()).unwrap();
//! assert_eq!(snr, Some(17.0));
//! ```

pub mod attribute;
pub mod store;
pub mod sync;
pub mod twin;

pub use attribute::{TimeSeries, WatchRecord};
pub use store::{TwinView, UdtStore};
pub use sync::{Attribute, CollectionPolicy, RetryPolicy, SyncTracker};
pub use twin::{FeatureWindow, TwinReports, TwinRevision, UserDigitalTwin};
