//! Bounded, timestamped attribute series.

use msvs_types::{RepresentationLevel, SimDuration, SimTime, VideoCategory, VideoId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// A bounded time series of `(timestamp, value)` samples.
///
/// Old samples are evicted once `capacity` is reached, mirroring the
/// fixed storage budget a real edge-resident twin would have.
///
/// Storage is copy-on-write: a clone shares the samples with its source
/// until either side is next mutated, so snapshotting a twin costs a
/// pointer bump per series instead of a copy of its history. Clones keep
/// value semantics — a held clone never sees later pushes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries<T> {
    samples: Arc<VecDeque<(SimTime, T)>>,
    capacity: usize,
}

impl<T> TimeSeries<T> {
    /// Builds an empty series bounded to `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be positive");
        Self {
            samples: Arc::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&(SimTime, T)> {
        self.samples.back()
    }

    /// Timestamp of the most recent sample.
    pub fn last_updated(&self) -> Option<SimTime> {
        self.samples.back().map(|(t, _)| *t)
    }

    /// Age of the newest sample relative to `now` (staleness).
    pub fn staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.last_updated().map(|t| now.since(t))
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.samples.iter()
    }

    /// The last `n` values (oldest → newest); shorter if fewer exist.
    pub fn tail(&self, n: usize) -> Vec<&T> {
        let skip = self.samples.len().saturating_sub(n);
        self.samples.iter().skip(skip).map(|(_, v)| v).collect()
    }

    /// Values sampled at or after `since` (oldest → newest).
    pub fn since(&self, since: SimTime) -> Vec<&T> {
        self.samples
            .iter()
            .filter(|(t, _)| *t >= since)
            .map(|(_, v)| v)
            .collect()
    }

    /// Whether `self` and `other` share one sample buffer.
    #[cfg(test)]
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.samples, &other.samples)
    }
}

impl<T: Clone> TimeSeries<T> {
    /// Appends a sample, evicting the oldest when full. Copies the
    /// samples first if a clone still shares them.
    ///
    /// Samples are expected in non-decreasing time order; out-of-order
    /// pushes are accepted but `latest` then reflects insertion order.
    pub fn push(&mut self, at: SimTime, value: T) {
        let samples = Arc::make_mut(&mut self.samples);
        if samples.len() == self.capacity {
            samples.pop_front();
        }
        samples.push_back((at, value));
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        Arc::make_mut(&mut self.samples).clear();
    }
}

/// One completed or swiped-away video view, as reported by a base station.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchRecord {
    /// The video watched.
    pub video: VideoId,
    /// Its category.
    pub category: VideoCategory,
    /// Representation level streamed.
    pub level: RepresentationLevel,
    /// Time actually watched.
    pub watched: SimDuration,
    /// Full length of the video.
    pub video_duration: SimDuration,
    /// Whether playback reached the end.
    pub completed: bool,
}

impl WatchRecord {
    /// Fraction of the video watched, in `[0, 1]`.
    pub fn retention(&self) -> f64 {
        if self.video_duration == SimDuration::ZERO {
            return 0.0;
        }
        (self.watched.as_secs_f64() / self.video_duration.as_secs_f64()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_oldest() {
        let mut ts = TimeSeries::new(3);
        for i in 0..5u64 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(ts.len(), 3);
        let vals: Vec<f64> = ts.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn staleness_tracks_now() {
        let mut ts = TimeSeries::new(4);
        assert_eq!(ts.staleness(SimTime::from_secs(5)), None);
        ts.push(SimTime::from_secs(3), 1.0);
        assert_eq!(
            ts.staleness(SimTime::from_secs(10)),
            Some(SimDuration::from_secs(7))
        );
    }

    #[test]
    fn tail_and_since() {
        let mut ts = TimeSeries::new(10);
        for i in 0..6u64 {
            ts.push(SimTime::from_secs(i), i as i32);
        }
        assert_eq!(ts.tail(2), vec![&4, &5]);
        assert_eq!(ts.tail(100).len(), 6);
        assert_eq!(ts.since(SimTime::from_secs(4)), vec![&4, &5]);
        assert!(ts.since(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn latest_and_clear() {
        let mut ts = TimeSeries::new(2);
        ts.push(SimTime::from_secs(1), "a");
        ts.push(SimTime::from_secs(2), "b");
        assert_eq!(ts.latest(), Some(&(SimTime::from_secs(2), "b")));
        ts.clear();
        assert!(ts.is_empty());
        assert_eq!(ts.capacity(), 2);
    }

    #[test]
    fn clones_share_storage_until_the_first_push() {
        let mut ts = TimeSeries::new(3);
        for i in 0..3u64 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        let held = ts.clone();
        assert!(held.shares_storage_with(&ts), "a clone is a pointer bump");
        assert_eq!(held, ts);
        ts.push(SimTime::from_secs(3), 3.0);
        assert!(!held.shares_storage_with(&ts), "the push copied");
        let vals = |s: &TimeSeries<f64>| s.iter().map(|(_, v)| *v).collect::<Vec<_>>();
        assert_eq!(
            vals(&held),
            vec![0.0, 1.0, 2.0],
            "the clone keeps its values"
        );
        assert_eq!(vals(&ts), vec![1.0, 2.0, 3.0]);
        // A sole owner mutates in place; clearing one side leaves the
        // other intact.
        let again = ts.clone();
        ts.clear();
        assert!(ts.is_empty());
        assert_eq!(vals(&again), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn watch_record_retention_clamps() {
        let r = WatchRecord {
            video: VideoId(0),
            category: VideoCategory::News,
            level: RepresentationLevel::P720,
            watched: SimDuration::from_secs(30),
            video_duration: SimDuration::from_secs(20),
            completed: true,
        };
        assert_eq!(r.retention(), 1.0);
        let zero = WatchRecord {
            video_duration: SimDuration::ZERO,
            ..r
        };
        assert_eq!(zero.retention(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: TimeSeries<f64> = TimeSeries::new(0);
    }
}
