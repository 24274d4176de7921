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
    /// Borrows in place: no allocation, no walk over the older samples.
    pub fn tail(&self, n: usize) -> impl ExactSizeIterator<Item = &T> + DoubleEndedIterator {
        let start = self.samples.len().saturating_sub(n);
        self.samples.range(start..).map(|(_, v)| v)
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

    /// Appends `samples` in order, evicting exactly as repeated
    /// [`push`](Self::push) would. Shared storage is copied at most once
    /// per call, and not at all for an empty batch.
    pub fn extend(&mut self, samples: impl IntoIterator<Item = (SimTime, T)>) {
        let mut samples = samples.into_iter().peekable();
        if samples.peek().is_none() {
            return;
        }
        let buf = Arc::make_mut(&mut self.samples);
        for sample in samples {
            if buf.len() == self.capacity {
                buf.pop_front();
            }
            buf.push_back(sample);
        }
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
        assert_eq!(ts.tail(2).collect::<Vec<_>>(), vec![&4, &5]);
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

    /// The reference `tail`: skip everything but the last `n` samples.
    fn skip_tail<T>(ts: &TimeSeries<T>, n: usize) -> Vec<&T> {
        let skip = ts.len().saturating_sub(n);
        ts.iter().skip(skip).map(|(_, v)| v).collect()
    }

    #[test]
    fn tail_iterator_yields_the_last_n_values() {
        let mut ts = TimeSeries::new(5);
        assert_eq!(ts.tail(3).len(), 0);
        for i in 0..9u64 {
            ts.push(SimTime::from_secs(i), i);
            for n in 0..8 {
                let tail = ts.tail(n);
                assert_eq!(tail.len(), skip_tail(&ts, n).len());
                assert_eq!(tail.collect::<Vec<_>>(), skip_tail(&ts, n), "n = {n}");
                assert_eq!(
                    ts.tail(n).rev().collect::<Vec<_>>(),
                    skip_tail(&ts, n).into_iter().rev().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn extend_equals_a_push_loop_including_eviction() {
        for (cap, pre, batch) in [(4, 0, 3), (4, 2, 2), (4, 3, 3), (4, 1, 9), (1, 1, 3)] {
            let mut pushed = TimeSeries::new(cap);
            for i in 0..pre {
                pushed.push(SimTime::from_secs(i), i as f64);
            }
            let mut extended = pushed.clone();
            let samples: Vec<(SimTime, f64)> = (pre..pre + batch)
                .map(|i| (SimTime::from_secs(i), i as f64 * 0.5))
                .collect();
            for &(t, v) in &samples {
                pushed.push(t, v);
            }
            extended.extend(samples);
            assert_eq!(extended, pushed, "capacity {cap}, {pre} + {batch}");
            assert!(extended.len() <= cap);
        }
    }

    #[test]
    fn extend_copies_shared_storage_once_and_keeps_held_clones() {
        let mut ts = TimeSeries::new(4);
        for i in 0..4u64 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        let held = ts.clone();
        ts.extend(std::iter::empty());
        assert!(
            held.shares_storage_with(&ts),
            "an empty batch copies nothing"
        );
        ts.extend((4..7u64).map(|i| (SimTime::from_secs(i), i as f64)));
        assert!(!held.shares_storage_with(&ts));
        // One copy for the whole batch: each side now owns its buffer alone.
        assert_eq!(Arc::strong_count(&held.samples), 1);
        assert_eq!(Arc::strong_count(&ts.samples), 1);
        let vals = |s: &TimeSeries<f64>| s.iter().map(|(_, v)| *v).collect::<Vec<_>>();
        assert_eq!(
            vals(&held),
            vec![0.0, 1.0, 2.0, 3.0],
            "the clone keeps its values"
        );
        assert_eq!(vals(&ts), vec![3.0, 4.0, 5.0, 6.0]);
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
