//! Capacity-bounded LRU video cache.

use std::collections::HashMap;

use msvs_types::{RepresentationLevel, VideoId};
use msvs_video::{Catalog, Video};

/// Storage size of one cached entry, megabits.
fn entry_size_mb(video: &Video, level: RepresentationLevel) -> f64 {
    let rate = video
        .representation(level)
        .map(|r| r.bitrate.value())
        .unwrap_or_else(|| level.nominal_bitrate().value());
    rate * video.duration.as_secs_f64()
}

/// An LRU cache of `(video, representation)` entries bounded by total
/// storage (megabits).
///
/// Mirrors the paper's edge policy: pre-warm the most popular videos at the
/// highest representation, evict least-recently-used entries under
/// pressure.
#[derive(Debug, Clone)]
pub struct VideoCache {
    capacity_mb: f64,
    /// Brownout multiplier in `(0, 1]` applied to `capacity_mb`; `1.0`
    /// outside fault-injection runs.
    capacity_scale: f64,
    used_mb: f64,
    /// key -> (size, last-use tick)
    entries: HashMap<(VideoId, RepresentationLevel), (f64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl VideoCache {
    /// Builds an empty cache with `capacity_mb` megabits of storage.
    ///
    /// # Panics
    /// Panics if `capacity_mb` is not strictly positive.
    pub fn new(capacity_mb: f64) -> Self {
        assert!(
            capacity_mb > 0.0 && capacity_mb.is_finite(),
            "cache capacity must be positive"
        );
        Self {
            capacity_mb,
            capacity_scale: 1.0,
            used_mb: 0.0,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Pre-warms the cache with the most popular catalog videos at the top
    /// representation, until storage runs out or the catalog is exhausted.
    pub fn warm_from(&mut self, catalog: &Catalog) {
        for video in catalog.videos() {
            let level = video.top_level();
            let size = entry_size_mb(video, level);
            if self.used_mb + size > self.effective_capacity_mb() {
                break;
            }
            self.insert_unchecked(video.id, level, size);
        }
    }

    /// Storage currently used, megabits.
    pub fn used_mb(&self) -> f64 {
        self.used_mb
    }

    /// Configured capacity, megabits (before any brownout scale).
    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Capacity currently available, megabits: configured capacity times
    /// the brownout scale.
    pub fn effective_capacity_mb(&self) -> f64 {
        self.capacity_mb * self.capacity_scale
    }

    /// The brownout capacity multiplier currently applied.
    pub fn capacity_scale(&self) -> f64 {
        self.capacity_scale
    }

    /// Applies a brownout capacity multiplier in `(0, 1]`, evicting LRU
    /// entries until usage fits the reduced capacity. Restoring a larger
    /// scale does not refill the cache — entries return only through
    /// normal inserts.
    ///
    /// # Panics
    /// Panics if `scale` is outside `(0, 1]`.
    pub fn set_capacity_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "capacity scale must be in (0, 1]"
        );
        self.capacity_scale = scale;
        while self.used_mb > self.effective_capacity_mb() {
            if !self.evict_lru() {
                break;
            }
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit ratio in `[0, 1]`; 0 when nothing has been looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Looks up an exact `(video, level)` entry, refreshing recency and
    /// counting hit/miss.
    pub fn lookup(&mut self, video: VideoId, level: RepresentationLevel) -> bool {
        self.tick += 1;
        if let Some((_, last)) = self.entries.get_mut(&(video, level)) {
            *last = self.tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// The highest cached representation of `video` at or above `level`,
    /// if any (does not count towards hit/miss; refreshes recency).
    pub fn best_at_or_above(
        &mut self,
        video: VideoId,
        level: RepresentationLevel,
    ) -> Option<RepresentationLevel> {
        self.tick += 1;
        let best = RepresentationLevel::ALL
            .iter()
            .rev()
            .copied()
            .find(|&l| l >= level && self.entries.contains_key(&(video, l)));
        if let Some(l) = best {
            if let Some((_, last)) = self.entries.get_mut(&(video, l)) {
                *last = self.tick;
            }
        }
        best
    }

    /// Whether an exact `(video, level)` entry is cached, without touching
    /// recency or hit/miss counters (predictor introspection).
    pub fn contains(&self, video: VideoId, level: RepresentationLevel) -> bool {
        self.entries.contains_key(&(video, level))
    }

    /// Whether any representation of `video` at or above `level` is cached,
    /// without touching recency or counters.
    pub fn contains_at_or_above(&self, video: VideoId, level: RepresentationLevel) -> bool {
        RepresentationLevel::ALL
            .iter()
            .any(|&l| l >= level && self.entries.contains_key(&(video, l)))
    }

    /// Inserts an entry, evicting LRU entries until it fits.
    ///
    /// Entries larger than the whole cache are refused (returns `false`).
    pub fn insert(&mut self, video: &Video, level: RepresentationLevel) -> bool {
        let size = entry_size_mb(video, level);
        if size > self.effective_capacity_mb() {
            return false;
        }
        if self.entries.contains_key(&(video.id, level)) {
            return true;
        }
        while self.used_mb + size > self.effective_capacity_mb() {
            if !self.evict_lru() {
                return false;
            }
        }
        self.insert_unchecked(video.id, level, size);
        true
    }

    fn insert_unchecked(&mut self, video: VideoId, level: RepresentationLevel, size: f64) {
        self.tick += 1;
        self.used_mb += size;
        self.entries.insert((video, level), (size, self.tick));
    }

    fn evict_lru(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (_, last))| *last)
            .map(|(k, _)| *k);
        match victim {
            Some(key) => {
                if let Some((size, _)) = self.entries.remove(&key) {
                    self.used_mb -= size;
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_video::CatalogConfig;

    fn catalog() -> Catalog {
        Catalog::generate(CatalogConfig {
            n_videos: 100,
            seed: 2,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn warm_fills_most_popular_first() {
        let c = catalog();
        let mut cache = VideoCache::new(2000.0);
        cache.warm_from(&c);
        assert!(!cache.is_empty());
        assert!(cache.used_mb() <= cache.capacity_mb());
        // Rank-0 video must be present at top level.
        let v0 = &c.videos()[0];
        assert!(cache.lookup(v0.id, v0.top_level()));
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = catalog();
        let mut cache = VideoCache::new(5000.0);
        cache.warm_from(&c);
        let v0 = &c.videos()[0];
        assert!(cache.lookup(v0.id, v0.top_level()));
        assert!(!cache.lookup(VideoId(9999), RepresentationLevel::P240));
        let (h, m) = cache.stats();
        assert_eq!((h, m), (1, 1));
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let c = catalog();
        // Small cache that fits only a few videos.
        let videos = c.videos();
        let sz = |i: usize| entry_size_mb(&videos[i], videos[i].top_level());
        let cap = sz(0) + sz(1) + 1.0;
        let mut cache = VideoCache::new(cap);
        assert!(cache.insert(&videos[0], videos[0].top_level()));
        assert!(cache.insert(&videos[1], videos[1].top_level()));
        // Touch 0 so 1 becomes LRU.
        assert!(cache.lookup(videos[0].id, videos[0].top_level()));
        // Pick a third video that needs an eviction (> slack) but fits once
        // the single LRU victim is gone, so only video 1 must be evicted.
        let j = (2..videos.len())
            .find(|&i| sz(i) > 1.0 && sz(i) <= sz(1))
            .expect("catalog holds a video no larger than video 1");
        assert!(cache.insert(&videos[j], videos[j].top_level()));
        assert_eq!(cache.len(), 2, "exactly one victim");
        assert!(
            cache.lookup(videos[0].id, videos[0].top_level()),
            "hot kept"
        );
        assert!(
            !cache.lookup(videos[1].id, videos[1].top_level()),
            "cold evicted"
        );
    }

    #[test]
    fn best_at_or_above_finds_higher_level() {
        let c = catalog();
        let mut cache = VideoCache::new(10_000.0);
        let v = &c.videos()[3];
        cache.insert(v, RepresentationLevel::P1080);
        assert_eq!(
            cache.best_at_or_above(v.id, RepresentationLevel::P360),
            Some(RepresentationLevel::P1080)
        );
        assert_eq!(
            cache.best_at_or_above(v.id, RepresentationLevel::P1080),
            Some(RepresentationLevel::P1080)
        );
        assert_eq!(
            cache.best_at_or_above(VideoId(999), RepresentationLevel::P240),
            None
        );
    }

    #[test]
    fn oversized_entry_is_refused() {
        let c = catalog();
        let mut cache = VideoCache::new(0.001);
        assert!(!cache.insert(&c.videos()[0], RepresentationLevel::P1080));
        assert!(cache.is_empty());
    }

    #[test]
    fn double_insert_is_idempotent() {
        let c = catalog();
        let mut cache = VideoCache::new(10_000.0);
        let v = &c.videos()[0];
        assert!(cache.insert(v, RepresentationLevel::P720));
        let used = cache.used_mb();
        assert!(cache.insert(v, RepresentationLevel::P720));
        assert_eq!(cache.used_mb(), used);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = VideoCache::new(0.0);
    }

    #[test]
    fn brownout_scale_evicts_down_and_bounds_inserts() {
        let c = catalog();
        let mut cache = VideoCache::new(2000.0);
        cache.warm_from(&c);
        let before = cache.used_mb();
        assert!(before > 1000.0, "warm fills most of the cache: {before}");
        let warmed = cache.len();
        cache.set_capacity_scale(0.5);
        assert!(cache.used_mb() <= 1000.0, "evicted down to the brownout");
        assert!(cache.len() < warmed);
        assert_eq!(cache.effective_capacity_mb(), 1000.0);
        // Inserts respect the reduced capacity.
        let big = &c.videos()[0];
        let used = cache.used_mb();
        cache.insert(big, big.top_level());
        assert!(cache.used_mb() <= 1000.0);
        // Restoring the scale reopens headroom without refilling.
        cache.set_capacity_scale(1.0);
        assert_eq!(cache.effective_capacity_mb(), 2000.0);
        assert!(cache.used_mb() <= used + 2000.0);
    }

    #[test]
    #[should_panic(expected = "capacity scale")]
    fn out_of_range_scale_panics() {
        let mut cache = VideoCache::new(100.0);
        cache.set_capacity_scale(0.0);
    }
}
