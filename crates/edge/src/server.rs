//! The edge serving policy.

use msvs_types::{CpuCycles, RepresentationLevel};
use msvs_video::{Catalog, Video};

use crate::cache::VideoCache;
use crate::transcode::TranscodeModel;

/// Edge server sizing and cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeConfig {
    /// Cache storage, megabits.
    pub cache_capacity_mb: f64,
    /// Transcode cost model.
    pub transcode: TranscodeModel,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        Self {
            // ~25 GB of storage: enough for a popular head at 1080p.
            cache_capacity_mb: 200_000.0,
            transcode: TranscodeModel::default(),
        }
    }
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Exact representation was cached.
    CacheHit,
    /// A higher cached representation was transcoded down.
    Transcoded,
    /// Fetched from the remote CDN (then cached at top level, possibly
    /// transcoded down as well).
    RemoteFetch,
}

/// Result of serving one video request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOutcome {
    /// How the request was satisfied.
    pub kind: ServeKind,
    /// Compute spent transcoding for this request.
    pub cycles: CpuCycles,
    /// Backhaul traffic to the CDN, megabits (0 unless a remote fetch).
    pub backhaul_mb: f64,
}

/// An edge server: popularity-warmed cache plus transcoder. Each serve
/// returns its own compute and backhaul cost.
#[derive(Debug, Clone)]
pub struct EdgeServer {
    cache: VideoCache,
    model: TranscodeModel,
    telemetry: Option<msvs_telemetry::Telemetry>,
}

impl EdgeServer {
    /// Builds a server and pre-warms its cache from `catalog`.
    pub fn new(config: EdgeConfig, catalog: &Catalog) -> Self {
        let mut cache = VideoCache::new(config.cache_capacity_mb);
        cache.warm_from(catalog);
        Self {
            cache,
            model: config.transcode,
            telemetry: None,
        }
    }

    /// Wires observability in: serve-kind counters and transcode stage
    /// latencies.
    pub fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Counts one served request by kind.
    fn note_serve(&self, kind: ServeKind) {
        let Some(t) = &self.telemetry else { return };
        let label = match kind {
            ServeKind::CacheHit => "cache_hit",
            ServeKind::Transcoded => "transcoded",
            ServeKind::RemoteFetch => "remote_fetch",
        };
        t.counter("edge_serves_total", label).inc();
    }

    /// The underlying cache (stats, inspection).
    pub fn cache(&self) -> &VideoCache {
        &self.cache
    }

    /// Applies a brownout capacity scale in `(0, 1]` to the cache,
    /// evicting down to the reduced capacity.
    ///
    /// # Panics
    /// Panics if `scale` is outside `(0, 1]`.
    pub fn set_capacity_scale(&mut self, scale: f64) {
        self.cache.set_capacity_scale(scale);
    }

    /// Serves `video` at `level`, updating cache state.
    ///
    /// Equivalent to [`EdgeServer::serve_for`] with the full video
    /// duration (the whole clip is prepared).
    pub fn serve(&mut self, video: &Video, level: RepresentationLevel) -> ServeOutcome {
        self.serve_for(video, level, video.duration)
    }

    /// Serves the first `duration` of `video` at `level`.
    ///
    /// Short-video transcoding happens segment-by-segment just ahead of the
    /// multicast transmission, so when every group member swipes early only
    /// the transmitted prefix is transcoded (and billed). Backhaul likewise
    /// only covers the fetched prefix.
    ///
    /// Policy: exact hit → serve; higher representation cached → transcode
    /// down (and cache the result); otherwise fetch the top representation
    /// from the CDN, cache it, and transcode down if needed.
    pub fn serve_for(
        &mut self,
        video: &Video,
        level: RepresentationLevel,
        duration: msvs_types::SimDuration,
    ) -> ServeOutcome {
        let duration = duration.min(video.duration);
        if self.cache.lookup(video.id, level) {
            self.note_serve(ServeKind::CacheHit);
            return ServeOutcome {
                kind: ServeKind::CacheHit,
                cycles: CpuCycles::ZERO,
                backhaul_mb: 0.0,
            };
        }
        if let Some(higher) = self.cache.best_at_or_above(video.id, level) {
            let scope = self
                .telemetry
                .as_ref()
                .map(|t| t.stage_scope(msvs_telemetry::stages::TRANSCODE));
            let cycles = self.model.cost(higher, level, duration);
            drop(scope);
            self.cache.insert(video, level);
            self.note_serve(ServeKind::Transcoded);
            return ServeOutcome {
                kind: ServeKind::Transcoded,
                cycles,
                backhaul_mb: 0.0,
            };
        }
        // Remote fetch at top representation.
        let top = video.top_level();
        let backhaul_mb = video
            .representation(top)
            .map(|r| r.bitrate.value())
            .unwrap_or_else(|| top.nominal_bitrate().value())
            * duration.as_secs_f64();
        self.cache.insert(video, top);
        let cycles = if top > level {
            let scope = self
                .telemetry
                .as_ref()
                .map(|t| t.stage_scope(msvs_telemetry::stages::TRANSCODE));
            let c = self.model.cost(top, level, duration);
            drop(scope);
            self.cache.insert(video, level);
            c
        } else {
            CpuCycles::ZERO
        };
        self.note_serve(ServeKind::RemoteFetch);
        ServeOutcome {
            kind: ServeKind::RemoteFetch,
            cycles,
            backhaul_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_video::CatalogConfig;

    fn setup() -> (Catalog, EdgeServer) {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 200,
            seed: 4,
            ..Default::default()
        })
        .unwrap();
        let edge = EdgeServer::new(EdgeConfig::default(), &catalog);
        (catalog, edge)
    }

    #[test]
    fn top_video_at_top_level_is_a_hit() {
        let (catalog, mut edge) = setup();
        let v = &catalog.videos()[0];
        let o = edge.serve(v, v.top_level());
        assert_eq!(o.kind, ServeKind::CacheHit);
        assert_eq!(o.cycles, CpuCycles::ZERO);
        assert_eq!(o.backhaul_mb, 0.0);
    }

    #[test]
    fn downscale_of_cached_video_transcodes() {
        let (catalog, mut edge) = setup();
        let v = &catalog.videos()[0];
        let o = edge.serve(v, RepresentationLevel::P360);
        assert_eq!(o.kind, ServeKind::Transcoded);
        assert!(o.cycles.value() > 0.0);
        // Second request for the same level is now a hit.
        let o2 = edge.serve(v, RepresentationLevel::P360);
        assert_eq!(o2.kind, ServeKind::CacheHit);
    }

    #[test]
    fn cold_tail_video_is_remote_fetch() {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 5000,
            seed: 4,
            ..Default::default()
        })
        .unwrap();
        let mut edge = EdgeServer::new(
            EdgeConfig {
                cache_capacity_mb: 5_000.0,
                ..Default::default()
            },
            &catalog,
        );
        let tail = &catalog.videos()[4999];
        let o = edge.serve(tail, RepresentationLevel::P720);
        assert_eq!(o.kind, ServeKind::RemoteFetch);
        assert!(o.backhaul_mb > 0.0);
        assert!(o.cycles.value() > 0.0, "fetched top then transcoded down");
    }

    #[test]
    fn remote_fetch_at_top_level_needs_no_transcode() {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 3000,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let mut edge = EdgeServer::new(
            EdgeConfig {
                cache_capacity_mb: 5_000.0,
                ..Default::default()
            },
            &catalog,
        );
        let tail = &catalog.videos()[2999];
        let o = edge.serve(tail, tail.top_level());
        assert_eq!(o.kind, ServeKind::RemoteFetch);
        assert_eq!(o.cycles, CpuCycles::ZERO);
    }
}

#[cfg(test)]
mod serve_for_tests {
    use super::*;

    use msvs_video::CatalogConfig;

    #[test]
    fn partial_duration_bills_proportionally() {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 50,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let mut a = EdgeServer::new(EdgeConfig::default(), &catalog);
        let mut b = EdgeServer::new(EdgeConfig::default(), &catalog);
        let v = &catalog.videos()[0];
        let full = a.serve(v, RepresentationLevel::P360);
        let half = b.serve_for(v, RepresentationLevel::P360, v.duration / 2);
        assert!(half.cycles.value() < full.cycles.value());
        assert!(half.cycles.value() > 0.0);
        // Requesting more than the video length clamps to the video length.
        let mut c = EdgeServer::new(EdgeConfig::default(), &catalog);
        let over = c.serve_for(v, RepresentationLevel::P360, v.duration * 10);
        assert_eq!(over.cycles, full.cycles);
    }

    #[test]
    fn cache_contains_is_pure() {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 50,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let edge = EdgeServer::new(EdgeConfig::default(), &catalog);
        let v = &catalog.videos()[0];
        assert!(edge.cache().contains(v.id, v.top_level()));
        assert!(edge
            .cache()
            .contains_at_or_above(v.id, RepresentationLevel::P240));
        assert!(!edge.cache().contains(v.id, RepresentationLevel::P240));
        let (h, m) = edge.cache().stats();
        assert_eq!((h, m), (0, 0), "introspection must not count");
    }
}
