//! Feed simulation: a user swiping through short videos over an interval.

use msvs_types::{Representation, SimDuration, SimTime, UserId, VideoCategory, VideoId};
use rand::Rng;

use crate::behavior::{EngagementModel, UserProfile};
use crate::catalog::Catalog;

/// One video view: who watched what, for how long, at which quality.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSession {
    /// The viewer.
    pub user: UserId,
    /// The video.
    pub video: VideoId,
    /// The video's category (denormalised for cheap aggregation).
    pub category: VideoCategory,
    /// Representation that was streamed.
    pub representation: Representation,
    /// When playback started.
    pub start: SimTime,
    /// How long the user actually watched.
    pub watched: SimDuration,
    /// Full video length (for retention-curve normalisation).
    pub video_duration: SimDuration,
    /// `true` if the user reached the end rather than swiping away.
    pub completed: bool,
}

impl WatchSession {
    /// Fraction of the video watched, in `[0, 1]`.
    pub fn retention(&self) -> f64 {
        if self.video_duration == SimDuration::ZERO {
            return 0.0;
        }
        (self.watched.as_secs_f64() / self.video_duration.as_secs_f64()).clamp(0.0, 1.0)
    }

    /// Megabits delivered to the user during this session.
    pub fn traffic_megabits(&self) -> f64 {
        self.representation.bitrate.value() * self.watched.as_secs_f64()
    }
}

/// Parameters of the feed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedConfig {
    /// Dead time between swiping away and the next video starting.
    pub swipe_gap: SimDuration,
    /// Engagement behaviour.
    pub engagement: EngagementModel,
}

impl Default for FeedConfig {
    fn default() -> Self {
        Self {
            swipe_gap: SimDuration::from_millis(500),
            engagement: EngagementModel::default(),
        }
    }
}

/// Simulates one user's feed between `start` and `end`.
///
/// The user is shown preference-mixed recommendations
/// ([`Catalog::sample_for`]), watches each video according to the
/// engagement model at the given representation picker, swipes, and
/// repeats. The final session is truncated at `end`.
///
/// `pick_level` maps each candidate video to the representation that will
/// actually be streamed (in the full system this comes from the multicast
/// scheduler; tests can pass `|v| v.top_level()`).
pub fn simulate_feed<R, F>(
    profile: &UserProfile,
    catalog: &Catalog,
    config: &FeedConfig,
    start: SimTime,
    end: SimTime,
    mut pick_level: F,
    rng: &mut R,
) -> Vec<WatchSession>
where
    R: Rng + ?Sized,
    F: FnMut(&crate::catalog::Video) -> msvs_types::RepresentationLevel,
{
    let mut sessions = Vec::new();
    let mut now = start;
    while now < end {
        let video = catalog.sample_for(profile, rng);
        let level = pick_level(video);
        let representation = video
            .representation(level)
            .unwrap_or_else(|| video.ladder[0]);
        let interest = profile.interest(video.category) * profile.engagement_scale();
        let (mut watched, mut completed) =
            config
                .engagement
                .sample_watch(rng, interest, level, video.duration);
        // Truncate at the interval boundary.
        let remaining = end.since(now);
        if watched > remaining {
            watched = remaining;
            completed = false;
        }
        sessions.push(WatchSession {
            user: profile.user(),
            video: video.id,
            category: video.category,
            representation,
            start: now,
            watched,
            video_duration: video.duration,
            completed,
        });
        now += watched + config.swipe_gap;
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use msvs_types::RepresentationLevel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Catalog, UserProfile) {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 300,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let profile = UserProfile::generate(UserId(1), 0.4, &mut rng);
        (catalog, profile)
    }

    #[test]
    fn sessions_tile_the_interval() {
        let (catalog, profile) = setup();
        let mut rng = StdRng::seed_from_u64(10);
        let start = SimTime::from_mins(0);
        let end = SimTime::from_mins(5);
        let sessions = simulate_feed(
            &profile,
            &catalog,
            &FeedConfig::default(),
            start,
            end,
            |v| v.top_level(),
            &mut rng,
        );
        assert!(!sessions.is_empty());
        let mut cursor = start;
        for s in &sessions {
            assert_eq!(s.start, cursor, "sessions must be contiguous");
            assert!(s.watched <= s.video_duration);
            cursor += s.watched + SimDuration::from_millis(500);
        }
        // Last session ends at or just before the boundary.
        let last = sessions.last().unwrap();
        assert!(last.start + last.watched <= end + SimDuration::from_millis(500));
    }

    #[test]
    fn short_interval_yields_truncated_single_session() {
        let (catalog, profile) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let sessions = simulate_feed(
            &profile,
            &catalog,
            &FeedConfig::default(),
            SimTime::ZERO,
            SimTime(1000),
            |v| v.top_level(),
            &mut rng,
        );
        assert!(!sessions.is_empty());
        assert!(sessions[0].watched <= SimDuration::from_secs(1));
    }

    #[test]
    fn retention_and_traffic_are_consistent() {
        let (catalog, profile) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let sessions = simulate_feed(
            &profile,
            &catalog,
            &FeedConfig::default(),
            SimTime::ZERO,
            SimTime::from_mins(10),
            |v| v.top_level(),
            &mut rng,
        );
        for s in &sessions {
            assert!((0.0..=1.0).contains(&s.retention()));
            if s.completed {
                assert!((s.retention() - 1.0).abs() < 1e-9);
            }
            assert!(s.traffic_megabits() >= 0.0);
        }
        let total: f64 = sessions.iter().map(|s| s.traffic_megabits()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn lower_level_picker_reduces_traffic() {
        let (catalog, profile) = setup();
        let run = |level: RepresentationLevel| {
            let mut rng = StdRng::seed_from_u64(13);
            simulate_feed(
                &profile,
                &catalog,
                &FeedConfig::default(),
                SimTime::ZERO,
                SimTime::from_mins(10),
                |_| level,
                &mut rng,
            )
            .iter()
            .map(|s| s.traffic_megabits())
            .sum::<f64>()
        };
        assert!(run(RepresentationLevel::P240) < run(RepresentationLevel::P1080));
    }

    #[test]
    fn feed_is_deterministic_per_seed() {
        let (catalog, profile) = setup();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate_feed(
                &profile,
                &catalog,
                &FeedConfig::default(),
                SimTime::ZERO,
                SimTime::from_mins(5),
                |v| v.top_level(),
                &mut rng,
            )
        };
        assert_eq!(run(7), run(7));
    }
}
