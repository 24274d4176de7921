//! Video catalog generation.

use msvs_types::stats::Zipf;
use msvs_types::{
    Error, Mbps, Representation, RepresentationLevel, Result, SimDuration, VideoCategory, VideoId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::behavior::UserProfile;

/// Parameters for catalog generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    /// Number of videos.
    pub n_videos: usize,
    /// Zipf popularity exponent (≈0.8–1.2 for video platforms).
    pub zipf_exponent: f64,
    /// Minimum video duration, seconds.
    pub min_duration_secs: f64,
    /// Maximum video duration, seconds.
    pub max_duration_secs: f64,
    /// Relative std-dev of per-video bitrate jitter around the nominal
    /// ladder (content complexity varies).
    pub bitrate_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            n_videos: 500,
            zipf_exponent: 1.0,
            min_duration_secs: 10.0,
            max_duration_secs: 60.0,
            bitrate_jitter: 0.15,
            seed: 0,
        }
    }
}

/// One short video: category, duration, popularity rank, bitrate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    /// Stable identifier (index into the catalog).
    pub id: VideoId,
    /// Content category.
    pub category: VideoCategory,
    /// Playback length.
    pub duration: SimDuration,
    /// Popularity rank (0 = most popular).
    pub rank: usize,
    /// Available representations, lowest to highest quality.
    pub ladder: Vec<Representation>,
}

impl Video {
    /// The highest available representation level.
    pub fn top_level(&self) -> RepresentationLevel {
        self.ladder.last().expect("ladder is non-empty").level
    }

    /// The representation at `level`, if the video has it.
    pub fn representation(&self, level: RepresentationLevel) -> Option<Representation> {
        self.ladder.iter().copied().find(|r| r.level == level)
    }

    /// The best representation whose bitrate does not exceed `budget`,
    /// falling back to the lowest one.
    pub fn best_under(&self, budget: Mbps) -> Representation {
        self.ladder
            .iter()
            .rev()
            .copied()
            .find(|r| r.bitrate.value() <= budget.value())
            .unwrap_or(self.ladder[0])
    }
}

/// One externally-supplied catalog entry (see [`Catalog::from_rows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogRow {
    /// Content category.
    pub category: VideoCategory,
    /// Playback length, seconds.
    pub duration_secs: f64,
    /// Bitrate-ladder scale factor (1.0 = nominal ladder).
    pub complexity: f64,
}

/// An immutable, popularity-weighted collection of [`Video`]s.
#[derive(Debug, Clone)]
pub struct Catalog {
    videos: Vec<Video>,
    popularity: Zipf,
    by_category: Vec<Vec<usize>>,
}

impl Catalog {
    /// Generates a catalog.
    ///
    /// Category is assigned independently of rank; duration is uniform in
    /// the configured range; each video carries the full 5-level ladder
    /// with jittered bitrates.
    ///
    /// # Errors
    /// Returns `InvalidConfig` for a zero-size catalog, a non-positive
    /// duration range, or negative jitter.
    pub fn generate(config: CatalogConfig) -> Result<Self> {
        if config.n_videos == 0 {
            return Err(Error::invalid_config("n_videos", "must be positive"));
        }
        if !(config.min_duration_secs > 0.0 && config.max_duration_secs >= config.min_duration_secs)
        {
            return Err(Error::invalid_config(
                "duration range",
                "need 0 < min <= max",
            ));
        }
        if config.bitrate_jitter < 0.0 {
            return Err(Error::invalid_config("bitrate_jitter", "must be >= 0"));
        }
        let popularity = Zipf::new(config.n_videos, config.zipf_exponent)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut videos = Vec::with_capacity(config.n_videos);
        let mut by_category = vec![Vec::new(); VideoCategory::COUNT];
        for rank in 0..config.n_videos {
            let category = VideoCategory::ALL[rng.gen_range(0..VideoCategory::COUNT)];
            let dur = rng.gen_range(config.min_duration_secs..=config.max_duration_secs);
            // A single complexity factor per video scales the whole ladder:
            // busy content (sports) costs more bits at every level.
            let complexity = (1.0
                + msvs_types::stats::normal(&mut rng, 0.0, config.bitrate_jitter))
            .clamp(0.5, 2.0);
            let ladder = RepresentationLevel::ALL
                .iter()
                .map(|&level| Representation {
                    level,
                    bitrate: Mbps(level.nominal_bitrate().value() * complexity),
                })
                .collect();
            by_category[category.index()].push(rank);
            videos.push(Video {
                id: VideoId(rank as u32),
                category,
                duration: SimDuration::from_secs_f64(dur),
                rank,
                ladder,
            });
        }
        Ok(Self {
            videos,
            popularity,
            by_category,
        })
    }

    /// Builds a catalog from explicit rows (e.g. exported from the real
    /// short-video-streaming-challenge dataset), ordered by popularity
    /// rank (first row = most popular).
    ///
    /// Each row's `complexity` scales the whole bitrate ladder, exactly as
    /// in [`Catalog::generate`].
    ///
    /// # Errors
    /// Returns `InvalidConfig` for an empty row set, a non-positive
    /// duration or complexity, or a bad Zipf exponent.
    pub fn from_rows(rows: &[CatalogRow], zipf_exponent: f64) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::invalid_config("rows", "need at least one video"));
        }
        let popularity = Zipf::new(rows.len(), zipf_exponent)?;
        let mut videos = Vec::with_capacity(rows.len());
        let mut by_category = vec![Vec::new(); VideoCategory::COUNT];
        for (rank, row) in rows.iter().enumerate() {
            if !(row.duration_secs > 0.0 && row.duration_secs.is_finite()) {
                return Err(Error::invalid_config(
                    "duration_secs",
                    format!("row {rank}: must be positive and finite"),
                ));
            }
            if !(row.complexity > 0.0 && row.complexity.is_finite()) {
                return Err(Error::invalid_config(
                    "complexity",
                    format!("row {rank}: must be positive and finite"),
                ));
            }
            let ladder = RepresentationLevel::ALL
                .iter()
                .map(|&level| Representation {
                    level,
                    bitrate: Mbps(level.nominal_bitrate().value() * row.complexity),
                })
                .collect();
            by_category[row.category.index()].push(rank);
            videos.push(Video {
                id: VideoId(rank as u32),
                category: row.category,
                duration: SimDuration::from_secs_f64(row.duration_secs),
                rank,
                ladder,
            });
        }
        Ok(Self {
            videos,
            popularity,
            by_category,
        })
    }

    /// Parses a catalog from CSV text with `category,duration_secs,
    /// complexity` rows (header optional, `#` comments ignored), ordered
    /// by popularity.
    ///
    /// # Errors
    /// Returns `InvalidConfig` for unparseable rows or unknown categories.
    pub fn from_csv(csv: &str, zipf_exponent: f64) -> Result<Self> {
        let mut rows = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != 3 {
                return Err(Error::invalid_config(
                    "csv",
                    format!(
                        "line {}: expected 3 fields, got {}",
                        lineno + 1,
                        fields.len()
                    ),
                ));
            }
            // Skip a header row.
            if lineno == 0 && fields[1].parse::<f64>().is_err() {
                continue;
            }
            let category = VideoCategory::ALL
                .iter()
                .copied()
                .find(|c| c.name().eq_ignore_ascii_case(fields[0]))
                .ok_or_else(|| {
                    Error::invalid_config(
                        "csv",
                        format!("line {}: unknown category `{}`", lineno + 1, fields[0]),
                    )
                })?;
            let parse = |s: &str, what: &str| -> Result<f64> {
                s.parse().map_err(|_| {
                    Error::invalid_config("csv", format!("line {}: bad {what} `{s}`", lineno + 1))
                })
            };
            rows.push(CatalogRow {
                category,
                duration_secs: parse(fields[1], "duration")?,
                complexity: parse(fields[2], "complexity")?,
            });
        }
        Self::from_rows(&rows, zipf_exponent)
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Always false: generation rejects empty catalogs.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All videos in rank order.
    pub fn videos(&self) -> &[Video] {
        &self.videos
    }

    /// Looks up a video by id.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unknown id.
    pub fn get(&self, id: VideoId) -> Result<&Video> {
        self.videos
            .get(id.index())
            .ok_or_else(|| Error::not_found("video", id))
    }

    /// Popularity mass of a video (Zipf pmf of its rank).
    pub fn popularity(&self, id: VideoId) -> f64 {
        self.popularity.pmf(id.index())
    }

    /// Samples a video by global popularity.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &Video {
        &self.videos[self.popularity.sample(rng)]
    }

    /// Samples a video for a user: the platform recommender mixes the
    /// user's category preference (exploit) with global popularity
    /// (explore), then picks a popular video within the chosen category.
    pub fn sample_for<R: Rng + ?Sized>(&self, profile: &UserProfile, rng: &mut R) -> &Video {
        const EXPLOIT: f64 = 0.75;
        if rng.gen::<f64>() < EXPLOIT {
            if let Some(cat_idx) = msvs_types::stats::weighted_index(rng, profile.preferences()) {
                let members = &self.by_category[cat_idx];
                if !members.is_empty() {
                    // Within a category, rank-weight by inverse rank.
                    let weights: Vec<f64> =
                        members.iter().map(|&r| 1.0 / (1.0 + r as f64)).collect();
                    let pick = msvs_types::stats::weighted_index(rng, &weights)
                        .expect("weights are positive");
                    return &self.videos[members[pick]];
                }
            }
        }
        self.sample(rng)
    }

    /// The `n` most popular videos (rank order).
    pub fn top_videos(&self, n: usize) -> &[Video] {
        &self.videos[..n.min(self.videos.len())]
    }

    /// Ranks (catalog indices) of all videos in a category.
    pub fn category_members(&self, category: VideoCategory) -> &[usize] {
        &self.by_category[category.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::generate(CatalogConfig {
            n_videos: 400,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = catalog();
        let b = catalog();
        assert_eq!(a.videos(), b.videos());
    }

    #[test]
    fn durations_in_range_and_ladders_complete() {
        let c = catalog();
        for v in c.videos() {
            let d = v.duration.as_secs_f64();
            assert!((10.0..=60.0).contains(&d), "duration {d}");
            assert_eq!(v.ladder.len(), 5);
            let rates: Vec<f64> = v.ladder.iter().map(|r| r.bitrate.value()).collect();
            assert!(rates.windows(2).all(|w| w[0] < w[1]), "ladder monotone");
        }
    }

    #[test]
    fn categories_are_all_represented() {
        let c = catalog();
        for cat in VideoCategory::ALL {
            assert!(
                !c.category_members(cat).is_empty(),
                "{cat} missing from a 400-video catalog"
            );
        }
    }

    #[test]
    fn popularity_sampling_favours_low_ranks() {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0;
        let n = 10_000;
        for _ in 0..n {
            if c.sample(&mut rng).rank < 40 {
                head += 1;
            }
        }
        // Top 10% of a Zipf(1.0) catalog carries far more than 10% of mass.
        assert!(
            head as f64 / n as f64 > 0.3,
            "head share {}",
            head as f64 / n as f64
        );
    }

    #[test]
    fn sample_for_respects_preferences() {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(2);
        // A user who only cares about News.
        let mut prefs = [0.01; VideoCategory::COUNT];
        prefs[VideoCategory::News.index()] = 1.0;
        let total: f64 = prefs.iter().sum();
        let prefs: Vec<f64> = prefs.iter().map(|p| p / total).collect();
        let profile = UserProfile::from_preferences(msvs_types::UserId(0), prefs, 1.0).unwrap();
        let news = (0..2000)
            .filter(|_| c.sample_for(&profile, &mut rng).category == VideoCategory::News)
            .count();
        assert!(news > 1200, "news share too low: {news}/2000");
    }

    #[test]
    fn best_under_budget() {
        let c = catalog();
        let v = &c.videos()[0];
        let top = v.ladder.last().unwrap();
        assert_eq!(v.best_under(Mbps(1e9)).level, top.level);
        assert_eq!(v.best_under(Mbps(0.0)).level, v.ladder[0].level);
    }

    #[test]
    fn get_unknown_video_errors() {
        let c = catalog();
        assert!(c.get(VideoId(9999)).is_err());
        assert!(c.get(VideoId(0)).is_ok());
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Catalog::generate(CatalogConfig {
            n_videos: 0,
            ..Default::default()
        })
        .is_err());
        assert!(Catalog::generate(CatalogConfig {
            min_duration_secs: 30.0,
            max_duration_secs: 10.0,
            ..Default::default()
        })
        .is_err());
        assert!(Catalog::generate(CatalogConfig {
            bitrate_jitter: -0.1,
            ..Default::default()
        })
        .is_err());
    }
}

#[cfg(test)]
mod from_rows_tests {
    use super::*;

    #[test]
    fn from_rows_builds_ordered_catalog() {
        let rows = vec![
            CatalogRow {
                category: VideoCategory::News,
                duration_secs: 30.0,
                complexity: 1.2,
            },
            CatalogRow {
                category: VideoCategory::Game,
                duration_secs: 45.0,
                complexity: 0.8,
            },
        ];
        let c = Catalog::from_rows(&rows, 1.0).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.videos()[0].category, VideoCategory::News);
        assert_eq!(c.videos()[0].rank, 0);
        assert!(c.popularity(VideoId(0)) > c.popularity(VideoId(1)));
        // Ladder scaled by complexity.
        let top = c.videos()[0]
            .representation(RepresentationLevel::P1080)
            .unwrap();
        assert!((top.bitrate.value() - 4.5 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn from_rows_validates() {
        assert!(Catalog::from_rows(&[], 1.0).is_err());
        let bad = CatalogRow {
            category: VideoCategory::News,
            duration_secs: 0.0,
            complexity: 1.0,
        };
        assert!(Catalog::from_rows(&[bad], 1.0).is_err());
        let bad = CatalogRow {
            category: VideoCategory::News,
            duration_secs: 10.0,
            complexity: -1.0,
        };
        assert!(Catalog::from_rows(&[bad], 1.0).is_err());
    }

    #[test]
    fn from_csv_parses_with_header_and_comments() {
        let csv = "category,duration_secs,complexity\n\
                   # most popular first\n\
                   News, 30.5, 1.1\n\
                   \n\
                   game,12.0,0.9\n";
        let c = Catalog::from_csv(csv, 0.8).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.videos()[1].category, VideoCategory::Game);
        assert!((c.videos()[0].duration.as_secs_f64() - 30.5).abs() < 1e-3);
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(Catalog::from_csv("News,abc,1.0\n", 1.0).is_err());
        assert!(Catalog::from_csv("Cooking,10,1.0\n", 1.0).is_err());
        assert!(Catalog::from_csv("News,10\n", 1.0).is_err());
        assert!(Catalog::from_csv("", 1.0).is_err());
    }

    #[test]
    fn trace_catalog_feeds_the_feed_simulator() {
        use crate::behavior::UserProfile;
        use crate::session::{simulate_feed, FeedConfig};
        use rand::{rngs::StdRng, SeedableRng};

        let rows: Vec<CatalogRow> = (0..40)
            .map(|i| CatalogRow {
                category: VideoCategory::ALL[i % VideoCategory::COUNT],
                duration_secs: 10.0 + i as f64,
                complexity: 1.0,
            })
            .collect();
        let catalog = Catalog::from_rows(&rows, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let profile = UserProfile::generate(msvs_types::UserId(0), 0.4, &mut rng);
        let sessions = simulate_feed(
            &profile,
            &catalog,
            &FeedConfig::default(),
            msvs_types::SimTime::ZERO,
            msvs_types::SimTime::from_mins(2),
            |v| v.top_level(),
            &mut rng,
        );
        assert!(!sessions.is_empty());
    }
}
