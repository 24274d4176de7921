//! Video-domain vocabulary: categories and bitrate representations.

use std::fmt;

use crate::units::Mbps;

/// Content category of a short video.
///
/// The paper's evaluation groups videos by preference label; Fig. 3 shows
/// `News` being watched the longest and `Game` the shortest in multicast
/// group 1. We model eight categories, matching the label set of the
/// short-video-streaming-challenge dataset family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VideoCategory {
    /// Current-affairs clips; typically high retention.
    News,
    /// Sports highlights.
    Sports,
    /// Music and dance clips.
    Music,
    /// Gaming clips; typically low retention for non-gamers.
    Game,
    /// Comedy sketches.
    Comedy,
    /// Educational shorts.
    Education,
    /// Fashion and lifestyle.
    Fashion,
    /// Food and cooking.
    Food,
}

impl VideoCategory {
    /// All categories, in stable index order.
    pub const ALL: [VideoCategory; 8] = [
        VideoCategory::News,
        VideoCategory::Sports,
        VideoCategory::Music,
        VideoCategory::Game,
        VideoCategory::Comedy,
        VideoCategory::Education,
        VideoCategory::Fashion,
        VideoCategory::Food,
    ];

    /// Number of categories.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index of this category in [`VideoCategory::ALL`].
    ///
    /// # Examples
    /// ```
    /// # use msvs_types::VideoCategory;
    /// assert_eq!(VideoCategory::News.index(), 0);
    /// assert_eq!(VideoCategory::ALL[VideoCategory::Food.index()], VideoCategory::Food);
    /// ```
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("category is a member of ALL")
    }

    /// Looks a category up by its stable index.
    ///
    /// Returns `None` if `index >= VideoCategory::COUNT`.
    pub fn from_index(index: usize) -> Option<VideoCategory> {
        Self::ALL.get(index).copied()
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            VideoCategory::News => "News",
            VideoCategory::Sports => "Sports",
            VideoCategory::Music => "Music",
            VideoCategory::Game => "Game",
            VideoCategory::Comedy => "Comedy",
            VideoCategory::Education => "Education",
            VideoCategory::Fashion => "Fashion",
            VideoCategory::Food => "Food",
        }
    }
}

impl fmt::Display for VideoCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Quality level of a transcoded representation, lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RepresentationLevel {
    /// 240p, minimum quality.
    P240,
    /// 360p.
    P360,
    /// 480p.
    P480,
    /// 720p.
    P720,
    /// 1080p, the highest representation stored at the edge.
    P1080,
}

impl RepresentationLevel {
    /// All levels from lowest to highest quality.
    pub const ALL: [RepresentationLevel; 5] = [
        RepresentationLevel::P240,
        RepresentationLevel::P360,
        RepresentationLevel::P480,
        RepresentationLevel::P720,
        RepresentationLevel::P1080,
    ];

    /// Number of ladder levels.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index (0 = lowest quality).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&l| l == self)
            .expect("level is a member of ALL")
    }

    /// Looks a level up by index.
    pub fn from_index(index: usize) -> Option<RepresentationLevel> {
        Self::ALL.get(index).copied()
    }

    /// The next lower level, or `None` at the bottom of the ladder.
    pub fn step_down(self) -> Option<RepresentationLevel> {
        self.index().checked_sub(1).and_then(Self::from_index)
    }

    /// Nominal encoded bitrate of this level for short-form video.
    ///
    /// Values follow common DASH ladders (H.264, 30 fps, 9:16 vertical).
    pub fn nominal_bitrate(self) -> Mbps {
        match self {
            RepresentationLevel::P240 => Mbps(0.4),
            RepresentationLevel::P360 => Mbps(0.8),
            RepresentationLevel::P480 => Mbps(1.2),
            RepresentationLevel::P720 => Mbps(2.5),
            RepresentationLevel::P1080 => Mbps(4.5),
        }
    }
}

impl fmt::Display for RepresentationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RepresentationLevel::P240 => "240p",
            RepresentationLevel::P360 => "360p",
            RepresentationLevel::P480 => "480p",
            RepresentationLevel::P720 => "720p",
            RepresentationLevel::P1080 => "1080p",
        };
        f.write_str(s)
    }
}

/// A concrete representation: a ladder level with its actual encoded bitrate
/// (which varies per video around the nominal ladder value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Representation {
    /// Quality level on the ladder.
    pub level: RepresentationLevel,
    /// Actual average encoded bitrate of this video at this level.
    pub bitrate: Mbps,
}

impl Representation {
    /// Builds a representation with the level's nominal bitrate.
    pub fn nominal(level: RepresentationLevel) -> Self {
        Self {
            level,
            bitrate: level.nominal_bitrate(),
        }
    }
}

impl fmt::Display for Representation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.level, self.bitrate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_index_round_trips() {
        for (i, c) in VideoCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(VideoCategory::from_index(i), Some(*c));
        }
        assert_eq!(VideoCategory::from_index(VideoCategory::COUNT), None);
    }

    #[test]
    fn level_ladder_is_monotone_in_bitrate() {
        let rates: Vec<f64> = RepresentationLevel::ALL
            .iter()
            .map(|l| l.nominal_bitrate().value())
            .collect();
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn step_down_walks_the_ladder() {
        assert_eq!(
            RepresentationLevel::P1080.step_down(),
            Some(RepresentationLevel::P720)
        );
        assert_eq!(RepresentationLevel::P240.step_down(), None);
    }

    #[test]
    fn level_ordering_matches_quality() {
        assert!(RepresentationLevel::P240 < RepresentationLevel::P1080);
        assert!(RepresentationLevel::P480 < RepresentationLevel::P720);
    }

    #[test]
    fn displays() {
        assert_eq!(VideoCategory::News.to_string(), "News");
        assert_eq!(RepresentationLevel::P720.to_string(), "720p");
        let r = Representation::nominal(RepresentationLevel::P360);
        assert_eq!(r.to_string(), "360p@0.800 Mbps");
    }
}
