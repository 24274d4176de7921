//! User preference and engagement behaviour.

use msvs_types::{Error, RepresentationLevel, Result, SimDuration, UserId, VideoCategory};
use rand::Rng;

/// A user's stable content taste and engagement disposition.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    user: UserId,
    preferences: Vec<f64>,
    engagement_scale: f64,
}

impl UserProfile {
    /// Draws a profile from a symmetric Dirichlet over categories.
    ///
    /// `alpha` controls taste sharpness: small alpha (≈0.3) produces users
    /// devoted to a few categories, large alpha (≈5) near-uniform tastes.
    /// The engagement scale is log-normal around 1 (some users linger,
    /// some flick).
    ///
    /// # Panics
    /// Panics if `alpha <= 0` (propagated from the Dirichlet sampler).
    pub fn generate<R: Rng + ?Sized>(user: UserId, alpha: f64, rng: &mut R) -> Self {
        let preferences = msvs_types::stats::dirichlet(rng, alpha, VideoCategory::COUNT);
        let engagement_scale = msvs_types::stats::log_normal(rng, 0.0, 0.3).clamp(0.3, 3.0);
        Self {
            user,
            preferences,
            engagement_scale,
        }
    }

    /// Builds a profile from an explicit preference vector.
    ///
    /// # Errors
    /// Returns `InvalidConfig` unless `preferences` has one non-negative
    /// entry per category summing to ~1 and `engagement_scale > 0`.
    pub fn from_preferences(
        user: UserId,
        preferences: Vec<f64>,
        engagement_scale: f64,
    ) -> Result<Self> {
        if preferences.len() != VideoCategory::COUNT {
            return Err(Error::invalid_config(
                "preferences",
                format!(
                    "need {} entries, got {}",
                    VideoCategory::COUNT,
                    preferences.len()
                ),
            ));
        }
        if preferences.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err(Error::invalid_config(
                "preferences",
                "entries must be in [0, 1]",
            ));
        }
        let total: f64 = preferences.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(Error::invalid_config(
                "preferences",
                format!("must sum to 1, got {total}"),
            ));
        }
        if engagement_scale <= 0.0 {
            return Err(Error::invalid_config(
                "engagement_scale",
                "must be positive",
            ));
        }
        Ok(Self {
            user,
            preferences,
            engagement_scale,
        })
    }

    /// The user id.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Preference mass per category (sums to 1, category index order).
    pub fn preferences(&self) -> &[f64] {
        &self.preferences
    }

    /// Preference mass for one category.
    pub fn interest(&self, category: VideoCategory) -> f64 {
        self.preferences[category.index()]
    }

    /// Multiplier on watch durations (1 = average user).
    pub fn engagement_scale(&self) -> f64 {
        self.engagement_scale
    }

    /// The user's favourite category.
    pub fn favourite(&self) -> VideoCategory {
        let idx = self
            .preferences
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("preferences are finite"))
            .map(|(i, _)| i)
            .expect("preferences non-empty");
        VideoCategory::from_index(idx).expect("index in range")
    }

    /// Drifts preferences towards a recently-enjoyed category.
    ///
    /// `strength` in `[0, 1]`: 0 leaves the profile unchanged, 1 moves all
    /// mass to `category`. Preferences remain a probability vector.
    pub fn reinforce(&mut self, category: VideoCategory, strength: f64) {
        let s = strength.clamp(0.0, 1.0);
        for (i, p) in self.preferences.iter_mut().enumerate() {
            if i == category.index() {
                *p = *p * (1.0 - s) + s;
            } else {
                *p *= 1.0 - s;
            }
        }
    }
}

/// Maps user interest and representation quality to watch durations.
///
/// Watch duration is exponential with a mean that grows with interest and
/// degrades at low quality; completions happen when the sampled duration
/// reaches the video length. This produces exactly the per-category
/// cumulative swiping-probability curves the paper abstracts in Fig. 3(a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngagementModel {
    /// Mean watch time of a neutral-interest user at top quality, seconds.
    pub base_mean_secs: f64,
    /// Fraction of the mean lost at the lowest quality level (0 = quality
    /// does not matter, 0.5 = bottom quality halves engagement).
    pub quality_sensitivity: f64,
}

impl Default for EngagementModel {
    fn default() -> Self {
        Self {
            base_mean_secs: 14.0,
            quality_sensitivity: 0.35,
        }
    }
}

impl EngagementModel {
    /// Expected watch time (untruncated) for a user whose interest in the
    /// category is `interest` (preference mass, neutral = 1/8) at `level`.
    pub fn mean_watch_secs(&self, interest: f64, level: RepresentationLevel) -> f64 {
        // Relative interest: 1.0 = neutral taste.
        let rel = (interest * VideoCategory::COUNT as f64).max(0.01);
        let q = level.index() as f64 / (RepresentationLevel::COUNT - 1) as f64;
        let quality_factor = 1.0 - self.quality_sensitivity * (1.0 - q);
        self.base_mean_secs * rel * quality_factor
    }

    /// Samples a watch duration for one video view.
    ///
    /// Returns `(watched, completed)`: `watched` never exceeds
    /// `video_duration`; `completed = true` means the user reached the end
    /// instead of swiping away.
    pub fn sample_watch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        interest: f64,
        level: RepresentationLevel,
        video_duration: SimDuration,
    ) -> (SimDuration, bool) {
        let mean = self.mean_watch_secs(interest, level).max(0.1);
        let raw = msvs_types::stats::exponential(rng, 1.0 / mean);
        let cap = video_duration.as_secs_f64();
        if raw >= cap {
            (video_duration, true)
        } else {
            (SimDuration::from_secs_f64(raw), false)
        }
    }

    /// Analytic swipe probability before time `t` for the given interest
    /// and level: `F(t) = 1 - exp(-t / mean)`.
    pub fn swipe_cdf(&self, interest: f64, level: RepresentationLevel, t_secs: f64) -> f64 {
        let mean = self.mean_watch_secs(interest, level).max(0.1);
        1.0 - (-t_secs.max(0.0) / mean).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_profiles_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..100 {
            let p = UserProfile::generate(UserId(i), 0.4, &mut rng);
            let total: f64 = p.preferences().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(p.engagement_scale() >= 0.3 && p.engagement_scale() <= 3.0);
        }
    }

    #[test]
    fn sharp_alpha_makes_opinionated_users() {
        let mut rng = StdRng::seed_from_u64(2);
        let sharp: f64 = (0..200)
            .map(|i| {
                let p = UserProfile::generate(UserId(i), 0.2, &mut rng);
                p.interest(p.favourite())
            })
            .sum::<f64>()
            / 200.0;
        let flat: f64 = (0..200)
            .map(|i| {
                let p = UserProfile::generate(UserId(i), 10.0, &mut rng);
                p.interest(p.favourite())
            })
            .sum::<f64>()
            / 200.0;
        assert!(sharp > flat + 0.2, "sharp {sharp} vs flat {flat}");
    }

    #[test]
    fn from_preferences_validates() {
        let ok = vec![1.0 / 8.0; 8];
        assert!(UserProfile::from_preferences(UserId(0), ok.clone(), 1.0).is_ok());
        assert!(UserProfile::from_preferences(UserId(0), vec![0.5; 8], 1.0).is_err());
        assert!(UserProfile::from_preferences(UserId(0), vec![0.5; 3], 1.0).is_err());
        assert!(UserProfile::from_preferences(UserId(0), ok, 0.0).is_err());
    }

    #[test]
    fn reinforce_shifts_mass_and_stays_normalised() {
        let mut p = UserProfile::from_preferences(UserId(0), vec![1.0 / 8.0; 8], 1.0).unwrap();
        let before = p.interest(VideoCategory::Music);
        p.reinforce(VideoCategory::Music, 0.3);
        assert!(p.interest(VideoCategory::Music) > before);
        let total: f64 = p.preferences().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(p.favourite(), VideoCategory::Music);
    }

    #[test]
    fn mean_watch_grows_with_interest() {
        let m = EngagementModel::default();
        let lo = m.mean_watch_secs(0.02, RepresentationLevel::P1080);
        let hi = m.mean_watch_secs(0.4, RepresentationLevel::P1080);
        assert!(hi > lo * 5.0);
    }

    #[test]
    fn mean_watch_degrades_at_low_quality() {
        let m = EngagementModel::default();
        let top = m.mean_watch_secs(0.125, RepresentationLevel::P1080);
        let bottom = m.mean_watch_secs(0.125, RepresentationLevel::P240);
        assert!(bottom < top);
        assert!((bottom / top - (1.0 - m.quality_sensitivity)).abs() < 1e-9);
    }

    #[test]
    fn sampled_watch_never_exceeds_video() {
        let m = EngagementModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let dur = SimDuration::from_secs(20);
        for _ in 0..2000 {
            let (w, completed) = m.sample_watch(&mut rng, 0.3, RepresentationLevel::P720, dur);
            assert!(w <= dur);
            if completed {
                assert_eq!(w, dur);
            }
        }
    }

    #[test]
    fn empirical_swipe_rate_matches_cdf() {
        let m = EngagementModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        let dur = SimDuration::from_secs(60);
        let interest = 0.125;
        let t = 10.0;
        let n = 20_000;
        let swiped_by_t = (0..n)
            .filter(|_| {
                let (w, completed) =
                    m.sample_watch(&mut rng, interest, RepresentationLevel::P1080, dur);
                !completed && w.as_secs_f64() <= t
            })
            .count();
        let expected = m.swipe_cdf(interest, RepresentationLevel::P1080, t);
        let emp = swiped_by_t as f64 / n as f64;
        assert!((emp - expected).abs() < 0.02, "emp {emp} vs cdf {expected}");
    }

    #[test]
    fn high_interest_users_complete_more() {
        let m = EngagementModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let dur = SimDuration::from_secs(15);
        let completions = |interest: f64, rng: &mut StdRng| {
            (0..2000)
                .filter(|_| {
                    m.sample_watch(rng, interest, RepresentationLevel::P1080, dur)
                        .1
                })
                .count()
        };
        let hot = completions(0.5, &mut rng);
        let cold = completions(0.02, &mut rng);
        assert!(hot > cold * 3, "hot {hot} vs cold {cold}");
    }
}
