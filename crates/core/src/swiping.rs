//! Group-level swiping probability abstraction.
//!
//! "Users' watching duration on each kind of video is utilized to update
//! multicast groups' swiping probability distributions." For each group
//! and category we estimate the distribution of the *time until the user
//! swipes away*. A subtlety the naive empirical CDF gets wrong: when a
//! user watches a video to the end, we never observe their swipe time —
//! the observation is **right-censored** at the video length. We therefore
//! use the Kaplan–Meier estimator, which handles censoring exactly; its
//! complement `1 − S(t)` *is* the cumulative swiping probability of the
//! paper's Fig. 3(a), and expectations over it drive the demand and
//! prefetch-waste predictions.

use std::collections::VecDeque;
use std::sync::OnceLock;

use msvs_types::{SimDuration, VideoCategory};
use msvs_udt::WatchRecord;

/// Fallback mean watch time (seconds) for categories with no observations.
const PRIOR_MEAN_SECS: f64 = 14.0;

/// Maximum retained samples per category (rolling window).
const MAX_SAMPLES: usize = 2048;

/// Horizon used when summarising a category's retention as a scalar
/// ("expected engagement with a 60-second video").
const SUMMARY_CAP_SECS: f64 = 60.0;

/// One observation: watch duration, and whether the swipe was actually
/// observed (`true`) or censored by the video ending (`false`).
type Observation = (f64, bool);

/// A compiled Kaplan–Meier survival curve: survival value *after* each
/// distinct event time. `S(t) = 1` before the first event.
#[derive(Debug, Clone, PartialEq)]
struct KmCurve {
    points: Vec<(f64, f64)>, // (event time, survival after it)
}

impl KmCurve {
    /// Fits the estimator. At tied times, events precede censorings (the
    /// standard convention).
    fn fit<'a>(observations: impl IntoIterator<Item = &'a Observation>) -> Self {
        let mut sorted: Vec<Observation> = observations.into_iter().copied().collect();
        sorted.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("durations are finite")
                .then(b.1.cmp(&a.1))
        });
        let mut at_risk = sorted.len() as f64;
        let mut survival = 1.0;
        let mut points = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let t = sorted[i].0;
            let mut events = 0.0;
            let mut censored = 0.0;
            while i < sorted.len() && sorted[i].0 == t {
                if sorted[i].1 {
                    events += 1.0;
                } else {
                    censored += 1.0;
                }
                i += 1;
            }
            if events > 0.0 && at_risk > 0.0 {
                survival *= 1.0 - events / at_risk;
                points.push((t, survival));
            }
            at_risk -= events + censored;
        }
        Self { points }
    }

    /// `S(t)`: probability the user is still watching after `t` seconds.
    fn survival(&self, t: f64) -> f64 {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        if idx == 0 {
            1.0
        } else {
            self.points[idx - 1].1
        }
    }
}

/// `∫_0^cap f(S(t)) dt` over one compiled curve for every `cap` at once.
///
/// Row `k` holds the integrator's state after the first `k` breakpoints —
/// the last breakpoint reached, the integral so far and `f` of the
/// survival there — and covers the caps above breakpoint `k - 1` up to
/// breakpoint `k`. The rows are accumulated in breakpoint order, so
/// finishing a query adds the same terms in the same order as a scan up
/// to `cap` would: answers are bit-identical to scanning, in `O(log m)`.
#[derive(Debug, Clone, PartialEq)]
struct PrefixTable {
    rows: Vec<PrefixRow>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct PrefixRow {
    /// Upper end of the caps this row answers (`∞` for the last row).
    until: f64,
    /// Start of the open segment.
    from: f64,
    /// Integral up to `from`.
    acc: f64,
    /// `f(S)` over the open segment.
    height: f64,
}

impl PrefixTable {
    fn new(curve: &KmCurve, f: impl Fn(f64) -> f64) -> Self {
        let mut rows = Vec::with_capacity(curve.points.len() + 1);
        let mut acc = 0.0;
        let mut from = 0.0;
        let mut height = f(1.0);
        for &(t, s) in &curve.points {
            rows.push(PrefixRow {
                until: t,
                from,
                acc,
                height,
            });
            if t > from {
                acc += (t - from) * height;
                from = t;
            }
            height = f(s);
        }
        rows.push(PrefixRow {
            until: f64::INFINITY,
            from,
            acc,
            height,
        });
        Self { rows }
    }

    /// `∫_0^cap f(S(t)) dt`.
    fn integral(&self, cap: f64) -> f64 {
        if cap <= 0.0 {
            return 0.0;
        }
        let row = &self.rows[self.rows.partition_point(|r| r.until < cap)];
        row.acc + (cap - row.from) * row.height
    }
}

/// `E[min(max(T_1..T_n), cap)]` for one category and group size `n`,
/// ready to answer any video length `cap` (see
/// [`SwipingAbstraction::max_engagement`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxEngagement(MaxEngagementKind);

#[derive(Debug, Clone, PartialEq)]
enum MaxEngagementKind {
    /// `∫ 1 − (1 − S)^n` tabulated over the category's curve.
    Curve(PrefixTable),
    /// No data for the category: the exponential prior, integrated per
    /// query.
    Prior { n: usize },
}

impl MaxEngagement {
    /// Expected time until the last of the `n` members swipes a video of
    /// length `cap` away (capped at `cap`).
    pub fn expected(&self, cap: SimDuration) -> SimDuration {
        let cap_s = cap.as_secs_f64();
        if cap_s == 0.0 {
            return SimDuration::ZERO;
        }
        let secs = match &self.0 {
            MaxEngagementKind::Curve(table) => table.integral(cap_s),
            MaxEngagementKind::Prior { n } => integrate_prior_max(*n, cap_s),
        };
        SimDuration::from_secs_f64(secs)
    }
}

/// Per-group, per-category swipe-time distributions (Kaplan–Meier).
///
/// Curves are compiled lazily, all categories in one pass, on the first
/// query after an [`ingest`](Self::ingest); every later query reads the
/// compiled curves. Demand prediction queries each group's curves about
/// a hundred times per interval, so refitting per query dominated it.
#[derive(Debug, Clone)]
pub struct SwipingAbstraction {
    per_category: Vec<VecDeque<Observation>>,
    /// Compiled curves by category index (`None` = no data, prior
    /// applies). Reset by `ingest`.
    curves: OnceLock<Vec<Option<KmCurve>>>,
}

impl Default for SwipingAbstraction {
    fn default() -> Self {
        Self::new()
    }
}

impl SwipingAbstraction {
    /// Builds an empty abstraction (all categories on the neutral prior).
    pub fn new() -> Self {
        Self {
            per_category: vec![VecDeque::new(); VideoCategory::COUNT],
            curves: OnceLock::new(),
        }
    }

    /// Builds directly from watch records.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a WatchRecord>) -> Self {
        let mut s = Self::new();
        s.ingest(records);
        s
    }

    /// Adds watch records (e.g. all member twins' histories for this
    /// interval). Completed views enter as right-censored observations;
    /// oldest samples are dropped beyond the rolling window.
    pub fn ingest<'a>(&mut self, records: impl IntoIterator<Item = &'a WatchRecord>) {
        self.curves = OnceLock::new();
        for r in records {
            let bucket = &mut self.per_category[r.category.index()];
            if bucket.len() == MAX_SAMPLES {
                bucket.pop_front();
            }
            // `completed` means the swipe was never observed: censored.
            bucket.push_back((r.watched.as_secs_f64(), !r.completed));
        }
    }

    /// Number of samples held for a category.
    pub fn sample_count(&self, category: VideoCategory) -> usize {
        self.per_category[category.index()].len()
    }

    /// Total samples across categories.
    pub fn total_samples(&self) -> usize {
        self.per_category.iter().map(|c| c.len()).sum()
    }

    fn curve(&self, category: VideoCategory) -> Option<&KmCurve> {
        self.curves.get_or_init(|| {
            self.per_category
                .iter()
                .map(|bucket| (!bucket.is_empty()).then(|| KmCurve::fit(bucket)))
                .collect()
        })[category.index()]
        .as_ref()
    }

    /// Cumulative swiping probability: the chance a group member has
    /// swiped a `category` video away by time `t_secs` (completions are
    /// not swipes). Kaplan–Meier when data exists, exponential prior
    /// otherwise.
    pub fn cumulative_probability(&self, category: VideoCategory, t_secs: f64) -> f64 {
        match self.curve(category) {
            Some(curve) => 1.0 - curve.survival(t_secs),
            None => 1.0 - (-t_secs.max(0.0) / PRIOR_MEAN_SECS).exp(),
        }
    }

    /// Expected engagement time with a `category` video of length `cap`:
    /// `E[min(T_swipe, cap)] = ∫_0^cap S(t) dt`.
    pub fn expected_engagement(&self, category: VideoCategory, cap: SimDuration) -> SimDuration {
        let cap_s = cap.as_secs_f64();
        let secs = match self.curve(category) {
            Some(curve) => PrefixTable::new(curve, |s| s).integral(cap_s),
            None => PRIOR_MEAN_SECS * (1.0 - (-cap_s / PRIOR_MEAN_SECS).exp()),
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Tabulates `E[min(max(T_1..T_n), cap)]` for a multicast group of
    /// `n` members over every video length `cap`: the time until the last
    /// member swipes, capped at the video length.
    ///
    /// Computed as `∫_0^cap (1 - (1 - S(t))^n) dt`. Because completions
    /// are censored, `S` retains mass at the video end, so large groups
    /// correctly hold videos to completion. Building costs one pass over
    /// the category's curve; each [`MaxEngagement::expected`] query then
    /// costs one binary search.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn max_engagement(&self, category: VideoCategory, n: usize) -> MaxEngagement {
        assert!(n > 0, "group must have at least one member");
        MaxEngagement(match self.curve(category) {
            Some(curve) => MaxEngagementKind::Curve(PrefixTable::new(curve, any_watching(n))),
            None => MaxEngagementKind::Prior { n },
        })
    }

    /// One-off [`max_engagement`](Self::max_engagement) query: the
    /// expected *transmission-governing* engagement of an `n`-member
    /// group with a `category` video of length `cap`. Callers with many
    /// caps should tabulate once instead.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn expected_max_engagement(
        &self,
        category: VideoCategory,
        n: usize,
        cap: SimDuration,
    ) -> SimDuration {
        self.max_engagement(category, n).expected(cap)
    }

    /// Scalar retention summary: expected engagement with a
    /// 60-second video of this category.
    pub fn mean_watch_secs(&self, category: VideoCategory) -> f64 {
        self.expected_engagement(category, SimDuration::from_secs_f64(SUMMARY_CAP_SECS))
            .as_secs_f64()
    }

    /// Categories ranked by retention, longest first (Fig. 3(a)'s "users
    /// watch News most, Game least" ordering).
    pub fn ranked_categories(&self) -> Vec<(VideoCategory, f64)> {
        let mut ranked: Vec<(VideoCategory, f64)> = VideoCategory::ALL
            .iter()
            .map(|&c| (c, self.mean_watch_secs(c)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite means"));
        ranked
    }
}

/// `1 − (1 − S)^n`: the chance that some of `n` members, each still
/// watching with probability `S`, is still watching.
fn any_watching(n: usize) -> impl Fn(f64) -> f64 {
    move |s| 1.0 - (1.0 - s).powi(n as i32)
}

fn integrate_prior_max(n: usize, cap: f64) -> f64 {
    const STEPS: usize = 200;
    let dt = cap / STEPS as f64;
    let mut acc = 0.0;
    for i in 0..STEPS {
        let t = (i as f64 + 0.5) * dt;
        let cdf = 1.0 - (-t / PRIOR_MEAN_SECS).exp();
        acc += (1.0 - cdf.powi(n as i32)) * dt;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::{RepresentationLevel, VideoId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference scan the prefix tables replace: `∫_0^cap f(S(t)) dt`
    /// walked breakpoint by breakpoint up to `cap`.
    fn reference_integral(curve: &KmCurve, cap: f64, f: impl Fn(f64) -> f64) -> f64 {
        if cap <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut prev_t = 0.0;
        let mut prev_s = 1.0;
        for &(t, s) in &curve.points {
            let t_clamped = t.min(cap);
            if t_clamped > prev_t {
                acc += (t_clamped - prev_t) * f(prev_s);
                prev_t = t_clamped;
            }
            prev_s = s;
            if prev_t >= cap {
                return acc;
            }
        }
        acc + (cap - prev_t) * f(prev_s)
    }

    fn record(cat: VideoCategory, secs: f64) -> WatchRecord {
        WatchRecord {
            video: VideoId(0),
            category: cat,
            level: RepresentationLevel::P720,
            watched: SimDuration::from_secs_f64(secs),
            video_duration: SimDuration::from_secs(60),
            completed: false,
        }
    }

    fn completed(cat: VideoCategory, secs: f64) -> WatchRecord {
        WatchRecord {
            completed: true,
            watched: SimDuration::from_secs_f64(secs),
            ..record(cat, secs)
        }
    }

    #[test]
    fn empty_abstraction_uses_prior() {
        let s = SwipingAbstraction::new();
        assert_eq!(s.total_samples(), 0);
        let p = s.cumulative_probability(VideoCategory::News, PRIOR_MEAN_SECS);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn uncensored_km_matches_empirical_cdf() {
        // Without completions, KM reduces to 1 - empirical survivor.
        let recs: Vec<WatchRecord> = (1..=20)
            .map(|i| record(VideoCategory::Music, i as f64))
            .collect();
        let s = SwipingAbstraction::from_records(recs.iter());
        assert!((s.cumulative_probability(VideoCategory::Music, 10.0) - 0.5).abs() < 1e-9);
        assert!((s.cumulative_probability(VideoCategory::Music, 0.5) - 0.0).abs() < 1e-9);
        assert_eq!(s.cumulative_probability(VideoCategory::Music, 100.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let recs: Vec<WatchRecord> = (1..=20)
            .map(|i| {
                if i % 4 == 0 {
                    completed(VideoCategory::Music, i as f64)
                } else {
                    record(VideoCategory::Music, i as f64)
                }
            })
            .collect();
        let s = SwipingAbstraction::from_records(recs.iter());
        let mut prev = -1.0;
        for t in 0..30 {
            let p = s.cumulative_probability(VideoCategory::Music, t as f64);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn completions_are_not_swipes() {
        // Half the views complete at 20 s: the swipe CDF must NOT reach 1
        // at 20 s — completed viewers never swiped.
        let mut recs = Vec::new();
        for i in 0..50 {
            recs.push(record(VideoCategory::News, 2.0 + (i % 10) as f64));
            recs.push(completed(VideoCategory::News, 20.0));
        }
        let s = SwipingAbstraction::from_records(recs.iter());
        let p = s.cumulative_probability(VideoCategory::News, 25.0);
        assert!(
            p < 0.95,
            "censored completions must leave survival mass: F(25) = {p}"
        );
        // Naive ECDF would say 1.0 here.
    }

    #[test]
    fn all_completed_means_nobody_swipes() {
        let recs: Vec<WatchRecord> = (0..30)
            .map(|_| completed(VideoCategory::Food, 15.0))
            .collect();
        let s = SwipingAbstraction::from_records(recs.iter());
        assert_eq!(s.cumulative_probability(VideoCategory::Food, 30.0), 0.0);
        // Expected engagement with any video = its full length.
        let e = s.expected_engagement(VideoCategory::Food, SimDuration::from_secs(40));
        assert!((e.as_secs_f64() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn categories_are_independent() {
        let mut s = SwipingAbstraction::new();
        s.ingest([record(VideoCategory::News, 50.0)].iter());
        assert_eq!(s.sample_count(VideoCategory::News), 1);
        assert_eq!(s.sample_count(VideoCategory::Game), 0);
    }

    #[test]
    fn expected_engagement_matches_hand_calc() {
        let recs = [
            record(VideoCategory::Food, 5.0),
            record(VideoCategory::Food, 15.0),
            record(VideoCategory::Food, 25.0),
        ];
        let s = SwipingAbstraction::from_records(recs.iter());
        // Uncensored: E[min(T, 20)] = (5 + 15 + 20)/3.
        let e = s.expected_engagement(VideoCategory::Food, SimDuration::from_secs(20));
        assert!((e.as_secs_f64() - 40.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn expected_max_grows_with_group_size() {
        let recs: Vec<WatchRecord> = (0..200)
            .map(|i| record(VideoCategory::Sports, 2.0 + (i % 30) as f64))
            .collect();
        let s = SwipingAbstraction::from_records(recs.iter());
        let cap = SimDuration::from_secs(60);
        let e1 = s.expected_max_engagement(VideoCategory::Sports, 1, cap);
        let e5 = s.expected_max_engagement(VideoCategory::Sports, 5, cap);
        let e50 = s.expected_max_engagement(VideoCategory::Sports, 50, cap);
        assert!(e1 < e5 && e5 < e50, "{e1} {e5} {e50}");
        assert!(e50.as_secs_f64() <= 60.0 + 1e-9);
        let plain = s.expected_engagement(VideoCategory::Sports, cap);
        assert!((e1.as_secs_f64() - plain.as_secs_f64()).abs() < 0.05);
    }

    #[test]
    fn censoring_keeps_groups_holding_to_completion() {
        // 30% completion rate: a large group almost surely contains a
        // completer, so the expected max must approach the video length.
        let mut recs = Vec::new();
        for i in 0..100 {
            if i % 3 == 0 {
                recs.push(completed(VideoCategory::Comedy, 30.0));
            } else {
                recs.push(record(VideoCategory::Comedy, 1.0 + (i % 8) as f64));
            }
        }
        let s = SwipingAbstraction::from_records(recs.iter());
        let cap = SimDuration::from_secs(30);
        let e20 = s.expected_max_engagement(VideoCategory::Comedy, 20, cap);
        assert!(
            e20.as_secs_f64() > 29.0,
            "20 members with 33% completers must hold ~30 s, got {e20}"
        );
    }

    #[test]
    fn expected_max_capped_by_video_length() {
        let recs: Vec<WatchRecord> = (0..50)
            .map(|_| record(VideoCategory::Comedy, 500.0))
            .collect();
        let s = SwipingAbstraction::from_records(recs.iter());
        let e = s.expected_max_engagement(VideoCategory::Comedy, 10, SimDuration::from_secs(30));
        assert!((e.as_secs_f64() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn ranked_categories_orders_by_retention() {
        let mut s = SwipingAbstraction::new();
        for _ in 0..50 {
            s.ingest([record(VideoCategory::News, 40.0)].iter());
            s.ingest([record(VideoCategory::Game, 3.0)].iter());
        }
        let ranked = s.ranked_categories();
        assert_eq!(ranked[0].0, VideoCategory::News);
        assert_eq!(ranked.last().unwrap().0, VideoCategory::Game);
    }

    #[test]
    fn rolling_window_caps_memory() {
        let mut s = SwipingAbstraction::new();
        for i in 0..(MAX_SAMPLES + 100) {
            s.ingest([record(VideoCategory::Music, i as f64 % 30.0)].iter());
        }
        assert_eq!(s.sample_count(VideoCategory::Music), MAX_SAMPLES);
    }

    #[test]
    fn km_curve_hand_example() {
        // Classic worked example: events at 2, 4; censored at 3.
        // S(2) = 1 - 1/3 = 2/3; at t=4 at-risk = 1: S(4) = 2/3 * 0 = 0.
        let curve = KmCurve::fit(&[(2.0, true), (3.0, false), (4.0, true)]);
        assert!((curve.survival(1.9) - 1.0).abs() < 1e-12);
        assert!((curve.survival(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((curve.survival(3.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!(curve.survival(4.0).abs() < 1e-12);
    }

    #[test]
    fn km_ties_events_before_censorings() {
        // Event and censoring both at t=5 with 2 at risk: the event sees
        // n=2, so S(5) = 1/2 (not 0).
        let curve = KmCurve::fit(&[(5.0, true), (5.0, false)]);
        assert!((curve.survival(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_is_an_empty_abstraction() {
        let mut s = SwipingAbstraction::default();
        assert_eq!(s.sample_count(VideoCategory::News), 0);
        s.ingest([record(VideoCategory::News, 5.0)].iter());
        assert_eq!(s.sample_count(VideoCategory::News), 1);
        assert_eq!(s.total_samples(), 1);
    }

    /// The compiled-curve cache must answer exactly as a fresh fit of the
    /// current window, before and after further ingestion.
    #[test]
    fn cached_curves_match_fresh_fits_across_ingest() {
        let fresh =
            |s: &SwipingAbstraction, cat: VideoCategory| KmCurve::fit(&s.per_category[cat.index()]);
        let check = |s: &SwipingAbstraction| {
            for cat in [VideoCategory::Music, VideoCategory::News] {
                let curve = fresh(s, cat);
                for t in [0.0, 1.5, 7.0, 12.25, 29.0, 61.0] {
                    assert_eq!(
                        s.cumulative_probability(cat, t).to_bits(),
                        (1.0 - curve.survival(t)).to_bits()
                    );
                }
                for cap in [5.0, 20.0, 45.5] {
                    let cap_d = SimDuration::from_secs_f64(cap);
                    let cap_s = cap_d.as_secs_f64();
                    assert_eq!(
                        s.expected_engagement(cat, cap_d),
                        SimDuration::from_secs_f64(reference_integral(&curve, cap_s, |x| x))
                    );
                    for n in [1, 3, 17] {
                        assert_eq!(
                            s.expected_max_engagement(cat, n, cap_d),
                            SimDuration::from_secs_f64(reference_integral(
                                &curve,
                                cap_s,
                                any_watching(n)
                            ))
                        );
                    }
                }
            }
        };
        let mut s = SwipingAbstraction::new();
        let batch = |offset: usize| -> Vec<WatchRecord> {
            (0..60)
                .map(|i| {
                    let secs = 1.0 + ((i * 7 + offset) % 31) as f64;
                    let cat = if i % 2 == 0 {
                        VideoCategory::Music
                    } else {
                        VideoCategory::News
                    };
                    if i % 5 == 0 {
                        completed(cat, secs)
                    } else {
                        record(cat, secs)
                    }
                })
                .collect()
        };
        s.ingest(batch(0).iter());
        check(&s);
        // A query compiled the cache; ingesting must invalidate it.
        s.ingest(batch(13).iter());
        check(&s);
    }

    #[test]
    fn rolling_window_keeps_the_newest_samples() {
        let mut s = SwipingAbstraction::new();
        for i in 0..(MAX_SAMPLES + 5) {
            s.ingest([record(VideoCategory::Music, i as f64)].iter());
        }
        let kept: Vec<f64> = s.per_category[VideoCategory::Music.index()]
            .iter()
            .map(|o| o.0)
            .collect();
        let expected: Vec<f64> = (5..MAX_SAMPLES + 5).map(|i| i as f64).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_member_group_panics() {
        let s = SwipingAbstraction::new();
        let _ = s.expected_max_engagement(VideoCategory::News, 0, SimDuration::from_secs(10));
    }

    /// Seeded random observation sets on a half-second grid (ties),
    /// with events at `t = 0` and a mix of censoring rates.
    fn random_observations(rng: &mut StdRng) -> Vec<Observation> {
        let len = rng.gen_range(1..400usize);
        let censor_rate = rng.gen::<f64>();
        (0..len)
            .map(|_| {
                let t = if rng.gen_bool(0.05) {
                    0.0
                } else {
                    rng.gen_range(0..120u32) as f64 * 0.5
                };
                (t, !rng.gen_bool(censor_rate))
            })
            .collect()
    }

    /// Caps at, between and beyond every breakpoint, plus zero.
    fn caps_for(curve: &KmCurve) -> Vec<f64> {
        let mut caps = vec![0.0, 1e-3, 0.25];
        let mut prev = 0.0;
        for &(t, _) in &curve.points {
            caps.extend([t, 0.5 * (prev + t), t + 1e-9]);
            prev = t;
        }
        caps.extend([prev + 0.5, prev + 100.0]);
        caps
    }

    fn assert_tables_match_scan(curve: &KmCurve) {
        let identity = PrefixTable::new(curve, |s| s);
        for cap in caps_for(curve) {
            assert_eq!(
                identity.integral(cap).to_bits(),
                reference_integral(curve, cap, |s| s).to_bits(),
                "f(s) = s, cap {cap}, curve {curve:?}"
            );
        }
        for n in [1usize, 2, 7, 250, 1000] {
            let table = PrefixTable::new(curve, any_watching(n));
            for cap in caps_for(curve) {
                assert_eq!(
                    table.integral(cap).to_bits(),
                    reference_integral(curve, cap, any_watching(n)).to_bits(),
                    "n {n}, cap {cap}, curve {curve:?}"
                );
            }
        }
    }

    #[test]
    fn prefix_tables_are_bit_identical_to_the_scan() {
        let mut rng = StdRng::seed_from_u64(0x5CA9);
        for _ in 0..200 {
            assert_tables_match_scan(&KmCurve::fit(&random_observations(&mut rng)));
        }
    }

    #[test]
    fn prefix_tables_match_the_scan_on_edge_curves() {
        let all_censored: Vec<Observation> = (0..30).map(|i| (i as f64, false)).collect();
        let curve = KmCurve::fit(&all_censored);
        assert!(curve.points.is_empty());
        assert_tables_match_scan(&curve);
        // Every member swipes at once at t = 0: survival is 0 throughout.
        assert_tables_match_scan(&KmCurve::fit(&[(0.0, true), (0.0, true)]));
        // An event at t = 0 followed by tied events and censorings.
        assert_tables_match_scan(&KmCurve::fit(&[
            (0.0, true),
            (0.0, false),
            (3.0, true),
            (3.0, true),
            (3.0, false),
            (7.5, false),
            (9.0, true),
        ]));
        // Survival reaches zero before the largest cap.
        assert_tables_match_scan(&KmCurve::fit(&[(2.0, true), (4.0, true)]));
    }

    /// The public query answers exactly as the scan did, through the
    /// `SimDuration` conversions, for data-backed and prior categories.
    #[test]
    fn max_engagement_matches_the_scan_through_the_public_api() {
        let mut rng = StdRng::seed_from_u64(7);
        let records: Vec<WatchRecord> = random_observations(&mut rng)
            .into_iter()
            .map(|(t, event)| {
                if event {
                    record(VideoCategory::Music, t)
                } else {
                    completed(VideoCategory::Music, t)
                }
            })
            .collect();
        let s = SwipingAbstraction::from_records(records.iter());
        let curve = KmCurve::fit(&s.per_category[VideoCategory::Music.index()]);
        for n in [1usize, 2, 7, 250, 1000] {
            let music = s.max_engagement(VideoCategory::Music, n);
            let prior = s.max_engagement(VideoCategory::Game, n);
            for cap in caps_for(&curve) {
                let cap_d = SimDuration::from_secs_f64(cap);
                let cap_s = cap_d.as_secs_f64();
                let expected = if cap_s == 0.0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_secs_f64(reference_integral(&curve, cap_s, any_watching(n)))
                };
                assert_eq!(music.expected(cap_d), expected, "n {n}, cap {cap}");
                let prior_expected = if cap_s == 0.0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_secs_f64(integrate_prior_max(n, cap_s))
                };
                assert_eq!(prior.expected(cap_d), prior_expected, "n {n}, cap {cap}");
                assert_eq!(
                    s.expected_max_engagement(VideoCategory::Music, n, cap_d),
                    music.expected(cap_d)
                );
            }
        }
    }
}
