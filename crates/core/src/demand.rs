//! Group-based radio and computing resource demand prediction.
//!
//! For each multicast group over the next reservation interval the
//! predictor estimates:
//!
//! - **Radio**: the average number of OFDMA resource blocks needed to carry
//!   the group's multicast stream. The BS transmits each recommended video
//!   until the *last* member swipes (plus a prefetch horizon), so the
//!   expected per-video transmission time is
//!   `E[min(len, max-of-n watch durations) + prefetch]` computed from the
//!   group's swiping abstraction — this is precisely where the paper's
//!   swiping probability distribution enters resource reservation.
//! - **Computing**: expected transcoding cycles at the edge, from the
//!   recommendation pool's cache-miss profile and the same expected
//!   transmission times.

use msvs_channel::link::cqi_efficiency;
use msvs_channel::{group_resource_demand, Link};
use msvs_edge::{TranscodeModel, VideoCache};
use msvs_types::{
    CpuCycles, Error, GroupId, Hertz, RepresentationLevel, ResourceBlocks, Result, SimDuration,
    UserId, VideoCategory,
};
use msvs_video::Catalog;

use crate::recommend::GroupRecommendation;
use crate::swiping::{MaxEngagement, SwipingAbstraction};

/// Demand-prediction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandConfig {
    /// Reservation interval the prediction covers.
    pub interval: SimDuration,
    /// Resource-block bandwidth.
    pub rb_bandwidth: Hertz,
    /// Seconds of video buffered ahead of playback; transmitted even if
    /// every member swipes (the paper's over-provisioning source).
    pub prefetch_secs: f64,
    /// Segment length: transmission is quantised to whole segments (DASH
    /// short-form commonly uses 1 s segments).
    pub segment_secs: f64,
    /// Dead time between videos in the feed.
    pub swipe_gap_secs: f64,
    /// Resource blocks the scheduler is willing to give one group when
    /// choosing its representation level.
    pub group_rb_budget: f64,
    /// Safety margin on the sustainable rate when picking the level.
    pub rate_margin: f64,
    /// If `true`, ignore the swiping abstraction and assume every video is
    /// fully transmitted (the "no swiping abstraction" baseline).
    pub assume_full_watch: bool,
}

impl Default for DemandConfig {
    fn default() -> Self {
        Self {
            interval: SimDuration::from_mins(5),
            rb_bandwidth: Hertz::from_mhz(0.18),
            prefetch_secs: 3.0,
            segment_secs: 1.0,
            swipe_gap_secs: 0.5,
            group_rb_budget: 10.0,
            rate_margin: 0.8,
            assume_full_watch: false,
        }
    }
}

impl DemandConfig {
    fn validate(&self) -> Result<()> {
        if self.interval == SimDuration::ZERO {
            return Err(Error::invalid_config("interval", "must be non-zero"));
        }
        if self.rb_bandwidth.value() <= 0.0 {
            return Err(Error::invalid_config("rb_bandwidth", "must be positive"));
        }
        // Written as `!(x >= 0)` so NaN fails too.
        if !(self.prefetch_secs >= 0.0 && self.swipe_gap_secs >= 0.0) {
            return Err(Error::invalid_config(
                "prefetch/swipe gap",
                "must be non-negative",
            ));
        }
        if !(self.segment_secs > 0.0 && self.segment_secs.is_finite()) {
            return Err(Error::invalid_config(
                "segment_secs",
                "must be positive and finite",
            ));
        }
        if self.group_rb_budget.is_nan() || self.group_rb_budget <= 0.0 {
            return Err(Error::invalid_config("group_rb_budget", "must be positive"));
        }
        if !(self.rate_margin > 0.0 && self.rate_margin <= 1.0) {
            return Err(Error::invalid_config("rate_margin", "must be in (0, 1]"));
        }
        Ok(())
    }
}

/// Predicted demand for one multicast group over one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDemandPrediction {
    /// The group.
    pub group: GroupId,
    /// Its members.
    pub members: Vec<UserId>,
    /// Representation level the group stream will use.
    pub level: RepresentationLevel,
    /// Worst member spectral efficiency, bits/s/Hz.
    pub min_efficiency: f64,
    /// Predicted average radio demand over the interval.
    pub radio: ResourceBlocks,
    /// Predicted transcoding cycles over the interval.
    pub computing: CpuCycles,
    /// Expected number of videos the group advances through.
    pub expected_slots: f64,
    /// Expected multicast traffic over the interval, megabits.
    pub expected_traffic_mb: f64,
    /// Expected prefetched-but-unplayed traffic over the interval,
    /// megabits: segments transmitted past each BS's last local swipe (the
    /// paper's "precached segments are not played" over-provisioning).
    pub expected_waste_mb: f64,
}

/// Picks the representation level a group can sustain: the highest level
/// whose nominal bitrate fits within `rate_margin` of the rate achievable
/// over `group_rb_budget` RBs at the group's worst-member SNR.
///
/// Falls back to the lowest level when even that does not fit.
pub fn choose_group_level(
    worst_snr_db: f64,
    link: &Link,
    config: &DemandConfig,
) -> RepresentationLevel {
    let capacity = link.rate_over_rbs(worst_snr_db, config.group_rb_budget);
    let budget = capacity.value() * config.rate_margin;
    RepresentationLevel::ALL
        .iter()
        .rev()
        .copied()
        .find(|l| l.nominal_bitrate().value() <= budget)
        .unwrap_or(RepresentationLevel::P240)
}

/// One group member's state at prediction time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberState {
    /// The user.
    pub user: UserId,
    /// Channel-condition estimate from the twin, dB.
    pub snr_db: f64,
    /// Index of the serving base station (0 in single-cell setups).
    pub bs: usize,
}

impl MemberState {
    /// Builds a single-cell member state (BS 0).
    pub fn new(user: UserId, snr_db: f64) -> Self {
        Self {
            user,
            snr_db,
            bs: 0,
        }
    }
}

/// Predicts one group's radio and computing demand for the next interval.
///
/// Inputs are exactly the artifacts the scheme has abstracted: the group's
/// member states (SNR from the UDT channel series, serving BS from the
/// twin location), its swiping abstraction, and its recommendation pool,
/// plus read-only views of the catalog and edge cache.
///
/// Radio accounting is per BS: each base station multicasts the group
/// stream to its locally attached members and stops once the last *local*
/// member has swiped (plus the prefetch horizon), at the MCS of its worst
/// local member.
///
/// # Errors
/// Returns `InsufficientData` for an empty group or empty recommendation
/// pool, and `InvalidConfig` for bad parameters.
#[allow(clippy::too_many_arguments)]
pub fn predict_group_demand(
    group: GroupId,
    members: &[MemberState],
    swiping: &SwipingAbstraction,
    recommendation: &GroupRecommendation,
    catalog: &Catalog,
    cache: &VideoCache,
    transcode: &TranscodeModel,
    link: &Link,
    config: &DemandConfig,
) -> Result<GroupDemandPrediction> {
    config.validate()?;
    if members.is_empty() {
        return Err(Error::insufficient("group needs at least one member"));
    }
    if recommendation.is_empty() {
        return Err(Error::insufficient("non-empty recommendation pool"));
    }
    let n = members.len();
    let worst_snr = members
        .iter()
        .map(|m| m.snr_db)
        .fold(f64::INFINITY, f64::min);
    let min_efficiency = cqi_efficiency(worst_snr);
    let level = choose_group_level(worst_snr, link, config);

    // Per-BS membership: subset sizes and worst local efficiencies.
    let n_bs = members.iter().map(|m| m.bs).max().expect("non-empty") + 1;
    let mut bs_count = vec![0usize; n_bs];
    let mut bs_min_eff = vec![f64::INFINITY; n_bs];
    for m in members {
        bs_count[m.bs] += 1;
        bs_min_eff[m.bs] = bs_min_eff[m.bs].min(cqi_efficiency(m.snr_db));
    }

    // Expectations over the recommendation pool. Transmission is
    // quantised to whole segments; the expectation of the ceiling is
    // approximated by adding half a segment.
    let seg_bias = config.segment_secs / 2.0;
    let mut tables = HoldTables::new(swiping);
    let mut exp_slot_secs = 0.0; // feed-advance time per slot (global max)
    let mut exp_traffic_mb_per_slot = vec![0.0f64; n_bs]; // per BS
    let mut exp_waste_mb_per_slot = 0.0;
    let mut exp_cycles_per_slot = 0.0;
    for (video_id, p) in recommendation.entries() {
        let video = catalog.get(*video_id)?;
        let cap = video.duration;
        let cap_s = cap.as_secs_f64();
        let bitrate = video
            .representation(level)
            .map(|r| r.bitrate.value())
            .unwrap_or_else(|| level.nominal_bitrate().value());
        let global_tx;
        if config.assume_full_watch {
            exp_slot_secs += p * cap_s;
            global_tx = cap_s;
            for (bs, &count) in bs_count.iter().enumerate() {
                if count > 0 {
                    exp_traffic_mb_per_slot[bs] += p * bitrate * cap_s;
                }
            }
        } else {
            // E[min(cap, T + x)] = x + E[min(cap - x, T)] for the prefetch
            // lead x — the exact expectation, not min(E[T] + x, cap),
            // which overstates transmission when T concentrates near cap.
            let lead = (config.prefetch_secs + seg_bias).min(cap_s);
            let shrunk_cap = SimDuration::from_secs_f64(cap_s - lead);
            let (hold, tx) = tables.hold_and_tx(video.category, n, cap, shrunk_cap, lead);
            exp_slot_secs += p * hold;
            global_tx = tx;
            for (bs, &count) in bs_count.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                // Each BS transmits until its *local* last swipe.
                let (local_hold, tx) = if count == n {
                    (hold, global_tx)
                } else {
                    tables.hold_and_tx(video.category, count, cap, shrunk_cap, lead)
                };
                exp_traffic_mb_per_slot[bs] += p * bitrate * tx;
                exp_waste_mb_per_slot += p * bitrate * (tx - local_hold).max(0.0);
            }
        }
        // Transcode cost only when the exact level is not already cached;
        // remote fetches also transcode down from the fetched top level.
        // The edge transcodes once per video regardless of BS fan-out.
        let needs_transcode = !cache.contains(*video_id, level)
            && (cache.contains_at_or_above(*video_id, level) || video.top_level() > level);
        if needs_transcode {
            exp_cycles_per_slot += p * transcode.cost_rate(level).value() * global_tx;
        }
    }
    let slot_total = exp_slot_secs + config.swipe_gap_secs;
    let interval_s = config.interval.as_secs_f64();
    let expected_slots = interval_s / slot_total.max(1e-6);
    let mut radio = ResourceBlocks::ZERO;
    let mut expected_traffic_mb = 0.0;
    for (bs, &per_slot) in exp_traffic_mb_per_slot.iter().enumerate() {
        if bs_count[bs] == 0 {
            continue;
        }
        let traffic = expected_slots * per_slot;
        expected_traffic_mb += traffic;
        let avg_rate = msvs_types::Mbps(traffic / interval_s);
        radio += group_resource_demand(avg_rate, bs_min_eff[bs], config.rb_bandwidth);
    }
    let computing = CpuCycles(expected_slots * exp_cycles_per_slot);

    Ok(GroupDemandPrediction {
        group,
        members: members.iter().map(|m| m.user).collect(),
        level,
        min_efficiency,
        radio,
        computing,
        expected_slots,
        expected_traffic_mb,
        expected_waste_mb: expected_slots * exp_waste_mb_per_slot,
    })
}

/// The swipe-curve tables one group's prediction queries, built on first
/// use per `(category, member count)`: the group size, plus one count per
/// BS holding only part of the group.
struct HoldTables<'a> {
    swiping: &'a SwipingAbstraction,
    tables: Vec<(VideoCategory, usize, MaxEngagement)>,
}

impl<'a> HoldTables<'a> {
    fn new(swiping: &'a SwipingAbstraction) -> Self {
        Self {
            swiping,
            tables: Vec::new(),
        }
    }

    /// `(hold, tx)` for `n` members watching a `category` video of length
    /// `cap`: the expected time until the last of them swipes, and the
    /// expected transmission time with the prefetch `lead`, which is
    /// `lead + E[min(max T, cap - lead)]`.
    fn hold_and_tx(
        &mut self,
        category: VideoCategory,
        n: usize,
        cap: SimDuration,
        shrunk_cap: SimDuration,
        lead: f64,
    ) -> (f64, f64) {
        let i = match self
            .tables
            .iter()
            .position(|(c, m, _)| *c == category && *m == n)
        {
            Some(i) => i,
            None => {
                let table = self.swiping.max_engagement(category, n);
                self.tables.push((category, n, table));
                self.tables.len() - 1
            }
        };
        let table = &self.tables[i].2;
        (
            table.expected(cap).as_secs_f64(),
            lead + table.expected(shrunk_cap).as_secs_f64(),
        )
    }
}

/// Prediction accuracy as defined in the paper's evaluation:
/// `1 - |predicted - actual| / actual`, clamped to `[0, 1]`.
///
/// Returns 1.0 when both are (near) zero and 0.0 when only the actual is.
pub fn prediction_accuracy(predicted: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-12 {
        return if predicted.abs() < 1e-12 { 1.0 } else { 0.0 };
    }
    (1.0 - (predicted - actual).abs() / actual.abs()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommend::{recommend_for_group, RecommenderConfig};
    use msvs_channel::LinkConfig;
    use msvs_types::{SimDuration, VideoCategory, VideoId};
    use msvs_udt::WatchRecord;
    use msvs_video::CatalogConfig;

    fn setup() -> (
        Catalog,
        VideoCache,
        Link,
        SwipingAbstraction,
        GroupRecommendation,
    ) {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 200,
            seed: 21,
            ..Default::default()
        })
        .unwrap();
        let mut cache = VideoCache::new(100_000.0);
        cache.warm_from(&catalog);
        let link = Link::new(LinkConfig::default());
        let mut swiping = SwipingAbstraction::new();
        for cat in VideoCategory::ALL {
            for i in 0..100 {
                swiping.ingest(
                    [WatchRecord {
                        video: VideoId(0),
                        category: cat,
                        level: RepresentationLevel::P720,
                        watched: SimDuration::from_secs_f64(2.0 + (i % 20) as f64),
                        video_duration: SimDuration::from_secs(60),
                        completed: false,
                    }]
                    .iter(),
                );
            }
        }
        let pref = vec![1.0 / 8.0; 8];
        let rec = recommend_for_group(&catalog, &pref, &RecommenderConfig::default()).unwrap();
        (catalog, cache, link, swiping, rec)
    }

    fn members(n: usize, snr: f64) -> Vec<MemberState> {
        (0..n)
            .map(|i| MemberState::new(UserId(i as u32), snr))
            .collect()
    }

    #[test]
    fn good_channel_gets_high_level() {
        let link = Link::new(LinkConfig::default());
        let cfg = DemandConfig::default();
        let high = choose_group_level(25.0, &link, &cfg);
        let low = choose_group_level(-6.5, &link, &cfg);
        assert!(high >= RepresentationLevel::P720, "got {high}");
        assert_eq!(low, RepresentationLevel::P240);
        assert!(high > low);
    }

    #[test]
    fn prediction_has_sane_shape() {
        let (catalog, cache, link, swiping, rec) = setup();
        let p = predict_group_demand(
            GroupId(0),
            &members(10, 18.0),
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &DemandConfig::default(),
        )
        .unwrap();
        assert!(p.radio.value() > 0.0 && p.radio.value().is_finite());
        assert!(p.expected_slots > 1.0);
        assert!(p.expected_traffic_mb > 0.0);
        assert_eq!(p.members.len(), 10);
        assert!(p.min_efficiency > 0.0);
    }

    #[test]
    fn full_watch_baseline_predicts_more_traffic() {
        let (catalog, cache, link, swiping, rec) = setup();
        let base = DemandConfig::default();
        let full = DemandConfig {
            assume_full_watch: true,
            ..base
        };
        let swipe_aware = predict_group_demand(
            GroupId(0),
            &members(8, 18.0),
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &base,
        )
        .unwrap();
        let naive = predict_group_demand(
            GroupId(0),
            &members(8, 18.0),
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &full,
        )
        .unwrap();
        // Heavy swipers (mean ~11.5 s of <=60 s videos): naive per-slot
        // traffic must be clearly larger.
        let naive_per_slot = naive.expected_traffic_mb / naive.expected_slots;
        let aware_per_slot = swipe_aware.expected_traffic_mb / swipe_aware.expected_slots;
        assert!(
            naive_per_slot > aware_per_slot * 1.5,
            "naive {naive_per_slot:.1} vs aware {aware_per_slot:.1}"
        );
    }

    #[test]
    fn larger_groups_hold_videos_longer() {
        let (catalog, cache, link, swiping, rec) = setup();
        let cfg = DemandConfig::default();
        let small = predict_group_demand(
            GroupId(0),
            &members(2, 18.0),
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &cfg,
        )
        .unwrap();
        let big = predict_group_demand(
            GroupId(0),
            &members(40, 18.0),
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &cfg,
        )
        .unwrap();
        assert!(big.expected_slots < small.expected_slots);
    }

    #[test]
    fn worse_channel_needs_more_rbs() {
        let (catalog, cache, link, swiping, rec) = setup();
        let cfg = DemandConfig::default();
        let run = |snr: f64| {
            predict_group_demand(
                GroupId(0),
                &members(8, snr),
                &swiping,
                &rec,
                &catalog,
                &cache,
                &TranscodeModel::default(),
                &link,
                &cfg,
            )
            .unwrap()
        };
        let good = run(22.0);
        let bad = run(3.0);
        // Lower efficiency per RB; even at a lower level, RB/Mb is worse.
        let good_rb_per_mb = good.radio.value() / good.expected_traffic_mb;
        let bad_rb_per_mb = bad.radio.value() / bad.expected_traffic_mb;
        assert!(bad_rb_per_mb > good_rb_per_mb * 2.0);
    }

    #[test]
    fn empty_group_or_pool_errors() {
        let (catalog, cache, link, swiping, rec) = setup();
        assert!(predict_group_demand(
            GroupId(0),
            &[],
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &DemandConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(prediction_accuracy(100.0, 100.0), 1.0);
        assert!((prediction_accuracy(95.0, 100.0) - 0.95).abs() < 1e-12);
        assert!((prediction_accuracy(105.0, 100.0) - 0.95).abs() < 1e-12);
        assert_eq!(prediction_accuracy(300.0, 100.0), 0.0, "clamped");
        assert_eq!(prediction_accuracy(0.0, 0.0), 1.0);
        assert_eq!(prediction_accuracy(5.0, 0.0), 0.0);
    }

    #[test]
    fn rejects_invalid_config() {
        let bad = DemandConfig {
            interval: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = DemandConfig {
            rate_margin: 1.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_zero_rate_margin() {
        let bad = DemandConfig {
            rate_margin: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_nan_prefetch() {
        let bad = DemandConfig {
            prefetch_secs: f64::NAN,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_nan_swipe_gap() {
        let bad = DemandConfig {
            swipe_gap_secs: f64::NAN,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_nan_group_rb_budget() {
        let bad = DemandConfig {
            group_rb_budget: f64::NAN,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    /// Members on three BSs (5 + 3 + 1), so every BS holds only part of
    /// the group, over a swiping abstraction with censored completions in
    /// half the categories and the prior in the rest.
    #[test]
    fn three_bs_prediction_golden_bits() {
        let (catalog, cache, link, _, rec) = setup();
        let mut swiping = SwipingAbstraction::new();
        for cat in VideoCategory::ALL.iter().step_by(2) {
            let records: Vec<WatchRecord> = (0..300)
                .map(|i| WatchRecord {
                    video: VideoId(0),
                    category: *cat,
                    level: RepresentationLevel::P720,
                    watched: SimDuration::from_millis(500 + (i * 337) % 45_000),
                    video_duration: SimDuration::from_secs(45),
                    completed: i % 7 == 0,
                })
                .collect();
            swiping.ingest(records.iter());
        }
        let members: Vec<MemberState> = (0..9)
            .map(|i| MemberState {
                user: UserId(i),
                snr_db: 4.0 + 2.5 * i as f64,
                bs: match i {
                    0..=4 => 0,
                    5..=7 => 1,
                    _ => 2,
                },
            })
            .collect();
        let p = predict_group_demand(
            GroupId(3),
            &members,
            &swiping,
            &rec,
            &catalog,
            &cache,
            &TranscodeModel::default(),
            &link,
            &DemandConfig::default(),
        )
        .unwrap();
        let bits = [
            p.radio.value().to_bits(),
            p.computing.0.to_bits(),
            p.expected_slots.to_bits(),
            p.expected_traffic_mb.to_bits(),
            p.expected_waste_mb.to_bits(),
        ];
        // Captured from the per-query scan that the tables replaced.
        assert_eq!(
            bits,
            [
                0x4022_b7ab_1d54_e764,
                0x421e_2d25_5476_a140,
                0x4022_c192_4a97_b73f,
                0x408a_d11a_fe0d_46f8,
                0x4053_7eb6_2207_3f5e,
            ]
        );
    }
}
