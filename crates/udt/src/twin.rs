//! The per-user digital twin.

use std::fmt;

use msvs_telemetry::json::{self, Json};
use msvs_types::{
    Position, RepresentationLevel, SimDuration, SimTime, UserId, VideoCategory, VideoId,
};

use crate::attribute::{TimeSeries, WatchRecord};

/// Default retained history per attribute.
const CHANNEL_CAPACITY: usize = 256;
const LOCATION_CAPACITY: usize = 256;
const WATCH_CAPACITY: usize = 512;

/// Fixed-size multichannel window extracted from a twin for the 1D-CNN.
///
/// Channels (in order): normalised SNR, normalised x, normalised y,
/// normalised recent watch durations. The preference vector rides along
/// separately — it is a distribution, not a time series.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureWindow {
    /// `channels x window` matrix, row-major, values roughly in `[0, 1]`.
    pub series: Vec<Vec<f32>>,
    /// Current preference distribution over categories.
    pub preference: Vec<f32>,
}

impl FeatureWindow {
    /// Number of time-series channels.
    pub const CHANNELS: usize = 4;

    /// Window length (all channels share it).
    pub fn window_len(&self) -> usize {
        self.series.first().map_or(0, |c| c.len())
    }

    /// Flattens to a `channels * window + preference` feature vector.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out: Vec<f32> = self.series.iter().flatten().copied().collect();
        out.extend_from_slice(&self.preference);
        out
    }
}

/// One interval's uplink reports for a single twin, buffered so they
/// reach it in one write ([`UserDigitalTwin::apply_reports`]) instead of
/// one locked write per sample.
///
/// Each attribute keeps its own arrival order; the twin applies them in
/// that order, so every series ends up exactly as if each report had
/// been written on arrival.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwinReports {
    channel: Vec<(SimTime, f64)>,
    location: Vec<(SimTime, Position)>,
    /// `(at, rate)` per preference refresh.
    preference: Vec<(SimTime, f64)>,
}

impl TwinReports {
    /// Queues a channel sample (SNR in dB).
    pub fn channel(&mut self, at: SimTime, snr_db: f64) {
        self.channel.push((at, snr_db));
    }

    /// Queues a location sample.
    pub fn location(&mut self, at: SimTime, position: Position) {
        self.location.push((at, position));
    }

    /// Queues a preference refresh from the watch history at `rate`.
    pub fn refresh_preference(&mut self, at: SimTime, rate: f64) {
        self.preference.push((at, rate));
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.channel.is_empty() && self.location.is_empty() && self.preference.is_empty()
    }
}

/// Edge-resident mirror of one user's status.
///
/// Base stations push channel, location, and watch updates at their
/// configured frequencies; the prediction scheme reads consistent feature
/// windows out.
#[derive(Debug, Clone, PartialEq)]
pub struct UserDigitalTwin {
    user: UserId,
    channel_db: TimeSeries<f64>,
    location: TimeSeries<Position>,
    watches: TimeSeries<WatchRecord>,
    preference: Vec<f64>,
    preference_updated: Option<SimTime>,
    /// Store-stamped creation nonce: distinguishes successive twins that
    /// reuse one `UserId` slot (churn), so downstream caches keyed on
    /// revisions cannot confuse them. Run-local bookkeeping.
    instance: u64,
    /// Monotone per-attribute revision counters, bumped only when a
    /// mutation is actually *accepted* (rejected corrupt samples leave
    /// them untouched). Together with `instance` they identify a twin's
    /// content version without re-reading the series. Run-local
    /// bookkeeping.
    channel_rev: u64,
    location_rev: u64,
    watch_rev: u64,
    preference_rev: u64,
}

/// Snapshot of a twin's identity nonce plus per-attribute revisions —
/// equal keys prove the twin's feature-relevant content is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwinRevision {
    /// Store-stamped creation nonce (churn-safe identity).
    pub instance: u64,
    /// Channel-series revision.
    pub channel: u64,
    /// Location-series revision.
    pub location: u64,
    /// Watch-series revision.
    pub watch: u64,
    /// Preference-vector revision.
    pub preference: u64,
}

impl UserDigitalTwin {
    /// Builds an empty twin with a uniform preference prior.
    pub fn new(user: UserId) -> Self {
        Self {
            user,
            channel_db: TimeSeries::new(CHANNEL_CAPACITY),
            location: TimeSeries::new(LOCATION_CAPACITY),
            watches: TimeSeries::new(WATCH_CAPACITY),
            preference: vec![1.0 / VideoCategory::COUNT as f64; VideoCategory::COUNT],
            preference_updated: None,
            instance: 0,
            channel_rev: 0,
            location_rev: 0,
            watch_rev: 0,
            preference_rev: 0,
        }
    }

    /// The mirrored user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The combined identity + revision key for cache invalidation.
    pub fn revision(&self) -> TwinRevision {
        TwinRevision {
            instance: self.instance,
            channel: self.channel_rev,
            location: self.location_rev,
            watch: self.watch_rev,
            preference: self.preference_rev,
        }
    }

    pub(crate) fn set_instance(&mut self, instance: u64) {
        self.instance = instance;
    }

    /// SNR plausibility bound, dB: anything outside `±100` is a corrupted
    /// report, not physics.
    const SNR_PLAUSIBLE_DB: f64 = 100.0;

    /// Whether [`update_channel`](Self::update_channel) accepts `snr_db`:
    /// finite and within `±100` dB. A pure function of the payload.
    pub fn plausible_snr(snr_db: f64) -> bool {
        snr_db.is_finite() && snr_db.abs() <= Self::SNR_PLAUSIBLE_DB
    }

    /// Whether [`update_location`](Self::update_location) accepts
    /// `position`: both coordinates finite.
    pub fn plausible_position(position: Position) -> bool {
        position.x.is_finite() && position.y.is_finite()
    }

    /// Records a channel-condition sample (SNR in dB). Returns whether
    /// the sample was accepted.
    ///
    /// Non-finite or wildly implausible samples (a corrupted report from a
    /// BS) are rejected: a single NaN would otherwise poison every
    /// downstream mean, feature window, and CNN weight. Callers count
    /// rejections so corruption is visible in telemetry.
    pub fn update_channel(&mut self, at: SimTime, snr_db: f64) -> bool {
        if Self::plausible_snr(snr_db) {
            self.channel_db.push(at, snr_db);
            self.channel_rev += 1;
            true
        } else {
            false
        }
    }

    /// Records a location sample. Returns whether the sample was accepted
    /// (non-finite coordinates are rejected).
    pub fn update_location(&mut self, at: SimTime, position: Position) -> bool {
        if Self::plausible_position(position) {
            self.location.push(at, position);
            self.location_rev += 1;
            true
        } else {
            false
        }
    }

    /// Records a completed/swiped video view.
    pub fn record_watch(&mut self, at: SimTime, record: WatchRecord) {
        self.watches.push(at, record);
        self.watch_rev += 1;
    }

    /// Records `records` in order, all reported at `at`; equivalent to
    /// one [`record_watch`](Self::record_watch) per record.
    pub fn record_watches(&mut self, at: SimTime, records: Vec<WatchRecord>) {
        self.watch_rev += records.len() as u64;
        self.watches.extend(records.into_iter().map(|r| (at, r)));
    }

    /// Applies a batch of uplink reports and returns how many samples
    /// were rejected as corrupt.
    ///
    /// Equivalent to calling [`update_channel`](Self::update_channel),
    /// [`update_location`](Self::update_location) and
    /// [`refresh_preference_from_watches`](Self::refresh_preference_from_watches)
    /// once per queued report: each attribute's reports land in queue
    /// order, revisions rise by the accepted count, and rejection is the
    /// same payload check. The attributes are independent (a refresh reads
    /// only the watch history, which no report writes), so applying them
    /// attribute by attribute changes nothing.
    pub fn apply_reports(&mut self, reports: &TwinReports) -> u64 {
        /// Appends the plausible `samples`, bumps `rev` by their count and
        /// returns how many were rejected.
        fn append<T: Copy>(
            series: &mut TimeSeries<T>,
            rev: &mut u64,
            samples: &[(SimTime, T)],
            plausible: fn(T) -> bool,
        ) -> u64 {
            let accepted = samples.iter().filter(|&&(_, v)| plausible(v)).count();
            series.extend(samples.iter().copied().filter(|&(_, v)| plausible(v)));
            *rev += accepted as u64;
            (samples.len() - accepted) as u64
        }

        let rejected = append(
            &mut self.channel_db,
            &mut self.channel_rev,
            &reports.channel,
            Self::plausible_snr,
        ) + append(
            &mut self.location,
            &mut self.location_rev,
            &reports.location,
            Self::plausible_position,
        );
        for &(at, rate) in &reports.preference {
            self.refresh_preference_from_watches(at, rate);
        }
        rejected
    }

    /// Replaces the preference estimate (e.g. from the recommender's
    /// label + engagement update described in the paper).
    ///
    /// # Panics
    /// Panics if `preference` is not one mass per category.
    pub fn set_preference(&mut self, at: SimTime, preference: Vec<f64>) {
        assert_eq!(
            preference.len(),
            VideoCategory::COUNT,
            "one preference mass per category"
        );
        self.preference = preference;
        self.preference_updated = Some(at);
        self.preference_rev += 1;
    }

    /// Nudges the preference towards the categories the user actually
    /// engaged with, weighting each watch by retention. `rate` in `[0, 1]`.
    pub fn refresh_preference_from_watches(&mut self, at: SimTime, rate: f64) {
        if self.watches.is_empty() {
            return;
        }
        let mut observed = [0.0f64; VideoCategory::COUNT];
        for w in self.watches.tail(64) {
            observed[w.category.index()] += w.retention().max(0.01);
        }
        let total: f64 = observed.iter().sum();
        if total <= 0.0 {
            return;
        }
        let rate = rate.clamp(0.0, 1.0);
        for (p, o) in self.preference.iter_mut().zip(observed) {
            *p = *p * (1.0 - rate) + (o / total) * rate;
        }
        let norm: f64 = self.preference.iter().sum();
        for p in &mut self.preference {
            *p /= norm;
        }
        self.preference_updated = Some(at);
        self.preference_rev += 1;
    }

    /// Latest SNR sample, dB.
    pub fn latest_snr_db(&self) -> Option<f64> {
        self.channel_db.latest().map(|(_, v)| *v)
    }

    /// Mean of the most recent `n` SNR samples, dB.
    ///
    /// Single samples carry deep fades; averaging the recent window gives
    /// the robust channel-condition estimate the predictor needs. Returns
    /// `None` when the twin has no channel data yet.
    pub fn mean_recent_snr_db(&self, n: usize) -> Option<f64> {
        let tail = self.channel_db.tail(n);
        let len = tail.len();
        if len == 0 {
            return None;
        }
        Some(tail.sum::<f64>() / len as f64)
    }

    /// Latest known position.
    pub fn latest_position(&self) -> Option<Position> {
        self.location.latest().map(|(_, v)| *v)
    }

    /// Current preference distribution (sums to 1).
    pub fn preference(&self) -> &[f64] {
        &self.preference
    }

    /// Channel-condition series.
    pub fn channel_series(&self) -> &TimeSeries<f64> {
        &self.channel_db
    }

    /// Location series.
    pub fn location_series(&self) -> &TimeSeries<Position> {
        &self.location
    }

    /// Watch-record series.
    pub fn watch_series(&self) -> &TimeSeries<WatchRecord> {
        &self.watches
    }

    /// Watch records observed at or after `since`.
    pub fn watches_since(&self, since: SimTime) -> Vec<&WatchRecord> {
        self.watches.since(since)
    }

    /// Worst staleness across attributes at `now` (`None` when the twin
    /// has never been updated).
    pub fn staleness(&self, now: SimTime) -> Option<SimDuration> {
        [
            self.channel_db.staleness(now),
            self.location.staleness(now),
            self.watches.staleness(now),
        ]
        .into_iter()
        .flatten()
        .max()
    }

    /// Staleness of the channel attribute alone (`None` = never updated).
    pub fn channel_staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.channel_db.staleness(now)
    }

    /// Staleness of the location attribute alone (`None` = never updated).
    pub fn location_staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.location.staleness(now)
    }

    /// Whether this twin's fast attributes (channel and location) were
    /// both updated within `horizon` of `now`. A twin with a missing
    /// attribute is never fresh — the predictor's last-known-good
    /// imputation (feature-window padding) covers it, but the data is
    /// stale and degradation accounting should know.
    pub fn is_fresh(&self, now: SimTime, horizon: SimDuration) -> bool {
        let within = |s: Option<SimDuration>| s.is_some_and(|d| d <= horizon);
        within(self.channel_staleness(now)) && within(self.location_staleness(now))
    }

    /// Extracts the fixed-size [`FeatureWindow`] ending at the newest data.
    ///
    /// Channels are normalised to roughly `[0, 1]` using the provided map
    /// extents and an SNR range of `[-10, 40]` dB. Windows shorter than
    /// `window` are left-padded by repeating the oldest sample (or 0.5 when
    /// empty), so freshly-created twins still produce valid input.
    pub fn feature_window(&self, window: usize, map_width: f64, map_height: f64) -> FeatureWindow {
        /// `vals` (at most `window` of them) left-padded to `window` with
        /// their first value, or 0.5 when there are none.
        fn pad_left(vals: impl ExactSizeIterator<Item = f32>, window: usize) -> Vec<f32> {
            let mut out = Vec::with_capacity(window);
            let missing = window - vals.len();
            let mut vals = vals.peekable();
            out.resize(missing, vals.peek().copied().unwrap_or(0.5));
            out.extend(vals);
            out
        }

        let snr = self
            .channel_db
            .tail(window)
            .map(|&v| (((v + 10.0) / 50.0) as f32).clamp(0.0, 1.0));
        let xs = self
            .location
            .tail(window)
            .map(|p| (p.x / map_width.max(1e-9)) as f32);
        let ys = self
            .location
            .tail(window)
            .map(|p| (p.y / map_height.max(1e-9)) as f32);
        // Watch durations normalised by a 60 s short-video ceiling.
        let watch = self
            .watches
            .tail(window)
            .map(|w| ((w.watched.as_secs_f64() / 60.0) as f32).clamp(0.0, 1.0));

        FeatureWindow {
            series: vec![
                pad_left(snr, window),
                pad_left(xs, window),
                pad_left(ys, window),
                pad_left(watch, window),
            ],
            preference: self.preference.iter().map(|&p| p as f32).collect(),
        }
    }

    /// Writes the twin's full state as one `msvs-checkpoint/v2` JSON
    /// object, streamed straight into `w` with no intermediate tree.
    ///
    /// Every private field is captured — including the instance nonce and
    /// the per-attribute revision counters, which count *accepted pushes
    /// ever* (evicted samples included) and therefore cannot be rebuilt by
    /// replaying the retained series. Keys come in the sorted order a
    /// [`Json`] object prints them in, and scalars go through
    /// [`json::write_num`], so the text is canonical: `Json::parse` of it
    /// prints back byte-identical. `f64` payloads survive the text round
    /// trip exactly (Rust's shortest-representation `Display`).
    ///
    /// # Errors
    /// Returns the writer's error.
    pub fn write_checkpoint(&self, w: &mut impl fmt::Write) -> fmt::Result {
        let ms = |t: SimTime| t.as_millis() as f64;
        w.write_str("{\"channel\":")?;
        write_list(w, self.channel_db.iter(), |w, &(t, v)| {
            write_list(w, [ms(t), v], json::write_num)
        })?;
        w.write_str(",\"instance\":")?;
        json::write_num(w, self.instance as f64)?;
        w.write_str(",\"location\":")?;
        write_list(w, self.location.iter(), |w, &(t, p)| {
            write_list(w, [ms(t), p.x, p.y], json::write_num)
        })?;
        w.write_str(",\"preference\":")?;
        write_list(w, self.preference.iter().copied(), json::write_num)?;
        w.write_str(",\"preference_updated_ms\":")?;
        match self.preference_updated {
            Some(t) => json::write_num(w, ms(t))?,
            None => w.write_str("null")?,
        }
        w.write_str(",\"revs\":")?;
        let revs = [
            self.channel_rev,
            self.location_rev,
            self.watch_rev,
            self.preference_rev,
        ];
        write_list(w, revs.map(|r| r as f64), json::write_num)?;
        w.write_str(",\"user\":")?;
        json::write_num(w, f64::from(self.user.0))?;
        w.write_str(",\"watches\":")?;
        write_list(w, self.watches.iter(), |w, (t, r)| {
            w.write_str("{\"category\":")?;
            json::write_num(w, r.category.index() as f64)?;
            write!(w, ",\"completed\":{}", r.completed)?;
            w.write_str(",\"duration_ms\":")?;
            json::write_num(w, r.video_duration.as_millis() as f64)?;
            w.write_str(",\"level\":")?;
            json::write_num(w, r.level.index() as f64)?;
            w.write_str(",\"t_ms\":")?;
            json::write_num(w, ms(*t))?;
            w.write_str(",\"video\":")?;
            json::write_num(w, f64::from(r.video.0))?;
            w.write_str(",\"watched_ms\":")?;
            json::write_num(w, r.watched.as_millis() as f64)?;
            w.write_char('}')
        })?;
        w.write_char('}')
    }

    /// Rebuilds a twin from [`Self::write_checkpoint`] output.
    ///
    /// # Errors
    /// Returns a message naming the first malformed or missing field.
    pub fn from_checkpoint_json(json: &Json) -> std::result::Result<Self, String> {
        let int = |k: &str| {
            json.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("twin: missing integer field '{k}'"))
        };
        let arr = |k: &str| match json.get(k) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("twin: missing array field '{k}'")),
        };
        let user =
            UserId(u32::try_from(int("user")?).map_err(|_| "twin: user out of range".to_string())?);
        let mut twin = Self::new(user);
        twin.instance = int("instance")?;
        let revs = arr("revs")?;
        if revs.len() != 4 {
            return Err("twin: revs must hold four counters".into());
        }
        let rev = |i: usize| {
            revs[i]
                .as_u64()
                .ok_or_else(|| format!("twin: revs[{i}] must be an integer"))
        };
        twin.channel_rev = rev(0)?;
        twin.location_rev = rev(1)?;
        twin.watch_rev = rev(2)?;
        twin.preference_rev = rev(3)?;
        twin.preference = arr("preference")?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_f64()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| {
                        format!("twin: preference[{i}] must be a finite, non-negative mass")
                    })
            })
            .collect::<std::result::Result<Vec<f64>, String>>()?;
        if twin.preference.len() != VideoCategory::COUNT {
            return Err("twin: preference must hold one mass per category".into());
        }
        twin.preference_updated = match json.get("preference_updated_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(SimTime(v.as_u64().ok_or_else(|| {
                "twin: preference_updated_ms must be an integer".to_string()
            })?)),
        };
        for (i, item) in arr("channel")?.iter().enumerate() {
            let Json::Arr(pair) = item else {
                return Err(format!("twin: channel[{i}] must be [t_ms, snr_db]"));
            };
            let (Some(t), Some(v)) = (
                pair.first().and_then(Json::as_u64),
                pair.get(1).and_then(Json::as_f64),
            ) else {
                return Err(format!("twin: channel[{i}] must be [t_ms, snr_db]"));
            };
            if !Self::plausible_snr(v) {
                return Err(format!("twin: channel[{i}] snr_db {v} is implausible"));
            }
            twin.channel_db.push(SimTime(t), v);
        }
        for (i, item) in arr("location")?.iter().enumerate() {
            let Json::Arr(triple) = item else {
                return Err(format!("twin: location[{i}] must be [t_ms, x, y]"));
            };
            let (Some(t), Some(x), Some(y)) = (
                triple.first().and_then(Json::as_u64),
                triple.get(1).and_then(Json::as_f64),
                triple.get(2).and_then(Json::as_f64),
            ) else {
                return Err(format!("twin: location[{i}] must be [t_ms, x, y]"));
            };
            let position = Position::new(x, y);
            if !Self::plausible_position(position) {
                return Err(format!("twin: location[{i}] ({x}, {y}) is implausible"));
            }
            twin.location.push(SimTime(t), position);
        }
        for (i, item) in arr("watches")?.iter().enumerate() {
            let field = |k: &str| {
                item.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("twin: watches[{i}].{k} must be an integer"))
            };
            let record = WatchRecord {
                video: VideoId(
                    u32::try_from(field("video")?)
                        .map_err(|_| format!("twin: watches[{i}].video out of range"))?,
                ),
                category: VideoCategory::from_index(field("category")? as usize)
                    .ok_or_else(|| format!("twin: watches[{i}].category unknown"))?,
                level: RepresentationLevel::from_index(field("level")? as usize)
                    .ok_or_else(|| format!("twin: watches[{i}].level unknown"))?,
                watched: SimDuration(field("watched_ms")?),
                video_duration: SimDuration(field("duration_ms")?),
                completed: matches!(item.get("completed"), Some(Json::Bool(true))),
            };
            twin.watches.push(SimTime(field("t_ms")?), record);
        }
        Ok(twin)
    }
}

/// Writes `items` as a JSON array, each element through `item`.
fn write_list<W: fmt::Write, T>(
    w: &mut W,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    w.write_char('[')?;
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            w.write_char(',')?;
        }
        item(w, x)?;
    }
    w.write_char(']')
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::{RepresentationLevel, VideoId};

    fn watch(cat: VideoCategory, watched_s: u64, total_s: u64) -> WatchRecord {
        WatchRecord {
            video: VideoId(0),
            category: cat,
            level: RepresentationLevel::P720,
            watched: SimDuration::from_secs(watched_s),
            video_duration: SimDuration::from_secs(total_s),
            completed: watched_s >= total_s,
        }
    }

    #[test]
    fn new_twin_has_uniform_preference() {
        let twin = UserDigitalTwin::new(UserId(1));
        assert_eq!(twin.user(), UserId(1));
        for &p in twin.preference() {
            assert!((p - 0.125).abs() < 1e-12);
        }
        assert_eq!(twin.latest_snr_db(), None);
        assert_eq!(twin.staleness(SimTime::from_secs(10)), None);
    }

    #[test]
    fn updates_flow_through() {
        let mut twin = UserDigitalTwin::new(UserId(1));
        twin.update_channel(SimTime::from_secs(1), 12.0);
        twin.update_location(SimTime::from_secs(2), Position::new(10.0, 20.0));
        twin.record_watch(SimTime::from_secs(3), watch(VideoCategory::News, 10, 20));
        assert_eq!(twin.latest_snr_db(), Some(12.0));
        assert_eq!(twin.latest_position(), Some(Position::new(10.0, 20.0)));
        assert_eq!(twin.watch_series().len(), 1);
        // Worst staleness is the channel (updated at t=1).
        assert_eq!(
            twin.staleness(SimTime::from_secs(10)),
            Some(SimDuration::from_secs(9))
        );
    }

    #[test]
    fn preference_refresh_tracks_engagement() {
        let mut twin = UserDigitalTwin::new(UserId(1));
        for i in 0..20 {
            twin.record_watch(SimTime::from_secs(i), watch(VideoCategory::Music, 30, 30));
            twin.record_watch(SimTime::from_secs(i), watch(VideoCategory::Game, 1, 30));
        }
        twin.refresh_preference_from_watches(SimTime::from_secs(30), 0.5);
        assert!(
            twin.preference()[VideoCategory::Music.index()]
                > twin.preference()[VideoCategory::Game.index()] * 3.0
        );
        let total: f64 = twin.preference().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_window_shape_and_padding() {
        let twin = UserDigitalTwin::new(UserId(2));
        let fw = twin.feature_window(16, 1000.0, 1000.0);
        assert_eq!(fw.series.len(), FeatureWindow::CHANNELS);
        assert_eq!(fw.window_len(), 16);
        assert_eq!(fw.preference.len(), VideoCategory::COUNT);
        // Empty twin pads with 0.5.
        assert!(fw.series[0].iter().all(|&v| v == 0.5));
        assert_eq!(fw.flatten().len(), 4 * 16 + 8);
    }

    #[test]
    fn feature_window_normalises_into_unit_range() {
        let mut twin = UserDigitalTwin::new(UserId(3));
        for i in 0..32u64 {
            twin.update_channel(SimTime::from_secs(i), -20.0 + i as f64 * 3.0);
            twin.update_location(SimTime::from_secs(i), Position::new(i as f64 * 40.0, 999.0));
            twin.record_watch(
                SimTime::from_secs(i),
                watch(VideoCategory::News, i.min(60), 60),
            );
        }
        let fw = twin.feature_window(16, 1200.0, 1000.0);
        for ch in &fw.series {
            assert_eq!(ch.len(), 16);
            for &v in ch {
                assert!((0.0..=1.05).contains(&v), "value {v} escaped range");
            }
        }
        // Newest sample is last.
        let snr_last = fw.series[0].last().copied().unwrap();
        assert!(snr_last > fw.series[0][0], "SNR ramp should be increasing");
    }

    #[test]
    #[should_panic(expected = "one preference mass per category")]
    fn set_preference_validates_length() {
        let mut twin = UserDigitalTwin::new(UserId(1));
        twin.set_preference(SimTime::ZERO, vec![0.5, 0.5]);
    }

    #[test]
    fn revisions_bump_only_on_accepted_mutations() {
        let mut twin = UserDigitalTwin::new(UserId(9));
        let r0 = twin.revision();
        assert_eq!(
            (r0.channel, r0.location, r0.watch, r0.preference),
            (0, 0, 0, 0)
        );

        assert!(!twin.update_channel(SimTime::ZERO, f64::NAN));
        assert_eq!(twin.revision(), r0, "rejected sample leaves key unchanged");
        assert!(twin.update_channel(SimTime::ZERO, 12.0));
        assert_eq!(twin.revision().channel, 1);

        assert!(!twin.update_location(SimTime::ZERO, Position::new(f64::NAN, 1.0)));
        assert_eq!(twin.revision().location, 0);
        assert!(twin.update_location(SimTime::ZERO, Position::new(1.0, 2.0)));
        assert_eq!(twin.revision().location, 1);

        twin.record_watch(SimTime::ZERO, watch(VideoCategory::Music, 10, 20));
        assert_eq!(twin.revision().watch, 1);

        // Early-returning preference refresh (no watches consumed yet in a
        // fresh twin) must not bump.
        let mut empty = UserDigitalTwin::new(UserId(10));
        empty.refresh_preference_from_watches(SimTime::ZERO, 0.5);
        assert_eq!(empty.revision().preference, 0);
        twin.refresh_preference_from_watches(SimTime::ZERO, 0.5);
        assert_eq!(twin.revision().preference, 1);
        twin.set_preference(SimTime::ZERO, vec![0.125; VideoCategory::COUNT]);
        assert_eq!(twin.revision().preference, 2);

        // Clones carry the key; a fresh twin for the same user differs
        // once instances are stamped (store-level concern).
        assert_eq!(twin.clone().revision(), twin.revision());
    }

    #[test]
    fn checkpoint_round_trip_is_lossless() {
        let mut twin = UserDigitalTwin::new(UserId(42));
        twin.set_instance((3u64 << 40) | 17);
        for i in 0..20u64 {
            twin.update_channel(SimTime::from_secs(i), -3.5 + i as f64 * 0.731);
            twin.update_location(
                SimTime::from_secs(i),
                Position::new(i as f64 * 13.37, 500.0 - i as f64),
            );
            twin.record_watch(
                SimTime::from_secs(i),
                watch(VideoCategory::Music, i.min(45), 45),
            );
        }
        // A rejected sample keeps revisions honest: the counters must
        // survive the round trip even though they exceed what a replay of
        // the retained series would produce.
        assert!(!twin.update_channel(SimTime::from_secs(21), f64::NAN));
        twin.refresh_preference_from_watches(SimTime::from_secs(20), 0.5);
        let text = checkpoint_text(&twin);
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.to_string(), text, "the streamed text is canonical");
        let back = UserDigitalTwin::from_checkpoint_json(&json).unwrap();
        assert_eq!(back, twin, "checkpoint round trip must be bit-exact");
        assert_eq!(back.revision(), twin.revision());
    }

    /// A twin whose series are shared with a held clone encodes and
    /// restores like any other, and the restore owns its own storage.
    #[test]
    fn checkpoint_round_trip_of_a_shared_twin() {
        let mut twin = UserDigitalTwin::new(UserId(5));
        for i in 0..12u64 {
            twin.update_channel(SimTime::from_secs(i), 1.5 * i as f64);
            twin.update_location(SimTime::from_secs(i), Position::new(i as f64, 2.0));
            twin.record_watch(SimTime::from_secs(i), watch(VideoCategory::News, i % 9, 8));
        }
        let held = twin.clone();
        assert!(held
            .channel_series()
            .shares_storage_with(twin.channel_series()));
        let text = checkpoint_text(&twin);
        let back = UserDigitalTwin::from_checkpoint_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, twin);
        assert_eq!(back, held);
        assert!(!back.watch_series().shares_storage_with(twin.watch_series()));
    }

    /// A twin with some history, so batches land on non-empty series and
    /// preference refreshes have watches to learn from.
    fn seasoned_twin() -> UserDigitalTwin {
        let mut twin = UserDigitalTwin::new(UserId(11));
        for i in 0..6u64 {
            twin.update_channel(SimTime::from_secs(i), 4.0 + i as f64);
            twin.update_location(SimTime::from_secs(i), Position::new(i as f64, 9.0));
            let cat = VideoCategory::from_index(i as usize % 3).unwrap();
            twin.record_watch(SimTime::from_secs(i), watch(cat, 5 + i, 20));
        }
        twin
    }

    #[test]
    fn apply_reports_equals_sequential_updates() {
        let channel = [
            (1, 12.5),
            (2, f64::NAN),
            (3, f64::INFINITY),
            (3, f64::NEG_INFINITY),
            (4, 100.0),
            (4, 100.5),
            (5, -250.0),
            (6, -100.0),
            (7, 3.25),
        ];
        let location = [
            (1, Position::new(1.0, 2.0)),
            (2, Position::new(f64::NAN, 2.0)),
            (3, Position::new(4.0, f64::INFINITY)),
            (4, Position::new(f64::NEG_INFINITY, f64::NAN)),
            (5, Position::new(-3.0, 1e9)),
        ];
        let refreshes = [(2, 0.4), (5, 0.4), (7, 0.9)];

        let mut reports = TwinReports::default();
        assert!(reports.is_empty());
        let mut sequential = seasoned_twin();
        let mut rejected = 0u64;
        // Interleave the attributes the way a tick loop would.
        for i in 0..channel.len() {
            if let Some(&(t, v)) = channel.get(i) {
                reports.channel(SimTime::from_secs(t), v);
                rejected += u64::from(!sequential.update_channel(SimTime::from_secs(t), v));
            }
            if let Some(&(t, p)) = location.get(i) {
                reports.location(SimTime::from_secs(t), p);
                rejected += u64::from(!sequential.update_location(SimTime::from_secs(t), p));
            }
            if let Some(&(t, rate)) = refreshes.get(i) {
                reports.refresh_preference(SimTime::from_secs(t), rate);
                sequential.refresh_preference_from_watches(SimTime::from_secs(t), rate);
            }
        }
        assert!(!reports.is_empty());
        assert_eq!(rejected, 8);

        let mut batched = seasoned_twin();
        assert_eq!(batched.apply_reports(&reports), rejected);
        assert_eq!(batched.channel_series(), sequential.channel_series());
        assert_eq!(batched.location_series(), sequential.location_series());
        assert_eq!(batched.revision(), sequential.revision());
        let bits = |t: &UserDigitalTwin| {
            t.preference()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&batched), bits(&sequential));
        assert_eq!(batched, sequential);

        // Without watches a refresh is a no-op either way.
        let mut fresh = UserDigitalTwin::new(UserId(12));
        let mut refresh_only = TwinReports::default();
        refresh_only.refresh_preference(SimTime::from_secs(1), 0.4);
        assert_eq!(fresh.apply_reports(&refresh_only), 0);
        assert_eq!(fresh, UserDigitalTwin::new(UserId(12)));
    }

    #[test]
    fn record_watches_equals_a_record_watch_loop() {
        let records: Vec<WatchRecord> = (0..5)
            .map(|i| watch(VideoCategory::Sports, i, 10))
            .collect();
        let mut looped = seasoned_twin();
        for r in records.clone() {
            looped.record_watch(SimTime::from_secs(30), r);
        }
        let mut batched = seasoned_twin();
        batched.record_watches(SimTime::from_secs(30), records);
        assert_eq!(batched, looped);
        assert_eq!(batched.revision(), looped.revision());
    }

    fn checkpoint_text(twin: &UserDigitalTwin) -> String {
        let mut text = String::new();
        twin.write_checkpoint(&mut text).unwrap();
        text
    }

    #[test]
    fn checkpoint_decode_names_the_bad_field() {
        let twin = UserDigitalTwin::new(UserId(1));
        let mut json = Json::parse(&checkpoint_text(&twin)).unwrap();
        if let Json::Obj(map) = &mut json {
            map.remove("revs");
        }
        let err = UserDigitalTwin::from_checkpoint_json(&json).unwrap_err();
        assert!(err.contains("revs"), "{err}");
    }

    /// The decoder applies the same plausibility checks as the live
    /// update path: an overflowing `1e999` parses to infinity, and must
    /// not reach a restored twin (nor re-encode as the non-JSON `inf`).
    #[test]
    fn checkpoint_decode_rejects_implausible_values_by_name() {
        let mut twin = UserDigitalTwin::new(UserId(3));
        twin.update_channel(SimTime::from_secs(1), 12.5);
        twin.update_location(SimTime::from_secs(1), Position::new(7.5, 2.5));
        let text = checkpoint_text(&twin);
        let decode = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} not in {text}");
            UserDigitalTwin::from_checkpoint_json(&Json::parse(&text.replace(from, to)).unwrap())
        };
        for (from, to, field) in [
            ("[1000,12.5]", "[1000,1e999]", "channel[0]"),
            ("[1000,12.5]", "[1000,-1e999]", "channel[0]"),
            ("[1000,12.5]", "[1000,100.5]", "channel[0]"),
            ("[1000,7.5,2.5]", "[1000,1e999,2.5]", "location[0]"),
            ("[1000,7.5,2.5]", "[1000,7.5,-1e999]", "location[0]"),
            (
                "\"preference\":[0.125",
                "\"preference\":[1e999",
                "preference[0]",
            ),
            (
                "\"preference\":[0.125",
                "\"preference\":[-0.125",
                "preference[0]",
            ),
        ] {
            let err = decode(from, to).unwrap_err();
            assert!(err.contains(field), "{to}: {err}");
        }
        assert_eq!(
            decode("[1000,12.5]", "[1000,-100]")
                .unwrap()
                .latest_snr_db(),
            Some(-100.0)
        );
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;

    #[test]
    fn non_finite_updates_are_rejected() {
        let mut twin = UserDigitalTwin::new(UserId(4));
        assert!(!twin.update_channel(SimTime::from_secs(1), f64::NAN));
        assert!(!twin.update_channel(SimTime::from_secs(2), f64::INFINITY));
        assert!(
            !twin.update_channel(SimTime::from_secs(2), 1e6),
            "implausible magnitudes are corruption, not physics"
        );
        assert!(twin.update_channel(SimTime::from_secs(3), 12.0));
        assert_eq!(twin.channel_series().len(), 1);
        assert_eq!(twin.latest_snr_db(), Some(12.0));
        assert_eq!(twin.mean_recent_snr_db(10), Some(12.0));

        assert!(!twin.update_location(SimTime::from_secs(1), Position::new(f64::NAN, 5.0)));
        assert!(!twin.update_location(SimTime::from_secs(2), Position::new(5.0, f64::NEG_INFINITY)));
        assert!(twin.update_location(SimTime::from_secs(3), Position::new(5.0, 6.0)));
        assert_eq!(twin.location_series().len(), 1);
        assert_eq!(twin.latest_position(), Some(Position::new(5.0, 6.0)));
    }

    #[test]
    fn freshness_tracks_both_fast_attributes() {
        let mut twin = UserDigitalTwin::new(UserId(6));
        let horizon = SimDuration::from_secs(5);
        assert!(
            !twin.is_fresh(SimTime::from_secs(10), horizon),
            "empty twin"
        );
        twin.update_channel(SimTime::from_secs(8), 10.0);
        assert!(
            !twin.is_fresh(SimTime::from_secs(10), horizon),
            "location still missing"
        );
        twin.update_location(SimTime::from_secs(9), Position::new(1.0, 2.0));
        assert!(twin.is_fresh(SimTime::from_secs(10), horizon));
        assert_eq!(
            twin.channel_staleness(SimTime::from_secs(10)),
            Some(SimDuration::from_secs(2))
        );
        assert!(
            !twin.is_fresh(SimTime::from_secs(20), horizon),
            "both attributes aged out"
        );
    }

    #[test]
    fn feature_window_stays_finite_after_poison_attempts() {
        let mut twin = UserDigitalTwin::new(UserId(5));
        for i in 0..20u64 {
            let v = if i % 3 == 0 {
                f64::NAN
            } else {
                10.0 + i as f64
            };
            twin.update_channel(SimTime::from_secs(i), v);
        }
        let fw = twin.feature_window(16, 1000.0, 1000.0);
        for ch in &fw.series {
            assert!(ch.iter().all(|v| v.is_finite()), "poisoned feature window");
        }
    }
}
