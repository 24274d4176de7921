//! Per-attribute collection scheduling.
//!
//! The paper: "Different data attributes are collected with different
//! frequencies." A [`CollectionPolicy`] declares those periods; the
//! [`SyncTracker`] decides, per tick and per [`Attribute`], which reports
//! are due and counts the uplink signalling this costs (ablated in
//! experiment E4).

use std::fmt;

use msvs_telemetry::json::{self, Json};
use msvs_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A twin attribute the uplink reports at its own period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attribute {
    /// Channel-quality (SNR) sample.
    Channel,
    /// Location sample.
    Location,
    /// Preference refresh trigger.
    Preference,
}

impl Attribute {
    /// Every periodic attribute, in the order a tick reports them.
    pub const ALL: [Attribute; 3] = [
        Attribute::Channel,
        Attribute::Location,
        Attribute::Preference,
    ];

    /// Stable label for journals and checkpoint keys.
    pub fn label(self) -> &'static str {
        match self {
            Attribute::Channel => "channel",
            Attribute::Location => "location",
            Attribute::Preference => "preference",
        }
    }
}

/// Collection periods per twin attribute.
///
/// Watch records are event-driven (reported when a session ends) and have
/// no period here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionPolicy {
    /// Channel-condition sampling period (fast-fading scale).
    pub channel_every: SimDuration,
    /// Location sampling period.
    pub location_every: SimDuration,
    /// Preference re-estimation period (slow).
    pub preference_every: SimDuration,
}

impl Default for CollectionPolicy {
    /// Channel every 1 s, location every 5 s, preference every 60 s.
    fn default() -> Self {
        Self {
            channel_every: SimDuration::from_secs(1),
            location_every: SimDuration::from_secs(5),
            preference_every: SimDuration::from_secs(60),
        }
    }
}

impl CollectionPolicy {
    /// The collection period of `attr`.
    pub fn every(&self, attr: Attribute) -> SimDuration {
        match attr {
            Attribute::Channel => self.channel_every,
            Attribute::Location => self.location_every,
            Attribute::Preference => self.preference_every,
        }
    }

    /// Validates that all periods are non-zero.
    ///
    /// # Errors
    /// Returns `InvalidConfig` when any period is zero.
    pub fn validate(&self) -> msvs_types::Result<()> {
        for attr in Attribute::ALL {
            if self.every(attr) == SimDuration::ZERO {
                return Err(msvs_types::Error::invalid_config(
                    "collection policy",
                    format!("{}_every must be non-zero", attr.label()),
                ));
            }
        }
        Ok(())
    }

    /// Uniformly scales every period by `factor` (>1 = rarer collection).
    ///
    /// # Panics
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let scale = |d: SimDuration| {
            SimDuration::from_millis(((d.as_millis() as f64 * factor).round() as u64).max(1))
        };
        Self {
            channel_every: scale(self.channel_every),
            location_every: scale(self.location_every),
            preference_every: scale(self.preference_every),
        }
    }
}

/// Bounded exponential backoff for lost uplink reports.
///
/// After a loss, the next attempt is scheduled `backoff` later, doubling
/// per further loss in the same episode, up to `max_attempts` retries —
/// so a lost report for a slow attribute (preference, every 60 s) is
/// re-sent within seconds instead of waiting out the full period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum retries per loss episode (`0` disables retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: SimDuration,
}

impl Default for RetryPolicy {
    /// Three attempts, 2 s initial backoff.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: SimDuration::from_secs(2),
        }
    }
}

/// Per-attribute retry bookkeeping: when the next retry fires and how
/// many attempts this loss episode has consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct RetryState {
    next: Option<SimTime>,
    attempts: u32,
}

impl RetryState {
    fn due(&self, now: SimTime) -> bool {
        self.next.is_some_and(|t| now >= t)
    }

    /// Schedules the next attempt after a loss at `now`, or gives the
    /// episode up when attempts are exhausted.
    fn schedule(&mut self, now: SimTime, policy: &RetryPolicy) {
        if self.attempts < policy.max_attempts {
            let backoff = policy.backoff * (1u64 << self.attempts.min(16));
            self.attempts += 1;
            self.next = Some(now + backoff);
        } else {
            *self = RetryState::default();
        }
    }
}

/// Tracks what is due for one user and tallies signalling cost.
///
/// Every attribute follows one rule: due once its regular period has
/// elapsed or a retry of a lost report fires. The state for each lives at
/// its [`Attribute`] index.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncTracker {
    last: [Option<SimTime>; 3],
    retry: [RetryState; 3],
    updates_sent: u64,
    retries_sent: u64,
}

impl SyncTracker {
    /// Builds a tracker with nothing collected yet (everything is due).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total updates recorded by this tracker (signalling cost proxy).
    /// Lost sends count too — the uplink was used either way.
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// How many of those updates were retries of lost reports (the extra
    /// signalling the retry policy costs).
    pub fn retries_sent(&self) -> u64 {
        self.retries_sent
    }

    /// Whether a report of `attr` is due at `now` under `policy` (regular
    /// period elapsed, or a retry of a lost report is scheduled).
    pub fn due(&self, attr: Attribute, policy: &CollectionPolicy, now: SimTime) -> bool {
        let i = attr as usize;
        self.last[i].is_none_or(|t| now.since(t) >= policy.every(attr)) || self.retry[i].due(now)
    }

    /// Marks `attr` as collected at `now`, closing any retry episode.
    pub fn mark(&mut self, attr: Attribute, now: SimTime) {
        self.send(attr, now);
        self.retry[attr as usize] = RetryState::default();
    }

    /// Records that the `attr` report sent at `now` was lost in transit:
    /// the send still cost signalling, the twin was not updated, and a
    /// retry is scheduled per `retry`. The regular period restarts (the
    /// BS does not know the report vanished).
    pub fn mark_lost(&mut self, attr: Attribute, now: SimTime, retry: &RetryPolicy) {
        self.send(attr, now);
        self.retry[attr as usize].schedule(now, retry);
    }

    /// Counts a send of `attr` at `now`; a pending retry episode means
    /// this send *was* the retry.
    fn send(&mut self, attr: Attribute, now: SimTime) {
        let i = attr as usize;
        self.updates_sent += 1;
        if self.retry[i].attempts > 0 {
            self.retries_sent += 1;
        }
        self.last[i] = Some(now);
    }

    /// Writes the tracker's full state as one `msvs-checkpoint/v2` JSON
    /// object — including in-flight retry episodes, so a restored shard
    /// resumes the bounded-backoff replay exactly where the checkpoint
    /// left it. Keys come in sorted order ([`Attribute::ALL`] is
    /// alphabetical by label), so the text is canonical `Json`.
    ///
    /// # Errors
    /// Returns the writer's error.
    pub fn write_checkpoint(&self, w: &mut impl fmt::Write) -> fmt::Result {
        fn opt_time(w: &mut impl fmt::Write, t: Option<SimTime>) -> fmt::Result {
            match t {
                Some(t) => json::write_num(w, t.0 as f64),
                None => w.write_str("null"),
            }
        }
        let mut sep = '{';
        for attr in Attribute::ALL {
            write!(w, "{sep}\"last_{}_ms\":", attr.label())?;
            opt_time(w, self.last[attr as usize])?;
            sep = ',';
        }
        w.write_str(",\"retries_sent\":")?;
        json::write_num(w, self.retries_sent as f64)?;
        for attr in Attribute::ALL {
            let retry = &self.retry[attr as usize];
            write!(w, ",\"retry_{}\":{{\"attempts\":", attr.label())?;
            json::write_num(w, f64::from(retry.attempts))?;
            w.write_str(",\"next_ms\":")?;
            opt_time(w, retry.next)?;
            w.write_char('}')?;
        }
        w.write_str(",\"updates_sent\":")?;
        json::write_num(w, self.updates_sent as f64)?;
        w.write_char('}')
    }

    /// Rebuilds a tracker from [`Self::write_checkpoint`] output.
    ///
    /// # Errors
    /// Returns a message naming the first malformed or missing field.
    pub fn from_checkpoint_json(json: &Json) -> Result<Self, String> {
        // `obj.key` as a time or null; the error names it as `field`.
        let opt_time = |obj: &Json, key: &str, field: &str| match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(|t| Some(SimTime(t)))
                .ok_or_else(|| format!("tracker: '{field}' must be an integer or null")),
        };
        let int = |k: &str| {
            json.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("tracker: missing integer field '{k}'"))
        };
        let mut tracker = Self::new();
        for attr in Attribute::ALL {
            let key = format!("last_{}_ms", attr.label());
            tracker.last[attr as usize] = opt_time(json, &key, &key)?;
        }
        tracker.updates_sent = int("updates_sent")?;
        tracker.retries_sent = int("retries_sent")?;
        for attr in Attribute::ALL {
            let k = format!("retry_{}", attr.label());
            let obj = json
                .get(&k)
                .ok_or_else(|| format!("tracker: missing object field '{k}'"))?;
            let next = opt_time(obj, "next_ms", &format!("{k}.next_ms"))?;
            let attempts = obj
                .get("attempts")
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("tracker: '{k}.attempts' must be an integer"))?;
            tracker.retry[attr as usize] = RetryState { next, attempts };
        }
        Ok(tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `attr` is due at `secs` with every period at 60 s, so
    /// retries (seconds apart) stand out from regular sends.
    fn due_at(tracker: &SyncTracker, attr: Attribute, secs: u64) -> bool {
        let minute = SimDuration::from_secs(60);
        let policy = CollectionPolicy {
            channel_every: minute,
            location_every: minute,
            preference_every: minute,
        };
        tracker.due(attr, &policy, SimTime::from_secs(secs))
    }

    /// Up to `max_attempts` retries, 2 s initial backoff.
    fn retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff: SimDuration::from_secs(2),
        }
    }

    #[test]
    fn everything_due_initially() {
        let tracker = SyncTracker::new();
        let policy = CollectionPolicy::default();
        for attr in Attribute::ALL {
            assert!(tracker.due(attr, &policy, SimTime::ZERO), "{attr:?}");
        }
    }

    #[test]
    fn due_respects_periods() {
        let policy = CollectionPolicy::default();
        let at = SimTime::from_secs(10);
        for attr in Attribute::ALL {
            let mut tracker = SyncTracker::new();
            tracker.mark(attr, at);
            let next = at + policy.every(attr);
            assert!(!tracker.due(attr, &policy, at), "{attr:?}");
            assert!(!tracker.due(attr, &policy, SimTime(next.0 - 1)), "{attr:?}");
            assert!(tracker.due(attr, &policy, next), "{attr:?}");
            for other in Attribute::ALL.into_iter().filter(|&o| o != attr) {
                assert!(tracker.due(other, &policy, at), "{other:?} is untouched");
            }
        }
    }

    #[test]
    fn updates_are_counted() {
        let mut tracker = SyncTracker::new();
        for attr in Attribute::ALL {
            tracker.mark(attr, SimTime::ZERO);
        }
        assert_eq!(tracker.updates_sent(), 3);
    }

    #[test]
    fn lost_reports_retry_with_backoff() {
        for attr in Attribute::ALL {
            let mut tracker = SyncTracker::new();
            // The report at t=0 is lost: not due again until the 2 s backoff.
            tracker.mark_lost(attr, SimTime::ZERO, &retry(2));
            assert_eq!(tracker.updates_sent(), 1, "{attr:?}: the lost send counts");
            assert!(
                !due_at(&tracker, attr, 1) && due_at(&tracker, attr, 2),
                "{attr:?}"
            );
            // The retry is lost too: backoff doubles to 4 s.
            tracker.mark_lost(attr, SimTime::from_secs(2), &retry(2));
            assert_eq!(
                tracker.retries_sent(),
                1,
                "{attr:?}: the second send retried"
            );
            assert!(
                !due_at(&tracker, attr, 5) && due_at(&tracker, attr, 6),
                "{attr:?}"
            );
            // The second retry succeeds; the episode clears.
            tracker.mark(attr, SimTime::from_secs(6));
            assert_eq!(
                (tracker.retries_sent(), tracker.updates_sent()),
                (2, 3),
                "{attr:?}"
            );
            assert!(
                !due_at(&tracker, attr, 30) && due_at(&tracker, attr, 66),
                "{attr:?}"
            );
        }
    }

    #[test]
    fn retry_attempts_are_bounded() {
        for attr in Attribute::ALL {
            let mut tracker = SyncTracker::new();
            tracker.mark_lost(attr, SimTime::ZERO, &retry(1));
            // The single allowed retry is lost as well: the episode is
            // given up, and only the regular 60 s period can trigger the
            // next send.
            tracker.mark_lost(attr, SimTime::from_secs(2), &retry(1));
            assert!(
                !due_at(&tracker, attr, 30) && due_at(&tracker, attr, 62),
                "{attr:?}"
            );
        }
    }

    #[test]
    fn zero_attempts_disables_retry() {
        for attr in Attribute::ALL {
            let mut tracker = SyncTracker::new();
            tracker.mark_lost(attr, SimTime::ZERO, &retry(0));
            assert!(!due_at(&tracker, attr, 2), "{attr:?}: no retry");
            assert!(due_at(&tracker, attr, 60), "{attr:?}: regular period");
            assert_eq!(tracker.retries_sent(), 0, "{attr:?}");
        }
    }

    #[test]
    fn scaled_policy_multiplies_periods() {
        let p = CollectionPolicy::default().scaled(3.0);
        assert_eq!(p.channel_every, SimDuration::from_secs(3));
        assert_eq!(p.location_every, SimDuration::from_secs(15));
        assert_eq!(p.preference_every, SimDuration::from_secs(180));
        p.validate().unwrap();
    }

    #[test]
    fn scaled_policy_never_hits_zero() {
        let p = CollectionPolicy::default().scaled(1e-9);
        p.validate().unwrap();
        assert!(p.channel_every > SimDuration::ZERO);
    }

    #[test]
    fn tracker_checkpoint_round_trip_preserves_retry_state() {
        let mut tracker = SyncTracker::new();
        tracker.mark(Attribute::Channel, SimTime::from_secs(4));
        tracker.mark_lost(Attribute::Location, SimTime::from_secs(5), &retry(3));
        tracker.mark_lost(Attribute::Location, SimTime::from_secs(7), &retry(3));
        tracker.mark_lost(Attribute::Preference, SimTime::from_secs(6), &retry(3));
        let mut text = String::new();
        tracker.write_checkpoint(&mut text).unwrap();
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.to_string(), text, "the streamed text is canonical");
        let Json::Obj(map) = &json else {
            panic!("tracker checkpoint must be an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        let v1_keys = "last_channel_ms last_location_ms last_preference_ms retries_sent \
                       retry_channel retry_location retry_preference updates_sent";
        assert_eq!(keys, v1_keys.split_whitespace().collect::<Vec<_>>());
        let back = SyncTracker::from_checkpoint_json(&json).unwrap();
        assert_eq!(back, tracker, "checkpoint round trip must be exact");
        // The in-flight episode resumes: location retry due at 7 s + 4 s.
        let policy = CollectionPolicy::default();
        assert!(!back.due(Attribute::Location, &policy, SimTime::from_secs(10)));
        assert!(back.retry[Attribute::Location as usize].due(SimTime::from_secs(11)));
    }

    #[test]
    fn tracker_checkpoint_decode_names_the_bad_field() {
        let mut text = String::new();
        SyncTracker::new().write_checkpoint(&mut text).unwrap();
        let mut json = Json::parse(&text).unwrap();
        if let Json::Obj(map) = &mut json {
            map.remove("retry_channel");
        }
        let err = SyncTracker::from_checkpoint_json(&json).unwrap_err();
        assert!(err.contains("retry_channel"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_period() {
        let p = CollectionPolicy {
            channel_every: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }
}
