//! Structured, in-memory event journal with JSONL export.
//!
//! Events are typed (not free-form strings) so tests can assert on the
//! exact sequence a simulation emits, and timestamps are **simulation
//! time** so journals are deterministic for a fixed seed.
//!
//! The journal is a run's one record: `RunStarted` carries the run's
//! shape, each scored interval's `IntervalCompleted` its predicted and
//! actual demand (the Fig. 3(b) row), and the closing `StageSummary`
//! rows its exact stage latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// A field type an event may carry, with its JSON form and its checked
/// decoder: the encoder never writes a non-finite number (it has no JSON
/// form) or an integer past `MAX_SAFE_INT`, so the decoder takes neither.
trait Field: Sized {
    fn to_json(&self) -> Json;
    fn decode(obj: &Json, event: &str, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }

    fn decode(obj: &Json, event: &str, key: &str) -> Result<Self, String> {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{event}: field '{key}' must be an integer in [0, 2^53)"))
    }
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn decode(obj: &Json, event: &str, key: &str) -> Result<Self, String> {
        obj.get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{event}: field '{key}' must be a finite number"))
    }
}

impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(obj: &Json, event: &str, key: &str) -> Result<Self, String> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{event}: missing string field '{key}'"))
    }
}

/// Declares every event once: its name, its fields and their types.
/// Generates [`Event`], [`Event::name`] (the JSONL discriminant), the
/// encoder's field list and the decoder, which requires every field and
/// checks it by name.
macro_rules! events {
    ($($(#[$doc:meta])* $name:ident { $($field:ident: $ty:ty),* $(,)? })*) => {
        /// One structured telemetry event.
        ///
        /// The journal holds run-, interval- and decision-level events
        /// only. Per-operation counts (faulted reports, retries, cache
        /// serves) live in counters, so a journal's length does not grow
        /// with the population or with pretraining.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $name { $($field: $ty),* },)*
        }

        impl Event {
            /// Stable event name used as the JSONL discriminant.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$name { .. } => stringify!($name),)*
                }
            }

            fn fields(&self) -> Vec<(&'static str, Json)> {
                match self {
                    $(Event::$name { $($field),* } => {
                        vec![$((stringify!($field), Field::to_json($field))),*]
                    })*
                }
            }

            fn from_json(name: &str, obj: &Json) -> Result<Event, String> {
                match name {
                    $(stringify!($name) => Ok(Event::$name {
                        $($field: Field::decode(obj, name, stringify!($field))?),*
                    }),)*
                    other => Err(format!("unknown event '{other}'")),
                }
            }
        }
    };
}

events! {
    /// A simulation run began: its scheme, seed and shape (`threads` is
    /// the resolved worker count).
    RunStarted {
        scheme: String,
        seed: u64,
        users: u64,
        intervals: u64,
        threads: u64,
        shards: u64,
    }
    /// A scored interval began.
    IntervalStarted { interval: u64 }
    /// The UDT collection sweep for an interval finished.
    CollectionCompleted { interval: u64, users: u64 }
    /// The grouping DDQN finished pretraining: the episodes it ran, its
    /// exploration rate after them and the loss of its last minibatch
    /// (0 when none trained).
    PretrainCompleted { episodes: u64, epsilon: f64, loss: f64 }
    /// A reservation was scored against realised demand.
    ReservationScored {
        predicted_rb: f64,
        used_rb: f64,
        over_rb: f64,
        under_rb: f64,
    }
    /// A scored interval finished: the served grouping (`k` clusters,
    /// their silhouette, `groups` predicted), the predicted and actual
    /// radio (resource blocks) and computing (gigacycles) demand and the
    /// edge cache hit ratio.
    IntervalCompleted {
        interval: u64,
        k: u64,
        silhouette: f64,
        groups: u64,
        predicted_rb: f64,
        actual_rb: f64,
        predicted_gcycles: f64,
        actual_gcycles: f64,
        hit_ratio: f64,
    }
    /// Per-interval fault-injection tallies after the collection sweep.
    FaultsInjected {
        interval: u64,
        lost: u64,
        delayed: u64,
        corrupted: u64,
        rejected: u64,
        retried: u64,
        overflowed: u64,
    }
    /// A scheduled churn burst replaced part of the population.
    ChurnBurst { interval: u64, replaced: u64 }
    /// The edge cache capacity changed for a brownout window.
    BrownoutApplied { interval: u64, capacity_scale: f64 }
    /// The predictor fell back to its degraded path for an interval.
    PredictionDegraded { interval: u64, coverage: f64, margin: f64 }
    /// A shard went down (crash or partition). `failed_over` counts the
    /// users relabelled to live neighbours (crash only).
    ShardDown {
        interval: u64,
        shard: u64,
        mode: String,
        failed_over: u64,
    }
    /// A shard came back at the end of its outage window.
    ShardRestored {
        interval: u64,
        shard: u64,
        mode: String,
    }
    /// An SLO rule crossed from meeting to breaching its objective at
    /// an interval boundary. `value` is the observed signal, `threshold`
    /// the policy bound it violated.
    SloBreached {
        interval: u64,
        slo: String,
        value: f64,
        threshold: f64,
    }
    /// A previously breached SLO rule returned within its objective.
    SloRecovered {
        interval: u64,
        slo: String,
        value: f64,
        threshold: f64,
    }
    /// One span name's exact latency over the run's closed spans
    /// (nearest-rank quantiles, [`crate::Telemetry::stage_stats`]), one entry per
    /// name at the end of a run. The journal's only wall-clock values.
    StageSummary {
        stage: String,
        count: u64,
        mean_ms: f64,
        p50_ms: f64,
        p90_ms: f64,
        p99_ms: f64,
        max_ms: f64,
        total_ms: f64,
    }
}

/// A journal entry: an [`Event`] stamped with simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Simulation time of the event, milliseconds.
    pub t_ms: u64,
    pub event: Event,
}

impl Entry {
    /// One JSONL line for this entry.
    pub fn to_json(&self) -> Json {
        let mut map: BTreeMap<String, Json> = BTreeMap::new();
        map.insert("t_ms".into(), Json::Num(self.t_ms as f64));
        map.insert("event".into(), Json::Str(self.event.name().into()));
        for (k, v) in self.event.fields() {
            map.insert(k.into(), v);
        }
        Json::Obj(map)
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    /// Returns a message naming the malformed or missing field.
    pub fn parse(line: &str) -> Result<Entry, String> {
        let obj = Json::parse(line)?;
        let t_ms = obj
            .get("t_ms")
            .and_then(Json::as_u64)
            .ok_or("'t_ms' must be an integer in [0, 2^53)")?;
        let name = obj
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing 'event'")?
            .to_string();
        Ok(Entry {
            t_ms,
            event: Event::from_json(&name, &obj)?,
        })
    }
}

/// Append-only, thread-safe journal of [`Entry`]s. Cloning shares the
/// underlying buffer.
#[derive(Debug, Clone, Default)]
pub struct EventJournal {
    /// Entries in record order.
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl EventJournal {
    /// Builds an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event` at simulation time `t_ms`.
    pub fn record(&self, t_ms: u64, event: Event) {
        self.entries
            .lock()
            .expect("journal lock poisoned")
            .push(Entry { t_ms, event });
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("journal lock poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every entry in record order.
    pub fn entries(&self) -> Vec<Entry> {
        self.entries.lock().expect("journal lock poisoned").clone()
    }

    /// Serialises the journal as JSONL (one entry per line).
    pub fn to_jsonl(&self) -> String {
        let entries = self.entries.lock().expect("journal lock poisoned");
        let mut out = String::new();
        for e in entries.iter() {
            let _ = writeln!(out, "{}", e.to_json());
        }
        out
    }

    /// Parses a JSONL document produced by [`to_jsonl`](Self::to_jsonl)
    /// into a fresh journal. Blank lines are skipped.
    ///
    /// # Errors
    /// Returns the first malformed line's number and message.
    pub fn parse_jsonl(text: &str) -> Result<EventJournal, String> {
        let journal = EventJournal::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry = Entry::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            journal.record(entry.t_ms, entry.event);
        }
        Ok(journal)
    }

    /// Parses a JSONL document, skipping malformed lines instead of
    /// failing, and accounts for every skip in the returned
    /// [`ParseReport`]. A malformed **final** line additionally sets
    /// [`ParseReport::truncated`] — the signature of an export cut off
    /// mid-write — so callers can escalate it to a hard error.
    pub fn parse_jsonl_lossy(text: &str) -> (EventJournal, ParseReport) {
        let journal = EventJournal::new();
        let mut report = ParseReport::default();
        let mut last_line = None;
        let mut last_bad = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            last_line = Some(i);
            match Entry::parse(line) {
                Ok(entry) => journal.record(entry.t_ms, entry.event),
                Err(e) => {
                    report.skipped.push((i + 1, e));
                    last_bad = Some(i);
                }
            }
        }
        report.truncated = last_bad.is_some() && last_bad == last_line;
        (journal, report)
    }
}

/// Accounting from [`EventJournal::parse_jsonl_lossy`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParseReport {
    /// `(1-based line number, error)` for every skipped line.
    pub skipped: Vec<(usize, String)>,
    /// Whether the final non-blank line failed to parse (truncated or
    /// corrupt export).
    pub truncated: bool,
}

impl ParseReport {
    /// Whether every line parsed.
    pub fn clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_started(seed: u64) -> Event {
        Event::RunStarted {
            scheme: "dt-assisted".into(),
            seed,
            users: 40,
            intervals: 2,
            threads: 2,
            shards: 1,
        }
    }

    fn interval_completed(interval: u64) -> Event {
        Event::IntervalCompleted {
            interval,
            k: 3,
            silhouette: 0.42,
            groups: 3,
            predicted_rb: 120.5,
            actual_rb: 126.0,
            predicted_gcycles: 2.1,
            actual_gcycles: 2.0,
            hit_ratio: 0.75,
        }
    }

    fn stage_summary() -> Event {
        Event::StageSummary {
            stage: crate::stages::KMEANS_FIT.into(),
            count: 4,
            mean_ms: 1.25,
            p50_ms: 1.0,
            p90_ms: 2.0,
            p99_ms: 2.0,
            max_ms: 2.0,
            total_ms: 5.0,
        }
    }

    fn sample_entries() -> Vec<Entry> {
        vec![
            Entry {
                t_ms: 0,
                event: run_started(7),
            },
            Entry {
                t_ms: 300_000,
                event: Event::IntervalStarted { interval: 1 },
            },
            Entry {
                t_ms: 300_000,
                event: Event::PretrainCompleted {
                    episodes: 250,
                    epsilon: 0.26,
                    loss: 0.03,
                },
            },
            Entry {
                t_ms: 300_500,
                event: Event::CollectionCompleted {
                    interval: 1,
                    users: 40,
                },
            },
            Entry {
                t_ms: 600_000,
                event: interval_completed(1),
            },
            Entry {
                t_ms: 600_000,
                event: stage_summary(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_preserves_every_event() {
        let journal = EventJournal::new();
        for e in sample_entries() {
            journal.record(e.t_ms, e.event);
        }
        let text = journal.to_jsonl();
        let parsed = EventJournal::parse_jsonl(&text).unwrap();
        assert_eq!(parsed.entries(), journal.entries());
    }

    #[test]
    fn every_event_variant_round_trips() {
        let variants = vec![
            run_started(1),
            Event::IntervalStarted { interval: 2 },
            Event::CollectionCompleted {
                interval: 2,
                users: 40,
            },
            Event::PretrainCompleted {
                episodes: 10,
                epsilon: 0.5,
                loss: 0.0,
            },
            Event::ReservationScored {
                predicted_rb: 100.0,
                used_rb: 90.0,
                over_rb: 10.0,
                under_rb: 0.0,
            },
            interval_completed(2),
            Event::FaultsInjected {
                interval: 2,
                lost: 10,
                delayed: 4,
                corrupted: 1,
                rejected: 1,
                retried: 6,
                overflowed: 2,
            },
            Event::ChurnBurst {
                interval: 2,
                replaced: 12,
            },
            Event::BrownoutApplied {
                interval: 2,
                capacity_scale: 0.35,
            },
            Event::PredictionDegraded {
                interval: 2,
                coverage: 0.6,
                margin: 1.2,
            },
            Event::ShardDown {
                interval: 2,
                shard: 1,
                mode: "crash".into(),
                failed_over: 25,
            },
            Event::ShardRestored {
                interval: 4,
                shard: 1,
                mode: "crash".into(),
            },
            Event::SloBreached {
                interval: 2,
                slo: "availability".into(),
                value: 0.75,
                threshold: 0.95,
            },
            Event::SloRecovered {
                interval: 3,
                slo: "availability".into(),
                value: 1.0,
                threshold: 0.95,
            },
            stage_summary(),
        ];
        for event in variants {
            let entry = Entry { t_ms: 42, event };
            let parsed = Entry::parse(&entry.to_json().to_string()).unwrap();
            assert_eq!(parsed, entry);
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = EventJournal::parse_jsonl("{\"t_ms\":1,\"event\":\"Nope\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("Nope"), "{err}");
    }

    #[test]
    fn lossy_parse_counts_skips_and_flags_a_corrupt_final_line() {
        let journal = EventJournal::new();
        for e in sample_entries() {
            journal.record(e.t_ms, e.event);
        }
        // Hand-damage the middle: drop a field from line 3, garble line 5.
        let mut lines: Vec<String> = journal.to_jsonl().lines().map(str::to_string).collect();
        lines[2] = lines[2].replace("\"epsilon\":0.26,", "");
        lines[4] = "{not json at all".into();
        let damaged = lines.join("\n");
        let (parsed, report) = EventJournal::parse_jsonl_lossy(&damaged);
        assert_eq!(parsed.len(), journal.len() - 2);
        assert_eq!(report.skipped.len(), 2);
        assert_eq!(report.skipped[0].0, 3);
        assert_eq!(report.skipped[1].0, 5);
        assert!(!report.truncated, "damage was not on the final line");
        assert!(!report.clean());

        // Truncate the final line mid-record: lossy parse flags it.
        let mut truncated = journal.to_jsonl();
        truncated.truncate(truncated.len() - 20);
        let (parsed, report) = EventJournal::parse_jsonl_lossy(&truncated);
        assert_eq!(parsed.len(), journal.len() - 1);
        assert!(report.truncated);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn integer_fields_decode_strictly_and_by_name() {
        let line = |interval: &str| {
            format!(r#"{{"t_ms":1,"event":"IntervalStarted","interval":{interval}}}"#)
        };
        assert_eq!(
            Entry::parse(&line("9007199254740991")).unwrap().event,
            Event::IntervalStarted {
                interval: crate::json::MAX_SAFE_INT
            }
        );
        for bad in ["-3.7", "2.5", "-1", "1e30", "9007199254740993", "\"3\""] {
            let err = Entry::parse(&line(bad)).unwrap_err();
            assert!(err.contains("'interval'"), "{bad}: {err}");
        }
        let err = Entry::parse(r#"{"t_ms":1e30,"event":"IntervalStarted","interval":1}"#);
        assert!(err.unwrap_err().contains("'t_ms'"));
        let summary = Entry {
            t_ms: 1,
            event: stage_summary(),
        }
        .to_json()
        .to_string();
        let line = summary.replace("\"max_ms\":2", "\"max_ms\":1e999");
        assert!(Entry::parse(&line).unwrap_err().contains("'max_ms'"));
        let line = summary.replace("\"stage\":\"kmeans_fit\",", "");
        assert!(Entry::parse(&line).unwrap_err().contains("'stage'"));
        let err = Entry::parse(r#"{"t_ms":1,"event":"StageCompleted","stage":"x"}"#);
        assert_eq!(err.unwrap_err(), "unknown event 'StageCompleted'");
    }

    #[test]
    fn lossy_parse_of_a_clean_journal_is_clean() {
        let journal = EventJournal::new();
        for e in sample_entries() {
            journal.record(e.t_ms, e.event);
        }
        let (parsed, report) = EventJournal::parse_jsonl_lossy(&journal.to_jsonl());
        assert_eq!(parsed.entries(), journal.entries());
        assert!(report.clean());
        assert!(!report.truncated);
    }

    #[test]
    fn entries_keep_record_order() {
        let journal = EventJournal::new();
        let n = 1000;
        for i in 0..n as u64 {
            journal.record(i, Event::IntervalStarted { interval: i });
        }
        assert_eq!(journal.len(), n);
        let t_ms: Vec<u64> = journal.entries().iter().map(|e| e.t_ms).collect();
        assert_eq!(t_ms, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(journal.to_jsonl().lines().count(), n);
    }

    /// A line an older build wrote, holding a field since retired from
    /// its event, still parses: fields are read by name, and a key no
    /// event declares is ignored.
    #[test]
    fn retired_fields_of_older_journals_are_ignored() {
        for event in [
            Event::ShardDown {
                interval: 2,
                shard: 1,
                mode: "crash".into(),
                failed_over: 25,
            },
            Event::ShardRestored {
                interval: 4,
                shard: 1,
                mode: "crash".into(),
            },
        ] {
            let entry = Entry { t_ms: 42, event };
            let mut json = entry.to_json();
            if let Json::Obj(map) = &mut json {
                map.insert("retired".into(), Json::Num(4096.0));
            }
            assert_eq!(Entry::parse(&json.to_string()).unwrap(), entry);
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let journal = EventJournal::new();
        journal.record(5, Event::IntervalStarted { interval: 9 });
        let text = format!("\n{}\n\n", journal.to_jsonl());
        assert_eq!(EventJournal::parse_jsonl(&text).unwrap().len(), 1);
    }
}
