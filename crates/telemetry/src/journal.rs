//! Structured, in-memory event journal with JSONL/CSV export.
//!
//! Events are typed (not free-form strings) so tests can assert on the
//! exact sequence a simulation emits, and timestamps are **simulation
//! time** so journals are deterministic for a fixed seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// The twin attributes a [`Event::FaultInjected`] can name.
const FAULT_ATTRIBUTES: [&str; 3] = ["channel", "location", "preference"];

/// The fates a [`Event::FaultInjected`] can name: a loss, a loss to a
/// partitioned shard, a delay or a corruption.
const FAULT_KINDS: [&str; 4] = ["lose", "partition", "delay", "corrupt"];

/// One structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A simulation run began.
    RunStarted { scheme: String, seed: u64 },
    /// A scored interval began.
    IntervalStarted { interval: u64 },
    /// The UDT collection sweep for an interval finished.
    CollectionCompleted { interval: u64, users: u64 },
    /// A named pipeline stage finished (`wall_ms` of host time).
    StageCompleted { stage: String, wall_ms: f64 },
    /// The grouping engine produced multicast groups.
    GroupsFormed {
        k: u64,
        silhouette: f64,
        reward: f64,
    },
    /// The scheme predicted aggregate resource demand.
    DemandPredicted {
        groups: u64,
        total_rb: f64,
        traffic_mb: f64,
    },
    /// A reservation was scored against realised demand.
    ReservationScored {
        predicted_rb: f64,
        used_rb: f64,
        over_rb: f64,
        under_rb: f64,
    },
    /// The edge cache evicted an entry under pressure.
    CacheEvicted { video: u64, level: String },
    /// The DDQN agent completed a training step.
    TrainingStepped { loss: f64, epsilon: f64 },
    /// A scored interval finished.
    IntervalCompleted {
        interval: u64,
        qoe: f64,
        hit_ratio: f64,
    },
    /// One uplink status report was faulted (timestamp = report time).
    /// `attribute` is `channel`, `location` or `preference`; `kind` is
    /// `lose`, `partition` (lost to a partitioned shard), `delay` or
    /// `corrupt`. Parsing rejects any other label.
    FaultInjected {
        user: u64,
        attribute: &'static str,
        kind: &'static str,
    },
    /// Per-interval fault-injection tallies after the collection sweep.
    FaultsInjected {
        interval: u64,
        lost: u64,
        delayed: u64,
        corrupted: u64,
        rejected: u64,
        retried: u64,
        overflowed: u64,
    },
    /// A scheduled churn burst replaced part of the population.
    ChurnBurst { interval: u64, replaced: u64 },
    /// The edge cache capacity changed for a brownout window.
    BrownoutApplied { interval: u64, capacity_scale: f64 },
    /// The predictor fell back to its degraded path for an interval.
    PredictionDegraded {
        interval: u64,
        coverage: f64,
        margin: f64,
    },
    /// A shard went down (crash or partition). `failed_over` counts the
    /// twins migrated to live neighbours (crash only);
    /// `checkpoint_bytes` is the size of the boundary checkpoint.
    ShardDown {
        interval: u64,
        shard: u64,
        mode: String,
        failed_over: u64,
        checkpoint_bytes: u64,
    },
    /// A shard came back at the end of its outage window. `recovered`
    /// counts the users in the checkpoint anchoring the resync.
    ShardRestored {
        interval: u64,
        shard: u64,
        mode: String,
        recovered: u64,
    },
    /// An SLO rule crossed from meeting to breaching its objective at
    /// an interval boundary. `value` is the observed signal, `threshold`
    /// the policy bound it violated.
    SloBreached {
        interval: u64,
        slo: String,
        value: f64,
        threshold: f64,
    },
    /// A previously breached SLO rule returned within its objective.
    SloRecovered {
        interval: u64,
        slo: String,
        value: f64,
        threshold: f64,
    },
}

impl Event {
    /// Stable event name used as the JSONL/CSV discriminant.
    pub fn name(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "RunStarted",
            Event::IntervalStarted { .. } => "IntervalStarted",
            Event::CollectionCompleted { .. } => "CollectionCompleted",
            Event::StageCompleted { .. } => "StageCompleted",
            Event::GroupsFormed { .. } => "GroupsFormed",
            Event::DemandPredicted { .. } => "DemandPredicted",
            Event::ReservationScored { .. } => "ReservationScored",
            Event::CacheEvicted { .. } => "CacheEvicted",
            Event::TrainingStepped { .. } => "TrainingStepped",
            Event::IntervalCompleted { .. } => "IntervalCompleted",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::FaultsInjected { .. } => "FaultsInjected",
            Event::ChurnBurst { .. } => "ChurnBurst",
            Event::BrownoutApplied { .. } => "BrownoutApplied",
            Event::PredictionDegraded { .. } => "PredictionDegraded",
            Event::ShardDown { .. } => "ShardDown",
            Event::ShardRestored { .. } => "ShardRestored",
            Event::SloBreached { .. } => "SloBreached",
            Event::SloRecovered { .. } => "SloRecovered",
        }
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        match self {
            Event::RunStarted { scheme, seed } => vec![
                ("scheme", Json::Str(scheme.clone())),
                ("seed", Json::Num(*seed as f64)),
            ],
            Event::IntervalStarted { interval } => {
                vec![("interval", Json::Num(*interval as f64))]
            }
            Event::CollectionCompleted { interval, users } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("users", Json::Num(*users as f64)),
            ],
            Event::StageCompleted { stage, wall_ms } => vec![
                ("stage", Json::Str(stage.clone())),
                ("wall_ms", Json::Num(*wall_ms)),
            ],
            Event::GroupsFormed {
                k,
                silhouette,
                reward,
            } => vec![
                ("k", Json::Num(*k as f64)),
                ("silhouette", Json::Num(*silhouette)),
                ("reward", Json::Num(*reward)),
            ],
            Event::DemandPredicted {
                groups,
                total_rb,
                traffic_mb,
            } => vec![
                ("groups", Json::Num(*groups as f64)),
                ("total_rb", Json::Num(*total_rb)),
                ("traffic_mb", Json::Num(*traffic_mb)),
            ],
            Event::ReservationScored {
                predicted_rb,
                used_rb,
                over_rb,
                under_rb,
            } => vec![
                ("predicted_rb", Json::Num(*predicted_rb)),
                ("used_rb", Json::Num(*used_rb)),
                ("over_rb", Json::Num(*over_rb)),
                ("under_rb", Json::Num(*under_rb)),
            ],
            Event::CacheEvicted { video, level } => vec![
                ("video", Json::Num(*video as f64)),
                ("level", Json::Str(level.clone())),
            ],
            Event::TrainingStepped { loss, epsilon } => {
                vec![("loss", Json::Num(*loss)), ("epsilon", Json::Num(*epsilon))]
            }
            Event::IntervalCompleted {
                interval,
                qoe,
                hit_ratio,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("qoe", Json::Num(*qoe)),
                ("hit_ratio", Json::Num(*hit_ratio)),
            ],
            Event::FaultInjected {
                user,
                attribute,
                kind,
            } => vec![
                ("user", Json::Num(*user as f64)),
                ("attribute", Json::Str((*attribute).into())),
                ("kind", Json::Str((*kind).into())),
            ],
            Event::FaultsInjected {
                interval,
                lost,
                delayed,
                corrupted,
                rejected,
                retried,
                overflowed,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("lost", Json::Num(*lost as f64)),
                ("delayed", Json::Num(*delayed as f64)),
                ("corrupted", Json::Num(*corrupted as f64)),
                ("rejected", Json::Num(*rejected as f64)),
                ("retried", Json::Num(*retried as f64)),
                ("overflowed", Json::Num(*overflowed as f64)),
            ],
            Event::ChurnBurst { interval, replaced } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("replaced", Json::Num(*replaced as f64)),
            ],
            Event::BrownoutApplied {
                interval,
                capacity_scale,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("capacity_scale", Json::Num(*capacity_scale)),
            ],
            Event::PredictionDegraded {
                interval,
                coverage,
                margin,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("coverage", Json::Num(*coverage)),
                ("margin", Json::Num(*margin)),
            ],
            Event::ShardDown {
                interval,
                shard,
                mode,
                failed_over,
                checkpoint_bytes,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("shard", Json::Num(*shard as f64)),
                ("mode", Json::Str(mode.clone())),
                ("failed_over", Json::Num(*failed_over as f64)),
                ("checkpoint_bytes", Json::Num(*checkpoint_bytes as f64)),
            ],
            Event::ShardRestored {
                interval,
                shard,
                mode,
                recovered,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("shard", Json::Num(*shard as f64)),
                ("mode", Json::Str(mode.clone())),
                ("recovered", Json::Num(*recovered as f64)),
            ],
            Event::SloBreached {
                interval,
                slo,
                value,
                threshold,
            }
            | Event::SloRecovered {
                interval,
                slo,
                value,
                threshold,
            } => vec![
                ("interval", Json::Num(*interval as f64)),
                ("slo", Json::Str(slo.clone())),
                ("value", Json::Num(*value)),
                ("threshold", Json::Num(*threshold)),
            ],
        }
    }

    fn from_json(name: &str, obj: &Json) -> Result<Event, String> {
        let num = |k: &str| {
            obj.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: missing numeric field '{k}'"))
        };
        let int = |k: &str| num(k).map(|v| v as u64);
        let text = |k: &str| {
            obj.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{name}: missing string field '{k}'"))
        };
        let label = |k: &str, labels: &[&'static str]| {
            let value = text(k)?;
            labels
                .iter()
                .copied()
                .find(|&l| l == value)
                .ok_or_else(|| format!("{name}: unknown {k} '{value}'"))
        };
        Ok(match name {
            "RunStarted" => Event::RunStarted {
                scheme: text("scheme")?,
                seed: int("seed")?,
            },
            "IntervalStarted" => Event::IntervalStarted {
                interval: int("interval")?,
            },
            "CollectionCompleted" => Event::CollectionCompleted {
                interval: int("interval")?,
                users: int("users")?,
            },
            "StageCompleted" => Event::StageCompleted {
                stage: text("stage")?,
                wall_ms: num("wall_ms")?,
            },
            "GroupsFormed" => Event::GroupsFormed {
                k: int("k")?,
                silhouette: num("silhouette")?,
                reward: num("reward")?,
            },
            "DemandPredicted" => Event::DemandPredicted {
                groups: int("groups")?,
                total_rb: num("total_rb")?,
                traffic_mb: num("traffic_mb")?,
            },
            "ReservationScored" => Event::ReservationScored {
                predicted_rb: num("predicted_rb")?,
                used_rb: num("used_rb")?,
                over_rb: num("over_rb")?,
                under_rb: num("under_rb")?,
            },
            "CacheEvicted" => Event::CacheEvicted {
                video: int("video")?,
                level: text("level")?,
            },
            "TrainingStepped" => Event::TrainingStepped {
                loss: num("loss")?,
                epsilon: num("epsilon")?,
            },
            "IntervalCompleted" => Event::IntervalCompleted {
                interval: int("interval")?,
                qoe: num("qoe")?,
                hit_ratio: num("hit_ratio")?,
            },
            "FaultInjected" => Event::FaultInjected {
                user: int("user")?,
                attribute: label("attribute", &FAULT_ATTRIBUTES)?,
                kind: label("kind", &FAULT_KINDS)?,
            },
            "FaultsInjected" => Event::FaultsInjected {
                interval: int("interval")?,
                lost: int("lost")?,
                delayed: int("delayed")?,
                corrupted: int("corrupted")?,
                rejected: int("rejected")?,
                retried: int("retried")?,
                overflowed: int("overflowed")?,
            },
            "ChurnBurst" => Event::ChurnBurst {
                interval: int("interval")?,
                replaced: int("replaced")?,
            },
            "BrownoutApplied" => Event::BrownoutApplied {
                interval: int("interval")?,
                capacity_scale: num("capacity_scale")?,
            },
            "PredictionDegraded" => Event::PredictionDegraded {
                interval: int("interval")?,
                coverage: num("coverage")?,
                margin: num("margin")?,
            },
            "ShardDown" => Event::ShardDown {
                interval: int("interval")?,
                shard: int("shard")?,
                mode: text("mode")?,
                failed_over: int("failed_over")?,
                checkpoint_bytes: int("checkpoint_bytes")?,
            },
            "ShardRestored" => Event::ShardRestored {
                interval: int("interval")?,
                shard: int("shard")?,
                mode: text("mode")?,
                recovered: int("recovered")?,
            },
            "SloBreached" => Event::SloBreached {
                interval: int("interval")?,
                slo: text("slo")?,
                value: num("value")?,
                threshold: num("threshold")?,
            },
            "SloRecovered" => Event::SloRecovered {
                interval: int("interval")?,
                slo: text("slo")?,
                value: num("value")?,
                threshold: num("threshold")?,
            },
            other => return Err(format!("unknown event '{other}'")),
        })
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
            .ok_or("missing 't_ms'")?;
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

    /// Serialises the journal as CSV with columns
    /// `t_ms,event,fields` where `fields` packs `key=value` pairs.
    pub fn to_csv(&self) -> String {
        let entries = self.entries.lock().expect("journal lock poisoned");
        let mut out = String::from("t_ms,event,fields\n");
        for e in entries.iter() {
            let fields: Vec<String> = e
                .event
                .fields()
                .iter()
                .map(|(k, v)| match v {
                    Json::Str(s) => format!("{k}={s}"),
                    other => format!("{k}={other}"),
                })
                .collect();
            let _ = writeln!(
                out,
                "{},{},\"{}\"",
                e.t_ms,
                e.event.name(),
                fields.join(";").replace('"', "\"\"")
            );
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

    fn sample_entries() -> Vec<Entry> {
        vec![
            Entry {
                t_ms: 0,
                event: Event::RunStarted {
                    scheme: "dt-assisted".into(),
                    seed: 7,
                },
            },
            Entry {
                t_ms: 300_000,
                event: Event::IntervalStarted { interval: 1 },
            },
            Entry {
                t_ms: 300_000,
                event: Event::GroupsFormed {
                    k: 3,
                    silhouette: 0.42,
                    reward: -1.5,
                },
            },
            Entry {
                t_ms: 300_500,
                event: Event::StageCompleted {
                    stage: crate::stages::KMEANS_FIT.into(),
                    wall_ms: 1.25,
                },
            },
            Entry {
                t_ms: 301_000,
                event: Event::CacheEvicted {
                    video: 17,
                    level: "P720".into(),
                },
            },
            Entry {
                t_ms: 600_000,
                event: Event::IntervalCompleted {
                    interval: 1,
                    qoe: 0.91,
                    hit_ratio: 0.75,
                },
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
            Event::RunStarted {
                scheme: "s".into(),
                seed: 1,
            },
            Event::IntervalStarted { interval: 2 },
            Event::CollectionCompleted {
                interval: 2,
                users: 40,
            },
            Event::StageCompleted {
                stage: crate::stages::CNN_FORWARD.into(),
                wall_ms: 0.5,
            },
            Event::GroupsFormed {
                k: 4,
                silhouette: 0.1,
                reward: 2.0,
            },
            Event::DemandPredicted {
                groups: 4,
                total_rb: 120.5,
                traffic_mb: 88.0,
            },
            Event::ReservationScored {
                predicted_rb: 100.0,
                used_rb: 90.0,
                over_rb: 10.0,
                under_rb: 0.0,
            },
            Event::CacheEvicted {
                video: 3,
                level: "P1080".into(),
            },
            Event::TrainingStepped {
                loss: 0.03,
                epsilon: 0.2,
            },
            Event::IntervalCompleted {
                interval: 2,
                qoe: 0.8,
                hit_ratio: 0.6,
            },
            Event::FaultInjected {
                user: 7,
                attribute: "channel",
                kind: "lose",
            },
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
                checkpoint_bytes: 4096,
            },
            Event::ShardRestored {
                interval: 4,
                shard: 1,
                mode: "crash".into(),
                recovered: 25,
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
        lines[2] = lines[2].replace("\"silhouette\":0.42,", "");
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
    fn fault_labels_parse_from_their_closed_sets_only() {
        for attribute in FAULT_ATTRIBUTES {
            for kind in FAULT_KINDS {
                let line = format!(
                    r#"{{"attribute":"{attribute}","event":"FaultInjected","kind":"{kind}","t_ms":1,"user":2}}"#
                );
                let entry = Entry::parse(&line).unwrap();
                assert_eq!(
                    entry.event,
                    Event::FaultInjected {
                        user: 2,
                        attribute,
                        kind
                    }
                );
                assert_eq!(entry.to_json().to_string(), line, "the text is canonical");
            }
        }
        let bad_attribute =
            r#"{"t_ms":1,"event":"FaultInjected","user":2,"attribute":"battery","kind":"lose"}"#;
        let err = Entry::parse(bad_attribute).unwrap_err();
        assert!(
            err.contains("attribute") && err.contains("battery"),
            "{err}"
        );
        let bad_kind =
            r#"{"t_ms":1,"event":"FaultInjected","user":2,"attribute":"channel","kind":"Lose"}"#;
        let err = Entry::parse(bad_kind).unwrap_err();
        assert!(err.contains("kind") && err.contains("Lose"), "{err}");
        let missing = r#"{"t_ms":1,"event":"FaultInjected","user":2,"attribute":"channel"}"#;
        assert!(Entry::parse(missing).unwrap_err().contains("'kind'"));
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
    fn blank_lines_are_skipped() {
        let journal = EventJournal::new();
        journal.record(5, Event::IntervalStarted { interval: 9 });
        let text = format!("\n{}\n\n", journal.to_jsonl());
        assert_eq!(EventJournal::parse_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn csv_has_header_and_one_row_per_entry() {
        let journal = EventJournal::new();
        for e in sample_entries() {
            journal.record(e.t_ms, e.event);
        }
        let csv = journal.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + journal.len());
        assert_eq!(lines[0], "t_ms,event,fields");
        assert!(lines[3].contains("silhouette=0.42"));
    }
}
