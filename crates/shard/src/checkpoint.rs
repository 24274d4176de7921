//! Versioned shard checkpoints for control-plane fault tolerance.
//!
//! A [`ShardCheckpoint`] snapshots one shard at an interval boundary:
//! every twin it owns (full time series, revision counters and instance
//! nonce included), each owner's uplink [`SyncTracker`] state (pending
//! retries and backoff survive the outage) and the store's
//! instance-nonce counter. The encoding is the workspace's hand-rolled
//! JSON ([`msvs_telemetry::Json`]) under a versioned schema tag,
//! mirroring the bench baseline format, so checkpoints are diffable and
//! survive crate-version skew detectably rather than silently.
//!
//! A checkpoint is held while the shard is down (the twins' series are
//! copy-on-write, so a capture costs pointer bumps) and is serialized
//! only when written out: `Display` streams it through one encoder with
//! no intermediate tree. [`ShardCheckpoint::encoded_len`] runs the same
//! encoder into byte counters, one twin entry per task on the worker
//! pool, and sums the counts. Decoding goes through [`Json::parse`].

use std::fmt;

use msvs_par::Pool;
use msvs_telemetry::json::{self, Json};
use msvs_types::{UserId, MAX_SHARDS};
use msvs_udt::{SyncTracker, UserDigitalTwin};

use crate::shard::Shard;

/// Schema tag stamped into every checkpoint. Bump on layout changes so
/// a stale checkpoint fails loud with a named mismatch.
pub const CHECKPOINT_SCHEMA: &str = "msvs-checkpoint/v2";

/// One user's checkpointed state: the twin and its uplink sync state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// The twin, revision counters and instance nonce intact.
    pub twin: UserDigitalTwin,
    /// The user's sync-tracker state (due times, pending retries).
    pub tracker: SyncTracker,
}

/// A whole-shard snapshot taken at an interval boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// The shard this checkpoint belongs to.
    pub shard: usize,
    /// The interval boundary the snapshot was taken at.
    pub interval: u64,
    /// The store's instance-nonce counter — restored monotonically so a
    /// recovered shard can never re-stamp a nonce issued before the
    /// outage.
    pub next_instance: u64,
    /// Checkpointed users, sorted by user id.
    pub twins: Vec<CheckpointEntry>,
}

fn bad(reason: &str) -> String {
    format!("checkpoint: {reason}")
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(&format!("missing integer field '{key}'")))
}

impl ShardCheckpoint {
    /// Snapshots `shard` at `interval`, pulling each owner's sync state
    /// through `tracker_of` (the simulation owns the trackers).
    pub fn capture(
        shard: &Shard,
        interval: u64,
        mut tracker_of: impl FnMut(UserId) -> SyncTracker,
    ) -> Self {
        let mut users = shard.store().user_ids();
        users.sort();
        let twins = users
            .iter()
            .map(|&user| CheckpointEntry {
                twin: shard
                    .store()
                    .with_twin(user, Clone::clone)
                    .expect("listed user owns a twin"),
                tracker: tracker_of(user),
            })
            .collect();
        Self {
            shard: shard.id(),
            interval,
            next_instance: shard.store().next_instance(),
            twins,
        }
    }

    /// Number of checkpointed users.
    pub fn len(&self) -> usize {
        self.twins.len()
    }

    /// Whether the checkpoint holds no users.
    pub fn is_empty(&self) -> bool {
        self.twins.is_empty()
    }

    /// Serialized size in bytes (feeds the `checkpoint_bytes_total`
    /// counter): the fixed parts plus each twin entry's bytes, counted
    /// on `pool`, plus the separators. Every part runs the encoder into
    /// a byte-counting sink, so the count is exact, allocates no text,
    /// and is the same integer at any thread count.
    pub fn encoded_len(&self, pool: &Pool) -> usize {
        let entries: usize = pool
            .map(&self.twins, |_, e| byte_count(|w| write_entry(w, e)))
            .into_iter()
            .sum();
        let separators = self.twins.len().saturating_sub(1);
        byte_count(|w| self.write_head(w)) + entries + separators + TAIL.len()
    }

    /// Streams the checkpoint under the versioned schema as one line of
    /// canonical JSON (keys sorted, scalars in [`Json`]'s forms).
    fn write(&self, w: &mut impl fmt::Write) -> fmt::Result {
        self.write_head(w)?;
        for (i, e) in self.twins.iter().enumerate() {
            if i > 0 {
                w.write_char(',')?;
            }
            write_entry(w, e)?;
        }
        w.write_str(TAIL)
    }

    /// Everything before the first twin entry.
    fn write_head(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("{\"interval\":")?;
        json::write_num(w, self.interval as f64)?;
        w.write_str(",\"next_instance\":")?;
        json::write_num(w, self.next_instance as f64)?;
        w.write_str(",\"schema\":")?;
        json::write_str(w, CHECKPOINT_SCHEMA)?;
        w.write_str(",\"shard\":")?;
        json::write_num(w, self.shard as f64)?;
        w.write_str(",\"twins\":[")
    }

    /// Decodes a checkpoint, naming the first offending field.
    ///
    /// # Errors
    /// Returns a message identifying the schema mismatch or the field
    /// that failed to decode.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field 'schema'"))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(bad(&format!(
                "schema mismatch: got '{schema}', expected '{CHECKPOINT_SCHEMA}'"
            )));
        }
        let shard = usize::try_from(get_u64(json, "shard")?)
            .ok()
            .filter(|&s| s < MAX_SHARDS)
            .ok_or_else(|| bad(&format!("field 'shard' must be below {MAX_SHARDS}")))?;
        let interval = get_u64(json, "interval")?;
        let next_instance = get_u64(json, "next_instance")?;
        let Some(Json::Arr(rows)) = json.get("twins") else {
            return Err(bad("missing array field 'twins'"));
        };
        let mut twins = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let twin_json = row
                .get("twin")
                .ok_or_else(|| bad(&format!("twins[{i}] missing field 'twin'")))?;
            let tracker_json = row
                .get("tracker")
                .ok_or_else(|| bad(&format!("twins[{i}] missing field 'tracker'")))?;
            twins.push(CheckpointEntry {
                twin: UserDigitalTwin::from_checkpoint_json(twin_json)
                    .map_err(|e| bad(&format!("twins[{i}].{e}")))?,
                tracker: SyncTracker::from_checkpoint_json(tracker_json)
                    .map_err(|e| bad(&format!("twins[{i}].{e}")))?,
            });
        }
        Ok(Self {
            shard,
            interval,
            next_instance,
            twins,
        })
    }

    /// Parses a serialized checkpoint.
    ///
    /// # Errors
    /// Returns a message naming the JSON error or offending field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e| bad(&format!("invalid JSON: {e}")))?;
        Self::from_json(&json)
    }

    /// Reloads the checkpointed registry into `shard`'s store (cleared
    /// first; the instance-nonce counter only moves forward so a stale
    /// checkpoint can never cause nonce reuse) and returns each user's
    /// restored sync state for the caller to re-install.
    pub fn restore_into(&self, shard: &Shard) -> Vec<(UserId, SyncTracker)> {
        shard.store().clear();
        shard.store().restore_next_instance(self.next_instance);
        for entry in &self.twins {
            shard.store().import(entry.twin.clone());
        }
        self.twins
            .iter()
            .map(|e| (e.twin.user(), e.tracker.clone()))
            .collect()
    }
}

/// The checkpoint's serialized form: one line of canonical JSON, which
/// [`ShardCheckpoint::parse`] reads back equal.
impl fmt::Display for ShardCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Closes the twin array and the document.
const TAIL: &str = "]}";

/// One element of the `twins` array.
fn write_entry(w: &mut impl fmt::Write, e: &CheckpointEntry) -> fmt::Result {
    w.write_str("{\"tracker\":")?;
    e.tracker.write_checkpoint(w)?;
    w.write_str(",\"twin\":")?;
    e.twin.write_checkpoint(w)?;
    w.write_char('}')
}

/// Bytes `write` emits, counted without storing them.
fn byte_count(write: impl FnOnce(&mut ByteCount) -> fmt::Result) -> usize {
    let mut len = ByteCount(0);
    // The counting sink never fails, so neither does the walk.
    let _ = write(&mut len);
    len.0
}

/// A `fmt::Write` sink that only counts the bytes written to it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::{Position, SimTime};
    use msvs_udt::{Attribute, RetryPolicy};

    fn seeded_shard() -> (Shard, Vec<(UserId, SyncTracker)>) {
        let shard = Shard::new(1, 1000.0);
        let mut trackers = Vec::new();
        for id in [4u32, 2, 9] {
            let user = UserId(id);
            shard.store().insert(UserDigitalTwin::new(user));
            shard
                .store()
                .update_channel(user, SimTime::from_secs(1), 6.0 + id as f64)
                .unwrap();
            shard
                .store()
                .update_location(user, SimTime::from_secs(2), Position::new(id as f64, 1.0))
                .unwrap();
            let mut tracker = SyncTracker::default();
            tracker.mark(Attribute::Channel, SimTime::from_secs(1));
            if id == 2 {
                tracker.mark_lost(
                    Attribute::Location,
                    SimTime::from_secs(3),
                    &RetryPolicy::default(),
                );
            }
            trackers.push((user, tracker));
        }
        (shard, trackers)
    }

    #[test]
    fn capture_serialize_restore_round_trips() {
        let (shard, trackers) = seeded_shard();
        let lookup = |u: UserId| {
            trackers
                .iter()
                .find(|(id, _)| *id == u)
                .map(|(_, t)| t.clone())
                .unwrap()
        };
        let ckpt = ShardCheckpoint::capture(&shard, 7, lookup);
        assert_eq!(ckpt.shard, 1);
        assert_eq!(ckpt.len(), 3);
        assert_eq!(
            ckpt.twins
                .iter()
                .map(|e| e.twin.user().into())
                .collect::<Vec<u32>>(),
            vec![2, 4, 9],
            "entries are user-sorted"
        );
        let text = ckpt.to_string();
        assert_eq!(
            ckpt.encoded_len(&Pool::serial()),
            text.len(),
            "the count is exact"
        );
        assert_eq!(
            Json::parse(&text).unwrap().to_string(),
            text,
            "the streamed text is canonical"
        );

        let back = ShardCheckpoint::parse(&text).expect("round trip");
        assert_eq!(back, ckpt, "JSON codec is lossless");

        let fresh = Shard::new(1, 1000.0);
        let restored = back.restore_into(&fresh);
        assert_eq!(fresh.len(), 3);
        assert_eq!(
            fresh
                .store()
                .with_twin(UserId(4), |t| t.revision())
                .unwrap(),
            shard
                .store()
                .with_twin(UserId(4), |t| t.revision())
                .unwrap(),
            "revision (instance nonce included) survives restore"
        );
        assert_eq!(
            fresh.store().next_instance(),
            shard.store().next_instance(),
            "nonce counter resumes where the checkpoint left it"
        );
        let restored_t2 = restored
            .iter()
            .find(|(u, _)| *u == UserId(2))
            .map(|(_, t)| t.clone())
            .unwrap();
        assert_eq!(restored_t2, lookup(UserId(2)), "retry state survives");
    }

    /// A checkpoint captured while a snapshot still shares the twins'
    /// series restores twins equal to the originals, and later store
    /// mutations reach neither the snapshot nor the checkpoint.
    #[test]
    fn restore_yields_twins_equal_to_the_originals() {
        let (shard, _) = seeded_shard();
        let held = shard.store().snapshot();
        let ckpt = ShardCheckpoint::capture(&shard, 3, |_| SyncTracker::default());
        let text = ckpt.to_string();
        shard
            .store()
            .update_channel(UserId(9), SimTime::from_secs(5), -2.0)
            .unwrap();
        let fresh = Shard::new(1, 1000.0);
        ShardCheckpoint::parse(&text)
            .expect("round trip")
            .restore_into(&fresh);
        assert_eq!(fresh.store().snapshot(), held);
        assert_ne!(shard.store().snapshot(), held);
    }

    #[test]
    fn schema_mismatch_and_bad_fields_fail_loud_by_name() {
        let (shard, _) = seeded_shard();
        let ckpt = ShardCheckpoint::capture(&shard, 0, |_| SyncTracker::default());
        let mut json = Json::parse(&ckpt.to_string()).unwrap();
        if let Json::Obj(map) = &mut json {
            map.insert("schema".into(), Json::Str("msvs-checkpoint/v0".into()));
        }
        let err = ShardCheckpoint::from_json(&json).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");

        // A v1 document, which still carried the cached-embedding keys,
        // names the mismatch instead of silently dropping the field.
        let mut json = Json::parse(&ckpt.to_string()).unwrap();
        if let Json::Obj(map) = &mut json {
            map.insert("schema".into(), Json::Str("msvs-checkpoint/v1".into()));
            map.insert("embedding_keys".into(), Json::Arr(vec![Json::Num(4.0)]));
        }
        let err = ShardCheckpoint::from_json(&json).unwrap_err();
        assert!(err.contains("got 'msvs-checkpoint/v1'"), "{err}");

        let mut json = Json::parse(&ckpt.to_string()).unwrap();
        if let Json::Obj(map) = &mut json {
            map.remove("next_instance");
        }
        let err = ShardCheckpoint::from_json(&json).unwrap_err();
        assert!(err.contains("next_instance"), "{err}");

        let err = ShardCheckpoint::parse("{nope").unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    /// Shard ids at or past the deployment cap would wrap the shard's
    /// instance-nonce namespace onto another shard's, so they never
    /// restore.
    #[test]
    fn shard_ids_past_the_cap_are_rejected() {
        let (shard, _) = seeded_shard();
        let ckpt = ShardCheckpoint::capture(&shard, 0, |_| SyncTracker::default());
        for id in [1024u64, 1 << 24] {
            let mut json = Json::parse(&ckpt.to_string()).unwrap();
            if let Json::Obj(map) = &mut json {
                map.insert("shard".into(), Json::Num(id as f64));
            }
            let err = ShardCheckpoint::from_json(&json).unwrap_err();
            assert!(err.contains("field 'shard' must be below 1024"), "{err}");
        }
        let mut json = Json::parse(&ckpt.to_string()).unwrap();
        if let Json::Obj(map) = &mut json {
            map.insert("shard".into(), Json::Num(1023.0));
        }
        assert_eq!(ShardCheckpoint::from_json(&json).unwrap().shard, 1023);
    }

    #[test]
    fn restore_never_rewinds_the_nonce_counter() {
        let (shard, _) = seeded_shard();
        let ckpt = ShardCheckpoint::capture(&shard, 0, |_| SyncTracker::default());
        let target = Shard::new(1, 1000.0);
        // The target store has advanced past the checkpoint.
        for id in 100..110u32 {
            target.store().insert(UserDigitalTwin::new(UserId(id)));
        }
        let advanced = target.store().next_instance();
        assert!(advanced > ckpt.next_instance);
        ckpt.restore_into(&target);
        assert_eq!(target.store().next_instance(), advanced);
    }
}
