//! Versioned shard checkpoints for control-plane fault tolerance.
//!
//! A [`ShardCheckpoint`] snapshots one shard at an interval boundary:
//! every twin it owns (full time series, revision counters and instance
//! nonce included), each owner's uplink [`SyncTracker`] state (pending
//! retries and backoff survive the outage) and the twin store's
//! instance-nonce counter. The encoding is one line of the workspace's
//! hand-rolled JSON ([`msvs_telemetry::Json`]) under a versioned schema
//! tag, so a checkpoint from another layout fails loud by name rather
//! than restoring wrong. Scalars and counters are JSON numbers; each
//! twin's three series are packed binary records in one base64 string
//! apiece (see [`UserDigitalTwin::write_checkpoint`]), which carry every
//! `f64` bit for bit and cost a fraction of formatting them as decimals.
//!
//! A capture costs pointer bumps (the twins' series are copy-on-write).
//! `Display` streams a checkpoint through one encoder with no
//! intermediate tree; decoding goes through [`Json::parse`].

use std::fmt;

use msvs_telemetry::json::{self, Json};
use msvs_types::{UserId, MAX_SHARDS};
use msvs_udt::{SyncTracker, UdtStore, UserDigitalTwin};

/// Schema tag stamped into every checkpoint. Bump on layout changes so
/// a stale checkpoint fails loud with a named mismatch.
pub const CHECKPOINT_SCHEMA: &str = "msvs-checkpoint/v3";

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
    /// store reloaded from the checkpoint can never re-stamp a nonce
    /// issued before it.
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
    /// Snapshots `shard` at `interval`: the twins of `users` (the
    /// users the shard owns) out of `store`, each paired with its sync
    /// state through `tracker_of` (the simulation owns the trackers).
    ///
    /// # Panics
    /// Panics when a listed user has no twin in `store`.
    pub fn capture(
        store: &UdtStore,
        shard: usize,
        users: impl IntoIterator<Item = UserId>,
        interval: u64,
        mut tracker_of: impl FnMut(UserId) -> SyncTracker,
    ) -> Self {
        let mut users: Vec<UserId> = users.into_iter().collect();
        users.sort_unstable();
        let twins = users
            .into_iter()
            .map(|user| CheckpointEntry {
                twin: store
                    .with_twin(user, Clone::clone)
                    .expect("an owned user has a twin"),
                tracker: tracker_of(user),
            })
            .collect();
        Self {
            shard,
            interval,
            next_instance: store.next_instance(),
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

    /// Streams the checkpoint under the versioned schema as one line of
    /// canonical JSON (keys sorted, scalars in [`Json`]'s forms).
    fn write(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("{\"interval\":")?;
        json::write_num(w, self.interval as f64)?;
        w.write_str(",\"next_instance\":")?;
        json::write_num(w, self.next_instance as f64)?;
        w.write_str(",\"schema\":")?;
        json::write_str(w, CHECKPOINT_SCHEMA)?;
        w.write_str(",\"shard\":")?;
        json::write_num(w, self.shard as f64)?;
        w.write_str(",\"twins\":[")?;
        for (i, e) in self.twins.iter().enumerate() {
            if i > 0 {
                w.write_char(',')?;
            }
            w.write_str("{\"tracker\":")?;
            e.tracker.write_checkpoint(w)?;
            w.write_str(",\"twin\":")?;
            e.twin.write_checkpoint(w)?;
            w.write_char('}')?;
        }
        w.write_str("]}")
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

    /// Reloads the checkpointed twins into `store`, revisions intact,
    /// and returns each user's restored sync state for the caller to
    /// re-install. The store's instance-nonce counter only moves
    /// forward, so a stale checkpoint can never cause nonce reuse.
    pub fn restore_into(&self, store: &mut UdtStore) -> Vec<(UserId, SyncTracker)> {
        store.restore_next_instance(self.next_instance);
        for entry in &self.twins {
            store.import(entry.twin.clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::{Position, SimTime};
    use msvs_udt::{Attribute, RetryPolicy};

    /// The users shard 1 owns in [`seeded_store`]; user 5 belongs to
    /// another shard.
    const OWNED: [UserId; 3] = [UserId(4), UserId(2), UserId(9)];

    fn seeded_store() -> (UdtStore, Vec<(UserId, SyncTracker)>) {
        let mut store = UdtStore::new();
        let mut trackers = Vec::new();
        store.insert(UserDigitalTwin::new(UserId(5)));
        for user in OWNED {
            let id = u32::from(user);
            store.insert(UserDigitalTwin::new(user));
            store
                .with_twin_mut(user, |t| {
                    t.update_channel(SimTime::from_secs(1), 6.0 + id as f64);
                    t.update_location(SimTime::from_secs(2), Position::new(id as f64, 1.0));
                })
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
        (store, trackers)
    }

    fn capture(store: &UdtStore, interval: u64) -> ShardCheckpoint {
        ShardCheckpoint::capture(store, 1, OWNED, interval, |_| SyncTracker::default())
    }

    #[test]
    fn capture_serialize_restore_round_trips() {
        let (store, trackers) = seeded_store();
        let lookup = |u: UserId| {
            trackers
                .iter()
                .find(|(id, _)| *id == u)
                .map(|(_, t)| t.clone())
                .unwrap()
        };
        let ckpt = ShardCheckpoint::capture(&store, 1, OWNED, 7, lookup);
        assert_eq!(ckpt.shard, 1);
        assert_eq!(ckpt.len(), 3);
        assert_eq!(
            ckpt.twins
                .iter()
                .map(|e| e.twin.user().into())
                .collect::<Vec<u32>>(),
            vec![2, 4, 9],
            "entries are the shard's users, user-sorted"
        );
        let text = ckpt.to_string();
        assert_eq!(
            Json::parse(&text).unwrap().to_string(),
            text,
            "the streamed text is canonical"
        );

        let back = ShardCheckpoint::parse(&text).expect("round trip");
        assert_eq!(back, ckpt, "JSON codec is lossless");

        let mut fresh = UdtStore::new();
        let restored = back.restore_into(&mut fresh);
        assert_eq!(fresh.len(), 3);
        assert_eq!(
            fresh.with_twin(UserId(4), |t| t.revision()).unwrap(),
            store.with_twin(UserId(4), |t| t.revision()).unwrap(),
            "revision (instance nonce included) survives restore"
        );
        assert_eq!(
            fresh.next_instance(),
            store.next_instance(),
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
        let (mut store, _) = seeded_store();
        store.remove(UserId(5));
        let held = store.snapshot();
        let ckpt = capture(&store, 3);
        let text = ckpt.to_string();
        store
            .with_twin_mut(UserId(9), |t| t.update_channel(SimTime::from_secs(5), -2.0))
            .unwrap();
        let mut fresh = UdtStore::new();
        ShardCheckpoint::parse(&text)
            .expect("round trip")
            .restore_into(&mut fresh);
        assert_eq!(fresh.snapshot(), held);
        assert_ne!(store.snapshot(), held);
    }

    #[test]
    fn schema_mismatch_and_bad_fields_fail_loud_by_name() {
        let ckpt = capture(&seeded_store().0, 0);
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

    /// Shard ids at or past the deployment cap never restore.
    #[test]
    fn shard_ids_past_the_cap_are_rejected() {
        let ckpt = capture(&seeded_store().0, 0);
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

    /// A user id at the top of the id space costs one map entry on
    /// restore, not a table that long.
    #[test]
    fn the_largest_user_id_restores_as_one_twin() {
        let mut store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(u32::MAX)));
        let line =
            ShardCheckpoint::capture(&store, 0, [UserId(u32::MAX)], 0, |_| SyncTracker::default())
                .to_string();
        assert!(line.contains("4294967295"), "{line}");
        let mut fresh = UdtStore::new();
        ShardCheckpoint::parse(&line)
            .expect("round trip")
            .restore_into(&mut fresh);
        let snap = fresh.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].user(), UserId(u32::MAX));
        assert_eq!(snap, store.snapshot());
    }

    #[test]
    fn restore_never_rewinds_the_nonce_counter() {
        let ckpt = capture(&seeded_store().0, 0);
        let mut target = UdtStore::new();
        // The target store has advanced past the checkpoint.
        for id in 100..110u32 {
            target.insert(UserDigitalTwin::new(UserId(id)));
        }
        let advanced = target.next_instance();
        assert!(advanced > ckpt.next_instance);
        ckpt.restore_into(&mut target);
        assert_eq!(target.next_instance(), advanced);
        assert_eq!(target.len(), 13, "restore adds to what the store holds");
    }
}
