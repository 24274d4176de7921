//! One base-station shard: twin registry and a shard-local video cache
//! tier.

use msvs_edge::VideoCache;
use msvs_types::{RepresentationLevel, UserId};
use msvs_udt::{SyncTracker, UdtStore, UserDigitalTwin};
use msvs_video::Video;

/// Shard instance nonces live in disjoint namespaces: the shard id sits
/// above this bit, so shard 0 reproduces the single-store nonce sequence
/// (base 1) exactly and no two shards can ever stamp the same nonce.
const INSTANCE_SHIFT: u32 = 40;

/// Everything that travels with a twin during a cross-shard handover.
///
/// The twin (with its full revision, including the origin store's
/// instance nonce) and the user's sync-tracker retry state move as one
/// unit.
#[derive(Debug, Clone)]
pub struct TwinExport {
    /// The migrating twin, revision intact.
    pub twin: UserDigitalTwin,
    /// The user's uplink sync state (per-attribute due times, pending
    /// retries). Carried verbatim — a handover neither resets backoff
    /// nor schedules extra reports.
    pub tracker: SyncTracker,
}

/// One cell's slice of the sharded deployment.
///
/// Owns the authoritative twin registry for its users (an [`UdtStore`]
/// with a shard-disjoint instance-nonce namespace) and a shard-local
/// [`VideoCache`] tier fed by group playback.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    store: UdtStore,
    video_cache: VideoCache,
}

impl Shard {
    /// Builds shard `id` with a `video_cache_mb` local cache tier.
    pub fn new(id: usize, video_cache_mb: f64) -> Self {
        Self {
            id,
            store: UdtStore::with_instance_base(((id as u64) << INSTANCE_SHIFT) | 1),
            video_cache: VideoCache::new(video_cache_mb),
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's twin registry.
    pub fn store(&self) -> &UdtStore {
        &self.store
    }

    /// The shard-local video cache tier.
    pub fn video_cache(&self) -> &VideoCache {
        &self.video_cache
    }

    /// Records one group-playback access against the local video cache
    /// tier, admitting the representation on a miss (LRU evicts as
    /// needed). Returns whether it was a local hit.
    pub fn record_playback(&mut self, video: &Video, level: RepresentationLevel) -> bool {
        if self.video_cache.lookup(video.id, level) {
            true
        } else {
            self.video_cache.insert(video, level);
            false
        }
    }

    /// Number of twins this shard owns.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the shard owns no twins.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Extracts `user` for migration: twin out of the registry, `tracker`
    /// bundled alongside. Returns `None` (and leaves the tracker untouched
    /// conceptually — the caller keeps its copy) when the shard does not
    /// own `user`.
    pub fn export(&mut self, user: UserId, tracker: SyncTracker) -> Option<TwinExport> {
        let twin = self.store.remove(user)?;
        Some(TwinExport { twin, tracker })
    }

    /// Installs a migrated twin (registry import preserves the instance
    /// nonce, so this is transactional with the origin's `export`) and
    /// returns the migrated tracker for the caller to re-install.
    pub fn import(&mut self, export: TwinExport) -> SyncTracker {
        self.store.import(export.twin);
        export.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::SimTime;
    use msvs_udt::Attribute;

    #[test]
    fn instance_namespaces_are_disjoint_and_shard_zero_is_legacy() {
        let s0 = Shard::new(0, 1000.0);
        let s1 = Shard::new(1, 1000.0);
        s0.store().insert(UserDigitalTwin::new(UserId(1)));
        s1.store().insert(UserDigitalTwin::new(UserId(2)));
        let r0 = s0.store().with_twin(UserId(1), |t| t.revision()).unwrap();
        let r1 = s1.store().with_twin(UserId(2), |t| t.revision()).unwrap();
        assert_eq!(r0.instance, 1, "shard 0 stamps the legacy sequence");
        assert_eq!(r1.instance, (1u64 << 40) | 1);
    }

    #[test]
    fn export_import_round_trips_twin_and_tracker() {
        let mut from = Shard::new(0, 1000.0);
        let mut to = Shard::new(1, 1000.0);
        from.store().insert(UserDigitalTwin::new(UserId(7)));
        from.store()
            .update_channel(UserId(7), SimTime::from_secs(1), 9.0)
            .unwrap();
        let rev = from.store().with_twin(UserId(7), |t| t.revision()).unwrap();
        let mut tracker = SyncTracker::default();
        tracker.mark(Attribute::Channel, SimTime::from_secs(1));
        let sent_before = tracker.updates_sent();

        let export = from.export(UserId(7), tracker.clone()).expect("owned");
        assert!(from.is_empty());

        let back = to.import(export);
        assert_eq!(back, tracker, "tracker state must survive verbatim");
        assert_eq!(back.updates_sent(), sent_before);
        assert_eq!(
            to.store().with_twin(UserId(7), |t| t.revision()).unwrap(),
            rev,
            "revision (instance nonce included) must survive the move"
        );
    }

    #[test]
    fn exporting_a_stranger_returns_none() {
        let mut shard = Shard::new(0, 100.0);
        assert!(shard.export(UserId(9), SyncTracker::default()).is_none());
    }
}
