//! The concurrent edge-resident twin registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use msvs_types::{Error, Position, Result, SimDuration, SimTime, UserId};

use crate::attribute::WatchRecord;
use crate::twin::UserDigitalTwin;

/// Read-only view over a population of twins — what the prediction
/// pipeline actually consumes. Implemented by [`UdtStore`] (the
/// single-cell registry) and by multi-shard deployments that merge
/// several per-BS stores into one canonical population.
pub trait TwinView: Send + Sync {
    /// Number of registered twins.
    fn len(&self) -> usize;

    /// Whether the view holds no twins.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of twins whose fast attributes are fresh within `horizon`
    /// of `now` (see [`UdtStore::fresh_fraction`]).
    fn fresh_fraction(&self, now: SimTime, horizon: SimDuration) -> f64;

    /// Clones every twin out, sorted by user id.
    fn snapshot(&self) -> Vec<UserDigitalTwin>;
}

impl TwinView for UdtStore {
    fn len(&self) -> usize {
        UdtStore::len(self)
    }

    fn fresh_fraction(&self, now: SimTime, horizon: SimDuration) -> f64 {
        UdtStore::fresh_fraction(self, now, horizon)
    }

    fn snapshot(&self) -> Vec<UserDigitalTwin> {
        UdtStore::snapshot(self)
    }
}

/// Number of lock shards; a small power of two spreads BS collector
/// contention without bloating the struct.
const SHARDS: usize = 16;

/// A sharded, thread-safe map of [`UserDigitalTwin`]s.
///
/// Base stations update twins concurrently while the predictor reads
/// consistent per-twin snapshots; shard-level `RwLock`s keep the common
/// path (disjoint users) contention-free.
#[derive(Debug, Default)]
pub struct UdtStore {
    shards: Vec<RwLock<HashMap<UserId, UserDigitalTwin>>>,
    /// Stamps each inserted twin with a fresh instance nonce so churned
    /// `UserId` slots never alias in revision-keyed caches. Inserts run
    /// serially in the simulation, so stamping order is deterministic.
    next_instance: AtomicU64,
}

impl UdtStore {
    /// Builds an empty store.
    pub fn new() -> Self {
        Self::with_instance_base(1)
    }

    /// Builds an empty store whose instance nonces start at `base`.
    ///
    /// Multi-shard deployments give each per-BS store a disjoint nonce
    /// namespace (e.g. the shard id in the high bits) so a twin that
    /// migrates between stores can never collide with a nonce the
    /// destination will stamp later. `with_instance_base(1)` is exactly
    /// [`UdtStore::new`].
    pub fn with_instance_base(base: u64) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            next_instance: AtomicU64::new(base),
        }
    }

    fn shard(&self, user: UserId) -> &RwLock<HashMap<UserId, UserDigitalTwin>> {
        &self.shards[user.index() % SHARDS]
    }

    /// Shared shard access; a poisoned lock means a collector thread
    /// panicked mid-update, which is unrecoverable for the registry.
    fn read(
        shard: &RwLock<HashMap<UserId, UserDigitalTwin>>,
    ) -> std::sync::RwLockReadGuard<'_, HashMap<UserId, UserDigitalTwin>> {
        shard.read().expect("twin shard lock poisoned")
    }

    /// Exclusive shard access (same poisoning policy as [`Self::read`]).
    fn write(
        shard: &RwLock<HashMap<UserId, UserDigitalTwin>>,
    ) -> std::sync::RwLockWriteGuard<'_, HashMap<UserId, UserDigitalTwin>> {
        shard.write().expect("twin shard lock poisoned")
    }

    /// Number of registered twins.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::read(s).len()).sum()
    }

    /// Whether the store holds no twins.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers (or replaces) a twin, stamping it with a fresh instance
    /// nonce (see [`UserDigitalTwin::revision`]).
    pub fn insert(&self, mut twin: UserDigitalTwin) {
        twin.set_instance(self.next_instance.fetch_add(1, Ordering::Relaxed));
        Self::write(self.shard(twin.user())).insert(twin.user(), twin);
    }

    /// Re-registers a migrated twin *without* stamping a new instance
    /// nonce, preserving its full [`TwinRevision`](crate::TwinRevision) —
    /// the cross-shard handover primitive. Revision-keyed caches on the
    /// destination keep hitting because the revision (including the
    /// origin store's nonce) survives the move intact.
    pub fn import(&self, twin: UserDigitalTwin) {
        Self::write(self.shard(twin.user())).insert(twin.user(), twin);
    }

    /// Removes a twin, returning it if present.
    pub fn remove(&self, user: UserId) -> Option<UserDigitalTwin> {
        Self::write(self.shard(user)).remove(&user)
    }

    /// The next instance nonce this store would stamp. Captured by shard
    /// checkpoints so a restored store never reissues a nonce an earlier
    /// incarnation already handed out.
    pub fn next_instance(&self) -> u64 {
        self.next_instance.load(Ordering::Relaxed)
    }

    /// Restores the instance-nonce counter from a checkpoint. Only moves
    /// the counter forward — a stale checkpoint can never rewind it into
    /// reissuing live nonces.
    pub fn restore_next_instance(&self, next: u64) {
        self.next_instance.fetch_max(next, Ordering::Relaxed);
    }

    /// Removes every twin, leaving the instance counter untouched (a
    /// crashed shard's store is wiped, not rebuilt, so its nonce namespace
    /// stays monotone across the outage).
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::write(shard).clear();
        }
    }

    /// Whether a twin exists for `user`.
    pub fn contains(&self, user: UserId) -> bool {
        Self::read(self.shard(user)).contains_key(&user)
    }

    /// All registered user ids (sorted for determinism).
    pub fn user_ids(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self
            .shards
            .iter()
            .flat_map(|s| Self::read(s).keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Runs `f` with shared access to a twin.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn with_twin<T>(&self, user: UserId, f: impl FnOnce(&UserDigitalTwin) -> T) -> Result<T> {
        let guard = Self::read(self.shard(user));
        guard
            .get(&user)
            .map(f)
            .ok_or_else(|| Error::not_found("user twin", user))
    }

    /// Runs `f` with exclusive access to a twin.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn with_twin_mut<T>(
        &self,
        user: UserId,
        f: impl FnOnce(&mut UserDigitalTwin) -> T,
    ) -> Result<T> {
        let mut guard = Self::write(self.shard(user));
        guard
            .get_mut(&user)
            .map(f)
            .ok_or_else(|| Error::not_found("user twin", user))
    }

    /// Records a channel sample for `user`. Returns whether the twin
    /// accepted the sample (non-finite/implausible payloads are rejected;
    /// see [`UserDigitalTwin::update_channel`]).
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn update_channel(&self, user: UserId, at: SimTime, snr_db: f64) -> Result<bool> {
        self.with_twin_mut(user, |t| t.update_channel(at, snr_db))
    }

    /// Records a location sample for `user`. Returns whether the twin
    /// accepted the sample.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn update_location(&self, user: UserId, at: SimTime, position: Position) -> Result<bool> {
        self.with_twin_mut(user, |t| t.update_location(at, position))
    }

    /// Records a watch record for `user`.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn record_watch(&self, user: UserId, at: SimTime, record: WatchRecord) -> Result<()> {
        self.with_twin_mut(user, |t| t.record_watch(at, record))
    }

    /// Fraction of registered twins whose fast attributes (channel and
    /// location) were both updated within `horizon` of `now` — the
    /// fresh-data coverage the degradation ladder gates on. `0.0` for an
    /// empty store. Order-independent (a pure count), so deterministic
    /// regardless of shard iteration order.
    pub fn fresh_fraction(&self, now: SimTime, horizon: msvs_types::SimDuration) -> f64 {
        let (fresh, total) = self.fresh_count(now, horizon);
        if total == 0 {
            0.0
        } else {
            fresh as f64 / total as f64
        }
    }

    /// `(fresh, total)` twin counts behind [`Self::fresh_fraction`].
    /// Multi-shard views sum these integer counts so the pooled fraction
    /// is bit-identical to a single store holding the same twins.
    pub fn fresh_count(&self, now: SimTime, horizon: msvs_types::SimDuration) -> (usize, usize) {
        let mut fresh = 0usize;
        let mut total = 0usize;
        for shard in &self.shards {
            for twin in Self::read(shard).values() {
                total += 1;
                if twin.is_fresh(now, horizon) {
                    fresh += 1;
                }
            }
        }
        (fresh, total)
    }

    /// Clones every twin out (snapshot for offline analysis).
    pub fn snapshot(&self) -> Vec<UserDigitalTwin> {
        let mut twins: Vec<UserDigitalTwin> = self
            .shards
            .iter()
            .flat_map(|s| Self::read(s).values().cloned().collect::<Vec<_>>())
            .collect();
        twins.sort_by_key(|t| t.user());
        twins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_contains_remove() {
        let store = UdtStore::new();
        assert!(store.is_empty());
        store.insert(UserDigitalTwin::new(UserId(5)));
        assert!(store.contains(UserId(5)));
        assert_eq!(store.len(), 1);
        assert!(store.remove(UserId(5)).is_some());
        assert!(store.remove(UserId(5)).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn unknown_user_errors() {
        let store = UdtStore::new();
        assert!(store
            .update_channel(UserId(1), SimTime::ZERO, 10.0)
            .is_err());
        assert!(store.with_twin(UserId(1), |_| ()).is_err());
    }

    #[test]
    fn user_ids_sorted() {
        let store = UdtStore::new();
        for id in [30u32, 2, 17, 99, 4] {
            store.insert(UserDigitalTwin::new(UserId(id)));
        }
        let ids: Vec<u32> = store.user_ids().into_iter().map(u32::from).collect();
        assert_eq!(ids, vec![2, 4, 17, 30, 99]);
    }

    #[test]
    fn fresh_fraction_counts_recent_twins() {
        use msvs_types::SimDuration;
        let store = UdtStore::new();
        assert_eq!(
            store.fresh_fraction(SimTime::ZERO, SimDuration::from_secs(5)),
            0.0
        );
        for id in 0..4u32 {
            store.insert(UserDigitalTwin::new(UserId(id)));
        }
        // Two twins fully fresh, one channel-only, one empty.
        for id in [0u32, 1] {
            store
                .update_channel(UserId(id), SimTime::from_secs(10), 8.0)
                .unwrap();
            store
                .update_location(UserId(id), SimTime::from_secs(10), Position::new(1.0, 2.0))
                .unwrap();
        }
        store
            .update_channel(UserId(2), SimTime::from_secs(10), 8.0)
            .unwrap();
        let now = SimTime::from_secs(12);
        assert_eq!(store.fresh_fraction(now, SimDuration::from_secs(5)), 0.5);
        assert_eq!(
            store.fresh_fraction(SimTime::from_secs(60), SimDuration::from_secs(5)),
            0.0
        );
    }

    #[test]
    fn reinserting_a_user_slot_gets_a_fresh_instance() {
        let store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(7)));
        let first = store.with_twin(UserId(7), |t| t.revision()).unwrap();
        assert_ne!(first.instance, 0, "store stamps a nonce");
        // Churn: same id slot, brand-new twin. Revisions reset but the
        // instance nonce must differ so caches cannot alias the two.
        store.insert(UserDigitalTwin::new(UserId(7)));
        let second = store.with_twin(UserId(7), |t| t.revision()).unwrap();
        assert_ne!(first.instance, second.instance);
        assert_eq!(second.channel, 0);
    }

    #[test]
    fn import_preserves_the_instance_nonce() {
        let origin = UdtStore::with_instance_base(1);
        let dest = UdtStore::with_instance_base(1 << 40);
        origin.insert(UserDigitalTwin::new(UserId(3)));
        origin
            .update_channel(UserId(3), SimTime::from_secs(1), 7.0)
            .unwrap();
        let rev = origin.with_twin(UserId(3), |t| t.revision()).unwrap();
        let twin = origin.remove(UserId(3)).expect("twin present");
        dest.import(twin);
        let after = dest.with_twin(UserId(3), |t| t.revision()).unwrap();
        assert_eq!(rev, after, "migration must not disturb the revision");
        // A fresh insert on the destination stamps from its own base, so
        // the migrated nonce can never be reissued there.
        dest.insert(UserDigitalTwin::new(UserId(9)));
        let stamped = dest.with_twin(UserId(9), |t| t.revision()).unwrap();
        assert_eq!(stamped.instance, 1 << 40);
        assert_ne!(stamped.instance, after.instance);
    }

    #[test]
    fn clear_keeps_the_instance_counter_monotone() {
        let store = UdtStore::with_instance_base(100);
        store.insert(UserDigitalTwin::new(UserId(1)));
        store.insert(UserDigitalTwin::new(UserId(2)));
        assert_eq!(store.next_instance(), 102);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.next_instance(), 102, "clear must not rewind nonces");
        store.restore_next_instance(150);
        assert_eq!(store.next_instance(), 150);
        store.restore_next_instance(120);
        assert_eq!(store.next_instance(), 150, "restore never rewinds");
        store.insert(UserDigitalTwin::new(UserId(3)));
        let rev = store.with_twin(UserId(3), |t| t.revision()).unwrap();
        assert_eq!(rev.instance, 150);
    }

    #[test]
    fn twin_view_matches_inherent_methods() {
        let store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(2)));
        store.insert(UserDigitalTwin::new(UserId(1)));
        let view: &dyn TwinView = &store;
        assert_eq!(TwinView::len(view), 2);
        assert!(!view.is_empty());
        assert_eq!(view.snapshot().len(), 2);
        assert_eq!(
            view.fresh_fraction(SimTime::ZERO, msvs_types::SimDuration::from_secs(5)),
            store.fresh_fraction(SimTime::ZERO, msvs_types::SimDuration::from_secs(5))
        );
    }

    #[test]
    fn snapshot_is_deep_and_ordered() {
        let store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(2)));
        store.insert(UserDigitalTwin::new(UserId(1)));
        store.update_channel(UserId(1), SimTime::ZERO, 5.0).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].user(), UserId(1));
        // Mutating the store after snapshot leaves the snapshot unchanged.
        store
            .update_channel(UserId(1), SimTime::from_secs(1), 9.0)
            .unwrap();
        assert_eq!(snap[0].latest_snr_db(), Some(5.0));
    }

    /// Snapshots share each twin's series with the store (copy-on-write)
    /// yet keep value semantics: a held snapshot still reads the channel,
    /// location, watch and preference values it was taken with.
    #[test]
    fn held_snapshot_keeps_its_values_after_store_mutation() {
        use msvs_types::{RepresentationLevel, VideoCategory, VideoId};
        let user = UserId(7);
        let watch = |secs: u64| WatchRecord {
            video: VideoId(secs as u32),
            category: VideoCategory::Game,
            level: RepresentationLevel::P480,
            watched: SimDuration::from_secs(secs),
            video_duration: SimDuration::from_secs(30),
            completed: false,
        };
        let store = UdtStore::new();
        store.insert(UserDigitalTwin::new(user));
        store.update_channel(user, SimTime::ZERO, 5.0).unwrap();
        store
            .update_location(user, SimTime::ZERO, Position::new(1.0, 2.0))
            .unwrap();
        store.record_watch(user, SimTime::ZERO, watch(4)).unwrap();
        let snap = store.snapshot();
        let before = snap[0].clone();
        store
            .with_twin(user, |t| {
                assert!(t
                    .channel_series()
                    .shares_storage_with(snap[0].channel_series()));
                assert!(t.watch_series().shares_storage_with(snap[0].watch_series()));
            })
            .unwrap();

        let later = SimTime::from_secs(1);
        store.update_channel(user, later, 9.0).unwrap();
        store
            .update_location(user, later, Position::new(8.0, 9.0))
            .unwrap();
        store.record_watch(user, later, watch(20)).unwrap();
        store
            .with_twin_mut(user, |t| {
                t.set_preference(later, vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
            })
            .unwrap();

        assert_eq!(snap[0], before, "the held snapshot is unchanged");
        assert_eq!(snap[0].latest_snr_db(), Some(5.0));
        assert_eq!(snap[0].latest_position(), Some(Position::new(1.0, 2.0)));
        assert_eq!(snap[0].watch_series().len(), 1);
        assert_eq!(snap[0].preference(), &[1.0 / 8.0; 8]);
        store
            .with_twin(user, |t| {
                assert_eq!(t.latest_snr_db(), Some(9.0));
                assert_eq!(t.latest_position(), Some(Position::new(8.0, 9.0)));
                assert_eq!(t.watch_series().len(), 2);
                assert_eq!(t.preference()[7], 1.0);
                assert!(!t
                    .channel_series()
                    .shares_storage_with(snap[0].channel_series()));
            })
            .unwrap();
    }

    #[test]
    fn concurrent_updates_from_many_threads() {
        let store = Arc::new(UdtStore::new());
        const USERS: u32 = 64;
        for id in 0..USERS {
            store.insert(UserDigitalTwin::new(UserId(id)));
        }
        let mut handles = Vec::new();
        for thread in 0..8u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for step in 0..200u64 {
                    let user = UserId((thread * 8 + (step % 8) as u32) % USERS);
                    store
                        .update_channel(user, SimTime(step), step as f64)
                        .unwrap();
                    store
                        .update_location(user, SimTime(step), Position::new(1.0, 2.0))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every touched twin has data.
        let with_data = store
            .snapshot()
            .iter()
            .filter(|t| t.latest_snr_db().is_some())
            .count();
        assert!(with_data > 0);
        assert_eq!(store.len(), USERS as usize);
    }
}
