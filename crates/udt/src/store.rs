//! The edge-resident twin registry.

use std::collections::BTreeMap;

use msvs_types::{Error, Result, SimDuration, SimTime, UserId};

use crate::twin::UserDigitalTwin;

/// Read-only view over a population of twins — what the prediction
/// pipeline actually consumes. Implemented by [`UdtStore`]; a
/// multi-shard deployment keeps every twin in one store and labels each
/// with its owning shard, so it hands the predictor that store.
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

/// The map of [`UserDigitalTwin`]s, ordered by user id.
///
/// Every write takes `&mut self`. The collection sweep writes twins in
/// parallel through disjoint `&mut` borrows from [`Self::twins_mut`], so
/// the store needs no lock. Keyed by id rather than indexed by it, a
/// checkpoint naming a huge user id costs one entry, not a table that
/// long.
#[derive(Debug)]
pub struct UdtStore {
    twins: BTreeMap<UserId, UserDigitalTwin>,
    /// Stamps each inserted twin with a fresh instance nonce so churned
    /// `UserId` slots never alias in revision-keyed caches.
    next_instance: u64,
}

impl Default for UdtStore {
    fn default() -> Self {
        Self::new()
    }
}

impl UdtStore {
    /// Builds an empty store; its first instance nonce is 1.
    pub fn new() -> Self {
        Self {
            twins: BTreeMap::new(),
            next_instance: 1,
        }
    }

    /// Number of registered twins.
    pub fn len(&self) -> usize {
        self.twins.len()
    }

    /// Whether the store holds no twins.
    pub fn is_empty(&self) -> bool {
        self.twins.is_empty()
    }

    /// Registers (or replaces) a twin, stamping it with a fresh instance
    /// nonce (see [`UserDigitalTwin::revision`]).
    pub fn insert(&mut self, mut twin: UserDigitalTwin) {
        twin.set_instance(self.next_instance);
        self.next_instance += 1;
        self.import(twin);
    }

    /// Re-registers a twin *without* stamping a new instance nonce,
    /// preserving its full [`TwinRevision`](crate::TwinRevision) — the
    /// checkpoint restore primitive. The revision (including the nonce
    /// it was stamped with) survives intact.
    pub fn import(&mut self, twin: UserDigitalTwin) {
        self.twins.insert(twin.user(), twin);
    }

    /// Removes a twin, returning it if present.
    pub fn remove(&mut self, user: UserId) -> Option<UserDigitalTwin> {
        self.twins.remove(&user)
    }

    /// The next instance nonce this store would stamp. Captured by shard
    /// checkpoints so a store restored from one never reissues a nonce
    /// the checkpointed store already handed out.
    pub fn next_instance(&self) -> u64 {
        self.next_instance
    }

    /// Restores the instance-nonce counter from a checkpoint. Only moves
    /// the counter forward — a stale checkpoint can never rewind it into
    /// reissuing live nonces.
    pub fn restore_next_instance(&mut self, next: u64) {
        self.next_instance = self.next_instance.max(next);
    }

    /// Whether a twin exists for `user`.
    pub fn contains(&self, user: UserId) -> bool {
        self.twins.contains_key(&user)
    }

    /// All registered user ids, ascending.
    pub fn user_ids(&self) -> Vec<UserId> {
        self.twins.keys().copied().collect()
    }

    /// Every twin, mutably, in ascending id order.
    pub fn twins_mut(&mut self) -> impl Iterator<Item = &mut UserDigitalTwin> {
        self.twins.values_mut()
    }

    /// Runs `f` with shared access to a twin.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn with_twin<T>(&self, user: UserId, f: impl FnOnce(&UserDigitalTwin) -> T) -> Result<T> {
        self.twins
            .get(&user)
            .map(f)
            .ok_or_else(|| Error::not_found("user twin", user))
    }

    /// Runs `f` with exclusive access to a twin.
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn with_twin_mut<T>(
        &mut self,
        user: UserId,
        f: impl FnOnce(&mut UserDigitalTwin) -> T,
    ) -> Result<T> {
        self.twins
            .get_mut(&user)
            .map(f)
            .ok_or_else(|| Error::not_found("user twin", user))
    }

    /// Fraction of registered twins whose fast attributes (channel and
    /// location) were both updated within `horizon` of `now` — the
    /// fresh-data coverage the degradation ladder gates on. `0.0` for an
    /// empty store.
    pub fn fresh_fraction(&self, now: SimTime, horizon: SimDuration) -> f64 {
        if self.twins.is_empty() {
            return 0.0;
        }
        let fresh = self
            .twins
            .values()
            .filter(|t| t.is_fresh(now, horizon))
            .count();
        fresh as f64 / self.twins.len() as f64
    }

    /// Clones every twin out, in ascending id order.
    pub fn snapshot(&self) -> Vec<UserDigitalTwin> {
        self.twins.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::WatchRecord;
    use msvs_types::Position;

    #[test]
    fn insert_contains_remove() {
        let mut store = UdtStore::new();
        assert!(store.is_empty());
        store.insert(UserDigitalTwin::new(UserId(5)));
        assert!(store.contains(UserId(5)));
        assert_eq!(store.len(), 1);
        assert!(store.remove(UserId(5)).is_some());
        assert!(store.remove(UserId(5)).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn default_store_stamps_like_new() {
        let mut store = UdtStore::default();
        assert!(store.is_empty());
        assert_eq!(store.next_instance(), 1);
        store.insert(UserDigitalTwin::new(UserId(3)));
        assert_eq!(store.len(), 1);
        let rev = store.with_twin(UserId(3), |t| t.revision()).unwrap();
        assert_eq!(rev.instance, 1);
        assert_eq!(store.next_instance(), 2);
    }

    #[test]
    fn unknown_user_errors() {
        let mut store = UdtStore::new();
        assert!(store
            .with_twin_mut(UserId(1), |t| t.update_channel(SimTime::ZERO, 10.0))
            .is_err());
        assert!(store.with_twin(UserId(1), |_| ()).is_err());
    }

    #[test]
    fn user_ids_sorted() {
        let mut store = UdtStore::new();
        for id in [30u32, 2, 17, 99, 4] {
            store.insert(UserDigitalTwin::new(UserId(id)));
        }
        let ids: Vec<u32> = store.user_ids().into_iter().map(u32::from).collect();
        assert_eq!(ids, vec![2, 4, 17, 30, 99]);
    }

    #[test]
    fn snapshot_and_twins_mut_ascend_by_id() {
        let mut store = UdtStore::new();
        for id in [30u32, 2, 17, u32::MAX, 4] {
            store.insert(UserDigitalTwin::new(UserId(id)));
        }
        let ascending = vec![2u32, 4, 17, 30, u32::MAX];
        let snap: Vec<u32> = store.snapshot().iter().map(|t| t.user().into()).collect();
        assert_eq!(snap, ascending);
        let muts: Vec<u32> = store.twins_mut().map(|t| t.user().into()).collect();
        assert_eq!(muts, ascending);
    }

    #[test]
    fn fresh_fraction_counts_recent_twins() {
        let mut store = UdtStore::new();
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
                .with_twin_mut(UserId(id), |t| {
                    t.update_channel(SimTime::from_secs(10), 8.0);
                    t.update_location(SimTime::from_secs(10), Position::new(1.0, 2.0));
                })
                .unwrap();
        }
        store
            .with_twin_mut(UserId(2), |t| t.update_channel(SimTime::from_secs(10), 8.0))
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
        let mut store = UdtStore::new();
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
        let mut origin = UdtStore::new();
        let mut dest = UdtStore::new();
        for id in [1u32, 2, 3] {
            origin.insert(UserDigitalTwin::new(UserId(id)));
        }
        origin
            .with_twin_mut(UserId(3), |t| t.update_channel(SimTime::from_secs(1), 7.0))
            .unwrap();
        let rev = origin.with_twin(UserId(3), |t| t.revision()).unwrap();
        assert_eq!(rev.instance, 3);
        let twin = origin.remove(UserId(3)).expect("twin present");
        dest.import(twin);
        let after = dest.with_twin(UserId(3), |t| t.revision()).unwrap();
        assert_eq!(rev, after, "import must not disturb the revision");
        assert_eq!(dest.next_instance(), 1, "import stamps nothing");
    }

    #[test]
    fn restore_next_instance_only_moves_the_counter_forward() {
        let mut store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(1)));
        store.insert(UserDigitalTwin::new(UserId(2)));
        assert_eq!(store.next_instance(), 3);
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
        let mut store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(2)));
        store.insert(UserDigitalTwin::new(UserId(1)));
        let view: &dyn TwinView = &store;
        assert_eq!(TwinView::len(view), 2);
        assert!(!view.is_empty());
        assert_eq!(view.snapshot().len(), 2);
        assert_eq!(
            view.fresh_fraction(SimTime::ZERO, SimDuration::from_secs(5)),
            store.fresh_fraction(SimTime::ZERO, SimDuration::from_secs(5))
        );
    }

    #[test]
    fn snapshot_is_deep_and_ordered() {
        let mut store = UdtStore::new();
        store.insert(UserDigitalTwin::new(UserId(2)));
        store.insert(UserDigitalTwin::new(UserId(1)));
        store
            .with_twin_mut(UserId(1), |t| t.update_channel(SimTime::ZERO, 5.0))
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].user(), UserId(1));
        // Mutating the store after snapshot leaves the snapshot unchanged.
        store
            .with_twin_mut(UserId(1), |t| t.update_channel(SimTime::from_secs(1), 9.0))
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
        let mut store = UdtStore::new();
        store.insert(UserDigitalTwin::new(user));
        store
            .with_twin_mut(user, |t| {
                t.update_channel(SimTime::ZERO, 5.0);
                t.update_location(SimTime::ZERO, Position::new(1.0, 2.0));
                t.record_watch(SimTime::ZERO, watch(4));
            })
            .unwrap();
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
        store
            .with_twin_mut(user, |t| {
                t.update_channel(later, 9.0);
                t.update_location(later, Position::new(8.0, 9.0));
                t.record_watch(later, watch(20));
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
}
