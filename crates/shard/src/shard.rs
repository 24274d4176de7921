//! One base-station shard: its twin registry.

use msvs_types::UserId;
use msvs_udt::{UdtStore, UserDigitalTwin};

/// Shard instance nonces live in disjoint namespaces: the shard id sits
/// above this bit, so shard 0 reproduces the single-store nonce sequence
/// (base 1) exactly and no two shards can ever stamp the same nonce.
const INSTANCE_SHIFT: u32 = 40;

/// One cell's slice of the sharded deployment: the authoritative twin
/// registry for its users (an [`UdtStore`] with a shard-disjoint
/// instance-nonce namespace).
#[derive(Debug)]
pub struct Shard {
    id: usize,
    store: UdtStore,
}

impl Shard {
    /// Builds shard `id`.
    pub fn new(id: usize) -> Self {
        Self {
            id,
            store: UdtStore::with_instance_base(((id as u64) << INSTANCE_SHIFT) | 1),
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

    /// Number of twins this shard owns.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the shard owns no twins.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Takes `user`'s twin out for migration, revision intact; `None`
    /// when the shard does not own `user`.
    pub fn export(&mut self, user: UserId) -> Option<UserDigitalTwin> {
        self.store.remove(user)
    }

    /// Installs a migrated twin. The registry import preserves the
    /// origin's instance nonce, so this is transactional with the
    /// origin's [`export`](Self::export).
    pub fn import(&mut self, twin: UserDigitalTwin) {
        self.store.import(twin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::SimTime;

    #[test]
    fn instance_namespaces_are_disjoint_and_shard_zero_is_legacy() {
        let s0 = Shard::new(0);
        let s1 = Shard::new(1);
        s0.store().insert(UserDigitalTwin::new(UserId(1)));
        s1.store().insert(UserDigitalTwin::new(UserId(2)));
        let r0 = s0.store().with_twin(UserId(1), |t| t.revision()).unwrap();
        let r1 = s1.store().with_twin(UserId(2), |t| t.revision()).unwrap();
        assert_eq!(r0.instance, 1, "shard 0 stamps the legacy sequence");
        assert_eq!(r1.instance, (1u64 << 40) | 1);
    }

    #[test]
    fn export_import_round_trips_the_twin() {
        let mut from = Shard::new(0);
        let mut to = Shard::new(1);
        from.store().insert(UserDigitalTwin::new(UserId(7)));
        from.store()
            .update_channel(UserId(7), SimTime::from_secs(1), 9.0)
            .unwrap();
        let rev = from.store().with_twin(UserId(7), |t| t.revision()).unwrap();

        let twin = from.export(UserId(7)).expect("owned");
        assert!(from.is_empty());

        to.import(twin);
        assert_eq!(
            to.store().with_twin(UserId(7), |t| t.revision()).unwrap(),
            rev,
            "revision (instance nonce included) must survive the move"
        );
    }

    #[test]
    fn exporting_a_stranger_returns_none() {
        let mut shard = Shard::new(0);
        assert!(shard.export(UserId(9)).is_none());
    }
}
