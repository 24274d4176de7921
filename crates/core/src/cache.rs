//! Per-user embedding cache for the 1D-CNN compressor — no longer on
//! the prediction path.
//!
//! The cache kept each user's last encoding keyed by the twin's
//! [`TwinRevision`], so an unchanged feature window would skip the CNN
//! forward pass. Measured, it never hit: the closed-loop benchmark's
//! traced runs scored 0 hits in 48,000 lookups on both the one-shard and
//! the sharded-outage workload, and a dozen other simulator
//! configurations (collection periods, churn, shards, fault profiles,
//! per-BS accounting) also scored 0. Every twin takes about 50 accepted
//! updates per interval and playback writes watches every interval;
//! either bumps the revision key. The predictor therefore encodes the
//! whole snapshot every pass.
//!
//! The module stays only because `e2ebench/` names [`EmbeddingCache`],
//! [`CachePlan`], [`CachedEmbedding`] and [`EmbeddingBackend`]; drop it at
//! the next benchmark change.

use std::collections::{HashMap, HashSet};

use msvs_types::UserId;
use msvs_udt::{TwinRevision, UserDigitalTwin};

/// One cached encoding: the twin revision it was computed from and the
/// resulting feature vector (embedding ++ weighted preference).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEmbedding {
    /// Twin revision the features were computed from.
    pub revision: TwinRevision,
    /// The cached feature vector (embedding ++ weighted preference).
    pub features: Vec<f64>,
}

/// Ignored; kept because `e2ebench/` names it (see
/// [`crate::DemandPredictor::set_embedding_backend`]); drop at the next
/// benchmark change. Nothing implements it.
pub trait EmbeddingBackend: std::fmt::Debug + Send {}

/// The lookup result for one population snapshot: which twins must be
/// re-encoded. Indices refer to the snapshot slice handed to
/// [`EmbeddingCache::plan`]; hits are every index not listed.
#[derive(Debug)]
pub struct CachePlan {
    /// Snapshot indices needing a fresh encode, in snapshot order.
    pub miss_indices: Vec<usize>,
    /// Number of twins served from the cache.
    pub hits: usize,
}

/// Per-user memo of the last CNN encoding, invalidated by twin revision
/// or compressor generation changes.
#[derive(Debug, Default)]
pub struct EmbeddingCache {
    /// Compressor generation (trained-epoch count) the entries belong to.
    generation: u64,
    entries: HashMap<UserId, CachedEmbedding>,
}

impl EmbeddingCache {
    /// Builds an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached users.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compressor generation the current entries belong to (`0` before
    /// the first [`plan`](Self::plan)).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Removes and returns `user`'s cached encoding.
    pub fn take(&mut self, user: UserId) -> Option<CachedEmbedding> {
        self.entries.remove(&user)
    }

    /// Aligns the cache with compressor `generation`, dropping every
    /// entry on a mismatch (a retrained compressor invalidates all
    /// cached encodings).
    fn sync_generation(&mut self, generation: u64) {
        if generation != self.generation {
            self.entries.clear();
            self.generation = generation;
        }
    }

    /// Installs an encoding computed at compressor `generation`.
    ///
    /// The entry is adopted only when the generations agree (an empty
    /// cache adopts the incoming generation); a stale-generation entry is
    /// discarded — the user simply re-encodes on the next pass, which is
    /// always correct. Returns whether the entry was installed.
    pub fn put(&mut self, generation: u64, user: UserId, entry: CachedEmbedding) -> bool {
        if self.entries.is_empty() {
            self.generation = generation;
        }
        if self.generation != generation {
            return false;
        }
        self.entries.insert(user, entry);
        true
    }

    /// Splits a population snapshot into hits and misses for compressor
    /// `generation`. A generation mismatch (the compressor was retrained)
    /// drops every entry first, so stale-generation features can never be
    /// served.
    pub fn plan(&mut self, generation: u64, twins: &[UserDigitalTwin]) -> CachePlan {
        self.sync_generation(generation);
        let miss_indices: Vec<usize> = twins
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                self.entries
                    .get(&t.user())
                    .is_none_or(|e| e.revision != t.revision())
            })
            .map(|(i, _)| i)
            .collect();
        let hits = twins.len() - miss_indices.len();
        CachePlan { miss_indices, hits }
    }

    /// A coarser split than [`plan`](Self::plan) that the simulator no
    /// longer uses. Kept because `e2ebench/` names it; drop at the next
    /// benchmark change. A user misses only when no entry is cached, the
    /// compressor generation changed, the cached entry's instance nonce
    /// differs from the twin's (a churned slot), or the user is in
    /// `dirty`; a routine revision bump keeps serving the cached row.
    pub fn plan_incremental(
        &mut self,
        generation: u64,
        twins: &[UserDigitalTwin],
        dirty: &HashSet<UserId>,
    ) -> CachePlan {
        self.sync_generation(generation);
        let miss_indices: Vec<usize> = twins
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                dirty.contains(&t.user())
                    || self
                        .entries
                        .get(&t.user())
                        .is_none_or(|e| e.revision.instance != t.revision().instance)
            })
            .map(|(i, _)| i)
            .collect();
        let hits = twins.len() - miss_indices.len();
        CachePlan { miss_indices, hits }
    }

    /// Stores the freshly-encoded features for `plan`'s misses, prunes
    /// users absent from the snapshot, and returns the full feature
    /// matrix in snapshot order (cached rows cloned, fresh rows moved).
    ///
    /// # Panics
    /// Panics if `fresh` does not match the plan's miss count — the
    /// caller must encode exactly the planned misses, in plan order.
    pub fn complete(
        &mut self,
        twins: &[UserDigitalTwin],
        plan: &CachePlan,
        fresh: Vec<Vec<f64>>,
    ) -> Vec<Vec<f64>> {
        assert_eq!(
            fresh.len(),
            plan.miss_indices.len(),
            "fresh encodings must match planned misses"
        );
        for (&i, features) in plan.miss_indices.iter().zip(fresh) {
            self.entries.insert(
                twins[i].user(),
                CachedEmbedding {
                    revision: twins[i].revision(),
                    features,
                },
            );
        }
        if self.entries.len() > twins.len() {
            let live: HashSet<UserId> = twins.iter().map(|t| t.user()).collect();
            self.entries.retain(|user, _| live.contains(user));
        }
        twins
            .iter()
            .map(|t| self.entries[&t.user()].features.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::SimTime;

    fn twin(id: u32) -> UserDigitalTwin {
        let mut t = UserDigitalTwin::new(UserId(id));
        t.update_channel(SimTime::from_secs(1), 10.0 + id as f64);
        t
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64; 3]).collect()
    }

    #[test]
    fn cold_cache_misses_everything_then_hits() {
        let mut cache = EmbeddingCache::new();
        let twins = vec![twin(0), twin(1), twin(2)];
        let plan = cache.plan(5, &twins);
        assert_eq!(plan.miss_indices, vec![0, 1, 2]);
        assert_eq!(plan.hits, 0);
        let features = cache.complete(&twins, &plan, rows(3));
        assert_eq!(features, rows(3));
        // Unchanged twins: all hits, same features back.
        let plan = cache.plan(5, &twins);
        assert!(plan.miss_indices.is_empty());
        assert_eq!(plan.hits, 3);
        assert_eq!(cache.complete(&twins, &plan, Vec::new()), rows(3));
    }

    #[test]
    fn mutated_twin_misses_alone() {
        let mut cache = EmbeddingCache::new();
        let mut twins = vec![twin(0), twin(1), twin(2)];
        let plan = cache.plan(1, &twins);
        cache.complete(&twins, &plan, rows(3));
        twins[1].update_channel(SimTime::from_secs(2), 3.0);
        let plan = cache.plan(1, &twins);
        assert_eq!(plan.miss_indices, vec![1]);
        assert_eq!(plan.hits, 2);
        let features = cache.complete(&twins, &plan, vec![vec![9.0; 3]]);
        assert_eq!(features[0], vec![0.0; 3]);
        assert_eq!(features[1], vec![9.0; 3]);
        assert_eq!(features[2], vec![2.0; 3]);
    }

    #[test]
    fn generation_change_clears_everything() {
        let mut cache = EmbeddingCache::new();
        let twins = vec![twin(0), twin(1)];
        let plan = cache.plan(1, &twins);
        cache.complete(&twins, &plan, rows(2));
        let plan = cache.plan(2, &twins);
        assert_eq!(plan.miss_indices, vec![0, 1], "retrain invalidates all");
    }

    #[test]
    fn departed_users_are_pruned() {
        let mut cache = EmbeddingCache::new();
        let twins = vec![twin(0), twin(1), twin(2)];
        let plan = cache.plan(1, &twins);
        cache.complete(&twins, &plan, rows(3));
        let keep = vec![twins[2].clone()];
        let plan = cache.plan(1, &keep);
        assert_eq!(plan.hits, 1);
        cache.complete(&keep, &plan, Vec::new());
        assert_eq!(cache.len(), 1, "absent users pruned");
    }

    #[test]
    fn take_and_put_migrate_entries_between_caches() {
        let mut origin = EmbeddingCache::new();
        let mut dest = EmbeddingCache::new();
        let twins = vec![twin(0), twin(1)];
        let plan = origin.plan(7, &twins);
        origin.complete(&twins, &plan, rows(2));
        let entry = origin.take(UserId(1)).expect("cached entry");
        assert_eq!(origin.len(), 1);
        assert!(origin.take(UserId(1)).is_none(), "take removes");
        // Empty destination adopts the origin generation.
        assert!(dest.put(7, UserId(1), entry));
        assert_eq!(dest.generation(), 7);
        // The migrated entry is a hit: planning the moved twin at the
        // same generation re-encodes nothing.
        let moved = vec![twins[1].clone()];
        let plan = dest.plan(7, &moved);
        assert_eq!(plan.hits, 1, "migrated entry must keep hitting");
        assert_eq!(
            dest.complete(&moved, &plan, Vec::new()),
            vec![rows(2)[1].clone()]
        );
    }

    #[test]
    fn put_discards_stale_generation_entries() {
        let mut dest = EmbeddingCache::new();
        let twins = vec![twin(0)];
        let plan = dest.plan(3, &twins);
        dest.complete(&twins, &plan, rows(1));
        let stale = CachedEmbedding {
            revision: twin(5).revision(),
            features: vec![1.0],
        };
        assert!(!dest.put(9, UserId(5), stale), "generation mismatch");
        assert_eq!(dest.len(), 1);
    }

    #[test]
    fn incremental_plan_serves_stale_revisions() {
        let mut cache = EmbeddingCache::new();
        let mut twins = vec![twin(0), twin(1)];
        let plan = cache.plan(1, &twins);
        cache.complete(&twins, &plan, rows(2));
        // Routine channel sample: the exact plan misses, the incremental
        // plan keeps serving the (slightly stale) cached encoding.
        twins[0].update_channel(SimTime::from_secs(2), 4.0);
        let none = HashSet::new();
        assert_eq!(cache.plan(1, &twins).miss_indices, vec![0]);
        let plan = cache.plan_incremental(1, &twins, &none);
        assert!(plan.miss_indices.is_empty());
        assert_eq!(plan.hits, 2);
    }

    #[test]
    fn incremental_plan_misses_on_instance_dirty_and_generation() {
        let mut cache = EmbeddingCache::new();
        let twins = vec![twin(0), twin(1)];
        let plan = cache.plan(1, &twins);
        cache.complete(&twins, &plan, rows(2));
        let none = HashSet::new();
        // Churned slot: the cached entry carries the predecessor's
        // instance nonce, so the successor twin must re-encode.
        let mut entry = cache.take(UserId(0)).unwrap();
        entry.revision.instance = 99;
        cache.put(1, UserId(0), entry);
        let plan = cache.plan_incremental(1, &twins, &none);
        assert_eq!(plan.miss_indices, vec![0]);
        // Explicit dirty set: re-encode even with a matching entry.
        let dirty: HashSet<UserId> = [UserId(1)].into();
        let plan = cache.plan_incremental(1, &twins, &dirty);
        assert_eq!(plan.miss_indices, vec![0, 1]);
        // Generation change still invalidates everything.
        let plan = cache.plan_incremental(2, &twins, &none);
        assert_eq!(plan.miss_indices, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "fresh encodings must match planned misses")]
    fn mismatched_fresh_rows_panic() {
        let mut cache = EmbeddingCache::new();
        let twins = vec![twin(0)];
        let plan = cache.plan(1, &twins);
        cache.complete(&twins, &plan, Vec::new());
    }
}
