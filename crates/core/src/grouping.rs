//! Multicast group construction: DDQN-selected `K`, K-means++ clustering.
//!
//! The paper's two-step method: "a double deep Q-network (DDQN) is first
//! adopted to determine the grouping number by mining users' similarities.
//! Then, the K-means++ algorithm is utilized to perform fast user
//! clustering based on the determined grouping number."
//!
//! The DDQN sees a fixed-size summary of the embedded user population (a
//! pairwise-distance histogram plus population size and the previous
//! decision) and picks `K`. The reward trades clustering quality
//! (silhouette) against the signalling/channel overhead of more groups.

use msvs_cluster::{silhouette_sampled_with, KMeans, KMeansConfig};
use msvs_par::Pool;
use msvs_rl::{DdqnAgent, DdqnConfig, EpsilonSchedule, Transition};
use msvs_types::{Error, Result};

/// Number of histogram bins in the DDQN state.
const HIST_BINS: usize = 16;

/// Population-size normaliser for the state (users / this, clamped to 1).
const POP_NORM: f64 = 400.0;

/// Maps a flat index `t` into the `i < j` pair sequence (row-major: (0,1),
/// (0,2), …, (0,n-1), (1,2), …) back to `(i, j)`, in O(1): row `i` starts
/// at flat index `i·n − i·(i+1)/2`, so `i` comes from the quadratic root
/// (float guess, then exact integer adjustment) and `j` from the offset
/// within the row.
///
/// # Panics
/// Debug-asserts `t` addresses a valid pair (`t < n·(n−1)/2`).
fn pair_from_flat(t: usize, n: usize) -> (usize, usize) {
    debug_assert!(t < n * (n - 1) / 2, "flat index {t} out of range for n={n}");
    let row_start = |i: usize| i * n - i * (i + 1) / 2;
    let nf = n as f64 - 0.5;
    let guess = (nf - (nf * nf - 2.0 * t as f64).max(0.0).sqrt()).floor();
    let mut i = (guess.max(0.0) as usize).min(n - 2);
    while i + 2 < n && row_start(i + 1) <= t {
        i += 1;
    }
    while i > 0 && row_start(i) > t {
        i -= 1;
    }
    (i, i + 1 + (t - row_start(i)))
}

/// How the group count is chosen (the DDQN scheme or a baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStrategy {
    /// The paper's scheme: DDQN picks `K`, learning online.
    Ddqn,
    /// Always use a fixed `K`.
    FixedK(usize),
    /// Exhaustive silhouette scan over the whole `K` range (slow oracle).
    SilhouetteScan,
    /// Elbow rule on inertia.
    Elbow,
    /// Uniform-random `K` in range (sanity floor).
    RandomK,
}

/// Configuration for the [`GroupingEngine`].
#[derive(Debug, Clone)]
pub struct GroupingConfig {
    /// Smallest admissible group count.
    pub k_min: usize,
    /// Largest admissible group count.
    pub k_max: usize,
    /// Reward penalty per extra group beyond `k_min`, spread over the
    /// range (models per-group multicast channel/signalling overhead).
    pub group_cost: f64,
    /// Strategy for picking `K`.
    pub strategy: GroupingStrategy,
    /// DDQN hidden widths.
    pub hidden: Vec<usize>,
    /// DDQN learning rate.
    pub learning_rate: f32,
    /// DDQN exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// RNG seed (agent weights, K-means seeding, random baseline).
    pub seed: u64,
    /// Worker threads for the silhouette kernel (`1` = serial, `0` = all
    /// available cores); the result is identical at any thread count.
    /// K-means always runs on the caller's thread.
    pub threads: usize,
    /// Silhouette evaluation budget: populations larger than this score a
    /// fixed-seed subsample (a pure function of the population size)
    /// instead of the full O(n²) scan. `0` disables sampling; 1 and 2 are
    /// rejected, since a sample that small scores every silhouette 0. Populations at or
    /// below the cap — every committed experiment and test — are
    /// bit-identical either way; the cap only makes 100k-user benches
    /// tractable.
    pub silhouette_sample_cap: usize,
    /// Ignored; kept because `e2ebench/` names it; drop at the next
    /// benchmark change. Every construction re-selects `K` and seeds
    /// K-means cold.
    pub incremental: bool,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        Self {
            k_min: 2,
            k_max: 12,
            group_cost: 0.15,
            strategy: GroupingStrategy::Ddqn,
            hidden: vec![64, 32],
            learning_rate: 1e-3,
            epsilon: EpsilonSchedule::linear(0.6, 0.05, 400).expect("static schedule is valid"),
            seed: 0,
            threads: 1,
            silhouette_sample_cap: 4096,
            incremental: false,
        }
    }
}

impl GroupingConfig {
    fn validate(&self) -> Result<()> {
        if self.k_min < 1 || self.k_max < self.k_min {
            return Err(Error::invalid_config(
                "k range",
                format!(
                    "need 1 <= k_min <= k_max, got {}..={}",
                    self.k_min, self.k_max
                ),
            ));
        }
        if self.k_max == self.k_min {
            return Err(Error::invalid_config(
                "k range",
                "need at least two candidate group counts",
            ));
        }
        if self.group_cost < 0.0 {
            return Err(Error::invalid_config("group_cost", "must be non-negative"));
        }
        // One or two sampled users are all singletons or one cluster, so
        // every silhouette (and the reward's silhouette term) would be 0.
        if matches!(self.silhouette_sample_cap, 1 | 2) {
            return Err(Error::invalid_config(
                "silhouette_sample_cap",
                "must be 0 (exact) or at least 3",
            ));
        }
        Ok(())
    }
}

/// Result of one group construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// Chosen group count.
    pub k: usize,
    /// Group index per user (aligned with the input feature order).
    pub assignments: Vec<usize>,
    /// Silhouette score of the clustering.
    pub silhouette: f64,
    /// Reward fed to the DDQN (quality minus group cost).
    pub reward: f64,
}

impl Grouping {
    /// Members of each group, as indices into the clustered feature set.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut m = vec![Vec::new(); self.k];
        for (i, &a) in self.assignments.iter().enumerate() {
            m[a].push(i);
        }
        m
    }
}

/// Groupings already fitted during one [`GroupingEngine::pretrain`] call,
/// keyed by `(feature-set index, K)`. Pretraining fits are cold-seeded,
/// so each key is a pure function of its inputs: fitting it once and
/// replaying the result gives the DDQN the same rewards at a fraction of
/// the cost.
#[derive(Default)]
struct PretrainMemo {
    /// Index of the feature set the current episode clusters.
    set: usize,
    fits: std::collections::HashMap<(usize, usize), Grouping>,
}

/// The learning group constructor.
pub struct GroupingEngine {
    config: GroupingConfig,
    agent: DdqnAgent,
    prev_k: Option<usize>,
    prev_reward: f64,
    calls: u64,
    telemetry: Option<msvs_telemetry::Telemetry>,
    /// `Some` while [`GroupingEngine::pretrain`] runs, memoising its fits.
    pretrain: Option<PretrainMemo>,
}

impl std::fmt::Debug for GroupingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupingEngine")
            .field("strategy", &self.config.strategy)
            .field("k_range", &(self.config.k_min, self.config.k_max))
            .field("calls", &self.calls)
            .finish()
    }
}

impl GroupingEngine {
    /// Builds an engine.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] for an invalid `K` range or DDQN
    /// hyperparameters.
    pub fn new(config: GroupingConfig) -> Result<Self> {
        config.validate()?;
        let action_count = config.k_max - config.k_min + 1;
        let agent = DdqnAgent::new(DdqnConfig {
            state_dim: HIST_BINS + 3,
            action_count,
            hidden: config.hidden.clone(),
            learning_rate: config.learning_rate,
            gamma: 0.0, // one-step decisions: pure contextual bandit
            batch_size: 32,
            replay_capacity: 4096,
            min_replay: 64,
            target_sync_every: 50,
            epsilon: config.epsilon,
            seed: config.seed,
        })?;
        Ok(Self {
            config,
            agent,
            prev_k: None,
            prev_reward: 0.0,
            calls: 0,
            telemetry: None,
            pretrain: None,
        })
    }

    /// Wires the engine (and its DDQN agent) into an observability
    /// pipeline: `K` selection and clustering are timed, and each
    /// construction emits a [`msvs_telemetry::Event::GroupsFormed`] event.
    pub fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        self.agent.attach_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
    }

    /// The configuration in use.
    pub fn config(&self) -> &GroupingConfig {
        &self.config
    }

    /// Number of constructions performed.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Does nothing. Kept because `e2ebench/` names it; drop at the next
    /// benchmark change.
    pub fn set_dirty_fraction(&mut self, _fraction: f64) {}

    /// Always `false`. Kept because `e2ebench/` names it; drop at the
    /// next benchmark change.
    pub fn take_refresh_hint(&mut self) -> bool {
        false
    }

    /// DDQN state: normalised pairwise-distance histogram + population
    /// size + previous `K` + previous reward. Pair sampling is
    /// O(samples), not O(n²): see `pair_from_flat`.
    pub fn state_of(&self, features: &[Vec<f64>]) -> Vec<f32> {
        let mut state = vec![0f32; HIST_BINS + 3];
        let n = features.len();
        if n >= 2 {
            // Sample up to ~2000 pairs to bound cost on large populations.
            // Jump straight to the sampled flat pair indices — walking the
            // full i<j loop to skip-count them is itself O(n²) and was the
            // wall-time ceiling at 100k users. The indices (and therefore
            // the state bits) are identical to the skip-counting loop's.
            let mut dists = Vec::new();
            let total_pairs = n * (n - 1) / 2;
            let stride = (total_pairs / 2000).max(1);
            let mut t = 0usize;
            while t < total_pairs {
                let (i, j) = pair_from_flat(t, n);
                let d: f64 = features[i]
                    .iter()
                    .zip(&features[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                dists.push(d);
                t += stride;
            }
            let max = dists.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
            for &d in &dists {
                let bin = ((d / max) * (HIST_BINS as f64 - 1e-9)) as usize;
                state[bin.min(HIST_BINS - 1)] += 1.0;
            }
            let total: f32 = state[..HIST_BINS].iter().sum();
            if total > 0.0 {
                for s in &mut state[..HIST_BINS] {
                    *s /= total;
                }
            }
        }
        state[HIST_BINS] = ((n as f64) / POP_NORM).min(1.0) as f32;
        state[HIST_BINS + 1] = self
            .prev_k
            .map(|k| {
                (k - self.config.k_min) as f32 / (self.config.k_max - self.config.k_min) as f32
            })
            .unwrap_or(0.5);
        state[HIST_BINS + 2] = self.prev_reward as f32;
        state
    }

    fn reward_of(&self, sil: f64, k: usize) -> f64 {
        let span = (self.config.k_max - self.config.k_min) as f64;
        sil - self.config.group_cost * (k - self.config.k_min) as f64 / span
    }

    /// Constructs multicast groups for the given clustering features.
    ///
    /// With [`GroupingStrategy::Ddqn`] the agent picks `K`, the clustering
    /// runs, and the observed reward is fed back as a one-step transition
    /// (learning continues across reservation intervals).
    ///
    /// # Errors
    /// Returns [`Error::InsufficientData`] when there are fewer users than
    /// `k_min`, and propagates K-means errors.
    pub fn construct(&mut self, features: &[Vec<f64>]) -> Result<Grouping> {
        if features.len() < self.config.k_min {
            return Err(Error::insufficient(format!(
                "need at least k_min={} users, got {}",
                self.config.k_min,
                features.len()
            )));
        }
        self.calls += 1;
        let k_cap = features.len().min(self.config.k_max);
        let grouping = match self.config.strategy {
            GroupingStrategy::Ddqn => {
                let state = self.state_of(features);
                let select_scope = self
                    .telemetry
                    .as_ref()
                    .map(|t| t.stage_scope(msvs_telemetry::stages::DDQN_SELECT_K));
                let action = self.agent.act(&state);
                drop(select_scope);
                let k = (self.config.k_min + action).min(k_cap);
                let g = self.cluster(features, k)?;
                self.agent.observe(Transition {
                    state,
                    action,
                    reward: g.reward as f32,
                    next_state: vec![0.0; HIST_BINS + 3],
                    done: true,
                });
                g
            }
            GroupingStrategy::FixedK(k) => {
                let k = k.clamp(self.config.k_min, k_cap);
                self.cluster(features, k)?
            }
            GroupingStrategy::SilhouetteScan => {
                let (k, _) = msvs_cluster::silhouette_scan_k(
                    features,
                    self.config.k_min.max(2),
                    k_cap,
                    self.config.seed,
                )?;
                self.cluster(features, k)?
            }
            GroupingStrategy::Elbow => {
                let k = msvs_cluster::elbow_k(
                    features,
                    self.config.k_min,
                    k_cap,
                    0.15,
                    self.config.seed,
                )?;
                self.cluster(features, k)?
            }
            GroupingStrategy::RandomK => {
                use rand::Rng as _;
                use rand::SeedableRng as _;
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(self.config.seed.wrapping_add(self.calls));
                let k = rng.gen_range(self.config.k_min..=k_cap);
                self.cluster(features, k)?
            }
        };
        self.prev_k = Some(grouping.k);
        self.prev_reward = grouping.reward;
        if let Some(t) = &self.telemetry {
            t.emit(msvs_telemetry::Event::GroupsFormed {
                k: grouping.k as u64,
                silhouette: grouping.silhouette,
                reward: grouping.reward,
            });
        }
        Ok(grouping)
    }

    /// Greedy (no-exploration) choice of `K` for the given features; does
    /// not learn. Useful for inspecting a trained agent.
    pub fn greedy_k(&mut self, features: &[Vec<f64>]) -> usize {
        let state = self.state_of(features);
        let k_cap = features.len().min(self.config.k_max);
        (self.config.k_min + self.agent.act_greedy(&state)).min(k_cap.max(self.config.k_min))
    }

    /// Pretrains the DDQN by repeatedly constructing groups over the given
    /// feature sets (cycling through them) for `episodes` iterations.
    ///
    /// Every episode runs the agent's `act`/`observe` and emits
    /// `GroupsFormed`, but each `(feature set, K)` pair is clustered only
    /// once per call: every fit is cold-seeded, so a repeat is a pure
    /// replay of the first. At most `k_max − k_min + 1` fits run per
    /// feature set, whatever `episodes` is.
    ///
    /// # Errors
    /// Propagates construction errors.
    pub fn pretrain(&mut self, feature_sets: &[Vec<Vec<f64>>], episodes: usize) -> Result<()> {
        if feature_sets.is_empty() {
            return Err(Error::insufficient("at least one feature set"));
        }
        self.pretrain = Some(PretrainMemo::default());
        let mut outcome = Ok(());
        for e in 0..episodes {
            let set = e % feature_sets.len();
            self.pretrain.as_mut().expect("set above").set = set;
            if let Err(err) = self.construct(&feature_sets[set]) {
                outcome = Err(err);
                break;
            }
        }
        self.pretrain = None;
        outcome
    }

    fn cluster(&mut self, features: &[Vec<f64>], k: usize) -> Result<Grouping> {
        let replay = self
            .pretrain
            .as_ref()
            .and_then(|memo| memo.fits.get(&(memo.set, k)).cloned());
        if let Some(g) = replay {
            return Ok(g);
        }
        let g = self.fit(features, k)?;
        if let Some(memo) = &mut self.pretrain {
            memo.fits.insert((memo.set, k), g.clone());
        }
        Ok(g)
    }

    /// One cold-seeded K-means fit plus its silhouette.
    fn fit(&self, features: &[Vec<f64>], k: usize) -> Result<Grouping> {
        let scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(msvs_telemetry::stages::KMEANS_FIT));
        let fit_start = self.telemetry.as_ref().map(|t| t.span_collector().now_us());
        let fit = KMeans::new(KMeansConfig {
            k,
            seed: self.config.seed ^ 0x5EED,
            ..Default::default()
        })
        .fit(features)?;
        // Materialise one assign/update child span per Lloyd round from
        // the timings the cluster crate returns (it has no telemetry
        // dependency). The round count is seed-deterministic, so the
        // span structure stays thread-count invariant.
        if let (Some(t), Some(scope), Some(start)) = (&self.telemetry, &scope, fit_start) {
            let collector = t.span_collector();
            let parent = Some(scope.span_id());
            let mut cursor = start;
            for (round, timing) in fit.rounds.iter().enumerate() {
                let attrs = msvs_telemetry::SpanAttrs {
                    batch: Some(round as u64),
                    ..Default::default()
                };
                collector.record_manual(
                    parent,
                    msvs_telemetry::stages::KMEANS_ASSIGN,
                    cursor,
                    timing.assign_us,
                    attrs,
                );
                cursor += timing.assign_us;
                collector.record_manual(
                    parent,
                    msvs_telemetry::stages::KMEANS_UPDATE,
                    cursor,
                    timing.update_us,
                    attrs,
                );
                cursor += timing.update_us;
            }
        }
        if let Some(t) = &self.telemetry {
            t.counter("kmeans_distance_evals_skipped", "all")
                .add(fit.distance_evals_skipped);
        }
        // Silhouette is O(n²·d) — often heavier than the fit itself — so
        // it gets its own stage instead of inflating `kmeans_fit`.
        drop(scope);
        let sil_scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(msvs_telemetry::stages::SILHOUETTE));
        let sil = silhouette_sampled_with(
            features,
            &fit.assignments,
            self.config.silhouette_sample_cap,
            &Pool::new(self.config.threads),
        );
        drop(sil_scope);
        Ok(Grouping {
            k,
            assignments: fit.assignments,
            silhouette: sil,
            reward: self.reward_of(sil, k),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pair_from_flat_matches_the_row_major_enumeration() {
        for n in 2..=60usize {
            let mut t = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(pair_from_flat(t, n), (i, j), "t={t} n={n}");
                    t += 1;
                }
            }
        }
    }

    /// The O(samples) jump sampling must reproduce the retired
    /// skip-counting loop bit for bit — same pairs, same order.
    #[test]
    fn state_sampling_matches_the_skip_counting_reference() {
        let features = blobs(3, 70, 9); // n = 210 > 2000 pairs → stride > 1
        let n = features.len();
        let stride = ((n * (n - 1) / 2) / 2000).max(1);
        assert!(stride > 1, "population large enough to engage sampling");
        let mut reference = Vec::new();
        let mut pair = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if pair.is_multiple_of(stride) {
                    reference.push((i, j));
                }
                pair += 1;
            }
        }
        let total_pairs = n * (n - 1) / 2;
        let sampled: Vec<(usize, usize)> = (0..total_pairs)
            .step_by(stride)
            .map(|t| pair_from_flat(t, n))
            .collect();
        assert_eq!(sampled, reference);
    }

    /// `k` well-separated blobs in 4-D.
    fn blobs(k: usize, per: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for c in 0..k {
            let center: Vec<f64> = (0..4)
                .map(|d| ((c * 7 + d * 3) % 10) as f64 * 2.0)
                .collect();
            for _ in 0..per {
                out.push(
                    center
                        .iter()
                        .map(|&x| x + msvs_types::stats::normal(&mut rng, 0.0, 0.15))
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn rejects_bad_config() {
        assert!(GroupingEngine::new(GroupingConfig {
            k_min: 0,
            ..Default::default()
        })
        .is_err());
        assert!(GroupingEngine::new(GroupingConfig {
            k_min: 5,
            k_max: 5,
            ..Default::default()
        })
        .is_err());
        assert!(GroupingEngine::new(GroupingConfig {
            group_cost: -1.0,
            ..Default::default()
        })
        .is_err());
        for cap in [1, 2] {
            let err = GroupingEngine::new(GroupingConfig {
                silhouette_sample_cap: cap,
                ..Default::default()
            })
            .unwrap_err();
            assert!(err.to_string().contains("silhouette_sample_cap"), "{err}");
        }
        for cap in [0, 3] {
            let config = GroupingConfig {
                silhouette_sample_cap: cap,
                ..Default::default()
            };
            assert!(GroupingEngine::new(config).is_ok(), "cap {cap}");
        }
    }

    #[test]
    fn fixed_k_clusters_exactly() {
        let mut engine = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::FixedK(3),
            ..Default::default()
        })
        .unwrap();
        let g = engine.construct(&blobs(3, 20, 1)).unwrap();
        assert_eq!(g.k, 3);
        assert!(g.silhouette > 0.8, "separated blobs: sil {}", g.silhouette);
        let sizes: Vec<usize> = g.members().iter().map(|m| m.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
    }

    #[test]
    fn state_is_fixed_size_and_normalised() {
        let engine = GroupingEngine::new(GroupingConfig::default()).unwrap();
        for n in [2, 10, 100] {
            let s = engine.state_of(&blobs(2, n, 2));
            assert_eq!(s.len(), HIST_BINS + 3);
            let hist_sum: f32 = s[..HIST_BINS].iter().sum();
            assert!((hist_sum - 1.0).abs() < 1e-5, "histogram sums to 1");
        }
        // Degenerate single-user population.
        let s = engine.state_of(&[vec![0.0; 4]]);
        assert_eq!(s.len(), HIST_BINS + 3);
    }

    #[test]
    fn ddqn_converges_to_good_k_on_stationary_population() {
        let features = blobs(4, 15, 3);
        let mut engine = GroupingEngine::new(GroupingConfig {
            k_min: 2,
            k_max: 8,
            group_cost: 0.1,
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 250).unwrap(),
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        engine
            .pretrain(std::slice::from_ref(&features), 400)
            .unwrap();
        let k = engine.greedy_k(&features);
        // True structure is 4 blobs; accept 3–5 (reward is cost-penalised).
        assert!(
            (3..=5).contains(&k),
            "agent should land near k=4, chose {k}"
        );
    }

    #[test]
    fn ddqn_reward_beats_random_after_training() {
        let features = blobs(3, 20, 4);
        let mut ddqn = GroupingEngine::new(GroupingConfig {
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 250).unwrap(),
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        ddqn.pretrain(std::slice::from_ref(&features), 350).unwrap();
        let mut random = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::RandomK,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let ddqn_reward: f64 = (0..20)
            .map(|_| ddqn.construct(&features).unwrap().reward)
            .sum::<f64>()
            / 20.0;
        let random_reward: f64 = (0..20)
            .map(|_| random.construct(&features).unwrap().reward)
            .sum::<f64>()
            / 20.0;
        assert!(
            ddqn_reward > random_reward,
            "trained DDQN {ddqn_reward:.3} should beat random {random_reward:.3}"
        );
    }

    #[test]
    fn oracle_strategies_find_true_k() {
        let features = blobs(4, 20, 5);
        for strategy in [GroupingStrategy::SilhouetteScan, GroupingStrategy::Elbow] {
            let mut engine = GroupingEngine::new(GroupingConfig {
                strategy,
                ..Default::default()
            })
            .unwrap();
            let g = engine.construct(&features).unwrap();
            assert!(
                (3..=5).contains(&g.k),
                "{strategy:?} chose k={} for 4 blobs",
                g.k
            );
        }
    }

    #[test]
    fn too_few_users_is_an_error() {
        let mut engine = GroupingEngine::new(GroupingConfig::default()).unwrap();
        assert!(engine.construct(&blobs(1, 1, 6)).is_err());
    }

    fn pretrain_engine() -> (GroupingEngine, msvs_telemetry::Telemetry) {
        let mut engine = GroupingEngine::new(GroupingConfig {
            k_min: 2,
            k_max: 6,
            epsilon: EpsilonSchedule::linear(1.0, 0.02, 80).unwrap(),
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let t = msvs_telemetry::Telemetry::new();
        engine.attach_telemetry(t.clone());
        (engine, t)
    }

    fn kmeans_fits(t: &msvs_telemetry::Telemetry) -> u64 {
        t.registry()
            .histogram(msvs_telemetry::STAGE_MS, msvs_telemetry::stages::KMEANS_FIT)
            .count()
    }

    /// Memoised pretraining is a pure replay: the agent ends up exactly
    /// where the same number of plain constructions would leave it, over
    /// one feature set or several.
    #[test]
    fn memoised_pretrain_matches_repeated_construction() {
        let one = vec![blobs(4, 12, 19)];
        let two = vec![blobs(4, 12, 19), blobs(3, 14, 41)];
        for sets in [one, two] {
            let episodes = 120;
            let (mut memo, memo_t) = pretrain_engine();
            memo.pretrain(&sets, episodes).unwrap();
            let (mut plain, plain_t) = pretrain_engine();
            for e in 0..episodes {
                plain.construct(&sets[e % sets.len()]).unwrap();
            }
            // Same K, rewards and training steps, event for event.
            assert_eq!(memo_t.journal().entries(), plain_t.journal().entries());
            assert!(kmeans_fits(&memo_t) < kmeans_fits(&plain_t));
            for f in &sets {
                assert_eq!(memo.greedy_k(f), plain.greedy_k(f));
                assert_eq!(memo.construct(f).unwrap(), plain.construct(f).unwrap());
            }
        }
    }

    #[test]
    fn pretrain_fits_each_k_at_most_once_per_feature_set() {
        let sets = vec![blobs(3, 10, 23), blobs(5, 8, 29)];
        let (mut engine, t) = pretrain_engine();
        engine.pretrain(&sets, 150).unwrap();
        let k_range = (engine.config.k_max - engine.config.k_min + 1) as u64;
        let fits = kmeans_fits(&t);
        assert!(fits <= k_range * sets.len() as u64, "{fits} fits");
        assert_eq!(engine.calls(), 150);
        assert!(engine.pretrain.is_none(), "memo is scoped to the call");
    }

    /// 300 users clear the silhouette kernel's parallel threshold, which
    /// the small identity suites never reach.
    #[test]
    fn construct_is_identical_at_any_thread_count() {
        let features = blobs(5, 60, 13);
        let run = |threads: usize| {
            let mut engine = GroupingEngine::new(GroupingConfig {
                seed: 3,
                threads,
                ..Default::default()
            })
            .unwrap();
            (0..3)
                .map(|_| engine.construct(&features).unwrap())
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        for threads in [2, 4] {
            for (s, p) in serial.iter().zip(run(threads)) {
                assert_eq!(s.k, p.k, "{threads} threads");
                assert_eq!(s.assignments, p.assignments, "{threads} threads");
                assert_eq!(s.silhouette.to_bits(), p.silhouette.to_bits());
                assert_eq!(s.reward.to_bits(), p.reward.to_bits());
            }
        }
    }

    #[test]
    fn k_is_capped_by_population() {
        let mut engine = GroupingEngine::new(GroupingConfig {
            strategy: GroupingStrategy::FixedK(12),
            ..Default::default()
        })
        .unwrap();
        let g = engine.construct(&blobs(1, 5, 7)).unwrap();
        assert!(g.k <= 5);
    }
}
