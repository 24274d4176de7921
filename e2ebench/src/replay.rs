//! The traced run: the scored predictor is wrapped in a [`Tap`] that
//! forwards every call unchanged, then replays the same prediction pass
//! layer by layer through the crates' public functions, with a benchmark
//! span around each call. The replica starts from the same inputs as the
//! program (the twins the predictor saw, the workload's scheme), so its K
//! and assignments must equal the program's in exact mode.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use msvs_cluster::{silhouette_sampled, Init, KMeans, KMeansConfig};
use msvs_core::cache::EmbeddingBackend;
use msvs_core::recommend::aggregate_preference;
use msvs_core::{
    predict_group_demand, recommend_for_group, CnnCompressor, DemandPredictor, EmbeddingCache,
    Grouping, GroupingEngine, MemberState, Prediction, PredictionContext, SchemeConfig,
    SnrEstimator, SwipingAbstraction,
};
use msvs_par::Pool;
use msvs_sim::SimulationConfig;
use msvs_types::{CpuCycles, Error, GroupId, ResourceBlocks, Result, UserId};
use msvs_udt::{FeatureWindow, TwinView, UserDigitalTwin};

use crate::trace::Tracer;

/// SNR the scheme assumes for a twin without channel samples, dB.
const DEFAULT_SNR_DB: f64 = 10.0;

/// State the [`Tap`] shares with the benchmark loop that owns the
/// simulation.
#[derive(Debug, Default)]
pub struct Shared {
    pub tracer: Tracer,
    /// The replica's latest `(user order, grouping)`.
    pub last: Option<(Vec<UserId>, Grouping)>,
    /// Lloyd rounds of each scored K-means probe.
    pub kmeans_rounds: Vec<f64>,
    /// Non-empty groups of each scored replay.
    pub groups: Vec<f64>,
    pub problems: Vec<String>,
}

pub type SharedRef = Arc<Mutex<Shared>>;

pub fn lock(shared: &SharedRef) -> MutexGuard<'_, Shared> {
    shared
        .lock()
        .expect("no thread panics while holding the trace lock")
}

/// Runs `f` inside a span named `name`.
fn span<T>(shared: &SharedRef, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = lock(shared).tracer.enter(name);
    let out = f();
    lock(shared).tracer.exit(id);
    out
}

/// The scheme exactly as the simulator hands it to its predictor: the
/// scenario's map and base-station grid, the resolved thread count,
/// backend, incremental switch, and the degradation ladder armed by an
/// active fault plan.
pub fn resolved_scheme(config: &SimulationConfig) -> SchemeConfig {
    let map = msvs_mobility::CampusMap::waterloo();
    let mut scheme = config.scheme.clone();
    scheme.bs_positions = bs_grid(map.width(), map.height(), config.n_bs);
    scheme.per_bs_accounting = config.per_bs_accounting;
    scheme.map_width = map.width();
    scheme.map_height = map.height();
    if config.faults.as_ref().is_some_and(|p| !p.is_noop()) {
        scheme.degradation.enabled = true;
    }
    scheme.threads = pool(config.threads).threads();
    scheme.compressor.backend = config.backend;
    scheme.incremental = config.incremental;
    scheme
}

fn pool(threads: usize) -> Pool {
    if threads == 1 {
        Pool::serial()
    } else {
        Pool::new(threads)
    }
}

/// Base stations on a centred grid across a `width` x `height` campus.
fn bs_grid(width: f64, height: f64, n: usize) -> Vec<msvs_types::Position> {
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    (0..n)
        .map(|i| {
            msvs_types::Position::new(
                width * ((i % cols) as f64 + 0.5) / cols as f64,
                height * ((i / cols) as f64 + 0.5) / rows as f64,
            )
        })
        .collect()
}

/// The prediction pipeline rebuilt from the crates' layers.
struct Replica {
    scheme: SchemeConfig,
    compressor: CnnCompressor,
    engine: GroupingEngine,
    pool: Pool,
    /// Twin channel samples averaged into a member's SNR estimate.
    snr_window: usize,
    /// Embedding cache mirrored in incremental mode only.
    cache: EmbeddingCache,
    pending_dirty: HashSet<UserId>,
    /// Last probe centroids per K, for warm-started probes in
    /// incremental mode.
    warm: HashMap<usize, Vec<Vec<f64>>>,
}

impl Replica {
    /// Fails for schemes the replica does not mirror: it estimates SNR
    /// as the recent mean and accounts radio in a single cell, as every
    /// workload does.
    fn new(mut scheme: SchemeConfig) -> Result<Self> {
        let SnrEstimator::RecentMean { window: snr_window } = scheme.snr_estimator else {
            return Err(Error::invalid_config(
                "snr_estimator",
                "replay mirrors RecentMean only",
            ));
        };
        if scheme.per_bs_accounting {
            return Err(Error::invalid_config(
                "per_bs_accounting",
                "replay mirrors one cell only",
            ));
        }
        let pool = pool(scheme.threads);
        scheme.grouping.threads = pool.threads();
        scheme.grouping.incremental = scheme.incremental;
        Ok(Self {
            compressor: CnnCompressor::new(scheme.compressor)?,
            engine: GroupingEngine::new(scheme.grouping.clone())?,
            scheme,
            pool,
            snr_window,
            cache: EmbeddingCache::new(),
            pending_dirty: HashSet::new(),
            warm: HashMap::new(),
        })
    }

    fn windows(&self, twins: &[UserDigitalTwin], idx: &[usize]) -> Vec<FeatureWindow> {
        let (w, mw, mh) = (
            self.scheme.compressor.window,
            self.scheme.map_width,
            self.scheme.map_height,
        );
        idx.iter()
            .map(|&i| twins[i].feature_window(w, mw, mh))
            .collect()
    }

    /// Clustering features of the population. Trains the compressor on
    /// the first call. Exact mode encodes everyone (bit-identical to the
    /// program's cached encode); incremental mode mirrors the program's
    /// dirty-set plan and feeds the drift gate the same dirty fraction.
    fn features(&mut self, shared: &SharedRef, twins: &[UserDigitalTwin]) -> Result<Vec<Vec<f64>>> {
        let all: Vec<usize> = (0..twins.len()).collect();
        if !self.compressor.is_frozen() {
            let windows = self.windows(twins, &all);
            span(shared, "compressor.train", || {
                self.compressor.train(&windows)
            })?;
            self.compressor.freeze();
        }
        if !self.scheme.incremental {
            let windows = span(shared, "udt.feature_window", || self.windows(twins, &all));
            let (features, _) = span(shared, "compressor.encode", || {
                self.compressor.encode_with(&windows, &self.pool)
            })?;
            return Ok(features);
        }
        let generation = self.compressor.trained_epochs() as u64;
        let dirty = std::mem::take(&mut self.pending_dirty);
        let mut forced_churn = None;
        let plan = if self.engine.take_refresh_hint() {
            forced_churn = Some(dirty.len());
            self.cache.plan(generation, twins)
        } else {
            self.cache.plan_incremental(generation, twins, &dirty)
        };
        let windows = span(shared, "udt.feature_window", || {
            self.windows(twins, &plan.miss_indices)
        });
        let (fresh, _) = span(shared, "compressor.encode", || {
            self.compressor.encode_with(&windows, &self.pool)
        })?;
        let misses = plan.miss_indices.len();
        let features = self.cache.complete(twins, &plan, fresh);
        let n = twins.len().max(1) as f64;
        self.engine
            .set_dirty_fraction(forced_churn.unwrap_or(misses) as f64 / n);
        Ok(features)
    }

    /// One prediction pass over `ctx`'s twins, mirroring
    /// `DtAssistedPredictor::predict`.
    fn predict(&mut self, shared: &SharedRef, ctx: &PredictionContext<'_>) -> Result<()> {
        let twins = span(shared, "udt.snapshot", || ctx.store.snapshot());
        let features = self.features(shared, &twins)?;
        let grouping = span(shared, "grouping.construct", || {
            self.engine.construct(&features)
        })?;
        let scored = lock(shared).tracer.interval().is_some();
        if scored {
            self.probe_cluster(shared, &features, grouping.k)?;
        }
        let mut groups = 0;
        for (gid, member_idx) in grouping.members().into_iter().enumerate() {
            if member_idx.is_empty() {
                continue;
            }
            groups += 1;
            let members: Vec<&UserDigitalTwin> = member_idx.iter().map(|&i| &twins[i]).collect();
            let abstraction = span(shared, "swiping.ingest", || {
                let mut a = SwipingAbstraction::new();
                for t in &members {
                    a.ingest(t.watch_series().iter().map(|(_, r)| r));
                }
                a
            });
            let recommendation = span(shared, "recommend", || {
                let prefs: Vec<&[f64]> = members.iter().map(|t| t.preference()).collect();
                recommend_for_group(
                    ctx.catalog,
                    &aggregate_preference(&prefs),
                    &self.scheme.recommender,
                )
            })?;
            let states: Vec<MemberState> = members
                .iter()
                .map(|t| MemberState {
                    user: t.user(),
                    snr_db: t
                        .mean_recent_snr_db(self.snr_window)
                        .unwrap_or(DEFAULT_SNR_DB),
                    bs: 0,
                })
                .collect();
            span(shared, "demand.predict", || {
                predict_group_demand(
                    GroupId(gid as u32),
                    &states,
                    &abstraction,
                    &recommendation,
                    ctx.catalog,
                    ctx.cache,
                    ctx.transcode,
                    ctx.link,
                    &self.scheme.demand,
                )
            })?;
        }
        let order = twins.iter().map(UserDigitalTwin::user).collect();
        let mut s = lock(shared);
        if scored {
            s.groups.push(groups as f64);
        }
        s.last = Some((order, grouping));
        Ok(())
    }

    /// Times the clustering layer on its own at the chosen K: one K-means
    /// fit seeded as the grouping engine seeds it (warm from the last probe
    /// of the same K in incremental mode) and the sampled silhouette.
    fn probe_cluster(&mut self, shared: &SharedRef, features: &[Vec<f64>], k: usize) -> Result<()> {
        let g = &self.scheme.grouping;
        let init = match self.warm.get(&k) {
            Some(c) if self.scheme.incremental => Init::Warm(c.clone()),
            _ => Init::default(),
        };
        let kmeans = KMeans::new(KMeansConfig {
            k,
            seed: g.seed ^ 0x5EED,
            threads: self.pool.threads(),
            init,
            ..Default::default()
        });
        let fit = span(shared, "cluster.kmeans_fit", || kmeans.fit(features))?;
        let cap = g.silhouette_sample_cap;
        let sil = span(shared, "cluster.silhouette", || {
            silhouette_sampled(features, &fit.assignments, cap)
        });
        std::hint::black_box(sil);
        lock(shared).kmeans_rounds.push(fit.iterations as f64);
        self.warm.insert(k, fit.centroids);
        Ok(())
    }

    fn pretrain(&mut self, shared: &SharedRef, store: &dyn TwinView, rounds: usize) -> Result<()> {
        let twins = span(shared, "udt.snapshot", || store.snapshot());
        let features = self.features(shared, &twins)?;
        span(shared, "grouping.pretrain", || {
            self.engine.pretrain(&[features], rounds)
        })
    }
}

/// Forwards every call to the program's predictor, then replays it.
pub struct Tap {
    inner: Box<dyn DemandPredictor>,
    replica: Replica,
    shared: SharedRef,
}

impl Tap {
    pub fn new(config: &SimulationConfig, shared: SharedRef) -> Result<Self> {
        let scheme = resolved_scheme(config);
        Ok(Self {
            inner: config.predictor.build(scheme.clone())?,
            replica: Replica::new(scheme)?,
            shared,
        })
    }

    fn note(&self, what: String) {
        let mut s = lock(&self.shared);
        if s.problems.len() < 20 {
            s.problems.push(what);
        }
    }
}

impl DemandPredictor for Tap {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&mut self, ctx: &PredictionContext<'_>) -> Result<Prediction> {
        let prediction = span(&self.shared, "sim.predict", || self.inner.predict(ctx))?;
        let shared = Arc::clone(&self.shared);
        if let Err(e) = span(&shared, "replay", || self.replica.predict(&shared, ctx)) {
            self.note(format!("replay predict: {e}"));
        }
        Ok(prediction)
    }

    fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn observe_actual(&mut self, radio: ResourceBlocks, computing: CpuCycles) {
        self.inner.observe_actual(radio, computing);
    }

    fn pretrain(&mut self, store: &dyn TwinView, rounds: usize) -> Result<()> {
        span(&self.shared, "sim.pretrain", || {
            self.inner.pretrain(store, rounds)
        })?;
        let shared = Arc::clone(&self.shared);
        if let Err(e) = span(&shared, "replay", || {
            self.replica.pretrain(&shared, store, rounds)
        }) {
            self.note(format!("replay pretrain: {e}"));
        }
        Ok(())
    }

    fn set_embedding_backend(&mut self, backend: Box<dyn EmbeddingBackend>) {
        self.inner.set_embedding_backend(backend);
    }

    fn note_interval_dirty(&mut self, users: &[UserId]) {
        self.inner.note_interval_dirty(users);
        self.replica.pending_dirty.extend(users.iter().copied());
    }
}
