//! The end-to-end DT-assisted prediction scheme (Fig. 2 of the paper).

use msvs_channel::Link;
use msvs_edge::{TranscodeModel, VideoCache};
use msvs_telemetry::{SpanAttrs, SpanCollector, SpanScratch};
use msvs_types::{CpuCycles, Error, GroupId, ResourceBlocks, Result, UserId};
use msvs_udt::{TwinView, UserDigitalTwin};
use msvs_video::Catalog;

use crate::compressor::{CnnCompressor, CompressorConfig};
use crate::demand::{predict_group_demand, DemandConfig, GroupDemandPrediction};
use crate::grouping::{Grouping, GroupingConfig, GroupingEngine};
use crate::recommend::{
    aggregate_preference, recommend_for_group, GroupRecommendation, RecommenderConfig,
};
use crate::swiping::SwipingAbstraction;

/// SNR assumed for users whose twin has no channel sample yet, dB.
const DEFAULT_SNR_DB: f64 = 10.0;

/// How the predictor estimates each member's channel condition for the
/// next interval.
///
/// The twin's recent mean is the one estimator. It stays an enum because
/// `e2ebench/` destructures the variant by name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnrEstimator {
    /// Mean of the last `window` twin channel samples (robust to fading,
    /// but lags a moving user by up to one interval).
    RecentMean {
        /// Number of recent samples averaged.
        window: usize,
    },
}

impl SnrEstimator {
    /// Estimates one member's SNR for the coming interval.
    fn estimate(self, twin: &UserDigitalTwin) -> f64 {
        let SnrEstimator::RecentMean { window } = self;
        twin.mean_recent_snr_db(window).unwrap_or(DEFAULT_SNR_DB)
    }
}

impl Default for SnrEstimator {
    fn default() -> Self {
        SnrEstimator::RecentMean { window: 64 }
    }
}

/// Graceful-degradation policy: what the predictor does when twin data
/// goes stale (lossy uplink, churn storms).
///
/// The ladder has three rungs: *fresh* twin data feeds the full pipeline;
/// *stale-but-present* data is imputed from the last known good samples
/// (the twin's feature-window padding); and when fresh coverage across
/// the population falls below `coverage_threshold`, the predictor's
/// totals *fall back* to a historical-mean EWMA over past actual demands,
/// with the reservation safety margin widened proportionally to the
/// missing coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Whether degradation accounting runs at all. Off by default so
    /// fault-free runs are bit-identical to historical behaviour; the
    /// simulator enables it whenever a fault plan is active.
    pub enabled: bool,
    /// Minimum fresh-twin fraction below which the interval degrades.
    pub coverage_threshold: f64,
    /// How recent a twin's channel *and* location updates must be for the
    /// twin to count as fresh.
    pub staleness_horizon: msvs_types::SimDuration,
    /// EWMA smoothing factor of the historical-mean fallback, in `(0, 1]`.
    pub fallback_alpha: f64,
    /// Extra reservation margin at zero coverage; the applied margin is
    /// `1 + max_extra_margin * (1 - coverage)`.
    pub max_extra_margin: f64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            coverage_threshold: 0.75,
            staleness_horizon: msvs_types::SimDuration::from_secs(15),
            fallback_alpha: 0.5,
            max_extra_margin: 0.5,
        }
    }
}

impl DegradationConfig {
    /// Validates thresholds and factors.
    ///
    /// # Errors
    /// Returns `InvalidConfig` for the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if !self.coverage_threshold.is_finite() || !(0.0..=1.0).contains(&self.coverage_threshold) {
            return Err(Error::invalid_config(
                "degradation.coverage_threshold",
                "must be in [0, 1]",
            ));
        }
        if self.staleness_horizon == msvs_types::SimDuration::ZERO {
            return Err(Error::invalid_config(
                "degradation.staleness_horizon",
                "must be non-zero",
            ));
        }
        if !(self.fallback_alpha > 0.0 && self.fallback_alpha <= 1.0) {
            return Err(Error::invalid_config(
                "degradation.fallback_alpha",
                "must be in (0, 1]",
            ));
        }
        if !self.max_extra_margin.is_finite() || self.max_extra_margin < 0.0 {
            return Err(Error::invalid_config(
                "degradation.max_extra_margin",
                "must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

/// Configuration of the full scheme.
#[derive(Debug, Clone)]
pub struct SchemeConfig {
    /// 1D-CNN compressor hyperparameters (the window length here defines
    /// the twin history fed to clustering).
    pub compressor: CompressorConfig,
    /// Group-construction hyperparameters.
    pub grouping: GroupingConfig,
    /// Recommendation-pool parameters.
    pub recommender: RecommenderConfig,
    /// Demand-prediction parameters.
    pub demand: DemandConfig,
    /// Campus extent used to normalise twin locations.
    pub map_width: f64,
    /// Campus extent used to normalise twin locations.
    pub map_height: f64,
    /// Base-station positions, used by per-BS radio accounting when
    /// [`SchemeConfig::per_bs_accounting`] is set.
    pub bs_positions: Vec<msvs_types::Position>,
    /// Account radio demand per BS: each BS multicasts the group stream to
    /// its attached members (nearest-BS association from the twin's last
    /// known location). Requires `bs_positions`.
    pub per_bs_accounting: bool,
    /// Channel-condition estimator.
    pub snr_estimator: SnrEstimator,
    /// Graceful-degradation policy for stale twin data.
    pub degradation: DegradationConfig,
    /// Worker threads for the parallel pipeline stages (feature
    /// extraction with the CNN encode, the silhouette, and the per-group
    /// swiping and demand pass): `1` = serial, `0` = all available cores.
    /// Predictions are bit-identical at any thread count.
    pub threads: usize,
    /// Ignored; kept because `e2ebench/` names it; drop at the next
    /// benchmark change. Every pass re-validates every twin.
    pub incremental: bool,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        Self {
            compressor: CompressorConfig::default(),
            grouping: GroupingConfig::default(),
            recommender: RecommenderConfig::default(),
            demand: DemandConfig::default(),
            map_width: 1200.0,
            map_height: 1000.0,
            bs_positions: Vec::new(),
            per_bs_accounting: false,
            snr_estimator: SnrEstimator::default(),
            degradation: DegradationConfig::default(),
            threads: 1,
            incremental: false,
        }
    }
}

/// Everything one prediction pass produces.
#[derive(Debug)]
pub struct PredictionOutcome {
    /// Users in the order they were clustered (index ↔ assignment).
    pub user_order: Vec<UserId>,
    /// The multicast grouping.
    pub grouping: Grouping,
    /// Per-group swiping abstractions (index = group id).
    pub swiping: Vec<SwipingAbstraction>,
    /// Per-group recommendation pools.
    pub recommendations: Vec<GroupRecommendation>,
    /// Demand predictions of the non-empty groups, in group-id order.
    /// Empty clusters have none, so this is *not* indexed by group id:
    /// look a group up by [`GroupDemandPrediction::group`] (see
    /// [`Self::group_prediction`]).
    pub groups: Vec<GroupDemandPrediction>,
}

impl PredictionOutcome {
    /// Total predicted radio demand across groups.
    pub fn total_radio(&self) -> ResourceBlocks {
        self.groups.iter().map(|g| g.radio).sum()
    }

    /// Total predicted computing demand across groups.
    pub fn total_computing(&self) -> CpuCycles {
        self.groups.iter().map(|g| g.computing).sum()
    }

    /// Total expected prefetch waste across groups, megabits.
    pub fn total_waste_mb(&self) -> f64 {
        self.groups.iter().map(|g| g.expected_waste_mb).sum()
    }

    /// The demand prediction of group `g`, or `None` when the group is
    /// empty (or out of range).
    pub fn group_prediction(&self, g: usize) -> Option<&GroupDemandPrediction> {
        self.groups.iter().find(|p| p.group.0 as usize == g)
    }

    /// The members of group `g` (user ids).
    pub fn group_members(&self, g: usize) -> Vec<UserId> {
        self.grouping
            .assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == g)
            .map(|(i, _)| self.user_order[i])
            .collect()
    }
}

/// The DT-assisted resource demand predictor.
///
/// Owns the trainable pieces (1D-CNN compressor, DDQN grouping agent) and
/// re-runs the full abstraction → prediction pipeline each reservation
/// interval.
#[derive(Debug)]
pub struct DtAssistedPredictor {
    config: SchemeConfig,
    compressor: CnnCompressor,
    engine: GroupingEngine,
    pool: msvs_par::Pool,
    fallback: crate::baselines::HistoricalMeanPredictor,
    intervals_predicted: u64,
    telemetry: Option<msvs_telemetry::Telemetry>,
}

impl DtAssistedPredictor {
    /// Builds the predictor.
    ///
    /// # Errors
    /// Propagates configuration errors from the compressor and grouping
    /// engine.
    pub fn new(mut config: SchemeConfig) -> Result<Self> {
        config.degradation.validate()?;
        let pool = msvs_par::Pool::new(config.threads);
        // Grouping inherits the resolved thread count so the silhouette
        // parallelises alongside the CNN encode.
        config.threads = pool.threads();
        config.grouping.threads = pool.threads();
        let compressor = CnnCompressor::new(config.compressor)?;
        let engine = GroupingEngine::new(config.grouping.clone())?;
        let fallback =
            crate::baselines::HistoricalMeanPredictor::new(config.degradation.fallback_alpha)?;
        Ok(Self {
            config,
            compressor,
            engine,
            pool,
            fallback,
            intervals_predicted: 0,
            telemetry: None,
        })
    }

    /// Wires the predictor (and its grouping engine + DDQN agent) into an
    /// observability pipeline: every pipeline stage records a span, and
    /// DDQN pretraining journals its summary.
    pub fn attach_telemetry(&mut self, telemetry: msvs_telemetry::Telemetry) {
        self.engine.attach_telemetry(telemetry.clone());
        self.telemetry = Some(telemetry);
    }

    /// Opens a stage span when telemetry is attached.
    fn stage_scope(&self, stage: &'static str) -> Option<msvs_telemetry::SpanGuard> {
        self.telemetry.as_ref().map(|t| t.stage_scope(stage))
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// Number of prediction passes performed.
    pub fn intervals_predicted(&self) -> u64 {
        self.intervals_predicted
    }

    /// Feeds an interval's actual measured demands into the historical-mean
    /// fallback — the bottom rung of the degradation ladder.
    pub fn observe_fallback(&mut self, radio: ResourceBlocks, computing: CpuCycles) {
        self.fallback.observe(radio, computing);
    }

    /// The fallback EWMA's current `(radio, computing)` estimate, or `None`
    /// before its first observation.
    pub fn fallback_totals(&self) -> Option<(ResourceBlocks, CpuCycles)> {
        self.fallback.predict()
    }

    /// Forces a compressor (re)training pass on the next prediction by
    /// thawing the frozen compressor.
    pub fn invalidate_compressor(&mut self) {
        self.compressor.thaw();
    }

    /// Trains the compressor on the worker pool if it is not yet frozen,
    /// freezes it, then encodes the whole population, in snapshot order,
    /// on the pool; in both, each worker batch extracts its own twins'
    /// feature windows. Exports the pool utilisation gauges of both
    /// stages when telemetry is attached.
    fn encode_population(&mut self, twins: &[UserDigitalTwin]) -> Result<Vec<Vec<f64>>> {
        let (window, width, height) = (
            self.config.compressor.window,
            self.config.map_width,
            self.config.map_height,
        );
        let window_of = move |t: &UserDigitalTwin| t.feature_window(window, width, height);
        if !self.compressor.is_frozen() {
            let _train_scope = self.stage_scope(msvs_telemetry::stages::CNN_TRAIN);
            let (_, stats) = self.compressor.train_fused(twins, window_of, &self.pool)?;
            self.compressor.freeze();
            self.export_par_gauges(msvs_telemetry::stages::CNN_TRAIN, stats);
        }
        let forward_scope = self.stage_scope(msvs_telemetry::stages::CNN_FORWARD);
        // When tracing, each worker batch records a cnn_encode_batch span
        // adopted under the cnn_forward span after the pool joins.
        let trace = self
            .telemetry
            .as_ref()
            .zip(forward_scope.as_ref())
            .map(|(t, scope)| (t.span_collector(), scope.id()));
        let (features, stats) = self
            .compressor
            .encode_traced(twins, window_of, &self.pool, trace)?;
        drop(forward_scope);
        self.export_par_gauges(msvs_telemetry::stages::CNN_FORWARD, stats);
        Ok(features)
    }

    /// Exports a stage's pool utilisation gauges when telemetry is
    /// attached.
    fn export_par_gauges(&self, stage: &'static str, stats: msvs_par::ParStats) {
        if let Some(t) = &self.telemetry {
            t.gauge("par_threads", stage).set(stats.threads as f64);
            t.gauge("par_utilisation", stage).set(stats.utilisation());
            t.gauge("par_speedup", stage)
                .set(stats.effective_parallelism());
        }
    }

    /// Pretrains the DDQN grouping agent on the current twin population:
    /// extracts features once, then runs `rounds` construct/observe cycles
    /// so ε decays and the agent converges before scored predictions.
    ///
    /// # Errors
    /// Propagates feature-extraction and clustering errors.
    pub fn pretrain_grouping(&mut self, store: &dyn TwinView, rounds: usize) -> Result<()> {
        let twins = store.snapshot();
        if twins.len() < self.config.grouping.k_min {
            return Err(Error::insufficient(format!(
                "need at least {} users, store has {}",
                self.config.grouping.k_min,
                twins.len()
            )));
        }
        let features = self.encode_population(&twins)?;
        self.engine.pretrain(&[features], rounds)
    }

    /// Runs one full prediction pass over the twins in `store`.
    ///
    /// Steps: extract feature windows → (train then) encode with the
    /// 1D-CNN → DDQN + K-means++ grouping → per-group swiping abstraction,
    /// preference aggregation, recommendation → radio & computing demand.
    /// Feature extraction with the encode, and the per-group steps, run on
    /// the worker pool; the outcome is the same at any thread count.
    ///
    /// # Errors
    /// Returns `InsufficientData` when the store has fewer users than the
    /// minimum group count, and propagates pipeline errors.
    pub fn predict(
        &mut self,
        store: &dyn TwinView,
        catalog: &Catalog,
        cache: &VideoCache,
        transcode: &TranscodeModel,
        link: &Link,
    ) -> Result<PredictionOutcome> {
        let twins = store.snapshot();
        if twins.len() < self.config.grouping.k_min {
            return Err(Error::insufficient(format!(
                "need at least {} users, store has {}",
                self.config.grouping.k_min,
                twins.len()
            )));
        }
        self.intervals_predicted += 1;
        let user_order: Vec<UserId> = twins.iter().map(|t| t.user()).collect();
        let features = self.encode_population(&twins)?;
        let grouping = self.engine.construct(&features)?;

        let inputs = GroupInputs {
            config: &self.config,
            twins: &twins,
            catalog,
            cache,
            transcode,
            link,
        };
        // Groups are independent, so they run on the pool. When tracing,
        // each group records its spans into a worker scratch, adopted in
        // group order under the caller's open span (`scheme_predict` in
        // the simulator), so the span tree is the same at any thread count.
        let collector = self.telemetry.as_ref().map(|t| t.span_collector());
        let passes = self.pool.map(&grouping.members(), |gid, member_idx| {
            let mut scratch = collector.map(SpanCollector::scratch);
            (inputs.run(gid, member_idx, scratch.as_mut()), scratch)
        });
        let parent = collector.and_then(SpanCollector::current);
        let mut swiping = Vec::with_capacity(grouping.k);
        let mut recommendations = Vec::with_capacity(grouping.k);
        let mut groups = Vec::with_capacity(grouping.k);
        for (pass, scratch) in passes {
            if let (Some(collector), Some(scratch)) = (collector, scratch) {
                collector.adopt(parent, scratch);
            }
            let pass = pass?;
            swiping.push(pass.swiping);
            recommendations.push(pass.recommendation);
            groups.extend(pass.prediction);
        }

        Ok(PredictionOutcome {
            user_order,
            grouping,
            swiping,
            recommendations,
            groups,
        })
    }
}

/// What one group's share of a prediction pass reads. Every field is
/// shared read-only, so the groups of a pass can run in any order.
struct GroupInputs<'a> {
    config: &'a SchemeConfig,
    twins: &'a [UserDigitalTwin],
    catalog: &'a Catalog,
    cache: &'a VideoCache,
    transcode: &'a TranscodeModel,
    link: &'a Link,
}

/// One group's share of a prediction pass.
struct GroupPass {
    swiping: SwipingAbstraction,
    recommendation: GroupRecommendation,
    /// `None` for an empty cluster.
    prediction: Option<GroupDemandPrediction>,
}

impl GroupInputs<'_> {
    /// Swiping abstraction, preference aggregation, recommendation and
    /// demand of group `gid` (members `member_idx` of the snapshot). An
    /// empty group gets an empty abstraction, the uniform-preference pool
    /// and no prediction. With a `scratch`, records the group's
    /// `swiping_abstraction` and `demand_predict` spans into it.
    fn run(
        &self,
        gid: usize,
        member_idx: &[usize],
        mut scratch: Option<&mut SpanScratch>,
    ) -> Result<GroupPass> {
        let config = self.config;
        if member_idx.is_empty() {
            return Ok(GroupPass {
                swiping: SwipingAbstraction::new(),
                recommendation: recommend_for_group(
                    self.catalog,
                    &[1.0 / 8.0; 8],
                    &config.recommender,
                )?,
                prediction: None,
            });
        }
        let member_twins: Vec<&UserDigitalTwin> =
            member_idx.iter().map(|&i| &self.twins[i]).collect();
        let (swiping, recommendation) = in_span(
            scratch.as_deref_mut(),
            msvs_telemetry::stages::SWIPING_ABSTRACTION,
            gid,
            || {
                // Swiping abstraction from all members' watch histories.
                let mut abstraction = SwipingAbstraction::new();
                for t in &member_twins {
                    abstraction.ingest(t.watch_series().iter().map(|(_, r)| r));
                }
                // Group preference and recommendation pool.
                let prefs: Vec<&[f64]> = member_twins.iter().map(|t| t.preference()).collect();
                let group_pref = aggregate_preference(&prefs);
                recommend_for_group(self.catalog, &group_pref, &config.recommender)
                    .map(|recommendation| (abstraction, recommendation))
            },
        )?;
        // Member channel states and BS attachment (from twin data).
        let members: Vec<crate::demand::MemberState> = member_twins
            .iter()
            .map(|t| {
                let bs = if !config.per_bs_accounting || config.bs_positions.is_empty() {
                    0
                } else {
                    let pos = t.latest_position().unwrap_or(msvs_types::Position::ORIGIN);
                    pos.nearest(&config.bs_positions)
                        .expect("at least one BS, checked above")
                        .0
                };
                crate::demand::MemberState {
                    user: t.user(),
                    snr_db: config.snr_estimator.estimate(t),
                    bs,
                }
            })
            .collect();
        let prediction = in_span(scratch, msvs_telemetry::stages::DEMAND_PREDICT, gid, || {
            predict_group_demand(
                GroupId(gid as u32),
                &members,
                &swiping,
                &recommendation,
                self.catalog,
                self.cache,
                self.transcode,
                self.link,
                &config.demand,
            )
        })?;
        Ok(GroupPass {
            swiping,
            recommendation,
            prediction: Some(prediction),
        })
    }
}

/// Runs `work`, inside a `name` span carrying `group` when tracing.
fn in_span<T>(
    scratch: Option<&mut SpanScratch>,
    name: &'static str,
    group: usize,
    work: impl FnOnce() -> T,
) -> T {
    match scratch {
        Some(scratch) => {
            let attrs = SpanAttrs {
                group: Some(group as u64),
                ..Default::default()
            };
            scratch.record(name, attrs, |_| work())
        }
        None => work(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_channel::LinkConfig;
    use msvs_types::{Position, RepresentationLevel, SimDuration, SimTime, VideoCategory, VideoId};
    use msvs_udt::{UdtStore, WatchRecord};
    use msvs_video::CatalogConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn populated_store(n: usize, seed: u64) -> UdtStore {
        let store = UdtStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for u in 0..n {
            let mut twin = UserDigitalTwin::new(UserId(u as u32));
            // Two archetype populations for clusterable structure.
            let (snr_base, x, y, watch_mean, fav) = if u % 2 == 0 {
                (20.0, 500.0, 500.0, 25.0, VideoCategory::News)
            } else {
                (6.0, 1000.0, 100.0, 4.0, VideoCategory::Game)
            };
            for step in 0..40u64 {
                let t = SimTime::from_secs(step * 5);
                twin.update_channel(t, snr_base + rng.gen::<f64>() * 2.0);
                twin.update_location(
                    t,
                    Position::new(x + rng.gen::<f64>() * 30.0, y + rng.gen::<f64>() * 30.0),
                );
                twin.record_watch(
                    t,
                    WatchRecord {
                        video: VideoId((step % 50) as u32),
                        category: if step % 3 == 0 {
                            fav
                        } else {
                            VideoCategory::Music
                        },
                        level: RepresentationLevel::P720,
                        watched: SimDuration::from_secs_f64(
                            msvs_types::stats::exponential(&mut rng, 1.0 / watch_mean).min(59.0),
                        ),
                        video_duration: SimDuration::from_secs(60),
                        completed: false,
                    },
                );
            }
            twin.refresh_preference_from_watches(SimTime::from_secs(200), 0.6);
            store.insert(twin);
        }
        store
    }

    fn scheme_config() -> SchemeConfig {
        SchemeConfig {
            compressor: CompressorConfig {
                window: 16,
                epochs: 15,
                ..Default::default()
            },
            grouping: GroupingConfig {
                k_min: 2,
                k_max: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn fixtures() -> (Catalog, VideoCache, TranscodeModel, Link) {
        let catalog = Catalog::generate(CatalogConfig {
            n_videos: 150,
            seed: 31,
            ..Default::default()
        })
        .unwrap();
        let mut cache = VideoCache::new(100_000.0);
        cache.warm_from(&catalog);
        (
            catalog,
            cache,
            TranscodeModel::default(),
            Link::new(LinkConfig::default()),
        )
    }

    #[test]
    fn end_to_end_prediction_runs() {
        let store = populated_store(30, 1);
        let (catalog, cache, transcode, link) = fixtures();
        let mut predictor = DtAssistedPredictor::new(scheme_config()).unwrap();
        let outcome = predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .unwrap();
        assert_eq!(outcome.user_order.len(), 30);
        assert_eq!(outcome.grouping.assignments.len(), 30);
        assert!(outcome.grouping.k >= 2 && outcome.grouping.k <= 6);
        assert!(outcome.total_radio().value() > 0.0);
        assert!(outcome.total_radio().value().is_finite());
        assert_eq!(outcome.groups.len(), outcome.recommendations.len());
        assert_eq!(predictor.intervals_predicted(), 1);
    }

    /// With an empty middle cluster, `groups` holds two predictions for
    /// three groups: lookups go by group id, never by position.
    #[test]
    fn group_prediction_skips_empty_clusters() {
        let (catalog, cache, transcode, link) = fixtures();
        let recommendation =
            recommend_for_group(&catalog, &[1.0 / 8.0; 8], &RecommenderConfig::default()).unwrap();
        let swiping = SwipingAbstraction::new();
        let predict = |gid: u32, users: &[u32]| {
            let members: Vec<crate::demand::MemberState> = users
                .iter()
                .map(|&u| crate::demand::MemberState::new(UserId(u), 12.0))
                .collect();
            predict_group_demand(
                GroupId(gid),
                &members,
                &swiping,
                &recommendation,
                &catalog,
                &cache,
                &transcode,
                &link,
                &DemandConfig::default(),
            )
            .unwrap()
        };
        let outcome = PredictionOutcome {
            user_order: (0..5).map(UserId).collect(),
            grouping: Grouping {
                k: 3,
                assignments: vec![0, 2, 2, 0, 2],
                silhouette: 0.5,
                reward: 0.0,
            },
            swiping: vec![SwipingAbstraction::new(); 3],
            recommendations: vec![recommendation.clone(); 3],
            groups: vec![predict(0, &[0, 3]), predict(2, &[1, 2, 4])],
        };
        let members = |g: usize| outcome.group_prediction(g).map(|p| p.members.len());
        assert_eq!(members(0), Some(2));
        assert_eq!(members(1), None, "the empty cluster has no prediction");
        assert_eq!(members(2), Some(3));
        assert_eq!(members(3), None);
        assert_eq!(members(2), Some(outcome.group_members(2).len()));
    }

    #[test]
    fn group_members_partition_users() {
        let store = populated_store(24, 2);
        let (catalog, cache, transcode, link) = fixtures();
        let mut predictor = DtAssistedPredictor::new(scheme_config()).unwrap();
        let outcome = predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .unwrap();
        let mut all: Vec<UserId> = (0..outcome.grouping.k)
            .flat_map(|g| outcome.group_members(g))
            .collect();
        all.sort();
        let mut expect = outcome.user_order.clone();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn too_few_users_errors() {
        let store = populated_store(1, 3);
        let (catalog, cache, transcode, link) = fixtures();
        let mut predictor = DtAssistedPredictor::new(scheme_config()).unwrap();
        assert!(predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .is_err());
    }

    #[test]
    fn compressor_trains_once_unless_invalidated() {
        let store = populated_store(20, 4);
        let (catalog, cache, transcode, link) = fixtures();
        let mut predictor = DtAssistedPredictor::new(scheme_config()).unwrap();
        predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .unwrap();
        let epochs_after_first = 15;
        predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .unwrap();
        // Second pass must not retrain.
        // (trained_epochs is internal to the compressor; verify via Debug.)
        let dbg = format!("{predictor:?}");
        assert!(
            dbg.contains(&format!("trained_epochs: {epochs_after_first}")),
            "{dbg}"
        );
        predictor.invalidate_compressor();
        predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .unwrap();
        let dbg = format!("{predictor:?}");
        assert!(dbg.contains(&format!("trained_epochs: {}", 2 * epochs_after_first)));
    }

    /// The pooled group pass changes scheduling only: every bit of the
    /// outcome (compared through its `Debug` text, which prints each
    /// float's shortest round-trip form) and the structure of the span
    /// tree are the same at pools of 1, 2 and 4 threads. Per-BS
    /// accounting is on so each group's per-BS hold tables run.
    #[test]
    fn predict_is_bit_identical_at_any_pool_size() {
        let store = populated_store(48, 6);
        let (catalog, cache, transcode, link) = fixtures();
        let run = |threads: usize| {
            let mut predictor = DtAssistedPredictor::new(SchemeConfig {
                grouping: GroupingConfig {
                    k_min: 2,
                    k_max: 6,
                    strategy: crate::grouping::GroupingStrategy::FixedK(5),
                    ..Default::default()
                },
                bs_positions: vec![
                    msvs_types::Position::new(300.0, 300.0),
                    msvs_types::Position::new(900.0, 300.0),
                    msvs_types::Position::new(300.0, 700.0),
                    msvs_types::Position::new(900.0, 700.0),
                ],
                per_bs_accounting: true,
                threads,
                ..scheme_config()
            })
            .unwrap();
            let telemetry = msvs_telemetry::Telemetry::new();
            predictor.attach_telemetry(telemetry.clone());
            let scope = telemetry.stage_scope(msvs_telemetry::stages::SCHEME_PREDICT);
            let outcome = predictor
                .predict(&store, &catalog, &cache, &transcode, &link)
                .unwrap();
            let predict_id = scope.id();
            drop(scope);
            let spans = telemetry.spans();
            let per_group: Vec<_> = spans
                .iter()
                .filter(|s| {
                    s.name == msvs_telemetry::stages::SWIPING_ABSTRACTION
                        || s.name == msvs_telemetry::stages::DEMAND_PREDICT
                })
                .collect();
            assert_eq!(per_group.len(), 2 * outcome.groups.len());
            assert!(per_group.iter().all(|s| s.parent == Some(predict_id)));
            let structure: Vec<_> = spans
                .iter()
                .map(msvs_telemetry::SpanRecord::structure)
                .collect();
            (format!("{outcome:?}"), structure, outcome.groups.len())
        };
        let (serial, serial_spans, groups) = run(1);
        assert!(groups >= 4, "{groups} non-empty groups");
        for threads in [2, 4] {
            let (pooled, pooled_spans, _) = run(threads);
            assert_eq!(pooled, serial, "threads={threads}");
            assert_eq!(pooled_spans, serial_spans, "threads={threads}");
        }
    }

    #[test]
    fn archetypes_end_up_separated() {
        // With strongly bimodal users the grouping should mostly separate
        // the two archetypes (even/odd users).
        let store = populated_store(40, 5);
        let (catalog, cache, transcode, link) = fixtures();
        let mut predictor = DtAssistedPredictor::new(SchemeConfig {
            grouping: GroupingConfig {
                k_min: 2,
                k_max: 4,
                strategy: crate::grouping::GroupingStrategy::FixedK(2),
                ..Default::default()
            },
            ..scheme_config()
        })
        .unwrap();
        let outcome = predictor
            .predict(&store, &catalog, &cache, &transcode, &link)
            .unwrap();
        // Count the majority label per parity.
        let mut same = 0;
        let mut total = 0;
        for (i, &a) in outcome.grouping.assignments.iter().enumerate() {
            for (j, &b) in outcome.grouping.assignments.iter().enumerate().skip(i + 1) {
                let same_arche = outcome.user_order[i].0 % 2 == outcome.user_order[j].0 % 2;
                if same_arche {
                    total += 1;
                    if a == b {
                        same += 1;
                    }
                }
            }
        }
        let purity = same as f64 / total as f64;
        assert!(purity > 0.8, "same-archetype pairs co-grouped: {purity}");
    }
}

#[cfg(test)]
mod snr_estimator_tests {
    use super::*;
    use msvs_types::{Position, SimTime};

    #[test]
    fn recent_mean_reports_history_average() {
        let estimator = SnrEstimator::RecentMean { window: 64 };
        // Strong samples while moving away at 4 m/s: the estimate follows
        // the collected channel, not the trajectory.
        let mut twin = UserDigitalTwin::new(UserId(1));
        for s in 0..10u64 {
            let t = SimTime::from_secs(s * 10);
            twin.update_channel(t, 20.0);
            twin.update_location(t, Position::new(100.0 + s as f64 * 40.0, 500.0));
        }
        let snr = estimator.estimate(&twin);
        assert!((snr - 20.0).abs() < 1e-9, "mean of identical samples");
        // No channel sample yet: the default.
        let bare = UserDigitalTwin::new(UserId(2));
        assert_eq!(estimator.estimate(&bare), DEFAULT_SNR_DB);
    }
}
