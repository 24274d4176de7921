//! Simulation configuration.

use msvs_channel::LinkConfig;
use msvs_core::{
    BackendKind, DemandPredictor, DtAssistedPredictor, HistoricalMeanPredictor, PipelineBacked,
    SchemeConfig,
};
use msvs_edge::EdgeConfig;
use msvs_types::{Error, Result, SimDuration, MAX_SHARDS};
use msvs_udt::CollectionPolicy;
use msvs_video::{CatalogConfig, EngagementModel};

/// Population shares of the three mobility models.
///
/// Shares are relative weights (normalised internally); a campus mixes
/// walkers heading between buildings, meanderers, and seated users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityMix {
    /// Random-waypoint walkers (destination-driven).
    pub waypoint: f64,
    /// Gauss–Markov meanderers.
    pub gauss_markov: f64,
    /// Static (seated) users.
    pub static_users: f64,
}

impl Default for MobilityMix {
    /// 60% walkers, 15% meanderers, 25% seated.
    fn default() -> Self {
        Self {
            waypoint: 0.6,
            gauss_markov: 0.15,
            static_users: 0.25,
        }
    }
}

impl MobilityMix {
    /// All users walk (the original single-model behaviour).
    pub fn all_waypoint() -> Self {
        Self {
            waypoint: 1.0,
            gauss_markov: 0.0,
            static_users: 0.0,
        }
    }

    /// Validates that weights are non-negative with a positive sum.
    ///
    /// # Errors
    /// Returns `InvalidConfig` otherwise.
    pub fn validate(&self) -> Result<()> {
        let parts = [self.waypoint, self.gauss_markov, self.static_users];
        if parts.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(Error::invalid_config(
                "mobility mix",
                "weights must be finite and non-negative",
            ));
        }
        if parts.iter().sum::<f64>() <= 0.0 {
            return Err(Error::invalid_config(
                "mobility mix",
                "at least one weight must be positive",
            ));
        }
        Ok(())
    }
}

/// Which predictor produces the demand figures scored by the simulator.
///
/// Grouping and playback always run through the DT pipeline; this selects
/// whose *demand numbers* are compared against the measured ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandPredictorKind {
    /// The paper's scheme: swiping-abstraction-driven prediction.
    Scheme,
    /// Ablation: same pipeline but every video presumed fully transmitted
    /// (no swiping abstraction).
    NaiveFullWatch,
    /// Twin-free EWMA over past actual demands.
    HistoricalMean {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

impl DemandPredictorKind {
    /// Builds the predictor this kind names, around `scheme`.
    ///
    /// Grouping and playback always need the DT pipeline's
    /// [`msvs_core::PredictionOutcome`], so scalar predictors come wrapped
    /// in [`PipelineBacked`].
    ///
    /// # Errors
    /// Propagates configuration errors from the underlying predictors.
    pub fn build(&self, mut scheme: SchemeConfig) -> Result<Box<dyn DemandPredictor>> {
        match *self {
            DemandPredictorKind::Scheme => Ok(Box::new(DtAssistedPredictor::new(scheme)?)),
            DemandPredictorKind::NaiveFullWatch => {
                scheme.demand.assume_full_watch = true;
                Ok(Box::new(DtAssistedPredictor::new(scheme)?))
            }
            DemandPredictorKind::HistoricalMean { alpha } => {
                let pipeline = DtAssistedPredictor::new(scheme)?;
                let scored = HistoricalMeanPredictor::new(alpha)?;
                Ok(Box::new(PipelineBacked::new(pipeline, scored)))
            }
        }
    }
}

/// Full simulation parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of streaming users on campus.
    pub n_users: usize,
    /// Number of base stations (placed on a grid).
    pub n_bs: usize,
    /// Reservation interval length (paper: 5 minutes).
    pub interval: SimDuration,
    /// Number of *scored* reservation intervals to simulate.
    pub n_intervals: usize,
    /// Unscored warm-up intervals (twins fill, CNN/DDQN train).
    pub warmup_intervals: usize,
    /// Status-collection tick within an interval.
    pub tick: SimDuration,
    /// Video catalog generation.
    pub catalog: CatalogConfig,
    /// Ground-truth engagement behaviour.
    pub engagement: EngagementModel,
    /// Dirichlet sharpness of user tastes (small = opinionated users).
    pub taste_alpha: f64,
    /// Pedestrian mean speed, m/s.
    pub mean_speed: f64,
    /// Population shares of the mobility models.
    pub mobility: MobilityMix,
    /// Twin collection policy (per-attribute periods).
    pub collection: CollectionPolicy,
    /// The prediction scheme under test.
    pub scheme: SchemeConfig,
    /// Which predictor's numbers get scored.
    pub predictor: DemandPredictorKind,
    /// DDQN grouping pretraining rounds run at the end of warm-up.
    pub pretrain_rounds: usize,
    /// Optional reservation policy: when set, every interval plans a
    /// reservation from the prediction and scores it against the measured
    /// demand (the paper's future work).
    pub reservation: Option<msvs_core::ReservationPolicy>,
    /// Per-interval user churn: fraction of users replaced with fresh
    /// arrivals (new profile, position, and an empty twin) at the start of
    /// each interval.
    pub churn_rate: f64,
    /// Account radio demand per base station (each BS multicasts the group
    /// stream to its attached members and stops at the last *local*
    /// swipe). The paper's evaluation uses the simpler single-cell
    /// accounting, so this defaults to `false`; enabling it is the
    /// more-realistic extension mode (see EXPERIMENTS.md E8).
    pub per_bs_accounting: bool,
    /// Radio link parameters.
    pub link: LinkConfig,
    /// Edge server parameters.
    pub edge: EdgeConfig,
    /// Optional fault-injection plan: seeded uplink loss/delay/corruption,
    /// churn bursts, and edge brownouts. `None` (or a no-op plan) leaves
    /// the simulation bit-identical to a fault-free run; a live plan also
    /// enables the scheme's graceful-degradation ladder.
    pub faults: Option<msvs_faults::FaultPlan>,
    /// Optional SLO policy judged by the deterministic watchdog at each
    /// interval boundary (availability/coverage floors, degraded-interval
    /// budget, wall-clock stage-p99 ceilings). `None` (or an empty
    /// policy) leaves the simulation bit-identical to an unwatched run.
    pub slo: Option<msvs_telemetry::SloPolicy>,
    /// Worker threads for the parallel hot paths (per-user collection,
    /// CNN encode, silhouette): `1` = serial, `0` = all available cores,
    /// the default. Seeded runs produce bit-identical reports at any
    /// thread count.
    pub threads: usize,
    /// Base-station shards the deployment partitions into (`1` = the
    /// legacy single-cell path). Each shard owns its own twin registry
    /// and local video-cache tier; users handover
    /// between shards as mobility crosses cell boundaries. Defaults to
    /// `1`. Seeded runs produce bit-identical reports at any shard count.
    pub shards: usize,
    /// Always [`BackendKind::Scalar`]; see its docs.
    pub backend: BackendKind,
    /// Ignored; kept because `e2ebench/` names it; drop at the next
    /// benchmark change. Every interval runs the exact prediction pass.
    pub incremental: bool,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        let mut scheme = SchemeConfig::default();
        scheme.demand.interval = SimDuration::from_mins(5);
        Self {
            n_users: 120,
            n_bs: 4,
            interval: SimDuration::from_mins(5),
            n_intervals: 12,
            warmup_intervals: 2,
            tick: SimDuration::from_secs(5),
            catalog: CatalogConfig::default(),
            engagement: EngagementModel::default(),
            taste_alpha: 0.35,
            mean_speed: 1.4,
            mobility: MobilityMix::default(),
            collection: CollectionPolicy::default(),
            scheme,
            predictor: DemandPredictorKind::Scheme,
            pretrain_rounds: 250,
            reservation: None,
            churn_rate: 0.0,
            per_bs_accounting: false,
            link: LinkConfig::default(),
            edge: EdgeConfig {
                // Small enough that the cache churns and transcoding stays
                // part of steady-state computing demand.
                cache_capacity_mb: 30_000.0,
                ..EdgeConfig::default()
            },
            faults: None,
            slo: None,
            threads: 0,
            shards: 1,
            backend: BackendKind::Scalar,
            incremental: false,
            seed: 0,
        }
    }
}

impl SimulationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns `InvalidConfig` describing the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.n_users < self.scheme.grouping.k_min {
            return Err(Error::invalid_config(
                "n_users",
                format!("need at least k_min={} users", self.scheme.grouping.k_min),
            ));
        }
        if self.n_bs == 0 {
            return Err(Error::invalid_config("n_bs", "need at least one BS"));
        }
        if self.interval == SimDuration::ZERO || self.tick == SimDuration::ZERO {
            return Err(Error::invalid_config("interval/tick", "must be non-zero"));
        }
        if self.tick > self.interval {
            return Err(Error::invalid_config(
                "tick",
                "must not exceed the interval",
            ));
        }
        if self.n_intervals == 0 {
            return Err(Error::invalid_config("n_intervals", "must be positive"));
        }
        if self.taste_alpha <= 0.0 {
            return Err(Error::invalid_config("taste_alpha", "must be positive"));
        }
        if self.mean_speed <= 0.0 {
            return Err(Error::invalid_config("mean_speed", "must be positive"));
        }
        self.mobility.validate()?;
        if !(0.0..=1.0).contains(&self.churn_rate) {
            return Err(Error::invalid_config("churn_rate", "must be in [0, 1]"));
        }
        if let Some(policy) = &self.reservation {
            policy.validate()?;
        }
        if let DemandPredictorKind::HistoricalMean { alpha } = self.predictor {
            if !(alpha > 0.0 && alpha <= 1.0) {
                return Err(Error::invalid_config("alpha", "must be in (0, 1]"));
            }
        }
        self.collection.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(policy) = &self.slo {
            policy.validate().map_err(|(field, reason)| {
                Error::invalid_config("slo", format!("{field} {reason}"))
            })?;
        }
        self.scheme.degradation.validate()?;
        if self.scheme.demand.interval != self.interval {
            return Err(Error::invalid_config(
                "scheme.demand.interval",
                "must match the simulation interval",
            ));
        }
        if self.threads > 1024 {
            return Err(Error::invalid_config(
                "threads",
                "must be at most 1024 (0 = all available cores)",
            ));
        }
        if self.shards == 0 {
            return Err(Error::invalid_config(
                "shards",
                "need at least one shard (1 = single-cell deployment)",
            ));
        }
        if self.shards > MAX_SHARDS {
            return Err(Error::invalid_config(
                "shards",
                format!("must be at most {MAX_SHARDS}"),
            ));
        }
        Ok(())
    }

    /// Starts a validating builder seeded with the defaults.
    ///
    /// ```
    /// use msvs_sim::SimulationConfig;
    /// let config = SimulationConfig::builder()
    ///     .users(50)
    ///     .threads(2)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.n_users, 50);
    /// assert!(SimulationConfig::builder().users(0).build().is_err());
    /// ```
    pub fn builder() -> SimulationConfigBuilder {
        SimulationConfigBuilder::default()
    }
}

/// Validating builder for [`SimulationConfig`].
///
/// Every setter is infallible; [`build`](Self::build) keeps the derived
/// invariants (the scheme's demand interval always matches the simulation
/// interval) and then validates the whole configuration, returning
/// [`Error::InvalidConfig`] for the first violated constraint.
#[derive(Debug, Clone, Default)]
pub struct SimulationConfigBuilder {
    config: SimulationConfig,
}

impl SimulationConfigBuilder {
    /// Number of streaming users.
    pub fn users(mut self, n: usize) -> Self {
        self.config.n_users = n;
        self
    }

    /// Number of base stations.
    pub fn base_stations(mut self, n: usize) -> Self {
        self.config.n_bs = n;
        self
    }

    /// Reservation interval length.
    pub fn interval(mut self, interval: SimDuration) -> Self {
        self.config.interval = interval;
        self
    }

    /// Number of scored intervals.
    pub fn intervals(mut self, n: usize) -> Self {
        self.config.n_intervals = n;
        self
    }

    /// Unscored warm-up intervals.
    pub fn warmup_intervals(mut self, n: usize) -> Self {
        self.config.warmup_intervals = n;
        self
    }

    /// Status-collection tick.
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.config.tick = tick;
        self
    }

    /// Worker threads (`1` = serial, `0` = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Base-station shards (`1` = single-cell deployment).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets [`SimulationConfig::backend`] (only `Scalar` exists).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets [`SimulationConfig::incremental`], which is ignored.
    pub fn incremental(mut self, enabled: bool) -> Self {
        self.config.incremental = enabled;
        self
    }

    /// Sample cap for silhouette scoring (`0` disables sampling; above
    /// the cap a fixed-seed subsample keeps the O(n²) score tractable).
    pub fn silhouette_cap(mut self, cap: usize) -> Self {
        self.config.scheme.grouping.silhouette_sample_cap = cap;
        self
    }

    /// The scored predictor.
    pub fn predictor(mut self, predictor: DemandPredictorKind) -> Self {
        self.config.predictor = predictor;
        self
    }

    /// The scheme configuration under test.
    pub fn scheme(mut self, scheme: SchemeConfig) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// DDQN pretraining rounds at the end of warm-up.
    pub fn pretrain_rounds(mut self, rounds: usize) -> Self {
        self.config.pretrain_rounds = rounds;
        self
    }

    /// Per-interval churn rate in `[0, 1]`.
    pub fn churn_rate(mut self, rate: f64) -> Self {
        self.config.churn_rate = rate;
        self
    }

    /// Optional reservation policy to plan and score.
    pub fn reservation(mut self, policy: msvs_core::ReservationPolicy) -> Self {
        self.config.reservation = Some(policy);
        self
    }

    /// Per-BS radio accounting extension mode.
    pub fn per_bs_accounting(mut self, enabled: bool) -> Self {
        self.config.per_bs_accounting = enabled;
        self
    }

    /// Fault-injection plan to run under.
    pub fn faults(mut self, plan: msvs_faults::FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// SLO policy for the deterministic watchdog to judge.
    pub fn slo(mut self, policy: msvs_telemetry::SloPolicy) -> Self {
        self.config.slo = Some(policy);
        self
    }

    /// Master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes the build, syncing derived fields and validating.
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] for the first violated constraint.
    pub fn build(mut self) -> Result<SimulationConfig> {
        // The demand model spreads predictions over the reservation
        // interval; keep the two clocks in lockstep so the builder can't
        // produce the mismatch `validate` would reject.
        self.config.scheme.demand.interval = self.config.interval;
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SimulationConfig::default().validate().unwrap();
    }

    #[test]
    fn catches_inconsistencies() {
        let bad = SimulationConfig {
            n_users: 1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimulationConfig {
            n_bs: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimulationConfig {
            tick: SimDuration::from_mins(10),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let mut bad = SimulationConfig::default();
        bad.scheme.demand.interval = SimDuration::from_mins(1);
        assert!(bad.validate().is_err());
        let bad = SimulationConfig {
            predictor: DemandPredictorKind::HistoricalMean { alpha: 2.0 },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builder_produces_validated_config() {
        let config = SimulationConfig::builder()
            .users(48)
            .base_stations(2)
            .intervals(3)
            .warmup_intervals(1)
            .interval(SimDuration::from_mins(2))
            .tick(SimDuration::from_secs(10))
            .threads(4)
            .churn_rate(0.1)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(config.n_users, 48);
        assert_eq!(config.threads, 4);
        // The builder keeps the demand interval in lockstep.
        assert_eq!(config.scheme.demand.interval, SimDuration::from_mins(2));
    }

    #[test]
    fn builder_sets_backend_and_silhouette_cap() {
        let config = SimulationConfig::builder()
            .backend(BackendKind::Scalar)
            .silhouette_cap(512)
            .build()
            .unwrap();
        assert_eq!(config.backend, BackendKind::Scalar);
        assert_eq!(config.scheme.grouping.silhouette_sample_cap, 512);
        // `0` disables sampling and is valid.
        assert!(SimulationConfig::builder()
            .silhouette_cap(0)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        let err = SimulationConfig::builder().users(0).build().unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        assert!(SimulationConfig::builder().churn_rate(1.5).build().is_err());
        assert!(SimulationConfig::builder()
            .tick(SimDuration::from_mins(30))
            .build()
            .is_err());
        assert!(SimulationConfig::builder().threads(4096).build().is_err());
        assert!(SimulationConfig::builder().shards(0).build().is_err());
        assert!(SimulationConfig::builder().shards(4096).build().is_err());
        assert!(SimulationConfig::builder()
            .predictor(DemandPredictorKind::HistoricalMean { alpha: 0.0 })
            .build()
            .is_err());
    }
}
