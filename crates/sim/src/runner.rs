//! The simulation: the campus scenario and the interval pipeline
//! (collect → predict → playback → observe) that drives it.

use msvs_channel::Link;
use msvs_core::demand::prediction_accuracy;
use msvs_core::{DegradationSignal, DemandPredictor, PredictionContext, PredictionOutcome};
use msvs_edge::EdgeServer;
use msvs_faults::{DelayQueue, FaultCounts, FaultInjector, FaultPlan, ReportFate};
use msvs_mobility::{CampusMap, MobilityModel, RandomWaypoint};
use msvs_par::Pool;
use msvs_shard::{HandoverUser, OutagePhase, ShardCoordinator, ShardRouter};
use msvs_telemetry::{
    slo, stage, Event, HealthBoard, HealthSnapshot, ShardHealth, SloEdge, SloSignals, SloWatchdog,
    Telemetry,
};
use msvs_types::{
    CpuCycles, Error, Position, ResourceBlocks, Result, SimDuration, SimTime, UserId,
};
use msvs_udt::{
    Attribute, CollectionPolicy, SyncTracker, TwinReports, UserDigitalTwin, WatchRecord,
};
use msvs_video::{Catalog, UserProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::SimulationConfig;
use crate::metrics::{IntervalRecord, SimulationReport};

/// Rate at which a preference refresh pulls the twin's preference towards
/// the categories its user recently engaged with.
const PREFERENCE_RATE: f64 = 0.4;

/// Per-user fault-injection state: in-flight delayed reports plus the
/// tallies and journal records accumulated *inside* the parallel
/// collection region. Both are drained serially, in user-vector order,
/// after the pool joins — journal emission from worker threads would make
/// the event order depend on scheduling.
#[derive(Default)]
struct UserFaults {
    /// In-flight delayed reports, one queue per [`Attribute`] index.
    delayed: [DelayQueue<Report>; 3],
    counts: FaultCounts,
    /// `(t_ms, attribute, fate label)` per injected fault, tick order.
    events: Vec<(u64, Attribute, &'static str)>,
}

/// Ground-truth state of one simulated user.
struct SimUser {
    id: UserId,
    profile: UserProfile,
    mobility: Box<dyn MobilityModel>,
    rng: StdRng,
    tracker: SyncTracker,
    /// SNR samples observed this interval (ground truth, every tick).
    interval_snrs: Vec<f64>,
    /// Fault-injection state; untouched when no fault plan is active.
    faults: UserFaults,
    /// Nearest BS at the last collect tick. Nobody moves between that
    /// tick and playback, so it is the serving cell for the whole
    /// interval's accounting.
    bs: usize,
    /// Serving cell of the previous interval; `None` for a fresh arrival,
    /// so churn never counts as a handover.
    last_bs: Option<usize>,
}

/// The resolved fault-injection machinery, present only when the
/// configured plan actually injects something (a no-op plan is treated
/// exactly like no plan, keeping fault-free runs bit-identical).
struct FaultRuntime {
    plan: FaultPlan,
    injector: FaultInjector,
}

/// Builds a mobility model for one user according to the configured mix.
fn build_mobility(
    map: &CampusMap,
    config: &SimulationConfig,
    seed: u64,
    choice_rng: &mut StdRng,
) -> Box<dyn MobilityModel> {
    let weights = [
        config.mobility.waypoint,
        config.mobility.gauss_markov,
        config.mobility.static_users,
    ];
    match msvs_types::stats::weighted_index(choice_rng, &weights).unwrap_or(0) {
        0 => Box::new(RandomWaypoint::new(map, config.mean_speed, seed)),
        1 => Box::new(msvs_mobility::GaussMarkov::new(
            map,
            config.mean_speed,
            0.85,
            seed,
        )),
        _ => Box::new(msvs_mobility::StaticMobility::random(map, seed)),
    }
}

impl SimUser {
    /// A fresh arrival: nothing collected yet, no reports in flight.
    fn new(id: UserId, profile: UserProfile, mobility: Box<dyn MobilityModel>, seed: u64) -> Self {
        Self {
            id,
            profile,
            mobility,
            rng: StdRng::seed_from_u64(seed),
            tracker: SyncTracker::new(),
            interval_snrs: Vec::new(),
            faults: UserFaults::default(),
            bs: 0,
            last_bs: None,
        }
    }

    fn mean_interval_snr(&self) -> f64 {
        if self.interval_snrs.is_empty() {
            10.0
        } else {
            msvs_types::stats::mean(&self.interval_snrs)
        }
    }
}

/// Each user's id and sync tracker, which move with the twin when the
/// user changes shard.
fn handover_users(users: &mut [SimUser]) -> Vec<HandoverUser<'_>> {
    users
        .iter_mut()
        .map(|u| HandoverUser {
            user: u.id,
            tracker: &mut u.tracker,
        })
        .collect()
}

/// The predict phase's output: the scored predictor's totals and
/// degradation signal, and the pipeline outcome playback follows.
struct Predicted {
    outcome: PredictionOutcome,
    radio: ResourceBlocks,
    computing: CpuCycles,
    degradation: Option<DegradationSignal>,
    wall_ms: f64,
}

/// The playback phase's output: actual demands measured while playing
/// one interval out.
#[derive(Debug, Clone, Copy, Default)]
struct ActualDemand {
    radio: f64,
    computing: f64,
    unicast_radio: f64,
    traffic_mb: f64,
    wasted_mb: f64,
}

/// The end-to-end simulation.
///
/// Construct with [`Simulation::new`] and drive with
/// [`Simulation::warm_up`] and [`Simulation::run_interval`], or run the
/// whole schedule with [`Simulation::run_schedule`] (or
/// [`Simulation::run`] from a config).
pub struct Simulation {
    config: SimulationConfig,
    map: CampusMap,
    bs_positions: Vec<Position>,
    users: Vec<SimUser>,
    catalog: Catalog,
    link: Link,
    edge: EdgeServer,
    store: ShardCoordinator,
    predictor: Box<dyn DemandPredictor>,
    pool: Pool,
    now: SimTime,
    intervals_run: usize,
    updates_sent_before: u64,
    retries_sent_before: u64,
    faults: Option<FaultRuntime>,
    churn_rng: StdRng,
    churned_users: u64,
    prev_assignments: Option<std::collections::HashMap<UserId, usize>>,
    last_outcome: Option<PredictionOutcome>,
    telemetry: Telemetry,
    slo: Option<SloWatchdog>,
    slo_breach_edges: u64,
    health: HealthBoard,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("users", &self.users.len())
            .field("now", &self.now)
            .field("intervals_run", &self.intervals_run)
            .finish()
    }
}

impl Simulation {
    /// Builds the campus scenario: map, BS grid, users with ground-truth
    /// profiles and mobility, twins registered in the store. The scored
    /// predictor is constructed from `config.predictor` via
    /// [`crate::DemandPredictorKind::build`].
    ///
    /// # Errors
    /// Propagates configuration and generation errors.
    pub fn new(mut config: SimulationConfig) -> Result<Self> {
        config.validate()?;
        let (map, bs_positions, pool) = resolve_scenario(&mut config);
        let predictor = config.predictor.build(config.scheme.clone())?;
        Self::assemble(config, map, bs_positions, pool, predictor)
    }

    /// Builds the scenario around a caller-supplied predictor, bypassing
    /// the [`crate::DemandPredictorKind`] factory. This is the plug-in
    /// point for custom [`DemandPredictor`] implementations; the
    /// `config.predictor` field is ignored.
    ///
    /// The predictor must produce a [`PredictionOutcome`] from every
    /// `predict` call (wrap scalar predictors in
    /// [`msvs_core::PipelineBacked`]) — the simulator needs the grouping to
    /// play intervals out.
    ///
    /// # Errors
    /// Propagates configuration and generation errors.
    pub fn with_predictor(
        mut config: SimulationConfig,
        predictor: Box<dyn DemandPredictor>,
    ) -> Result<Self> {
        config.validate()?;
        let (map, bs_positions, pool) = resolve_scenario(&mut config);
        Self::assemble(config, map, bs_positions, pool, predictor)
    }

    fn assemble(
        config: SimulationConfig,
        map: CampusMap,
        bs_positions: Vec<Position>,
        pool: Pool,
        mut predictor: Box<dyn DemandPredictor>,
    ) -> Result<Self> {
        let catalog = Catalog::generate(config.catalog)?;
        let mut edge = EdgeServer::new(config.edge, &catalog);
        let link = Link::new(config.link);
        // Each shard owns an equal slice of the edge cache capacity as its
        // local video-cache tier (a telemetry-only hierarchical-CDN side
        // channel; the scored edge cache stays global).
        let mut store = ShardCoordinator::new(
            ShardRouter::new(bs_positions.clone(), config.shards),
            pool,
            config.edge.cache_capacity_mb / config.shards as f64,
        );
        let mut users = Vec::with_capacity(config.n_users);
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        for u in 0..config.n_users {
            let id = UserId(u as u32);
            let profile = UserProfile::generate(id, config.taste_alpha, &mut seed_rng);
            let mobility = build_mobility(
                &map,
                &config,
                config.seed.wrapping_add(1000 + u as u64),
                &mut seed_rng,
            );
            store.insert(UserDigitalTwin::new(id), mobility.position());
            let seed = config.seed.wrapping_add(5000 + u as u64);
            users.push(SimUser::new(id, profile, mobility, seed));
        }
        let telemetry = Telemetry::new();
        predictor.attach_telemetry(telemetry.clone());
        edge.attach_telemetry(telemetry.clone());
        store.attach_telemetry(telemetry.clone());
        telemetry.emit(Event::RunStarted {
            scheme: predictor.name().to_string(),
            seed: config.seed,
        });
        let churn_rng = StdRng::seed_from_u64(config.seed ^ 0xC0FF_EE00);
        // A no-op plan builds no runtime: fault hooks stay cold and the
        // run is bit-identical to one with `faults: None`.
        let faults = config
            .faults
            .clone()
            .filter(|p| !p.is_noop())
            .map(|plan| FaultRuntime {
                injector: FaultInjector::new(&plan, config.seed),
                plan,
            });
        // Same noop guarantee for SLOs: an empty policy builds no
        // watchdog, so the run is bit-identical to one with `slo: None`.
        let slo = config
            .slo
            .clone()
            .filter(|p| !p.is_noop())
            .map(SloWatchdog::new);
        Ok(Self {
            config,
            map,
            bs_positions,
            users,
            catalog,
            link,
            edge,
            store,
            predictor,
            pool,
            now: SimTime::ZERO,
            intervals_run: 0,
            updates_sent_before: 0,
            retries_sent_before: 0,
            faults,
            churn_rng,
            churned_users: 0,
            prev_assignments: None,
            last_outcome: None,
            telemetry,
            slo,
            slo_breach_edges: 0,
            health: HealthBoard::new(),
        })
    }

    /// Simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Name of the scored predictor (run manifests, journals).
    pub fn predictor_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// Resolved worker-thread count (after `0` → all available cores).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The sharded twin registry (inspection). With `shards: 1` this is
    /// a transparent facade over the single legacy store.
    pub fn store(&self) -> &ShardCoordinator {
        &self.store
    }

    /// Snapshots every shard into a
    /// [`ShardCheckpoint`](msvs_shard::ShardCheckpoint) at the current
    /// interval boundary, pairing each twin with its user's live
    /// `SyncTracker` state. Works at any shard count (a single-shard run
    /// yields one checkpoint of the whole population).
    pub fn checkpoint_shards(&self) -> Vec<msvs_shard::ShardCheckpoint> {
        let trackers: std::collections::HashMap<UserId, &SyncTracker> =
            self.users.iter().map(|u| (u.id, &u.tracker)).collect();
        let interval = self.intervals_run as u64;
        self.store
            .shards()
            .iter()
            .map(|shard| {
                msvs_shard::ShardCheckpoint::capture(shard, interval, |id| {
                    trackers.get(&id).map(|t| (*t).clone()).unwrap_or_default()
                })
            })
            .collect()
    }

    /// The campus map in use.
    pub fn map(&self) -> &CampusMap {
        &self.map
    }

    /// The video catalog in use.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The most recent prediction outcome (swiping curves, groupings).
    pub fn last_outcome(&self) -> Option<&PredictionOutcome> {
        self.last_outcome.as_ref()
    }

    /// The telemetry handle shared by every subsystem: stage-latency
    /// histograms, counters, and the event journal.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs warm-up plus all scored intervals, returning the report.
    ///
    /// # Errors
    /// Propagates scenario construction and pipeline errors.
    pub fn run(config: SimulationConfig) -> Result<SimulationReport> {
        Simulation::new(config)?.run_schedule()
    }

    /// Runs the configured schedule — warm-up, then every scored
    /// interval — marks the run finished on the health board and returns
    /// the report. The telemetry and health handles stay reachable before
    /// and after, for a live metrics server and journal exports.
    ///
    /// # Errors
    /// Propagates pipeline errors.
    pub fn run_schedule(&mut self) -> Result<SimulationReport> {
        self.warm_up()?;
        let mut report = SimulationReport::default();
        for i in 0..self.config.n_intervals {
            report.intervals.push(self.run_interval(i)?);
        }
        report.telemetry = self.telemetry.summary();
        report.shards = self.store.sharded().then(|| self.store.summary());
        report.slo = self.slo_report();
        self.finish_health();
        Ok(report)
    }

    /// Runs the configured warm-up intervals: the full pipeline executes
    /// (twins fill, the CNN trains, the DDQN learns, playback happens) but
    /// nothing is scored; afterwards the grouping agent is pretrained for
    /// `pretrain_rounds` constructions.
    ///
    /// # Errors
    /// Propagates pipeline errors.
    pub fn warm_up(&mut self) -> Result<()> {
        for _ in 0..self.config.warmup_intervals {
            self.interval(None)?;
        }
        if self.config.pretrain_rounds > 0 {
            self.predictor
                .pretrain(&self.store, self.config.pretrain_rounds)?;
        }
        Ok(())
    }

    /// Runs one scored reservation interval.
    ///
    /// # Errors
    /// Propagates pipeline errors.
    pub fn run_interval(&mut self, index: usize) -> Result<IntervalRecord> {
        let record = self.interval(Some(index as u64))?;
        Ok(record.expect("a scored interval is recorded"))
    }

    /// One reservation interval: collect → predict → playback → observe.
    /// `scored` is the scored interval's index; a warm-up interval
    /// (`None`) runs the same phases but skips what only scored intervals
    /// do (DESIGN.md, "Interval pipeline") and yields no record.
    fn interval(&mut self, scored: Option<u64>) -> Result<Option<IntervalRecord>> {
        // Root span covering every phase, so child stage spans nest under
        // it in trace exports; no interval attribute marks warm-up.
        let mut interval_scope = self.telemetry.stage_scope(stage::INTERVAL);
        if let Some(index) = scored {
            self.telemetry
                .emit(Event::IntervalStarted { interval: index });
            interval_scope.set_interval(index);
        }
        self.collect(scored);
        let predicted = self.predict(scored)?;
        let (actual, playback_wall_ms) = self.playback(&predicted.outcome, scored);
        self.observe(scored, predicted, actual, playback_wall_ms)
    }

    /// Feeds the scored interval's signals to the SLO watchdog and the
    /// health board, then samples the gauges. The watchdog gets sim-time
    /// signals plus live wall-clock stage p99s for any configured
    /// ceilings; it journals breach/recovery edges and bumps
    /// `slo_breaches_total{slo}` per breach. Gauge samples feed Perfetto
    /// counter tracks in trace exports and the board feeds `/healthz`;
    /// neither is read back by the report.
    fn observe_health(&mut self, interval: u64, record: &IntervalRecord) {
        let summary = self.store.sharded().then(|| self.store.summary());
        let degraded_intervals = self
            .telemetry
            .counter("degraded_intervals_total", "all")
            .get();
        if let Some(watchdog) = self.slo.as_mut() {
            let min_shard_availability = summary.as_ref().map(|s| {
                s.demand
                    .iter()
                    .map(|row| row.availability)
                    .fold(f64::INFINITY, f64::min)
            });
            let mut stage_p99_ms = std::collections::BTreeMap::new();
            for stage_name in watchdog.policy().stage_p99_ms.keys() {
                let p99 = self
                    .telemetry
                    .registry()
                    .histogram(msvs_telemetry::STAGE_MS, stage_name.clone())
                    .quantile(0.99);
                stage_p99_ms.insert(stage_name.clone(), p99);
            }
            let signals = SloSignals {
                interval,
                min_shard_availability,
                twin_coverage: record.twin_coverage,
                degraded_intervals,
                stage_p99_ms,
            };
            for transition in watchdog.observe(&signals) {
                match transition.edge {
                    SloEdge::Breached => {
                        self.slo_breach_edges += 1;
                        self.telemetry
                            .counter(slo::SLO_BREACHES_TOTAL, transition.slo.clone())
                            .inc();
                        self.telemetry.emit(Event::SloBreached {
                            interval: transition.interval,
                            slo: transition.slo,
                            value: transition.value,
                            threshold: transition.threshold,
                        });
                    }
                    SloEdge::Recovered => {
                        self.telemetry.emit(Event::SloRecovered {
                            interval: transition.interval,
                            slo: transition.slo,
                            value: transition.value,
                            threshold: transition.threshold,
                        });
                    }
                }
            }
        }
        self.telemetry.sample_gauges();
        let shards = summary.map_or_else(Vec::new, |s| {
            s.demand
                .iter()
                .map(|row| ShardHealth {
                    shard: row.shard as u64,
                    availability: row.availability,
                    down_intervals: row.down_intervals,
                })
                .collect()
        });
        self.health.publish(HealthSnapshot {
            state: "running".to_string(),
            intervals_completed: interval + 1,
            intervals_total: self.config.n_intervals as u64,
            users: self.users.len() as u64,
            twin_coverage: record.twin_coverage,
            degraded: record.degraded,
            degraded_intervals,
            shards,
            slo_breaches: self.slo_breach_edges,
            slo_breached: self
                .slo
                .as_ref()
                .is_some_and(|w| w.report().rules.iter().any(|r| r.breached_at_end)),
        });
    }

    /// The health board backing `/healthz`; hand a clone to
    /// [`msvs_telemetry::MetricsServer::bind`] to serve it live.
    pub fn health_board(&self) -> &HealthBoard {
        &self.health
    }

    /// Marks the run finished on the health board, keeping the final
    /// interval's signals visible to late scrapes.
    pub fn finish_health(&self) {
        let mut snapshot = self.health.snapshot();
        snapshot.state = "finished".to_string();
        self.health.publish(snapshot);
    }

    /// End-of-run SLO accounting, or `None` without a live policy.
    pub fn slo_report(&self) -> Option<msvs_telemetry::SloReport> {
        self.slo.as_ref().map(SloWatchdog::report)
    }

    /// Whether any SLO rule has burned past the policy's breach budget.
    pub fn slo_hard_breached(&self) -> bool {
        self.slo.as_ref().is_some_and(SloWatchdog::hard_breached)
    }

    /// Applies the fault plan's shard-outage schedule for this interval
    /// and journals the resulting health transitions. Runs every scored
    /// interval of a sharded deployment (the availability denominator is
    /// the scored-interval count); outage specs for shards the
    /// deployment doesn't have, and single-shard runs, are ignored.
    fn apply_outage_transitions(&mut self, index: u64) {
        if !self.store.sharded() {
            return;
        }
        let plan = self.faults.as_ref().map(|rt| &rt.plan);
        let mut handover = handover_users(&mut self.users);
        let transitions = self.store.apply_outages(
            index,
            |shard| plan.and_then(|p| p.outage_at(shard, index)),
            &mut handover,
        );
        for t in transitions {
            match t.phase {
                OutagePhase::Down => self.telemetry.emit(Event::ShardDown {
                    interval: index,
                    shard: t.shard as u64,
                    mode: t.mode.label().to_string(),
                    failed_over: t.failed_over,
                    checkpoint_bytes: t.checkpoint_bytes,
                }),
                OutagePhase::Restored => self.telemetry.emit(Event::ShardRestored {
                    interval: index,
                    shard: t.shard as u64,
                    mode: t.mode.label().to_string(),
                    recovered: t.checkpoint_users,
                }),
            }
        }
    }

    /// Fires the fault plan's interval-scheduled faults: churn bursts
    /// (mass leave/join on top of the baseline churn) and edge brownouts
    /// (reduced cache capacity for the interval's serves).
    fn apply_scheduled_faults(&mut self, index: u64) {
        let Some(rt) = &self.faults else { return };
        let burst = rt.plan.churn_at(index);
        let scale = rt.plan.brownout_scale_at(index);
        if let Some(fraction) = burst {
            let n = (self.users.len() as f64 * fraction).floor() as usize;
            let replaced = self.replace_users(n);
            self.telemetry.emit(Event::ChurnBurst {
                interval: index,
                replaced,
            });
        }
        if scale < 1.0 {
            self.edge.set_capacity_scale(scale);
            self.telemetry.emit(Event::BrownoutApplied {
                interval: index,
                capacity_scale: scale,
            });
        } else if self.edge.cache().capacity_scale() < 1.0 {
            // Brownout over: capacity returns, the cache refills through
            // normal inserts.
            self.edge.set_capacity_scale(1.0);
        }
    }

    /// Total users replaced by churn so far.
    pub fn churned_users(&self) -> u64 {
        self.churned_users
    }

    /// Replaces `n` uniformly drawn users with fresh arrivals — a new
    /// ground-truth profile and trajectory, and an *empty* twin the
    /// predictor has to cope with — returning how many were replaced.
    /// Shared by baseline churn and fault-plan churn bursts (both consume
    /// the same churn RNG stream).
    fn replace_users(&mut self, n: usize) -> u64 {
        if n == 0 {
            return 0;
        }
        use rand::Rng as _;
        for _ in 0..n {
            let idx = self.churn_rng.gen_range(0..self.users.len());
            self.churned_users += 1;
            let id = self.users[idx].id; // the id slot is reused
            let salt = self.churned_users;
            let profile = UserProfile::generate(id, self.config.taste_alpha, &mut self.churn_rng);
            let mobility = build_mobility(
                &self.map,
                &self.config,
                self.config.seed.wrapping_add(0xC0DE_0000 + salt),
                &mut self.churn_rng,
            );
            self.store
                .insert(UserDigitalTwin::new(id), mobility.position());
            let seed = self.config.seed.wrapping_add(0xFEED_0000 + salt);
            self.users[idx] = SimUser::new(id, profile, mobility, seed);
        }
        // Trackers were reset; rebase the signalling deltas.
        self.updates_sent_before = self.users.iter().map(|u| u.tracker.updates_sent()).sum();
        self.retries_sent_before = self.users.iter().map(|u| u.tracker.retries_sent()).sum();
        n as u64
    }

    /// Collect phase. A scored interval first applies baseline churn, the
    /// fault plan's scheduled faults and the shard-outage schedule; every
    /// interval then rebalances shards and advances mobility tick by tick,
    /// sampling ground-truth SNR and queueing due attributes for the twins
    /// (per the collection policy). Per-user simulation is fanned out
    /// across the worker pool; each user carries an independent RNG
    /// stream, so the result is bit-identical at any thread count.
    ///
    /// Each user's reports collect in a [`TwinReports`] outbox and reach
    /// the twin in one write after its last tick. That is exact because
    /// no twin is read inside this region and each series keeps its
    /// arrival order (DESIGN.md, "Collect-phase write ordering").
    fn collect(&mut self, scored: Option<u64>) {
        if let Some(index) = scored {
            let n = (self.users.len() as f64 * self.config.churn_rate).floor() as usize;
            self.replace_users(n);
            self.apply_scheduled_faults(index);
            self.apply_outage_transitions(index);
        }
        // Boundary crossers change shard, twin and sync tracker together
        // (a no-op on single-shard runs).
        self.store.rebalance(&mut handover_users(&mut self.users));
        let interval = self.config.interval;
        let tick = self.config.tick;
        let steps = interval.steps(tick).max(1);
        for u in &mut self.users {
            u.interval_snrs.clear();
        }
        let bs = &self.bs_positions;
        let link = &self.link;
        let store = &self.store;
        let start = self.now;
        let pool = self.pool;
        let faults = self.faults.as_ref();
        let uplink = Uplink {
            policy: &self.config.collection,
            tick,
            faults,
            partitioned: false,
        };
        // Users behind a partitioned shard, computed serially before the
        // parallel region (ownership cannot change inside it). Empty
        // when no fault plan runs — indexing falls back to `false`.
        let partitioned: Vec<bool> = if faults.is_some() && self.store.sharded() {
            let ids: Vec<UserId> = self.users.iter().map(|u| u.id).collect();
            self.store.partitioned_users(&ids)
        } else {
            Vec::new()
        };
        let partitioned = &partitioned;
        // Parallel per-user simulation of the whole interval's collection.
        let ingest_scope = self.telemetry.stage_scope(stage::UDT_INGEST);
        let stats = pool.for_each_mut(&mut self.users, |i, user| {
            let uplink = Uplink {
                partitioned: partitioned.get(i).copied().unwrap_or(false),
                ..uplink
            };
            let mut outbox = TwinReports::default();
            let mut t = start;
            for _ in 0..steps {
                t += tick;
                let pos = user.mobility.advance(tick);
                let (nearest, dist) = pos.nearest(bs).expect("at least one BS");
                user.bs = nearest;
                let snr = link.sample_snr_db(&mut user.rng, dist);
                user.interval_snrs.push(snr);
                user_tick(user, &mut outbox, uplink, t, snr, pos);
            }
            if !outbox.is_empty() {
                // The batch's rejected count is not the fault tally: it
                // also counts clean samples beyond ±100 dB (a user within
                // metres of a BS), which are not faults. The fault path
                // tallies its own payloads as it queues them.
                store
                    .with_twin_mut(user.id, |twin| twin.apply_reports(&outbox))
                    .expect("user twin registered at construction");
            }
        });
        drop(ingest_scope);
        self.telemetry
            .gauge("par_threads", stage::UDT_INGEST)
            .set(stats.threads as f64);
        self.telemetry
            .gauge("par_utilisation", stage::UDT_INGEST)
            .set(stats.utilisation());
        self.telemetry
            .gauge("par_speedup", stage::UDT_INGEST)
            .set(stats.effective_parallelism());
        self.now = start + tick * steps;
        self.telemetry.set_now_ms(self.now.as_millis());
        if self.faults.is_some() {
            self.journal_faults(scored);
        }
        if let Some(interval) = scored {
            self.telemetry.emit(Event::CollectionCompleted {
                interval,
                users: self.users.len() as u64,
            });
        }
    }

    /// Drains the per-user fault tallies accumulated inside the parallel
    /// collection region and journals them serially, in user-vector order
    /// with original fault timestamps — emitting from worker threads would
    /// make the journal order depend on scheduling. The per-interval
    /// `FaultsInjected` summary is journalled for scored intervals only.
    fn journal_faults(&mut self, scored: Option<u64>) {
        // Only entered on fault-plan runs, so the span structure stays
        // invariant between clean and faulted configurations of a test.
        let _fault_scope = self.telemetry.stage_scope(stage::FAULT_INJECT);
        let mut counts = FaultCounts::default();
        for user in &mut self.users {
            counts.add(user.faults.counts);
            user.faults.counts = FaultCounts::default();
            for (t_ms, attr, kind) in user.faults.events.drain(..) {
                self.telemetry
                    .counter("events_total", "FaultInjected")
                    .inc();
                self.telemetry.event(
                    t_ms,
                    Event::FaultInjected {
                        user: u64::from(user.id.0),
                        attribute: attr.label().to_string(),
                        kind: kind.to_string(),
                    },
                );
            }
        }
        let retries_total: u64 = self.users.iter().map(|u| u.tracker.retries_sent()).sum();
        let retried = retries_total - self.retries_sent_before;
        self.retries_sent_before = retries_total;
        for (kind, n) in [
            ("lost", counts.lost),
            ("delayed", counts.delayed),
            ("corrupted", counts.corrupted),
            ("rejected", counts.rejected),
            ("overflowed", counts.overflowed),
        ] {
            self.telemetry.counter("fault_reports_total", kind).add(n);
        }
        self.telemetry
            .counter("fault_retries_total", "uplink")
            .add(retried);
        if let Some(interval) = scored {
            self.telemetry.emit(Event::FaultsInjected {
                interval,
                lost: counts.lost,
                delayed: counts.delayed,
                corrupted: counts.corrupted,
                rejected: counts.rejected,
                retried,
                overflowed: counts.overflowed,
            });
        }
    }

    /// Predict phase: the scored predictor forecasts the interval from the
    /// twins just collected. A scored interval also folds the per-group
    /// demand into the shard rows and journals any degradation.
    fn predict(&mut self, scored: Option<u64>) -> Result<Predicted> {
        let mut predict_scope = self.telemetry.stage_scope(stage::SCHEME_PREDICT);
        if let Some(index) = scored {
            predict_scope.set_interval(index);
        }
        let ctx = PredictionContext {
            store: &self.store,
            catalog: &self.catalog,
            cache: self.edge.cache(),
            transcode: &TRANSCODE,
            link: &self.link,
            now: self.now,
        };
        let prediction = self.predictor.predict(&ctx)?;
        let wall_ms = predict_scope.stop();
        // Playback needs the grouping regardless of whose totals are
        // scored; predictors without a pipeline must be PipelineBacked.
        let outcome = prediction.outcome.ok_or_else(|| {
            Error::invalid_config(
                "predictor",
                "simulation predictors must produce a pipeline outcome \
                 (wrap scalar predictors in msvs_core::PipelineBacked)",
            )
        })?;
        if let Some(interval) = scored {
            // Attribute the interval's per-group demand to shards by
            // member ownership (per-BS provisioning rows; no-op when the
            // deployment is not partitioned).
            self.store.fold_demand(&outcome.groups);
            if let Some(d) = prediction.degradation {
                if d.degraded {
                    self.telemetry
                        .counter("degraded_intervals_total", "all")
                        .inc();
                }
                self.telemetry.emit(Event::PredictionDegraded {
                    interval,
                    coverage: d.coverage,
                    margin: d.margin,
                });
            }
        }
        Ok(Predicted {
            outcome,
            radio: prediction.radio,
            computing: prediction.computing,
            degradation: prediction.degradation,
            wall_ms,
        })
    }

    /// Observe phase: the predictor learns the measured demand and the
    /// handover, signalling and grouping-stability baselines move on. A
    /// scored interval then scores the prediction (and the reservation,
    /// under a policy), journals its completion and feeds the SLO
    /// watchdog and the health board.
    fn observe(
        &mut self,
        scored: Option<u64>,
        predicted: Predicted,
        actual: ActualDemand,
        playback_wall_ms: f64,
    ) -> Result<Option<IntervalRecord>> {
        let actual_radio = ResourceBlocks(actual.radio);
        let actual_computing = CpuCycles(actual.computing);
        self.predictor
            .observe_actual(actual_radio, actual_computing);

        // Handovers: users whose serving cell changed since last interval.
        let mut handovers = 0u64;
        for user in &mut self.users {
            if user.last_bs.is_some_and(|prev| prev != user.bs) {
                handovers += 1;
            }
            user.last_bs = Some(user.bs);
        }

        let updates_total: u64 = self.users.iter().map(|u| u.tracker.updates_sent()).sum();
        let updates_sent = updates_total - self.updates_sent_before;
        self.updates_sent_before = updates_total;

        let outcome = predicted.outcome;
        // Grouping stability vs the previous prediction pass (over the
        // users present in both).
        let current: std::collections::HashMap<UserId, usize> = outcome
            .user_order
            .iter()
            .zip(&outcome.grouping.assignments)
            .map(|(&u, &a)| (u, a))
            .collect();
        let grouping_stability = self.prev_assignments.as_ref().and_then(|prev| {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for (user, &g) in &current {
                if let Some(&pg) = prev.get(user) {
                    a.push(g);
                    b.push(pg);
                }
            }
            if a.len() < 2 {
                None
            } else {
                Some(msvs_cluster::adjusted_rand_index(&a, &b))
            }
        });
        self.prev_assignments = Some(current);
        self.intervals_run += 1;
        let outcome = &*self.last_outcome.insert(outcome);
        let Some(index) = scored else {
            return Ok(None);
        };

        let (predicted_radio, predicted_computing) = (predicted.radio, predicted.computing);
        let degradation = predicted.degradation;
        let reservation = match &self.config.reservation {
            Some(policy) => {
                let plan = msvs_core::plan_reservation(
                    &outcome.groups,
                    predicted_radio,
                    predicted_computing,
                    degradation.map_or(1.0, |d| d.margin),
                    policy,
                )?;
                let scoring = msvs_core::score_reservation(&plan, actual_radio, actual_computing);
                let reserved_rb = plan.total_radio().value();
                self.telemetry.emit(Event::ReservationScored {
                    predicted_rb: reserved_rb,
                    used_rb: actual.radio,
                    over_rb: (reserved_rb - actual.radio).max(0.0),
                    under_rb: scoring.radio_shortfall.value(),
                });
                Some(scoring)
            }
            None => None,
        };
        // Delivered-level QoE.
        let (level_sum, level_members) = outcome.groups.iter().fold((0.0, 0usize), |acc, g| {
            (
                acc.0
                    + g.level.index() as f64 * g.members.len() as f64
                        / (msvs_types::RepresentationLevel::COUNT - 1) as f64,
                acc.1 + g.members.len(),
            )
        });
        let mean_level = if level_members > 0 {
            level_sum / level_members as f64
        } else {
            0.0
        };
        let record = IntervalRecord {
            index: index as usize,
            k: outcome.grouping.k,
            silhouette: outcome.grouping.silhouette,
            predicted_radio,
            actual_radio,
            radio_accuracy: prediction_accuracy(predicted_radio.value(), actual.radio),
            predicted_computing,
            actual_computing,
            computing_accuracy: prediction_accuracy(predicted_computing.value(), actual.computing),
            actual_unicast_radio: ResourceBlocks(actual.unicast_radio),
            actual_traffic_mb: actual.traffic_mb,
            predicted_waste_mb: outcome.total_waste_mb(),
            actual_waste_mb: actual.wasted_mb,
            predict_wall_ms: predicted.wall_ms,
            updates_sent,
            handovers,
            grouping_stability,
            mean_level,
            degraded: degradation.is_some_and(|d| d.degraded),
            twin_coverage: degradation.map(|d| d.coverage),
            reservation,
        };
        self.telemetry.emit(Event::StageCompleted {
            stage: stage::SCHEME_PREDICT.to_string(),
            wall_ms: predicted.wall_ms,
        });
        self.telemetry.emit(Event::StageCompleted {
            stage: stage::PLAYBACK.to_string(),
            wall_ms: playback_wall_ms,
        });
        self.telemetry.emit(Event::IntervalCompleted {
            interval: index,
            qoe: record.mean_level,
            hit_ratio: self.edge.cache().hit_ratio(),
        });
        self.observe_health(index, &record);
        Ok(Some(record))
    }

    /// Playback phase: plays the interval out group by group. The BS
    /// multicasts the recommended feed, members swipe according to their
    /// ground-truth profiles, the edge transcodes what the cache misses,
    /// and watch records flow back into the twins, one write per member
    /// per group. Returns the measured demand and the phase's wall time.
    fn playback(
        &mut self,
        outcome: &PredictionOutcome,
        scored: Option<u64>,
    ) -> (ActualDemand, f64) {
        let mut playback_scope = self.telemetry.stage_scope(stage::PLAYBACK);
        if let Some(index) = scored {
            playback_scope.set_interval(index);
        }
        let interval_s = self.config.interval.as_secs_f64();
        let rb_bw = self.config.scheme.demand.rb_bandwidth.value();
        let prefetch = self.config.scheme.demand.prefetch_secs;
        let seg = self.config.scheme.demand.segment_secs;
        let gap = self.config.scheme.demand.swipe_gap_secs;
        // Transmission stops at whole-segment boundaries.
        let quantize = |t: f64, cap: f64| ((t / seg).ceil() * seg).min(cap);
        let mut total = ActualDemand::default();

        for pred in &outcome.groups {
            let gid = pred.group.index();
            let recommendation = &outcome.recommendations[gid];
            let member_ids = pred.members.clone();
            if member_ids.is_empty() {
                continue;
            }
            // Per-group child of the playback span; edge transcode spans
            // opened during `serve_for` nest underneath it.
            let _group_scope = self
                .telemetry
                .stage_scope(stage::PLAYBACK_GROUP)
                .with_group(gid as u64);
            // Ground-truth member efficiencies for this interval.
            let effs: Vec<f64> = member_ids
                .iter()
                .map(|id| {
                    let u = &self.users[id.index()];
                    msvs_channel::link::cqi_efficiency(u.mean_interval_snr())
                })
                .collect();
            // Attach each member to its accounting domain: its serving BS
            // (as of the last collect tick) in the per-BS extension mode,
            // or the single cell otherwise.
            let n_bs = if self.config.per_bs_accounting {
                self.bs_positions.len()
            } else {
                1
            };
            let bs_of: Vec<usize> = member_ids
                .iter()
                .map(|id| {
                    if n_bs == 1 {
                        0
                    } else {
                        self.users[id.index()].bs
                    }
                })
                .collect();
            let mut min_eff_by_bs = vec![f64::INFINITY; n_bs];
            for (mi, &bs) in bs_of.iter().enumerate() {
                min_eff_by_bs[bs] = min_eff_by_bs[bs].min(effs[mi]);
            }
            let mut group_rng = StdRng::seed_from_u64(
                self.config
                    .seed
                    .wrapping_mul(31)
                    .wrapping_add(self.intervals_run as u64 * 131)
                    .wrapping_add(gid as u64),
            );
            let mut t = 0.0;
            let mut traffic_by_bs = vec![0.0f64; n_bs];
            let mut member_traffic_mb = vec![0.0f64; member_ids.len()];
            // Watch records per member, in viewing order; nothing reads
            // the twins before the flush after the group's feed.
            let mut member_watches: Vec<Vec<WatchRecord>> = vec![Vec::new(); member_ids.len()];
            while t < interval_s {
                // Transmission past the interval boundary is accounted to
                // the next reservation interval.
                let remaining = interval_s - t;
                let vid = recommendation.sample(&mut group_rng);
                let video = self.catalog.get(vid).expect("recommended from catalog");
                // Each owning shard's BS pulls the multicast stream once
                // through its local video-cache tier (telemetry only).
                self.store
                    .record_group_playback(&member_ids, video, pred.level);
                let len_s = video.duration.as_secs_f64();
                // Members draw their true watch durations.
                let mut max_watch = 0.0f64;
                let mut local_max = vec![0.0f64; n_bs];
                for (mi, id) in member_ids.iter().enumerate() {
                    let user = &mut self.users[id.index()];
                    let interest =
                        user.profile.interest(video.category) * user.profile.engagement_scale();
                    let (watched, completed) = self.config.engagement.sample_watch(
                        &mut user.rng,
                        interest,
                        pred.level,
                        video.duration,
                    );
                    let w = watched.as_secs_f64();
                    max_watch = max_watch.max(w);
                    local_max[bs_of[mi]] = local_max[bs_of[mi]].max(w);
                    member_watches[mi].push(WatchRecord {
                        video: vid,
                        category: video.category,
                        level: pred.level,
                        watched,
                        video_duration: video.duration,
                        completed,
                    });
                    // Unicast delivery would prefetch ahead of each user too.
                    member_traffic_mb[mi] += video_bitrate(video, pred.level)
                        * quantize(w + prefetch, len_s).min(remaining);
                }
                // Each BS with attached members (finite min efficiency)
                // transmits whole segments until its last local member
                // swipes; segments past that point are prefetch waste.
                for (bs, &lm) in local_max.iter().enumerate() {
                    if min_eff_by_bs[bs].is_finite() {
                        let tx_bs = quantize(lm + prefetch, len_s).min(remaining);
                        traffic_by_bs[bs] += video_bitrate(video, pred.level) * tx_bs;
                        total.wasted_mb += video_bitrate(video, pred.level) * (tx_bs - lm).max(0.0);
                    }
                }
                let tx_s = quantize(max_watch + prefetch, len_s).min(remaining);
                let outcome =
                    self.edge
                        .serve_for(video, pred.level, SimDuration::from_secs_f64(tx_s));
                total.computing += outcome.cycles.value();
                t += max_watch + gap;
            }
            // Report the group's watch records into the twins.
            for (id, records) in member_ids.iter().zip(member_watches) {
                self.store
                    .with_twin_mut(*id, |twin| twin.record_watches(self.now, records))
                    .expect("user twin registered at construction");
            }
            for (bs, &traffic) in traffic_by_bs.iter().enumerate() {
                if traffic <= 0.0 {
                    continue;
                }
                total.traffic_mb += traffic;
                let min_eff = min_eff_by_bs[bs];
                if min_eff > 0.0 && min_eff.is_finite() {
                    total.radio += traffic * 1e6 / (min_eff * rb_bw * interval_s);
                }
            }
            for (mi, eff) in effs.iter().enumerate() {
                if *eff > 0.0 {
                    total.unicast_radio += member_traffic_mb[mi] * 1e6 / (eff * rb_bw * interval_s);
                }
            }
        }
        (total, playback_scope.stop())
    }
}

/// One uplink report's payload.
#[derive(Debug, Clone, Copy)]
enum Report {
    /// SNR sample, dB.
    Channel(f64),
    /// Position sample.
    Location(Position),
    /// A preference refresh: a control-plane trigger with no payload.
    Preference,
}

impl Report {
    /// The twin attribute the report carries.
    fn attribute(self) -> Attribute {
        match self {
            Report::Channel(_) => Attribute::Channel,
            Report::Location(_) => Attribute::Location,
            Report::Preference => Attribute::Preference,
        }
    }

    /// The same report with its payload replaced by the corrupt value `v`.
    fn corrupted(self, v: f64) -> Self {
        match self {
            Report::Channel(_) => Report::Channel(v),
            Report::Location(_) => Report::Location(Position::new(v, v)),
            Report::Preference => Report::Preference,
        }
    }

    /// Whether the twin accepts the payload on ingest.
    fn plausible(self) -> bool {
        match self {
            Report::Channel(snr) => UserDigitalTwin::plausible_snr(snr),
            Report::Location(pos) => UserDigitalTwin::plausible_position(pos),
            Report::Preference => true,
        }
    }

    /// Queues the report in `outbox` as sampled at `at`.
    fn queue(self, outbox: &mut TwinReports, at: SimTime) {
        match self {
            Report::Channel(snr) => outbox.channel(at, snr),
            Report::Location(pos) => outbox.location(at, pos),
            Report::Preference => outbox.refresh_preference(at, PREFERENCE_RATE),
        }
    }
}

/// What decides the fate of one user's reports for an interval.
#[derive(Clone, Copy)]
struct Uplink<'a> {
    policy: &'a CollectionPolicy,
    tick: SimDuration,
    faults: Option<&'a FaultRuntime>,
    /// The user's shard is partitioned (only ever under a fault plan).
    partitioned: bool,
}

impl Uplink<'_> {
    /// The fate of `user`'s due `attr` report at `t_ms`: `Deliver`
    /// without a fault plan (no hashing), `Lose` behind a partitioned
    /// shard, otherwise the injector's draw. A preference refresh has no
    /// payload to delay or corrupt, so it is only lost or delivered.
    fn fate(&self, user: UserId, t_ms: u64, attr: Attribute) -> ReportFate {
        match self.faults {
            None => ReportFate::Deliver,
            Some(_) if self.partitioned => ReportFate::Lose,
            Some(rt) => match rt.injector.fate(user.0, t_ms, attr) {
                ReportFate::Delay(_) | ReportFate::Corrupt if attr == Attribute::Preference => {
                    ReportFate::Deliver
                }
                fate => fate,
            },
        }
    }
}

/// One user's collection tick, for every attribute and fault case.
///
/// Runs inside the parallel region: reports only queue in `outbox` (the
/// twin sees them after the user's last tick), and fault tallies and
/// journal records only accumulate in `user.faults` (drained serially
/// after the pool joins).
fn user_tick(
    user: &mut SimUser,
    outbox: &mut TwinReports,
    uplink: Uplink<'_>,
    t: SimTime,
    snr: f64,
    pos: Position,
) {
    // `Attribute::ALL` order, written out rather than looped: each inlined
    // call then folds its attribute to constants. As a loop, the clean
    // tick cost about 40% more per user-tick (1,000 users × 300 ticks,
    // 2-vCPU x86-64).
    send_report(user, outbox, uplink, t, Report::Channel(snr));
    send_report(user, outbox, uplink, t, Report::Location(pos));
    send_report(user, outbox, uplink, t, Report::Preference);
}

/// One attribute's share of [`user_tick`]. First the delayed reports now
/// due reach the twin late, with their original sample timestamps (held
/// while the shard is partitioned). If a `report` is due, it takes its
/// [`Uplink::fate`] and that fate's one path: deliver queues it; lose
/// (journalled `"partition"` behind a partition) schedules a retry; delay
/// buffers it `n` ticks; corrupt queues an implausible payload. Delayed
/// and corrupted payloads the twin will refuse are tallied as `rejected`
/// when queued (acceptance depends only on the payload).
#[inline(always)]
fn send_report(
    user: &mut SimUser,
    outbox: &mut TwinReports,
    uplink: Uplink<'_>,
    t: SimTime,
    report: Report,
) {
    let attr = report.attribute();
    let (id, tracker, faults) = (user.id, &mut user.tracker, &mut user.faults);
    let queue = &mut faults.delayed[attr as usize];
    if !uplink.partitioned && !queue.is_empty() {
        for (sampled_at, report) in queue.drain_due(t) {
            faults.counts.rejected += u64::from(!report.plausible());
            report.queue(outbox, sampled_at);
        }
    }
    if !tracker.due(attr, uplink.policy, t) {
        return;
    }
    let t_ms = t.as_millis();
    let fate = uplink.fate(id, t_ms, attr);
    match (fate, uplink.faults) {
        (ReportFate::Deliver, _) => {
            report.queue(outbox, t);
            tracker.mark(attr, t);
        }
        (ReportFate::Lose, Some(rt)) => {
            faults.counts.lost += 1;
            let kind = if uplink.partitioned {
                "partition"
            } else {
                fate.label()
            };
            faults.events.push((t_ms, attr, kind));
            tracker.mark_lost(attr, t, &rt.plan.retry);
        }
        (ReportFate::Delay(n), _) => {
            faults.counts.delayed += 1;
            faults.events.push((t_ms, attr, fate.label()));
            if !queue.push(t + uplink.tick * n, t, report) {
                // Queue overflow: the report never arrives.
                faults.counts.overflowed += 1;
            }
            tracker.mark(attr, t);
        }
        (ReportFate::Corrupt, Some(rt)) => {
            faults.counts.corrupted += 1;
            faults.events.push((t_ms, attr, fate.label()));
            let report = report.corrupted(rt.injector.corrupt_value(id.0, t_ms, attr));
            faults.counts.rejected += u64::from(!report.plausible());
            report.queue(outbox, t);
            tracker.mark(attr, t);
        }
        (_, None) => unreachable!("without a fault plan every report is delivered"),
    }
}

/// Stamps the derived scheme fields (BS layout, map dims, accounting mode,
/// thread count) into `config` and resolves the worker pool. Must run
/// before the predictor is built so the scheme sees the final values.
fn resolve_scenario(config: &mut SimulationConfig) -> (CampusMap, Vec<Position>, Pool) {
    let map = CampusMap::waterloo();
    let bs_positions = bs_grid(&map, config.n_bs);
    // The scheme always knows the BS layout; only per-BS radio
    // accounting, an explicit extension mode, reads it.
    config.scheme.bs_positions = bs_positions.clone();
    config.scheme.per_bs_accounting = config.per_bs_accounting;
    config.scheme.map_width = map.width();
    config.scheme.map_height = map.height();
    // An active fault plan arms the graceful-degradation ladder; without
    // one the scheme keeps its historical (signal-free) behaviour.
    if config.faults.as_ref().is_some_and(|p| !p.is_noop()) {
        config.scheme.degradation.enabled = true;
    }
    let pool = if config.threads == 1 {
        Pool::serial()
    } else {
        Pool::new(config.threads)
    };
    config.threads = pool.threads();
    config.scheme.threads = pool.threads();
    (map, bs_positions, pool)
}

/// Average actual bitrate of `video` at `level`, Mbps.
fn video_bitrate(video: &msvs_video::Video, level: msvs_types::RepresentationLevel) -> f64 {
    video
        .representation(level)
        .map(|r| r.bitrate.value())
        .unwrap_or_else(|| level.nominal_bitrate().value())
}

/// Places `n` base stations on a centred grid across the map.
fn bs_grid(map: &CampusMap, n: usize) -> Vec<Position> {
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % cols;
        let r = i / cols;
        out.push(Position::new(
            map.width() * (c as f64 + 0.5) / cols as f64,
            map.height() * (r as f64 + 0.5) / rows as f64,
        ));
    }
    out
}

/// Shared transcode model (matches `EdgeConfig::default`).
static TRANSCODE: msvs_edge::TranscodeModel = msvs_edge::TranscodeModel {
    cycles_per_output_bit: 70.0,
    decode_overhead: 0.25,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DemandPredictorKind;
    use msvs_core::{CompressorConfig, GroupingConfig, SchemeConfig};

    fn small_config(seed: u64) -> SimulationConfig {
        let mut scheme = SchemeConfig {
            compressor: CompressorConfig {
                window: 16,
                epochs: 10,
                ..Default::default()
            },
            grouping: GroupingConfig {
                k_min: 2,
                k_max: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        scheme.demand.interval = SimDuration::from_mins(2);
        SimulationConfig {
            n_users: 24,
            n_intervals: 2,
            warmup_intervals: 1,
            interval: SimDuration::from_mins(2),
            scheme,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn bs_grid_covers_map() {
        let map = CampusMap::waterloo();
        for n in [1, 2, 4, 7] {
            let grid = bs_grid(&map, n);
            assert_eq!(grid.len(), n);
            for p in &grid {
                assert!(map.contains(*p));
            }
        }
    }

    #[test]
    fn simulation_produces_scored_intervals() {
        let report = Simulation::run(small_config(3)).unwrap();
        assert_eq!(report.intervals.len(), 2);
        for r in &report.intervals {
            assert!(r.actual_radio.value() > 0.0, "groups must transmit");
            assert!(r.actual_traffic_mb > 0.0);
            assert!((0.0..=1.0).contains(&r.radio_accuracy));
            assert!(r.k >= 2 && r.k <= 5);
            assert!(r.predict_wall_ms > 0.0);
            assert!(r.updates_sent > 0);
        }
        // Telemetry rides along: stage percentiles and event counters.
        let stages: Vec<&str> = report
            .telemetry
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        for expected in [
            stage::SCHEME_PREDICT,
            stage::PLAYBACK,
            stage::INTERVAL,
            stage::UDT_INGEST,
            stage::CNN_FORWARD,
            stage::KMEANS_FIT,
            stage::DEMAND_PREDICT,
        ] {
            assert!(stages.contains(&expected), "missing stage {expected}");
        }
        let scheme_predict = report
            .telemetry
            .stages
            .iter()
            .find(|s| s.stage == stage::SCHEME_PREDICT)
            .unwrap();
        // Warm-up (1) + scored (2) prediction passes.
        assert_eq!(scheme_predict.count, 3);
        assert!(scheme_predict.max_ms >= scheme_predict.p50_ms);
        let counter = |name: &str, label: &str| {
            report
                .telemetry
                .counters
                .iter()
                .find(|(n, l, _)| n == name && l == label)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(counter("events_total", "IntervalCompleted"), Some(2));
        assert!(counter("edge_serves_total", "cache_hit").unwrap_or(0) > 0);
    }

    #[test]
    fn multicast_saves_radio_vs_unicast() {
        let report = Simulation::run(small_config(4)).unwrap();
        for r in &report.intervals {
            assert!(
                r.actual_unicast_radio.value() > r.actual_radio.value(),
                "unicast {} must exceed multicast {}",
                r.actual_unicast_radio,
                r.actual_radio
            );
        }
        assert!(report.mean_multicast_saving() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let strip_wall = |mut r: SimulationReport| {
            for i in &mut r.intervals {
                i.predict_wall_ms = 0.0;
            }
            // Stage latencies are wall-clock; counts and counters must
            // still match exactly between identically seeded runs.
            r.telemetry = r.telemetry.with_zeroed_timings();
            r
        };
        let a = strip_wall(Simulation::run(small_config(9)).unwrap());
        let b = strip_wall(Simulation::run(small_config(9)).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn twins_accumulate_watch_history() {
        let mut sim = Simulation::new(small_config(5)).unwrap();
        sim.warm_up().unwrap();
        let with_history = sim
            .store()
            .snapshot()
            .iter()
            .filter(|t| !t.watch_series().is_empty())
            .count();
        assert!(
            with_history > 20,
            "most twins should have watch records, got {with_history}"
        );
    }

    #[test]
    fn reservation_policy_is_scored_per_interval() {
        let cfg = SimulationConfig {
            reservation: Some(msvs_core::ReservationPolicy {
                headroom: 0.5,
                ..Default::default()
            }),
            ..small_config(12)
        };
        let report = Simulation::run(cfg).unwrap();
        for r in &report.intervals {
            let res = r.reservation.expect("policy configured");
            if res.radio_covered {
                assert!(res.radio_idle_fraction >= 0.0);
                assert_eq!(res.radio_shortfall, msvs_types::ResourceBlocks::ZERO);
            } else {
                assert!(res.radio_shortfall.value() > 0.0);
            }
        }
        assert!(report.reservation_coverage().is_some());
        // Without a policy, nothing is scored.
        let plain = Simulation::run(small_config(12)).unwrap();
        assert!(plain.intervals.iter().all(|r| r.reservation.is_none()));
        assert_eq!(plain.reservation_coverage(), None);
    }

    #[test]
    fn bigger_headroom_covers_more() {
        let coverage = |headroom: f64| {
            let cfg = SimulationConfig {
                n_intervals: 4,
                reservation: Some(msvs_core::ReservationPolicy {
                    headroom,
                    ..Default::default()
                }),
                ..small_config(13)
            };
            Simulation::run(cfg)
                .unwrap()
                .reservation_coverage()
                .expect("policy configured")
        };
        assert!(coverage(0.5) >= coverage(0.0));
    }

    #[test]
    fn churn_replaces_users_and_sim_survives() {
        let cfg = SimulationConfig {
            churn_rate: 0.25,
            ..small_config(14)
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.warm_up().unwrap();
        let mut report = SimulationReport::default();
        for i in 0..3 {
            report.intervals.push(sim.run_interval(i).unwrap());
        }
        assert_eq!(sim.churned_users(), 3 * 6, "25% of 24 users per interval");
        // Population size is unchanged; everything still scored sanely.
        assert_eq!(sim.store().len(), 24);
        for r in &report.intervals {
            assert!(r.actual_radio.value() > 0.0);
            assert!((0.0..=1.0).contains(&r.radio_accuracy));
        }
    }

    #[test]
    fn churned_arrivals_are_not_handovers() {
        // Seated users never change cell, so every handover would be an
        // arrival compared with the cell of the user whose slot it took.
        let cfg = SimulationConfig {
            n_users: 40,
            n_intervals: 4,
            pretrain_rounds: 10,
            mobility: crate::config::MobilityMix {
                waypoint: 0.0,
                gauss_markov: 0.0,
                static_users: 1.0,
            },
            churn_rate: 0.25,
            threads: 1,
            shards: 1,
            ..small_config(19)
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.warm_up().unwrap();
        let handovers: Vec<u64> = (0..4)
            .map(|i| sim.run_interval(i).unwrap().handovers)
            .collect();
        assert_eq!(sim.churned_users(), 4 * 10, "25% of 40 users per interval");
        assert_eq!(handovers, vec![0; 4]);
    }

    #[test]
    fn extreme_churn_stays_finite_and_scored() {
        // Even replacing most of the population every interval, the
        // pipeline must keep producing finite, bounded predictions (cold
        // twins fall back to priors rather than poisoning the estimates).
        let cfg = SimulationConfig {
            churn_rate: 0.9,
            n_intervals: 3,
            ..small_config(15)
        };
        let report = Simulation::run(cfg).unwrap();
        for r in &report.intervals {
            assert!(r.predicted_radio.is_valid(), "prediction must stay finite");
            assert!((0.0..=1.0).contains(&r.radio_accuracy));
            assert!(r.actual_radio.value() > 0.0);
        }
    }

    #[test]
    fn per_bs_accounting_costs_more_radio() {
        let run = |per_bs: bool| {
            let cfg = SimulationConfig {
                per_bs_accounting: per_bs,
                n_users: 40,
                n_intervals: 3,
                ..small_config(17)
            };
            let r = Simulation::run(cfg).unwrap();
            (
                r.intervals
                    .iter()
                    .map(|i| i.actual_radio.value())
                    .sum::<f64>(),
                r.mean_radio_accuracy(),
            )
        };
        let (single_cell, single_acc) = run(false);
        let (per_bs, per_bs_acc) = run(true);
        // Groups spanning several BSs are transmitted by each of them, so
        // the measured radio demand rises; accuracy stays meaningful.
        assert!(
            per_bs > single_cell,
            "per-BS fan-out must cost more: {per_bs:.1} vs {single_cell:.1}"
        );
        assert!(single_acc > 0.5 && per_bs_acc > 0.5);
    }

    #[test]
    fn all_static_mix_freezes_users() {
        let cfg = SimulationConfig {
            mobility: crate::config::MobilityMix {
                waypoint: 0.0,
                gauss_markov: 0.0,
                static_users: 1.0,
            },
            ..small_config(19)
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.warm_up().unwrap();
        for twin in sim.store().snapshot() {
            let positions: Vec<Position> = twin.location_series().iter().map(|(_, p)| *p).collect();
            assert!(!positions.is_empty());
            assert!(
                positions.windows(2).all(|w| w[0] == w[1]),
                "static users must not move"
            );
        }
    }

    #[test]
    fn mixed_mobility_produces_both_moving_and_still_users() {
        let cfg = SimulationConfig {
            n_users: 40,
            mobility: crate::config::MobilityMix::default(),
            ..small_config(20)
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.warm_up().unwrap();
        let mut moved = 0;
        let mut still = 0;
        for twin in sim.store().snapshot() {
            let positions: Vec<Position> = twin.location_series().iter().map(|(_, p)| *p).collect();
            if positions.windows(2).any(|w| w[0] != w[1]) {
                moved += 1;
            } else {
                still += 1;
            }
        }
        assert!(moved > 10, "default mix has a walking majority: {moved}");
        assert!(still > 3, "default mix seats some users: {still}");
    }

    #[test]
    fn stability_and_level_metrics_are_populated() {
        let report = Simulation::run(small_config(21)).unwrap();
        for r in &report.intervals {
            let s = r.grouping_stability.expect("warm-up pass seeds stability");
            assert!((-1.0..=1.0).contains(&s));
            assert!((0.0..=1.0).contains(&r.mean_level));
        }
        assert!(report.mean_grouping_stability().is_some());
        assert!(report.mean_delivered_level() > 0.0, "groups stream video");
    }

    #[test]
    fn stable_population_groups_more_stably_than_churning_one() {
        let stability = |churn: f64| {
            let cfg = SimulationConfig {
                churn_rate: churn,
                n_users: 40,
                n_intervals: 4,
                ..small_config(22)
            };
            Simulation::run(cfg)
                .unwrap()
                .mean_grouping_stability()
                .expect("stability defined")
        };
        let stable = stability(0.0);
        let churny = stability(0.5);
        assert!(
            stable > churny,
            "churn must destabilise groups: {stable:.3} vs {churny:.3}"
        );
    }

    /// A user behind a partitioned shard: every due report is lost as
    /// `"partition"` and the delayed reports stay queued. The first tick
    /// after the partition heals delivers them with their original sample
    /// timestamps.
    #[test]
    fn partitioned_tick_holds_delayed_reports_until_it_heals() {
        // The partition is the tick's `partitioned` flag; the plan's
        // injector delivers everything once it heals.
        let plan = FaultPlan::none();
        let rt = FaultRuntime {
            injector: FaultInjector::new(&plan, 7),
            plan,
        };
        let mut sim = Simulation::new(small_config(7)).unwrap();
        let user = &mut sim.users[0];
        let s = SimTime::from_secs;
        let pos = Position::new(100.0, 200.0);
        let delayed = &mut user.faults.delayed;
        assert!(delayed[Attribute::Channel as usize].push(s(9), s(8), Report::Channel(12.0)));
        assert!(delayed[Attribute::Location as usize].push(s(10), s(7), Report::Location(pos)));

        let mut uplink = Uplink {
            policy: &CollectionPolicy::default(),
            tick: SimDuration::from_secs(1),
            faults: Some(&rt),
            partitioned: true,
        };
        let mut outbox = TwinReports::default();
        user_tick(user, &mut outbox, uplink, s(10), 20.0, pos);
        assert!(outbox.is_empty(), "nothing crosses a severed uplink");
        let queued = user.faults.delayed.iter().filter(|q| !q.is_empty());
        assert_eq!(queued.count(), 2, "delayed reports stay queued");
        assert_eq!(user.faults.counts.lost, 3, "every due report is lost");
        let partition = Attribute::ALL.map(|attr| (10_000, attr, "partition"));
        assert_eq!(user.faults.events, partition);
        assert_eq!(user.tracker.updates_sent(), 3, "lost sends cost signalling");

        // Healed at 11 s: the held reports arrive, then the channel report
        // due on its 1 s period. Location and preference are not due.
        uplink.partitioned = false;
        let mut outbox = TwinReports::default();
        user_tick(user, &mut outbox, uplink, s(11), 21.0, pos);
        assert!(user.faults.delayed.iter().all(DelayQueue::is_empty));
        assert_eq!(user.faults.counts.lost, 3);
        let mut twin = UserDigitalTwin::new(user.id);
        assert_eq!(twin.apply_reports(&outbox), 0, "nothing rejected");
        let channel: Vec<_> = twin.channel_series().iter().copied().collect();
        assert_eq!(channel, [(s(8), 12.0), (s(11), 21.0)]);
        let location: Vec<_> = twin.location_series().iter().copied().collect();
        assert_eq!(location, [(s(7), pos)]);
    }

    /// Outages and brownouts act outside the tick loop, so a plan with
    /// only those collects exactly like no plan: same trackers, same twins.
    #[test]
    fn outage_and_brownout_only_plan_collects_like_no_plan() {
        let builtin = |name| FaultPlan::builtin(name).unwrap();
        let plan = FaultPlan {
            brownouts: builtin("brownout").brownouts,
            outages: [builtin("bs-flap").outages, builtin("bs-crash").outages].concat(),
            ..FaultPlan::none()
        };
        let config = SimulationConfig {
            shards: 4,
            ..small_config(9)
        };
        let mut clean = Simulation::new(config.clone()).unwrap();
        let mut faulted = Simulation::new(SimulationConfig {
            faults: Some(plan),
            ..config
        })
        .unwrap();
        assert!(faulted.faults.is_some(), "the plan is active");
        for _ in 0..3 {
            clean.collect(None);
            faulted.collect(None);
        }
        let twin = |sim: &Simulation, id| sim.store.with_twin(id, UserDigitalTwin::clone).unwrap();
        for (a, b) in clean.users.iter().zip(&faulted.users) {
            assert_eq!(a.tracker, b.tracker, "user {:?}", a.id);
            assert_eq!(twin(&clean, a.id), twin(&faulted, b.id), "user {:?}", a.id);
        }
    }

    #[test]
    fn historical_mean_predictor_runs() {
        let cfg = SimulationConfig {
            predictor: DemandPredictorKind::HistoricalMean { alpha: 0.5 },
            ..small_config(6)
        };
        let report = Simulation::run(cfg).unwrap();
        assert_eq!(report.intervals.len(), 2);
        // After warm-up the EWMA has observations, so accuracy is defined.
        assert!(report.intervals[1].radio_accuracy > 0.0);
    }
}
