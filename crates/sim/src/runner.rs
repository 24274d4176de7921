//! The system under test and the interval pipeline (collect → predict →
//! playback → observe) that drives it against the simulated `World`.

use std::collections::BTreeMap;

use msvs_core::demand::prediction_accuracy;
use msvs_core::{DegradationSignal, DemandPredictor, PredictionContext, PredictionOutcome};
use msvs_faults::{DelayQueue, FaultCounts, FaultInjector, FaultPlan, ReportFate};
use msvs_mobility::CampusMap;
use msvs_par::Pool;
use msvs_shard::{OutagePhase, ShardCoordinator, ShardRouter};
use msvs_telemetry::{
    slo, stages, Event, HealthBoard, HealthSnapshot, ShardHealth, SloEdge, SloSignals, SloWatchdog,
    Telemetry,
};
use msvs_types::{
    CpuCycles, Error, Position, ResourceBlocks, Result, SimDuration, SimTime, UserId,
};
use msvs_udt::{Attribute, CollectionPolicy, SyncTracker, TwinReports, UserDigitalTwin};
use msvs_video::Catalog;

use crate::config::SimulationConfig;
use crate::metrics::{IntervalRecord, SimulationReport};
use crate::world::{ActualDemand, World};

/// Rate at which a preference refresh pulls the twin's preference towards
/// the categories its user recently engaged with.
const PREFERENCE_RATE: f64 = 0.4;

/// One user's uplink: its sync tracker and, under a fault plan, the
/// reports in flight and the tallies accumulated *inside* the parallel
/// collection region (summed serially after the pool joins).
#[derive(Default)]
struct UserUplink {
    tracker: SyncTracker,
    /// In-flight delayed reports, one queue per [`Attribute`] index.
    delayed: [DelayQueue<Report>; 3],
    counts: FaultCounts,
}

/// The resolved fault-injection machinery, present only when the
/// configured plan actually injects something (a no-op plan is treated
/// exactly like no plan, keeping fault-free runs bit-identical).
struct FaultRuntime {
    plan: FaultPlan,
    injector: FaultInjector,
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

/// The end-to-end simulation: the system under test (twin store, uplink
/// state, predictor, telemetry, SLO watchdog and scoring) run against a
/// simulated `World`.
///
/// Construct with [`Simulation::new`] and drive with
/// [`Simulation::warm_up`] and [`Simulation::run_interval`], or run the
/// whole schedule with [`Simulation::run_schedule`] (or
/// [`Simulation::run`] from a config).
pub struct Simulation {
    config: SimulationConfig,
    world: World,
    store: ShardCoordinator,
    /// Every user id, in the deterministic order sweeps visit them.
    user_ids: Vec<UserId>,
    /// Uplink state, indexed by user id.
    uplinks: Vec<UserUplink>,
    predictor: Box<dyn DemandPredictor>,
    pool: Pool,
    now: SimTime,
    intervals_run: usize,
    updates_sent_before: u64,
    retries_sent_before: u64,
    faults: Option<FaultRuntime>,
    /// The previous prediction pass's `(user, group)` pairs, ascending
    /// by user id (grouping stability).
    prev_assignments: Option<Vec<(UserId, usize)>>,
    last_outcome: Option<PredictionOutcome>,
    telemetry: Telemetry,
    slo: Option<SloWatchdog>,
    slo_breach_edges: u64,
    health: HealthBoard,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("users", &self.user_ids.len())
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
        let router = ShardRouter::new(bs_positions.clone(), config.shards);
        let mut world = World::new(&config, map, bs_positions)?;
        let mut store = ShardCoordinator::new(router);
        let user_ids: Vec<UserId> = (0..config.n_users).map(|u| UserId(u as u32)).collect();
        for (&id, user) in user_ids.iter().zip(world.users()) {
            store.insert(UserDigitalTwin::new(id), user.position());
        }
        let telemetry = Telemetry::new();
        predictor.attach_telemetry(telemetry.clone());
        world.edge_mut().attach_telemetry(telemetry.clone());
        store.attach_telemetry(telemetry.clone());
        telemetry.emit(Event::RunStarted {
            scheme: predictor.name().to_string(),
            seed: config.seed,
            users: config.n_users as u64,
            intervals: config.n_intervals as u64,
            threads: pool.threads() as u64,
            shards: config.shards as u64,
        });
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
            uplinks: user_ids.iter().map(|_| UserUplink::default()).collect(),
            config,
            world,
            store,
            user_ids,
            predictor,
            pool,
            now: SimTime::ZERO,
            intervals_run: 0,
            updates_sent_before: 0,
            retries_sent_before: 0,
            faults,
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

    /// Name of the scored predictor (as journalled in `RunStarted`).
    pub fn predictor_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// The twin store and its shard ownership labels (inspection).
    pub fn store(&self) -> &ShardCoordinator {
        &self.store
    }

    /// Snapshots every shard's users into a
    /// [`ShardCheckpoint`](msvs_shard::ShardCheckpoint) at the current
    /// interval boundary, pairing each twin with its user's live
    /// `SyncTracker` state. Works at any shard count (a single-shard run
    /// yields one checkpoint of the whole population).
    pub fn checkpoint_shards(&self) -> Vec<msvs_shard::ShardCheckpoint> {
        let interval = self.intervals_run as u64;
        (0..self.store.n_shards())
            .map(|shard| {
                self.store.checkpoint(shard, interval, |id| {
                    self.uplinks[id.index()].tracker.clone()
                })
            })
            .collect()
    }

    /// The video catalog in use.
    pub fn catalog(&self) -> &Catalog {
        self.world.catalog()
    }

    /// The most recent prediction outcome (swiping curves, groupings).
    pub fn last_outcome(&self) -> Option<&PredictionOutcome> {
        self.last_outcome.as_ref()
    }

    /// The telemetry handle shared by every subsystem: stage spans,
    /// counters, gauges, and the event journal.
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
    /// interval — and [`finish`](Self::finish)es the run. The telemetry
    /// and health handles stay reachable before and after, for a live
    /// metrics server and journal exports.
    ///
    /// # Errors
    /// Propagates pipeline errors.
    pub fn run_schedule(&mut self) -> Result<SimulationReport> {
        self.warm_up()?;
        let n = self.config.n_intervals;
        let intervals = (0..n)
            .map(|i| self.run_interval(i))
            .collect::<Result<_>>()?;
        Ok(self.finish(intervals))
    }

    /// Closes a run: journals one `StageSummary` per span name (the
    /// run's stage table), marks the run finished on the health board,
    /// keeping the final interval's signals visible to late scrapes, and
    /// returns the report over the scored `intervals`.
    pub fn finish(&self, intervals: Vec<IntervalRecord>) -> SimulationReport {
        self.telemetry.emit_stage_summary();
        let mut snapshot = self.health.snapshot();
        snapshot.state = "finished".to_string();
        self.health.publish(snapshot);
        SimulationReport {
            intervals,
            telemetry: self.telemetry.summary(),
            shards: self.store.sharded().then(|| self.store.summary()),
            slo: self.slo_report(),
        }
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
            let _pretrain_scope = self.telemetry.stage_scope(stages::DDQN_PRETRAIN);
            self.predictor
                .pretrain(self.store.twins(), self.config.pretrain_rounds)?;
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
        let mut interval_scope = self.telemetry.stage_scope(stages::INTERVAL);
        if let Some(index) = scored {
            self.telemetry
                .emit(Event::IntervalStarted { interval: index });
            interval_scope.set_interval(index);
        }
        let handovers = self.collect(scored);
        let predicted = self.predict(scored)?;
        let actual = self.playback(&predicted.outcome, scored);
        self.observe(scored, predicted, actual, handovers, interval_scope.id())
    }

    /// Feeds the scored interval's signals to the SLO watchdog and the
    /// health board, sets the accuracy gauges, then samples the gauges.
    /// The watchdog gets sim-time signals plus live wall-clock stage
    /// p99s over scored spans for any configured ceilings (`root` is
    /// this interval's root span, still open); it journals
    /// breach/recovery edges and bumps `slo_breaches_total{slo}` per
    /// breach. Gauge samples feed Perfetto counter tracks in trace
    /// exports and the board feeds `/healthz` and `/metrics`; neither is
    /// read back by the report.
    fn observe_health(&mut self, interval: u64, root: u64, record: &IntervalRecord) {
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
            let stage_p99_ms =
                scored_stage_p99_ms(&self.telemetry, &watchdog.policy().stage_p99_ms, root);
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
        self.telemetry
            .gauge("prediction_accuracy", "radio")
            .set(record.radio_accuracy);
        self.telemetry
            .gauge("prediction_accuracy", "computing")
            .set(record.computing_accuracy);
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
            users: self.user_ids.len() as u64,
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
        let transitions = self.store.apply_outages(
            |shard| plan.and_then(|p| p.outage_at(shard, index)),
            &self.user_ids,
        );
        for t in transitions {
            match t.phase {
                OutagePhase::Down => self.telemetry.emit(Event::ShardDown {
                    interval: index,
                    shard: t.shard as u64,
                    mode: t.mode.label().to_string(),
                    failed_over: t.failed_over,
                }),
                OutagePhase::Restored => self.telemetry.emit(Event::ShardRestored {
                    interval: index,
                    shard: t.shard as u64,
                    mode: t.mode.label().to_string(),
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
            let n = (self.user_ids.len() as f64 * fraction).floor() as usize;
            let replaced = self.replace_users(n);
            self.telemetry.emit(Event::ChurnBurst {
                interval: index,
                replaced,
            });
        }
        let edge = self.world.edge_mut();
        if scale < 1.0 {
            edge.set_capacity_scale(scale);
            self.telemetry.emit(Event::BrownoutApplied {
                interval: index,
                capacity_scale: scale,
            });
        } else if edge.cache().capacity_scale() < 1.0 {
            // Brownout over: capacity returns, the cache refills through
            // normal inserts.
            edge.set_capacity_scale(1.0);
        }
    }

    /// Total users replaced by churn so far.
    pub fn churned_users(&self) -> u64 {
        self.world.churned()
    }

    /// Replaces `n` uniformly drawn users with fresh arrivals — a new
    /// ground-truth profile and trajectory, a fresh uplink, and an
    /// *empty* twin the predictor has to cope with — returning how many
    /// were replaced.
    fn replace_users(&mut self, n: usize) -> u64 {
        if n == 0 {
            return 0;
        }
        for (id, start) in self.world.churn(n, &self.config) {
            self.store.insert(UserDigitalTwin::new(id), start);
            self.uplinks[id.index()] = UserUplink::default();
        }
        // Trackers were reset; rebase the signalling deltas.
        self.updates_sent_before = self.uplinks.iter().map(|u| u.tracker.updates_sent()).sum();
        self.retries_sent_before = self.uplinks.iter().map(|u| u.tracker.retries_sent()).sum();
        n as u64
    }

    /// Collect phase. A scored interval first applies baseline churn, the
    /// fault plan's scheduled faults and the shard-outage schedule; every
    /// interval then rebalances shards, steps the world (mobility and
    /// ground-truth SNR, tick by tick) and replays each user's samples
    /// through its uplink, queueing due attributes for the twins (per the
    /// collection policy). Both sweeps fan users out across the worker
    /// pool; each user carries independent state, so the result is
    /// bit-identical at any thread count. Returns the world step's
    /// handover count.
    ///
    /// Each user's reports collect in a [`TwinReports`] outbox and reach
    /// the twin in one write after its last tick. That is exact because
    /// no twin is read inside this region and each series keeps its
    /// arrival order (DESIGN.md, "Collect-phase write ordering").
    fn collect(&mut self, scored: Option<u64>) -> u64 {
        if let Some(index) = scored {
            let n = (self.user_ids.len() as f64 * self.config.churn_rate).floor() as usize;
            self.replace_users(n);
            self.apply_scheduled_faults(index);
            self.apply_outage_transitions(index);
        }
        // Boundary crossers change shard (a no-op on single-shard runs).
        self.store.rebalance(&self.user_ids);
        let tick = self.config.tick;
        let steps = self.config.interval.steps(tick).max(1);
        let world_scope = self.telemetry.stage_scope(stages::WORLD_STEP);
        let handovers = self.world.step(steps, tick, self.pool);
        drop(world_scope);
        let samples = self.world.users();
        let start = self.now;
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
            self.store.partitioned_users(&self.user_ids)
        } else {
            Vec::new()
        };
        let partitioned = &partitioned;
        let ingest_scope = self.telemetry.stage_scope(stages::UDT_INGEST);
        // Each slot pairs a user's uplink with its twin: both ascend by
        // id, one entry per user, so a worker writes its users' twins
        // through its own borrows.
        let twins = self.store.twins_mut();
        assert_eq!(twins.len(), self.uplinks.len(), "one twin per uplink");
        let mut slots: Vec<_> = self.uplinks.iter_mut().zip(twins.twins_mut()).collect();
        let stats = self.pool.for_each_mut(&mut slots, |i, (user, twin)| {
            let id = UserId(i as u32);
            assert_eq!(
                twin.user(),
                id,
                "uplink {i} paired with another user's twin"
            );
            let uplink = Uplink {
                partitioned: partitioned.get(i).copied().unwrap_or(false),
                ..uplink
            };
            let sampled = &samples[i];
            let mut outbox = TwinReports::default();
            let mut t = start;
            for (&pos, &snr) in sampled.positions.iter().zip(&sampled.snrs) {
                t += tick;
                user_tick(id, user, &mut outbox, uplink, t, snr, pos);
            }
            if !outbox.is_empty() {
                // The batch's rejected count is not the fault tally: it
                // also counts clean samples beyond ±100 dB (a user within
                // metres of a BS), which are not faults. The fault path
                // tallies its own payloads as it queues them.
                twin.apply_reports(&outbox);
            }
        });
        drop(ingest_scope);
        self.telemetry.set_par_gauges(stages::UDT_INGEST, stats);
        self.now = start + tick * steps;
        self.telemetry.set_now_ms(self.now.as_millis());
        if self.faults.is_some() {
            self.journal_faults(scored);
        }
        if let Some(interval) = scored {
            self.telemetry.emit(Event::CollectionCompleted {
                interval,
                users: self.user_ids.len() as u64,
            });
        }
        handovers
    }

    /// Drains the per-user fault tallies accumulated inside the parallel
    /// collection region into the `fault_reports_total` and
    /// `fault_retries_total` counters. The per-interval `FaultsInjected`
    /// summary is journalled for scored intervals only; single reports
    /// are counted, never journalled.
    fn journal_faults(&mut self, scored: Option<u64>) {
        // Only entered on fault-plan runs, so the span structure stays
        // invariant between clean and faulted configurations of a test.
        let _fault_scope = self.telemetry.stage_scope(stages::FAULT_INJECT);
        let mut counts = FaultCounts::default();
        for user in &mut self.uplinks {
            counts.add(std::mem::take(&mut user.counts));
        }
        let retries_total: u64 = self.uplinks.iter().map(|u| u.tracker.retries_sent()).sum();
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
        let mut predict_scope = self.telemetry.stage_scope(stages::SCHEME_PREDICT);
        if let Some(index) = scored {
            predict_scope.set_interval(index);
        }
        let ctx = PredictionContext {
            store: self.store.twins(),
            catalog: self.world.catalog(),
            cache: self.world.edge().cache(),
            transcode: &TRANSCODE,
            link: self.world.link(),
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
    /// signalling and grouping-stability baselines move on. A scored
    /// interval then scores the prediction (and the reservation, under a
    /// policy), journals its completion and feeds the SLO watchdog and
    /// the health board.
    fn observe(
        &mut self,
        scored: Option<u64>,
        predicted: Predicted,
        actual: ActualDemand,
        handovers: u64,
        root: u64,
    ) -> Result<Option<IntervalRecord>> {
        let actual_radio = ResourceBlocks(actual.radio);
        let actual_computing = CpuCycles(actual.computing);
        self.predictor
            .observe_actual(actual_radio, actual_computing);

        let updates_total: u64 = self.uplinks.iter().map(|u| u.tracker.updates_sent()).sum();
        let updates_sent = updates_total - self.updates_sent_before;
        self.updates_sent_before = updates_total;

        let outcome = predicted.outcome;
        // Grouping stability vs the previous prediction pass, over the
        // users present in both. Both passes list users in the snapshot's
        // ascending id order, so one merge pairs them.
        let current: Vec<(UserId, usize)> = outcome
            .user_order
            .iter()
            .copied()
            .zip(outcome.grouping.assignments.iter().copied())
            .collect();
        debug_assert!(current.windows(2).all(|w| w[0].0 < w[1].0));
        let grouping_stability = self.prev_assignments.as_ref().and_then(|prev| {
            let mut prev = prev.iter().peekable();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for &(user, g) in &current {
                while prev.next_if(|&&(p, _)| p < user).is_some() {}
                if let Some(&(_, pg)) = prev.next_if(|&&(p, _)| p == user) {
                    a.push(g);
                    b.push(pg);
                }
            }
            (a.len() >= 2).then(|| msvs_cluster::adjusted_rand_index(&a, &b))
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
            degraded: degradation.is_some_and(|d| d.degraded),
            twin_coverage: degradation.map(|d| d.coverage),
            reservation,
        };
        self.telemetry.emit(Event::IntervalCompleted {
            interval: index,
            k: record.k as u64,
            silhouette: record.silhouette,
            groups: outcome.groups.len() as u64,
            predicted_rb: predicted_radio.value(),
            actual_rb: actual.radio,
            predicted_gcycles: predicted_computing.as_gigacycles(),
            actual_gcycles: actual_computing.as_gigacycles(),
            hit_ratio: actual.hit_ratio,
        });
        self.observe_health(index, root, &record);
        Ok(Some(record))
    }

    /// Playback phase: the world plays the interval out group by group,
    /// then each member's watch records flow back into its twin. Returns
    /// the measured demand.
    fn playback(&mut self, outcome: &PredictionOutcome, scored: Option<u64>) -> ActualDemand {
        let mut playback_scope = self.telemetry.stage_scope(stages::PLAYBACK);
        if let Some(index) = scored {
            playback_scope.set_interval(index);
        }
        // One child span per group; edge transcode spans opened while the
        // group plays nest underneath it.
        let telemetry = &self.telemetry;
        let (actual, watches) =
            self.world
                .play(outcome, &self.config, self.intervals_run as u64, |group| {
                    telemetry
                        .stage_scope(stages::PLAYBACK_GROUP)
                        .with_group(group)
                });
        for (id, records) in watches {
            self.store
                .twins_mut()
                .with_twin_mut(id, |twin| twin.record_watches(self.now, records))
                .expect("user twin registered at construction");
        }
        actual
    }
}

/// Exact p99 of each stage in `ceilings` over its scored spans: the
/// closed spans under an `interval` root that carries a scored index.
/// A guard stamps its attributes when it closes, so `open_root`, the
/// current scored interval's root, counts as scored while still open
/// (its own span is not a sample until it closes). Warm-up intervals
/// and pretraining, which hold the CNN training, never count.
fn scored_stage_p99_ms(
    telemetry: &Telemetry,
    ceilings: &BTreeMap<String, f64>,
    open_root: u64,
) -> BTreeMap<String, f64> {
    if ceilings.is_empty() {
        return BTreeMap::new();
    }
    telemetry
        .stage_stats_under(|root| {
            root.name == stages::INTERVAL && (root.id == open_root || root.attrs.interval.is_some())
        })
        .into_iter()
        .filter(|s| ceilings.contains_key(&s.stage))
        .map(|s| (s.stage, s.p99_ms))
        .collect()
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

/// User `id`'s collection tick, for every attribute and fault case.
///
/// Runs inside the parallel region: reports only queue in `outbox` (the
/// twin sees them after the user's last tick), and fault tallies only
/// accumulate in `user.counts` (drained serially after the pool joins).
fn user_tick(
    id: UserId,
    user: &mut UserUplink,
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
    send_report(id, user, outbox, uplink, t, Report::Channel(snr));
    send_report(id, user, outbox, uplink, t, Report::Location(pos));
    send_report(id, user, outbox, uplink, t, Report::Preference);
}

/// One attribute's share of [`user_tick`]. First the delayed reports now
/// due reach the twin late, with their original sample timestamps (held
/// while the shard is partitioned). If a `report` is due, it takes its
/// [`Uplink::fate`] and that fate's one path: deliver queues it; lose
/// (always, behind a partition) schedules a retry; delay buffers it `n`
/// ticks; corrupt queues an implausible payload. Delayed
/// and corrupted payloads the twin will refuse are tallied as `rejected`
/// when queued (acceptance depends only on the payload).
#[inline(always)]
fn send_report(
    id: UserId,
    user: &mut UserUplink,
    outbox: &mut TwinReports,
    uplink: Uplink<'_>,
    t: SimTime,
    report: Report,
) {
    let attr = report.attribute();
    let (tracker, counts) = (&mut user.tracker, &mut user.counts);
    let queue = &mut user.delayed[attr as usize];
    if !uplink.partitioned && !queue.is_empty() {
        for (sampled_at, report) in queue.drain_due(t) {
            counts.rejected += u64::from(!report.plausible());
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
            counts.lost += 1;
            tracker.mark_lost(attr, t, &rt.plan.retry);
        }
        (ReportFate::Delay(n), _) => {
            counts.delayed += 1;
            if !queue.push(t + uplink.tick * n, t, report) {
                // Queue overflow: the report never arrives.
                counts.overflowed += 1;
            }
            tracker.mark(attr, t);
        }
        (ReportFate::Corrupt, Some(rt)) => {
            counts.corrupted += 1;
            let report = report.corrupted(rt.injector.corrupt_value(id.0, t_ms, attr));
            counts.rejected += u64::from(!report.plausible());
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
    let pool = Pool::new(config.threads);
    config.threads = pool.threads();
    config.scheme.threads = pool.threads();
    (map, bs_positions, pool)
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
    use msvs_telemetry::SpanAttrs;

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
        let recorded: Vec<&str> = report
            .telemetry
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        for expected in [
            stages::SCHEME_PREDICT,
            stages::PLAYBACK,
            stages::INTERVAL,
            stages::UDT_INGEST,
            stages::CNN_FORWARD,
            stages::KMEANS_FIT,
            stages::DEMAND_PREDICT,
        ] {
            assert!(recorded.contains(&expected), "missing stage {expected}");
        }
        let scheme_predict = report
            .telemetry
            .stages
            .iter()
            .find(|s| s.stage == stages::SCHEME_PREDICT)
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

    /// `IntervalCompleted.hit_ratio` is the interval's own ratio: the
    /// change in the edge cache's counts across the interval, not the
    /// lifetime ratio that includes warm-up and earlier intervals.
    #[test]
    fn journalled_hit_ratio_is_the_intervals_own() {
        let mut sim = Simulation::new(small_config(6)).unwrap();
        sim.warm_up().unwrap();
        let mut expected = Vec::new();
        let mut lifetime = Vec::new();
        for i in 0..2 {
            let (hits_before, misses_before) = sim.world.edge().cache().stats();
            sim.run_interval(i).unwrap();
            let cache = sim.world.edge().cache();
            let (hits, misses) = cache.stats();
            let lookups = hits + misses - hits_before - misses_before;
            assert!(lookups > 0, "interval {i} served videos");
            expected.push((hits - hits_before) as f64 / lookups as f64);
            lifetime.push(cache.hit_ratio());
        }
        let journalled: Vec<f64> = sim
            .telemetry()
            .journal()
            .entries()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::IntervalCompleted { hit_ratio, .. } => Some(hit_ratio),
                _ => None,
            })
            .collect();
        assert_eq!(journalled, expected);
        assert_ne!(journalled, lifetime, "warm-up lookups are not counted");
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
            .twins()
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
        for twin in sim.store().twins().snapshot() {
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
        for twin in sim.store().twins().snapshot() {
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
    fn stability_metrics_are_populated() {
        let report = Simulation::run(small_config(21)).unwrap();
        for r in &report.intervals {
            let s = r.grouping_stability.expect("warm-up pass seeds stability");
            assert!((-1.0..=1.0).contains(&s));
        }
        assert!(report.mean_grouping_stability().is_some());
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

    /// A user behind a partitioned shard: every due report is lost and
    /// the delayed reports stay queued. The first tick after the
    /// partition heals delivers them with their original sample
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
        let id = UserId(0);
        let mut user = UserUplink::default();
        let s = SimTime::from_secs;
        let pos = Position::new(100.0, 200.0);
        let delayed = &mut user.delayed;
        assert!(delayed[Attribute::Channel as usize].push(s(9), s(8), Report::Channel(12.0)));
        assert!(delayed[Attribute::Location as usize].push(s(10), s(7), Report::Location(pos)));

        let mut uplink = Uplink {
            policy: &CollectionPolicy::default(),
            tick: SimDuration::from_secs(1),
            faults: Some(&rt),
            partitioned: true,
        };
        let mut outbox = TwinReports::default();
        user_tick(id, &mut user, &mut outbox, uplink, s(10), 20.0, pos);
        assert!(outbox.is_empty(), "nothing crosses a severed uplink");
        let queued = user.delayed.iter().filter(|q| !q.is_empty());
        assert_eq!(queued.count(), 2, "delayed reports stay queued");
        assert_eq!(user.counts.lost, 3, "every due report is lost");
        assert_eq!(user.tracker.updates_sent(), 3, "lost sends cost signalling");

        // Healed at 11 s: the held reports arrive, then the channel report
        // due on its 1 s period. Location and preference are not due.
        uplink.partitioned = false;
        let mut outbox = TwinReports::default();
        user_tick(id, &mut user, &mut outbox, uplink, s(11), 21.0, pos);
        assert!(user.delayed.iter().all(DelayQueue::is_empty));
        assert_eq!(user.counts.lost, 3);
        let mut twin = UserDigitalTwin::new(id);
        assert_eq!(twin.apply_reports(&outbox), 0, "nothing rejected");
        let channel: Vec<_> = twin.channel_series().iter().copied().collect();
        assert_eq!(channel, [(s(8), 12.0), (s(11), 21.0)]);
        let location: Vec<_> = twin.location_series().iter().copied().collect();
        assert_eq!(location, [(s(7), pos)]);
    }

    /// Outages and brownouts act outside the tick loop, so a plan with
    /// only those collects exactly like no plan: same trackers, same
    /// twins. Uplink faults change what the twins collect but never feed
    /// back into the world: a `lossy-uplink` run walks the same
    /// positions, serving cells and SNR samples as the clean run.
    #[test]
    fn outage_and_brownout_only_plan_collects_like_no_plan() {
        let builtin = |name| FaultPlan::builtin(name).unwrap();
        let outages_only = FaultPlan {
            brownouts: builtin("brownout").brownouts,
            outages: [builtin("bs-flap").outages, builtin("bs-crash").outages].concat(),
            ..FaultPlan::none()
        };
        let config = SimulationConfig {
            shards: 4,
            ..small_config(9)
        };
        let faulted = |plan| {
            let sim = Simulation::new(SimulationConfig {
                faults: Some(plan),
                ..config.clone()
            })
            .unwrap();
            assert!(sim.faults.is_some(), "the plan is active");
            sim
        };
        let mut clean = Simulation::new(config.clone()).unwrap();
        let mut outages = faulted(outages_only);
        let mut lossy = faulted(builtin("lossy-uplink"));
        let twin = |sim: &Simulation, id| {
            sim.store
                .twins()
                .with_twin(id, UserDigitalTwin::clone)
                .unwrap()
        };
        let mut twins_differ = false;
        for _ in 0..3 {
            for sim in [&mut clean, &mut outages, &mut lossy] {
                sim.collect(None);
            }
            let world = |sim: &Simulation| {
                let users = sim.world.users().iter();
                users
                    .map(|u| (u.positions.clone(), u.bs, u.snrs.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                world(&lossy),
                world(&clean),
                "uplink faults leave the world alone"
            );
            for &id in &clean.user_ids {
                twins_differ |= twin(&lossy, id) != twin(&clean, id);
            }
        }
        assert!(twins_differ, "lossy-uplink changes what the twins collect");
        for &id in &clean.user_ids {
            let (a, b) = (&clean.uplinks[id.index()], &outages.uplinks[id.index()]);
            assert_eq!(a.tracker, b.tracker, "user {id:?}");
            assert_eq!(twin(&clean, id), twin(&outages, id), "user {id:?}");
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

    /// Records a root `interval` span (scored when `scored` is set)
    /// holding one `scheme_predict` span of `ms` milliseconds.
    fn interval_with_predict(t: &Telemetry, scored: Option<u64>, ms: u64) {
        let spans = t.span_collector();
        let attrs = SpanAttrs {
            interval: scored,
            ..Default::default()
        };
        let root = spans.record_manual(None, stages::INTERVAL, 0, ms * 1000 + 500, attrs);
        let predict = SpanAttrs::default();
        spans.record_manual(Some(root), stages::SCHEME_PREDICT, 0, ms * 1000, predict);
    }

    /// Judges one interval's scored stage p99s against a 250 ms
    /// `scheme_predict` ceiling (`open_root` as in
    /// [`scored_stage_p99_ms`]); returns the p99 and the watchdog's edges.
    fn judge_predict_ceiling(t: &Telemetry, open_root: u64) -> (f64, Vec<SloEdge>) {
        let ceilings = BTreeMap::from([(stages::SCHEME_PREDICT.to_string(), 250.0)]);
        let stage_p99_ms = scored_stage_p99_ms(t, &ceilings, open_root);
        let p99 = stage_p99_ms[stages::SCHEME_PREDICT];
        let mut watchdog = SloWatchdog::new(msvs_telemetry::SloPolicy {
            stage_p99_ms: ceilings,
            ..msvs_telemetry::SloPolicy::none()
        });
        let edges = watchdog
            .observe(&SloSignals {
                interval: 0,
                min_shard_availability: None,
                twin_coverage: None,
                degraded_intervals: 0,
                stage_p99_ms,
            })
            .into_iter()
            .map(|t| t.edge)
            .collect();
        (p99, edges)
    }

    /// The warm-up prediction pass holds the CNN training; its span
    /// never counts against a scored-path ceiling.
    #[test]
    fn a_stage_ceiling_only_a_warm_up_span_exceeds_raises_no_breach() {
        let t = Telemetry::new();
        interval_with_predict(&t, None, 400);
        interval_with_predict(&t, Some(0), 5);
        let (p99, edges) = judge_predict_ceiling(&t, u64::MAX);
        assert_eq!(p99, 5.0);
        assert!(edges.is_empty(), "{edges:?}");
    }

    /// A scored span past the ceiling breaches, also while its interval
    /// root is still open and so carries no interval attribute yet.
    #[test]
    fn a_stage_ceiling_a_scored_span_exceeds_still_breaches() {
        let t = Telemetry::new();
        interval_with_predict(&t, None, 5);
        interval_with_predict(&t, Some(0), 300);
        assert_eq!(
            judge_predict_ceiling(&t, u64::MAX),
            (300.0, vec![SloEdge::Breached])
        );

        let t = Telemetry::new();
        interval_with_predict(&t, None, 5);
        let mut root = t.stage_scope(stages::INTERVAL);
        root.set_interval(0);
        let predict = SpanAttrs::default();
        t.span_collector().record_manual(
            Some(root.id()),
            stages::SCHEME_PREDICT,
            0,
            300_000,
            predict,
        );
        assert_eq!(
            judge_predict_ceiling(&t, root.id()),
            (300.0, vec![SloEdge::Breached])
        );
        let ceilings = BTreeMap::from([(stages::SCHEME_PREDICT.to_string(), 250.0)]);
        assert!(
            scored_stage_p99_ms(&t, &ceilings, u64::MAX).is_empty(),
            "an open root stamps its interval attribute only when it closes"
        );
    }
}
