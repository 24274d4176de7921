//! The shard set: routed twin writes, merged snapshots, and the serial
//! cross-shard handover sweep.

use std::collections::{BTreeSet, HashMap};

use msvs_core::GroupDemandPrediction;
use msvs_faults::OutageMode;
use msvs_par::Pool;
use msvs_telemetry::{stages, Telemetry};
use msvs_types::{Error, Position, RepresentationLevel, Result, SimDuration, SimTime, UserId};
use msvs_udt::{SyncTracker, TwinView, UserDigitalTwin};
use msvs_video::Video;

use crate::aggregate::{ReservationAggregator, ShardDemandRow, ShardSummary};
use crate::checkpoint::ShardCheckpoint;
use crate::router::ShardRouter;
use crate::shard::Shard;

/// One user's handover-relevant state, borrowed from the simulation for
/// the duration of a [`ShardCoordinator::rebalance`] sweep.
#[derive(Debug)]
pub struct HandoverUser<'a> {
    /// The user.
    pub user: UserId,
    /// The user's uplink sync state; migrated (verbatim) with the twin
    /// when the user changes shards.
    pub tracker: &'a mut SyncTracker,
}

/// Which end of an outage window a transition marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutagePhase {
    /// The shard just went down (checkpoint captured; crash mode also
    /// ran the failover sweep).
    Down,
    /// The outage window ended and the shard is live again (its
    /// checkpoint released).
    Restored,
}

/// One shard health transition from an
/// [`ShardCoordinator::apply_outages`] sweep, returned so the runner can
/// journal it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageTransition {
    /// The shard that changed state.
    pub shard: usize,
    /// The outage mode (a window's mode is pinned at its down
    /// transition; overlapping specs of the other mode do not flip it).
    pub mode: OutageMode,
    /// Down or restored.
    pub phase: OutagePhase,
    /// Twins migrated to live neighbours (crash down transitions only).
    pub failed_over: u64,
    /// Serialized size of the boundary checkpoint (down transitions).
    pub checkpoint_bytes: u64,
    /// Users captured in the checkpoint anchoring this window.
    pub checkpoint_users: u64,
}

/// Runs the per-interval stages across a set of per-BS [`Shard`]s and
/// presents them to the rest of the pipeline as one population.
///
/// Write paths mirror the [`msvs_udt::UdtStore`] API (routed through the
/// ownership map, so the parallel collection sweep works unchanged);
/// read paths implement [`TwinView`] by merging per-shard snapshots on
/// the worker pool into the canonical user-sorted order the predictor
/// consumes. With one shard the coordinator is a transparent facade over
/// a single store — same instance nonces, no shard telemetry — so the
/// legacy single-cell deployment is reproduced bit for bit.
#[derive(Debug)]
pub struct ShardCoordinator {
    shards: Vec<Shard>,
    router: ShardRouter,
    owner: HashMap<UserId, usize>,
    aggregator: ReservationAggregator,
    pool: Pool,
    telemetry: Option<Telemetry>,
    handovers_total: u64,
    peak_imbalance: f64,
    /// Per-shard health: `Some(mode)` while the shard is inside an
    /// outage window. Mutated only on the serial driver thread.
    down: Vec<Option<OutageMode>>,
    /// Boundary checkpoint per shard while it is down (captured at the
    /// down transition, released by the restore it anchors).
    checkpoints: Vec<Option<ShardCheckpoint>>,
    down_intervals: Vec<u64>,
    intervals_observed: u64,
    outages_total: u64,
    failover_handovers_total: u64,
    checkpoint_bytes_total: u64,
}

impl ShardCoordinator {
    /// Builds the shard set `router` maps into, each shard with a
    /// `video_cache_mb_per_shard` local cache tier.
    pub fn new(router: ShardRouter, pool: Pool, video_cache_mb_per_shard: f64) -> Self {
        let n = router.n_shards();
        Self {
            shards: (0..n)
                .map(|i| Shard::new(i, video_cache_mb_per_shard))
                .collect(),
            router,
            owner: HashMap::new(),
            aggregator: ReservationAggregator::new(n),
            pool,
            telemetry: None,
            handovers_total: 0,
            peak_imbalance: 1.0,
            down: vec![None; n],
            checkpoints: vec![None; n],
            down_intervals: vec![0; n],
            intervals_observed: 0,
            outages_total: 0,
            failover_handovers_total: 0,
            checkpoint_bytes_total: 0,
        }
    }

    /// Wires the shard plane into an observability pipeline. Stages and
    /// counters are only emitted when more than one shard runs, so a
    /// one-shard deployment's telemetry is identical to the unsharded
    /// path.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether the deployment is actually partitioned (shard telemetry
    /// and the handover sweep only run when it is).
    pub fn sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// The shards themselves (read-only).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The router mapping positions to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shard currently owning `user`, if registered.
    pub fn owner_of(&self, user: UserId) -> Option<usize> {
        self.owner.get(&user).copied()
    }

    /// The outage mode `shard` is currently inside, if any.
    pub fn outage_mode(&self, shard: usize) -> Option<OutageMode> {
        self.down.get(shard).copied().flatten()
    }

    /// Whether `shard` is currently inside an outage window.
    pub fn is_down(&self, shard: usize) -> bool {
        self.outage_mode(shard).is_some()
    }

    /// The boundary checkpoint of `shard` if it is down now; `None`
    /// while it is live, since the restore releases the checkpoint.
    pub fn last_checkpoint(&self, shard: usize) -> Option<&ShardCheckpoint> {
        self.checkpoints.get(shard).and_then(Option::as_ref)
    }

    fn live_mask(&self) -> Vec<bool> {
        self.down.iter().map(Option::is_none).collect()
    }

    /// Routes `pos` to a live shard. With every shard up this is exactly
    /// [`ShardRouter::shard_of`] (bit-identical to the pre-outage
    /// routing); during an outage the nearest live cell adopts the user.
    fn route_live(&self, pos: Position) -> usize {
        if self.down.iter().all(Option::is_none) {
            return self.router.shard_of(pos);
        }
        self.router
            .shard_of_live(pos, &self.live_mask())
            // Unreachable: apply_outages never downs the last live shard.
            .unwrap_or_else(|| self.router.shard_of(pos))
    }

    /// For each user (in caller order), whether their owning shard is
    /// inside a partition window — the fault plane forces those uplink
    /// reports lost. Computed serially so the parallel collection sweep
    /// can consume a plain slice.
    pub fn partitioned_users(&self, users: &[UserId]) -> Vec<bool> {
        users
            .iter()
            .map(|u| {
                self.owner
                    .get(u)
                    .is_some_and(|&s| matches!(self.down[s], Some(OutageMode::Partition)))
            })
            .collect()
    }

    /// Registers (or replaces, on a churned slot) a twin, routed by the
    /// user's position. A replaced slot's old twin is evicted from
    /// whichever shard held it first, so a churned `UserId` can never
    /// exist in two shards at once.
    pub fn insert(&mut self, twin: UserDigitalTwin, pos: Position) {
        let user = twin.user();
        if let Some(prev) = self.owner_of(user) {
            self.shards[prev].store().remove(user);
        }
        let shard = self.route_live(pos);
        self.shards[shard].store().insert(twin);
        self.owner.insert(user, shard);
    }

    /// Removes a twin, returning it if present.
    pub fn remove(&mut self, user: UserId) -> Option<UserDigitalTwin> {
        let shard = self.owner.remove(&user)?;
        self.shards[shard].store().remove(user)
    }

    /// Whether a twin exists for `user`.
    pub fn contains(&self, user: UserId) -> bool {
        self.owner_of(user)
            .is_some_and(|s| self.shards[s].store().contains(user))
    }

    /// All registered user ids (sorted for determinism).
    pub fn user_ids(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self.owner.keys().copied().collect();
        ids.sort();
        ids
    }

    fn routed<T>(&self, user: UserId, f: impl FnOnce(&Shard) -> Result<T>) -> Result<T> {
        match self.owner_of(user) {
            Some(s) => f(&self.shards[s]),
            None => Err(Error::not_found("user twin", user)),
        }
    }

    /// Runs `f` with shared access to a twin (see
    /// [`msvs_udt::UdtStore::with_twin`]).
    ///
    /// # Errors
    /// Returns [`Error::NotFound`] for an unregistered user.
    pub fn with_twin<T>(&self, user: UserId, f: impl FnOnce(&UserDigitalTwin) -> T) -> Result<T> {
        self.routed(user, |s| s.store().with_twin(user, f))
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
        self.routed(user, |s| s.store().with_twin_mut(user, f))
    }

    /// Total twins across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether no shard holds any twin.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fresh-twin coverage pooled across shards — integer counts are
    /// summed before dividing, so the fraction is bit-identical to one
    /// store holding the same twins.
    pub fn fresh_fraction(&self, now: SimTime, horizon: SimDuration) -> f64 {
        let (fresh, total) = self.shards.iter().fold((0usize, 0usize), |(f, t), shard| {
            let (sf, st) = shard.store().fresh_count(now, horizon);
            (f + sf, t + st)
        });
        if total == 0 {
            0.0
        } else {
            fresh as f64 / total as f64
        }
    }

    /// The canonical population view: per-shard snapshots taken on the
    /// worker pool, merged into user-sorted order — identical to the
    /// snapshot of one store holding every twin. Emits a `shard_gather`
    /// stage with one child span per shard when sharded.
    pub fn snapshot(&self) -> Vec<UserDigitalTwin> {
        if !self.sharded() {
            return self.shards[0].store().snapshot();
        }
        let scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(stages::SHARD_GATHER));
        let (parts, stats) = self
            .pool
            .map_stats(&self.shards, |_, shard| shard.store().snapshot());
        if let (Some(t), Some(_scope)) = (&self.telemetry, scope.as_ref()) {
            for (i, part) in parts.iter().enumerate() {
                let mut span = t.span(stages::SHARD_SLICE);
                span.set_batch(i as u64);
                let _ = part;
                span.end();
            }
            t.gauge("par_threads", stages::SHARD_GATHER)
                .set(stats.threads as f64);
            t.gauge("par_utilisation", stages::SHARD_GATHER)
                .set(stats.utilisation());
        }
        let mut twins: Vec<UserDigitalTwin> = parts.into_iter().flatten().collect();
        twins.sort_by_key(|t| t.user());
        twins
    }

    /// Re-evaluates ownership for every user (in the given order — the
    /// caller passes its deterministic user vector) and migrates twins
    /// whose reported position crossed a cell boundary; returns how many
    /// twins moved. A handover never duplicates or drops a twin.
    ///
    /// Serial by design: migrations mutate two shards and the ownership
    /// map, and the sweep must be bit-identical at any thread count.
    pub fn rebalance(&mut self, users: &mut [HandoverUser<'_>]) -> usize {
        if !self.sharded() {
            return 0;
        }
        let before = self.len();
        let scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(stages::SHARD_REBALANCE));
        let mut moved = 0;
        for hu in users.iter_mut() {
            let user = hu.user;
            let Some(from) = self.owner_of(user) else {
                continue;
            };
            if self.down[from].is_some() {
                continue; // partitioned cell: no reports cross, users stay
            }
            let Some(pos) = self.shards[from]
                .store()
                .with_twin(user, |t| t.latest_position())
                .ok()
                .flatten()
            else {
                continue; // no reported position yet — stays put
            };
            let to = self.route_live(pos);
            if to == from {
                continue;
            }
            let tracker = std::mem::take(hu.tracker);
            let export = self.shards[from]
                .export(user, tracker)
                .expect("owner map said this shard holds the twin");
            *hu.tracker = self.shards[to].import(export);
            self.owner.insert(user, to);
            moved += 1;
        }
        debug_assert_eq!(self.len(), before, "handover must conserve twins");
        self.handovers_total += moved as u64;
        let imbalance = self.imbalance();
        self.peak_imbalance = self.peak_imbalance.max(imbalance);
        if let (Some(t), Some(_scope)) = (&self.telemetry, scope.as_ref()) {
            for i in 0..self.shards.len() {
                let mut span = t.span(stages::SHARD_SLICE);
                span.set_batch(i as u64);
                span.end();
            }
            t.counter("handovers_total", "all").add(moved as u64);
            t.gauge("shard_imbalance", "all").set(imbalance);
        }
        moved
    }

    /// Applies one interval's shard-outage schedule and accounts
    /// availability. `target(shard)` is the fault plan's verdict for the
    /// interval (e.g. [`msvs_faults::FaultPlan::outage_at`]); `users` is
    /// the caller's deterministic user vector, borrowed exactly as for
    /// [`rebalance`](Self::rebalance).
    ///
    /// Transitions are serial and interval-scheduled (only the byte
    /// count fans out, and it sums integers), so the whole lifecycle is
    /// bit-identical at any thread count:
    ///
    /// - **down** (`None -> Some(mode)`): a boundary [`ShardCheckpoint`]
    ///   is captured and held as-is; its encoded size is counted on the
    ///   worker pool, one twin entry per task, without serializing it
    ///   (the codec's round trip is checked by the checkpoint tests and
    ///   by `msvs checkpoint --restore`, not here). `Crash` then runs
    ///   the failover sweep — every owned twin is exported through the
    ///   normal handover path to the nearest live cell (ring-next shard
    ///   for users with no reported position) — and the store ends
    ///   empty. `Partition` leaves the twins in place; the runner
    ///   forces those users' uplink reports lost, which engages the
    ///   sync-tracker retry/backoff and the prediction degradation
    ///   ladder.
    /// - **restored** (`Some(mode) -> None` once the window ends): the
    ///   store's instance-nonce counter resumes monotonically from the
    ///   checkpoint so a recovered shard can never re-stamp a nonce. The
    ///   restore reads only that counter and the user count, then drops
    ///   the checkpoint. The next [`rebalance`](Self::rebalance) sweep
    ///   takes the shard's users back through the same handover path
    ///   (the interval delta rides the live twins; a partitioned shard
    ///   replays its backlog through the trackers' pending retries).
    ///
    /// A transition that would down the **last live shard** is ignored
    /// deterministically — its users would have nowhere to go. While a
    /// shard is down, overlapping specs of the other mode do not flip
    /// the window's pinned mode. Twin conservation holds across the
    /// whole kill/failover/restore cycle: a failover moves twins, never
    /// duplicates or drops them.
    pub fn apply_outages(
        &mut self,
        interval: u64,
        target: impl Fn(usize) -> Option<OutageMode>,
        users: &mut [HandoverUser<'_>],
    ) -> Vec<OutageTransition> {
        let mut transitions = Vec::new();
        if !self.sharded() {
            return transitions;
        }
        let before = self.len();
        for i in 0..self.shards.len() {
            match (self.down[i], target(i)) {
                (None, Some(mode)) => {
                    let live_after = self
                        .down
                        .iter()
                        .enumerate()
                        .filter(|(j, d)| *j != i && d.is_none())
                        .count();
                    if live_after == 0 {
                        continue; // never down the last live shard
                    }
                    let scope = self
                        .telemetry
                        .as_ref()
                        .map(|t| t.stage_scope(stages::SHARD_OUTAGE));
                    let trackers: HashMap<UserId, SyncTracker> = users
                        .iter()
                        .filter(|hu| self.owner.get(&hu.user) == Some(&i))
                        .map(|hu| (hu.user, hu.tracker.clone()))
                        .collect();
                    let ckpt = ShardCheckpoint::capture(&self.shards[i], interval, |u| {
                        trackers.get(&u).cloned().unwrap_or_default()
                    });
                    let bytes = ckpt.encoded_len(&self.pool) as u64;
                    self.down[i] = Some(mode);
                    let mut failed_over = 0u64;
                    if mode == OutageMode::Crash {
                        let mask = self.live_mask();
                        for hu in users.iter_mut() {
                            if self.owner_of(hu.user) != Some(i) {
                                continue;
                            }
                            let pos = self.shards[i]
                                .store()
                                .with_twin(hu.user, |t| t.latest_position())
                                .ok()
                                .flatten();
                            let to = pos
                                .and_then(|p| self.router.shard_of_live(p, &mask))
                                .or_else(|| self.router.next_live_shard(i, &mask))
                                .expect("a live shard exists (guarded above)");
                            let tracker = std::mem::take(hu.tracker);
                            let export = self.shards[i]
                                .export(hu.user, tracker)
                                .expect("owner map said this shard holds the twin");
                            *hu.tracker = self.shards[to].import(export);
                            self.owner.insert(hu.user, to);
                            failed_over += 1;
                        }
                        debug_assert!(
                            self.shards[i].is_empty(),
                            "crash failover must evacuate every twin"
                        );
                    }
                    self.outages_total += 1;
                    self.failover_handovers_total += failed_over;
                    self.checkpoint_bytes_total += bytes;
                    transitions.push(OutageTransition {
                        shard: i,
                        mode,
                        phase: OutagePhase::Down,
                        failed_over,
                        checkpoint_bytes: bytes,
                        checkpoint_users: ckpt.len() as u64,
                    });
                    self.checkpoints[i] = Some(ckpt);
                    if let (Some(t), Some(_scope)) = (&self.telemetry, scope.as_ref()) {
                        t.counter("shard_outages_total", mode.label()).add(1);
                        t.counter("checkpoint_bytes_total", "all").add(bytes);
                        t.counter("failover_handovers_total", "all")
                            .add(failed_over);
                    }
                }
                (Some(mode), None) => {
                    let _scope = self
                        .telemetry
                        .as_ref()
                        .map(|t| t.stage_scope(stages::SHARD_RESTORE));
                    let checkpoint_users = self.checkpoints[i]
                        .take()
                        .map(|c| {
                            self.shards[i]
                                .store()
                                .restore_next_instance(c.next_instance);
                            c.len() as u64
                        })
                        .unwrap_or(0);
                    self.down[i] = None;
                    transitions.push(OutageTransition {
                        shard: i,
                        mode,
                        phase: OutagePhase::Restored,
                        failed_over: 0,
                        checkpoint_bytes: 0,
                        checkpoint_users,
                    });
                }
                // Steady state; a mode change while down keeps the
                // window's pinned mode.
                _ => {}
            }
        }
        debug_assert_eq!(self.len(), before, "outage transitions must conserve twins");
        self.intervals_observed += 1;
        for (i, d) in self.down.iter().enumerate() {
            if d.is_some() {
                self.down_intervals[i] += 1;
            }
        }
        transitions
    }

    /// Current load factor: the largest shard population over the ideal
    /// (uniform) population. `1.0` means perfectly balanced; an empty
    /// deployment reports `1.0`.
    pub fn imbalance(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            return 1.0;
        }
        let max = self.shards.iter().map(Shard::len).max().unwrap_or(0);
        let ideal = total as f64 / self.shards.len() as f64;
        max as f64 / ideal
    }

    /// Folds one interval's per-group demand predictions into the global
    /// reservation aggregator's per-shard rows (no-op unsharded).
    pub fn fold_demand(&mut self, groups: &[GroupDemandPrediction]) {
        if !self.sharded() {
            return;
        }
        let _scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(stages::SHARD_AGGREGATE));
        self.aggregator.fold(groups, &self.owner);
    }

    /// Records one multicast group playback against the local video
    /// cache tier of every shard with a member in the group — each
    /// shard's BS fetches the stream once (no-op unsharded).
    pub fn record_group_playback(
        &mut self,
        members: &[UserId],
        video: &Video,
        level: RepresentationLevel,
    ) {
        if !self.sharded() {
            return;
        }
        let shards: BTreeSet<usize> = members
            .iter()
            .filter_map(|u| self.owner.get(u).copied())
            .collect();
        for s in shards {
            self.shards[s].record_playback(video, level);
        }
    }

    /// Cumulative handovers across the run.
    pub fn handovers_total(&self) -> u64 {
        self.handovers_total
    }

    /// Cumulative crash failover handovers across the run.
    pub fn failover_handovers_total(&self) -> u64 {
        self.failover_handovers_total
    }

    /// End-of-run shard-plane summary for the simulation report.
    pub fn summary(&self) -> ShardSummary {
        ShardSummary {
            shards: self.shards.len(),
            handovers_total: self.handovers_total,
            peak_imbalance: self.peak_imbalance,
            outages_total: self.outages_total,
            failover_handovers_total: self.failover_handovers_total,
            checkpoint_bytes_total: self.checkpoint_bytes_total,
            intervals_observed: self.intervals_observed,
            demand: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let (hits, misses) = s.video_cache().stats();
                    ShardDemandRow {
                        shard: i,
                        users: s.len(),
                        radio: self.aggregator.radio()[i],
                        computing: self.aggregator.computing()[i],
                        video_cache_hits: hits,
                        video_cache_misses: misses,
                        down_intervals: self.down_intervals[i],
                        availability: if self.intervals_observed == 0 {
                            1.0
                        } else {
                            1.0 - self.down_intervals[i] as f64 / self.intervals_observed as f64
                        },
                    }
                })
                .collect(),
        }
    }
}

impl TwinView for ShardCoordinator {
    fn len(&self) -> usize {
        ShardCoordinator::len(self)
    }

    fn fresh_fraction(&self, now: SimTime, horizon: SimDuration) -> f64 {
        ShardCoordinator::fresh_fraction(self, now, horizon)
    }

    fn snapshot(&self) -> Vec<UserDigitalTwin> {
        ShardCoordinator::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Position> {
        vec![
            Position::new(0.0, 0.0),
            Position::new(100.0, 0.0),
            Position::new(0.0, 100.0),
            Position::new(100.0, 100.0),
        ]
    }

    fn coordinator(n_shards: usize) -> ShardCoordinator {
        ShardCoordinator::new(ShardRouter::new(grid(), n_shards), Pool::serial(), 10_000.0)
    }

    fn insert_at(c: &mut ShardCoordinator, id: u32, x: f64, y: f64) {
        let twin = UserDigitalTwin::new(UserId(id));
        c.insert(twin, Position::new(x, y));
        c.with_twin_mut(UserId(id), |t| {
            t.update_location(SimTime::ZERO, Position::new(x, y))
        })
        .unwrap();
    }

    #[test]
    fn routes_writes_to_the_owning_shard() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0); // bs 0 -> shard 0
        insert_at(&mut c, 1, 99.0, 1.0); // bs 1 -> shard 1
        assert_eq!(c.owner_of(UserId(0)), Some(0));
        assert_eq!(c.owner_of(UserId(1)), Some(1));
        assert_eq!(c.len(), 2);
        assert!(c.contains(UserId(0)));
        c.with_twin_mut(UserId(0), |t| t.update_channel(SimTime::ZERO, 8.0))
            .unwrap();
        assert_eq!(
            c.with_twin(UserId(0), |t| t.latest_snr_db()).unwrap(),
            Some(8.0)
        );
        assert!(c
            .with_twin_mut(UserId(9), |t| t.update_channel(SimTime::ZERO, 1.0))
            .is_err());
        assert_eq!(c.shards()[0].len(), 1);
        assert_eq!(c.shards()[1].len(), 1);
    }

    #[test]
    fn merged_snapshot_is_user_sorted_across_shards() {
        let mut c = coordinator(4);
        insert_at(&mut c, 7, 99.0, 99.0);
        insert_at(&mut c, 1, 1.0, 1.0);
        insert_at(&mut c, 3, 99.0, 1.0);
        let snap = TwinView::snapshot(&c);
        let ids: Vec<u32> = snap.iter().map(|t| t.user().into()).collect();
        assert_eq!(ids, vec![1, 3, 7]);
    }

    #[test]
    fn rebalance_moves_boundary_crossers_and_conserves_twins() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        // User 0 reports a position in BS 1's cell.
        c.with_twin_mut(UserId(0), |t| {
            t.update_location(SimTime::from_secs(5), Position::new(98.0, 2.0))
        })
        .unwrap();
        let mut t0 = SyncTracker::default();
        let mut t1 = SyncTracker::default();
        let mut users = vec![
            HandoverUser {
                user: UserId(0),
                tracker: &mut t0,
            },
            HandoverUser {
                user: UserId(1),
                tracker: &mut t1,
            },
        ];
        assert_eq!(c.rebalance(&mut users), 1);
        assert_eq!(c.owner_of(UserId(0)), Some(1));
        assert_eq!(c.len(), 2, "handover conserves twins");
        assert_eq!(c.handovers_total(), 1);
        // Idempotent: nobody crosses on the second sweep.
        assert_eq!(c.rebalance(&mut users), 0);
    }

    #[test]
    fn churned_slot_cannot_exist_in_two_shards() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        // Churn: same id, new user spawning in the other cell.
        let twin = UserDigitalTwin::new(UserId(0));
        c.insert(twin, Position::new(99.0, 1.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.owner_of(UserId(0)), Some(1));
        assert!(c.shards()[0].store().is_empty());
    }

    #[test]
    fn single_shard_is_a_transparent_facade() {
        let mut c = coordinator(1);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 99.0);
        assert!(!c.sharded());
        let mut trackers = [SyncTracker::default(), SyncTracker::default()];
        let [ref mut tr0, ref mut tr1] = trackers;
        let mut users = vec![
            HandoverUser {
                user: UserId(0),
                tracker: tr0,
            },
            HandoverUser {
                user: UserId(1),
                tracker: tr1,
            },
        ];
        assert_eq!(c.rebalance(&mut users), 0);
        // Legacy nonce sequence: 1, 2, ...
        assert_eq!(
            c.with_twin(UserId(0), |t| t.revision().instance).unwrap(),
            1
        );
        assert_eq!(
            c.with_twin(UserId(1), |t| t.revision().instance).unwrap(),
            2
        );
    }

    fn handover_users<'a>(trackers: &'a mut [(UserId, SyncTracker)]) -> Vec<HandoverUser<'a>> {
        trackers
            .iter_mut()
            .map(|(user, tracker)| HandoverUser {
                user: *user,
                tracker,
            })
            .collect()
    }

    #[test]
    fn crash_kill_failover_restore_conserves_twins() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0); // shard 0
        insert_at(&mut c, 1, 99.0, 1.0); // shard 1
        insert_at(&mut c, 2, 98.0, 2.0); // shard 1
        let mut trackers: Vec<(UserId, SyncTracker)> = (0..3)
            .map(|i| (UserId(i), SyncTracker::default()))
            .collect();

        // Interval 1: shard 1 crashes. Its users fail over to shard 0.
        let mut users = handover_users(&mut trackers);
        let t = c.apply_outages(1, |s| (s == 1).then_some(OutageMode::Crash), &mut users);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, OutagePhase::Down);
        assert_eq!(t[0].failed_over, 2);
        assert_eq!(t[0].checkpoint_users, 2);
        assert!(t[0].checkpoint_bytes > 0);
        assert!(c.is_down(1));
        assert_eq!(c.len(), 3, "failover conserves twins");
        assert_eq!(c.owner_of(UserId(1)), Some(0));
        assert_eq!(c.owner_of(UserId(2)), Some(0));
        assert!(c.shards()[1].is_empty());
        assert_eq!(c.failover_handovers_total(), 2);

        // Mid-outage: churn arrivals route around the dead cell.
        let twin = UserDigitalTwin::new(UserId(9));
        c.insert(twin, Position::new(99.0, 1.0));
        assert_eq!(c.owner_of(UserId(9)), Some(0));
        c.remove(UserId(9));

        // Mid-outage rebalance must not move anyone back yet.
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 0);

        // Interval 3: the window ends; the next sweep takes them back.
        let mut users = handover_users(&mut trackers);
        let t = c.apply_outages(3, |_| None, &mut users);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, OutagePhase::Restored);
        assert_eq!(t[0].checkpoint_users, 2);
        assert!(!c.is_down(1));
        let mut users = handover_users(&mut trackers);
        assert_eq!(
            c.rebalance(&mut users),
            2,
            "recovered shard takes its users back"
        );
        assert_eq!(c.owner_of(UserId(1)), Some(1));
        assert_eq!(c.len(), 3, "conservation holds across the whole cycle");
    }

    /// A down → restore cycle holds the checkpoint only while the shard
    /// is down, restores the captured user count, and counts the same
    /// bytes at any pool size.
    #[test]
    fn restore_releases_the_checkpoint_and_the_count_ignores_the_pool() {
        let cycle = |pool: Pool| {
            let mut c = ShardCoordinator::new(ShardRouter::new(grid(), 2), pool, 10_000.0);
            insert_at(&mut c, 0, 1.0, 1.0); // shard 0
            insert_at(&mut c, 1, 99.0, 1.0); // shard 1
            insert_at(&mut c, 2, 98.0, 2.0); // shard 1
                                             // Fractional samples, so the count formats floats.
            for id in [1, 2] {
                c.with_twin_mut(UserId(id), |t| {
                    t.update_channel(SimTime::ZERO, 0.1 * id as f64)
                })
                .unwrap();
            }
            let mut trackers: Vec<(UserId, SyncTracker)> = (0..3)
                .map(|i| (UserId(i), SyncTracker::default()))
                .collect();
            let mut users = handover_users(&mut trackers);
            let down = c.apply_outages(1, |s| (s == 1).then_some(OutageMode::Crash), &mut users);
            let held = c.last_checkpoint(1).expect("held while down");
            assert_eq!(held.len(), 2);
            assert_eq!(down[0].checkpoint_bytes, held.to_string().len() as u64);
            assert!(c.last_checkpoint(0).is_none(), "shard 0 never went down");
            let mut users = handover_users(&mut trackers);
            let up = c.apply_outages(2, |_| None, &mut users);
            assert_eq!(up[0].phase, OutagePhase::Restored);
            assert_eq!(up[0].checkpoint_users, 2, "recovered = captured users");
            assert!(c.last_checkpoint(1).is_none(), "restore releases it");
            down[0].checkpoint_bytes
        };
        assert_eq!(cycle(Pool::serial()), cycle(Pool::new(4)));
    }

    #[test]
    fn restored_store_never_restamps_a_pre_outage_nonce() {
        let mut c = coordinator(2);
        insert_at(&mut c, 1, 99.0, 1.0); // shard 1
        insert_at(&mut c, 0, 1.0, 1.0); // shard 0 (keeps a live target)
        let nonce_before = c.shards()[1].store().next_instance();
        let mut trackers: Vec<(UserId, SyncTracker)> = (0..2)
            .map(|i| (UserId(i), SyncTracker::default()))
            .collect();
        let mut users = handover_users(&mut trackers);
        c.apply_outages(1, |s| (s == 1).then_some(OutageMode::Crash), &mut users);
        let mut users = handover_users(&mut trackers);
        c.apply_outages(2, |_| None, &mut users);
        assert!(c.shards()[1].store().next_instance() >= nonce_before);
        // A fresh insert on the recovered shard stamps a new nonce.
        let twin = UserDigitalTwin::new(UserId(7));
        c.insert(twin, Position::new(99.0, 1.0));
        let rev = c.with_twin(UserId(7), |t| t.revision()).unwrap();
        assert!(rev.instance >= nonce_before);
    }

    #[test]
    fn partition_pins_users_in_place_and_reports_them() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        let mut trackers: Vec<(UserId, SyncTracker)> = (0..2)
            .map(|i| (UserId(i), SyncTracker::default()))
            .collect();
        let mut users = handover_users(&mut trackers);
        let t = c.apply_outages(1, |s| (s == 1).then_some(OutageMode::Partition), &mut users);
        assert_eq!(t[0].failed_over, 0, "partition does not move twins");
        assert_eq!(c.owner_of(UserId(1)), Some(1));
        assert_eq!(
            c.partitioned_users(&[UserId(0), UserId(1)]),
            vec![false, true]
        );
        // The partitioned user cannot hand over even if their last
        // report put them across the boundary.
        c.with_twin_mut(UserId(1), |t| {
            t.update_location(SimTime::from_secs(9), Position::new(1.0, 2.0))
        })
        .unwrap();
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 0);
        // Heal: the backlog user hands over on the next sweep.
        let mut users = handover_users(&mut trackers);
        c.apply_outages(2, |_| None, &mut users);
        assert_eq!(c.partitioned_users(&[UserId(1)]), vec![false]);
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn the_last_live_shard_cannot_be_downed() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        let mut trackers: Vec<(UserId, SyncTracker)> = (0..2)
            .map(|i| (UserId(i), SyncTracker::default()))
            .collect();
        let mut users = handover_users(&mut trackers);
        let t = c.apply_outages(1, |_| Some(OutageMode::Crash), &mut users);
        assert_eq!(t.len(), 1, "only the first shard goes down");
        assert_eq!(t[0].shard, 0);
        assert!(!c.is_down(1), "shard 1 is the last live shard");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn availability_accounts_down_intervals() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        let mut trackers: Vec<(UserId, SyncTracker)> = (0..2)
            .map(|i| (UserId(i), SyncTracker::default()))
            .collect();
        for interval in 0..4u64 {
            let mut users = handover_users(&mut trackers);
            // Shard 1 is down for intervals 1 and 2 of 4.
            c.apply_outages(
                interval,
                |s| (s == 1 && (1..3).contains(&interval)).then_some(OutageMode::Partition),
                &mut users,
            );
        }
        let summary = c.summary();
        assert_eq!(summary.intervals_observed, 4);
        assert_eq!(summary.outages_total, 1);
        assert_eq!(summary.demand[0].down_intervals, 0);
        assert_eq!(summary.demand[1].down_intervals, 2);
        assert!((summary.demand[0].availability - 1.0).abs() < 1e-12);
        assert!((summary.demand[1].availability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_tie_user_keeps_a_unique_stable_owner_under_outage_overlay() {
        // A user exactly equidistant between BS 0 (shard 0) and BS 1
        // (shard 1). The tie must resolve identically in the base router
        // and the outage overlay, and the owner map must hold exactly
        // one entry for the user at every step of the cycle.
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 50.0, 0.0); // tie -> lowest BS index -> shard 0
        insert_at(&mut c, 1, 99.0, 1.0); // shard 1 stays live
        assert_eq!(c.owner_of(UserId(0)), Some(0));
        let mut trackers: Vec<(UserId, SyncTracker)> = (0..2)
            .map(|i| (UserId(i), SyncTracker::default()))
            .collect();

        // Rebalance with everything live: the tie user must not flap.
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 0);

        // Crash shard 0: the tie re-resolves deterministically onto the
        // overlay (nearest live BS) and the owner stays unique.
        let mut users = handover_users(&mut trackers);
        c.apply_outages(1, |s| (s == 0).then_some(OutageMode::Crash), &mut users);
        assert_eq!(c.owner_of(UserId(0)), Some(1));
        assert_eq!(c.len(), 2, "exactly one twin per user");
        // Sweeps while down are idempotent for the boundary user.
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 0);

        // Restore: the tie falls back to the base resolution (shard 0).
        let mut users = handover_users(&mut trackers);
        c.apply_outages(3, |_| None, &mut users);
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 1);
        assert_eq!(c.owner_of(UserId(0)), Some(0));
        assert_eq!(c.len(), 2);
        // And the resolution is stable: a second sweep moves nobody.
        let mut users = handover_users(&mut trackers);
        assert_eq!(c.rebalance(&mut users), 0);
    }

    #[test]
    fn imbalance_tracks_the_largest_shard() {
        let mut c = coordinator(2);
        assert_eq!(c.imbalance(), 1.0);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 2.0, 1.0);
        insert_at(&mut c, 2, 1.0, 2.0);
        insert_at(&mut c, 3, 99.0, 1.0);
        // 3 vs 1 users on 2 shards: max 3 over ideal 2.
        assert!((c.imbalance() - 1.5).abs() < 1e-12);
    }
}
