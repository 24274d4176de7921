//! The shard set: one twin store, an owner label per user, and the
//! serial cross-shard handover sweep.

use msvs_core::GroupDemandPrediction;
use msvs_faults::OutageMode;
use msvs_telemetry::{stages, Telemetry};
use msvs_types::{Position, UserId};
use msvs_udt::{SyncTracker, UdtStore, UserDigitalTwin};

use crate::aggregate::{ReservationAggregator, ShardDemandRow, ShardSummary};
use crate::checkpoint::ShardCheckpoint;
use crate::router::ShardRouter;

/// Which end of an outage window a transition marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutagePhase {
    /// The shard just went down (crash mode also ran the failover
    /// sweep).
    Down,
    /// The outage window ended and the shard is live again.
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
    /// Users relabelled to live neighbours (crash down transitions only).
    pub failed_over: u64,
}

/// Runs the per-interval shard stages over one twin store and presents
/// it to the rest of the pipeline as one population.
///
/// Every twin lives in a single [`UdtStore`]; a shard is only the label
/// saying which base station's shard owns a user. Readers and writers
/// reach the store itself through [`twins`](Self::twins) and
/// [`twins_mut`](Self::twins_mut). A handover or a
/// crash failover relabels a user and never touches the twin, so the
/// twins, their instance nonces included, are the same at any shard
/// count. With one shard no shard telemetry is emitted and the handover
/// and outage sweeps do not run.
#[derive(Debug)]
pub struct ShardCoordinator {
    store: UdtStore,
    /// The shard owning each user's twin, indexed by user id; `None`
    /// for an id with no twin.
    owner: Vec<Option<usize>>,
    router: ShardRouter,
    aggregator: ReservationAggregator,
    telemetry: Option<Telemetry>,
    handovers_total: u64,
    peak_imbalance: f64,
    /// Per-shard health: `Some(mode)` while the shard is inside an
    /// outage window. Mutated only on the serial driver thread.
    down: Vec<Option<OutageMode>>,
    down_intervals: Vec<u64>,
    intervals_observed: u64,
    outages_total: u64,
    failover_handovers_total: u64,
}

impl ShardCoordinator {
    /// Builds the shard set `router` maps into, with an empty store.
    pub fn new(router: ShardRouter) -> Self {
        let n = router.n_shards();
        Self {
            store: UdtStore::new(),
            owner: Vec::new(),
            router,
            aggregator: ReservationAggregator::new(n),
            telemetry: None,
            handovers_total: 0,
            peak_imbalance: 1.0,
            down: vec![None; n],
            down_intervals: vec![0; n],
            intervals_observed: 0,
            outages_total: 0,
            failover_handovers_total: 0,
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
        self.router.n_shards()
    }

    /// Whether the deployment is actually partitioned (shard telemetry
    /// and the handover sweep only run when it is).
    pub fn sharded(&self) -> bool {
        self.n_shards() > 1
    }

    /// The shard currently owning `user`, if registered.
    pub fn owner_of(&self, user: UserId) -> Option<usize> {
        self.owner.get(user.index()).copied().flatten()
    }

    fn set_owner(&mut self, user: UserId, shard: usize) {
        let i = user.index();
        if i >= self.owner.len() {
            self.owner.resize(i + 1, None);
        }
        self.owner[i] = Some(shard);
    }

    /// The users `shard` owns, in ascending id order.
    fn owned_by(&self, shard: usize) -> impl Iterator<Item = UserId> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter(move |(_, o)| **o == Some(shard))
            .map(|(i, _)| UserId(i as u32))
    }

    /// The outage mode `shard` is currently inside, if any.
    pub fn outage_mode(&self, shard: usize) -> Option<OutageMode> {
        self.down.get(shard).copied().flatten()
    }

    /// Whether `shard` is currently inside an outage window.
    pub fn is_down(&self, shard: usize) -> bool {
        self.outage_mode(shard).is_some()
    }

    /// Snapshots the twins `shard` owns at `interval`, pairing each with
    /// its uplink sync state from `tracker_of`.
    pub fn checkpoint(
        &self,
        shard: usize,
        interval: u64,
        tracker_of: impl FnMut(UserId) -> SyncTracker,
    ) -> ShardCheckpoint {
        ShardCheckpoint::capture(
            &self.store,
            shard,
            self.owned_by(shard),
            interval,
            tracker_of,
        )
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
            .map(|&u| {
                self.owner_of(u)
                    .is_some_and(|s| matches!(self.down[s], Some(OutageMode::Partition)))
            })
            .collect()
    }

    /// Registers (or replaces, on a churned slot) a twin, owned by the
    /// shard `pos` routes to.
    pub fn insert(&mut self, twin: UserDigitalTwin, pos: Position) {
        self.set_owner(twin.user(), self.route_live(pos));
        self.store.insert(twin);
    }

    /// The twin store, every twin in one map whatever its owner.
    pub fn twins(&self) -> &UdtStore {
        &self.store
    }

    /// The twin store, for writes (collection and playback).
    pub fn twins_mut(&mut self) -> &mut UdtStore {
        &mut self.store
    }

    /// Number of registered twins: the population the owner labels
    /// split, which [`imbalance`](Self::imbalance) divides and e2ebench's
    /// twin-conservation check reads.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Re-evaluates ownership for every user (in the given order — the
    /// caller passes its deterministic user order) and relabels users
    /// whose reported position crossed a cell boundary; returns how many
    /// handed over. The twins themselves never move.
    ///
    /// Serial by design: the sweep must be bit-identical at any thread
    /// count.
    pub fn rebalance(&mut self, users: &[UserId]) -> usize {
        if !self.sharded() {
            return 0;
        }
        let _scope = self
            .telemetry
            .as_ref()
            .map(|t| t.stage_scope(stages::SHARD_REBALANCE));
        let mut moved = 0;
        for &user in users {
            let Some(from) = self.owner_of(user) else {
                continue;
            };
            if self.down[from].is_some() {
                continue; // partitioned cell: no reports cross, users stay
            }
            let Some(pos) = self
                .store
                .with_twin(user, |t| t.latest_position())
                .ok()
                .flatten()
            else {
                continue; // no reported position yet — stays put
            };
            let to = self.route_live(pos);
            if to != from {
                self.set_owner(user, to);
                moved += 1;
            }
        }
        self.handovers_total += moved as u64;
        let imbalance = self.imbalance();
        self.peak_imbalance = self.peak_imbalance.max(imbalance);
        if let Some(t) = &self.telemetry {
            t.counter("handovers_total", "all").add(moved as u64);
            t.gauge("shard_imbalance", "all").set(imbalance);
        }
        moved
    }

    /// Applies one interval's shard-outage schedule and accounts
    /// availability. `target(shard)` is the fault plan's verdict for the
    /// interval (e.g. [`msvs_faults::FaultPlan::outage_at`]); `users` is
    /// the caller's deterministic user order, as for
    /// [`rebalance`](Self::rebalance).
    ///
    /// Transitions are serial and interval-scheduled, so the whole
    /// lifecycle is bit-identical at any thread count:
    ///
    /// - **down** (`None -> Some(mode)`): `Crash` runs the failover sweep
    ///   — every owned user is relabelled to the nearest live cell
    ///   (ring-next shard for users with no reported position) — and the
    ///   shard ends owning nobody. `Partition` leaves the labels in
    ///   place; the runner forces those users' uplink reports lost, which
    ///   engages the sync-tracker retry/backoff and the prediction
    ///   degradation ladder.
    /// - **restored** (`Some(mode) -> None` once the window ends): the
    ///   shard is live again. No twin ever left the store, so there is
    ///   nothing to reload. The next [`rebalance`](Self::rebalance) sweep
    ///   takes the shard's users back through the same handover path (a
    ///   partitioned shard replays its backlog through the trackers'
    ///   pending retries).
    ///
    /// A transition that would down the **last live shard** is ignored
    /// deterministically — its users would have nowhere to go. While a
    /// shard is down, overlapping specs of the other mode do not flip
    /// the window's pinned mode.
    pub fn apply_outages(
        &mut self,
        target: impl Fn(usize) -> Option<OutageMode>,
        users: &[UserId],
    ) -> Vec<OutageTransition> {
        let mut transitions = Vec::new();
        if !self.sharded() {
            return transitions;
        }
        for i in 0..self.n_shards() {
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
                    self.down[i] = Some(mode);
                    let mut failed_over = 0u64;
                    if mode == OutageMode::Crash {
                        let mask = self.live_mask();
                        for &user in users {
                            if self.owner_of(user) != Some(i) {
                                continue;
                            }
                            let pos = self
                                .store
                                .with_twin(user, |t| t.latest_position())
                                .ok()
                                .flatten();
                            let to = pos
                                .and_then(|p| self.router.shard_of_live(p, &mask))
                                .or_else(|| self.router.next_live_shard(i, &mask))
                                .expect("a live shard exists (guarded above)");
                            self.set_owner(user, to);
                            failed_over += 1;
                        }
                        debug_assert!(
                            self.owned_by(i).next().is_none(),
                            "crash failover must relabel every owned user"
                        );
                    }
                    self.outages_total += 1;
                    self.failover_handovers_total += failed_over;
                    transitions.push(OutageTransition {
                        shard: i,
                        mode,
                        phase: OutagePhase::Down,
                        failed_over,
                    });
                    if let (Some(t), Some(_scope)) = (&self.telemetry, scope.as_ref()) {
                        t.counter("shard_outages_total", mode.label()).add(1);
                        t.counter("failover_handovers_total", "all")
                            .add(failed_over);
                    }
                }
                (Some(mode), None) => {
                    let _scope = self
                        .telemetry
                        .as_ref()
                        .map(|t| t.stage_scope(stages::SHARD_RESTORE));
                    self.down[i] = None;
                    transitions.push(OutageTransition {
                        shard: i,
                        mode,
                        phase: OutagePhase::Restored,
                        failed_over: 0,
                    });
                }
                // Steady state; a mode change while down keeps the
                // window's pinned mode.
                _ => {}
            }
        }
        self.intervals_observed += 1;
        for (i, d) in self.down.iter().enumerate() {
            if d.is_some() {
                self.down_intervals[i] += 1;
            }
        }
        transitions
    }

    /// Twins owned per shard, in shard order.
    fn populations(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_shards()];
        for &shard in self.owner.iter().flatten() {
            counts[shard] += 1;
        }
        counts
    }

    /// Current load factor: the largest shard population over the ideal
    /// (uniform) population. `1.0` means perfectly balanced; an empty
    /// deployment reports `1.0`.
    pub fn imbalance(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            return 1.0;
        }
        let max = self.populations().into_iter().max().unwrap_or(0);
        let ideal = total as f64 / self.n_shards() as f64;
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

    /// End-of-run shard-plane summary for the simulation report.
    pub fn summary(&self) -> ShardSummary {
        ShardSummary {
            shards: self.n_shards(),
            handovers_total: self.handovers_total,
            peak_imbalance: self.peak_imbalance,
            outages_total: self.outages_total,
            failover_handovers_total: self.failover_handovers_total,
            intervals_observed: self.intervals_observed,
            demand: self
                .populations()
                .into_iter()
                .enumerate()
                .map(|(i, users)| ShardDemandRow {
                    shard: i,
                    users,
                    radio: self.aggregator.radio()[i],
                    computing: self.aggregator.computing()[i],
                    down_intervals: self.down_intervals[i],
                    availability: if self.intervals_observed == 0 {
                        1.0
                    } else {
                        1.0 - self.down_intervals[i] as f64 / self.intervals_observed as f64
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::SimTime;
    use msvs_udt::{Attribute, RetryPolicy};

    fn grid() -> Vec<Position> {
        vec![
            Position::new(0.0, 0.0),
            Position::new(100.0, 0.0),
            Position::new(0.0, 100.0),
            Position::new(100.0, 100.0),
        ]
    }

    fn coordinator(n_shards: usize) -> ShardCoordinator {
        ShardCoordinator::new(ShardRouter::new(grid(), n_shards))
    }

    fn insert_at(c: &mut ShardCoordinator, id: u32, x: f64, y: f64) {
        let twin = UserDigitalTwin::new(UserId(id));
        c.insert(twin, Position::new(x, y));
        c.twins_mut()
            .with_twin_mut(UserId(id), |t| {
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
        c.twins_mut()
            .with_twin_mut(UserId(0), |t| t.update_channel(SimTime::ZERO, 8.0))
            .unwrap();
        assert_eq!(
            c.twins()
                .with_twin(UserId(0), |t| t.latest_snr_db())
                .unwrap(),
            Some(8.0)
        );
        assert!(c
            .twins_mut()
            .with_twin_mut(UserId(9), |t| t.update_channel(SimTime::ZERO, 1.0))
            .is_err());
        let users: Vec<usize> = c.summary().demand.iter().map(|r| r.users).collect();
        assert_eq!(users, [1, 1]);
        // One store stamps the nonces in insert order, whatever the owner.
        assert_eq!(
            c.twins()
                .with_twin(UserId(1), |t| t.revision().instance)
                .unwrap(),
            2
        );
    }

    #[test]
    fn merged_snapshot_is_user_sorted_across_shards() {
        let mut c = coordinator(4);
        insert_at(&mut c, 7, 99.0, 99.0);
        insert_at(&mut c, 1, 1.0, 1.0);
        insert_at(&mut c, 3, 99.0, 1.0);
        let snap = c.twins().snapshot();
        let ids: Vec<u32> = snap.iter().map(|t| t.user().into()).collect();
        assert_eq!(ids, vec![1, 3, 7]);
    }

    #[test]
    fn rebalance_moves_boundary_crossers_and_conserves_twins() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        // User 0 reports a position in BS 1's cell.
        c.twins_mut()
            .with_twin_mut(UserId(0), |t| {
                t.update_location(SimTime::from_secs(5), Position::new(98.0, 2.0))
            })
            .unwrap();
        let users = [UserId(0), UserId(1)];
        assert_eq!(c.rebalance(&users), 1);
        assert_eq!(c.owner_of(UserId(0)), Some(1));
        assert_eq!(c.len(), 2, "handover conserves twins");
        assert_eq!(c.summary().handovers_total, 1);
        // Idempotent: nobody crosses on the second sweep.
        assert_eq!(c.rebalance(&users), 0);
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
        assert_eq!(c.summary().demand[0].users, 0);
    }

    #[test]
    fn single_shard_is_a_transparent_facade() {
        let mut c = coordinator(1);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 99.0);
        assert!(!c.sharded());
        assert_eq!(c.rebalance(&[UserId(0), UserId(1)]), 0);
        // Legacy nonce sequence: 1, 2, ...
        assert_eq!(
            c.twins()
                .with_twin(UserId(0), |t| t.revision().instance)
                .unwrap(),
            1
        );
        assert_eq!(
            c.twins()
                .with_twin(UserId(1), |t| t.revision().instance)
                .unwrap(),
            2
        );
    }

    fn ids(n: u32) -> Vec<UserId> {
        (0..n).map(UserId).collect()
    }

    #[test]
    fn crash_kill_failover_restore_conserves_twins() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0); // shard 0
        insert_at(&mut c, 1, 99.0, 1.0); // shard 1
        insert_at(&mut c, 2, 98.0, 2.0); // shard 1
        let users = ids(3);
        let twin_1 = c.twins().with_twin(UserId(1), Clone::clone).unwrap();

        // Interval 1: shard 1 crashes. Its users fail over to shard 0.
        let t = c.apply_outages(|s| (s == 1).then_some(OutageMode::Crash), &users);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, OutagePhase::Down);
        assert_eq!(t[0].failed_over, 2);
        assert!(c.is_down(1));
        assert_eq!(c.len(), 3, "failover conserves twins");
        assert_eq!(c.owner_of(UserId(1)), Some(0));
        assert_eq!(c.owner_of(UserId(2)), Some(0));
        assert_eq!(c.summary().demand[1].users, 0);
        assert_eq!(c.summary().failover_handovers_total, 2);
        assert_eq!(
            c.twins().with_twin(UserId(1), Clone::clone).unwrap(),
            twin_1,
            "failover relabels the user and leaves the twin as it was"
        );

        // Mid-outage: a churn arrival routes around the dead cell.
        insert_at(&mut c, 2, 99.0, 1.0);
        assert_eq!(c.owner_of(UserId(2)), Some(0));
        assert_eq!(c.len(), 3);

        // Mid-outage rebalance must not move anyone back yet.
        assert_eq!(c.rebalance(&users), 0);

        // Interval 3: the window ends; the next sweep takes them back.
        let t = c.apply_outages(|_| None, &users);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, OutagePhase::Restored);
        assert!(!c.is_down(1));
        assert_eq!(
            c.rebalance(&users),
            2,
            "recovered shard takes its users back"
        );
        assert_eq!(c.owner_of(UserId(1)), Some(1));
        assert_eq!(c.len(), 3, "conservation holds across the whole cycle");
    }

    /// The caller owns the trackers; a shard's checkpoint copies each
    /// owner's through the lookup, pending retry included.
    #[test]
    fn checkpoint_holds_each_owners_tracker() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0); // shard 0
        insert_at(&mut c, 1, 99.0, 1.0); // shard 1
        let mut lost = SyncTracker::default();
        lost.mark_lost(
            Attribute::Channel,
            SimTime::from_secs(3),
            &RetryPolicy::default(),
        );
        assert_ne!(lost, SyncTracker::default(), "a retry is pending");
        let trackers = [SyncTracker::default(), lost.clone()];
        let held = c.checkpoint(1, 4, |id| trackers[id.index()].clone());
        assert_eq!((held.shard, held.interval), (1, 4));
        assert_eq!(held.len(), 1);
        assert_eq!(held.twins[0].twin.user(), UserId(1));
        assert_eq!(held.twins[0].tracker, lost);
    }

    #[test]
    fn restored_store_never_restamps_a_pre_outage_nonce() {
        let mut c = coordinator(2);
        insert_at(&mut c, 1, 99.0, 1.0); // shard 1
        insert_at(&mut c, 0, 1.0, 1.0); // shard 0 (keeps a live target)
        let nonce =
            |c: &ShardCoordinator, id| c.twins().with_twin(UserId(id), |t| t.revision().instance);
        let before = [nonce(&c, 0).unwrap(), nonce(&c, 1).unwrap()];
        let users = ids(2);
        c.apply_outages(|s| (s == 1).then_some(OutageMode::Crash), &users);
        c.apply_outages(|_| None, &users);
        // A fresh insert on the recovered shard stamps a new nonce.
        let twin = UserDigitalTwin::new(UserId(7));
        c.insert(twin, Position::new(99.0, 1.0));
        assert_eq!(c.owner_of(UserId(7)), Some(1));
        let stamped = nonce(&c, 7).unwrap();
        assert!(
            before.iter().all(|&n| stamped > n),
            "{stamped} vs {before:?}"
        );
    }

    #[test]
    fn partition_pins_users_in_place_and_reports_them() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        let users = ids(2);
        let t = c.apply_outages(|s| (s == 1).then_some(OutageMode::Partition), &users);
        assert_eq!(t[0].failed_over, 0, "partition does not move twins");
        assert_eq!(c.owner_of(UserId(1)), Some(1));
        assert_eq!(
            c.partitioned_users(&[UserId(0), UserId(1)]),
            vec![false, true]
        );
        // The partitioned user cannot hand over even if their last
        // report put them across the boundary.
        c.twins_mut()
            .with_twin_mut(UserId(1), |t| {
                t.update_location(SimTime::from_secs(9), Position::new(1.0, 2.0))
            })
            .unwrap();
        assert_eq!(c.rebalance(&users), 0);
        // Heal: the backlog user hands over on the next sweep.
        c.apply_outages(|_| None, &users);
        assert_eq!(c.partitioned_users(&[UserId(1)]), vec![false]);
        assert_eq!(c.rebalance(&users), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn the_last_live_shard_cannot_be_downed() {
        let mut c = coordinator(2);
        insert_at(&mut c, 0, 1.0, 1.0);
        insert_at(&mut c, 1, 99.0, 1.0);
        let users = ids(2);
        let t = c.apply_outages(|_| Some(OutageMode::Crash), &users);
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
        let users = ids(2);
        for interval in 0..4u64 {
            // Shard 1 is down for intervals 1 and 2 of 4.
            c.apply_outages(
                |s| (s == 1 && (1..3).contains(&interval)).then_some(OutageMode::Partition),
                &users,
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
        let users = ids(2);

        // Rebalance with everything live: the tie user must not flap.
        assert_eq!(c.rebalance(&users), 0);

        // Crash shard 0: the tie re-resolves deterministically onto the
        // overlay (nearest live BS) and the owner stays unique.
        c.apply_outages(|s| (s == 0).then_some(OutageMode::Crash), &users);
        assert_eq!(c.owner_of(UserId(0)), Some(1));
        assert_eq!(c.len(), 2, "exactly one twin per user");
        // Sweeps while down are idempotent for the boundary user.
        assert_eq!(c.rebalance(&users), 0);

        // Restore: the tie falls back to the base resolution (shard 0).
        c.apply_outages(|_| None, &users);
        assert_eq!(c.rebalance(&users), 1);
        assert_eq!(c.owner_of(UserId(0)), Some(0));
        assert_eq!(c.len(), 2);
        // And the resolution is stable: a second sweep moves nobody.
        assert_eq!(c.rebalance(&users), 0);
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
