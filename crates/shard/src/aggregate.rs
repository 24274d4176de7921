//! Global reservation aggregator: per-shard demand attribution.
//!
//! The reservation itself stays global (the `SimulationReport` must be
//! comparable to the single-shard path), but operators provision per
//! cell. The aggregator folds each interval's per-group demand
//! predictions into per-shard rows by member ownership — a group's
//! demand is split evenly across its members, and each member's share is
//! attributed to the shard that owns their twin — so the rows always sum
//! back to the global totals (up to floating-point associativity).

use std::collections::HashMap;

use msvs_core::GroupDemandPrediction;
use msvs_types::UserId;

/// Accumulated demand attributed to one shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardDemandRow {
    /// The shard.
    pub shard: usize,
    /// Twins the shard owned when the summary was taken.
    pub users: usize,
    /// Radio demand attributed to this shard, resource blocks summed
    /// over scored intervals.
    pub radio: f64,
    /// Computing demand attributed to this shard, cycles summed over
    /// scored intervals.
    pub computing: f64,
    /// Shard-local video-cache tier hits.
    pub video_cache_hits: u64,
    /// Shard-local video-cache tier misses.
    pub video_cache_misses: u64,
    /// Intervals this shard spent inside an outage window (crash or
    /// partition).
    pub down_intervals: u64,
    /// Fraction of observed intervals the shard was live (`1.0` when no
    /// outage hit it).
    pub availability: f64,
}

/// End-of-run summary of the shard plane, attached to the
/// `SimulationReport` when more than one shard ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardSummary {
    /// Number of shards the run partitioned into.
    pub shards: usize,
    /// Cross-shard twin migrations over the whole run.
    pub handovers_total: u64,
    /// Worst observed load factor: max shard population over the ideal
    /// (uniform) population, `1.0` = perfectly balanced.
    pub peak_imbalance: f64,
    /// Shard outage windows entered over the run (crash + partition).
    pub outages_total: u64,
    /// Twins migrated to live neighbours by crash failover sweeps.
    pub failover_handovers_total: u64,
    /// Serialized bytes of every boundary checkpoint captured.
    pub checkpoint_bytes_total: u64,
    /// Intervals the outage schedule was evaluated over (availability
    /// denominator; `0` when the run never applied outages).
    pub intervals_observed: u64,
    /// Per-shard demand attribution rows (one per shard, in shard order).
    pub demand: Vec<ShardDemandRow>,
}

/// Folds per-group demand predictions into per-shard totals.
#[derive(Debug, Clone)]
pub struct ReservationAggregator {
    radio: Vec<f64>,
    computing: Vec<f64>,
    intervals_folded: u64,
}

impl ReservationAggregator {
    /// Builds an aggregator over `n_shards` shards.
    pub fn new(n_shards: usize) -> Self {
        Self {
            radio: vec![0.0; n_shards],
            computing: vec![0.0; n_shards],
            intervals_folded: 0,
        }
    }

    /// Attributes one interval's per-group predictions to shards by
    /// member ownership. Members missing from `owner` (mid-churn) fall
    /// to shard 0 deterministically.
    pub fn fold(&mut self, groups: &[GroupDemandPrediction], owner: &HashMap<UserId, usize>) {
        for group in groups {
            if group.members.is_empty() {
                continue;
            }
            let radio_share = group.radio.value() / group.members.len() as f64;
            let computing_share = group.computing.value() / group.members.len() as f64;
            for member in &group.members {
                let shard = owner.get(member).copied().unwrap_or(0);
                self.radio[shard] += radio_share;
                self.computing[shard] += computing_share;
            }
        }
        self.intervals_folded += 1;
    }

    /// Number of intervals folded so far.
    pub fn intervals_folded(&self) -> u64 {
        self.intervals_folded
    }

    /// Accumulated radio demand per shard, resource blocks.
    pub fn radio(&self) -> &[f64] {
        &self.radio
    }

    /// Accumulated computing demand per shard, cycles.
    pub fn computing(&self) -> &[f64] {
        &self.computing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msvs_types::{CpuCycles, GroupId, RepresentationLevel, ResourceBlocks};

    fn group(members: Vec<u32>, radio: f64, computing: f64) -> GroupDemandPrediction {
        GroupDemandPrediction {
            group: GroupId(0),
            members: members.into_iter().map(UserId).collect(),
            level: RepresentationLevel::P720,
            min_efficiency: 1.0,
            radio: ResourceBlocks(radio),
            computing: CpuCycles(computing),
            expected_slots: 1.0,
            expected_traffic_mb: 0.0,
            expected_waste_mb: 0.0,
        }
    }

    #[test]
    fn rows_sum_to_global_totals() {
        let mut agg = ReservationAggregator::new(2);
        let owner: HashMap<UserId, usize> = [(UserId(0), 0), (UserId(1), 1), (UserId(2), 1)].into();
        let groups = vec![group(vec![0, 1], 10.0, 4e9), group(vec![2], 6.0, 1e9)];
        agg.fold(&groups, &owner);
        let total_radio: f64 = agg.radio().iter().sum();
        let total_computing: f64 = agg.computing().iter().sum();
        assert!((total_radio - 16.0).abs() < 1e-9);
        assert!((total_computing - 5e9).abs() < 1e-3);
        assert!((agg.radio()[0] - 5.0).abs() < 1e-9);
        assert!((agg.radio()[1] - 11.0).abs() < 1e-9);
        assert_eq!(agg.intervals_folded(), 1);
    }

    #[test]
    fn unknown_members_fall_to_shard_zero() {
        let mut agg = ReservationAggregator::new(3);
        let owner = HashMap::new();
        agg.fold(&[group(vec![9], 3.0, 2.0)], &owner);
        assert_eq!(agg.radio()[0], 3.0);
        assert_eq!(agg.radio()[1], 0.0);
    }

    #[test]
    fn empty_groups_are_skipped() {
        let mut agg = ReservationAggregator::new(1);
        agg.fold(&[group(vec![], 5.0, 5.0)], &HashMap::new());
        assert_eq!(agg.radio()[0], 0.0);
    }
}
