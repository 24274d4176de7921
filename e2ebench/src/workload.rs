//! The three benchmark workloads and the seeded inputs they generate.

use msvs_core::{BackendKind, CompressorConfig, GroupingConfig, SchemeConfig};
use msvs_faults::{FaultPlan, OutageMode, ShardOutage};
use msvs_sim::SimulationConfig;
use msvs_types::{Result, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scored intervals per outage slot of the `sharded_crash` fault plan:
/// each slot holds one single-interval outage and its restore, so a
/// quarter of the scored intervals run with a shard down.
pub const OUTAGE_SLOT: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One shard, exact mode, no churn, no faults, 2 threads.
    Steady,
    /// One shard, 5% churn per interval, incremental mode, 1 thread.
    ChurnIncremental,
    /// Four shards, exact mode, seeded crash/partition outages, 2 threads.
    ShardedCrash,
}

/// Problem size of a run. [`Scale::FULL`] is what the benchmark measures;
/// tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Independent simulations per run, each seeded from the run's seed.
    /// Pooling them averages population-to-population variation.
    pub sims: usize,
    pub users: usize,
    pub pretrain_rounds: usize,
    /// Scored intervals per simulation. Fixed, not time-bound: the cost of
    /// an interval grows while twin histories fill, so runs must compare
    /// the same intervals.
    pub intervals: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        sims: 5,
        users: 1000,
        pretrain_rounds: 250,
        // 5 x 24 pooled samples leave ten beyond the nearest-rank p90, and
        // 24 is a whole number of outage slots.
        intervals: 24,
    };

    /// Seed of simulation `sim` of a run with seed `seed`; runs with
    /// different seeds get disjoint simulation seeds.
    pub fn sim_seed(&self, seed: u64, sim: usize) -> u64 {
        seed.wrapping_mul(self.sims as u64).wrapping_add(sim as u64)
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Steady,
        Workload::ChurnIncremental,
        Workload::ShardedCrash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::ChurnIncremental => "churn_incremental",
            Workload::ShardedCrash => "sharded_crash",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::ChurnIncremental => 1,
            Workload::Steady | Workload::ShardedCrash => 2,
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Workload::ShardedCrash => 4,
            Workload::Steady | Workload::ChurnIncremental => 1,
        }
    }

    pub fn churn(self) -> f64 {
        match self {
            Workload::ChurnIncremental => 0.05,
            Workload::Steady | Workload::ShardedCrash => 0.0,
        }
    }

    pub fn incremental(self) -> bool {
        self == Workload::ChurnIncremental
    }

    /// The simulation this workload runs under `seed`: the bench scheme
    /// (window 16, 10 CNN epochs, K in [2, 6]), one warm-up interval,
    /// 2-minute intervals, the scalar backend.
    pub fn config(self, seed: u64, scale: &Scale) -> Result<SimulationConfig> {
        let scheme = SchemeConfig {
            compressor: CompressorConfig {
                window: 16,
                epochs: 10,
                ..Default::default()
            },
            grouping: GroupingConfig {
                k_min: 2,
                k_max: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut builder = SimulationConfig::builder()
            .users(scale.users)
            .intervals(scale.intervals)
            .warmup_intervals(1)
            .pretrain_rounds(scale.pretrain_rounds)
            .interval(SimDuration::from_mins(2))
            .scheme(scheme)
            .threads(self.threads())
            .shards(self.shards())
            .backend(BackendKind::Scalar)
            .churn_rate(self.churn())
            .incremental(self.incremental())
            .seed(seed);
        if self == Workload::ShardedCrash {
            builder = builder.faults(fault_plan(seed, scale.intervals as u64, self.shards()));
        }
        builder.build()
    }
}

/// The `sharded_crash` fault plan for `seed`: 5% uplink loss, plus one
/// single-interval shard outage in every slot of four scored intervals.
/// Outages alternate crash and partition and rotate the shard; each
/// restore lands inside its slot.
pub fn fault_plan(seed: u64, intervals: u64, shards: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0FA1_7B1A);
    let first_shard = rng.gen_range(0..shards);
    let outages = (0..intervals.div_ceil(OUTAGE_SLOT))
        .map(|slot| ShardOutage {
            shard: (first_shard + slot as usize) % shards,
            from: slot * OUTAGE_SLOT + rng.gen_range(0..OUTAGE_SLOT - 1),
            duration: 1,
            mode: if slot % 2 == 0 {
                OutageMode::Crash
            } else {
                OutageMode::Partition
            },
        })
        .collect();
    FaultPlan {
        seed: rng.gen(),
        uplink_loss: 0.05,
        outages,
        ..FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn sim_seeds_are_disjoint_across_runs() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            for sim in 0..Scale::FULL.sims {
                assert!(seen.insert(Scale::FULL.sim_seed(seed, sim)));
            }
        }
    }

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        assert_eq!(fault_plan(7, 200, 4), fault_plan(7, 200, 4));
        assert_ne!(fault_plan(7, 200, 4), fault_plan(8, 200, 4));
        fault_plan(7, 200, 4).validate().unwrap();
    }

    #[test]
    fn a_quarter_of_scored_intervals_carry_an_outage() {
        for seed in 0..20 {
            let plan = fault_plan(seed, 100, 4);
            let down = (0..100u64)
                .filter(|&i| (0..4).any(|s| plan.outage_at(s, i).is_some()))
                .count();
            assert_eq!(down, 25, "seed {seed}");
            // Outages alternate mode and rotate the shard.
            for pair in plan.outages.windows(2) {
                assert_ne!(pair[0].mode, pair[1].mode);
                assert_eq!((pair[0].shard + 1) % 4, pair[1].shard);
            }
            // Each restore interval lands in its outage's slot.
            for o in &plan.outages {
                assert_eq!(o.from / OUTAGE_SLOT, (o.from + o.duration) / OUTAGE_SLOT);
            }
        }
    }
}
