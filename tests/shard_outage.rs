//! Control-plane fault tolerance: shard outages, restore and failover
//! routing. A crashed shard must fail its users over to live neighbours
//! and take them back after the restore — conserving the twin population
//! at every interval — a partitioned shard must pin its users in place and push them into the
//! degradation ladder. That an empty plan changes nothing and that
//! outage runs do not depend on the worker-pool size is asserted by
//! `tests/equivalence_matrix.rs`.

use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::faults::FaultPlan;
use msvs::sim::report::{outage_table, shard_outages};
use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::Event;
use msvs::types::SimDuration;

fn small_scheme() -> SchemeConfig {
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
    scheme
}

fn outage_config(seed: u64, shards: usize, threads: usize, intervals: usize) -> SimulationConfig {
    SimulationConfig::builder()
        .users(24)
        .base_stations(4)
        .intervals(intervals)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(threads)
        .shards(shards)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

fn with_profile(mut cfg: SimulationConfig, profile: &str) -> SimulationConfig {
    cfg.faults = Some(FaultPlan::builtin(profile).expect("builtin profile"));
    cfg.validate().expect("config with faults is valid");
    cfg
}

/// The acceptance scenario: a 4-shard, 4-thread run under `bs-crash`
/// completes the full kill → failover → restore cycle with the twin
/// population conserved at every interval boundary.
#[test]
fn bs_crash_conserves_twins_across_kill_failover_restore() {
    // bs-crash kills shard 1 at interval 1 for 2 intervals; 4 scored
    // intervals cover the kill, the dark window and the restore sweep.
    let cfg = with_profile(outage_config(33, 4, 4, 4), "bs-crash");
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..4 {
        sim.run_interval(i).expect("interval runs");
        assert_eq!(
            sim.store().len(),
            24,
            "interval {i}: kill/failover/restore must conserve the twin population"
        );
    }
    let summary = sim.store().summary();
    assert_eq!(summary.outages_total, 1, "bs-crash schedules one outage");
    assert!(
        summary.failover_handovers_total > 0,
        "the crash must fail users over to live neighbours"
    );
    let users: usize = summary.demand.iter().map(|row| row.users).sum();
    assert_eq!(users, 24, "no twin duplicated or dropped");
    let row = &summary.demand[1];
    assert_eq!(row.down_intervals, 2, "shard 1 was dark for two intervals");
    assert!(
        row.availability < 1.0 && row.availability > 0.0,
        "shard 1 availability reflects the outage window, got {}",
        row.availability
    );
    assert!(
        row.users > 0,
        "the restore sweep must take users back onto the recovered shard"
    );
    // The lifecycle is journaled: one ShardDown, one ShardRestored.
    let journal = sim.telemetry().journal();
    let downs: Vec<_> = journal
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            Event::ShardDown { shard, mode, .. } => Some((*shard, mode.clone())),
            _ => None,
        })
        .collect();
    let restores: Vec<_> = journal
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            Event::ShardRestored { shard, mode, .. } => Some((*shard, mode.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(downs, vec![(1, "crash".to_string())]);
    assert_eq!(restores, vec![(1, "crash".to_string())]);
}

/// A partitioned shard pins its users in place (no failover handovers)
/// while severing their uplink: every due report takes the loss/retry
/// path, which is what arms the PR-3 degradation ladder.
#[test]
fn partition_pins_users_and_feeds_the_degradation_ladder() {
    // bs-flap partitions shard 1 at intervals 1 and 3, one interval each.
    let cfg = with_profile(outage_config(61, 4, 1, 4), "bs-flap");
    let report = Simulation::run(cfg).expect("bs-flap run");
    let summary = report.shards.clone().expect("sharded summary");
    assert_eq!(summary.outages_total, 2, "bs-flap flaps twice");
    assert_eq!(
        summary.failover_handovers_total, 0,
        "partitioned users stay pinned to their shard"
    );
    assert_eq!(summary.demand[1].down_intervals, 2);
    let lost = report
        .telemetry
        .counters
        .iter()
        .find(|(name, label, _)| name == "fault_reports_total" && label == "lost")
        .map_or(0, |(_, _, v)| *v);
    assert!(
        lost > 0,
        "severed uplinks must surface as lost reports feeding retry/backoff"
    );
    let users: usize = summary.demand.iter().map(|row| row.users).sum();
    assert_eq!(users, 24, "partition never moves or drops a twin");
}

/// Outage specs aimed at shards the deployment doesn't have are inert:
/// the run completes and schedules nothing.
#[test]
fn outage_for_absent_shard_is_ignored() {
    // bs-crash targets shard 1; a single-shard run has only shard 0, and
    // the last live shard can never be downed anyway.
    let cfg = with_profile(outage_config(29, 1, 1, 3), "bs-crash");
    let report = Simulation::run(cfg).expect("single-shard bs-crash run");
    assert!(
        report.shards.is_none(),
        "single-shard runs never attach a shard summary"
    );
}

/// `msvs run` and `msvs report` print one per-shard outage table, folded
/// from the journal. On a run that ends while shard 1 is still down, its
/// rows equal the coordinator's own availability accounting.
#[test]
fn outage_table_matches_the_shard_summary_with_an_outage_still_open() {
    // bs-crash downs shard 1 at interval 1 for two intervals; a run of
    // two scored intervals ends inside the window.
    let cfg = with_profile(outage_config(33, 4, 2, 2), "bs-crash");
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    let report = sim.run_schedule().expect("run completes");
    assert!(sim.store().is_down(1), "the run ends mid-outage");
    let summary = report.shards.expect("sharded runs attach a summary");
    let entries = sim.telemetry().journal().entries();
    let rows = shard_outages(&entries);
    assert_eq!(
        rows.iter().map(|r| r.shard).collect::<Vec<_>>(),
        [1],
        "one row per shard that went down"
    );
    for row in &rows {
        let want = &summary.demand[row.shard as usize];
        assert_eq!(
            (row.down_intervals, row.availability),
            (want.down_intervals, want.availability),
            "shard {}",
            row.shard
        );
    }
    assert_eq!(rows[0].outages, summary.outages_total);
    assert_eq!(rows[0].failed_over, summary.failover_handovers_total);
    let table = outage_table(&entries).expect("a shard went down");
    assert!(table.contains("50.0%"), "{table}");
}
