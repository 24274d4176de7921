//! Sharded-deployment guarantees: partitioning the pipeline across
//! base-station shards must not change what the simulation computes. A
//! seeded run must produce a bit-identical `SimulationReport` at 1, 2 and
//! 4 shards (after stripping the shard plane's own observability), a
//! sharded run must stay bit-identical across worker-pool sizes, and
//! cross-shard handover under churn storms and a lossy uplink must
//! conserve twins — never duplicate or drop one.

use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::sim::{Simulation, SimulationConfig, SimulationReport};
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

fn sharded_config(seed: u64, shards: usize, threads: usize) -> SimulationConfig {
    SimulationConfig::builder()
        .users(24)
        .base_stations(4)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(threads)
        .shards(shards)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

/// Wall-clock timings differ run to run; everything else must match.
fn strip_wall(mut r: SimulationReport) -> SimulationReport {
    for i in &mut r.intervals {
        i.predict_wall_ms = 0.0;
    }
    r.telemetry = r.telemetry.with_zeroed_timings();
    r
}

/// Removes everything the shard plane itself adds — its summary, its
/// stages and its handover counters — leaving only what the pipeline
/// computed. After this, reports at any shard count must be
/// bit-identical.
fn strip_shard_plane(mut r: SimulationReport) -> SimulationReport {
    r.shards = None;
    r.telemetry
        .counters
        .retain(|(name, _, _)| !name.starts_with("handover"));
    r.telemetry
        .stages
        .retain(|s| !s.stage.starts_with("shard_"));
    strip_wall(r)
}

#[test]
fn seeded_report_is_bit_identical_across_shard_counts() {
    let baseline = strip_shard_plane(Simulation::run(sharded_config(33, 1, 1)).expect("1 shard"));
    for shards in [2, 4] {
        let partitioned =
            strip_shard_plane(Simulation::run(sharded_config(33, shards, 1)).expect("sharded run"));
        assert_eq!(
            baseline, partitioned,
            "{shards} shards must compute the same report as the single-shard path"
        );
    }
}

#[test]
fn sharded_report_is_bit_identical_across_thread_counts() {
    // No shard-plane stripping here: the handover sweep is serial and the
    // snapshot gather is index-ordered, so even the shard counters and
    // per-shard demand rows must match across pool sizes.
    let serial = strip_wall(Simulation::run(sharded_config(47, 4, 1)).expect("serial run"));
    let parallel = strip_wall(Simulation::run(sharded_config(47, 4, 4)).expect("parallel run"));
    assert_eq!(
        serial, parallel,
        "a sharded seeded run must not depend on the worker-pool size"
    );
}

#[test]
fn shard_summary_reports_per_bs_demand() {
    let report = Simulation::run(sharded_config(21, 4, 1)).expect("sharded run");
    let summary = report.shards.expect("multi-shard runs attach a summary");
    assert_eq!(summary.shards, 4);
    assert_eq!(summary.demand.len(), 4);
    let users: usize = summary.demand.iter().map(|row| row.users).sum();
    assert_eq!(users, 24, "every user owned by exactly one shard");
    assert!(summary.peak_imbalance >= 1.0);
    // The per-shard rows must sum back to the globally predicted totals.
    let row_radio: f64 = summary.demand.iter().map(|r| r.radio).sum();
    let global_radio: f64 = report
        .intervals
        .iter()
        .map(|i| i.predicted_radio.value())
        .sum();
    assert!(
        (row_radio - global_radio).abs() <= 1e-6 * global_radio.max(1.0),
        "aggregator rows ({row_radio}) must sum to the global reservation ({global_radio})"
    );
    // Single-shard runs stay on the legacy path: no summary at all.
    let legacy = Simulation::run(sharded_config(21, 1, 1)).expect("single-shard run");
    assert!(legacy.shards.is_none());
}

#[test]
fn boundary_crossing_mobility_triggers_conserving_handovers() {
    // All-waypoint mobility keeps everyone walking across cell boundaries.
    let mut cfg = sharded_config(5, 4, 1);
    cfg.mobility = msvs::sim::MobilityMix::all_waypoint();
    cfg.n_intervals = 3;
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..3 {
        sim.run_interval(i).expect("interval runs");
    }
    assert_eq!(sim.store().len(), 24, "handover conserves twins");
    let summary = sim.store().summary();
    assert!(
        summary.handovers_total > 0,
        "walking users must cross cell boundaries"
    );
    let users: usize = summary.demand.iter().map(|row| row.users).sum();
    assert_eq!(users, 24, "no twin duplicated or dropped by migration");
}

/// Churn storm + lossy uplink on a 4-shard deployment: the interaction of
/// mass user replacement, lost uplink reports (including mid-handover
/// ones) and twin migration must conserve the twin population and stay
/// bit-identical across worker-pool sizes.
#[test]
fn handover_under_churn_storm_and_lossy_uplink_conserves_twins() {
    let run = |profile: &str, threads: usize| {
        let mut cfg = sharded_config(91, 4, threads);
        cfg.mobility = msvs::sim::MobilityMix::all_waypoint();
        cfg.faults = Some(msvs::faults::FaultPlan::builtin(profile).expect("builtin"));
        cfg.validate().expect("config with faults is valid");
        Simulation::run(cfg).expect("fault run")
    };
    for profile in ["churn-storm", "lossy-uplink"] {
        let serial = run(profile, 1);
        let summary = serial.shards.clone().expect("sharded summary");
        let users: usize = summary.demand.iter().map(|row| row.users).sum();
        assert_eq!(
            users, 24,
            "{profile}: churn + lost reports must never duplicate or drop a twin"
        );
        let parallel = run(profile, 4);
        assert_eq!(
            strip_wall(serial),
            strip_wall(parallel),
            "{profile}: sharded fault run must match the single-thread run exactly"
        );
    }
}
