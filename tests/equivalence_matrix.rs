//! The documented equivalences, asserted over one matrix: worker threads
//! {1, 4} × shards {1, 2, 4} × fault profile {none, `lossy-uplink`,
//! `bs-crash`, `bs-flap`, hostile}, on the small scheme the other suites
//! use.
//!
//! - The worker-pool size never changes the report (every cell).
//! - The shard count never changes what the pipeline computes (fault-free
//!   cells, after stripping the shard plane's own observability).
//! - A no-op fault plan is no plan, and an empty SLO policy is no policy.
//! - A reservation policy changes nothing but the reservation it scores.
//! - Under `bs-crash` the twin population is conserved in every interval.
//!
//! The profiles reach every fault path: `lossy-uplink` loses, delays and
//! corrupts reports; `bs-crash` fails a shard over and restores it;
//! `bs-flap` partitions one; the hostile plan adds a churn burst and an
//! edge brownout to loss, delay and corruption.
//!
//! The matrix is computed once and shared by the tests below.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use msvs::core::{CompressorConfig, GroupingConfig, ReservationPolicy, SchemeConfig};
use msvs::faults::{Brownout, ChurnBurst, DelaySpec, FaultPlan};
use msvs::sim::{Simulation, SimulationConfig, SimulationReport};
use msvs::telemetry::SloPolicy;
use msvs::types::SimDuration;

const THREADS: [usize; 2] = [1, 4];
const SHARDS: [usize; 3] = [1, 2, 4];
const PROFILES: [&str; 5] = ["none", "lossy-uplink", "bs-crash", "bs-flap", "hostile"];
const USERS: usize = 24;
/// `bs-crash` takes shard 1 down at interval 1 for two intervals; four
/// scored intervals cover the kill, the dark window and the restore.
const INTERVALS: usize = 4;

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

fn config(threads: usize, shards: usize, profile: &str) -> SimulationConfig {
    let mut cfg = SimulationConfig::builder()
        .users(USERS)
        .base_stations(4)
        .intervals(INTERVALS)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(threads)
        .shards(shards)
        .seed(41)
        .build()
        .expect("test config is valid");
    cfg.faults = match profile {
        "none" => None,
        "hostile" => Some(hostile_plan()),
        builtin => Some(FaultPlan::builtin(builtin).expect("builtin profile")),
    };
    cfg
}

/// Every fault kind at once: 30% uplink loss, delay, corruption, a churn
/// burst and a brownout.
fn hostile_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA_17,
        uplink_loss: 0.30,
        delay: DelaySpec {
            probability: 0.10,
            max_ticks: 2,
        },
        corruption: 0.05,
        churn_bursts: vec![ChurnBurst {
            interval: 1,
            fraction: 0.25,
        }],
        brownouts: vec![Brownout {
            start: 0,
            duration: 1,
            capacity_scale: 0.5,
        }],
        ..FaultPlan::none()
    }
}

/// One cell's outcome: the report (wall-clock timings zeroed) and the
/// twin count after each scored interval.
struct Cell {
    report: SimulationReport,
    twins: Vec<usize>,
}

/// Runs `cfg` the way [`Simulation::run_schedule`] does, counting twins
/// after every scored interval.
fn run(cfg: SimulationConfig) -> Cell {
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    let mut report = SimulationReport::default();
    let mut twins = Vec::with_capacity(INTERVALS);
    for i in 0..INTERVALS {
        report
            .intervals
            .push(sim.run_interval(i).expect("interval runs"));
        twins.push(sim.store().len());
    }
    report.telemetry = sim.telemetry().summary();
    report.shards = sim.store().sharded().then(|| sim.store().summary());
    report.slo = sim.slo_report();
    Cell {
        report: strip_wall(report),
        twins,
    }
}

/// Wall-clock timings differ run to run; everything else must match.
fn strip_wall(mut r: SimulationReport) -> SimulationReport {
    for i in &mut r.intervals {
        i.predict_wall_ms = 0.0;
    }
    r.telemetry = r.telemetry.with_zeroed_timings();
    r
}

/// Removes what the shard plane itself adds — its summary, its stages
/// and its handover counters — leaving only what the pipeline computed.
fn strip_shard_plane(mut r: SimulationReport) -> SimulationReport {
    r.shards = None;
    r.telemetry
        .counters
        .retain(|(name, _, _)| !name.starts_with("handover"));
    r.telemetry
        .stages
        .retain(|s| !s.stage.starts_with("shard_"));
    r
}

type Matrix = BTreeMap<(&'static str, usize, usize), Cell>;

/// Every `(profile, shards, threads)` cell, computed once.
fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let mut cells = Matrix::new();
        for profile in PROFILES {
            for shards in SHARDS {
                for threads in THREADS {
                    let cell = run(config(threads, shards, profile));
                    cells.insert((profile, shards, threads), cell);
                }
            }
        }
        cells
    })
}

#[test]
fn thread_count_never_changes_the_report() {
    let m = matrix();
    for profile in PROFILES {
        for shards in SHARDS {
            assert_eq!(
                m[&(profile, shards, 1)].report,
                m[&(profile, shards, 4)].report,
                "{profile}, {shards} shard(s): 1 vs 4 threads"
            );
        }
    }
}

#[test]
fn shard_count_never_changes_the_fault_free_report() {
    let m = matrix();
    for threads in THREADS {
        let single = strip_shard_plane(m[&("none", 1, threads)].report.clone());
        for shards in [2, 4] {
            assert_eq!(
                strip_shard_plane(m[&("none", shards, threads)].report.clone()),
                single,
                "{threads} thread(s): 1 vs {shards} shards"
            );
        }
    }
}

#[test]
fn noop_plan_and_empty_slo_policy_change_nothing() {
    let m = matrix();
    for shards in SHARDS {
        let clean = &m[&("none", shards, 1)].report;
        let mut noop_plan = config(1, shards, "none");
        noop_plan.faults = Some(FaultPlan::none());
        assert_eq!(
            &run(noop_plan).report,
            clean,
            "{shards} shard(s): a no-op plan is no plan"
        );
        let mut empty_slo = config(1, shards, "none");
        empty_slo.slo = Some(SloPolicy::none());
        assert_eq!(
            &run(empty_slo).report,
            clean,
            "{shards} shard(s): an empty SLO policy is no policy"
        );
    }
}

#[test]
fn reservation_policy_changes_only_the_reservation() {
    let m = matrix();
    for profile in ["none", "bs-crash"] {
        for shards in [1, 4] {
            let mut cfg = config(1, shards, profile);
            cfg.reservation = Some(ReservationPolicy::default());
            let mut reserved = run(cfg).report;
            for record in &mut reserved.intervals {
                assert!(record.reservation.is_some(), "every interval is reserved");
                record.reservation = None;
            }
            // The one event the policy adds is the one it journals.
            reserved.telemetry.counters.retain(|(name, label, _)| {
                (name.as_str(), label.as_str()) != ("events_total", "ReservationScored")
            });
            assert_eq!(
                reserved,
                m[&(profile, shards, 1)].report,
                "{profile}, {shards} shard(s): a reservation policy only adds reservations"
            );
        }
    }
}

#[test]
fn bs_crash_conserves_twins_in_every_interval() {
    let m = matrix();
    for shards in SHARDS {
        for threads in THREADS {
            let cell = &m[&("bs-crash", shards, threads)];
            assert_eq!(
                cell.twins, [USERS; INTERVALS],
                "{shards} shard(s), {threads} thread(s)"
            );
        }
    }
    let crashed = m[&("bs-crash", 4, 1)].report.shards.as_ref();
    assert_eq!(
        crashed.map(|s| s.outages_total),
        Some(1),
        "the 4-shard cells run the crash"
    );
}
