//! Fault-injection guarantees: a heavily degraded uplink still completes,
//! with the degradation ladder engaged and every injected fault counted.
//! Thread-count identity of faulted runs and the no-op plan's identity to
//! no plan are asserted in `equivalence_matrix.rs`.

use msvs::faults::{ChurnBurst, DelaySpec, FaultPlan};
use msvs::sim::{Simulation, SimulationConfig, SimulationReport};
use msvs::types::SimDuration;

fn small_scheme() -> msvs::core::SchemeConfig {
    let mut scheme = msvs::core::SchemeConfig {
        compressor: msvs::core::CompressorConfig {
            window: 16,
            epochs: 10,
            ..Default::default()
        },
        grouping: msvs::core::GroupingConfig {
            k_min: 2,
            k_max: 5,
            ..Default::default()
        },
        ..Default::default()
    };
    scheme.demand.interval = SimDuration::from_mins(2);
    scheme
}

fn seeded_config(seed: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .users(24)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(2)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

/// A plan hostile enough to exercise every fault kind: 30% uplink loss,
/// delay, corruption, a churn burst and a brownout.
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
        brownouts: vec![msvs::faults::Brownout {
            start: 0,
            duration: 1,
            capacity_scale: 0.5,
        }],
        ..FaultPlan::none()
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

fn run(config: SimulationConfig) -> SimulationReport {
    strip_wall(Simulation::run(config).expect("fault run completes"))
}

#[test]
fn heavy_loss_completes_and_engages_degradation() {
    let mut cfg = seeded_config(7);
    cfg.faults = Some(hostile_plan());
    // Tighten the ladder so 30% report loss visibly starves the twins:
    // with the default 5 s tick, one missed channel report already makes
    // a twin stale against a one-tick horizon.
    cfg.scheme.degradation.coverage_threshold = 0.95;
    cfg.scheme.degradation.staleness_horizon = SimDuration::from_secs(5);
    let report = run(cfg);
    assert_eq!(
        report.intervals.len(),
        2,
        "run must complete every interval"
    );
    assert!(
        report.degraded_intervals() > 0,
        "30% uplink loss must push coverage below a 95% threshold"
    );
    let coverage = report
        .mean_twin_coverage()
        .expect("fault runs record coverage");
    assert!(
        coverage < 1.0,
        "lost reports must lower fresh-twin coverage, got {coverage}"
    );
    // Every injected fault is counted.
    let report_faults: u64 = report
        .telemetry
        .counters
        .iter()
        .filter(|(n, _, _)| n == "fault_reports_total")
        .map(|(_, _, v)| *v)
        .sum();
    assert!(report_faults > 0, "faults must be counted");
    // Delayed reports are tallied when their fate is drawn; corrupt
    // payloads the twins refuse are tallied when the reports are applied.
    let report_count = |label: &str| {
        report
            .telemetry
            .counters
            .iter()
            .find(|(n, l, _)| n == "fault_reports_total" && l == label)
            .map_or(0, |(_, _, v)| *v)
    };
    assert!(report_count("delayed") > 0, "10% delay must delay reports");
    assert!(
        report_count("rejected") > 0,
        "5% corruption must get payloads rejected by the twins"
    );
}
