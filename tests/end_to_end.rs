//! End-to-end integration tests: the full simulator, spanning every crate
//! in the workspace.

use msvs::sim::{report, DemandPredictorKind, Simulation, SimulationConfig, SimulationReport};
use msvs::types::SimDuration;

fn fast_config(seed: u64) -> SimulationConfig {
    let mut scheme = msvs::core::SchemeConfig::default();
    scheme.compressor.epochs = 15;
    scheme.compressor.window = 16;
    scheme.demand.interval = SimDuration::from_mins(2);
    SimulationConfig {
        n_users: 40,
        n_intervals: 4,
        warmup_intervals: 1,
        interval: SimDuration::from_mins(2),
        pretrain_rounds: 60,
        scheme,
        seed,
        ..Default::default()
    }
}

#[test]
fn paper_scenario_reaches_headline_accuracy_band() {
    // The paper reports 95.04% radio-demand accuracy; on the full scenario
    // we require the reproduction to stay in a defensible band.
    let report = Simulation::run(SimulationConfig {
        n_users: 120,
        n_intervals: 8,
        warmup_intervals: 2,
        seed: 42,
        ..Default::default()
    })
    .expect("simulation runs");
    let acc = report.mean_radio_accuracy();
    assert!(
        acc > 0.88,
        "radio accuracy {acc:.3} fell below the reproduction band"
    );
    assert!(acc <= 1.0);
}

#[test]
fn multicast_always_cheaper_than_unicast() {
    let report = Simulation::run(fast_config(3)).expect("simulation runs");
    for r in &report.intervals {
        assert!(r.actual_radio.value() < r.actual_unicast_radio.value());
    }
    assert!(report.mean_multicast_saving() > 0.3);
}

/// A steadier comparison configuration: the paper's 5-minute interval and
/// enough users that per-interval noise averages out.
fn comparison_config(seed: u64) -> SimulationConfig {
    SimulationConfig {
        n_users: 80,
        n_intervals: 6,
        warmup_intervals: 2,
        seed,
        ..Default::default()
    }
}

fn mean_accuracy_over_seeds(make: impl Fn(u64) -> SimulationConfig) -> f64 {
    let accs: Vec<f64> = [11u64, 23, 57]
        .iter()
        .map(|&s| {
            Simulation::run(make(s))
                .expect("simulation runs")
                .mean_radio_accuracy()
        })
        .collect();
    msvs::types::stats::mean(&accs)
}

#[test]
fn scheme_beats_historical_mean() {
    let scheme = mean_accuracy_over_seeds(comparison_config);
    let hist = mean_accuracy_over_seeds(|s| SimulationConfig {
        predictor: DemandPredictorKind::HistoricalMean { alpha: 0.3 },
        ..comparison_config(s)
    });
    assert!(scheme > hist, "scheme {scheme:.3} vs historical {hist:.3}");
}

#[test]
fn stale_twins_hurt_accuracy() {
    let fresh = mean_accuracy_over_seeds(comparison_config);
    let stale = mean_accuracy_over_seeds(|s| {
        let mut cfg = comparison_config(s);
        cfg.collection = cfg.collection.scaled(48.0);
        cfg
    });
    assert!(fresh > stale, "fresh {fresh:.3} vs stale {stale:.3}");
}

#[test]
fn csv_round_trips_row_count() {
    let report: SimulationReport = Simulation::run(fast_config(7)).expect("simulation runs");
    let csv = report::to_csv(&report);
    assert_eq!(csv.lines().count(), report.intervals.len() + 1);
    for r in &report.intervals {
        assert!(csv.contains(&format!("{},{}", r.index, r.k)));
    }
}

#[test]
fn interval_indices_are_sequential() {
    let report = Simulation::run(fast_config(9)).expect("simulation runs");
    for (i, r) in report.intervals.iter().enumerate() {
        assert_eq!(r.index, i);
        assert!(r.silhouette >= -1.0 && r.silhouette <= 1.0);
        assert!(r.predicted_radio.is_valid(), "prediction must be finite");
    }
}

#[test]
fn extension_modes_compose() {
    // Per-BS accounting + reservation + churn + mixed mobility, all at
    // once: the pipeline must stay finite and the per-interval artifacts
    // must all be populated.
    let mut cfg = fast_config(31);
    cfg.per_bs_accounting = true;
    cfg.churn_rate = 0.15;
    cfg.reservation = Some(msvs::core::ReservationPolicy {
        headroom: 0.2,
        ..Default::default()
    });
    let report = Simulation::run(cfg).expect("composed simulation runs");
    assert_eq!(report.intervals.len(), 4);
    for r in &report.intervals {
        assert!(r.predicted_radio.is_valid());
        assert!(r.actual_radio.value() > 0.0);
        assert!((0.0..=1.0).contains(&r.radio_accuracy));
        assert!(r.reservation.is_some());
        assert!(r.grouping_stability.is_some());
    }
    assert!(report.reservation_coverage().is_some());
    assert!(report.waste_fraction() >= 0.0);
}

#[test]
fn csv_reflects_reservation_and_stability_columns() {
    let mut cfg = fast_config(33);
    cfg.reservation = Some(msvs::core::ReservationPolicy::default());
    let rep = Simulation::run(cfg).expect("simulation runs");
    let csv = report::to_csv(&rep);
    let header = csv.lines().next().expect("header");
    assert!(header.contains("reservation_covered"));
    assert!(header.contains("grouping_stability"));
    assert!(header.contains("handovers"));
    // Every data row has the full column count.
    let cols = header.split(',').count();
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }
}
