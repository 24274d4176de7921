//! Parallel-execution guarantees: a seeded run must produce the same
//! span tree and counter totals at any worker-pool size (the report itself
//! is pinned by `tests/equivalence_matrix.rs`), the validating builder
//! must reject malformed configurations up front, and custom predictors
//! must plug into the runner through the `DemandPredictor` trait.

use msvs::core::{
    CompressorConfig, DemandPredictor, DtAssistedPredictor, GroupingConfig, PipelineBacked,
    Prediction, PredictionContext, SchemeConfig,
};
use msvs::sim::{Simulation, SimulationConfig};
use msvs::types::{CpuCycles, ResourceBlocks, Result, SimDuration};

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

fn seeded_config(seed: u64, threads: usize) -> SimulationConfig {
    SimulationConfig::builder()
        .users(24)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(small_scheme())
        .threads(threads)
        .seed(seed)
        .build()
        .expect("test config is valid")
}

/// Drives a seeded run by hand (keeping the telemetry handle reachable)
/// and returns the span tree's thread-count-invariant shape.
fn span_structure(
    seed: u64,
    threads: usize,
) -> Vec<(u64, Option<u64>, &'static str, msvs::telemetry::SpanAttrs)> {
    let mut sim = Simulation::new(seeded_config(seed, threads)).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..2 {
        sim.run_interval(i).expect("interval runs");
    }
    sim.telemetry()
        .spans()
        .iter()
        .map(|s| s.structure())
        .collect()
}

#[test]
fn span_structure_is_identical_across_thread_counts() {
    let serial = span_structure(33, 1);
    let parallel = span_structure(33, 4);
    assert!(!serial.is_empty(), "instrumented run must produce spans");
    assert_eq!(
        serial, parallel,
        "span ids, parents, names and attributes must not depend on the pool size"
    );
}

#[test]
fn counter_totals_match_single_thread_exactly_under_faults() {
    let run = |threads: usize| {
        let mut cfg = seeded_config(91, threads);
        cfg.faults = Some(msvs::faults::FaultPlan::builtin("brownout").expect("builtin"));
        cfg.validate().expect("config with faults is valid");
        Simulation::run(cfg).expect("fault run")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial.telemetry.counters, parallel.telemetry.counters,
        "every counter total (fault_reports_total, fault_retries_total, \
         events_total, ...) must match the single-thread run exactly"
    );
    assert!(
        serial
            .telemetry
            .counters
            .iter()
            .any(|(name, _, v)| name == "fault_reports_total" && *v > 0),
        "the brownout profile must actually inject faults"
    );
}

#[test]
fn thread_count_resolves_before_the_run() {
    // `RunStarted`, journalled at construction, records the resolved count.
    let threads = |requested: usize| {
        let sim = Simulation::new(seeded_config(1, requested)).expect("scenario builds");
        match sim.telemetry().journal().entries()[0].event {
            msvs::telemetry::Event::RunStarted { threads, .. } => threads,
            ref other => panic!("the journal opens with RunStarted, not {other:?}"),
        }
    };
    assert_eq!(threads(4), 4);
    // `0` resolves to the machine's available parallelism — at least one.
    assert!(threads(0) >= 1);
}

#[test]
fn builder_rejects_malformed_configs() {
    assert!(SimulationConfig::builder().users(0).build().is_err());
    assert!(SimulationConfig::builder()
        .tick(SimDuration::from_mins(30))
        .build()
        .is_err());
    assert!(SimulationConfig::builder().threads(4096).build().is_err());
}

/// A scalar predictor that always forecasts the same demand — the smallest
/// possible custom `DemandPredictor`.
struct ConstantPredictor {
    radio: f64,
    computing: f64,
}

impl DemandPredictor for ConstantPredictor {
    fn name(&self) -> &'static str {
        "constant"
    }

    fn predict(&mut self, _ctx: &PredictionContext<'_>) -> Result<Prediction> {
        Ok(Prediction {
            radio: ResourceBlocks(self.radio),
            computing: CpuCycles(self.computing),
            outcome: None,
            degradation: None,
        })
    }
}

#[test]
fn custom_predictor_plugs_into_the_runner() {
    let config = seeded_config(7, 1);
    let pipeline = DtAssistedPredictor::new(config.scheme.clone()).expect("pipeline builds");
    let scored = ConstantPredictor {
        radio: 123.0,
        computing: 4.5e9,
    };
    let mut sim =
        Simulation::with_predictor(config, Box::new(PipelineBacked::new(pipeline, scored)))
            .expect("scenario builds");
    assert_eq!(sim.predictor_name(), "constant");
    sim.warm_up().expect("warm-up runs");
    let record = sim.run_interval(0).expect("interval runs");
    // The scored totals come from the custom predictor; playback still
    // runs on the DT pipeline's grouping.
    assert_eq!(record.predicted_radio, ResourceBlocks(123.0));
    assert_eq!(record.predicted_computing, CpuCycles(4.5e9));
    assert!(record.actual_radio.value() > 0.0, "groups must transmit");
}
