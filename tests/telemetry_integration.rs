//! End-to-end telemetry: the event sequence a two-interval simulation
//! journals, and the stage stats its report embeds.

use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::{stage, Entry, Event, EventJournal, Json};
use msvs::types::SimDuration;

fn two_interval_config(seed: u64) -> SimulationConfig {
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
    SimulationConfig {
        n_users: 24,
        n_intervals: 2,
        warmup_intervals: 1,
        interval: SimDuration::from_mins(2),
        scheme,
        seed,
        ..Default::default()
    }
}

/// Runs warm-up plus both scored intervals, returning the journal entries
/// and the final report.
fn run_journaled(seed: u64) -> (Vec<Entry>, msvs::sim::SimulationReport) {
    let cfg = two_interval_config(seed);
    let n = cfg.n_intervals;
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    let mut report = msvs::sim::SimulationReport::default();
    for i in 0..n {
        report
            .intervals
            .push(sim.run_interval(i).expect("interval runs"));
    }
    report.telemetry = sim.telemetry().summary();
    (sim.telemetry().journal().entries(), report)
}

#[test]
fn two_interval_run_journals_the_expected_event_sequence() {
    let (entries, report) = run_journaled(31);

    // The run opens with exactly one RunStarted, at simulation time zero.
    assert_eq!(entries[0].t_ms, 0);
    assert!(
        matches!(&entries[0].event, Event::RunStarted { scheme, seed }
            if scheme == "dt-assisted" && *seed == 31),
        "first event must be RunStarted, got {:?}",
        entries[0].event
    );
    let count = |name: &str| entries.iter().filter(|e| e.event.name() == name).count();
    assert_eq!(count("RunStarted"), 1);

    // One collection sweep per scored interval; warm-up journals none.
    assert_eq!(count("CollectionCompleted"), 2);
    // Scored intervals journal their boundaries; warm-up does not.
    assert_eq!(count("IntervalStarted"), 2);
    assert_eq!(count("IntervalCompleted"), 2);
    // Each scored interval reports its prediction and playback stages.
    assert_eq!(count("StageCompleted"), 4);
    // Every prediction pass (warm-up included) emits one DemandPredicted.
    assert_eq!(count("DemandPredicted"), 3);
    // Grouping runs at least once per prediction pass, and many more times
    // during DDQN pretraining.
    assert!(count("GroupsFormed") >= 3);

    // Interval lifecycles nest: Started(0) < Completed(0) < Started(1)
    // < Completed(1), in record order.
    let boundary_positions: Vec<(usize, u64, bool)> = entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match &e.event {
            Event::IntervalStarted { interval } => Some((i, *interval, false)),
            Event::IntervalCompleted { interval, .. } => Some((i, *interval, true)),
            _ => None,
        })
        .collect();
    let sequence: Vec<(u64, bool)> = boundary_positions
        .iter()
        .map(|&(_, n, done)| (n, done))
        .collect();
    assert_eq!(
        sequence,
        vec![(0, false), (0, true), (1, false), (1, true)],
        "interval events must nest in order"
    );

    // Timestamps are simulation time and never go backwards.
    assert!(
        entries.windows(2).all(|w| w[0].t_ms <= w[1].t_ms),
        "journal timestamps must be monotone"
    );
    // 1 warm-up + 2 scored intervals of 2 minutes each.
    assert_eq!(entries.last().unwrap().t_ms, 3 * 120_000);

    // The report's telemetry summary counts what the journal recorded.
    let events_total: u64 = report
        .telemetry
        .counters
        .iter()
        .filter(|(name, _, _)| name == "events_total")
        .map(|(_, _, v)| v)
        .sum();
    assert_eq!(events_total as usize, entries.len());
    // SCHEME_PREDICT percentiles come from the shared histogram: one
    // sample per prediction pass.
    let predict = report
        .telemetry
        .stages
        .iter()
        .find(|s| s.stage == stage::SCHEME_PREDICT)
        .expect("scheme_predict stage is timed");
    assert_eq!(predict.count, 3);
    assert!(predict.p50_ms > 0.0 && predict.p99_ms >= predict.p50_ms);
}

#[test]
fn journal_round_trips_through_jsonl_export() {
    let (entries, _) = run_journaled(32);
    let journal = EventJournal::new();
    for e in &entries {
        journal.record(e.t_ms, e.event.clone());
    }
    let parsed = EventJournal::parse_jsonl(&journal.to_jsonl()).expect("parses");
    assert_eq!(parsed.entries(), entries);
}

/// Every event that names an interval sits between the `IntervalStarted`
/// and the `IntervalCompleted` of that interval: warm-up journals no
/// interval-numbered event, and collection and fault tallies carry the
/// scored index like the rest. The run is `msvs run --users 24
/// --intervals 3 --seed 3 --shards 4 --faults bs-crash` (two warm-ups),
/// and its journal parses back entry for entry.
#[test]
fn interval_events_sit_inside_their_interval() {
    let mut cfg = SimulationConfig::builder()
        .users(24)
        .intervals(3)
        .seed(3)
        .shards(4)
        .build()
        .expect("config is valid");
    cfg.faults = Some(msvs::faults::FaultPlan::builtin("bs-crash").expect("builtin"));
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..3 {
        sim.run_interval(i).expect("interval runs");
    }
    let entries = sim.telemetry().journal().entries();
    let mut open = None;
    for (i, e) in entries.iter().enumerate() {
        let Some(interval) = e.to_json().get("interval").and_then(Json::as_u64) else {
            continue;
        };
        match e.event {
            Event::IntervalStarted { .. } => {
                assert_eq!(
                    open, None,
                    "entry {i}: interval {interval} opens inside another"
                );
                open = Some(interval);
            }
            Event::IntervalCompleted { .. } => {
                assert_eq!(
                    open.take(),
                    Some(interval),
                    "entry {i}: unmatched completion"
                );
            }
            _ => assert_eq!(
                open,
                Some(interval),
                "entry {i}: {} for interval {interval} outside it",
                e.event.name()
            ),
        }
    }
    assert_eq!(open, None, "the last interval completes");
    let count = |name: &str| entries.iter().filter(|e| e.event.name() == name).count();
    for name in [
        "CollectionCompleted",
        "FaultInjected",
        "FaultsInjected",
        "ShardDown",
    ] {
        assert!(count(name) > 0, "the crash run journals {name}");
    }
    // Every fault label the runner journals parses back from its closed set.
    let text = sim.telemetry().journal().to_jsonl();
    let parsed = EventJournal::parse_jsonl(&text).expect("parses");
    assert_eq!(parsed.entries(), entries);
}
