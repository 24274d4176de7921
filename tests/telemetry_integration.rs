//! End-to-end telemetry: the event sequence a two-interval simulation
//! journals, the scorecard and stage table it carries, and the stage
//! stats its report embeds.

use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::{stages, Entry, Event, EventJournal, Json};
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
    let mut sim = Simulation::new(two_interval_config(seed)).expect("scenario builds");
    let report = sim.run_schedule().expect("run completes");
    (sim.telemetry().journal().entries(), report)
}

#[test]
fn two_interval_run_journals_the_expected_event_sequence() {
    let (entries, report) = run_journaled(31);

    // The run opens with exactly one RunStarted, at simulation time zero,
    // carrying the run's shape.
    assert_eq!(entries[0].t_ms, 0);
    let threads = match &entries[0].event {
        Event::RunStarted {
            scheme,
            seed: 31,
            users: 24,
            intervals: 2,
            threads,
            shards: 1,
        } if scheme == "dt-assisted" => *threads,
        other => panic!("first event must be this run's RunStarted, got {other:?}"),
    };
    assert!(threads >= 1, "the resolved worker count");
    let count = |name: &str| entries.iter().filter(|e| e.event.name() == name).count();
    assert_eq!(count("RunStarted"), 1);
    // Pretraining journals one summary, however many episodes it ran.
    assert_eq!(count("PretrainCompleted"), 1);
    // One collection sweep per scored interval; warm-up journals none.
    assert_eq!(count("CollectionCompleted"), 2);
    // Scored intervals journal their boundaries; warm-up does not.
    assert_eq!(count("IntervalStarted"), 2);
    assert_eq!(count("IntervalCompleted"), 2);
    // The run closes with one stage row per span name, and journals
    // nothing else.
    let stages_run = report.telemetry.stages.len();
    assert_eq!(count("StageSummary"), stages_run);
    assert_eq!(entries.len(), 2 + 3 * 2 + stages_run);

    // Each IntervalCompleted is its interval's scorecard row.
    let scorecard: Vec<&Event> = entries
        .iter()
        .map(|e| &e.event)
        .filter(|e| matches!(e, Event::IntervalCompleted { .. }))
        .collect();
    for (event, record) in scorecard.into_iter().zip(&report.intervals) {
        let Event::IntervalCompleted {
            interval,
            k,
            silhouette,
            groups,
            predicted_rb,
            actual_rb,
            predicted_gcycles,
            actual_gcycles,
            ..
        } = event
        else {
            unreachable!("filtered above")
        };
        assert_eq!(*interval, record.index as u64);
        assert_eq!((*k, *silhouette), (record.k as u64, record.silhouette));
        assert!(*groups >= 1 && *groups <= *k);
        assert_eq!(*predicted_rb, record.predicted_radio.value());
        assert_eq!(*actual_rb, record.actual_radio.value());
        assert_eq!(
            *predicted_gcycles,
            record.predicted_computing.as_gigacycles()
        );
        assert_eq!(*actual_gcycles, record.actual_computing.as_gigacycles());
    }
    // The StageSummary rows are the report's stage table, bit for bit.
    let rows: Vec<Event> = entries
        .iter()
        .filter(|e| e.event.name() == "StageSummary")
        .map(|e| e.event.clone())
        .collect();
    let table: Vec<Event> = report
        .telemetry
        .stages
        .iter()
        .map(|s| Event::StageSummary {
            stage: s.stage.clone(),
            count: s.count,
            mean_ms: s.mean_ms,
            p50_ms: s.p50_ms,
            p90_ms: s.p90_ms,
            p99_ms: s.p99_ms,
            max_ms: s.max_ms,
            total_ms: s.total_ms,
        })
        .collect();
    assert_eq!(rows, table);

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
    assert_eq!(
        entries.last().unwrap().event.name(),
        "StageSummary",
        "the stage table closes the run"
    );

    // The report's telemetry summary counts what the journal recorded.
    let events_total: u64 = report
        .telemetry
        .counters
        .iter()
        .filter(|(name, _, _)| name == "events_total")
        .map(|(_, _, v)| v)
        .sum();
    assert_eq!(events_total as usize, entries.len());
    // SCHEME_PREDICT statistics come from its closed spans: one sample
    // per prediction pass.
    let predict = report
        .telemetry
        .stages
        .iter()
        .find(|s| s.stage == stages::SCHEME_PREDICT)
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
    for name in ["CollectionCompleted", "FaultsInjected", "ShardDown"] {
        assert!(count(name) > 0, "the crash run journals {name}");
    }
    let text = sim.telemetry().journal().to_jsonl();
    let parsed = EventJournal::parse_jsonl(&text).expect("parses");
    assert_eq!(parsed.entries(), entries);
}

/// The journal holds run-, interval- and decision-level events; single
/// operations (faulted reports, cache evictions, DDQN training steps,
/// pretraining episodes) are counted or timed, never journalled. So
/// quadrupling the population of a seeded `bs-crash` run, or cutting its
/// pretraining from 250 rounds to 10, leaves the journal's count of
/// every event name unchanged but the closing stage table's, which has
/// one row per span name that ran (ten rounds never fill the DDQN's
/// replay buffer, so no `ddqn_train` span closes).
#[test]
fn journal_length_does_not_grow_with_the_population() {
    const INTERVALS: usize = 4;
    let counts = |users: usize, pretrain_rounds: usize| {
        let cfg = SimulationConfig {
            n_users: users,
            n_intervals: INTERVALS,
            shards: 4,
            threads: 2,
            pretrain_rounds,
            faults: Some(msvs::faults::FaultPlan::builtin("bs-crash").expect("builtin")),
            ..two_interval_config(3)
        };
        let mut sim = Simulation::new(cfg).expect("scenario builds");
        let report = sim.run_schedule().expect("run completes");
        let entries = sim.telemetry().journal().entries();
        let mut counts = std::collections::BTreeMap::new();
        for e in &entries {
            *counts.entry(e.event.name()).or_insert(0usize) += 1;
        }
        let span_names = counts.remove("StageSummary").unwrap_or(0);
        assert_eq!(span_names, report.telemetry.stages.len());
        assert!(span_names <= stages::ALL.len());
        (counts, entries.len() - span_names, report)
    };
    let (small, small_len, small_report) = counts(100, 250);
    let (large, large_len, large_report) = counts(400, 250);
    let (short, short_len, _) = counts(100, 10);
    assert!(small.contains_key("ShardDown") && small.contains_key("FaultsInjected"));
    assert_eq!(
        small, large,
        "journal event counts per name, 100 vs 400 users"
    );
    assert_eq!(
        small, short,
        "journal event counts per name, 250 vs 10 rounds"
    );
    assert_eq!(small["PretrainCompleted"], 1);
    assert_eq!(small["IntervalCompleted"], INTERVALS);
    assert_eq!((large_len, short_len), (small_len, small_len));
    let faulted = |r: &msvs::sim::SimulationReport| -> u64 {
        r.telemetry
            .counters
            .iter()
            .filter(|(n, _, _)| n == "fault_reports_total")
            .map(|(_, _, v)| v)
            .sum()
    };
    assert!(
        faulted(&large_report) > faulted(&small_report),
        "faulted reports are counted per report"
    );
}
