//! Observability guarantees: the hierarchical span tree nests the way the
//! pipeline runs (interval → stage → per-group/per-batch work),
//! the Chrome-trace export satisfies its schema, and a damaged journal is
//! summarised lossily rather than refused.

use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::{
    chrome_trace, stages, validate_chrome_trace, Event, EventJournal, Json, SpanRecord,
};
use msvs::types::SimDuration;

fn traced_run(seed: u64, threads: usize, shards: usize) -> Simulation {
    traced_run_of(24, seed, threads, shards)
}

fn traced_run_of(users: usize, seed: u64, threads: usize, shards: usize) -> Simulation {
    let scheme = SchemeConfig {
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
    let config = SimulationConfig::builder()
        .users(users)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(scheme)
        .threads(threads)
        .shards(shards)
        .seed(seed)
        .build()
        .expect("test config is valid");
    let mut sim = Simulation::new(config).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    for i in 0..2 {
        sim.run_interval(i).expect("interval runs");
    }
    sim
}

fn by_name<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

fn find(spans: &[SpanRecord], id: u64) -> &SpanRecord {
    spans.iter().find(|s| s.id == id).expect("parent id exists")
}

#[test]
fn span_tree_nests_interval_stage_and_per_item_work() {
    let sim = traced_run(5, 2, 1);
    let spans = sim.telemetry().spans();

    // Roots: one interval span per warm-up + scored interval, nothing above.
    let intervals = by_name(&spans, stages::INTERVAL);
    assert_eq!(intervals.len(), 3, "1 warm-up + 2 scored intervals");
    assert!(intervals.iter().all(|s| s.parent.is_none()));
    // Scored intervals carry their index; the warm-up does not.
    let indices: Vec<_> = intervals.iter().filter_map(|s| s.attrs.interval).collect();
    assert_eq!(indices, vec![0, 1]);

    // Stage spans sit under an interval.
    for stage in [
        stages::WORLD_STEP,
        stages::UDT_INGEST,
        stages::SCHEME_PREDICT,
        stages::PLAYBACK,
    ] {
        let stage_spans = by_name(&spans, stage);
        assert!(!stage_spans.is_empty(), "{stage} spans recorded");
        for s in &stage_spans {
            let parent = find(&spans, s.parent.expect("stage span has a parent"));
            assert_eq!(parent.name, stages::INTERVAL, "{stage} nests in interval");
        }
    }

    // Per-group work: playback_group under playback, with a group attr.
    for s in by_name(&spans, stages::PLAYBACK_GROUP) {
        assert_eq!(find(&spans, s.parent.unwrap()).name, stages::PLAYBACK);
        assert!(s.attrs.group.is_some(), "playback_group carries its group");
    }

    // Per-group prediction work runs on the pool and is adopted under
    // scheme_predict: each swiping_abstraction and demand_predict span
    // carries its group, in ascending group order, once per non-empty
    // group of the interval (the journal's IntervalCompleted.groups).
    let groups_of: std::collections::HashMap<u64, u64> = sim
        .telemetry()
        .journal()
        .entries()
        .into_iter()
        .filter_map(|e| match e.event {
            Event::IntervalCompleted {
                interval, groups, ..
            } => Some((interval, groups)),
            _ => None,
        })
        .collect();
    let predicts = by_name(&spans, stages::SCHEME_PREDICT);
    assert_eq!(predicts.len(), 3, "1 warm-up + 2 scored prediction passes");
    for name in [stages::SWIPING_ABSTRACTION, stages::DEMAND_PREDICT] {
        let per_group = by_name(&spans, name);
        for s in &per_group {
            let parent = find(&spans, s.parent.expect("per-group span has a parent"));
            assert_eq!(
                parent.name,
                stages::SCHEME_PREDICT,
                "{name} nests in predict"
            );
            assert!(s.attrs.group.is_some(), "{name} carries its group");
        }
        for predict in &predicts {
            let groups: Vec<u64> = per_group
                .iter()
                .filter(|s| s.parent == Some(predict.id))
                .map(|s| s.attrs.group.unwrap())
                .collect();
            assert!(!groups.is_empty(), "{name} under every predict pass");
            assert!(
                groups.windows(2).all(|w| w[0] < w[1]),
                "{name} in ascending group order: {groups:?}"
            );
            if let Some(interval) = predict.attrs.interval {
                assert_eq!(
                    groups.len() as u64,
                    groups_of[&interval],
                    "{name}: one per non-empty group of interval {interval}"
                );
            }
        }
    }

    // Per-batch work: cnn_encode_batch under cnn_forward, with a batch attr.
    let batches = by_name(&spans, stages::CNN_ENCODE_BATCH);
    assert!(!batches.is_empty(), "CNN encode ran in traced batches");
    for s in &batches {
        assert_eq!(find(&spans, s.parent.unwrap()).name, stages::CNN_FORWARD);
        assert!(s.attrs.batch.is_some(), "encode batch carries its index");
    }

    // Per-round work: kmeans_assign/update under kmeans_fit.
    for name in [stages::KMEANS_ASSIGN, stages::KMEANS_UPDATE] {
        let rounds = by_name(&spans, name);
        assert!(!rounds.is_empty(), "{name} spans recorded");
        for s in &rounds {
            assert_eq!(find(&spans, s.parent.unwrap()).name, stages::KMEANS_FIT);
        }
    }
}

#[test]
fn chrome_trace_export_satisfies_the_schema() {
    let sim = traced_run(5, 2, 1);
    let spans = sim.telemetry().spans();
    let trace = chrome_trace(&spans, "observability test");
    validate_chrome_trace(&trace).expect("export is schema-valid");

    // Round-trips through serialisation (what `msvs run --trace` writes).
    let reparsed = Json::parse(&trace.to_string()).expect("valid JSON text");
    validate_chrome_trace(&reparsed).expect("reparsed export is schema-valid");

    // The event array mirrors the span tree: one X event per span, with
    // the id/parent/attrs carried in args.
    let events = match &reparsed {
        Json::Arr(events) => events,
        _ => panic!("chrome trace is a JSON array"),
    };
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), spans.len());
    let interval_events = complete
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some(stages::INTERVAL)
                && e.get("args").and_then(|a| a.get("interval")).is_some()
        })
        .count();
    assert_eq!(interval_events, 2, "both scored intervals are annotated");
}

#[test]
fn sharded_interval_profiles_rebalance_and_aggregate() {
    let sim = traced_run(5, 2, 4);
    let spans = sim.telemetry().spans();
    let within = |span: &SpanRecord, ancestor: u64| {
        let mut parent = span.parent;
        while let Some(id) = parent {
            if id == ancestor {
                return true;
            }
            parent = find(&spans, id).parent;
        }
        false
    };

    // The shard plane opens no span besides its own sweeps.
    let shard_stages = [
        stages::SHARD_REBALANCE,
        stages::SHARD_AGGREGATE,
        stages::SHARD_OUTAGE,
        stages::SHARD_RESTORE,
    ];
    for span in spans.iter().filter(|s| s.name.starts_with("shard_")) {
        assert!(shard_stages.contains(&span.name), "{}", span.name);
    }

    // The handover sweep relabels users serially and opens no child
    // span.
    for rebalance in by_name(&spans, stages::SHARD_REBALANCE) {
        assert!(
            !spans.iter().any(|s| s.parent == Some(rebalance.id)),
            "shard_rebalance has no children"
        );
    }

    // Each scored interval sweeps ownership once and folds its demand
    // into the per-shard rows once.
    let scored: Vec<_> = by_name(&spans, stages::INTERVAL)
        .into_iter()
        .filter(|s| s.attrs.interval.is_some())
        .collect();
    assert_eq!(scored.len(), 2);
    for interval in scored {
        for name in [stages::SHARD_REBALANCE, stages::SHARD_AGGREGATE] {
            let inside = by_name(&spans, name)
                .into_iter()
                .filter(|s| within(s, interval.id))
                .count();
            assert_eq!(inside, 1, "one {name} span per scored interval");
        }
    }
}

/// Nearest-rank quantile of an ascending sample: rank `ceil(q·n)`.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The report's stage table is the closed spans, exactly: one row per
/// span name whose count is its number of spans, and every statistic
/// the nearest-rank value (or the mean) of their durations, bit for bit.
/// The journal's closing `StageSummary` rows are that table.
#[test]
fn stage_table_is_exact_over_the_closed_spans() {
    let sim = traced_run_of(200, 17, 2, 4);
    let summary = sim.telemetry().summary();
    let spans = sim.telemetry().spans();
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let rows: Vec<&str> = summary.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(rows, names, "one row per span name");
    for name in [
        stages::KMEANS_ASSIGN,
        stages::KMEANS_UPDATE,
        stages::CNN_ENCODE_BATCH,
    ] {
        assert!(rows.contains(&name), "span-only stage {name} has a row");
    }
    // The world step has its own row, one span per interval, so
    // `udt_ingest` times only the twin side of collection.
    let world_steps = by_name(&spans, stages::WORLD_STEP).len();
    assert!(rows.contains(&stages::WORLD_STEP));
    assert_eq!(world_steps, by_name(&spans, stages::INTERVAL).len());
    // Setup has rows too: CNN training, and one root pretraining span
    // that holds the DDQN training steps and fits of its episodes.
    assert!(rows.contains(&stages::CNN_TRAIN));
    let pretrain = by_name(&spans, stages::DDQN_PRETRAIN);
    assert_eq!(pretrain.len(), 1, "one pretraining pass");
    assert_eq!(pretrain[0].parent, None);
    for name in [stages::DDQN_TRAIN, stages::KMEANS_FIT] {
        let nested = by_name(&spans, name)
            .iter()
            .filter(|s| s.parent == Some(pretrain[0].id))
            .count();
        assert!(nested > 0, "{name} spans nest in {}", stages::DDQN_PRETRAIN);
    }
    let ms = |us: u64| us as f64 / 1e3;
    for row in &summary.stages {
        let mut us: Vec<u64> = by_name(&spans, &row.stage)
            .iter()
            .map(|s| s.dur_us)
            .collect();
        us.sort_unstable();
        let n = us.len();
        assert_eq!(row.count, n as u64, "{}", row.stage);
        let total: u64 = us.iter().sum();
        let want = [
            total as f64 / 1e3 / n as f64,
            ms(nearest_rank(&us, 0.50)),
            ms(nearest_rank(&us, 0.90)),
            ms(nearest_rank(&us, 0.95)),
            ms(nearest_rank(&us, 0.99)),
            ms(us[n - 1]),
            ms(total),
        ];
        let got = [
            row.mean_ms,
            row.p50_ms,
            row.p90_ms,
            row.p95_ms,
            row.p99_ms,
            row.max_ms,
            row.total_ms,
        ];
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "{}: {got:?} vs {want:?}",
            row.stage
        );
    }

    // Closing the run journals the same table, one row per span name.
    let report = sim.finish(Vec::new());
    assert_eq!(report.telemetry.stages, summary.stages);
    let journaled: Vec<(String, u64, [u64; 6])> = sim
        .telemetry()
        .journal()
        .entries()
        .into_iter()
        .filter_map(|e| match e.event {
            Event::StageSummary {
                stage,
                count,
                mean_ms,
                p50_ms,
                p90_ms,
                p99_ms,
                max_ms,
                total_ms,
            } => Some((
                stage,
                count,
                [mean_ms, p50_ms, p90_ms, p99_ms, max_ms, total_ms].map(f64::to_bits),
            )),
            _ => None,
        })
        .collect();
    let table: Vec<(String, u64, [u64; 6])> = summary
        .stages
        .iter()
        .map(|s| {
            (
                s.stage.clone(),
                s.count,
                [
                    s.mean_ms, s.p50_ms, s.p90_ms, s.p99_ms, s.max_ms, s.total_ms,
                ]
                .map(f64::to_bits),
            )
        })
        .collect();
    assert_eq!(journaled, table, "one journal row per stage-table row");
}

#[test]
fn damaged_journal_is_summarised_lossily_and_flagged_when_truncated() {
    let sim = traced_run(9, 1, 1);
    let jsonl = sim.telemetry().journal().to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() > 4, "journal has enough lines to damage");

    // Damage a middle line: still summarisable, skip is accounted for.
    let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    damaged[2] = damaged[2].replace("\"t_ms\"", "\"t_m");
    let (journal, report) = EventJournal::parse_jsonl_lossy(&damaged.join("\n"));
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].0, 3, "1-based line number of the damage");
    assert!(!report.truncated);
    assert_eq!(journal.entries().len(), lines.len() - 1);

    // Chop the final line mid-record: the truncation flag trips.
    let cut = jsonl.trim_end();
    let (_, report) = EventJournal::parse_jsonl_lossy(&cut[..cut.len() - 10]);
    assert!(report.truncated, "a corrupt final line means truncation");
}
