//! Observability guarantees: the hierarchical span tree nests the way the
//! pipeline runs (interval → stage → per-group/per-batch work), the
//! Chrome-trace export and the bench document both satisfy their schemas,
//! and a damaged journal is summarised lossily rather than refused.

use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::sim::{run_bench, validate_bench_json, BenchOptions, Simulation, SimulationConfig};
use msvs::telemetry::{
    chrome_trace, stages, validate_chrome_trace, EventJournal, Json, SpanRecord,
};
use msvs::types::SimDuration;

fn traced_run(seed: u64, threads: usize) -> Simulation {
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
        .users(24)
        .intervals(2)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(scheme)
        .threads(threads)
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
    let sim = traced_run(5, 2);
    let spans = sim.telemetry().spans();

    // Roots: one interval span per warm-up + scored interval, nothing above.
    let intervals = by_name(&spans, stages::INTERVAL);
    assert_eq!(intervals.len(), 3, "1 warm-up + 2 scored intervals");
    assert!(intervals.iter().all(|s| s.parent.is_none()));
    // Scored intervals carry their index; the warm-up does not.
    let indices: Vec<_> = intervals.iter().filter_map(|s| s.attrs.interval).collect();
    assert_eq!(indices, vec![0, 1]);

    // Stage spans sit under an interval.
    for stage in [stages::UDT_INGEST, stages::SCHEME_PREDICT, stages::PLAYBACK] {
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
    let sim = traced_run(5, 2);
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
fn bench_document_from_a_tiny_run_is_schema_valid() {
    let doc = run_bench(&BenchOptions {
        seed: 11,
        users: 24,
        intervals: 1,
        threads: 2,
        shards: 1,
        ..Default::default()
    })
    .expect("bench run");
    validate_bench_json(&doc).expect("schema-valid document");
    let stages_obj = doc.get("stages").expect("stages present");
    for stage in [stages::SCHEME_PREDICT, stages::PLAYBACK, stages::UDT_INGEST] {
        assert!(stages_obj.get(stage).is_some(), "{stage} in bench stages");
    }
}

#[test]
fn committed_bench_baselines_are_schema_valid() {
    for name in ["BENCH_5.json", "BENCH_6.json", "BENCH_7.json"] {
        let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("bench baseline is committed");
        let doc = Json::parse(&text).expect("baseline parses");
        validate_bench_json(&doc).unwrap_or_else(|e| panic!("{name} is not schema-valid: {e}"));
    }
    // The v2 baseline records the compute backend that produced it.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_7.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(msvs::sim::bench_backend_name(&doc), "simd");
    // The sharded baseline carries the per-shard demand attribution.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_6.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(doc.get("shards").and_then(Json::as_u64), Some(4));
    assert!(
        doc.get("shard_plane")
            .and_then(|p| p.get("demand"))
            .and_then(|d| d.get("shard_3"))
            .is_some(),
        "BENCH_6.json records per-shard demand rows"
    );
}

#[test]
fn damaged_journal_is_summarised_lossily_and_flagged_when_truncated() {
    let sim = traced_run(9, 1);
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
