//! Perf-baseline harness: a pinned-seed simulation distilled into one
//! machine-readable JSON document (`BENCH_*.json`).
//!
//! Every PR regenerates the document with `msvs bench-report`; committing
//! it to `results/` gives subsequent changes a perf trajectory to regress
//! against. Timings are hardware-dependent, so consumers compare fields
//! between runs on the *same* machine; the [`validate_bench_json`] schema
//! check is what CI enforces.

use msvs_core::{BackendKind, CompressorConfig, GroupingConfig, SchemeConfig};
use msvs_telemetry::Json;
use msvs_types::{Result, SimDuration};

use crate::config::SimulationConfig;
use crate::runner::Simulation;

/// Identifier stamped into the `schema` field of every bench document.
/// v2 added the required `backend` field; [`validate_bench_json`] still
/// accepts committed v1 baselines (implicitly `scalar`).
pub const BENCH_SCHEMA: &str = "msvs-bench/v2";

/// Every backend name a committed bench document may record. Only
/// `scalar` is still produced; `simd` (e.g. `BENCH_7`) and `int8` name
/// retired backends and stay valid history.
const RECORDED_BACKENDS: [&str; 3] = ["scalar", "simd", "int8"];

/// The pre-backend schema, kept accepted so older committed baselines
/// (`BENCH_4`…`BENCH_6`) remain comparable.
const BENCH_SCHEMA_V1: &str = "msvs-bench/v1";

/// Knobs of a bench run. The defaults are the pinned baseline shape;
/// `threads: 0` resolves to all cores (recorded in the output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOptions {
    /// RNG seed (pinned so run-to-run work is identical).
    pub seed: u64,
    /// Simulated population size.
    pub users: usize,
    /// Scored reservation intervals.
    pub intervals: usize,
    /// Worker threads (`0` = all cores).
    pub threads: usize,
    /// Base-station shards (`1` = the legacy single-cell path).
    pub shards: usize,
    /// Per-interval user churn in `[0, 1]` (fraction of users replaced
    /// with fresh arrivals each interval). `0` keeps the historical
    /// bench shape.
    pub churn: f64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            users: 120,
            intervals: 6,
            threads: 0,
            shards: 1,
            churn: 0.0,
        }
    }
}

impl BenchOptions {
    fn config(&self) -> Result<SimulationConfig> {
        // The baseline shape mirrors the integration-test scheme (short
        // CNN schedule, small K range) scaled up in population, keeping
        // the bench under a minute on CI hardware while still exercising
        // every pipeline stage.
        let scheme = SchemeConfig {
            compressor: CompressorConfig {
                window: 16,
                epochs: 10,
                ..Default::default()
            },
            grouping: GroupingConfig {
                k_min: 2,
                k_max: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        SimulationConfig::builder()
            .users(self.users)
            .intervals(self.intervals)
            .warmup_intervals(1)
            .interval(SimDuration::from_mins(2))
            .scheme(scheme)
            .threads(self.threads)
            .shards(self.shards)
            .churn_rate(self.churn)
            .seed(self.seed)
            .build()
    }
}

/// Runs the pinned-seed bench simulation and distils it into the
/// `BENCH_*.json` document.
///
/// # Errors
/// Propagates simulation construction and pipeline errors.
pub fn run_bench(opts: &BenchOptions) -> Result<Json> {
    let config = opts.config()?;
    let start = std::time::Instant::now();
    let mut sim = Simulation::new(config)?;
    let threads = sim.threads();
    let report = sim.run_schedule()?;
    let wall_s = start.elapsed().as_secs_f64();
    let intervals_run = report.intervals.len();

    let mut stages = std::collections::BTreeMap::new();
    for s in &report.telemetry.stages {
        stages.insert(
            s.stage.clone(),
            Json::obj([
                ("count", Json::Num(s.count as f64)),
                ("p50_ms", Json::Num(s.p50_ms)),
                ("p90_ms", Json::Num(s.p90_ms)),
                ("p99_ms", Json::Num(s.p99_ms)),
                ("max_ms", Json::Num(s.max_ms)),
            ]),
        );
    }
    let mut par = std::collections::BTreeMap::new();
    for (name, label, value) in sim.telemetry().registry().gauge_values() {
        if name == "par_utilisation" {
            par.insert(label, Json::Num(value));
        }
    }
    let user_intervals = (opts.users * intervals_run) as f64;
    let throughput = if wall_s > 0.0 {
        user_intervals / wall_s
    } else {
        0.0
    };
    // Sharded runs record the shard plane alongside the stage table:
    // handover totals, load imbalance, and one demand-attribution row per
    // shard (the per-BS view operators provision from).
    let shard_plane = if let Some(s) = &report.shards {
        let mut rows = std::collections::BTreeMap::new();
        for row in &s.demand {
            rows.insert(
                format!("shard_{}", row.shard),
                Json::obj([
                    ("users", Json::Num(row.users as f64)),
                    ("radio_rb", Json::Num(row.radio)),
                    ("computing_cycles", Json::Num(row.computing)),
                    ("video_cache_hits", Json::Num(row.video_cache_hits as f64)),
                    (
                        "video_cache_misses",
                        Json::Num(row.video_cache_misses as f64),
                    ),
                ]),
            );
        }
        Json::obj([
            ("handovers_total", Json::Num(s.handovers_total as f64)),
            (
                "embeddings_dropped_total",
                Json::Num(s.embeddings_dropped_total as f64),
            ),
            ("peak_imbalance", Json::Num(s.peak_imbalance)),
            ("demand", Json::Obj(rows)),
        ])
    } else {
        Json::Null
    };

    Ok(Json::obj([
        ("schema", Json::Str(BENCH_SCHEMA.into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("users", Json::Num(opts.users as f64)),
        ("intervals", Json::Num(intervals_run as f64)),
        ("threads", Json::Num(threads as f64)),
        ("shards", Json::Num(sim.store().n_shards() as f64)),
        ("backend", Json::Str(BackendKind::Scalar.name().into())),
        ("churn_rate", Json::Num(opts.churn)),
        ("shard_plane", shard_plane),
        ("spans", Json::Num(sim.telemetry().spans().len() as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("throughput_user_intervals_per_s", Json::Num(throughput)),
        (
            "peak_rss_kb",
            match peak_rss_kb() {
                Some(kb) => Json::Num(kb as f64),
                None => Json::Null,
            },
        ),
        ("par_utilisation", Json::Obj(par)),
        ("stages", Json::Obj(stages)),
    ]))
}

/// Peak resident set size of this process in kilobytes, from the Linux
/// `VmHWM` line of `/proc/self/status`; `None` where unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Reads a bench document's recorded backend name, treating legacy v1
/// documents (which predate the field) as `scalar`.
pub fn bench_backend_name(doc: &Json) -> &str {
    doc.get("backend")
        .and_then(Json::as_str)
        .unwrap_or(BackendKind::Scalar.name())
}

/// Validates a bench document against the `msvs-bench/v2` schema (legacy
/// `msvs-bench/v1` documents, which predate the `backend` field, stay
/// accepted): the identifying header fields, non-negative run numbers,
/// and a `stages` object whose every entry carries count/p50/p90/p99/max.
///
/// # Errors
/// Returns a message naming the first offending field.
pub fn validate_bench_json(doc: &Json) -> std::result::Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != BENCH_SCHEMA && schema != BENCH_SCHEMA_V1 {
        return Err(format!(
            "schema is '{schema}', expected '{BENCH_SCHEMA}' (or legacy '{BENCH_SCHEMA_V1}')"
        ));
    }
    if schema == BENCH_SCHEMA {
        let backend = doc
            .get("backend")
            .and_then(Json::as_str)
            .ok_or("missing 'backend'")?;
        if !RECORDED_BACKENDS.contains(&backend) {
            return Err(format!("'backend' is '{backend}', not a known backend"));
        }
    }
    for key in [
        "seed",
        "users",
        "intervals",
        "threads",
        "spans",
        "wall_s",
        "throughput_user_intervals_per_s",
    ] {
        let v = doc
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric '{key}'"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("'{key}' must be finite and >= 0"));
        }
    }
    match doc.get("peak_rss_kb") {
        Some(Json::Null) | Some(Json::Num(_)) => {}
        _ => return Err("'peak_rss_kb' must be a number or null".into()),
    }
    let stages = match doc.get("stages") {
        Some(Json::Obj(map)) => map,
        _ => return Err("missing 'stages' object".into()),
    };
    if stages.is_empty() {
        return Err("'stages' must not be empty".into());
    }
    for (stage, entry) in stages {
        for key in ["count", "p50_ms", "p90_ms", "p99_ms", "max_ms"] {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("stage '{stage}': missing numeric '{key}'"))?;
        }
    }
    match doc.get("par_utilisation") {
        Some(Json::Obj(_)) => Ok(()),
        _ => Err("missing 'par_utilisation' object".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_run_emits_a_valid_document() {
        let doc = run_bench(&BenchOptions {
            seed: 7,
            users: 24,
            intervals: 1,
            threads: 1,
            ..Default::default()
        })
        .unwrap();
        validate_bench_json(&doc).unwrap();
        // Round-trips through the serialised form too.
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        validate_bench_json(&reparsed).unwrap();
        assert_eq!(reparsed.get("threads").and_then(Json::as_u64), Some(1));
        assert_eq!(bench_backend_name(&reparsed), "scalar");
        // Documents recorded on the retired backends stay valid history.
        for retired in ["simd", "int8"] {
            let text = doc.to_string().replace(
                "\"backend\":\"scalar\"",
                &format!("\"backend\":\"{retired}\""),
            );
            let old = Json::parse(&text).unwrap();
            validate_bench_json(&old).unwrap();
            assert_eq!(bench_backend_name(&old), retired);
        }
        assert!(
            reparsed
                .get("stages")
                .and_then(|s| s.get(msvs_telemetry::stages::SCHEME_PREDICT))
                .is_some(),
            "scheme_predict stage present"
        );
    }

    #[test]
    fn bench_records_churn_rate() {
        let doc = run_bench(&BenchOptions {
            seed: 7,
            users: 24,
            intervals: 2,
            threads: 1,
            churn: 0.1,
            ..Default::default()
        })
        .unwrap();
        validate_bench_json(&doc).unwrap();
        assert_eq!(doc.get("churn_rate").and_then(Json::as_f64), Some(0.1));
    }

    #[test]
    fn validation_rejects_missing_fields() {
        assert!(validate_bench_json(&Json::obj([])).is_err());
        let wrong = Json::obj([("schema", Json::Str("other/v9".into()))]);
        let err = validate_bench_json(&wrong).unwrap_err();
        assert!(err.contains("msvs-bench/v2"), "{err}");
        // A v2 document must carry a known backend.
        let no_backend = Json::obj([("schema", Json::Str(BENCH_SCHEMA.into()))]);
        let err = validate_bench_json(&no_backend).unwrap_err();
        assert!(err.contains("backend"), "{err}");
        let bad_backend = Json::obj([
            ("schema", Json::Str(BENCH_SCHEMA.into())),
            ("backend", Json::Str("gpu".into())),
        ]);
        let err = validate_bench_json(&bad_backend).unwrap_err();
        assert!(err.contains("gpu"), "{err}");
    }

    #[test]
    fn legacy_v1_documents_stay_accepted() {
        // A v1 header must not trip the backend requirement, and reads
        // back as the scalar backend.
        let doc = run_bench(&BenchOptions {
            seed: 7,
            users: 24,
            intervals: 1,
            threads: 1,
            ..Default::default()
        })
        .unwrap();
        let mut text = doc.to_string().replace(BENCH_SCHEMA, BENCH_SCHEMA_V1);
        text = text.replace("\"backend\":\"scalar\",", "");
        let v1 = Json::parse(&text).unwrap();
        assert!(v1.get("backend").is_none(), "backend field stripped");
        validate_bench_json(&v1).unwrap();
        assert_eq!(bench_backend_name(&v1), "scalar");
    }

    #[test]
    fn peak_rss_reads_proc_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
        }
    }
}
