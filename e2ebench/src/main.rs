//! Closed-loop end-to-end benchmark of the msvs simulator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` runs several independent simulations of the workload, each
//! seeded from `--seed`: each is set up (the median setup is reported) and
//! then runs a fixed number of scored intervals back to back; the
//! end-to-end metrics pool their samples. `--trace 1` runs the first
//! [`TRACED_SIMS`] of those simulations with the predictor wrapped in a
//! replaying tap and prints the per-layer metrics.
//! `--seconds` is the nominal length of the scored phase; a phase still
//! running after [`DEADLINE_FACTOR`] times that stops early. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, preceded by a detail
//! line with sample counts, ratio bases and the prediction digest.

mod closed_loop;
mod replay;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use msvs_sim::Simulation;
use msvs_telemetry::Telemetry;

use closed_loop::{peak_rss_mb, scored_loop, timed_setup, Checker, Scored};
use replay::{lock, SharedRef, Tap};
use stats::{median, quantile, Ratio};
use trace::ms;
use workload::{Scale, Workload};

/// The scored phase stops early once its wall exceeds this many times
/// `--seconds`.
const DEADLINE_FACTOR: f64 = 6.0;

/// Simulations a traced run replays (the first of the run's seeds); the
/// replay doubles the cost of each.
const TRACED_SIMS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One run's result: the final JSON line plus a detail line with sample
/// counts, ratio bases, the prediction digest and any problems. The run
/// is correct when no check reported a problem.
#[derive(Debug, Default)]
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(String, String)>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.detail.push((key.to_string(), value.to_string()));
    }

    /// A ratio metric with its base recorded in the detail line.
    fn ratio(&mut self, name: &'static str, r: Ratio) {
        self.metric(name, r.value(), "ratio");
        self.detail(name, format!("{}/{}", r.num, r.den));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn print(&mut self) {
        // JSON has no NaN or infinity: a non-finite metric is a defect.
        for (name, value, _) in &mut self.metrics {
            if !value.is_finite() {
                self.problems.push(format!("{name} is {value}"));
                *value = 0.0;
            }
        }
        if !self.problems.is_empty() {
            let problems = self.problems.join("; ");
            self.detail("problems", problems);
        }
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        println!("{{\"detail\":{{{}}}}}", detail.join(","));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Median with its sample count in the detail line.
fn median_metric(report: &mut Report, name: &'static str, samples: &[f64], unit: &'static str) {
    report.metric(name, median(samples).unwrap_or(f64::NAN), unit);
    report.detail(&format!("n.{name}"), samples.len());
}

/// Common bookkeeping of a finished scored phase.
fn record_scored(report: &mut Report, scored: &Scored, checker: &Checker) {
    report.attempted = scored.attempted;
    report.failed = scored.failed;
    report.problems.extend_from_slice(&checker.problems);
    report.detail("digest", checker.digest.hex());
    report.detail("scored_intervals", scored.interval_ms.len());
    if !scored.errors.is_empty() {
        report.detail("errors", scored.errors.join("; "));
    }
}

/// The end-to-end run: tracing off, everything timed from outside. Each
/// of the run's simulations is set up (timed) and then scores its
/// intervals (timed per call); setup never enters the scored wall.
fn run_untraced(
    w: Workload,
    seed: u64,
    deadline: Duration,
    scale: &Scale,
) -> msvs_types::Result<Report> {
    let mut setups = Vec::new();
    let mut scored = Scored::default();
    let mut checker = None;
    let mut users = 0;
    for j in 0..scale.sims {
        let config = w.config(scale.sim_seed(seed, j), scale)?;
        users = config.n_users;
        let checker = checker.get_or_insert_with(|| Checker::new(&config));
        let (mut sim, setup_s) = timed_setup(config)?;
        setups.push(setup_s);
        scored_loop(
            &mut sim,
            scale.intervals,
            deadline,
            &mut scored,
            |i, record, sim, _, _| {
                if let Some(record) = record {
                    checker.check(i, record, sim);
                }
            },
        );
    }
    let checker = checker.expect("a run holds at least one simulation");
    let mut report = Report::default();
    record_scored(&mut report, &scored, &checker);
    let n = scored.interval_ms.len();
    median_metric(&mut report, "setup_s", &setups, "s");
    report.detail("setup_samples_s", format!("{setups:?}"));
    median_metric(&mut report, "interval_p50_ms", &scored.interval_ms, "ms");
    report.metric(
        "interval_p90_ms",
        quantile(&scored.interval_ms, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    report.detail("n.interval_p90_ms", n);
    report.detail(
        "beyond.interval_p90_ms",
        stats::beyond(&scored.interval_ms, 0.9),
    );
    report.detail("interval_ms", format!("{:.1?}", scored.interval_ms));
    let user_intervals = (n * users) as f64;
    let wall_s = scored.wall.as_secs_f64();
    report.metric(
        "scored_user_intervals_per_s",
        user_intervals / wall_s,
        "1/s",
    );
    report.detail(
        "scored_user_intervals_per_s",
        format!("{user_intervals}/{wall_s}s"),
    );
    report.metric("radio_accuracy", mean(&checker.radio_accuracy), "ratio");
    report.metric(
        "computing_accuracy",
        mean(&checker.computing_accuracy),
        "ratio",
    );
    report.detail("n.accuracy", n);
    report.ratio(
        "fresh_interval_share",
        Ratio::new((n - checker.degraded) as f64, n as f64),
    );
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    Ok(report)
}

/// Program counters read through `Simulation::telemetry()`.
const COUNTERS: [(&str, &str); 9] = [
    ("cnn_cache_hits", "all"),
    ("cnn_cache_misses", "all"),
    ("ddqn_selections_skipped_total", "all"),
    ("kmeans_distance_evals_skipped", "all"),
    ("handovers_total", "all"),
    ("failover_handovers_total", "all"),
    ("checkpoint_bytes_total", "all"),
    ("fault_reports_total", "lost"),
    ("fault_retries_total", "uplink"),
];

fn counters(t: &Telemetry) -> [f64; 9] {
    COUNTERS.map(|(name, label)| t.counter(name, label).get() as f64)
}

/// Replica-vs-program agreement of the traced run.
#[derive(Debug, Default)]
struct Agreement {
    compared: usize,
    agreed: usize,
    /// Degraded intervals of the fault workload, reported apart.
    degraded_agreed: usize,
}

/// The per-layer run: each traced simulation's predictor is wrapped in a
/// replaying [`Tap`]; spans pool across the traced simulations.
fn run_traced(
    w: Workload,
    seed: u64,
    deadline: Duration,
    scale: &Scale,
) -> msvs_types::Result<Report> {
    let shared = SharedRef::default();
    let mut scored = Scored::default();
    let mut checker = None;
    let mut agreement = Agreement::default();
    let mut counted = [0.0; 9];
    let mut peak_imbalance = 0.0f64;
    let mut warm_spans = Vec::new();
    let mut users = 0;
    for j in 0..scale.sims.min(TRACED_SIMS) {
        let config = w.config(scale.sim_seed(seed, j), scale)?;
        users = config.n_users;
        let checker = checker.get_or_insert_with(|| Checker::new(&config));
        lock(&shared).tracer.set_interval(None);
        let new_span = lock(&shared).tracer.enter("sim.new");
        let tap = Tap::new(&config, Arc::clone(&shared))?;
        let mut sim = Simulation::with_predictor(config, Box::new(tap))?;
        lock(&shared).tracer.exit(new_span);
        let warm_span = lock(&shared).tracer.enter("sim.warm_up");
        sim.warm_up()?;
        lock(&shared).tracer.exit(warm_span);
        warm_spans.push(warm_span);

        // Interval tags are unique across the run's simulations.
        let base = j * scale.intervals;
        lock(&shared).tracer.set_interval(Some(base));
        let before = counters(sim.telemetry());
        scored_loop(
            &mut sim,
            scale.intervals,
            deadline,
            &mut scored,
            |i, record, sim, start, dur| {
                let mut s = lock(&shared);
                s.tracer.close_interval("interval", base + i, start, dur);
                s.tracer.set_interval(Some(base + i + 1));
                let Some(record) = record else { return };
                checker.check(i, record, sim);
                let same = match (&s.last, sim.last_outcome()) {
                    (Some((order, g)), Some(o)) => {
                        *order == o.user_order
                            && g.k == o.grouping.k
                            && g.assignments == o.grouping.assignments
                    }
                    _ => false,
                };
                if record.degraded && w == Workload::ShardedCrash {
                    agreement.degraded_agreed += usize::from(same);
                } else {
                    agreement.compared += 1;
                    agreement.agreed += usize::from(same);
                }
            },
        );
        let after = counters(sim.telemetry());
        for (c, (a, b)) in counted.iter_mut().zip(after.iter().zip(before)) {
            *c += a - b;
        }
        peak_imbalance = peak_imbalance.max(sim.store().summary().peak_imbalance);
    }
    let checker = checker.expect("a run holds at least one simulation");

    let mut report = Report::default();
    record_scored(&mut report, &scored, &checker);
    let s = lock(&shared);
    report.problems.extend_from_slice(&s.problems);
    let t = &s.tracer;
    let n = scored.interval_ms.len().max(1) as f64;
    let [hits, misses, skipped, evals_skipped, handovers, failovers, checkpoint_bytes, lost, retries] =
        counted;

    median_metric(&mut report, "sim.new_s", &t.all_s("sim.new"), "s");
    let warm_up_s: Vec<f64> = warm_spans
        .iter()
        .map(|&id| {
            t.spans()[id]
                .dur
                .saturating_sub(t.children_time(id, Some("replay")))
                .as_secs_f64()
        })
        .collect();
    median_metric(&mut report, "sim.warm_up_s", &warm_up_s, "s");
    let intervals = t.ids("interval");
    let outside: Vec<f64> = intervals.iter().map(|&i| ms(t.self_time(i))).collect();
    median_metric(&mut report, "sim.outside_predict_ms", &outside, "ms");

    let train_ms: Vec<f64> = t
        .all_s("compressor.train")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    median_metric(&mut report, "compressor.train_ms", &train_ms, "ms");
    median_metric(
        &mut report,
        "compressor.encode_ms",
        &t.per_interval_ms("compressor.encode"),
        "ms",
    );
    report.ratio(
        "compressor.cache_hit_ratio",
        Ratio::new(hits, hits + misses),
    );
    report.metric("compressor.cache_hits", hits, "count");
    report.metric("compressor.cache_misses", misses, "count");

    median_metric(
        &mut report,
        "grouping.pretrain_s",
        &t.all_s("grouping.pretrain"),
        "s",
    );
    median_metric(
        &mut report,
        "grouping.construct_ms",
        &t.per_interval_ms("grouping.construct"),
        "ms",
    );
    report.ratio("rl.selections_skipped_ratio", Ratio::new(skipped, n));

    median_metric(
        &mut report,
        "cluster.kmeans_fit_ms",
        &t.per_interval_ms("cluster.kmeans_fit"),
        "ms",
    );
    report.metric("cluster.kmeans_rounds", mean(&s.kmeans_rounds), "count");
    median_metric(
        &mut report,
        "cluster.silhouette_ms",
        &t.per_interval_ms("cluster.silhouette"),
        "ms",
    );
    report.metric(
        "cluster.distance_evals_skipped",
        evals_skipped / n,
        "count/interval",
    );

    median_metric(
        &mut report,
        "udt.snapshot_ms",
        &t.per_interval_ms("udt.snapshot"),
        "ms",
    );
    median_metric(
        &mut report,
        "udt.feature_window_ms",
        &t.per_interval_ms("udt.feature_window"),
        "ms",
    );
    report.ratio(
        "udt.updates_per_user_interval",
        Ratio::new(checker.updates_sent as f64, n * users as f64),
    );

    median_metric(
        &mut report,
        "swiping.ingest_ms",
        &t.per_interval_ms("swiping.ingest"),
        "ms",
    );
    median_metric(
        &mut report,
        "recommend.ms",
        &t.per_interval_ms("recommend"),
        "ms",
    );
    median_metric(
        &mut report,
        "demand.predict_ms",
        &t.per_interval_ms("demand.predict"),
        "ms",
    );
    report.metric("demand.groups", mean(&s.groups), "count");

    report.metric(
        "shard.handovers_per_interval",
        handovers / n,
        "count/interval",
    );
    report.metric("shard.failover_handovers", failovers / n, "count/interval");
    report.metric("shard.checkpoint_bytes", checkpoint_bytes / n, "B/interval");
    report.metric("shard.peak_imbalance", peak_imbalance, "ratio");
    report.metric("faults.reports_lost", lost / n, "count/interval");
    report.metric("faults.retries", retries / n, "count/interval");

    // Tracing overhead: traced interval p50 against the same intervals
    // with the replay spans taken out.
    let traced: Vec<f64> = intervals.iter().map(|&i| ms(t.spans()[i].dur)).collect();
    let untraced: Vec<f64> = intervals
        .iter()
        .map(|&i| {
            ms(t.spans()[i]
                .dur
                .saturating_sub(t.children_time(i, Some("replay"))))
        })
        .collect();
    let (p_traced, p_untraced) = (median(&traced), median(&untraced));
    report.metric(
        "trace.interval_p50_overhead_pct",
        (p_traced.unwrap_or(f64::NAN) / p_untraced.unwrap_or(f64::NAN) - 1.0) * 100.0,
        "%",
    );
    report.detail(
        "trace.interval_p50_ms",
        format!("{p_traced:?} vs {p_untraced:?} (n={})", traced.len()),
    );

    let Agreement {
        compared,
        agreed,
        degraded_agreed,
    } = agreement;
    report.ratio(
        "replay.agreement",
        Ratio::new(agreed as f64, compared as f64),
    );
    report.detail("replay.degraded_agreed", degraded_agreed);
    // The replica sees the same inputs as the program, so in exact mode it
    // must reproduce every compared grouping; incremental mode is reported
    // only.
    if !w.incremental() && (compared == 0 || agreed != compared) {
        report
            .problems
            .push(format!("replay agreed on {agreed} of {compared} intervals"));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let deadline = Duration::from_secs_f64(args.seconds * DEADLINE_FACTOR);
    let result = if args.trace {
        run_traced(args.workload, args.seed, deadline, &Scale::FULL)
    } else {
        run_untraced(args.workload, args.seed, deadline, &Scale::FULL)
    };
    match result {
        Ok(mut report) => {
            report.detail("workload", args.workload.name());
            report.detail("seed", args.seed);
            report.detail("threads", args.workload.threads());
            report.detail(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            );
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        sims: 2,
        users: 40,
        pretrain_rounds: 8,
        intervals: 12,
    };
    const NO_DEADLINE: Duration = Duration::from_secs(3600);

    #[test]
    fn args_parse_and_reject() {
        let ok: Vec<String> = [
            "--workload",
            "steady",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Steady, 3, 2.0, true)
        );
        for bad in [
            vec!["--workload", "nope", "--seed", "1", "--seconds", "1"],
            vec!["--workload", "steady", "--seconds", "1"],
            vec!["--workload", "steady", "--seed", "1", "--seconds", "0"],
            vec!["--workload", "steady", "--seed", "1", "--seconds"],
        ] {
            let v: Vec<String> = bad.into_iter().map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{v:?}");
        }
    }

    #[test]
    fn tiny_untraced_runs_validate() {
        for w in Workload::ALL {
            let r = run_untraced(w, 5, NO_DEADLINE, &TINY).unwrap();
            assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
            assert_eq!(r.failed, 0);
            assert_eq!(r.attempted, TINY.sims * TINY.intervals);
            let names: Vec<_> = r.metrics.iter().map(|m| m.0).collect();
            assert!(names.contains(&"setup_s") && names.contains(&"interval_p90_ms"));
            assert!(
                r.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{:?}",
                r.metrics
            );
        }
    }

    #[test]
    fn tiny_traced_runs_validate_and_replay_agrees() {
        for w in Workload::ALL {
            let r = run_traced(w, 5, NO_DEADLINE, &TINY).unwrap();
            assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
            let agreement = r
                .metrics
                .iter()
                .find(|m| m.0 == "replay.agreement")
                .unwrap()
                .1;
            if !w.incremental() {
                assert_eq!(agreement, 1.0, "{}", w.name());
            }
        }
    }

    #[test]
    fn digest_repeats_for_a_seed() {
        let digest = |r: &Report| r.detail.iter().find(|d| d.0 == "digest").unwrap().1.clone();
        let a = run_untraced(Workload::Steady, 9, NO_DEADLINE, &TINY).unwrap();
        let b = run_untraced(Workload::Steady, 9, NO_DEADLINE, &TINY).unwrap();
        assert_eq!(digest(&a), digest(&b));
    }
}
