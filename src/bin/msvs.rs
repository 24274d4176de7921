//! `msvs` — command-line front end for the simulator.
//!
//! ```text
//! msvs run [--users N] [--intervals N] [--seed S] [--churn F]
//!          [--per-bs] [--predictor scheme|naive|ewma] [--threads N] [--shards N]
//!          [--silhouette-cap N] [--faults PROFILE]
//!          [--slo POLICY] [--serve-metrics ADDR]
//!          [--csv PATH] [--journal PATH] [--trace PATH]
//! msvs checkpoint [run flags] [--out PATH]
//! msvs checkpoint --restore <checkpoint.jsonl>
//! msvs report <journal.jsonl>
//! msvs flame <trace.json> [--out PATH]
//! msvs flame [run flags] [--out PATH]
//! msvs bench-report [--seed S] [--users N] [--intervals N] [--threads N]
//!          [--shards N] [--churn F] [--out PATH]
//! msvs bench-compare <baseline.json> <candidate.json> [--gate PCT]
//! msvs swiping [--users N] [--seed S]
//! msvs reserve [--headroom F] [--users N] [--seed S]
//! msvs help
//! ```
//!
//! Every subcommand rejects flags it does not know, so a typo never
//! silently runs the defaults.

use std::collections::BTreeMap;
use std::process::ExitCode;

use msvs::core::ReservationPolicy;
use msvs::faults::FaultPlan;
use msvs::shard::{Shard, ShardCheckpoint};
use msvs::sim::{
    bench_backend_name, report, run_bench, validate_bench_json, BenchOptions, DemandPredictorKind,
    Simulation, SimulationConfig,
};
use msvs::telemetry::{
    chrome_trace_with_counters, flame, Event, EventJournal, Json, MetricsServer, RunManifest,
    SloPolicy,
};
use msvs::types::VideoCategory;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let result = match command {
        "run" => cmd_run(&args[1..]),
        "checkpoint" => cmd_checkpoint(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "flame" => cmd_flame(&args[1..]),
        "bench-report" => cmd_bench_report(&args[1..]),
        "bench-compare" => cmd_bench_compare(&args[1..]),
        "swiping" => cmd_swiping(&args[1..]),
        "reserve" => cmd_reserve(&args[1..]),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `msvs help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "msvs — digital twin-assisted multicast short video streaming simulator\n\
         \n\
         USAGE:\n\
         \x20 msvs run     [--users N] [--intervals N] [--seed S] [--churn F]\n\
         \x20              [--per-bs] [--predictor scheme|naive|ewma] [--threads N]\n\
         \x20              [--shards N] [--silhouette-cap N]\n\
         \x20              [--faults PROFILE] [--slo POLICY]\n\
         \x20              [--serve-metrics ADDR] [--csv PATH]\n\
         \x20              [--journal PATH] [--trace PATH]\n\
         \x20 msvs checkpoint [run flags] [--out PATH] run, then snapshot every\n\
         \x20                                          shard as versioned JSON\n\
         \x20 msvs checkpoint --restore <PATH>         reload + verify a snapshot\n\
         \x20 msvs report  <journal.jsonl>             summarise a run's journal\n\
         \x20 msvs flame   <trace.json | run flags> [--out PATH]\n\
         \x20                                          folded stacks for flamegraphs\n\
         \x20 msvs bench-report [--seed S] [--users N] [--intervals N] [--threads N]\n\
         \x20              [--shards N] [--churn F]\n\
         \x20              [--out PATH]                perf baseline as JSON\n\
         \x20 msvs bench-compare <baseline.json> <candidate.json> [--gate PCT]\n\
         \x20                                          stage-latency delta table\n\
         \x20 msvs swiping [--users N] [--seed S]      print a group's swipe curves\n\
         \x20 msvs reserve [--headroom F] [--users N] [--seed S]\n\
         \x20 msvs help\n\
         \n\
         `run` simulates the campus scenario and prints the per-interval\n\
         predicted-vs-actual scorecard (Fig. 3(b) of the paper).\n\
         `--threads N` sizes the worker pool for the parallel hot paths\n\
         (0 = all cores; default from MSVS_THREADS, else all cores).\n\
         Seeded runs are bit-identical at any thread count.\n\
         `--shards N` partitions the deployment into per-BS shards with\n\
         cross-shard twin handover (default from MSVS_SHARDS, else 1).\n\
         Seeded runs are bit-identical at any shard count.\n\
         `--silhouette-cap N` caps silhouette scoring at N sampled users\n\
         (0 disables sampling; default 4096).\n\
         `--faults PROFILE` injects uplink faults from a built-in profile\n\
         ({}) or a JSON file (see results/fault_profiles/). Profiles may\n\
         schedule shard outages (`bs-flap`, `bs-crash`): crashed shards\n\
         fail their users over to live neighbours and restore from their\n\
         boundary checkpoint; partitioned shards push users into the\n\
         degradation ladder until the window heals.\n\
         `--slo POLICY` arms the deterministic SLO watchdog from a\n\
         built-in policy ({}) or a JSON file (see results/slo_profiles/);\n\
         the run exits non-zero when any rule burns past its breach\n\
         budget. `--serve-metrics ADDR` serves live Prometheus text\n\
         exposition on http://ADDR/metrics and a JSON health snapshot on\n\
         /healthz while the run executes; the server is read-only, so\n\
         seeded results are bit-identical with it on or off.\n\
         `flame` collapses a Chrome-trace file (or a fresh run's spans)\n\
         into inferno-style folded stacks for `inferno-flamegraph`.\n\
         `bench-compare --gate PCT` exits non-zero when any shared\n\
         stage's p50 regresses — or throughput drops — by more than PCT\n\
         percent; differing backends (older documents recorded `simd`)\n\
         or run shapes are warned about, never failed.\n\
         `checkpoint` runs the same scenario, then snapshots each shard\n\
         (twins + sync state) as one JSON line; the `--restore` form\n\
         reloads and verifies such a file offline.\n\
         `--journal` writes the telemetry event journal as JSONL (plus a\n\
         run manifest next to it); `report` pretty-prints such a journal.\n\
         `--trace` writes the run's hierarchical spans as a Chrome-trace\n\
         JSON file (open in Perfetto or chrome://tracing).\n\
         `bench-report` runs a pinned-seed baseline and writes stage\n\
         percentiles, throughput, and peak RSS as machine-readable JSON.\n\
         Every command rejects flags it does not know.",
        FaultPlan::BUILTINS.join(", "),
        SloPolicy::BUILTINS.join(", ")
    );
}

/// The flags one subcommand accepts.
struct FlagSpec {
    command: &'static str,
    /// Whether the command builds its scenario with [`base_config`] and so
    /// also takes [`SIM_VALUES`] and [`SIM_SWITCHES`].
    sim: bool,
    /// Flags that take the next argument as their value.
    values: &'static [&'static str],
    /// Boolean flags.
    switches: &'static [&'static str],
    /// Most non-flag arguments the command takes.
    positionals: usize,
}

/// Value flags read by [`base_config`].
const SIM_VALUES: &[&str] = &[
    "--users",
    "--intervals",
    "--seed",
    "--churn",
    "--predictor",
    "--threads",
    "--shards",
    "--silhouette-cap",
];

/// Switches read by [`base_config`].
const SIM_SWITCHES: &[&str] = &["--per-bs"];

/// Minimal flag parser: `--key value` pairs, boolean switches and
/// positional arguments, checked against the command's [`FlagSpec`].
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args`, rejecting unknown flags, a value flag with nothing
    /// after it, and more positional arguments than `spec` allows.
    fn new(spec: &FlagSpec, args: &'a [String]) -> Result<Self, String> {
        let accepts = |own: &[&str], sim: &[&str], arg: &str| {
            own.contains(&arg) || (spec.sim && sim.contains(&arg))
        };
        let mut flags = Self {
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str);
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                flags.positionals.push(arg);
            } else if accepts(spec.values, SIM_VALUES, arg) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                flags.values.push((arg, value));
            } else if accepts(spec.switches, SIM_SWITCHES, arg) {
                flags.switches.push(arg);
            } else {
                return Err(format!("unknown flag `{arg}` for `msvs {}`", spec.command));
            }
        }
        if let Some(extra) = flags.positionals.get(spec.positionals) {
            return Err(format!(
                "unexpected argument `{extra}` for `msvs {}`",
                spec.command
            ));
        }
        Ok(flags)
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The first value given for `name`.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for {name}")),
        }
    }
}

fn base_config(flags: &Flags<'_>) -> Result<SimulationConfig, String> {
    let predictor = match flags.value("--predictor").unwrap_or("scheme") {
        "scheme" => DemandPredictorKind::Scheme,
        "naive" => DemandPredictorKind::NaiveFullWatch,
        "ewma" => DemandPredictorKind::HistoricalMean { alpha: 0.3 },
        other => return Err(format!("unknown predictor `{other}`")),
    };
    let mut builder = SimulationConfig::builder()
        .users(flags.parse("--users", 120usize)?)
        .intervals(flags.parse("--intervals", 12usize)?)
        .seed(flags.parse("--seed", 42u64)?)
        .churn_rate(flags.parse("--churn", 0.0f64)?)
        .per_bs_accounting(flags.has("--per-bs"))
        .predictor(predictor);
    // Absent flag: keep the default (MSVS_THREADS env var, or all cores).
    if flags.value("--threads").is_some() {
        builder = builder.threads(flags.parse("--threads", 0usize)?);
    }
    // Absent flag: keep the default (MSVS_SHARDS env var, or 1).
    if flags.value("--shards").is_some() {
        builder = builder.shards(flags.parse("--shards", 1usize)?);
    }
    if flags.value("--silhouette-cap").is_some() {
        builder = builder.silhouette_cap(flags.parse("--silhouette-cap", 0usize)?);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Resolves `--faults` to a plan: a built-in profile name first, then a
/// JSON profile file path.
fn resolve_faults(raw: &str) -> Result<FaultPlan, String> {
    if let Some(plan) = FaultPlan::builtin(raw) {
        return Ok(plan);
    }
    let text = std::fs::read_to_string(raw).map_err(|e| {
        format!(
            "--faults `{raw}` is neither a built-in profile ({}) nor a readable file: {e}",
            FaultPlan::BUILTINS.join(", ")
        )
    })?;
    FaultPlan::parse(&text).map_err(|e| format!("{raw}: {e}"))
}

/// Resolves `--slo` to a policy: a built-in name first, then a JSON
/// policy file path.
fn resolve_slo(raw: &str) -> Result<SloPolicy, String> {
    if let Some(policy) = SloPolicy::builtin(raw) {
        return Ok(policy);
    }
    let text = std::fs::read_to_string(raw).map_err(|e| {
        format!(
            "--slo `{raw}` is neither a built-in policy ({}) nor a readable file: {e}",
            SloPolicy::BUILTINS.join(", ")
        )
    })?;
    SloPolicy::parse(&text).map_err(|e| format!("{raw}: {e}"))
}

const RUN: FlagSpec = FlagSpec {
    command: "run",
    sim: true,
    values: &[
        "--faults",
        "--slo",
        "--serve-metrics",
        "--csv",
        "--journal",
        "--trace",
    ],
    switches: &[],
    positionals: 0,
};

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(&RUN, args)?;
    let mut cfg = base_config(&flags)?;
    if let Some(raw) = flags.value("--faults") {
        cfg.faults = Some(resolve_faults(raw)?);
        cfg.validate().map_err(|e| e.to_string())?;
    }
    if let Some(raw) = flags.value("--slo") {
        cfg.slo = Some(resolve_slo(raw)?);
        cfg.validate().map_err(|e| e.to_string())?;
    }
    let with_faults = cfg.faults.as_ref().is_some_and(|p| !p.is_noop());
    let (n_users, n_intervals, seed) = (cfg.n_users, cfg.n_intervals, cfg.seed);
    // Keep the simulation (rather than `Simulation::run`) so the telemetry
    // handle stays reachable for the metrics server and the exports below.
    let mut sim = Simulation::new(cfg).map_err(|e| e.to_string())?;
    // The metrics server reads shared telemetry/health handles; it never
    // writes, so the run itself is untouched by scrapes.
    let mut server = match flags.value("--serve-metrics") {
        Some(addr) => {
            let s = MetricsServer::bind(
                addr,
                sim.telemetry().registry().clone(),
                sim.health_board().clone(),
            )?;
            println!(
                "serving http://{0}/metrics and http://{0}/healthz",
                s.addr()
            );
            Some(s)
        }
        None => None,
    };
    let result = sim.run_schedule().map_err(|e| e.to_string())?;
    println!("{}", report::interval_table(&result));
    if let Some(shards) = &result.shards {
        println!(
            "shards: {} | handovers {} | peak imbalance {:.2}",
            shards.shards, shards.handovers_total, shards.peak_imbalance,
        );
        if shards.outages_total > 0 {
            let worst = shards
                .demand
                .iter()
                .map(|r| r.availability)
                .fold(1.0f64, f64::min);
            println!(
                "outages: {} | failover handovers {} | checkpoint bytes {} | worst availability {:.1}%",
                shards.outages_total,
                shards.failover_handovers_total,
                shards.checkpoint_bytes_total,
                100.0 * worst,
            );
        }
    }
    println!(
        "radio accuracy {:.2}% | computing accuracy {:.2}% | saving {:.1}% | waste {:.2}%",
        100.0 * result.mean_radio_accuracy(),
        100.0 * result.mean_computing_accuracy(),
        100.0 * result.mean_multicast_saving(),
        100.0 * result.waste_fraction(),
    );
    if with_faults {
        let count = |name: &str, label: &str| {
            result
                .telemetry
                .counters
                .iter()
                .find(|(n, l, _)| n == name && l == label)
                .map_or(0, |(_, _, v)| *v)
        };
        println!(
            "faults: lost {} | delayed {} | corrupted {} | rejected {} | overflowed {} | retried {}",
            count("fault_reports_total", "lost"),
            count("fault_reports_total", "delayed"),
            count("fault_reports_total", "corrupted"),
            count("fault_reports_total", "rejected"),
            count("fault_reports_total", "overflowed"),
            count("fault_retries_total", "uplink"),
        );
        let coverage = result
            .mean_twin_coverage()
            .map_or_else(|| "n/a".into(), |c| format!("{:.1}%", 100.0 * c));
        let delta = result
            .degraded_accuracy_delta()
            .map_or_else(|| "n/a".into(), |d| format!("{:+.2}pp", 100.0 * d));
        println!(
            "degraded intervals {}/{} | twin coverage {} | accuracy delta vs clean {}",
            result.degraded_intervals(),
            result.intervals.len(),
            coverage,
            delta,
        );
    }
    if let Some(slo) = &result.slo {
        println!(
            "slo: {} rule(s), breach budget {} interval(s), {} interval(s) evaluated",
            slo.rules.len(),
            slo.breach_budget,
            slo.intervals_evaluated,
        );
        for rule in &slo.rules {
            let worst = rule
                .worst_value
                .map_or_else(|| "n/a".into(), |v| format!("{v:.4}"));
            println!(
                "  {:<24} breached {:>3} interval(s) | burn rate {:>5.2} | worst {}{}",
                rule.slo,
                rule.breach_intervals,
                rule.burn_rate,
                worst,
                if rule.breached_at_end {
                    " | BREACHED at end"
                } else {
                    ""
                },
            );
        }
    }
    if let Some(path) = flags.value("--csv") {
        std::fs::write(path, report::to_csv(&result)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = flags.value("--journal") {
        std::fs::write(path, sim.telemetry().journal().to_jsonl()).map_err(|e| e.to_string())?;
        let mut manifest = RunManifest::new(sim.predictor_name(), seed)
            .with_config("users", n_users)
            .with_config("intervals", n_intervals)
            .with_config("threads", sim.threads());
        for s in &result.telemetry.stages {
            manifest.add_stage_wall_ms(&s.stage, s.mean_ms * s.count as f64);
        }
        let manifest_path = format!("{}.manifest.json", path.trim_end_matches(".jsonl"));
        manifest
            .write_to(&manifest_path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path} and {manifest_path}");
    }
    if let Some(path) = flags.value("--trace") {
        // Counter events ride along so Perfetto shows gauge time-series
        // tracks (twin coverage, shard availability) under the spans.
        let trace = chrome_trace_with_counters(
            &sim.telemetry().spans(),
            &sim.telemetry().gauge_samples(),
            "msvs run",
        );
        std::fs::write(path, format!("{trace}\n")).map_err(|e| e.to_string())?;
        println!("wrote {path} (open in https://ui.perfetto.dev or chrome://tracing)");
    }
    if let Some(server) = server.as_mut() {
        server.stop();
    }
    // Exports above still land before a hard breach flips the exit code,
    // so CI keeps the evidence.
    if sim.slo_hard_breached() {
        return Err("slo hard breach: at least one rule burned past its breach budget".into());
    }
    Ok(())
}

/// `msvs flame`: collapse a Chrome-trace JSON file (first positional
/// argument) — or the span tree of a fresh run driven by the usual run
/// flags — into inferno-compatible folded stacks, one `stack count`
/// line per unique stack with self-time in microseconds.
fn cmd_flame(args: &[String]) -> Result<(), String> {
    const FLAME: FlagSpec = FlagSpec {
        command: "flame",
        sim: true,
        values: &["--out"],
        switches: &[],
        positionals: 1,
    };
    let flags = Flags::new(&FLAME, args)?;
    let folded = match flags.positionals.first() {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
            let nodes = flame::from_chrome_trace(&doc).map_err(|e| format!("{path}: {e}"))?;
            flame::folded_stacks(&nodes)
        }
        None => {
            let mut sim = Simulation::new(base_config(&flags)?).map_err(|e| e.to_string())?;
            sim.run_schedule().map_err(|e| e.to_string())?;
            let nodes = flame::from_spans(&sim.telemetry().spans());
            flame::folded_stacks(&nodes)
        }
    };
    if folded.is_empty() {
        return Err("no spans with non-zero self time to collapse".into());
    }
    match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, &folded).map_err(|e| e.to_string())?;
            println!(
                "wrote {path}: {} folded stack(s) (feed to inferno-flamegraph)",
                folded.lines().count()
            );
        }
        None => print!("{folded}"),
    }
    Ok(())
}

/// `msvs checkpoint`: run the scenario to completion and snapshot every
/// shard's twin registry (plus sync-tracker state) as one versioned JSON
/// checkpoint per line; `--restore PATH`
/// instead reloads such a file into fresh shards and verifies it.
fn cmd_checkpoint(args: &[String]) -> Result<(), String> {
    const CHECKPOINT: FlagSpec = FlagSpec {
        command: "checkpoint",
        sim: true,
        values: &["--restore", "--faults", "--out"],
        switches: &[],
        positionals: 0,
    };
    let flags = Flags::new(&CHECKPOINT, args)?;
    if let Some(path) = flags.value("--restore") {
        return restore_checkpoint(path);
    }
    let mut cfg = base_config(&flags)?;
    if let Some(raw) = flags.value("--faults") {
        cfg.faults = Some(resolve_faults(raw)?);
        cfg.validate().map_err(|e| e.to_string())?;
    }
    let mut sim = Simulation::new(cfg).map_err(|e| e.to_string())?;
    sim.run_schedule().map_err(|e| e.to_string())?;
    let checkpoints = sim.checkpoint_shards();
    let out = flags.value("--out").unwrap_or("checkpoint.jsonl");
    let mut text = String::new();
    for ckpt in &checkpoints {
        text.push_str(&ckpt.to_json().to_string());
        text.push('\n');
    }
    std::fs::write(out, &text).map_err(|e| e.to_string())?;
    let twins: usize = checkpoints.iter().map(ShardCheckpoint::len).sum();
    println!(
        "wrote {out}: {} shard checkpoint(s), {} twin(s), {} bytes",
        checkpoints.len(),
        twins,
        text.len(),
    );
    Ok(())
}

/// Reloads a `msvs checkpoint` file into fresh shards and verifies each
/// restore (twin count, nonce monotonicity) before summarising it. A
/// shard id may appear on one line only, and a user in one shard only.
fn restore_checkpoint(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut shards = 0usize;
    let mut twins = 0usize;
    // Shard id -> line, and user -> (line, shard), of the first sighting.
    let mut shard_lines = BTreeMap::new();
    let mut owners = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ckpt = ShardCheckpoint::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if let Some(first) = shard_lines.insert(ckpt.shard, i + 1) {
            return Err(format!(
                "{path}:{}: shard {} already checkpointed on line {first}",
                i + 1,
                ckpt.shard,
            ));
        }
        for entry in &ckpt.twins {
            let user = entry.twin.user();
            if let Some((first, shard)) = owners.insert(user, (i + 1, ckpt.shard)) {
                return Err(format!(
                    "{path}:{}: user {user} in shard {} already checkpointed in shard {shard} on line {first}",
                    i + 1,
                    ckpt.shard,
                ));
            }
        }
        let shard = Shard::new(ckpt.shard, 1.0);
        let restored = ckpt.restore_into(&shard);
        if shard.len() != ckpt.len() || restored.len() != ckpt.len() {
            return Err(format!(
                "{path}:{}: restore mismatch: checkpoint holds {} twin(s), shard restored {}",
                i + 1,
                ckpt.len(),
                shard.len(),
            ));
        }
        println!(
            "shard {}: {} twin(s) at interval {}, next nonce {:#x}",
            ckpt.shard,
            ckpt.len(),
            ckpt.interval,
            ckpt.next_instance,
        );
        shards += 1;
        twins += ckpt.len();
    }
    if shards == 0 {
        return Err(format!("{path}: no checkpoints found"));
    }
    println!("{path}: restored and verified {twins} twin(s) across {shards} shard(s)");
    Ok(())
}

/// `msvs bench-report`: run the pinned-seed perf baseline and write the
/// `msvs-bench/v2` JSON document (see `crates/sim/src/bench.rs`).
fn cmd_bench_report(args: &[String]) -> Result<(), String> {
    const BENCH_REPORT: FlagSpec = FlagSpec {
        command: "bench-report",
        sim: false,
        values: &[
            "--seed",
            "--users",
            "--intervals",
            "--threads",
            "--shards",
            "--churn",
            "--out",
        ],
        switches: &[],
        positionals: 0,
    };
    let flags = Flags::new(&BENCH_REPORT, args)?;
    let defaults = BenchOptions::default();
    let opts = BenchOptions {
        seed: flags.parse("--seed", defaults.seed)?,
        users: flags.parse("--users", defaults.users)?,
        intervals: flags.parse("--intervals", defaults.intervals)?,
        threads: flags.parse("--threads", defaults.threads)?,
        shards: flags.parse("--shards", defaults.shards)?,
        churn: flags.parse("--churn", defaults.churn)?,
    };
    let out = flags.value("--out").unwrap_or("BENCH_7.json");
    let doc = run_bench(&opts).map_err(|e| e.to_string())?;
    validate_bench_json(&doc)?;
    std::fs::write(out, format!("{doc}\n")).map_err(|e| e.to_string())?;
    let stages = match doc.get("stages") {
        Some(msvs::telemetry::Json::Obj(map)) => map.len(),
        _ => 0,
    };
    println!(
        "wrote {out}: {} users x {} intervals on {} threads, {} stages, {:.1} user-intervals/s",
        doc.get("users")
            .and_then(msvs::telemetry::Json::as_u64)
            .unwrap_or(0),
        doc.get("intervals")
            .and_then(msvs::telemetry::Json::as_u64)
            .unwrap_or(0),
        doc.get("threads")
            .and_then(msvs::telemetry::Json::as_u64)
            .unwrap_or(0),
        stages,
        doc.get("throughput_user_intervals_per_s")
            .and_then(msvs::telemetry::Json::as_f64)
            .unwrap_or(0.0),
    );
    Ok(())
}

/// `msvs bench-compare <baseline> <candidate> [--gate PCT]`: print a
/// stage-latency delta table between two bench documents. Without
/// `--gate` the comparison is informational and always exits 0 on
/// well-formed inputs; with it, any shared stage whose p50 regressed by
/// more than PCT percent fails the command, so CI can gate on a
/// threshold generous enough to ride out shared-runner noise.
fn cmd_bench_compare(args: &[String]) -> Result<(), String> {
    const BENCH_COMPARE: FlagSpec = FlagSpec {
        command: "bench-compare",
        sim: false,
        values: &["--gate"],
        switches: &[],
        positionals: 2,
    };
    let flags = Flags::new(&BENCH_COMPARE, args)?;
    let gate: Option<f64> = match flags.value("--gate") {
        Some(raw) => {
            let pct: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --gate"))?;
            if !pct.is_finite() || pct < 0.0 {
                return Err(format!(
                    "--gate must be a non-negative percent, got `{raw}`"
                ));
            }
            Some(pct)
        }
        None => None,
    };
    let [base_path, cand_path] = flags.positionals[..] else {
        return Err(
            "usage: msvs bench-compare <baseline.json> <candidate.json> [--gate PCT]".into(),
        );
    };
    let load = |path: &str| -> Result<msvs::telemetry::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = msvs::telemetry::Json::parse(&text)
            .map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        validate_bench_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        Ok(doc)
    };
    let (base, cand) = (load(base_path)?, load(cand_path)?);
    let (base_backend, cand_backend) = (bench_backend_name(&base), bench_backend_name(&cand));
    if base_backend != cand_backend {
        println!(
            "warning: comparing across compute backends ({base_backend} vs {cand_backend}); \
             latency deltas reflect the backend change, not a regression"
        );
    }
    // Same for the run shape: a 100k-user baseline against a 10k-user
    // candidate (or different thread/shard counts) compares machines-worth
    // of work, not code. Warn, never fail — cross-shape comparisons are
    // sometimes exactly what the operator wants to eyeball.
    for key in ["users", "intervals", "threads", "shards"] {
        let (b, c) = (
            base.get(key).and_then(msvs::telemetry::Json::as_u64),
            cand.get(key).and_then(msvs::telemetry::Json::as_u64),
        );
        if let (Some(b), Some(c)) = (b, c) {
            if b != c {
                println!(
                    "warning: comparing across run shapes ({key} {b} vs {c}); \
                     latency deltas reflect the shape change, not a regression"
                );
            }
        }
    }
    let stage_p50s = |doc: &msvs::telemetry::Json| -> BTreeMap<String, f64> {
        match doc.get("stages") {
            Some(msvs::telemetry::Json::Obj(map)) => map
                .iter()
                .filter_map(|(name, s)| {
                    s.get("p50_ms")
                        .and_then(msvs::telemetry::Json::as_f64)
                        .map(|p| (name.clone(), p))
                })
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let (base_stages, cand_stages) = (stage_p50s(&base), stage_p50s(&cand));
    println!("stage latency p50 (ms): {base_path} -> {cand_path}");
    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "stage", "baseline", "candidate", "delta"
    );
    let names: std::collections::BTreeSet<_> =
        base_stages.keys().chain(cand_stages.keys()).collect();
    let mut regressions: Vec<String> = Vec::new();
    for name in names {
        let (b, c) = (base_stages.get(name), cand_stages.get(name));
        let delta = stage_delta(b, c);
        let fmt = |v: Option<&f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        println!("{:<22} {:>12} {:>12} {:>9}", name, fmt(b), fmt(c), delta);
        // Only stages present in both documents can regress; `new` and
        // `gone` rows reflect config changes, not latency drift.
        if let (Some(gate), Some(b), Some(c)) = (gate, b, c) {
            if *b > 0.0 {
                let pct = (c - b) / b * 100.0;
                if pct > gate {
                    regressions.push(format!("{name} p50 {pct:+.1}% (gate {gate:.1}%)"));
                }
            }
        }
    }
    for key in ["throughput_user_intervals_per_s", "peak_rss_kb"] {
        let (b, c) = (
            base.get(key).and_then(msvs::telemetry::Json::as_f64),
            cand.get(key).and_then(msvs::telemetry::Json::as_f64),
        );
        if let (Some(b), Some(c)) = (b, c) {
            if b > 0.0 {
                println!("{key}: {b:.1} -> {c:.1} ({:+.1}%)", (c - b) / b * 100.0);
            } else {
                println!("{key}: {b:.1} -> {c:.1}");
            }
            // Throughput rides the same gate as stage p50s: a drop (in
            // percent of the baseline) beyond the gate fails the compare.
            if key == "throughput_user_intervals_per_s" && b > 0.0 {
                if let Some(gate) = gate {
                    let drop_pct = (b - c) / b * 100.0;
                    if drop_pct > gate {
                        regressions.push(format!("{key} -{drop_pct:.1}% (gate {gate:.1}%)"));
                    }
                }
            }
        }
    }
    if !regressions.is_empty() {
        return Err(format!(
            "stage p50 regression beyond gate: {}",
            regressions.join("; ")
        ));
    }
    Ok(())
}

/// Delta column for one stage row of `bench-compare`. Stage sets may
/// differ between documents (a sharded candidate adds `shard_*` stages a
/// single-shard baseline lacks): a stage present only in the candidate is
/// marked `new`, one present only in the baseline `gone`, so nothing
/// vanishes silently from the table.
fn stage_delta(base: Option<&f64>, cand: Option<&f64>) -> String {
    match (base, cand) {
        (Some(b), Some(c)) if *b > 0.0 => format!("{:+.1}%", (c - b) / b * 100.0),
        (Some(_), Some(_)) => "n/a".to_string(),
        (None, Some(_)) => "new".to_string(),
        (Some(_), None) => "gone".to_string(),
        (None, None) => "n/a".to_string(),
    }
}

/// `msvs report <journal.jsonl>`: stage-latency and event summary of a
/// journal written by `msvs run --journal`.
fn cmd_report(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: msvs report <journal.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (journal, parse) = EventJournal::parse_jsonl_lossy(&text);
    for (line, err) in &parse.skipped {
        eprintln!("warning: {path}:{line}: skipped malformed line: {err}");
    }
    let entries = journal.entries();
    if let Some((scheme, seed)) = entries.iter().find_map(|e| match &e.event {
        Event::RunStarted { scheme, seed } => Some((scheme.clone(), *seed)),
        _ => None,
    }) {
        println!(
            "run: scheme {scheme}, seed {seed}, {} events\n",
            entries.len()
        );
    }

    // Stage-latency table from StageCompleted events.
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for e in &entries {
        if let Event::StageCompleted { stage, wall_ms } = &e.event {
            stages.entry(stage).or_default().push(*wall_ms);
        }
    }
    if !stages.is_empty() {
        let rows: Vec<Vec<String>> = stages
            .iter()
            .map(|(stage, ms)| {
                let total: f64 = ms.iter().sum();
                let max = ms.iter().cloned().fold(0.0f64, f64::max);
                let mut sorted = ms.clone();
                sorted.sort_by(f64::total_cmp);
                vec![
                    stage.to_string(),
                    ms.len().to_string(),
                    format!("{:.3}", total / ms.len() as f64),
                    format!("{:.3}", sample_quantile(&sorted, 0.50)),
                    format!("{:.3}", sample_quantile(&sorted, 0.90)),
                    format!("{:.3}", sample_quantile(&sorted, 0.99)),
                    format!("{max:.3}"),
                    format!("{total:.3}"),
                ]
            })
            .collect();
        println!(
            "{}",
            report::format_table(
                &[
                    "stage", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms", "max ms",
                    "total ms",
                ],
                &rows,
            )
        );
    }

    // Event counts by type.
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &entries {
        *counts.entry(e.event.name()).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(name, n)| vec![name.to_string(), n.to_string()])
        .collect();
    println!("{}", report::format_table(&["event", "count"], &rows));

    // Per-shard availability from the outage events. A `ShardDown` at
    // interval `d` answered by a `ShardRestored` at interval `r` means
    // the shard missed intervals `d..r`; an unanswered `ShardDown` is
    // down through the end of the run.
    let total_intervals = entries
        .iter()
        .filter(|e| matches!(e.event, Event::IntervalCompleted { .. }))
        .count() as u64;
    let mut shard_rows: BTreeMap<u64, (u64, u64, Option<u64>)> = BTreeMap::new();
    for e in &entries {
        match &e.event {
            Event::ShardDown {
                interval, shard, ..
            } => {
                let row = shard_rows.entry(*shard).or_insert((0, 0, None));
                row.0 += 1;
                row.2 = Some(*interval);
            }
            Event::ShardRestored {
                interval, shard, ..
            } => {
                let row = shard_rows.entry(*shard).or_insert((0, 0, None));
                if let Some(down_at) = row.2.take() {
                    row.1 += interval.saturating_sub(down_at);
                }
            }
            _ => {}
        }
    }
    if !shard_rows.is_empty() {
        let rows: Vec<Vec<String>> = shard_rows
            .iter()
            .map(|(shard, (outages, closed_down, open))| {
                let down =
                    closed_down + open.map_or(0, |down_at| total_intervals.saturating_sub(down_at));
                let availability = if total_intervals == 0 {
                    1.0
                } else {
                    1.0 - down as f64 / total_intervals as f64
                };
                vec![
                    shard.to_string(),
                    outages.to_string(),
                    down.to_string(),
                    format!("{:.1}%", 100.0 * availability),
                ]
            })
            .collect();
        println!(
            "{}",
            report::format_table(
                &["shard", "outages", "down intervals", "availability"],
                &rows
            )
        );
    }

    // SLO breach/recovery timeline.
    let rows: Vec<Vec<String>> = entries
        .iter()
        .filter_map(|e| match &e.event {
            Event::SloBreached {
                interval,
                slo,
                value,
                threshold,
            }
            | Event::SloRecovered {
                interval,
                slo,
                value,
                threshold,
            } => Some(vec![
                interval.to_string(),
                e.event.name().to_string(),
                slo.clone(),
                format!("{value:.4}"),
                format!("{threshold:.4}"),
            ]),
            _ => None,
        })
        .collect();
    if !rows.is_empty() {
        println!(
            "{}",
            report::format_table(&["interval", "edge", "slo", "value", "threshold"], &rows)
        );
    }

    // Per-interval outcomes.
    let rows: Vec<Vec<String>> = entries
        .iter()
        .filter_map(|e| match &e.event {
            Event::IntervalCompleted {
                interval,
                qoe,
                hit_ratio,
            } => Some(vec![
                interval.to_string(),
                format!("{:.1}", e.t_ms as f64 / 1000.0),
                format!("{qoe:.3}"),
                format!("{hit_ratio:.3}"),
            ]),
            _ => None,
        })
        .collect();
    if !rows.is_empty() {
        println!(
            "{}",
            report::format_table(&["interval", "t(s)", "QoE", "hit ratio"], &rows)
        );
    }
    if !parse.skipped.is_empty() {
        println!(
            "skipped {} malformed line(s); see warnings above",
            parse.skipped.len()
        );
    }
    if parse.truncated {
        return Err(format!(
            "{path}: final line is malformed — the journal looks truncated or corrupt"
        ));
    }
    Ok(())
}

/// Nearest-rank quantile over an already sorted, non-empty sample.
fn sample_quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn cmd_swiping(args: &[String]) -> Result<(), String> {
    const SWIPING: FlagSpec = FlagSpec {
        command: "swiping",
        sim: true,
        values: &[],
        switches: &[],
        positionals: 0,
    };
    let flags = Flags::new(&SWIPING, args)?;
    let mut sim = Simulation::new(base_config(&flags)?).map_err(|e| e.to_string())?;
    sim.run_schedule().map_err(|e| e.to_string())?;
    let outcome = sim.last_outcome().ok_or("no intervals ran")?;
    for (g, swiping) in outcome.swiping.iter().enumerate() {
        let members = outcome.group_prediction(g).map_or(0, |p| p.members.len());
        println!("group {g} ({members} members): retention ranking");
        for (cat, mean) in swiping.ranked_categories().into_iter().take(3) {
            println!("  {:<10} {mean:>6.2} s", cat.name());
        }
    }
    let cats = [
        VideoCategory::News,
        VideoCategory::Music,
        VideoCategory::Game,
    ];
    println!("\ncumulative swiping probability, group 0:");
    print!("{:>7}", "t(s)");
    for c in cats {
        print!("{:>9}", c.name());
    }
    println!();
    for t in [2.0, 5.0, 10.0, 20.0, 40.0] {
        print!("{t:>7.0}");
        for c in cats {
            print!("{:>9.3}", outcome.swiping[0].cumulative_probability(c, t));
        }
        println!();
    }
    Ok(())
}

fn cmd_reserve(args: &[String]) -> Result<(), String> {
    const RESERVE: FlagSpec = FlagSpec {
        command: "reserve",
        sim: true,
        values: &["--headroom"],
        switches: &[],
        positionals: 0,
    };
    let flags = Flags::new(&RESERVE, args)?;
    let headroom = flags.parse("--headroom", 0.10f64)?;
    let mut cfg = base_config(&flags)?;
    cfg.reservation = Some(ReservationPolicy {
        headroom,
        ..Default::default()
    });
    cfg.validate().map_err(|e| e.to_string())?;
    let result = Simulation::run(cfg).map_err(|e| e.to_string())?;
    let coverage = result.reservation_coverage().unwrap_or(0.0);
    let idle = result.reservation_idle().unwrap_or(0.0);
    println!(
        "headroom {:.0}%: covered {:.0}% of intervals, {:.1}% of reserved radio idle",
        100.0 * headroom,
        100.0 * coverage,
        100.0 * idle
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_and_booleans() {
        let raw = args(&["--users", "80", "--per-bs", "--seed", "9"]);
        let flags = Flags::new(&RUN, &raw).unwrap();
        assert_eq!(flags.parse("--users", 0usize).unwrap(), 80);
        assert_eq!(flags.parse("--seed", 0u64).unwrap(), 9);
        assert_eq!(flags.parse("--intervals", 12usize).unwrap(), 12, "default");
        assert!(flags.has("--per-bs"));
        assert!(!flags.has("--csv"));
    }

    #[test]
    fn flags_reject_garbage_values() {
        let raw = args(&["--users", "eighty"]);
        let flags = Flags::new(&RUN, &raw).unwrap();
        assert!(flags.parse("--users", 0usize).is_err());
    }

    #[test]
    fn base_config_maps_predictors() {
        for (name, expect_naive) in [("scheme", false), ("naive", true)] {
            let raw = args(&["--predictor", name, "--users", "40"]);
            let cfg = base_config(&Flags::new(&RUN, &raw).unwrap()).unwrap();
            assert_eq!(cfg.n_users, 40);
            assert_eq!(
                cfg.predictor == DemandPredictorKind::NaiveFullWatch,
                expect_naive
            );
        }
        let raw = args(&["--predictor", "ewma"]);
        let cfg = base_config(&Flags::new(&RUN, &raw).unwrap()).unwrap();
        assert!(matches!(
            cfg.predictor,
            DemandPredictorKind::HistoricalMean { .. }
        ));
        let raw = args(&["--predictor", "psychic"]);
        assert!(base_config(&Flags::new(&RUN, &raw).unwrap()).is_err());
    }

    #[test]
    fn base_config_validates() {
        // One user cannot satisfy k_min.
        let raw = args(&["--users", "1"]);
        assert!(base_config(&Flags::new(&RUN, &raw).unwrap()).is_err());
    }

    #[test]
    fn resolve_faults_accepts_builtins_and_profiles() {
        for name in FaultPlan::BUILTINS {
            assert!(resolve_faults(name).is_ok(), "{name} must resolve");
        }
        assert!(resolve_faults("no-such-profile").is_err());
        let path = std::env::temp_dir().join("msvs-cli-faults-test.json");
        let json = FaultPlan::builtin("brownout")
            .unwrap()
            .to_json()
            .to_string();
        std::fs::write(&path, json).unwrap();
        let plan = resolve_faults(path.to_str().unwrap()).unwrap();
        assert_eq!(plan, FaultPlan::builtin("brownout").unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_a_user_or_shard_checkpointed_twice() {
        use msvs::udt::{SyncTracker, UserDigitalTwin};
        let checkpoint = |shard: usize, users: &[u32]| {
            ShardCheckpoint {
                shard,
                interval: 1,
                next_instance: 1,
                twins: users
                    .iter()
                    .map(|&u| msvs::shard::CheckpointEntry {
                        twin: UserDigitalTwin::new(msvs::types::UserId(u)),
                        tracker: SyncTracker::new(),
                    })
                    .collect(),
            }
            .to_json()
            .to_string()
        };
        let path = std::env::temp_dir().join("msvs-cli-checkpoint-test.jsonl");
        let restore = |lines: &[String]| {
            std::fs::write(&path, lines.join("\n")).unwrap();
            restore_checkpoint(path.to_str().unwrap())
        };
        assert!(restore(&[checkpoint(0, &[1, 2]), checkpoint(1, &[3])]).is_ok());
        let err = restore(&[checkpoint(0, &[1, 2]), checkpoint(1, &[3, 1])]).unwrap_err();
        assert!(
            err.ends_with(":2: user u1 in shard 1 already checkpointed in shard 0 on line 1"),
            "{err}"
        );
        let err = restore(&[checkpoint(0, &[1]), checkpoint(0, &[2])]).unwrap_err();
        assert!(
            err.ends_with(":2: shard 0 already checkpointed on line 1"),
            "{err}"
        );
        // Past the shard cap the id would wrap another shard's nonces.
        let err = restore(&[checkpoint(1 << 24, &[1])]).unwrap_err();
        assert!(err.ends_with("field 'shard' must be below 1024"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn base_config_accepts_threads_flag() {
        let raw = args(&["--threads", "2"]);
        let cfg = base_config(&Flags::new(&RUN, &raw).unwrap()).unwrap();
        assert_eq!(cfg.threads, 2);
        let raw = args(&["--threads", "many"]);
        assert!(base_config(&Flags::new(&RUN, &raw).unwrap()).is_err());
    }

    #[test]
    fn base_config_accepts_shards_flag() {
        let raw = args(&["--shards", "4"]);
        let cfg = base_config(&Flags::new(&RUN, &raw).unwrap()).unwrap();
        assert_eq!(cfg.shards, 4);
        let raw = args(&["--shards", "0"]);
        assert!(base_config(&Flags::new(&RUN, &raw).unwrap()).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A typo or a retired flag must fail, never run the defaults.
        for (list, flag) in [
            (&["--user", "1000"][..], "--user"),
            (&["--backend", "simd"], "--backend"),
            (&["--users", "40", "--verbose"], "--verbose"),
            (&["--incremental"], "--incremental"),
        ] {
            let err = Flags::new(&RUN, &args(list)).err().expect("rejected");
            assert_eq!(err, format!("unknown flag `{flag}` for `msvs run`"));
        }
        for (list, flag) in [
            (&["--backend", "simd"][..], "--backend"),
            (&["--incremental"], "--incremental"),
        ] {
            let err = cmd_bench_report(&args(list)).unwrap_err();
            assert_eq!(
                err,
                format!("unknown flag `{flag}` for `msvs bench-report`")
            );
        }
        let err = Flags::new(&RUN, &args(&["1000"])).err().expect("rejected");
        assert_eq!(err, "unexpected argument `1000` for `msvs run`");
    }

    #[test]
    fn trailing_value_flag_without_a_value_is_an_error() {
        for flag in ["--users", "--journal", "--faults"] {
            let raw = args(&["--seed", "3", flag]);
            let err = Flags::new(&RUN, &raw).err().expect("rejected");
            assert_eq!(err, format!("{flag} requires a value"));
        }
        assert!(cmd_bench_report(&args(&["--out"])).is_err());
    }

    #[test]
    fn base_config_accepts_silhouette_cap_flag() {
        let raw = args(&["--silhouette-cap", "512"]);
        let cfg = base_config(&Flags::new(&RUN, &raw).unwrap()).unwrap();
        assert_eq!(cfg.scheme.grouping.silhouette_sample_cap, 512);
        // 0 disables sampling entirely (score every user).
        let raw = args(&["--silhouette-cap", "0"]);
        let cfg = base_config(&Flags::new(&RUN, &raw).unwrap()).unwrap();
        assert_eq!(cfg.scheme.grouping.silhouette_sample_cap, 0);
        let raw = args(&["--silhouette-cap", "lots"]);
        assert!(base_config(&Flags::new(&RUN, &raw).unwrap()).is_err());
    }

    #[test]
    fn resolve_slo_accepts_builtins_and_profiles() {
        for name in SloPolicy::BUILTINS {
            assert!(resolve_slo(name).is_ok(), "{name} must resolve");
        }
        assert!(resolve_slo("no-such-policy").is_err());
        let path = std::env::temp_dir().join("msvs-cli-slo-test.json");
        let json = SloPolicy::builtin("lenient").unwrap().to_json().to_string();
        std::fs::write(&path, json).unwrap();
        let policy = resolve_slo(path.to_str().unwrap()).unwrap();
        assert_eq!(policy, SloPolicy::builtin("lenient").unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_compare_rejects_bad_gate_values() {
        let raw = args(&["a.json", "b.json", "--gate", "plenty"]);
        assert!(cmd_bench_compare(&raw).is_err());
        let raw = args(&["a.json", "b.json", "--gate", "-5"]);
        assert!(cmd_bench_compare(&raw).is_err());
    }

    #[test]
    fn stage_delta_marks_new_and_gone_stages() {
        assert_eq!(stage_delta(Some(&2.0), Some(&3.0)), "+50.0%");
        assert_eq!(stage_delta(Some(&0.0), Some(&3.0)), "n/a");
        assert_eq!(stage_delta(None, Some(&3.0)), "new");
        assert_eq!(stage_delta(Some(&2.0), None), "gone");
        assert_eq!(stage_delta(None, None), "n/a");
    }
}
