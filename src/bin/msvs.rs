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
//! msvs swiping [--users N] [--seed S]
//! msvs reserve [--headroom F] [--users N] [--seed S]
//! msvs help
//! ```
//!
//! Every subcommand rejects flags it does not know, so a typo never
//! silently runs the defaults.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use msvs::core::ReservationPolicy;
use msvs::faults::FaultPlan;
use msvs::shard::ShardCheckpoint;
use msvs::sim::{report, DemandPredictorKind, Simulation, SimulationConfig};
use msvs::telemetry::{chrome_trace_with_counters, Event, EventJournal, MetricsServer, SloPolicy};
use msvs::types::VideoCategory;
use msvs::udt::UdtStore;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    // Every table goes through this one writer, and a failed write
    // comes back here as an error.
    let mut out = Stdout {
        inner: std::io::stdout().lock(),
        closed: false,
    };
    let result = match command {
        "run" => cmd_run(&args[1..], &mut out),
        "checkpoint" => cmd_checkpoint(&args[1..], &mut out),
        "report" => cmd_report(&args[1..], &mut out),
        "swiping" => cmd_swiping(&args[1..], &mut out),
        "reserve" => cmd_reserve(&args[1..], &mut out),
        "help" | "--help" | "-h" => print_help(&mut out).map_err(Into::into),
        other => Err(format!("unknown command `{other}` (try `msvs help`)").into()),
    }
    .and_then(|()| out.flush().map_err(Into::into));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Locked stdout that takes a reader closing early (`msvs report
/// run.jsonl | head -1`) as success: from the first `BrokenPipe` on it
/// drops what is written, so the command still finishes its work (a
/// `run` still writes its exports) and exits 0. Every other write error
/// is returned.
struct Stdout {
    inner: std::io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn closed_is_ok<T>(&mut self, result: std::io::Result<T>, ok: T) -> std::io::Result<T> {
        match result {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(ok)
            }
            other => other,
        }
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let written = self.inner.write(buf);
        self.closed_is_ok(written, buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let flushed = self.inner.flush();
        self.closed_is_ok(flushed, ())
    }
}

fn print_help(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
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
         \x20 msvs swiping [--users N] [--seed S]      print a group's swipe curves\n\
         \x20 msvs reserve [--headroom F] [--users N] [--seed S]\n\
         \x20 msvs help\n\
         \n\
         `run` simulates the campus scenario and prints the per-interval\n\
         predicted-vs-actual scorecard (Fig. 3(b) of the paper).\n\
         `--threads N` sizes the worker pool for the parallel hot paths\n\
         (0 = all cores, the default).\n\
         Seeded runs are bit-identical at any thread count.\n\
         `--shards N` groups the base stations into N shards, each owning\n\
         the twins of its cells' users; ownership hands over as users\n\
         cross cells (default 1). Seeded fault-free runs are\n\
         bit-identical at any shard count.\n\
         `--silhouette-cap N` caps silhouette scoring at N sampled users\n\
         (0 disables sampling; default 4096).\n\
         `--faults PROFILE` injects uplink faults from a built-in profile\n\
         ({}) or a JSON file (see results/fault_profiles/). Profiles may\n\
         schedule shard outages (`bs-flap`, `bs-crash`): crashed shards\n\
         fail their users over to live neighbours and take them back once\n\
         the window ends; partitioned shards push users into the\n\
         degradation ladder until the window heals. `run` and `report`\n\
         print one row per shard that went down.\n\
         `--slo POLICY` arms the deterministic SLO watchdog from a\n\
         built-in policy ({}) or a JSON file (see results/slo_profiles/);\n\
         the run exits non-zero when any rule burns past its breach\n\
         budget. `--serve-metrics ADDR` serves live Prometheus text\n\
         exposition on http://ADDR/metrics and a JSON health snapshot on\n\
         /healthz while the run executes; the server is read-only, so\n\
         seeded results are bit-identical with it on or off.\n\
         `checkpoint` runs the same scenario, then snapshots each shard\n\
         (twins + sync state) as one JSON line; the `--restore` form\n\
         reloads and verifies such a file offline, failing on any line\n\
         that does not re-encode to itself byte for byte.\n\
         `--journal` writes the run's one record, the event journal, as\n\
         JSONL: the run's shape, each scored interval's predicted and\n\
         actual demand, and the closing stage-latency table. `report`\n\
         prints the same scorecard, stage and outage tables from such a\n\
         file.\n\
         `--trace` writes the run's hierarchical spans as a Chrome-trace\n\
         JSON file (open in Perfetto or chrome://tracing); every stage\n\
         span carries its exact duration, so the trace is the run's\n\
         stage-latency profile at any population.\n\
         Every command rejects flags it does not know.",
        FaultPlan::BUILTINS.join(", "),
        SloPolicy::BUILTINS.join(", ")
    )
}

/// The flags one subcommand accepts on top of [`SIM_VALUES`] and
/// [`SIM_SWITCHES`]: every flag-parsed command builds its scenario with
/// [`base_config`].
struct FlagSpec {
    command: &'static str,
    /// Flags that take the next argument as their value.
    values: &'static [&'static str],
    /// Boolean flags.
    switches: &'static [&'static str],
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

/// Minimal flag parser: `--key value` pairs and boolean switches,
/// checked against the command's [`FlagSpec`].
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args`, rejecting unknown flags, a value flag with nothing
    /// after it, and any positional argument.
    fn new(spec: &FlagSpec, args: &'a [String]) -> Result<Self, String> {
        let mut flags = Self {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str);
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                return Err(format!(
                    "unexpected argument `{arg}` for `msvs {}`",
                    spec.command
                ));
            } else if spec.values.contains(&arg) || SIM_VALUES.contains(&arg) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                flags.values.push((arg, value));
            } else if spec.switches.contains(&arg) || SIM_SWITCHES.contains(&arg) {
                flags.switches.push(arg);
            } else {
                return Err(format!("unknown flag `{arg}` for `msvs {}`", spec.command));
            }
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
        .predictor(predictor)
        .threads(flags.parse("--threads", 0usize)?)
        .shards(flags.parse("--shards", 1usize)?);
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
    values: &[
        "--faults",
        "--slo",
        "--serve-metrics",
        "--csv",
        "--journal",
        "--trace",
    ],
    switches: &[],
};

fn cmd_run(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
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
    // Keep the simulation (rather than `Simulation::run`) so the telemetry
    // handle stays reachable for the metrics server and the exports below.
    let mut sim = Simulation::new(cfg).map_err(|e| e.to_string())?;
    // The metrics server reads shared telemetry/health handles; it never
    // writes, so the run itself is untouched by scrapes.
    let mut server = match flags.value("--serve-metrics") {
        Some(addr) => {
            let s = MetricsServer::bind(addr, sim.telemetry().clone(), sim.health_board().clone())?;
            writeln!(
                out,
                "serving http://{0}/metrics and http://{0}/healthz",
                s.addr()
            )?;
            Some(s)
        }
        None => None,
    };
    let result = sim.run_schedule().map_err(|e| e.to_string())?;
    let entries = sim.telemetry().journal().entries();
    writeln!(out, "{}", report::interval_table(&entries))?;
    if let Some(shards) = &result.shards {
        writeln!(
            out,
            "shards: {} | handovers {} | peak imbalance {:.2}",
            shards.shards, shards.handovers_total, shards.peak_imbalance,
        )?;
    }
    if let Some(table) = report::outage_table(&entries) {
        writeln!(out, "{table}")?;
    }
    writeln!(
        out,
        "radio accuracy {:.2}% | computing accuracy {:.2}% | saving {:.1}% | waste {:.2}%",
        100.0 * result.mean_radio_accuracy(),
        100.0 * result.mean_computing_accuracy(),
        100.0 * result.mean_multicast_saving(),
        100.0 * result.waste_fraction(),
    )?;
    if with_faults {
        let count = |name: &str, label: &str| {
            result
                .telemetry
                .counters
                .iter()
                .find(|(n, l, _)| n == name && l == label)
                .map_or(0, |(_, _, v)| *v)
        };
        writeln!(
            out,
            "faults: lost {} | delayed {} | corrupted {} | rejected {} | overflowed {} | retried {}",
            count("fault_reports_total", "lost"),
            count("fault_reports_total", "delayed"),
            count("fault_reports_total", "corrupted"),
            count("fault_reports_total", "rejected"),
            count("fault_reports_total", "overflowed"),
            count("fault_retries_total", "uplink"),
        )?;
        let coverage = result
            .mean_twin_coverage()
            .map_or_else(|| "n/a".into(), |c| format!("{:.1}%", 100.0 * c));
        let delta = result
            .degraded_accuracy_delta()
            .map_or_else(|| "n/a".into(), |d| format!("{:+.2}pp", 100.0 * d));
        writeln!(
            out,
            "degraded intervals {}/{} | twin coverage {} | accuracy delta vs clean {}",
            result.degraded_intervals(),
            result.intervals.len(),
            coverage,
            delta,
        )?;
    }
    if let Some(slo) = &result.slo {
        writeln!(
            out,
            "slo: {} rule(s), breach budget {} interval(s), {} interval(s) evaluated",
            slo.rules.len(),
            slo.breach_budget,
            slo.intervals_evaluated,
        )?;
        for rule in &slo.rules {
            let worst = rule
                .worst_value
                .map_or_else(|| "n/a".into(), |v| format!("{v:.4}"));
            writeln!(
                out,
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
            )?;
        }
    }
    if let Some(path) = flags.value("--csv") {
        std::fs::write(path, report::to_csv(&result)).map_err(|e| e.to_string())?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = flags.value("--journal") {
        std::fs::write(path, sim.telemetry().journal().to_jsonl()).map_err(|e| e.to_string())?;
        writeln!(out, "wrote {path}")?;
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
        writeln!(
            out,
            "wrote {path} (open in https://ui.perfetto.dev or chrome://tracing)"
        )?;
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

/// `msvs checkpoint`: run the scenario to completion and snapshot every
/// shard's twin registry (plus sync-tracker state) as one versioned JSON
/// checkpoint per line; `--restore PATH`
/// instead reloads such a file into fresh shards and verifies it.
fn cmd_checkpoint(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    const CHECKPOINT: FlagSpec = FlagSpec {
        command: "checkpoint",
        values: &["--restore", "--faults", "--out"],
        switches: &[],
    };
    let flags = Flags::new(&CHECKPOINT, args)?;
    if let Some(path) = flags.value("--restore") {
        return restore_checkpoint(path, out);
    }
    let mut cfg = base_config(&flags)?;
    if let Some(raw) = flags.value("--faults") {
        cfg.faults = Some(resolve_faults(raw)?);
        cfg.validate().map_err(|e| e.to_string())?;
    }
    let mut sim = Simulation::new(cfg).map_err(|e| e.to_string())?;
    sim.run_schedule().map_err(|e| e.to_string())?;
    let checkpoints = sim.checkpoint_shards();
    let path = flags.value("--out").unwrap_or("checkpoint.jsonl");
    let mut text = String::new();
    for ckpt in &checkpoints {
        text.push_str(&ckpt.to_string());
        text.push('\n');
    }
    std::fs::write(path, &text).map_err(|e| e.to_string())?;
    let twins: usize = checkpoints.iter().map(ShardCheckpoint::len).sum();
    writeln!(
        out,
        "wrote {path}: {} shard checkpoint(s), {} twin(s), {} bytes",
        checkpoints.len(),
        twins,
        text.len(),
    )?;
    Ok(())
}

/// Reloads a `msvs checkpoint` file into one fresh twin store, as the
/// deployment holds it, and verifies that each line restores every twin
/// it carries before summarising it. A shard id may appear on one line
/// only, and a user in one shard only. Every line must re-encode to
/// itself byte for byte, which checks the checkpoint codec's round trip
/// on the whole file.
fn restore_checkpoint(path: &str, out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut shards = 0usize;
    let mut twins = 0usize;
    let mut store = UdtStore::new();
    // Shard id -> line, and user -> (line, shard), of the first sighting.
    let mut shard_lines = BTreeMap::new();
    let mut owners = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ckpt = ShardCheckpoint::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if ckpt.to_string() != line {
            return Err(format!("{path}: re-encode mismatch at line {}", i + 1).into());
        }
        if let Some(first) = shard_lines.insert(ckpt.shard, i + 1) {
            return Err(format!(
                "{path}:{}: shard {} already checkpointed on line {first}",
                i + 1,
                ckpt.shard,
            )
            .into());
        }
        for entry in &ckpt.twins {
            let user = entry.twin.user();
            if let Some((first, shard)) = owners.insert(user, (i + 1, ckpt.shard)) {
                return Err(format!(
                    "{path}:{}: user {user} in shard {} already checkpointed in shard {shard} on line {first}",
                    i + 1,
                    ckpt.shard,
                ).into());
            }
        }
        let restored = ckpt.restore_into(&mut store);
        if store.len() != twins + ckpt.len() || restored.len() != ckpt.len() {
            return Err(format!(
                "{path}:{}: restore mismatch: checkpoint holds {} twin(s), store restored {}",
                i + 1,
                ckpt.len(),
                store.len() - twins,
            )
            .into());
        }
        writeln!(
            out,
            "shard {}: {} twin(s) at interval {}, next nonce {:#x}",
            ckpt.shard,
            ckpt.len(),
            ckpt.interval,
            ckpt.next_instance,
        )?;
        shards += 1;
        twins += ckpt.len();
    }
    if shards == 0 {
        return Err(format!("{path}: no checkpoints found").into());
    }
    writeln!(
        out,
        "{path}: restored and verified {twins} twin(s) across {shards} shard(s)"
    )?;
    Ok(())
}

/// `msvs report <journal.jsonl>`: the scorecard, stage-latency table and
/// event summary of a journal written by `msvs run --journal`.
fn cmd_report(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
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
    if let Some(Event::RunStarted {
        scheme,
        seed,
        users,
        intervals,
        threads,
        shards,
    }) = entries
        .iter()
        .map(|e| &e.event)
        .find(|e| matches!(e, Event::RunStarted { .. }))
    {
        writeln!(
            out,
            "run: scheme {scheme}, seed {seed}, {users} users, {intervals} intervals, \
             {threads} threads, {shards} shard(s), {} events\n",
            entries.len()
        )?;
    }
    writeln!(out, "{}", report::interval_table(&entries))?;
    if let Some(table) = report::stage_table(&entries) {
        writeln!(out, "{table}")?;
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
    writeln!(out, "{}", report::format_table(&["event", "count"], &rows))?;

    if let Some(table) = report::outage_table(&entries) {
        writeln!(out, "{table}")?;
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
        writeln!(
            out,
            "{}",
            report::format_table(&["interval", "edge", "slo", "value", "threshold"], &rows)
        )?;
    }

    // Per-interval outcomes.
    let rows: Vec<Vec<String>> = entries
        .iter()
        .filter_map(|e| match &e.event {
            Event::IntervalCompleted {
                interval,
                hit_ratio,
                ..
            } => Some(vec![
                interval.to_string(),
                format!("{:.1}", e.t_ms as f64 / 1000.0),
                format!("{hit_ratio:.3}"),
            ]),
            _ => None,
        })
        .collect();
    if !rows.is_empty() {
        writeln!(
            out,
            "{}",
            report::format_table(&["interval", "t(s)", "hit ratio"], &rows)
        )?;
    }
    if !parse.skipped.is_empty() {
        writeln!(
            out,
            "skipped {} malformed line(s); see warnings above",
            parse.skipped.len()
        )?;
    }
    if parse.truncated {
        return Err(format!(
            "{path}: final line is malformed — the journal looks truncated or corrupt"
        )
        .into());
    }
    Ok(())
}

fn cmd_swiping(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    const SWIPING: FlagSpec = FlagSpec {
        command: "swiping",
        values: &[],
        switches: &[],
    };
    let flags = Flags::new(&SWIPING, args)?;
    let mut sim = Simulation::new(base_config(&flags)?).map_err(|e| e.to_string())?;
    sim.run_schedule().map_err(|e| e.to_string())?;
    let outcome = sim.last_outcome().ok_or("no intervals ran")?;
    for (g, swiping) in outcome.swiping.iter().enumerate() {
        let members = outcome.group_prediction(g).map_or(0, |p| p.members.len());
        writeln!(out, "group {g} ({members} members): retention ranking")?;
        for (cat, mean) in swiping.ranked_categories().into_iter().take(3) {
            writeln!(out, "  {:<10} {mean:>6.2} s", cat.name())?;
        }
    }
    let cats = [
        VideoCategory::News,
        VideoCategory::Music,
        VideoCategory::Game,
    ];
    writeln!(out, "\ncumulative swiping probability, group 0:")?;
    write!(out, "{:>7}", "t(s)")?;
    for c in cats {
        write!(out, "{:>9}", c.name())?;
    }
    writeln!(out)?;
    for t in [2.0, 5.0, 10.0, 20.0, 40.0] {
        write!(out, "{t:>7.0}")?;
        for c in cats {
            write!(
                out,
                "{:>9.3}",
                outcome.swiping[0].cumulative_probability(c, t)
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn cmd_reserve(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn std::error::Error>> {
    const RESERVE: FlagSpec = FlagSpec {
        command: "reserve",
        values: &["--headroom"],
        switches: &[],
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
    writeln!(
        out,
        "headroom {:.0}%: covered {:.0}% of intervals, {:.1}% of reserved radio idle",
        100.0 * headroom,
        100.0 * coverage,
        100.0 * idle
    )?;
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
            .to_string()
        };
        let path = std::env::temp_dir().join("msvs-cli-checkpoint-test.jsonl");
        let restore = |lines: &[String]| {
            std::fs::write(&path, lines.join("\n")).unwrap();
            restore_checkpoint(path.to_str().unwrap(), &mut std::io::sink())
                .map_err(|e| e.to_string())
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
        // Shard ids are bounded like `--shards`.
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
            let err = cmd_reserve(&args(list), &mut std::io::sink()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("unknown flag `{flag}` for `msvs reserve`")
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
        assert!(cmd_reserve(&args(&["--headroom"]), &mut std::io::sink()).is_err());
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
}
