//! The `msvs` binary at its process boundary.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use msvs::telemetry::{Event, EventJournal};

/// A reader that stops after one line (`msvs report run.jsonl | head -1`)
/// does not turn the rest of the output into a panic: `msvs` exits 0 and
/// writes nothing to stderr.
#[test]
fn report_into_a_pipe_closed_after_one_line_exits_quietly() {
    let journal = EventJournal::new();
    journal.record(
        0,
        Event::RunStarted {
            scheme: "dt-assisted".into(),
            seed: 1,
            users: 1,
            intervals: 20_000,
            threads: 1,
            shards: 1,
        },
    );
    // Far more table than a pipe buffers, so `msvs` is still writing
    // when the reader goes away.
    for interval in 0..20_000 {
        journal.record(
            interval * 1000,
            Event::IntervalCompleted {
                interval,
                k: 2,
                silhouette: 0.5,
                groups: 2,
                predicted_rb: 10.0,
                actual_rb: 12.0,
                predicted_gcycles: 1.0,
                actual_gcycles: 1.5,
                hit_ratio: 0.25,
            },
        );
    }
    let path = std::env::temp_dir().join(format!("msvs-closed-pipe-{}.jsonl", std::process::id()));
    std::fs::write(&path, journal.to_jsonl()).expect("journal written");
    let mut child = Command::new(env!("CARGO_BIN_EXE_msvs"))
        .arg("report")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("msvs starts");
    let mut first = String::new();
    {
        // Dropping the reader closes the pipe's read end.
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        reader.read_line(&mut first).expect("first line");
    }
    let output = child.wait_with_output().expect("msvs exits");
    std::fs::remove_file(&path).ok();
    assert!(first.starts_with("run: scheme dt-assisted"), "{first}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(stderr.is_empty(), "{stderr}");
}

/// `msvs checkpoint` of a 4-shard `bs-crash` run writes one line per
/// shard, `--restore` verifies its own file, and a file with one line
/// duplicated fails by name.
#[test]
fn sharded_checkpoint_restores_and_a_duplicated_line_fails() {
    let dir = std::env::temp_dir().join(format!("msvs-cli-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("checkpoint.jsonl");
    let path_arg = path.to_str().expect("utf-8 temp path");
    let msvs = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_msvs"))
            .args(args)
            .output()
            .expect("msvs starts");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.success(), stdout, stderr)
    };

    let (ok, stdout, stderr) = msvs(&[
        "checkpoint",
        "--users",
        "60",
        "--intervals",
        "2",
        "--shards",
        "4",
        "--threads",
        "2",
        "--faults",
        "bs-crash",
        "--out",
        path_arg,
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("4 shard checkpoint(s), 60 twin(s)"),
        "{stdout}"
    );

    let (ok, stdout, stderr) = msvs(&["checkpoint", "--restore", path_arg]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("restored and verified 60 twin(s) across 4 shard(s)"),
        "{stdout}"
    );

    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let line = text.lines().nth(1).expect("a second shard line");
    std::fs::write(&path, format!("{text}{line}\n")).expect("duplicate written");
    let (ok, _, stderr) = msvs(&["checkpoint", "--restore", path_arg]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!ok, "a duplicated line must fail the restore");
    assert!(stderr.contains("already checkpointed"), "{stderr}");
}

/// A fault profile with a misspelt nested key fails `msvs run` with the
/// key in stderr, instead of running as if the fault were absent.
#[test]
fn run_rejects_a_fault_profile_with_a_misspelt_nested_key() {
    let path =
        std::env::temp_dir().join(format!("msvs-cli-bad-profile-{}.json", std::process::id()));
    std::fs::write(&path, r#"{"delay":{"probabilty":0.5}}"#).expect("profile written");
    let output = Command::new(env!("CARGO_BIN_EXE_msvs"))
        .args(["run", "--users", "24", "--intervals", "2", "--faults"])
        .arg(&path)
        .output()
        .expect("msvs starts");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a misspelt key must fail the run");
    assert!(stderr.contains("probabilty"), "{stderr}");
}

/// The table of `text` whose header line starts with `header` (after its
/// alignment padding), up to the next blank line.
fn block<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| !l.trim_start().starts_with(header))
        .take_while(|l| !l.is_empty())
        .collect()
}

/// The journal is the run's one record: `msvs report` on the file that
/// `msvs run --journal` wrote prints the run's scorecard byte for byte
/// and a stage row for every span name that ran, and no side file is
/// written next to the journal.
#[test]
fn report_prints_the_run_scorecard_from_its_journal() {
    let dir = std::env::temp_dir().join(format!("msvs-cli-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.jsonl");
    let msvs = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_msvs"))
            .args(args)
            .output()
            .expect("msvs starts");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "{args:?}: {stderr}");
        String::from_utf8(output.stdout).expect("utf-8 stdout")
    };
    let path_arg = path.to_str().expect("utf-8 temp path");
    let run = msvs(&[
        "run",
        "--users",
        "40",
        "--intervals",
        "3",
        "--seed",
        "5",
        "--threads",
        "2",
        "--journal",
        path_arg,
    ]);
    let report = msvs(&["report", path_arg]);
    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("temp dir lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let journal = std::fs::read_to_string(&path).expect("journal written");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(files, ["run.jsonl"], "the journal is the only file written");

    let scorecard = block(&run, "interval   K");
    assert_eq!(scorecard.len(), 2 + 3, "header, rule and three intervals");
    assert!(scorecard[0].contains("radio acc"), "{run}");
    assert_eq!(block(&report, "interval   K"), scorecard, "{report}");

    let stage_rows = block(&report, "stage  count").len();
    let stages: Vec<String> = EventJournal::parse_jsonl(&journal)
        .expect("journal parses")
        .entries()
        .into_iter()
        .filter_map(|e| match e.event {
            Event::StageSummary { stage, .. } => Some(stage),
            _ => None,
        })
        .collect();
    assert!(stages.iter().any(|s| s == "world_step"), "{stages:?}");
    assert_eq!(stage_rows, 2 + stages.len(), "{report}");
    for stage in &stages {
        assert!(
            report
                .lines()
                .any(|l| l.trim_start().starts_with(&format!("{stage} "))),
            "no stage row for {stage}: {report}"
        );
    }
}
