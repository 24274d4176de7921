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
        },
    );
    // Far more table than a pipe buffers, so `msvs` is still writing
    // when the reader goes away.
    for interval in 0..20_000 {
        journal.record(
            interval * 1000,
            Event::IntervalCompleted {
                interval,
                qoe: 0.5,
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
