//! The telemetry journal's JSONL decoder on a real journal. A seeded
//! corpus of damaged variants of a 4-shard `bs-crash` run's journal
//! (line truncations, byte flips, nesting past the parser's cap,
//! overflowing `±1e999` numbers, duplicate keys, out-of-range integers
//! and documents cut mid-line) must make `EventJournal::parse_jsonl`
//! return `Err` naming the damaged line and `parse_jsonl_lossy` report
//! exactly that line as skipped, never panic, and cost time linear in
//! the input.

mod common;

use std::time::{Duration, Instant};

use common::{number_tokens, Mix};
use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::faults::FaultPlan;
use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::{EventJournal, Json};
use msvs::types::SimDuration;

/// Every integer field an event carries, `t_ms` included.
const INT_FIELDS: [&str; 20] = [
    "t_ms",
    "seed",
    "users",
    "intervals",
    "threads",
    "shards",
    "episodes",
    "interval",
    "k",
    "groups",
    "lost",
    "delayed",
    "corrupted",
    "rejected",
    "retried",
    "overflowed",
    "replaced",
    "shard",
    "failed_over",
    "count",
];

/// The JSONL journal of a 24-user, 4-shard run under `bs-crash` for four
/// scored intervals, which cover the crash, the dark window and the
/// restore.
fn journal() -> String {
    let mut scheme = SchemeConfig {
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
    scheme.demand.interval = SimDuration::from_mins(2);
    let mut cfg = SimulationConfig::builder()
        .users(24)
        .base_stations(4)
        .intervals(4)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(scheme)
        .threads(2)
        .shards(4)
        .seed(17)
        .build()
        .expect("test config is valid");
    cfg.faults = Some(FaultPlan::builtin("bs-crash").expect("builtin profile"));
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.run_schedule().expect("run completes");
    let text = sim.telemetry().journal().to_jsonl();
    for name in [
        "RunStarted",
        "PretrainCompleted",
        "IntervalCompleted",
        "FaultsInjected",
        "ShardDown",
        "ShardRestored",
        "StageSummary",
    ] {
        assert!(text.contains(name), "the crash run journals {name}");
    }
    text
}

/// What decoding one corpus case must yield.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Line `n` (1-based) is damaged and must be rejected.
    Bad(usize),
    /// Line `n` is damaged, or decodes to an entry that round-trips.
    BadOrValid(usize),
    /// The document is cut at a byte offset: a final line cut mid-record
    /// is rejected and flagged as truncated; a cut at a line boundary
    /// leaves a shorter, clean journal.
    Cut,
}

/// The document with line `at` (0-based) replaced by `line`.
fn with_line(lines: &[&str], at: usize, line: &str) -> String {
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        out.push_str(if i == at { line } else { l });
        out.push('\n');
    }
    out
}

/// Runs the seeded corpus over the JSONL `doc`, handing each case to
/// `check` as `(what, input, expectation)`. Case counts do not depend on
/// the document's length, so two documents of different size cost the
/// same number of decodes.
fn corpus(doc: &str, seed: u64, mut check: impl FnMut(&str, &str, Expect)) {
    let mut rng = Mix(seed);
    let lines: Vec<&str> = doc.lines().collect();
    let n = lines.len();
    // A seeded line, its 0-based index and the 1-based number the
    // decoder reports.
    let pick = |rng: &mut Mix| {
        let at = rng.below(n);
        (at, lines[at], at + 1)
    };
    // Truncations inside a line: no strict non-empty prefix of an
    // object is a document.
    for _ in 0..96 {
        let (at, line, no) = pick(&mut rng);
        let cut = 1 + rng.below(line.len() - 1);
        let text = with_line(&lines, at, &line[..cut]);
        check(&format!("line {no} cut at {cut}"), &text, Expect::Bad(no));
    }
    // Single-byte flips to another ASCII byte other than a newline (the
    // journal is ASCII, so the result stays a `str`).
    for _ in 0..192 {
        let (at, line, no) = pick(&mut rng);
        let i = rng.below(line.len());
        let mut bytes = line.as_bytes().to_vec();
        let mut to = (bytes[i] as u64 + 1 + rng.next() % 127) % 128;
        if to == u64::from(b'\n') {
            to += 1;
        }
        bytes[i] = to as u8;
        let flipped = String::from_utf8(bytes).expect("ascii");
        let text = with_line(&lines, at, &flipped);
        check(
            &format!("line {no} byte {i} -> {to:#04x}"),
            &text,
            Expect::BadOrValid(no),
        );
    }
    // Nesting past the parser's cap, inside a member and around a line.
    for _ in 0..8 {
        let (at, line, no) = pick(&mut rng);
        let deep = line.replacen("\"t_ms\":", &format!("\"t_ms\":{}", "[".repeat(200)), 1);
        check(
            &format!("line {no} nested member"),
            &with_line(&lines, at, &deep),
            Expect::Bad(no),
        );
        let wrapped = format!("{}{line}{}", "[".repeat(200), "]".repeat(200));
        check(
            &format!("line {no} nested"),
            &with_line(&lines, at, &wrapped),
            Expect::Bad(no),
        );
    }
    // An overflowing number parses to an infinity, which no field takes.
    for _ in 0..48 {
        let (at, line, no) = pick(&mut rng);
        let numbers = number_tokens(line);
        let (from, to) = numbers[rng.below(numbers.len())];
        for inf in ["1e999", "-1e999"] {
            let damaged = format!("{}{inf}{}", &line[..from], &line[to..]);
            check(
                &format!("line {no}: {} -> {inf}", &line[from..to]),
                &with_line(&lines, at, &damaged),
                Expect::Bad(no),
            );
        }
    }
    // A repeated member: the later value must not win silently.
    for _ in 0..16 {
        let (at, line, no) = pick(&mut rng);
        let Ok(Json::Obj(map)) = Json::parse(line) else {
            panic!("line {no} is an object")
        };
        let (key, value) = map.iter().nth(rng.below(map.len())).expect("a member");
        let body = line.strip_prefix('{').expect("an object line");
        let duplicated = format!("{{{}:{value},{body}", Json::Str(key.clone()));
        check(
            &format!("line {no} duplicated {key:?}"),
            &with_line(&lines, at, &duplicated),
            Expect::Bad(no),
        );
    }
    // Integer fields take integers in [0, 2^53) only.
    for _ in 0..32 {
        let (at, line, no) = pick(&mut rng);
        let present: Vec<&str> = INT_FIELDS
            .into_iter()
            .filter(|k| line.contains(&format!("\"{k}\":")))
            .collect();
        let key = format!("\"{}\":", present[rng.below(present.len())]);
        let from = line.find(&key).expect("key in line") + key.len();
        let to = from + line[from..].find([',', '}']).expect("value ends");
        for bad in ["9007199254740993", "1e30", "-1", "2.5", "-3.7", "\"7\""] {
            let damaged = format!("{}{bad}{}", &line[..from], &line[to..]);
            check(
                &format!("line {no}: {key} {bad}"),
                &with_line(&lines, at, &damaged),
                Expect::Bad(no),
            );
        }
    }
    // The document cut at a seeded byte, as an interrupted export.
    for _ in 0..48 {
        let cut = 1 + rng.below(doc.len() - 1);
        check(&format!("document cut at {cut}"), &doc[..cut], Expect::Cut);
    }
}

/// Decodes one case strictly and lossily and checks both outcomes
/// against `expect`; returns whether the case decoded clean.
fn decode(what: &str, doc: &str, expect: Expect) -> bool {
    let strict = EventJournal::parse_jsonl(doc);
    let (journal, report) = EventJournal::parse_jsonl_lossy(doc);
    let lines = doc.lines().filter(|l| !l.trim().is_empty()).count();
    if strict.is_ok() {
        assert!(
            matches!(expect, Expect::BadOrValid(_) | Expect::Cut),
            "{what}: must not decode"
        );
        assert!(report.clean() && !report.truncated, "{what}: {report:?}");
        assert_eq!(journal.len(), lines, "{what}");
        let again = EventJournal::parse_jsonl(&journal.to_jsonl()).expect("own output parses");
        assert_eq!(again.entries(), journal.entries(), "{what}: round-trips");
        return true;
    }
    let err = strict.unwrap_err();
    let bad = match expect {
        Expect::Bad(no) | Expect::BadOrValid(no) => no,
        Expect::Cut => lines,
    };
    assert!(err.starts_with(&format!("line {bad}: ")), "{what}: {err}");
    let skipped: Vec<usize> = report.skipped.iter().map(|(no, _)| *no).collect();
    assert_eq!(skipped, [bad], "{what}: the lossy parse skips the bad line");
    assert_eq!(journal.len(), lines - 1, "{what}: every other line decodes");
    assert_eq!(report.truncated, bad == lines, "{what}: truncation flag");
    false
}

#[test]
fn malformed_journals_fail_cleanly() {
    let doc = journal();
    assert!(
        EventJournal::parse_jsonl(&doc).is_ok(),
        "the journal decodes"
    );
    let (mut cases, mut valid) = (0, 0);
    corpus(&doc, 0x5eed, |what, text, expect| {
        cases += 1;
        valid += usize::from(decode(what, text, expect));
    });
    assert_eq!(cases, 656, "the corpus is fixed-size");
    // A flipped digit or a cut at a line boundary can leave a valid
    // journal; most mutations must not.
    assert!(valid > 0 && valid < cases / 4, "{valid} of {cases} decoded");
}

/// Decoding cost grows linearly: the corpus over a journal of eight times
/// the lines costs well under the 64× a quadratic path would.
#[test]
fn malformed_journal_decoding_is_linear_in_input_size() {
    let doc = journal();
    let lines: Vec<&str> = doc.lines().collect();
    let with_lines = |n: usize| {
        let mut out = String::new();
        for line in lines.iter().cycle().take(n) {
            out.push_str(line);
            out.push('\n');
        }
        out
    };
    let (small, big) = (with_lines(8), with_lines(64));
    let time = |doc: &str| {
        let start = Instant::now();
        corpus(doc, 7, |what, text, expect| {
            decode(what, text, expect);
        });
        start.elapsed()
    };
    let (mut t_small, mut t_big) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        t_small = t_small.min(time(&small));
        t_big = t_big.min(time(&big));
    }
    let ratio = t_big.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio < 24.0,
        "{}x the input took {ratio:.1}x the time ({t_small:?} -> {t_big:?})",
        big.len() as f64 / small.len() as f64
    );
}
