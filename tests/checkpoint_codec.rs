//! The `msvs-checkpoint/v2` codec on real captures. The outage path
//! holds a shard's checkpoint as captured while the shard is down and
//! only counts its encoded bytes, so the codec's guarantees live here:
//!
//! - every checkpoint a 4-shard `bs-crash` run captures parses back
//!   equal from its streamed text, `encoded_len` counts that text
//!   exactly at any pool size, and the text is canonical JSON (a `Json`
//!   tree prints it back byte-identical);
//! - a restored shard no longer holds its checkpoint;
//! - a seeded corpus of malformed variants of a captured line
//!   (truncations, byte flips, nesting past the parser's cap, overflowing
//!   `1e999` numbers, non-integral ids) decodes to `Err` or to a valid
//!   checkpoint, never panics, and costs time linear in the input.

mod common;

use std::time::{Duration, Instant};

use common::{number_tokens, Mix};
use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::faults::FaultPlan;
use msvs::par::Pool;
use msvs::shard::ShardCheckpoint;
use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::Json;
use msvs::types::SimDuration;

const SHARDS: usize = 4;

/// `bs-crash` takes shard 1 down at interval 1 for two intervals, so
/// four scored intervals cover the capture, the dark window and the
/// restore.
const INTERVALS: usize = 4;

/// A 24-user, 4-shard run under `bs-crash`, stepped one interval at a
/// time. Returns every checkpoint held while its shard was down (one per
/// outage window) and checks that each is released at the restore.
fn captured() -> Vec<ShardCheckpoint> {
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
        .intervals(INTERVALS)
        .warmup_intervals(1)
        .interval(SimDuration::from_mins(2))
        .scheme(scheme)
        .threads(2)
        .shards(SHARDS)
        .seed(17)
        .build()
        .expect("test config is valid");
    cfg.faults = Some(FaultPlan::builtin("bs-crash").expect("builtin profile"));
    cfg.validate().expect("config with faults is valid");
    let mut sim = Simulation::new(cfg).expect("scenario builds");
    sim.warm_up().expect("warm-up runs");
    let mut ckpts: Vec<ShardCheckpoint> = Vec::new();
    let mut restores = 0;
    let mut was_down = [false; SHARDS];
    for interval in 0..INTERVALS {
        sim.run_interval(interval).expect("interval runs");
        for (i, was_down) in was_down.iter_mut().enumerate() {
            let down = sim.store().is_down(i);
            let held = sim.store().last_checkpoint(i);
            assert_eq!(
                held.is_some(),
                down,
                "interval {interval}: shard {i} holds a checkpoint exactly while down"
            );
            if let Some(ckpt) = held.filter(|_| !*was_down) {
                ckpts.push(ckpt.clone());
            }
            restores += usize::from(*was_down && !down);
            *was_down = down;
        }
    }
    assert!(!ckpts.is_empty(), "bs-crash must capture a checkpoint");
    assert_eq!(restores, ckpts.len(), "every captured shard is restored");
    assert!(ckpts.iter().all(|c| !c.is_empty()), "captures hold twins");
    ckpts
}

#[test]
fn captured_checkpoints_round_trip_byte_for_byte() {
    for ckpt in captured() {
        let text = ckpt.to_string();
        assert_eq!(
            ShardCheckpoint::parse(&text).expect("own output parses"),
            ckpt,
            "shard {}: the codec is lossless",
            ckpt.shard
        );
        for threads in [1, 2, 4] {
            assert_eq!(
                ckpt.encoded_len(&Pool::new(threads)),
                text.len(),
                "shard {}: the byte count is exact at {threads} thread(s)",
                ckpt.shard
            );
        }
        assert_eq!(
            Json::parse(&text).expect("valid JSON").to_string(),
            text,
            "shard {}: the streamed text is canonical",
            ckpt.shard
        );
    }
}

/// What decoding one corpus case must yield.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Err,
    ErrOrValid,
}

/// Runs the seeded malformed-input corpus over one captured `line`,
/// handing each case to `check` as `(what, input, expectation)`. Case
/// counts do not depend on the line's length, so two lines of different
/// size cost the same number of decodes.
fn corpus(line: &str, seed: u64, mut check: impl FnMut(&str, &str, Expect)) {
    let mut rng = Mix(seed);
    let n = line.len();
    // Truncations: every prefix near both ends, seeded ones in between.
    // No strict prefix of an object is a document.
    let offsets = (0..48)
        .chain(n - 48..n)
        .chain((0..96).map(|_| rng.below(n)))
        .collect::<Vec<_>>();
    for at in offsets {
        check(&format!("truncated at {at}"), &line[..at], Expect::Err);
    }
    // Single-byte flips to another ASCII byte (the line is ASCII, so
    // the result stays a `str`).
    for _ in 0..192 {
        let at = rng.below(n);
        let mut bytes = line.as_bytes().to_vec();
        let to = (bytes[at] as u64 + 1 + rng.next() % 127) % 128;
        bytes[at] = to as u8;
        let text = String::from_utf8(bytes).expect("ascii");
        check(
            &format!("byte {at} -> {to:#04x}"),
            &text,
            Expect::ErrOrValid,
        );
    }
    // Nesting past the parser's cap, inside the document and around it.
    let deep = line.replacen("\"twins\":[", &format!("\"twins\":{}", "[".repeat(200)), 1);
    check("nested twins", &deep, Expect::Err);
    let wrapped = format!("{}{line}{}", "[".repeat(200), "]".repeat(200));
    check("nested document", &wrapped, Expect::Err);
    // An overflowing number parses to an infinity, which no field takes.
    let numbers = number_tokens(line);
    for _ in 0..96 {
        let (from, to) = numbers[rng.below(numbers.len())];
        for inf in ["1e999", "-1e999"] {
            let text = format!("{}{inf}{}", &line[..from], &line[to..]);
            let what = format!("{} -> {inf} at {from}", &line[from..to]);
            check(&what, &text, Expect::Err);
        }
    }
    // Ids and counters must be integers.
    for key in [
        "\"shard\":",
        "\"interval\":",
        "\"next_instance\":",
        "\"instance\":",
        "\"user\":",
        "\"video\":",
        "\"attempts\":",
    ] {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in line")) + key.len();
        let end = at + line[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let text = format!("{}.5{}", &line[..end], &line[end..]);
        check(&format!("non-integral {key}"), &text, Expect::Err);
    }
}

/// Decodes one case and checks its outcome; returns whether it decoded.
fn decode(what: &str, text: &str, expect: Expect) -> bool {
    match (ShardCheckpoint::parse(text), expect) {
        (Err(_), _) => false,
        (Ok(ckpt), Expect::ErrOrValid) => {
            let again = ckpt.to_string();
            assert_eq!(
                ShardCheckpoint::parse(&again).as_ref(),
                Ok(&ckpt),
                "{what}: an accepted checkpoint must be valid"
            );
            assert_eq!(ckpt.encoded_len(&Pool::serial()), again.len(), "{what}");
            true
        }
        (Ok(_), Expect::Err) => panic!("{what}: must not decode"),
    }
}

#[test]
fn malformed_checkpoint_lines_fail_cleanly() {
    let line = captured()[0].to_string();
    let (mut cases, mut valid) = (0, 0);
    corpus(&line, 0x5eed, |what, text, expect| {
        cases += 1;
        valid += usize::from(decode(what, text, expect));
    });
    assert_eq!(cases, 585, "the corpus is fixed-size");
    // A flipped digit or a space can leave a valid checkpoint; most
    // mutations must not.
    assert!(valid > 0 && valid < cases / 2, "{valid} of {cases} decoded");
}

/// Decoding cost grows linearly: the corpus over a checkpoint of eight
/// twins costs well under the 64× of one twin's that a quadratic path
/// would.
#[test]
fn malformed_checkpoint_decoding_is_linear_in_input_size() {
    let base = &captured()[0];
    let with_twins = |n: usize| {
        let mut ckpt = base.clone();
        ckpt.twins = base.twins.iter().cycle().take(n).cloned().collect();
        ckpt.to_string()
    };
    let (small, big) = (with_twins(1), with_twins(8));
    let time = |line: &str| {
        let start = Instant::now();
        corpus(line, 7, |what, text, expect| {
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
