//! The `msvs-checkpoint/v3` codec on real captures, taken with
//! `Simulation::checkpoint_shards` (what `msvs checkpoint` writes) while
//! a 4-shard `bs-crash` run has shard 1 down and again after its
//! restore:
//!
//! - every captured checkpoint parses back equal from its streamed
//!   text, and the text is canonical JSON (a `Json` tree prints it back
//!   byte-identical);
//! - every series value parses back with the same bits (`-0.0`, the
//!   smallest subnormal and 17-digit values included);
//! - a seeded corpus of malformed variants of a captured line
//!   (truncations, byte flips, nesting past the parser's cap, overflowing
//!   `1e999` numbers, non-integral ids, damaged base64 series blobs) and
//!   a real `msvs-checkpoint/v2` line decode to `Err` or to a valid
//!   checkpoint, never panic, and cost time linear in the input; each
//!   damaged blob and the v2 line fail by name.

mod common;

use std::time::{Duration, Instant};

use common::{number_tokens, Mix};
use msvs::core::{CompressorConfig, GroupingConfig, SchemeConfig};
use msvs::faults::FaultPlan;
use msvs::shard::{CheckpointEntry, ShardCheckpoint};
use msvs::sim::{Simulation, SimulationConfig};
use msvs::telemetry::json::{decode_base64, write_base64};
use msvs::telemetry::Json;
use msvs::types::{Position, SimDuration, SimTime, UserId};
use msvs::udt::{SyncTracker, UserDigitalTwin};

const SHARDS: usize = 4;

/// `bs-crash` takes shard 1 down at interval 1 for two intervals, so
/// four scored intervals cover the crash, the dark window and the
/// restore.
const INTERVALS: usize = 4;

/// The shard `bs-crash` takes down.
const CRASHED: usize = 1;

/// A 24-user, 4-shard run under `bs-crash`, stepped one interval at a
/// time. Returns every non-empty checkpoint `checkpoint_shards` takes
/// in the interval shard 1 goes down and in the one it is restored.
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
    let mut transitions = 0;
    let mut was_down = false;
    for interval in 0..INTERVALS {
        sim.run_interval(interval).expect("interval runs");
        let down = sim.store().is_down(CRASHED);
        if down != was_down {
            transitions += 1;
            let taken = sim.checkpoint_shards();
            assert_eq!(taken.len(), SHARDS, "one checkpoint per shard");
            assert_eq!(
                taken[CRASHED].is_empty(),
                down,
                "interval {interval}: a crashed shard owns nobody, a restored one its users"
            );
            ckpts.extend(taken.into_iter().filter(|c| !c.is_empty()));
        }
        was_down = down;
    }
    assert_eq!(transitions, 2, "bs-crash downs shard 1 and restores it");
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
        assert_eq!(
            Json::parse(&text).expect("valid JSON").to_string(),
            text,
            "shard {}: the streamed text is canonical",
            ckpt.shard
        );
    }
}

/// Every series word of every twin, in order: each sample's time and
/// the bits of its values. `ShardCheckpoint`'s `PartialEq` compares
/// `f64`s with `==`, which calls `-0.0` equal to `0.0`.
fn series_bits(ckpt: &ShardCheckpoint) -> Vec<u64> {
    let mut bits = Vec::new();
    for twin in ckpt.twins.iter().map(|e| &e.twin) {
        for (t, snr) in twin.channel_series().iter() {
            bits.extend([t.0, snr.to_bits()]);
        }
        for (t, p) in twin.location_series().iter() {
            bits.extend([t.0, p.x.to_bits(), p.y.to_bits()]);
        }
        for (t, w) in twin.watch_series().iter() {
            bits.extend([t.0, w.watched.0, w.video_duration.0, u64::from(w.video.0)]);
            bits.extend([w.category.index(), w.level.index()].map(|i| i as u64));
            bits.push(u64::from(w.completed));
        }
    }
    bits
}

#[test]
fn series_values_round_trip_bit_for_bit() {
    let mut twin = UserDigitalTwin::new(UserId(7));
    let values = [-0.0, 5e-324, 0.1 + 0.2, -1.234_567_890_123_456_7e-7];
    for (i, v) in (0u64..).zip(values) {
        assert!(twin.update_channel(SimTime::from_secs(i), v));
        assert!(twin.update_location(SimTime::from_secs(i), Position::new(v, -v)));
    }
    let hand_built = ShardCheckpoint {
        shard: 0,
        interval: 1,
        next_instance: 1,
        twins: vec![CheckpointEntry {
            twin,
            tracker: SyncTracker::new(),
        }],
    };
    for ckpt in captured().into_iter().chain([hand_built]) {
        let back = ShardCheckpoint::parse(&ckpt.to_string()).expect("own output parses");
        assert_eq!(
            series_bits(&back),
            series_bits(&ckpt),
            "shard {}: every series value keeps its bits",
            ckpt.shard
        );
    }
}

/// A `msvs-checkpoint/v2` line as that version's encoder wrote it: one
/// twin whose series are JSON arrays of decimal numbers.
const V2_LINE: &str = concat!(
    r#"{"interval":2,"next_instance":1099511627778,"schema":"msvs-checkpoint/v2","shard":1,"#,
    r#""twins":[{"tracker":{"last_channel_ms":6000,"last_location_ms":6000,"#,
    r#""last_preference_ms":null,"retries_sent":0,"retry_channel":{"attempts":0,"next_ms":null},"#,
    r#""retry_location":{"attempts":1,"next_ms":8000},"#,
    r#""retry_preference":{"attempts":0,"next_ms":null},"updates_sent":2},"#,
    r#""twin":{"channel":[[1000,12.5],[6000,-3.75]],"instance":1099511627777,"#,
    r#""location":[[1000,7.5,2.25]],"#,
    r#""preference":[0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125],"#,
    r#""preference_updated_ms":null,"revs":[2,1,1,0],"user":3,"#,
    r#""watches":[{"category":2,"completed":false,"duration_ms":20000,"level":1,"#,
    r#""t_ms":4000,"video":7,"watched_ms":9000}]}}]}"#,
);

/// What decoding one corpus case must yield.
#[derive(Clone, Copy, Debug)]
enum Expect<'a> {
    Err,
    /// An error whose message contains this text.
    ErrNaming(&'a str),
    ErrOrValid,
}

/// One base64 series blob of a captured line: where its text sits, the
/// index of the twin it belongs to, and its decoded bytes.
struct Blob {
    from: usize,
    to: usize,
    twin: usize,
    bytes: Vec<u8>,
}

impl Blob {
    /// The first non-empty `key` blob in `line`.
    fn find(line: &str, key: &str) -> Self {
        let open = format!("\"{key}\":\"");
        line.match_indices(&open)
            .map(|(at, _)| {
                let from = at + open.len();
                let to = from + line[from..].find('"').expect("closing quote");
                let twin = line[..at].matches("\"tracker\":").count() - 1;
                let bytes = decode_base64(&line[from..to]).expect("captured blob decodes");
                Blob {
                    from,
                    to,
                    twin,
                    bytes,
                }
            })
            .find(|b| b.to > b.from)
            .unwrap_or_else(|| panic!("no matching non-empty {key} blob"))
    }

    /// `line` with this blob's text replaced by `text`.
    fn replaced(&self, line: &str, text: &str) -> String {
        format!("{}{text}{}", &line[..self.from], &line[self.to..])
    }

    /// `line` with this blob re-encoded from `bytes`.
    fn encoded(&self, line: &str, bytes: &[u8]) -> String {
        let mut text = String::new();
        write_base64(&mut text, bytes).expect("a String never fails");
        self.replaced(line, &text[1..text.len() - 1])
    }

    /// `line` with word `word` of record `record` (of `words` words
    /// each) set to `value`.
    fn with_word(
        &self,
        line: &str,
        words: usize,
        record: usize,
        word: usize,
        value: u64,
    ) -> String {
        let mut bytes = self.bytes.clone();
        let at = 8 * (words * record + word);
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        self.encoded(line, &bytes)
    }
}

/// Damaged series blobs: each must fail, naming its twin and field.
fn blob_damage(line: &str, rng: &mut Mix, check: &mut impl FnMut(&str, &str, Expect)) {
    for (key, words) in [("channel", 2), ("location", 3), ("watches", 4)] {
        let blob = Blob::find(line, key);
        let field = format!("twins[{}].twin: {key}", blob.twin);
        let records = blob.bytes.len() / (8 * words);
        // A byte outside the standard alphabet (base64url's `-`/`_`
        // among them) anywhere in the text.
        let alphabet = format!("{field}: bad base64 character");
        for bad in ["-", "_", "*", " "] {
            let at = blob.from + rng.below(blob.to - blob.from);
            let text = format!("{}{bad}{}", &line[..at], &line[at + 1..]);
            check(
                &format!("{key} {bad:?} at {at}"),
                &text,
                Expect::ErrNaming(&alphabet),
            );
        }
        // Truncated or over-long, by a character, a quad or a record's
        // worth of bytes give or take one.
        let text = &line[blob.from..blob.to];
        for (what, damaged) in [
            (
                "one char short",
                blob.replaced(line, &text[..text.len() - 1]),
            ),
            (
                "one quad short",
                blob.replaced(line, &text[..text.len() - 4]),
            ),
            ("one quad long", blob.replaced(line, &format!("{text}AAAA"))),
            (
                "one byte short",
                blob.encoded(line, &blob.bytes[..blob.bytes.len() - 1]),
            ),
            (
                "one byte long",
                blob.encoded(line, &[&blob.bytes[..], &[0]].concat()),
            ),
            (
                "one word long",
                blob.encoded(line, &[&blob.bytes[..], &[7; 8]].concat()),
            ),
        ] {
            check(
                &format!("{key} {what}"),
                &damaged,
                Expect::ErrNaming(&field),
            );
        }
        let record = rng.below(records);
        let field = format!("twins[{}].twin: {key}[{record}]", blob.twin);
        let naming = |suffix: &str| format!("{field}{suffix}");
        let cases: Vec<(String, usize, u64, String)> = match key {
            "channel" => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 100.5]
                .iter()
                .map(|v| (format!("snr {v}"), 1, v.to_bits(), naming(" snr_db")))
                .collect(),
            "location" => vec![
                ("x NaN".into(), 1, f64::NAN.to_bits(), field.clone()),
                (
                    "y -inf".into(),
                    2,
                    f64::NEG_INFINITY.to_bits(),
                    field.clone(),
                ),
            ],
            _ => {
                let word = u64::from_le_bytes(
                    blob.bytes[32 * record + 24..32 * record + 32]
                        .try_into()
                        .unwrap(),
                );
                let set = |shift: u32, v: u64| word & !(0xff << shift) | v << shift;
                vec![
                    ("category 8".into(), 3, set(32, 8), naming(".category")),
                    ("category 255".into(), 3, set(32, 255), naming(".category")),
                    ("level 255".into(), 3, set(40, 255), naming(".level")),
                    ("completed 2".into(), 3, set(48, 2), naming(".completed")),
                    ("top byte set".into(), 3, set(56, 1), naming(".completed")),
                ]
            }
        };
        for (what, word, value, field) in &cases {
            let text = blob.with_word(line, words, record, *word, *value);
            check(
                &format!("{key}[{record}] {what}"),
                &text,
                Expect::ErrNaming(field),
            );
        }
    }
    // Padding: stripped, moved into the body, or hiding nonzero bits.
    // The blob is cut to 3k + 1 bytes, which encode ending in `==`; the
    // base64 checks come before the record-length check.
    let blob = Blob::find(line, "channel");
    let field = format!("twins[{}].twin: channel", blob.twin);
    let len = blob.bytes.len();
    let mut text = String::new();
    write_base64(&mut text, &blob.bytes[..len - (len + 2) % 3]).unwrap();
    let text = text.trim_matches('"');
    assert!(text.ends_with("=="), "{text}");
    let body = text.trim_end_matches('=');
    let last = body.len() - 1;
    for (what, damaged, reason) in [
        ("padding stripped", body.to_string(), "base64 length"),
        (
            "padding moved into the body",
            format!("{}={}", &body[..last], &text[last + 1..]),
            "bad base64 character '='",
        ),
        (
            // `/` is 63: its low bits, which the padding covers, are set.
            "nonzero bits under the padding",
            format!("{}/{}", &body[..last], &text[last + 1..]),
            "nonzero base64 bits under the padding",
        ),
    ] {
        let damaged = blob.replaced(line, &damaged);
        let naming = format!("{field}: {reason}");
        check(
            &format!("channel {what}"),
            &damaged,
            Expect::ErrNaming(&naming),
        );
    }
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
        "\"attempts\":",
    ] {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in line")) + key.len();
        let end = at + line[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let text = format!("{}.5{}", &line[..end], &line[end..]);
        check(&format!("non-integral {key}"), &text, Expect::Err);
    }
    blob_damage(line, &mut rng, &mut check);
    // The previous layout fails on its schema tag, before any field.
    check(
        "v2 line",
        V2_LINE,
        Expect::ErrNaming("got 'msvs-checkpoint/v2'"),
    );
}

/// Decodes one case and checks its outcome; returns whether it decoded.
fn decode(what: &str, text: &str, expect: Expect) -> bool {
    match (ShardCheckpoint::parse(text), expect) {
        (Err(err), Expect::ErrNaming(field)) => {
            assert!(err.contains(field), "{what}: {err:?} must name {field:?}");
            false
        }
        (Err(_), _) => false,
        (Ok(ckpt), Expect::ErrOrValid) => {
            let again = ckpt.to_string();
            assert_eq!(
                ShardCheckpoint::parse(&again).as_ref(),
                Ok(&ckpt),
                "{what}: an accepted checkpoint must be valid"
            );
            true
        }
        (Ok(_), Expect::Err | Expect::ErrNaming(_)) => panic!("{what}: must not decode"),
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
    assert_eq!(cases, 629, "the corpus is fixed-size");
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
