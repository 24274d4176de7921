//! Malformed-input corpus for the two profile decoders: every committed
//! `results/fault_profiles/*.json` through `FaultPlan::parse` and every
//! `results/slo_profiles/*.json` through `SloPolicy::parse`.
//!
//! Each profile yields a seeded corpus in the shape of
//! `tests/checkpoint_codec.rs`: every truncation, byte flips, nesting past
//! the parser's cap, `±1e999` in place of each number, 2^53 + 1 and `1e30`
//! in place of each integer, and a duplicated key. Truncations, nesting,
//! infinities, out-of-range integers and duplicates must fail; a byte
//! flip may instead decode to a plan or policy that validates and
//! round-trips through its own encoder. No case may panic.

mod common;

use std::path::Path;

use common::{number_tokens, Mix};
use msvs::faults::FaultPlan;
use msvs::telemetry::{Json, SloPolicy};

/// What decoding one corpus case must yield.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Err,
    ErrOrValid,
}

/// The trimmed text of every `*.json` file in `results/<dir>`, by name.
fn profiles(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{} holds profiles", dir.display());
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("profile reads");
            (path.display().to_string(), text.trim_end().to_string())
        })
        .collect()
}

/// Runs the corpus over one profile `text`, handing each case to `check`
/// as `(what, input, expectation)`.
fn corpus(text: &str, seed: u64, mut check: impl FnMut(&str, &str, Expect)) {
    let mut rng = Mix(seed);
    // Truncations: no strict prefix of an object is a document.
    for at in 0..text.len() {
        check(&format!("truncated at {at}"), &text[..at], Expect::Err);
    }
    // Single-byte flips to another ASCII byte (profiles are ASCII, so
    // the result stays a `str`).
    for _ in 0..192 {
        let at = rng.below(text.len());
        let mut bytes = text.as_bytes().to_vec();
        let to = (bytes[at] as u64 + 1 + rng.next() % 127) % 128;
        bytes[at] = to as u8;
        let flipped = String::from_utf8(bytes).expect("ascii");
        check(
            &format!("byte {at} -> {to:#04x}"),
            &flipped,
            Expect::ErrOrValid,
        );
    }
    // Nesting past the parser's cap, inside the document and around it.
    let colon = text.find(':').expect("a profile has a member") + 1;
    let deep = format!("{}{}{}", &text[..colon], "[".repeat(200), &text[colon..]);
    check("nested member", &deep, Expect::Err);
    let wrapped = format!("{}{text}{}", "[".repeat(200), "]".repeat(200));
    check("nested document", &wrapped, Expect::Err);
    // An overflowing number parses to an infinity, which no field takes,
    // and no integer field takes one past 2^53 - 1.
    for (from, to) in number_tokens(text) {
        let integer = text[from..to].bytes().all(|b| b.is_ascii_digit());
        let integers: &[&str] = if integer {
            &["9007199254740993", "1e30"]
        } else {
            &[]
        };
        for bad in ["1e999", "-1e999"].iter().chain(integers) {
            let replaced = format!("{}{bad}{}", &text[..from], &text[to..]);
            check(
                &format!("{} -> {bad} at {from}", &text[from..to]),
                &replaced,
                Expect::Err,
            );
        }
    }
    // The first member repeated: the later value must not win silently.
    if let Ok(Json::Obj(map)) = Json::parse(text) {
        if let Some((key, value)) = map.iter().next() {
            let body = text.strip_prefix('{').expect("an object profile");
            let duplicated = format!("{{{}:{value},{body}", Json::Str(key.clone()));
            check(&format!("duplicated {key:?}"), &duplicated, Expect::Err);
        }
    }
}

/// Runs the corpus over every profile in `results/<dir>` with `decode`,
/// which returns `Some(error)` on rejection and checks an accepted value
/// itself. Returns `(cases, decoded)`.
fn run(dir: &str, decode: impl Fn(&str, &str) -> Option<String>) -> (usize, usize) {
    let (mut cases, mut decoded) = (0, 0);
    for (i, (path, text)) in profiles(dir).iter().enumerate() {
        assert!(
            decode(path, text).is_none(),
            "{path}: the committed profile decodes"
        );
        corpus(text, 0x5eed + i as u64, |what, input, expect| {
            cases += 1;
            match (decode(what, input), expect) {
                (Some(_), _) => {}
                (None, Expect::ErrOrValid) => decoded += 1,
                (None, Expect::Err) => panic!("{path}: {what}: must not decode"),
            }
        });
    }
    (cases, decoded)
}

#[test]
fn malformed_fault_profiles_fail_cleanly() {
    let (cases, decoded) = run("fault_profiles", |what, text| {
        match FaultPlan::parse(text) {
            Err(e) => Some(e.to_string()),
            Ok(plan) => {
                plan.validate()
                    .unwrap_or_else(|e| panic!("{what}: accepted an invalid plan: {e}"));
                let again = FaultPlan::parse(&plan.to_json().to_string());
                assert_eq!(again.ok(), Some(plan), "{what}: the plan round-trips");
                None
            }
        }
    });
    assert!(decoded < cases / 2, "{decoded} of {cases} decoded");
}

#[test]
fn malformed_slo_profiles_fail_cleanly() {
    let (cases, decoded) = run("slo_profiles", |what, text| match SloPolicy::parse(text) {
        Err(e) => Some(e),
        Ok(policy) => {
            policy
                .validate()
                .unwrap_or_else(|e| panic!("{what}: accepted an invalid policy: {e:?}"));
            let again = SloPolicy::parse(&policy.to_json().to_string());
            assert_eq!(again, Ok(policy), "{what}: the policy round-trips");
            None
        }
    });
    assert!(decoded < cases / 2, "{decoded} of {cases} decoded");
}
