//! A minimal JSON value type with emitter and parser.
//!
//! The workspace runs in environments without `serde_json`, and the
//! telemetry subsystem only needs flat objects of scalars (one journal
//! entry per line), so a ~200-line hand-rolled implementation keeps the
//! crate dependency-free while staying interoperable with standard JSONL
//! tooling.
//!
//! [`write_num`] and [`write_str`] are the one definition of the
//! canonical scalar forms: `Json`'s `Display` and the workspace's
//! streaming encoders (which write large documents without building a
//! tree) both call them, so a streamed document is byte-identical to the
//! same value printed through a `Json` tree. [`write_base64`] and
//! [`decode_base64`] carry packed binary records (a checkpointed twin's
//! series) as one JSON string each.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// spends stack frames per level, so hostile input nested past this
/// returns `Err` instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Largest integer [`Json::as_u64`] accepts, 2^53 − 1: every integer up
/// to it has an exact `f64`, so it parses back to the value written.
/// Seeds and other integers the program writes are bounded by it.
pub const MAX_SAFE_INT: u64 = (1 << 53) - 1;

/// A JSON value. Objects use a [`BTreeMap`] so emission order is
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key` if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric view of this value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view: rejects non-integral numbers and integers above
    /// [`MAX_SAFE_INT`], whose text may name a different integer than the
    /// `f64` it parsed to.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if (0.0..=MAX_SAFE_INT as f64).contains(n) && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String view of this value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document from `input`.
    ///
    /// # Errors
    /// Returns a human-readable message on malformed input, trailing
    /// non-whitespace, or arrays and objects nested more than 128 deep.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `n` in the canonical form [`Json`]'s `Display` uses: integral
/// values below 1e15 in magnitude without a fraction, everything else
/// through `f64`'s shortest round-trip `Display`. Streaming encoders
/// call this so their output is byte-identical to the tree's.
pub fn write_num(w: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(w, "{}", n as i64)
    } else {
        write!(w, "{n}")
    }
}

/// Writes `s` as a quoted JSON string with [`Json`]'s escapes.
pub fn write_str(w: &mut impl fmt::Write, s: &str) -> fmt::Result {
    w.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => w.write_str("\\\"")?,
            '\\' => w.write_str("\\\\")?,
            '\n' => w.write_str("\\n")?,
            '\r' => w.write_str("\\r")?,
            '\t' => w.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => w.write_char(c)?,
        }
    }
    w.write_char('"')
}

/// The standard base64 alphabet (RFC 4648 §4).
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The two characters of every 12-bit value: a 3-byte group encodes as
/// two lookups.
const BASE64_PAIRS: [[u8; 2]; 4096] = {
    let mut table = [[0; 2]; 4096];
    let mut i = 0;
    while i < 4096 {
        table[i] = [BASE64[i >> 6], BASE64[i & 63]];
        i += 1;
    }
    table
};

/// Each byte's 6-bit value in [`BASE64`], or `NOT_BASE64`.
const BASE64_VALUE: [u8; 256] = {
    let mut table = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};
const NOT_BASE64: u8 = 0xff;

/// Writes the four characters of one 3-byte `group` into `out`.
fn encode_group(group: &[u8], out: &mut [u8]) {
    let bits = usize::from(group[0]) << 16 | usize::from(group[1]) << 8 | usize::from(group[2]);
    out[..2].copy_from_slice(&BASE64_PAIRS[bits >> 12]);
    out[2..4].copy_from_slice(&BASE64_PAIRS[bits & 0xfff]);
}

/// Writes `bytes` as a JSON string of padded standard base64. Neither
/// the alphabet nor `=` needs an escape, so this is what [`write_str`]
/// prints for the encoded text; [`decode_base64`] reads it back.
pub fn write_base64(w: &mut impl fmt::Write, bytes: &[u8]) -> fmt::Result {
    // 768 input bytes fill the 1,024-character buffer exactly, so only
    // the last chunk can end in a partial group.
    let mut text = [0u8; 1024];
    w.write_char('"')?;
    for chunk in bytes.chunks(768) {
        let groups = chunk.chunks_exact(3);
        let rest = groups.remainder();
        let mut n = 4 * groups.len();
        for (out, group) in text.chunks_exact_mut(4).zip(groups) {
            encode_group(group, out);
        }
        if !rest.is_empty() {
            // A partial group of g bytes fills g + 1 characters; `=` pads
            // the rest.
            let mut group = [0; 3];
            group[..rest.len()].copy_from_slice(rest);
            encode_group(&group, &mut text[n..n + 4]);
            text[n + 1 + rest.len()..n + 4].fill(b'=');
            n += 4;
        }
        w.write_str(std::str::from_utf8(&text[..n]).expect("base64 is ascii"))?;
    }
    w.write_char('"')
}

/// Decodes the padded standard base64 [`write_base64`] writes (the text
/// inside the quotes). Every byte string has exactly one accepted text.
///
/// # Errors
/// Names the offence: a length that is not a multiple of four, a
/// character outside the alphabet (padding anywhere but the last two
/// places included), or nonzero bits under the padding.
pub fn decode_base64(text: &str) -> Result<Vec<u8>, String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!(
            "base64 length {} is not a multiple of 4",
            text.len()
        ));
    }
    let pad = text
        .iter()
        .rev()
        .take(2)
        .take_while(|&&c| c == b'=')
        .count();
    let body = text.len() - pad;
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    for (q, quad) in text.chunks_exact(4).enumerate() {
        let mut bits = 0u32;
        for (i, &c) in quad.iter().enumerate() {
            let at = 4 * q + i;
            let value = if at < body {
                BASE64_VALUE[c as usize]
            } else {
                0
            };
            if value == NOT_BASE64 {
                return Err(format!("bad base64 character {:?} at {at}", c as char));
            }
            bits = bits << 6 | u32::from(value);
        }
        out.extend_from_slice(&bits.to_be_bytes()[1..]);
    }
    // The padding stands for whole zero bytes; bits under it would be a
    // second text for the same bytes.
    if out.drain(out.len() - pad..).any(|b| b != 0) {
        return Err("nonzero base64 bits under the padding".into());
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // Bulk-consume a run of plain ASCII; validating from
                    // `pos` to end-of-input per character is quadratic on
                    // megabyte-scale documents (checkpoint lines).
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b < 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("ascii bytes are valid utf-8"),
                    );
                }
                Some(_) => {
                    // Decode one multi-byte UTF-8 character from a bounded
                    // window (a code point is at most four bytes).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let c = match std::str::from_utf8(&self.bytes[self.pos..end]) {
                        Ok(s) => s.chars().next().unwrap(),
                        // A trailing char may leave a partial neighbour in
                        // the window; valid_up_to > 0 means the first char
                        // itself decoded cleanly.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&self.bytes[self.pos..self.pos + e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                                .unwrap()
                        }
                        Err(_) => return Err("invalid utf-8 in string".to_string()),
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key {key:?} at byte {key_at}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_flat_object() {
        let v = Json::obj([
            ("name", Json::Str("IntervalCompleted".into())),
            ("k", Json::Num(4.0)),
            ("silhouette", Json::Num(0.518)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let text = v.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_nested_structures_and_numbers() {
        let v = Json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(42.5).to_string(), "42.5");
    }

    #[test]
    fn integers_are_exact_up_to_2_pow_53() {
        let int = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(int("9007199254740991"), Some(MAX_SAFE_INT));
        for text in [
            "9007199254740992",
            "9007199254740993",
            "1e30",
            "1e999",
            "-1",
            "-0.5",
            "2.5",
        ] {
            assert_eq!(int(text), None, "{text}");
        }
        assert_eq!(int("0"), Some(0));
        assert_eq!(int("-0"), Some(0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn rejects_duplicate_keys_by_name_and_offset() {
        let err = Json::parse(r#"{"loss":0.1,"loss":0.9}"#).unwrap_err();
        assert_eq!(err, r#"duplicate key "loss" at byte 12"#);
        let err = Json::parse(r#"{"a":{"b":1, "b":2}}"#).unwrap_err();
        assert_eq!(err, r#"duplicate key "b" at byte 13"#);
        // The same key in sibling objects is fine.
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    fn base64(bytes: &[u8]) -> String {
        let mut text = String::new();
        write_base64(&mut text, bytes).unwrap();
        text
    }

    #[test]
    fn base64_matches_the_rfc_vectors_and_round_trips() {
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(base64(plain.as_bytes()), format!("\"{encoded}\""));
            assert_eq!(decode_base64(encoded).unwrap(), plain.as_bytes());
        }
        // Past one 768-byte chunk, every byte value and every tail length.
        for len in [767, 768, 769, 770, 2000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let text = base64(&bytes);
            assert_eq!(Json::parse(&text).unwrap().to_string(), text, "canonical");
            assert_eq!(decode_base64(&text[1..text.len() - 1]).unwrap(), bytes);
        }
    }

    #[test]
    fn base64_decoding_rejects_every_second_spelling() {
        for (text, err) in [
            ("Zm9", "length 3 is not a multiple of 4"),
            ("Zg", "length 2 is not a multiple of 4"),
            ("Zm9v=", "length 5"),
            ("Zm-v", "bad base64 character '-' at 2"),
            ("Zm9_", "bad base64 character '_' at 3"),
            ("Zm 9", "bad base64 character ' ' at 2"),
            ("Z===", "bad base64 character '=' at 1"),
            ("====", "bad base64 character '=' at 0"),
            ("Zg==Zm9v", "bad base64 character '=' at 2"),
            ("Zh==", "nonzero base64 bits under the padding"),
            ("Zm9=", "nonzero base64 bits under the padding"),
        ] {
            let got = decode_base64(text).unwrap_err();
            assert!(got.contains(err), "{text}: {got}");
        }
    }

    /// `depth` arrays, or objects keyed `"k"`, wrapped around `0`.
    fn nested(depth: usize, array: bool) -> String {
        let (open, close) = if array { ("[", "]") } else { ("{\"k\":", "}") };
        format!("{}0{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for array in [true, false] {
            let v = Json::parse(&nested(MAX_DEPTH, array)).unwrap();
            assert_eq!(v.to_string(), nested(MAX_DEPTH, array));
            let err = Json::parse(&nested(MAX_DEPTH + 1, array)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
    }
}
