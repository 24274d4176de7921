//! Helpers shared by the malformed-input corpus tests.

/// SplitMix64: a seeded, dependency-free source for corpus positions.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte ranges of every number token in `text`: a run of number bytes
/// that follows `:`, `[` or `,`, with any spaces or newlines between.
pub fn number_tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let after_separator = |i: usize| {
        let before = bytes[..i].iter().rev().find(|b| !b" \n".contains(b));
        before.is_some_and(|b| b":[,".contains(b))
    };
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if matches!(bytes[i], b'-' | b'0'..=b'9') && after_separator(i) {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || b"+-.eE".contains(&bytes[i])) {
                i += 1;
            }
            tokens.push((start, i));
        } else {
            i += 1;
        }
    }
    tokens
}
