//! Exact statistics over raw samples: quantiles, ratios that carry their
//! base, and a bit-level digest of the scored predictions.

/// Median of `samples`: the middle value, or the mean of the two middle
/// values for an even count. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. `None` when empty or `q` is outside `(0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let sorted = sorted(samples);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `q` quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    quantile(samples, q).map_or(0, |v| samples.iter().filter(|&&s| s > v).count())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A ratio kept together with its numerator and denominator, so every
/// reported share can be shown with its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Self { num, den }
    }

    /// `num / den`, or `0` for an empty base.
    pub fn value(&self) -> f64 {
        if self.den > 0.0 {
            self.num / self.den
        } else {
            0.0
        }
    }
}

/// FNV-1a over the bits of each scored interval's
/// `(k, predicted_radio, predicted_computing)`: equal digests mean
/// bit-identical predictions.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, k: usize, radio: f64, computing: f64) {
        for word in [k as u64, radio.to_bits(), computing.to_bits()] {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.9), Some(90.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.001), Some(1.0));
        assert_eq!(quantile(&s, 0.0), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(beyond(&s, 0.9), 10);
    }

    #[test]
    fn a_hundred_samples_leave_ten_beyond_p90() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(&s, 0.9), 10);
        assert_eq!(beyond(&s[..99], 0.9), 9);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!((r.num, r.den), (3.0, 4.0));
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
    }

    #[test]
    fn digest_tracks_prediction_bits() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(3, 1.5, 2.0e9);
        b.add(3, 1.5, 2.0e9);
        assert_eq!(a.hex(), b.hex());
        b.add(3, 1.5, 2.0e9);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.add(3, 1.5 + f64::EPSILON, 2.0e9);
        assert_ne!(a.hex(), c.hex());
    }
}
