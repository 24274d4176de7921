//! Statistical samplers and descriptive statistics.
//!
//! Implemented on top of `rand`'s uniform source so the workspace needs no
//! extra distribution crates. All samplers are deterministic given the
//! caller-supplied RNG, which keeps simulations reproducible.

use rand::Rng;

/// Draws from a standard normal distribution via the Box–Muller transform.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = msvs_types::stats::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would send ln to -inf.
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws from `N(mean, std_dev^2)`.
///
/// # Panics
/// Panics if `std_dev` is negative or either argument is non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        mean.is_finite() && std_dev.is_finite(),
        "normal parameters must be finite"
    );
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Draws from a log-normal distribution where the *underlying* normal has
/// the given mean and standard deviation (both in log-space).
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Draws from an exponential distribution with the given rate `lambda`.
///
/// # Panics
/// Panics if `lambda` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "exponential rate must be positive");
    let u: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    -u.ln() / lambda
}

/// Draws from a Gamma(shape, scale) distribution.
///
/// Uses Marsaglia–Tsang for `shape >= 1` and the boost trick
/// `Gamma(a) = Gamma(a+1) * U^(1/a)` for `shape < 1`.
///
/// # Panics
/// Panics if `shape` or `scale` is not strictly positive.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    assert!(scale > 0.0, "gamma scale must be positive");
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

/// Draws a probability vector from a symmetric Dirichlet with concentration
/// `alpha` over `dim` components.
///
/// Smaller `alpha` yields spikier (more opinionated) preference vectors.
///
/// # Panics
/// Panics if `dim == 0` or `alpha <= 0`.
pub fn dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: f64, dim: usize) -> Vec<f64> {
    assert!(dim > 0, "dirichlet dimension must be positive");
    assert!(alpha > 0.0, "dirichlet concentration must be positive");
    let mut draws: Vec<f64> = (0..dim).map(|_| gamma(rng, alpha, 1.0)).collect();
    let total: f64 = draws.iter().sum();
    if total <= 0.0 {
        // Numerically degenerate; fall back to uniform.
        return vec![1.0 / dim as f64; dim];
    }
    for d in &mut draws {
        *d /= total;
    }
    draws
}

/// Zipf sampler over ranks `0..n` with exponent `s` (rank 0 most popular).
///
/// Uses an inverse-CDF table; construction is `O(n)`, sampling `O(log n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Errors
    /// Returns an error if `n == 0` or `s < 0` or `s` is non-finite.
    pub fn new(n: usize, s: f64) -> crate::Result<Self> {
        if n == 0 {
            return Err(crate::Error::invalid_config("n", "must be positive"));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(crate::Error::invalid_config(
                "s",
                "exponent must be finite and non-negative",
            ));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Ok(Self { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` when the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false // construction guarantees n >= 1
    }

    /// Probability mass of a given rank (0-based).
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }

    /// Samples a rank (0-based, rank 0 most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Samples an index proportionally to the given non-negative weights.
///
/// Returns `None` when the weights are empty or sum to zero.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    let mut last_valid = None;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w <= 0.0 {
            continue;
        }
        last_valid = Some(i);
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    last_valid
}

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; returns 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Empirical cumulative distribution function over observed samples.
///
/// Used by the swiping-probability abstraction: `F(t)` is the fraction of
/// sessions that ended (swiped) at or before watch duration `t`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (NaNs are dropped).
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Self { sorted }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of samples `<= x`. Returns 0.0 when empty.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile); `q` clamped to `[0, 1]`. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Mean of the underlying samples.
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }

    /// Expected value of `min(X, cap)` — the mean sample truncated at `cap`.
    ///
    /// This is the expected engagement time when playback cannot exceed the
    /// video length `cap`.
    pub fn truncated_mean(&self, cap: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let s: f64 = self.sorted.iter().map(|&x| x.min(cap)).sum();
        s / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_has_right_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        assert!((mean(&xs) - 5.0).abs() < 0.1, "mean {}", mean(&xs));
        assert!((std_dev(&xs) - 2.0).abs() < 0.1, "std {}", std_dev(&xs));
    }

    #[test]
    fn exponential_has_right_mean() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 0.5)).collect();
        assert!((mean(&xs) - 2.0).abs() < 0.1);
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_has_right_mean_and_variance() {
        let mut r = rng();
        let (shape, scale) = (3.0, 2.0);
        let xs: Vec<f64> = (0..20_000).map(|_| gamma(&mut r, shape, scale)).collect();
        assert!((mean(&xs) - shape * scale).abs() < 0.2);
        let var = std_dev(&xs).powi(2);
        assert!((var - shape * scale * scale).abs() < 1.0, "var {var}");
    }

    #[test]
    fn gamma_small_shape_is_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(gamma(&mut r, 0.3, 1.0) > 0.0);
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut r = rng();
        for _ in 0..100 {
            let p = dirichlet(&mut r, 0.5, 8);
            assert_eq!(p.len(), 8);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn zipf_pmf_is_monotone_decreasing() {
        let z = Zipf::new(100, 1.1).unwrap();
        for rank in 1..100 {
            assert!(z.pmf(rank) <= z.pmf(rank - 1));
        }
        let total: f64 = (0..100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(10, 1.0).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(rank)).abs() < 0.01,
                "rank {rank}: emp {emp} pmf {}",
                z.pmf(rank)
            );
        }
    }

    #[test]
    fn zipf_rejects_bad_config() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0).unwrap();
        for rank in 0..4 {
            assert!((z.pmf(rank) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = rng();
        let w = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, &[]), None);
        assert_eq!(weighted_index(&mut r, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut r, &[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new([1.0, 2.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.quantile(0.5), 2.0);
    }

    #[test]
    fn ecdf_truncated_mean() {
        let e = Ecdf::new([1.0, 3.0, 5.0]);
        assert!((e.truncated_mean(3.0) - (1.0 + 3.0 + 3.0) / 3.0).abs() < 1e-12);
        assert!((e.truncated_mean(100.0) - 3.0).abs() < 1e-12);
        assert_eq!(Ecdf::default().truncated_mean(3.0), 0.0);
    }

    #[test]
    fn ecdf_drops_nans() {
        let e = Ecdf::new([f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(e.len(), 1);
    }
}
