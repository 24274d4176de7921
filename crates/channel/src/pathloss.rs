//! Large-scale path loss.

use msvs_types::Meters;
use rand::Rng;

/// Log-distance path loss with optional log-normal shadowing.
///
/// `PL(d) = PL(d0) + 10 n log10(d / d0) + X_sigma`, the standard urban
/// macro model. Defaults follow a 2.6 GHz campus deployment: reference loss
/// 38 dB at 1 m, exponent 3.5, shadowing σ = 6 dB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Path loss at the reference distance, dB.
    pub reference_loss_db: f64,
    /// Reference distance, metres.
    pub reference_distance: f64,
    /// Path-loss exponent `n` (2 free space, 3–4 urban).
    pub exponent: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        Self {
            reference_loss_db: 38.0,
            reference_distance: 1.0,
            exponent: 3.5,
            shadowing_sigma_db: 6.0,
        }
    }
}

impl PathLossModel {
    /// Free-space variant (exponent 2, no shadowing) for tests/calibration.
    pub fn free_space() -> Self {
        Self {
            reference_loss_db: 38.0,
            reference_distance: 1.0,
            exponent: 2.0,
            shadowing_sigma_db: 0.0,
        }
    }

    /// Deterministic (median) path loss at `distance`, in dB.
    ///
    /// Distances below the reference distance clamp to it.
    pub fn median_loss_db(&self, distance: Meters) -> f64 {
        let d = distance.value().max(self.reference_distance);
        self.reference_loss_db + 10.0 * self.exponent * (d / self.reference_distance).log10()
    }

    /// Path loss with a fresh shadowing draw, in dB.
    pub fn sample_loss_db<R: Rng + ?Sized>(&self, rng: &mut R, distance: Meters) -> f64 {
        self.median_loss_db(distance) + msvs_types::stats::normal(rng, 0.0, self.shadowing_sigma_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn loss_increases_with_distance() {
        let m = PathLossModel::default();
        let mut prev = 0.0;
        for d in [1.0, 10.0, 50.0, 200.0, 800.0] {
            let loss = m.median_loss_db(Meters(d));
            assert!(loss > prev, "loss must grow with distance");
            prev = loss;
        }
    }

    #[test]
    fn reference_distance_clamps() {
        let m = PathLossModel::default();
        assert_eq!(
            m.median_loss_db(Meters(0.001)),
            m.median_loss_db(Meters(1.0))
        );
    }

    #[test]
    fn free_space_slope_is_20db_per_decade() {
        let m = PathLossModel::free_space();
        let l10 = m.median_loss_db(Meters(10.0));
        let l100 = m.median_loss_db(Meters(100.0));
        assert!((l100 - l10 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn shadowing_has_configured_spread() {
        let m = PathLossModel::default();
        let mut rng = StdRng::seed_from_u64(8);
        let samples: Vec<f64> = (0..5000)
            .map(|_| m.sample_loss_db(&mut rng, Meters(100.0)))
            .collect();
        let median = m.median_loss_db(Meters(100.0));
        let mean = msvs_types::stats::mean(&samples);
        let sd = msvs_types::stats::std_dev(&samples);
        assert!((mean - median).abs() < 0.3, "shadowing is zero-mean");
        assert!((sd - 6.0).abs() < 0.3, "sigma should be ~6 dB, got {sd}");
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let m = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            m.sample_loss_db(&mut rng, Meters(100.0)),
            m.median_loss_db(Meters(100.0))
        );
    }
}
