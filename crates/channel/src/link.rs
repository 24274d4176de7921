//! Link budget: SNR and spectral efficiency.

use msvs_types::{Hertz, Meters, Watts};
use rand::Rng;

use crate::fading::{Fading, RayleighFading, RicianFading};
use crate::pathloss::PathLossModel;

/// Which small-scale fading process the link applies to SNR samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingKind {
    /// No small-scale fading (shadowing only).
    None,
    /// Rayleigh (non-line-of-sight), the default for urban campuses.
    Rayleigh,
    /// Rician with the given K factor (line-of-sight links).
    Rician(f64),
}

/// Static radio parameters of a base-station downlink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// BS transmit power (per resource block's share of the carrier).
    pub tx_power: Watts,
    /// Large-scale propagation model.
    pub path_loss: PathLossModel,
    /// OFDMA resource-block bandwidth (LTE/NR numerology 0: 180 kHz).
    pub rb_bandwidth: Hertz,
    /// Receiver noise figure, dB.
    pub noise_figure_db: f64,
    /// Small-scale fading applied by [`Link::sample_snr_db`].
    pub fading: FadingKind,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            // 46 dBm carrier power shared across 100 RBs -> ~26 dBm per RB.
            tx_power: Watts::from_dbm(26.0),
            path_loss: PathLossModel::default(),
            rb_bandwidth: Hertz::from_mhz(0.18),
            noise_figure_db: 7.0,
            fading: FadingKind::Rayleigh,
        }
    }
}

/// Thermal noise density, dBm/Hz.
const THERMAL_NOISE_DBM_HZ: f64 = -174.0;

/// A downlink between a BS and a user; computes SNR and spectral
/// efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    config: LinkConfig,
    /// `config.tx_power` in dBm, computed once.
    tx_dbm: f64,
    /// [`Link::noise_power_dbm`], computed once.
    noise_dbm: f64,
}

impl Link {
    /// Builds a link evaluator.
    pub fn new(config: LinkConfig) -> Self {
        let noise_dbm = THERMAL_NOISE_DBM_HZ
            + 10.0 * config.rb_bandwidth.value().log10()
            + config.noise_figure_db;
        Self {
            config,
            tx_dbm: config.tx_power.as_dbm(),
            noise_dbm,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Noise power over one resource block, dBm.
    pub fn noise_power_dbm(&self) -> f64 {
        self.noise_dbm
    }

    /// Mean (fading-averaged, median-shadowing) SNR at `distance`, dB.
    pub fn mean_snr_db(&self, distance: Meters) -> f64 {
        let rx_dbm = self.tx_dbm - self.config.path_loss.median_loss_db(distance);
        rx_dbm - self.noise_dbm
    }

    /// Instantaneous SNR sample at `distance`, dB: shadowing plus the
    /// configured small-scale fading applied.
    pub fn sample_snr_db<R: Rng + ?Sized>(&self, rng: &mut R, distance: Meters) -> f64 {
        let loss = self.config.path_loss.sample_loss_db(rng, distance);
        let gain = match self.config.fading {
            FadingKind::None => 1.0,
            FadingKind::Rayleigh => RayleighFading::new().sample_power_gain(rng),
            FadingKind::Rician(k) => RicianFading::new(k).sample_power_gain(rng),
        };
        let fade_db = 10.0 * gain.max(1e-12).log10();
        self.tx_dbm - loss + fade_db - self.noise_dbm
    }

    /// Achievable spectral efficiency at the given SNR, bits/s/Hz, via the
    /// CQI table.
    pub fn spectral_efficiency(&self, snr_db: f64) -> f64 {
        cqi_efficiency(snr_db)
    }

    /// Sustainable rate over `n_rb` resource blocks at `snr_db`.
    pub fn rate_over_rbs(&self, snr_db: f64, n_rb: f64) -> msvs_types::Mbps {
        let bps = self.spectral_efficiency(snr_db) * self.config.rb_bandwidth.value() * n_rb;
        msvs_types::Mbps::from_bits_per_sec(bps)
    }
}

/// 3GPP-style CQI table (15 entries, TS 36.213 table 7.2.3-1): SNR
/// thresholds (dB) and the corresponding modulation-and-coding spectral
/// efficiency (bits/s/Hz). Below the first threshold the link is in outage
/// (efficiency 0).
const CQI_TABLE: [(f64, f64); 15] = [
    (-6.7, 0.1523),
    (-4.7, 0.2344),
    (-2.3, 0.3770),
    (0.2, 0.6016),
    (2.4, 0.8770),
    (4.3, 1.1758),
    (5.9, 1.4766),
    (8.1, 1.9141),
    (10.3, 2.4063),
    (11.7, 2.7305),
    (14.1, 3.3223),
    (16.3, 3.9023),
    (18.7, 4.5234),
    (21.0, 5.1152),
    (22.7, 5.5547),
];

/// Spectral efficiency for a given SNR from the CQI lookup table.
///
/// # Examples
/// ```
/// # use msvs_channel::link::cqi_efficiency;
/// assert_eq!(cqi_efficiency(-10.0), 0.0); // outage
/// assert!(cqi_efficiency(25.0) > 5.0);    // top MCS
/// ```
pub fn cqi_efficiency(snr_db: f64) -> f64 {
    let mut eff = 0.0;
    for (threshold, e) in CQI_TABLE {
        if snr_db >= threshold {
            eff = e;
        } else {
            break;
        }
    }
    eff
}

/// Shannon-capacity spectral efficiency (upper bound used in ablations).
pub fn shannon_efficiency(snr_db: f64) -> f64 {
    (1.0 + 10f64.powf(snr_db / 10.0)).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_power_matches_hand_calc() {
        let link = Link::new(LinkConfig::default());
        // -174 + 10log10(180e3) + 7 = -174 + 52.55 + 7 ≈ -114.4 dBm.
        assert!((link.noise_power_dbm() + 114.45).abs() < 0.1);
    }

    #[test]
    fn snr_decreases_with_distance() {
        let link = Link::new(LinkConfig::default());
        let snrs: Vec<f64> = [10.0, 50.0, 150.0, 400.0, 900.0]
            .iter()
            .map(|&d| link.mean_snr_db(Meters(d)))
            .collect();
        assert!(snrs.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn campus_cell_edge_is_usable() {
        // A user ~350 m from the BS should still get a positive-efficiency MCS.
        let link = Link::new(LinkConfig::default());
        let snr = link.mean_snr_db(Meters(350.0));
        assert!(
            link.spectral_efficiency(snr) > 0.0,
            "cell edge in outage: snr {snr} dB"
        );
    }

    #[test]
    fn cqi_table_is_monotone() {
        let mut prev = -1.0;
        for snr in (-10..30).map(|x| x as f64) {
            let e = cqi_efficiency(snr);
            assert!(e >= prev, "efficiency must be monotone in SNR");
            prev = e;
        }
    }

    #[test]
    fn cqi_below_shannon() {
        for snr in (-6..25).map(|x| x as f64) {
            assert!(
                cqi_efficiency(snr) <= shannon_efficiency(snr) + 1e-9,
                "CQI cannot beat Shannon at {snr} dB"
            );
        }
    }

    #[test]
    fn rate_scales_linearly_with_rbs() {
        let link = Link::new(LinkConfig::default());
        let r1 = link.rate_over_rbs(15.0, 1.0);
        let r10 = link.rate_over_rbs(15.0, 10.0);
        assert!((r10.value() - 10.0 * r1.value()).abs() < 1e-9);
    }

    #[test]
    fn sampled_snr_is_centered_near_mean() {
        let link = Link::new(LinkConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| link.sample_snr_db(&mut rng, Meters(100.0)))
            .collect();
        let mean_sample = msvs_types::stats::mean(&samples);
        let mean = link.mean_snr_db(Meters(100.0));
        // Rayleigh fading in dB has mean ~ -2.5 dB (Euler-Mascheroni), so
        // the sampled mean sits a little below the fading-averaged mean.
        assert!(
            (mean_sample - (mean - 2.5)).abs() < 0.5,
            "sampled {mean_sample}, analytic {mean}"
        );
    }
}

#[cfg(test)]
mod fading_kind_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spread(kind: FadingKind) -> f64 {
        let link = Link::new(LinkConfig {
            fading: kind,
            path_loss: crate::pathloss::PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..5000)
            .map(|_| link.sample_snr_db(&mut rng, Meters(100.0)))
            .collect();
        msvs_types::stats::std_dev(&xs)
    }

    #[test]
    fn fading_kinds_order_by_variability() {
        let none = spread(FadingKind::None);
        let rician = spread(FadingKind::Rician(10.0));
        let rayleigh = spread(FadingKind::Rayleigh);
        assert!(none < 1e-9, "no fading means deterministic SNR, got {none}");
        assert!(rician < rayleigh, "LOS fades less: {rician} vs {rayleigh}");
        assert!(rician > 0.1, "rician still fades");
    }

    #[test]
    fn no_fading_matches_mean_snr() {
        let link = Link::new(LinkConfig {
            fading: FadingKind::None,
            path_loss: crate::pathloss::PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(10);
        let s = link.sample_snr_db(&mut rng, Meters(200.0));
        assert!((s - link.mean_snr_db(Meters(200.0))).abs() < 1e-9);
    }
}
