//! Physical unit newtypes.
//!
//! Radio and compute quantities flow through many layers of the system; the
//! unit wrappers here keep megabits, hertz, metres, cycles, and resource
//! blocks statically distinct (C-NEWTYPE) while staying `Copy` and cheap.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in the canonical unit.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` when the quantity is a finite, non-negative number.
            pub fn is_valid(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.3} ", $unit), self.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// Data rate in megabits per second.
    Mbps,
    "Mbps"
);
unit_newtype!(
    /// Frequency or bandwidth in hertz.
    Hertz,
    "Hz"
);
unit_newtype!(
    /// Distance in metres.
    Meters,
    "m"
);
unit_newtype!(
    /// Transmit power in watts.
    Watts,
    "W"
);
unit_newtype!(
    /// Compute work in CPU cycles.
    CpuCycles,
    "cycles"
);
unit_newtype!(
    /// Radio resource demand in OFDMA resource blocks (may be fractional
    /// when expressing an average demand over an interval).
    ResourceBlocks,
    "RB"
);

impl Mbps {
    /// Converts the rate to bits per second.
    ///
    /// # Examples
    /// ```
    /// # use msvs_types::Mbps;
    /// assert_eq!(Mbps(1.5).as_bits_per_sec(), 1_500_000.0);
    /// ```
    pub fn as_bits_per_sec(self) -> f64 {
        self.0 * 1e6
    }

    /// Builds a rate from bits per second.
    pub fn from_bits_per_sec(bps: f64) -> Self {
        Self(bps / 1e6)
    }
}

impl Hertz {
    /// Builds a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Returns the frequency in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// Builds a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }
}

impl Watts {
    /// Converts the power to dBm.
    ///
    /// # Panics
    /// Panics if the power is not strictly positive.
    pub fn as_dbm(self) -> f64 {
        assert!(self.0 > 0.0, "power must be positive to express in dBm");
        10.0 * (self.0 * 1000.0).log10()
    }

    /// Builds a power level from dBm.
    pub fn from_dbm(dbm: f64) -> Self {
        Self(10f64.powf(dbm / 10.0) / 1000.0)
    }
}

impl CpuCycles {
    /// Converts cycles to gigacycles (a convenient display scale).
    pub fn as_gigacycles(self) -> f64 {
        self.0 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_bit_conversions_round_trip() {
        let r = Mbps(3.25);
        assert!((Mbps::from_bits_per_sec(r.as_bits_per_sec()).value() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn dbm_round_trip() {
        let p = Watts::from_dbm(30.0); // 1 W
        assert!((p.value() - 1.0).abs() < 1e-9);
        assert!((p.as_dbm() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = ResourceBlocks(2.0) + ResourceBlocks(3.0);
        assert_eq!(a, ResourceBlocks(5.0));
        assert_eq!(a - ResourceBlocks(1.0), ResourceBlocks(4.0));
        assert_eq!(a * 2.0, ResourceBlocks(10.0));
        assert_eq!(a / 5.0, ResourceBlocks(1.0));
        let total: ResourceBlocks = vec![ResourceBlocks(1.0); 4].into_iter().sum();
        assert_eq!(total, ResourceBlocks(4.0));
    }

    #[test]
    fn min_max_and_validity() {
        assert_eq!(Mbps(1.0).max(Mbps(2.0)), Mbps(2.0));
        assert_eq!(Mbps(1.0).min(Mbps(2.0)), Mbps(1.0));
        assert!(Mbps(0.0).is_valid());
        assert!(!Mbps(f64::NAN).is_valid());
        assert!(!Mbps(-1.0).is_valid());
    }

    #[test]
    fn hertz_scaling() {
        assert_eq!(Hertz::from_mhz(20.0).value(), 20e6);
        assert_eq!(Hertz::from_ghz(2.6).value(), 2.6e9);
        assert!((Hertz::from_mhz(180e-3).as_mhz() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Mbps(1.5).to_string(), "1.500 Mbps");
        assert_eq!(Meters(10.0).to_string(), "10.000 m");
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_has_no_dbm() {
        let _ = Watts(0.0).as_dbm();
    }
}
