//! Simulation clock primitives.
//!
//! The simulator advances in discrete steps; [`SimTime`] is an absolute
//! instant and [`SimDuration`] a span, both stored as whole milliseconds so
//! that time arithmetic is exact and platform-independent.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock (milliseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: Self = Self(0);

    /// Builds an instant from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Self(secs * 1000)
    }

    /// Builds an instant from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns the instant in whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: Self = Self(0);

    /// Builds a span from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Builds a span from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Self(secs * 1000)
    }

    /// Builds a span from fractional seconds (rounded to milliseconds).
    pub fn from_secs_f64(secs: f64) -> Self {
        Self((secs.max(0.0) * 1000.0).round() as u64)
    }

    /// Builds a span from whole minutes.
    pub fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Returns the span in whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Integer number of times `step` fits in this span.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn steps(self, step: SimDuration) -> u64 {
        assert!(step.0 > 0, "step duration must be non-zero");
        self.0 / step.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|d| d.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_mins(5), SimTime::from_secs(300));
        assert_eq!(SimDuration::from_mins(5), SimDuration::from_secs(300));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(25);
        assert_eq!(late.since(early), SimDuration::from_secs(15));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimDuration::from_secs(20), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs(4) * 3, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(12) / 4, SimDuration::from_secs(3));
    }

    #[test]
    fn steps_counts_whole_fits() {
        let interval = SimDuration::from_mins(5);
        assert_eq!(SimDuration::from_mins(60).steps(interval), 12);
        assert_eq!(SimDuration::from_secs(299).steps(interval), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_step_panics() {
        let _ = SimDuration::from_secs(1).steps(SimDuration::ZERO);
    }

    #[test]
    fn negative_float_span_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-2.0), SimDuration::ZERO);
    }
}
