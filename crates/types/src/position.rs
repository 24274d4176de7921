//! Planar geometry for the campus scenario.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::units::Meters;

/// A point (or displacement) in the 2-D campus plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// East-west coordinate in metres.
    pub x: f64,
    /// North-south coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin of the campus plane.
    pub const ORIGIN: Self = Self { x: 0.0, y: 0.0 };

    /// Builds a position from raw coordinates.
    ///
    /// # Examples
    /// ```
    /// # use msvs_types::Position;
    /// let p = Position::new(3.0, 4.0);
    /// assert_eq!(p.distance_to(Position::ORIGIN).value(), 5.0);
    /// ```
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(self, other: Position) -> Meters {
        Meters(((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt())
    }

    /// Squared Euclidean distance (avoids the square root for comparisons).
    pub fn distance_sq(self, other: Position) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Index of, and distance to, the point in `points` nearest to `self`
    /// (`None` when `points` is empty). Ties go to the lowest index.
    ///
    /// Compares squared distances and takes one square root; `sqrt` is
    /// monotone, so this matches a search over [`Self::distance_to`] bit
    /// for bit. `total_cmp` sorts NaN last, so a non-finite position picks
    /// a deterministic point instead of panicking.
    pub fn nearest(self, points: &[Position]) -> Option<(usize, Meters)> {
        points
            .iter()
            .map(|&p| self.distance_sq(p))
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, d_sq)| (i, Meters(d_sq.sqrt())))
    }

    /// Length of this position interpreted as a vector from the origin.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Unit vector in the direction of this vector, or zero if degenerate.
    pub fn normalized(self) -> Position {
        let n = self.norm();
        if n <= f64::EPSILON {
            Position::ORIGIN
        } else {
            Position::new(self.x / n, self.y / n)
        }
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// `t` is clamped to `[0, 1]`.
    pub fn lerp(self, other: Position, t: f64) -> Position {
        let t = t.clamp(0.0, 1.0);
        Position::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Clamps the position into the axis-aligned rectangle
    /// `[0, width] x [0, height]`.
    pub fn clamp_to(self, width: f64, height: f64) -> Position {
        Position::new(self.x.clamp(0.0, width), self.y.clamp(0.0, height))
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl Add for Position {
    type Output = Position;
    fn add(self, rhs: Position) -> Position {
        Position::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Position {
    type Output = Position;
    fn sub(self, rhs: Position) -> Position {
        Position::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Position {
    type Output = Position;
    fn mul(self, rhs: f64) -> Position {
        Position::new(self.x * rhs, self.y * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pythagorean_distance() {
        let d = Position::new(0.0, 0.0).distance_to(Position::new(3.0, 4.0));
        assert!((d.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(-2.0, 6.0);
        assert!((a.distance_sq(b) - a.distance_to(b).value().powi(2)).abs() < 1e-9);
    }

    #[test]
    fn nearest_matches_a_distance_to_search() {
        let points = [
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(3.3, 7.1),
        ];
        assert_eq!(Position::new(1.0, 1.0).nearest(&[]), None);
        for &(x, y) in &[(1.0, 1.0), (9.0, 0.5), (4.0, 6.0), (-5.0, 2.2), (5.0, 0.0)] {
            let p = Position::new(x, y);
            let (i, d) = p.nearest(&points).unwrap();
            let reference = points
                .iter()
                .map(|&b| p.distance_to(b))
                .min_by(|a, b| a.value().total_cmp(&b.value()))
                .unwrap();
            assert_eq!(d.value().to_bits(), reference.value().to_bits());
            assert_eq!(
                d.value().to_bits(),
                p.distance_to(points[i]).value().to_bits()
            );
        }
        // Equidistant points: the lowest index wins.
        assert_eq!(
            Position::new(10.0, 5.0).nearest(&points[1..3]).unwrap().0,
            0
        );
        assert_eq!(Position::new(5.0, 0.0).nearest(&points[..2]).unwrap().0, 0);
    }

    #[test]
    fn lerp_endpoints_and_clamp() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Position::new(5.0, 10.0));
        assert_eq!(a.lerp(b, 2.0), b, "t is clamped above");
        assert_eq!(a.lerp(b, -1.0), a, "t is clamped below");
    }

    #[test]
    fn normalized_is_unit_or_zero() {
        let v = Position::new(3.0, 4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Position::ORIGIN.normalized(), Position::ORIGIN);
    }

    #[test]
    fn clamp_to_bounds() {
        let p = Position::new(-5.0, 300.0).clamp_to(100.0, 200.0);
        assert_eq!(p, Position::new(0.0, 200.0));
    }

    #[test]
    fn vector_arithmetic() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(3.0, 5.0);
        assert_eq!(a + b, Position::new(4.0, 7.0));
        assert_eq!(b - a, Position::new(2.0, 3.0));
        assert_eq!(a * 2.0, Position::new(2.0, 4.0));
    }
}
