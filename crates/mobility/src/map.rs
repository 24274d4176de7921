//! The campus map: a bounded plane with points of interest.

use msvs_types::{Position, Result};
use rand::Rng;

/// A named attractor on the map (building, plaza, bus stop).
///
/// Waypoint mobility biases destination choice towards high-weight POIs,
/// which produces the spatial user clusters that make multicast grouping
/// worthwhile.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOfInterest {
    /// Human-readable name.
    pub name: String,
    /// Location on the map.
    pub position: Position,
    /// Relative attraction weight (higher draws more visitors).
    pub weight: f64,
}

/// A rectangular campus `[0, width] x [0, height]` with points of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct CampusMap {
    width: f64,
    height: f64,
    pois: Vec<PointOfInterest>,
}

impl CampusMap {
    /// Builds an empty map of the given size.
    ///
    /// # Errors
    /// Returns `InvalidConfig` unless both dimensions are positive and
    /// finite.
    pub fn new(width: f64, height: f64) -> Result<Self> {
        if !(width > 0.0 && width.is_finite() && height > 0.0 && height.is_finite()) {
            return Err(msvs_types::Error::invalid_config(
                "map size",
                format!("dimensions must be positive and finite, got {width}x{height}"),
            ));
        }
        Ok(Self {
            width,
            height,
            pois: Vec::new(),
        })
    }

    /// A stylised University of Waterloo main campus (~1.2 km x 1.0 km)
    /// with its major buildings as points of interest.
    pub fn waterloo() -> Self {
        let mut map = Self::new(1200.0, 1000.0).expect("static dimensions are valid");
        let pois = [
            ("DC", 620.0, 520.0, 3.0),  // Davis Centre
            ("MC", 520.0, 480.0, 3.0),  // Mathematics & Computer
            ("E7", 760.0, 560.0, 2.5),  // Engineering 7
            ("SLC", 480.0, 620.0, 3.5), // Student Life Centre
            ("PAC", 420.0, 700.0, 1.5), // Physical Activities Complex
            ("DP", 540.0, 420.0, 2.0),  // Dana Porter Library
            ("QNC", 580.0, 460.0, 1.5), // Quantum-Nano Centre
            ("V1", 260.0, 760.0, 2.0),  // Student Village 1
            ("CMH", 880.0, 380.0, 1.5), // Claudette Millar Hall
            ("UWP", 980.0, 720.0, 1.5), // UW Place
        ];
        for (name, x, y, w) in pois {
            map.add_poi(PointOfInterest {
                name: name.to_string(),
                position: Position::new(x, y),
                weight: w,
            });
        }
        map
    }

    /// Map width in metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Map height in metres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Registered points of interest.
    pub fn pois(&self) -> &[PointOfInterest] {
        &self.pois
    }

    /// Adds a point of interest (clamped into bounds).
    pub fn add_poi(&mut self, mut poi: PointOfInterest) {
        poi.position = poi.position.clamp_to(self.width, self.height);
        self.pois.push(poi);
    }

    /// Whether `p` lies inside the map (inclusive bounds).
    pub fn contains(&self, p: Position) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamps `p` into the map bounds.
    pub fn clamp(&self, p: Position) -> Position {
        p.clamp_to(self.width, self.height)
    }

    /// Uniformly random position inside the map.
    pub fn random_position<R: Rng + ?Sized>(&self, rng: &mut R) -> Position {
        Position::new(
            rng.gen::<f64>() * self.width,
            rng.gen::<f64>() * self.height,
        )
    }

    /// Random destination: with probability `poi_bias` a POI chosen by
    /// weight (jittered by ~30 m so visitors don't stack exactly), else a
    /// uniform point.
    ///
    /// Falls back to uniform when no POIs are registered.
    pub fn random_destination<R: Rng + ?Sized>(&self, rng: &mut R, poi_bias: f64) -> Position {
        if self.pois.is_empty() || rng.gen::<f64>() >= poi_bias {
            return self.random_position(rng);
        }
        let weights: Vec<f64> = self.pois.iter().map(|p| p.weight).collect();
        let idx =
            msvs_types::stats::weighted_index(rng, &weights).expect("non-empty positive weights");
        let poi = &self.pois[idx];
        let jx = msvs_types::stats::normal(rng, 0.0, 30.0);
        let jy = msvs_types::stats::normal(rng, 0.0, 30.0);
        self.clamp(poi.position + Position::new(jx, jy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn waterloo_map_has_pois_in_bounds() {
        let map = CampusMap::waterloo();
        assert_eq!(map.pois().len(), 10);
        for poi in map.pois() {
            assert!(map.contains(poi.position), "{} out of bounds", poi.name);
        }
    }

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(CampusMap::new(0.0, 100.0).is_err());
        assert!(CampusMap::new(100.0, -5.0).is_err());
        assert!(CampusMap::new(f64::NAN, 100.0).is_err());
        assert!(CampusMap::new(f64::INFINITY, 100.0).is_err());
    }

    #[test]
    fn random_positions_stay_inside() {
        let map = CampusMap::waterloo();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(map.contains(map.random_position(&mut rng)));
            assert!(map.contains(map.random_destination(&mut rng, 0.8)));
        }
    }

    #[test]
    fn poi_bias_concentrates_destinations() {
        let map = CampusMap::waterloo();
        let mut rng = StdRng::seed_from_u64(2);
        let near_poi = |p: Position| {
            map.pois()
                .iter()
                .any(|poi| poi.position.distance_to(p).value() < 100.0)
        };
        let biased = (0..500)
            .filter(|_| near_poi(map.random_destination(&mut rng, 1.0)))
            .count();
        let uniform = (0..500)
            .filter(|_| near_poi(map.random_destination(&mut rng, 0.0)))
            .count();
        assert!(
            biased > uniform + 100,
            "POI bias should concentrate: biased {biased} vs uniform {uniform}"
        );
    }

    #[test]
    fn add_poi_clamps() {
        let mut map = CampusMap::new(100.0, 100.0).unwrap();
        map.add_poi(PointOfInterest {
            name: "out".into(),
            position: Position::new(500.0, -20.0),
            weight: 1.0,
        });
        assert_eq!(map.pois()[0].position, Position::new(100.0, 0.0));
    }
}
