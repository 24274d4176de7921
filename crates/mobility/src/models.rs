//! Mobility models.

use msvs_types::{Position, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::map::CampusMap;

/// Something that moves across the campus over simulated time. Users
/// holding one are stepped and read on worker threads.
pub trait MobilityModel: Send + Sync {
    /// Current position.
    fn position(&self) -> Position;

    /// Advances the model by `dt`, returning the new position.
    fn advance(&mut self, dt: SimDuration) -> Position;

    /// Current speed in m/s (0 when paused or static).
    fn speed(&self) -> f64;
}

/// Classic random-waypoint mobility with POI-biased destinations and
/// thinking pauses.
///
/// The walker picks a destination ([`CampusMap::random_destination`]),
/// walks there in a straight line at a per-leg speed drawn around
/// `mean_speed`, pauses for an exponential think time, and repeats.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    map: CampusMap,
    rng: StdRng,
    position: Position,
    destination: Position,
    speed: f64,
    mean_speed: f64,
    pause_remaining: f64,
}

impl RandomWaypoint {
    /// POI bias used when picking destinations.
    const POI_BIAS: f64 = 0.8;
    /// Mean pause at a destination, seconds.
    const MEAN_PAUSE_SECS: f64 = 45.0;

    /// Builds a walker starting at a random position.
    ///
    /// `mean_speed` is in m/s (pedestrians ≈ 1.4).
    ///
    /// # Panics
    /// Panics if `mean_speed` is not strictly positive.
    pub fn new(map: &CampusMap, mean_speed: f64, seed: u64) -> Self {
        assert!(mean_speed > 0.0, "mean speed must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let position = map.random_position(&mut rng);
        let destination = map.random_destination(&mut rng, Self::POI_BIAS);
        let speed = Self::draw_speed(&mut rng, mean_speed);
        Self {
            map: map.clone(),
            rng,
            position,
            destination,
            speed,
            mean_speed,
            pause_remaining: 0.0,
        }
    }

    fn draw_speed(rng: &mut StdRng, mean: f64) -> f64 {
        msvs_types::stats::normal(rng, mean, mean * 0.25).clamp(mean * 0.3, mean * 2.0)
    }
}

impl MobilityModel for RandomWaypoint {
    fn position(&self) -> Position {
        self.position
    }

    fn advance(&mut self, dt: SimDuration) -> Position {
        let mut remaining = dt.as_secs_f64();
        while remaining > 0.0 {
            if self.pause_remaining > 0.0 {
                let consumed = self.pause_remaining.min(remaining);
                self.pause_remaining -= consumed;
                remaining -= consumed;
                continue;
            }
            let to_dest = self.destination - self.position;
            let dist = to_dest.norm();
            let reachable = self.speed * remaining;
            if reachable < dist {
                self.position = self.position + to_dest.normalized() * reachable;
                remaining = 0.0;
            } else {
                self.position = self.destination;
                remaining -= if self.speed > 0.0 {
                    dist / self.speed
                } else {
                    0.0
                };
                self.pause_remaining =
                    msvs_types::stats::exponential(&mut self.rng, 1.0 / Self::MEAN_PAUSE_SECS);
                self.destination = self.map.random_destination(&mut self.rng, Self::POI_BIAS);
                self.speed = Self::draw_speed(&mut self.rng, self.mean_speed);
            }
        }
        self.position
    }

    fn speed(&self) -> f64 {
        if self.pause_remaining > 0.0 {
            0.0
        } else {
            self.speed
        }
    }
}

/// Gauss–Markov mobility: velocity is a mean-reverting process with tunable
/// memory `alpha` in `[0, 1]` (1 = straight-line cruising, 0 = Brownian).
#[derive(Debug, Clone)]
pub struct GaussMarkov {
    map: CampusMap,
    rng: StdRng,
    position: Position,
    velocity: Position,
    mean_speed: f64,
    alpha: f64,
}

impl GaussMarkov {
    /// Builds a Gauss–Markov walker at a random position with a random
    /// initial heading.
    ///
    /// # Panics
    /// Panics if `mean_speed <= 0` or `alpha` outside `[0, 1]`.
    pub fn new(map: &CampusMap, mean_speed: f64, alpha: f64, seed: u64) -> Self {
        assert!(mean_speed > 0.0, "mean speed must be positive");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let position = map.random_position(&mut rng);
        let heading = rng.gen::<f64>() * std::f64::consts::TAU;
        let velocity = Position::new(heading.cos(), heading.sin()) * mean_speed;
        Self {
            map: map.clone(),
            rng,
            position,
            velocity,
            mean_speed,
            alpha,
        }
    }
}

impl MobilityModel for GaussMarkov {
    fn position(&self) -> Position {
        self.position
    }

    fn advance(&mut self, dt: SimDuration) -> Position {
        // Advance in ~1 s sub-steps for stable discretisation.
        let mut remaining = dt.as_secs_f64();
        while remaining > 0.0 {
            let step = remaining.min(1.0);
            remaining -= step;
            let a = self.alpha;
            let noise_scale = self.mean_speed * (1.0 - a * a).sqrt() * 0.5;
            let nx = msvs_types::stats::normal(&mut self.rng, 0.0, noise_scale);
            let ny = msvs_types::stats::normal(&mut self.rng, 0.0, noise_scale);
            // Mean-revert towards current heading at mean speed.
            let target = self.velocity.normalized() * self.mean_speed;
            self.velocity =
                self.velocity * a + target * (1.0 - a) * 0.5 + Position::new(nx, ny) * (1.0 - a);
            let next = self.position + self.velocity * step;
            // Reflect at map edges.
            let mut v = self.velocity;
            let mut p = next;
            if p.x < 0.0 || p.x > self.map.width() {
                v = Position::new(-v.x, v.y);
                p.x = p.x.clamp(0.0, self.map.width());
            }
            if p.y < 0.0 || p.y > self.map.height() {
                v = Position::new(v.x, -v.y);
                p.y = p.y.clamp(0.0, self.map.height());
            }
            self.velocity = v;
            self.position = p;
        }
        self.position
    }

    fn speed(&self) -> f64 {
        self.velocity.norm()
    }
}

/// A user who never moves (e.g. seated in a lecture hall).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticMobility {
    position: Position,
}

impl StaticMobility {
    /// Builds a static user at `position`.
    pub fn new(position: Position) -> Self {
        Self { position }
    }

    /// Builds a static user at a random map position.
    pub fn random(map: &CampusMap, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(map.random_position(&mut rng))
    }
}

impl MobilityModel for StaticMobility {
    fn position(&self) -> Position {
        self.position
    }

    fn advance(&mut self, _dt: SimDuration) -> Position {
        self.position
    }

    fn speed(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> CampusMap {
        CampusMap::waterloo()
    }

    #[test]
    fn random_waypoint_stays_in_bounds() {
        let m = map();
        let mut w = RandomWaypoint::new(&m, 1.4, 3);
        for _ in 0..2000 {
            let p = w.advance(SimDuration::from_secs(5));
            assert!(m.contains(p), "escaped at {p}");
        }
    }

    #[test]
    fn random_waypoint_moves_at_bounded_speed() {
        let m = map();
        let mut w = RandomWaypoint::new(&m, 1.4, 4);
        let mut prev = w.position();
        for _ in 0..500 {
            let p = w.advance(SimDuration::from_secs(1));
            let moved = prev.distance_to(p).value();
            assert!(moved <= 1.4 * 2.0 + 1e-9, "moved {moved} m in 1 s");
            prev = p;
        }
    }

    #[test]
    fn random_waypoint_eventually_pauses() {
        let m = map();
        let mut w = RandomWaypoint::new(&m, 10.0, 5);
        let mut saw_pause = false;
        for _ in 0..2000 {
            w.advance(SimDuration::from_secs(1));
            if w.speed() == 0.0 {
                saw_pause = true;
                break;
            }
        }
        assert!(saw_pause, "walker should pause at destinations");
    }

    #[test]
    fn gauss_markov_stays_in_bounds_and_moves() {
        let m = map();
        let mut w = GaussMarkov::new(&m, 1.4, 0.85, 6);
        let start = w.position();
        let mut total = 0.0;
        for _ in 0..600 {
            let before = w.position();
            let p = w.advance(SimDuration::from_secs(1));
            assert!(m.contains(p));
            total += before.distance_to(p).value();
        }
        assert!(total > 100.0, "barely moved: {total} m");
        assert_ne!(start, w.position());
    }

    #[test]
    fn gauss_markov_high_alpha_is_smoother() {
        // With high memory, consecutive headings correlate strongly.
        let m = map();
        let heading_changes = |alpha: f64| {
            let mut w = GaussMarkov::new(&m, 1.4, alpha, 7);
            let mut prev = w.position();
            let mut prev_heading: Option<f64> = None;
            let mut total_change = 0.0;
            for _ in 0..300 {
                let p = w.advance(SimDuration::from_secs(1));
                let d = p - prev;
                if d.norm() > 1e-6 {
                    let h = d.y.atan2(d.x);
                    if let Some(ph) = prev_heading {
                        let mut diff = (h - ph).abs();
                        if diff > std::f64::consts::PI {
                            diff = std::f64::consts::TAU - diff;
                        }
                        total_change += diff;
                    }
                    prev_heading = Some(h);
                }
                prev = p;
            }
            total_change
        };
        assert!(heading_changes(0.95) < heading_changes(0.1));
    }

    #[test]
    fn static_mobility_never_moves() {
        let mut s = StaticMobility::random(&map(), 9);
        let p0 = s.position();
        for _ in 0..10 {
            assert_eq!(s.advance(SimDuration::from_mins(5)), p0);
        }
        assert_eq!(s.speed(), 0.0);
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let m = map();
        let run = |seed| {
            let mut w = RandomWaypoint::new(&m, 1.4, seed);
            for _ in 0..100 {
                w.advance(SimDuration::from_secs(3));
            }
            w.position()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn trait_objects_work() {
        let m = map();
        let mut models: Vec<Box<dyn MobilityModel>> = vec![
            Box::new(RandomWaypoint::new(&m, 1.4, 1)),
            Box::new(GaussMarkov::new(&m, 1.4, 0.8, 2)),
            Box::new(StaticMobility::random(&m, 3)),
        ];
        for model in &mut models {
            let p = model.advance(SimDuration::from_secs(10));
            assert!(m.contains(p));
        }
    }
}
