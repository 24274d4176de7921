//! K-means with K-means++ seeding (Arthur & Vassilvitskii, 2007).

use msvs_par::Pool;
use msvs_types::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Point count below which the assignment step always runs serially: the
/// nearest-centroid scan is so cheap per point that thread-spawn overhead
/// dominates for small inputs.
const PAR_MIN_POINTS: usize = 256;

/// Relative slack applied when comparing Hamerly bounds: the upper bound
/// is inflated and the lower bound deflated by this factor (plus a tiny
/// absolute term for near-zero bounds) before the skip test, so that
/// floating-point drift in the incrementally-maintained bounds can never
/// legitimise a skip that an exact scan would have overturned. Distances
/// carry at most a few dozen rounded operations of error (~1e-13
/// relative), orders of magnitude inside this margin.
const BOUND_SLACK: f64 = 1e-9;

/// How the initial centroids of a [`KMeans`] fit are chosen.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Init {
    /// K-means++ seeding from the configured RNG seed (the default).
    #[default]
    KMeansPP,
    /// Warm start: seed Lloyd from these centroids (typically the
    /// previous fit's result on a slowly-drifting population). The warm
    /// set must hold exactly `k` centroids of the points' dimension;
    /// on any shape mismatch the fit falls back to k-means++ seeding,
    /// so a stale warm set degrades to a cold fit, never an error.
    /// Nothing in the workspace warm-starts; kept because `e2ebench/`
    /// names it; drop at the next benchmark change.
    Warm(Vec<Vec<f64>>),
}

/// Configuration for a [`KMeans`] run.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement (squared distance).
    pub tolerance: f64,
    /// RNG seed for seeding and empty-cluster repair.
    pub seed: u64,
    /// Worker threads for the assignment step (`1` = serial, `0` = all
    /// available cores). Results are identical at any thread count: each
    /// point's nearest-centroid scan is independent and results merge in
    /// point order.
    pub threads: usize,
    /// Maintain Hamerly-style distance bounds to skip provably-unchanged
    /// nearest-centroid scans. Assignments, inertia, and round counts are
    /// bit-identical with bounds on or off: a point is only skipped when
    /// the (slack-guarded) bounds prove the full scan could not have
    /// moved it.
    pub bounded: bool,
    /// Initial-centroid strategy (see [`Init`]). The default k-means++
    /// seeding reproduces the historical behaviour bit for bit.
    pub init: Init,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 2,
            max_iters: 100,
            tolerance: 1e-8,
            seed: 0,
            threads: 1,
            bounded: true,
            init: Init::KMeansPP,
        }
    }
}

/// Wall-clock breakdown of one Lloyd iteration, for tracing. The number
/// of rounds is deterministic for a fixed seed; the durations are not.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTiming {
    /// Assignment sweep (parallel nearest-centroid), microseconds.
    pub assign_us: u64,
    /// Centroid update + empty-cluster repair, microseconds.
    pub update_us: u64,
}

/// Outcome of a K-means fit.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroids, `k` rows of dimension `d`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index of each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
    /// Whether the run converged before `max_iters`.
    pub converged: bool,
    /// Per-iteration assign/update wall clock (one entry per Lloyd
    /// round), so callers with a tracing layer can materialise child
    /// spans without this crate depending on telemetry.
    pub rounds: Vec<RoundTiming>,
    /// Point-to-centroid distance evaluations the bound check proved
    /// unnecessary, out of the `iterations * n * k` a plain Lloyd sweep
    /// would perform. `0` when [`KMeansConfig::bounded`] is off.
    pub distance_evals_skipped: u64,
    /// Whether Lloyd actually started from [`Init::Warm`] centroids —
    /// `false` when k-means++ seeding ran, including the fallback for a
    /// shape-mismatched warm set. Kept with [`Init::Warm`].
    pub warm_started: bool,
}

impl KMeansResult {
    /// Number of points in each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Members of each cluster, as indices into the input point set.
    pub fn cluster_members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.centroids.len()];
        for (i, &a) in self.assignments.iter().enumerate() {
            members[a].push(i);
        }
        members
    }
}

/// The K-means++ clusterer.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::MAX;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Like [`nearest`] but also returns the squared distance to the
/// second-closest centroid (`f64::MAX` when `k == 1`), feeding the
/// Hamerly lower bound. The winning index and distance follow the exact
/// comparison sequence of [`nearest`], so both scans always agree.
fn nearest2(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64, f64) {
    let mut best = 0;
    let mut best_d = f64::MAX;
    let mut second_d = f64::MAX;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            second_d = best_d;
            best_d = d;
            best = c;
        } else if d < second_d {
            second_d = d;
        }
    }
    (best, best_d, second_d)
}

/// Absolute companion to [`BOUND_SLACK`] so near-zero bounds keep a
/// non-vanishing safety margin.
const BOUND_SLACK_ABS: f64 = 1e-12;

/// Conservatively inflates an upper bound before the skip test.
fn inflate(x: f64) -> f64 {
    x + x.abs() * BOUND_SLACK + BOUND_SLACK_ABS
}

/// Conservatively deflates a lower bound before the skip test.
fn deflate(x: f64) -> f64 {
    x - x.abs() * BOUND_SLACK - BOUND_SLACK_ABS
}

/// Index of the point farthest from *its own* centroid — the standard
/// empty-cluster repair seed. `None` only for an empty point set.
fn farthest_from_own_centroid(
    points: &[Vec<f64>],
    centroids: &[Vec<f64>],
    assignments: &[usize],
) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            // total_cmp tolerates non-finite distances (degenerate
            // inputs) instead of panicking; identical ordering for
            // finite values.
            sq_dist(a, &centroids[assignments[*ia]])
                .total_cmp(&sq_dist(b, &centroids[assignments[*ib]]))
        })
        .map(|(i, _)| i)
}

impl KMeans {
    /// Builds a clusterer with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KMeansConfig {
        &self.config
    }

    /// Clusters `points` into `k` groups.
    ///
    /// # Errors
    /// - [`Error::InvalidConfig`] if `k == 0` or `max_iters == 0`;
    /// - [`Error::InsufficientData`] if there are fewer points than `k`;
    /// - [`Error::ShapeMismatch`] if points have inconsistent dimensions.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<KMeansResult> {
        let k = self.config.k;
        if k == 0 {
            return Err(Error::invalid_config("k", "must be positive"));
        }
        if self.config.max_iters == 0 {
            return Err(Error::invalid_config("max_iters", "must be positive"));
        }
        if points.len() < k {
            return Err(Error::insufficient(format!(
                "need at least k={k} points, got {}",
                points.len()
            )));
        }
        let dim = points[0].len();
        if dim == 0 {
            return Err(Error::shape("dimension >= 1", "0"));
        }
        if let Some(bad) = points.iter().find(|p| p.len() != dim) {
            return Err(Error::shape(
                format!("dimension {dim}"),
                format!("{}", bad.len()),
            ));
        }

        let n = points.len();
        // The RNG is constructed unconditionally so a warm start leaves
        // the empty-cluster-repair fallback stream identical to a cold
        // fit's.
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let warm = match &self.config.init {
            Init::Warm(seeds) if seeds.len() == k && seeds.iter().all(|c| c.len() == dim) => {
                Some(seeds.clone())
            }
            _ => None,
        };
        let warm_started = warm.is_some();
        let mut centroids = match warm {
            Some(seeds) => seeds,
            None => self.seed_centroids(points, &mut rng),
        };
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        let mut converged = false;
        let mut rounds = Vec::new();
        let pool = self.assignment_pool(n);
        // Hamerly bound state, in sqrt (plain-distance) space where the
        // triangle inequality holds: `ub[i]` bounds the distance from
        // point `i` to its assigned centroid from above, `lb[i]` bounds
        // the distance to every *other* centroid from below.
        let mut ub = vec![0.0f64; n];
        let mut lb = vec![0.0f64; n];
        let mut moves = vec![0.0f64; k];
        let mut distance_evals: u64 = 0;

        for iter in 0..self.config.max_iters {
            iterations = iter + 1;
            // Assignment step: independent per point, merged in point order,
            // so the outcome is identical at any thread count.
            let assign_start = std::time::Instant::now();
            if !self.config.bounded || iter == 0 {
                let nearest_all = pool.map(points, |_, p| nearest2(p, &centroids));
                for (i, &(best, best_d, second_d)) in nearest_all.iter().enumerate() {
                    assignments[i] = best;
                    ub[i] = best_d.sqrt();
                    lb[i] = second_d.sqrt();
                }
                distance_evals += (n * k) as u64;
            } else {
                // Bounded sweep: a point whose (slack-guarded) upper bound
                // sits strictly below its lower bound provably cannot
                // change assignment, so the scan is skipped outright; a
                // point failing that test first tightens `ub` with one
                // exact distance, and only falls back to the full scan
                // when the tightened bound still cannot prove stability.
                // The fallback is `nearest2`, whose comparison sequence
                // matches the unbounded scan exactly, so surviving points
                // land on identical assignments.
                let state = pool.map(points, |i, p| {
                    let a = assignments[i];
                    let lower = deflate(lb[i]);
                    if inflate(ub[i]) < lower {
                        return (a, ub[i], lb[i], 0u64);
                    }
                    let tight = sq_dist(p, &centroids[a]).sqrt();
                    if inflate(tight) < lower {
                        return (a, tight, lb[i], 1);
                    }
                    let (best, best_d, second_d) = nearest2(p, &centroids);
                    (best, best_d.sqrt(), second_d.sqrt(), k as u64)
                });
                for (i, &(a, u, l, evals)) in state.iter().enumerate() {
                    assignments[i] = a;
                    ub[i] = u;
                    lb[i] = l;
                    distance_evals += evals;
                }
            }
            let assign_us = assign_start.elapsed().as_micros() as u64;
            let update_start = std::time::Instant::now();
            // Update step.
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &x) in sums[a].iter_mut().zip(p) {
                    *s += x;
                }
            }
            let mut movement = 0.0;
            for c in 0..k {
                let moved_sq = if counts[c] == 0 {
                    // Empty cluster: re-seed at the point farthest from its
                    // current centroid (standard repair).
                    let far = farthest_from_own_centroid(points, &centroids, &assignments)
                        .unwrap_or_else(|| rng.gen_range(0..points.len()));
                    let moved_sq = sq_dist(&centroids[c], &points[far]);
                    centroids[c] = points[far].clone();
                    moved_sq
                } else {
                    let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
                    let moved_sq = sq_dist(&centroids[c], &new);
                    centroids[c] = new;
                    moved_sq
                };
                movement += moved_sq;
                moves[c] = moved_sq.sqrt();
            }
            // Shift the bounds by how far the centroids travelled: a
            // point's own centroid can only have come `moves[a]` closer
            // or farther, and any other centroid at most `max_move`.
            if self.config.bounded {
                let max_move = moves.iter().cloned().fold(0.0, f64::max);
                for (i, &a) in assignments.iter().enumerate() {
                    ub[i] += moves[a];
                    lb[i] -= max_move;
                }
            }
            rounds.push(RoundTiming {
                assign_us,
                update_us: update_start.elapsed().as_micros() as u64,
            });
            if movement <= self.config.tolerance {
                converged = true;
                break;
            }
        }

        // Final assignment against the converged centroids. Inertia is summed
        // serially in point order so the f64 total is thread-count invariant.
        let nearest_all = pool.map(points, |_, p| nearest(p, &centroids));
        let mut inertia = 0.0;
        for (a, (best, best_d)) in assignments.iter_mut().zip(&nearest_all) {
            *a = *best;
            inertia += best_d;
        }

        let distance_evals_skipped =
            (iterations as u64 * n as u64 * k as u64).saturating_sub(distance_evals);
        Ok(KMeansResult {
            centroids,
            assignments,
            inertia,
            iterations,
            converged,
            rounds,
            distance_evals_skipped,
            warm_started,
        })
    }

    /// Pool for the assignment step: serial below [`PAR_MIN_POINTS`] where
    /// spawn overhead outweighs the per-point work.
    fn assignment_pool(&self, n_points: usize) -> Pool {
        if self.config.threads == 1 || n_points < PAR_MIN_POINTS {
            Pool::serial()
        } else {
            Pool::new(self.config.threads)
        }
    }

    /// K-means++ seeding: first centroid uniform, then each next centroid
    /// sampled with probability proportional to D²(x).
    fn seed_centroids(&self, points: &[Vec<f64>], rng: &mut StdRng) -> Vec<Vec<f64>> {
        let k = self.config.k;
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..points.len())].clone());
        let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
        while centroids.len() < k {
            let idx = msvs_types::stats::weighted_index(rng, &d2)
                .unwrap_or_else(|| rng.gen_range(0..points.len()));
            centroids.push(points[idx].clone());
            let newest = centroids.last().expect("just pushed");
            for (d, p) in d2.iter_mut().zip(points) {
                *d = d.min(sq_dist(p, newest));
            }
        }
        centroids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                pts.push(vec![
                    cx + msvs_types::stats::normal(&mut rng, 0.0, spread),
                    cy + msvs_types::stats::normal(&mut rng, 0.0, spread),
                ]);
            }
        }
        pts
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 30, 0.3, 7);
        let result = KMeans::new(KMeansConfig {
            k: 3,
            seed: 3,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert!(result.converged);
        // Every blob should be pure: all 30 members share one label.
        for blob in 0..3 {
            let first = result.assignments[blob * 30];
            for i in 0..30 {
                assert_eq!(result.assignments[blob * 30 + i], first, "blob {blob}");
            }
        }
        let sizes = result.cluster_sizes();
        assert_eq!(sizes, vec![30, 30, 30]);
    }

    #[test]
    fn round_timings_match_iterations() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 0.0)], 20, 0.5, 11);
        let result = KMeans::new(KMeansConfig {
            k: 2,
            seed: 9,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert_eq!(result.rounds.len(), result.iterations);
        assert!(result.iterations >= 1);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = blobs(&[(0.0, 0.0), (8.0, 8.0)], 40, 1.0, 1);
        let inertia_at = |k: usize| {
            KMeans::new(KMeansConfig {
                k,
                seed: 5,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap()
            .inertia
        };
        let i1 = inertia_at(1);
        let i2 = inertia_at(2);
        let i4 = inertia_at(4);
        assert!(i2 < i1);
        assert!(i4 <= i2 + 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let result = KMeans::new(KMeansConfig {
            k: 3,
            seed: 0,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert!(result.inertia < 1e-12);
        let mut sizes = result.cluster_sizes();
        sizes.sort();
        assert_eq!(sizes, vec![1, 1, 1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 25, 0.5, 2);
        let fit = |seed| {
            KMeans::new(KMeansConfig {
                k: 2,
                seed,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap()
            .assignments
        };
        assert_eq!(fit(9), fit(9));
    }

    #[test]
    fn rejects_bad_inputs() {
        let pts = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(KMeans::new(KMeansConfig {
            k: 0,
            ..Default::default()
        })
        .fit(&pts)
        .is_err());
        assert!(KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .fit(&pts)
        .is_err());
        let ragged = vec![vec![0.0, 1.0], vec![1.0]];
        assert!(KMeans::new(KMeansConfig {
            k: 2,
            ..Default::default()
        })
        .fit(&ragged)
        .is_err());
    }

    #[test]
    fn cluster_members_partition_points() {
        let pts = blobs(&[(0.0, 0.0), (6.0, 6.0)], 10, 0.2, 3);
        let result = KMeans::new(KMeansConfig {
            k: 2,
            seed: 1,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        let members = result.cluster_members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, pts.len());
        let mut all: Vec<usize> = members.into_iter().flatten().collect();
        all.sort();
        assert_eq!(all, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_fit_bit_identical_to_serial() {
        // Enough points to clear the PAR_MIN_POINTS gate.
        let pts = blobs(
            &[(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)],
            80,
            0.8,
            11,
        );
        assert!(pts.len() >= PAR_MIN_POINTS);
        let fit = |threads: usize| {
            KMeans::new(KMeansConfig {
                k: 4,
                seed: 21,
                threads,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap()
        };
        let serial = fit(1);
        for threads in [2, 4, 8] {
            let par = fit(threads);
            assert_eq!(serial.assignments, par.assignments, "threads={threads}");
            assert_eq!(serial.centroids, par.centroids, "threads={threads}");
            assert_eq!(
                serial.inertia.to_bits(),
                par.inertia.to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.iterations, par.iterations);
        }
    }

    #[test]
    fn bounded_fit_bit_identical_to_unbounded() {
        // Property sweep across cluster counts, geometries, and seeds:
        // Hamerly bounds must never change what the fit returns, only
        // how many distance evaluations it takes to get there.
        type Blob = (&'static [(f64, f64)], usize, f64);
        let shapes: &[Blob] = &[
            (&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 40, 0.4),
            (&[(0.0, 0.0), (3.0, 3.0)], 60, 1.2),
            (&[(0.0, 0.0), (4.0, 0.0), (8.0, 0.0), (12.0, 0.0)], 25, 0.9),
        ];
        for (si, &(centers, per, spread)) in shapes.iter().enumerate() {
            for k in [2usize, 3, 5] {
                for seed in [0u64, 7, 23] {
                    let pts = blobs(centers, per, spread, seed.wrapping_add(si as u64 * 31));
                    let fit = |bounded: bool| {
                        KMeans::new(KMeansConfig {
                            k,
                            seed,
                            bounded,
                            ..Default::default()
                        })
                        .fit(&pts)
                        .unwrap()
                    };
                    let plain = fit(false);
                    let fast = fit(true);
                    let tag = format!("shape={si} k={k} seed={seed}");
                    assert_eq!(plain.assignments, fast.assignments, "{tag}");
                    assert_eq!(plain.centroids, fast.centroids, "{tag}");
                    assert_eq!(plain.inertia.to_bits(), fast.inertia.to_bits(), "{tag}");
                    assert_eq!(plain.iterations, fast.iterations, "{tag}");
                    assert_eq!(plain.converged, fast.converged, "{tag}");
                    assert_eq!(plain.distance_evals_skipped, 0, "{tag}");
                    // Multi-round fits must actually exercise the bounds.
                    if fast.iterations > 2 {
                        assert!(fast.distance_evals_skipped > 0, "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_parallel_matches_bounded_serial() {
        let pts = blobs(
            &[(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)],
            80,
            0.8,
            17,
        );
        assert!(pts.len() >= PAR_MIN_POINTS);
        let fit = |threads: usize| {
            KMeans::new(KMeansConfig {
                k: 4,
                seed: 13,
                threads,
                bounded: true,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap()
        };
        let serial = fit(1);
        let par = fit(4);
        assert_eq!(serial.assignments, par.assignments);
        assert_eq!(serial.inertia.to_bits(), par.inertia.to_bits());
        assert_eq!(serial.distance_evals_skipped, par.distance_evals_skipped);
    }

    #[test]
    fn repair_picks_point_farthest_from_its_own_centroid() {
        // p0 sits on its centroid c0; p1 and p2 belong to c1 at
        // distances 1 and 5. Relative to each point's own centroid the
        // farthest is p2 — but measured against c0 (the old comparator
        // bug, which reused `assignments[0]` for every point) it would
        // have been p1 at distance 10.
        let points = vec![vec![10.0], vec![0.0], vec![6.0]];
        let centroids = vec![vec![10.0], vec![1.0]];
        let assignments = vec![0usize, 1, 1];
        assert_eq!(
            farthest_from_own_centroid(&points, &centroids, &assignments),
            Some(2)
        );
        assert_eq!(farthest_from_own_centroid(&[], &centroids, &[]), None);
    }

    #[test]
    fn warm_start_on_unchanged_points_matches_converged_cold_fit() {
        // Property sweep: re-fitting an unchanged point set warm-started
        // from the converged centroids must (a) converge in at most two
        // Lloyd rounds — the seeds are already the fixed point — and
        // (b) reproduce the cold fit's assignments exactly.
        type Blob = (&'static [(f64, f64)], usize, f64);
        let shapes: &[Blob] = &[
            (&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 40, 0.4),
            (&[(0.0, 0.0), (3.0, 3.0)], 60, 1.2),
            (&[(0.0, 0.0), (4.0, 0.0), (8.0, 0.0), (12.0, 0.0)], 25, 0.9),
        ];
        for (si, &(centers, per, spread)) in shapes.iter().enumerate() {
            for k in [2usize, 3, 5] {
                for seed in [0u64, 7, 23] {
                    let pts = blobs(centers, per, spread, seed.wrapping_add(si as u64 * 31));
                    let cold = KMeans::new(KMeansConfig {
                        k,
                        seed,
                        ..Default::default()
                    })
                    .fit(&pts)
                    .unwrap();
                    let warm = KMeans::new(KMeansConfig {
                        k,
                        seed,
                        init: Init::Warm(cold.centroids.clone()),
                        ..Default::default()
                    })
                    .fit(&pts)
                    .unwrap();
                    let tag = format!("shape={si} k={k} seed={seed}");
                    assert!(warm.warm_started, "{tag}");
                    assert!(
                        warm.iterations <= 2,
                        "{tag}: warm fit took {} rounds",
                        warm.iterations
                    );
                    assert!(warm.converged, "{tag}");
                    assert_eq!(warm.assignments, cold.assignments, "{tag}");
                    assert_eq!(warm.centroids, cold.centroids, "{tag}");
                }
            }
        }
    }

    #[test]
    fn stale_warm_set_falls_back_to_kmeanspp() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 30, 0.3, 7);
        let cold = KMeans::new(KMeansConfig {
            k: 3,
            seed: 3,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        // A warm set from a different K (count mismatch) and one from a
        // different feature space (dimension mismatch): both must fall
        // back to k-means++ and reproduce the cold fit bit for bit —
        // the fallback consumes the same RNG stream the cold fit does.
        let stale_count = Init::Warm(vec![vec![0.0, 0.0]; 2]);
        let stale_dim = Init::Warm(vec![vec![0.0]; 3]);
        for (name, init) in [("count", stale_count), ("dim", stale_dim)] {
            let fallback = KMeans::new(KMeansConfig {
                k: 3,
                seed: 3,
                init,
                ..Default::default()
            })
            .fit(&pts)
            .unwrap();
            assert!(!fallback.warm_started, "stale {name}");
            assert_eq!(fallback.assignments, cold.assignments, "stale {name}");
            assert_eq!(fallback.centroids, cold.centroids, "stale {name}");
            assert_eq!(
                fallback.inertia.to_bits(),
                cold.inertia.to_bits(),
                "stale {name}"
            );
        }
    }

    #[test]
    fn duplicate_points_dont_crash() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let result = KMeans::new(KMeansConfig {
            k: 3,
            seed: 4,
            ..Default::default()
        })
        .fit(&pts)
        .unwrap();
        assert_eq!(result.assignments.len(), 10);
        assert!(result.inertia < 1e-12);
    }
}
