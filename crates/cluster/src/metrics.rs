//! Clustering-quality metrics.

use std::ops::Range;

use msvs_par::Pool;

/// Point count below which the silhouette runs on the caller's thread: the
/// pair loop is too cheap for worker spawns to pay for themselves.
const PAR_MIN_POINTS: usize = 256;

fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Mean silhouette coefficient over all points, in `[-1, 1]`.
///
/// Higher is better. Points in singleton clusters contribute 0, matching the
/// scikit-learn convention. Returns 0.0 when there are fewer than 2 clusters
/// or fewer than 2 points (the score is undefined there; 0 is the neutral
/// reward for the DDQN).
///
/// Runs the tiled kernel of [`silhouette_sampled_with`] on the caller's
/// thread.
///
/// # Panics
/// Panics if `assignments.len() != points.len()` or the points differ in
/// length.
pub fn silhouette(points: &[Vec<f64>], assignments: &[usize]) -> f64 {
    silhouette_sampled_with(points, assignments, 0, &Pool::serial())
}

/// [`silhouette`] with a deterministic evaluation budget for large
/// populations: when `points.len() > cap` (and `cap > 0`), the score is
/// computed over a subsample of `cap` points drawn by a partial
/// Fisher–Yates shuffle from a fixed-seed RNG — turning the O(n²) scan
/// into O(cap²). (A plain index stride would alias with any ordering
/// whose cluster label is periodic in the index.) Below the cap, or with
/// `cap == 0`, this is exactly [`silhouette`]: small populations pay
/// nothing and change nothing.
///
/// The subsample is a pure function of `(n, cap)` — independent of
/// caller seeds, threads, and shard layout — so seeded pipelines stay
/// bit-identical at any thread or shard count.
///
/// # Panics
/// Panics if `assignments.len() != points.len()` or the points differ in
/// length.
pub fn silhouette_sampled(points: &[Vec<f64>], assignments: &[usize], cap: usize) -> f64 {
    silhouette_sampled_with(points, assignments, cap, &Pool::serial())
}

/// [`silhouette_sampled`] with the pair work spread over `pool`.
///
/// The points are counting-sorted by label (each cluster keeps its members
/// in ascending index) into one dims-major buffer, and the pair work is cut
/// into one tile per cluster pair `A ≤ B`. Tile `(A, B)` alone owns the
/// distance sums of `A`'s points towards `B` and of `B`'s towards `A`, and
/// feeds every sum its terms in ascending index, so the score has the same
/// bits as a row-at-a-time scan at any pool size. Below K-means'
/// parallel threshold (256 scored points) the kernel runs serially.
///
/// # Panics
/// Panics if `assignments.len() != points.len()` or the points differ in
/// length.
pub fn silhouette_sampled_with(
    points: &[Vec<f64>],
    assignments: &[usize],
    cap: usize,
    pool: &Pool,
) -> f64 {
    assert_eq!(points.len(), assignments.len(), "one assignment per point");
    let n = points.len();
    if cap == 0 || n <= cap {
        return tiled_silhouette(|i| &points[i], assignments, pool);
    }
    let idx = sample_indices(n, cap);
    let labels: Vec<usize> = idx.iter().map(|&i| assignments[i]).collect();
    tiled_silhouette(|i| &points[idx[i]], &labels, pool)
}

/// The `cap` indices [`silhouette_sampled`] scores out of `n`, in draw
/// order.
fn sample_indices(n: usize, cap: usize) -> Vec<usize> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x51_1C0E77 ^ n as u64);
    let mut idx: Vec<usize> = (0..n).collect();
    for j in 0..cap {
        let r = rng.gen_range(j..n);
        idx.swap(j, r);
    }
    idx.truncate(cap);
    idx
}

/// Rows of one register block of the pair kernel.
const BLOCK_ROWS: usize = 4;
/// Columns of one register block: the width of a distance strip.
const STRIP: usize = 4;

/// Silhouette of the points `row(0..labels.len())` under `labels`.
fn tiled_silhouette<'p>(row: impl Fn(usize) -> &'p [f64], labels: &[usize], pool: &Pool) -> f64 {
    let n = labels.len();
    if n < 2 {
        return 0.0;
    }
    let k = labels.iter().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &c in labels {
        sizes[c] += 1;
    }
    if sizes.iter().filter(|&&s| s > 0).count() < 2 {
        return 0.0;
    }

    // Stable counting sort: cluster c holds positions starts[c]..starts[c + 1],
    // its members in ascending index.
    let mut starts = vec![0usize; k + 1];
    for c in 0..k {
        starts[c + 1] = starts[c] + sizes[c];
    }
    let mut next = starts.clone();
    let pos: Vec<usize> = labels
        .iter()
        .map(|&c| {
            next[c] += 1;
            next[c] - 1
        })
        .collect();
    let x = Columns::gather(&row, &pos);

    // sums[c * n + p]: summed distance of the point at position p to cluster c.
    let mut sums = vec![0.0f64; k * n];
    let mut tiles = Tile::split(&mut sums, &sizes, &starts);
    let pool = if n < PAR_MIN_POINTS {
        Pool::serial()
    } else {
        *pool
    };
    pool.for_each_mut(&mut tiles, |_, tile| tile.run(&x));

    let mut total = 0.0;
    for (&own, &p) in labels.iter().zip(&pos) {
        if sizes[own] <= 1 {
            continue; // contributes 0
        }
        // Mean distance to own cluster (a) and nearest other cluster (b).
        let sum = |c: usize| sums[c * n + p];
        let a = sum(own) / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sum(c) / sizes[c] as f64)
            .fold(f64::MAX, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    total / n as f64
}

/// Points stored dims-major: dimension `d` of the point at position `p` is
/// `data[d * n + p]`.
struct Columns {
    data: Vec<f64>,
    n: usize,
}

impl Columns {
    /// Copies point `i` (`row(i)`) to position `pos[i]`.
    fn gather<'p>(row: &impl Fn(usize) -> &'p [f64], pos: &[usize]) -> Self {
        let n = pos.len();
        let dims = row(0).len();
        let mut data = vec![0.0; dims * n];
        for (i, &p) in pos.iter().enumerate() {
            let point = row(i);
            assert_eq!(point.len(), dims, "points must share one dimension");
            for (d, &v) in point.iter().enumerate() {
                data[d * n + p] = v;
            }
        }
        Self { data, n }
    }

    /// Distances from the `R` points at positions `i..i + R` to the `W` at
    /// `j..j + W`. Each sums its squared differences in dimension order,
    /// like [`dist`], so it has `dist`'s bits in either direction.
    #[inline(always)]
    fn block<const R: usize, const W: usize>(&self, i: usize, j: usize) -> [[f64; W]; R] {
        let mut acc = [[0.0f64; W]; R];
        for dim in self.data.chunks_exact(self.n) {
            let xs = &dim[i..i + R];
            let ys = &dim[j..j + W];
            for (acc_row, &x) in acc.iter_mut().zip(xs) {
                for (a, &y) in acc_row.iter_mut().zip(ys) {
                    let t = x - y;
                    *a += t * t;
                }
            }
        }
        acc.map(|row| row.map(f64::sqrt))
    }

    /// Adds the distances from the `R` points at `i..` to the points at
    /// `j..j + col_sums.len()` onto `row_sums` (each in ascending column
    /// order) and onto `col_sums` (each in ascending row order).
    fn pass<const R: usize>(&self, i: usize, j: usize, row_sums: &mut [f64], col_sums: &mut [f64]) {
        let mut rows: [f64; R] = row_sums.try_into().expect("one sum per row");
        let mut strips = col_sums.chunks_exact_mut(STRIP);
        let mut j = j;
        for cols in &mut strips {
            credit(&mut rows, cols, &self.block::<R, STRIP>(i, j));
            j += STRIP;
        }
        for cols in strips.into_remainder().chunks_mut(1) {
            credit(&mut rows, cols, &self.block::<R, 1>(i, j));
            j += 1;
        }
        row_sums.copy_from_slice(&rows);
    }
}

/// Adds a block of distances to its rows' and columns' running sums.
#[inline(always)]
fn credit<const R: usize, const W: usize>(
    rows: &mut [f64; R],
    cols: &mut [f64],
    d: &[[f64; W]; R],
) {
    for (sum, row) in rows.iter_mut().zip(d) {
        for &v in row {
            *sum += v;
        }
    }
    for (w, col) in cols.iter_mut().enumerate() {
        for row in d {
            *col += row[w];
        }
    }
}

/// The pair work of clusters `A ≤ B`: the sums of `A`'s points towards `B`
/// and of `B`'s towards `A`, which no other tile writes.
struct Tile<'s> {
    a: Range<usize>,
    b: Range<usize>,
    a_to_b: &'s mut [f64],
    /// Empty on the diagonal (`A == B`), where `a_to_b` holds both.
    b_to_a: &'s mut [f64],
}

impl<'s> Tile<'s> {
    /// One tile per pair of non-empty clusters, each borrowing its two
    /// slices of `sums`, ordered by pair count so the pool (which hands out
    /// its chunks from the back) starts on the largest.
    fn split(sums: &'s mut [f64], sizes: &[usize], starts: &[usize]) -> Vec<Self> {
        let k = sizes.len();
        let n = starts[k];
        // segments[t * k + c]: the sums of cluster c's points towards t.
        let mut segments: Vec<Option<&'s mut [f64]>> = Vec::with_capacity(k * k);
        for row in sums.chunks_mut(n) {
            let mut rest = row;
            for &size in sizes {
                let (segment, tail) = std::mem::take(&mut rest).split_at_mut(size);
                segments.push(Some(segment));
                rest = tail;
            }
        }
        let live: Vec<usize> = (0..k).filter(|&c| sizes[c] > 0).collect();
        let mut take = |t: usize, c: usize| segments[t * k + c].take().expect("one owner");
        let mut tiles = Vec::with_capacity(live.len() * (live.len() + 1) / 2);
        for (at, &a) in live.iter().enumerate() {
            for &b in &live[at..] {
                tiles.push(Tile {
                    a: starts[a]..starts[a + 1],
                    b: starts[b]..starts[b + 1],
                    a_to_b: take(b, a),
                    b_to_a: if a == b { &mut [] } else { take(a, b) },
                });
            }
        }
        tiles.sort_by_key(Tile::pairs);
        tiles
    }

    fn pairs(&self) -> usize {
        if self.a == self.b {
            self.a.len() * (self.a.len() - 1) / 2
        } else {
            self.a.len() * self.b.len()
        }
    }

    fn run(&mut self, x: &Columns) {
        if self.a == self.b {
            self.within(x);
            return;
        }
        let mut rows = self.a_to_b.chunks_exact_mut(BLOCK_ROWS);
        let mut i = self.a.start;
        for block in &mut rows {
            x.pass::<BLOCK_ROWS>(i, self.b.start, block, self.b_to_a);
            i += BLOCK_ROWS;
        }
        for row in rows.into_remainder().chunks_mut(1) {
            x.pass::<1>(i, self.b.start, row, self.b_to_a);
            i += 1;
        }
    }

    /// Pairs inside one cluster, each measured once and credited to both
    /// points. A point's earlier partners credit it (as a column) before
    /// its own row block adds its later ones, so its terms stay in
    /// ascending index.
    fn within(&mut self, x: &Columns) {
        let a0 = self.a.start;
        let sums = &mut *self.a_to_b;
        let s = sums.len();
        let mut i = 0;
        while i < s {
            let r = BLOCK_ROWS.min(s - i);
            // The triangle inside the block, then the strip to its right.
            for p in i..i + r {
                for q in p + 1..i + r {
                    let [[d]] = x.block::<1, 1>(a0 + p, a0 + q);
                    sums[p] += d;
                    sums[q] += d;
                }
            }
            if r == BLOCK_ROWS {
                let (rows, cols) = sums[i..].split_at_mut(BLOCK_ROWS);
                x.pass::<BLOCK_ROWS>(a0 + i, a0 + i + BLOCK_ROWS, rows, cols);
            }
            i += r;
        }
    }
}

/// Davies–Bouldin index (lower is better; 0 is ideal).
///
/// Returns `f64::INFINITY` when any two centroids coincide, and 0.0 when
/// there are fewer than 2 non-empty clusters.
///
/// # Panics
/// Panics if `assignments.len() != points.len()`.
pub fn davies_bouldin(points: &[Vec<f64>], assignments: &[usize]) -> f64 {
    assert_eq!(points.len(), assignments.len(), "one assignment per point");
    if points.is_empty() {
        return 0.0;
    }
    let k = assignments.iter().max().map_or(0, |m| m + 1);
    let dim = points[0].len();
    let mut centroids = vec![vec![0.0; dim]; k];
    let mut sizes = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignments) {
        sizes[a] += 1;
        for (c, &x) in centroids[a].iter_mut().zip(p) {
            *c += x;
        }
    }
    let live: Vec<usize> = (0..k).filter(|&c| sizes[c] > 0).collect();
    if live.len() < 2 {
        return 0.0;
    }
    for &c in &live {
        for v in &mut centroids[c] {
            *v /= sizes[c] as f64;
        }
    }
    // Mean intra-cluster scatter.
    let mut scatter = vec![0.0f64; k];
    for (p, &a) in points.iter().zip(assignments) {
        scatter[a] += dist(p, &centroids[a]);
    }
    for &c in &live {
        scatter[c] /= sizes[c] as f64;
    }

    let mut db = 0.0;
    for &i in &live {
        let mut worst: f64 = 0.0;
        for &j in &live {
            if i == j {
                continue;
            }
            let sep = dist(&centroids[i], &centroids[j]);
            let ratio = if sep > 0.0 {
                (scatter[i] + scatter[j]) / sep
            } else {
                f64::INFINITY
            };
            worst = worst.max(ratio);
        }
        db += worst;
    }
    db / live.len() as f64
}

/// Rand index between two clusterings of the same items, in `[0, 1]`.
///
/// The fraction of item pairs treated consistently (together in both or
/// apart in both). 1.0 means identical partitions (up to relabeling).
/// Used to measure multicast-group stability across reservation intervals
/// — unstable groups cost multicast-channel re-signalling.
///
/// Returns 1.0 for fewer than two items.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same items");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if (a[i] == a[j]) == (b[i] == b[j]) {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

/// Adjusted Rand index (Hubert & Arabie): chance-corrected agreement in
/// `(-1, 1]`, 0 expected for independent random partitions.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "clusterings must cover the same items");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ka = a.iter().max().map_or(0, |m| m + 1);
    let kb = b.iter().max().map_or(0, |m| m + 1);
    let mut table = vec![vec![0u64; kb]; ka];
    let mut row = vec![0u64; ka];
    let mut col = vec![0u64; kb];
    for (&x, &y) in a.iter().zip(b) {
        table[x][y] += 1;
        row[x] += 1;
        col[y] += 1;
    }
    let c2 = |x: u64| (x * x.saturating_sub(1)) as f64 / 2.0;
    let sum_ij: f64 = table.iter().flatten().map(|&x| c2(x)).sum();
    let sum_a: f64 = row.iter().map(|&x| c2(x)).sum();
    let sum_b: f64 = col.iter().map(|&x| c2(x)).sum();
    let pairs = c2(n as u64);
    let expected = sum_a * sum_b / pairs;
    let max = 0.5 * (sum_a + sum_b);
    if (max - expected).abs() < 1e-12 {
        return 1.0; // degenerate: both partitions trivial
    }
    (sum_ij - expected) / (max - expected)
}

/// Total within-cluster sum of squared distances to centroids.
///
/// # Panics
/// Panics if `assignments.len() != points.len()`.
pub fn inertia(points: &[Vec<f64>], assignments: &[usize]) -> f64 {
    assert_eq!(points.len(), assignments.len(), "one assignment per point");
    if points.is_empty() {
        return 0.0;
    }
    let k = assignments.iter().max().map_or(0, |m| m + 1);
    let dim = points[0].len();
    let mut centroids = vec![vec![0.0; dim]; k];
    let mut sizes = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignments) {
        sizes[a] += 1;
        for (c, &x) in centroids[a].iter_mut().zip(p) {
            *c += x;
        }
    }
    for c in 0..k {
        if sizes[c] > 0 {
            for v in &mut centroids[c] {
                *v /= sizes[c] as f64;
            }
        }
    }
    points
        .iter()
        .zip(assignments)
        .map(|(p, &a)| {
            p.iter()
                .zip(&centroids[a])
                .map(|(x, c)| (x - c) * (x - c))
                .sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![0.0, 0.2],
            vec![10.0, 10.0],
            vec![10.1, 10.1],
            vec![10.0, 10.2],
        ];
        let good = vec![0, 0, 0, 1, 1, 1];
        (points, good)
    }

    #[test]
    fn silhouette_prefers_correct_labels() {
        let (points, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let s_good = silhouette(&points, &good);
        let s_bad = silhouette(&points, &bad);
        assert!(
            s_good > 0.9,
            "good labels should score near 1, got {s_good}"
        );
        assert!(s_bad < s_good);
        assert!(
            s_bad < 0.0,
            "scrambled labels should be negative, got {s_bad}"
        );
    }

    #[test]
    fn silhouette_degenerate_cases() {
        let points = vec![vec![0.0], vec![1.0]];
        assert_eq!(silhouette(&points, &[0, 0]), 0.0, "single cluster");
        assert_eq!(silhouette(&[vec![0.0]], &[0]), 0.0, "single point");
        // Two singletons: each contributes 0.
        assert_eq!(silhouette(&points, &[0, 1]), 0.0);
    }

    #[test]
    fn davies_bouldin_prefers_correct_labels() {
        let (points, good) = two_blobs();
        let bad = vec![0, 1, 0, 1, 0, 1];
        let db_good = davies_bouldin(&points, &good);
        let db_bad = davies_bouldin(&points, &bad);
        assert!(db_good < 0.1, "tight blobs should be near 0, got {db_good}");
        assert!(db_bad > db_good);
    }

    #[test]
    fn davies_bouldin_coincident_centroids_is_infinite() {
        let points = vec![vec![0.0], vec![0.0], vec![0.0], vec![0.0]];
        let db = davies_bouldin(&points, &[0, 1, 0, 1]);
        assert!(db.is_infinite());
    }

    #[test]
    fn inertia_zero_for_points_on_centroid() {
        let points = vec![vec![2.0, 2.0]; 5];
        assert!(inertia(&points, &[0; 5]) < 1e-12);
    }

    #[test]
    fn inertia_matches_hand_computation() {
        let points = vec![vec![0.0], vec![2.0]];
        // Centroid at 1.0; each point contributes 1.0.
        assert!((inertia(&points, &[0, 0]) - 2.0).abs() < 1e-12);
        assert_eq!(inertia(&points, &[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one assignment per point")]
    fn length_mismatch_panics() {
        let _ = silhouette(&[vec![0.0]], &[0, 1]);
    }

    /// Row-at-a-time reference: every point scans all others on its own.
    fn silhouette_by_rows(points: &[Vec<f64>], assignments: &[usize]) -> f64 {
        let n = points.len();
        if n < 2 {
            return 0.0;
        }
        let k = assignments.iter().max().map_or(0, |m| m + 1);
        let mut sizes = vec![0usize; k];
        for &a in assignments {
            sizes[a] += 1;
        }
        if sizes.iter().filter(|&&s| s > 0).count() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..n {
            let own = assignments[i];
            if sizes[own] <= 1 {
                continue;
            }
            let mut sum_per_cluster = vec![0.0f64; k];
            for j in 0..n {
                if i != j {
                    sum_per_cluster[assignments[j]] += dist(&points[i], &points[j]);
                }
            }
            let a = sum_per_cluster[own] / (sizes[own] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != own && sizes[c] > 0)
                .map(|c| sum_per_cluster[c] / sizes[c] as f64)
                .fold(f64::MAX, f64::min);
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
        total / n as f64
    }

    #[test]
    fn symmetric_silhouette_is_bit_identical_to_row_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x511);
        for case in 0..40 {
            let n = rng.gen_range(2..80);
            let dim = rng.gen_range(1..6);
            // Label space wider than the population used: some labels
            // stay empty, and small n leaves singleton clusters.
            let k = rng.gen_range(2..9);
            let points: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect())
                .collect();
            let mut assignments: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            // Force one singleton cluster and one empty label.
            assignments[0] = k + 1;
            let fast = silhouette(&points, &assignments);
            let slow = silhouette_by_rows(&points, &assignments);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "case {case}: {fast} vs {slow}"
            );
        }
    }

    /// `n` points in `dim` dimensions under `labels`, with coordinates
    /// from a seeded RNG.
    fn cloud(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect()
    }

    /// The kernel at pool sizes 1, 2 and 4 against the row-scan oracle.
    fn assert_kernel_matches_rows(points: &[Vec<f64>], labels: &[usize], what: &str) {
        let oracle = silhouette_by_rows(points, labels).to_bits();
        assert_eq!(
            silhouette(points, labels).to_bits(),
            oracle,
            "{what}: serial"
        );
        for threads in [1, 2, 4] {
            let pooled = silhouette_sampled_with(points, labels, 0, &Pool::new(threads));
            assert_eq!(pooled.to_bits(), oracle, "{what}: {threads} threads");
        }
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_row_scan_at_any_pool_size() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x711E);
        // 63, 257 and 1000 leave partial row blocks and strips; 257 and
        // 1000 clear the pool's serial threshold.
        for n in [2, 3, 63, 64, 257, 1000] {
            for dim in [1, 3, 16, 17] {
                let points = cloud(n, dim, (n * 31 + dim) as u64);
                // Labels 0..k, with label k + 1 given to point 0 only: a
                // singleton, and an empty label k between.
                let k = rng.gen_range(2..9);
                let mut labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
                labels[0] = k + 1;
                assert_kernel_matches_rows(&points, &labels, &format!("n={n} dim={dim}"));
            }
        }
        // A 90/10 split at K = 2: one large diagonal tile dominates.
        let points = cloud(1000, 16, 0x9010);
        let labels: Vec<usize> = (0..1000).map(|i| usize::from(i % 10 == 3)).collect();
        assert_kernel_matches_rows(&points, &labels, "90/10 split");
        // Only singletons, and two points in separate clusters.
        assert_kernel_matches_rows(&points[..5], &[4, 3, 2, 1, 0], "all singletons");
        assert_kernel_matches_rows(&points[..2], &[0, 1], "two singletons");
    }

    #[test]
    fn sampled_kernel_is_bit_identical_at_any_pool_size() {
        let points = cloud(1500, 8, 0x5A);
        let labels: Vec<usize> = (0..1500).map(|i| (i * 7 + i / 11) % 5).collect();
        let cap = 600;
        let idx = sample_indices(points.len(), cap);
        let sub_points: Vec<Vec<f64>> = idx.iter().map(|&i| points[i].clone()).collect();
        let sub_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
        let oracle = silhouette_by_rows(&sub_points, &sub_labels).to_bits();
        assert_eq!(silhouette_sampled(&points, &labels, cap).to_bits(), oracle);
        for threads in [1, 2, 4] {
            let pooled = silhouette_sampled_with(&points, &labels, cap, &Pool::new(threads));
            assert_eq!(pooled.to_bits(), oracle, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn ragged_points_panic() {
        let _ = silhouette(&[vec![0.0, 1.0], vec![1.0]], &[0, 1]);
    }
}

#[cfg(test)]
mod rand_index_tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2];
        assert_eq!(rand_index(&a, &a), 1.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
        // Relabeling does not matter.
        let relabeled = vec![2, 2, 0, 0, 1];
        assert_eq!(rand_index(&a, &relabeled), 1.0);
        assert_eq!(adjusted_rand_index(&a, &relabeled), 1.0);
    }

    #[test]
    fn disjoint_split_scores_low() {
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let ri = rand_index(&a, &b);
        assert!(ri < 0.6, "cross-cutting partitions: {ri}");
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari < 0.1, "ARI should be near 0: {ari}");
    }

    #[test]
    fn ari_hand_example() {
        // Classic: one item moved between two equal clusters of 4.
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 0, 0, 1, 1, 1, 1, 1];
        let ri = rand_index(&a, &b);
        // Pairs: total 28; disagreements are pairs involving the moved
        // item with its old cluster (3) and new cluster (4): 7.
        assert!((ri - 21.0 / 28.0).abs() < 1e-12);
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari > 0.3 && ari < 1.0);
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(rand_index(&[], &[]), 1.0);
        assert_eq!(rand_index(&[0], &[5]), 1.0);
        // All items in one cluster in both partitions.
        assert_eq!(adjusted_rand_index(&[0, 0, 0], &[1, 1, 1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn length_mismatch_panics() {
        let _ = rand_index(&[0, 1], &[0]);
    }

    /// Two well-separated interleaved blobs: the sampled score must agree
    /// with the exact one on the subsample it strides out.
    fn blobs(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let c = (i % 2) as f64 * 10.0;
                vec![c + (i as f64 * 0.37).sin() * 0.5, c]
            })
            .collect();
        let assignments = (0..n).map(|i| i % 2).collect();
        (points, assignments)
    }

    #[test]
    fn sampled_silhouette_is_exact_below_the_cap() {
        let (points, assignments) = blobs(60);
        let exact = silhouette(&points, &assignments);
        assert_eq!(silhouette_sampled(&points, &assignments, 60), exact);
        assert_eq!(silhouette_sampled(&points, &assignments, 1000), exact);
        // cap == 0 disables sampling entirely.
        assert_eq!(silhouette_sampled(&points, &assignments, 0), exact);
    }

    #[test]
    fn sampled_silhouette_strides_large_populations_deterministically() {
        let (points, assignments) = blobs(900);
        let sampled = silhouette_sampled(&points, &assignments, 128);
        // Deterministic: the subsample is a pure function of (n, cap).
        assert_eq!(sampled, silhouette_sampled(&points, &assignments, 128));
        // Well-separated blobs score near 1 with or without sampling.
        assert!(sampled > 0.8, "sampled score {sampled}");
        let exact = silhouette(&points, &assignments);
        assert!(
            (sampled - exact).abs() < 0.05,
            "sampled {sampled} vs exact {exact}"
        );
    }
}
