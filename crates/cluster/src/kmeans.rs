//! Lloyd's k-means with k-means++ style seeding.
//!
//! Two implementations share one algorithm:
//!
//! * [`kmeans`] — the production fast path. It factors the input through
//!   [`DedupPoints`] and runs every O(n·k·d) inner loop per *distinct* vector
//!   instead (O(u·k·d), `u` distinct rows), scattering assignments back by
//!   code. Seeding stays row-weighted (the D² scan walks rows, not
//!   distincts), so the sampled centres are exactly the reference's.
//! * [`kmeans_reference`] — the scalar full-row oracle, kept for the
//!   equivalence suite. On inputs whose weighted centroid sums are exact in
//!   f64 (e.g. integer-valued features, and any input with no duplicate
//!   rows) the fast path is bit-identical to it; otherwise the two differ
//!   only by f64 summation order in the centroid update.
//!
//! Empty clusters are re-seeded *iteratively*: after the surviving centroids
//! move, each empty cluster in turn takes the point farthest from its
//! nearest updated centroid, and the distance field is refreshed before the
//! next empty cluster picks — so two clusters emptied in the same iteration
//! receive two distinct points. (The pre-fix behaviour computed every
//! farthest point against the same stale assignment snapshot, handing the
//! *same* point to every simultaneously-empty cluster; the duplicate
//! centroids then persisted to convergence. [`kmeans_with_initial`] exists
//! so the regression test can plant that exact situation.)

use crate::dedup::DedupPoints;
use crate::{assign_to_nearest, sq_dist, Clustering};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

/// k-means hyper-parameters.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when the total centroid movement falls below this threshold.
    pub tolerance: f32,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            max_iters: 40,
            tolerance: 1e-4,
        }
    }
}

fn empty_clustering() -> Clustering {
    Clustering {
        k: 0,
        assignments: Vec::new(),
        centroids: Vec::new(),
    }
}

/// Runs k-means over the rows of `data` (each row one point).
///
/// `k` is clamped to the number of points. This is the dedup-weighted fast
/// path; see the module docs for its relationship to [`kmeans_reference`].
pub fn kmeans(data: &[&[f32]], k: usize, config: &KMeansConfig, seed: u64) -> Clustering {
    if data.is_empty() || k == 0 {
        return empty_clustering();
    }
    kmeans_dedup(&DedupPoints::build(data), k, config, seed)
}

/// [`kmeans`] over an already-deduplicated input (lets callers that hold a
/// [`DedupPoints`] skip rebuilding it).
pub fn kmeans_dedup(dd: &DedupPoints, k: usize, config: &KMeansConfig, seed: u64) -> Clustering {
    let n = dd.n_rows();
    if n == 0 || k == 0 {
        return empty_clustering();
    }
    let k = k.min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut centroids = plus_plus_init_dedup(dd, k, &mut rng);
    lloyd_dedup(dd, &mut centroids, config);
    let assignments = dd.assign_to_nearest(&centroids);
    Clustering {
        k,
        assignments,
        centroids,
    }
}

/// Runs the dedup-weighted Lloyd loop from caller-provided initial centroids
/// (skipping k-means++ seeding). Used by the empty-cluster regression tests
/// to plant a specific starting configuration.
pub fn kmeans_with_initial(
    data: &[&[f32]],
    initial: &[Vec<f32>],
    config: &KMeansConfig,
) -> Clustering {
    if data.is_empty() || initial.is_empty() {
        return empty_clustering();
    }
    let dd = DedupPoints::build(data);
    let mut centroids = initial.to_vec();
    lloyd_dedup(&dd, &mut centroids, config);
    let assignments = dd.assign_to_nearest(&centroids);
    Clustering {
        k: centroids.len(),
        assignments,
        centroids,
    }
}

/// The scalar full-row oracle: identical algorithm to [`kmeans`], every loop
/// walking all `n` rows.
pub fn kmeans_reference(data: &[&[f32]], k: usize, config: &KMeansConfig, seed: u64) -> Clustering {
    if data.is_empty() || k == 0 {
        return empty_clustering();
    }
    let n = data.len();
    let k = k.min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, k, &mut rng);
    lloyd_reference(data, &mut centroids, config);
    let assignments = assign_to_nearest(data, &centroids);
    Clustering {
        k,
        assignments,
        centroids,
    }
}

/// [`kmeans_reference`] from caller-provided initial centroids.
pub fn kmeans_reference_with_initial(
    data: &[&[f32]],
    initial: &[Vec<f32>],
    config: &KMeansConfig,
) -> Clustering {
    if data.is_empty() || initial.is_empty() {
        return empty_clustering();
    }
    let mut centroids = initial.to_vec();
    lloyd_reference(data, &mut centroids, config);
    let assignments = assign_to_nearest(data, &centroids);
    Clustering {
        k: centroids.len(),
        assignments,
        centroids,
    }
}

/// `max_by`-compatible argmax over per-row distances: on ties (and on NaN,
/// treated as equal) the *later* row wins, matching
/// `Iterator::max_by(partial_cmp.unwrap_or(Equal))`.
fn farthest_row(dists: impl Iterator<Item = f32>) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::NEG_INFINITY;
    for (i, d) in dists.enumerate() {
        if i == 0 || best_d.partial_cmp(&d).unwrap_or(Ordering::Equal) != Ordering::Greater {
            best = i;
            best_d = d;
        }
    }
    best
}

/// Lloyd iterations over the deduplicated points, mutating `centroids` in
/// place. Assignment and reseed distances are computed once per distinct
/// vector; centroid sums weight each distinct by its multiplicity.
fn lloyd_dedup(dd: &DedupPoints, centroids: &mut [Vec<f32>], config: &KMeansConfig) {
    let k = centroids.len();
    let dim = dd.dim();
    let nu = dd.n_unique();
    for _ in 0..config.max_iters {
        // Assignment step, per distinct vector (parallel).
        let uassign = dd.assign_unique(centroids);

        // Update step: multiplicity-weighted sums.
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0u64; k];
        for u in 0..nu {
            let a = uassign[u];
            let w = dd.counts()[u] as u64;
            counts[a] += w;
            let wf = w as f64;
            for (s, &x) in sums[a].iter_mut().zip(dd.unique_row(u)) {
                *s += wf * (x as f64);
            }
        }
        let mut movement = 0.0f32;
        let mut empties: Vec<usize> = Vec::new();
        for c in 0..k {
            if counts[c] == 0 {
                empties.push(c);
                continue;
            }
            let mut new_centroid = vec![0.0f32; dim];
            for (nc, s) in new_centroid.iter_mut().zip(sums[c].iter()) {
                *nc = (*s / counts[c] as f64) as f32;
            }
            movement += sq_dist(&centroids[c], &new_centroid);
            centroids[c] = new_centroid;
        }
        // Iterative empty-cluster re-seeding against the *updated* centroids,
        // refreshing distances after each pick so simultaneously-empty
        // clusters receive distinct points.
        if !empties.is_empty() {
            let mut udist = vec![0.0f32; nu];
            dd.sq_dists_to_assigned(centroids, |u| uassign[u], |u, d| udist[u] = d);
            for c in empties {
                let far = farthest_row(dd.codes().iter().map(|&u| udist[u as usize]));
                let far_u = dd.codes()[far] as usize;
                movement += sq_dist(&centroids[c], dd.unique_row(far_u));
                centroids[c] = dd.unique_row(far_u).to_vec();
                dd.sq_dists_to(&centroids[c], |u, nd| {
                    if nd < udist[u] {
                        udist[u] = nd;
                    }
                });
            }
        }
        if movement < config.tolerance {
            break;
        }
    }
}

/// Lloyd iterations over the full rows (the scalar oracle), mutating
/// `centroids` in place. Same re-seeding discipline as [`lloyd_dedup`].
fn lloyd_reference(data: &[&[f32]], centroids: &mut [Vec<f32>], config: &KMeansConfig) {
    let k = centroids.len();
    let dim = data[0].len();
    for _ in 0..config.max_iters {
        let assignments = assign_to_nearest(data, centroids);

        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0u64; k];
        for (row, &a) in data.iter().zip(assignments.iter()) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(row.iter()) {
                *s += x as f64;
            }
        }
        let mut movement = 0.0f32;
        let mut empties: Vec<usize> = Vec::new();
        for c in 0..k {
            if counts[c] == 0 {
                empties.push(c);
                continue;
            }
            let mut new_centroid = vec![0.0f32; dim];
            for (nc, s) in new_centroid.iter_mut().zip(sums[c].iter()) {
                *nc = (*s / counts[c] as f64) as f32;
            }
            movement += sq_dist(&centroids[c], &new_centroid);
            centroids[c] = new_centroid;
        }
        if !empties.is_empty() {
            let mut dists: Vec<f32> = data
                .iter()
                .zip(assignments.iter())
                .map(|(row, &a)| sq_dist(row, &centroids[a]))
                .collect();
            for c in empties {
                let far = farthest_row(dists.iter().copied());
                movement += sq_dist(&centroids[c], data[far]);
                centroids[c] = data[far].to_vec();
                for (d, row) in dists.iter_mut().zip(data.iter()) {
                    let nd = sq_dist(row, &centroids[c]);
                    if nd < *d {
                        *d = nd;
                    }
                }
            }
        }
        if movement < config.tolerance {
            break;
        }
    }
}

/// k-means++ seeding: the first centre is uniform, subsequent centres are
/// sampled proportionally to the squared distance from the nearest existing
/// centre.
fn plus_plus_init(data: &[&[f32]], k: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
    let n = data.len();
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..n)].to_vec());
    let mut dists: Vec<f32> = data
        .iter()
        .map(|row| sq_dist(row, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().map(|&d| d as f64).sum();
        let next = if total <= f64::EPSILON {
            // All remaining points coincide with existing centroids.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data[next].to_vec());
        let last = centroids.last().expect("just pushed");
        for (d, row) in dists.iter_mut().zip(data.iter()) {
            let nd = sq_dist(row, last);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// [`plus_plus_init`] with distances evaluated once per distinct vector.
///
/// The D² scan still walks *rows* (each row contributes its distinct's
/// distance), so the consumed RNG stream and the sampled centres are
/// bit-identical to the reference's.
fn plus_plus_init_dedup(dd: &DedupPoints, k: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
    let n = dd.n_rows();
    let nu = dd.n_unique();
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(dd.row(rng.gen_range(0..n)).to_vec());
    let mut udists = vec![0.0f32; nu];
    dd.sq_dists_to(&centroids[0], |u, d| udists[u] = d);
    while centroids.len() < k {
        let total: f64 = dd
            .codes()
            .iter()
            .map(|&u| udists[u as usize] as f64)
            .sum();
        let next = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &u) in dd.codes().iter().enumerate() {
                target -= udists[u as usize] as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(dd.row(next).to_vec());
        let last = centroids.last().expect("just pushed");
        dd.sq_dists_to(last, |u, nd| {
            if nd < udists[u] {
                udists[u] = nd;
            }
        });
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut data = Vec::new();
        for i in 0..30 {
            data.push(vec![(i % 6) as f32 * 0.01, 0.0]);
        }
        for i in 0..30 {
            data.push(vec![5.0 + (i % 6) as f32 * 0.01, 5.0]);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = kmeans(&rows, 2, &KMeansConfig::default(), 13);
        assert_eq!(c.k, 2);
        assert_ne!(c.assignments[0], c.assignments[35]);
        assert!(c.members(c.assignments[0]).len() == 30);
    }

    #[test]
    fn k_clamped_to_points() {
        let data = vec![vec![0.0f32], vec![1.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = kmeans(&rows, 10, &KMeansConfig::default(), 0);
        assert_eq!(c.k, 2);
        assert_eq!(c.centroids.len(), 2);
    }

    #[test]
    fn duplicate_points_do_not_break_seeding() {
        let data = vec![vec![1.0f32, 1.0]; 20];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = kmeans(&rows, 4, &KMeansConfig::default(), 5);
        assert_eq!(c.assignments.len(), 20);
        assert_eq!(c.centroids.len(), 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let data = two_blobs();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let a = kmeans(&rows, 3, &KMeansConfig::default(), 21);
        let b = kmeans(&rows, 3, &KMeansConfig::default(), 21);
        assert_eq!(a.assignments, b.assignments);
    }

    /// Plants two simultaneously-empty clusters: points {0, 1, 10, 11} with
    /// initial centroids at 0.4, 0.6, 100 and 200 assign every point to the
    /// first two centroids, so clusters 2 and 3 are empty in iteration one.
    /// The pre-fix re-seeding handed both the same farthest point; the fix
    /// must produce pairwise-distinct centroids from a single iteration.
    #[test]
    fn simultaneously_empty_clusters_reseed_to_distinct_points() {
        let data = vec![vec![0.0f32], vec![1.0], vec![10.0], vec![11.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let initial = vec![vec![0.4f32], vec![0.6], vec![100.0], vec![200.0]];
        let config = KMeansConfig {
            max_iters: 1,
            ..Default::default()
        };
        for c in [
            kmeans_with_initial(&rows, &initial, &config),
            kmeans_reference_with_initial(&rows, &initial, &config),
        ] {
            assert_eq!(c.centroids.len(), 4);
            for a in 0..4 {
                for b in (a + 1)..4 {
                    assert_ne!(
                        c.centroids[a], c.centroids[b],
                        "clusters {a} and {b} share a centroid: {:?}",
                        c.centroids
                    );
                }
            }
        }
    }

    #[test]
    fn with_initial_paths_agree_bitwise_on_integer_data() {
        let data: Vec<Vec<f32>> = (0..64)
            .map(|i| vec![(i % 9) as f32, ((i * 5) % 11) as f32])
            .collect();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let initial = vec![vec![0.0f32, 0.0], vec![4.0, 5.0], vec![8.0, 10.0]];
        let config = KMeansConfig::default();
        let fast = kmeans_with_initial(&rows, &initial, &config);
        let oracle = kmeans_reference_with_initial(&rows, &initial, &config);
        assert_eq!(fast.assignments, oracle.assignments);
        assert_eq!(fast.centroids, oracle.centroids);
    }
}
