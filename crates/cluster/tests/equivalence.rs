//! Equivalence and property suite for the dedup-weighted clustering fast
//! paths against their retained scalar oracles.
//!
//! The duplicated-row tables below use integer-valued f32 features so the
//! weighted f64 centroid sums are exact; in that regime the fast path is
//! bit-identical to the full-row oracle (see the `kmeans` module docs). The
//! all-distinct tables exercise the regime where the two paths coincide
//! unconditionally (every multiplicity is 1, and `1.0 * x == x` exactly).

use zeroed_cluster::{
    assign_to_nearest, kmeans, kmeans_reference, DedupPoints, KMeansConfig, SamplingMethod,
};

fn refs(data: &[Vec<f32>]) -> Vec<&[f32]> {
    data.iter().map(|r| r.as_slice()).collect()
}

/// A low-cardinality table shaped like real per-attribute features: `n` rows
/// drawn from `u` distinct integer-valued vectors, interleaved so duplicate
/// runs are non-contiguous.
fn duplicated_table(n: usize, u: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let v = (i * 7 + i / 11) % u;
            // Dimension 0 carries `v` itself so the table holds exactly `u`
            // distinct vectors; the rest wrap for varied geometry.
            (0..dim)
                .map(|d| {
                    if d == 0 {
                        v as f32
                    } else {
                        ((v * (d + 3) + d * d) % 23) as f32
                    }
                })
                .collect()
        })
        .collect()
}

/// An all-distinct table with non-integer values.
fn distinct_table(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (i * dim + d) as f32 * 0.37 - 1.9)
                .collect()
        })
        .collect()
}

#[test]
fn dedup_kmeans_is_bit_identical_to_the_oracle_on_duplicated_tables() {
    for (n, u, k, seed) in [
        (500usize, 9usize, 4usize, 1u64),
        (1_000, 40, 12, 7),
        (737, 3, 5, 99),
        (200, 200, 8, 5), // u == n: degenerate dedup, still identical
    ] {
        let data = duplicated_table(n, u, 4);
        let rows = refs(&data);
        let config = KMeansConfig::default();
        let fast = kmeans(&rows, k, &config, seed);
        let oracle = kmeans_reference(&rows, k, &config, seed);
        assert_eq!(fast.k, oracle.k, "n={n} u={u} k={k} seed={seed}");
        assert_eq!(fast.assignments, oracle.assignments, "n={n} u={u} k={k}");
        assert_eq!(fast.centroids, oracle.centroids, "n={n} u={u} k={k}");
    }
}

#[test]
fn dedup_kmeans_is_bit_identical_to_the_oracle_on_all_distinct_tables() {
    let data = distinct_table(300, 3);
    let rows = refs(&data);
    let config = KMeansConfig::default();
    for seed in [0u64, 3, 17] {
        let fast = kmeans(&rows, 6, &config, seed);
        let oracle = kmeans_reference(&rows, 6, &config, seed);
        assert_eq!(fast.assignments, oracle.assignments, "seed={seed}");
        assert_eq!(fast.centroids, oracle.centroids, "seed={seed}");
    }
}

#[test]
fn single_pass_representatives_match_the_reference_scan() {
    for (n, u, k, seed) in [(400usize, 11usize, 6usize, 2u64), (250, 250, 9, 4)] {
        let data = duplicated_table(n, u, 3);
        let rows = refs(&data);
        let c = kmeans(&rows, k, &KMeansConfig::default(), seed);
        assert_eq!(
            c.representatives(&rows),
            c.representatives_reference(&rows),
            "n={n} u={u} k={k}"
        );
    }
}

#[test]
fn dedup_representatives_match_the_reference_scan() {
    let data = duplicated_table(600, 13, 4);
    let rows = refs(&data);
    let dd = DedupPoints::build(&rows);
    for method in [SamplingMethod::KMeans, SamplingMethod::Random] {
        let c = zeroed_cluster::cluster(method, &rows, 7, 11);
        assert_eq!(
            dd.representatives(&c),
            c.representatives_reference(&rows),
            "{}",
            method.name()
        );
    }
}

#[test]
fn dedup_assignment_matches_full_assignment_on_large_input() {
    let data = duplicated_table(2_000, 31, 5);
    let rows = refs(&data);
    let dd = DedupPoints::build(&rows);
    let c = kmeans(&rows, 10, &KMeansConfig::default(), 3);
    assert_eq!(
        dd.assign_to_nearest(&c.centroids),
        assign_to_nearest(&rows, &c.centroids)
    );
}

/// The empty-cluster re-seed fix's global property: whenever the input holds
/// at least `k` distinct points, the converged clustering must never carry
/// two bit-identical centroids.
#[test]
fn no_duplicate_centroids_when_at_least_k_distinct_points() {
    for (n, u, k) in [
        (300usize, 8usize, 8usize),
        (300, 8, 5),
        (500, 20, 16),
        (512, 64, 32),
    ] {
        let data = duplicated_table(n, u, 3);
        let rows = refs(&data);
        assert!(DedupPoints::build(&rows).n_unique() >= k, "premise violated");
        for seed in 0..8u64 {
            let c = kmeans(&rows, k, &KMeansConfig::default(), seed);
            for a in 0..c.centroids.len() {
                for b in (a + 1)..c.centroids.len() {
                    assert_ne!(
                        c.centroids[a], c.centroids[b],
                        "n={n} u={u} k={k} seed={seed}: clusters {a}/{b} collide"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-kernel edge cases. The distance kernels in `zeroed_cluster::dedup`
// score `LANES` centroids (assignment) or `LANES` distinct points (k-means++
// seeding, empty-cluster reseed, representatives) per step; the shapes below
// straddle that width and feed the special f32 values through the argmin.
// ---------------------------------------------------------------------------

use zeroed_cluster::{Clustering, LANES};

/// Seeded xorshift64 stream, so every edge-case table is reproducible.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A non-integer value in `[-2, 2)`.
    fn value(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
    }

    fn vector(&mut self, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| self.value()).collect()
    }
}

/// `n` rows drawn (with repeats) from `u` distinct random vectors.
fn pooled_rows(rng: &mut XorShift, n: usize, u: usize, dim: usize) -> Vec<Vec<f32>> {
    let pool: Vec<Vec<f32>> = (0..u).map(|_| rng.vector(dim)).collect();
    (0..n).map(|_| pool[rng.below(u)].clone()).collect()
}

/// Asserts the lane assignment and the dedup representative scan agree with
/// their scalar oracles on `data` against `centroids`.
fn assert_lane_paths_match(data: &[Vec<f32>], centroids: &[Vec<f32>], ctx: &str) {
    let rows = refs(data);
    let dd = DedupPoints::build(&rows);
    let assignments = assign_to_nearest(&rows, centroids);
    assert_eq!(
        dd.assign_to_nearest(centroids),
        assignments,
        "assignment: {ctx}"
    );
    let clustering = Clustering {
        k: centroids.len(),
        assignments,
        centroids: centroids.to_vec(),
    };
    assert_eq!(
        dd.representatives(&clustering),
        clustering.representatives_reference(&rows),
        "representatives: {ctx}"
    );
}

/// Bitwise centroid equality that treats any two NaNs as equal: the two
/// paths sum centroids in different orders, which can change a NaN's payload
/// but not whether the value is NaN.
fn assert_centroids_match(fast: &[Vec<f32>], oracle: &[Vec<f32>], ctx: &str) {
    assert_eq!(fast.len(), oracle.len(), "{ctx}");
    for (a, b) in fast.iter().zip(oracle) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (x, y) in a.iter().zip(b) {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{ctx}: centroid coordinate {x} vs {y}"
            );
        }
    }
}

#[test]
fn lane_assignment_matches_the_oracle_across_dims_and_cluster_counts() {
    let mut rng = XorShift(0x5eed_0001);
    for dim in [1, LANES - 1, LANES, LANES + 1, 110] {
        let data = pooled_rows(&mut rng, 320, 120, dim);
        for k in [1, LANES - 1, LANES + 1, 250] {
            let centroids: Vec<Vec<f32>> = (0..k).map(|_| rng.vector(dim)).collect();
            assert_lane_paths_match(&data, &centroids, &format!("dim={dim} k={k}"));
        }
    }
}

#[test]
fn lane_kmeans_matches_the_oracle_around_the_lane_width() {
    // Integer-valued tables keep the weighted centroid sums exact, so the
    // whole run (seeding, Lloyd, reseeds) must match bit for bit. The
    // distinct counts straddle the lane width of the lanes-over-points
    // kernels; k above the distinct count forces empty-cluster reseeds.
    let config = KMeansConfig::default();
    for dim in [1, LANES - 1, LANES, LANES + 1, 110] {
        for u in [1, LANES - 1, LANES, LANES + 1, 40] {
            let data = duplicated_table(4 * u + 37, u, dim);
            let rows = refs(&data);
            let n_unique = DedupPoints::build(&rows).n_unique();
            for k in [1, LANES - 1, LANES + 1, n_unique + 3] {
                for seed in [3u64, 11] {
                    let ctx = format!("dim={dim} u={u} k={k} seed={seed}");
                    let fast = kmeans(&rows, k, &config, seed);
                    let oracle = kmeans_reference(&rows, k, &config, seed);
                    assert_eq!(fast.assignments, oracle.assignments, "{ctx}");
                    assert_centroids_match(&fast.centroids, &oracle.centroids, &ctx);
                    assert_eq!(
                        DedupPoints::build(&rows).representatives(&fast),
                        fast.representatives_reference(&rows),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn lane_kmeans_matches_the_oracle_when_k_exceeds_the_distinct_count() {
    let config = KMeansConfig::default();
    let data = duplicated_table(250, 7, 110);
    let rows = refs(&data);
    assert_eq!(DedupPoints::build(&rows).n_unique(), 7);
    for k in [8usize, LANES + 1, 250] {
        let fast = kmeans(&rows, k, &config, 5);
        let oracle = kmeans_reference(&rows, k, &config, 5);
        assert_eq!(fast.k, oracle.k, "k={k}");
        assert_eq!(fast.assignments, oracle.assignments, "k={k}");
        assert_centroids_match(&fast.centroids, &oracle.centroids, &format!("k={k}"));
    }
}

#[test]
fn duplicate_centroids_resolve_to_the_lowest_index() {
    let mut rng = XorShift(0x5eed_0002);
    for dim in [1, LANES + 1, 110] {
        let data = pooled_rows(&mut rng, 200, 60, dim);
        // Every centroid appears twice, the copies `LANES + 3` apart, so
        // ties fall inside one lane block and across blocks.
        let base: Vec<Vec<f32>> = (0..2 * LANES).map(|_| rng.vector(dim)).collect();
        let mut centroids = base.clone();
        for (c, centroid) in base.iter().enumerate() {
            centroids.insert((c + LANES + 3).min(centroids.len()), centroid.clone());
        }
        assert_lane_paths_match(&data, &centroids, &format!("dim={dim}"));
        let rows = refs(&data);
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let assignments = DedupPoints::build(&rows).assign_to_nearest(&centroids);
        for (row, &best) in rows.iter().zip(&assignments) {
            let first = centroids
                .iter()
                .position(|c| same(c, &centroids[best]))
                .expect("the winner is a centroid");
            assert_eq!(best, first, "dim={dim}: row {row:?} took a later duplicate");
        }
    }
}

#[test]
fn signed_zeros_nans_and_infinities_follow_the_scalar_argmin() {
    let specials = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut rng = XorShift(0x5eed_0003);
    for dim in [1, LANES - 1, LANES + 1] {
        let sprinkle = |v: &mut Vec<f32>, rng: &mut XorShift| {
            for x in v.iter_mut() {
                if rng.below(4) == 0 {
                    *x = specials[rng.below(specials.len())];
                }
            }
        };
        let mut data = pooled_rows(&mut rng, 150, 50, dim);
        for row in data.iter_mut().step_by(3) {
            sprinkle(row, &mut rng);
        }
        for k in [1, LANES - 1, LANES + 1] {
            let mut centroids: Vec<Vec<f32>> = (0..k).map(|_| rng.vector(dim)).collect();
            for c in centroids.iter_mut().step_by(2) {
                sprinkle(c, &mut rng);
            }
            assert_lane_paths_match(&data, &centroids, &format!("dim={dim} k={k}"));
        }
        // All-special rows: every distance is NaN or infinite, so the
        // argmin must fall back to index order exactly as the oracle does.
        let all_special: Vec<Vec<f32>> = specials.iter().map(|&s| vec![s; dim]).collect();
        let ctx = format!("dim={dim} all special");
        assert_lane_paths_match(&all_special, &all_special, &ctx);
        let rows = refs(&data);
        for seed in [1u64, 2] {
            let fast = kmeans(&rows, LANES + 1, &KMeansConfig::default(), seed);
            let oracle = kmeans_reference(&rows, LANES + 1, &KMeansConfig::default(), seed);
            let ctx = format!("dim={dim} seed={seed}");
            assert_eq!(fast.assignments, oracle.assignments, "{ctx}");
        }
    }
}
