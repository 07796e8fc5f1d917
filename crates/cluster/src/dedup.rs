//! Distinct-row deduplication: the shared substrate of the clustering and
//! detector fast paths.
//!
//! Per-attribute feature vectors are assembled per *distinct value* and
//! scattered to rows (`zeroed-features` interning), so an attribute with `n`
//! rows but `u` distinct values carries only `u` distinct feature vectors —
//! and real tables have `u ≪ n` (a 50k-row "state" column has ~50 distincts).
//! Clustering, scaling, MLP training and prediction are all pure functions of
//! the vector, so any per-row loop over the attribute can instead run per
//! *unique* vector and scatter results back by code.
//!
//! [`DedupPoints`] captures that factorisation once: the distinct vectors in
//! first-occurrence order, one code per input row, and per-distinct
//! multiplicities. Rows are grouped by exact f32 *bit pattern* (no epsilon),
//! so any computation on a unique vector produces bit-identical results to
//! running it on every duplicate row — the property the equivalence oracles
//! in `kmeans` and `zeroed-ml` assert.
//!
//! ## Lane-structured distance kernels
//!
//! The scalar [`crate::sq_dist`] is one serial f32 add chain per pair, which
//! the compiler cannot vectorise without reassociating it. The dedup passes
//! instead give each of [`LANES`] SIMD lanes its *own* independent
//! accumulator and vectorise across lanes, never within a sum:
//!
//! * [`DedupPoints::assign_unique`] (the Lloyd assignment, the bulk of the
//!   clustering cost) packs the centroids dim-major once per call and scores
//!   `LANES` centroids per step against one distinct vector;
//! * the k-means++ distance update, the empty-cluster reseed and
//!   [`DedupPoints::representatives`] run `LANES` distinct vectors per step
//!   over a dim-major copy of the distincts built once per `DedupPoints`.
//!
//! Three facts keep every result bit-identical to the scalar oracles:
//!
//! 1. **Each lane adds in the scalar order.** A lane starts at `0.0` and adds
//!    `(x - c)²` for dimensions `0, 1, 2, …`, exactly `sq_dist`'s sequence
//!    of operations, so its f32 sum is the same number.
//! 2. **No fused multiply-add.** rustc never contracts `a * b + c` into an
//!    FMA (LLVM only fuses under fast-math flags Rust does not emit), so the
//!    vector code rounds the product and the sum separately, as the scalar
//!    code does. The kernels must not call `mul_add`, which would round once.
//! 3. **The argmin keeps index order.** Lanes are scanned block by block in
//!    ascending centroid index with a strict `<` against a running best that
//!    starts at `+∞`, so ties go to the lowest index and NaN distances never
//!    win, as in [`crate::assign_to_nearest`]. Padding lanes past `k` are
//!    never scanned.

use crate::Clustering;
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Lane width of the distance kernels: the number of independent f32
/// accumulators one kernel step advances together. Sixteen lanes fill four
/// 128-bit vectors, enough independent add chains to hide the add latency
/// on the baseline x86-64 target.
pub const LANES: usize = 16;

/// Rotate-xor-multiply (FxHash-style) hasher: the keys are content hashes of
/// short f32 rows, for which SipHash's DoS resistance is wasted cost.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.hash = (self.hash.rotate_left(5) ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Content hash of one row's f32 bit patterns.
#[inline]
fn hash_row(row: &[f32]) -> u64 {
    let mut h = FxHasher::default();
    for &x in row {
        h.write_u64(x.to_bits() as u64);
    }
    h.finish()
}

/// Exact bit-pattern equality (distinguishes `-0.0` from `0.0` and treats
/// identical NaN payloads as equal — conservative in both directions).
#[inline]
fn rows_bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A set of input rows factored into distinct vectors plus per-row codes.
#[derive(Debug, Clone)]
pub struct DedupPoints {
    /// Flat row-major storage of the distinct vectors, in first-occurrence
    /// order.
    unique: Vec<f32>,
    /// Vector dimensionality.
    dim: usize,
    /// For every input row, the index of its distinct vector.
    codes: Vec<u32>,
    /// Multiplicity of each distinct vector.
    counts: Vec<u32>,
    /// First input row holding each distinct vector.
    first_rows: Vec<u32>,
    /// Dim-major copy of `unique` for the lanes-over-points kernels, built
    /// on first use (see [`DedupPoints::point_panels`]).
    point_panels: OnceLock<Vec<[f32; LANES]>>,
}

impl DedupPoints {
    /// Groups `data` rows by exact bit pattern.
    pub fn build(data: &[&[f32]]) -> Self {
        let dim = data.first().map(|r| r.len()).unwrap_or(0);
        let mut unique: Vec<f32> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(data.len());
        let mut counts: Vec<u32> = Vec::new();
        let mut first_rows: Vec<u32> = Vec::new();
        // hash -> candidate unique ids (collisions resolved by bit comparison).
        let mut by_hash: HashMap<u64, Vec<u32>, FxBuild> = HashMap::default();
        for (i, row) in data.iter().enumerate() {
            debug_assert_eq!(row.len(), dim, "ragged clustering input");
            let candidates = by_hash.entry(hash_row(row)).or_default();
            let found = candidates
                .iter()
                .copied()
                .find(|&u| rows_bit_equal(&unique[u as usize * dim..(u as usize + 1) * dim], row));
            let code = match found {
                Some(u) => {
                    counts[u as usize] += 1;
                    u
                }
                None => {
                    let u = counts.len() as u32;
                    unique.extend_from_slice(row);
                    counts.push(1);
                    first_rows.push(i as u32);
                    candidates.push(u);
                    u
                }
            };
            codes.push(code);
        }
        Self {
            unique,
            dim,
            codes,
            counts,
            first_rows,
            point_panels: OnceLock::new(),
        }
    }

    /// Number of input rows.
    pub fn n_rows(&self) -> usize {
        self.codes.len()
    }

    /// Number of distinct vectors.
    pub fn n_unique(&self) -> usize {
        self.counts.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `u`-th distinct vector.
    #[inline]
    pub fn unique_row(&self, u: usize) -> &[f32] {
        &self.unique[u * self.dim..(u + 1) * self.dim]
    }

    /// One reference per distinct vector, in first-occurrence order.
    pub fn unique_row_refs(&self) -> Vec<&[f32]> {
        (0..self.n_unique()).map(|u| self.unique_row(u)).collect()
    }

    /// Per-row codes into the distinct vectors.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Multiplicity of each distinct vector.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// First input row holding each distinct vector.
    pub fn first_rows(&self) -> &[u32] {
        &self.first_rows
    }

    /// The input row `i` (a view into the distinct storage).
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        self.unique_row(self.codes[i] as usize)
    }

    /// Expands a per-unique result to a per-row result by code.
    pub fn scatter<T: Copy>(&self, per_unique: &[T]) -> Vec<T> {
        debug_assert_eq!(per_unique.len(), self.n_unique());
        self.codes
            .iter()
            .map(|&c| per_unique[c as usize])
            .collect()
    }

    /// Nearest-centroid index per *distinct* vector (parallel over
    /// distincts).
    ///
    /// Each call packs the centroids once into dim-major panels and scores
    /// every distinct vector against [`LANES`] centroids at a time; see the
    /// module docs for why the result is bit-identical to the scalar
    /// [`crate::assign_to_nearest`] argmin.
    pub fn assign_unique(&self, centroids: &[Vec<f32>]) -> Vec<usize> {
        let panels = CentroidPanels::new(centroids, self.dim);
        (0..self.n_unique())
            .into_par_iter()
            .map(|u| panels.nearest(self.unique_row(u)))
            .collect()
    }

    /// Nearest-centroid index per input row: one distance evaluation per
    /// distinct vector, scattered back by code. Bit-identical to
    /// [`crate::assign_to_nearest`] over the full rows.
    pub fn assign_to_nearest(&self, centroids: &[Vec<f32>]) -> Vec<usize> {
        self.scatter(&self.assign_unique(centroids))
    }

    /// Representative row per non-empty cluster: the row closest to its
    /// centroid, evaluated once per distinct vector.
    ///
    /// Bit-identical to [`Clustering::representatives_reference`] over the
    /// full rows: every duplicate row shares its distinct vector's distance,
    /// so the earliest minimal row is the winning distinct's first
    /// occurrence, and scanning distincts in first-occurrence order with a
    /// strict `<` reproduces the row-order tie-break exactly.
    pub fn representatives(&self, clustering: &Clustering) -> Vec<usize> {
        debug_assert_eq!(clustering.assignments.len(), self.n_rows());
        let assigned = |u: usize| clustering.assignments[self.first_rows[u] as usize];
        let mut best: Vec<Option<(u32, f32)>> = vec![None; clustering.k];
        self.sq_dists_to_assigned(&clustering.centroids, assigned, |u, d| {
            let a = assigned(u);
            match best[a] {
                Some((_, bd)) if !(d < bd) => {}
                _ => best[a] = Some((self.first_rows[u], d)),
            }
        });
        best.into_iter()
            .flatten()
            .map(|(i, _)| i as usize)
            .collect()
    }

    /// The distinct vectors packed by [`pack_panels`] for the
    /// lanes-over-points kernels, built on first use.
    fn point_panels(&self) -> &[[f32; LANES]] {
        let distincts = (0..self.n_unique()).map(|u| self.unique_row(u));
        self.point_panels
            .get_or_init(|| pack_panels(distincts, self.dim))
    }

    /// Calls `f(u, sq_dist(unique_row(u), centroid))` for every distinct `u`
    /// in ascending order, [`LANES`] distincts at a time.
    pub(crate) fn sq_dists_to(&self, centroid: &[f32], mut f: impl FnMut(usize, f32)) {
        debug_assert_eq!(centroid.len(), self.dim);
        let nu = self.n_unique();
        let panels = self.point_panels();
        for b in 0..nu.div_ceil(LANES) {
            let block = &panels[b * self.dim..(b + 1) * self.dim];
            let mut acc = [0.0f32; LANES];
            for (lanes, &c) in block.iter().zip(centroid) {
                for (a, &x) in acc.iter_mut().zip(lanes) {
                    let d = x - c;
                    *a += d * d;
                }
            }
            let base = b * LANES;
            for (l, &d) in acc.iter().enumerate().take(nu - base) {
                f(base + l, d);
            }
        }
    }

    /// Calls `f(u, sq_dist(unique_row(u), &centroids[assigned(u)]))` for
    /// every distinct `u` in ascending order, [`LANES`] distincts at a time.
    /// The lanes read different centroids, so this kernel gains independent
    /// accumulator chains rather than SIMD loads.
    pub(crate) fn sq_dists_to_assigned(
        &self,
        centroids: &[Vec<f32>],
        assigned: impl Fn(usize) -> usize,
        mut f: impl FnMut(usize, f32),
    ) {
        let nu = self.n_unique();
        let panels = self.point_panels();
        for b in 0..nu.div_ceil(LANES) {
            let base = b * LANES;
            // Padding lanes borrow the last distinct's centroid; their sums
            // are never reported.
            let cs: [&[f32]; LANES] =
                std::array::from_fn(|l| &centroids[assigned((base + l).min(nu - 1))][..self.dim]);
            let block = &panels[b * self.dim..(b + 1) * self.dim];
            let mut acc = [0.0f32; LANES];
            for (dim, lanes) in block.iter().enumerate() {
                for ((a, &x), c) in acc.iter_mut().zip(lanes).zip(&cs) {
                    let d = x - c[dim];
                    *a += d * d;
                }
            }
            for (l, &d) in acc.iter().enumerate().take(nu - base) {
                f(base + l, d);
            }
        }
    }
}

/// Packs `dim`-long vectors into lane panels: block `b` holds vectors
/// `b*LANES..(b+1)*LANES` dim-major, one `[f32; LANES]` per dimension, the
/// last block zero-padded.
fn pack_panels<'a>(
    vectors: impl ExactSizeIterator<Item = &'a [f32]>,
    dim: usize,
) -> Vec<[f32; LANES]> {
    let mut panels = vec![[0.0f32; LANES]; vectors.len().div_ceil(LANES) * dim];
    for (v, vector) in vectors.enumerate() {
        let block = &mut panels[(v / LANES) * dim..][..dim];
        for (lanes, &x) in block.iter_mut().zip(vector) {
            lanes[v % LANES] = x;
        }
    }
    panels
}

/// Centroids packed by [`pack_panels`] once per
/// [`DedupPoints::assign_unique`] call, for lanes-over-centroids scoring.
struct CentroidPanels {
    panels: Vec<[f32; LANES]>,
    dim: usize,
    k: usize,
}

impl CentroidPanels {
    fn new(centroids: &[Vec<f32>], dim: usize) -> Self {
        Self {
            panels: pack_panels(centroids.iter().map(Vec::as_slice), dim),
            dim,
            k: centroids.len(),
        }
    }

    /// Index of the centroid nearest to `row`: the first strict minimum in
    /// centroid order, as the scalar scan picks it (0 when every distance is
    /// NaN or there are no centroids).
    fn nearest(&self, row: &[f32]) -> usize {
        debug_assert_eq!(row.len(), self.dim);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for b in 0..self.k.div_ceil(LANES) {
            let block = &self.panels[b * self.dim..(b + 1) * self.dim];
            let mut acc = [0.0f32; LANES];
            for (&x, lanes) in row.iter().zip(block) {
                for (a, &c) in acc.iter_mut().zip(lanes) {
                    let d = x - c;
                    *a += d * d;
                }
            }
            let base = b * LANES;
            for (l, &d) in acc.iter().enumerate().take(self.k - base) {
                if d < best_d {
                    best_d = d;
                    best = base + l;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[Vec<f32>]) -> Vec<&[f32]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn build_groups_duplicate_rows() {
        let data = vec![
            vec![1.0f32, 2.0],
            vec![3.0, 4.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![5.0, 6.0],
        ];
        let dd = DedupPoints::build(&rows(&data));
        assert_eq!(dd.n_rows(), 5);
        assert_eq!(dd.n_unique(), 3);
        assert_eq!(dd.codes(), &[0, 1, 0, 0, 2]);
        assert_eq!(dd.counts(), &[3, 1, 1]);
        assert_eq!(dd.first_rows(), &[0, 1, 4]);
        assert_eq!(dd.unique_row(2), &[5.0, 6.0]);
        assert_eq!(dd.row(3), &[1.0, 2.0]);
    }

    #[test]
    fn negative_zero_is_a_distinct_pattern() {
        let data = vec![vec![0.0f32], vec![-0.0f32]];
        let dd = DedupPoints::build(&rows(&data));
        assert_eq!(dd.n_unique(), 2);
    }

    #[test]
    fn scatter_round_trips() {
        let data = vec![vec![1.0f32], vec![2.0], vec![1.0]];
        let dd = DedupPoints::build(&rows(&data));
        assert_eq!(dd.scatter(&[10usize, 20]), vec![10, 20, 10]);
    }

    #[test]
    fn dedup_assignment_matches_full_assignment() {
        let data: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 7) as f32, (i % 3) as f32])
            .collect();
        let r = rows(&data);
        let dd = DedupPoints::build(&r);
        assert_eq!(dd.n_unique(), 21);
        let centroids = vec![vec![0.0f32, 0.0], vec![5.0, 2.0]];
        assert_eq!(
            dd.assign_to_nearest(&centroids),
            crate::assign_to_nearest(&r, &centroids)
        );
    }

    #[test]
    fn empty_input_is_empty() {
        let r: Vec<&[f32]> = Vec::new();
        let dd = DedupPoints::build(&r);
        assert_eq!(dd.n_rows(), 0);
        assert_eq!(dd.n_unique(), 0);
        assert_eq!(dd.dim(), 0);
    }
}
