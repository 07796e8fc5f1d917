//! Clustering cost in rows and dimensions (sampling step, paper §III-C).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use zeroed_cluster::{
    assign_to_nearest, cluster, kmeans, kmeans_reference, DedupPoints, KMeansConfig, SamplingMethod,
};

fn synthetic(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * 31 + d * 17) % 97) as f32 / 97.0 + ((i % 7) * 3) as f32)
                .collect()
        })
        .collect()
}

/// `n` rows drawn from `u` distinct integer-valued vectors — the shape real
/// per-attribute features take (assembled per distinct cell value).
fn duplicated(n: usize, u: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let v = (i * 7 + i / 11) % u;
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

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    for &n in &[500usize, 2_000] {
        let data = synthetic(n, 32);
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        for method in [
            SamplingMethod::KMeans,
            SamplingMethod::Agglomerative,
            SamplingMethod::Random,
        ] {
            group.bench_with_input(
                BenchmarkId::new(method.name(), n),
                &rows,
                |b, rows| b.iter(|| black_box(cluster(method, rows, 25, 7))),
            );
        }
    }
    group.finish();
}

/// The sampling-stage hot path: dedup-weighted k-means against the retained
/// full-row oracle on low-cardinality tables (u distinct vectors ≪ n rows).
fn bench_kmeans_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_dedup");
    let config = KMeansConfig::default();
    for &(n, u) in &[(10_000usize, 50usize), (50_000, 200)] {
        let data = duplicated(n, u, 16);
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        group.bench_with_input(
            BenchmarkId::new("dedup", format!("{n}x{u}")),
            &rows,
            |b, rows| b.iter(|| black_box(kmeans(rows, 25, &config, 7))),
        );
        // The oracle is quadratic in practice (k Lloyd scans over all rows),
        // so only the smaller shape gets the reference run.
        if n <= 10_000 {
            group.bench_with_input(
                BenchmarkId::new("oracle", format!("{n}x{u}")),
                &rows,
                |b, rows| b.iter(|| black_box(kmeans_reference(rows, 25, &config, 7))),
            );
        }
    }
    group.finish();
}

/// `n` all-distinct rows of non-integer values from a seeded xorshift
/// stream, shaped like a hospital attribute's unified feature rows.
fn distinct_rows(n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
                })
                .collect()
        })
        .collect()
}

/// One Lloyd assignment step at hospital shape (5000 distinct vectors,
/// D 110, k 250): the lanes-over-centroids kernel against the scalar argmin
/// oracle it must match bit for bit.
fn bench_assign_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign");
    let data = distinct_rows(5_000, 110);
    let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
    let dd = DedupPoints::build(&rows);
    let centroids: Vec<Vec<f32>> = data.iter().step_by(20).cloned().collect();
    let oracle = assign_to_nearest(&rows, &centroids);
    assert_eq!(dd.assign_unique(&centroids), oracle);
    group.bench_function("lanes_5000x110_k250", |b| {
        b.iter(|| black_box(dd.assign_unique(&centroids)))
    });
    group.bench_function("oracle_5000x110_k250", |b| {
        b.iter(|| black_box(assign_to_nearest(&rows, &centroids)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster,
    bench_kmeans_dedup,
    bench_assign_lanes
);
criterion_main!(benches);
