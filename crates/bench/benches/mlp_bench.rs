//! Detector (MLP) training and inference throughput (paper §III-D).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zeroed_ml::{Mlp, MlpConfig};

fn synthetic(n: usize, dim: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| (0..dim).map(|d| ((i * 13 + d * 7) % 101) as f32 / 101.0).collect())
        .collect();
    let labels: Vec<f32> = rows
        .iter()
        .map(|r| if r[0] + r[1] > 1.0 { 1.0 } else { 0.0 })
        .collect();
    (rows, labels)
}

fn bench_mlp(c: &mut Criterion) {
    let (rows, labels) = synthetic(1_000, 64);
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let config = MlpConfig {
        hidden: 64,
        epochs: 10,
        ..MlpConfig::default()
    };

    // `fit` routes through the batched trainer; the scalar trainer is the
    // retained equivalence oracle (bit-identical — see the mlp module docs).
    c.bench_function("mlp/train_batched_1000x64_10epochs", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(64, &config);
            black_box(mlp.train_batched(&refs, &labels, &config))
        })
    });
    c.bench_function("mlp/train_scalar_1000x64_10epochs", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(64, &config);
            black_box(mlp.train(&refs, &labels, &config))
        })
    });

    let model = Mlp::fit(&refs, &labels, &config);
    c.bench_function("mlp/predict_1000x64", |b| {
        b.iter(|| {
            for row in &refs {
                black_box(model.predict_proba(row));
            }
        })
    });
    c.bench_function("mlp/predict_batch_1000x64", |b| {
        b.iter(|| black_box(model.predict_proba_batch(&refs)))
    });
}

/// Detector training at hospital shape (D 110, hidden 64, batch 64): the
/// production `train_weighted` (lanes over hidden units) against the scalar
/// `train` oracle it must match bit for bit.
fn bench_train_hospital_shape(c: &mut Criterion) {
    let (rows, labels) = synthetic(1_024, 110);
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let weights = vec![1.0f32; refs.len()];
    let config = MlpConfig {
        hidden: 64,
        batch_size: 64,
        epochs: 2,
        ..MlpConfig::default()
    };
    let mut lanes = Mlp::new(110, &config);
    let mut scalar = Mlp::new(110, &config);
    lanes.train_weighted(&refs, &labels, &weights, &config);
    scalar.train(&refs, &labels, &config);
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let per_row: Vec<f32> = refs.iter().map(|r| scalar.predict_proba(r)).collect();
    assert_eq!(bits(&lanes.predict_proba_batch(&refs)), bits(&per_row));

    c.bench_function("mlp/train_weighted_1024x110_h64_b64", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(110, &config);
            black_box(mlp.train_weighted(&refs, &labels, &weights, &config))
        })
    });
    c.bench_function("mlp/train_scalar_1024x110_h64_b64", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(110, &config);
            black_box(mlp.train(&refs, &labels, &config))
        })
    });
}

criterion_group!(benches, bench_mlp, bench_train_hospital_shape);
criterion_main!(benches);
