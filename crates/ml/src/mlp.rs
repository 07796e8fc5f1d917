//! A two-layer multilayer perceptron for binary cell classification.
//!
//! Architecture (paper §III-D): `input → hidden (ReLU) → 1 (sigmoid)`, trained
//! with the binary cross-entropy loss and the Adam optimiser on mini-batches.
//!
//! Two trainers share the algorithm:
//!
//! * [`Mlp::train`] — the scalar per-example loop, kept as the equivalence
//!   oracle.
//! * [`Mlp::train_batched`] / [`Mlp::train_weighted`] — the production fast
//!   path: per batch, the forward pass runs in parallel over examples and the
//!   backward pass in parallel over *hidden units* (each unit owns its `w1`
//!   gradient row, its `b1` entry and its `w2` entry, accumulating over the
//!   batch in example order). Because every output location has exactly one
//!   owner and each owner adds in the same order as the scalar loop, the
//!   gradients — and therefore the trained parameters — are bit-identical to
//!   [`Mlp::train`]'s under any thread count. [`Mlp::train_weighted`] folds a
//!   per-example weight into `dL/dlogit` (and the loss), which with unit
//!   weights multiplies by `1.0` exactly — so `train_batched` *is*
//!   `train_weighted` with weights of one, and both are covered by the same
//!   oracle. The weighted form is what lets `zeroed-core`'s detector train on
//!   deduplicated feature rows weighted by multiplicity instead of `n`
//!   expanded copies.
//!
//! The parallel calls go to the vendored `rayon` pool. When the trainer
//! itself runs inside a pool task, as `zeroed-core`'s detector does with one
//! attribute per task, they run inline on that task's thread, so a batch
//! costs no dispatch. Either way the single-owner, fixed-order accumulation
//! above keeps the parameters bit-identical under any thread count.
//!
//! ## Lane-structured kernels
//!
//! `Mlp::forward` (the oracle's forward) runs one serial f32 add chain per
//! hidden unit, which the compiler cannot vectorise without reassociating
//! it. The batched trainer and [`Mlp::predict_proba_batch`] instead transpose
//! `w1` once per batch (or call) into input-major panels of `LANES` (16) units
//! and give each SIMD lane one unit's accumulator: a lane starts at `b1[j]`
//! and adds `w1[j][i] * x[i]` for `i = 0, 1, 2, …`, the scalar order, so the
//! compiler vectorises across units, never within a sum. The backward pass
//! follows the same rule: `gw2` and `gb1` take lanes over units one example
//! at a time (an inactive unit keeps its `gb1` sum through a select, never a
//! `+ 0.0`, just as the scalar loop skips it), and each `gw1` row sums its
//! unit's active examples in example order with `LANES` inputs per register
//! block. rustc never contracts `a * b + c` into a fused multiply-add, so
//! the vector code rounds every product and sum as the scalar code does; the
//! kernels must not call `mul_add`. The batch loop reuses flat buffers (the
//! panels, example-major activations, per-unit active lists) instead of
//! allocating per example.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// MLP hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// PRNG seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            epochs: 30,
            batch_size: 64,
            learning_rate: 1e-3,
            weight_decay: 1e-5,
            seed: 42,
        }
    }
}

/// Dense parameter matrix with Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Param {
    value: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    fn new(len: usize) -> Self {
        Self {
            value: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    fn adam_step(&mut self, grad: &[f32], lr: f32, t: usize, weight_decay: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        // The bias-correction factors depend only on the step count — hoist
        // them so each step costs O(1) `powi` calls instead of O(params).
        let t = t as i32;
        let m_corr = 1.0 / (1.0 - B1.powi(t));
        let v_corr = 1.0 / (1.0 - B2.powi(t));
        for i in 0..self.value.len() {
            let g = grad[i] + weight_decay * self.value[i];
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
            let m_hat = self.m[i] * m_corr;
            let v_hat = self.v[i] * v_corr;
            self.value[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// A trained two-layer MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    input_dim: usize,
    hidden: usize,
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
    steps: usize,
}

/// Hidden units per step of the lane-structured forward: sixteen f32
/// accumulators fill four 128-bit vectors on the baseline x86-64 target.
const LANES: usize = 16;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Mlp {
    /// Creates an untrained MLP with Xavier-style initialisation.
    pub fn new(input_dim: usize, config: &MlpConfig) -> Self {
        let hidden = config.hidden.max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let scale1 = (2.0 / (input_dim.max(1) + hidden) as f32).sqrt();
        let scale2 = (2.0 / (hidden + 1) as f32).sqrt();
        let mut w1 = Param::new(input_dim * hidden);
        for w in w1.value.iter_mut() {
            *w = (rng.gen::<f32>() * 2.0 - 1.0) * scale1;
        }
        let mut w2 = Param::new(hidden);
        for w in w2.value.iter_mut() {
            *w = (rng.gen::<f32>() * 2.0 - 1.0) * scale2;
        }
        Self {
            input_dim,
            hidden,
            w1,
            b1: Param::new(hidden),
            w2,
            b2: Param::new(1),
            steps: 0,
        }
    }

    /// Input dimensionality the network expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The trained parameters `[w1, b1, w2, b2]`, `w1` unit-major (row `j`
    /// holds hidden unit `j`'s input weights): what equivalence checks
    /// compare bit for bit.
    pub fn parameters(&self) -> [&[f32]; 4] {
        [
            &self.w1.value,
            &self.b1.value,
            &self.w2.value,
            &self.b2.value,
        ]
    }

    /// Forward pass returning `(hidden_activations, probability)`.
    fn forward(&self, x: &[f32]) -> (Vec<f32>, f32) {
        debug_assert_eq!(x.len(), self.input_dim);
        let mut h = vec![0.0f32; self.hidden];
        for j in 0..self.hidden {
            let mut acc = self.b1.value[j];
            let weights = &self.w1.value[j * self.input_dim..(j + 1) * self.input_dim];
            for (w, &xi) in weights.iter().zip(x.iter()) {
                acc += w * xi;
            }
            h[j] = acc.max(0.0);
        }
        let mut out = self.b2.value[0];
        for (w, &hj) in self.w2.value.iter().zip(h.iter()) {
            out += w * hj;
        }
        (h, sigmoid(out))
    }

    /// Predicted probability that the row is an error (positive class).
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        self.forward(x).1
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// `w1` packed for the lanes-over-hidden-units forward: block `b` holds
    /// units `b*LANES..(b+1)*LANES` input-major, one `[f32; LANES]` per input
    /// dimension, the last block zero-padded. Rebuilt in place (the buffer is
    /// reused) whenever `w1` has changed.
    fn pack_w1(&self, panels: &mut Vec<[f32; LANES]>) {
        let d = self.input_dim;
        panels.clear();
        panels.resize(self.hidden.div_ceil(LANES) * d, [0.0; LANES]);
        for (j, weights) in self.w1.value.chunks_exact(d.max(1)).enumerate() {
            let block = &mut panels[(j / LANES) * d..][..d];
            for (lanes, &w) in block.iter_mut().zip(weights) {
                lanes[j % LANES] = w;
            }
        }
    }

    /// The forward pass with [`LANES`] hidden units per step over `w1`
    /// packed by [`Mlp::pack_w1`]: writes the activations to `h` and returns
    /// the probability, bit-identical to [`Mlp::forward`] (see the module
    /// docs).
    fn forward_lanes(&self, panels: &[[f32; LANES]], x: &[f32], h: &mut [f32]) -> f32 {
        debug_assert_eq!(x.len(), self.input_dim);
        let d = self.input_dim;
        for (b, h_block) in h[..self.hidden].chunks_mut(LANES).enumerate() {
            let mut acc = [0.0f32; LANES];
            for (a, &bias) in acc.iter_mut().zip(&self.b1.value[b * LANES..]) {
                *a = bias;
            }
            for (lanes, &xi) in panels[b * d..(b + 1) * d].iter().zip(x) {
                for (a, &w) in acc.iter_mut().zip(lanes) {
                    *a += w * xi;
                }
            }
            for (hj, &a) in h_block.iter_mut().zip(&acc) {
                *hj = a.max(0.0);
            }
        }
        let mut out = self.b2.value[0];
        for (w, &hj) in self.w2.value.iter().zip(h.iter()) {
            out += w * hj;
        }
        sigmoid(out)
    }

    /// Trains the network on `(rows, labels)` (labels in `{0.0, 1.0}`) and
    /// returns the mean training loss of the final epoch.
    ///
    /// Rows must all have the configured input dimension; label and row counts
    /// must match. An empty training set leaves the network untouched and
    /// returns 0.
    pub fn train(&mut self, rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> f32 {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        if rows.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        let batch = config.batch_size.max(1);
        let mut last_epoch_loss = 0.0f32;

        // Gradient buffers reused across batches.
        let mut gw1 = vec![0.0f32; self.w1.value.len()];
        let mut gb1 = vec![0.0f32; self.b1.value.len()];
        let mut gw2 = vec![0.0f32; self.w2.value.len()];
        let mut gb2 = vec![0.0f32; 1];

        for _epoch in 0..config.epochs {
            // Fisher-Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(batch) {
                gw1.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                gw2.iter_mut().for_each(|g| *g = 0.0);
                gb2[0] = 0.0;
                for &idx in chunk {
                    let x = rows[idx];
                    let y = labels[idx];
                    let (h, p) = self.forward(x);
                    let p_clamped = p.clamp(1e-7, 1.0 - 1e-7);
                    epoch_loss +=
                        -(y * p_clamped.ln() + (1.0 - y) * (1.0 - p_clamped).ln());
                    // dL/dlogit = p - y
                    let dlogit = p - y;
                    gb2[0] += dlogit;
                    for j in 0..self.hidden {
                        gw2[j] += dlogit * h[j];
                    }
                    for j in 0..self.hidden {
                        if h[j] <= 0.0 {
                            continue;
                        }
                        let dh = dlogit * self.w2.value[j];
                        gb1[j] += dh;
                        let grad_row = &mut gw1[j * self.input_dim..(j + 1) * self.input_dim];
                        for (g, &xi) in grad_row.iter_mut().zip(x.iter()) {
                            *g += dh * xi;
                        }
                    }
                }
                let scale = 1.0 / chunk.len() as f32;
                gw1.iter_mut().for_each(|g| *g *= scale);
                gb1.iter_mut().for_each(|g| *g *= scale);
                gw2.iter_mut().for_each(|g| *g *= scale);
                gb2[0] *= scale;
                self.steps += 1;
                let t = self.steps;
                self.w1
                    .adam_step(&gw1, config.learning_rate, t, config.weight_decay);
                self.b1.adam_step(&gb1, config.learning_rate, t, 0.0);
                self.w2
                    .adam_step(&gw2, config.learning_rate, t, config.weight_decay);
                self.b2.adam_step(&gb2, config.learning_rate, t, 0.0);
            }
            last_epoch_loss = epoch_loss / n as f32;
        }
        last_epoch_loss
    }

    /// Batched fast-path trainer: bit-identical to [`Mlp::train`] (see the
    /// module docs), with the forward pass parallel over examples and the
    /// backward pass parallel over hidden units.
    pub fn train_batched(&mut self, rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> f32 {
        self.train_weighted(rows, labels, &vec![1.0f32; rows.len()], config)
    }

    /// [`Mlp::train_batched`] with a positive weight per example: each
    /// example's gradient and loss contribution is scaled by its weight, and
    /// batch gradients are weighted means (divided by the batch's total
    /// weight instead of its length). With unit weights this is bit-identical
    /// to [`Mlp::train`]; with integer weights it trains on a deduplicated
    /// set as if each row appeared `weight` times in every batch its distinct
    /// vector lands in.
    pub fn train_weighted(
        &mut self,
        rows: &[&[f32]],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> f32 {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        assert_eq!(rows.len(), weights.len(), "rows and weights must align");
        debug_assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        if rows.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        let batch = config.batch_size.max(1);
        let total_weight: f32 = weights.iter().sum();
        let mut last_epoch_loss = 0.0f32;

        let mut gw1 = vec![0.0f32; self.w1.value.len()];
        let mut gb1 = vec![0.0f32; self.b1.value.len()];
        let mut gw2 = vec![0.0f32; self.w2.value.len()];
        let mut gb2 = vec![0.0f32; 1];
        // Per-batch buffers reused across batches: packed `w1`, the batch's
        // hidden activations (example-major, `hidden` per example), its
        // weighted `dL/dlogit`s and each unit's active examples.
        let hidden = self.hidden;
        let mut panels = Vec::new();
        let mut hs = vec![0.0f32; batch.min(n) * hidden];
        let mut wdlogits = Vec::with_capacity(batch);
        let mut active: Vec<(u32, f32)> = Vec::with_capacity(hidden * batch.min(n));
        let mut n_active = vec![0usize; hidden];

        for _epoch in 0..config.epochs {
            // Fisher-Yates shuffle — same RNG stream as the scalar trainer.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(batch) {
                // Forward the whole batch (parallel over examples, lanes over
                // hidden units; the parameters are frozen within a batch, so
                // each forward is independent and the results match the
                // scalar interleaving).
                self.pack_w1(&mut panels);
                let hs = &mut hs[..chunk.len() * hidden];
                let probs: Vec<f32> = hs
                    .par_chunks_mut(hidden)
                    .enumerate()
                    .map(|(e, h)| self.forward_lanes(&panels, rows[chunk[e]], h))
                    .collect();
                let hs = &*hs;
                // Weighted `dL/dlogit` per example, plus the serial loss and
                // `b2` accumulations (scalar-order f32 sums).
                gb2[0] = 0.0;
                let mut chunk_weight = 0.0f32;
                wdlogits.clear();
                for (&idx, p) in chunk.iter().zip(probs) {
                    let y = labels[idx];
                    let w = weights[idx];
                    let p_clamped = p.clamp(1e-7, 1.0 - 1e-7);
                    epoch_loss +=
                        w * -(y * p_clamped.ln() + (1.0 - y) * (1.0 - p_clamped).ln());
                    let wdlogit = w * (p - y);
                    gb2[0] += wdlogit;
                    chunk_weight += w;
                    wdlogits.push(wdlogit);
                }
                // Backward. Unit `j` owns `gb1[j]`, `gw2[j]` and `gw1` row
                // `j`, and accumulates over the batch in example order —
                // exactly the scalar trainer's addition order for that
                // location. `gw2` and `gb1` take lanes over units, one
                // example at a time; an inactive unit keeps its `gb1` sum
                // through a select, never a `+ 0.0`, just as the scalar
                // trainer skips it.
                gw2.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                let w2 = &self.w2.value;
                for (h, &wdlogit) in hs.chunks_exact(hidden).zip(&wdlogits) {
                    let units = gw2.iter_mut().zip(gb1.iter_mut()).zip(h.iter().zip(w2));
                    for ((gw2_j, gb1_j), (&hj, &w2_j)) in units {
                        *gw2_j += wdlogit * hj;
                        let active = *gb1_j + wdlogit * w2_j;
                        *gb1_j = if hj > 0.0 { active } else { *gb1_j };
                    }
                }
                // Each unit's active examples with their `dh`, unit-major
                // and in example order (compacted without branches: every
                // slot is written, only an active one is kept).
                let len = chunk.len();
                active.resize(hidden * len, (0, 0.0));
                n_active.iter_mut().for_each(|c| *c = 0);
                for (e, (h, &wdlogit)) in hs.chunks_exact(hidden).zip(&wdlogits).enumerate() {
                    for (j, (&hj, &w2_j)) in h.iter().zip(w2).enumerate() {
                        active[j * len + n_active[j]] = (e as u32, wdlogit * w2_j);
                        n_active[j] += (hj > 0.0) as usize;
                    }
                }
                // `gw1`, parallel over units: each row sums `dh * x` over
                // the unit's active examples, `LANES` inputs at a time.
                gw1.par_chunks_mut(self.input_dim)
                    .enumerate()
                    .for_each(|(j, grad_row)| {
                        let terms = &active[j * len..j * len + n_active[j]];
                        let (blocks, tail) = grad_row.as_chunks_mut::<LANES>();
                        for (b, block) in blocks.iter_mut().enumerate() {
                            let mut acc = [0.0f32; LANES];
                            for &(e, dh) in terms {
                                let x = &rows[chunk[e as usize]].as_chunks::<LANES>().0[b];
                                for (a, &xi) in acc.iter_mut().zip(x) {
                                    *a += dh * xi;
                                }
                            }
                            *block = acc;
                        }
                        let start = self.input_dim - tail.len();
                        let mut acc = [0.0f32; LANES];
                        for &(e, dh) in terms {
                            for (a, &xi) in acc.iter_mut().zip(&rows[chunk[e as usize]][start..]) {
                                *a += dh * xi;
                            }
                        }
                        tail.copy_from_slice(&acc[..tail.len()]);
                    });
                let scale = 1.0 / chunk_weight;
                gw1.iter_mut().for_each(|g| *g *= scale);
                gb1.iter_mut().for_each(|g| *g *= scale);
                gw2.iter_mut().for_each(|g| *g *= scale);
                gb2[0] *= scale;
                self.steps += 1;
                let t = self.steps;
                self.w1
                    .adam_step(&gw1, config.learning_rate, t, config.weight_decay);
                self.b1.adam_step(&gb1, config.learning_rate, t, 0.0);
                self.w2
                    .adam_step(&gw2, config.learning_rate, t, config.weight_decay);
                self.b2.adam_step(&gb2, config.learning_rate, t, 0.0);
            }
            last_epoch_loss = epoch_loss / total_weight;
        }
        last_epoch_loss
    }

    /// Predicted probabilities for a batch of rows (parallel over blocks of
    /// rows, lanes over hidden units from `w1` packed once per call; each
    /// forward is independent, so the results are bit-identical to calling
    /// [`Mlp::predict_proba`] per row).
    pub fn predict_proba_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        const ROWS_PER_TASK: usize = 256;
        let mut panels = Vec::new();
        self.pack_w1(&mut panels);
        let mut probs = vec![0.0f32; rows.len()];
        probs
            .par_chunks_mut(ROWS_PER_TASK)
            .enumerate()
            .for_each(|(t, out)| {
                let mut h = vec![0.0f32; self.hidden];
                for (p, row) in out.iter_mut().zip(&rows[t * ROWS_PER_TASK..]) {
                    *p = self.forward_lanes(&panels, row, &mut h);
                }
            });
        probs
    }

    /// Convenience: constructs and trains an MLP in one call through the
    /// batched fast path (bit-identical to training with [`Mlp::train`]).
    pub fn fit(rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> Mlp {
        let input_dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mlp = Mlp::new(input_dim, config);
        mlp.train_batched(rows, labels, config);
        mlp
    }

    /// Constructs and trains a weighted MLP in one call (the detector's
    /// dedup-weighted entry point).
    pub fn fit_weighted(rows: &[&[f32]], labels: &[f32], weights: &[f32], config: &MlpConfig) -> Mlp {
        let input_dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mlp = Mlp::new(input_dim, config);
        mlp.train_weighted(rows, labels, weights, config);
        mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _rep in 0..50 {
            for (a, b) in [(0.0f32, 0.0f32), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.push(vec![a, b]);
                labels.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
            }
        }
        (rows, labels)
    }

    #[test]
    fn learns_xor() {
        let (rows, labels) = xor_data();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = MlpConfig {
            hidden: 16,
            epochs: 200,
            batch_size: 16,
            learning_rate: 5e-3,
            ..Default::default()
        };
        let mlp = Mlp::fit(&refs, &labels, &config);
        for (row, &y) in rows.iter().zip(labels.iter()) {
            assert_eq!(mlp.predict(row), y > 0.5, "row {row:?}");
        }
    }

    #[test]
    fn learns_linearly_separable_data() {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 20) as f32 / 20.0, ((i * 7) % 13) as f32 / 13.0])
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit(
            &refs,
            &labels,
            &MlpConfig {
                epochs: 120,
                ..Default::default()
            },
        );
        let correct = rows
            .iter()
            .zip(labels.iter())
            .filter(|(r, &y)| mlp.predict(r) == (y > 0.5))
            .count();
        assert!(correct >= 185, "only {correct}/200 correct");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Single example; compare analytic dL/dw2[j] against finite differences.
        let config = MlpConfig {
            hidden: 4,
            seed: 3,
            ..Default::default()
        };
        let x = vec![0.3f32, -0.7, 0.9];
        let y = 1.0f32;
        let mlp = Mlp::new(3, &config);
        let loss_of = |m: &Mlp| {
            let p = m.predict_proba(&x).clamp(1e-7, 1.0 - 1e-7);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        };
        // Analytic gradient for w2.
        let (h, p) = mlp.forward(&x);
        let dlogit = p - y;
        for j in 0..4 {
            let analytic = dlogit * h[j];
            let mut plus = mlp.clone();
            plus.w2.value[j] += 1e-3;
            let mut minus = mlp.clone();
            minus.w2.value[j] -= 1e-3;
            let numeric = (loss_of(&plus) - loss_of(&minus)) / 2e-3;
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "w2[{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn probabilities_are_bounded() {
        let mlp = Mlp::new(5, &MlpConfig::default());
        let p = mlp.predict_proba(&[1.0, -2.0, 3.0, 0.0, 10.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn empty_training_is_a_noop() {
        let mut mlp = Mlp::new(2, &MlpConfig::default());
        let loss = mlp.train(&[], &[], &MlpConfig::default());
        assert_eq!(loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "rows and labels must align")]
    fn mismatched_labels_panic() {
        let mut mlp = Mlp::new(1, &MlpConfig::default());
        let rows = [vec![1.0f32]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let _ = mlp.train(&refs, &[], &MlpConfig::default());
    }

    fn messy_data(n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        // Non-integer values: exercises real f32 arithmetic, not just the
        // exact-sum regime.
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                vec![
                    (i % 17) as f32 * 0.37 - 2.1,
                    ((i * 13) % 29) as f32 * 0.11,
                    if i % 3 == 0 { -0.5 } else { 1.25 },
                ]
            })
            .collect();
        let labels: Vec<f32> = (0..n).map(|i| ((i * 7) % 5 < 2) as u8 as f32).collect();
        (rows, labels)
    }

    /// The batched trainer must produce bit-identical parameters (hence
    /// predictions) to the scalar oracle — including across multiple batches
    /// and a ragged final chunk.
    #[test]
    fn batched_training_is_bit_identical_to_scalar() {
        let (rows, labels) = messy_data(203);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = MlpConfig {
            hidden: 8,
            epochs: 5,
            batch_size: 32,
            seed: 9,
            ..Default::default()
        };
        let mut scalar = Mlp::new(3, &config);
        let scalar_loss = scalar.train(&refs, &labels, &config);
        let mut batched = Mlp::new(3, &config);
        let batched_loss = batched.train_batched(&refs, &labels, &config);
        assert_eq!(scalar_loss.to_bits(), batched_loss.to_bits());
        assert_eq!(scalar.w1.value, batched.w1.value);
        assert_eq!(scalar.b1.value, batched.b1.value);
        assert_eq!(scalar.w2.value, batched.w2.value);
        assert_eq!(scalar.b2.value, batched.b2.value);
        for row in &refs {
            assert_eq!(
                scalar.predict_proba(row).to_bits(),
                batched.predict_proba(row).to_bits()
            );
        }
    }

    /// Unit weights must reduce `train_weighted` to `train_batched` exactly.
    #[test]
    fn unit_weights_are_bit_identical_to_unweighted() {
        let (rows, labels) = messy_data(97);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = MlpConfig {
            hidden: 6,
            epochs: 4,
            batch_size: 16,
            seed: 4,
            ..Default::default()
        };
        let mut unweighted = Mlp::new(3, &config);
        unweighted.train_batched(&refs, &labels, &config);
        let mut weighted = Mlp::new(3, &config);
        weighted.train_weighted(&refs, &labels, &vec![1.0; refs.len()], &config);
        assert_eq!(unweighted.w1.value, weighted.w1.value);
        assert_eq!(unweighted.w2.value, weighted.w2.value);
        assert_eq!(unweighted.b1.value, weighted.b1.value);
        assert_eq!(unweighted.b2.value, weighted.b2.value);
    }

    /// Weighted training still learns: duplicating a class via weights keeps
    /// the separable problem learnable.
    #[test]
    fn weighted_training_learns_linearly_separable_data() {
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|i| vec![(i % 20) as f32 / 20.0, ((i * 7) % 13) as f32 / 13.0])
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let weights: Vec<f32> = labels.iter().map(|&y| if y > 0.5 { 3.0 } else { 1.0 }).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit_weighted(
            &refs,
            &labels,
            &weights,
            &MlpConfig {
                epochs: 150,
                learning_rate: 5e-3,
                ..Default::default()
            },
        );
        let correct = rows
            .iter()
            .zip(labels.iter())
            .filter(|(r, &y)| mlp.predict(r) == (y > 0.5))
            .count();
        assert!(correct >= 110, "only {correct}/120 correct");
    }

    /// Seeded non-integer rows and labels for the lane-width sweeps.
    fn seeded_data(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0)
                    .collect()
            })
            .collect();
        let labels = (0..n).map(|_| (next() % 3 == 0) as u8 as f32).collect();
        (rows, labels)
    }

    /// The lane-structured trainer and batch prediction must match the
    /// scalar oracle bit for bit at hidden widths below, between and at
    /// multiples of the lane width, with input dims that are not multiples
    /// of it and a ragged final batch (203 = 6 x 32 + 11).
    #[test]
    fn lane_training_matches_scalar_across_hidden_widths() {
        for hidden in [1usize, 5, 24, 64] {
            for dim in [1usize, LANES - 1, LANES + 3, 110] {
                let (rows, labels) = seeded_data(203, dim, (hidden * 1000 + dim) as u64);
                let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
                let config = MlpConfig {
                    hidden,
                    epochs: 2,
                    batch_size: 32,
                    seed: 17,
                    ..Default::default()
                };
                let ctx = format!("hidden={hidden} dim={dim}");
                let mut scalar = Mlp::new(dim, &config);
                let scalar_loss = scalar.train(&refs, &labels, &config);
                let mut lanes = Mlp::new(dim, &config);
                let lanes_loss = lanes.train_batched(&refs, &labels, &config);
                assert_eq!(scalar_loss.to_bits(), lanes_loss.to_bits(), "{ctx}");
                for (a, b) in scalar.parameters().iter().zip(lanes.parameters()) {
                    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{ctx}");
                }
                let batch = lanes.predict_proba_batch(&refs);
                for (row, p) in refs.iter().zip(batch) {
                    assert_eq!(scalar.predict_proba(row).to_bits(), p.to_bits(), "{ctx}");
                }
            }
        }
    }

    /// The parallel batch prediction must match per-row prediction bitwise.
    #[test]
    fn batch_prediction_matches_per_row() {
        let (rows, labels) = messy_data(64);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit(&refs, &labels, &MlpConfig {
            hidden: 5,
            epochs: 3,
            ..Default::default()
        });
        let batch = mlp.predict_proba_batch(&refs);
        for (row, &p) in refs.iter().zip(batch.iter()) {
            assert_eq!(mlp.predict_proba(row).to_bits(), p.to_bits());
        }
    }
}
