//! The stage replay: after a traced detect, call the public stage functions
//! in `detect`'s order against the detector's now-warm response cache, each
//! wrapped in a span with wall and process CPU time. Per-column stages run
//! one column at a time on the benchmark thread, so their CPU is theirs.

use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Duration;
use zeroed_cluster::DedupPoints;
use zeroed_core::pipeline::{detector, features, labeling, sampling, training_data};
use zeroed_core::{RepairLlm, ZeroEd};
use zeroed_features::{FeatureBuilder, FeatureConfig};
use zeroed_llm::{AttributeContext, LlmClient};
use zeroed_obs::Profiler;
use zeroed_runtime::{CachedLlm, Scheduler};
use zeroed_table::{ErrorMask, Table};

/// What the replay measured beyond its spans.
pub struct Replay {
    pub mask: ErrorMask,
    /// Requests the warm cache could not answer (must be 0).
    pub cache_misses: u64,
    /// Criteria generated across all columns.
    pub criteria_checks: usize,
    /// Wall time inside criteria verification during training-data
    /// construction.
    pub verify: Duration,
    /// Σ distinct rows / Σ rows of `DedupPoints::build` over each unified
    /// feature matrix.
    pub unique_ratio: f64,
    /// Σ clean + error + augmented training rows over all columns.
    pub train_rows: usize,
}

pub fn replay(
    detector: &ZeroEd,
    dirty: &Table,
    backend: &dyn LlmClient,
    tracer: &Tracer,
    root: u64,
) -> Replay {
    let config = detector.config();
    let repairing = RepairLlm::new(backend, config.reask_budget);
    let cached = CachedLlm::for_table(&repairing, Arc::clone(detector.cache()), dirty);
    let llm: &dyn LlmClient = &cached;
    let scheduler = Scheduler::from_config(&config.runtime);
    let n_rows = dirty.n_rows();
    let n_cols = dirty.n_cols();

    let dict = tracer.time("table.intern", root, || Arc::new(dirty.intern()));
    let correlated = tracer.time("features.nmi", root, || {
        features::compute_correlated_dict(&dict, config)
    });
    let criteria = tracer.time("criteria.llm", root, || {
        features::generate_criteria_on(&scheduler, dirty, &correlated, config, llm)
    });
    let extra = tracer.time("criteria.features", root, || {
        features::criteria_extra_dict_on(
            &scheduler,
            &criteria,
            dirty,
            &dict,
            config.criteria_engine,
        )
    });
    let builder = FeatureBuilder::new(FeatureConfig {
        embed_dim: config.embed_dim,
        top_k_corr: config.effective_top_k(),
        ..FeatureConfig::default()
    });
    let fitted = tracer.time("features.fit", root, || {
        builder.fit_prepared(dirty, Arc::clone(&dict), correlated.clone(), &extra)
    });
    let feats = tracer.time("features.build", root, || fitted.build_all());

    let (mut unique, mut rows) = (0usize, 0usize);
    for matrix in &feats.unified {
        let dd = DedupPoints::build(&matrix.row_refs());
        unique += dd.n_unique();
        rows += dd.n_rows();
    }

    let stage = tracer.new_id();
    let samplings = tracer.time_as(stage, "sampling", root, || {
        (0..n_cols)
            .map(|j| {
                tracer.time("sampling.column", stage, || {
                    sampling::sample_column(
                        &feats.unified[j],
                        config.clusters_for(n_rows),
                        config.sampling.into(),
                        config.seed.wrapping_add(j as u64),
                        config.max_cluster_rows,
                    )
                })
            })
            .collect::<Vec<_>>()
    });

    let ctx = |j: usize| AttributeContext {
        table: dirty,
        column: j,
        correlated: &correlated[j],
        sample_rows: &samplings[j].representatives,
    };
    let labels = tracer.time("labeling", root, || {
        (0..n_cols)
            .map(|j| {
                labeling::label_representatives(&ctx(j), config, llm, &samplings[j].representatives)
            })
            .collect::<Vec<_>>()
    });

    let profiler = Profiler::new("replay");
    let verify_span = profiler.root().child_dist("criteria_verify");
    let training = tracer.time("training_data", root, || {
        (0..n_cols)
            .map(|j| {
                training_data::construct(
                    &ctx(j),
                    config,
                    llm,
                    &samplings[j],
                    &labels[j].labels,
                    criteria[j].clone(),
                    &dict,
                    Some(&verify_span),
                )
            })
            .collect::<Vec<_>>()
    });
    let verify = profiler
        .snapshot()
        .find("criteria_verify")
        .map_or(Duration::ZERO, |node| node.wall());

    let stage = tracer.new_id();
    let mut mask = ErrorMask::for_table(dirty);
    tracer.time_as(stage, "detector", root, || {
        for (j, (unified, data)) in feats.unified.iter().zip(&training).enumerate() {
            let flags = tracer.time("detector.column", stage, || {
                detector::train_and_predict(dirty, j, &fitted, unified, data, config)
            });
            for (i, flag) in flags.into_iter().enumerate() {
                if flag {
                    mask.set(i, j, true);
                }
            }
        }
    });

    Replay {
        mask,
        cache_misses: cached.stats().misses,
        criteria_checks: criteria.iter().flatten().map(|set| set.len()).sum(),
        verify,
        unique_ratio: if rows == 0 {
            0.0
        } else {
            unique as f64 / rows as f64
        },
        train_rows: training
            .iter()
            .map(|d| d.clean_rows.len() + d.error_rows.len() + d.augmented.len())
            .sum(),
    }
}
