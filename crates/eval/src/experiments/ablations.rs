//! Ablation studies beyond the paper's figures.
//!
//! `docs/ARCHITECTURE.md` ("Ablations beyond the paper's figures") calls out
//! three design choices worth isolating:
//!
//! * **Scaling** — Theorems 2 and 3 claim `O(n)` search time and memory; the
//!   scaling ablation measures Mogul's precomputation time, per-query search
//!   time and index size across a geometric sweep of database sizes so the
//!   linear trend can be verified empirically.
//! * **α sweep** — the smoothing parameter trades query fit against manifold
//!   smoothness (Equation (1)); the sweep reports retrieval precision and
//!   P@k for several α values.
//! * **k-NN graph degree** — the paper fixes `k = 5`; the sweep reports how
//!   the graph degree affects accuracy and the factor size.

use crate::metrics::{mean, precision_at_k, retrieval_precision};
use crate::report::Table;
use crate::scenarios::{pick_queries, ScenarioConfig};
use crate::timer::{format_secs, time_mean};
use crate::Result;
use mogul_core::{InverseSolver, MogulConfig, MogulIndex, MrParams, Ranker};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_graph::knn::{knn_graph, KnnConfig};

/// Options of the scaling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingOptions {
    /// Numbers of objects for the COIL-like generator (24 poses each).
    pub object_counts: Vec<usize>,
    /// Poses per object.
    pub poses_per_object: usize,
    /// Queries measured per size.
    pub num_queries: usize,
}

impl Default for ScalingOptions {
    fn default() -> Self {
        ScalingOptions {
            object_counts: vec![10, 20, 40, 80],
            poses_per_object: 24,
            num_queries: 10,
        }
    }
}

/// Scaling ablation: Mogul cost versus database size (Theorems 2 and 3).
pub fn run_scaling(config: &ScenarioConfig, options: &ScalingOptions) -> Result<Table> {
    let params = config.params()?;
    let mut table = Table::new(
        "Ablation - Mogul cost vs database size (Theorems 2 and 3)",
        &[
            "n",
            "edges",
            "precompute",
            "search (top-5)",
            "index bytes",
            "bytes / node",
        ],
    );
    for &objects in &options.object_counts {
        let data = coil_like(&CoilLikeConfig {
            num_objects: objects,
            poses_per_object: options.poses_per_object,
            dim: 32,
            ..Default::default()
        })?;
        let graph = knn_graph(data.features(), KnnConfig::with_k(config.knn_k))?;
        let index = MogulIndex::build(
            &graph,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )?;
        let queries = pick_queries(data.len(), options.num_queries, config.seed);
        let search_secs = time_mean(3, || {
            for &q in &queries {
                let _ = index.search(q, 5).expect("search");
            }
        }) / queries.len().max(1) as f64;
        let bytes = index.memory_bytes();
        table.add_row(vec![
            data.len().to_string(),
            graph.num_edges().to_string(),
            format_secs(index.precompute_stats().total_secs()),
            format_secs(search_secs),
            bytes.to_string(),
            format!("{:.1}", bytes as f64 / data.len() as f64),
        ]);
    }
    table.add_note("linear growth of every column is the O(n) behaviour claimed by the paper");
    Ok(table)
}

/// Options of the parameter ablation (α and k-NN degree sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterOptions {
    /// α values to sweep (the paper fixes 0.99).
    pub alphas: Vec<f64>,
    /// k-NN graph degrees to sweep (the paper fixes 5).
    pub knn_ks: Vec<usize>,
    /// Number of answer nodes.
    pub k: usize,
    /// Queries per configuration.
    pub num_queries: usize,
}

impl Default for ParameterOptions {
    fn default() -> Self {
        ParameterOptions {
            alphas: vec![0.5, 0.9, 0.99],
            knn_ks: vec![5, 10, 20],
            k: 5,
            num_queries: 10,
        }
    }
}

/// Parameter ablation on the COIL-like dataset: how α and the k-NN degree
/// affect Mogul's accuracy and factor size.
pub fn run_parameters(config: &ScenarioConfig, options: &ParameterOptions) -> Result<Table> {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 12,
        poses_per_object: 24,
        dim: 32,
        ..Default::default()
    })?;
    let queries = pick_queries(data.len(), options.num_queries, config.seed);
    let mut table = Table::new(
        "Ablation - alpha and k-NN degree (COIL-like, top-5)",
        &[
            "alpha",
            "knn k",
            "P@5 vs Inverse",
            "retrieval precision",
            "L nnz",
            "pruned clusters / considered",
        ],
    );

    for &knn_k in &options.knn_ks {
        let graph = knn_graph(data.features(), KnnConfig::with_k(knn_k))?;
        for &alpha in &options.alphas {
            let params = MrParams::new(alpha)?;
            let inverse = InverseSolver::new(&graph, params)?;
            let index = MogulIndex::build(
                &graph,
                MogulConfig {
                    params,
                    ..MogulConfig::default()
                },
            )?;
            let mut p_at_k = Vec::new();
            let mut retrieval = Vec::new();
            let mut pruned = 0usize;
            let mut considered = 0usize;
            for &q in &queries {
                let reference = inverse.top_k(q, options.k)?;
                let (top, stats) =
                    index.search_with_stats(q, options.k, mogul_core::SearchMode::Pruned)?;
                p_at_k.push(precision_at_k(&top, &reference));
                retrieval.push(retrieval_precision(&top, data.labels(), data.label(q))?);
                pruned += stats.clusters_pruned;
                considered += stats.clusters_considered;
            }
            table.add_row(vec![
                format!("{alpha:.2}"),
                knn_k.to_string(),
                format!("{:.3}", mean(&p_at_k)),
                format!("{:.3}", mean(&retrieval)),
                index.precompute_stats().l_nnz.to_string(),
                format!("{pruned} / {considered}"),
            ]);
        }
    }
    table.add_note("alpha = 0.99 and k = 5 are the paper's settings");
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_data::suite::SuiteScale;

    fn tiny_config() -> ScenarioConfig {
        ScenarioConfig {
            scale: SuiteScale::Tiny,
            num_queries: 3,
            ..Default::default()
        }
    }

    #[test]
    fn scaling_table_grows_linearly_in_rows() {
        let table = run_scaling(
            &tiny_config(),
            &ScalingOptions {
                object_counts: vec![4, 8],
                poses_per_object: 15,
                num_queries: 3,
            },
        )
        .unwrap();
        assert_eq!(table.num_rows(), 2);
        // The per-node footprint should stay in the same ballpark (O(n) memory).
        let small: f64 = table.cell(0, 5).unwrap().parse().unwrap();
        let large: f64 = table.cell(1, 5).unwrap().parse().unwrap();
        assert!(large < 3.0 * small, "per-node bytes {small} -> {large}");
    }

    #[test]
    fn parameter_table_covers_the_grid() {
        let table = run_parameters(
            &tiny_config(),
            &ParameterOptions {
                alphas: vec![0.9, 0.99],
                knn_ks: vec![5],
                k: 5,
                num_queries: 3,
            },
        )
        .unwrap();
        assert_eq!(table.num_rows(), 2);
        for row in 0..table.num_rows() {
            let p: f64 = table.cell(row, 2).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
