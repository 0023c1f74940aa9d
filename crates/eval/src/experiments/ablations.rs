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
use crate::scenarios::{params, pick_queries, KNN_K, NUM_QUERIES, SEED, TOP_K};
use crate::timer::{format_secs, time_alternating, REPETITIONS};
use crate::Result;
use mogul_core::{InverseSolver, MogulConfig, MogulIndex, MrParams, Ranker};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_graph::knn::{knn_graph, KnnConfig};

/// Object counts of the scaling sweep's COIL-like databases.
pub const SCALING_OBJECTS: [usize; 4] = [10, 20, 40, 80];
/// Poses per object in the scaling sweep.
pub const SCALING_POSES: usize = 24;
/// α values of the parameter ablation (the paper fixes 0.99).
pub const ALPHAS: [f64; 3] = [0.5, 0.9, 0.99];
/// k-NN graph degrees of the parameter ablation (the paper fixes 5).
pub const KNN_KS: [usize; 3] = [5, 10, 20];

/// Scaling ablation: Mogul cost versus database size (Theorems 2 and 3).
pub fn run_scaling() -> Result<Table> {
    let params = params()?;
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
    for objects in SCALING_OBJECTS {
        let data = coil_like(&CoilLikeConfig {
            num_objects: objects,
            poses_per_object: SCALING_POSES,
            dim: 32,
            ..Default::default()
        })?;
        let graph = knn_graph(data.features(), KnnConfig::with_k(KNN_K))?;
        let index = MogulIndex::build(
            &graph,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )?;
        let queries = pick_queries(data.len(), NUM_QUERIES, SEED);
        let search_secs = time_alternating(REPETITIONS, 1, |_| {
            for &q in &queries {
                let _ = index.search(q, TOP_K).expect("search");
            }
        })[0]
            / queries.len().max(1) as f64;
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

/// Parameter ablation on the COIL-like dataset: how α and the k-NN degree
/// affect Mogul's accuracy and factor size.
pub fn run_parameters() -> Result<Table> {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 12,
        poses_per_object: 24,
        dim: 32,
        ..Default::default()
    })?;
    let queries = pick_queries(data.len(), NUM_QUERIES, SEED);
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

    for knn_k in KNN_KS {
        let graph = knn_graph(data.features(), KnnConfig::with_k(knn_k))?;
        for alpha in ALPHAS {
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
                let reference = inverse.top_k(q, TOP_K)?;
                let (top, stats) =
                    index.search_with_stats(q, TOP_K, mogul_core::SearchMode::Pruned)?;
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

    #[test]
    fn scaling_table_grows_linearly_in_rows() {
        let table = run_scaling().unwrap();
        assert_eq!(table.num_rows(), SCALING_OBJECTS.len());
        // The per-node footprint should stay in the same ballpark (O(n) memory).
        let small: f64 = table.cell(0, 5).unwrap().parse().unwrap();
        let large: f64 = table
            .cell(table.num_rows() - 1, 5)
            .unwrap()
            .parse()
            .unwrap();
        assert!(large < 3.0 * small, "per-node bytes {small} -> {large}");
    }

    #[test]
    fn parameter_table_covers_the_grid() {
        let table = run_parameters().unwrap();
        assert_eq!(table.num_rows(), ALPHAS.len() * KNN_KS.len());
        for row in 0..table.num_rows() {
            let p: f64 = table.cell(row, 2).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
