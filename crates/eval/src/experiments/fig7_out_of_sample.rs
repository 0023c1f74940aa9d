//! Figure 7 and Table 2: out-of-sample query performance.
//!
//! Figure 7 compares the per-query search time of Mogul and EMR when the
//! query image is not part of the database. Table 2 breaks Mogul's time into
//! the nearest-neighbour phase (finding the query's neighbours through the
//! nearest cluster centroid) and the top-k search phase.

use crate::metrics::mean;
use crate::report::Table;
use crate::scenarios::{params, Scenario, EMR_ANCHORS, KNN_K, NUM_QUERIES, SEED, TOP_K};
use crate::timer::{format_secs, median, time_alternating, REPETITIONS};
use crate::Result;
use mogul_core::{
    out_of_sample::OutOfSampleConfig, EmrConfig, EmrSolver, MogulConfig, MogulIndex,
    OutOfSampleIndex, TopKResult,
};
use mogul_graph::knn::{knn_graph, KnnConfig};
use std::sync::Arc;

/// Measured out-of-sample results for one dataset.
#[derive(Debug, Clone)]
pub struct OutOfSampleMeasurement {
    /// Dataset name.
    pub dataset: String,
    /// Database size after holding out the queries.
    pub n: usize,
    /// Mean Mogul nearest-neighbour phase time (seconds).
    pub mogul_nn_secs: f64,
    /// Mean Mogul top-k phase time (seconds).
    pub mogul_topk_secs: f64,
    /// Mean EMR out-of-sample query time (seconds).
    pub emr_secs: f64,
    /// Mean Mogul retrieval precision of the held-out queries.
    pub mogul_precision: f64,
}

/// Run the measurement for every scenario.
pub fn measure(scenarios: &[Scenario]) -> Result<Vec<OutOfSampleMeasurement>> {
    let params = params()?;
    let mut out = Vec::new();
    for scenario in scenarios {
        let holdout = NUM_QUERIES.min(scenario.len().saturating_sub(2)).max(1);
        let (db, queries) = scenario.spec.dataset.split_out_queries(holdout, SEED)?;
        // The database graph must be rebuilt without the held-out points.
        let graph = knn_graph(db.features(), KnnConfig::with_k(KNN_K))?;
        let index = MogulIndex::build(
            &graph,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )?;
        let features = Arc::new(db.features().clone());
        let oos = OutOfSampleIndex::new(index, features, OutOfSampleConfig::default())?;
        let emr = EmrSolver::new(db.features(), params, EmrConfig::with_anchors(EMR_ANCHORS))?;

        // Mogul's two phases are timed by the query itself; each round
        // contributes its mean over the queries.
        let (mut nn_rounds, mut topk_rounds) = (Vec::new(), Vec::new());
        let secs = time_alternating(REPETITIONS, 2, |m| {
            if m == 0 {
                let (mut nn, mut topk) = (Vec::new(), Vec::new());
                for (feature, _) in &queries {
                    let result = oos.query(feature, TOP_K).expect("mogul out-of-sample");
                    nn.push(result.nearest_neighbor_secs);
                    topk.push(result.top_k_secs);
                }
                nn_rounds.push(mean(&nn));
                topk_rounds.push(mean(&topk));
            } else {
                for (feature, _) in &queries {
                    let _ = emr
                        .top_k_for_feature(feature, TOP_K)
                        .expect("emr out-of-sample");
                }
            }
        });
        let mut precisions = Vec::new();
        for (feature, label) in &queries {
            let result = oos.query(feature, TOP_K)?;
            precisions.push(label_precision(&result.top_k, db.labels(), *label));
        }
        out.push(OutOfSampleMeasurement {
            dataset: scenario.name().to_string(),
            n: db.len(),
            mogul_nn_secs: median(&mut nn_rounds),
            mogul_topk_secs: median(&mut topk_rounds),
            emr_secs: secs[1] / queries.len() as f64,
            mogul_precision: mean(&precisions),
        });
    }
    Ok(out)
}

fn label_precision(top: &TopKResult, labels: &[usize], query_label: usize) -> f64 {
    if top.is_empty() {
        return 0.0;
    }
    let hits = top
        .nodes()
        .iter()
        .filter(|&&n| labels[n] == query_label)
        .count();
    hits as f64 / top.len() as f64
}

/// Figure 7: out-of-sample search time of Mogul vs EMR.
pub fn figure7_table(measurements: &[OutOfSampleMeasurement]) -> Table {
    let mut table = Table::new(
        "Figure 7 - search time for out-of-sample queries",
        &["dataset", "n", "Mogul", "EMR", "speed-up (EMR / Mogul)"],
    );
    for m in measurements {
        let mogul_total = m.mogul_nn_secs + m.mogul_topk_secs;
        let ratio = if mogul_total > 0.0 {
            m.emr_secs / mogul_total
        } else {
            f64::INFINITY
        };
        table.add_row(vec![
            m.dataset.clone(),
            m.n.to_string(),
            format_secs(mogul_total),
            format_secs(m.emr_secs),
            format!("{ratio:.1}x"),
        ]);
    }
    table
}

/// Table 2: breakdown of Mogul's out-of-sample search time.
pub fn table2(measurements: &[OutOfSampleMeasurement]) -> Table {
    let mut table = Table::new(
        "Table 2 - breakdown of out-of-sample search [ms]",
        &[
            "dataset",
            "nearest neighbor",
            "top-k search",
            "overall",
            "retrieval precision",
        ],
    );
    for m in measurements {
        table.add_row(vec![
            m.dataset.clone(),
            format!("{:.3}", m.mogul_nn_secs * 1e3),
            format!("{:.3}", m.mogul_topk_secs * 1e3),
            format!("{:.3}", (m.mogul_nn_secs + m.mogul_topk_secs) * 1e3),
            format!("{:.3}", m.mogul_precision),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::limited_scenarios;
    use mogul_data::suite::SuiteScale;

    #[test]
    fn measurements_and_tables_are_produced() {
        let scenarios = limited_scenarios(SuiteScale::Tiny, 1).unwrap();
        let measurements = measure(&scenarios).unwrap();
        assert_eq!(measurements.len(), 1);
        let m = &measurements[0];
        assert!(m.mogul_nn_secs >= 0.0);
        assert!(m.mogul_topk_secs >= 0.0);
        assert!(m.emr_secs >= 0.0);
        assert!((0.0..=1.0).contains(&m.mogul_precision));
        let f7 = figure7_table(&measurements);
        let t2 = table2(&measurements);
        assert_eq!(f7.num_rows(), 1);
        assert_eq!(t2.num_rows(), 1);
        assert!(f7.to_string().contains("COIL-100-like"));
        assert!(t2.to_string().contains("overall"));
    }
}
