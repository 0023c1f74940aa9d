//! Figure 7 and Table 2: out-of-sample query performance.
//!
//! Figure 7 compares the per-query search time of Mogul and EMR when the
//! query image is not part of the database. Table 2 breaks Mogul's time into
//! the nearest-neighbour phase (finding the query's neighbours through the
//! nearest cluster centroid) and the top-k search phase.

use crate::metrics::mean;
use crate::report::Table;
use crate::scenarios::{Scenario, ScenarioConfig};
use crate::timer::{format_secs, time_once};
use crate::Result;
use mogul_core::{
    out_of_sample::OutOfSampleConfig, EmrConfig, EmrSolver, MogulConfig, MogulIndex,
    OutOfSampleIndex, TopKResult,
};
use mogul_graph::knn::{knn_graph, KnnConfig};
use std::sync::Arc;

/// Options of the out-of-sample experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Options {
    /// Number of held-out query images per dataset.
    pub num_queries: usize,
    /// Number of answer nodes.
    pub k: usize,
    /// EMR anchor count.
    pub emr_anchors: usize,
}

impl Default for Fig7Options {
    fn default() -> Self {
        Fig7Options {
            num_queries: 10,
            k: 5,
            emr_anchors: 10,
        }
    }
}

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
pub fn measure(
    scenarios: &[Scenario],
    config: &ScenarioConfig,
    options: &Fig7Options,
) -> Result<Vec<OutOfSampleMeasurement>> {
    let params = config.params()?;
    let mut out = Vec::new();
    for scenario in scenarios {
        let holdout = options
            .num_queries
            .min(scenario.len().saturating_sub(2))
            .max(1);
        let (db, queries) = scenario
            .spec
            .dataset
            .split_out_queries(holdout, config.seed)?;
        // The database graph must be rebuilt without the held-out points.
        let graph = knn_graph(db.features(), KnnConfig::with_k(config.knn_k))?;
        let index = MogulIndex::build(
            &graph,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )?;
        let features = Arc::new(db.features().clone());
        let oos = OutOfSampleIndex::new(index, features, OutOfSampleConfig::default())?;
        let emr = EmrSolver::new(
            db.features(),
            params,
            EmrConfig::with_anchors(options.emr_anchors),
        )?;

        let mut nn_secs = Vec::new();
        let mut topk_secs = Vec::new();
        let mut emr_secs = Vec::new();
        let mut precisions = Vec::new();
        for (feature, label) in &queries {
            let result = oos.query(feature, options.k)?;
            nn_secs.push(result.nearest_neighbor_secs);
            topk_secs.push(result.top_k_secs);
            precisions.push(label_precision(&result.top_k, db.labels(), *label));
            let (_, secs) = time_once(|| {
                emr.top_k_for_feature(feature, options.k)
                    .expect("emr out-of-sample")
            });
            emr_secs.push(secs);
        }
        out.push(OutOfSampleMeasurement {
            dataset: scenario.name().to_string(),
            n: db.len(),
            mogul_nn_secs: mean(&nn_secs),
            mogul_topk_secs: mean(&topk_secs),
            emr_secs: mean(&emr_secs),
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
        let config = ScenarioConfig {
            scale: SuiteScale::Tiny,
            num_queries: 2,
            ..Default::default()
        };
        let scenarios = limited_scenarios(&config, 1).unwrap();
        let options = Fig7Options {
            num_queries: 3,
            k: 5,
            emr_anchors: 8,
        };
        let measurements = measure(&scenarios, &config, &options).unwrap();
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
