//! Figure 9: qualitative case study on the COIL-like dataset.
//!
//! The paper shows query images next to (a) the nodes directly connected in
//! the k-NN graph ("Connected", i.e. plain nearest-neighbour retrieval),
//! (b) Mogul's answers and (c) EMR's answers, and observes that Mogul's
//! answers match the query object while plain k-NN and EMR mix in
//! semantically different objects. The synthetic stand-in replaces images
//! with `(object id, pose index)` labels, so the same comparison is made on
//! label agreement.

use crate::report::Table;
use crate::scenarios::{params, Scenario};
use crate::Result;
use mogul_core::{EmrConfig, EmrSolver, MogulConfig, MogulIndex, Ranker};

/// Queries shown.
pub const CASE_QUERIES: usize = 4;
/// Retrieved items shown per query.
pub const CASE_K: usize = 4;

/// EMR anchors for `n` items: the paper uses 100 anchors for the 7,200-image
/// COIL-100 collection, and the synthetic stand-in keeps that ratio.
fn case_anchors(n: usize) -> usize {
    (n / 72).max(5)
}

fn describe(data: &mogul_data::Dataset, nodes: &[usize], query_label: usize) -> String {
    let rendered: Vec<String> = nodes
        .iter()
        .map(|&n| {
            let label = data.label(n);
            let marker = if label == query_label { "=" } else { "!" };
            format!("obj{label}{marker}")
        })
        .collect();
    rendered.join(" ")
}

/// Run the case study on one scenario (the paper uses COIL-100).
pub fn run(scenario: &Scenario) -> Result<Table> {
    let params = params()?;
    let data = &scenario.spec.dataset;
    let index = MogulIndex::build(
        &scenario.graph,
        MogulConfig {
            params,
            ..MogulConfig::default()
        },
    )?;
    let emr = EmrSolver::new(
        data.features(),
        params,
        EmrConfig::with_anchors(case_anchors(data.len())),
    )?;

    let mut table = Table::new(
        "Figure 9 - retrieval case study (obj<label>, '=' same object as query, '!' different)",
        &["query", "Connected (k-NN)", "Mogul", "EMR"],
    );
    for &query in scenario.queries.iter().take(CASE_QUERIES) {
        let query_label = data.label(query);
        // "Connected": direct neighbours in the k-NN graph, strongest first.
        let mut connected: Vec<(usize, f64)> = scenario.graph.neighbors(query).to_vec();
        connected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let connected_nodes: Vec<usize> = connected.iter().take(CASE_K).map(|&(n, _)| n).collect();
        let mogul_nodes = index.search(query, CASE_K)?.nodes();
        let emr_nodes = emr.top_k(query, CASE_K)?.nodes();
        table.add_row(vec![
            format!("node {query} (obj{query_label})"),
            describe(data, &connected_nodes, query_label),
            describe(data, &mogul_nodes, query_label),
            describe(data, &emr_nodes, query_label),
        ]);
    }
    table.add_note("the paper's qualitative claim: Mogul's column should contain only '=' entries");
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::limited_scenarios;
    use mogul_data::suite::SuiteScale;

    #[test]
    fn case_study_rows_reference_objects() {
        let scenario = &limited_scenarios(SuiteScale::Tiny, 1).unwrap()[0];
        let table = run(scenario).unwrap();
        assert_eq!(table.num_rows(), CASE_QUERIES);
        let rendered = table.to_string();
        assert!(rendered.contains("obj"));
        // Mogul's retrieved objects on the ring dataset should match the query object.
        for row in 0..table.num_rows() {
            let mogul_cell = table.cell(row, 2).unwrap();
            assert!(
                !mogul_cell.contains('!'),
                "Mogul returned a different object: {mogul_cell}"
            );
        }
    }
}
