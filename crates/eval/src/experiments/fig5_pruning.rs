//! Figure 5: effect of the sparse structure and of the pruning estimation.
//!
//! The paper compares three configurations when retrieving the top five
//! nodes: full Mogul (restricted substitution + pruning), Mogul without the
//! estimation ("W/O estimation" — restricted substitution only) and a plain
//! Incomplete-Cholesky solve that ignores the sparse structure entirely.

use crate::report::Table;
use crate::scenarios::{params, Scenario, TOP_K};
use crate::timer::{format_secs, time_alternating, REPETITIONS};
use crate::Result;
use mogul_core::{MogulConfig, MogulIndex, SearchMode};

/// Run the Figure 5 ablation over the supplied scenarios.
pub fn run(scenarios: &[Scenario]) -> Result<Table> {
    let params = params()?;
    let mut table = Table::new(
        "Figure 5 - effect of the pruning approach (top-5 search time)",
        &[
            "dataset",
            "n",
            "Mogul",
            "W/O estimation",
            "Incomplete Cholesky",
            "pruned clusters / considered",
        ],
    );
    for scenario in scenarios {
        let index = MogulIndex::build(
            &scenario.graph,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )?;
        let queries = &scenario.queries;
        let modes = [
            SearchMode::Pruned,
            SearchMode::NoPruning,
            SearchMode::FullSubstitution,
        ];
        let mode_secs: Vec<f64> = time_alternating(REPETITIONS, modes.len(), |m| {
            for &q in queries {
                let _ = index
                    .search_with_stats(q, TOP_K, modes[m])
                    .expect("mogul search");
            }
        })
        .into_iter()
        .map(|secs| secs / queries.len().max(1) as f64)
        .collect();
        // Pruning statistics (informative, matches the paper's discussion).
        let mut pruned = 0usize;
        let mut considered = 0usize;
        for &q in queries {
            let (_, stats) = index.search_with_stats(q, TOP_K, SearchMode::Pruned)?;
            pruned += stats.clusters_pruned;
            considered += stats.clusters_considered;
        }
        table.add_row(vec![
            scenario.name().to_string(),
            scenario.len().to_string(),
            format_secs(mode_secs[0]),
            format_secs(mode_secs[1]),
            format_secs(mode_secs[2]),
            format!("{pruned} / {considered}"),
        ]);
    }
    table.add_note(
        "Mogul ≤ W/O estimation ≤ Incomplete Cholesky is the shape reported in the paper",
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::limited_scenarios;
    use mogul_data::suite::SuiteScale;

    #[test]
    fn table_has_one_row_per_dataset() {
        let scenarios = limited_scenarios(SuiteScale::Tiny, 2).unwrap();
        let table = run(&scenarios).unwrap();
        assert_eq!(table.num_rows(), 2);
        let rendered = table.to_string();
        assert!(rendered.contains("COIL-100-like"));
        assert!(rendered.contains("PubFig-like"));
    }
}
