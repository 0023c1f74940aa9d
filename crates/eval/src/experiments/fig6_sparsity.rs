//! Figure 6: non-zero pattern of the factor `L` under the Mogul node
//! ordering versus a random ordering.
//!
//! The paper shows spy plots: with the cluster-aware ordering `L` is singly
//! bordered block diagonal (Lemma 3); with a random ordering the non-zeros
//! scatter across the whole matrix. This runner reports the same information
//! as pattern statistics plus an ASCII density plot per configuration.

use crate::report::Table;
use crate::scenarios::{params, Scenario, SEED};
use crate::Result;
use mogul_core::{MogulConfig, MogulIndex};
use mogul_graph::ordering::random_ordering;
use mogul_sparse::stats::{
    block_diagonal_fraction, density_grid, pattern_stats, render_density_ascii,
};

/// Side length of the ASCII spy plots.
pub const GRID: usize = 24;

/// Run the Figure 6 comparison over the supplied scenarios.
pub fn run(scenarios: &[Scenario]) -> Result<Table> {
    let params = params()?;
    let mut table = Table::new(
        "Figure 6 - non-zero structure of matrix L (Mogul ordering vs random ordering)",
        &[
            "dataset",
            "ordering",
            "L nnz",
            "mean |col-row|",
            "block-diagonal fraction",
            "boosted pivots",
        ],
    );
    for scenario in scenarios {
        let n = scenario.graph.num_nodes();
        for (label, index) in [
            (
                "Mogul",
                MogulIndex::build(
                    &scenario.graph,
                    MogulConfig {
                        params,
                        ..MogulConfig::default()
                    },
                )?,
            ),
            (
                "Random",
                MogulIndex::build_with_ordering(
                    &scenario.graph,
                    MogulConfig {
                        params,
                        ..MogulConfig::default()
                    },
                    random_ordering(n, SEED),
                )?,
            ),
        ] {
            let l = index.factor_l();
            let stats = pattern_stats(l);
            let boundaries: Vec<usize> =
                index.ordering().clusters.iter().map(|c| c.start).collect();
            let block_fraction = block_diagonal_fraction(l, &boundaries);
            table.add_row(vec![
                scenario.name().to_string(),
                label.to_string(),
                stats.nnz.to_string(),
                format!("{:.1}", stats.mean_distance_from_diagonal),
                format!("{:.3}", block_fraction),
                index.precompute_stats().boosted_pivots.to_string(),
            ]);
            table.add_note(format!(
                "{} / {label} ordering, L spy plot:\n{}",
                scenario.name(),
                render_density_ascii(&density_grid(l, GRID))
            ));
        }
    }
    table.add_note(
        "the Mogul ordering concentrates non-zeros near the diagonal (small mean |col-row|, \
         block-diagonal fraction close to 1), reproducing the singly bordered block diagonal \
         shape of the paper's spy plots",
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::limited_scenarios;
    use mogul_data::suite::SuiteScale;

    #[test]
    fn mogul_ordering_is_more_block_diagonal_than_random() {
        let scenarios = limited_scenarios(SuiteScale::Tiny, 1).unwrap();
        let table = run(&scenarios).unwrap();
        assert_eq!(table.num_rows(), 2);
        // Column 4 is the block-diagonal fraction; Mogul row comes first.
        let mogul_fraction: f64 = table.cell(0, 4).unwrap().parse().unwrap();
        let random_fraction: f64 = table.cell(1, 4).unwrap().parse().unwrap();
        assert!(
            mogul_fraction >= random_fraction,
            "Mogul {mogul_fraction} vs random {random_fraction}"
        );
        // Mean distance from the diagonal should be smaller under the Mogul ordering.
        let mogul_dist: f64 = table.cell(0, 3).unwrap().parse().unwrap();
        let random_dist: f64 = table.cell(1, 3).unwrap().parse().unwrap();
        assert!(mogul_dist <= random_dist);
    }
}
