//! Figure 8: precomputation time of Mogul vs. a random node ordering.
//!
//! The paper shows that the cluster-aware ordering does not only improve
//! accuracy and enable pruning, it also makes the Incomplete Cholesky
//! factorization itself cheaper (fewer partial sums touch non-zero entries)
//! — about 20% faster than factorizing under a random permutation, with the
//! overall precomputation growing linearly in the number of nodes.

use crate::report::Table;
use crate::scenarios::{params, Scenario, SEED};
use crate::timer::{format_secs, median, time_alternating, REPETITIONS};
use crate::Result;
use mogul_core::{MogulConfig, MogulIndex};
use mogul_graph::ordering::random_ordering;

/// Run the Figure 8 measurement over the supplied scenarios.
pub fn run(scenarios: &[Scenario]) -> Result<Table> {
    let params = params()?;
    let config = MogulConfig {
        params,
        ..MogulConfig::default()
    };
    let mut table = Table::new(
        "Figure 8 - precomputation time (Mogul ordering vs random ordering)",
        &[
            "dataset",
            "n",
            "Mogul total",
            "Mogul factorization",
            "Random factorization",
            "factorization saving",
        ],
    );
    for scenario in scenarios {
        // The two builds alternate; the factorization columns are the
        // builds' own clocks, a fresh random ordering each round.
        let graph = &scenario.graph;
        let (mut mogul_fact, mut random_fact) = (Vec::new(), Vec::new());
        let secs = time_alternating(REPETITIONS, 2, |m| {
            if m == 0 {
                let index = MogulIndex::build(graph, config).expect("mogul build");
                mogul_fact.push(index.precompute_stats().factorization_secs);
            } else {
                let seed = SEED + random_fact.len() as u64;
                let ordering = random_ordering(graph.num_nodes(), seed);
                let index =
                    MogulIndex::build_with_ordering(graph, config, ordering).expect("random build");
                random_fact.push(index.precompute_stats().factorization_secs);
            }
        });
        let (mogul_total, mogul_fact, random_fact) =
            (secs[0], median(&mut mogul_fact), median(&mut random_fact));
        let saving = if random_fact > 0.0 {
            100.0 * (1.0 - mogul_fact / random_fact)
        } else {
            0.0
        };
        table.add_row(vec![
            scenario.name().to_string(),
            scenario.len().to_string(),
            format_secs(mogul_total),
            format_secs(mogul_fact),
            format_secs(random_fact),
            format!("{saving:.0}%"),
        ]);
    }
    table.add_note(
        "'factorization saving' compares only the Incomplete Cholesky step, as Figure 8 does",
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::limited_scenarios;
    use mogul_data::suite::SuiteScale;

    #[test]
    fn produces_one_row_per_dataset() {
        let scenarios = limited_scenarios(SuiteScale::Tiny, 2).unwrap();
        let table = run(&scenarios).unwrap();
        assert_eq!(table.num_rows(), 2);
        let rendered = table.to_string();
        assert!(rendered.contains("Mogul factorization"));
    }
}
