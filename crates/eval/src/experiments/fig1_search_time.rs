//! Figure 1: search time of every method on the four datasets.
//!
//! The paper reports wall-clock search time (precomputation excluded) of
//! Mogul with k ∈ {5, 10, 15, 20}, EMR (d = 10 anchors), FMR (rank 250),
//! the iterative method (tolerance 10⁻⁴) and the inverse-matrix approach.
//! The inverse approach is skipped on the larger datasets — in the paper
//! because of its `O(n²)` memory, here because of its `O(n³)` time at
//! reproduction scale.

use crate::report::Table;
use crate::scenarios::{params, Scenario, EMR_ANCHORS, TOP_K};
use crate::timer::{format_secs, time_alternating, REPETITIONS};
use crate::Result;
use mogul_core::{
    EmrConfig, EmrSolver, FmrConfig, FmrSolver, InverseSolver, IterativeConfig, IterativeSolver,
    MogulConfig, MogulIndex, Ranker,
};

/// Values of k for the Mogul(k) rows.
pub const MOGUL_KS: [usize; 4] = [5, 10, 15, 20];
/// FMR's low-rank target.
pub const FMR_RANK: usize = 250;
/// Datasets larger than this skip the dense Inverse baseline.
pub const INVERSE_MAX_N: usize = 2_500;
/// Datasets larger than this skip FMR (its block solves degenerate towards
/// dense behaviour on badly partitioned graphs).
pub const FMR_MAX_N: usize = 6_000;

/// Run the Figure 1 measurement over the supplied scenarios.
pub fn run(scenarios: &[Scenario]) -> Result<Table> {
    let params = params()?;
    let mut table = Table::new(
        "Figure 1 - search time per query [wall clock]",
        &["method", "dataset", "n", "search time", "seconds"],
    );
    table.add_note("Mogul(k): Algorithm 2 with pruning; precomputation excluded, as in the paper");

    for scenario in scenarios {
        let n = scenario.len();
        let queries = &scenario.queries;
        let index = MogulIndex::build(
            &scenario.graph,
            MogulConfig {
                params,
                ..MogulConfig::default()
            },
        )?;
        let emr = EmrSolver::new(
            scenario.spec.dataset.features(),
            params,
            EmrConfig::with_anchors(EMR_ANCHORS),
        )?;
        let fmr = if n <= FMR_MAX_N {
            let config = FmrConfig {
                rank: FMR_RANK,
                ..FmrConfig::default()
            };
            Some(FmrSolver::new(&scenario.graph, params, config)?)
        } else {
            None
        };
        let iterative = IterativeSolver::new(&scenario.graph, params, IterativeConfig::default())?;
        // The paper charges the inversion itself to the Inverse search; it
        // is clocked on its own and added to the per-query row.
        let (inverse, inversion_secs) = if n <= INVERSE_MAX_N {
            let mut inverse = None;
            let secs = time_alternating(REPETITIONS, 1, |_| {
                inverse = Some(InverseSolver::new(&scenario.graph, params).expect("inverse build"))
            });
            (inverse, secs[0])
        } else {
            (None, 0.0)
        };

        // Every method's row (`None`: skipped at this size), the timed ones
        // clocked in the same rounds.
        let mut rows: Vec<(String, usize, Option<&dyn Ranker>)> = MOGUL_KS
            .iter()
            .map(|&k| (format!("Mogul({k})"), k, Some(&index as &dyn Ranker)))
            .collect();
        rows.push(("EMR".into(), TOP_K, Some(&emr)));
        rows.push(("FMR".into(), TOP_K, fmr.as_ref().map(|f| f as &dyn Ranker)));
        rows.push(("Iterative".into(), TOP_K, Some(&iterative)));
        let inverse_row = match inverse {
            Some(_) => "Inverse (per query)",
            None => "Inverse",
        };
        let inverse = inverse.as_ref().map(|i| i as &dyn Ranker);
        rows.push((inverse_row.into(), TOP_K, inverse));
        let timed: Vec<(usize, &dyn Ranker)> = rows
            .iter()
            .filter_map(|&(_, k, ranker)| Some((k, ranker?)))
            .collect();
        let secs = time_alternating(REPETITIONS, timed.len(), |m| {
            let (k, ranker) = timed[m];
            for &q in queries {
                let _ = ranker.top_k(q, k).expect("search");
            }
        });
        let mut per_query = secs.iter().map(|s| s / queries.len().max(1) as f64);
        let mut last = 0.0;
        for (method, _, ranker) in &rows {
            match ranker {
                Some(_) => {
                    last = per_query.next().expect("one time per timed row");
                    add_time_row(&mut table, method, scenario, n, last);
                }
                None => add_skip_row(&mut table, method, scenario, n),
            }
        }
        if inverse.is_some() {
            let total = last + inversion_secs;
            add_time_row(&mut table, "Inverse (incl. inversion)", scenario, n, total);
        }
    }
    Ok(table)
}

fn add_time_row(table: &mut Table, method: &str, scenario: &Scenario, n: usize, secs: f64) {
    table.add_row(vec![
        method.to_string(),
        scenario.name().to_string(),
        n.to_string(),
        format_secs(secs),
        format!("{secs:.3e}"),
    ]);
}

fn add_skip_row(table: &mut Table, method: &str, scenario: &Scenario, n: usize) {
    table.add_row(vec![
        method.to_string(),
        scenario.name().to_string(),
        n.to_string(),
        "skipped (too large)".to_string(),
        "".to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::limited_scenarios;
    use mogul_data::suite::SuiteScale;

    #[test]
    fn produces_a_row_per_method_and_dataset() {
        let scenarios = limited_scenarios(SuiteScale::Tiny, 1).unwrap();
        let table = run(&scenarios).unwrap();
        // The Mogul rows + EMR + FMR + Iterative + 2 Inverse rows.
        assert_eq!(table.num_rows(), MOGUL_KS.len() + 5);
        let rendered = table.to_string();
        assert!(rendered.contains("Mogul(5)"));
        assert!(rendered.contains("EMR"));
        assert!(rendered.contains("Iterative"));
        assert!(rendered.contains("Inverse"));
    }
}
