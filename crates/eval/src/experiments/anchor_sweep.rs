//! Figures 2, 3 and 4: accuracy and search time versus the number of EMR
//! anchor points, on the COIL-like dataset with k = 5 answers.
//!
//! The three figures share the same sweep: for each anchor count `d` the
//! experiment measures EMR's `P@k` against the inverse-matrix answer
//! (Figure 2), its retrieval precision against ground-truth object labels
//! (Figure 3) and its per-query search time (Figure 4). Mogul and MogulE do
//! not depend on `d`, so they appear as flat reference lines, exactly as in
//! the paper.

use crate::metrics::{mean, precision_at_k, retrieval_precision};
use crate::report::Table;
use crate::scenarios::{params, Scenario, TOP_K};
use crate::timer::{format_secs, time_alternating, REPETITIONS};
use crate::Result;
use mogul_core::{
    EmrConfig, EmrSolver, InverseSolver, MogulConfig, MogulIndex, Ranker, TopKResult,
};

/// Anchor counts of the EMR sweep (the paper goes from 10 to 1000 on a log
/// axis).
pub const ANCHOR_COUNTS: [usize; 6] = [10, 20, 50, 100, 200, 400];

/// One measured point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Method name ("Mogul", "MogulE" or "EMR(d)").
    pub method: String,
    /// Number of anchors (0 for the anchor-free methods).
    pub anchors: usize,
    /// Mean `P@k` against the inverse-matrix answer.
    pub precision_at_k: f64,
    /// Mean retrieval precision against ground-truth labels.
    pub retrieval_precision: f64,
    /// Mean per-query search time in seconds.
    pub search_secs: f64,
}

/// Run the sweep on one scenario (the paper uses the COIL-100 dataset).
pub fn run_sweep(scenario: &Scenario) -> Result<Vec<SweepPoint>> {
    let params = params()?;
    let labels = scenario.spec.dataset.labels();
    let queries = &scenario.queries;

    // Ground truth for P@k: the inverse-matrix top-k.
    let inverse = InverseSolver::new(&scenario.graph, params)?;
    let reference: Vec<TopKResult> = queries
        .iter()
        .map(|&q| inverse.top_k(q, TOP_K))
        .collect::<Result<_>>()?;

    // The anchor-free reference lines, Mogul and MogulE, then EMR for every
    // anchor count.
    let mut methods: Vec<(String, usize, Box<dyn Ranker>)> = Vec::new();
    for (name, config) in [
        ("Mogul", MogulConfig::default()),
        ("MogulE", MogulConfig::exact()),
    ] {
        let index = MogulIndex::build(&scenario.graph, MogulConfig { params, ..config })?;
        methods.push((name.to_string(), 0, Box::new(index)));
    }
    for anchors in ANCHOR_COUNTS {
        let emr = EmrSolver::new(
            scenario.spec.dataset.features(),
            params,
            EmrConfig::with_anchors(anchors),
        )?;
        methods.push((format!("EMR(d={anchors})"), anchors, Box::new(emr)));
    }

    let secs = time_alternating(REPETITIONS, methods.len(), |m| {
        for &q in queries {
            let _ = methods[m].2.top_k(q, TOP_K).expect("search");
        }
    });
    let mut points = Vec::new();
    for ((method, anchors, ranker), secs) in methods.into_iter().zip(secs) {
        let mut p_at_k = Vec::new();
        let mut retrieval = Vec::new();
        for (qi, &q) in queries.iter().enumerate() {
            let top = ranker.top_k(q, TOP_K)?;
            p_at_k.push(precision_at_k(&top, &reference[qi]));
            retrieval.push(retrieval_precision(&top, labels, labels[q])?);
        }
        points.push(SweepPoint {
            method,
            anchors,
            precision_at_k: mean(&p_at_k),
            retrieval_precision: mean(&retrieval),
            search_secs: secs / queries.len().max(1) as f64,
        });
    }
    Ok(points)
}

/// Figure 2: P@k versus the number of anchor points.
pub fn figure2_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new(
        "Figure 2 - P@k vs number of anchor points (top-5, COIL-like)",
        &["method", "anchors", "P@k"],
    );
    for p in points {
        table.add_row(vec![
            p.method.clone(),
            if p.anchors == 0 {
                "-".into()
            } else {
                p.anchors.to_string()
            },
            format!("{:.3}", p.precision_at_k),
        ]);
    }
    table
}

/// Figure 3: retrieval precision versus the number of anchor points.
pub fn figure3_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new(
        "Figure 3 - retrieval precision vs number of anchor points (top-5, COIL-like)",
        &["method", "anchors", "retrieval precision"],
    );
    for p in points {
        table.add_row(vec![
            p.method.clone(),
            if p.anchors == 0 {
                "-".into()
            } else {
                p.anchors.to_string()
            },
            format!("{:.3}", p.retrieval_precision),
        ]);
    }
    table
}

/// Figure 4: search time versus the number of anchor points.
pub fn figure4_table(points: &[SweepPoint]) -> Table {
    let mut table = Table::new(
        "Figure 4 - search time vs number of anchor points (top-5, COIL-like)",
        &["method", "anchors", "search time", "seconds"],
    );
    for p in points {
        table.add_row(vec![
            p.method.clone(),
            if p.anchors == 0 {
                "-".into()
            } else {
                p.anchors.to_string()
            },
            format_secs(p.search_secs),
            format!("{:.3e}", p.search_secs),
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
    fn sweep_produces_expected_series() {
        let scenario = &limited_scenarios(SuiteScale::Tiny, 1).unwrap()[0];
        let points = run_sweep(scenario).unwrap();
        assert_eq!(points.len(), 2 + ANCHOR_COUNTS.len()); // Mogul, MogulE, one EMR per count
        for p in &points {
            assert!((0.0..=1.0).contains(&p.precision_at_k), "{p:?}");
            assert!((0.0..=1.0).contains(&p.retrieval_precision), "{p:?}");
            assert!(p.search_secs >= 0.0);
        }
        // MogulE is exact, so its P@k must be (near) perfect.
        let mogul_e = points.iter().find(|p| p.method == "MogulE").unwrap();
        assert!(mogul_e.precision_at_k > 0.95, "{mogul_e:?}");
        // Mogul's retrieval precision should be high on the ring dataset.
        let mogul = points.iter().find(|p| p.method == "Mogul").unwrap();
        assert!(mogul.retrieval_precision > 0.8, "{mogul:?}");

        let t2 = figure2_table(&points);
        let t3 = figure3_table(&points);
        let t4 = figure4_table(&points);
        assert_eq!(t2.num_rows(), points.len());
        assert_eq!(t3.num_rows(), points.len());
        assert_eq!(t4.num_rows(), points.len());
        assert!(t2.to_string().contains("EMR(d=10)"));
    }
}
