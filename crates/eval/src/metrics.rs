//! Accuracy metrics of Section 5.2.1.
//!
//! * **P@k** — "the fraction of answer nodes among the top-k results that
//!   match those of the inverse matrix approach".
//! * **Retrieval precision** — "the ratio of answer nodes that correspond to
//!   the same objects as the query nodes", i.e. semantic quality against
//!   ground-truth labels.

use crate::{EvalError, Result};
use mogul_core::TopKResult;

/// `P@k`: fraction of `result` nodes that also appear in `reference`.
///
/// Both lists are treated as sets (rank order inside the top-k does not
/// matter, matching the paper's definition). Returns a value in `[0, 1]`.
pub fn precision_at_k(result: &TopKResult, reference: &TopKResult) -> f64 {
    if result.is_empty() {
        return if reference.is_empty() { 1.0 } else { 0.0 };
    }
    let reference_set: std::collections::HashSet<usize> = reference.nodes().into_iter().collect();
    let hits = result
        .nodes()
        .iter()
        .filter(|n| reference_set.contains(n))
        .count();
    hits as f64 / result.len() as f64
}

/// Retrieval precision: fraction of `result` nodes whose ground-truth label
/// equals `query_label`.
pub fn retrieval_precision(
    result: &TopKResult,
    labels: &[usize],
    query_label: usize,
) -> Result<f64> {
    if result.is_empty() {
        return Ok(0.0);
    }
    let mut hits = 0usize;
    for node in result.nodes() {
        if node >= labels.len() {
            return Err(EvalError::IndexOutOfBounds {
                index: (node, 0),
                shape: (labels.len(), 1),
            });
        }
        if labels[node] == query_label {
            hits += 1;
        }
    }
    Ok(hits as f64 / result.len() as f64)
}

/// Mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_core::RankedNode;

    fn result(nodes: &[usize]) -> TopKResult {
        TopKResult::new(
            nodes
                .iter()
                .enumerate()
                .map(|(rank, &node)| RankedNode {
                    node,
                    score: 1.0 - rank as f64 * 0.1,
                })
                .collect(),
        )
    }

    #[test]
    fn precision_at_k_counts_overlap() {
        let a = result(&[1, 2, 3, 4]);
        let b = result(&[2, 3, 5, 6]);
        assert!((precision_at_k(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(precision_at_k(&a, &a), 1.0);
        assert_eq!(precision_at_k(&a, &result(&[7, 8])), 0.0);
        assert_eq!(precision_at_k(&result(&[]), &result(&[])), 1.0);
        assert_eq!(precision_at_k(&result(&[]), &a), 0.0);
    }

    #[test]
    fn retrieval_precision_uses_labels() {
        let labels = vec![0, 0, 1, 1, 0];
        let r = result(&[1, 2, 4]);
        let p = retrieval_precision(&r, &labels, 0).unwrap();
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(retrieval_precision(&result(&[]), &labels, 0).unwrap(), 0.0);
        assert!(retrieval_precision(&result(&[9]), &labels, 0).is_err());
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
