//! The ranking oracle: `recall_at_10` compares what the system serves with
//! the converged power iteration on the k-NN graph — an implementation that
//! shares no factorization, ordering or pruning code with Mogul, so a bug in
//! those cannot hide in both.

use crate::corpus::TOP_K;
use crate::Outcome;
use mogul_core::{IterativeConfig, IterativeSolver, MrParams, Ranker};
use mogul_graph::knn::{knn_graph, KnnConfig};

/// Queries `recall_at_10` is averaged over.
pub const ORACLE_QUERIES: usize = 64;

/// On the corpora used here the top-10 of the iteration stops changing by
/// 1e-5 and equals the 1e-12 ranking from 1e-6 on; the score change per
/// sweep is the solver's own stopping rule.
const TOLERANCE: f64 = 1e-6;

pub struct Oracle {
    solver: IterativeSolver,
}

impl Oracle {
    /// Build the same exact k-NN graph `IndexBuilder::build` builds (which
    /// does not expose its own) and the iteration over it.
    pub fn build(features: &[Vec<f64>], knn_k: usize) -> Outcome<Oracle> {
        let graph = knn_graph(features, KnnConfig::with_k(knn_k))
            .map_err(|e| format!("oracle k-NN graph: {e}"))?;
        let solver = IterativeSolver::new(
            &graph,
            MrParams::default(),
            IterativeConfig {
                tolerance: TOLERANCE,
                max_iterations: 20_000,
            },
        )
        .map_err(|e| format!("oracle solver: {e}"))?;
        Ok(Oracle { solver })
    }

    /// Converged top-10 of each node (the node itself excluded), computed on
    /// both cores.
    pub fn top_k(&self, nodes: &[usize]) -> Outcome<Vec<Vec<usize>>> {
        let half = nodes.len().div_ceil(2).max(1);
        let mut out = Vec::with_capacity(nodes.len());
        let parts: Vec<Outcome<Vec<Vec<usize>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .chunks(half)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&node| {
                                self.solver
                                    .top_k(node, TOP_K)
                                    .map(|top| top.nodes())
                                    .map_err(|e| format!("oracle query {node}: {e}"))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        for part in parts {
            out.extend(part?);
        }
        Ok(out)
    }
}

/// Mean share of each served top-10 that the oracle also ranks. `truth[i]`
/// may hold more than ten ids (an out-of-sample probe's source item counts
/// as relevant beside the source's own top-10).
pub fn recall(served: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    assert_eq!(served.len(), truth.len());
    assert!(!served.is_empty());
    let hits: usize = served
        .iter()
        .zip(truth)
        .map(|(s, t)| s.iter().filter(|id| t.contains(id)).count())
        .sum();
    hits as f64 / (served.len() * TOP_K) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_counts_overlap_per_ten() {
        let ten: Vec<usize> = (0..10).collect();
        assert_eq!(
            recall(std::slice::from_ref(&ten), std::slice::from_ref(&ten)),
            1.0
        );
        let half: Vec<usize> = (5..15).collect();
        assert_eq!(recall(std::slice::from_ref(&ten), &[half]), 0.5);
        // Eleven relevant ids (probe source + its top-10) still cap at 1.
        let eleven: Vec<usize> = (0..11).collect();
        assert_eq!(recall(&[ten], &[eleven]), 1.0);
    }

    #[test]
    fn oracle_ranks_a_chain_by_proximity() {
        // Points on a line: the converged ranking of an end point is its
        // neighbours in order of distance.
        let features: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, 0.0]).collect();
        let oracle = Oracle::build(&features, 2).unwrap();
        let top = oracle.top_k(&[0, 39]).unwrap();
        assert_eq!(top[0], (1..=10).collect::<Vec<_>>());
        assert_eq!(top[1], (29..=38).rev().collect::<Vec<_>>());
    }
}
