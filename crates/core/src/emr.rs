//! The EMR baseline (Xu et al. \[21\]): anchor-graph Manifold Ranking.
//!
//! EMR represents every data point as a convex combination of `d ≪ n` anchor
//! points (selected by k-means) with Nadaraya–Watson weights under the
//! Epanechnikov kernel. The anchor graph yields a rank-`d` factorization of
//! the normalized adjacency, `S ≈ H Hᵀ`, so the ranking scores follow from
//! the Woodbury identity in `O(n d + d³)` time. The number of anchors trades
//! speed against accuracy — the tension Figures 2–4 of the paper explore.
//!
//! With row-normalized weights the anchor-graph degree matrix is the
//! identity, so `H = Z Λ^{-1/2}` with `Λ = diag(Zᵀ 1)`.

use crate::params::MrParams;
use crate::ranking::{check_k, check_query, Ranker, TopKResult};
use crate::topk::{f64_sort_key, BoundedTopK, Entry};
use crate::{CoreError, Result};
use mogul_graph::clustering::kmeans::{kmeans, KmeansConfig};
use mogul_sparse::woodbury::woodbury_solve_csr;
use mogul_sparse::{CooMatrix, CsrMatrix, FeatureMatrix};

/// Configuration of the EMR baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmrConfig {
    /// Number of anchor points `d` (the paper sweeps 10–1000).
    pub num_anchors: usize,
    /// Number of nearest anchors each point is attached to (`s`, usually 5).
    pub anchor_neighbors: usize,
    /// Seed for the k-means anchor selection.
    pub seed: u64,
    /// Maximum k-means iterations for anchor selection.
    pub kmeans_max_iter: usize,
}

impl Default for EmrConfig {
    fn default() -> Self {
        EmrConfig {
            num_anchors: 10,
            anchor_neighbors: 5,
            seed: 42,
            kmeans_max_iter: 30,
        }
    }
}

impl EmrConfig {
    /// Convenience constructor fixing only the anchor count.
    pub fn with_anchors(num_anchors: usize) -> Self {
        EmrConfig {
            num_anchors,
            ..EmrConfig::default()
        }
    }
}

/// Anchor-graph Manifold Ranking solver.
#[derive(Debug, Clone)]
pub struct EmrSolver {
    params: MrParams,
    /// Anchor coordinates (`d × dim`).
    anchors: FeatureMatrix,
    /// Column sums of the weight matrix `Z` (anchor "degrees").
    lambda: Vec<f64>,
    /// The factor `H = Z Λ^{-1/2}` with `S ≈ H Hᵀ`.
    h: CsrMatrix,
    /// Number of nearest anchors each point (and each out-of-sample query)
    /// is attached to.
    anchor_neighbors: usize,
    n: usize,
}

/// Epanechnikov kernel `K(t) = ¾ (1 − t²)` for `|t| < 1`, else 0.
fn epanechnikov(t: f64) -> f64 {
    if t.abs() < 1.0 {
        0.75 * (1.0 - t * t)
    } else {
        0.0
    }
}

/// Nadaraya–Watson weights of one point to its `s` nearest anchors.
/// Returns `(anchor index, weight)` pairs with weights summing to 1.
///
/// Only the `s + 1` nearest anchors are ever needed (the extra one sets the
/// kernel bandwidth), so the scan runs through the shared bounded top-k
/// collector — `O(d log s)` instead of a full `O(d log d)` sort, with ties
/// pinned to the lower anchor index as before.
fn anchor_weights(feature: &[f64], anchors: &FeatureMatrix, s: usize) -> Vec<(usize, f64)> {
    let s = s.min(anchors.len()).max(1);
    let mut nearest = BoundedTopK::new((s + 1).min(anchors.len()));
    for (a, anchor) in anchors.rows().enumerate() {
        let d = mogul_sparse::vector::squared_euclidean_unchecked(feature, anchor).sqrt();
        nearest.offer(Entry {
            key: (f64_sort_key(d), a),
            value: d,
        });
    }
    let dists = nearest.into_sorted_vec();
    // Bandwidth: distance to the (s+1)-th nearest anchor (or slightly beyond
    // the s-th when there is no further anchor), so the s kept anchors all
    // fall inside the kernel support.
    let bandwidth = if dists.len() > s {
        dists[s].value
    } else {
        dists[s - 1].value * 1.0001 + 1e-12
    }
    .max(1e-12);
    let mut weights: Vec<(usize, f64)> = dists[..s]
        .iter()
        .map(|e| (e.key.1, epanechnikov(e.value / bandwidth)))
        .collect();
    let total: f64 = weights.iter().map(|&(_, w)| w).sum();
    if total <= 1e-300 {
        // Degenerate case (all anchors at the same spot): uniform weights.
        let uniform = 1.0 / s as f64;
        for w in weights.iter_mut() {
            w.1 = uniform;
        }
    } else {
        for w in weights.iter_mut() {
            w.1 /= total;
        }
    }
    weights.retain(|&(_, w)| w > 0.0);
    weights.sort_by_key(|&(a, _)| a);
    weights
}

impl EmrSolver {
    /// Build the anchor graph from the raw feature vectors.
    pub fn new(features: &FeatureMatrix, params: MrParams, config: EmrConfig) -> Result<Self> {
        if features.is_empty() {
            return Err(CoreError::InvalidInput(
                "EMR requires at least one data point".into(),
            ));
        }
        if config.num_anchors == 0 {
            return Err(CoreError::InvalidInput(
                "EMR requires at least one anchor point".into(),
            ));
        }
        let n = features.len();
        // Anchor selection by k-means, as in the EMR paper.
        let km = kmeans(
            features,
            &KmeansConfig {
                k: config.num_anchors.min(n),
                max_iter: config.kmeans_max_iter,
                tol: 1e-5,
                seed: config.seed,
            },
        )?;
        let anchors = km.centroids;

        // Weight matrix Z (n × d), each row sums to 1.
        let d = anchors.len();
        let mut z_coo = CooMatrix::with_capacity(n, d, n * config.anchor_neighbors.max(1));
        let mut lambda = vec![0.0; d];
        for (i, feature) in features.rows().enumerate() {
            for (a, w) in anchor_weights(feature, &anchors, config.anchor_neighbors) {
                z_coo.push(i, a, w)?;
                lambda[a] += w;
            }
        }
        let z = z_coo.to_csr();
        // H = Z Λ^{-1/2}; unused anchors (λ = 0) simply keep empty columns.
        let lambda_inv_sqrt: Vec<f64> = lambda
            .iter()
            .map(|&l| if l > 1e-300 { 1.0 / l.sqrt() } else { 0.0 })
            .collect();
        let ones = vec![1.0; n];
        let h = z.scale_rows_cols(&ones, &lambda_inv_sqrt)?;

        Ok(EmrSolver {
            params,
            anchors,
            lambda,
            h,
            anchor_neighbors: config.anchor_neighbors.max(1),
            n,
        })
    }

    /// Number of anchors actually in use.
    pub fn num_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// Ranking scores for a query that is **not** part of the database
    /// (out-of-sample query, Section 5.2.3 of the paper).
    ///
    /// EMR handles out-of-sample queries by dynamically extending the anchor
    /// graph with the query point and re-running the `O(n d + d³)` solve.
    /// The returned vector holds the scores of the `n` database points.
    pub fn scores_for_feature(&self, feature: &[f64]) -> Result<Vec<f64>> {
        if feature.len() != self.anchors.dim() {
            return Err(CoreError::DimensionMismatch {
                op: "EMR out-of-sample query",
                left: (1, self.anchors.dim()),
                right: (1, feature.len()),
            });
        }
        // Weights of the new point and the updated anchor degrees.
        let new_weights = anchor_weights(feature, &self.anchors, self.anchor_neighbors);
        let mut lambda = self.lambda.clone();
        for &(a, w) in &new_weights {
            lambda[a] += w;
        }
        let lambda_inv_sqrt: Vec<f64> = lambda
            .iter()
            .map(|&l| if l > 1e-300 { 1.0 / l.sqrt() } else { 0.0 })
            .collect();
        // Rebuild H' over n + 1 rows: existing rows carry Z (recovered from H
        // by undoing the old scaling), plus the new query row.
        let d = self.anchors.len();
        let old_lambda_sqrt: Vec<f64> = self
            .lambda
            .iter()
            .map(|&l| if l > 1e-300 { l.sqrt() } else { 0.0 })
            .collect();
        let mut coo = CooMatrix::with_capacity(self.n + 1, d, self.h.nnz() + new_weights.len());
        for (i, j, v) in self.h.iter() {
            // v = Z_ij / sqrt(old λ_j)  →  Z_ij = v * sqrt(old λ_j)
            let z_ij = v * old_lambda_sqrt[j];
            coo.push(i, j, z_ij * lambda_inv_sqrt[j])?;
        }
        for &(a, w) in &new_weights {
            coo.push(self.n, a, w * lambda_inv_sqrt[a])?;
        }
        let h_ext = coo.to_csr();

        let mut q = vec![0.0; self.n + 1];
        q[self.n] = self.params.query_scale();
        let mut scores = woodbury_solve_csr(&h_ext, self.params.alpha, &q)?;
        scores.truncate(self.n);
        Ok(scores)
    }

    /// Top-k database points for an out-of-sample query feature.
    pub fn top_k_for_feature(&self, feature: &[f64], k: usize) -> Result<TopKResult> {
        check_k(k)?;
        let scores = self.scores_for_feature(feature)?;
        Ok(TopKResult::from_scores(&scores, k, None))
    }
}

impl Ranker for EmrSolver {
    fn name(&self) -> &'static str {
        "EMR"
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn top_k(&self, query: usize, k: usize) -> Result<TopKResult> {
        check_k(k)?;
        let scores = self.scores(query)?;
        Ok(TopKResult::from_scores(&scores, k, Some(query)))
    }

    fn scores(&self, query: usize) -> Result<Vec<f64>> {
        check_query(query, self.n)?;
        let mut q = vec![0.0; self.n];
        q[query] = self.params.query_scale();
        woodbury_solve_csr(&self.h, self.params.alpha, &q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogul_data::coil::{coil_like, CoilLikeConfig};

    fn small_coil() -> mogul_data::Dataset {
        coil_like(&CoilLikeConfig {
            num_objects: 4,
            poses_per_object: 15,
            dim: 8,
            noise: 0.02,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn epanechnikov_kernel_shape() {
        assert_eq!(epanechnikov(0.0), 0.75);
        assert!(epanechnikov(0.5) > 0.0);
        assert_eq!(epanechnikov(1.0), 0.0);
        assert_eq!(epanechnikov(2.0), 0.0);
    }

    #[test]
    fn anchor_weights_sum_to_one() {
        let anchors =
            FeatureMatrix::from_vec(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]).unwrap();
        let w = anchor_weights(&[0.2, 0.1], &anchors, 3);
        let total: f64 = w.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(w.len() <= 3);
        // The far anchor is never selected.
        assert!(w.iter().all(|&(a, _)| a != 3));
    }

    #[test]
    fn scores_favor_same_object_points() {
        let data = small_coil();
        let solver = EmrSolver::new(
            data.features(),
            MrParams::default(),
            EmrConfig::with_anchors(12),
        )
        .unwrap();
        assert_eq!(solver.num_anchors(), 12);
        let query = 0usize;
        let top = solver.top_k(query, 5).unwrap();
        assert_eq!(top.len(), 5);
        let same_object = top
            .nodes()
            .iter()
            .filter(|&&n| data.label(n) == data.label(query))
            .count();
        assert!(
            same_object >= 3,
            "expected most of the top-5 to share the query object, got {same_object}"
        );
    }

    #[test]
    fn more_anchors_do_not_hurt_self_consistency() {
        let data = small_coil();
        for anchors in [5usize, 20] {
            let solver = EmrSolver::new(
                data.features(),
                MrParams::default(),
                EmrConfig::with_anchors(anchors),
            )
            .unwrap();
            let scores = solver.scores(3).unwrap();
            assert_eq!(scores.len(), data.len());
            assert!(scores.iter().all(|s| s.is_finite()));
            // The query itself should be among the highest scores.
            let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(scores[3] > 0.5 * max);
        }
    }

    #[test]
    fn out_of_sample_matches_in_sample_for_identical_feature() {
        let data = small_coil();
        let solver = EmrSolver::new(
            data.features(),
            MrParams::default(),
            EmrConfig::with_anchors(10),
        )
        .unwrap();
        // Querying with the feature of database point 7 should rank point 7
        // (or at least its object) at the top.
        let top = solver.top_k_for_feature(data.feature(7), 5).unwrap();
        let same_object = top
            .nodes()
            .iter()
            .filter(|&&n| data.label(n) == data.label(7))
            .count();
        assert!(
            same_object >= 3,
            "out-of-sample retrieval should find the object"
        );
    }

    #[test]
    fn validation() {
        let data = small_coil();
        let empty = FeatureMatrix::from_vec(8, Vec::new()).unwrap();
        assert!(EmrSolver::new(&empty, MrParams::default(), EmrConfig::default()).is_err());
        assert!(EmrSolver::new(
            data.features(),
            MrParams::default(),
            EmrConfig::with_anchors(0)
        )
        .is_err());
        let solver = EmrSolver::new(
            data.features(),
            MrParams::default(),
            EmrConfig::with_anchors(8),
        )
        .unwrap();
        assert!(solver.scores(data.len()).is_err());
        assert!(solver.top_k(0, 0).is_err());
        assert!(solver.scores_for_feature(&[1.0]).is_err());
        assert_eq!(solver.name(), "EMR");
        assert_eq!(solver.num_nodes(), data.len());
        assert_eq!(solver.num_anchors(), 8);
    }

    #[test]
    fn anchors_clamped_to_dataset_size() {
        let feats = FeatureMatrix::from_vec(2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]).unwrap();
        let solver =
            EmrSolver::new(&feats, MrParams::default(), EmrConfig::with_anchors(50)).unwrap();
        assert!(solver.num_anchors() <= 3);
        let scores = solver.scores(0).unwrap();
        assert_eq!(scores.len(), 3);
    }
}
