//! Upper-bounding cluster estimations (Section 4.3 of the paper).
//!
//! For an interior cluster `C_i` (not the query cluster, not the border
//! cluster `C_N`) the paper bounds every approximate score in the cluster by
//!
//! ```text
//! x̄'_{C_i} = X_i (1 + Ū_i)^{N_i − 1}
//! X_i      = Σ_{j ≥ c_N} Ū_{i:j} |x'_j|
//! Ū_i      = max { |U_jk| : u'_j, u'_k ∈ C_i, j ≠ k }
//! Ū_{i:j}  = max { |U_kj| : u'_k ∈ C_i }
//! ```
//!
//! (Definition 1, Definition 2, Lemmas 6–7.) `Ū_i` and the per-column maxima
//! `Ū_{i:j}` depend only on the strictly-upper entries of `U = Lᵀ` and are
//! precomputed in `O(n)` time from the search layout's upper rows; `X_i`
//! depends on the border scores `x'_j` (j ∈ C_N) of the current query and
//! is evaluated at search time.

use crate::mogul::layout::SearchLayout;
use mogul_graph::ordering::NodeOrdering;

/// Precomputed per-cluster quantities used by the upper-bounding estimation.
#[derive(Debug, Clone)]
pub struct ClusterBounds {
    /// `Ū_i` per cluster (0 for the border cluster itself and for clusters
    /// without any off-diagonal within-cluster entry).
    max_within: Vec<f64>,
    /// For each cluster `i`, the sparse list of `(j, Ū_{i:j})` over border
    /// columns `j ≥ c_N` that any row of the cluster touches.
    border_columns: Vec<Vec<(usize, f64)>>,
}

impl ClusterBounds {
    /// Precompute `Ū_i` and `Ū_{i:j}` from the strictly-upper rows of
    /// `U = Lᵀ` in `layout` and the node ordering. Runs in time linear in
    /// `nnz(U)`.
    pub(crate) fn precompute(layout: &SearchLayout, ordering: &NodeOrdering) -> Self {
        let num_clusters = ordering.num_clusters();
        let border = ordering.border_range();
        let mut max_within = vec![0.0f64; num_clusters];
        let mut border_columns = Vec::with_capacity(num_clusters);
        // `Ū_{i:j}` of the current cluster over border columns, indexed by
        // `j − c_N`, with the columns the cluster touched. A max is
        // order-free, so the scan order of the rows does not matter.
        let mut column_max = vec![0.0f64; border.len];
        let mut seen = vec![false; border.len];
        let mut touched: Vec<usize> = Vec::new();

        for (cluster_idx, &range) in ordering.clusters.iter().enumerate() {
            let rows = layout.upper_rows(range);
            for (r, k) in range.indices().enumerate() {
                let (cols, vals) = rows.entries(r);
                for (&j, &v) in cols.iter().zip(vals.iter()) {
                    let (j, abs) = (j as usize, v.abs());
                    if range.contains(j) && abs > max_within[cluster_idx] {
                        max_within[cluster_idx] = abs;
                    }
                    if j >= border.start && !border.contains(k) {
                        let slot = j - border.start;
                        if !seen[slot] {
                            seen[slot] = true;
                            column_max[slot] = 0.0;
                            touched.push(slot);
                        }
                        if abs > column_max[slot] {
                            column_max[slot] = abs;
                        }
                    }
                }
            }
            touched.sort_unstable();
            border_columns.push(
                touched
                    .iter()
                    .map(|&slot| (border.start + slot, column_max[slot]))
                    .collect(),
            );
            for &slot in &touched {
                seen[slot] = false;
            }
            touched.clear();
        }

        ClusterBounds {
            max_within,
            border_columns,
        }
    }

    /// Reassemble bounds from their stored parts (the persistence loader;
    /// see `crate::persist`). `max_within[i]` and `border_columns[i]` must
    /// describe the same cluster `i`, so both vectors must have one entry
    /// per cluster.
    pub fn from_raw_parts(
        max_within: Vec<f64>,
        border_columns: Vec<Vec<(usize, f64)>>,
    ) -> crate::Result<Self> {
        if max_within.len() != border_columns.len() {
            return Err(crate::CoreError::InvalidInput(format!(
                "cluster bounds cover {} clusters but border columns cover {}",
                max_within.len(),
                border_columns.len()
            )));
        }
        for (cluster, columns) in border_columns.iter().enumerate() {
            if columns.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(crate::CoreError::InvalidInput(format!(
                    "border columns of cluster {cluster} are not strictly ascending"
                )));
            }
        }
        Ok(ClusterBounds {
            max_within,
            border_columns,
        })
    }

    /// Number of clusters the bounds cover.
    pub fn num_clusters(&self) -> usize {
        self.max_within.len()
    }

    /// `Ū_i` of a cluster.
    pub fn max_within(&self, cluster: usize) -> f64 {
        self.max_within[cluster]
    }

    /// The stored `(j, Ū_{i:j})` pairs of a cluster.
    pub fn border_columns(&self, cluster: usize) -> &[(usize, f64)] {
        &self.border_columns[cluster]
    }

    /// Evaluate the upper bound `x̄'_{C_i} = X_i (1 + Ū_i)^{N_i − 1}` for
    /// one lane of an `n × width` score panel (`x_panel[j * width + lane]`;
    /// only border rows `j ≥ c_N` are read), accumulating in a register —
    /// the form to use when few lanes of the panel need a bound.
    pub fn cluster_estimate_lane(
        &self,
        cluster: usize,
        cluster_len: usize,
        x_panel: &[f64],
        width: usize,
        lane: usize,
    ) -> f64 {
        let mut x_i = 0.0;
        for &(j, u_max) in &self.border_columns[cluster] {
            x_i += u_max * x_panel[j * width + lane].abs();
        }
        if x_i == 0.0 || cluster_len <= 1 {
            return x_i;
        }
        // The geometric factor can overflow for large clusters; `inf` means
        // "cannot prune", which is always safe.
        x_i * (1.0 + self.max_within[cluster]).powf((cluster_len - 1) as f64)
    }

    /// [`ClusterBounds::cluster_estimate_lane`] for every lane at once, in
    /// one traversal of the stored border columns, writing the per-lane
    /// bounds into `out[..width]`.
    ///
    /// A lane's arithmetic is that of the single-lane form (same
    /// accumulation order, same geometric factor), so a query prunes the
    /// same clusters whatever it is batched with.
    pub fn cluster_estimates_panel(
        &self,
        cluster: usize,
        cluster_len: usize,
        x_panel: &[f64],
        width: usize,
        out: &mut [f64],
    ) {
        let out = &mut out[..width];
        out.fill(0.0);
        let columns = &self.border_columns[cluster];
        for &(j, u_max) in columns {
            let row = &x_panel[j * width..(j + 1) * width];
            for (acc, &x) in out.iter_mut().zip(row.iter()) {
                *acc += u_max * x.abs();
            }
        }
        // A cluster with no stored border columns has `X_i = 0` for every
        // lane; on a corpus with an empty border that is every cluster.
        if columns.is_empty() || cluster_len <= 1 {
            return;
        }
        let base = 1.0 + self.max_within[cluster];
        let exponent = (cluster_len - 1) as f64;
        // The geometric factor is shared by every lane; compute it at most
        // once and only if some lane needs it.
        let mut factor = None;
        for acc in out.iter_mut() {
            if *acc != 0.0 {
                *acc *= *factor.get_or_insert_with(|| base.powf(exponent));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mogul::layout::StrictRows;
    use crate::mogul::reference;
    use mogul_graph::ordering::{ClusterRange, NodeOrdering};
    use mogul_sparse::{CsrMatrix, Permutation};

    /// Hand-built ordering: cluster 0 = {0,1}, cluster 1 = {2,3}, border = {4,5}.
    fn ordering() -> NodeOrdering {
        NodeOrdering {
            permutation: Permutation::identity(6),
            clusters: vec![
                ClusterRange { start: 0, len: 2 },
                ClusterRange { start: 2, len: 2 },
                ClusterRange { start: 4, len: 2 },
            ],
        }
    }

    /// Upper-triangular factor with within-cluster and border couplings.
    fn u_factor() -> CsrMatrix {
        CsrMatrix::from_triplets(
            6,
            6,
            &[
                (0, 0, 1.0),
                (0, 1, -0.5), // within cluster 0
                (0, 4, 0.2),  // cluster 0 → border
                (1, 1, 1.0),
                (1, 5, -0.3), // cluster 0 → border
                (2, 2, 1.0),
                (2, 3, 0.25), // within cluster 1
                (3, 3, 1.0),
                (3, 4, -0.1), // cluster 1 → border
                (4, 4, 1.0),
                (4, 5, 0.4), // within border
                (5, 5, 1.0),
            ],
        )
        .unwrap()
    }

    /// [`u_factor`] as a search layout (`D = I`), what the bounds read.
    fn layout() -> SearchLayout {
        let upper = StrictRows::upper_of_unit_lower(&u_factor().transpose()).unwrap();
        SearchLayout::new(upper, vec![1.0; 6], &ordering()).unwrap()
    }

    #[test]
    fn precomputed_maxima_match_hand_calculation() {
        let bounds = ClusterBounds::precompute(&layout(), &ordering());
        assert!((bounds.max_within(0) - 0.5).abs() < 1e-12);
        assert!((bounds.max_within(1) - 0.25).abs() < 1e-12);
        // Border columns of cluster 0: column 4 (0.2) and column 5 (0.3).
        let cols0 = bounds.border_columns(0);
        assert_eq!(cols0.len(), 2);
        assert_eq!(cols0[0].0, 4);
        assert!((cols0[0].1 - 0.2).abs() < 1e-12);
        assert!((cols0[1].1 - 0.3).abs() < 1e-12);
        // Cluster 1 touches only column 4.
        let cols1 = bounds.border_columns(1);
        assert_eq!(cols1, &[(4, 0.1)]);
    }

    fn bits(bounds: &ClusterBounds) -> (Vec<u64>, Vec<Vec<(usize, u64)>>) {
        (
            bounds.max_within.iter().map(|v| v.to_bits()).collect(),
            bounds
                .border_columns
                .iter()
                .map(|c| c.iter().map(|&(j, v)| (j, v.to_bits())).collect())
                .collect(),
        )
    }

    #[test]
    fn dense_border_maxima_match_the_hash_map_bounds() {
        use crate::mogul::{MogulConfig, MogulIndex};
        use mogul_data::web::{web_like, WebLikeConfig};
        use mogul_graph::knn::{knn_graph, KnnConfig};
        use mogul_sparse::Factorization;

        let reference = reference::hash_map_bounds(&layout(), &ordering());
        assert_eq!(
            bits(&ClusterBounds::precompute(&layout(), &ordering())),
            bits(&reference)
        );
        for (topics, background_fraction) in [(8, 0.2), (30, 0.02)] {
            let data = web_like(&WebLikeConfig {
                num_points: 800,
                num_topics: topics,
                dim: 16,
                background_fraction,
                ..WebLikeConfig::default()
            })
            .unwrap();
            let graph = knn_graph(data.features(), KnnConfig::with_k(8)).unwrap();
            for factorization in [Factorization::Incomplete, Factorization::Complete] {
                let config = MogulConfig {
                    factorization,
                    ..MogulConfig::default()
                };
                let index = MogulIndex::build(&graph, config).unwrap();
                let reference = reference::hash_map_bounds(&index.layout, &index.ordering);
                assert!(reference.border_columns.iter().any(|c| !c.is_empty()));
                assert_eq!(bits(&index.bounds), bits(&reference));
            }
        }
    }

    /// The bound of a lone lane whose border scores are `x4`, `x5`.
    fn estimate(bounds: &ClusterBounds, cluster: usize, len: usize, x4: f64, x5: f64) -> f64 {
        bounds.cluster_estimate_lane(cluster, len, &[0.0, 0.0, 0.0, 0.0, x4, x5], 1, 0)
    }

    #[test]
    fn estimate_formula() {
        let bounds = ClusterBounds::precompute(&layout(), &ordering());
        // Border scores: x'_4 = 2, x'_5 = -1.
        // Cluster 0: X_0 = 0.2*2 + 0.3*1 = 0.7, bound = 0.7 * 1.5^(2-1) = 1.05.
        assert!((estimate(&bounds, 0, 2, 2.0, -1.0) - 1.05).abs() < 1e-12);
        // Cluster 1: X_1 = 0.1*2 = 0.2, bound = 0.2 * 1.25.
        assert!((estimate(&bounds, 1, 2, 2.0, -1.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn panel_form_bounds_each_lane_like_the_lane_form() {
        let bounds = ClusterBounds::precompute(&layout(), &ordering());
        // Lane 0 carries the scores above, lane 1 is all zero, lane 2 differs.
        let mut x_panel = [0.0; 18];
        x_panel[12..].copy_from_slice(&[2.0, 0.0, 0.3, -1.0, 0.0, 7.0]);
        for (cluster, len) in [(0, 2), (1, 2), (0, 1), (0, 100_000)] {
            let mut out = [f64::NAN; 3];
            bounds.cluster_estimates_panel(cluster, len, &x_panel, 3, &mut out);
            for (lane, &bound) in out.iter().enumerate() {
                let alone = bounds.cluster_estimate_lane(cluster, len, &x_panel, 3, lane);
                assert_eq!(bound, alone, "cluster {cluster} len {len} lane {lane}");
            }
            assert_eq!(out[0], estimate(&bounds, cluster, len, 2.0, -1.0));
            assert_eq!(out[1], 0.0);
        }
    }

    #[test]
    fn zero_coupling_gives_zero_estimate() {
        let bounds = ClusterBounds::precompute(&layout(), &ordering());
        assert_eq!(estimate(&bounds, 1, 2, 0.0, 0.0), 0.0);
    }

    #[test]
    fn singleton_cluster_estimate_is_just_x() {
        let bounds = ClusterBounds::precompute(&layout(), &ordering());
        // 0.2 + 0.3, no geometric factor.
        assert!((estimate(&bounds, 0, 1, 1.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn huge_clusters_do_not_panic_on_overflow() {
        let bounds = ClusterBounds::precompute(&layout(), &ordering());
        let est = estimate(&bounds, 0, 100_000, 1.0, 1.0);
        assert!(est.is_infinite() || est > 1e100);
    }
}
