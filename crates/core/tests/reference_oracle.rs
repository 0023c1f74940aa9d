//! An independent oracle for the Algorithm 2 engine: a textbook
//! substitution over factors the oracle computes itself — `factorize` on
//! the permuted `W` of the index's graph and ordering, never the storage
//! the engine sweeps — compared with exact `==` (it performs the same
//! floating-point operations in the same order), and MogulE compared
//! against the dense inverse of `exact.rs`. One assertion pins those
//! factors to the index's `factor_l()` / `factor_d()` bit for bit, so the
//! oracle still tests the index's own factors.

use mogul_core::{
    InverseSolver, MogulConfig, MogulIndex, MrParams, RankedNode, Ranker, SearchMode,
    SearchWorkspace, TopKResult,
};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_graph::adjacency::ranking_system_matrix;
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_graph::Graph;
use mogul_sparse::{factorize, LdlFactors};

/// An index and the factors the oracle substitutes over.
struct Case {
    index: MogulIndex,
    factors: LdlFactors,
}

impl Case {
    /// Build the index, then factorize its permuted `W` independently.
    fn build(graph: &Graph, config: MogulConfig) -> Self {
        let index = MogulIndex::build(graph, config).unwrap();
        let w = ranking_system_matrix(&graph.adjacency_matrix(), index.params().alpha)
            .unwrap()
            .permute_symmetric(&index.ordering().permutation)
            .unwrap();
        let factors = factorize(&w, index.factorization()).unwrap();
        Case { index, factors }
    }
}

/// Scores of every node (original order) for a weighted query vector:
/// forward substitution restricted to `C_Q ∪ C_N` (Lemma 4), then back
/// substitution for the border and for every other cluster (Lemma 5).
fn reference_scores(case: &Case, weights: &[(usize, f64)]) -> Vec<f64> {
    let index = &case.index;
    let ordering = index.ordering();
    let mut q = vec![0.0; ordering.len()];
    let mut forwarded = vec![false; ordering.num_clusters()];
    forwarded[ordering.border_cluster()] = true;
    for &(node, weight) in weights {
        let permuted = ordering.permutation.new_index(node);
        q[permuted] += weight * index.params().query_scale();
        forwarded[ordering.cluster_of_permuted(permuted)] = true;
    }
    reference_substitution(case, &q, &forwarded)
}

/// The solve of one dense right-hand side (original order, unscaled): the
/// same substitution with every cluster forwarded.
fn reference_solve(case: &Case, rhs: &[f64]) -> Vec<f64> {
    let ordering = case.index.ordering();
    let mut q = vec![0.0; ordering.len()];
    for (node, &value) in rhs.iter().enumerate() {
        q[ordering.permutation.new_index(node)] = value;
    }
    reference_substitution(case, &q, &vec![true; ordering.num_clusters()])
}

/// The textbook substitution over the case's own factors for a permuted
/// right-hand side `q`: forward over the `forwarded` clusters only (`y` is
/// zero elsewhere), then back over the border and every other cluster.
/// Returns the scores in original order.
fn reference_substitution(case: &Case, q: &[f64], forwarded: &[bool]) -> Vec<f64> {
    let ordering = case.index.ordering();
    let (l, d) = (&case.factors.l, &case.factors.d);
    let u = l.transpose();
    let n = ordering.len();
    let border = ordering.border_cluster();

    let mut y = vec![0.0; n];
    for (cluster, range) in ordering.clusters.iter().enumerate() {
        if !forwarded[cluster] {
            continue;
        }
        for i in range.indices() {
            let (cols, vals) = l.row(i);
            let mut sum = q[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j < i {
                    sum -= v * d[j] * y[j];
                }
            }
            y[i] = sum / d[i];
        }
    }

    let mut x = vec![0.0; n];
    for cluster in std::iter::once(border).chain(0..border) {
        for i in ordering.clusters[cluster].indices().rev() {
            let (cols, vals) = u.row(i);
            let mut sum = y[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j > i {
                    sum -= v * x[j];
                }
            }
            x[i] = sum;
        }
    }
    (0..n)
        .map(|node| x[ordering.permutation.new_index(node)])
        .collect()
}

/// Algorithm 2's answer set: `K` starts as `k` dummies of score 0, so only
/// finite non-negative scores enter; ties at the cut go to the larger id.
fn reference_top_k(scores: &[f64], k: usize, exclude: Option<usize>) -> TopKResult {
    let mut ranked: Vec<RankedNode> = scores
        .iter()
        .enumerate()
        .filter(|&(node, &score)| Some(node) != exclude && score.is_finite() && score >= 0.0)
        .map(|(node, &score)| RankedNode { node, score })
        .collect();
    ranked.sort_by(|a, b| {
        let by_score = b.score.partial_cmp(&a.score).expect("finite scores");
        by_score.then(b.node.cmp(&a.node))
    });
    ranked.truncate(k);
    TopKResult::new(ranked)
}

/// A clean corpus (separated clusters, empty border) and a noisy one (a
/// 47-node border, partial pruning), each as `(graph, Mogul, MogulE)`.
fn fixtures() -> Vec<(Graph, Case, Case)> {
    let clean = coil_like(&CoilLikeConfig {
        num_objects: 8,
        poses_per_object: 18,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    let noisy = web_like(&WebLikeConfig {
        num_points: 300,
        num_topics: 6,
        dim: 12,
        background_fraction: 0.2,
        ..Default::default()
    })
    .unwrap();
    [clean, noisy]
        .iter()
        .map(|data| {
            let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
            let approx = Case::build(&graph, MogulConfig::default());
            let exact = Case::build(&graph, MogulConfig::exact());
            (graph, approx, exact)
        })
        .collect()
}

#[test]
fn the_oracle_factors_are_the_index_factors_bit_for_bit() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (_, approx, exact) in &fixtures() {
        for case in [approx, exact] {
            let (l, own) = (case.index.factor_l(), &case.factors.l);
            assert_eq!(l.indptr(), own.indptr());
            assert_eq!(l.indices(), own.indices());
            assert_eq!(bits(l.values()), bits(own.values()));
            assert_eq!(bits(case.index.factor_d()), bits(&case.factors.d));
        }
    }
}

#[test]
fn engine_matches_the_textbook_substitution_exactly() {
    let mut ws = SearchWorkspace::new();
    for (_, approx, exact) in &fixtures() {
        for case in [approx, exact] {
            let index = &case.index;
            let n = index.num_nodes();
            for query in (0..n).step_by(7) {
                let scores = reference_scores(case, &[(query, 1.0)]);
                assert_eq!(index.all_scores_in(&mut ws, query).unwrap(), scores);
                for k in [1, 10, n] {
                    let want = reference_top_k(&scores, k, Some(query));
                    for mode in [
                        SearchMode::Pruned,
                        SearchMode::NoPruning,
                        SearchMode::FullSubstitution,
                    ] {
                        let (got, stats) =
                            index.search_with_stats_in(&mut ws, query, k, mode).unwrap();
                        assert_eq!(got, want, "query {query} k {k} {mode:?}");
                        if mode != SearchMode::Pruned {
                            assert_eq!((stats.nodes_scored, stats.clusters_pruned), (n, 0));
                        }
                    }
                }
                // A weighted multi-node vector spanning several clusters.
                let weights = [
                    (query, 0.6),
                    ((query * 31 + 7) % n, 0.3),
                    ((query + 1) % n, 0.1),
                ];
                let want = reference_top_k(&reference_scores(case, &weights), 6, None);
                for mode in MODES {
                    let (got, _) = index
                        .search_weighted_in(&mut ws, &weights, 6, mode)
                        .unwrap();
                    assert_eq!(got, want, "weighted query {query} {mode:?}");
                }
            }
        }
    }
}

const MODES: [SearchMode; 3] = [
    SearchMode::Pruned,
    SearchMode::NoPruning,
    SearchMode::FullSubstitution,
];

/// One original node of each non-empty cluster of `index`, border last.
fn one_node_per_cluster(index: &MogulIndex) -> Vec<usize> {
    let ordering = index.ordering();
    ordering
        .clusters
        .iter()
        .filter(|range| !range.is_empty())
        .map(|range| ordering.permutation.old_index(range.start + range.len / 2))
        .collect()
}

#[test]
fn weighted_seeds_across_clusters_and_the_border_match_the_textbook_substitution() {
    let mut ws = SearchWorkspace::new();
    let mut spanned = 0;
    for (_, approx, exact) in &fixtures() {
        for case in [approx, exact] {
            let index = &case.index;
            let n = index.num_nodes();
            let seeds = one_node_per_cluster(index);
            // Windows of four consecutive clusters: three or more interior
            // ones, and the border node too where the window reaches it.
            for window in seeds.windows(4.min(seeds.len())) {
                let weights: Vec<(usize, f64)> = window
                    .iter()
                    .enumerate()
                    .map(|(i, &node)| (node, 0.4 / (i + 1) as f64))
                    .collect();
                let scores = reference_scores(case, &weights);
                for k in [3, n] {
                    let want = reference_top_k(&scores, k, None);
                    for mode in MODES {
                        let (got, stats) = index
                            .search_weighted_in(&mut ws, &weights, k, mode)
                            .unwrap();
                        assert_eq!(got, want, "seeds {window:?} k {k} {mode:?}");
                        if mode != SearchMode::Pruned {
                            assert_eq!(stats.nodes_scored, n);
                        }
                    }
                }
                spanned += 1;
            }
        }
    }
    assert!(spanned > 0);
}

#[test]
fn panels_match_the_textbook_substitution_under_every_mode() {
    let mut ws = SearchWorkspace::new();
    for (_, approx, exact) in &fixtures() {
        for case in [approx, exact] {
            let index = &case.index;
            let n = index.num_nodes();
            // Eight lanes, four of them in the largest interior cluster, so
            // that cluster, its border segments and the border tails run the
            // full-width lane kernels.
            let ordering = index.ordering();
            let largest = ordering.clusters[..ordering.border_cluster()]
                .iter()
                .max_by_key(|range| range.len)
                .expect("every fixture has an interior cluster");
            let queries: Vec<usize> = largest
                .indices()
                .take(4)
                .map(|permuted| ordering.permutation.old_index(permuted))
                .chain((0..4).map(|i| (i * 37 + 5) % n))
                .collect();
            for mode in MODES {
                for k in [4, n] {
                    let got = index.search_batch_in(&mut ws, &queries, k, mode).unwrap();
                    for (&query, (top, _)) in queries.iter().zip(&got) {
                        let want = reference_top_k(
                            &reference_scores(case, &[(query, 1.0)]),
                            k,
                            Some(query),
                        );
                        assert_eq!(top, &want, "query {query} k {k} {mode:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_cluster_no_border_row_reaches_matches_the_textbook_substitution() {
    let mut ws = SearchWorkspace::new();
    let mut found = 0;
    for (_, approx, exact) in &fixtures() {
        for case in [approx, exact] {
            let index = &case.index;
            let ordering = index.ordering();
            let l = &case.factors.l;
            let border = ordering.border_range();
            let n = index.num_nodes();
            for (cluster, range) in ordering.clusters.iter().enumerate() {
                if cluster == ordering.border_cluster() || range.is_empty() {
                    continue;
                }
                let coupled = border
                    .indices()
                    .any(|i| l.row(i).0.iter().any(|&j| range.contains(j)));
                if coupled {
                    continue;
                }
                found += 1;
                let query = ordering.permutation.old_index(range.start);
                let scores = reference_scores(case, &[(query, 1.0)]);
                assert_eq!(index.all_scores_in(&mut ws, query).unwrap(), scores);
                for mode in MODES {
                    let want = reference_top_k(&scores, 10, Some(query));
                    let (got, _) = index
                        .search_with_stats_in(&mut ws, query, 10, mode)
                        .unwrap();
                    assert_eq!(got, want, "uncoupled cluster {cluster} {mode:?}");
                    // The same query as one lane of a full panel.
                    let panel: Vec<usize> = std::iter::once(query)
                        .chain((1..8).map(|i| (query + i * 13) % n))
                        .collect();
                    let got = index.search_batch_in(&mut ws, &panel, 10, mode).unwrap();
                    assert_eq!(
                        got[0].0, want,
                        "uncoupled cluster {cluster} in a panel {mode:?}"
                    );
                }
            }
        }
    }
    assert!(
        found > 0,
        "no fixture has a cluster that no border row reaches"
    );
}

#[test]
fn the_dense_solve_is_the_textbook_substitution_and_full_substitution_scores() {
    let mut ws = SearchWorkspace::new();
    for (_, approx, exact) in &fixtures() {
        for case in [approx, exact] {
            let index = &case.index;
            let n = index.num_nodes();
            // Widths 1, 3 and 8 fill one panel; 11 spans two.
            for width in [1usize, 3, 8, 11] {
                let rhs: Vec<f64> = (0..n * width)
                    .map(|i| ((i * 29 + 7) % 23) as f64 / 23.0 - 0.3)
                    .collect();
                let mut got = Vec::new();
                index
                    .solve_ranking_system_batch_in(&mut ws, &rhs, width, &mut got)
                    .unwrap();
                for lane in 0..width {
                    let column: Vec<f64> = rhs.iter().skip(lane).step_by(width).copied().collect();
                    let solved: Vec<f64> = got.iter().skip(lane).step_by(width).copied().collect();
                    assert_eq!(
                        solved,
                        reference_solve(case, &column),
                        "width {width} lane {lane}"
                    );
                }
            }
            // A seed's `FullSubstitution` scores are its solve, bit for bit.
            let scale = index.params().query_scale();
            for query in (0..n).step_by(11) {
                let weights = [(query, 0.7), ((query * 31 + 7) % n, 0.3)];
                let mut rhs = vec![0.0; n];
                for &(node, weight) in &weights {
                    rhs[node] += weight * scale;
                }
                let mut solved = Vec::new();
                index
                    .solve_ranking_system_in(&mut ws, &rhs, &mut solved)
                    .unwrap();
                let (got, _) = index
                    .search_weighted_in(&mut ws, &weights, n, SearchMode::FullSubstitution)
                    .unwrap();
                assert_eq!(got, reference_top_k(&solved, n, None), "seed {weights:?}");
            }
        }
    }
}

#[test]
fn mogul_e_matches_the_dense_inverse() {
    let mut ws = SearchWorkspace::new();
    for (graph, _, Case { index: exact, .. }) in &fixtures() {
        let dense = InverseSolver::new(graph, MrParams::default()).unwrap();
        for query in (0..exact.num_nodes()).step_by(5) {
            let got = exact.all_scores_in(&mut ws, query).unwrap();
            let want = dense.scores(query).unwrap();
            let err = mogul_sparse::vector::max_abs_diff(&got, &want).unwrap();
            assert!(err < 1e-9, "query {query}: MogulE is off by {err}");
        }
    }
}
