//! Cross-solver consistency: every baseline must agree with the exact
//! inverse-matrix solution in the regimes where it is supposed to be exact,
//! and stay close in the regimes where it is approximate.

use mogul_suite::core::{
    EmrConfig, EmrSolver, FmrConfig, FmrSolver, IndexBuilder, InverseSolver, IterativeConfig,
    IterativeSolver, MogulConfig, MogulIndex, MrParams, OosWorkspace, Ranker, SearchMode,
    SearchWorkspace, SnapshotWorkspace,
};
use mogul_suite::data::coil::{coil_like, CoilLikeConfig};
use mogul_suite::eval::metrics::{mean, precision_at_k};
use mogul_suite::graph::knn::{knn_graph, KnnConfig};
use mogul_suite::graph::Graph;

fn coil_dataset() -> mogul_suite::data::Dataset {
    coil_like(&CoilLikeConfig {
        num_objects: 8,
        poses_per_object: 20,
        dim: 16,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn iterative_converges_to_the_inverse_solution() {
    let data = coil_dataset();
    let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
    let params = MrParams::default();
    let inverse = InverseSolver::new(&graph, params).unwrap();
    let iterative = IterativeSolver::new(
        &graph,
        params,
        IterativeConfig {
            tolerance: 1e-10,
            max_iterations: 100_000,
        },
    )
    .unwrap();
    for q in [0usize, 33, 101] {
        let a = iterative.scores(q).unwrap();
        let b = inverse.scores(q).unwrap();
        assert!(mogul_suite::sparse::vector::max_abs_diff(&a, &b).unwrap() < 1e-6);
    }
}

#[test]
fn all_methods_retrieve_reasonable_top_k_sets() {
    let data = coil_dataset();
    let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
    let params = MrParams::default();
    let queries: Vec<usize> = (0..data.len()).step_by(23).collect();

    let inverse = InverseSolver::new(&graph, params).unwrap();
    let reference: Vec<_> = queries
        .iter()
        .map(|&q| inverse.top_k(q, 5).unwrap())
        .collect();

    let mogul = MogulIndex::build(
        &graph,
        MogulConfig {
            params,
            ..MogulConfig::default()
        },
    )
    .unwrap();
    let mogul_e = MogulIndex::build(
        &graph,
        MogulConfig {
            params,
            ..MogulConfig::exact()
        },
    )
    .unwrap();
    let emr_small = EmrSolver::new(data.features(), params, EmrConfig::with_anchors(10)).unwrap();
    let emr_large = EmrSolver::new(data.features(), params, EmrConfig::with_anchors(80)).unwrap();

    let collect_precision = |ranker: &dyn Ranker| -> f64 {
        let values: Vec<f64> = queries
            .iter()
            .enumerate()
            .map(|(i, &q)| precision_at_k(&ranker.top_k(q, 5).unwrap(), &reference[i]))
            .collect();
        mean(&values)
    };

    let p_mogul = collect_precision(&mogul);
    let p_mogul_e = collect_precision(&mogul_e);
    let p_emr_small = collect_precision(&emr_small);
    let p_emr_large = collect_precision(&emr_large);

    // MogulE is exact; Mogul is a close approximation; EMR improves with more
    // anchors but should not beat Mogul at d = 10 (the paper's Figure 2 shape).
    assert!(p_mogul_e > 0.99, "MogulE P@5 = {p_mogul_e}");
    assert!(p_mogul > 0.8, "Mogul P@5 = {p_mogul}");
    assert!(
        p_mogul >= p_emr_small - 0.05,
        "Mogul ({p_mogul}) should not lose clearly to EMR with 10 anchors ({p_emr_small})"
    );
    assert!((0.0..=1.0).contains(&p_emr_large));
}

#[test]
fn fmr_is_exact_when_the_partition_has_no_cross_edges() {
    // Two disconnected cliques: any sane partition has zero cross edges, so
    // FMR (with full-rank blocks) must reproduce the exact solution.
    let mut graph = Graph::empty(16);
    for base in [0usize, 8] {
        for i in 0..8 {
            for j in (i + 1)..8 {
                graph.add_edge(base + i, base + j, 1.0).unwrap();
            }
        }
    }
    let params = MrParams::default();
    let inverse = InverseSolver::new(&graph, params).unwrap();
    let fmr = FmrSolver::new(
        &graph,
        params,
        FmrConfig {
            num_clusters: 2,
            rank: 64,
            seed: 3,
        },
    )
    .unwrap();
    assert_eq!(
        fmr.dropped_edges(),
        0,
        "spectral clustering should split the two disconnected cliques cleanly"
    );
    for q in 0..16 {
        let a = fmr.scores(q).unwrap();
        let b = inverse.scores(q).unwrap();
        assert!(mogul_suite::sparse::vector::max_abs_diff(&a, &b).unwrap() < 1e-8);
    }
}

#[test]
fn workspace_entry_points_match_allocating_paths_at_the_workspace_tier() {
    // The `*_in` variants (caller-owned scratch, zero hot-path allocations)
    // promise bit-identical results to the allocating paths. The per-crate
    // tests pin this at the unit level; this test pins it at the workspace
    // tier, across one long-lived workspace reused over every call — the
    // exact shape a serving loop uses.
    let data = coil_dataset();
    let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
    let params = MrParams::default();

    for config in [MogulConfig::default(), MogulConfig::exact()] {
        let index = MogulIndex::build(&graph, MogulConfig { params, ..config }).unwrap();
        let mut ws = SearchWorkspace::new();
        for q in [0usize, 57, 140] {
            assert_eq!(
                index.search(q, 6).unwrap(),
                index.search_in(&mut ws, q, 6).unwrap()
            );
            for mode in [
                SearchMode::Pruned,
                SearchMode::NoPruning,
                SearchMode::FullSubstitution,
            ] {
                assert_eq!(
                    index.search_with_stats(q, 6, mode).unwrap(),
                    index.search_with_stats_in(&mut ws, q, 6, mode).unwrap()
                );
            }
            let allocating = index.all_scores(q).unwrap();
            let reused = index.all_scores_in(&mut ws, q).unwrap();
            assert!(
                allocating
                    .iter()
                    .zip(reused.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "all_scores_in diverged for query {q}"
            );
        }
        let weights = vec![(3usize, 0.5), (80, 0.3), (159, 0.2)];
        assert_eq!(
            index
                .search_weighted(&weights, 5, SearchMode::Pruned)
                .unwrap(),
            index
                .search_weighted_in(&mut ws, &weights, 5, SearchMode::Pruned)
                .unwrap()
        );
    }

    // The index-level `_in` entry points, through reused scratch: the
    // snapshot's, and those of the factorized base under it.
    let snapshot = IndexBuilder::new()
        .knn_k(5)
        .build(data.features())
        .unwrap()
        .snapshot();
    let base = snapshot.base();
    let mut snapshot_ws = SnapshotWorkspace::new();
    let mut oos_ws = OosWorkspace::new();
    for q in [2usize, 77] {
        assert_eq!(
            snapshot.query_by_id(q, 5).unwrap(),
            snapshot.query_by_id_in(&mut snapshot_ws, q, 5).unwrap()
        );
        assert_eq!(
            base.index().search(q, 5).unwrap(),
            base.index().search_in(&mut oos_ws, q, 5).unwrap()
        );
    }
    for probe in [data.feature(9), data.feature(123)] {
        let allocating = base.query(probe, 5).unwrap();
        let reused = base.query_in(&mut oos_ws, probe, 5).unwrap();
        assert_eq!(allocating.top_k, reused.top_k);
        assert_eq!(allocating.neighbors, reused.neighbors);
        assert_eq!(allocating.stats, reused.stats);
        let allocating = snapshot.query_by_feature(probe, 5).unwrap();
        let reused = snapshot
            .query_by_feature_in(&mut snapshot_ws, probe, 5)
            .unwrap();
        assert_eq!(allocating.top_k, reused.top_k);
        assert_eq!(allocating.neighbors, reused.neighbors);
        assert_eq!(allocating.stats, reused.stats);
    }
}

#[test]
fn solver_names_are_distinct() {
    let data = coil_dataset();
    let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
    let params = MrParams::default();
    let names = vec![
        InverseSolver::new(&graph, params).unwrap().name(),
        IterativeSolver::new(&graph, params, IterativeConfig::default())
            .unwrap()
            .name(),
        FmrSolver::new(&graph, params, FmrConfig::default())
            .unwrap()
            .name(),
        EmrSolver::new(data.features(), params, EmrConfig::default())
            .unwrap()
            .name(),
        MogulIndex::build(&graph, MogulConfig::default())
            .unwrap()
            .name(),
        MogulIndex::build(&graph, MogulConfig::exact())
            .unwrap()
            .name(),
    ];
    let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate solver names: {names:?}"
    );
}
