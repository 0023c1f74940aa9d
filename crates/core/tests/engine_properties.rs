//! Properties of the one Algorithm 2 engine that need no second engine to
//! state.
//!
//! * **Lane independence** — a query's answer (`TopKResult` compared with
//!   `==`, which compares `f64` scores exactly, and its `SearchStats`,
//!   pruning decisions included) is the same at every panel width, in every
//!   lane position and next to any co-riders: duplicates of itself, queries
//!   that prune differently, weighted multi-node lanes. The same holds one
//!   layer up for out-of-sample batches and for snapshot batches on clean
//!   and corrected epochs.
//! * **The paper's lemma** — pruning never changes the answer: `Pruned` and
//!   `NoPruning` return `==` results.
//! * **Workspace hygiene** — one workspace driven through every entry point
//!   in turn answers like a fresh one (the all-zero panel invariant holds
//!   across widths, indices and the dense solves), and so does one snapshot
//!   workspace across clean and corrected epochs.
//!
//! That a lone query's answer is the *right* one is `reference_oracle.rs`.

use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, SnapshotWorkspace};
use mogul_core::{
    MogulConfig, MogulIndex, OutOfSampleConfig, OutOfSampleIndex, Query, SearchMode,
    SearchWorkspace, PANEL_WIDTH,
};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_graph::knn::{knn_graph, KnnConfig};

const MODES: [SearchMode; 3] = [
    SearchMode::Pruned,
    SearchMode::NoPruning,
    SearchMode::FullSubstitution,
];

/// Mogul and MogulE over two corpora: a clean one (eight separated
/// clusters, empty border, every other cluster pruned) and a noisy one (a
/// 47-node border; lanes prune none, some or all of their clusters).
fn fixtures() -> Vec<(String, MogulIndex)> {
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
    let mut out = Vec::new();
    for (corpus, data) in [("clean", &clean), ("noisy", &noisy)] {
        let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
        for (engine, config) in [
            ("Mogul", MogulConfig::default()),
            ("MogulE", MogulConfig::exact()),
        ] {
            let index = MogulIndex::build(&graph, config).unwrap();
            out.push((format!("{corpus}/{engine}"), index));
        }
    }
    out
}

/// The noisy Mogul index of [`fixtures`].
fn noisy_mogul() -> MogulIndex {
    fixtures().swap_remove(2).1
}

/// Panels covering every width `1..=PANEL_WIDTH` with every rotation (so
/// each query visits each lane position) and a duplicated lane, plus batches
/// that spill into several panels with a ragged tail.
fn panels(n: usize) -> Vec<Vec<usize>> {
    let mut panels = Vec::new();
    for width in 1..=PANEL_WIDTH {
        let mut base: Vec<usize> = (0..width).map(|i| (i * 37 + width) % n).collect();
        if width >= 3 {
            base[2] = base[0];
        }
        for rotation in 0..width {
            panels.push((0..width).map(|i| base[(i + rotation) % width]).collect());
        }
    }
    for size in [PANEL_WIDTH + 3, 3 * PANEL_WIDTH + 5] {
        panels.push((0..size).map(|i| (i * 19 + size) % n).collect());
    }
    panels
}

#[test]
fn in_database_answers_do_not_depend_on_the_panel() {
    let mut panel_ws = SearchWorkspace::new();
    let mut solo_ws = SearchWorkspace::new();
    for (label, index) in &fixtures() {
        for mode in MODES {
            for k in [1usize, 5, 10] {
                for panel in panels(index.num_nodes()) {
                    let batched = index
                        .search_batch_in(&mut panel_ws, &panel, k, mode)
                        .unwrap();
                    assert_eq!(batched.len(), panel.len());
                    for (lane, &query) in panel.iter().enumerate() {
                        let solo = index
                            .search_with_stats_in(&mut solo_ws, query, k, mode)
                            .unwrap();
                        assert_eq!(
                            batched[lane], solo,
                            "{label} {mode:?} k {k}: lane {lane} of {panel:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lanes_that_prune_differently_share_a_panel() {
    // The masked shrinking-width sweeps only run when some lanes prune a
    // cluster that others score; make sure a fixture gets there.
    let index = noisy_mogul();
    assert!(index.ordering().border_range().len > 0);
    let mut ws = SearchWorkspace::new();
    let queries: Vec<usize> = (0..PANEL_WIDTH).map(|i| i * 7).collect();
    let batched = index
        .search_batch_in(&mut ws, &queries, 1, SearchMode::Pruned)
        .unwrap();
    let pruned: Vec<usize> = batched.iter().map(|(_, s)| s.clusters_pruned).collect();
    assert!(pruned.contains(&0), "every lane pruned: {pruned:?}");
    assert!(pruned.iter().any(|&p| p > 0), "no lane pruned: {pruned:?}");
    for (lane, &query) in queries.iter().enumerate() {
        let solo = index
            .search_with_stats(query, 1, SearchMode::Pruned)
            .unwrap();
        assert_eq!(batched[lane], solo, "lane {lane}");
    }
}

#[test]
fn pruning_never_changes_the_answer() {
    let mut ws = SearchWorkspace::new();
    let (mut pruned_clusters, mut scored_clusters) = (0, 0);
    for (label, index) in &fixtures() {
        let n = index.num_nodes();
        for query in (0..n).step_by(3) {
            for k in [1usize, 5, 10, n] {
                let (pruned, stats) = index
                    .search_with_stats_in(&mut ws, query, k, SearchMode::Pruned)
                    .unwrap();
                let (unpruned, _) = index
                    .search_with_stats_in(&mut ws, query, k, SearchMode::NoPruning)
                    .unwrap();
                assert_eq!(pruned, unpruned, "{label}: query {query} k {k}");
                pruned_clusters += stats.clusters_pruned;
                scored_clusters += stats.clusters_considered - stats.clusters_pruned;
            }
            // The unpruned answer is the head of the full score vector.
            let scores = index.all_scores_in(&mut ws, query).unwrap();
            let (top, _) = index
                .search_with_stats_in(&mut ws, query, 10, SearchMode::NoPruning)
                .unwrap();
            for item in top.items() {
                assert_eq!(scores[item.node], item.score);
            }
        }
    }
    assert!(
        pruned_clusters > 0 && scored_clusters > 0,
        "the lemma needs clusters on both sides of the bound"
    );
}

#[test]
fn out_of_sample_answers_do_not_depend_on_the_panel() {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 7,
        poses_per_object: 16,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    let (db, held_out) = data.split_out_queries(PANEL_WIDTH + 3, 11).unwrap();
    let graph = knn_graph(db.features(), KnnConfig::with_k(5)).unwrap();
    for config in [MogulConfig::default(), MogulConfig::exact()] {
        let index = MogulIndex::build(&graph, config).unwrap();
        let features = std::sync::Arc::new(db.features().clone());
        let oos = OutOfSampleIndex::new(index, features, OutOfSampleConfig::default()).unwrap();
        let mut panel_ws = SearchWorkspace::new();
        let mut solo_ws = SearchWorkspace::new();
        // Each lane is a weighted multi-node query vector (the probe's
        // neighbours); indices into `held_out` reuse the in-database panels.
        for panel in panels(held_out.len()) {
            let features: Vec<&[f64]> = panel.iter().map(|&i| held_out[i].0.as_slice()).collect();
            let batched = oos.query_batch_in(&mut panel_ws, &features, 5).unwrap();
            assert_eq!(batched.len(), features.len());
            for (lane, &feature) in features.iter().enumerate() {
                let solo = oos.query_in(&mut solo_ws, feature, 5).unwrap();
                assert!(solo.neighbors.len() > 1, "lanes must be multi-node");
                assert_eq!(batched[lane].top_k, solo.top_k, "lane {lane} of {panel:?}");
                assert_eq!(batched[lane].neighbors, solo.neighbors, "lane {lane}");
                assert_eq!(batched[lane].stats, solo.stats, "lane {lane}");
            }
        }
    }
}

#[test]
fn snapshot_answers_do_not_depend_on_the_batch_on_clean_and_corrected_epochs() {
    // Two well-separated clusters, exact (MogulE) ranking so corrected
    // answers are exact too.
    let mut features: Vec<Vec<f64>> = Vec::new();
    for i in 0..14 {
        features.push(vec![0.15 * i as f64, 0.07 * (i % 4) as f64]);
    }
    for i in 0..14 {
        features.push(vec![9.0 + 0.15 * i as f64, 5.0 + 0.07 * (i % 4) as f64]);
    }
    let dim = 2usize;
    let mut index = IndexBuilder::new()
        .knn_k(3)
        .exact_ranking()
        .rebuild_policy(RebuildPolicy::never())
        .build(features)
        .unwrap();

    let mut ws = SnapshotWorkspace::new();
    let mut solo_ws = SnapshotWorkspace::new();
    for corrected in [false, true] {
        if corrected {
            let mut delta = IndexDelta::new();
            delta
                .insert(vec![0.5, 0.1])
                .insert(vec![9.4, 5.2])
                .remove(3);
            index.apply(&delta).unwrap();
        }
        let snapshot = index.snapshot();
        assert_eq!(snapshot.is_clean(), !corrected);

        // In-database batches by stable id (spanning several panels).
        let ids: Vec<usize> = snapshot.item_ids();
        let lanes: Vec<(Query, usize)> = ids.iter().map(|&id| (Query::Item(id), 4)).collect();
        let batched = snapshot.query_batch_in(&mut ws, &lanes).unwrap();
        for (lane, &id) in ids.iter().enumerate() {
            let (solo, stats) = snapshot
                .query_by_id_with_stats_in(&mut solo_ws, id, 4)
                .unwrap();
            assert_eq!(batched[lane].top_k, solo, "corrected={corrected} id {id}");
            assert_eq!(batched[lane].stats, stats, "corrected={corrected} id {id}");
            assert!(batched[lane].neighbors.is_empty());
            assert_eq!(batched[lane].nearest_neighbor_secs, 0.0);
            assert_eq!(solo, snapshot.query_by_id_in(&mut solo_ws, id, 4).unwrap());
            if corrected {
                // One dense solve scores all 28 base + 2 inserted nodes.
                assert_eq!((stats.nodes_scored, stats.bound_evaluations), (30, 0));
            } else {
                assert!((1..=28).contains(&stats.nodes_scored));
            }
        }

        // Out-of-sample feature batches.
        let probes: Vec<Vec<f64>> = (0..(PANEL_WIDTH + 2))
            .map(|i| vec![0.1 * i as f64 + 0.03, 0.05])
            .collect();
        let lanes: Vec<(Query, usize)> = probes.iter().map(|f| (Query::Feature(f), 3)).collect();
        let batched = snapshot.query_batch_in(&mut ws, &lanes).unwrap();
        for (lane, feature) in probes.iter().enumerate() {
            let solo = snapshot
                .query_by_feature_in(&mut solo_ws, feature, 3)
                .unwrap();
            assert_eq!(batched[lane].top_k, solo.top_k, "corrected={corrected}");
            assert_eq!(batched[lane].neighbors, solo.neighbors);
            assert_eq!(batched[lane].stats, solo.stats);
            if corrected {
                let stats = batched[lane].stats;
                assert_eq!((stats.nodes_scored, stats.bound_evaluations), (30, 0));
            }
        }

        // Mixed panels: kinds alternate lane by lane and `k` cycles through
        // 1, 3 and 10, over several panels; every lane answers as it does
        // alone.
        let mixed: Vec<(Query, usize)> = (0..(2 * PANEL_WIDTH + 3))
            .map(|i| {
                let query = match i % 2 {
                    0 => Query::Item(ids[(i * 5) % ids.len()]),
                    _ => Query::Feature(&probes[i % probes.len()]),
                };
                (query, [1, 3, 10][i % 3])
            })
            .collect();
        let batched = snapshot.query_batch_in(&mut ws, &mixed).unwrap();
        for (lane, &(query, k)) in mixed.iter().enumerate() {
            let got = &batched[lane];
            let why = format!("corrected={corrected} lane {lane}");
            match query {
                Query::Item(id) => {
                    let (solo, stats) = snapshot
                        .query_by_id_with_stats_in(&mut solo_ws, id, k)
                        .unwrap();
                    assert_eq!((&got.top_k, got.stats), (&solo, stats), "{why}");
                    assert!(got.neighbors.is_empty(), "{why}");
                }
                Query::Feature(feature) => {
                    let solo = snapshot
                        .query_by_feature_in(&mut solo_ws, feature, k)
                        .unwrap();
                    assert_eq!(got.top_k, solo.top_k, "{why}");
                    assert_eq!(got.neighbors, solo.neighbors, "{why}");
                    assert_eq!(got.stats, solo.stats, "{why}");
                }
            }
            assert_eq!(got.top_k.len(), k, "{why}");
        }

        // Unknown ids and bad features fail the whole batch.
        let unknown = [(Query::Item(0), 3), (Query::Item(10_000), 3)];
        assert!(snapshot.query_batch_in(&mut ws, &unknown).is_err());
        let bad = vec![f64::NAN; dim];
        let bad_lanes = [(Query::Feature(&probes[0]), 3), (Query::Feature(&bad), 3)];
        assert!(snapshot.query_batch_in(&mut ws, &bad_lanes).is_err());
    }
}

#[test]
fn an_invalid_lane_rejects_the_batch_and_leaves_the_workspace_usable() {
    let approx = noisy_mogul();
    let n = approx.num_nodes();
    let mut ws = SearchWorkspace::new();
    let pruned = SearchMode::Pruned;
    assert!(approx.search_batch_in(&mut ws, &[0, n], 3, pruned).is_err());
    assert!(approx.search_batch_in(&mut ws, &[0, 1], 0, pruned).is_err());
    assert!(approx
        .search_weighted_in(&mut ws, &[(0, 0.5), (1, f64::NAN)], 3, pruned)
        .is_err());
    assert!(approx
        .search_weighted_in(&mut ws, &[(0, 0.5), (n, 0.5)], 3, pruned)
        .is_err());
    assert!(approx.all_scores_in(&mut ws, n).is_err());
    // Empty batches succeed and return nothing.
    assert!(approx
        .search_batch_in(&mut ws, &[], 3, pruned)
        .unwrap()
        .is_empty());
    // The rejected calls staged lanes but never touched the panels.
    let after = approx.search_batch_in(&mut ws, &[5, 9], 4, pruned).unwrap();
    let fresh = approx
        .search_batch_in(&mut SearchWorkspace::new(), &[5, 9], 4, pruned)
        .unwrap();
    assert_eq!(after, fresh);
}

#[test]
fn one_workspace_serves_every_entry_point_like_a_fresh_one() {
    // Widths 1, 3 and 8, indices of different sizes and factors, restricted
    // searches, full score vectors and the dense solves (which run in the
    // engine's panels, two of them at width 11, and must leave them
    // all-zero) all interleaved on one workspace.
    let indices = fixtures();
    let mut ws = SearchWorkspace::new();
    for round in 0..3 {
        for (_, index) in &indices {
            let n = index.num_nodes();
            let rhs: Vec<f64> = (0..11 * n)
                .map(|i| ((i * 29 + 7) % 23) as f64 / 23.0)
                .collect();
            let wide: Vec<usize> = (0..PANEL_WIDTH).map(|i| (i * 41 + 2) % n).collect();
            let fresh = SearchWorkspace::new;
            let q = (round * 53 + 11) % n;
            for mode in MODES {
                assert_eq!(
                    index.search_with_stats_in(&mut ws, q, 5, mode).unwrap(),
                    index
                        .search_with_stats_in(&mut fresh(), q, 5, mode)
                        .unwrap()
                );
                assert_eq!(
                    index.search_batch_in(&mut ws, &wide, 5, mode).unwrap(),
                    index.search_batch_in(&mut fresh(), &wide, 5, mode).unwrap()
                );
            }
            assert_eq!(
                index.all_scores_in(&mut ws, q).unwrap(),
                index.all_scores_in(&mut fresh(), q).unwrap()
            );
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for width in [3, 11] {
                let rhs = &rhs[..width * n];
                index
                    .solve_ranking_system_batch_in(&mut ws, rhs, width, &mut got)
                    .unwrap();
                index
                    .solve_ranking_system_batch_in(&mut fresh(), rhs, width, &mut want)
                    .unwrap();
                assert_eq!(got, want, "width {width}");
            }
            index
                .solve_ranking_system_in(&mut ws, &rhs[..n], &mut got)
                .unwrap();
            index
                .solve_ranking_system_in(&mut fresh(), &rhs[..n], &mut want)
                .unwrap();
            assert_eq!(got, want);
            let weights = [(q, 0.7), ((q + 40) % n, 0.3)];
            assert_eq!(
                index
                    .search_weighted_in(&mut ws, &weights, 6, SearchMode::Pruned)
                    .unwrap(),
                index
                    .search_weighted(&weights, 6, SearchMode::Pruned)
                    .unwrap()
            );
            assert_eq!(
                index
                    .search_batch_in(&mut ws, &wide[..3], 5, SearchMode::Pruned)
                    .unwrap(),
                index
                    .search_batch_in(&mut fresh(), &wide[..3], 5, SearchMode::Pruned)
                    .unwrap()
            );
        }
    }

    // One layer up: a snapshot workspace alternating between clean and
    // corrected epochs of both factorizations — restricted base solves,
    // appended seeds, Woodbury buffers and the recycled top-k buffer at
    // widths 1, 3, 8 and 11 — answers like a fresh one every time.
    let noisy = web_like(&WebLikeConfig {
        num_points: 300,
        num_topics: 6,
        dim: 12,
        background_fraction: 0.2,
        ..Default::default()
    })
    .unwrap();
    let features = noisy.features().to_vec();
    let mut snapshots = Vec::new();
    for exact in [false, true] {
        let mut builder = IndexBuilder::new()
            .knn_k(5)
            .rebuild_policy(RebuildPolicy::never());
        if exact {
            builder = builder.exact_ranking();
        }
        let mut index = builder.build(features.clone()).unwrap();
        snapshots.push(index.snapshot());
        for round in 0..4usize {
            let mut delta = IndexDelta::new();
            delta
                .insert(features[round * 31].iter().map(|v| v + 0.01).collect())
                .remove(round * 17 + 3);
            index.apply(&delta).unwrap();
        }
        snapshots.push(index.snapshot());
    }
    let mut ws = SnapshotWorkspace::new();
    for round in 0..2 {
        for snapshot in &snapshots {
            let ids = snapshot.item_ids();
            let appended = *ids.last().unwrap();
            let probe: Vec<f64> = features[round * 7 + 1].iter().map(|v| v - 0.02).collect();
            let lanes: Vec<(Query, usize)> = (0..11)
                .map(|i| match i % 3 {
                    0 => (Query::Item(ids[(i * 23 + round) % ids.len()]), 5),
                    1 => (Query::Feature(&probe), 3 + i),
                    _ => (Query::Item(appended), 8),
                })
                .collect();
            for width in [1, 3, 8, 11] {
                for chunk in lanes.chunks(width) {
                    let warm = snapshot.query_batch_in(&mut ws, chunk).unwrap();
                    let cold = snapshot
                        .query_batch_in(&mut SnapshotWorkspace::new(), chunk)
                        .unwrap();
                    for (w, c) in warm.iter().zip(&cold) {
                        let why = format!("clean {} width {width}", snapshot.is_clean());
                        assert_eq!(w.top_k, c.top_k, "{why}");
                        assert_eq!(w.neighbors, c.neighbors, "{why}");
                        assert_eq!(w.stats, c.stats, "{why}");
                    }
                }
            }
        }
    }
}
