//! Round-trip property suite for the `MOG1` persistence layer: a saved and
//! reloaded index must be **bit-identical** to the in-memory index under
//! every query path — same scores (exact `==` on the IEEE bits), same
//! rankings, same `SearchStats` work counters, same pruning decisions —
//! across both factorizations, all query modes, the scalar and batched
//! engines, and post-update clean epochs of an `UpdatableIndex`.

use mogul_core::persist;
use mogul_core::update::{
    IndexBuilder, IndexDelta, IndexSnapshot, RebuildPolicy, SnapshotWorkspace,
};
use mogul_core::{
    BatchWorkspace, MogulConfig, MogulIndex, OutOfSampleConfig, OutOfSampleIndex, SearchMode,
    SearchWorkspace,
};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_sparse::FeatureMatrix;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic two-blob features: enough cluster structure for pruning to
/// fire, parameterized so every case sees a different geometry.
fn blob_features(n: usize, dim: usize, spread: f64, split: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let blob = (i % 2) as f64;
            (0..dim)
                .map(|d| {
                    let wave = ((i * 31 + d * 17) % 13) as f64 / 13.0;
                    blob * split + spread * wave + 0.05 * d as f64
                })
                .collect()
        })
        .collect()
}

fn build_oos(features: &[Vec<f64>], exact: bool) -> OutOfSampleIndex {
    let graph = knn_graph(features, KnnConfig::with_k(4)).unwrap();
    let config = if exact {
        MogulConfig::exact()
    } else {
        MogulConfig::default()
    };
    let index = MogulIndex::build(&graph, config).unwrap();
    let features = Arc::new(FeatureMatrix::from_rows(features).unwrap());
    OutOfSampleIndex::new(index, features, OutOfSampleConfig::default()).unwrap()
}

fn save_load(oos: &OutOfSampleIndex) -> OutOfSampleIndex {
    let bytes = persist::save_index_to(oos, Vec::new()).unwrap();
    persist::load_index_from_bytes(&bytes).unwrap()
}

/// Exact equality of score vectors, compared on the raw bits.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: scores diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All scalar query paths — every mode, stats included — are
    /// bit-identical after a round trip, for both factorizations.
    #[test]
    fn scalar_queries_round_trip_bit_identically(
        n in 20usize..44,
        dim in 2usize..5,
        spread in 0.3f64..1.2,
        exact in proptest::bool::ANY,
        k in 1usize..8,
    ) {
        let features = blob_features(n, dim, spread, 8.0);
        let original = build_oos(&features, exact);
        let loaded = save_load(&original);

        prop_assert_eq!(loaded.index().num_nodes(), n);
        prop_assert_eq!(loaded.index().factorization(), original.index().factorization());
        prop_assert_eq!(loaded.index().ordering(), original.index().ordering());
        assert_bits_eq(loaded.index().factor_d(), original.index().factor_d(), "factor D");
        prop_assert_eq!(loaded.index().factor_l(), original.index().factor_l());

        for q in [0, n / 3, n - 1] {
            for mode in [SearchMode::Pruned, SearchMode::NoPruning, SearchMode::FullSubstitution] {
                let a = original.index().search_with_stats(q, k, mode).unwrap();
                let b = loaded.index().search_with_stats(q, k, mode).unwrap();
                prop_assert_eq!(a, b, "mode {:?}, query {}", mode, q);
            }
            assert_bits_eq(
                &original.index().all_scores(q).unwrap(),
                &loaded.index().all_scores(q).unwrap(),
                "all_scores",
            );
        }

        // Weighted multi-node queries (the out-of-sample phase-2 shape).
        let weights = vec![(0usize, 0.7), (n / 2, 0.2), (n - 1, 0.1)];
        let a = original.index().search_weighted(&weights, k, SearchMode::Pruned).unwrap();
        let b = loaded.index().search_weighted(&weights, k, SearchMode::Pruned).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Out-of-sample queries (phase 1 + phase 2) and the batched engines
    /// are bit-identical after a round trip.
    #[test]
    fn oos_and_batched_queries_round_trip_bit_identically(
        n in 24usize..40,
        spread in 0.3f64..1.0,
        exact in proptest::bool::ANY,
    ) {
        let dim = 3;
        let features = blob_features(n, dim, spread, 6.0);
        let original = build_oos(&features, exact);
        let loaded = save_load(&original);

        // Out-of-sample probes: perturbed database vectors.
        let probes: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let mut f = features[(i * 7) % n].clone();
                f[0] += 0.21 * (i as f64 + 0.5);
                f
            })
            .collect();
        for probe in &probes {
            let a = original.query(probe, 5).unwrap();
            let b = loaded.query(probe, 5).unwrap();
            prop_assert_eq!(&a.top_k, &b.top_k);
            prop_assert_eq!(&a.neighbors, &b.neighbors);
            prop_assert_eq!(a.stats, b.stats);
        }

        // Batched in-database search: original vs loaded, and loaded
        // batched vs loaded scalar (the panel engine sees identical state).
        let queries: Vec<usize> = (0..n).step_by(3).collect();
        let mut ws_a = BatchWorkspace::new();
        let mut ws_b = BatchWorkspace::new();
        let a = original.index().search_batch_in(&mut ws_a, &queries, 4, SearchMode::Pruned).unwrap();
        let b = loaded.index().search_batch_in(&mut ws_b, &queries, 4, SearchMode::Pruned).unwrap();
        prop_assert_eq!(&a, &b);
        for (i, &q) in queries.iter().enumerate() {
            let scalar = loaded.index().search_with_stats(q, 4, SearchMode::Pruned).unwrap();
            prop_assert_eq!(&b[i], &scalar);
        }

        // Batched out-of-sample.
        let probe_refs: Vec<&[f64]> = probes.iter().map(|f| f.as_slice()).collect();
        let a = original.oos_batch(&mut ws_a, &probe_refs);
        let b = loaded.oos_batch(&mut ws_b, &probe_refs);
        prop_assert_eq!(a, b);
    }

    /// An `UpdatableIndex` survives save → load across a post-update clean
    /// epoch: identical snapshot answers, identical stable ids, and the
    /// *next* (corrected) epoch built on the loaded state matches the one
    /// built on the original state bit for bit.
    #[test]
    fn updatable_round_trip_preserves_ids_and_future_epochs(
        extra in 1usize..4,
        remove_one in proptest::bool::ANY,
        exact in proptest::bool::ANY,
    ) {
        let features = blob_features(26, 3, 0.8, 7.0);
        let mut builder = IndexBuilder::new()
            .knn_k(3)
            .rebuild_policy(RebuildPolicy::never());
        if exact {
            builder = builder.exact_ranking();
        }
        let mut original = builder.build(features.clone()).unwrap();

        // Mutate, then rebuild so the epoch is clean (persistable).
        let mut delta = IndexDelta::new();
        for e in 0..extra {
            delta.insert(vec![0.4 + 0.3 * e as f64, 0.2, 0.1]);
        }
        if remove_one {
            delta.remove(5);
        }
        original.apply(&delta).unwrap();
        original.rebuild().unwrap();

        let bytes = persist::save_updatable_to(&original, Vec::new()).unwrap();
        let mut loaded = persist::load_updatable_from_bytes(&bytes).unwrap();

        prop_assert_eq!(loaded.epoch(), original.epoch());
        prop_assert_eq!(loaded.len(), original.len());
        let snap_a = original.snapshot();
        let snap_b = loaded.snapshot();
        prop_assert!(snap_b.is_clean());
        prop_assert_eq!(snap_a.item_ids(), snap_b.item_ids());
        let mut ws = SnapshotWorkspace::new();
        for id in snap_a.item_ids() {
            prop_assert_eq!(
                snap_a.query_by_id(id, 4).unwrap(),
                snap_b.query_by_id_in(&mut ws, id, 4).unwrap()
            );
        }
        let probe = vec![0.5, 0.25, 0.12];
        let a = snap_a.query_by_feature(&probe, 4).unwrap();
        let b = snap_b.query_by_feature(&probe, 4).unwrap();
        prop_assert_eq!(a.top_k, b.top_k);
        prop_assert_eq!(a.neighbors, b.neighbors);

        // The loaded writer state supports further updates identically:
        // apply the same delta to both and compare the corrected epochs.
        let mut next = IndexDelta::new();
        next.insert(vec![0.33, 0.44, 0.05]);
        next.remove(2);
        let ra = original.apply(&next).unwrap();
        let rb = loaded.apply(&next).unwrap();
        prop_assert_eq!(&ra.inserted, &rb.inserted, "stable id allocation diverged");
        prop_assert_eq!(ra.debt, rb.debt);
        let snap_a = original.snapshot();
        let snap_b = loaded.snapshot();
        prop_assert_eq!(snap_a.correction_rank(), snap_b.correction_rank());
        for id in snap_a.item_ids() {
            prop_assert_eq!(
                snap_a.query_by_id(id, 4).unwrap(),
                snap_b.query_by_id(id, 4).unwrap(),
                "corrected epoch diverged at id {}", id
            );
        }
    }
}

/// Extension trait making the batched out-of-sample comparison above concise.
trait OosBatch {
    fn oos_batch(
        &self,
        ws: &mut BatchWorkspace,
        probes: &[&[f64]],
    ) -> Vec<(mogul_core::TopKResult, Vec<usize>, mogul_core::SearchStats)>;
}

impl OosBatch for OutOfSampleIndex {
    fn oos_batch(
        &self,
        ws: &mut BatchWorkspace,
        probes: &[&[f64]],
    ) -> Vec<(mogul_core::TopKResult, Vec<usize>, mogul_core::SearchStats)> {
        self.query_batch_in(ws, probes, 4)
            .unwrap()
            .into_iter()
            .map(|r| (r.top_k, r.neighbors, r.stats))
            .collect()
    }
}

/// File-based save/load (as opposed to the in-memory byte round trips
/// above): the bytes that land on disk load back identically, and the
/// temp-file rename leaves no debris.
#[test]
fn file_round_trip_and_atomic_write() {
    let features = blob_features(30, 3, 0.7, 7.0);
    let original = build_oos(&features, false);
    let dir = std::env::temp_dir().join(format!("mogul_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.mog1");
    persist::save_index(&original, &path).unwrap();
    // The atomic write leaves exactly the target file behind, no temp files.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name != "index.mog1")
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );

    let info = persist::inspect(&path).unwrap();
    assert_eq!(info.version, persist::FORMAT_VERSION);
    assert_eq!(info.items, 30);
    assert_eq!(info.dim, 3);

    let loaded = persist::load_index(&path).unwrap();
    for q in [0usize, 11, 29] {
        assert_eq!(
            original.index().search(q, 5).unwrap(),
            loaded.index().search(q, 5).unwrap()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An updatable index over the approximate k-NN graph round-trips through
/// `MOG1` with `==` answers, and keeps updating identically afterwards.
#[test]
fn approximate_graph_updatable_round_trips() {
    let features = blob_features(90, 3, 0.9, 6.0);
    for exact in [false, true] {
        let mut builder = IndexBuilder::new().knn_k(4).approximate_graph(2);
        if exact {
            builder = builder.exact_ranking();
        }
        let mut original = builder.build(features.clone()).unwrap();
        let bytes = persist::save_updatable_to(&original, Vec::new()).unwrap();
        let mut loaded = persist::load_updatable_from_bytes(&bytes).unwrap();
        let probes = [&features[4][..], &features[57][..]];
        assert_same_answers(&original.snapshot(), &loaded.snapshot(), &probes);
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.3, 0.6, 0.2]).remove(11);
        original.apply(&delta).unwrap();
        loaded.apply(&delta).unwrap();
        assert_same_answers(&original.snapshot(), &loaded.snapshot(), &probes);
    }
}

/// An unbounded probe budget is the exact scan: the approximate-graph build
/// writes the exact build's `MOG1` sections byte for byte (all but `stats`,
/// which holds the build's timings).
#[test]
fn approximate_graph_without_a_budget_writes_the_exact_build() {
    let features = blob_features(90, 3, 0.9, 6.0);
    for exact in [false, true] {
        let sections = |approximate: bool| {
            let mut builder = IndexBuilder::new().knn_k(4);
            if approximate {
                builder = builder.approximate_graph(usize::MAX);
            }
            if exact {
                builder = builder.exact_ranking();
            }
            let index = builder.build(features.clone()).unwrap();
            let bytes = persist::save_updatable_to(&index, Vec::new()).unwrap();
            let info = persist::inspect_bytes(&bytes).unwrap();
            info.sections
                .iter()
                .filter(|s| s.name != "stats")
                .map(|s| (s.name, bytes[s.offset..s.offset + s.len].to_vec()))
                .collect::<Vec<_>>()
        };
        let want = sections(false);
        assert_eq!(want.len(), 7, "exact={exact}");
        assert_eq!(sections(true), want, "exact={exact}");
    }
}

/// `==` answers of two snapshots: every live id, and each probe out of
/// sample (neighbours and work counters included).
fn assert_same_answers(a: &IndexSnapshot, b: &IndexSnapshot, probes: &[&[f64]]) {
    assert_eq!(a.item_ids(), b.item_ids());
    for id in a.item_ids() {
        assert_eq!(
            a.query_by_id(id, 5).unwrap(),
            b.query_by_id(id, 5).unwrap(),
            "epoch {}, id {id}",
            a.epoch()
        );
    }
    for probe in probes {
        let (x, y) = (
            a.query_by_feature(probe, 5).unwrap(),
            b.query_by_feature(probe, 5).unwrap(),
        );
        assert_eq!(x.top_k, y.top_k);
        assert_eq!(x.neighbors, y.neighbors);
        assert_eq!(x.stats, y.stats);
    }
}

/// An `index` file — the factorized base of a fresh build, saved with
/// `save_index` — loads for serving as an epoch-0 clean snapshot with
/// identity ids, whose answers equal the base's own, in-database and
/// out-of-sample.
#[test]
fn an_index_file_serves_at_epoch_zero_with_identity_ids() {
    let features = blob_features(30, 2, 0.7, 7.0);
    let built = IndexBuilder::new()
        .knn_k(3)
        .build(features.clone())
        .unwrap()
        .snapshot();
    let base = built.base();
    let dir = std::env::temp_dir().join(format!("mogul_serving_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.mog1");
    persist::save_index(base, &path).unwrap();
    let snapshot = persist::load_serving(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(snapshot.epoch(), 0);
    assert!(snapshot.is_clean());
    assert_eq!(snapshot.len(), features.len());
    assert_eq!(snapshot.feature_dim(), 2);
    assert_eq!(snapshot.item_ids(), (0..features.len()).collect::<Vec<_>>());
    let mut ws = SnapshotWorkspace::new();
    let mut base_ws = SearchWorkspace::new();
    for q in [0usize, 2, 17, 29] {
        assert_eq!(
            snapshot.query_by_id_in(&mut ws, q, 4).unwrap(),
            base.index().search_in(&mut base_ws, q, 4).unwrap()
        );
    }
    for probe in [&features[5], &features[22]] {
        let a = snapshot.query_by_feature_in(&mut ws, probe, 4).unwrap();
        let b = base.query_in(&mut base_ws, probe, 4).unwrap();
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.stats, b.stats);
    }
}
