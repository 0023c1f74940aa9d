//! Stated behaviour of the one precomputation pipeline, [`IndexBuilder`], on
//! inputs at the edge of what it accepts.
//!
//! **Inputs that build and answer**, under both factorizations: a single
//! item, two items, a k-NN degree larger than the collection, twenty
//! identical points, coordinates of `1e-300`, two components `1000` apart,
//! and `α = 0.999999`. In-database answers never contain the query and carry
//! finite scores `≥ 0`; a single item answers by id with an empty list. Every
//! such index accepts an insert, rebuilds, and survives a `MOG1` round trip
//! with `==` answers.
//!
//! **Inputs that fail typed**, without a panic: `α = 1` (`InvalidInput`,
//! "alpha must lie strictly between 0 and 1") and coordinates of `±1e300`,
//! whose squared distances overflow so the heat-kernel bandwidth is infinite
//! (`InvalidInput`).
//!
//! **Zero-score members:** across disconnected components a query scores
//! every item of the other component exactly `0`, and those items are
//! *eligible* top-k members — only negative (or non-finite) scores are
//! excluded — on a clean snapshot (Algorithm 2's threshold) and on a
//! Woodbury-corrected one alike. A `k` that asks for every other item
//! therefore gets every other item.
//!
//! **The row doors:** `knn_graph`, `IndexBuilder::build` and
//! `ShardedIndex::build` are where a collection of vectors becomes a
//! `FeatureMatrix`. Rows and a matrix holding the same values give `==`
//! results; empty, ragged and non-finite rows fail typed at each of them.

use mogul_core::persist;
use mogul_core::shard::ShardedBuildReport;
use mogul_core::update::{IndexBuilder, IndexDelta, IndexSnapshot, RebuildPolicy, UpdatableIndex};
use mogul_core::{CoreError, ShardedConfig, ShardedIndex, TopKResult};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_sparse::FeatureMatrix;

/// Items along a line, spaced by `step`.
fn line(n: usize, step: f64) -> Vec<Vec<f64>> {
    (0..n).map(|i| vec![i as f64 * step, 0.5 * step]).collect()
}

/// Two clusters of ten points, `gap` apart on the first axis.
fn two_components(gap: f64) -> Vec<Vec<f64>> {
    (0..20)
        .map(|i| {
            let side = (i / 10) as f64;
            vec![side * gap + 0.1 * (i % 10) as f64, 0.05 * (i % 3) as f64]
        })
        .collect()
}

fn assert_well_formed(top: &TopKResult, query: Option<usize>, what: &str) {
    if let Some(query) = query {
        assert!(
            !top.contains(query),
            "{what}: the query is in its own answer"
        );
    }
    for item in top.items() {
        assert!(
            item.score.is_finite() && item.score >= 0.0,
            "{what}: ill-formed score {item:?}"
        );
    }
}

/// Every live item's in-database answer, plus one out-of-sample answer.
fn check_answers(snapshot: &IndexSnapshot, probe: &[f64], what: &str) {
    let ids = snapshot.item_ids();
    let k = ids.len();
    for &id in &ids {
        let top = snapshot.query_by_id(id, k).unwrap();
        assert_well_formed(&top, Some(id), &format!("{what}, query {id}"));
        if ids.len() == 1 {
            assert!(top.is_empty(), "{what}: a lone item has no neighbours");
        }
    }
    let oos = snapshot.query_by_feature(probe, k).unwrap();
    assert_well_formed(&oos.top_k, None, &format!("{what}, out of sample"));
}

/// Build under both factorizations, answer, insert, rebuild, round-trip.
fn builds_and_answers(what: &str, builder: IndexBuilder, features: Vec<Vec<f64>>) {
    for exact in [false, true] {
        let what = format!("{what}, exact = {exact}");
        let builder = if exact {
            builder.exact_ranking()
        } else {
            builder
        };
        let mut index = builder
            .rebuild_policy(RebuildPolicy::never())
            .build(features.clone())
            .unwrap_or_else(|e| panic!("{what}: build failed: {e}"));
        let probe = features[features.len() / 2].clone();
        check_answers(&index.snapshot(), &probe, &what);

        let mut delta = IndexDelta::new();
        delta.insert(features[0].clone());
        let inserted = index.apply(&delta).unwrap().inserted[0];
        assert_eq!(inserted, features.len(), "{what}");
        check_answers(&index.snapshot(), &probe, &format!("{what}, corrected"));

        index.rebuild().unwrap();
        let snapshot = index.snapshot();
        assert!(snapshot.is_clean(), "{what}");
        check_answers(&snapshot, &probe, &format!("{what}, rebuilt"));

        let bytes = persist::save_updatable_to(&index, Vec::new()).unwrap();
        let loaded = persist::load_updatable_from_bytes(&bytes)
            .unwrap()
            .snapshot();
        assert_eq!(loaded.epoch(), snapshot.epoch(), "{what}");
        assert_eq!(loaded.item_ids(), snapshot.item_ids(), "{what}");
        let k = snapshot.len();
        for id in snapshot.item_ids() {
            assert_eq!(
                loaded.query_by_id(id, k).unwrap(),
                snapshot.query_by_id(id, k).unwrap(),
                "{what}: round trip, query {id}"
            );
        }
        let (a, b) = (
            loaded.query_by_feature(&probe, k).unwrap(),
            snapshot.query_by_feature(&probe, k).unwrap(),
        );
        assert_eq!(a.top_k, b.top_k, "{what}: round trip, out of sample");
        assert_eq!(
            a.neighbors, b.neighbors,
            "{what}: round trip, out of sample"
        );
    }
}

#[test]
fn a_single_item_builds_and_answers_with_an_empty_list() {
    builds_and_answers("n = 1", IndexBuilder::new(), vec![vec![0.25, -1.0]]);
}

#[test]
fn two_items_build_and_answer() {
    builds_and_answers("n = 2", IndexBuilder::new(), line(2, 1.0));
}

#[test]
fn a_degree_beyond_the_collection_is_clamped() {
    builds_and_answers(
        "knn_k(10), n = 3",
        IndexBuilder::new().knn_k(10),
        line(3, 1.0),
    );
}

#[test]
fn identical_points_build_and_answer() {
    builds_and_answers(
        "20 identical",
        IndexBuilder::new(),
        vec![vec![3.0, -2.0]; 20],
    );
}

#[test]
fn tiny_coordinates_build_and_answer() {
    builds_and_answers("1e-300", IndexBuilder::new(), line(12, 1e-300));
}

#[test]
fn disconnected_components_build_and_answer() {
    builds_and_answers(
        "two components",
        IndexBuilder::new().knn_k(3),
        two_components(1000.0),
    );
}

#[test]
fn alpha_near_one_builds_and_answers() {
    builds_and_answers(
        "alpha 0.999999",
        IndexBuilder::new().alpha(0.999999),
        line(30, 1.0),
    );
}

#[test]
fn alpha_of_one_fails_typed() {
    for builder in [IndexBuilder::new(), IndexBuilder::new().exact_ranking()] {
        let err = builder.alpha(1.0).build(line(10, 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("alpha must lie strictly between 0 and 1"),
            "{err}"
        );
    }
}

#[test]
fn huge_coordinates_fail_typed() {
    let features: Vec<Vec<f64>> = (0..10)
        .map(|i| vec![if i % 2 == 0 { 1e300 } else { -1e300 }, i as f64])
        .collect();
    for builder in [IndexBuilder::new(), IndexBuilder::new().exact_ranking()] {
        let err = builder.build(features.clone()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err:?}");
        assert!(err.to_string().contains("bandwidth"), "{err}");
    }
}

#[test]
fn zero_score_items_are_eligible_across_components() {
    let features = two_components(1000.0);
    for exact in [false, true] {
        let mut builder = IndexBuilder::new()
            .knn_k(3)
            .rebuild_policy(RebuildPolicy::never());
        if exact {
            builder = builder.exact_ranking();
        }
        let mut index = builder.build(features.clone()).unwrap();
        let check = |snapshot: &IndexSnapshot, what: &str| {
            let ids = snapshot.item_ids();
            for &query in &[0usize, 15] {
                let top = snapshot.query_by_id(query, ids.len() - 1).unwrap();
                assert_eq!(top.len(), ids.len() - 1, "{what}, query {query}");
                let own_side = query / 10;
                for &other in ids.iter().filter(|&&id| id < 20 && id / 10 != own_side) {
                    assert_eq!(
                        top.score_of(other),
                        Some(0.0),
                        "{what}, query {query}: item {other} across the gap"
                    );
                }
            }
        };
        check(&index.snapshot(), &format!("clean, exact = {exact}"));
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.35, 0.02]);
        index.apply(&delta).unwrap();
        let corrected = index.snapshot();
        assert!(!corrected.is_clean());
        check(&corrected, &format!("corrected, exact = {exact}"));
    }
}

/// The forms a row door accepts.
#[derive(Debug, Clone, Copy)]
enum Form {
    Matrix,
    MatrixRef,
    Rows,
    RowSlice,
    RowsRef,
}

const FORMS: [Form; 5] = [
    Form::Matrix,
    Form::MatrixRef,
    Form::Rows,
    Form::RowSlice,
    Form::RowsRef,
];

/// Evaluate `$call` with `$f` bound to the rows `$rows` in form `$form`. A
/// matrix form packs the rows first, so it applies to valid rows only.
macro_rules! in_form {
    ($form:expr, $rows:expr, |$f:ident| $call:expr) => {{
        let rows: &Vec<Vec<f64>> = $rows;
        match $form {
            Form::Matrix => {
                let $f = FeatureMatrix::from_rows(rows).unwrap();
                $call
            }
            Form::MatrixRef => {
                let matrix = FeatureMatrix::from_rows(rows).unwrap();
                let $f = &matrix;
                $call
            }
            Form::Rows => {
                let $f = rows.clone();
                $call
            }
            Form::RowSlice => {
                let $f = &rows[..];
                $call
            }
            Form::RowsRef => {
                let $f = rows;
                $call
            }
        }
    }};
}

/// Every in-database answer and one out-of-sample answer of a single index.
fn single_answers(index: &UpdatableIndex, probe: &[f64]) -> Vec<TopKResult> {
    let snapshot = index.snapshot();
    let mut answers: Vec<TopKResult> = (0..snapshot.len())
        .map(|id| snapshot.query_by_id(id, 5).unwrap())
        .collect();
    answers.push(snapshot.query_by_feature(probe, 5).unwrap().top_k);
    answers
}

/// The same over a sharded index, with its shard groups.
fn sharded_answers(
    (index, report): (ShardedIndex, ShardedBuildReport),
    probe: &[f64],
) -> (Vec<Vec<usize>>, Vec<TopKResult>) {
    let snapshot = index.snapshot();
    let mut answers: Vec<TopKResult> = (0..snapshot.len())
        .map(|id| snapshot.query_by_id(id, 5).unwrap())
        .collect();
    answers.push(snapshot.query_by_feature(probe, 5).unwrap().top_k);
    (report.groups, answers)
}

/// The three entry points that take a collection of vectors — `knn_graph`,
/// `IndexBuilder::build` and `ShardedIndex::build` — give `==` graphs,
/// answers and shard groups for a matrix, owned or borrowed, and for rows
/// holding the same values; empty, ragged and non-finite rows fail typed at
/// each of them, and so does an empty matrix.
#[test]
fn every_row_door_takes_rows_and_matrices_alike() {
    let rows = two_components(3.0);
    let builder = IndexBuilder::new().knn_k(3);
    let sharded = |shards| ShardedConfig::with_shards(shards).builder(builder);
    let probe = [1.0, 0.05];

    let graph = knn_graph(&rows, KnnConfig::with_k(3)).unwrap();
    let single = single_answers(&builder.build(&rows).unwrap(), &probe);
    let shard_1 = sharded_answers(ShardedIndex::build(&rows, sharded(1)).unwrap(), &probe);
    let shard_4 = sharded_answers(ShardedIndex::build(&rows, sharded(4)).unwrap(), &probe);
    assert_eq!(shard_4.0.len(), 4);
    for form in FORMS {
        let got = in_form!(form, &rows, |f| knn_graph(f, KnnConfig::with_k(3)));
        assert_eq!(got.unwrap(), graph, "knn_graph, {form:?}");
        let got = in_form!(form, &rows, |f| builder.build(f));
        assert_eq!(
            single_answers(&got.unwrap(), &probe),
            single,
            "build, {form:?}"
        );
        for (shards, expected) in [(1, &shard_1), (4, &shard_4)] {
            let got = in_form!(form, &rows, |f| ShardedIndex::build(f, sharded(shards)));
            let got = sharded_answers(got.unwrap(), &probe);
            assert_eq!(&got, expected, "sharded build, S = {shards}, {form:?}");
        }
    }

    let mut ragged = rows.clone();
    ragged[3].push(1.0);
    let mut non_finite = rows.clone();
    non_finite[5][1] = f64::NAN;
    let mut infinite = rows.clone();
    infinite[7][0] = f64::INFINITY;
    let typed = |result: Result<(), CoreError>, what: &str| match result {
        Err(CoreError::InvalidInput(_)) => {}
        other => panic!("{what}: expected InvalidInput, got {other:?}"),
    };
    for (what, bad) in [
        ("empty", Vec::new()),
        ("ragged", ragged),
        ("NaN", non_finite),
        ("infinite", infinite),
    ] {
        for form in [Form::Rows, Form::RowSlice, Form::RowsRef] {
            let what = format!("{what} rows, {form:?}");
            let got = in_form!(form, &bad, |f| knn_graph(f, KnnConfig::with_k(3)));
            typed(got.map(drop), &format!("knn_graph, {what}"));
            let got = in_form!(form, &bad, |f| builder.build(f));
            typed(got.map(drop), &format!("build, {what}"));
            for shards in [1, 4] {
                let got = in_form!(form, &bad, |f| ShardedIndex::build(f, sharded(shards)));
                typed(
                    got.map(drop),
                    &format!("sharded build S = {shards}, {what}"),
                );
            }
        }
    }
    let empty = FeatureMatrix::from_vec(2, Vec::new()).unwrap();
    typed(
        knn_graph(&empty, KnnConfig::with_k(3)).map(drop),
        "knn_graph, empty matrix",
    );
    typed(builder.build(&empty).map(drop), "build, empty matrix");
    for shards in [1, 4] {
        let got = ShardedIndex::build(&empty, sharded(shards));
        typed(
            got.map(drop),
            &format!("sharded build S = {shards}, empty matrix"),
        );
    }
}
