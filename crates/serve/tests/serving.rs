//! Equivalence and concurrency coverage of the serving layer.
//!
//! The contract under test: concurrency changes throughput, never results.
//! Every answer produced by a multi-worker [`Server`] — under concurrent
//! load, with recycled workspaces, in Mogul and MogulE (exact) mode alike —
//! must be **bit-identical** to the sequential answer for the same request:
//! for a [`QueryServer`] over a fresh build, the answer one layer below the
//! snapshot — its base [`OutOfSampleIndex`](mogul_core::OutOfSampleIndex),
//! whose node ids are the item ids — and, for every engine on clean and
//! corrected epochs, the snapshot's one answer method at width one (a
//! query's answer must not depend on its panel, its worker or the worker
//! count).
//!
//! There is one serving shell, so there is one battery: every check takes
//! the engine as an input and runs over a single index and over S = 1 and
//! S = 4 sharded indexes built on the same database.

use mogul_core::update::{IndexBuilder, IndexDelta, IndexSnapshot, RebuildPolicy};
use mogul_core::{
    OosWorkspace, SearchWorkspace, ShardedConfig, ShardedIndex, ShardedSnapshot, PANEL_WIDTH,
};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::Dataset;
use mogul_serve::{
    QueryRequest, QueryResponse, QueryServer, ServeError, ServeOptions, ServeSnapshot, Server,
    ShardedServer,
};
use std::sync::Arc;
use std::thread;

/// A COIL-like database plus held-out query vectors.
fn dataset() -> (Dataset, Vec<(Vec<f64>, usize)>) {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 6,
        poses_per_object: 16,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    data.split_out_queries(6, 11).unwrap()
}

/// The snapshots the battery serves, all built from `db` with one
/// [`IndexBuilder`]: a single index, a one-shard sharding of it (whose
/// answers must equal the single index's), and a four-shard sharding that
/// probes two shards per out-of-sample query, so its batches exercise the
/// leg merge.
struct Snapshots {
    single: Arc<IndexSnapshot>,
    s1: Arc<ShardedSnapshot>,
    s4: Arc<ShardedSnapshot>,
}

/// One server per snapshot, all with the same worker count.
struct Engines {
    single: QueryServer,
    s1: ShardedServer,
    s4: ShardedServer,
}

/// The snapshots of a fresh build, or of the epoch after `delta` when one
/// is given (never rebuilt, so every engine serves a corrected epoch).
fn snapshots(db: &Dataset, exact: bool, delta: Option<&IndexDelta>) -> Snapshots {
    let mut builder = IndexBuilder::new().rebuild_policy(RebuildPolicy::never());
    if exact {
        builder = builder.exact_ranking();
    }
    let sharded = |shards: usize, probes: usize| {
        let config = ShardedConfig::with_shards(shards)
            .shard_probes(probes)
            .builder(builder);
        let (mut index, _) = ShardedIndex::build(db.features(), config).unwrap();
        assert_eq!(index.num_shards(), shards);
        if let Some(delta) = delta {
            index.apply(delta).unwrap();
        }
        index.snapshot()
    };
    let mut single = builder.build(db.features()).unwrap();
    if let Some(delta) = delta {
        single.apply(delta).unwrap();
        assert!(!single.snapshot().is_clean());
    }
    Snapshots {
        single: single.snapshot(),
        s1: sharded(1, 1),
        s4: sharded(4, 2),
    }
}

impl Snapshots {
    fn servers(&self, workers: usize) -> Engines {
        let options = ServeOptions::with_workers(workers);
        Engines {
            single: QueryServer::from_snapshot(Arc::clone(&self.single), options),
            s1: ShardedServer::from_snapshot(Arc::clone(&self.s1), options),
            s4: ShardedServer::from_snapshot(Arc::clone(&self.s4), options),
        }
    }
}

fn engines(db: &Dataset, workers: usize) -> Engines {
    snapshots(db, false, None).servers(workers)
}

/// A mixed batch alternating in-database and out-of-sample requests with
/// varying k.
fn mixed_batch(db: &Dataset, queries: &[(Vec<f64>, usize)]) -> Vec<QueryRequest> {
    let mut batch = Vec::new();
    for (i, (feature, _)) in queries.iter().enumerate() {
        batch.push(QueryRequest::in_database(i * 7 % db.len(), 3 + i % 4));
        batch.push(QueryRequest::out_of_sample(feature.clone(), 3 + i % 4));
    }
    batch
}

/// The sequential reference answer of a freshly built snapshot's base
/// index, no snapshot involved (ids are the identity on a fresh build).
fn base_answer(snapshot: &IndexSnapshot, request: &QueryRequest) -> QueryResponse {
    let base = snapshot.base();
    match request {
        QueryRequest::InDatabase { node, k } => QueryResponse::InDatabase(
            base.index()
                .search_in(&mut SearchWorkspace::new(), *node, *k)
                .unwrap(),
        ),
        QueryRequest::OutOfSample { feature, k } => QueryResponse::OutOfSample(Box::new(
            base.query_in(&mut OosWorkspace::new(), feature, *k)
                .unwrap(),
        )),
    }
}

/// The answer of whatever snapshot a server serves to the request alone:
/// its one answer method at width one on a fresh workspace and fresh engine
/// state, no server involved — so a batch compared against it checks lane
/// independence.
fn sequential_answer<S: ServeSnapshot>(
    server: &Server<S>,
    request: &QueryRequest,
) -> QueryResponse {
    let mut ws = S::Workspace::default();
    let engine = S::Engine::default();
    let (response, status) = server
        .snapshot()
        .answer(&engine, &mut ws, std::slice::from_ref(request), true)
        .unwrap()
        .remove(0)
        .unwrap();
    assert!(status.is_complete());
    response
}

/// Bit-exact comparison (scores compared with `==`, not a tolerance).
fn assert_same(want: &QueryResponse, got: &QueryResponse, what: &str) {
    match (want, got) {
        (QueryResponse::InDatabase(want), QueryResponse::InDatabase(have)) => {
            assert_eq!(want, have, "{what}");
        }
        (QueryResponse::OutOfSample(want), QueryResponse::OutOfSample(have)) => {
            assert_eq!(want.top_k, have.top_k, "{what}");
            assert_eq!(want.neighbors, have.neighbors, "{what}");
            assert_eq!(want.stats, have.stats, "{what}");
        }
        _ => panic!("{what}: response kind does not match the request kind"),
    }
}

/// Serve the same batch twice — the second pass runs entirely on recycled
/// (warm) workspaces and must not change a single bit.
fn check_batches_match<S: ServeSnapshot>(
    server: &Server<S>,
    batch: &[QueryRequest],
    expected: &[QueryResponse],
    what: &str,
) {
    for pass in 0..2 {
        let answers = server.serve_batch(batch);
        assert_eq!(answers.len(), batch.len());
        for (i, answer) in answers.iter().enumerate() {
            let got = answer
                .as_ref()
                .unwrap_or_else(|e| panic!("{what}: pass {pass}, request {i} failed: {e}"));
            assert_same(
                &expected[i],
                got,
                &format!("{what}: pass {pass}, request {i}"),
            );
        }
    }
}

#[test]
fn concurrent_batches_are_bit_identical_to_sequential_engine() {
    let (db, queries) = dataset();
    let batch = mixed_batch(&db, &queries);
    for exact in [false, true] {
        let snapshots = snapshots(&db, exact, None);
        let expected: Vec<_> = batch
            .iter()
            .map(|r| base_answer(&snapshots.single, r))
            .collect();
        let engines = snapshots.servers(4);
        check_batches_match(&engines.single, &batch, &expected, "single index vs base");

        fn check<S: ServeSnapshot>(server: &Server<S>, batch: &[QueryRequest], what: &str) {
            let expected: Vec<_> = batch.iter().map(|r| sequential_answer(server, r)).collect();
            check_batches_match(server, batch, &expected, what);
        }
        check(&engines.single, &batch, "single index");
        check(&engines.s1, &batch, "S = 1");
        check(&engines.s4, &batch, "S = 4");
    }
}

#[test]
fn more_inflight_batches_than_workers() {
    // 8 submitting threads × 3 rounds against a 2-worker server: far more
    // in-flight batches than workers, exercising the workspace pool and the
    // scoped-dispatch path under real contention.
    fn check<S: ServeSnapshot>(server: &Server<S>, batch: &[QueryRequest], what: &str) {
        let expected: Vec<_> = batch.iter().map(|r| sequential_answer(server, r)).collect();
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let answers = server.serve_batch(batch);
                        for (i, answer) in answers.iter().enumerate() {
                            assert_same(&expected[i], answer.as_ref().unwrap(), what);
                        }
                    }
                });
            }
        });
    }
    let (db, queries) = dataset();
    let batch = mixed_batch(&db, &queries);
    let engines = engines(&db, 2);
    check(&engines.single, &batch, "single index");
    check(&engines.s1, &batch, "S = 1");
    check(&engines.s4, &batch, "S = 4");
}

#[test]
fn per_request_errors_do_not_poison_the_batch() {
    fn check<S: ServeSnapshot>(server: &Server<S>, feature: &[f64]) {
        let batch = vec![
            QueryRequest::in_database(0, 5),
            QueryRequest::in_database(server.len() + 10, 5), // node out of range
            QueryRequest::out_of_sample(vec![1.0, 2.0], 5),  // wrong dimensionality
            QueryRequest::out_of_sample(feature.to_vec(), 5),
            QueryRequest::in_database(1, 0), // k = 0
        ];
        let answers = server.serve_batch(&batch);
        assert!(answers[0].is_ok());
        assert!(answers[1].is_err());
        assert!(answers[2].is_err());
        assert!(answers[3].is_ok());
        assert!(answers[4].is_err());
    }
    let (db, queries) = dataset();
    let engines = engines(&db, 3);
    check(&engines.single, &queries[0].0);
    check(&engines.s1, &queries[0].0);
    check(&engines.s4, &queries[0].0);
}

#[test]
fn single_query_paths_match_the_engine() {
    let (db, queries) = dataset();
    let snapshot = IndexBuilder::new().build(db.features()).unwrap().snapshot();
    let base = snapshot.base();
    let expected_id = base
        .index()
        .search_in(&mut SearchWorkspace::new(), 4, 6)
        .unwrap();
    let expected_oos = base
        .query_in(&mut OosWorkspace::new(), &queries[2].0, 6)
        .unwrap();

    // Two servers may share one snapshot behind the same `Arc`.
    let server_a = QueryServer::from_snapshot(Arc::clone(&snapshot), ServeOptions::default());
    let server_b = QueryServer::from_snapshot(Arc::clone(&snapshot), ServeOptions::with_workers(1));

    for server in [&server_a, &server_b] {
        assert_eq!(server.len(), db.len());
        assert!(!server.is_empty());
        assert!(server.workers() >= 1);
        assert_eq!(server.query_by_id(4, 6).unwrap(), expected_id);
        let oos = server.query_by_feature(&queries[2].0, 6).unwrap();
        assert_eq!(oos.top_k, expected_oos.top_k);
        assert_eq!(oos.neighbors, expected_oos.neighbors);

        let response = server.query(&QueryRequest::in_database(4, 6)).unwrap();
        assert_eq!(response.top_k(), &expected_id);
        assert_eq!(response.clone().into_top_k(), expected_id);
        assert!(response.out_of_sample().is_none());
        let response = server
            .query(&QueryRequest::out_of_sample(queries[2].0.clone(), 6))
            .unwrap();
        assert_eq!(response.top_k(), &expected_oos.top_k);
        assert!(response.out_of_sample().is_some());
    }
}

#[test]
fn batched_answers_match_single_queries_across_worker_counts() {
    // `serve_batch(batch)[i] == query(&batch[i])`: panels form across kinds
    // and `k`, and a request's answer must not depend on the panel or the
    // worker it lands in, for Mogul and MogulE alike, on every engine.
    fn check<S: ServeSnapshot>(server: &Server<S>, batch: &[QueryRequest], what: &str) {
        let batched = server.serve_batch(batch);
        for (i, request) in batch.iter().enumerate() {
            let want = server.query(request).unwrap();
            let what = format!("{what}, workers={}, request {i}", server.workers());
            assert_same(&want, batched[i].as_ref().unwrap(), &what);
        }
    }
    let (db, queries) = dataset();
    // Runs longer than the longest job of any engine here (`PANEL_WIDTH`
    // per shard, four shards), so every engine cuts them: a long
    // in-database run, a long out-of-sample run, a k change in the middle
    // of a run, alternating kinds with mixed k, a long run alternating kind
    // request by request with k cycling through 1, 3 and 10, and a ragged
    // tail.
    let long = PANEL_WIDTH * 4 + 5;
    let mut batch = Vec::new();
    for i in 0..long {
        batch.push(QueryRequest::in_database(i * 5 % db.len(), 4));
    }
    for i in 0..long {
        batch.push(QueryRequest::out_of_sample(
            queries[i % queries.len()].0.clone(),
            6,
        ));
    }
    batch.push(QueryRequest::in_database(1, 4));
    batch.push(QueryRequest::in_database(2, 9));
    batch.push(QueryRequest::in_database(3, 4));
    batch.extend(mixed_batch(&db, &queries));
    for i in 0..long {
        let k = [1, 3, 10][i % 3];
        batch.push(match i % 2 {
            0 => QueryRequest::in_database(i * 3 % db.len(), k),
            _ => QueryRequest::out_of_sample(queries[i % queries.len()].0.clone(), k),
        });
    }
    batch.push(QueryRequest::in_database(4, 4));

    // The corrected epoch every `Server::query` after a write answers from:
    // two inserts near held-out queries and a removal no request names.
    let mut delta = IndexDelta::new();
    for q in [0, 3] {
        delta.insert(queries[q].0.iter().map(|v| v + 0.01).collect());
    }
    delta.remove(db.len() - 1);

    for (exact, delta) in [
        (false, None),
        (true, None),
        (false, Some(&delta)),
        (true, Some(&delta)),
    ] {
        let snapshots = snapshots(&db, exact, delta);
        let epoch = format!("exact={exact}, corrected={}", delta.is_some());
        for workers in [1usize, 2, 3, 8] {
            let engines = snapshots.servers(workers);
            check(&engines.single, &batch, &format!("single index, {epoch}"));
            check(&engines.s1, &batch, &format!("S = 1, {epoch}"));
            check(&engines.s4, &batch, &format!("S = 4, {epoch}"));

            // One shard is the single index with an id router in front.
            let unsharded = engines.single.serve_batch(&batch);
            let sharded = engines.s1.serve_batch(&batch);
            for (i, (want, got)) in unsharded.iter().zip(&sharded).enumerate() {
                let what = format!("S = 1 vs unsharded, {epoch}, request {i}");
                assert_same(want.as_ref().unwrap(), got.as_ref().unwrap(), &what);
            }
        }
    }
}

#[test]
fn panel_jobs_keep_per_request_error_isolation() {
    // An invalid request in the middle of a run must not cost its healthy
    // neighbours their answers.
    fn check<S: ServeSnapshot>(server: &Server<S>) {
        let batch = vec![
            QueryRequest::in_database(0, 5),
            QueryRequest::in_database(1, 5),
            QueryRequest::in_database(server.len() + 7, 5), // invalid, same panel
            QueryRequest::in_database(2, 5),
            QueryRequest::in_database(3, 5),
        ];
        let answers = server.serve_batch(&batch);
        assert!(answers[0].is_ok());
        assert!(answers[1].is_ok());
        assert!(
            matches!(answers[2], Err(ServeError::BadRequest { .. })),
            "an unknown id must be rejected at admission with a typed BadRequest, got {:?}",
            answers[2]
        );
        assert!(answers[3].is_ok());
        assert!(answers[4].is_ok());
    }
    let (db, _) = dataset();
    let engines = engines(&db, 1);
    check(&engines.single);
    check(&engines.s1);
    check(&engines.s4);
}

#[test]
fn admission_validation_rejects_malformed_requests_with_typed_errors() {
    // k = 0, unknown id, wrong dimension, and a non-finite component are all
    // BadRequest — and none of them reach the solve path.
    fn check<S: ServeSnapshot>(server: &Server<S>, dim: usize) {
        for request in [
            QueryRequest::in_database(0, 0),
            QueryRequest::in_database(server.len() + 1, 5),
            QueryRequest::out_of_sample(vec![0.25; dim + 3], 5),
            QueryRequest::out_of_sample(
                {
                    let mut f = vec![0.25; dim];
                    f[dim / 2] = f64::NAN;
                    f
                },
                5,
            ),
        ] {
            match server.query(&request) {
                Err(ServeError::BadRequest { reason }) => {
                    assert!(!reason.is_empty(), "reason must name the violation")
                }
                other => panic!("expected BadRequest for {request:?}, got {other:?}"),
            }
        }
    }
    let (db, _) = dataset();
    let dim = db.dim();
    let engines = engines(&db, 1);
    check(&engines.single, dim);
    check(&engines.s1, dim);
    check(&engines.s4, dim);
    // Retryability is part of the contract: overload sheds are retryable,
    // client mistakes are not.
    assert!(ServeError::Overloaded {
        queue_depth: 4,
        queue_capacity: 4
    }
    .is_retryable());
    assert!(ServeError::Draining.is_retryable());
    assert!(!ServeError::BadRequest {
        reason: "nope".into()
    }
    .is_retryable());
}

#[test]
fn empty_batch_is_a_no_op() {
    let (db, _) = dataset();
    let engines = engines(&db, 4);
    assert!(engines.single.serve_batch(&[]).is_empty());
    assert!(engines.s1.serve_batch(&[]).is_empty());
    assert!(engines.s4.serve_batch(&[]).is_empty());
}
