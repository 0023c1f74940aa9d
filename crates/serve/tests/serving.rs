//! Equivalence and concurrency coverage of the serving layer.
//!
//! The contract under test: concurrency changes throughput, never results.
//! Every answer produced by a multi-worker [`QueryServer`] — under
//! concurrent load, with recycled workspaces, in Mogul and MogulE (exact)
//! mode alike — must be **bit-identical** to the sequential
//! [`RetrievalEngine`] answer for the same request.

use mogul_core::{OutOfSampleResult, RetrievalEngine};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::Dataset;
use mogul_serve::{QueryRequest, QueryResponse, QueryServer, ServeError, ServeOptions};
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

/// The sequential reference answer for one request.
fn sequential_answer(engine: &RetrievalEngine, request: &QueryRequest) -> SequentialAnswer {
    match request {
        QueryRequest::InDatabase { node, k } => {
            SequentialAnswer::InDatabase(engine.query_by_id(*node, *k).unwrap())
        }
        QueryRequest::OutOfSample { feature, k } => {
            SequentialAnswer::OutOfSample(engine.query_by_feature(feature, *k).unwrap())
        }
    }
}

enum SequentialAnswer {
    InDatabase(mogul_core::TopKResult),
    OutOfSample(OutOfSampleResult),
}

/// Bit-exact comparison (scores compared with `==`, not a tolerance).
fn assert_matches(expected: &SequentialAnswer, got: &QueryResponse) {
    match (expected, got) {
        (SequentialAnswer::InDatabase(want), QueryResponse::InDatabase(have)) => {
            assert_eq!(want, have);
        }
        (SequentialAnswer::OutOfSample(want), QueryResponse::OutOfSample(have)) => {
            assert_eq!(want.top_k, have.top_k);
            assert_eq!(want.neighbors, have.neighbors);
            assert_eq!(want.stats, have.stats);
        }
        _ => panic!("response kind does not match the request kind"),
    }
}

#[test]
fn concurrent_batches_are_bit_identical_to_sequential_engine() {
    let (db, queries) = dataset();
    for exact in [false, true] {
        let mut builder = RetrievalEngine::builder();
        if exact {
            builder = builder.exact_ranking();
        }
        let engine = builder.build(db.features().to_vec()).unwrap();
        let batch = mixed_batch(&db, &queries);
        let expected: Vec<SequentialAnswer> = batch
            .iter()
            .map(|r| sequential_answer(&engine, r))
            .collect();

        let server = QueryServer::from_engine(engine, ServeOptions::with_workers(4));
        // Serve the same batch twice: the second pass runs entirely on
        // recycled (warm) workspaces and must not change a single bit.
        for pass in 0..2 {
            let answers = server.serve_batch(&batch);
            assert_eq!(answers.len(), batch.len());
            for (i, answer) in answers.iter().enumerate() {
                let got = answer
                    .as_ref()
                    .unwrap_or_else(|e| panic!("pass {pass}, request {i} failed: {e}"));
                assert_matches(&expected[i], got);
            }
        }
    }
}

#[test]
fn more_inflight_batches_than_workers() {
    // 8 submitting threads × 3 rounds against a 2-worker server: far more
    // in-flight batches than workers, exercising the workspace pool and the
    // scoped-dispatch path under real contention.
    let (db, queries) = dataset();
    let engine = RetrievalEngine::builder()
        .build(db.features().to_vec())
        .unwrap();
    let batch = mixed_batch(&db, &queries);
    let expected: Vec<SequentialAnswer> = batch
        .iter()
        .map(|r| sequential_answer(&engine, r))
        .collect();

    let server = Arc::new(QueryServer::from_engine(
        engine,
        ServeOptions::with_workers(2),
    ));
    thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let answers = server.serve_batch(&batch);
                    for (i, answer) in answers.iter().enumerate() {
                        assert_matches(&expected[i], answer.as_ref().unwrap());
                    }
                }
            });
        }
    });
}

#[test]
fn per_request_errors_do_not_poison_the_batch() {
    let (db, queries) = dataset();
    let engine = RetrievalEngine::builder()
        .build(db.features().to_vec())
        .unwrap();
    let server = QueryServer::from_engine(engine, ServeOptions::with_workers(3));

    let batch = vec![
        QueryRequest::in_database(0, 5),
        QueryRequest::in_database(db.len() + 10, 5), // node out of range
        QueryRequest::out_of_sample(vec![1.0, 2.0], 5), // wrong dimensionality
        QueryRequest::out_of_sample(queries[0].0.clone(), 5),
        QueryRequest::in_database(1, 0), // k = 0
    ];
    let answers = server.serve_batch(&batch);
    assert!(answers[0].is_ok());
    assert!(answers[1].is_err());
    assert!(answers[2].is_err());
    assert!(answers[3].is_ok());
    assert!(answers[4].is_err());
}

#[test]
fn single_query_paths_match_the_engine() {
    let (db, queries) = dataset();
    let engine = RetrievalEngine::builder()
        .build(db.features().to_vec())
        .unwrap();
    let expected_id = engine.query_by_id(4, 6).unwrap();
    let expected_oos = engine.query_by_feature(&queries[2].0, 6).unwrap();

    // Two servers may share one index behind the same `Arc`.
    let index = Arc::new(engine.into_out_of_sample());
    let server_a = QueryServer::new(Arc::clone(&index), ServeOptions::default());
    let server_b = QueryServer::new(index, ServeOptions::with_workers(1));

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
    // `serve_batch(batch)[i] == query(&batch[i])`: homogeneous runs are
    // where panels actually form (alternating kinds make panels of one), and
    // a request's answer must not depend on the panel or the worker it lands
    // in, for Mogul and MogulE alike.
    let (db, queries) = dataset();
    for exact in [false, true] {
        let mut builder = RetrievalEngine::builder();
        if exact {
            builder = builder.exact_ranking();
        }
        let engine = builder.build(db.features().to_vec()).unwrap();
        let index = Arc::new(engine.into_out_of_sample());

        // A long in-database run, a long out-of-sample run, a k change in
        // the middle of a run (splits the panel), and a ragged tail.
        let mut batch = Vec::new();
        for i in 0..21 {
            batch.push(QueryRequest::in_database(i * 5 % db.len(), 4));
        }
        for (feature, _) in queries.iter().take(11) {
            batch.push(QueryRequest::out_of_sample(feature.clone(), 6));
        }
        batch.push(QueryRequest::in_database(1, 4));
        batch.push(QueryRequest::in_database(2, 9));
        batch.push(QueryRequest::in_database(3, 4));

        for workers in [1usize, 2, 3, 8] {
            let server = QueryServer::new(Arc::clone(&index), ServeOptions::with_workers(workers));
            let batched = server.serve_batch(&batch);
            for (i, request) in batch.iter().enumerate() {
                let want = server.query(request).unwrap();
                match (&want, batched[i].as_ref().unwrap()) {
                    (QueryResponse::InDatabase(a), QueryResponse::InDatabase(b)) => {
                        assert_eq!(a, b, "request {i} (exact={exact}, workers={workers})")
                    }
                    (QueryResponse::OutOfSample(a), QueryResponse::OutOfSample(b)) => {
                        assert_eq!(a.top_k, b.top_k, "request {i} (exact={exact})");
                        assert_eq!(a.neighbors, b.neighbors);
                        assert_eq!(a.stats, b.stats);
                    }
                    _ => panic!("response kinds diverge at {i}"),
                }
            }
        }
    }
}

#[test]
fn panel_jobs_keep_per_request_error_isolation() {
    // An invalid request in the middle of a compatible run must not cost
    // its healthy neighbours their answers.
    let (db, _) = dataset();
    let engine = RetrievalEngine::builder()
        .build(db.features().to_vec())
        .unwrap();
    let server = QueryServer::from_engine(engine, ServeOptions::with_workers(1));
    let batch = vec![
        QueryRequest::in_database(0, 5),
        QueryRequest::in_database(1, 5),
        QueryRequest::in_database(db.len() + 7, 5), // invalid, same panel
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

#[test]
fn admission_validation_rejects_malformed_requests_with_typed_errors() {
    let (db, _) = dataset();
    let engine = RetrievalEngine::builder()
        .build(db.features().to_vec())
        .unwrap();
    let dim = db.features()[0].len();
    let server = QueryServer::from_engine(engine, ServeOptions::with_workers(1));
    // k = 0, unknown id, wrong dimension, and a non-finite component are all
    // BadRequest — and none of them reach the solve path.
    for request in [
        QueryRequest::in_database(0, 0),
        QueryRequest::in_database(db.len() + 1, 5),
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
    let engine = RetrievalEngine::builder()
        .build(db.features().to_vec())
        .unwrap();
    let server = QueryServer::from_engine(engine, ServeOptions::with_workers(4));
    assert!(server.serve_batch(&[]).is_empty());
}
