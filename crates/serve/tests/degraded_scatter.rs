//! Degraded-mode scatter-gather: when a probed shard fails — typed error,
//! contained panic, or blown per-scatter deadline — the merged answer of
//! the surviving shards comes back tagged
//! [`ResponseStatus::Degraded`], and it is a **true sub-merge**: bit-
//! identical to the merge of exactly the shards that answered, built here
//! from each shard's own answer. Strict callers (`require_complete`, and
//! every `query` / `serve_batch`) fail typed with
//! [`ServeError::Incomplete`] instead of degrading.
//!
//! Shard failures are injected deterministically through
//! [`ShardedServer::set_fault_injector`], the in-process half of the
//! fault-injection harness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mogul_core::update::IndexBuilder;
use mogul_core::{
    RankedNode, SearchStats, ShardedConfig, ShardedIndex, ShardedSnapshot, ShardedWorkspace,
    TopKResult,
};
use mogul_serve::net::{NetClient, NetServer, ServeBackend};
use mogul_serve::{
    DegradedPolicy, QueryRequest, QueryResponse, ResponseStatus, ServeError, ServeOptions,
    ShardFault, ShardFaultFn, ShardedServer, ShardedWriter,
};

const K: usize = 5;

/// Three well-separated clusters of 16 items each; a 3-shard partition
/// recovers them. Every out-of-sample query probes all three shards
/// (`shard_probes = 3`), so one failed shard degrades rather than
/// misroutes.
fn features() -> Vec<Vec<f64>> {
    let mut features = Vec::new();
    for c in 0..3 {
        for i in 0..16 {
            features.push(vec![
                100.0 * c as f64 + 0.07 * i as f64,
                10.0 * c as f64 + 0.03 * (i % 5) as f64,
            ]);
        }
    }
    features
}

fn build_server() -> (Arc<ShardedServer>, Arc<ShardedSnapshot>) {
    let config = ShardedConfig::with_shards(3)
        .shard_probes(3)
        .builder(IndexBuilder::new().knn_k(4).exact_ranking());
    let (index, _report) = ShardedIndex::build(features(), config).unwrap();
    let snapshot = index.snapshot();
    let (server, _writer) = ShardedWriter::new(index);
    (server, snapshot)
}

fn probe_feature() -> Vec<f64> {
    // Near cluster 0 but not on any item: all three shards contribute real
    // distance-ordered legs.
    vec![0.5, 0.01]
}

/// The merged out-of-sample answer of the shards `legs`, in that order,
/// built without the scatter under test: each shard's own answer, its ids
/// mapped to global ids through the router, then a top-k by `(score desc,
/// id asc)`; neighbours concatenated and counters summed in leg order.
fn sub_merge(
    snapshot: &ShardedSnapshot,
    legs: &[usize],
    feature: &[f64],
) -> (TopKResult, Vec<usize>, SearchStats) {
    let (mut items, mut neighbors, mut stats) = (Vec::new(), Vec::new(), SearchStats::default());
    for &shard in legs {
        let leg = snapshot.shards()[shard]
            .query_by_feature(feature, K)
            .unwrap();
        let global = |local| snapshot.router().global_of_local(shard, local).unwrap();
        items.extend(leg.top_k.items().iter().map(|item| RankedNode {
            node: global(item.node),
            score: item.score,
        }));
        neighbors.extend(leg.neighbors.iter().map(|&local| global(local)));
        stats.merge(&leg.stats);
    }
    items.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.node.cmp(&b.node)));
    items.truncate(K);
    (TopKResult::new(items), neighbors, stats)
}

/// Fail exactly the given shards with a typed error.
fn fail_shards(server: &ShardedServer, shards: &'static [usize]) {
    server.set_fault_injector(Some(Arc::new(move |shard| {
        shards.contains(&shard).then(|| {
            ShardFault::Error(ServeError::Config {
                reason: format!("injected fault on shard {shard}"),
            })
        })
    })));
}

#[test]
fn healthy_scatter_is_complete_and_bit_identical_to_the_snapshot() {
    let (server, snapshot) = build_server();
    let feature = probe_feature();
    let request = QueryRequest::out_of_sample(feature.clone(), K);
    let (response, status) = server.query_degraded(&request, true).unwrap();
    assert_eq!(status, ResponseStatus::Complete);
    let mut ws = ShardedWorkspace::new();
    let want = snapshot.query_by_feature_in(&mut ws, &feature, K).unwrap();
    let got = match &response {
        QueryResponse::OutOfSample(result) => result,
        other => panic!("wrong response shape: {other:?}"),
    };
    assert_eq!(
        got.top_k, want.top_k,
        "degraded path must not change answers"
    );
    assert_eq!(got.neighbors, want.neighbors);

    let in_db = QueryRequest::in_database(3, K);
    let (response, status) = server.query_degraded(&in_db, true).unwrap();
    assert_eq!(status, ResponseStatus::Complete);
    let want = snapshot.query_by_id_in(&mut ws, 3, K).unwrap();
    match response {
        QueryResponse::InDatabase(got) => assert_eq!(got, want),
        other => panic!("wrong response shape: {other:?}"),
    }
}

#[test]
fn degraded_answer_is_the_exact_merge_of_the_surviving_legs() {
    let (server, snapshot) = build_server();
    let feature = probe_feature();
    let order = snapshot.probe_order(&feature).unwrap();
    assert_eq!(order.len(), 3);

    // Fail the *second* probed shard: survivors are a non-trivial,
    // non-prefix subset of the probe order.
    let failed = order[1];
    let leaked: &'static [usize] = Box::leak(vec![failed].into_boxed_slice());
    fail_shards(&server, leaked);

    let request = QueryRequest::out_of_sample(feature.clone(), K);
    let (response, status) = server.query_degraded(&request, false).unwrap();
    assert_eq!(
        status,
        ResponseStatus::Degraded {
            shards_answered: 2,
            shards_total: 3
        }
    );

    // Reference merge: the surviving shards' own answers, in probe order.
    let survivors: Vec<usize> = order.into_iter().filter(|&s| s != failed).collect();
    let (top_k, neighbors, stats) = sub_merge(&snapshot, &survivors, &feature);
    let got = match &response {
        QueryResponse::OutOfSample(result) => result,
        other => panic!("wrong response shape: {other:?}"),
    };
    assert_eq!(
        got.top_k, top_k,
        "degraded answer must be the exact sub-merge"
    );
    assert_eq!(got.neighbors, neighbors);
    assert_eq!(got.stats, stats);
}

#[test]
fn require_complete_fails_typed_instead_of_degrading() {
    let (server, _snapshot) = build_server();
    fail_shards(&server, &[0]);
    let request = QueryRequest::out_of_sample(probe_feature(), K);
    let err = server.query_degraded(&request, true).unwrap_err();
    match err {
        ServeError::Incomplete {
            shards_answered,
            shards_total,
        } => {
            assert_eq!((shards_answered, shards_total), (2, 3));
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    assert!(
        err.is_retryable(),
        "Incomplete must be retryable — another replica may be whole"
    );
    // The same request without the strict flag degrades instead.
    let (_, status) = server.query_degraded(&request, false).unwrap();
    assert!(status.is_degraded());
}

#[test]
fn a_panicking_shard_is_contained_and_the_server_stays_healthy() {
    let (server, snapshot) = build_server();
    let panics_on_1: Arc<ShardFaultFn> =
        Arc::new(|shard| (shard == 1).then_some(ShardFault::Panic));
    server.set_fault_injector(Some(Arc::clone(&panics_on_1)));
    let request = QueryRequest::out_of_sample(probe_feature(), K);
    let (_, status) = server.query_degraded(&request, false).unwrap();
    assert_eq!(
        status,
        ResponseStatus::Degraded {
            shards_answered: 2,
            shards_total: 3
        },
        "a panic inside one shard must degrade, not poison the query"
    );

    // The strict batch path runs the same legs, on two workers: requests
    // the panicking shard serves fail typed, the rest answer, and no panic
    // reaches the caller. Alternating kinds cut the batch into many jobs.
    let batch_server =
        ShardedServer::from_snapshot(Arc::clone(&snapshot), ServeOptions::with_workers(2));
    batch_server.set_fault_injector(Some(panics_on_1));
    let batch: Vec<QueryRequest> = (0..12)
        .flat_map(|i| {
            let c = (i % 3) as f64;
            [
                QueryRequest::in_database(4 * i, K),
                QueryRequest::out_of_sample(vec![100.0 * c + 0.5, 10.0 * c + 0.01], K),
            ]
        })
        .collect();
    let mut ws = ShardedWorkspace::new();
    for (request, answer) in batch.iter().zip(batch_server.serve_batch(&batch)) {
        match (request, answer) {
            (QueryRequest::InDatabase { node, .. }, answer)
                if snapshot.shard_of(*node) == Some(1) =>
            {
                assert!(
                    matches!(
                        answer,
                        Err(ServeError::Incomplete {
                            shards_answered: 0,
                            shards_total: 1
                        })
                    ),
                    "item {node} on the panicking shard: got {answer:?}"
                );
            }
            (QueryRequest::InDatabase { node, .. }, answer) => {
                let want = snapshot.query_by_id_in(&mut ws, *node, K).unwrap();
                assert_eq!(answer.unwrap().top_k(), &want, "item {node}");
            }
            (QueryRequest::OutOfSample { .. }, answer) => assert!(
                matches!(
                    answer,
                    Err(ServeError::Incomplete {
                        shards_answered: 2,
                        shards_total: 3
                    })
                ),
                "every feature probes the panicking shard: got {answer:?}"
            ),
        }
    }

    // Clear the fault: the server (and its workspace pool) must be fully
    // healthy again, answering complete and bit-identical.
    server.set_fault_injector(None);
    let feature = probe_feature();
    let (response, status) = server.query_degraded(&request, true).unwrap();
    assert_eq!(status, ResponseStatus::Complete);
    let mut ws = ShardedWorkspace::new();
    let want = snapshot.query_by_feature_in(&mut ws, &feature, K).unwrap();
    match &response {
        QueryResponse::OutOfSample(got) => assert_eq!(got.top_k, want.top_k),
        other => panic!("wrong response shape: {other:?}"),
    }
}

#[test]
fn a_stalled_shard_blows_the_scatter_deadline_and_degrades() {
    let (server, snapshot) = build_server();
    let feature = probe_feature();
    let order = snapshot.probe_order(&feature).unwrap();
    // Stall the last-probed shard: the earlier legs are already gathered
    // when the deadline expires.
    let stalled = *order.last().unwrap();
    server.set_degraded_policy(DegradedPolicy {
        scatter_deadline: Some(Duration::from_millis(40)),
    });
    server.set_fault_injector(Some(Arc::new(move |shard| {
        (shard == stalled).then_some(ShardFault::Stall(Duration::from_millis(120)))
    })));

    let request = QueryRequest::out_of_sample(feature, K);
    let started = Instant::now();
    let (_, status) = server.query_degraded(&request, false).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        status,
        ResponseStatus::Degraded {
            shards_answered: 2,
            shards_total: 3
        }
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "the stall must not leak past the deadline budget, took {elapsed:?}"
    );
}

#[test]
fn in_database_queries_have_one_owning_shard_and_fail_incomplete() {
    let (server, snapshot) = build_server();
    let node = 20usize; // cluster 1 → shard owned by that cluster
    let owner = snapshot.shard_of(node).unwrap();
    let leaked: &'static [usize] = Box::leak(vec![owner].into_boxed_slice());
    fail_shards(&server, leaked);

    let request = QueryRequest::in_database(node, K);
    let err = server.query_degraded(&request, false).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Incomplete {
                shards_answered: 0,
                shards_total: 1
            }
        ),
        "an in-database query cannot degrade — got {err:?}"
    );

    server.set_fault_injector(None);
    let (_, status) = server.query_degraded(&request, false).unwrap();
    assert_eq!(status, ResponseStatus::Complete);
}

#[test]
fn a_mixed_run_fails_completes_and_degrades_lane_by_lane() {
    // One lenient run, kinds alternating lane by lane: in-database lanes
    // owned by the failing shard fail `Incomplete`, those owned by the
    // others answer complete, and out-of-sample lanes — which probe every
    // shard — degrade to the exact merge of the two survivors. The run is
    // one scatter, so the injector is consulted at most once per shard.
    let (server, snapshot) = build_server();
    let failing = snapshot.shard_of(20).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    server.set_fault_injector(Some(Arc::new(move |shard| {
        counted.fetch_add(1, Ordering::SeqCst);
        (shard == failing).then(|| {
            ShardFault::Error(ServeError::Config {
                reason: format!("injected fault on shard {shard}"),
            })
        })
    })));
    let feature = probe_feature();
    let run: Vec<QueryRequest> = (0..12)
        .map(|i| match i % 2 {
            0 => QueryRequest::in_database(i * 4, [1, 3, K][i % 3]),
            _ => QueryRequest::out_of_sample(feature.clone(), K),
        })
        .collect();
    let answers = server.answer_run(&run, false);
    assert!(
        calls.load(Ordering::SeqCst) <= 3,
        "{} injector calls: the run was not one scatter",
        calls.load(Ordering::SeqCst)
    );

    let survivors: Vec<usize> = (snapshot.probe_order(&feature).unwrap().into_iter())
        .filter(|&shard| shard != failing)
        .collect();
    let (top_k, neighbors, _) = sub_merge(&snapshot, &survivors, &feature);
    let mut ws = ShardedWorkspace::new();
    let mut fates = [0usize; 3];
    for (request, answer) in run.iter().zip(&answers) {
        match (request, answer) {
            (QueryRequest::InDatabase { node, k }, answer) => {
                if snapshot.shard_of(*node) == Some(failing) {
                    assert!(
                        matches!(
                            answer,
                            Err(ServeError::Incomplete {
                                shards_answered: 0,
                                shards_total: 1
                            })
                        ),
                        "item {node}: {answer:?}"
                    );
                    fates[0] += 1;
                } else {
                    let (response, status) = answer.as_ref().unwrap();
                    assert_eq!(*status, ResponseStatus::Complete, "item {node}");
                    let want = snapshot.query_by_id_in(&mut ws, *node, *k).unwrap();
                    assert_eq!(response.top_k(), &want, "item {node}");
                    fates[1] += 1;
                }
            }
            (QueryRequest::OutOfSample { .. }, answer) => {
                let (response, status) = answer.as_ref().unwrap();
                let degraded = ResponseStatus::Degraded {
                    shards_answered: 2,
                    shards_total: 3,
                };
                assert_eq!(*status, degraded);
                let got = response.out_of_sample().unwrap();
                assert_eq!(got.top_k, top_k);
                assert_eq!(got.neighbors, neighbors);
                fates[2] += 1;
            }
        }
    }
    assert!(fates.iter().all(|&n| n > 0), "every fate occurs: {fates:?}");
}

#[test]
fn every_probed_shard_failing_is_incomplete_regardless_of_strictness() {
    let (server, _snapshot) = build_server();
    fail_shards(&server, &[0, 1, 2]);
    let request = QueryRequest::out_of_sample(probe_feature(), K);
    for strict in [false, true] {
        let err = server.query_degraded(&request, strict).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Incomplete {
                    shards_answered: 0,
                    shards_total: 3
                }
            ),
            "strict={strict}: expected Incomplete(0/3), got {err:?}"
        );
    }
}

#[test]
fn a_pipelined_run_over_the_wire_fails_and_degrades_request_by_request() {
    // Four well-separated clusters over S = 4 shards; every out-of-sample
    // query probes all four, so one failed shard touches every query.
    let features: Vec<Vec<f64>> = (0..4)
        .flat_map(|c| {
            (0..16).map(move |i| {
                vec![
                    100.0 * c as f64 + 0.07 * i as f64,
                    10.0 * c as f64 + 0.03 * (i % 5) as f64,
                ]
            })
        })
        .collect();
    let config = ShardedConfig::with_shards(4)
        .shard_probes(4)
        .builder(IndexBuilder::new().knn_k(4).exact_ranking());
    let (index, _report) = ShardedIndex::build(features, config).unwrap();
    let (server, _writer) = ShardedWriter::new(index);
    // Shard 2 fails. The very first leg waits for the test's go, holding
    // the front door's only worker while the runs queue up behind it.
    let (go, hold) = mpsc::channel::<()>();
    let hold = Mutex::new(Some(hold));
    let legs = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&legs);
    server.set_fault_injector(Some(Arc::new(move |shard| {
        counted.fetch_add(1, Ordering::SeqCst);
        let first = hold.lock().unwrap().take();
        if let Some(first) = first {
            first.recv().unwrap();
        }
        (shard == 2).then(|| {
            ShardFault::Error(ServeError::Config {
                reason: "injected fault on shard 2".into(),
            })
        })
    })));
    let options = ServeOptions::builder().workers(1).build().unwrap();
    let net = NetServer::bind("127.0.0.1:0", Arc::clone(&server), options).unwrap();
    let handle = net.handle();
    let join = std::thread::spawn(move || net.run());
    let mut client = NetClient::connect(handle.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let query = |i: usize| {
        let c = (i % 4) as f64;
        QueryRequest::out_of_sample(vec![100.0 * c + 0.5, 10.0 * c + 0.01], K)
    };
    client.send_query_opts(&query(0), false).unwrap();
    let wait_until = |done: &dyn Fn(u64, u64) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let report = handle.stats_report();
            if done(report.inflight, report.queue_depth) {
                break;
            }
            assert!(Instant::now() < deadline, "the runs never queued up");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    wait_until(&|inflight, queued| inflight == 1 && queued == 0);
    // Two runs of eight behind it: strict, then lenient.
    let mut sent = Vec::new();
    for i in 0..16 {
        let strict = i < 8;
        let id = client.send_query_opts(&query(i), strict).unwrap();
        sent.push((id, query(i), strict));
    }
    wait_until(&|_, queued| queued == 16);
    go.send(()).unwrap();

    let degraded = ResponseStatus::Degraded {
        shards_answered: 3,
        shards_total: 4,
    };
    let mut answers = std::collections::HashMap::new();
    for _ in 0..17 {
        let (id, answer) = client.recv_answer_status().unwrap();
        answers.insert(id, answer);
    }
    // Three runs — the lone first request, then the strict and the lenient
    // eight — each scatter as one panel per shard: at most one injector
    // call per (shard, run), plus the held first leg. One scatter per
    // request would make one per (request, shard): 68.
    let calls = legs.load(Ordering::SeqCst);
    assert!(
        calls <= 4 * 3 + 1,
        "{calls} injector calls: the runs did not form panels"
    );
    for (id, request, strict) in &sent {
        match &answers[id] {
            Err(ServeError::Incomplete {
                shards_answered: 3,
                shards_total: 4,
            }) if *strict => {}
            Ok((response, status)) if !*strict => {
                assert_eq!(*status, degraded);
                let (want, want_status) = server.query_degraded(request, false).unwrap();
                assert_eq!(want_status, degraded);
                assert_eq!(response.top_k(), want.top_k());
            }
            other => panic!("request {id} (strict {strict}): unexpected {other:?}"),
        }
    }
    handle.drain();
    join.join().unwrap().unwrap();
}
