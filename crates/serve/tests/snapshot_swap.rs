//! Zero-downtime snapshot swapping under concurrent load.
//!
//! The contract: queries submitted concurrently with snapshot swaps never
//! observe a torn index — every answer matches what *some* published epoch
//! answers for that query, and every batch is answered by a single epoch.

use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, UpdatableIndex};
use mogul_serve::{IndexWriter, QueryRequest, QueryServer, ServeOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Two feature clusters; probe ids (0..PROBES) live in cluster 0 and are
/// never removed during the tests.
fn features() -> Vec<Vec<f64>> {
    let mut features = Vec::new();
    for i in 0..24 {
        features.push(vec![0.08 * i as f64, 0.04 * (i % 5) as f64]);
    }
    for i in 0..24 {
        features.push(vec![20.0 + 0.08 * i as f64, 9.0 + 0.04 * (i % 5) as f64]);
    }
    features
}

const PROBES: usize = 6;
const QUERY_K: usize = 4;

fn build_index(policy: RebuildPolicy) -> UpdatableIndex {
    IndexBuilder::new()
        .knn_k(4)
        .exact_ranking()
        .rebuild_policy(policy)
        .build(features())
        .unwrap()
}

/// The expected answers of one epoch: ranked id lists per probe, plus one
/// out-of-sample probe.
fn expected_answers(snapshot: &mogul_core::update::IndexSnapshot) -> Vec<Vec<usize>> {
    let mut expected: Vec<Vec<usize>> = (0..PROBES)
        .map(|id| snapshot.query_by_id(id, QUERY_K).unwrap().nodes())
        .collect();
    expected.push(
        snapshot
            .query_by_feature(&[0.2, 0.05], QUERY_K)
            .unwrap()
            .top_k
            .nodes(),
    );
    expected
}

/// Queries racing snapshot swaps: every single-query answer matches some
/// published epoch, and every batch matches exactly one epoch end-to-end.
#[test]
fn swaps_under_load_never_tear_results() {
    // Small support ceiling so the writer alternates between corrected
    // epochs and full refactorizations — both swap paths are exercised.
    let mut index = build_index(RebuildPolicy {
        max_support: 18,
        max_support_fraction: 1.0,
    });
    let server = Arc::new(QueryServer::from_snapshot(
        index.snapshot(),
        ServeOptions::with_workers(2),
    ));

    // Expected answers per epoch, inserted into the ledger *before* the
    // snapshot is installed so readers can never be ahead of it.
    let ledger: Arc<Mutex<HashMap<u64, Vec<Vec<usize>>>>> = Arc::new(Mutex::new(HashMap::new()));
    ledger
        .lock()
        .unwrap()
        .insert(0, expected_answers(&index.snapshot()));
    let done = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for reader in 0..3 {
        let server = Arc::clone(&server);
        let ledger = Arc::clone(&ledger);
        let done = Arc::clone(&done);
        readers.push(thread::spawn(move || {
            let mut checks = 0usize;
            while !done.load(Ordering::Relaxed) || checks == 0 {
                if reader == 0 {
                    // Whole batches must be answered by one single epoch.
                    let requests: Vec<QueryRequest> = (0..PROBES)
                        .map(|id| QueryRequest::in_database(id, QUERY_K))
                        .chain([QueryRequest::out_of_sample(vec![0.2, 0.05], QUERY_K)])
                        .collect();
                    let answers: Vec<Vec<usize>> = server
                        .serve_batch(&requests)
                        .into_iter()
                        .map(|a| a.expect("probe query failed").top_k().nodes())
                        .collect();
                    let ledger = ledger.lock().unwrap();
                    assert!(
                        ledger.values().any(|expected| *expected == answers),
                        "batch answers match no single published epoch: {answers:?}"
                    );
                } else {
                    // Single queries may each land on different epochs, but
                    // each one must match that epoch exactly.
                    let probe = checks % PROBES;
                    let answer = server
                        .query_by_id(probe, QUERY_K)
                        .expect("probe query failed")
                        .nodes();
                    let ledger = ledger.lock().unwrap();
                    assert!(
                        ledger.values().any(|expected| expected[probe] == answer),
                        "answer for probe {probe} matches no published epoch: {answer:?}"
                    );
                }
                checks += 1;
            }
            checks
        }));
    }

    // Writer: interleave inserts and removals (never touching the probe
    // ids), publishing each epoch only after recording its expected answers.
    let mut inserted: Vec<usize> = Vec::new();
    for round in 0..10 {
        let mut delta = IndexDelta::new();
        delta.insert(vec![0.3 + 0.01 * round as f64, 0.02]);
        if round % 3 == 2 {
            delta.remove(inserted.remove(0));
            delta.remove(24 + round); // a cluster-1 item
        }
        let report = index.apply(&delta).unwrap();
        inserted.extend(report.inserted);
        let snapshot = index.snapshot();
        ledger
            .lock()
            .unwrap()
            .insert(snapshot.epoch(), expected_answers(&snapshot));
        let previous = server.install_snapshot(snapshot);
        // The displaced snapshot is still intact for any in-flight query.
        assert!(previous.epoch() < server.epoch());
        thread::sleep(Duration::from_millis(2));
    }
    done.store(true, Ordering::Relaxed);

    let mut total_checks = 0usize;
    for handle in readers {
        total_checks += handle.join().expect("reader panicked");
    }
    assert!(total_checks >= 3, "readers barely ran: {total_checks}");
    assert_eq!(server.epoch(), 10);
    // The final epoch is live and matches its recorded answers.
    let final_answers = expected_answers(&server.snapshot());
    assert_eq!(ledger.lock().unwrap()[&10], final_answers);
}

/// The writer façade: updates publish new epochs, in-flight snapshots stay
/// valid, and the debt policy triggers refactorization through the writer.
#[test]
fn index_writer_publishes_epochs_and_rebuilds() {
    let index = build_index(RebuildPolicy {
        max_support: 10,
        max_support_fraction: 1.0,
    });
    let (server, writer) = IndexWriter::new(index, ServeOptions::with_workers(2));
    assert_eq!(server.epoch(), 0);
    assert_eq!(server.len(), 48);
    let old = server.snapshot();
    let old_top = old.query_by_id(0, QUERY_K).unwrap();

    // A small update: corrected snapshot, no rebuild.
    let report = writer
        .apply_delta(IndexDelta::new().insert(vec![0.1, 0.01]))
        .unwrap();
    assert!(!report.rebuilt);
    assert_eq!(server.epoch(), 1);
    assert!(writer.debt().support > 0);
    let new_id = report.inserted[0];
    assert!(server.query_by_id(new_id, QUERY_K).is_ok());

    // The pre-update snapshot still answers identically (zero downtime for
    // in-flight queries).
    assert_eq!(old.query_by_id(0, QUERY_K).unwrap(), old_top);
    assert!(old.query_by_id(new_id, QUERY_K).is_err());

    // Pile on updates until the debt policy forces a refactorization.
    let mut rebuilt = false;
    for i in 0..8 {
        let report = writer
            .apply_delta(IndexDelta::new().insert(vec![0.5 + 0.05 * i as f64, 0.03]))
            .unwrap();
        rebuilt |= report.rebuilt;
    }
    assert!(rebuilt, "debt policy never triggered a rebuild");
    // An explicit rebuild also goes through the writer.
    let report = writer.rebuild().unwrap();
    assert!(report.rebuilt);
    assert_eq!(report.debt.support, 0);
    assert!(server.snapshot().is_clean());
    assert_eq!(server.epoch(), writer.server().epoch());

    // Removals through the writer disappear from the served snapshot.
    writer
        .apply_delta(IndexDelta::new().remove(new_id))
        .unwrap();
    assert!(server.query_by_id(new_id, QUERY_K).is_err());
}
