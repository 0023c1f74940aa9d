//! Sharded serving under concurrent load.
//!
//! The contract under test: a [`ShardedServer`] batch reads its
//! [`ShardedSnapshot`] exactly once, so every answer of one batch observes
//! **every shard at exactly one epoch** — even while a writer applies
//! routed updates and rebuilds shards one at a time. A torn merge (shard 0
//! from the old snapshot, shard 1 from the new) would make two identical
//! requests inside one batch disagree; the tests below run exactly that
//! detector while hammering the writer. Routing isolation (updates only
//! dirty their owning shard) and shard-skip statistics are pinned alongside.

use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy};
use mogul_core::{ShardedConfig, ShardedIndex};
use mogul_serve::{QueryRequest, ServeError, ShardedWriter};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

const QUERY_K: usize = 4;

/// Two well-separated clusters of 24 items each; a 2-shard partition
/// recovers them, so globals 0..24 land in one shard and 24..48 in the
/// other. Probe ids stay in 0..6 and are never removed.
fn features() -> Vec<Vec<f64>> {
    let mut features = Vec::new();
    for i in 0..24 {
        features.push(vec![0.08 * i as f64, 0.04 * (i % 5) as f64]);
    }
    for i in 0..24 {
        features.push(vec![100.0 + 0.08 * i as f64, 9.0 + 0.04 * (i % 5) as f64]);
    }
    features
}

fn build_sharded(policy: RebuildPolicy) -> ShardedIndex {
    let config = ShardedConfig::with_shards(2).builder(
        IndexBuilder::new()
            .knn_k(4)
            .exact_ranking()
            .rebuild_policy(policy),
    );
    let (index, report) = ShardedIndex::build(features(), config).unwrap();
    assert!(
        report.groups.iter().all(|g| g.len() == 24),
        "partition must recover the two clusters"
    );
    index
}

/// Baseline: server answers equal the snapshot's own answers, per-request
/// failures stay per-request, and mixed batches preserve order.
#[test]
fn sharded_server_matches_its_snapshot_and_fails_per_request() {
    let index = build_sharded(RebuildPolicy::default());
    let snapshot = index.snapshot();
    let (server, _writer) = ShardedWriter::new(index);

    let requests = vec![
        QueryRequest::in_database(0, QUERY_K),
        QueryRequest::out_of_sample(vec![0.2, 0.05], QUERY_K),
        QueryRequest::in_database(30, QUERY_K),
        QueryRequest::in_database(9999, QUERY_K), // unknown id
        QueryRequest::out_of_sample(vec![1.0], QUERY_K), // wrong dimension
        QueryRequest::in_database(1, 0),          // zero k
        QueryRequest::in_database(1, QUERY_K),
    ];
    let answers = server.serve_batch(&requests);

    let mut ws = mogul_core::ShardedWorkspace::new();
    for (i, id) in [(0usize, 0usize), (2, 30), (6, 1)] {
        let got = answers[i].as_ref().unwrap().top_k();
        let want = snapshot.query_by_id_in(&mut ws, id, QUERY_K).unwrap();
        assert_eq!(got, &want, "request {i}");
    }
    let got = answers[1].as_ref().unwrap().out_of_sample().unwrap();
    let want = snapshot
        .query_by_feature_in(&mut ws, &[0.2, 0.05], QUERY_K)
        .unwrap();
    assert_eq!(got.top_k, want.top_k);
    for i in [3, 4, 5] {
        assert!(
            matches!(answers[i], Err(ServeError::BadRequest { .. })),
            "request {i} must be rejected at admission: {:?}",
            answers[i]
        );
    }
}

/// Inserts routed to shard 0 never dirty shard 1: its snapshot epoch stays
/// at 0 and it carries no rebuild debt — and `rebuild()` refactorizes only
/// the dirty shard, so maintenance cost is per-shard.
#[test]
fn updates_only_dirty_their_owning_shard() {
    let index = build_sharded(RebuildPolicy::never());
    let (server, writer) = ShardedWriter::new(index);

    let mut inserted = Vec::new();
    for step in 0..3 {
        let report = writer
            .apply_delta(IndexDelta::new().insert(vec![0.5 + 0.01 * step as f64, 0.1]))
            .unwrap();
        inserted.push(report.inserted[0]);
    }
    let snapshot = server.snapshot();
    let epochs = snapshot.shard_epochs();
    assert_eq!(epochs[1], 0, "untouched shard must stay at epoch 0");
    assert_eq!(epochs[0], 3, "owning shard advances once per delta");

    // All three landed in shard 0 (the router agrees), which alone carries
    // the debt the writer reports.
    for &id in &inserted {
        assert_eq!(snapshot.shard_of(id), Some(0));
    }
    let [dirty, clean] = snapshot.shards() else {
        panic!("two shards")
    };
    assert!(clean.is_clean(), "clean shard carries no debt");
    assert_eq!(clean.correction_rank(), 0);
    assert!(dirty.correction_rank() > 0, "dirty shard carries the debt");
    let debt = writer.debt();
    assert!(debt.support > 0);
    assert_eq!(debt.correction_rank, dirty.correction_rank());
    assert_eq!(debt.live_items, snapshot.len());

    // The rebuild pays only shard 0: it comes back clean, shard 1's epoch
    // does not move, and the sharded epoch advances by exactly one.
    let report = writer.rebuild().unwrap();
    assert_eq!(report.rebuilt_shards, vec![0]);
    assert_eq!(report.epoch, snapshot.epoch() + 1);
    let epochs = server.snapshot().shard_epochs();
    assert_eq!(epochs, vec![4, 0]);
    assert!(server.snapshot().is_clean());
    assert_eq!(writer.debt().support, 0);
}

/// In-database queries touch exactly one shard and out-of-sample queries
/// probe only the configured nearest shards: the scatter statistics must
/// report at least one shard pruned.
#[test]
fn scatter_stats_report_skipped_shards() {
    let index = build_sharded(RebuildPolicy::default());
    let (server, _writer) = ShardedWriter::new(index);

    let (_, stats) = server
        .query_with_stats(&QueryRequest::in_database(0, QUERY_K))
        .unwrap();
    assert_eq!(stats.shards_total, 2);
    assert_eq!(stats.shards_probed, 1);
    assert!(
        stats.shards_skipped >= 1,
        "in-db query must skip the foreign shard"
    );
    assert!(
        stats.search.nodes_scored > 0,
        "the owning shard's search counters must reach the caller"
    );

    // shard_probes defaults to 1: the scatter prunes the far shard.
    let (response, stats) = server
        .query_with_stats(&QueryRequest::out_of_sample(vec![0.2, 0.05], QUERY_K))
        .unwrap();
    assert!(
        stats.shards_skipped >= 1,
        "out-of-sample scatter must prune the far shard"
    );
    assert!(
        response.top_k().nodes().iter().all(|&id| id < 24),
        "answers must come from the near shard"
    );
}

/// The torn-merge detector: batches with duplicated requests race a writer
/// that interleaves routed inserts and removals; a tiny per-shard
/// [`RebuildPolicy`] makes the shards refactorize one at a time under the
/// readers.
/// Duplicates inside one batch must answer bit-identically (one snapshot,
/// therefore one epoch per shard, for the whole batch), and the epoch
/// observed by each reader must be monotone.
///
/// The overlap is forced, not hoped for: the writer starts only once every
/// reader has completed a batch, and keeps stepping until every reader has
/// seen the epoch advance [`MIN_EPOCHS_SEEN`] times (or the step bound trips
/// the final assertion) — in release builds the base 40 steps alone finish
/// before a reader's first batch does.
#[test]
fn batches_racing_shard_rebuilds_never_tear() {
    const READERS: usize = 3;
    const BASE_STEPS: usize = 40;
    const MAX_STEPS: usize = 4_000;
    const MIN_EPOCHS_SEEN: usize = 3;

    // Tiny support ceiling: corrected epochs and per-shard refactorizations
    // (each shard on its own schedule) both occur during the run.
    let index = build_sharded(RebuildPolicy {
        max_support: 6,
        max_support_fraction: 1.0,
    });
    let (server, writer) = ShardedWriter::new(index);
    let writer = Arc::new(writer);
    let done = Arc::new(AtomicBool::new(false));
    // Each reader sends once, after its first batch, and drops its sender; a
    // reader that panics first drops it too, so the writer never waits on a
    // dead thread.
    let (warmed_up_tx, warmed_up_rx) = mpsc::channel::<()>();
    // Per reader: how many times it saw the epoch advance between batches.
    let epochs_seen: Arc<Vec<AtomicUsize>> =
        Arc::new((0..READERS).map(|_| AtomicUsize::new(0)).collect());

    let mut readers = Vec::new();
    for reader in 0..READERS {
        let server = Arc::clone(&server);
        let done = Arc::clone(&done);
        let mut warmed_up = Some(warmed_up_tx.clone());
        let epochs_seen = Arc::clone(&epochs_seen);
        readers.push(thread::spawn(move || {
            let probe = reader % 6;
            let mut last_epoch = server.epoch();
            let mut batches = 0usize;
            while !done.load(Ordering::Relaxed) {
                let requests = vec![
                    QueryRequest::in_database(probe, QUERY_K),
                    QueryRequest::out_of_sample(vec![0.3, 0.07], QUERY_K),
                    QueryRequest::in_database(probe, QUERY_K),
                    QueryRequest::out_of_sample(vec![0.3, 0.07], QUERY_K),
                ];
                let answers = server.serve_batch(&requests);
                let a0 = answers[0].as_ref().expect("probe ids are never removed");
                let a2 = answers[2].as_ref().expect("probe ids are never removed");
                assert_eq!(
                    a0.top_k(),
                    a2.top_k(),
                    "duplicate in-db requests in one batch disagreed: torn merge"
                );
                let b1 = answers[1].as_ref().unwrap().top_k();
                let b3 = answers[3].as_ref().unwrap().top_k();
                assert_eq!(
                    b1, b3,
                    "duplicate OOS requests in one batch disagreed: torn merge"
                );

                let epoch = server.epoch();
                assert!(
                    epoch >= last_epoch,
                    "epoch went backwards: {epoch} < {last_epoch}"
                );
                if epoch > last_epoch {
                    epochs_seen[reader].fetch_add(1, Ordering::Relaxed);
                }
                last_epoch = epoch;
                batches += 1;
                if let Some(tx) = warmed_up.take() {
                    tx.send(()).expect("the writer waits for every reader");
                }
            }
            batches
        }));
    }
    drop(warmed_up_tx);
    assert_eq!(
        warmed_up_rx.iter().count(),
        READERS,
        "a reader failed its first batch"
    );

    // Writer: insert into alternating clusters (so both shards change and
    // both answers drift between epochs) and, once `LIVE` inserts are
    // pending, remove the oldest — inserted `LIVE` steps ago, so into the
    // same shard: every delta touches one shard. Debt accumulates per shard
    // until the policy rebuilds that shard alone.
    const LIVE: usize = 6;
    let mut pending = std::collections::VecDeque::new();
    let (mut rebuilt, mut corrected) = ([false; 2], false);
    for step in 0..MAX_STEPS {
        let overlapped = epochs_seen
            .iter()
            .all(|seen| seen.load(Ordering::Relaxed) >= MIN_EPOCHS_SEEN);
        // A reader only finishes before `done` by failing an assertion.
        if (step >= BASE_STEPS && overlapped) || readers.iter().any(|r| r.is_finished()) {
            break;
        }
        let near_zero = step % 2 == 0;
        let drift = 0.005 * (step % BASE_STEPS) as f64;
        let feature = if near_zero {
            vec![0.4 + drift, 0.06]
        } else {
            vec![100.4 + drift, 9.06]
        };
        let mut delta = IndexDelta::new();
        delta.insert(feature);
        if pending.len() == LIVE {
            delta.remove(pending.pop_front().unwrap());
        }
        let report = writer.apply_delta(&delta).unwrap();
        pending.push_back(report.inserted[0]);
        assert_eq!(report.touched_shards.len(), 1, "one shard per delta");
        for &shard in &report.rebuilt_shards {
            rebuilt[shard] = true;
        }
        corrected |= writer.debt().correction_rank > 0;
    }
    done.store(true, Ordering::Relaxed);

    for (reader, handle) in readers.into_iter().enumerate() {
        let batches = handle
            .join()
            .expect("reader panicked (tearing assertion failed)");
        let seen = epochs_seen[reader].load(Ordering::Relaxed);
        assert!(
            seen >= MIN_EPOCHS_SEEN,
            "reader {reader} saw the epoch advance {seen} times over {batches} batches: \
             no real overlap with the writer within {MAX_STEPS} steps"
        );
    }

    assert_eq!(
        rebuilt, [true; 2],
        "every shard must rebuild under the readers"
    );
    assert!(
        corrected,
        "corrected epochs must occur between the rebuilds"
    );

    // Post-race sanity: the final published snapshot and the writer's own
    // state agree shard by shard.
    let snapshot = server.snapshot();
    let debt = writer.debt();
    assert_eq!(debt.live_items, snapshot.len());
    assert_eq!(
        Some(debt.correction_rank),
        snapshot.shards().iter().map(|s| s.correction_rank()).max()
    );
}
