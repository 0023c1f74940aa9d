//! Cold-start serving: a `QueryServer` warm-started from an index file must
//! answer exactly like the server whose index was saved, stable ids
//! included, and `IndexWriter` checkpointing must survive a simulated
//! process restart.

use mogul_core::persist;
use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy};
use mogul_serve::{IndexWriter, QueryRequest, QueryServer, ServeOptions};
use std::path::PathBuf;

fn features() -> Vec<Vec<f64>> {
    (0..30)
        .map(|i| {
            let blob = (i % 3) as f64;
            vec![
                blob * 6.0 + ((i * 13) % 7) as f64 / 7.0,
                blob * 6.0 + ((i * 29) % 11) as f64 / 11.0,
            ]
        })
        .collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mogul_serve_{tag}_{}.mog1", std::process::id()))
}

#[test]
fn warm_started_server_matches_the_in_memory_server() {
    let snapshot = IndexBuilder::new()
        .knn_k(4)
        .build(features())
        .unwrap()
        .snapshot();
    let path = temp_path("index");
    persist::save_index(snapshot.base(), &path).unwrap();

    let live = QueryServer::from_snapshot(snapshot, ServeOptions::with_workers(2));
    let cold = QueryServer::warm_start(&path, ServeOptions::with_workers(2)).unwrap();
    assert_eq!(cold.len(), live.len());
    assert_eq!(cold.epoch(), 0);

    // A mixed batch answers identically on both servers.
    let mut batch = Vec::new();
    for q in [0usize, 7, 19, 29] {
        batch.push(QueryRequest::in_database(q, 5));
    }
    batch.push(QueryRequest::out_of_sample(vec![3.2, 3.4], 5));
    let a = live.serve_batch(&batch);
    let b = cold.serve_batch(&batch);
    for (x, y) in a.iter().zip(b.iter()) {
        let x = x.as_ref().unwrap();
        let y = y.as_ref().unwrap();
        assert_eq!(x.top_k(), y.top_k());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_after_rebuild_survives_a_restart_with_stable_ids() {
    let path = temp_path("checkpoint");
    let index = IndexBuilder::new()
        .knn_k(3)
        // Tiny debt ceiling: the first apply triggers a rebuild, which is
        // what fires the automatic checkpoint.
        .rebuild_policy(RebuildPolicy {
            max_support: 1,
            max_support_fraction: 1.0,
        })
        .build(features())
        .unwrap();
    let (server, writer) = IndexWriter::new(index, ServeOptions::with_workers(1));
    writer.set_checkpoint(Some(path.clone()));
    assert_eq!(writer.checkpoint_path(), Some(path.clone()));

    // Remove an item and insert a new one: after this the dense node space
    // no longer matches the stable ids, which is exactly what the
    // checkpoint must preserve.
    let report = writer
        .apply_delta(IndexDelta::new().remove(4).insert(vec![0.5, 0.3]))
        .unwrap();
    assert!(report.rebuilt, "tiny debt ceiling should force a rebuild");
    assert_eq!(report.inserted, vec![30]);
    assert!(writer.take_checkpoint_error().is_none());
    assert!(path.exists(), "auto-checkpoint did not write the file");

    // "Restart": warm-start a fresh server+writer from the checkpoint.
    let (cold_server, cold_writer) =
        IndexWriter::warm_start(&path, ServeOptions::with_workers(1)).unwrap();
    assert_eq!(cold_server.epoch(), server.epoch());
    assert_eq!(cold_server.len(), server.len());
    let snapshot = cold_server.snapshot();
    assert!(!snapshot.contains(4), "removed id resurfaced after restart");
    assert!(snapshot.contains(30), "inserted id lost after restart");
    for id in snapshot.item_ids() {
        assert_eq!(
            server.query_by_id(id, 5).unwrap(),
            cold_server.query_by_id(id, 5).unwrap(),
            "cold-start answers diverged at id {id}"
        );
    }
    // The warm-started writer keeps checkpointing to the same file.
    assert_eq!(cold_writer.checkpoint_path(), Some(path.clone()));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_now_forces_a_clean_epoch() {
    let path = temp_path("now");
    let index = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy::never())
        .build(features())
        .unwrap();
    let (server, writer) = IndexWriter::new(index, ServeOptions::with_workers(1));

    // Without a configured path, checkpoint_now is a typed error.
    assert!(writer.checkpoint_now().is_err());
    writer.set_checkpoint(Some(path.clone()));

    // Leave the writer dirty (no rebuild policy), then checkpoint: the
    // call must refactorize first, publish the clean epoch, and save it.
    writer
        .apply_delta(IndexDelta::new().insert(vec![0.4, 0.2]))
        .unwrap();
    assert!(!server.snapshot().is_clean());
    let written = writer.checkpoint_now().unwrap();
    assert_eq!(written, path);
    assert!(server.snapshot().is_clean(), "rebuild was not published");

    let restored = persist::load_updatable(&path).unwrap();
    assert_eq!(restored.epoch(), server.epoch());
    assert_eq!(restored.len(), server.len());
    std::fs::remove_file(&path).unwrap();

    // Disabling checkpointing sticks.
    writer.set_checkpoint(None);
    assert!(writer.checkpoint_path().is_none());
    assert!(writer.checkpoint_now().is_err());
}

#[test]
fn a_successful_checkpoint_clears_a_stale_auto_checkpoint_error() {
    let index = IndexBuilder::new()
        .knn_k(3)
        .rebuild_policy(RebuildPolicy {
            max_support: 1,
            max_support_fraction: 1.0,
        })
        .build(features())
        .unwrap();
    let (_server, writer) = IndexWriter::new(index, ServeOptions::with_workers(1));

    // Point the checkpoint at an unwritable location: the rebuild-triggering
    // apply succeeds, but its best-effort auto-checkpoint fails and the
    // error is retained for monitoring.
    writer.set_checkpoint(Some(
        std::env::temp_dir()
            .join("mogul_no_such_dir")
            .join("x.mog1"),
    ));
    let report = writer
        .apply_delta(IndexDelta::new().insert(vec![0.5, 0.3]))
        .unwrap();
    assert!(report.rebuilt);
    let err = writer.take_checkpoint_error();
    assert!(err.is_some(), "auto-checkpoint failure was not recorded");

    // Recover: a good path plus an explicit checkpoint_now must leave no
    // stale error behind (checkpoint_error reflects the latest outcome).
    writer.set_checkpoint(Some(
        std::env::temp_dir()
            .join("mogul_no_such_dir")
            .join("y.mog1"),
    ));
    writer
        .apply_delta(IndexDelta::new().insert(vec![0.6, 0.1]))
        .unwrap();
    assert!(writer.take_checkpoint_error().is_some());
    let good = temp_path("recover");
    writer.set_checkpoint(Some(good.clone()));
    writer
        .apply_delta(IndexDelta::new().insert(vec![0.7, 0.2]))
        .unwrap();
    assert!(good.exists());
    let written = writer.checkpoint_now().unwrap();
    assert_eq!(written, good);
    assert!(
        writer.take_checkpoint_error().is_none(),
        "stale checkpoint error survived a successful checkpoint"
    );
    std::fs::remove_file(&good).unwrap();
}

#[test]
fn once_set_checkpoint_none_returns_no_running_update_saves_to_the_old_path() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const ROUNDS: usize = 50;
    let index = IndexBuilder::new()
        .knn_k(3)
        // No debt allowed: every apply rebuilds, so every apply
        // auto-checkpoints to the configured path.
        .rebuild_policy(RebuildPolicy {
            max_support: 0,
            max_support_fraction: 1.0,
        })
        .build(features())
        .unwrap();
    let (server, writer) = IndexWriter::new(index, ServeOptions::with_workers(1));
    let writer = Arc::new(writer);
    let path = temp_path("unset");
    let mut failed = 0;
    for _ in 0..ROUNDS {
        writer.set_checkpoint(Some(path.clone()));
        let start = server.epoch();
        let stop = Arc::new(AtomicBool::new(false));
        let applier = {
            let (writer, stop) = (Arc::clone(&writer), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Insert a point and remove it again, until told to stop (or
                // ten times, so a waiting caller gets the lock in the end).
                for _ in 0..10 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let report = writer
                        .apply_delta(IndexDelta::new().insert(vec![0.5, 0.3]))
                        .unwrap();
                    assert!(report.rebuilt);
                    let id = report.inserted[0];
                    writer.apply_delta(IndexDelta::new().remove(id)).unwrap();
                }
            })
        };
        // An apply publishes its epoch, then saves it: once the second
        // apply's epoch serves, its save is under way.
        while server.epoch() < start + 2 && !applier.is_finished() {
            std::thread::yield_now();
        }
        writer.set_checkpoint(None);
        let _ = std::fs::remove_file(&path);
        // `debt` waits for the apply that is running, if one is.
        let _ = writer.debt();
        if path.exists() {
            failed += 1;
        }
        stop.store(true, Ordering::Relaxed);
        applier.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(
        failed, 0,
        "{failed} of {ROUNDS} rounds found a save to the unset path"
    );
}
