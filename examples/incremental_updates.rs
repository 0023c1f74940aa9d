//! Incremental index updates with zero-downtime serving: items are inserted
//! and removed while a query server keeps answering, each update publishing
//! a new epoch-versioned snapshot.
//!
//! ```text
//! cargo run --example incremental_updates --release
//! ```
//!
//! The walk-through mirrors the lifecycle documented in `docs/UPDATES.md`:
//! insert → Woodbury correction → rebuild-debt growth → full
//! refactorization → atomic snapshot swap.

use mogul_suite::core::update::{IndexBuilder, IndexDelta, RebuildPolicy};
use mogul_suite::data::sift::{sift_like, SiftLikeConfig};
use mogul_suite::serve::{IndexWriter, ServeOptions};
use std::time::Instant;

fn main() {
    // A SIFT-like corpus: most of it is indexed up front, the tail arrives
    // later as live inserts.
    let dataset = sift_like(&SiftLikeConfig {
        num_points: 3_000,
        num_words: 48,
        dim: 32,
        ..Default::default()
    })
    .expect("generate descriptors");
    let features = dataset.features();
    let initial = features.select_rows(0..2_800);
    let arriving: Vec<&[f64]> = (2_800..features.len()).map(|i| features.row(i)).collect();

    let build_start = Instant::now();
    let index = IndexBuilder::new()
        .knn_k(5)
        .rebuild_policy(RebuildPolicy {
            max_support: 120,
            max_support_fraction: 0.25,
        })
        .build(initial)
        .expect("build updatable index");
    println!(
        "indexed {} items in {:.2} s (epoch 0)",
        index.len(),
        build_start.elapsed().as_secs_f64()
    );

    let (server, writer) = IndexWriter::new(index, ServeOptions::default());

    // A reference query we re-run at every epoch: results may change as the
    // collection changes, but the query itself never waits for a writer.
    let probe = arriving[0];

    let mut inserted = Vec::new();
    for (round, chunk) in arriving.chunks(40).enumerate() {
        let mut delta = IndexDelta::new();
        for f in chunk {
            delta.insert(f.to_vec());
        }
        let apply_start = Instant::now();
        let report = writer.apply_delta(&delta).expect("apply updates");
        inserted.extend(report.inserted.iter().copied());
        let top = server.query_by_feature(probe, 5).expect("probe query");
        println!(
            "epoch {:>2}: +{} items in {:>6.1} ms  [{}]  debt {:>3} rows ({} live)  probe hits: {:?}",
            report.epoch,
            chunk.len(),
            apply_start.elapsed().as_secs_f64() * 1e3,
            if report.rebuilt {
                "refactorized"
            } else {
                "corrected  "
            },
            report.debt.support,
            report.debt.live_items,
            top.top_k.nodes()
        );
        if round == 1 {
            // Old snapshots stay queryable after swaps: grab one, update,
            // and show both epochs answering side by side.
            let old = server.snapshot();
            writer
                .apply_delta(IndexDelta::new().remove(inserted[0]))
                .expect("remove");
            let new = server.snapshot();
            println!(
                "         snapshot {} still serves {} items while snapshot {} serves {}",
                old.epoch(),
                old.len(),
                new.epoch(),
                new.len()
            );
        }
    }

    // Force the debt to zero: the background-style refactorization.
    let rebuild_start = Instant::now();
    let report = writer.rebuild().expect("rebuild");
    println!(
        "epoch {:>2}: full refactorization in {:.2} s — debt {} rows, snapshot clean: {}",
        report.epoch,
        rebuild_start.elapsed().as_secs_f64(),
        report.debt.support,
        server.snapshot().is_clean()
    );
    println!(
        "final collection: {} live items at epoch {}",
        server.len(),
        server.epoch()
    );
}
