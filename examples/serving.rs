//! Concurrent batched serving: one shared, immutable Mogul index answering a
//! mixed in-database / out-of-sample workload across a worker pool, with
//! measured queries/sec as the worker count grows.
//!
//! The swept worker counts are derived from the host's
//! `available_parallelism`, so the example demonstrates real scaling on
//! multi-core machines instead of a hardcoded ladder; pass a number to pin
//! the maximum worker count instead:
//!
//! ```text
//! cargo run --example serving --release          # sweep 1 ..= 2·cores
//! cargo run --example serving --release -- 4     # sweep 1 ..= 4 workers
//! ```

use mogul_suite::core::IndexBuilder;
use mogul_suite::data::sift::{sift_like, SiftLikeConfig};
use mogul_suite::serve::{QueryRequest, QueryServer, ServeOptions};
use std::sync::Arc;
use std::time::Instant;

/// Worker counts to sweep: powers of two from 1 up to twice the host's
/// available parallelism (or up to the CLI override), so the point of
/// diminishing returns is always visible in the output.
fn worker_counts() -> Vec<usize> {
    let cores = mogul_suite::sparse::effective_threads(0);
    let max = match std::env::args().nth(1) {
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|&w| w > 0)
            .unwrap_or_else(|| {
                eprintln!("ignoring invalid worker count {raw:?}; using auto-detection");
                2 * cores
            }),
        None => 2 * cores,
    };
    let mut counts = Vec::new();
    let mut w = 1usize;
    while w < max {
        counts.push(w);
        w *= 2;
    }
    counts.push(max);
    counts
}

fn main() {
    // A SIFT-like descriptor collection, split into a database and a set of
    // held-out query vectors.
    let dataset = sift_like(&SiftLikeConfig {
        num_points: 6_000,
        num_words: 60,
        dim: 32,
        ..Default::default()
    })
    .expect("generate descriptors");
    let (db, held_out) = dataset.split_out_queries(60, 11).expect("split queries");
    println!(
        "database: {} descriptors ({} held out as out-of-sample queries)",
        db.len(),
        held_out.len()
    );

    let build_start = Instant::now();
    let snapshot = IndexBuilder::new()
        .knn_k(5)
        .build(db.features())
        .expect("build index")
        .snapshot();
    println!("indexed in {:.2} s", build_start.elapsed().as_secs_f64());

    // A mixed batch: every held-out vector as an out-of-sample request,
    // interleaved with in-database requests.
    let mut batch = Vec::new();
    for (i, (feature, _)) in held_out.iter().enumerate() {
        batch.push(QueryRequest::in_database(i * 31 % db.len(), 10));
        batch.push(QueryRequest::out_of_sample(feature.clone(), 10));
    }

    // One immutable snapshot shared by every server configuration.
    let rounds = 5usize;
    let mut baseline = None;
    let cores = mogul_suite::sparse::effective_threads(0);
    println!("host parallelism: {cores} (see docs/OPERATIONS.md for sizing guidance)");
    for workers in worker_counts() {
        let server =
            QueryServer::from_snapshot(Arc::clone(&snapshot), ServeOptions::with_workers(workers));
        server.serve_batch(&batch); // warm the workspace pool
        let start = Instant::now();
        for _ in 0..rounds {
            for answer in server.serve_batch(&batch) {
                answer.expect("query failed");
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let qps = (rounds * batch.len()) as f64 / secs;
        let speedup = qps / *baseline.get_or_insert(qps);
        println!(
            "{workers} worker(s): {:>8.0} queries/sec  ({speedup:.2}x vs 1 worker)",
            qps
        );
    }
    println!("answers are bit-identical at every worker count (see crates/serve tests)");

    // Batch-size scaling on a single core: homogeneous in-database batches
    // are where the panel engine shines — one traversal of the factor
    // structure per 8-wide panel instead of per query (see
    // docs/PERFORMANCE.md; `web_indb` vs `web_batch` in BENCHMARK.json tracks
    // this across commits).
    println!("\nbatch-size scaling (1 worker, in-database requests, k = 10):");
    let server = QueryServer::from_snapshot(snapshot, ServeOptions::with_workers(1));
    let n = db.len();
    let mut single = None;
    for batch_size in [1usize, 8, 32, 128] {
        let homogeneous: Vec<QueryRequest> = (0..batch_size)
            .map(|i| QueryRequest::in_database((i * 131) % n, 10))
            .collect();
        server.serve_batch(&homogeneous); // warm
        let reps = (512 / batch_size).max(4);
        let start = Instant::now();
        for _ in 0..reps {
            for answer in server.serve_batch(&homogeneous) {
                answer.expect("query failed");
            }
        }
        let qps = (reps * batch_size) as f64 / start.elapsed().as_secs_f64();
        let speedup = qps / *single.get_or_insert(qps);
        println!("  batch {batch_size:>4}: {qps:>9.0} q/s   ({speedup:.2}x vs batch 1)");
    }
    println!("a request's answer does not depend on its batch (crates/serve tests)");
}
