//! Serving-layer throughput: queries/sec as a function of worker count and
//! batch size over one shared, immutable index (the `mogul-serve` crate).
//!
//! This is the scaling story the ROADMAP's north star cares about: per-query
//! work is `O(n)` substitution + pruning over read-only state, so throughput
//! should grow near-linearly with workers until the machine runs out of
//! cores. Besides the criterion timings, the bench prints an explicit
//! queries/sec table (with the speedup over one worker) because that is the
//! number the acceptance criteria and CHANGES.md track.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mogul_core::{OutOfSampleIndex, RetrievalEngine};
use mogul_data::sift::{sift_like, SiftLikeConfig};
use mogul_serve::{QueryRequest, QueryServer, ServeOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The large synthetic scenario: a SIFT-like descriptor collection with a
/// held-out out-of-sample workload, indexed once and shared by every server.
fn build_scenario() -> (Arc<OutOfSampleIndex>, Vec<QueryRequest>) {
    let dataset = sift_like(&SiftLikeConfig {
        num_points: 12_000,
        num_words: 80,
        dim: 32,
        ..Default::default()
    })
    .expect("generate descriptors");
    let (db, held_out) = dataset.split_out_queries(80, 11).expect("split queries");
    let engine = RetrievalEngine::builder()
        .knn_k(5)
        .approximate_graph(110, 4)
        .build(db.features().to_vec())
        .expect("build retrieval engine");

    let mut requests = Vec::new();
    for (i, (feature, _)) in held_out.iter().enumerate() {
        requests.push(QueryRequest::in_database(i * 31 % db.len(), 10));
        requests.push(QueryRequest::out_of_sample(feature.clone(), 10));
    }
    (Arc::new(engine.into_out_of_sample()), requests)
}

fn bench_serving(c: &mut Criterion) {
    let (index, requests) = build_scenario();

    // Explicit throughput table: queries/sec per worker count.
    println!(
        "\nserving throughput ({} mixed requests/batch)",
        requests.len()
    );
    let rounds = 3usize;
    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let server = QueryServer::new(Arc::clone(&index), ServeOptions::with_workers(workers));
        server.serve_batch(&requests); // warm the workspace pool
        let start = Instant::now();
        for _ in 0..rounds {
            for answer in server.serve_batch(&requests) {
                answer.expect("query failed");
            }
        }
        let qps = (rounds * requests.len()) as f64 / start.elapsed().as_secs_f64();
        let speedup = qps / *baseline.get_or_insert(qps);
        println!("  {workers} worker(s): {qps:>9.0} queries/sec  ({speedup:.2}x vs 1 worker)");
    }

    let mut group = c.benchmark_group("serving");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    // Per-batch latency vs. worker count (full mixed batch).
    for workers in [1usize, 2, 4, 8] {
        let server = QueryServer::new(Arc::clone(&index), ServeOptions::with_workers(workers));
        server.serve_batch(&requests);
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| server.serve_batch(&requests))
        });
    }

    // Per-batch latency vs. batch size (fixed 4 workers).
    let server = QueryServer::new(Arc::clone(&index), ServeOptions::with_workers(4));
    server.serve_batch(&requests);
    for batch_size in [1usize, 16, 64, requests.len()] {
        let slice = &requests[..batch_size.min(requests.len())];
        group.bench_with_input(
            BenchmarkId::new("batch_size", slice.len()),
            &batch_size,
            |b, _| b.iter(|| server.serve_batch(slice)),
        );
    }

    // One core over a homogeneous in-database batch: full-width panels,
    // the traffic shape the panel engine targets. The human-readable
    // batch-size table lives in `examples/serving.rs`.
    let n = index.index().num_nodes();
    let homogeneous: Vec<QueryRequest> = (0..32)
        .map(|i| QueryRequest::in_database((i * 131) % n, 10))
        .collect();
    let server = QueryServer::new(Arc::clone(&index), ServeOptions::with_workers(1));
    server.serve_batch(&homogeneous);
    group.bench_with_input(BenchmarkId::new("panel_b32", 32), &32usize, |b, _| {
        b.iter(|| server.serve_batch(&homogeneous))
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
