//! `IndexBuilder` on a larger collection, using the approximate k-NN graph
//! construction (the exact scan's pivot groups under a probe budget) so the
//! indexing step stays fast as the collection grows.
//!
//! ```text
//! cargo run --example large_scale_engine --release
//! ```

use mogul_suite::core::IndexBuilder;
use mogul_suite::data::sift::{sift_like, SiftLikeConfig};
use std::time::Instant;

fn main() {
    // An INRIA-like descriptor collection (quantized SIFT-style vectors).
    let dataset = sift_like(&SiftLikeConfig {
        num_points: 20_000,
        num_words: 120,
        dim: 64,
        ..Default::default()
    })
    .expect("generate descriptors");
    println!(
        "collection: {} descriptors, {} visual words, {} dimensions",
        dataset.len(),
        dataset.num_classes(),
        dataset.dim()
    );

    // Index with the approximate k-NN graph: each point scans its own pivot
    // group and the 3 whose pivots are nearest, of ≈ sqrt(n) groups.
    let build_start = Instant::now();
    let snapshot = IndexBuilder::new()
        .knn_k(5)
        .approximate_graph(4)
        .build(dataset.features())
        .expect("build index")
        .snapshot();
    let index = snapshot.base().index();
    println!(
        "indexed in {:.2} s ({} clusters, {} non-zeros in L, {:.1} bytes/item)",
        build_start.elapsed().as_secs_f64(),
        index.ordering().num_clusters(),
        index.precompute_stats().l_nnz,
        index.memory_bytes() as f64 / dataset.len() as f64,
    );

    // In-collection queries.
    let query_start = Instant::now();
    let num_queries = 200usize;
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in (0..dataset.len()).step_by(dataset.len() / num_queries) {
        let top = snapshot.query_by_id(q, 10).expect("query");
        for node in top.nodes() {
            total += 1;
            if dataset.label(node) == dataset.label(q) {
                hits += 1;
            }
        }
    }
    let per_query = query_start.elapsed().as_secs_f64() / num_queries as f64;
    println!(
        "{num_queries} queries: {:.1} us/query, retrieval precision {:.3}",
        per_query * 1e6,
        hits as f64 / total as f64
    );

    // One out-of-sample query (a descriptor that was never indexed).
    let novel: Vec<f64> = dataset
        .feature(7)
        .iter()
        .map(|v| (v + 3.0).min(255.0))
        .collect();
    let oos = snapshot
        .query_by_feature(&novel, 10)
        .expect("out-of-sample query");
    println!(
        "out-of-sample query: {:.1} us nearest-neighbour + {:.1} us top-k, {} results",
        oos.nearest_neighbor_secs * 1e6,
        oos.top_k_secs * 1e6,
        oos.top_k.len()
    );
}
