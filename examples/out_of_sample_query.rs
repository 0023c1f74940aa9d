//! Out-of-sample queries: retrieve from the database with a query image that
//! is *not* part of the k-NN graph (Section 4.6.2 / Table 2 of the paper).
//!
//! ```text
//! cargo run --example out_of_sample_query --release
//! ```

use mogul_suite::core::out_of_sample::OutOfSampleConfig;
use mogul_suite::core::{MogulConfig, MogulIndex, MrParams, OutOfSampleIndex};
use mogul_suite::data::coil::{coil_like, CoilLikeConfig};
use mogul_suite::graph::knn::{knn_graph, KnnConfig};
use std::sync::Arc;

fn main() {
    // Generate a collection and hold out 10 images as never-indexed queries.
    let dataset = coil_like(&CoilLikeConfig {
        num_objects: 15,
        poses_per_object: 30,
        dim: 32,
        ..Default::default()
    })
    .expect("generate dataset");
    let (database, held_out) = dataset.split_out_queries(10, 42).expect("hold out queries");
    println!(
        "database: {} images   held-out queries: {}",
        database.len(),
        held_out.len()
    );

    // Index only the database images.
    let graph = knn_graph(database.features(), KnnConfig::with_k(5)).expect("knn graph");
    let index = MogulIndex::build(
        &graph,
        MogulConfig {
            params: MrParams::default(),
            ..MogulConfig::default()
        },
    )
    .expect("mogul index");
    let oos = OutOfSampleIndex::new(
        index,
        Arc::new(database.features().clone()),
        OutOfSampleConfig::default(),
    )
    .expect("out-of-sample index");

    // Answer each held-out query and report the Table-2 style breakdown.
    let mut nn_ms = 0.0;
    let mut topk_ms = 0.0;
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, (feature, label)) in held_out.iter().enumerate() {
        let result = oos.query(feature, 5).expect("out-of-sample query");
        nn_ms += result.nearest_neighbor_secs * 1e3;
        topk_ms += result.top_k_secs * 1e3;
        let hits = result
            .top_k
            .nodes()
            .iter()
            .filter(|&&n| database.label(n) == *label)
            .count();
        correct += hits;
        total += result.top_k.len();
        println!(
            "query {i}: true object {label:>2}  retrieved objects {:?}  ({} clusters pruned)",
            result
                .top_k
                .nodes()
                .iter()
                .map(|&n| database.label(n))
                .collect::<Vec<_>>(),
            result.stats.clusters_pruned
        );
    }
    let q = held_out.len() as f64;
    println!("\nbreakdown per query (Table 2 of the paper):");
    println!("  nearest neighbor : {:.3} ms", nn_ms / q);
    println!("  top-k search     : {:.3} ms", topk_ms / q);
    println!("  overall          : {:.3} ms", (nn_ms + topk_ms) / q);
    println!(
        "  retrieval precision: {:.3}",
        correct as f64 / total as f64
    );
}
