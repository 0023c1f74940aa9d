//! Integration test of the out-of-sample query pipeline (Section 4.6.2):
//! dataset split → graph/index over the database only → queries with held-out
//! features, compared against EMR's dynamic-update path.

use mogul_suite::core::out_of_sample::OutOfSampleConfig;
use mogul_suite::core::{
    EmrConfig, EmrSolver, MogulConfig, MogulIndex, MrParams, OutOfSampleIndex,
};
use mogul_suite::data::coil::{coil_like, CoilLikeConfig};
use mogul_suite::graph::knn::{knn_graph, KnnConfig};
use std::sync::Arc;

#[test]
fn out_of_sample_pipeline_retrieves_the_correct_objects() {
    let dataset = coil_like(&CoilLikeConfig {
        num_objects: 8,
        poses_per_object: 20,
        dim: 16,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    let (db, held_out) = dataset.split_out_queries(8, 99).unwrap();
    let graph = knn_graph(db.features(), KnnConfig::with_k(5)).unwrap();
    let params = MrParams::default();

    let index = MogulIndex::build(
        &graph,
        MogulConfig {
            params,
            ..MogulConfig::default()
        },
    )
    .unwrap();
    let features = Arc::new(db.features().clone());
    let oos = OutOfSampleIndex::new(index, features, OutOfSampleConfig::default()).unwrap();
    let emr = EmrSolver::new(db.features(), params, EmrConfig::with_anchors(20)).unwrap();

    let mut mogul_hits = 0usize;
    let mut emr_hits = 0usize;
    let mut total = 0usize;
    for (feature, label) in &held_out {
        let mogul_result = oos.query(feature, 5).unwrap();
        let emr_result = emr.top_k_for_feature(feature, 5).unwrap();
        assert_eq!(mogul_result.top_k.len(), 5);
        assert_eq!(emr_result.len(), 5);
        assert!(mogul_result.nearest_neighbor_secs >= 0.0);
        assert!(mogul_result.top_k_secs >= 0.0);
        for node in mogul_result.top_k.nodes() {
            total += 1;
            if db.label(node) == *label {
                mogul_hits += 1;
            }
        }
        for node in emr_result.nodes() {
            if db.label(node) == *label {
                emr_hits += 1;
            }
        }
    }
    let mogul_precision = mogul_hits as f64 / total as f64;
    let emr_precision = emr_hits as f64 / total as f64;
    assert!(
        mogul_precision > 0.7,
        "Mogul out-of-sample precision too low: {mogul_precision}"
    );
    // Not a strict ordering requirement, but both must produce signal.
    assert!(
        emr_precision > 0.2,
        "EMR out-of-sample precision suspicious: {emr_precision}"
    );
}

#[test]
fn queries_far_from_every_cluster_still_return_k_results() {
    let dataset = coil_like(&CoilLikeConfig {
        num_objects: 5,
        poses_per_object: 15,
        dim: 8,
        ..Default::default()
    })
    .unwrap();
    let graph = knn_graph(dataset.features(), KnnConfig::with_k(5)).unwrap();
    let index = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
    let oos = OutOfSampleIndex::new(
        index,
        Arc::new(dataset.features().clone()),
        OutOfSampleConfig {
            num_neighbors: 3,
            cluster_probes: 2,
        },
    )
    .unwrap();
    // A query far outside the data distribution.
    let far_query = vec![1e3; dataset.dim()];
    let result = oos.query(&far_query, 7).unwrap();
    assert!(result.top_k.len() <= 7);
    assert!(!result.neighbors.is_empty());
}
