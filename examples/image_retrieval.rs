//! Image retrieval benchmark scenario: compare Mogul against the exact
//! inverse-matrix solution and the EMR baseline on a COIL-like collection,
//! reporting the paper's two accuracy metrics (P@k and retrieval precision)
//! and the per-query search time.
//!
//! ```text
//! cargo run --example image_retrieval --release
//! ```

use mogul_suite::core::{
    EmrConfig, EmrSolver, InverseSolver, MogulConfig, MogulIndex, MrParams, Ranker,
};
use mogul_suite::data::coil::{coil_like, CoilLikeConfig};
use mogul_suite::eval::metrics::{mean, precision_at_k, retrieval_precision};
use mogul_suite::eval::timer::{format_secs, time_alternating, REPETITIONS};
use mogul_suite::graph::knn::{knn_graph, KnnConfig};

fn main() {
    let k = 5usize;
    let dataset = coil_like(&CoilLikeConfig {
        num_objects: 20,
        poses_per_object: 36,
        dim: 32,
        ..Default::default()
    })
    .expect("generate dataset");
    let graph = knn_graph(dataset.features(), KnnConfig::with_k(5)).expect("knn graph");
    let params = MrParams::default();
    let queries: Vec<usize> = (0..dataset.len()).step_by(dataset.len() / 20).collect();

    println!(
        "image retrieval on {} images ({} objects), top-{k}\n",
        dataset.len(),
        dataset.num_classes()
    );

    // Exact reference (the O(n^3) approach Mogul replaces).
    let inverse = InverseSolver::new(&graph, params).expect("inverse solver");
    let reference: Vec<_> = queries
        .iter()
        .map(|&q| inverse.top_k(q, k).expect("inverse top-k"))
        .collect();

    let mogul = MogulIndex::build(
        &graph,
        MogulConfig {
            params,
            ..MogulConfig::default()
        },
    )
    .expect("mogul index");
    let emr = EmrSolver::new(dataset.features(), params, EmrConfig::with_anchors(10))
        .expect("emr solver");

    let methods: [(&str, &dyn Ranker); 3] = [
        ("Mogul", &mogul),
        ("EMR(d=10)", &emr),
        ("Inverse", &inverse),
    ];
    // The three methods alternate over the rounds; each reports its median.
    let secs = time_alternating(REPETITIONS, methods.len(), |m| {
        for &q in &queries {
            std::hint::black_box(methods[m].1.top_k(q, k).expect("search"));
        }
    });
    for ((name, ranker), secs) in methods.into_iter().zip(secs) {
        let mut p_at_k = Vec::new();
        let mut retrieval = Vec::new();
        for (qi, &q) in queries.iter().enumerate() {
            let top = ranker.top_k(q, k).expect("search");
            p_at_k.push(precision_at_k(&top, &reference[qi]));
            retrieval.push(
                retrieval_precision(&top, dataset.labels(), dataset.label(q))
                    .expect("retrieval precision"),
            );
        }
        println!(
            "{name:<10}  P@{k} = {:.3}   retrieval precision = {:.3}   search time = {}",
            mean(&p_at_k),
            mean(&retrieval),
            format_secs(secs / queries.len() as f64)
        );
    }

    println!(
        "\n(the paper's Figure 2/3 shape: Mogul ≈ Inverse in quality, EMR with few anchors \
         is less accurate; Figure 1 shape: Mogul is orders of magnitude faster than Inverse)"
    );
}
