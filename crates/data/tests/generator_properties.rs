//! Property-based tests of the synthetic dataset generators: every generated
//! dataset must be structurally valid (finite features, consistent labels)
//! and must exhibit the manifold/cluster structure the substitution argument
//! in DESIGN.md relies on (same-class points are closer on average than
//! different-class points).

use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_data::faces::{attribute_like, AttributeLikeConfig};
use mogul_data::sift::{sift_like, SiftLikeConfig};
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_data::Dataset;
use mogul_sparse::vector::squared_euclidean_unchecked;
use proptest::prelude::*;

/// Average within-class and across-class pairwise distances over a subsample.
fn class_distance_ratio(data: &Dataset) -> (f64, f64) {
    let mut within = (0.0, 0usize);
    let mut across = (0.0, 0usize);
    let step = (data.len() / 40).max(1);
    for i in (0..data.len()).step_by(step) {
        for j in (0..data.len()).step_by(step) {
            if i == j {
                continue;
            }
            let d = squared_euclidean_unchecked(data.feature(i), data.feature(j)).sqrt();
            if data.label(i) == data.label(j) {
                within.0 += d;
                within.1 += 1;
            } else {
                across.0 += d;
                across.1 += 1;
            }
        }
    }
    (
        within.0 / within.1.max(1) as f64,
        across.0 / across.1.max(1) as f64,
    )
}

fn check_validity(data: &Dataset, expected_len: usize) {
    assert_eq!(data.len(), expected_len);
    assert!(data.features().as_slice().iter().all(|v| v.is_finite()));
    assert_eq!(data.labels().len(), data.len());
    assert!(data.num_classes() >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn coil_like_generates_valid_manifolds(
        objects in 2usize..10,
        poses in 6usize..30,
        dim in 2usize..24,
        seed in 0u64..1000,
    ) {
        let data = coil_like(&CoilLikeConfig {
            num_objects: objects,
            poses_per_object: poses,
            dim,
            seed,
            ..Default::default()
        }).unwrap();
        check_validity(&data, objects * poses);
        prop_assert_eq!(data.num_classes(), objects);
        prop_assert_eq!(data.dim(), dim);
        if objects >= 3 {
            let (within, across) = class_distance_ratio(&data);
            prop_assert!(within < across, "within {within} should be < across {across}");
        }
    }

    #[test]
    fn attribute_like_generates_valid_clusters(
        people in 2usize..12,
        points in 40usize..200,
        seed in 0u64..1000,
    ) {
        let data = attribute_like(&AttributeLikeConfig {
            num_people: people,
            num_points: points.max(people),
            dim: 16,
            seed,
            ..Default::default()
        }).unwrap();
        check_validity(&data, points.max(people));
        prop_assert_eq!(data.num_classes(), people);
        prop_assert!(data.class_sizes().iter().all(|&s| s >= 1));
        let (within, across) = class_distance_ratio(&data);
        prop_assert!(within < across);
    }

    #[test]
    fn web_like_generates_valid_topics(
        points in 60usize..300,
        topics in 2usize..8,
        background in 0u32..30,
        seed in 0u64..1000,
    ) {
        let data = web_like(&WebLikeConfig {
            num_points: points,
            num_topics: topics,
            dim: 12,
            background_fraction: f64::from(background) / 100.0,
            seed,
            ..Default::default()
        }).unwrap();
        check_validity(&data, points);
        // Topics plus possibly one background class.
        prop_assert!(data.num_classes() >= topics);
        prop_assert!(data.num_classes() <= topics + 1);
    }

    #[test]
    fn sift_like_generates_valid_descriptors(
        points in 50usize..300,
        words in 2usize..10,
        seed in 0u64..1000,
    ) {
        let config = SiftLikeConfig {
            num_points: points.max(words),
            num_words: words,
            dim: 16,
            seed,
            ..Default::default()
        };
        let data = sift_like(&config).unwrap();
        check_validity(&data, points.max(words));
        prop_assert_eq!(data.num_classes(), words);
        for f in data.features().rows() {
            for &v in f {
                prop_assert!(v >= 0.0 && v <= config.max_value);
                prop_assert_eq!(v, v.round());
            }
        }
    }

    /// Held-out splits partition the dataset: sizes add up and every held-out
    /// feature/label pair comes from the original dataset.
    #[test]
    fn split_out_queries_partitions_the_dataset(
        objects in 2usize..6,
        poses in 8usize..20,
        holdout in 1usize..10,
        seed in 0u64..1000,
    ) {
        let data = coil_like(&CoilLikeConfig {
            num_objects: objects,
            poses_per_object: poses,
            dim: 8,
            seed,
            ..Default::default()
        }).unwrap();
        let holdout = holdout.min(data.len() - 1);
        let (db, queries) = data.split_out_queries(holdout, seed).unwrap();
        prop_assert_eq!(db.len() + queries.len(), data.len());
        prop_assert_eq!(queries.len(), holdout);
        for (feature, label) in &queries {
            prop_assert!(*label < objects);
            prop_assert_eq!(feature.len(), data.dim());
        }
    }
}
