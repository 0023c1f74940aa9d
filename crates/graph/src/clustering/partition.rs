//! Corpus partitioning for the sharded multi-index.
//!
//! A `ShardedIndex` (see `mogul-core::shard`) splits the collection into `S`
//! independent shards, each with its own k-NN graph, ordering and `L D Lᵀ`
//! factorization. The quality of that split decides how well scatter-gather
//! works: manifold ranking mass stays inside a feature-space neighbourhood,
//! so shards should be **cluster-aligned** — a query's neighbourhood should
//! live in one shard, letting the gather phase skip the rest.
//!
//! [`partition_points`] reuses the workspace's k-means machinery
//! ([`crate::clustering::kmeans()`]) to produce exactly `S` deterministic,
//! non-empty groups, then rebalances so every group meets a minimum size
//! (each shard must be able to build a k-NN graph and must never be emptied
//! by removals). The result is **ragged by design**: natural clusters rarely
//! have equal sizes, and the equivalence batteries exercise exactly that.

use crate::clustering::kmeans::{kmeans, KmeansConfig};
use crate::{GraphError, Result};
use mogul_sparse::vector::squared_euclidean_unchecked;
use mogul_sparse::FeatureMatrix;

/// Configuration of [`partition_points`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of groups (shards) to produce. Must be at least 1.
    pub shards: usize,
    /// Seed of the underlying k-means++ initialization; the partition is a
    /// pure function of `(points, config)`.
    pub seed: u64,
    /// Minimum group size, enforced by the rebalancing pass. Must be at
    /// least 1; the default (2) is the smallest corpus a shard's k-NN graph
    /// construction accepts.
    pub min_group_size: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            shards: 4,
            seed: 42,
            min_group_size: 2,
        }
    }
}

impl PartitionConfig {
    /// Convenience constructor fixing only the shard count.
    pub fn with_shards(shards: usize) -> Self {
        PartitionConfig {
            shards,
            ..PartitionConfig::default()
        }
    }
}

/// Split `points` into exactly `config.shards` cluster-aligned groups of
/// input positions.
///
/// Guarantees, checked by the property tests of the sharded index:
///
/// * the groups are a **partition**: every position `0..points.len()`
///   appears in exactly one group;
/// * every group holds at least `config.min_group_size` positions;
/// * positions inside each group are ascending (so shard-local ordering is
///   the input ordering restricted to the group);
/// * the result is deterministic for fixed inputs.
///
/// Grouping is Lloyd's k-means over the raw feature vectors (`k = shards`);
/// deficient groups are then topped up by moving, from the largest groups,
/// the members closest to the deficient group's centroid — a deterministic
/// repair that terminates after at most `shards · min_group_size` moves.
///
/// Errors ([`GraphError::InvalidInput`]): zero shards, a zero minimum size,
/// or fewer than `shards · min_group_size` points.
pub fn partition_points(
    points: &FeatureMatrix,
    config: &PartitionConfig,
) -> Result<Vec<Vec<usize>>> {
    if config.shards == 0 {
        return Err(GraphError::InvalidInput(
            "cannot partition into zero shards".into(),
        ));
    }
    if config.min_group_size == 0 {
        return Err(GraphError::InvalidInput(
            "minimum group size must be at least 1".into(),
        ));
    }
    let n = points.len();
    if n < config.shards * config.min_group_size {
        return Err(GraphError::InvalidInput(format!(
            "{n} points cannot fill {} shards of at least {} items each",
            config.shards, config.min_group_size
        )));
    }
    if config.shards == 1 {
        return Ok(vec![(0..n).collect()]);
    }

    let result = kmeans(
        points,
        &KmeansConfig {
            k: config.shards,
            seed: config.seed,
            ..KmeansConfig::default()
        },
    )?;
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); config.shards];
    for (pos, &label) in result.clustering.labels().iter().enumerate() {
        groups[label].push(pos);
    }

    // Rebalance: while some group is deficient, move into it the member of
    // the largest surplus group that lies closest to the deficient group's
    // centroid. Each move strictly raises Σ min(|g|, min_group_size), so the
    // loop terminates; ties break to the lower position for determinism.
    while let Some(deficient) = (0..groups.len())
        .filter(|&g| groups[g].len() < config.min_group_size)
        .min_by_key(|&g| (groups[g].len(), g))
    {
        let donor = (0..groups.len())
            .filter(|&g| g != deficient && groups[g].len() > config.min_group_size)
            .max_by_key(|&g| (groups[g].len(), usize::MAX - g))
            .expect("n >= shards * min_group_size guarantees a donor group");
        let centroid = result.centroids.row(deficient);
        let take = groups[donor]
            .iter()
            .enumerate()
            .map(|(slot, &pos)| {
                (
                    squared_euclidean_unchecked(points.row(pos), centroid),
                    pos,
                    slot,
                )
            })
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .expect("donor group is non-empty")
            .2;
        let pos = groups[donor].remove(take);
        groups[deficient].push(pos);
    }

    for group in groups.iter_mut() {
        group.sort_unstable();
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` points around each of `centers`, deterministic.
    fn blobs(centers: &[(f64, f64)], count: usize) -> FeatureMatrix {
        let mut points = Vec::new();
        for (c, &(x, y)) in centers.iter().enumerate() {
            for i in 0..count {
                points.extend([
                    x + ((i * 31 + c * 7) % 13) as f64 / 26.0,
                    y + ((i * 17 + c * 5) % 11) as f64 / 22.0,
                ]);
            }
        }
        FeatureMatrix::from_vec(2, points).unwrap()
    }

    #[test]
    fn groups_form_a_partition_and_respect_min_size() {
        let points = blobs(&[(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], 9);
        for shards in [1usize, 2, 3, 5, 7] {
            let groups = partition_points(&points, &PartitionConfig::with_shards(shards)).unwrap();
            assert_eq!(groups.len(), shards);
            let mut seen = vec![false; points.len()];
            for group in &groups {
                assert!(group.len() >= 2, "deficient group under {shards} shards");
                assert!(group.windows(2).all(|w| w[0] < w[1]), "unsorted group");
                for &pos in group {
                    assert!(!seen[pos], "position {pos} appears twice");
                    seen[pos] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "positions missing from partition");
        }
    }

    #[test]
    fn well_separated_blobs_map_to_their_own_groups() {
        let points = blobs(&[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)], 8);
        let groups = partition_points(&points, &PartitionConfig::with_shards(4)).unwrap();
        // Each group is exactly one blob (32 points, 4 blobs of 8).
        let mut sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![8, 8, 8, 8]);
        for group in &groups {
            let blob = group[0] / 8;
            assert!(
                group.iter().all(|&p| p / 8 == blob),
                "blob split: {group:?}"
            );
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let points = blobs(&[(0.0, 0.0), (10.0, 3.0)], 12);
        let a = partition_points(&points, &PartitionConfig::with_shards(3)).unwrap();
        let b = partition_points(&points, &PartitionConfig::with_shards(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        // Ragged vectors cannot reach the partition: the matrix constructor
        // rejects them (see `mogul_sparse::features`).
        let points = blobs(&[(0.0, 0.0)], 6);
        assert!(partition_points(&points, &PartitionConfig::with_shards(0)).is_err());
        assert!(partition_points(&points, &PartitionConfig::with_shards(4)).is_err());
        let bad = PartitionConfig {
            min_group_size: 0,
            ..PartitionConfig::with_shards(2)
        };
        assert!(partition_points(&points, &bad).is_err());
    }
}
