//! Cluster assignments.

use crate::{GraphError, Result};

/// A partition of `n` items into clusters, stored as one label per item.
///
/// Labels are always contiguous (`0..num_clusters`); constructors renumber
/// arbitrary label sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    labels: Vec<usize>,
    num_clusters: usize,
}

impl Clustering {
    /// Build from raw labels, renumbering them to be contiguous from zero
    /// (in order of first appearance).
    pub fn from_labels(raw: &[usize]) -> Self {
        // Each raw label gets a slot below `raw.len()`: the label itself when
        // every label is below it (the case of every clustering in this
        // crate), else its rank among the distinct labels.
        let mut distinct = Vec::new();
        if raw.iter().any(|&l| l >= raw.len()) {
            distinct = raw.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
        }
        let slot = |l: usize| {
            if distinct.is_empty() {
                l
            } else {
                distinct.binary_search(&l).expect("every label is listed")
            }
        };
        let mut remap = vec![usize::MAX; raw.len()];
        let mut num_clusters = 0;
        let labels = raw
            .iter()
            .map(|&l| {
                let id = &mut remap[slot(l)];
                if *id == usize::MAX {
                    *id = num_clusters;
                    num_clusters += 1;
                }
                *id
            })
            .collect();
        Clustering {
            labels,
            num_clusters,
        }
    }

    /// The trivial clustering that puts every item in a single cluster.
    pub fn single_cluster(n: usize) -> Self {
        Clustering {
            labels: vec![0; n],
            num_clusters: if n == 0 { 0 } else { 1 },
        }
    }

    /// The discrete clustering that puts every item in its own cluster.
    pub fn singletons(n: usize) -> Self {
        Clustering {
            labels: (0..n).collect(),
            num_clusters: n,
        }
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the clustering covers zero items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Cluster label of item `i`.
    #[inline]
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Size of each cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Members of each cluster, in ascending item order.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.num_clusters];
        for (i, &l) in self.labels.iter().enumerate() {
            members[l].push(i);
        }
        members
    }

    /// `true` when items `a` and `b` share a cluster.
    pub fn same_cluster(&self, a: usize, b: usize) -> bool {
        self.labels[a] == self.labels[b]
    }

    /// Validate that the clustering covers exactly `n` items.
    pub fn check_len(&self, n: usize) -> Result<()> {
        if self.len() != n {
            return Err(GraphError::InvalidInput(format!(
                "clustering covers {} items but {} were expected",
                self.len(),
                n
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Stream};

    #[test]
    fn renumbering_is_contiguous() {
        let c = Clustering::from_labels(&[7, 3, 7, 9, 3]);
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.labels(), &[0, 1, 0, 2, 1]);
        assert_eq!(c.sizes(), vec![2, 2, 1]);
        assert!(c.same_cluster(0, 2));
        assert!(!c.same_cluster(0, 1));
    }

    #[test]
    fn renumbering_matches_first_appearance_order() {
        let mut rng = Stream::new(7);
        for len in [0, 1, 2, 9, 100, 1_000] {
            for spread in [1, 3, len.max(1), 4 * len + 1] {
                let dense: Vec<usize> = (0..len).map(|_| rng.below(spread)).collect();
                let sparse: Vec<usize> = dense.iter().map(|&l| usize::MAX - 3 * l).collect();
                for raw in [dense, sparse] {
                    assert_eq!(Clustering::from_labels(&raw), reference::from_labels(&raw));
                }
            }
        }
    }

    #[test]
    fn members_lists_are_sorted() {
        let c = Clustering::from_labels(&[1, 0, 1, 0]);
        let members = c.members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1, 3]);
    }

    #[test]
    fn trivial_clusterings() {
        let single = Clustering::single_cluster(4);
        assert_eq!(single.num_clusters(), 1);
        assert_eq!(single.sizes(), vec![4]);
        let singles = Clustering::singletons(3);
        assert_eq!(singles.num_clusters(), 3);
        assert_eq!(singles.sizes(), vec![1, 1, 1]);
        let empty = Clustering::single_cluster(0);
        assert_eq!(empty.num_clusters(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn length_validation() {
        let c = Clustering::from_labels(&[0, 1]);
        assert!(c.check_len(2).is_ok());
        assert!(c.check_len(3).is_err());
    }
}
