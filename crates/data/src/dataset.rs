//! The labelled feature-vector dataset type shared by all generators.

use crate::{DataError, Result};
use mogul_sparse::FeatureMatrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Held-out query points returned by [`Dataset::split_out_queries`], each as
/// a `(feature vector, ground-truth label)` pair.
pub type HeldOutQueries = Vec<(Vec<f64>, usize)>;

/// A labelled dataset of dense feature vectors, held in one
/// [`FeatureMatrix`] (so they are rectangular and finite by construction).
///
/// `labels[i]` is the ground-truth class of point `i` (e.g. the COIL object
/// id); it is what the paper's *retrieval precision* metric is measured
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    features: FeatureMatrix,
    labels: Vec<usize>,
}

impl Dataset {
    /// Create a dataset: one label per feature vector.
    pub fn new(
        name: impl Into<String>,
        features: FeatureMatrix,
        labels: Vec<usize>,
    ) -> Result<Self> {
        if features.len() != labels.len() {
            return Err(DataError::InvalidInput(format!(
                "{} features but {} labels",
                features.len(),
                labels.len()
            )));
        }
        Ok(Dataset {
            name: name.into(),
            features,
            labels,
        })
    }

    /// Dataset name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` when the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.dim()
    }

    /// All feature vectors.
    pub fn features(&self) -> &FeatureMatrix {
        &self.features
    }

    /// All ground-truth labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature vector of point `i`.
    pub fn feature(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// Ground-truth label of point `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Number of distinct labels.
    pub fn num_classes(&self) -> usize {
        let mut labels: Vec<usize> = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Number of points carrying each label (indexed by label value).
    pub fn class_sizes(&self) -> Vec<usize> {
        let max = self.labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut sizes = vec![0usize; max];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Split the dataset into an in-database part and `num_queries` held-out
    /// points used as out-of-sample queries (Section 4.6.2 of the paper).
    ///
    /// The held-out points are sampled uniformly at random (deterministically
    /// from `seed`) and returned together with their ground-truth labels.
    pub fn split_out_queries(
        &self,
        num_queries: usize,
        seed: u64,
    ) -> Result<(Dataset, HeldOutQueries)> {
        if num_queries >= self.len() {
            return Err(DataError::InvalidInput(format!(
                "cannot hold out {num_queries} queries from {} points",
                self.len()
            )));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(&mut rng);
        let held: std::collections::HashSet<usize> =
            indices[..num_queries].iter().copied().collect();

        let (queries, kept): (Vec<usize>, Vec<usize>) =
            (0..self.len()).partition(|i| held.contains(i));
        let db = Dataset::new(
            format!("{}-db", self.name),
            self.features.select_rows(kept.iter().copied()),
            kept.iter().map(|&i| self.labels[i]).collect(),
        )?;
        let queries = queries
            .into_iter()
            .map(|i| (self.feature(i).to_vec(), self.labels[i]))
            .collect();
        Ok((db, queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features =
            FeatureMatrix::from_vec(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]).unwrap();
        Dataset::new("toy", features, vec![0, 0, 1, 1]).unwrap()
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.name(), "toy");
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.label(2), 1);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.class_sizes(), vec![2, 2]);
        assert_eq!(d.feature(3), &[5.0, 5.0]);
    }

    #[test]
    fn validation() {
        // Ragged and non-finite rows cannot reach a dataset: the matrix
        // constructor rejects them (see `mogul_sparse::features`).
        let one = FeatureMatrix::from_vec(1, vec![1.0]).unwrap();
        assert!(Dataset::new("bad", one, vec![0, 1]).is_err());
        let empty = FeatureMatrix::from_vec(3, Vec::new()).unwrap();
        assert!(Dataset::new("empty", empty, vec![]).is_ok());
    }

    #[test]
    fn out_of_sample_split() {
        let d = toy();
        let (db, queries) = d.split_out_queries(1, 3).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].0.len(), 2);
        // Deterministic for a fixed seed.
        let (db2, queries2) = d.split_out_queries(1, 3).unwrap();
        assert_eq!(db, db2);
        assert_eq!(queries, queries2);
        // Too many queries rejected.
        assert!(d.split_out_queries(4, 0).is_err());
    }
}
