//! The feature store: one contiguous row-major matrix of item vectors.
//!
//! Every layer that reads feature vectors — k-NN graph construction, the
//! out-of-sample phase-1 scan, incremental inserts, the MOG1 features
//! section — reads them from a [`FeatureMatrix`]: row `i` is item `i`, all
//! rows have the same width, and every value is finite. Those three facts
//! are established by the constructors and by [`FeatureMatrix::push_row`],
//! the only ways to put a value into the matrix, so code that holds a
//! `FeatureMatrix` never re-validates: a distance over two rows cannot be
//! NaN, and a row index times the width cannot run off the buffer.
//!
//! The storage is [`DenseMatrix`]'s row-major buffer; this type adds the
//! invariants, not a second matrix implementation.
//!
//! Rows become a matrix in one place: the entry points that accept a
//! collection of vectors from outside (`knn_graph`, `IndexBuilder::build`,
//! `ShardedIndex::build`) take any [`IntoFeatureMatrix`], which packs rows
//! and passes a matrix through untouched.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use std::borrow::Cow;

/// A rectangular, finite, row-major matrix of feature vectors (`dim ≥ 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    rows: DenseMatrix,
}

fn check_finite(row: &[f64], index: usize) -> Result<()> {
    if row.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(SparseError::InvalidInput(format!(
            "feature vector {index} contains non-finite values"
        )))
    }
}

impl FeatureMatrix {
    /// Pack a slice of equal-length vectors, one row each. The width is
    /// taken from the first vector, so at least one is required.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self> {
        let dim = rows.first().map_or(0, |r| r.as_ref().len());
        if dim == 0 {
            return Err(SparseError::InvalidInput(
                "a feature matrix needs at least one vector of at least one dimension".into(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            if row.len() != dim {
                return Err(SparseError::InvalidInput(format!(
                    "feature vector {i} has dimension {} but expected {dim}",
                    row.len()
                )));
            }
            check_finite(row, i)?;
            data.extend_from_slice(row);
        }
        Ok(FeatureMatrix {
            rows: DenseMatrix::from_vec(rows.len(), dim, data)?,
        })
    }

    /// Adopt a row-major buffer of `dim`-wide rows (possibly zero of them).
    pub fn from_vec(dim: usize, data: Vec<f64>) -> Result<Self> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(SparseError::InvalidInput(format!(
                "{} feature values do not form rows of dimension {dim}",
                data.len()
            )));
        }
        for (i, row) in data.chunks_exact(dim).enumerate() {
            check_finite(row, i)?;
        }
        Ok(FeatureMatrix {
            rows: DenseMatrix::from_vec(data.len() / dim, dim, data)?,
        })
    }

    /// Number of rows (items).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.nrows()
    }

    /// `true` when the matrix holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.rows.ncols()
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.rows.row(i)
    }

    /// All rows, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.as_slice().chunks_exact(self.dim())
    }

    /// The whole row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.rows.data()
    }

    /// Every row copied out as its own vector.
    pub fn to_vec(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    /// Append one row.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        check_finite(row, self.len())?;
        self.rows.push_row(row)
    }

    /// A new matrix of the given rows of this one, in the given order.
    pub fn select_rows(&self, rows: impl IntoIterator<Item = usize>) -> FeatureMatrix {
        let dim = self.dim();
        let mut data = Vec::new();
        for i in rows {
            data.extend_from_slice(self.row(i));
        }
        FeatureMatrix {
            rows: DenseMatrix::from_vec(data.len() / dim, dim, data)
                .expect("whole rows were copied"),
        }
    }

    /// The rows regrouped for the lane kernels: tile `t` holds rows
    /// `t·lanes .. (t+1)·lanes` dimension-major, `tiles[(t·dim + d)·lanes +
    /// lane]` being coordinate `d` of row `t·lanes + lane` — the panel layout
    /// of [`triangular`](crate::triangular) with rows for lanes. The last tile
    /// is filled up with copies of the last row.
    pub fn pack_tiles(&self, lanes: usize) -> Vec<f64> {
        let n = self.len();
        self.pack_tiles_of(
            (0..n.div_ceil(lanes) * lanes).map(|row| row.min(n - 1)),
            lanes,
        )
    }

    /// [`FeatureMatrix::pack_tiles`] over the given rows in the given order,
    /// lane `l` of tile `t` holding the `t·lanes + l`-th of them. `rows` must
    /// yield whole tiles: the caller chooses what fills a last one.
    pub fn pack_tiles_of(&self, rows: impl IntoIterator<Item = usize>, lanes: usize) -> Vec<f64> {
        let dim = self.dim();
        let rows = rows.into_iter();
        let mut tiles = Vec::with_capacity(rows.size_hint().0 * dim);
        let mut lane = 0;
        for row in rows {
            if lane == 0 {
                tiles.resize(tiles.len() + dim * lanes, 0.0);
            }
            let tile = tiles.len() - dim * lanes;
            for (d, &v) in self.row(row).iter().enumerate() {
                tiles[tile + d * lanes + lane] = v;
            }
            lane = (lane + 1) % lanes;
        }
        assert_eq!(lane, 0, "rows fill whole tiles");
        tiles
    }
}

/// What a row door accepts: a [`FeatureMatrix`], owned or borrowed, which
/// passes through without a copy or a second validation, or a collection of
/// rows, packed by [`FeatureMatrix::from_rows`] (so an empty, ragged or
/// non-finite collection fails with [`SparseError::InvalidInput`]). Rows
/// taken by value are dropped as soon as they are packed.
pub trait IntoFeatureMatrix<'a> {
    /// The matrix, borrowed when it already was one.
    fn into_feature_matrix(self) -> Result<Cow<'a, FeatureMatrix>>;
}

impl<'a> IntoFeatureMatrix<'a> for FeatureMatrix {
    fn into_feature_matrix(self) -> Result<Cow<'a, FeatureMatrix>> {
        Ok(Cow::Owned(self))
    }
}

impl<'a> IntoFeatureMatrix<'a> for &'a FeatureMatrix {
    fn into_feature_matrix(self) -> Result<Cow<'a, FeatureMatrix>> {
        Ok(Cow::Borrowed(self))
    }
}

impl<'a, R: AsRef<[f64]>> IntoFeatureMatrix<'a> for Vec<R> {
    fn into_feature_matrix(self) -> Result<Cow<'a, FeatureMatrix>> {
        FeatureMatrix::from_rows(&self).map(Cow::Owned)
    }
}

impl<'a, R: AsRef<[f64]>> IntoFeatureMatrix<'a> for &[R] {
    fn into_feature_matrix(self) -> Result<Cow<'a, FeatureMatrix>> {
        FeatureMatrix::from_rows(self).map(Cow::Owned)
    }
}

impl<'a, R: AsRef<[f64]>> IntoFeatureMatrix<'a> for &Vec<R> {
    fn into_feature_matrix(self) -> Result<Cow<'a, FeatureMatrix>> {
        FeatureMatrix::from_rows(self).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_and_expose_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        assert_eq!(
            m,
            FeatureMatrix::from_vec(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
        );
        assert_eq!((m.len(), m.dim()), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.rows().collect::<Vec<_>>(), rows);
        // Borrowed rows pack the same way.
        let borrowed: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(FeatureMatrix::from_rows(&borrowed).unwrap(), m);
        // Zero rows of a known width are a valid (empty) store.
        let empty = FeatureMatrix::from_vec(4, Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 4);
    }

    // The shape and finiteness cases k-means, the shard partition and
    // `Dataset::new` used to check by hand: they now hold a matrix.
    #[test]
    fn every_way_in_rejects_ragged_empty_and_non_finite_input() {
        assert!(FeatureMatrix::from_rows::<Vec<f64>>(&[]).is_err());
        assert!(FeatureMatrix::from_rows(&[Vec::<f64>::new()]).is_err());
        assert!(FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(FeatureMatrix::from_vec(0, Vec::new()).is_err());
        assert!(FeatureMatrix::from_vec(2, vec![1.0, 2.0, 3.0]).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FeatureMatrix::from_rows(&[vec![0.0, 1.0], vec![bad, 1.0]]).unwrap_err();
            assert!(err.to_string().contains("vector 1"), "{err}");
            assert!(FeatureMatrix::from_vec(2, vec![0.0, 1.0, 1.0, bad]).is_err());
            let mut m = FeatureMatrix::from_vec(2, vec![0.0, 1.0]).unwrap();
            assert!(m.push_row(&[bad, 0.0]).is_err());
            assert!(m.push_row(&[1.0]).is_err());
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn a_matrix_passes_the_row_doors_untouched_and_rows_are_packed() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        assert!(matches!((&m).into_feature_matrix(), Ok(Cow::Borrowed(b)) if std::ptr::eq(b, &m)));
        assert!(matches!(m.clone().into_feature_matrix(), Ok(Cow::Owned(o)) if o == m));
        assert_eq!(*(&rows).into_feature_matrix().unwrap(), m);
        assert_eq!(*rows[..].into_feature_matrix().unwrap(), m);
        assert_eq!(*rows.clone().into_feature_matrix().unwrap(), m);
        assert_eq!(m.to_vec(), rows);
        assert!(vec![vec![1.0], vec![f64::NAN]]
            .into_feature_matrix()
            .is_err());
        assert!(Vec::<Vec<f64>>::new().into_feature_matrix().is_err());
    }

    #[test]
    fn push_and_select_keep_rows_whole() {
        let mut m = FeatureMatrix::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        m.push_row(&[5.0, 6.0]).unwrap();
        assert_eq!(m.row(2), &[5.0, 6.0]);
        let picked = m.select_rows([2, 0]);
        assert_eq!(picked.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
        assert!(m.select_rows(std::iter::empty()).is_empty());
    }

    #[test]
    fn tiles_are_dimension_major_and_padded_with_the_last_row() {
        // 3 rows of 2 dimensions in tiles of 2 lanes: [r0 r1] [r2 r2].
        let m = FeatureMatrix::from_vec(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(
            m.pack_tiles(2),
            vec![1.0, 3.0, 2.0, 4.0, 5.0, 5.0, 6.0, 6.0]
        );
        // One lane per tile is the row-major buffer itself.
        assert_eq!(m.pack_tiles(1), m.as_slice());
        // Any rows in any order, the caller's own filler.
        assert_eq!(
            m.pack_tiles_of([2, 0, 1, 1], 2),
            vec![5.0, 1.0, 6.0, 2.0, 3.0, 3.0, 4.0, 4.0]
        );
        assert!(m.pack_tiles_of([], 2).is_empty());
    }
}
