//! Node permutations (the matrix `P` of Section 4.2.2).
//!
//! The paper permutes the nodes of the k-NN graph before Incomplete Cholesky
//! factorization so that within-cluster nodes become contiguous and the
//! "border" nodes (those with cross-cluster edges) come last. `P` is an
//! orthogonal 0/1 matrix with exactly one `1` per row and column; we store it
//! as a pair of index maps instead of materializing `n × n` entries, which
//! keeps the memory cost at `O(n)` as required by Theorem 3.

use crate::error::{Result, SparseError};

/// A permutation of `n` items, stored as both directions of the index map.
///
/// Following the paper's convention, "new" indices are positions after the
/// permutation (primed nodes `u'_i`) and "old" indices are the original node
/// identifiers `u_i`. `P_{ij} = 1` means old node `j` moves to new position
/// `i`, i.e. `new_to_old[i] = j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<usize>,
    old_to_new: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<usize> = (0..n).collect();
        Permutation {
            new_to_old: ids.clone(),
            old_to_new: ids,
        }
    }

    /// Build from the `new → old` map (entry `i` holds the original index of
    /// the node placed at position `i`).
    ///
    /// Returns an error unless the map is a bijection on `0..n`.
    pub fn from_new_to_old(new_to_old: Vec<usize>) -> Result<Self> {
        let n = new_to_old.len();
        let mut old_to_new = vec![usize::MAX; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            if old >= n {
                return Err(SparseError::InvalidInput(format!(
                    "permutation entry {old} out of range for length {n}"
                )));
            }
            if old_to_new[old] != usize::MAX {
                return Err(SparseError::InvalidInput(format!(
                    "permutation maps index {old} twice"
                )));
            }
            old_to_new[old] = new;
        }
        Ok(Permutation {
            new_to_old,
            old_to_new,
        })
    }

    /// Number of permuted items.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// `true` if the permutation is over zero items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// Original index of the node at new position `new`.
    #[inline]
    pub fn old_index(&self, new: usize) -> usize {
        self.new_to_old[new]
    }

    /// New position of original node `old`.
    #[inline]
    pub fn new_index(&self, old: usize) -> usize {
        self.old_to_new[old]
    }

    /// The full `new → old` map.
    #[inline]
    pub fn new_to_old(&self) -> &[usize] {
        &self.new_to_old
    }

    /// Inverse permutation (`Pᵀ = P⁻¹`).
    pub fn inverse(&self) -> Permutation {
        Permutation {
            new_to_old: self.old_to_new.clone(),
            old_to_new: self.new_to_old.clone(),
        }
    }

    /// `true` if this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.new_to_old.iter().enumerate().all(|(i, &j)| i == j)
    }

    /// Apply to a vector: returns `x'` with `x'[new] = x[old]` (i.e. `P x`).
    pub fn permute_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.len() {
            return Err(SparseError::DimensionMismatch {
                op: "permute_vec",
                left: (self.len(), 1),
                right: (x.len(), 1),
            });
        }
        Ok(self.new_to_old.iter().map(|&old| x[old]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert!(p.is_identity());
        assert_eq!(p.len(), 4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(p.permute_vec(&x).unwrap(), x);
    }

    #[test]
    fn from_new_to_old_validates() {
        assert!(Permutation::from_new_to_old(vec![0, 1, 1]).is_err());
        assert!(Permutation::from_new_to_old(vec![0, 3]).is_err());
        assert!(Permutation::from_new_to_old(vec![2, 0, 1]).is_ok());
    }

    #[test]
    fn permute_moves_entries_to_their_new_positions() {
        let p = Permutation::from_new_to_old(vec![2, 0, 3, 1]).unwrap();
        let x = vec![10.0, 20.0, 30.0, 40.0];
        let px = p.permute_vec(&x).unwrap();
        assert_eq!(px, vec![30.0, 10.0, 40.0, 20.0]);
        assert_eq!(p.inverse().permute_vec(&px).unwrap(), x);
        assert!(p.permute_vec(&[1.0]).is_err());
    }

    #[test]
    fn inverse_swaps_maps() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let inv = p.inverse();
        for old in 0..3 {
            assert_eq!(
                inv.old_index(p.new_index(old)),
                p.new_index(inv.old_index(old))
            );
            assert_eq!(
                inv.new_index(p.old_index(old)),
                p.old_index(inv.new_index(old))
            );
        }
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
        assert_eq!(p.permute_vec(&[]).unwrap(), Vec::<f64>::new());
    }
}
