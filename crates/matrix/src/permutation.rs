//! Compact representation of the pivot permutation matrix `P`.
//!
//! The paper stores the row permutation in an array `S`, where `[S]_i` is the
//! source row of the permuted matrix's row `i` (Section 4.1): row `i` of
//! `P·A` equals row `S[i]` of `A`. Applying `P` on the right of the final
//! product (`A^-1 = U^-1 L^-1 P`) is a *column* permutation
//! (Section 4.3): column `S[j]` of the result is column `j` of
//! `U^-1 L^-1`.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

/// A row permutation stored as the paper's `S` array.
///
/// Invariant: `s` is a permutation of `0..s.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    s: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation {
            s: (0..n).collect(),
        }
    }

    /// Builds a permutation from an `S` array, checking that it is one:
    /// every entry below the length, none repeated. Pivot arrays arrive
    /// from outside the program (a service reply, a stored `FactorRef`),
    /// and `source_of` indexes with them.
    pub fn from_vec(s: Vec<usize>) -> Result<Self> {
        let mut seen = vec![false; s.len()];
        for (index, &value) in s.iter().enumerate() {
            if value >= s.len() || std::mem::replace(&mut seen[value], true) {
                return Err(MatrixError::NotAPermutation {
                    len: s.len(),
                    index,
                    value,
                });
            }
        }
        Ok(Permutation { s })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True when the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Borrow the underlying `S` array.
    pub fn as_slice(&self) -> &[usize] {
        &self.s
    }

    /// Source row for permuted row `i` (`[S]_i`).
    #[inline]
    pub fn source_of(&self, i: usize) -> usize {
        self.s[i]
    }

    /// Swaps entries `a` and `b` (records a pivot row swap).
    pub fn swap(&mut self, a: usize, b: usize) {
        self.s.swap(a, b);
    }

    /// True when this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.s.iter().enumerate().all(|(i, &v)| i == v)
    }

    /// The inverse permutation: `inv.source_of(s.source_of(i)) == i`.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0; self.s.len()];
        for (i, &v) in self.s.iter().enumerate() {
            inv[v] = i;
        }
        Permutation { s: inv }
    }

    /// Builds a block-diagonal permutation from the top part `p1` (acting on
    /// the first `p1.len()` rows) and the bottom part `p2`.
    ///
    /// This is the paper's augmentation of `P1` and `P2` into the overall
    /// `P` (Equation 5 and Algorithm 2 line 11).
    pub fn augment(p1: &Permutation, p2: &Permutation) -> Permutation {
        let off = p1.len();
        let mut s = Vec::with_capacity(off + p2.len());
        s.extend_from_slice(&p1.s);
        s.extend(p2.s.iter().map(|&v| v + off));
        Permutation { s }
    }

    /// Returns `P·A`: row `i` of the result is row `S[i]` of `a`.
    pub fn apply_rows(&self, a: &Matrix) -> Matrix {
        assert_eq!(self.len(), a.rows(), "permutation/matrix row mismatch");
        let mut out = Matrix::zeros(a.rows(), a.cols());
        for i in 0..a.rows() {
            out.row_mut(i).copy_from_slice(a.row(self.s[i]));
        }
        out
    }

    /// Returns `A·P`: column `S[j]` of the result is column `j` of `a`
    /// (the final-output permutation of Section 4.3,
    /// `[A^-1]_{·,S[j]} = [U^-1 L^-1]_{·,j}`).
    pub fn apply_cols(&self, a: &Matrix) -> Matrix {
        assert_eq!(self.len(), a.cols(), "permutation/matrix column mismatch");
        let mut out = Matrix::zeros(a.rows(), a.cols());
        for i in 0..a.rows() {
            let src = a.row(i);
            let dst = out.row_mut(i);
            for (j, &sj) in self.s.iter().enumerate() {
                dst[sj] = src[j];
            }
        }
        out
    }

    /// Materializes the permutation as a dense binary matrix `P`
    /// (`P[i, S[i]] = 1`), so `P·A == apply_rows(A)`.
    pub fn to_matrix(&self) -> Matrix {
        let n = self.len();
        let mut p = Matrix::zeros(n, n);
        for (i, &v) in self.s.iter().enumerate() {
            p[(i, v)] = 1.0;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(4);
        assert!(p.is_identity());
        assert_eq!(p.len(), 4);
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(p.apply_rows(&a), a);
        assert_eq!(p.apply_cols(&a), a);
    }

    #[test]
    fn apply_rows_matches_dense_p() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let via_array = p.apply_rows(&a);
        let via_matrix = &p.to_matrix() * &a;
        assert_eq!(via_array, via_matrix);
        assert_eq!(via_array.row(0), a.row(2));
    }

    #[test]
    fn apply_cols_matches_dense_p() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let via_array = p.apply_cols(&a);
        let via_matrix = &a * &p.to_matrix();
        assert_eq!(via_array, via_matrix);
    }

    #[test]
    fn inverse_undoes_row_permutation() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let a = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let back = p.inverse().apply_rows(&p.apply_rows(&a));
        assert_eq!(back, a);
        assert_eq!(p.apply_rows(&p.inverse().apply_rows(&a)), a);
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn augment_is_block_diagonal() {
        let p1 = Permutation::from_vec(vec![1, 0]).unwrap();
        let p2 = Permutation::from_vec(vec![0, 2, 1]).unwrap();
        let p = Permutation::augment(&p1, &p2);
        assert_eq!(p.as_slice(), &[1, 0, 2, 4, 3]);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn from_vec_rejects_what_is_not_a_permutation() {
        assert_eq!(
            Permutation::from_vec(vec![2, 0, 1]).unwrap().as_slice(),
            &[2, 0, 1]
        );
        assert_eq!(
            Permutation::from_vec(Vec::new()),
            Ok(Permutation::identity(0))
        );
        let repeated = Permutation::from_vec(vec![0, 0]).unwrap_err();
        assert_eq!(
            repeated,
            MatrixError::NotAPermutation {
                len: 2,
                index: 1,
                value: 0
            }
        );
        let out_of_range = Permutation::from_vec(vec![0, 5, 1]).unwrap_err();
        assert_eq!(
            out_of_range.to_string(),
            "not a permutation of 0..3: entry 1 is 5"
        );
    }

    #[test]
    fn swap_records_pivot() {
        let mut p = Permutation::identity(3);
        p.swap(0, 2);
        assert_eq!(p.as_slice(), &[2, 1, 0]);
        assert_eq!(p.source_of(0), 2);
    }

    #[test]
    fn pa_equals_apply_rows_for_lu_usage() {
        // The LU contract is PA = LU where P is built from the S array.
        let p = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let a = Matrix::from_fn(3, 3, |i, j| ((i + 1) * (j + 2)) as f64);
        let pa = p.apply_rows(&a);
        for i in 0..3 {
            assert_eq!(pa.row(i), a.row(p.source_of(i)));
        }
    }
}
