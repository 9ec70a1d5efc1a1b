//! Row-major dense `f64` matrix.
//!
//! The paper stores matrices row-major both in memory and in HDFS
//! (Section 6.3); [`Matrix`] follows the same convention. Element `(i, j)`
//! lives at linear offset `i * cols + j`.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::error::{MatrixError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// Cloning copies the data; matrices used by the distributed pipeline are
/// passed through the DFS as serialized blocks instead (see [`crate::io`]).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(MatrixError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    ///
    /// Returns an error if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(MatrixError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (r, c),
                    rhs: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds an `n x n` matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The order of a square matrix.
    ///
    /// Returns an error for non-square matrices.
    pub fn order(&self) -> Result<usize> {
        if self.is_square() {
            Ok(self.rows)
        } else {
            Err(MatrixError::NotSquare {
                shape: self.shape(),
            })
        }
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Iterate over rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Swap rows `a` and `b` in place (used by pivoting).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Returns the transpose as a new matrix.
    ///
    /// The pipeline stores `U` transposed (Section 6.3) so that the inner
    /// product in the multiply kernels walks both operands row-major.
    pub fn transpose(&self) -> Matrix {
        // Tile by tile, so both the row-major reads and the column-strided
        // writes of one tile stay within a few cache lines per row.
        const TILE: usize = 32;
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TILE) {
            let i1 = (i0 + TILE).min(self.rows);
            for j0 in (0..self.cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(self.cols);
                for j in j0..j1 {
                    for i in i0..i1 {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Element-wise maximum absolute difference against `other`.
    ///
    /// Returns an error if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// True when every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other).unwrap() <= tol
    }

    /// `self * v` for a column vector `v`.
    ///
    /// Returns an error if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "mul_vec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .row_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_SHOWN: usize = 8;
        for i in 0..self.rows.min(MAX_SHOWN) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(MAX_SHOWN) {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            if self.cols > MAX_SHOWN {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > MAX_SHOWN {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        let data = self.data.iter().map(|a| -a).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    /// Convenience operator; delegates to [`crate::kernel::gemm`]. Hot
    /// paths with transposed operands or accumulation should call `gemm`
    /// directly.
    fn mul(self, rhs: &Matrix) -> Matrix {
        use crate::kernel::{gemm, notrans};
        let mut c = Matrix::zeros(self.rows(), rhs.cols());
        gemm(1.0, notrans(self), notrans(rhs), 0.0, &mut c)
            .expect("matrix multiplication shape mismatch");
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_validates_shape() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn from_fn_builds_expected_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn order_requires_square() {
        assert_eq!(Matrix::zeros(3, 3).order().unwrap(), 3);
        assert!(Matrix::zeros(2, 3).order().is_err());
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        assert_eq!(m.row_iter().count(), 2);
    }

    #[test]
    fn swap_rows_in_place() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(2), &[1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn approx_eq_and_max_abs_diff() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b[(1, 1)] = 1.0 + 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        assert!(a.max_abs_diff(&Matrix::zeros(3, 3)).is_err());
        assert!((a.max_abs_diff(&b).unwrap() - 1e-9).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let neg = -&a;
        assert_eq!(neg[(1, 0)], -3.0);
        let prod = &a * &b;
        assert_eq!(prod, a);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(
            s.len() < 2500,
            "debug output should truncate large matrices"
        );
        assert!(s.contains("Matrix 100x100"));
    }
}
