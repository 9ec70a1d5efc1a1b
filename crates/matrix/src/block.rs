//! Block (submatrix) extraction and insertion.
//!
//! The paper's notation `[A][x1...x2][y1...y2]` denotes the block bounded by
//! rows `x1..x2` and columns `y1..y2` (begin inclusive, end exclusive,
//! Section 2). The recursive LU method of Figure 1 splits a square matrix
//! into quadrants `A1..A4`; [`Matrix::split_quadrants`] and [`Quadrants`]
//! implement exactly that split.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

/// A half-open block range: rows `rows.0..rows.1`, columns `cols.0..cols.1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRange {
    /// Row range (begin inclusive, end exclusive).
    pub rows: (usize, usize),
    /// Column range (begin inclusive, end exclusive).
    pub cols: (usize, usize),
}

impl BlockRange {
    /// Creates a block range.
    pub fn new(rows: (usize, usize), cols: (usize, usize)) -> Self {
        BlockRange { rows, cols }
    }

    /// Number of rows covered.
    pub(crate) fn nrows(&self) -> usize {
        self.rows.1 - self.rows.0
    }

    /// Number of columns covered.
    pub(crate) fn ncols(&self) -> usize {
        self.cols.1 - self.cols.0
    }

    fn check(&self, m: &Matrix, op: &'static str) -> Result<()> {
        if self.rows.0 > self.rows.1
            || self.cols.0 > self.cols.1
            || self.rows.1 > m.rows()
            || self.cols.1 > m.cols()
        {
            return Err(MatrixError::OutOfBounds {
                op,
                rows: self.rows,
                cols: self.cols,
                shape: m.shape(),
            });
        }
        Ok(())
    }
}

/// The four quadrants of Figure 1: `A1` top-left, `A2` top-right,
/// `A3` bottom-left, `A4` bottom-right.
#[derive(Debug, Clone)]
pub struct Quadrants {
    /// Top-left block (recursively decomposed).
    pub a1: Matrix,
    /// Top-right block (input to the `U2` computation).
    pub a2: Matrix,
    /// Bottom-left block (input to the `L2'` computation).
    pub a3: Matrix,
    /// Bottom-right block (updated to `A4 - L2' U2`).
    pub a4: Matrix,
}

impl Matrix {
    /// Extracts the block `[self][r1..r2][c1..c2]` into a new matrix.
    pub fn block(&self, range: BlockRange) -> Result<Matrix> {
        range.check(self, "block")?;
        let mut out = Matrix::zeros(range.nrows(), range.ncols());
        for (bi, i) in (range.rows.0..range.rows.1).enumerate() {
            let src = &self.row(i)[range.cols.0..range.cols.1];
            out.row_mut(bi).copy_from_slice(src);
        }
        Ok(out)
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) -> Result<()> {
        let range = BlockRange::new((r0, r0 + block.rows()), (c0, c0 + block.cols()));
        range.check(self, "set_block")?;
        let cols = block.cols();
        for bi in 0..block.rows() {
            let dst = &mut self.row_mut(r0 + bi)[c0..c0 + cols];
            dst.copy_from_slice(block.row(bi));
        }
        Ok(())
    }

    /// Splits a square matrix at row/column `split` into the four quadrants
    /// of Figure 1.
    ///
    /// Returns an error if the matrix is not square or `split` exceeds its
    /// order.
    ///
    /// ```
    /// use mrinv_matrix::Matrix;
    ///
    /// let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
    /// let q = a.split_quadrants(2).unwrap();
    /// assert_eq!(q.a1[(0, 0)], 0.0);  // top-left
    /// assert_eq!(q.a4[(0, 0)], 10.0); // bottom-right starts at (2, 2)
    /// ```
    pub fn split_quadrants(&self, split: usize) -> Result<Quadrants> {
        let n = self.order()?;
        if split > n {
            return Err(MatrixError::OutOfBounds {
                op: "split_quadrants",
                rows: (0, split),
                cols: (0, split),
                shape: self.shape(),
            });
        }
        Ok(Quadrants {
            a1: self.block(BlockRange::new((0, split), (0, split)))?,
            a2: self.block(BlockRange::new((0, split), (split, n)))?,
            a3: self.block(BlockRange::new((split, n), (0, split)))?,
            a4: self.block(BlockRange::new((split, n), (split, n)))?,
        })
    }

    /// Extracts rows `r1..r2` as a new matrix (a horizontal stripe).
    ///
    /// Mappers in the partitioning job each read an equal number of
    /// consecutive rows for I/O sequentiality (Section 5.2).
    pub fn row_stripe(&self, r1: usize, r2: usize) -> Result<Matrix> {
        self.block(BlockRange::new((r1, r2), (0, self.cols())))
    }

    /// Extracts columns `c1..c2` as a new matrix (a vertical stripe).
    pub fn col_stripe(&self, c1: usize, c2: usize) -> Result<Matrix> {
        self.block(BlockRange::new((0, self.rows()), (c1, c2)))
    }
}

/// Splits the length `n` into `parts` contiguous chunk ranges of (almost)
/// equal size; earlier chunks take the remainder.
///
/// Used everywhere the paper divides rows or columns evenly across `m0`
/// workers.
pub fn even_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "cannot split into zero parts");
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64)
    }

    #[test]
    fn block_extraction_matches_elements() {
        let m = sample();
        let b = m.block(BlockRange::new((1, 3), (2, 5))).unwrap();
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 2)], m[(2, 4)]);
    }

    #[test]
    fn block_bounds_are_checked() {
        let m = sample();
        assert!(m.block(BlockRange::new((0, 7), (0, 2))).is_err());
        assert!(m.block(BlockRange::new((3, 2), (0, 2))).is_err());
    }

    #[test]
    fn set_block_round_trips() {
        let mut m = Matrix::zeros(4, 4);
        let b = Matrix::from_fn(2, 2, |_, _| 9.0);
        m.set_block(1, 2, &b).unwrap();
        assert_eq!(m[(1, 2)], 9.0);
        assert_eq!(m[(2, 3)], 9.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert!(m.set_block(3, 3, &b).is_err());
    }

    #[test]
    fn quadrants_round_trip() {
        let m = sample();
        let q = m.split_quadrants(2).unwrap();
        assert_eq!(q.a1.shape(), (2, 2));
        assert_eq!(q.a4.shape(), (4, 4));
        assert_eq!(q.a3[(0, 0)], m[(2, 0)]);
        let mut back = Matrix::zeros(6, 6);
        for (block, r0, c0) in [(&q.a1, 0, 0), (&q.a2, 0, 2), (&q.a3, 2, 0), (&q.a4, 2, 2)] {
            let range = BlockRange::new((r0, r0 + block.rows()), (c0, c0 + block.cols()));
            assert_eq!(block, &m.block(range).unwrap());
            back.set_block(r0, c0, block).unwrap();
        }
        assert_eq!(back, m);
    }

    #[test]
    fn quadrants_validate_input() {
        assert!(Matrix::zeros(2, 3).split_quadrants(1).is_err());
        assert!(sample().split_quadrants(7).is_err());
    }

    #[test]
    fn stripes() {
        let m = sample();
        let rs = m.row_stripe(2, 4).unwrap();
        assert_eq!(rs.shape(), (2, 6));
        assert_eq!(rs[(0, 0)], 12.0);
        assert_eq!(rs, m.block(BlockRange::new((2, 4), (0, 6))).unwrap());
        let cs = m.col_stripe(4, 6).unwrap();
        assert_eq!(cs.shape(), (6, 2));
        assert_eq!(cs[(0, 0)], 4.0);
    }

    #[test]
    fn stacking_round_trips() {
        let m = sample();
        let mut back = Matrix::zeros(6, 6);
        back.set_block(0, 0, &m.row_stripe(0, 2).unwrap()).unwrap();
        back.set_block(2, 0, &m.row_stripe(2, 6).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn stacking_validates_shapes() {
        // A stripe wider, or reaching lower, than its target is rejected.
        let mut m = Matrix::zeros(2, 2);
        assert!(m.set_block(0, 0, &Matrix::zeros(1, 3)).is_err());
        assert!(m.set_block(1, 0, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn even_ranges_cover_everything() {
        assert_eq!(even_ranges(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(
            even_ranges(3, 5),
            vec![(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]
        );
        let r = even_ranges(0, 3);
        assert!(r.iter().all(|&(a, b)| a == b));
    }

    #[test]
    fn block_range_accessors() {
        let r = BlockRange::new((1, 4), (2, 2));
        assert_eq!(r.nrows(), 3);
        assert_eq!(r.ncols(), 0);
        let r = BlockRange::new((0, 2), (0, 5));
        assert_eq!((r.nrows(), r.ncols()), (2, 5));
    }
}
