//! `PDGETRI`: triangular inversion and product from blocked LU factors.
//!
//! Computes `A^-1 = U^-1 · L^-1 · P` from a [`crate::pdgetrf`] output.
//! Columns of `L^-1`, rows of `U^-1`, and columns of the final product are
//! distributed cyclically across processes for the work tally; the
//! communication follows the paper's Table 2 model (`m0 · n²` elements for
//! the inversion phase) plus a realistic all-gather volume.

use mrinv_matrix::dense::Matrix;
use mrinv_matrix::error::Result;
use mrinv_matrix::kernel::{gemm, notrans, trans};
use mrinv_matrix::triangular::{invert_lower, invert_upper};

use crate::grid::{ProcessGrid, WorkTally};
use crate::pdgetrf::PdgetrfOutput;

/// Output of the inversion phase.
#[derive(Debug, Clone)]
pub(crate) struct PdgetriOutput {
    /// The assembled inverse.
    pub inverse: Matrix,
    /// Per-process work and communication of this phase.
    pub tally: WorkTally,
}

/// Inverts the factored matrix.
pub(crate) fn pdgetri(factors: &PdgetrfOutput, grid: &ProcessGrid) -> Result<PdgetriOutput> {
    let n = factors.l.rows();
    let m0 = grid.size();
    let mut tally = WorkTally::new(m0);

    let l_inv = invert_lower(&factors.l)?;
    let u_inv = invert_upper(&factors.u)?;
    // Column j of L^-1 costs ~ (n - j)^2 multiply-adds; distribute columns
    // cyclically (ScaLAPACK's column distribution of TRTRI work).
    for j in 0..n {
        let len = (n - j) as f64;
        tally.charge(j % m0, 2.0 * len * len / 2.0);
        // Row i of U^-1 costs ~ (i + 1)^2; same cyclic distribution.
        let ulen = (j + 1) as f64;
        tally.charge(j % m0, 2.0 * ulen * ulen / 2.0);
    }

    // Product U^-1 L^-1 exploiting triangularity: element (i, j) needs the
    // overlap max(i, j)..n, ~ n^3/3 multiply-adds in total; charge by
    // output column, cyclically.
    let product = {
        // L^-1 streamed transposed so both operands read row-major (the
        // same layout the MapReduce final job uses).
        let l_inv_t = l_inv.transpose();
        let mut p = Matrix::zeros(u_inv.rows(), l_inv.cols());
        gemm(1.0, notrans(&u_inv), trans(&l_inv_t), 0.0, &mut p)?;
        p
    };
    for j in 0..n {
        let mut col_flops = 0.0;
        for i in 0..n {
            col_flops += 2.0 * (n - i.max(j)) as f64;
        }
        tally.charge(j % m0, col_flops);
    }
    let inverse = factors.perm.apply_cols(&product);

    // Communication: the paper's Table 2 row charges m0 * n^2 elements.
    tally.transfer_paper = m0 as f64 * (n * n) as f64;
    // Realistic: each process gathers the rows/columns it multiplies —
    // an all-gather of both triangular inverses across the grid.
    tally.transfer_grid = (n * n) as f64 * ((grid.f1 + grid.f2) as f64 / 2.0);

    Ok(PdgetriOutput { inverse, tally })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdgetrf::pdgetrf;
    use mrinv_matrix::norms::inversion_residual;
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};
    use mrinv_matrix::PAPER_ACCURACY;

    #[test]
    fn inversion_is_accurate() {
        let a = random_well_conditioned(40, 1);
        let grid = ProcessGrid::new(4, 8);
        let f = pdgetrf(&a, &grid).unwrap();
        let out = pdgetri(&f, &grid).unwrap();
        assert!(inversion_residual(&a, &out.inverse).unwrap() < PAPER_ACCURACY);
    }

    #[test]
    fn pivoted_matrices_invert() {
        let a = random_invertible(32, 2);
        let grid = ProcessGrid::new(6, 8);
        let f = pdgetrf(&a, &grid).unwrap();
        let out = pdgetri(&f, &grid).unwrap();
        assert!(inversion_residual(&a, &out.inverse).unwrap() < 1e-6);
    }

    #[test]
    fn flop_total_near_four_thirds_n_cubed() {
        // Table 2: 2/3 n^3 mults + 2/3 n^3 adds for inversion + product.
        let n = 48;
        let a = random_well_conditioned(n, 3);
        let grid = ProcessGrid::new(8, 8);
        let f = pdgetrf(&a, &grid).unwrap();
        let out = pdgetri(&f, &grid).unwrap();
        let expect = 4.0 / 3.0 * (n as f64).powi(3);
        let got = out.tally.total_flops();
        assert!(
            (got - expect).abs() / expect < 0.3,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn transfer_follows_table2() {
        let n = 32;
        let a = random_well_conditioned(n, 4);
        for m0 in [4usize, 16] {
            let grid = ProcessGrid::new(m0, 8);
            let f = pdgetrf(&a, &grid).unwrap();
            let out = pdgetri(&f, &grid).unwrap();
            assert_eq!(out.tally.transfer_paper, m0 as f64 * (n * n) as f64);
        }
    }

    #[test]
    fn work_is_well_balanced() {
        // Cyclic column distribution balances the inversion well.
        let a = random_well_conditioned(64, 5);
        let grid = ProcessGrid::new(4, 8);
        let f = pdgetrf(&a, &grid).unwrap();
        let out = pdgetri(&f, &grid).unwrap();
        assert!(out.tally.balance() > 0.8, "balance {}", out.tally.balance());
    }
}
