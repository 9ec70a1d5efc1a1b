//! In-memory recursive block LU decomposition and inversion.
//!
//! This is Algorithm 2 with all data in memory — the same mathematics as
//! the MapReduce pipeline but none of the DFS plumbing. It serves three
//! purposes:
//!
//! * the cross-checking reference for the distributed implementation
//!   (tests decompose the same matrices both ways);
//! * the single-node baseline for benchmarks;
//! * the shape of a Spark-style port (Section 8's future work keeps
//!   intermediates in memory; this module is exactly that dataflow).

use mrinv_matrix::kernel::{gemm, gemm_staircase, notrans, trans};
use mrinv_matrix::lu::lu_decompose;
use mrinv_matrix::triangular::{
    invert_lower, invert_upper, solve_unit_lower_system, solve_upper_system_right,
};
use mrinv_matrix::{Matrix, Permutation, Result};

use crate::request::LuFactors;

/// `U^-1 · L^-1` with `L^-1` packed transposed (both operands then stream
/// row-major — the Section 6.3 layout). Row `i` of `U^-1` and column
/// `i` of `L^-1` are exactly zero before index `i`, so the product skips
/// those terms microtile by microtile ([`gemm_staircase`]) with the dense
/// bits.
fn mul_inverse_factors(u_inv: &Matrix, l_inv: &Matrix) -> Result<Matrix> {
    let l_inv_t = l_inv.transpose();
    let mut c = Matrix::zeros(u_inv.rows(), l_inv.cols());
    gemm_staircase(notrans(u_inv), 0, trans(&l_inv_t), 0, 0, &mut c)?;
    Ok(c)
}

/// Recursive block LU decomposition (Algorithm 2), splitting at `n/2` until
/// blocks are of order at most `nb`.
pub fn block_lu(a: &Matrix, nb: usize) -> Result<LuFactors> {
    assert!(nb >= 1, "nb must be positive");
    let n = a.order()?;
    if n <= nb {
        let f = lu_decompose(a)?;
        return Ok(LuFactors {
            l: f.unit_lower(),
            u: f.upper(),
            perm: f.perm,
        });
    }
    let half = n / 2;
    let q = a.split_quadrants(half)?;

    // (L1, U1, P1) = BlockLUDecom(A1)
    let top = block_lu(&q.a1, nb)?;

    // U2 = L1^-1 (P1 A2); L2' U1 = A3  (Equation 6, with pivoting on A2).
    let u2 = solve_unit_lower_system(&top.l, &top.perm.apply_rows(&q.a2))?;
    let l2p = solve_upper_system_right(&top.u, &q.a3)?;

    // B = A4 - L2' U2
    let mut b = q.a4;
    gemm(-1.0, notrans(&l2p), notrans(&u2), 1.0, &mut b)?;

    // (L3, U3, P2) = BlockLUDecom(B)
    let bottom = block_lu(&b, nb)?;

    // L2 = P2 L2'
    let l2 = bottom.perm.apply_rows(&l2p);

    // Assemble (Algorithm 2 lines 11-13).
    let mut l = Matrix::zeros(n, n);
    let mut u = Matrix::zeros(n, n);
    l.set_block(0, 0, &top.l)?;
    l.set_block(half, 0, &l2)?;
    l.set_block(half, half, &bottom.l)?;
    u.set_block(0, 0, &top.u)?;
    u.set_block(0, half, &u2)?;
    u.set_block(half, half, &bottom.u)?;
    let perm = Permutation::augment(&top.perm, &bottom.perm);
    Ok(LuFactors { l, u, perm })
}

/// Inverts `a` through the block LU decomposition:
/// `A^-1 = U^-1 L^-1 P` (Section 4.3).
///
/// ```
/// use mrinv::inmem::invert_block;
/// use mrinv_matrix::random::random_well_conditioned;
/// use mrinv_matrix::norms::inversion_residual;
///
/// let a = random_well_conditioned(32, 7);
/// let inv = invert_block(&a, 8).unwrap();
/// assert!(inversion_residual(&a, &inv).unwrap() < 1e-10);
/// ```
pub fn invert_block(a: &Matrix, nb: usize) -> Result<Matrix> {
    let f = block_lu(a, nb)?;
    let l_inv = invert_lower(&f.l)?;
    let u_inv = invert_upper(&f.u)?;
    Ok(f.perm.apply_cols(&mul_inverse_factors(&u_inv, &l_inv)?))
}

/// Single-node baseline: classical LU (Algorithm 1) plus triangular
/// inverses, no blocking.
pub fn invert_single_node(a: &Matrix) -> Result<Matrix> {
    let f = lu_decompose(a)?;
    let l_inv = invert_lower(&f.unit_lower())?;
    let u_inv = invert_upper(&f.upper())?;
    Ok(f.perm.apply_cols(&mul_inverse_factors(&u_inv, &l_inv)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::norms::inversion_residual;
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};
    use mrinv_matrix::PAPER_ACCURACY;

    #[test]
    fn block_lu_reconstructs_pa() {
        for &(n, nb) in &[(16usize, 4usize), (33, 8), (64, 16), (100, 7), (128, 128)] {
            let a = random_invertible(n, n as u64);
            let f = block_lu(&a, nb).unwrap();
            let pa = f.perm.apply_rows(&a);
            let lu = &f.l * &f.u;
            assert!(
                lu.approx_eq(&pa, 1e-7),
                "PA != LU for n={n} nb={nb}, diff={}",
                lu.max_abs_diff(&pa).unwrap()
            );
        }
    }

    #[test]
    fn factors_are_triangular() {
        let a = random_invertible(40, 3);
        let f = block_lu(&a, 8).unwrap();
        for i in 0..40 {
            assert_eq!(f.l[(i, i)], 1.0, "unit diagonal");
            for j in (i + 1)..40 {
                assert_eq!(f.l[(i, j)], 0.0);
                assert_eq!(f.u[(j, i)], 0.0);
            }
        }
    }

    #[test]
    fn block_lu_matches_single_node_on_dominant_matrices() {
        // On diagonally dominant matrices no pivoting occurs, so the block
        // method and the classical method produce identical factors.
        let a = random_well_conditioned(48, 9);
        let blocked = block_lu(&a, 12).unwrap();
        let classic = lu_decompose(&a).unwrap();
        assert!(blocked.perm.is_identity());
        assert!(blocked.l.approx_eq(&classic.unit_lower(), 1e-8));
        assert!(blocked.u.approx_eq(&classic.upper(), 1e-8));
    }

    #[test]
    fn invert_block_beats_paper_accuracy() {
        for &(n, nb) in &[(24usize, 6usize), (50, 16), (96, 32)] {
            let a = random_well_conditioned(n, n as u64 + 1);
            let inv = invert_block(&a, nb).unwrap();
            let res = inversion_residual(&a, &inv).unwrap();
            assert!(res < PAPER_ACCURACY, "residual {res} for n={n}");
        }
    }

    #[test]
    fn invert_block_handles_pivoting_matrices() {
        // General random matrices *require* pivoting.
        for seed in 0..3 {
            let a = random_invertible(40, 100 + seed);
            let inv = invert_block(&a, 10).unwrap();
            let res = inversion_residual(&a, &inv).unwrap();
            assert!(res < 1e-6, "residual {res} for seed {seed}");
        }
    }

    #[test]
    fn single_node_and_block_agree() {
        let a = random_invertible(36, 77);
        let b1 = invert_block(&a, 9).unwrap();
        let b2 = invert_single_node(&a).unwrap();
        assert!(b1.approx_eq(&b2, 1e-7));
    }

    #[test]
    fn nb_larger_than_n_degenerates_to_single_node() {
        let a = random_invertible(20, 5);
        let f = block_lu(&a, 1000).unwrap();
        let classic = lu_decompose(&a).unwrap();
        assert!(f.l.approx_eq(&classic.unit_lower(), 0.0));
        assert!(f.u.approx_eq(&classic.upper(), 0.0));
    }

    #[test]
    fn equation5_block_structure_holds() {
        let n = 32;
        let half = 16;
        let a = random_invertible(n, 11);
        let f = block_lu(&a, half).unwrap();
        let l = f.l.split_quadrants(half).unwrap();
        let u = f.u.split_quadrants(half).unwrap();
        let pa = f.perm.apply_rows(&a);
        let paq = pa.split_quadrants(half).unwrap();
        // L1 U1 = (P A)_1, L1 U2 = (P A)_2, L2 U1 = (P A)_3.
        assert!((&l.a1 * &u.a1).approx_eq(&paq.a1, 1e-8));
        assert!((&l.a1 * &u.a2).approx_eq(&paq.a2, 1e-8));
        assert!((&l.a3 * &u.a1).approx_eq(&paq.a3, 1e-8));
    }

    #[test]
    fn singular_matrix_propagates_error() {
        let mut a = random_well_conditioned(16, 1);
        // Make two rows identical.
        let row = a.row(3).to_vec();
        a.row_mut(7).copy_from_slice(&row);
        assert!(invert_block(&a, 4).is_err());
    }

    #[test]
    fn order_one_matrix() {
        let a = Matrix::from_rows(&[&[2.0]]).unwrap();
        let inv = invert_block(&a, 1).unwrap();
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
    }
}
