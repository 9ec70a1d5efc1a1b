//! Triangular solves and inverses (Equation 4 and Equation 6).
//!
//! Two observations from the paper drive the API shape here:
//!
//! * each *column* of a lower-triangular inverse is independent of the other
//!   columns (Section 4.3), so the final MapReduce job's mappers each own an
//!   interleaved column set;
//! * each *row* of `L2'` and each *column* of `U2` in Equation 6 is
//!   independent, so the LU pipeline's mappers each own a stripe of them.
//!
//! The pipeline solves a whole task's vectors in one [`trsm`] call (level-3:
//! the coupling between diagonal blocks runs in GEMM), and [`invert_lower`]
//! / [`invert_upper`] are that same solve on an identity right-hand side.
//! One per-vector kernel remains, [`solve_row_times_upper`]: Equation 6's
//! row solve over row-major `U`, striding through it. It is public for
//! benchmark probes and has no library caller (the Section 6.3
//! transpose-off ablation is priced, not run). The other per-vector forms,
//! whose arithmetic `trsm`'s leaf reproduces operation for operation, are
//! the bit-identity oracles in `kernel/tests.rs`.
//!
//! Upper-triangular matrices are inverted through their transpose
//! (a lower-triangular inverse followed by a transpose), matching the
//! Section 5/6.3 implementation note.

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use crate::kernel::{Diag, Side, Uplo};

pub use crate::kernel::trsm;

fn check_nonzero_diag(a: &Matrix) -> Result<()> {
    let n = a.rows();
    for i in 0..n {
        if a[(i, i)] == 0.0 {
            return Err(MatrixError::Singular { step: i });
        }
    }
    Ok(())
}

/// Approximate flop count of inverting an order-`n` triangular matrix
/// (`n^3/3` multiplications plus `n^3/3` additions).
pub fn tri_inv_flops(n: usize) -> u64 {
    let n = n as u64;
    2 * n * n * n / 3
}

/// Floating-point operation count of solving an order-`m` triangular
/// system for `nrhs` dense right-hand sides (per vector, `m²/2`
/// multiplications and as many additions, divisions included).
pub fn trsm_flops(m: usize, nrhs: usize) -> u64 {
    let m = m as u64;
    m * m * nrhs as u64
}

/// Inverts a lower-triangular matrix by Equation 4: every column of the
/// inverse solves `L·x = e_j`, all of them in one [`trsm`] on the identity
/// (whose exact zeros above each `e_j`'s one are never multiplied).
pub fn invert_lower(l: &Matrix) -> Result<Matrix> {
    let mut inv = Matrix::identity(l.order()?);
    trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, l, &mut inv)?;
    Ok(inv)
}

/// Inverts an upper-triangular matrix via its transpose: `U^-1 =
/// ((U^T)^-1)^T` — the implementation detail the paper calls out in
/// Section 4.1/6.3.
pub fn invert_upper(u: &Matrix) -> Result<Matrix> {
    let lt = u.transpose();
    Ok(invert_lower(&lt)?.transpose())
}

/// Rows [`forward_substitution`] solves abreast.
const ABREAST: usize = 8;

/// Solves `L·x = b` by forward substitution for a *unit* lower-triangular
/// `L`, reading only `l`'s strict lower triangle: its diagonal and upper
/// triangle are never read, so `l` may be packed LU factors
/// ([`crate::lu::LuFactors::lu`]). No row divides (`x / 1.0 == x`), so the
/// bits are those of the general form on a unit diagonal.
///
/// Rows are solved eight at a time: one pass over the solved prefix
/// `x[..i0]` subtracts it from all eight accumulators, then the 8×8
/// triangle on the diagonal finishes them in order. Each row still
/// subtracts its terms in ascending `k`, so its bits are those of the
/// row-by-row loop; the eight independent chains keep a core busy where
/// one chain waits on each subtraction.
pub fn forward_substitution(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = l.order()?;
    if b.len() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "forward_substitution",
            lhs: l.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut x = vec![0.0; n];
    let mut i0 = 0;
    while i0 + ABREAST <= n {
        let rows: [&[f64]; ABREAST] = std::array::from_fn(|r| &l.row(i0 + r)[..i0 + ABREAST]);
        let mut acc: [f64; ABREAST] = std::array::from_fn(|r| b[i0 + r]);
        for (k, &xk) in x[..i0].iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc -= row[k] * xk;
            }
        }
        for (r, (mut acc, row)) in acc.into_iter().zip(&rows).enumerate() {
            for k in i0..i0 + r {
                acc -= row[k] * x[k];
            }
            x[i0 + r] = acc;
        }
        i0 += ABREAST;
    }
    for i in i0..n {
        let mut acc = b[i];
        for (&lk, &xk) in l.row(i)[..i].iter().zip(&x) {
            acc -= lk * xk;
        }
        x[i] = acc;
    }
    Ok(x)
}

/// Solves `U·x = b` by back substitution (any nonzero diagonal).
///
/// Serial, unlike [`forward_substitution`]: row `i` subtracts its terms in
/// ascending `k`, so its first term is `x[i + 1]` — each row waits for the
/// one below it before it can start, and running rows abreast would change
/// that order and the bits.
pub fn back_substitution(u: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = u.order()?;
    if b.len() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "back_substitution",
            lhs: u.shape(),
            rhs: (b.len(), 1),
        });
    }
    check_nonzero_diag(u)?;
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let row = u.row(i);
        let mut acc = b[i];
        for k in (i + 1)..n {
            acc -= row[k] * x[k];
        }
        x[i] = acc / row[i];
    }
    Ok(x)
}

/// Computes one row of `L2'` in Equation 6: solves `x·U1 = a3_row`, i.e.
/// `U1ᵀ·xᵀ = a3_rowᵀ`, a forward substitution against the transposed upper
/// factor.
///
/// This is Equation 6's per-row kernel over the unoptimized layout: `u1`
/// is passed row-major (not transposed), and the kernel walks it
/// column-wise, which is what Section 6.3's transposed storage avoids. It
/// has no library caller: the pipeline's `L2'` mappers solve a whole stripe
/// in one [`trsm`] against `U1ᵀ` under either storage.
pub fn solve_row_times_upper(u1: &Matrix, a3_row: &[f64]) -> Result<Vec<f64>> {
    let n = u1.order()?;
    if a3_row.len() != n {
        return Err(MatrixError::DimensionMismatch {
            op: "solve_row_times_upper",
            lhs: u1.shape(),
            rhs: (1, a3_row.len()),
        });
    }
    check_nonzero_diag(u1)?;
    let mut x = vec![0.0; n];
    for j in 0..n {
        // x_j = (a_j - sum_{k<j} x_k * U1[k, j]) / U1[j, j]
        let mut acc = a3_row[j];
        for (k, &xk) in x.iter().enumerate().take(j) {
            acc -= xk * u1[(k, j)];
        }
        x[j] = acc / u1[(j, j)];
    }
    Ok(x)
}

/// Solves `L1·X = B` (`X = L1^-1·B` for unit-lower `L1`): the matrix-level
/// form of the `U2` computation. Thin wrapper over [`trsm`].
pub fn solve_unit_lower_system(l1: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut x = b.clone();
    trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, l1, &mut x)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_decompose;
    use crate::random::{random_matrix, random_unit_lower, random_upper};

    const TOL: f64 = 1e-8;

    #[test]
    fn lower_inverse_identity_product() {
        for seed in 0..4 {
            let l = random_unit_lower(15 + seed as usize, seed);
            let inv = invert_lower(&l).unwrap();
            assert!((&l * &inv).approx_eq(&Matrix::identity(l.rows()), TOL));
            assert!((&inv * &l).approx_eq(&Matrix::identity(l.rows()), TOL));
        }
    }

    #[test]
    fn lower_inverse_is_lower_triangular() {
        let l = random_unit_lower(10, 5);
        let inv = invert_lower(&l).unwrap();
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert_eq!(inv[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn non_unit_lower_diagonal_handled() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[3.0, 4.0]]).unwrap();
        let inv = invert_lower(&l).unwrap();
        assert!((&l * &inv).approx_eq(&Matrix::identity(2), 1e-12));
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn upper_inverse_via_transpose() {
        for seed in 0..4 {
            let u = random_upper(12 + seed as usize, seed + 10);
            let inv = invert_upper(&u).unwrap();
            assert!((&u * &inv).approx_eq(&Matrix::identity(u.rows()), TOL));
        }
    }

    #[test]
    fn singular_triangular_rejected() {
        let mut l = random_unit_lower(5, 1);
        l[(2, 2)] = 0.0;
        assert!(invert_lower(&l).is_err());
    }

    #[test]
    fn forward_and_back_substitution() {
        let l = random_unit_lower(8, 2);
        let x_true: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
        let b = l.mul_vec(&x_true).unwrap();
        let x = forward_substitution(&l, &b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < TOL);
        }

        let u = random_upper(8, 4);
        let b = u.mul_vec(&x_true).unwrap();
        let x = back_substitution(&u, &b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < TOL);
        }
    }

    /// The row-by-row forward substitution the abreast one must match:
    /// the general form, dividing each row by `l`'s diagonal.
    fn forward_row_by_row(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        for i in 0..b.len() {
            let mut acc = b[i];
            for k in 0..i {
                acc -= l[(i, k)] * x[k];
            }
            x[i] = acc / l[(i, i)];
        }
        x
    }

    /// Eight rows abreast give the row-by-row bits of a unit-lower solve,
    /// on random and on unit-basis right-hand sides, at orders below, at
    /// and off multiples of eight — with the diagonal and the strict upper
    /// triangle of the matrix it reads NaN, so a read of either shows.
    #[test]
    fn abreast_forward_substitution_keeps_the_row_by_row_bits() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [1, 5, 8, 9, 15, 16, 23, 37, 64, 100, 131] {
            let unit = random_unit_lower(n, n as u64);
            let mut poisoned = unit.clone();
            for i in 0..n {
                for j in i..n {
                    poisoned[(i, j)] = f64::NAN;
                }
            }
            let mut rhs = vec![random_matrix(n, 1, 3 * n as u64).into_vec()];
            rhs.extend([0, n / 2, n - 1].map(|j| {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                e
            }));
            for b in &rhs {
                let x = forward_substitution(&poisoned, b).unwrap();
                assert_eq!(bits(&x), bits(&forward_row_by_row(&unit, b)), "n = {n}");
            }
        }
    }

    #[test]
    fn substitution_validates_shapes() {
        let l = random_unit_lower(4, 0);
        assert!(forward_substitution(&l, &[0.0; 3]).is_err());
        assert!(back_substitution(&l, &[0.0; 5]).is_err());
        assert!(forward_substitution(&Matrix::zeros(2, 3), &[0.0; 2]).is_err());
    }

    #[test]
    fn eq6_u2_kernel_solves_l1_x_eq_a2() {
        // U2 = L1^-1 A2, per column.
        let l1 = random_unit_lower(10, 6);
        let a2 = random_matrix(10, 7, 7);
        let u2 = solve_unit_lower_system(&l1, &a2).unwrap();
        assert!((&l1 * &u2).approx_eq(&a2, TOL));
    }

    /// `X·U1 = B` as the pipeline's `L2'` mappers solve it: `U1ᵀ·Xᵀ = Bᵀ`,
    /// one lower solve against the transposed upper factor.
    fn solve_times_upper(u1: &Matrix, b: &Matrix) -> Matrix {
        let (u1_t, mut x) = (u1.transpose(), b.transpose());
        trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, &u1_t, &mut x).unwrap();
        x.transpose()
    }

    #[test]
    fn eq6_l2_kernel_solves_x_u1_eq_a3() {
        // L2' U1 = A3, per row.
        let u1 = random_upper(10, 8);
        let a3 = random_matrix(6, 10, 9);
        let l2 = solve_times_upper(&u1, &a3);
        assert!((&l2 * &u1).approx_eq(&a3, TOL));
    }

    #[test]
    fn eq6_consistency_with_lu_factors() {
        // For PA = LU of a full matrix, the Eq. 6 kernels recover the
        // U2/L2' blocks of the block decomposition.
        let a = random_matrix(12, 12, 11);
        let f = lu_decompose(&a).unwrap();
        let l = f.unit_lower();
        let u = f.upper();
        let pa = f.perm.apply_rows(&a);

        let k = 5;
        let l1 = l
            .block(crate::block::BlockRange::new((0, k), (0, k)))
            .unwrap();
        let u1 = u
            .block(crate::block::BlockRange::new((0, k), (0, k)))
            .unwrap();
        let pa2 = pa
            .block(crate::block::BlockRange::new((0, k), (k, 12)))
            .unwrap();
        let pa3 = pa
            .block(crate::block::BlockRange::new((k, 12), (0, k)))
            .unwrap();

        let u2 = solve_unit_lower_system(&l1, &pa2).unwrap();
        let expect_u2 = u
            .block(crate::block::BlockRange::new((0, k), (k, 12)))
            .unwrap();
        assert!(u2.approx_eq(&expect_u2, TOL));

        let l2 = solve_times_upper(&u1, &pa3);
        let expect_l2 = l
            .block(crate::block::BlockRange::new((k, 12), (0, k)))
            .unwrap();
        assert!(l2.approx_eq(&expect_l2, TOL));
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(tri_inv_flops(0), 0);
        assert_eq!(tri_inv_flops(6), 144);
        assert_eq!(trsm_flops(6, 2), 72);
        assert_eq!(trsm_flops(0, 5), 0);
    }
}
