//! Cholesky factorization for symmetric positive-definite matrices — the
//! specialized method of the related work the paper cites (Section 3:
//! Bientinesi, Gunter, van de Geijn invert SPD matrices via Cholesky).
//!
//! `A = G·Gᵀ` with `G` lower triangular costs half the flops of LU
//! (`n³/3` multiply-adds vs `2n³/3`) and needs no pivoting, but only
//! applies to SPD inputs — "it does not work for general matrices", which
//! is why the paper builds on LU. Provided here so `repro section2` can
//! quantify the 2× kernel gap.

use mrinv_matrix::kernel::{self, notrans, trans};
use mrinv_matrix::triangular::invert_lower;
use mrinv_matrix::{Matrix, MatrixError, Result};

/// Cholesky-factorizes an SPD matrix: returns lower-triangular `G` with
/// `A = G·Gᵀ`.
///
/// Returns [`MatrixError::Singular`] when a diagonal entry fails to be
/// positive (the matrix is not positive definite).
pub(crate) fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.order()?;
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            // Streaming dot over the already-computed rows.
            let mut acc = a[(i, j)];
            for k in 0..j {
                acc -= g[(i, k)] * g[(j, k)];
            }
            if i == j {
                if acc <= 0.0 {
                    return Err(MatrixError::Singular { step: i });
                }
                g[(i, i)] = acc.sqrt();
            } else {
                g[(i, j)] = acc / g[(j, j)];
            }
        }
    }
    Ok(g)
}

/// Inverts an SPD matrix through Cholesky: `A^-1 = G^-ᵀ·G^-1`.
pub(crate) fn invert_spd(a: &Matrix) -> Result<Matrix> {
    let g = cholesky(a)?;
    let g_inv = invert_lower(&g)?;
    // A^-1 = (G^-1)ᵀ (G^-1): the Op::Trans operand is packed row-major by
    // the engine, so no transpose is materialized.
    kernel::mul(trans(&g_inv), notrans(&g_inv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::norms::inversion_residual;
    use mrinv_matrix::random::{random_matrix, random_spd};

    #[test]
    fn factor_reconstructs_a() {
        for &n in &[1usize, 4, 17, 40] {
            let a = random_spd(n, n as u64);
            let g = cholesky(&a).unwrap();
            let ggt = kernel::mul(notrans(&g), trans(&g)).unwrap();
            assert!(ggt.approx_eq(&a, 1e-7 * n as f64), "n={n}");
            for i in 0..n {
                assert!(g[(i, i)] > 0.0);
                for j in (i + 1)..n {
                    assert_eq!(g[(i, j)], 0.0, "strictly lower triangular");
                }
            }
        }
    }

    #[test]
    fn spd_inversion_is_accurate() {
        let a = random_spd(32, 5);
        let inv = invert_spd(&a).unwrap();
        assert!(inversion_residual(&a, &inv).unwrap() < 1e-8);
        // SPD inverses are symmetric.
        assert!(inv.approx_eq(&inv.transpose(), 1e-9));
    }

    #[test]
    fn agrees_with_general_lu_inversion() {
        use mrinv_matrix::lu::lu_decompose;
        use mrinv_matrix::triangular::{invert_lower as il, invert_upper};
        let a = random_spd(24, 6);
        let via_chol = invert_spd(&a).unwrap();
        let f = lu_decompose(&a).unwrap();
        let via_lu = f
            .perm
            .apply_cols(&(&invert_upper(&f.upper()).unwrap() * &il(&f.unit_lower()).unwrap()));
        assert!(via_chol.approx_eq(&via_lu, 1e-7));
    }

    #[test]
    fn rejects_indefinite_matrices() {
        // Symmetric but indefinite: eigenvalues of opposite signs.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(cholesky(&a).is_err());
        // Random non-symmetric general matrices are almost surely not SPD;
        // even if cholesky runs on A's lower triangle, a negative pivot
        // appears quickly.
        let m = random_matrix(12, 12, 3);
        let sym = {
            let mut s = Matrix::zeros(12, 12);
            for i in 0..12 {
                for j in 0..12 {
                    s[(i, j)] = 0.5 * (m[(i, j)] + m[(j, i)]);
                }
            }
            s
        };
        assert!(cholesky(&sym).is_err(), "random symmetric is indefinite");
        assert!(cholesky(&Matrix::zeros(3, 3)).is_err());
        assert!(cholesky(&Matrix::zeros(2, 3)).is_err());
    }
}
