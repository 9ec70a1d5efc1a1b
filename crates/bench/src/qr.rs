//! QR decomposition via the Gram-Schmidt process — the paper's second
//! considered-and-rejected inversion method (Section 2).
//!
//! `A = Q·R` with `Q` orthogonal and `R` upper triangular gives
//! `A^-1 = R^-1·Qᵀ`. The paper rejects it for MapReduce because
//! Gram-Schmidt "requires computing a sequence of n vectors where each
//! vector relies on all previous vectors (i.e., n steps are required)".
//! We implement the *modified* Gram-Schmidt variant (numerically far
//! better than classical, same sequential structure) so the Section 2
//! comparison is executable.

use mrinv_matrix::triangular::back_substitution;
use mrinv_matrix::{Matrix, MatrixError, Result};

/// The QR factors of a square matrix.
#[derive(Debug, Clone)]
pub(crate) struct QrFactors {
    /// Orthogonal factor (`QᵀQ = I`).
    pub(crate) q: Matrix,
    /// Upper-triangular factor.
    pub(crate) r: Matrix,
}

/// Decomposes `a = Q·R` by modified Gram-Schmidt.
///
/// Returns [`MatrixError::Singular`] when a column's residual norm
/// vanishes (rank deficiency).
pub(crate) fn qr_decompose(a: &Matrix) -> Result<QrFactors> {
    let n = a.order()?;
    // Work on columns: v_j starts as column j of A.
    let mut v: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut q = Matrix::zeros(n, n);
    let mut r = Matrix::zeros(n, n);
    let scale = a.as_slice().iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
    let tol = if scale == 0.0 {
        f64::MIN_POSITIVE
    } else {
        scale * f64::EPSILON * n as f64
    };

    for j in 0..n {
        // The sequential dependency: q_j needs every earlier q_k.
        let norm = v[j].iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < tol {
            return Err(MatrixError::Singular { step: j });
        }
        r[(j, j)] = norm;
        let qj: Vec<f64> = v[j].iter().map(|x| x / norm).collect();
        for (i, &val) in qj.iter().enumerate() {
            q[(i, j)] = val;
        }
        for k in (j + 1)..n {
            let proj: f64 = qj.iter().zip(&v[k]).map(|(a, b)| a * b).sum();
            r[(j, k)] = proj;
            for (vi, &qi) in v[k].iter_mut().zip(&qj) {
                *vi -= proj * qi;
            }
        }
    }
    Ok(QrFactors { q, r })
}

/// Inverts `a` through QR: `A^-1 = R^-1·Qᵀ`, computed column by column
/// with back substitution (`R·x = Qᵀ·e_j`).
pub(crate) fn invert_qr(a: &Matrix) -> Result<Matrix> {
    let n = a.order()?;
    let f = qr_decompose(a)?;
    let qt = f.q.transpose();
    let mut inv = Matrix::zeros(n, n);
    for j in 0..n {
        let x = back_substitution(&f.r, qt.col(j).as_slice())?;
        for i in 0..n {
            inv[(i, j)] = x[i];
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::norms::inversion_residual;
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};

    #[test]
    fn q_is_orthogonal_and_r_upper() {
        let a = random_invertible(24, 1);
        let f = qr_decompose(&a).unwrap();
        let qtq = &f.q.transpose() * &f.q;
        assert!(qtq.approx_eq(&Matrix::identity(24), 1e-9), "QᵀQ = I");
        for i in 0..24 {
            assert!(f.r[(i, i)] > 0.0, "positive diagonal");
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_reconstructs_a() {
        for seed in 0..3 {
            let a = random_invertible(20, seed);
            let f = qr_decompose(&a).unwrap();
            assert!((&f.q * &f.r).approx_eq(&a, 1e-9));
        }
    }

    #[test]
    fn inversion_is_accurate() {
        for &n in &[1usize, 5, 16, 48] {
            let a = random_well_conditioned(n, n as u64 + 7);
            let inv = invert_qr(&a).unwrap();
            let res = inversion_residual(&a, &inv).unwrap();
            assert!(res < 1e-8, "n={n}: residual {res}");
        }
    }

    #[test]
    fn agrees_with_gauss_jordan() {
        let a = random_invertible(28, 4);
        let qr = invert_qr(&a).unwrap();
        let gj = crate::gauss_jordan::invert_gauss_jordan(&a).unwrap();
        assert!(qr.approx_eq(&gj, 1e-7));
    }

    #[test]
    fn rank_deficiency_is_detected() {
        let mut a = random_well_conditioned(6, 2);
        // Make column 4 a copy of column 1.
        for i in 0..6 {
            let v = a[(i, 1)];
            a[(i, 4)] = v;
        }
        assert!(qr_decompose(&a).is_err());
        assert!(invert_qr(&Matrix::zeros(3, 3)).is_err());
        assert!(qr_decompose(&Matrix::zeros(2, 3)).is_err());
    }
}
