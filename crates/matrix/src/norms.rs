//! Matrix and vector norms, plus the paper's accuracy metric.

use crate::dense::Matrix;
use crate::error::Result;
use crate::kernel::{self, notrans};

impl Matrix {
    /// Maximum absolute element (`max_{ij} |a_ij|`).
    pub fn max_norm(&self) -> f64 {
        self.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

/// Euclidean norm of a vector.
pub fn vec_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The paper's Section 7.2 accuracy metric: the maximum absolute element of
/// `I_n - M·M_inv`. The paper verifies this is below `1e-5` for its suite.
pub fn inversion_residual(m: &Matrix, m_inv: &Matrix) -> Result<f64> {
    let n = m.order()?;
    let prod = kernel::mul(notrans(m), notrans(m_inv))?;
    let residual = &Matrix::identity(n) - &prod;
    Ok(residual.max_norm())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_decompose;
    use crate::random::random_well_conditioned;
    use crate::triangular::{invert_lower, invert_upper};

    #[test]
    fn norms_on_known_matrix() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]).unwrap();
        assert_eq!(m.max_norm(), 4.0);
    }

    #[test]
    fn norms_on_empty_and_zero() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.max_norm(), 0.0);
        assert_eq!(Matrix::zeros(0, 0).max_norm(), 0.0);
    }

    #[test]
    fn vec_norm_matches_manual() {
        assert_eq!(vec_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(vec_norm(&[]), 0.0);
    }

    #[test]
    fn residual_of_true_inverse_is_tiny() {
        let a = random_well_conditioned(32, 17);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        // A^-1 = U^-1 L^-1 P (Section 4.3).
        let a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        let res = inversion_residual(&a, &a_inv).unwrap();
        assert!(res < crate::PAPER_ACCURACY, "residual {res} too large");
    }

    #[test]
    fn residual_detects_a_wrong_inverse() {
        let a = random_well_conditioned(8, 3);
        let wrong = Matrix::identity(8);
        let res = inversion_residual(&a, &wrong).unwrap();
        assert!(res > 1.0);
    }

    #[test]
    fn residual_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(inversion_residual(&a, &a).is_err());
    }
}
