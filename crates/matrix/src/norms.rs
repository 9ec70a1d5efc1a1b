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
///
/// Holds one `n x n` matrix, `P = M·M_inv`, and folds `|δᵢⱼ - pᵢⱼ|` over
/// it in row-major order: the value of [`Matrix::max_norm`] on `I - P`, bit
/// for bit, without `I` or `I - P` — except that a NaN anywhere in `P` is
/// `+∞`, a failed check, where `f64::max` would skip it.
pub fn inversion_residual(m: &Matrix, m_inv: &Matrix) -> Result<f64> {
    m.order()?;
    m_inv.order()?;
    let prod = kernel::mul(notrans(m), notrans(m_inv))?;
    let mut max = 0.0_f64;
    for (i, row) in prod.row_iter().enumerate() {
        for (j, &p) in row.iter().enumerate() {
            if p.is_nan() {
                return Ok(f64::INFINITY);
            }
            let delta = if i == j { 1.0 } else { 0.0 };
            max = max.max((delta - p).abs());
        }
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_decompose;
    use crate::random::{random_matrix, random_well_conditioned};
    use crate::triangular::{invert_lower, invert_upper};
    use proptest::prelude::*;

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
        // A square matrix against a non-square "inverse" of matching inner
        // dimension, and against a square one of another order.
        let sq = Matrix::identity(2);
        assert!(inversion_residual(&sq, &a).is_err());
        assert!(inversion_residual(&sq, &Matrix::identity(3)).is_err());
    }

    /// The three-matrix formula the one-buffer fold replaced, reading a
    /// NaN anywhere in `I - P` as `+∞`: the oracle.
    fn three_matrix_residual(m: &Matrix, m_inv: &Matrix) -> f64 {
        let prod = kernel::mul(notrans(m), notrans(m_inv)).unwrap();
        let residual = &Matrix::identity(m.rows()) - &prod;
        if residual.as_slice().iter().any(|v| v.is_nan()) {
            return f64::INFINITY;
        }
        residual.max_norm()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Bit-equal to the oracle on random inputs, and on inputs whose
        /// entries are replaced by NaN, ±Inf, -0.0 or 0.0 at random (an
        /// Inf can make NaN products too).
        #[test]
        fn residual_is_bit_equal_to_the_three_matrix_formula(
            (n, seed, specials) in (
                0usize..12,
                any::<u64>(),
                prop::collection::vec((any::<usize>(), 0usize..5), 0..6),
            )
        ) {
            let mut m = random_matrix(n, n, seed);
            let mut m_inv = random_matrix(n, n, seed ^ 0x9e37_79b9);
            if n > 0 {
                for (at, which) in specials {
                    let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0][which];
                    let target = if at % 2 == 0 { &mut m } else { &mut m_inv };
                    target.as_mut_slice()[at / 2 % (n * n)] = value;
                }
            }
            let got = inversion_residual(&m, &m_inv).unwrap();
            prop_assert_eq!(got.to_bits(), three_matrix_residual(&m, &m_inv).to_bits());
        }
    }

    #[test]
    fn residual_of_special_values() {
        let identity = Matrix::identity(3);
        let mut one_inf = Matrix::identity(3);
        one_inf[(1, 2)] = f64::INFINITY;
        let residual = |m: &Matrix| inversion_residual(m, &identity).unwrap();
        assert_eq!(residual(&identity), 0.0);
        assert_eq!(residual(&Matrix::from_fn(3, 3, |_, _| -0.0)), 1.0);
        assert_eq!(residual(&one_inf), f64::INFINITY);
        // `f64::max` skips NaN; the residual must not read a NaN as clean.
        assert_eq!(
            residual(&Matrix::from_fn(3, 3, |_, _| f64::NAN)),
            f64::INFINITY
        );
    }

    #[test]
    fn one_nan_in_a_correct_inverse_fails_the_check() {
        let a = random_well_conditioned(16, 5);
        let f = lu_decompose(&a).unwrap();
        let l_inv = invert_lower(&f.unit_lower()).unwrap();
        let u_inv = invert_upper(&f.upper()).unwrap();
        let mut a_inv = f.perm.apply_cols(&(&u_inv * &l_inv));
        assert!(inversion_residual(&a, &a_inv).unwrap() < crate::PAPER_ACCURACY);
        a_inv[(3, 11)] = f64::NAN;
        assert_eq!(inversion_residual(&a, &a_inv).unwrap(), f64::INFINITY);
    }
}
