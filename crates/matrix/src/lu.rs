//! Single-node LU decomposition with partial pivoting (Algorithm 1).
//!
//! On the master node the pipeline decomposes blocks of order at most `nb`
//! with this routine; the distributed block method (Algorithm 2) lives in
//! the core crate and calls back into this one at the recursion leaves.
//!
//! The factors are stored *in place of the input* exactly as the paper
//! describes: the strict lower triangle holds `L` (whose unit diagonal is
//! implicit) and the upper triangle, including the diagonal, holds `U`.
//! Pivoting produces the permutation `P` (as a compact
//! [`Permutation`] array) such that `P·A = L·U`.

use crate::dense::Matrix;
use crate::error::Result;
use crate::permutation::Permutation;

/// Packed LU factors plus the pivot permutation: `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Packed factors: strict lower triangle is `L` (unit diagonal
    /// implicit), upper triangle is `U`.
    pub lu: Matrix,
    /// Row permutation `P` with `P·A = L·U`.
    pub perm: Permutation,
}

impl LuFactors {
    /// Extracts the unit lower-triangular factor `L`.
    pub fn unit_lower(&self) -> Matrix {
        let n = self.lu.rows();
        let mut l = Matrix::identity(n);
        for i in 1..n {
            for j in 0..i {
                l[(i, j)] = self.lu[(i, j)];
            }
        }
        l
    }

    /// Extracts the upper-triangular factor `U`.
    pub fn upper(&self) -> Matrix {
        let n = self.lu.rows();
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                u[(i, j)] = self.lu[(i, j)];
            }
        }
        u
    }

    /// Recomputes `L·U` (equals `P·A`); used by tests and accuracy checks.
    pub fn reconstruct(&self) -> Matrix {
        &self.unit_lower() * &self.upper()
    }
}

/// Approximate flop count of an order-`n` LU decomposition
/// (`n^3/3` multiplications plus `n^3/3` additions, Section 2).
pub fn lu_flops(n: usize) -> u64 {
    let n = n as u64;
    2 * n * n * n / 3
}

/// LU-decomposes `a` with partial pivoting (Algorithm 1): returns packed
/// factors and the permutation with `P·A = L·U`.
///
/// Returns [`crate::MatrixError::Singular`] when an elimination step finds no pivot
/// above the numerical threshold (the matrix has no inverse).
pub fn lu_decompose(a: &Matrix) -> Result<LuFactors> {
    let mut lu = a.clone();
    let perm = crate::kernel::lu_decompose_in_place(&mut lu)?;
    Ok(LuFactors { lu, perm })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MatrixError;
    use crate::kernel::lu_decompose_in_place;
    use crate::random::random_matrix;

    #[test]
    fn known_3x3_decomposition() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, 3.0, 3.0], &[8.0, 7.0, 9.0]]).unwrap();
        let f = lu_decompose(&a).unwrap();
        let pa = f.perm.apply_rows(&a);
        assert!(f.reconstruct().approx_eq(&pa, 1e-12));
        // With partial pivoting the first pivot row must be the one with
        // max |a_i0| = 8.
        assert_eq!(f.perm.source_of(0), 2);
        // A zero leading entry is a row swap, not a failure.
        let swap = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(lu_decompose(&swap).is_ok());
    }

    #[test]
    fn pa_equals_lu_random() {
        for seed in 0..5 {
            let n = 20 + seed as usize * 13;
            let a = random_matrix(n, n, seed);
            let f = lu_decompose(&a).unwrap();
            let pa = f.perm.apply_rows(&a);
            assert!(
                f.reconstruct().approx_eq(&pa, 1e-8),
                "PA != LU for seed {seed}"
            );
        }
    }

    #[test]
    fn factors_have_triangular_shape() {
        let a = random_matrix(12, 12, 42);
        let f = lu_decompose(&a).unwrap();
        let l = f.unit_lower();
        let u = f.upper();
        for i in 0..12 {
            assert_eq!(l[(i, i)], 1.0, "L must be unit diagonal");
            for j in (i + 1)..12 {
                assert_eq!(l[(i, j)], 0.0, "L must be lower triangular");
            }
            for j in 0..i {
                assert_eq!(u[(i, j)], 0.0, "U must be upper triangular");
            }
        }
    }

    #[test]
    fn pivoting_bounds_multipliers() {
        // With partial pivoting every |l_ij| <= 1.
        let a = random_matrix(30, 30, 7);
        let f = lu_decompose(&a).unwrap();
        let l = f.unit_lower();
        for i in 0..30 {
            for j in 0..i {
                assert!(l[(i, j)].abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        // Two identical rows.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(
            lu_decompose(&a),
            Err(MatrixError::Singular { .. })
        ));
        let z = Matrix::zeros(4, 4);
        assert!(lu_decompose(&z).is_err());
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(3, 4);
        assert!(lu_decompose(&a).is_err());
    }

    #[test]
    fn in_place_variant_matches() {
        let a = random_matrix(16, 16, 9);
        let f = lu_decompose(&a).unwrap();
        let mut b = a.clone();
        let p = lu_decompose_in_place(&mut b).unwrap();
        assert_eq!(p, f.perm);
        assert!(b.approx_eq(&f.lu, 0.0));
    }

    #[test]
    fn order_one_matrix() {
        let a = Matrix::from_rows(&[&[4.0]]).unwrap();
        let f = lu_decompose(&a).unwrap();
        assert_eq!(f.upper()[(0, 0)], 4.0);
        assert!(f.perm.is_identity());
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(lu_flops(0), 0);
        assert_eq!(lu_flops(3), 18);
        assert_eq!(lu_flops(100), 2 * 100 * 100 * 100 / 3);
    }
}
