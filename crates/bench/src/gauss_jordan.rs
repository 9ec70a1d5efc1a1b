//! Gauss-Jordan elimination — the paper's first considered-and-rejected
//! inversion method (Section 2).
//!
//! The method concatenates `[A | I]` and row-reduces the left half to the
//! identity, leaving `A^-1` on the right. It uses the same `n³`
//! multiplications as LU-based inversion, but its `2n` sequential
//! elimination steps each depend on the previous one, so a MapReduce port
//! would need a pipeline of `~n` jobs (the paper cites Quintana et al.'s
//! parallel version needing `n` iterations) — versus the block-LU
//! pipeline's `2^⌈log2(n/nb)⌉`. This implementation exists to make that
//! Section 2 comparison executable: same answers, hopeless job count.

use mrinv_matrix::{Matrix, MatrixError, Result};

/// Inverts `a` by Gauss-Jordan elimination with partial pivoting.
pub(crate) fn invert_gauss_jordan(a: &Matrix) -> Result<Matrix> {
    let n = a.order()?;
    // Augmented system [A | I], row-major.
    let mut left = a.clone();
    let mut right = Matrix::identity(n);
    let scale = a.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let tol = if scale == 0.0 {
        f64::MIN_POSITIVE
    } else {
        scale * f64::EPSILON * n as f64
    };

    // Forward phase: reduce the left half to upper triangular with unit
    // diagonal (the first n steps of Equation 1).
    for k in 0..n {
        // Pivot: swap in the row with the largest |element| in column k.
        let mut pivot_row = k;
        let mut pivot_val = left[(k, k)].abs();
        for r in (k + 1)..n {
            let v = left[(r, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < tol {
            return Err(MatrixError::Singular { step: k });
        }
        left.swap_rows(k, pivot_row);
        right.swap_rows(k, pivot_row);

        // Normalize row k so the pivot is 1.
        let inv_pivot = 1.0 / left[(k, k)];
        for j in 0..n {
            left[(k, j)] *= inv_pivot;
            right[(k, j)] *= inv_pivot;
        }
        // Eliminate below.
        for r in (k + 1)..n {
            let f = left[(r, k)];
            if f == 0.0 {
                continue;
            }
            for j in 0..n {
                let lv = left[(k, j)];
                let rv = right[(k, j)];
                left[(r, j)] -= f * lv;
                right[(r, j)] -= f * rv;
            }
        }
    }

    // Backward phase: clear above the diagonal (the second n steps).
    for k in (0..n).rev() {
        for r in 0..k {
            let f = left[(r, k)];
            if f == 0.0 {
                continue;
            }
            for j in 0..n {
                let lv = left[(k, j)];
                let rv = right[(k, j)];
                left[(r, j)] -= f * lv;
                right[(r, j)] -= f * rv;
            }
        }
    }
    Ok(right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::norms::inversion_residual;
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};

    #[test]
    fn inverts_well_conditioned_matrices() {
        for &n in &[1usize, 2, 8, 33, 64] {
            let a = random_well_conditioned(n, n as u64);
            let inv = invert_gauss_jordan(&a).unwrap();
            let res = inversion_residual(&a, &inv).unwrap();
            assert!(res < 1e-9, "n={n}: residual {res}");
        }
    }

    #[test]
    fn pivoting_handles_general_matrices() {
        for seed in 0..4 {
            let a = random_invertible(40, seed);
            let inv = invert_gauss_jordan(&a).unwrap();
            assert!(inversion_residual(&a, &inv).unwrap() < 1e-7);
        }
    }

    #[test]
    fn agrees_with_lu_based_inversion() {
        use mrinv_matrix::lu::lu_decompose;
        use mrinv_matrix::triangular::{invert_lower, invert_upper};
        let a = random_invertible(32, 9);
        let gj = invert_gauss_jordan(&a).unwrap();
        let f = lu_decompose(&a).unwrap();
        let via_lu = f.perm.apply_cols(
            &(&invert_upper(&f.upper()).unwrap() * &invert_lower(&f.unit_lower()).unwrap()),
        );
        assert!(gj.approx_eq(&via_lu, 1e-8));
    }

    #[test]
    fn rejects_singular_and_non_square() {
        assert!(invert_gauss_jordan(&Matrix::zeros(4, 4)).is_err());
        assert!(invert_gauss_jordan(&Matrix::zeros(2, 3)).is_err());
        // An exact zero row is unambiguously singular. (A *duplicated* row
        // can survive the threshold after pivot swaps reorder the
        // eliminations and leave rounding residue — LU's unnormalized
        // elimination detects that case more reliably; see
        // mrinv_matrix::lu::tests::singular_matrix_is_detected.)
        let mut a = random_well_conditioned(8, 1);
        for v in a.row_mut(5) {
            *v = 0.0;
        }
        assert!(invert_gauss_jordan(&a).is_err());
    }

    #[test]
    fn zero_pivot_column_requires_swap() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let inv = invert_gauss_jordan(&a).unwrap();
        assert!(
            inv.approx_eq(&a, 1e-12),
            "permutation matrix is its own inverse"
        );
    }
}
