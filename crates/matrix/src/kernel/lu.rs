//! Right-looking blocked LU with partial pivoting (LAPACK `dgetrf`
//! structure): factor an `nb`-wide column panel unblocked, solve the
//! matching row panel with [`trsm`](super::trsm), then rank-`nb` update
//! the trailing submatrix with one GEMM — which is where the packed
//! engine turns the `O(n^3)` of the factorization into level-3 work.
//!
//! Pivot choices match the unblocked Algorithm 1 exactly (each column is
//! fully updated before its pivot search, whether the updates arrived as
//! rank-1 steps or as one GEMM), so the permutation is the same; the
//! factor values differ only by the summation order of the trailing
//! updates.

use super::trsm::trsm_window;
use super::{gemm_window, notrans, Diag, GemmBackend, MatMut, MatrixError, Result, Side, Uplo};
use crate::dense::Matrix;
use crate::permutation::Permutation;

/// Blocked variant of [`crate::lu::lu_decompose`], in place: overwrites
/// `a` with the same packed-factor layout (same singularity threshold,
/// trailing updates through `backend`) and returns the pivot permutation
/// (`P·A = L·U`).
pub(crate) fn lu_blocked_in_place(
    a: &mut Matrix,
    nb: usize,
    backend: &dyn GemmBackend,
) -> Result<Permutation> {
    if nb == 0 {
        return Err(MatrixError::InvalidParameter {
            op: "lu_blocked",
            what: "panel width must be positive, got 0",
        });
    }
    let n = a.order()?;
    let mut perm = Permutation::identity(n);
    // Same relative singularity threshold as the unblocked routine.
    let scale = a.as_slice().iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let tol = if scale == 0.0 {
        f64::MIN_POSITIVE
    } else {
        scale * f64::EPSILON * n as f64
    };

    for k0 in (0..n).step_by(nb) {
        let k1 = (k0 + nb).min(n);

        // Panel factorization over full rows: swapping whole rows applies
        // the interchanges to the already-factored left columns and the
        // not-yet-updated right columns in the same motion, but the rank-1
        // elimination below touches only the panel's own columns — the
        // trailing block waits for the GEMM.
        for i in k0..k1 {
            let mut pivot_row = i;
            let mut pivot_val = a[(i, i)].abs();
            for j in (i + 1)..n {
                let v = a[(j, i)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = j;
                }
            }
            if pivot_val < tol {
                return Err(MatrixError::Singular { step: i });
            }
            if pivot_row != i {
                a.swap_rows(i, pivot_row);
                perm.swap(i, pivot_row);
            }

            let inv_pivot = 1.0 / a[(i, i)];
            for j in (i + 1)..n {
                a[(j, i)] *= inv_pivot;
            }
            let ncols = a.cols();
            for j in (i + 1)..n {
                let lji = a[(j, i)];
                if lji == 0.0 {
                    continue;
                }
                let (top, bottom) = a.as_mut_slice().split_at_mut(j * ncols);
                let urow = &top[i * ncols..i * ncols + ncols];
                let jrow = &mut bottom[..ncols];
                for k in (i + 1)..k1 {
                    jrow[k] -= lji * urow[k];
                }
            }
        }

        if k1 == n {
            break;
        }

        // The trailing square, quartered in place around the panel.
        let w = k1 - k0;
        let (top, bottom) = MatMut::from(&mut *a).window(k0..n, k0..n).split_rows(w);
        let (l11, mut u12) = top.split_cols(w);
        let (l21, a22) = bottom.split_cols(w);

        // U12 := L11^-1 · A12 (unit lower solve against the panel's
        // in-place factor; trsm only reads the lower triangle).
        trsm_window(
            backend,
            Side::Left,
            Uplo::Lower,
            Diag::Unit,
            true,
            l11.as_ref(),
            u12.reborrow(),
        )?;

        // A22 -= L21 · U12: the rank-nb trailing update, all level-3.
        gemm_window(
            backend,
            -1.0,
            notrans(l21.as_ref()),
            notrans(u12.as_ref()),
            1.0,
            a22,
        )?;
    }
    Ok(perm)
}
