//! Right-looking blocked LU with partial pivoting (LAPACK `dgetrf`
//! structure): factor an `nb`-wide column panel unblocked, solve the
//! matching row panel with [`trsm`](super::trsm), then rank-`nb` update
//! the trailing submatrix with one GEMM — which is where the packed
//! engine turns the `O(n^3)` of the factorization into level-3 work.
//!
//! The panel is Algorithm 1's rank-1 loop, each elimination step one fused
//! multiply-add `a[j][k] = (-l_ji).mul_add(u_ik, a[j][k])` on the packed
//! microkernel's arm, so the leaf rounds as GEMM and trsm do and returns
//! the same bits on every host.
//!
//! Pivot choices match the unblocked Algorithm 1 exactly (each column is
//! fully updated before its pivot search, whether the updates arrived as
//! rank-1 steps or as one GEMM), so the permutation is the same; the
//! factor values differ only by the summation order of the trailing
//! updates.

use std::ops::Range;

use super::packed::{Arm, Fused, Stairs};
use super::trsm::trsm_window;
use super::{engine, notrans, Diag, MatMut, MatrixError, Result};
use crate::dense::Matrix;
use crate::permutation::Permutation;

/// Matrix order from which [`lu_decompose_in_place`] factors in
/// [`PANEL`]-wide panels. Below it one panel spans the matrix: Algorithm 1
/// as written, no trailing GEMM — every `nb`-order leaf of the
/// distributed pipeline.
const BLOCKED_LU_MIN_ORDER: usize = 128;
/// Panel width of the blocked factorization.
const PANEL: usize = 64;

/// LU-decomposes `a` in place with partial pivoting (Algorithm 1): `a` is
/// overwritten with the packed factors and the pivot permutation
/// (`P·A = L·U`) is returned. Orders from 128 on are factored in 64-wide
/// panels with trailing updates through the packed engine; below that, in
/// one panel.
pub(crate) fn lu_decompose_in_place(a: &mut Matrix) -> Result<Permutation> {
    let n = a.order()?;
    let panel = if n >= BLOCKED_LU_MIN_ORDER {
        PANEL
    } else {
        n.max(1)
    };
    lu_blocked_in_place(a, panel, Arm::detect())
}

/// Blocked LU in place with panel width `nb`, every step on microkernel
/// arm `arm`: the panels, the row-panel trsm and the trailing updates.
/// Same packed-factor layout, singularity threshold and pivots as the
/// unblocked routine.
pub(super) fn lu_blocked_in_place(a: &mut Matrix, nb: usize, arm: Arm) -> Result<Permutation> {
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
        arm.run(Panel {
            a: &mut *a,
            perm: &mut perm,
            cols: k0..k1,
            tol,
        })?;

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
        trsm_window(arm, Diag::Unit, true, l11.as_ref(), u12.reborrow())?;

        // A22 -= L21 · U12: the rank-nb trailing update, all level-3.
        engine(
            arm,
            -1.0,
            notrans(l21.as_ref()),
            notrans(u12.as_ref()),
            1.0,
            Stairs::DENSE,
            a22,
        )?;
    }
    Ok(perm)
}

/// One panel's factorization over full rows, as one loop for
/// [`Arm::run`]: swapping whole rows applies the interchanges to the
/// already-factored left columns and the not-yet-updated right columns in
/// the same motion, but the rank-1 elimination touches only the panel's
/// own columns — the trailing block waits for the GEMM.
struct Panel<'a> {
    a: &'a mut Matrix,
    perm: &'a mut Permutation,
    cols: Range<usize>,
    tol: f64,
}

impl Fused for Panel<'_> {
    type Out = Result<()>;

    #[inline(always)]
    fn run(self) -> Result<()> {
        let Panel { a, perm, cols, tol } = self;
        let n = a.rows();
        let ncols = a.cols();
        for i in cols.clone() {
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
            for j in (i + 1)..n {
                let lji = -a[(j, i)];
                if lji == 0.0 {
                    continue;
                }
                let (top, bottom) = a.as_mut_slice().split_at_mut(j * ncols);
                let urow = &top[i * ncols + i + 1..i * ncols + cols.end];
                let jrow = &mut bottom[i + 1..cols.end];
                for (x, &u) in jrow.iter_mut().zip(urow) {
                    *x = lji.mul_add(u, *x);
                }
            }
        }
        Ok(())
    }
}
