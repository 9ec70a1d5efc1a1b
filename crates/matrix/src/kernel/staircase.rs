//! Products of *staircase* operands: `C = op(A)·op(B)` where row `i` of
//! `op(A)` is zero before some `k` that grows with `i`, and column `j` of
//! `op(B)` before one that grows with `j` — an upper triangle times a lower
//! one, as in `A⁻¹ = U⁻¹·L⁻¹` (Section 4.3).
//!
//! Term `k` of element `(i, j)` can then be nonzero only from the later of
//! the two steps on. [`gemm_staircase`] cuts `C` into [`TILE`]-square tiles
//! and multiplies each from its first possibly-nonzero term only: one call
//! up to the next [`K_PANEL`] boundary, one over the aligned rest, both
//! adding onto a zeroed `C`. Every term so dropped is an exact `±0.0`
//! product (for finite operands) at the head of a packed panel sum that
//! starts at `+0.0`, where it would have left the sum at `+0.0`; every
//! panel boundary stays where the dense product has it. So the result is
//! the dense product's, bit for bit — the argument [`super::trsm`]'s
//! observed zeros rest on — at about a third of its flops for two whole
//! triangles.

use super::{
    check_gemm, gemm_window, global_backend, scale_by_beta, GemmBackend, MatMut, OpRef, Result,
    K_PANEL,
};
use crate::dense::Matrix;

/// Side of the square tiles of `C` that each start at their own first
/// nonzero term. Of 64, 96, 128, 192 and 256, the fastest for the final
/// product at n = 384 and n = 768.
const TILE: usize = 128;

/// `C := op(A)·op(B)` for staircase operands, through the process-wide
/// default backend: bit-identical to [`gemm`](super::gemm) with
/// `alpha = 1`, `beta = 0`, for finite operands.
///
/// Column `p` of `op(A)` and row `p` of `op(B)` stand for index
/// `k = origin + p` of the whole product. Row `i` of `op(A)` must be zero
/// before `k = a_row0 + i`, and column `j` of `op(B)` before
/// `k = b_col0 + j`; either step may start before `origin`. Those zeros
/// are trusted, not checked. With `origin` a multiple of [`K_PANEL`] the
/// result is also bit-identical to the product over the whole, unwindowed
/// operands.
///
/// Under a backend that does not sum in K panels
/// ([`GemmBackend::sums_in_k_panels`]) — the [`Naive`](super::Naive)
/// oracle — this is one dense product.
///
/// ```
/// use mrinv_matrix::kernel::{gemm, gemm_staircase, notrans};
/// use mrinv_matrix::Matrix;
///
/// // Upper triangle times lower triangle.
/// let u = Matrix::from_fn(5, 5, |i, j| if j >= i { (i + 2 * j + 1) as f64 } else { 0.0 });
/// let l = u.transpose();
/// let mut dense = Matrix::zeros(5, 5);
/// gemm(1.0, notrans(&u), notrans(&l), 0.0, &mut dense).unwrap();
/// let mut c = Matrix::zeros(5, 5);
/// gemm_staircase(notrans(&u), 0, notrans(&l), 0, 0, &mut c).unwrap();
/// assert_eq!(c, dense);
/// ```
pub fn gemm_staircase(
    a: OpRef<'_>,
    a_row0: usize,
    b: OpRef<'_>,
    b_col0: usize,
    origin: usize,
    c: &mut Matrix,
) -> Result<()> {
    let backend = global_backend().as_backend();
    staircase_with(backend, a, a_row0, b, b_col0, origin, c.into())
}

/// [`gemm_staircase`] through an explicit backend, on a window of `C`.
pub(crate) fn staircase_with(
    backend: &dyn GemmBackend,
    a: OpRef<'_>,
    a_row0: usize,
    b: OpRef<'_>,
    b_col0: usize,
    origin: usize,
    mut c: MatMut<'_>,
) -> Result<()> {
    if !backend.sums_in_k_panels() {
        return gemm_window(backend, 1.0, a, b, 0.0, c);
    }
    check_gemm(&a, &b, &c)?;
    scale_by_beta(&mut c, 0.0);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i0 in (0..m).step_by(TILE) {
        let rows = i0..m.min(i0 + TILE);
        for j0 in (0..n).step_by(TILE) {
            let cols = j0..n.min(j0 + TILE);
            let mut tile = c.reborrow().window(rows.clone(), cols.clone());
            // Every term of the tile before `t` is an exact zero.
            let t = (a_row0 + i0).max(b_col0 + j0).saturating_sub(origin);
            let aligned = t.next_multiple_of(K_PANEL).min(k);
            for span in [t..aligned, aligned..k] {
                if !span.is_empty() {
                    gemm_window(
                        backend,
                        1.0,
                        a.window(rows.clone(), span.clone()),
                        b.window(span, cols.clone()),
                        1.0,
                        tile.reborrow(),
                    )?;
                }
            }
        }
    }
    Ok(())
}
