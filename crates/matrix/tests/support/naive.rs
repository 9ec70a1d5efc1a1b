//! The reference GEMM the differential tests hold the packed engine
//! against: plain i-k-j loops over logical elements, each step a
//! separately rounded multiply and add. No library path runs it. Shared
//! by the kernel unit tests and `tests/proptests.rs`.

use mrinv_matrix::kernel::OpRef;
use mrinv_matrix::Matrix;

/// `C := alpha * op(A) * op(B) + beta * C` by the reference loops.
/// `beta == 0` overwrites, so NaNs in `C` do not propagate.
///
/// # Panics
/// If the shapes do not line up.
pub fn naive_gemm(alpha: f64, a: OpRef<'_>, b: OpRef<'_>, beta: f64, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "naive_gemm: inner dimensions");
    assert_eq!(c.shape(), (a.rows(), b.cols()), "naive_gemm: output shape");
    for i in 0..a.rows() {
        let crow = c.row_mut(i);
        for v in crow.iter_mut() {
            *v = if beta == 0.0 { 0.0 } else { *v * beta };
        }
        for p in 0..a.cols() {
            let s = alpha * a.at(i, p);
            for (j, v) in crow.iter_mut().enumerate() {
                *v += s * b.at(p, j);
            }
        }
    }
}
