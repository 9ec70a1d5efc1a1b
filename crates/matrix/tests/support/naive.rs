//! The reference GEMM the differential tests hold the packed engine
//! against: plain i-k-j loops over logical elements, each step a
//! separately rounded multiply and add. A test names it per call
//! (`gemm_with(&Naive, ..)`, `trsm_with(&Naive, ..)`); no library path
//! runs it. Shared by the kernel unit tests and `tests/proptests.rs`.

use mrinv_matrix::kernel::{GemmBackend, MatMut, OpRef};

/// The reference backend (see the module docs).
pub struct Naive;

impl GemmBackend for Naive {
    fn gemm_checked(
        &self,
        alpha: f64,
        a: OpRef<'_>,
        b: OpRef<'_>,
        beta: f64,
        mut c: MatMut<'_>,
    ) -> mrinv_matrix::Result<()> {
        for i in 0..a.rows() {
            let crow = c.row_mut(i);
            for v in crow.iter_mut() {
                // `beta == 0` overwrites, so NaNs in `C` do not propagate.
                *v = if beta == 0.0 { 0.0 } else { *v * beta };
            }
            for p in 0..a.cols() {
                let s = alpha * a.at(i, p);
                for (j, v) in crow.iter_mut().enumerate() {
                    *v += s * b.at(p, j);
                }
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}
