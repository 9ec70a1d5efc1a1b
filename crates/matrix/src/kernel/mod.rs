//! BLAS-3-style dense kernel engine: one `gemm` entry point, packed
//! cache-blocked execution, blocked TRSM, and a right-looking blocked LU.
//!
//! The paper's single-node baseline (ScaLAPACK on tuned BLAS) spends its
//! time in exactly three level-3 kernels — GEMM, TRSM, and the LU panel
//! update — and the distributed pipeline's map/reduce tasks bottom out in
//! the same operations. This module replaces the nine overlapping naive
//! triple-loop entry points that used to live in the removed `multiply`
//! module with a single surface (re-exported at the crate root):
//!
//! * [`gemm`] — `C := alpha * op(A) * op(B) + beta * C` with
//!   [`Op::NoTrans`]/[`Op::Trans`] per operand;
//! * [`gemm_staircase`] — `C := op(A) * op(B)` for an upper-triangle-like
//!   `op(A)` and a lower-triangle-like `op(B)`, skipping their zero terms
//!   tile by tile with [`gemm`]'s bits;
//! * [`trsm`] — `B := alpha * T^-1 * B` (left) or `alpha * B * T^-1`
//!   (right) for triangular `T`, all [`Side`]/[`Uplo`]/[`Diag`] cases;
//! * `lu_decompose_in_place` — right-looking blocked LU whose trailing
//!   updates are [`gemm`] and [`trsm`].
//!
//! All four run on [`Packed`]: panels of `A` and `B` are packed into
//! contiguous, register-block-sized buffers, the MC/KC/NC loop nest keeps
//! them L1/L2-resident, an MR×NR register-tiled microkernel does the flops,
//! and rayon parallelizes over macro-tile rows. The microkernel, the trsm
//! leaves and the LU leaf share one arithmetic: every step is one fused
//! multiply-add, on the widest arm the host has (AVX-512F, AVX2 + FMA or
//! portable `f64::mul_add`, chosen by one CPUID probe, all bit-equal).
//!
//! [`GemmBackend`] stays a trait so that a test can substitute another
//! GEMM per call ([`gemm_with`], [`trsm_with`]): a reference loop as an
//! oracle, or the engine on a single microkernel arm.
//!
//! Equation 7's column-striding loop, the paper's *unoptimized* kernel, has
//! no backend: the Section 6.3 transpose-off ablation computes with these
//! kernels and is priced at `simtime::STRIDED_SLOWDOWN` instead.

mod lu;
mod packed;
pub mod perf;
mod staircase;
mod trsm;
mod window;

use std::ops::Range;

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

pub(crate) use lu::lu_decompose_in_place;
pub use packed::K_PANEL;
pub use staircase::gemm_staircase;
pub use trsm::{trsm, trsm_with};
pub use window::{MatMut, MatRef};

/// Transposition state of a GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the operand's transpose.
    Trans,
}

impl Op {
    /// Wraps a matrix reference with this transposition state:
    /// `Op::Trans.of(&u_t)` reads as "the transpose of `u_t`".
    pub fn of<'a>(self, mat: impl Into<MatRef<'a>>) -> OpRef<'a> {
        OpRef {
            op: self,
            win: mat.into(),
        }
    }
}

/// A borrowed GEMM operand: a window of row-major storage (a whole
/// [`Matrix`] unless narrowed with `OpRef::window`) together with its
/// transposition state. The operand is read where it lives; no block is
/// copied out.
#[derive(Clone, Copy)]
pub struct OpRef<'a> {
    op: Op,
    /// The stored (untransposed) window.
    win: MatRef<'a>,
}

impl<'a> OpRef<'a> {
    /// How the operand participates in the product.
    #[inline]
    pub(crate) fn op(&self) -> Op {
        self.op
    }

    /// Logical row count (after applying `op`).
    #[inline]
    pub fn rows(&self) -> usize {
        match self.op {
            Op::NoTrans => self.win.rows(),
            Op::Trans => self.win.cols(),
        }
    }

    /// Logical column count (after applying `op`).
    #[inline]
    pub fn cols(&self) -> usize {
        match self.op {
            Op::NoTrans => self.win.cols(),
            Op::Trans => self.win.rows(),
        }
    }

    /// Narrows the operand to logical rows `rows` and logical columns
    /// `cols` of `op(A)`, in place: `trans(&l_t).window(k0..n, 0..w)` is
    /// rows `k0..n` of `l_tᵀ`, i.e. stored columns `k0..n` of `l_t`.
    ///
    /// # Panics
    /// If either range is reversed or exceeds the operand.
    pub(crate) fn window(self, rows: Range<usize>, cols: Range<usize>) -> OpRef<'a> {
        let win = match self.op {
            Op::NoTrans => self.win.window(rows, cols),
            Op::Trans => self.win.window(cols, rows),
        };
        OpRef { op: self.op, win }
    }

    /// Row `i` of the *stored* window (a logical column under
    /// [`Op::Trans`]).
    #[inline]
    pub(crate) fn stored_row(&self, i: usize) -> &'a [f64] {
        self.win.row(i)
    }

    /// Logical element `(i, j)` (after applying `op`).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        match self.op {
            Op::NoTrans => self.win.row(i)[j],
            Op::Trans => self.win.row(j)[i],
        }
    }
}

/// `op(A)` with `op = NoTrans`: the operand as stored.
pub fn notrans<'a>(mat: impl Into<MatRef<'a>>) -> OpRef<'a> {
    Op::NoTrans.of(mat)
}

/// `op(A)` with `op = Trans`: the operand's transpose.
pub fn trans<'a>(mat: impl Into<MatRef<'a>>) -> OpRef<'a> {
    Op::Trans.of(mat)
}

/// Which side of `B` the triangular operand of [`trsm`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `T · X = alpha · B` (overwrites `B` with `X`).
    Left,
    /// Solve `X · T = alpha · B` (overwrites `B` with `X`).
    Right,
}

/// Which triangle of the [`trsm`] operand holds the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the triangular operand has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are implicitly 1 and never read.
    Unit,
    /// Diagonal entries are read (and must be nonzero).
    NonUnit,
}

/// A GEMM execution strategy.
///
/// Implementations must compute `C := alpha * op(A) * op(B) + beta * C`
/// exactly per their documented summation order; shape validation is done
/// by the caller ([`gemm_with`]) before dispatch.
pub trait GemmBackend: Sync {
    /// Computes `C := alpha * op(A) * op(B) + beta * C`. Shapes are
    /// already validated: `a.rows() == c.rows()`, `b.cols() == c.cols()`,
    /// `a.cols() == b.rows()`.
    fn gemm_checked(
        &self,
        alpha: f64,
        a: OpRef<'_>,
        b: OpRef<'_>,
        beta: f64,
        c: MatMut<'_>,
    ) -> Result<()>;

    /// Backend name (for diagnostics and bench labels).
    fn name(&self) -> &'static str;
}

/// The packed, register-blocked engine (see module docs).
pub struct Packed {
    /// Parallelize over macro-tile rows with rayon. Small products stay
    /// serial regardless (thread spawn would dominate).
    pub parallel: bool,
}

/// The engine every kernel entry point runs on.
const PACKED: &Packed = &Packed { parallel: true };

fn check_gemm(a: &OpRef<'_>, b: &OpRef<'_>, c: &MatMut<'_>) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "gemm",
            lhs: (a.rows(), a.cols()),
            rhs: (b.rows(), b.cols()),
        });
    }
    if (c.rows(), c.cols()) != (a.rows(), b.cols()) {
        return Err(MatrixError::DimensionMismatch {
            op: "gemm(output)",
            lhs: (c.rows(), c.cols()),
            rhs: (a.rows(), b.cols()),
        });
    }
    Ok(())
}

/// `C := alpha * op(A) * op(B) + beta * C` through the packed engine.
///
/// `beta == 0.0` overwrites `C` without reading it (NaNs in `C` do not
/// propagate), matching BLAS convention.
///
/// ```
/// use mrinv_matrix::kernel::{gemm, notrans, trans};
/// use mrinv_matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
/// let mut c = Matrix::zeros(2, 2);
/// gemm(1.0, notrans(&a), notrans(&b), 0.0, &mut c).unwrap();
/// assert_eq!(c[(0, 0)], 19.0);
/// // A·Bᵀ of the same data, accumulated on top:
/// gemm(1.0, notrans(&a), trans(&b), 1.0, &mut c).unwrap();
/// ```
pub fn gemm(alpha: f64, a: OpRef<'_>, b: OpRef<'_>, beta: f64, c: &mut Matrix) -> Result<()> {
    gemm_with(PACKED, alpha, a, b, beta, c)
}

/// [`gemm`] through an explicit backend.
pub fn gemm_with(
    backend: &dyn GemmBackend,
    alpha: f64,
    a: OpRef<'_>,
    b: OpRef<'_>,
    beta: f64,
    c: &mut Matrix,
) -> Result<()> {
    gemm_window(backend, alpha, a, b, beta, c.into())
}

/// [`gemm_with`] writing a window of `C` in place — the form [`trsm`] and
/// the blocked LU update their trailing blocks through.
pub(crate) fn gemm_window(
    backend: &dyn GemmBackend,
    alpha: f64,
    a: OpRef<'_>,
    b: OpRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) -> Result<()> {
    check_gemm(&a, &b, &c)?;
    if !perf::is_enabled() {
        return backend.gemm_checked(alpha, a, b, beta, c);
    }
    let flops = gemm_flops(a.rows(), a.cols(), b.cols());
    let t0 = std::time::Instant::now();
    let out = backend.gemm_checked(alpha, a, b, beta, c);
    perf::record_gemm(backend.name(), flops, t0.elapsed());
    out
}

/// Allocating convenience: `op(A) * op(B)` through the packed engine.
pub fn mul(a: OpRef<'_>, b: OpRef<'_>) -> Result<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, b, 0.0, &mut c)?;
    Ok(c)
}

/// Scales `c` by `beta` in place, treating `beta == 0.0` as overwrite.
pub(crate) fn scale_by_beta(c: &mut MatMut<'_>, beta: f64) {
    if beta == 1.0 {
        return;
    }
    for i in 0..c.rows() {
        let row = c.row_mut(i);
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for v in row {
                *v *= beta;
            }
        }
    }
}

/// Floating-point operation count of an `m x k` by `k x n` product
/// (one multiply and one add per inner step).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// Floating-point operation count of block `rows x cols` of `U·L`, for
/// order-`n` upper-triangular `U` and lower-triangular `L`, counting only
/// the terms the triangles can make nonzero: element `(i, j)` sums
/// `n − max(i, j)` of them. Over the whole product that is about `2n³/3`.
/// It counts the algorithm's arithmetic, not [`gemm_staircase`]'s tiles,
/// which multiply a few zero terms more.
pub fn tri_product_flops(n: usize, rows: Range<usize>, cols: Range<usize>) -> u64 {
    let terms: u64 = rows
        .map(|i| {
            // Left of the diagonal every element sums `n − i` terms; from
            // column `max(i, c0)` on, `n − j` terms: an arithmetic series.
            let left = cols.end.min(i).saturating_sub(cols.start) as u64;
            let from = cols.start.max(i);
            let right = cols.end.saturating_sub(from) as u64;
            left * (n - i) as u64 + right * (n - from) as u64 - right * right.saturating_sub(1) / 2
        })
        .sum();
    2 * terms
}

#[cfg(test)]
mod tests;
