//! BLAS-3-style dense kernel engine: one `gemm` entry point, packed
//! cache-blocked execution, blocked TRSM, and a right-looking blocked LU.
//!
//! The paper's single-node baseline (ScaLAPACK on tuned BLAS) spends its
//! time in exactly three level-3 kernels — GEMM, TRSM, and the LU panel
//! update — and the distributed pipeline's map/reduce tasks bottom out in
//! the same operations. This module is their one surface (re-exported at
//! the crate root):
//!
//! * [`gemm`] — `C := alpha * op(A) * op(B) + beta * C` with
//!   [`Op::NoTrans`]/[`Op::Trans`] per operand;
//! * [`gemm_staircase`] — `C := op(A) * op(B)` for an upper-triangle-like
//!   `op(A)` and a lower-triangle-like `op(B)`: the same loop nest, which
//!   packs only the operands' possibly nonzero rows and columns and starts
//!   each microtile at its first possibly nonzero term, with [`gemm`]'s
//!   bits;
//! * [`trsm`] — `B := alpha * T^-1 * B` (left) or `alpha * B * T^-1`
//!   (right) for triangular `T`, all [`Side`]/[`Uplo`]/[`Diag`] cases,
//!   with one coupling GEMM per recursion level that runs each
//!   right-hand-side vector only over the terms where it can be nonzero;
//! * `lu_decompose_in_place` — right-looking blocked LU whose row panels
//!   and trailing updates are [`trsm`] and GEMM on the same engine.
//!
//! All four run on one engine, through one private entry point: panels of
//! `A` and `B` are packed into contiguous, register-block-sized buffers
//! (by 4 x 4 transposes in registers where the stored rows run along `k`),
//! the MC/KC/NC loop nest keeps them L1/L2-resident, an MR×NR
//! register-tiled microkernel does the flops, and rayon parallelizes over
//! macro-tile rows. The microkernel, the trsm leaves and the LU leaf share
//! one arithmetic: every step is one fused multiply-add, on the widest arm
//! the host has (AVX-512F, AVX2 + FMA or portable `f64::mul_add`, chosen
//! by one CPUID probe, all bit-equal). That arm is the kernel's only
//! per-call choice: the entry points take the host's, and a test names
//! another. The tests' reference GEMM (`naive_gemm`) lives in the test
//! tree.
//!
//! Equation 7's column-striding loop, the paper's *unoptimized* kernel, has
//! no code path: the Section 6.3 transpose-off ablation computes with these
//! kernels and is priced at `simtime::STRIDED_SLOWDOWN` instead.

mod lu;
mod packed;
pub mod perf;
mod trsm;
mod window;

use std::ops::Range;

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

pub(crate) use lu::lu_decompose_in_place;
pub use packed::K_PANEL;
use packed::{Arm, Stairs, Steps};
pub use trsm::trsm;
pub(crate) use window::MatMut;
pub use window::MatRef;

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
    #[cfg(test)]
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
    engine(Arm::detect(), alpha, a, b, beta, Stairs::DENSE, c.into())?;
    Ok(())
}

/// `C := op(A)·op(B)` for *staircase* operands, through the packed
/// engine: bit-identical to [`gemm`] with `alpha = 1`, `beta = 0`, for
/// finite operands, at about a third of its flops for two whole triangles
/// (`A⁻¹ = U⁻¹·L⁻¹`, Section 4.3).
///
/// Column `p` of `op(A)` and row `p` of `op(B)` stand for index
/// `k = origin + p` of the whole product. Row `i` of `op(A)` must be zero
/// before `k = a_row0 + i`, and column `j` of `op(B)` before
/// `k = b_col0 + j`; either step may start before `origin`. Those zeros
/// are trusted, not checked. With `origin` a multiple of [`K_PANEL`] the
/// result is also bit-identical to the product over the whole, unwindowed
/// operands.
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
    let stairs = Stairs {
        a: Steps::From(a_row0),
        b: Steps::From(b_col0),
        origin,
    };
    engine(Arm::detect(), 1.0, a, b, 0.0, stairs, c.into())?;
    Ok(())
}

/// The one way into the packed engine: `C := alpha * op(A) * op(B) +
/// beta * C` on microkernel arm `arm`, over the nonzero terms of `stairs`
/// ([`Stairs::DENSE`] for every term), into a window of `C`. Checks the
/// shapes, applies `beta`, picks the loop nest, and credits
/// [`perf`] with the flops it ran. Returns the multiply-adds it ran.
fn engine(
    arm: Arm,
    alpha: f64,
    a: OpRef<'_>,
    b: OpRef<'_>,
    beta: f64,
    stairs: Stairs,
    mut c: MatMut<'_>,
) -> Result<u64> {
    check_gemm(&a, &b, &c)?;
    let t0 = perf::is_enabled().then(std::time::Instant::now);
    scale_by_beta(&mut c, beta);
    let parallel = packed::parallel_pays(&a, &b);
    let madds = packed::run_packed(arm, parallel, alpha, a, b, stairs, c);
    if let Some(t0) = t0 {
        perf::record_gemm(2 * madds, t0.elapsed());
    }
    Ok(madds)
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
/// It counts the algorithm's arithmetic, not what [`gemm_staircase`]
/// runs: each of its microtiles starts at the first term of its first row
/// and column, so it multiplies a few zero terms more.
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
