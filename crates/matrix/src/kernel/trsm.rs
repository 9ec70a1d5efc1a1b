//! Triangular solve with multiple right-hand sides: the one case of BLAS
//! `dtrsm` the system runs.
//!
//! `trsm(Side::Left, Uplo::Lower, diag, 1.0, T, B)` overwrites `B` with
//! the solution `X` of `T · X = B`, solved forward, `T` read on its lower
//! triangle. Each column of `B` is one right-hand-side *vector*. That is
//! every solve of the paper's pipeline: Equation 6's `U2 = L1⁻¹·P1·A2`;
//! `L2'·U1 = A3` as `U1ᵀ·L2'ᵀ = A3ᵀ` against Section 6.3's transposed `U`;
//! and Equation 4's triangular inverses, the same solve on the identity.
//!
//! **Leaf.** Systems of order at most [`LEAF`] (the packed engine's `MC`)
//! are solved by unblocked substitution, in place. Each vector subtracts
//! its products in ascending order, each step one fused multiply-add
//! `acc = (-t).mul_add(x, acc)`, as the GEMM microkernel rounds; the leaf
//! runs on the microkernel's arm (`packed::Arm`), so a host with FMA
//! hardware never calls libm and every arm returns the same bits. It runs
//! sixteen vectors abreast (a remainder eight, then four, then one at a
//! time) and four rows at a time: each row takes the rows solved before
//! its block, then the block's own triangle, still in ascending `k`, so
//! the dependent chains of four rows and sixteen vectors overlap.
//!
//! **Recursion.** Larger systems split the triangle in two, solve the
//! first diagonal block, clear its coupling to the second with one GEMM on
//! in-place windows of `T` and `B`, and solve the second — recursively, so
//! the leaf share of the flops is `LEAF / n` and everything else runs in
//! the packed engine, on the leaf's arm. No block of `T` or `B` is ever
//! copied.
//!
//! **Observed zeros.** A vector whose leading entries are exactly `+0.0`
//! has exactly-`+0.0` solution entries there. The leaf skips them (as the
//! per-vector kernels' unit-basis callers always relied on) and notes, per
//! vector, its first entry that it found live. Each level's one coupling
//! GEMM takes those notes as its vectors' steps (`packed::Steps::Head`):
//! the engine packs each vector panel only where one of its vectors can be
//! nonzero, and starts each microtile at its vectors' first such term; a
//! vector still all zero costs nothing. Every term so dropped is an exact
//! `±0.0` product (for a finite `T`) at the head of one packed K panel's
//! sum — the first block never exceeds [`K_PANEL`] — so no bit of the
//! result changes, while a batch of unit-basis vectors sorted by index
//! (triangular inversion) costs about `(n - j)²` per vector instead of
//! `n²`.

use std::ops::Range;

use super::packed::{Arm, Fused, Stairs, Steps, MC};
use super::{engine, notrans, Diag, MatMut, MatRef, MatrixError, Result, Side, Uplo, K_PANEL};
use crate::dense::Matrix;

/// Largest order the unblocked leaf takes.
const LEAF: usize = MC;

/// Solves `T · X = B` in place, forward, through the packed engine.
///
/// `T` is read only on its lower triangle (plus the diagonal when `diag`
/// is [`Diag::NonUnit`]); the upper triangle may hold anything — packed
/// LU factors can be used directly. `side` must be [`Side::Left`], `uplo`
/// [`Uplo::Lower`] and `alpha` `1.0`: any other value is
/// [`MatrixError::InvalidParameter`], returned before `B` is touched. The
/// three parameters stay only because the benchmark's kernel probe passes
/// them; once that probe moves into the library (ROADMAP item 37) they
/// can go.
pub fn trsm(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: f64,
    t: &Matrix,
    b: &mut Matrix,
) -> Result<()> {
    if (side, uplo, alpha) != (Side::Left, Uplo::Lower, 1.0) {
        return Err(MatrixError::InvalidParameter {
            op: "trsm",
            what: "only the forward solve: Side::Left, Uplo::Lower, alpha = 1",
        });
    }
    if t.order()? != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "trsm",
            lhs: t.shape(),
            rhs: b.shape(),
        });
    }
    if diag == Diag::NonUnit {
        if let Some(step) = (0..t.rows()).find(|&i| t[(i, i)] == 0.0) {
            return Err(MatrixError::Singular { step });
        }
    }
    trsm_window(Arm::detect(), diag, true, t.into(), b.into())?;
    Ok(())
}

/// [`trsm`] on in-place windows, shapes and diagonal already validated by
/// the caller, the leaves and the coupling GEMMs on microkernel arm `arm`.
/// Returns the multiply-adds the coupling GEMMs ran. `observe_zeros =
/// false` runs every coupling GEMM over all vectors — the reference the
/// bit-neutrality test compares the restriction against.
pub(crate) fn trsm_window(
    arm: Arm,
    diag: Diag,
    observe_zeros: bool,
    t: MatRef<'_>,
    b: MatMut<'_>,
) -> Result<u64> {
    let solve = Solve {
        arm,
        unit: diag == Diag::Unit,
        observe_zeros,
    };
    let vectors = b.cols();
    solve.run(t, b, 0, &mut vec![NEVER; vectors])
}

/// [`Solve::run`]'s `first_live` entry of a vector that is `+0.0` so far.
const NEVER: usize = usize::MAX;

/// One triangular solve: the fixed parameters of the recursion.
struct Solve {
    arm: Arm,
    unit: bool,
    observe_zeros: bool,
}

impl Solve {
    /// Solves `t`'s system against `b` in place. `t` is a diagonal block of
    /// the whole triangle, `solved` indices of which were solved before it;
    /// `first_live[v]` is the index of vector `v`'s first entry that was
    /// not `+0.0` when its leaf reached it, or [`NEVER`] — written by the
    /// leaves, read by the coupling GEMMs as their vectors' steps. Returns
    /// the multiply-adds those GEMMs ran.
    fn run(
        &self,
        t: MatRef<'_>,
        mut b: MatMut<'_>,
        solved: usize,
        first_live: &mut [usize],
    ) -> Result<u64> {
        let n = t.rows();
        if n <= LEAF {
            let local = leaf(self.arm, t, &mut b, self.unit);
            for (seen, local) in first_live.iter_mut().zip(local) {
                if *seen == NEVER && local < n {
                    *seen = solved + local;
                }
            }
            return Ok(0);
        }
        // The first block: a leaf multiple near the middle, so leaves stay
        // full and the coupling GEMMs deep, but never more than one packed
        // K panel (see the module docs).
        let len = n.div_ceil(2).next_multiple_of(LEAF).min(K_PANEL);
        let (mut b_first, mut b_second) = b.split_rows(len);

        let mut madds = self.run(
            t.window(0..len, 0..len),
            b_first.reborrow(),
            solved,
            first_live,
        )?;
        // B_second -= T[second, first] · X_first, each vector over the part
        // of the first block where it can be nonzero.
        let stairs = Stairs {
            a: Steps::All,
            b: if self.observe_zeros {
                Steps::Head(first_live)
            } else {
                Steps::All
            },
            origin: solved,
        };
        let (coupled, x) = (notrans(t.window(len..n, 0..len)), notrans(b_first.as_ref()));
        madds += engine(self.arm, -1.0, coupled, x, 1.0, stairs, b_second.reborrow())?;
        madds += self.run(t.window(len..n, len..n), b_second, solved + len, first_live)?;
        Ok(madds)
    }
}

/// Vectors the leaf advances together: four AVX2 registers' worth of
/// independent fused chains per row, enough to cover the FMA latency.
const TILE: usize = 16;

/// The leaf: `T · X = B` by substitution, in place, column tiles of
/// [`TILE`] abreast, the remainder in tiles of 8, 4 and 1, on arm `arm`.
/// Returns, per column, the index of its first entry that is not `+0.0`
/// (the leaf's order if there is none).
///
/// An exact-`+0.0` prefix of a column is left untouched rather than
/// divided — the solution there is exactly `+0.0`, and a negative diagonal
/// would turn it into `-0.0` — and the remaining entries subtract their
/// products in ascending `k`. The pipeline solves unit-basis columns
/// constantly (triangular inversion); the skip both keeps the exact zeros
/// above the diagonal and keeps the cost at `O((n-j)^2)` per inverse
/// column.
fn leaf(arm: Arm, t: MatRef<'_>, b: &mut MatMut<'_>, unit: bool) -> Vec<usize> {
    let (n, w) = (b.rows(), b.cols());
    // first[j]: column j's first live row, n if it has none.
    let mut first = vec![n; w];
    let mut pending: Vec<usize> = (0..w).collect();
    for i in 0..n {
        if pending.is_empty() {
            break;
        }
        let row = b.row(i);
        pending.retain(|&j| {
            let zero = row[j].to_bits() == 0;
            if !zero {
                first[j] = i;
            }
            zero
        });
    }

    let mut c0 = 0;
    while c0 < w {
        let width = [TILE, 8, 4, 1]
            .into_iter()
            .find(|&tw| c0 + tw <= w)
            .expect("a 1-wide tile fits");
        let firsts = &first[c0..c0 + width];
        // The first row any column of the tile is live on.
        let start = *firsts.iter().min().expect("tile is not empty");
        if start < n {
            let masked = firsts.iter().any(|&s| s != firsts[0]);
            let tile = Columns {
                t,
                b: b.reborrow(),
                c0,
                start,
                firsts,
                unit,
            };
            match (width, masked) {
                (TILE, false) => arm.run(Tile::<TILE, false>(tile)),
                (TILE, true) => arm.run(Tile::<TILE, true>(tile)),
                (8, false) => arm.run(Tile::<8, false>(tile)),
                (8, true) => arm.run(Tile::<8, true>(tile)),
                (4, false) => arm.run(Tile::<4, false>(tile)),
                (4, true) => arm.run(Tile::<4, true>(tile)),
                _ => arm.run(Tile::<1, false>(tile)),
            }
        }
        c0 += width;
    }
    first
}

/// Rows a tile solves together, so that their dependent chains of fused
/// steps overlap.
const ROWS: usize = 4;

/// Substitution over rows `start..` of columns `c0..c0 + W` of `b`, as one
/// loop for [`Arm::run`], in blocks of [`ROWS`] rows and then one row at a
/// time.
///
/// Row `i`'s `W` accumulators start from `b[i]`, take
/// `acc = (-t[i][k]).mul_add(b[k], acc)` for the already-solved live rows
/// `k` in ascending order — those before its block, then those of its
/// block above it — and are divided by the diagonal unless it is implicit.
/// With `MASKED`, column `l` takes part in a step only from its own first
/// live row (`firsts[l]`) on, so a tile whose columns start at different
/// rows still gets each column's own arithmetic; without it every column
/// starts at `start`.
struct Tile<'a, 'b, const W: usize, const MASKED: bool>(Columns<'a, 'b>);

/// One tile's columns of the leaf, and how to solve them.
struct Columns<'a, 'b> {
    t: MatRef<'a>,
    b: MatMut<'b>,
    c0: usize,
    start: usize,
    firsts: &'a [usize],
    unit: bool,
}

impl<const W: usize, const MASKED: bool> Fused for Tile<'_, '_, W, MASKED> {
    type Out = ();

    #[inline(always)]
    fn run(mut self) {
        let (start, n) = (self.0.start, self.0.b.rows());
        let mut i = start;
        while i + ROWS <= n {
            self.solve::<ROWS>(start..i, i);
            i += ROWS;
        }
        while i < n {
            self.solve::<1>(start..i, i);
            i += 1;
        }
    }
}

impl<const W: usize, const MASKED: bool> Tile<'_, '_, W, MASKED> {
    /// Solves rows `i0..i0 + R` against the rows `solved` before them,
    /// then among themselves, in place (see [`Tile`]).
    #[inline(always)]
    fn solve<const R: usize>(&mut self, solved: Range<usize>, i0: usize) {
        let Columns {
            t,
            ref mut b,
            c0,
            firsts,
            unit,
            ..
        } = self.0;
        let firsts: &[usize; W] = firsts.try_into().expect("one first row per tile column");
        // Row r is live for column l?
        let on = |r: usize, l: usize| r >= firsts[l];
        let mut trows: [&[f64]; R] = [&[]; R];
        let mut acc = [[0.0; W]; R];
        for q in 0..R {
            trows[q] = t.row(i0 + q);
            acc[q] = b.row(i0 + q)[c0..c0 + W]
                .try_into()
                .expect("slice has tile width");
        }
        for k in solved {
            let xk: [f64; W] = b.row(k)[c0..c0 + W]
                .try_into()
                .expect("slice has tile width");
            for q in 0..R {
                let tik = -trows[q][k];
                for l in 0..W {
                    let d = tik.mul_add(xk[l], acc[q][l]);
                    acc[q][l] = if !MASKED || on(k, l) { d } else { acc[q][l] };
                }
            }
        }
        for q in 0..R {
            let i = i0 + q;
            let mut x = acc[q];
            for (k, &tik) in (i0..i).zip(&trows[q][i0..i]) {
                let tik = -tik;
                let xk: [f64; W] = b.row(k)[c0..c0 + W]
                    .try_into()
                    .expect("slice has tile width");
                for l in 0..W {
                    let d = tik.mul_add(xk[l], x[l]);
                    x[l] = if !MASKED || on(k, l) { d } else { x[l] };
                }
            }
            if !unit {
                let diag = trows[q][i];
                let divided = x.map(|v| v / diag);
                for l in 0..W {
                    x[l] = if !MASKED || on(i, l) {
                        divided[l]
                    } else {
                        x[l]
                    };
                }
            }
            b.row_mut(i)[c0..c0 + W].copy_from_slice(&x);
        }
    }
}
