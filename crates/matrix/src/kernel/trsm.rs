//! Triangular solve with multiple right-hand sides (BLAS `dtrsm`).
//!
//! `trsm(side, uplo, diag, alpha, T, B)` overwrites `B` with the solution
//! `X` of `T · X = alpha · B` ([`Side::Left`]) or `X · T = alpha · B`
//! ([`Side::Right`]). Each column (left) or row (right) of `B` is one
//! right-hand-side *vector*.
//!
//! **Leaf.** Systems of order at most [`LEAF`] (the packed engine's `MC`)
//! are solved by unblocked substitution, in place. Each vector subtracts
//! its products in ascending solve order, each step one fused multiply-add
//! `acc = (-t).mul_add(x, acc)`, as the GEMM microkernel rounds; the
//! leaves run on the microkernel's arm (`packed::Arm`), so a host with FMA
//! hardware never calls libm and every arm returns the same bits. The
//! left-side leaf runs sixteen vectors abreast (a remainder eight, then
//! four, then one at a time) and, solving forward, four rows at a time:
//! each row takes the rows solved before its block, then the block's own
//! triangle, still in ascending `k`, so the dependent chains of four rows
//! and sixteen vectors overlap.
//!
//! **Recursion.** Larger systems split the triangle in two, solve the
//! first diagonal block, clear its coupling to the second with one GEMM on
//! in-place windows of `T` and `B`, and solve the second — recursively, so
//! the leaf share of the flops is `LEAF / n` and everything else runs in
//! the packed engine, on the leaves' arm. No block of `T` or `B` is ever
//! copied.
//!
//! **Observed zeros.** A vector whose leading entries (trailing, for the
//! backward solves) are exactly `+0.0` has exactly-`+0.0` solution entries
//! there. The leaf skips them (as the per-vector kernels' unit-basis
//! callers always relied on) and notes, per vector, the first entry in
//! solve order that it found live. Each level's one coupling GEMM takes
//! those notes as its vectors' steps (`packed::Steps::Head` forward,
//! `Steps::Tail` backward): the engine packs each vector panel only where
//! one of its vectors can be nonzero, and starts (forward) or ends
//! (backward) each microtile at its vectors' first or last such term; a
//! vector still all zero costs nothing. Every term so dropped is an exact
//! `±0.0` product (for a finite `T`) at the head or tail of one packed K
//! panel's sum — the first block never exceeds [`K_PANEL`] — so no bit of
//! the result changes, while a batch of unit-basis vectors sorted by index
//! (triangular inversion) costs about `(n - j)²` per vector instead of
//! `n²`.

use std::ops::Range;

use super::packed::{Arm, Fused, Stairs, Steps, MC};
use super::{engine, notrans, Diag, MatMut, MatRef, MatrixError, Result, Side, Uplo, K_PANEL};
use crate::dense::Matrix;

/// Largest order the unblocked leaf takes.
const LEAF: usize = MC;

fn check_trsm(side: Side, t: &Matrix, b: &Matrix) -> Result<()> {
    let n = t.order()?;
    let need = match side {
        Side::Left => b.rows(),
        Side::Right => b.cols(),
    };
    if need != n {
        return Err(MatrixError::DimensionMismatch {
            op: "trsm",
            lhs: t.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

fn check_diag(t: &Matrix, diag: Diag) -> Result<()> {
    if diag == Diag::NonUnit {
        let n = t.rows();
        for i in 0..n {
            if t[(i, i)] == 0.0 {
                return Err(MatrixError::Singular { step: i });
            }
        }
    }
    Ok(())
}

/// Solves `T · X = B` / `X · T = B` in place through the packed engine
/// (`alpha` is applied to `B` first).
///
/// `T` is read only on the triangle selected by `uplo` (plus the diagonal
/// when `diag` is [`Diag::NonUnit`]); the opposite triangle may hold
/// anything — packed LU factors can be used directly.
pub fn trsm(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: f64,
    t: &Matrix,
    b: &mut Matrix,
) -> Result<()> {
    check_trsm(side, t, b)?;
    check_diag(t, diag)?;
    if alpha != 1.0 {
        for v in b.as_mut_slice() {
            *v *= alpha;
        }
    }
    trsm_window(Arm::detect(), side, uplo, diag, true, t.into(), b.into())?;
    Ok(())
}

/// [`trsm`] on in-place windows, `alpha = 1`, shapes and diagonal
/// already validated by the caller, the leaves and the coupling GEMMs on
/// microkernel arm `arm`. Returns the multiply-adds the coupling GEMMs
/// ran. `observe_zeros = false` runs every coupling GEMM over all vectors
/// — the reference the bit-neutrality test compares the restriction
/// against.
pub(crate) fn trsm_window(
    arm: Arm,
    side: Side,
    uplo: Uplo,
    diag: Diag,
    observe_zeros: bool,
    t: MatRef<'_>,
    b: MatMut<'_>,
) -> Result<u64> {
    let solve = Solve {
        arm,
        side,
        forward: matches!(
            (side, uplo),
            (Side::Left, Uplo::Lower) | (Side::Right, Uplo::Upper)
        ),
        unit: diag == Diag::Unit,
        observe_zeros,
    };
    let vectors = match side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    solve.run(t, b, 0, &mut vec![NEVER; vectors])
}

/// [`Solve::run`]'s `first_live` entry of a vector that is `+0.0` so far.
const NEVER: usize = usize::MAX;

/// One triangular solve: the fixed parameters of the recursion.
struct Solve {
    arm: Arm,
    side: Side,
    /// The solve starts at index 0 (lower-left, upper-right) rather than
    /// at the last index.
    forward: bool,
    unit: bool,
    observe_zeros: bool,
}

impl Solve {
    /// Solves `t`'s system against `b` in place. `t` is a diagonal block of
    /// the whole triangle, `solved` indices of which were solved before it;
    /// `first_live[v]` is the position in solve order (0 = solved first) of
    /// vector `v`'s first entry that was not `+0.0` when its leaf reached
    /// it, or [`NEVER`] — written by the leaves, read by the coupling
    /// GEMMs as their vectors' steps. Returns the multiply-adds those GEMMs
    /// ran.
    fn run(
        &self,
        t: MatRef<'_>,
        mut b: MatMut<'_>,
        solved: usize,
        first_live: &mut [usize],
    ) -> Result<u64> {
        let n = t.rows();
        if n <= LEAF {
            let (forward, unit) = (self.forward, self.unit);
            let local = match self.side {
                Side::Left => leaf_left(self.arm, t, &mut b, forward, unit),
                Side::Right => self.arm.run(RightLeaf {
                    t,
                    b: &mut b,
                    forward,
                    unit,
                }),
            };
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
        let (first, second) = if self.forward {
            (0..len, len..n)
        } else {
            (n - len..n, 0..n - len)
        };
        let cut = first.start.max(second.start);
        let (low, high) = match self.side {
            Side::Left => b.split_rows(cut),
            Side::Right => b.split_cols(cut),
        };
        let (mut b_first, mut b_second) = if self.forward {
            (low, high)
        } else {
            (high, low)
        };

        let mut madds = self.run(
            t.window(first.clone(), first.clone()),
            b_first.reborrow(),
            solved,
            first_live,
        )?;
        let coupling = match self.side {
            Side::Left => t.window(second.clone(), first),
            Side::Right => t.window(first, second.clone()),
        };
        // B_second -= T[second, first] · X_first on the left, X_first ·
        // T[first, second] on the right, each vector over the part of the
        // first block where it can be nonzero.
        let vectors = match (self.observe_zeros, self.forward) {
            (false, _) => Steps::All,
            (true, true) => Steps::Head(first_live),
            (true, false) => Steps::Tail(first_live),
        };
        let (x, coupled) = (notrans(b_first.as_ref()), notrans(coupling));
        let (lhs, rhs, lhs_steps, rhs_steps) = match self.side {
            Side::Left => (coupled, x, Steps::All, vectors),
            Side::Right => (x, coupled, vectors, Steps::All),
        };
        let stairs = Stairs {
            a: lhs_steps,
            b: rhs_steps,
            origin: solved,
        };
        madds += engine(self.arm, -1.0, lhs, rhs, 1.0, stairs, b_second.reborrow())?;
        madds += self.run(
            t.window(second.clone(), second),
            b_second,
            solved + len,
            first_live,
        )?;
        Ok(madds)
    }
}

/// Vectors the left-side leaf advances together: four AVX2 registers' worth
/// of independent fused chains per row, enough to cover the FMA latency.
const TILE: usize = 16;

/// Left-side leaf: `T · X = B` by substitution, in place, column tiles of
/// [`TILE`] abreast, the remainder in tiles of 8, 4 and 1, on arm `arm`.
/// Returns, per column, the position in solve order of its first entry
/// that is not `+0.0` (the leaf's order if there is none).
///
/// An exact-`+0.0` prefix (suffix when solving backward) of a column is
/// left untouched rather than divided — the solution there is exactly
/// `+0.0`, and a negative diagonal would turn it into `-0.0` — and the
/// remaining entries subtract their products in ascending `k`. The
/// pipeline solves unit-basis columns constantly (triangular inversion);
/// the skip both keeps the exact zeros above the diagonal and keeps the
/// cost at `O((n-j)^2)` per inverse column.
fn leaf_left(arm: Arm, t: MatRef<'_>, b: &mut MatMut<'_>, forward: bool, unit: bool) -> Vec<usize> {
    let (n, w) = (b.rows(), b.cols());
    // bound[j]: first live row of column j (forward) or one past its last
    // live row (backward); a column with no live row gets n / 0.
    let dead = if forward { n } else { 0 };
    let mut bound = vec![dead; w];
    let mut pending: Vec<usize> = (0..w).collect();
    for step in 0..n {
        if pending.is_empty() {
            break;
        }
        let i = if forward { step } else { n - 1 - step };
        let row = b.row(i);
        pending.retain(|&j| {
            let zero = row[j].to_bits() == 0;
            if !zero {
                bound[j] = if forward { i } else { i + 1 };
            }
            zero
        });
    }

    let dead = if forward { n } else { 0 };
    let mut c0 = 0;
    while c0 < w {
        let width = [TILE, 8, 4, 1]
            .into_iter()
            .find(|&tw| c0 + tw <= w)
            .expect("a 1-wide tile fits");
        let bounds = &bound[c0..c0 + width];
        if bounds.iter().any(|&s| s != dead) {
            // The rows any column of the tile is live on.
            let rows = if forward {
                *bounds.iter().min().expect("tile is not empty")..n
            } else {
                0..*bounds.iter().max().expect("tile is not empty")
            };
            let masked = bounds.iter().any(|&s| s != bounds[0]);
            let tile = Columns {
                t,
                b: b.reborrow(),
                c0,
                rows,
                bounds,
                forward,
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
    if !forward {
        for s in &mut bound {
            *s = n - *s;
        }
    }
    bound
}

/// Rows a forward tile solves together, so that their dependent chains
/// of fused steps overlap.
const ROWS: usize = 4;

/// Substitution over live rows `rows` of columns `c0..c0 + W` of `b`, as
/// one loop for [`Arm::run`]: in blocks of [`ROWS`] rows when solving
/// forward, of one row backward (there each row's first product needs the
/// row solved just before it).
///
/// Row `i`'s `W` accumulators start from `b[i]`, take
/// `acc = (-t[i][k]).mul_add(b[k], acc)` for the already-solved live rows
/// `k` in ascending order — those before its block, then those of its
/// block above it — and are divided by the diagonal unless it is implicit.
/// With `MASKED`, column `l` takes part in a step only where its own bound
/// (`bounds[l]`) says the row is live for it, so a tile whose columns
/// start at different rows still gets each column's own arithmetic;
/// without it every column shares `rows`.
struct Tile<'a, 'b, const W: usize, const MASKED: bool>(Columns<'a, 'b>);

/// One tile's columns of a left-side leaf, and how to solve them.
struct Columns<'a, 'b> {
    t: MatRef<'a>,
    b: MatMut<'b>,
    c0: usize,
    rows: Range<usize>,
    bounds: &'a [usize],
    forward: bool,
    unit: bool,
}

impl<const W: usize, const MASKED: bool> Fused for Tile<'_, '_, W, MASKED> {
    type Out = ();

    #[inline(always)]
    fn run(mut self) {
        let (rows, forward) = (self.0.rows.clone(), self.0.forward);
        let mut step = 0;
        while step < rows.len() {
            if forward && step + ROWS <= rows.len() {
                let i0 = rows.start + step;
                self.solve::<ROWS>(rows.start..i0, i0);
                step += ROWS;
            } else {
                let i = if forward {
                    rows.start + step
                } else {
                    rows.end - 1 - step
                };
                let solved = if forward {
                    rows.start..i
                } else {
                    i + 1..rows.end
                };
                self.solve::<1>(solved, i);
                step += 1;
            }
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
            bounds,
            forward,
            unit,
            ..
        } = self.0;
        let bounds: &[usize; W] = bounds.try_into().expect("one bound per tile column");
        // Row r is live for column l?
        let on = |r: usize, l: usize| {
            if forward {
                r >= bounds[l]
            } else {
                r < bounds[l]
            }
        };
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

/// Right-side leaf: `X · T = B` by substitution, in place, one row of `B`
/// at a time, as one loop for [`Arm::run`]. Returns, per row, the
/// position in solve order of its first entry that is not `+0.0` (the
/// leaf's order if there is none).
///
/// Written in update form — once `x[j]` is final, `x[j] · T[j, ·]` is
/// subtracted from the entries still to be solved, one fused step each —
/// so `T` is read along its rows and no transpose is needed. Each entry
/// receives its products in solve order; the exact-`+0.0` prefix (suffix,
/// backward) skip is the left-side leaf's.
struct RightLeaf<'a, 'b> {
    t: MatRef<'a>,
    b: &'a mut MatMut<'b>,
    forward: bool,
    unit: bool,
}

impl Fused for RightLeaf<'_, '_> {
    type Out = Vec<usize>;

    #[inline(always)]
    fn run(self) -> Vec<usize> {
        let RightLeaf {
            t,
            b,
            forward,
            unit,
        } = self;
        let n = b.cols();
        // Plain loops, no iterator adaptor taking a closure: a closure
        // compiled outside this frame would lose the arm's features.
        let mut skips = Vec::with_capacity(b.rows());
        for r in 0..b.rows() {
            let x = b.row_mut(r);
            let live = |v: &f64| v.to_bits() != 0;
            let skip = if forward {
                x.iter().position(live).unwrap_or(n)
            } else {
                n - x.iter().rposition(live).map_or(0, |p| p + 1)
            };
            let span = if forward { skip..n } else { 0..n - skip };
            for step in 0..span.len() {
                let j = if forward {
                    span.start + step
                } else {
                    span.end - 1 - step
                };
                let trow = t.row(j);
                if !unit {
                    x[j] /= trow[j];
                }
                let xj = -x[j];
                let rest = if forward {
                    j + 1..span.end
                } else {
                    span.start..j
                };
                for (xc, &tc) in x[rest.clone()].iter_mut().zip(&trow[rest]) {
                    *xc = xj.mul_add(tc, *xc);
                }
            }
            skips.push(skip);
        }
        skips
    }
}
