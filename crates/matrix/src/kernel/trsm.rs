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
//! four, then one at a time) so the dependent chain of one vector hides
//! behind its neighbours'.
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
//! solve order that it found live; the recursion then restricts each
//! coupling GEMM to the vectors that are live at all, and for runs of
//! vectors that all came alive late, to the part of `K` from there on.
//! Every term so dropped is an exact `±0.0` product (for a finite `T`)
//! from the head or tail of one packed K panel — the first block never
//! exceeds [`K_PANEL`] — so no bit of the result changes, while a batch of
//! unit-basis vectors sorted by index (triangular inversion) costs
//! `(n - j)²` per vector instead of `n²`.

use std::ops::Range;

use super::packed::{Arm, Fused, Stairs, MC};
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
    /// it, or [`NEVER`] — written by the leaves, read to narrow the
    /// coupling GEMMs. Returns the multiply-adds those GEMMs ran.
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
        for (vectors, k) in self.live_groups(len, solved, first_live) {
            // B_second -= T[second, first] · X_first on the left,
            // X_first · T[first, second] on the right — over `vectors`
            // only, and over the part `k` of the first block's extent
            // where they can be nonzero.
            let m = second.len();
            madds += match self.side {
                Side::Left => engine(
                    self.arm,
                    -1.0,
                    notrans(coupling).window(0..m, k.clone()),
                    notrans(b_first.as_ref()).window(k, vectors.clone()),
                    1.0,
                    Stairs::DENSE,
                    b_second.reborrow().window(0..m, vectors),
                )?,
                Side::Right => engine(
                    self.arm,
                    -1.0,
                    notrans(b_first.as_ref()).window(vectors.clone(), k.clone()),
                    notrans(coupling).window(k, 0..m),
                    1.0,
                    Stairs::DENSE,
                    b_second.reborrow().window(vectors, 0..m),
                )?,
            };
        }
        madds += self.run(
            t.window(second.clone(), second),
            b_second,
            solved + len,
            first_live,
        )?;
        Ok(madds)
    }

    /// The coupling updates a first block of extent `len` owes the rest of
    /// the triangle, as `(vectors, k)` pairs: a contiguous range of vectors
    /// and the range of the block's own indices (in storage order) outside
    /// of which all of them are still `+0.0`. Disjoint in `vectors`; one
    /// pair covering everything when zeros are not observed.
    ///
    /// A vector joins the run of its right-hand neighbours, whose `k`
    /// starts at the earliest first-live position among them rounded down
    /// to a leaf: exact for vectors sorted by where they come alive (a
    /// unit-basis batch in index order), conservative otherwise.
    fn live_groups(
        &self,
        len: usize,
        solved: usize,
        first_live: &[usize],
    ) -> Vec<(Range<usize>, Range<usize>)> {
        let k_from = |skip: usize| {
            if self.forward {
                skip..len
            } else {
                0..len - skip
            }
        };
        if !self.observe_zeros {
            return vec![(0..first_live.len(), k_from(0))];
        }
        let done = solved + len;
        let Some(lo) = first_live.iter().position(|&p| p < done) else {
            return Vec::new();
        };
        let mut groups: Vec<(Range<usize>, usize)> = Vec::new();
        let mut earliest = done;
        for v in (lo..first_live.len()).rev() {
            earliest = earliest.min(first_live[v]);
            if earliest >= done {
                continue; // trailing vectors that are still all zero
            }
            let skip = earliest.saturating_sub(solved) / LEAF * LEAF;
            match groups.last_mut() {
                Some((vectors, s)) if *s == skip => vectors.start = v,
                _ => groups.push((v..v + 1, skip)),
            }
        }
        groups
            .into_iter()
            .map(|(vectors, skip)| (vectors, k_from(skip)))
            .collect()
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

    arm.run(LeftTiles {
        t,
        b: b.reborrow(),
        bound: &bound,
        forward,
        unit,
    });
    if !forward {
        for s in &mut bound {
            *s = n - *s;
        }
    }
    bound
}

/// [`leaf_left`]'s tiles, as one loop for [`Arm::run`].
struct LeftTiles<'a, 'b> {
    t: MatRef<'a>,
    b: MatMut<'b>,
    bound: &'a [usize],
    forward: bool,
    unit: bool,
}

impl Fused for LeftTiles<'_, '_> {
    type Out = ();

    #[inline(always)]
    fn run(mut self) {
        let (n, w) = (self.b.rows(), self.b.cols());
        let (t, forward, unit) = (self.t, self.forward, self.unit);
        let dead = if forward { n } else { 0 };
        let mut c0 = 0;
        while c0 < w {
            let width = [TILE, 8, 4, 1]
                .into_iter()
                .find(|&tw| c0 + tw <= w)
                .expect("a 1-wide tile fits");
            let bounds = &self.bound[c0..c0 + width];
            if bounds.iter().any(|&s| s != dead) {
                // The rows any column of the tile is live on.
                let rows = if forward {
                    *bounds.iter().min().expect("tile is not empty")..n
                } else {
                    0..*bounds.iter().max().expect("tile is not empty")
                };
                let masked = bounds.iter().any(|&s| s != bounds[0]);
                let b = &mut self.b;
                match (width, masked) {
                    (TILE, false) => tile::<TILE, false>(t, b, c0, rows, bounds, forward, unit),
                    (TILE, true) => tile::<TILE, true>(t, b, c0, rows, bounds, forward, unit),
                    (8, false) => tile::<8, false>(t, b, c0, rows, bounds, forward, unit),
                    (8, true) => tile::<8, true>(t, b, c0, rows, bounds, forward, unit),
                    (4, false) => tile::<4, false>(t, b, c0, rows, bounds, forward, unit),
                    (4, true) => tile::<4, true>(t, b, c0, rows, bounds, forward, unit),
                    _ => tile::<1, false>(t, b, c0, rows, bounds, forward, unit),
                }
            }
            c0 += width;
        }
    }
}

/// Substitution over live rows `rows` of columns `c0..c0 + W` of `b`.
///
/// Row `i`'s `W` accumulators start from `b[i]`, take
/// `acc = (-t[i][k]).mul_add(b[k], acc)` for the already-solved live rows
/// `k` in ascending order, and are divided by the diagonal unless it is
/// implicit. With `MASKED`, column `l` takes part in a step only where its
/// own bound (`bounds[l]`) says the row is live for it, so a tile whose
/// columns start at different rows still gets each column's own
/// arithmetic; without it every column shares `rows`.
#[inline(always)]
fn tile<const W: usize, const MASKED: bool>(
    t: MatRef<'_>,
    b: &mut MatMut<'_>,
    c0: usize,
    rows: Range<usize>,
    bounds: &[usize],
    forward: bool,
    unit: bool,
) {
    let bounds: &[usize; W] = bounds.try_into().expect("one bound per tile column");
    // Row r is live for column l?
    let on = |r: usize, l: usize| {
        if forward {
            r >= bounds[l]
        } else {
            r < bounds[l]
        }
    };
    for step in 0..rows.len() {
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
        let trow = t.row(i);
        let mut acc: [f64; W] = b.row(i)[c0..c0 + W]
            .try_into()
            .expect("slice has tile width");
        for k in solved {
            let tik = -trow[k];
            let xk: &[f64; W] = b.row(k)[c0..c0 + W]
                .try_into()
                .expect("slice has tile width");
            for l in 0..W {
                let d = tik.mul_add(xk[l], acc[l]);
                acc[l] = if !MASKED || on(k, l) { d } else { acc[l] };
            }
        }
        if !unit {
            let diag = trow[i];
            for (l, a) in acc.iter_mut().enumerate() {
                *a = if !MASKED || on(i, l) { *a / diag } else { *a };
            }
        }
        b.row_mut(i)[c0..c0 + W].copy_from_slice(&acc);
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
