//! `PDGETRF`: right-looking blocked LU decomposition with partial
//! pivoting, with per-process work and communication tallies.
//!
//! The numerics execute for real on the full matrix (producing factors
//! identical — up to arithmetic order — to the single-node Algorithm 1);
//! each step's work is *charged* to the block-cyclic processes that would
//! perform it:
//!
//! * panel factorization → the grid column owning the panel (this is the
//!   serialized work that hurts ScaLAPACK's utilization at large grids);
//! * block-row triangular solve → the grid row owning the pivot block row;
//! * trailing update → all processes, in their block-cyclic shares.
//!
//! Communication is tallied twice: the paper's Table 1 model
//! (integrating to `(2/3)·m0·n²` elements) and a realistic
//! panel/row-broadcast volume.

use mrinv_matrix::dense::Matrix;
use mrinv_matrix::error::{MatrixError, Result};
use mrinv_matrix::Permutation;

use crate::grid::{ProcessGrid, WorkTally};

/// Output of the blocked factorization.
#[derive(Debug, Clone)]
pub struct PdgetrfOutput {
    /// Unit-lower factor.
    pub l: Matrix,
    /// Upper factor.
    pub u: Matrix,
    /// Pivot permutation: `P·A = L·U`.
    pub perm: Permutation,
    /// Per-process work and communication.
    pub(crate) tally: WorkTally,
}

/// Right-looking blocked LU with partial pivoting over the process grid.
pub fn pdgetrf(a: &Matrix, grid: &ProcessGrid) -> Result<PdgetrfOutput> {
    let n = a.order()?;
    let w = grid.block;
    let mut m = a.clone();
    let mut perm = Permutation::identity(n);
    let mut tally = WorkTally::new(grid.size());
    let scale = a.as_slice().iter().fold(0.0_f64, |mx, &v| mx.max(v.abs()));
    let tol = if scale == 0.0 {
        f64::MIN_POSITIVE
    } else {
        scale * f64::EPSILON * n as f64
    };

    let mut k = 0;
    while k < n {
        let kw = w.min(n - k); // panel width
        let t = n - k; // trailing size including the panel
        let bk = grid.block_of(k);

        // ---- Panel factorization: columns k..k+kw, rows k..n ------------
        for col in k..k + kw {
            // Partial pivot over the full column (requires a column
            // all-reduce in real ScaLAPACK).
            let mut pivot_row = col;
            let mut pivot_val = m[(col, col)].abs();
            for r in (col + 1)..n {
                let v = m[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < tol {
                return Err(MatrixError::Singular { step: col });
            }
            if pivot_row != col {
                m.swap_rows(col, pivot_row);
                perm.swap(col, pivot_row);
                // Row swap crosses the grid: two rows of length n move.
                tally.transfer_grid += 2.0 * n as f64;
            }
            let inv_pivot = 1.0 / m[(col, col)];
            for r in (col + 1)..n {
                m[(r, col)] *= inv_pivot;
            }
            // Rank-1 update within the panel only.
            for r in (col + 1)..n {
                let lrc = m[(r, col)];
                if lrc == 0.0 {
                    continue;
                }
                for c in (col + 1)..(k + kw) {
                    let v = m[(col, c)];
                    m[(r, c)] -= lrc * v;
                }
            }
        }
        // Panel flops ~ 2 * (rows below) * kw^2 / ... use exact-ish count:
        let panel_flops = 2.0 * (t as f64) * (kw as f64) * (kw as f64);
        tally.charge_even(&grid.column_procs(bk), panel_flops);

        if k + kw < n {
            // ---- Block-row solve: U12 = L11^-1 * A12 --------------------
            for c in (k + kw)..n {
                for r in k..(k + kw) {
                    let mut acc = m[(r, c)];
                    for p in k..r {
                        acc -= m[(r, p)] * m[(p, c)];
                    }
                    m[(r, c)] = acc; // unit diagonal
                }
            }
            let trsm_flops = (kw as f64) * (kw as f64) * ((n - k - kw) as f64);
            tally.charge_even(&grid.row_procs(bk), trsm_flops);

            // ---- Trailing update: A22 -= L21 * U12 ----------------------
            for r in (k + kw)..n {
                for p in k..(k + kw) {
                    let lrp = m[(r, p)];
                    if lrp == 0.0 {
                        continue;
                    }
                    // Split borrows: row p is above row r.
                    let (top, bottom) = m.as_mut_slice().split_at_mut(r * n);
                    let urow = &top[p * n..p * n + n];
                    let rrow = &mut bottom[..n];
                    for c in (k + kw)..n {
                        rrow[c] -= lrp * urow[c];
                    }
                }
            }
            let t2 = (n - k - kw) as f64;
            let update_flops = 2.0 * t2 * t2 * kw as f64;
            let all: Vec<usize> = (0..grid.size()).collect();
            tally.charge_even(&all, update_flops);

            // ---- Communication ------------------------------------------
            // Realistic: panel broadcast along the grid row, U12 broadcast
            // along the grid column.
            tally.transfer_grid += (t as f64) * (kw as f64) * (grid.f2 as f64 - 1.0);
            tally.transfer_grid += t2 * (kw as f64) * (grid.f1 as f64 - 1.0);
        }
        // The paper's Table 1 model: integrates to (2/3) m0 n^2 over the
        // factorization.
        tally.transfer_paper += 4.0 / 3.0 * grid.size() as f64 * (kw as f64) * (t as f64);

        k += kw;
    }

    // Extract the factors.
    let mut l = Matrix::identity(n);
    let mut u = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            l[(i, j)] = m[(i, j)];
        }
        for j in i..n {
            u[(i, j)] = m[(i, j)];
        }
    }
    Ok(PdgetrfOutput { l, u, perm, tally })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::lu::lu_decompose;
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};

    #[test]
    fn blocked_factorization_reconstructs_pa() {
        for &(n, block) in &[(16usize, 4usize), (33, 8), (40, 7), (24, 24), (10, 64)] {
            let a = random_invertible(n, n as u64);
            let grid = ProcessGrid {
                f1: 2,
                f2: 2,
                block,
            };
            let out = pdgetrf(&a, &grid).unwrap();
            let pa = out.perm.apply_rows(&a);
            let lu = &out.l * &out.u;
            assert!(lu.approx_eq(&pa, 1e-7), "n={n} block={block}");
        }
    }

    #[test]
    fn matches_unblocked_lu() {
        let a = random_invertible(30, 5);
        let grid = ProcessGrid {
            f1: 2,
            f2: 2,
            block: 8,
        };
        let ours = pdgetrf(&a, &grid).unwrap();
        let reference = lu_decompose(&a).unwrap();
        assert_eq!(ours.perm, reference.perm, "same pivot choices");
        assert!(ours.l.approx_eq(&reference.unit_lower(), 1e-9));
        assert!(ours.u.approx_eq(&reference.upper(), 1e-9));
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::zeros(8, 8);
        let grid = ProcessGrid::new(4, 4);
        assert!(pdgetrf(&a, &grid).is_err());
    }

    #[test]
    fn paper_transfer_model_integrates_to_two_thirds_m0_n2() {
        let n = 64;
        let a = random_well_conditioned(n, 1);
        for m0 in [4usize, 16] {
            let grid = ProcessGrid::new(m0, 8);
            let out = pdgetrf(&a, &grid).unwrap();
            let expect = 2.0 / 3.0 * m0 as f64 * (n * n) as f64;
            let got = out.tally.transfer_paper;
            assert!(
                (got - expect).abs() / expect < 0.15,
                "m0={m0}: got {got}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn flop_total_is_two_thirds_n_cubed() {
        let n = 48;
        let a = random_well_conditioned(n, 2);
        let grid = ProcessGrid::new(6, 8);
        let out = pdgetrf(&a, &grid).unwrap();
        let expect = 2.0 / 3.0 * (n as f64).powi(3);
        let got = out.tally.total_flops();
        assert!(
            (got - expect).abs() / expect < 0.3,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn load_balance_degrades_with_grid_size() {
        // Panel work concentrates on one grid column: with more processes
        // and a fixed matrix, balance worsens — the paper's scheduling
        // argument for ScaLAPACK at scale.
        let n = 64;
        let a = random_well_conditioned(n, 3);
        let small = pdgetrf(&a, &ProcessGrid::new(4, 8))
            .unwrap()
            .tally
            .balance();
        let large = pdgetrf(&a, &ProcessGrid::new(64, 8))
            .unwrap()
            .tally
            .balance();
        assert!(
            large < small,
            "balance should degrade: 4 nodes {small:.3} vs 64 nodes {large:.3}"
        );
    }
}
