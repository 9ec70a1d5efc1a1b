//! A ScaLAPACK-style baseline: distributed-memory blocked LU decomposition
//! (`PDGETRF`) and matrix inversion (`PDGETRF` + `PDGETRI`) with
//! communication accounting.
//!
//! The paper compares its MapReduce algorithm against ScaLAPACK's driver
//! routines over MPI (Section 7.5), configured with a `f1 × f2` process
//! grid and 128 × 128 block-cyclic distribution. Neither MPI nor the
//! original package is available here, so this crate re-implements the
//! same computation structure:
//!
//! * a **right-looking blocked LU with partial pivoting** whose panel /
//!   triangular-solve / trailing-update work is tallied *per process* of a
//!   block-cyclic grid ([`grid::ProcessGrid`]) — so the load imbalance of
//!   panel-column work at large grids, which the paper blames for
//!   ScaLAPACK's scheduling disadvantage at scale, emerges from the real
//!   loop structure;
//! * **triangular inversion and product** with cyclically distributed
//!   columns;
//! * **communication tallies** in two flavors: the paper's own Table 1/2
//!   model (`(2/3)·m0·n²` transfer for LU, `m0·n²` for inversion), which
//!   the Figure 8 reproduction uses, and a realistic grid-broadcast
//!   volume, reported alongside for honesty.
//!
//! Numerics are computed for real; only the *time* is simulated, from the
//! tallied flops and transfers, using the same [`mrinv_mapreduce::CostModel`]
//! as the MapReduce system so every comparison is apples-to-apples. MPI
//! keeps intermediates in memory: no per-step DFS traffic, no job-launch
//! overhead — exactly the trade the paper describes.

#![warn(missing_docs)]

mod cost;
mod grid;
pub mod pdgetrf;
mod pdgetri;

use mrinv_mapreduce::CostModel;
use mrinv_matrix::{Matrix, Result};

pub(crate) use cost::ScalapackReport;
pub use grid::ProcessGrid;

/// Configuration for the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalapackConfig {
    /// Block-cyclic block size. The paper found 128 × 128 best at full
    /// scale; this repository's default 1/16-scale suite uses 16.
    pub block_size: usize,
}

impl Default for ScalapackConfig {
    fn default() -> Self {
        ScalapackConfig { block_size: 16 }
    }
}

/// Outcome of a baseline inversion.
#[derive(Debug, Clone)]
pub struct ScalapackRun {
    /// The computed inverse.
    pub inverse: Matrix,
    /// Simulated-time and communication accounting.
    pub report: ScalapackReport,
}

/// Inverts `a` with the ScaLAPACK-style baseline on `m0` simulated nodes.
pub fn invert(
    a: &Matrix,
    m0: usize,
    cost_model: &CostModel,
    cfg: &ScalapackConfig,
) -> Result<ScalapackRun> {
    let grid = ProcessGrid::new(m0, cfg.block_size);
    let lu = pdgetrf::pdgetrf(a, &grid)?;
    let inv = pdgetri::pdgetri(&lu, &grid)?;
    let report = cost::price(a.rows(), &grid, &lu.tally, &inv.tally, cost_model);
    Ok(ScalapackRun {
        inverse: inv.inverse,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::norms::inversion_residual;
    use mrinv_matrix::random::{random_invertible, random_well_conditioned};
    use mrinv_matrix::PAPER_ACCURACY;

    #[test]
    fn baseline_inverts_accurately() {
        let a = random_well_conditioned(48, 1);
        let run = invert(
            &a,
            4,
            &CostModel::ec2_medium(),
            &ScalapackConfig { block_size: 8 },
        )
        .unwrap();
        assert!(inversion_residual(&a, &run.inverse).unwrap() < PAPER_ACCURACY);
    }

    #[test]
    fn baseline_matches_direct_inverse() {
        let a = random_invertible(40, 2);
        let run = invert(
            &a,
            9,
            &CostModel::ec2_medium(),
            &ScalapackConfig { block_size: 8 },
        )
        .unwrap();
        let reference = mrinv_matrix::lu::lu_decompose(&a).unwrap();
        let l_inv = mrinv_matrix::triangular::invert_lower(&reference.unit_lower()).unwrap();
        let u_inv = mrinv_matrix::triangular::invert_upper(&reference.upper()).unwrap();
        let direct = reference.perm.apply_cols(&(&u_inv * &l_inv));
        assert!(run.inverse.approx_eq(&direct, 1e-7));
    }

    #[test]
    fn report_is_populated() {
        let a = random_well_conditioned(32, 3);
        let run = invert(
            &a,
            4,
            &CostModel::ec2_medium(),
            &ScalapackConfig { block_size: 8 },
        )
        .unwrap();
        let r = &run.report;
        assert_eq!(r.n, 32);
        assert_eq!(r.m0, 4);
        assert!(r.sim_secs > 0.0);
        assert!(r.transfer_elements_paper_model > 0);
        assert!(r.transfer_elements_grid > 0);
        assert!(
            r.transfer_elements_paper_model > r.transfer_elements_grid,
            "the paper's model charges more transfer than grid broadcasts"
        );
    }
}
