//! The distributed block LU decomposition (Algorithm 2 over MapReduce).
//!
//! One MapReduce job per recursion node (Section 5.3):
//!
//! * **mappers** — half compute row stripes of `L2'` (each row solves
//!   `x·U1 = [A3]_row`, Equation 6), half compute column stripes of `U2`
//!   (each column solves `L1·x = [P1·A2]_col`). A mapper learns its role
//!   from its task input, the paper's control-file pattern (Section 5.1,
//!   Figure 5), and reads/writes only its own files;
//! * **reducers** — each computes one block-wrap cell of
//!   `B = A4 − L2'·U2` (Section 6.2) and writes it to `OUT/A.<cell>`;
//!   mappers emit `(cell, cell)` control pairs routed by the identity
//!   partitioner, exactly Figure 5's `(j, j)` scheme.
//!
//! Leaves (order ≤ `nb`) are LU-decomposed *on the master node*
//! (Section 4.2). Every block, input side or `B`, is a [`MatrixSource`]:
//! the recursion takes its quadrants as windows (Section 5.2 — `B` is never
//! re-materialized, and the Figure-4 files line up with every split), and
//! each level's `L2'`/`U2` sources serve its reducers and then live on in
//! the returned [`FactorRef`]. A level's `B` cells die with its `B`
//! recursion: the level named them, so it releases them once that
//! recursion returns.

use mrinv_mapreduce::job::{
    identity_partitioner, JobSpec, MapContext, Mapper, ReduceContext, Reducer,
};
use mrinv_mapreduce::master::run_on_master;
use mrinv_mapreduce::runner::run_job;
use mrinv_mapreduce::simtime::STRIDED_SLOWDOWN;
use mrinv_mapreduce::{Cluster, MrError, PipelineDriver, TaskIo, TaskRegistry, TaskStats};
use mrinv_matrix::block::even_ranges;
use mrinv_matrix::kernel::{
    gemm, gemm_flops, gemm_with, notrans, trans, Diag, Side, Strided, Uplo,
};
use mrinv_matrix::lu::{lu_decompose, lu_flops};
use mrinv_matrix::triangular::{solve_row_times_upper, trsm, trsm_flops};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::config::Optimizations;
use crate::error::{CoreError, Result};
use crate::factors::FactorRef;
use crate::partition::PartitionPlan;
use crate::source::{write_block, MatrixSource, Piece};

/// Registers this module's remote task family (see
/// [`crate::remote::exec_registry`]).
pub(crate) fn register(r: &mut TaskRegistry) {
    r.register::<LuLevelMapper, LuLevelReducer>("lu-level");
}

/// The job one recursion node under `dir` submits: one reducer per cell.
pub(crate) fn job_spec(dir: &str, num_cells: usize) -> JobSpec<usize> {
    JobSpec::new(format!("lu-level:{dir}"))
        .reducers(num_cells)
        .partitioner(identity_partitioner)
        .remote("lu-level")
}

/// Control pairs (Figure 5): distributes a job's reducer cells round-robin
/// across its map tasks, so every reducer receives exactly one
/// `(cell, cell)` key through the identity partitioner.
pub(crate) fn emit_cells(ctx: &mut MapContext<usize, usize>, num_cells: usize) {
    for cell in (ctx.task_index()..num_cells).step_by(ctx.num_tasks()) {
        ctx.emit(cell, cell);
    }
}

/// Charges a master I/O session to the simulated clock.
fn charge_master_io(cluster: &Cluster, io: &TaskIo) {
    let cost = &cluster.config.cost;
    let secs = io.stats().read_bytes as f64 / cost.disk_read_bw
        + io.stats().write_bytes as f64 * f64::from(cost.replication) / cost.disk_write_bw;
    cluster.metrics.add_master_time(secs);
}

/// Distributed block LU decomposition of the square block `source`
/// describes, writing this block's outputs under `dir`. Sequences one
/// MapReduce job per recursion node through the driver (each restorable
/// from a checkpoint manifest on resume) and returns the factor
/// descriptor. Leaf decompositions run on the master node and re-run
/// deterministically on resume; only their (small) master time is
/// re-charged.
///
/// The input side and `B` go through the same code: `source` is the
/// partition job's whole-matrix descriptor (`dir` = the plan's root) or a
/// level's reducer outputs, and either way its quadrants are windows.
pub fn lu_decompose_mr(
    driver: &mut PipelineDriver<'_>,
    dir: &str,
    source: MatrixSource,
    plan: &PartitionPlan,
    opts: &Optimizations,
) -> Result<FactorRef> {
    let cluster = driver.cluster();
    let n = source.rows();
    if source.cols() != n {
        return Err(CoreError::Invariant(format!(
            "cannot LU-decompose a {:?} block under {dir}",
            source.shape()
        )));
    }

    if n <= plan.nb {
        // Leaf: decompose on the master node (Algorithm 2 lines 2-3).
        let mut io = TaskIo::new(cluster.dfs.clone());
        let block = source.read_all(&mut io)?;
        let leaf_lu = TaskStats {
            flops: lu_flops(n),
            ..TaskStats::default()
        };
        let factors = run_on_master(cluster, || (lu_decompose(&block), leaf_lu))?;
        let u = factors.upper();
        let stored_u = if opts.transpose_u { u.transpose() } else { u };
        let l = factors.unit_lower();
        let leaf =
            FactorRef::write_leaf(&mut io, dir, &l, &stored_u, factors.perm, opts.transpose_u);
        charge_master_io(cluster, &io);
        return Ok(leaf);
    }

    // Internal node: the quadrants are windows (Section 5.2: metadata only).
    let half = n / 2;
    let rest = n - half;
    let [a1, a2, a3, a4] = source.quadrants(half, half)?;

    // Decompose A1 first (Algorithm 2 line 6).
    let a1_factors = lu_decompose_mr(driver, &format!("{dir}/A1"), a1, plan, opts)?;

    // Where this level's files land, named here once: the mappers and
    // reducers are handed these pieces, and every later reader of the
    // factors sees the same ones. L2' is striped by rows; U2 by columns,
    // or by rows of U2ᵀ when stored transposed (Section 6.3); B by the
    // block-wrap grid (Section 6.2), one file per cell.
    let nonempty = |r: &(usize, usize)| r.0 < r.1;
    let stripes = |count| {
        even_ranges(rest, count)
            .into_iter()
            .filter(nonempty)
            .enumerate()
    };
    let l2 = MatrixSource::new(
        (rest, half),
        stripes(plan.m_l)
            .map(|(k, rows)| Piece::new(format!("{dir}/L2/L.{k}"), rows, (0, half)))
            .collect(),
    );
    let u2_files = stripes(plan.m_u).map(|(k, range)| (format!("{dir}/U2/U.{k}"), range));
    let u2 = if opts.transpose_u {
        MatrixSource::new(
            (rest, half),
            u2_files
                .map(|(path, range)| Piece::new(path, range, (0, half)))
                .collect(),
        )
    } else {
        MatrixSource::new(
            (half, rest),
            u2_files
                .map(|(path, range)| Piece::new(path, (0, half), range))
                .collect(),
        )
    };
    let cell_cols = even_ranges(rest, plan.grid.1);
    let cells: Vec<Piece> = even_ranges(rest, plan.grid.0)
        .into_iter()
        .flat_map(|rr| cell_cols.iter().map(move |&cc| (rr, cc)))
        .enumerate()
        .map(|(cell, (rr, cc))| Piece::new(format!("{dir}/OUT/A.{cell}"), rr, cc))
        .collect();

    let input = |stripe| {
        move |p: &Piece| LuTaskInput {
            stripe,
            piece: p.clone(),
        }
    };
    let inputs: Vec<LuTaskInput> = (l2.pieces().iter().map(input(Stripe::L2)))
        .chain(u2.pieces().iter().map(input(Stripe::U2)))
        .collect();
    let mapper = LuLevelMapper {
        a1: a1_factors.clone(),
        a2,
        a3,
        opts: *opts,
        num_cells: cells.len(),
    };
    // B's descriptor (Section 5.2: metadata only, built on the master).
    let b_source = MatrixSource::new(
        (rest, rest),
        cells.iter().filter(|p| !p.is_empty()).cloned().collect(),
    );
    let spec = job_spec(dir, cells.len());
    let reducer = LuLevelReducer {
        a4,
        l2_source: l2.clone(),
        u2_source: u2.clone(),
        cells,
        opts: *opts,
    };
    driver.step(spec.fingerprint(), |c| {
        run_job(c, &spec, &mapper, &reducer, &inputs).map(|(_outputs, report)| report)
    })?;

    // Decompose B (Algorithm 2 line 10). Its recursion is the last reader
    // of the cells, which this level named and so releases whole; a
    // window of them may share a cell with its siblings.
    let b_cells: Vec<String> = b_source.paths().collect();
    let b_factors = lu_decompose_mr(driver, &format!("{dir}/OUT"), b_source, plan, opts)?;
    driver.release(b_cells);

    let node = FactorRef::Node {
        n,
        half,
        a1: Box::new(a1_factors),
        l2,
        u2,
        b: Box::new(b_factors),
        transposed_u: opts.transpose_u,
    };

    if opts.separate_intermediate_files {
        Ok(node)
    } else {
        // Section 6.1 ablation: serially combine this level's factors on
        // the master while the cluster waits. The combined leaf supersedes
        // the files it was read from.
        let mut io = TaskIo::new(cluster.dfs.clone());
        let combined = run_on_master(cluster, || {
            let combined = node.combine(&mut io, &format!("{dir}/COMBINED"), opts.transpose_u);
            (combined, *io.stats())
        });
        charge_master_io(cluster, &io);
        let combined = combined?;
        let kept = combined.paths();
        driver.release(node.paths().into_iter().filter(|p| !kept.contains(p)));
        Ok(combined)
    }
}

/// Map-task input: which stripe of which factor to compute (the control
/// integer of Section 5.1, enriched into the piece the master named: its
/// path is where the stripe goes, its rectangle what the stripe covers).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LuTaskInput {
    stripe: Stripe,
    piece: Piece,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Stripe {
    /// Compute the rows of `L2'` the piece covers.
    L2,
    /// Compute the columns of `U2` the piece covers (its rows, when `U2`
    /// is stored transposed).
    U2,
}

#[derive(Serialize, Deserialize)]
struct LuLevelMapper {
    a1: FactorRef,
    a2: MatrixSource,
    a3: MatrixSource,
    opts: Optimizations,
    num_cells: usize,
}

impl Mapper for LuLevelMapper {
    type Input = LuTaskInput;
    type Key = usize;
    type Value = usize;

    fn map(
        &self,
        input: &LuTaskInput,
        ctx: &mut MapContext<usize, usize>,
    ) -> std::result::Result<(), MrError> {
        let piece = &input.piece;
        match input.stripe {
            Stripe::L2 => {
                let a3_stripe = self.a3.read_rows(ctx, piece.rows.0, piece.rows.1)?;
                let out = if self.opts.transpose_u {
                    // X·U1 = A3 is U1ᵀ·Xᵀ = A3ᵀ: one lower solve of the
                    // whole stripe against the stored transpose.
                    let u1_t = self.a1.assemble_u_t(ctx)?;
                    let mut x_t = a3_stripe.transpose();
                    drop(a3_stripe);
                    trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, &u1_t, &mut x_t)
                        .map_err(CoreError::from)?;
                    ctx.charge_flops(trsm_flops(u1_t.rows(), x_t.cols()));
                    drop(u1_t);
                    x_t.transpose()
                } else {
                    // Ablation path: row-major U1 walked column-wise, one
                    // row of the stripe at a time.
                    let u1 = self.a1.assemble_u(ctx)?;
                    let mut out = Matrix::zeros(a3_stripe.rows(), a3_stripe.cols());
                    for i in 0..a3_stripe.rows() {
                        let row = solve_row_times_upper(&u1, a3_stripe.row(i))
                            .map_err(CoreError::from)?;
                        out.row_mut(i).copy_from_slice(&row);
                    }
                    ctx.charge_flops(STRIDED_SLOWDOWN * trsm_flops(u1.rows(), out.rows()));
                    out
                };
                write_block(ctx, &piece.path, &out);
            }
            Stripe::U2 => {
                let cols = if self.opts.transpose_u {
                    piece.rows
                } else {
                    piece.cols
                };
                // Pivot A2's rows by P1 before solving (Equation 5:
                // L1 U2 = P1 A2).
                let p1 = self.a1.perm();
                let mut u2 = p1.apply_rows(&self.a2.read_cols(ctx, cols.0, cols.1)?);
                let l1 = self.a1.assemble_l(ctx)?;
                trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, &l1, &mut u2)
                    .map_err(CoreError::from)?;
                ctx.charge_flops(trsm_flops(l1.rows(), u2.cols()));
                drop(l1);
                // Stored transposed when the Section 6.3 layout is on.
                let stored = if self.opts.transpose_u {
                    u2.transpose()
                } else {
                    u2
                };
                write_block(ctx, &piece.path, &stored);
            }
        }
        emit_cells(ctx, self.num_cells);
        Ok(())
    }
}

#[derive(Serialize, Deserialize)]
struct LuLevelReducer {
    a4: MatrixSource,
    l2_source: MatrixSource,
    /// `U2` pieces; in transposed space (`rest x half`) when
    /// `opts.transpose_u`, else `half x rest`.
    u2_source: MatrixSource,
    /// Where each cell of `B` goes and what it covers, indexed by cell.
    cells: Vec<Piece>,
    opts: Optimizations,
}

impl Reducer for LuLevelReducer {
    type Key = usize;
    type Value = usize;
    type Output = ();

    fn reduce(
        &self,
        key: &usize,
        _values: &[usize],
        ctx: &mut ReduceContext,
    ) -> std::result::Result<(), MrError> {
        let cell = &self.cells[*key];
        if cell.is_empty() {
            return Ok(());
        }
        let (rr, cc) = (cell.rows, cell.cols);
        let mut b = self.a4.read_range(ctx, rr, cc)?;
        let l2_rows = self.l2_source.read_rows(ctx, rr.0, rr.1)?;
        if self.opts.transpose_u {
            let u2t_rows = self.u2_source.read_rows(ctx, cc.0, cc.1)?;
            gemm(-1.0, notrans(&l2_rows), trans(&u2t_rows), 1.0, &mut b)
                .map_err(CoreError::from)?;
            ctx.charge_flops(gemm_flops(b.rows(), l2_rows.cols(), b.cols()));
        } else {
            // Ablation path: row-major U2, Equation 7's column-striding
            // inner loop (the access pattern Section 6.3 eliminates) —
            // pinned to the Strided backend so the ablation runs that
            // exact loop order regardless of the process-wide backend, and
            // priced at that loop's rate.
            let u2_cols = self.u2_source.read_cols(ctx, cc.0, cc.1)?;
            gemm_with(
                &Strided,
                -1.0,
                notrans(&l2_rows),
                notrans(&u2_cols),
                1.0,
                &mut b,
            )
            .map_err(CoreError::from)?;
            let flops = gemm_flops(b.rows(), l2_rows.cols(), b.cols());
            ctx.charge_flops(STRIDED_SLOWDOWN * flops);
        }
        write_block(ctx, &cell.path, &b);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InversionConfig;
    use crate::partition::{ingest_input, run_partition_job};
    use mrinv_mapreduce::runner::JobReport;
    use mrinv_mapreduce::{ClusterConfig, CostModel, RunId};
    use mrinv_matrix::random::random_invertible;

    fn run_lu(
        n: usize,
        nb: usize,
        m0: usize,
        opts: Optimizations,
        seed: u64,
    ) -> (Cluster, FactorRef, Vec<JobReport>, Matrix) {
        let mut ccfg = ClusterConfig::medium(m0);
        ccfg.cost = CostModel::unit_for_tests();
        let cluster = Cluster::new(ccfg);
        let mut icfg = InversionConfig::with_nb(nb);
        icfg.opts = opts;
        let plan = PartitionPlan::new(n, &cluster, &icfg, "Root");
        let a = random_invertible(n, seed);
        ingest_input(&cluster, &a, &plan).unwrap();
        let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
        let (source, _) = run_partition_job(&mut driver, &plan).unwrap();
        let factors = lu_decompose_mr(&mut driver, &plan.root, source, &plan, &icfg.opts).unwrap();
        // Reports minus the partition job: the LU pipeline proper.
        let reports = driver.reports()[1..].to_vec();
        (cluster, factors, reports, a)
    }

    fn assert_pa_eq_lu(cluster: &Cluster, factors: &FactorRef, a: &Matrix, tol: f64) {
        let mut io = TaskIo::new(cluster.dfs.clone());
        let l = factors.assemble_l(&mut io).unwrap();
        let u = factors.assemble_u(&mut io).unwrap();
        let pa = factors.perm().apply_rows(a);
        let lu = &l * &u;
        assert!(
            lu.approx_eq(&pa, tol),
            "PA != LU (max diff {})",
            lu.max_abs_diff(&pa).unwrap()
        );
    }

    #[test]
    fn one_level_decomposition_matches() {
        let (cluster, factors, reports, a) = run_lu(16, 8, 4, Optimizations::all(), 1);
        assert_eq!(reports.len(), 1, "one recursion node -> one MR job");
        assert_pa_eq_lu(&cluster, &factors, &a, 1e-8);
    }

    #[test]
    fn two_level_decomposition_matches() {
        let (cluster, factors, reports, a) = run_lu(32, 8, 4, Optimizations::all(), 2);
        assert_eq!(reports.len(), 3, "depth 2 -> 3 MR jobs");
        assert_pa_eq_lu(&cluster, &factors, &a, 1e-8);
    }

    #[test]
    fn three_level_decomposition_matches() {
        let (cluster, factors, reports, a) = run_lu(64, 8, 4, Optimizations::all(), 3);
        assert_eq!(reports.len(), 7);
        assert_pa_eq_lu(&cluster, &factors, &a, 1e-7);
    }

    #[test]
    fn odd_orders_decompose() {
        for &(n, nb, m0) in &[(21usize, 5usize, 3usize), (37, 9, 4), (50, 7, 5)] {
            let (cluster, factors, _p, a) = run_lu(n, nb, m0, Optimizations::all(), n as u64);
            assert_pa_eq_lu(&cluster, &factors, &a, 1e-7);
        }
    }

    #[test]
    fn all_ablation_combinations_agree() {
        let mut variants = Vec::new();
        for sep in [true, false] {
            for wrap in [true, false] {
                for tr in [true, false] {
                    variants.push(Optimizations {
                        separate_intermediate_files: sep,
                        block_wrap: wrap,
                        transpose_u: tr,
                    });
                }
            }
        }
        let mut reference: Option<Matrix> = None;
        for opts in variants {
            let (cluster, factors, _p, a) = run_lu(24, 6, 4, opts, 42);
            assert_pa_eq_lu(&cluster, &factors, &a, 1e-8);
            let mut io = TaskIo::new(cluster.dfs.clone());
            let l = factors.assemble_l(&mut io).unwrap();
            match &reference {
                None => reference = Some(l),
                Some(r) => assert!(
                    l.approx_eq(r, 1e-9),
                    "optimizations changed the numerics: {opts:?}"
                ),
            }
        }
    }

    #[test]
    fn combine_ablation_reduces_file_count() {
        let (_c1, f1, _p1, _a1) = run_lu(32, 8, 4, Optimizations::all(), 7);
        let mut no_sep = Optimizations::all();
        no_sep.separate_intermediate_files = false;
        let (_c2, f2, _p2, _a2) = run_lu(32, 8, 4, no_sep, 7);
        assert!(f1.paths().len() > 2, "separate files keep the forest");
        assert_eq!(
            f2.paths().len(),
            2,
            "combining collapses to one L and one U"
        );
    }

    #[test]
    fn factor_file_count_matches_formula() {
        // N(d) = 2^d + (m0/2)(2^d - 1) when every level has m0/2 stripes.
        let (_c, f, _p, _a) = run_lu(64, 8, 4, Optimizations::all(), 9);
        let d = crate::schedule::recursion_depth(64, 8);
        // L and U each take N(d) files: m_l = m_u = m0/2.
        assert_eq!(
            f.paths().len() as u64,
            2 * crate::schedule::factor_file_count(d, 4)
        );
    }

    #[test]
    fn single_node_cluster_works() {
        let (cluster, factors, _p, a) = run_lu(16, 4, 1, Optimizations::all(), 11);
        assert_pa_eq_lu(&cluster, &factors, &a, 1e-8);
    }

    #[test]
    fn leaf_only_decomposition_runs_no_jobs() {
        let (cluster, factors, reports, a) = run_lu(8, 16, 2, Optimizations::all(), 13);
        assert_eq!(reports.len(), 0);
        assert_pa_eq_lu(&cluster, &factors, &a, 1e-9);
        assert!(cluster.metrics.snapshot().master_secs > 0.0);
    }

    /// The master's charge is its counted work: with unit bandwidths and a
    /// unit flop rate, a leaf decomposition charges the leaf LU's flops at
    /// the master's speed plus exactly the bytes its one handle moved.
    #[test]
    fn master_io_charge_is_the_bytes_moved() {
        let mut ccfg = ClusterConfig::medium(2);
        ccfg.cost = CostModel {
            flops_per_sec: 1.0,
            replication: 3,
            ..CostModel::unit_for_tests()
        };
        let cluster = Cluster::new(ccfg);
        let icfg = InversionConfig::with_nb(16);
        let plan = PartitionPlan::new(8, &cluster, &icfg, "Root");
        ingest_input(&cluster, &random_invertible(8, 19), &plan).unwrap();
        let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
        let (source, _) = run_partition_job(&mut driver, &plan).unwrap();
        let before = cluster.dfs.counters();
        lu_decompose_mr(&mut driver, &plan.root, source, &plan, &icfg.opts).unwrap();
        let after = cluster.dfs.counters();
        let read = (after.bytes_read - before.bytes_read) as f64;
        let written = (after.bytes_written - before.bytes_written) as f64;
        assert!(read > 0.0 && written > 0.0);
        let lu = lu_flops(8) as f64 / mrinv_mapreduce::simtime::MASTER_SPEEDUP;
        assert_eq!(
            cluster.metrics.snapshot().master_secs,
            lu + (read + 3.0 * written)
        );
    }

    #[test]
    fn fault_injection_does_not_change_result() {
        let mut ccfg = ClusterConfig::medium(4);
        ccfg.cost = CostModel::unit_for_tests();
        let cluster = Cluster::new(ccfg);
        cluster
            .faults
            .fail_task("lu-level", mrinv_mapreduce::Phase::Map, 0, 1);
        cluster
            .faults
            .fail_task("lu-level", mrinv_mapreduce::Phase::Reduce, 1, 1);
        let icfg = InversionConfig::with_nb(8);
        let plan = PartitionPlan::new(32, &cluster, &icfg, "Root");
        let a = random_invertible(32, 17);
        ingest_input(&cluster, &a, &plan).unwrap();
        let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
        let (source, _) = run_partition_job(&mut driver, &plan).unwrap();
        let factors = lu_decompose_mr(&mut driver, &plan.root, source, &plan, &icfg.opts).unwrap();
        assert!(driver.total_failures() >= 2);
        assert_pa_eq_lu(&cluster, &factors, &a, 1e-8);
    }
}
