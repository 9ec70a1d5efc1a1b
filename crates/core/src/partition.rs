//! The map-only partitioning job (Algorithm 3, Figures 3 and 4).
//!
//! One MapReduce job recursively partitions the input matrix into the full
//! Figure-4 directory tree before any LU work starts. Structural
//! properties preserved from the paper:
//!
//! * each partition mapper reads an equal range of *consecutive rows* of
//!   the input, for sequential I/O (Section 5.2);
//! * every written file has exactly one writer, and every pipeline reader
//!   reads only the files of its own stripe/cell — "synchronization on
//!   file writes is never required" (Section 5.2). Files are named
//!   `<dir>/<quad>/A.<reader-cell>.<writer-mapper>`;
//! * `A2` is split into column stripes (one per `U2` mapper) × writer row
//!   pieces, `A3` into row stripes (one per `L2'` mapper) × writer pieces,
//!   `A4` into the `f1 × f2` block-wrap grid (Section 6.2) × writer
//!   pieces, and `A1` recurses.
//!
//! The master describes the same files as one whole-matrix
//! [`MatrixSource`] in global coordinates (pure metadata — the mapper and
//! the master share one enumeration function, so they cannot disagree).
//! The directory tree is only naming: the files tile the input and align
//! with every split, so the LU recursion reaches each quadrant's files by
//! windowing that one descriptor.

use mrinv_mapreduce::job::{JobSpec, MapContext, Mapper};
use mrinv_mapreduce::runner::{run_map_only, JobReport};
use mrinv_mapreduce::{Cluster, MrError, PipelineDriver, TaskIo, TaskRegistry};
use mrinv_matrix::block::{even_ranges, BlockRange};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::config::InversionConfig;
use crate::error::{CoreError, Result};
use crate::source::{read_block, write_block, MatrixSource, Piece};

/// Static geometry of one inversion's data layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PartitionPlan {
    /// Matrix order.
    pub n: usize,
    /// Bound value: blocks of order at most `nb` become leaves.
    pub nb: usize,
    /// Cluster size `m0` (= number of partition mappers).
    pub m0: usize,
    /// Number of `L2'` row stripes per level (`max(m0/2, 1)`).
    pub m_l: usize,
    /// Number of `U2` column stripes per level (`max(m0/2, 1)`).
    pub m_u: usize,
    /// `A4` reader cells: the `f1 × f2` block-wrap grid, or `(m0, 1)` row
    /// stripes when block wrap is disabled.
    pub grid: (usize, usize),
    /// DFS directory all paths live under (the paper's `Root`).
    pub root: String,
}

impl PartitionPlan {
    /// Builds the plan for a cluster and configuration.
    pub(crate) fn new(
        n: usize,
        cluster: &Cluster,
        cfg: &InversionConfig,
        root: impl Into<String>,
    ) -> Self {
        let m0 = cluster.nodes().max(1);
        let half_workers = (m0 / 2).max(1);
        let grid = if cfg.opts.block_wrap {
            cluster.config.block_wrap_factors()
        } else {
            (m0, 1)
        };
        PartitionPlan {
            n,
            nb: cfg.nb,
            m0,
            m_l: half_workers,
            m_u: half_workers,
            grid,
            root: root.into(),
        }
    }

    /// The consecutive global row range partition mapper `j` owns:
    /// `even_ranges(n, m0)[j]`, without building the list (the first
    /// `n % m0` ranges are one row longer).
    fn mapper_rows(&self, j: usize) -> (usize, usize) {
        let (base, extra) = (self.n / self.m0, self.n % self.m0);
        let start = j * base + j.min(extra);
        (start, start + base + usize::from(j < extra))
    }

    /// DFS path of the input row-stripe file mapper `j` reads.
    fn input_part_path(&self, j: usize) -> String {
        format!("{}/input/part.{j}", self.root)
    }

    /// Mapper `j`'s input: the stripe [`ingest_input`] stored for it,
    /// which must be `mapper_rows(j) × n`.
    fn read_input_part(&self, io: &mut TaskIo, j: usize) -> Result<Matrix> {
        let (r0, r1) = self.mapper_rows(j);
        read_block(io, &self.input_part_path(j), (r1 - r0, self.n))
    }
}

/// Enumerates every planned piece of the recursive layout, in global
/// coordinates (shared by the mapper and the master so the two views
/// cannot diverge). The pieces tile the `n × n` input disjointly and align
/// with every recursion split, so windowing the whole-matrix source keeps,
/// for each quadrant, exactly the files under that quadrant's directory.
fn enumerate_pieces(plan: &PartitionPlan) -> Vec<Piece> {
    let mut out = Vec::new();
    enumerate_block(plan, &plan.root, 0, 0, plan.n, &mut out);
    out
}

/// The whole `n × n` input as the partition job lays it out.
fn planned_source(plan: &PartitionPlan) -> MatrixSource {
    MatrixSource::new((plan.n, plan.n), enumerate_pieces(plan))
}

fn enumerate_block(
    plan: &PartitionPlan,
    dir: &str,
    r_off: usize,
    c_off: usize,
    n: usize,
    out: &mut Vec<Piece>,
) {
    if n == 0 {
        return;
    }
    if n <= plan.nb {
        // Leaf: single reader cell, row-sliced by writers.
        push_cells(plan, dir, r_off, c_off, &[(0, n)], &[(0, n)], out);
        return;
    }
    let half = n / 2;
    let rest = n - half;
    // A1 recurses.
    enumerate_block(plan, &format!("{dir}/A1"), r_off, c_off, half, out);
    // A2: column stripes for U2 mappers (rows 0..half, cols half..n).
    let a2_cols = even_ranges(rest, plan.m_u);
    push_cells(
        plan,
        &format!("{dir}/A2"),
        r_off,
        c_off + half,
        &[(0, half)],
        &a2_cols,
        out,
    );
    // A3: row stripes for L2' mappers (rows half..n, cols 0..half).
    let a3_rows = even_ranges(rest, plan.m_l);
    push_cells(
        plan,
        &format!("{dir}/A3"),
        r_off + half,
        c_off,
        &a3_rows,
        &[(0, half)],
        out,
    );
    // A4: grid cells for the reducers (rows half..n, cols half..n).
    let a4_rows = even_ranges(rest, plan.grid.0);
    let a4_cols = even_ranges(rest, plan.grid.1);
    push_cells(
        plan,
        &format!("{dir}/A4"),
        r_off + half,
        c_off + half,
        &a4_rows,
        &a4_cols,
        out,
    );
}

/// Emits the (reader-cell × writer) pieces of one quadrant whose local
/// origin sits at global `(r_off, c_off)`. Writer `j`'s share of a cell is
/// the cell's intersection with [`PartitionPlan::mapper_rows`]`(j)`.
fn push_cells(
    plan: &PartitionPlan,
    dir: &str,
    r_off: usize,
    c_off: usize,
    cell_rows: &[(usize, usize)],
    cell_cols: &[(usize, usize)],
    out: &mut Vec<Piece>,
) {
    for (ci, &(cr0, cr1)) in cell_rows.iter().enumerate() {
        for (cj, &(cc0, cc1)) in cell_cols.iter().enumerate() {
            if cr0 == cr1 || cc0 == cc1 {
                continue;
            }
            let cell = ci * cell_cols.len() + cj;
            // Global rows of this cell.
            let g0 = r_off + cr0;
            let g1 = r_off + cr1;
            for j in 0..plan.m0 {
                let (m0r, m1r) = plan.mapper_rows(j);
                let ir0 = g0.max(m0r);
                let ir1 = g1.min(m1r);
                if ir0 >= ir1 {
                    continue;
                }
                out.push(Piece::new(
                    format!("{dir}/A.{cell}.{j}"),
                    (ir0, ir1),
                    (c_off + cc0, c_off + cc1),
                ));
            }
        }
    }
}

/// The partitioning mapper: worker `j` reads its consecutive input rows and
/// writes every planned piece it owns.
#[derive(Serialize, Deserialize)]
struct PartitionMapper {
    plan: PartitionPlan,
}

/// Registers this module's remote task family (see
/// [`crate::remote::exec_registry`]).
pub(crate) fn register(r: &mut TaskRegistry) {
    r.register_map_only::<PartitionMapper>("partition");
}

/// The map-only partitioning job writing under `root`.
pub(crate) fn job_spec(root: &str) -> JobSpec<usize> {
    JobSpec::new(format!("partition:{root}")).remote("partition")
}

impl Mapper for PartitionMapper {
    type Input = usize;
    type Key = usize;
    type Value = usize;

    fn map(
        &self,
        input: &usize,
        ctx: &mut MapContext<usize, usize>,
    ) -> std::result::Result<(), MrError> {
        let j = *input;
        let (r0, r1) = self.plan.mapper_rows(j);
        let stripe = self.plan.read_input_part(ctx, j)?;
        // Mapper rows are disjoint, so the pieces inside this mapper's
        // range are exactly the ones `push_cells` cut for writer `j`.
        let own = |p: &Piece| r0 <= p.rows.0 && p.rows.1 <= r1;
        for p in enumerate_pieces(&self.plan).into_iter().filter(own) {
            let block = stripe
                .block(BlockRange::new((p.rows.0 - r0, p.rows.1 - r0), p.cols))
                .map_err(CoreError::from)?;
            write_block(ctx, &p.path, &block);
        }
        Ok(())
    }
}

/// Writes the input matrix into the DFS as `m0` row-stripe files (the
/// upstream job's output in the paper's workflow; its cost is not part of
/// the inversion's Tables 1–2 accounting, and no run report counts it:
/// it writes outside the driver).
pub(crate) fn ingest_input(cluster: &Cluster, a: &Matrix, plan: &PartitionPlan) -> Result<()> {
    if a.rows() != plan.n || a.cols() != plan.n {
        return Err(CoreError::Invariant(format!(
            "input is {:?}, plan expects {n}x{n}",
            a.shape(),
            n = plan.n
        )));
    }
    let mut io = TaskIo::new(cluster.dfs.clone());
    for j in 0..plan.m0 {
        let (r0, r1) = plan.mapper_rows(j);
        write_block(&mut io, &plan.input_part_path(j), &a.row_stripe(r0, r1)?);
    }
    Ok(())
}

/// Runs the partitioning job through the driver and returns the
/// descriptor of the whole `n × n` input: every planned piece, in global
/// coordinates. The job is the last reader of the `input/` stripes, so
/// they are released once it commits. The descriptor is a pure function
/// of the plan.
pub(crate) fn run_partition_job(
    driver: &mut PipelineDriver<'_>,
    plan: &PartitionPlan,
) -> Result<(MatrixSource, JobReport)> {
    let spec = job_spec(&plan.root);
    let inputs: Vec<usize> = (0..plan.m0).collect();
    let mapper = PartitionMapper { plan: plan.clone() };
    let report = driver.step(spec.fingerprint(), |c| {
        run_map_only(c, &spec, &mapper, &inputs)
    })?;
    driver.release(inputs.iter().map(|&j| plan.input_part_path(j)));
    Ok((planned_source(plan), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_mapreduce::RunId;
    use mrinv_matrix::random::random_matrix;
    use proptest::prelude::*;

    fn plan(n: usize, nb: usize, m0: usize, block_wrap: bool) -> (Cluster, PartitionPlan) {
        let mut cfg = mrinv_mapreduce::ClusterConfig::medium(m0);
        cfg.cost = mrinv_mapreduce::CostModel::unit_for_tests();
        let cluster = Cluster::new(cfg);
        let mut icfg = InversionConfig::with_nb(nb);
        icfg.opts.block_wrap = block_wrap;
        let p = PartitionPlan::new(n, &cluster, &icfg, "Root");
        (cluster, p)
    }

    /// How many planned pieces hold each element of the `n × n` input.
    fn cover_counts(pieces: &[Piece], n: usize) -> Vec<u8> {
        let mut cover = vec![0u8; n * n];
        for piece in pieces {
            for r in piece.rows.0..piece.rows.1 {
                for c in piece.cols.0..piece.cols.1 {
                    cover[r * n + c] += 1;
                }
            }
        }
        cover
    }

    /// The writer index a planned file is named after (`A.<cell>.<writer>`).
    fn writer_of(piece: &Piece) -> usize {
        piece.path.rsplit('.').next().unwrap().parse().unwrap()
    }

    fn paths(source: &MatrixSource) -> Vec<&str> {
        source.pieces().iter().map(|p| p.path.as_str()).collect()
    }

    /// The planned paths under `prefix`, in enumeration order.
    fn planned_under<'a>(all: &'a [Piece], prefix: &str) -> Vec<&'a str> {
        all.iter()
            .map(|p| p.path.as_str())
            .filter(|p| p.starts_with(prefix))
            .collect()
    }

    #[test]
    fn partition_round_trips_the_matrix() {
        for &(n, nb, m0) in &[
            (24usize, 6usize, 4usize),
            (31, 7, 3),
            (16, 16, 2),
            (40, 5, 8),
        ] {
            let (cluster, p) = plan(n, nb, m0, true);
            let a = random_matrix(n, n, n as u64);
            ingest_input(&cluster, &a, &p).unwrap();
            let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
            let (source, report) = run_partition_job(&mut driver, &p).unwrap();
            assert_eq!(report.map_tasks, m0);
            let mut io = TaskIo::new(cluster.dfs.clone());
            let back = source.read_all(&mut io).unwrap();
            assert_eq!(back, a, "n={n} nb={nb} m0={m0}");
        }
    }

    #[test]
    fn every_file_has_one_writer() {
        let (_c, p) = plan(32, 8, 4, true);
        let pieces = enumerate_pieces(&p);
        // The mapper writes the pieces inside its own rows: exactly one
        // mapper qualifies per piece, the one the file is named after.
        for piece in &pieces {
            let writers: Vec<usize> = (0..p.m0)
                .filter(|&j| {
                    let (r0, r1) = p.mapper_rows(j);
                    r0 <= piece.rows.0 && piece.rows.1 <= r1
                })
                .collect();
            assert_eq!(writers, [writer_of(piece)], "file {}", piece.path);
        }
        // And paths are unique outright.
        let paths: std::collections::HashSet<_> = pieces.iter().map(|p| &p.path).collect();
        assert_eq!(paths.len(), pieces.len());
    }

    #[test]
    fn pieces_tile_the_matrix_exactly() {
        let (_c, p) = plan(30, 7, 5, true);
        assert!(
            cover_counts(&enumerate_pieces(&p), 30)
                .iter()
                .all(|&v| v == 1),
            "every element in exactly one piece"
        );
    }

    #[test]
    fn writers_only_touch_their_rows() {
        let (_c, p) = plan(40, 10, 4, true);
        for piece in &enumerate_pieces(&p) {
            let (r0, r1) = p.mapper_rows(writer_of(piece));
            assert!(piece.rows.0 >= r0 && piece.rows.1 <= r1);
        }
    }

    #[test]
    fn tree_structure_matches_recursion() {
        let (_c, p) = plan(32, 8, 4, true);
        let [a1, a2, a3, a4] = planned_source(&p).quadrants(16, 16).unwrap();
        for q in [&a1, &a2, &a3, &a4] {
            assert_eq!(q.shape(), (16, 16));
        }
        assert!(paths(&a2).iter().all(|f| f.starts_with("Root/A2/A.")));
        assert!(paths(&a3).iter().all(|f| f.starts_with("Root/A3/A.")));
        assert!(paths(&a4).iter().all(|f| f.starts_with("Root/A4/A.")));
        // A1 is itself a split of order 16 whose A1 is an order-8 leaf.
        let [leaf, inner_a2, ..] = a1.quadrants(8, 8).unwrap();
        assert_eq!(leaf.shape(), (8, 8));
        assert!(!leaf.pieces().is_empty());
        assert!(paths(&leaf).iter().all(|f| f.starts_with("Root/A1/A1/A.")));
        assert!(paths(&inner_a2)
            .iter()
            .all(|f| f.starts_with("Root/A1/A2/A.")));
    }

    #[test]
    fn small_matrix_is_a_single_leaf() {
        let (cluster, p) = plan(8, 16, 4, true);
        let a = random_matrix(8, 8, 1);
        ingest_input(&cluster, &a, &p).unwrap();
        let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
        let (source, _) = run_partition_job(&mut driver, &p).unwrap();
        assert_eq!(source.shape(), (8, 8));
        assert!(paths(&source).iter().all(|f| f.starts_with("Root/A.0.")));
        let mut io = TaskIo::new(cluster.dfs.clone());
        assert_eq!(source.read_all(&mut io).unwrap(), a);
    }

    #[test]
    fn block_wrap_off_uses_row_stripes_for_a4() {
        let (_c, p) = plan(32, 8, 4, false);
        assert_eq!(p.grid, (4, 1));
        let (_c2, p2) = plan(32, 8, 4, true);
        assert_eq!(p2.grid, (2, 2));
    }

    #[test]
    fn u2_mapper_stripe_reads_only_its_columns() {
        // Reader-cell file split: a U2 mapper reading its column stripe of
        // A2 must not decode other stripes' files.
        let n = 32;
        let (cluster, p) = plan(n, 8, 4, true);
        let a = random_matrix(n, n, 9);
        ingest_input(&cluster, &a, &p).unwrap();
        let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
        let (source, _) = run_partition_job(&mut driver, &p).unwrap();
        let [_, a2, ..] = source.quadrants(16, 16).unwrap();
        cluster.dfs.reset_counters();
        let mut io = TaskIo::new(cluster.dfs.clone());
        let stripe_cols = even_ranges(16, p.m_u)[0];
        let got = a2.read_cols(&mut io, stripe_cols.0, stripe_cols.1).unwrap();
        let expect = a
            .block(BlockRange::new((0, 16), (16, 16 + stripe_cols.1)))
            .unwrap();
        assert_eq!(got, expect);
        // Bytes read ≈ the stripe, not all of A2.
        let a2_bytes = 16 * 16 * 8;
        assert!(
            cluster.dfs.counters().bytes_read < (a2_bytes / 2 + 1024) as u64,
            "read {} bytes, expected about half of A2's {}",
            cluster.dfs.counters().bytes_read,
            a2_bytes
        );
    }

    /// A stored input stripe that is not `mapper_rows(j) × n` fails its
    /// mapper by name, whichever way it is off: too small used to surface
    /// as a block-range error from inside the piece loop, too large (rows
    /// or columns no piece indexes) used to be accepted.
    #[test]
    fn input_stripe_of_the_wrong_shape_fails_its_mapper() {
        for shape in [(5, 16), (9, 16), (8, 17)] {
            let (cluster, p) = plan(16, 4, 2, true);
            ingest_input(&cluster, &random_matrix(16, 16, 3), &p).unwrap();
            let mut io = TaskIo::new(cluster.dfs.clone());
            let stored = random_matrix(shape.0, shape.1, 4);
            write_block(&mut io, "Root/input/part.1", &stored);
            match p.read_input_part(&mut io, 1) {
                Err(CoreError::Invariant(msg)) => {
                    for needle in ["Root/input/part.1", &format!("{shape:?}"), "(8, 16)"] {
                        assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
                    }
                }
                other => panic!("{shape:?}: {other:?}"),
            }
            assert!(p.read_input_part(&mut io, 0).is_ok());
            let mut driver = PipelineDriver::new(&cluster, RunId::new("Root"));
            assert!(run_partition_job(&mut driver, &p).is_err(), "{shape:?}");
        }
    }

    #[test]
    fn ingest_validates_shape() {
        let (cluster, p) = plan(16, 4, 2, true);
        let wrong = random_matrix(8, 16, 0);
        assert!(ingest_input(&cluster, &wrong, &p).is_err());
    }

    #[test]
    fn mapper_rows_cover_input() {
        let (_c, p) = plan(33, 8, 5, true);
        let mut next = 0;
        for j in 0..5 {
            let (a, b) = p.mapper_rows(j);
            assert_eq!(a, next);
            next = b;
        }
        assert_eq!(next, 33);
        // The closed form is `even_ranges`' split, range by range.
        for (n, m0) in [(33, 5), (7, 8), (64, 4), (10, 3)] {
            let (_c, p) = plan(n, 2, m0, true);
            let rows: Vec<_> = (0..p.m0).map(|j| p.mapper_rows(j)).collect();
            assert_eq!(rows, even_ranges(n, p.m0), "n {n} m0 {m0}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// What lets one whole-matrix descriptor stand in for the Figure-4
        /// tree: the pieces tile the input exactly once, and at every
        /// recursion node the four quadrant windows keep exactly the files
        /// of that quadrant's directory, in enumeration order.
        #[test]
        fn windows_keep_each_quadrants_own_files(
            (n, nb, m0, block_wrap) in (1usize..72, 1usize..20, 1usize..9, any::<bool>())
        ) {
            let (_c, p) = plan(n, nb, m0, block_wrap);
            let all = enumerate_pieces(&p);
            prop_assert!(cover_counts(&all, n).iter().all(|&v| v == 1));

            // Only A1 recurses on the input side.
            let mut node = planned_source(&p);
            let mut dir = p.root.clone();
            while node.rows() > nb {
                let half = node.rows() / 2;
                let [a1, a2, a3, a4] = node.quadrants(half, half).unwrap();
                for (q, name) in [(&a1, "A1"), (&a2, "A2"), (&a3, "A3"), (&a4, "A4")] {
                    prop_assert_eq!(paths(q), planned_under(&all, &format!("{dir}/{name}/")));
                }
                for q in [&a2, &a3, &a4] {
                    prop_assert!(!q.pieces().is_empty());
                }
                node = a1;
                dir = format!("{dir}/A1");
            }
            prop_assert_eq!(paths(&node), planned_under(&all, &format!("{dir}/A.")));
        }
    }
}
