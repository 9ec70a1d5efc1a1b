//! The final MapReduce job: triangular inversion and the product
//! `A^-1 = U^-1 · L^-1 · P` (Section 5.4).
//!
//! * **mappers** — half invert `L` by computing interleaved columns of
//!   `L^-1` (mapper `k` computes columns `k, k+m, k+2m, ...` — the paper's
//!   load-balancing assignment: "Mapper0 computes columns 0, 4, 8, 12,
//!   ..."), half invert `U` by computing interleaved rows of `U^-1`
//!   (through the transposed storage of Section 6.3). Each mapper writes
//!   its vectors grouped by the reducer cell that needs them, so reducers
//!   read only their own `(1/f1 + 1/f2)·n²` share (Section 6.2);
//! * **reducers** — each computes one block of `U^-1·L^-1` and writes it
//!   with its *permuted* target column indices: column `j` of the product
//!   is column `S[j]` of `A^-1` (Section 4.3). The block multiplies only
//!   the terms the two triangles can make nonzero, tile by tile
//!   (`kernel::gemm_staircase`), with the dense product's bits. With `U`
//!   stored row-major (the Section 6.3 ablation) the same code runs and
//!   is priced as Equation 7's dense, strided product.
//!
//! Because the interleaved vectors are non-contiguous, files carry explicit
//! index headers.
//!
//! **`INV/` files hold triangles.** Column `j` of `L^-1` is zero above row
//! `j` and row `i` of `U^-1` is zero left of column `i`, so a full-length
//! vector is on average half zeros. An `INV/{L,U}.k.b` file keeps each
//! vector from its own index on:
//!
//! ```text
//! [count u64][indices: count × u64][n u64][vector s, elements indices[s]..n]...
//! ```
//!
//! That is the layout Table 2 prices: the mappers write `n²` elements for
//! both inverses (`2n²` with the product), and each reducer reads about
//! half of its `(1/f1 + 1/f2)·n²` block-wrap share. The writer refuses a
//! vector whose dropped head is not `== 0.0` — dropping it silently would
//! turn a wrong factor into a wrong inverse — and the reader checks every
//! length against the bytes present before it allocates, then puts the
//! zeros back only from the column its product starts at. `RESULT/` is
//! dense (`IndexedBlock`: an index header and a binary block).
//!
//! Writers and readers share one enumeration: `owned` says which indices
//! worker `k` holds inside a block, `Layout::files` turns that into the
//! `(path, index header)` table of the `INV/` files, a mapper writes its
//! row of the table and a reducer *reads* its block's column of it — a
//! missing file is `FileNotFound`, never "that worker had no rows" — and
//! the master assembles `RESULT/` the same way. Every file's header is
//! checked against the enumeration, and a reader fails unless it covered
//! its block.

use std::ops::Range;

use bytes::{Buf, Bytes};
use mrinv_mapreduce::job::{
    identity_partitioner, JobSpec, MapContext, Mapper, ReduceContext, Reducer,
};
use mrinv_mapreduce::runner::run_job;
use mrinv_mapreduce::simtime::STRIDED_SLOWDOWN;
use mrinv_mapreduce::{MrError, PipelineDriver, TaskIo, TaskRegistry};
use mrinv_matrix::block::even_ranges;
use mrinv_matrix::io::{binary_size, decode_binary, encode_binary_onto};
use mrinv_matrix::kernel::{
    gemm_flops, gemm_staircase, notrans, trans, tri_product_flops, Diag, Side, Uplo, K_PANEL,
};
use mrinv_matrix::triangular::{trsm, trsm_flops};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::config::Optimizations;
use crate::error::{CoreError, Result};
use crate::factors::FactorRef;
use crate::lu_mr::emit_cells;
use crate::partition::PartitionPlan;
use crate::source::expect_covered;

/// A `RESULT/` file: a product cell tagged with the columns of `A^-1` its
/// columns are.
#[derive(Debug, Clone, PartialEq)]
struct IndexedBlock {
    /// Global index of each vector in `data`'s rows (or columns).
    pub indices: Vec<u64>,
    /// The vectors; orientation is up to the producer.
    pub data: Matrix,
}

/// Encodes an [`IndexedBlock`] — `[count u64][indices...][matrix]` — from
/// its parts: the index header and the `rows x cols` block whose row-major
/// elements are `values`, written once into one buffer.
fn encode_indexed_parts(indices: &[u64], rows: usize, cols: usize, values: &[f64]) -> Bytes {
    let mut buf = Vec::with_capacity(8 + indices.len() * 8 + binary_size(rows, cols) as usize);
    buf.extend_from_slice(&(indices.len() as u64).to_le_bytes());
    buf.extend(indices.iter().flat_map(|i| i.to_le_bytes()));
    encode_binary_onto(&mut buf, rows, cols, values);
    Bytes::from(buf)
}

/// Decodes an [`IndexedBlock`].
fn decode_indexed(mut data: &[u8]) -> Result<IndexedBlock> {
    if data.len() < 8 {
        return Err(CoreError::Invariant("indexed block truncated".into()));
    }
    // The count is input: bound it by the bytes actually present before
    // multiplying or allocating.
    let index_bytes = usize::try_from(data.get_u64_le())
        .ok()
        .and_then(|count| count.checked_mul(8))
        .filter(|&bytes| bytes <= data.len())
        .ok_or_else(|| CoreError::Invariant("indexed block index list truncated".into()))?;
    let (index_part, matrix_part) = data.split_at(index_bytes);
    let indices = index_part
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
        .collect();
    Ok(IndexedBlock {
        indices,
        data: decode_binary(matrix_part)?,
    })
}

/// Encodes the `INV/` file at `path` (layout in the module doc): the
/// `n`-element vectors laid end to end in `vectors`, vector `s` kept from
/// element `indices[s]` on. A vector with a nonzero element before its
/// index is an error naming the file.
fn encode_tails(path: &str, indices: &[u64], n: usize, vectors: &[f64]) -> Result<Bytes> {
    debug_assert_eq!(vectors.len(), indices.len() * n);
    let words: usize = indices.iter().map(|&i| n - i as usize).sum();
    let mut buf = Vec::with_capacity(16 + 8 * (indices.len() + words));
    buf.extend_from_slice(&(indices.len() as u64).to_le_bytes());
    buf.extend(indices.iter().flat_map(|i| i.to_le_bytes()));
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for (s, &i) in indices.iter().enumerate() {
        let (head, tail) = vectors[s * n..(s + 1) * n].split_at(i as usize);
        if let Some(j) = head.iter().position(|&v| v != 0.0) {
            return Err(CoreError::Invariant(format!(
                "file {path}: vector {i} holds {} at element {j}, before its index",
                head[j]
            )));
        }
        buf.extend(tail.iter().flat_map(|v| v.to_le_bytes()));
    }
    Ok(Bytes::from(buf))
}

/// A decoded `INV/` file: vector `indices[s]` is `n - indices[s]` words of
/// `words`, after the vectors before it.
struct Tails<'a> {
    indices: Vec<u64>,
    n: usize,
    words: &'a [u8],
}

impl<'a> Tails<'a> {
    /// Each vector's index and its elements `index..n`, as little-endian
    /// words.
    fn vectors(&self) -> impl Iterator<Item = (usize, &'a [u8])> + '_ {
        let mut rest = self.words;
        self.indices.iter().map(move |&i| {
            let (tail, next) = rest.split_at(8 * (self.n - i as usize));
            rest = next;
            (i as usize, tail)
        })
    }
}

/// Decodes the `INV/` file at `path`. Every length is input: each is
/// checked against the bytes present before anything is multiplied or
/// allocated, and the tails must fill the file exactly.
fn decode_tails<'a>(path: &str, mut data: &'a [u8]) -> Result<Tails<'a>> {
    let bad = |what: String| CoreError::Invariant(format!("file {path}: {what}"));
    if data.len() < 8 {
        return Err(bad(format!("{} bytes, shorter than its count", data.len())));
    }
    let count = data.get_u64_le();
    let index_bytes = usize::try_from(count)
        .ok()
        .and_then(|count| count.checked_mul(8))
        .filter(|&bytes| data.len().checked_sub(8).is_some_and(|room| bytes <= room))
        .ok_or_else(|| {
            bad(format!(
                "{count} indices and an order do not fit in {} bytes",
                data.len()
            ))
        })?;
    let (index_part, mut rest) = data.split_at(index_bytes);
    let n = rest.get_u64_le();
    let indices: Vec<u64> = index_part
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
        .collect();
    let mut words = 0u64;
    for &i in &indices {
        if i >= n {
            return Err(bad(format!("vector index {i} is outside order {n}")));
        }
        words = (words.checked_add(n - i)).ok_or_else(|| bad("tail lengths overflow".into()))?;
    }
    if words.checked_mul(8) != Some(rest.len() as u64) {
        return Err(bad(format!(
            "holds {} bytes of vectors, its header says {words} words",
            rest.len()
        )));
    }
    let n = usize::try_from(n).map_err(|_| bad(format!("order {n} does not fit in memory")))?;
    Ok(Tails {
        indices,
        n,
        words: rest,
    })
}

/// The `f64`s of little-endian `bytes`.
fn words(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    (bytes.chunks_exact(8))
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
}

/// Which triangular inverse a vector belongs to: a column of `L^-1`, or a
/// row of `U^-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Operand {
    /// Columns of `L^-1`, grouped by the product grid's column blocks.
    L,
    /// Rows of `U^-1`, grouped by the product grid's row blocks.
    U,
}

/// Map-task input for the final job: worker `k` of `op`'s half computes
/// vectors `k, k+m, k+2m, ...` of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct InvTaskInput {
    op: Operand,
    k: usize,
}

/// Registers this module's remote task family (see
/// [`crate::remote::exec_registry`]).
pub(crate) fn register(r: &mut TaskRegistry) {
    r.register::<TriInvMapper, TriInvReducer>("final-inverse");
}

/// The final-inversion job writing under `dir`: one reducer per cell.
pub(crate) fn job_spec(dir: &str, num_cells: usize) -> JobSpec<usize> {
    JobSpec::new(format!("final-inverse:{dir}"))
        .reducers(num_cells)
        .partitioner(identity_partitioner)
        .remote("final-inverse")
}

/// The vector indices worker `k` of `m` owns inside `block`: the paper's
/// interleaved assignment `k, k+m, k+2m, ...` below `n`, restricted to the
/// block. The mapper groups its vectors by this and every reader
/// enumerates its files from it, so which `(worker, block)` pairs hold a
/// file — and which are legitimately empty — is known, never probed.
fn owned(k: usize, m: usize, n: usize, block: (usize, usize)) -> impl Iterator<Item = u64> {
    let first = k + block.0.saturating_sub(k).div_ceil(m) * m;
    (first..block.1.min(n)).step_by(m).map(|i| i as u64)
}

/// Where the final job's files live and which vectors each holds: the one
/// description its mappers write by and its reducers and the master read
/// by.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layout {
    dir: String,
    n: usize,
    /// Workers inverting `L`.
    m_l: usize,
    /// Workers inverting `U`.
    m_u: usize,
    /// Row blocks of the product grid.
    row_blocks: Vec<(usize, usize)>,
    /// Column blocks of the product grid.
    col_blocks: Vec<(usize, usize)>,
    /// Column `j` of the product is column `perm[j]` of `A^-1` (Section
    /// 4.3): a slice of this is an output file's index header.
    perm: Vec<u64>,
}

impl Layout {
    /// An operand's file tag, worker count and blocks.
    fn operand(&self, op: Operand) -> (char, usize, &[(usize, usize)]) {
        match op {
            Operand::L => ('L', self.m_l, &self.col_blocks),
            Operand::U => ('U', self.m_u, &self.row_blocks),
        }
    }

    /// The `INV/` files of `op` written by a worker in `workers` for a
    /// block in `blocks`, as `(path, index header)`: one per pair that owns
    /// any vector. A mapper asks for its own row of this table, a reducer
    /// for its block's column.
    fn files(
        &self,
        op: Operand,
        workers: Range<usize>,
        blocks: Range<usize>,
    ) -> Vec<(String, Vec<u64>)> {
        let (tag, m, all_blocks) = self.operand(op);
        let pairs = workers.flat_map(|k| blocks.clone().map(move |b| (k, b)));
        pairs
            .filter_map(|(k, b)| {
                let indices: Vec<u64> = owned(k, m, self.n, all_blocks[b]).collect();
                (!indices.is_empty()).then(|| (format!("{}/INV/{tag}.{k}.{b}", self.dir), indices))
            })
            .collect()
    }

    /// Files worker `k`'s vectors of `op`, row `s` of `vectors` being
    /// vector `k + s·m`: one file per block holding any of them, each a
    /// contiguous run of rows kept from their own indices on.
    fn write_operand(
        &self,
        io: &mut TaskIo,
        op: Operand,
        k: usize,
        vectors: &Matrix,
    ) -> Result<()> {
        let (_, m, blocks) = self.operand(op);
        let n = self.n;
        debug_assert_eq!(vectors.cols(), n);
        for (path, indices) in self.files(op, k..k + 1, 0..blocks.len()) {
            let s0 = (indices[0] as usize - k) / m;
            let rows = &vectors.as_slice()[s0 * n..(s0 + indices.len()) * n];
            io.write(&path, encode_tails(&path, &indices, n, rows)?);
        }
        Ok(())
    }

    /// Reads the vectors of `op` that fall in its block `b`, from every
    /// worker that owns any, keeping elements `from..n` of each: as the
    /// rows of a `len x (n - from)` matrix. What the files drop before a
    /// vector's index reads as zero. A missing file is an error, and so is
    /// anything short of the whole block.
    fn read_operand(&self, io: &mut TaskIo, op: Operand, b: usize, from: usize) -> Result<Matrix> {
        let (_, m, blocks) = self.operand(op);
        let (b0, b1) = blocks[b];
        let mut out = Matrix::zeros(b1 - b0, self.n - from);
        let mut placed = 0;
        for (path, indices) in self.files(op, 0..m, b..b + 1) {
            let bytes = io.read(&path)?;
            let file = decode_tails(&path, &bytes)?;
            if file.indices != indices || file.n != self.n {
                return Err(CoreError::Invariant(format!(
                    "file {path} holds vectors {:?} of order {}, expected {indices:?} of order {}",
                    file.indices, file.n, self.n
                )));
            }
            for (i, tail) in file.vectors() {
                let start = i.max(from);
                let values = words(&tail[8 * (start - i)..]);
                out.row_mut(i - b0)[start - from..]
                    .iter_mut()
                    .zip(values)
                    .for_each(|(d, v)| *d = v);
            }
            placed += indices.len();
        }
        expect_covered(
            placed,
            b1 - b0,
            format_args!("an operand block (in vectors)"),
        )?;
        Ok(out)
    }

    fn num_cells(&self) -> usize {
        self.row_blocks.len() * self.col_blocks.len()
    }

    /// The row and column block indices of a product cell.
    fn cell(&self, cell: usize) -> (usize, usize) {
        (cell / self.col_blocks.len(), cell % self.col_blocks.len())
    }

    /// Path of a product cell's output file.
    fn result_path(&self, cell: usize) -> String {
        let (r0, _) = self.row_blocks[self.cell(cell).0];
        format!("{}/RESULT/A.{cell}.{r0}", self.dir)
    }

    /// Assembles `A^-1` from the reducers' output files: every nonempty
    /// cell's file, indexed by the columns of `A^-1` it holds.
    fn read_result(&self, io: &mut TaskIo) -> Result<Matrix> {
        let mut result = Matrix::zeros(self.n, self.n);
        let mut placed = 0;
        for cell in 0..self.num_cells() {
            let (bi, bj) = self.cell(cell);
            let ((r0, r1), (c0, c1)) = (self.row_blocks[bi], self.col_blocks[bj]);
            if r0 < r1 && c0 < c1 {
                let tags = &self.perm[c0..c1];
                let data = read_indexed(io, &self.result_path(cell), tags, (r1 - r0, c1 - c0))?;
                // Column `s` of the cell is column `tags[s]` of `A^-1`.
                for (r, src) in data.row_iter().enumerate() {
                    let dst = result.row_mut(r0 + r);
                    for (&j, &v) in tags.iter().zip(src) {
                        dst[j as usize] = v;
                    }
                }
                placed += (r1 - r0) * (c1 - c0);
            }
        }
        expect_covered(placed, self.n * self.n, format_args!("the inverse"))?;
        Ok(result)
    }
}

/// Reads the `RESULT/` file at `path`, which must exist, carry exactly the
/// index header `expect` and hold a block of `shape`.
fn read_indexed(
    io: &mut TaskIo,
    path: &str,
    expect: &[u64],
    shape: (usize, usize),
) -> Result<Matrix> {
    let file = decode_indexed(&io.read(path)?)?;
    if file.indices != expect || file.data.shape() != shape {
        return Err(CoreError::Invariant(format!(
            "file {path} holds a {:?} block indexed {:?}, expected {shape:?} indexed {expect:?}",
            file.data.shape(),
            file.indices
        )));
    }
    Ok(file.data)
}

#[derive(Serialize, Deserialize)]
struct TriInvMapper {
    layout: Layout,
    factors: FactorRef,
    opts: Optimizations,
}

/// Computes the selected columns of `T^-1` for lower-triangular `T` by
/// solving `T·X = [e_{j0} e_{j1} ...]` in one batched [`trsm`] call. The
/// blocked solve turns the trailing updates into GEMM; under the unblocked
/// reference backend each column comes out bit-identical to the old
/// per-column `invert_lower_column` loop.
fn invert_lower_columns(t: &Matrix, cols: &[usize]) -> mrinv_matrix::Result<Matrix> {
    let n = t.rows();
    let mut x = Matrix::zeros(n, cols.len());
    for (slot, &j) in cols.iter().enumerate() {
        x[(j, slot)] = 1.0;
    }
    trsm(Side::Left, Uplo::Lower, Diag::NonUnit, 1.0, t, &mut x)?;
    Ok(x)
}

impl Mapper for TriInvMapper {
    type Input = InvTaskInput;
    type Key = usize;
    type Value = usize;

    fn map(
        &self,
        input: &InvTaskInput,
        ctx: &mut MapContext<usize, usize>,
    ) -> std::result::Result<(), MrError> {
        let InvTaskInput { op, k } = *input;
        let n = self.layout.n;
        let (_, m, _) = self.layout.operand(op);
        let mine: Vec<usize> = (k..n).step_by(m).collect();
        // Both inverses come from one lower-triangular solve: row i of
        // U^-1 is column i of (Uᵀ)^-1, and Uᵀ is what Section 6.3 stores
        // (assembled from either storage). The factor is released before
        // anything else is allocated.
        let lower = match op {
            Operand::L => self.factors.assemble_l(ctx)?,
            Operand::U => self.factors.assemble_u_t(ctx)?,
        };
        let computed = invert_lower_columns(&lower, &mine).map_err(CoreError::from)?;
        drop(lower);
        // Column `j` of the inverse is zero above row `j`: a solve of order
        // `n - j`. With `U` stored row-major (Section 6.3 off), priced as
        // the paper's row solves, each over all of `U`, at the strided rate.
        ctx.charge_flops(if op == Operand::L || self.opts.transpose_u {
            mine.iter().map(|&j| trsm_flops(n - j, 1)).sum()
        } else {
            STRIDED_SLOWDOWN * trsm_flops(n, mine.len())
        });
        // Columns become rows (one blocked transpose), so each vector is a
        // contiguous run. `computed` stays allocated until the files are
        // written: the DFS keeps every encoded buffer, and freeing a
        // megabyte first lets those settle in its hole, which no later task
        // can reuse (+2 % `peak_rss_mb` on `lib-wide` under glibc, with the
        // same live bytes).
        let rows = computed.transpose();
        self.layout.write_operand(ctx, op, k, &rows)?;
        emit_cells(ctx, self.layout.num_cells());
        Ok(())
    }
}

#[derive(Serialize, Deserialize)]
struct TriInvReducer {
    layout: Layout,
    opts: Optimizations,
}

impl Reducer for TriInvReducer {
    type Key = usize;
    type Value = usize;
    type Output = ();

    fn reduce(
        &self,
        key: &usize,
        _values: &[usize],
        ctx: &mut ReduceContext,
    ) -> std::result::Result<(), MrError> {
        let cell = *key;
        let layout = &self.layout;
        let (bi, bj) = layout.cell(cell);
        let ((r0, r1), (c0, c1)) = (layout.row_blocks[bi], layout.col_blocks[bj]);
        if r0 >= r1 || c0 >= c1 {
            return Ok(());
        }

        // This cell's rows of U^-1, then its columns of L^-1, multiplied.
        // Row i of U^-1 is zero before column i and column j of L^-1 before
        // row j — exact zeros, which the INV/ files drop and `read_operand`
        // puts back. So no term with k < max(r0, c0) reaches this cell:
        // read only from the K panel `k0` that holds that index, and let
        // `gemm_staircase` start each tile of the product at its own first
        // nonzero term. Both keep each element's partial sums grouped as in
        // the dense product, bit for bit.
        let k0 = r0.max(c0) / K_PANEL * K_PANEL;
        let u_rows = layout.read_operand(ctx, Operand::U, bi, k0)?;
        let l_cols_t = layout.read_operand(ctx, Operand::L, bj, k0)?;
        let mut product = Matrix::zeros(u_rows.rows(), l_cols_t.rows());
        gemm_staircase(notrans(&u_rows), r0, trans(&l_cols_t), c0, k0, &mut product)
            .map_err(CoreError::from)?;
        // With `U` stored row-major (Section 6.3 off), priced as Equation
        // 7's dense product at the strided rate.
        ctx.charge_flops(if self.opts.transpose_u {
            tri_product_flops(layout.n, r0..r1, c0..c1)
        } else {
            STRIDED_SLOWDOWN * gemm_flops(r1 - r0, layout.n, c1 - c0)
        });

        let (rows, cols) = product.shape();
        let bytes = encode_indexed_parts(&layout.perm[c0..c1], rows, cols, product.as_slice());
        ctx.write(&layout.result_path(cell), bytes);
        Ok(())
    }
}

/// Runs the final inversion job over decomposed factors, returning the
/// assembled `A^-1`.
///
/// The `INV/` vectors are released once the job commits, and the
/// `<dir>/RESULT/` cells once the master has assembled them: the returned
/// matrix is the one copy of the inverse a plain run keeps. A checkpointed
/// run keeps both, for a resume. The assembly is not charged to the
/// simulated clock.
pub fn invert_factors_mr(
    driver: &mut PipelineDriver<'_>,
    factors: &FactorRef,
    plan: &PartitionPlan,
    opts: &Optimizations,
) -> Result<Matrix> {
    let cluster = driver.cluster();
    let n = factors.n();
    let layout = Layout {
        dir: plan.root.clone(),
        n,
        m_l: plan.m_l.min(n),
        m_u: plan.m_u.min(n),
        row_blocks: even_ranges(n, plan.grid.0),
        col_blocks: even_ranges(n, plan.grid.1),
        perm: (factors.perm().as_slice().iter())
            .map(|&s| s as u64)
            .collect(),
    };
    let inputs: Vec<InvTaskInput> = [(Operand::L, layout.m_l), (Operand::U, layout.m_u)]
        .into_iter()
        .flat_map(|(op, m)| (0..m).map(move |k| InvTaskInput { op, k }))
        .collect();
    let mapper = TriInvMapper {
        layout: layout.clone(),
        factors: factors.clone(),
        opts: *opts,
    };
    let reducer = TriInvReducer {
        layout,
        opts: *opts,
    };

    let layout = &reducer.layout;
    let spec = job_spec(&plan.root, layout.num_cells());
    driver.step(spec.fingerprint(), |c| {
        run_job(c, &spec, &mapper, &reducer, &inputs).map(|(_out, report)| report)
    })?;
    // The reducers were the last readers of the triangular inverses.
    let inv_files = [Operand::L, Operand::U].into_iter().flat_map(|op| {
        let (_, m, blocks) = layout.operand(op);
        layout.files(op, 0..m, 0..blocks.len())
    });
    driver.release(inv_files.map(|(path, _)| path));

    // Assemble the final matrix from the RESULT files (uncharged); the
    // master is their last reader.
    let inverse = layout.read_result(&mut TaskIo::new(cluster.dfs.clone()))?;
    driver.release((0..layout.num_cells()).map(|cell| layout.result_path(cell)));
    Ok(inverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_mapreduce::Dfs;
    use mrinv_matrix::random::random_matrix;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn encode_indexed(block: &IndexedBlock) -> Bytes {
        let (rows, cols) = block.data.shape();
        encode_indexed_parts(&block.indices, rows, cols, block.data.as_slice())
    }

    #[test]
    fn indexed_block_round_trips() {
        let b = IndexedBlock {
            indices: vec![3, 1, 4, 1],
            data: random_matrix(4, 7, 1),
        };
        let back = decode_indexed(&encode_indexed(&b)).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn indexed_block_rejects_corruption() {
        let b = IndexedBlock {
            indices: vec![0, 1],
            data: random_matrix(2, 2, 2),
        };
        let enc = encode_indexed(&b);
        assert!(decode_indexed(&enc[..4]).is_err());
        assert!(decode_indexed(&enc[..12]).is_err());
        assert!(decode_indexed(&[]).is_err());
    }

    #[test]
    fn empty_indexed_block() {
        let b = IndexedBlock {
            indices: vec![],
            data: Matrix::zeros(0, 0),
        };
        let back = decode_indexed(&encode_indexed(&b)).unwrap();
        assert!(back.indices.is_empty());
    }

    fn layout(n: usize, m_l: usize, m_u: usize, grid: (usize, usize)) -> Layout {
        Layout {
            dir: "Root".to_string(),
            n,
            m_l: m_l.min(n),
            m_u: m_u.min(n),
            row_blocks: even_ranges(n, grid.0),
            col_blocks: even_ranges(n, grid.1),
            perm: (0..n as u64).rev().collect(),
        }
    }

    #[test]
    fn owned_indices_interleave_within_a_block() {
        let own = |k, m, n, block| owned(k, m, n, block).collect::<Vec<u64>>();
        assert_eq!(own(0, 4, 16, (0, 16)), [0, 4, 8, 12]);
        assert_eq!(own(1, 3, 10, (4, 8)), [4, 7]);
        assert_eq!(own(2, 3, 10, (4, 8)), [5]);
        assert_eq!(own(0, 3, 10, (4, 8)), [6]);
        // A worker whose first vector lies past the block, a block past
        // the order, an empty block: known to be empty.
        assert_eq!(own(9, 12, 10, (0, 5)), []);
        assert_eq!(own(1, 2, 6, (6, 9)), []);
        assert_eq!(own(0, 1, 6, (3, 3)), []);
    }

    /// Triangular vectors as the tests fill them: vector `i` is `i + frac`
    /// from its index on and zero before, one row per index.
    fn vector_rows(indices: &[u64], n: usize, frac: f64) -> Matrix {
        Matrix::from_fn(indices.len(), n, |s, j| {
            let i = indices[s] as usize;
            if j >= i {
                i as f64 + frac
            } else {
                0.0
            }
        })
    }

    /// Every file of a layout, through the mappers' writer: the vectors of
    /// `L` hold `i + 0.25`, those of `U` `i + 0.5`.
    fn write_inv_files(io: &mut TaskIo, layout: &Layout) {
        for (op, frac) in [(Operand::L, 0.25), (Operand::U, 0.5)] {
            let (_, m, _) = layout.operand(op);
            for k in 0..m {
                let mine: Vec<u64> = (k as u64..layout.n as u64).step_by(m).collect();
                let vectors = vector_rows(&mine, layout.n, frac);
                layout.write_operand(io, op, k, &vectors).unwrap();
            }
        }
    }

    fn names(err: &CoreError, path: &str) -> bool {
        err.to_string().contains(path)
    }

    fn invariant_naming(err: &CoreError, path: &str) -> bool {
        matches!(err, CoreError::Invariant(_)) && names(err, path)
    }

    #[test]
    fn a_lost_or_mislabelled_operand_file_is_an_error_naming_it() {
        let dfs = Arc::new(Dfs::default());
        let mut io = TaskIo::new(dfs.clone());
        // 5 < m: workers 5.. of each half own nothing anywhere.
        let layout = layout(10, 3, 4, (2, 3));
        write_inv_files(&mut io, &layout);

        let u = layout.read_operand(&mut io, Operand::U, 1, 0).unwrap();
        assert_eq!(u, vector_rows(&[5, 6, 7, 8, 9], 10, 0.5));
        let l = layout.read_operand(&mut io, Operand::L, 2, 0).unwrap();
        assert_eq!(l, vector_rows(&[7, 8, 9], 10, 0.25));

        for (op, b, path, frac) in [
            (Operand::U, 1, "Root/INV/U.2.1", 0.5),
            (Operand::L, 2, "Root/INV/L.1.2", 0.25),
        ] {
            let good = dfs.read(path).unwrap();
            let held = decode_tails(path, &good).unwrap().indices;
            let refile = |indices: &[u64]| {
                let vectors = vector_rows(indices, 10, frac);
                dfs.write(
                    path,
                    encode_tails(path, indices, 10, vectors.as_slice()).unwrap(),
                );
            };
            // Tagged with some other worker's indices; one vector short;
            // cut short by one element.
            let mut wrong = held.clone();
            wrong[0] += 1;
            refile(&wrong);
            let err = layout.read_operand(&mut io, op, b, 0).unwrap_err();
            assert!(invariant_naming(&err, path), "{err}");
            refile(&held[1..]);
            let err = layout.read_operand(&mut io, op, b, 0).unwrap_err();
            assert!(invariant_naming(&err, path), "{err}");
            dfs.write(path, good.slice(..good.len() - 8));
            let err = layout.read_operand(&mut io, op, b, 0).unwrap_err();
            assert!(invariant_naming(&err, path), "{err}");
            // Gone: it once read `Ok`, with zero rows.
            assert!(dfs.delete(path));
            let err = layout.read_operand(&mut io, op, b, 0).unwrap_err();
            assert!(
                matches!(&err, CoreError::MapReduce(MrError::FileNotFound { path: p, .. }) if p == path),
                "{err}"
            );
            dfs.write(path, good);
            layout.read_operand(&mut io, op, b, 0).unwrap();
        }
    }

    #[test]
    fn the_writer_refuses_a_vector_with_a_nonzero_head() {
        let path = "Root/INV/L.0.1";
        // Vector 2 of order 4 drops elements 0 and 1; a tiny value, a NaN.
        for head in [[0.0, 1e-300], [f64::NAN, 0.0]] {
            let vector = [head[0], head[1], 3.0, 4.0];
            let err = encode_tails(path, &[2], 4, &vector).unwrap_err();
            assert!(invariant_naming(&err, path), "{err}");
        }
        // Negative zero is zero; the reader puts it back as +0.0.
        let file = encode_tails(path, &[0, 2], 4, &[1.0, 2.0, 3.0, 4.0, -0.0, 0.0, 5.0, 6.0]);
        let file = file.unwrap();
        let tails = decode_tails(path, &file).unwrap();
        let vectors: Vec<(usize, Vec<f64>)> = tails
            .vectors()
            .map(|(i, t)| (i, words(t).collect()))
            .collect();
        assert_eq!(
            vectors,
            [(0, vec![1.0, 2.0, 3.0, 4.0]), (2, vec![5.0, 6.0])]
        );
    }

    #[test]
    fn a_lost_or_mislabelled_result_file_is_an_error_naming_it() {
        let dfs = Arc::new(Dfs::default());
        let mut io = TaskIo::new(dfs.clone());
        let mut layout = layout(7, 2, 2, (3, 2));
        layout.perm = vec![3, 0, 6, 1, 5, 2, 4];
        // Cell files as the reducers write them: element (i, S[j]) of the
        // result is `10·i + S[j]`.
        for cell in 0..6 {
            let (bi, bj) = layout.cell(cell);
            let ((r0, r1), (c0, c1)) = (layout.row_blocks[bi], layout.col_blocks[bj]);
            let indices = layout.perm[c0..c1].to_vec();
            let data = Matrix::from_fn(r1 - r0, indices.len(), |r, s| {
                (10 * (r0 + r)) as f64 + indices[s] as f64
            });
            let block = IndexedBlock { indices, data };
            io.write(&layout.result_path(cell), encode_indexed(&block));
        }
        let expect = Matrix::from_fn(7, 7, |i, j| (10 * i + j) as f64);
        assert_eq!(layout.read_result(&mut io).unwrap(), expect);

        let path = "Root/RESULT/A.3.3";
        assert_eq!(layout.result_path(3), path);
        let good = dfs.read(path).unwrap();
        let mut wrong = decode_indexed(&good).unwrap();
        wrong.indices.swap(0, 1);
        dfs.write(path, encode_indexed(&wrong));
        let err = layout.read_result(&mut io).unwrap_err();
        assert!(
            matches!(err, CoreError::Invariant(_)) && names(&err, path),
            "{err}"
        );
        // A block one row short of its cell.
        wrong.indices.swap(0, 1);
        wrong.data = wrong.data.row_stripe(0, 1).unwrap();
        dfs.write(path, encode_indexed(&wrong));
        let err = layout.read_result(&mut io).unwrap_err();
        assert!(
            matches!(err, CoreError::Invariant(_)) && names(&err, path),
            "{err}"
        );
        assert!(dfs.delete(path));
        let err = layout.read_result(&mut io).unwrap_err();
        assert!(
            matches!(&err, CoreError::MapReduce(MrError::FileNotFound { path: p, .. }) if p == path),
            "{err}"
        );
    }

    /// An order below the worker count: most `(worker, block)` pairs hold
    /// no file, and the readers know which without probing.
    #[test]
    fn orders_below_the_worker_count_invert() {
        use crate::config::InversionConfig;
        use crate::request::Request;
        for (n, nb) in [(5usize, 2usize), (5, 4), (11, 2), (11, 4)] {
            for transpose_u in [true, false] {
                let mut ccfg = mrinv_mapreduce::ClusterConfig::medium(16);
                ccfg.cost = mrinv_mapreduce::CostModel::unit_for_tests();
                let cluster = mrinv_mapreduce::Cluster::new(ccfg);
                let mut cfg = InversionConfig::with_nb(nb);
                cfg.opts.transpose_u = transpose_u;
                let a = mrinv_matrix::random::random_well_conditioned(n, (n + nb) as u64);
                let out = Request::invert(&a).config(&cfg).submit(&cluster).unwrap();
                let expect = crate::inmem::invert_block(&a, nb).unwrap();
                let got = out.inverse().unwrap();
                let diff = got.max_abs_diff(&expect).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(got) == bits(&expect),
                    "n={n} nb={nb} transpose_u={transpose_u}: off by {diff}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Writer and reader cannot disagree: the files the mappers write,
        /// worker by worker, are the files the reducers read, block by
        /// block, and a block's files hold each of its indices once.
        #[test]
        fn mappers_write_the_files_reducers_read(
            (n, m_l, m_u, f1, f2) in (1usize..40, 1usize..12, 1usize..12, 1usize..7, 1usize..7)
        ) {
            let layout = layout(n, m_l, m_u, (f1, f2));
            for op in [Operand::L, Operand::U] {
                let (_, m, blocks) = layout.operand(op);
                let mut written: Vec<(String, Vec<u64>)> = (0..m)
                    .flat_map(|k| layout.files(op, k..k + 1, 0..blocks.len()))
                    .collect();
                let mut read = Vec::new();
                for (b, &(b0, b1)) in blocks.iter().enumerate() {
                    let files = layout.files(op, 0..m, b..b + 1);
                    let mut indices: Vec<u64> =
                        files.iter().flat_map(|f| f.1.clone()).collect();
                    indices.sort_unstable();
                    prop_assert_eq!(indices, (b0 as u64..b1 as u64).collect::<Vec<_>>());
                    read.extend(files);
                }
                written.sort();
                read.sort();
                prop_assert_eq!(&written, &read);
                // What the mapper computes is what it files: every one of
                // worker k's vectors, in slot order.
                for k in 0..m {
                    let filed: Vec<u64> = layout
                        .files(op, k..k + 1, 0..blocks.len())
                        .into_iter()
                        .flat_map(|f| f.1)
                        .collect();
                    let computed: Vec<u64> = (k..n).step_by(m).map(|i| i as u64).collect();
                    prop_assert_eq!(filed, computed);
                }
            }
        }

        /// `read_operand(…, from)` is columns `from..n` of the dense
        /// operand the mappers filed.
        #[test]
        fn read_operand_from_is_the_dense_window(
            ((n, m_l, m_u), (f1, f2), from, seed) in (
                (1usize..30, 1usize..8, 1usize..8),
                (1usize..5, 1usize..5),
                any::<usize>(),
                any::<u64>(),
            )
        ) {
            let from = from % n;
            let layout = layout(n, m_l, m_u, (f1, f2));
            // Vector i: random from its index on, zero before.
            let noise = random_matrix(n, n, seed);
            let dense = Matrix::from_fn(n, n, |i, j| if j >= i { noise[(i, j)] } else { 0.0 });
            let mut io = TaskIo::new(Arc::new(Dfs::default()));
            for op in [Operand::L, Operand::U] {
                let (_, m, blocks) = layout.operand(op);
                for k in 0..m {
                    let mine = (k..n).step_by(m).count();
                    let vectors = Matrix::from_fn(mine, n, |s, j| dense[(k + s * m, j)]);
                    layout.write_operand(&mut io, op, k, &vectors).unwrap();
                }
                for (b, &(b0, b1)) in blocks.iter().enumerate() {
                    let window = Matrix::from_fn(b1 - b0, n - from, |r, c| dense[(b0 + r, from + c)]);
                    let rows = layout.read_operand(&mut io, op, b, from).unwrap();
                    prop_assert_eq!(rows, window);
                }
            }
        }

        /// Hostile bytes never panic the `INV/` reader: arbitrary input,
        /// and a valid file cut short anywhere, with one byte flipped, or
        /// with its count or order set to `u64::MAX`, to the bytes
        /// remaining + 1 or to a count whose byte size wraps. A cut or a
        /// lying length is always an error, found before anything is
        /// allocated by it.
        #[test]
        fn hostile_bytes_never_panic_decode_tails(
            (noise, (n, count), cut, (at, mask)) in (
                prop::collection::vec(any::<u8>(), 0..96),
                (1usize..6, 1usize..4),
                any::<usize>(),
                (any::<usize>(), 1u8..=255),
            )
        ) {
            let _ = decode_tails("x", &noise);
            let indices: Vec<u64> = (0..count as u64).map(|s| 2 * s % n as u64).collect();
            let vectors = vector_rows(&indices, n, 1.5);
            let valid = encode_tails("x", &indices, n, vectors.as_slice()).unwrap();
            prop_assert!(decode_tails("x", &valid).is_ok());
            prop_assert!(decode_tails("x", &valid[..cut % valid.len()]).is_err());
            let mut flipped = valid.to_vec();
            flipped[at % valid.len()] ^= mask;
            let _ = decode_tails("x", &flipped);
            // The count, then the order.
            for field in [0, 8 + 8 * count] {
                let remaining = (valid.len() - field - 8) as u64;
                for lie in [u64::MAX, remaining + 1, 1 << 61] {
                    let mut lying = valid.to_vec();
                    lying[field..field + 8].copy_from_slice(&lie.to_le_bytes());
                    prop_assert!(decode_tails("x", &lying).is_err());
                }
            }
        }

        /// Hostile bytes never panic the reader: arbitrary input, and a
        /// valid block cut short anywhere, with one byte flipped, or with
        /// its count, rows or cols set to `u64::MAX` or to the bytes
        /// remaining + 1. A lying count is always an error; a lying shape
        /// may describe an empty matrix, which is a valid block.
        #[test]
        fn hostile_bytes_never_panic_decode_indexed(
            (noise, (rows, cols), cut, (at, mask)) in (
                prop::collection::vec(any::<u8>(), 0..96),
                (0usize..4, 0usize..4),
                any::<usize>(),
                (any::<usize>(), 1u8..=255),
            )
        ) {
            let _ = decode_indexed(&noise);
            let indices: Vec<u64> = (0..rows as u64).collect();
            let valid = encode_indexed_parts(&indices, rows, cols, &vec![1.5; rows * cols]);
            prop_assert!(decode_indexed(&valid).is_ok());
            prop_assert!(decode_indexed(&valid[..cut % valid.len()]).is_err());
            let mut flipped = valid.to_vec();
            flipped[at % valid.len()] ^= mask;
            let _ = decode_indexed(&flipped);
            // The count, then the binary header's rows and cols.
            let header = 8 + 8 * rows;
            for field in [0, header + 4, header + 12] {
                let remaining = (valid.len() - field - 8) as u64;
                for lie in [u64::MAX, remaining + 1] {
                    let mut lying = valid.to_vec();
                    lying[field..field + 8].copy_from_slice(&lie.to_le_bytes());
                    let decoded = decode_indexed(&lying);
                    prop_assert!(field > 0 || decoded.is_err());
                }
            }
        }
    }

    #[test]
    fn indexed_block_count_cannot_overflow_or_overallocate() {
        // A count whose byte size wraps to 0 (or to anything small) used to
        // pass the truncation check and die in Vec::with_capacity.
        for count in [1u64 << 61, u64::MAX, (1 << 61) + 1] {
            let mut data = count.to_le_bytes().to_vec();
            data.resize(72, 0);
            assert!(matches!(
                decode_indexed(&data),
                Err(CoreError::Invariant(_))
            ));
        }
    }
}
