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
//!   is column `S[j]` of `A^-1` (Section 4.3).
//!
//! Because the interleaved vectors are non-contiguous, files carry explicit
//! index headers (`IndexedBlock`).

use std::ops::Range;

use bytes::{Buf, Bytes};
use mrinv_mapreduce::job::{
    identity_partitioner, JobSpec, MapContext, Mapper, ReduceContext, Reducer,
};
use mrinv_mapreduce::runner::run_job;
use mrinv_mapreduce::{MrError, PipelineDriver, TaskRegistry};
use mrinv_matrix::block::even_ranges;
use mrinv_matrix::io::{binary_size, decode_binary, encode_binary_onto};
use mrinv_matrix::kernel::{gemm, gemm_with, notrans, trans, Diag, Side, Strided, Uplo, K_PANEL};
use mrinv_matrix::triangular::{solve_row_times_upper, trsm};
use mrinv_matrix::{Matrix, Permutation};
use serde::{de_field, DeError, Deserialize, Serialize, Value};

use crate::config::Optimizations;
use crate::error::{CoreError, Result};
use crate::factors::FactorRef;
use crate::partition::PartitionPlan;

/// A bundle of same-length vectors tagged with their global indices
/// (interleaved rows of `U^-1`, columns of `L^-1`, or permuted output
/// columns).
#[derive(Debug, Clone, PartialEq)]
struct IndexedBlock {
    /// Global index of each vector in `data`'s rows (or columns).
    pub indices: Vec<u64>,
    /// The vectors; orientation is up to the producer.
    pub data: Matrix,
}

/// Encodes an [`IndexedBlock`]: `[count u64][indices...][matrix]`.
fn encode_indexed(block: &IndexedBlock) -> Bytes {
    let (rows, cols) = block.data.shape();
    encode_indexed_parts(&block.indices, rows, cols, block.data.as_slice())
}

/// [`encode_indexed`] of the `rows x cols` block whose row-major elements
/// are `values`, written once into one buffer.
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

/// Map-task input for the final job.
#[derive(Debug, Clone)]
enum InvTaskInput {
    /// Invert `L`: compute columns `k, k+m, ...` of `L^-1`.
    LCols {
        /// Worker index within the `L` half.
        k: usize,
    },
    /// Invert `U`: compute rows `k, k+m, ...` of `U^-1`.
    URows {
        /// Worker index within the `U` half.
        k: usize,
    },
}

// Manual serde: the vendored derive macro cannot handle data-carrying
// enum variants, so the variants ship as a tagged object.
impl Serialize for InvTaskInput {
    fn to_value(&self) -> Value {
        let (kind, k) = match *self {
            InvTaskInput::LCols { k } => ("l", k),
            InvTaskInput::URows { k } => ("u", k),
        };
        Value::Object(vec![
            ("kind".to_string(), Value::String(kind.to_string())),
            ("k".to_string(), k.to_value()),
        ])
    }
}

impl Deserialize for InvTaskInput {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = de_field(v, "kind")?;
        let k: usize = de_field(v, "k")?;
        match kind.as_str() {
            "l" => Ok(InvTaskInput::LCols { k }),
            "u" => Ok(InvTaskInput::URows { k }),
            other => Err(DeError(format!("unknown InvTaskInput kind {other:?}"))),
        }
    }
}

/// Registers this module's remote task family (see
/// [`crate::remote::exec_registry`]).
pub(crate) fn register(r: &mut TaskRegistry) {
    r.register::<TriInvMapper, TriInvReducer>("final-inverse");
}

/// The final-inversion job writing under `dir`: one reducer per cell.
pub(crate) fn job_spec(dir: &str, num_cells: usize) -> JobSpec<usize, usize> {
    JobSpec::new(format!("final-inverse:{dir}"))
        .reducers(num_cells)
        .partitioner(identity_partitioner)
        .shuffle_sized()
        .remote("final-inverse")
}

#[derive(Serialize, Deserialize)]
struct TriInvMapper {
    dir: String,
    factors: FactorRef,
    opts: Optimizations,
    n: usize,
    m_l: usize,
    m_u: usize,
    row_blocks: Vec<(usize, usize)>,
    col_blocks: Vec<(usize, usize)>,
    num_cells: usize,
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

impl TriInvMapper {
    /// Splits this worker's ascending vector indices by block, returning
    /// `(block_idx, slots)` for each block that holds any: `slots` is the
    /// contiguous range of positions in `indices` that fall inside it.
    fn group_by_block(indices: &[usize], blocks: &[(usize, usize)]) -> Vec<(usize, Range<usize>)> {
        blocks
            .iter()
            .enumerate()
            .map(|(bi, &(b0, b1))| {
                let slots =
                    indices.partition_point(|&i| i < b0)..indices.partition_point(|&i| i < b1);
                (bi, slots)
            })
            .filter(|(_, slots)| !slots.is_empty())
            .collect()
    }

    /// Writes one file per block of `blocks` holding any of `indices`: the
    /// block's vectors, tagged with their indices. Vector `indices[s]` is
    /// row `s` of `vectors` — the file then holds those rows, a contiguous
    /// run — or column `s` when `in_columns`, and the file holds those
    /// columns.
    fn write_groups(
        &self,
        ctx: &mut MapContext<usize, usize>,
        name: impl Fn(usize) -> String,
        indices: &[usize],
        blocks: &[(usize, usize)],
        vectors: &Matrix,
        in_columns: bool,
    ) {
        for (bi, slots) in Self::group_by_block(indices, blocks) {
            let tags: Vec<u64> = indices[slots.clone()].iter().map(|&i| i as u64).collect();
            let bytes = if in_columns {
                let stripe = vectors
                    .col_stripe(slots.start, slots.end)
                    .expect("slots index the vectors");
                encode_indexed_parts(&tags, stripe.rows(), stripe.cols(), stripe.as_slice())
            } else {
                let len = vectors.cols();
                let rows = &vectors.as_slice()[slots.start * len..slots.end * len];
                encode_indexed_parts(&tags, slots.len(), len, rows)
            };
            ctx.write(&name(bi), bytes);
        }
    }
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
        match *input {
            InvTaskInput::LCols { k } => {
                let my_cols: Vec<usize> = (k..self.n).step_by(self.m_l).collect();
                // Solve all of this worker's columns in one batched trsm;
                // in the transposed layout, then turn them into rows (one
                // blocked transpose) so each per-cell file is a contiguous
                // run. `L` is released first: the factor and both
                // orientations never coexist.
                let computed = {
                    let l = self.factors.assemble_l(ctx)?;
                    let kernel = std::time::Instant::now();
                    let solved = invert_lower_columns(&l, &my_cols).map_err(CoreError::from)?;
                    ctx.charge_kernel(kernel.elapsed());
                    solved
                };
                let vectors = if self.opts.transpose_u {
                    computed.transpose()
                } else {
                    computed
                };
                self.write_groups(
                    ctx,
                    |bi| format!("{}/INV/L.{k}.{bi}", self.dir),
                    &my_cols,
                    &self.col_blocks,
                    &vectors,
                    !self.opts.transpose_u,
                );
            }
            InvTaskInput::URows { k } => {
                let my_rows: Vec<usize> = (k..self.n).step_by(self.m_u).collect();
                let computed = if self.opts.transpose_u {
                    // Row i of U^-1 is column i of (Uᵀ)^-1, and Uᵀ is the
                    // lower-triangular matrix we store directly.
                    let solved = {
                        let ut = self.factors.assemble_u_t(ctx)?;
                        let kernel = std::time::Instant::now();
                        let solved =
                            invert_lower_columns(&ut, &my_rows).map_err(CoreError::from)?;
                        ctx.charge_kernel(kernel.elapsed());
                        solved
                    };
                    solved.transpose()
                } else {
                    // Ablation path: row-major U, solve eᵢᵀ = x·U with
                    // column-striding access.
                    let u = self.factors.assemble_u(ctx)?;
                    let mut rows = Matrix::zeros(my_rows.len(), self.n);
                    let kernel = std::time::Instant::now();
                    for (slot, &i) in my_rows.iter().enumerate() {
                        let mut e = vec![0.0; self.n];
                        e[i] = 1.0;
                        let x = solve_row_times_upper(&u, &e).map_err(CoreError::from)?;
                        rows.row_mut(slot).copy_from_slice(&x);
                    }
                    ctx.charge_kernel(kernel.elapsed());
                    rows
                };
                self.write_groups(
                    ctx,
                    |bi| format!("{}/INV/U.{k}.{bi}", self.dir),
                    &my_rows,
                    &self.row_blocks,
                    &computed,
                    false,
                );
            }
        }
        // Control pairs: assign product cells round-robin across map tasks.
        let mut cell = ctx.task_index();
        let stride = ctx.num_tasks();
        while cell < self.num_cells {
            ctx.emit(cell, cell);
            cell += stride;
        }
        Ok(())
    }
}

struct TriInvReducer {
    dir: String,
    n: usize,
    m_l: usize,
    m_u: usize,
    row_blocks: Vec<(usize, usize)>,
    col_blocks: Vec<(usize, usize)>,
    perm: Permutation,
    opts: Optimizations,
}

// Manual serde: `Permutation` is foreign, so `perm` ships inline as its
// `S`-array.
impl Serialize for TriInvReducer {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dir".to_string(), self.dir.to_value()),
            ("n".to_string(), self.n.to_value()),
            ("m_l".to_string(), self.m_l.to_value()),
            ("m_u".to_string(), self.m_u.to_value()),
            ("row_blocks".to_string(), self.row_blocks.to_value()),
            ("col_blocks".to_string(), self.col_blocks.to_value()),
            ("perm".to_string(), self.perm.as_slice().to_value()),
            ("opts".to_string(), self.opts.to_value()),
        ])
    }
}

impl Deserialize for TriInvReducer {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        Ok(TriInvReducer {
            dir: de_field(v, "dir")?,
            n: de_field(v, "n")?,
            m_l: de_field(v, "m_l")?,
            m_u: de_field(v, "m_u")?,
            row_blocks: de_field(v, "row_blocks")?,
            col_blocks: de_field(v, "col_blocks")?,
            perm: Permutation::from_vec(de_field(v, "perm")?),
            opts: de_field(v, "opts")?,
        })
    }
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
        let bi = cell / self.col_blocks.len();
        let bj = cell % self.col_blocks.len();
        let (r0, r1) = self.row_blocks[bi];
        let (c0, c1) = self.col_blocks[bj];
        if r0 >= r1 || c0 >= c1 {
            return Ok(());
        }

        // Assemble this cell's rows of U^-1.
        let mut u_rows = Matrix::zeros(r1 - r0, self.n);
        for k in 0..self.m_u {
            let path = format!("{}/INV/U.{k}.{bi}", self.dir);
            if !ctx.exists(&path) {
                continue; // that worker had no rows in this block
            }
            let block = decode_indexed(&ctx.read(&path)?)?;
            for (slot, &i) in block.indices.iter().enumerate() {
                u_rows
                    .row_mut(i as usize - r0)
                    .copy_from_slice(block.data.row(slot));
            }
        }

        // Assemble this cell's columns of L^-1 and multiply.
        let product = if self.opts.transpose_u {
            let mut l_cols_t = Matrix::zeros(c1 - c0, self.n);
            for k in 0..self.m_l {
                let path = format!("{}/INV/L.{k}.{bj}", self.dir);
                if !ctx.exists(&path) {
                    continue;
                }
                let block = decode_indexed(&ctx.read(&path)?)?;
                for (slot, &j) in block.indices.iter().enumerate() {
                    l_cols_t
                        .row_mut(j as usize - c0)
                        .copy_from_slice(block.data.row(slot));
                }
            }
            // Row i of U^-1 is zero before column i and column j of L^-1
            // before row j, so every product term with k < max(r0, c0) is
            // an exact zero for this cell. Skip the whole K panels among
            // them: starting on a panel boundary keeps each element's
            // partial sums grouped as in the dense product, bit for bit.
            let k0 = r0.max(c0) / K_PANEL * K_PANEL;
            let (rows, cols) = (u_rows.rows(), l_cols_t.rows());
            let kernel = std::time::Instant::now();
            let mut p = Matrix::zeros(rows, cols);
            gemm(
                1.0,
                notrans(&u_rows).window(0..rows, k0..self.n),
                trans(&l_cols_t).window(k0..self.n, 0..cols),
                0.0,
                &mut p,
            )
            .map_err(CoreError::from)?;
            ctx.charge_kernel(kernel.elapsed());
            p
        } else {
            let mut l_cols = Matrix::zeros(self.n, c1 - c0);
            for k in 0..self.m_l {
                let path = format!("{}/INV/L.{k}.{bj}", self.dir);
                if !ctx.exists(&path) {
                    continue;
                }
                let block = decode_indexed(&ctx.read(&path)?)?;
                for (slot, &j) in block.indices.iter().enumerate() {
                    for i in 0..self.n {
                        l_cols[(i, j as usize - c0)] = block.data[(i, slot)];
                    }
                }
            }
            // Ablation path: Equation 7's column-striding product, pinned
            // to the Strided backend so it measures that exact loop order.
            let kernel = std::time::Instant::now();
            let mut p = Matrix::zeros(u_rows.rows(), l_cols.cols());
            gemm_with(
                &Strided,
                1.0,
                notrans(&u_rows),
                notrans(&l_cols),
                0.0,
                &mut p,
            )
            .map_err(CoreError::from)?;
            ctx.charge_kernel(kernel.elapsed());
            p
        };

        // Column j of the product is column S[j] of A^-1 (Section 4.3).
        let out = IndexedBlock {
            indices: (c0..c1).map(|j| self.perm.source_of(j) as u64).collect(),
            data: product,
        };
        ctx.write(
            &format!("{}/RESULT/A.{cell}.{r0}", self.dir),
            encode_indexed(&out),
        );
        Ok(())
    }
}

/// Runs the final inversion job over decomposed factors, returning the
/// assembled `A^-1`.
///
/// The result also remains in the DFS under `<dir>/RESULT/` for downstream
/// consumers (the paper's Hadoop-workflow motivation); the in-memory
/// assembly here is an API convenience and is not charged to the simulated
/// clock.
pub fn invert_factors_mr(
    driver: &mut PipelineDriver<'_>,
    factors: &FactorRef,
    plan: &PartitionPlan,
    opts: &Optimizations,
) -> Result<Matrix> {
    let cluster = driver.cluster();
    let n = factors.n();
    let dir = plan.root.clone();
    let row_blocks = even_ranges(n, plan.grid.0);
    let col_blocks = even_ranges(n, plan.grid.1);
    let num_cells = plan.grid.0 * plan.grid.1;

    let mut inputs = Vec::new();
    for k in 0..plan.m_l.min(n) {
        inputs.push(InvTaskInput::LCols { k });
    }
    for k in 0..plan.m_u.min(n) {
        inputs.push(InvTaskInput::URows { k });
    }

    let perm = factors.perm();
    let mapper = TriInvMapper {
        dir: dir.clone(),
        factors: factors.clone(),
        opts: *opts,
        n,
        m_l: plan.m_l.min(n),
        m_u: plan.m_u.min(n),
        row_blocks: row_blocks.clone(),
        col_blocks: col_blocks.clone(),
        num_cells,
    };
    let reducer = TriInvReducer {
        dir: dir.clone(),
        n,
        m_l: plan.m_l.min(n),
        m_u: plan.m_u.min(n),
        row_blocks: row_blocks.clone(),
        col_blocks: col_blocks.clone(),
        perm,
        opts: *opts,
    };

    let spec = job_spec(&dir, num_cells);
    driver.step(spec.fingerprint(), |c| {
        run_job(c, &spec, &mapper, &reducer, &inputs).map(|(_out, report)| report)
    })?;

    // Assemble the final matrix from the RESULT files (uncharged).
    let mut result = Matrix::zeros(n, n);
    for (bi, &(r0, r1)) in row_blocks.iter().enumerate() {
        for (bj, &(c0, c1)) in col_blocks.iter().enumerate() {
            if r0 >= r1 || c0 >= c1 {
                continue;
            }
            let cell = bi * col_blocks.len() + bj;
            let data = cluster.dfs.read(&format!("{dir}/RESULT/A.{cell}.{r0}"))?;
            let block = decode_indexed(&data)?;
            for (slot, &target_col) in block.indices.iter().enumerate() {
                for i in r0..r1 {
                    result[(i, target_col as usize)] = block.data[(i - r0, slot)];
                }
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::random::random_matrix;

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

    #[test]
    fn group_by_block_partitions_indices() {
        let blocks = vec![(0usize, 4usize), (4, 8), (8, 10)];
        let groups = TriInvMapper::group_by_block(&[0, 2, 5, 7, 9], &blocks);
        assert_eq!(groups, vec![(0, 0..2), (1, 2..4), (2, 4..5)]);
        // Indices outside every block are dropped; empty blocks omitted.
        let groups = TriInvMapper::group_by_block(&[1, 12], &blocks);
        assert_eq!(groups, vec![(0, 0..1)]);
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
