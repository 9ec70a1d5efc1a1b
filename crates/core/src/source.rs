//! Logical submatrices assembled from DFS pieces.
//!
//! The pipeline never materializes a large matrix in one file. The input
//! partitioning job writes each block as many per-writer files (Section
//! 5.2: no two tasks ever share a file), and the `B = A4 − L2'·U2`
//! submatrices are never re-partitioned at all — only *descriptors* of
//! which reducer-output rectangles compose them are recorded ("the files in
//! Root/OUT/A1..A4 are very small; in general, less than 1 KB").
//!
//! [`MatrixSource`] is that descriptor, and the only one: a list of
//! [`Piece`]s (file + rectangle) plus a selection window. The partition job
//! returns one for the whole input, every level's `B`, `L2'` and `U2` is
//! one, and a quadrant of any of them is a window. Cropping is O(pieces)
//! metadata work; reading a range decodes only the overlapping files and
//! fails unless they cover it exactly once. All reads/writes go through
//! [`BlockIo`], so every byte lands in the executing task's accounting.

use bytes::Bytes;
use mrinv_mapreduce::job::{MapContext, ReduceContext};
use mrinv_mapreduce::{Dfs, MrError};
use mrinv_matrix::io::{decode_binary, encode_binary};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Accounted DFS access, implemented by both task contexts and the master.
pub trait BlockIo {
    /// Reads a file (charged to the caller's task where applicable).
    fn read_bytes(&mut self, path: &str) -> std::result::Result<Bytes, MrError>;
    /// Writes a file (charged to the caller's task where applicable).
    fn write_bytes(&mut self, path: &str, data: Bytes);
}

impl<K, V> BlockIo for MapContext<K, V> {
    fn read_bytes(&mut self, path: &str) -> std::result::Result<Bytes, MrError> {
        self.read(path)
    }
    fn write_bytes(&mut self, path: &str, data: Bytes) {
        self.write(path, data);
    }
}

impl BlockIo for ReduceContext {
    fn read_bytes(&mut self, path: &str) -> std::result::Result<Bytes, MrError> {
        self.read(path)
    }
    fn write_bytes(&mut self, path: &str, data: Bytes) {
        self.write(path, data);
    }
}

/// Master-node DFS access; tracks bytes so the driver can charge the
/// master's serial I/O to the simulated clock.
pub struct MasterIo<'a> {
    dfs: &'a Dfs,
    /// Bytes read through this handle.
    pub bytes_read: u64,
    /// Bytes written through this handle.
    pub bytes_written: u64,
}

impl<'a> MasterIo<'a> {
    /// Wraps a DFS handle.
    pub fn new(dfs: &'a Dfs) -> Self {
        MasterIo {
            dfs,
            bytes_read: 0,
            bytes_written: 0,
        }
    }
}

impl BlockIo for MasterIo<'_> {
    fn read_bytes(&mut self, path: &str) -> std::result::Result<Bytes, MrError> {
        let data = self.dfs.read(path)?;
        self.bytes_read += data.len() as u64;
        Ok(data)
    }
    fn write_bytes(&mut self, path: &str, data: Bytes) {
        self.bytes_written += data.len() as u64;
        self.dfs.write(path, data);
    }
}

/// One stored rectangle of a logical matrix: the file at `path` holds the
/// dense block covering rows `rows.0..rows.1` and columns `cols.0..cols.1`
/// of the *piece coordinate space*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Piece {
    /// DFS path of the binary-encoded block.
    pub path: String,
    /// Row range the file covers (piece space, begin inclusive / end
    /// exclusive).
    pub rows: (usize, usize),
    /// Column range the file covers (piece space).
    pub cols: (usize, usize),
}

impl Piece {
    /// Creates a piece descriptor.
    pub fn new(path: impl Into<String>, rows: (usize, usize), cols: (usize, usize)) -> Self {
        Piece {
            path: path.into(),
            rows,
            cols,
        }
    }

    /// Number of rows the file holds.
    pub(crate) fn nrows(&self) -> usize {
        self.rows.1 - self.rows.0
    }

    /// Number of columns the file holds.
    pub(crate) fn ncols(&self) -> usize {
        self.cols.1 - self.cols.0
    }
}

/// A logical `rows x cols` matrix backed by DFS pieces, with an optional
/// window (for descriptor-only quadrants).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixSource {
    pieces: Vec<Piece>,
    /// Window origin in piece space.
    origin: (usize, usize),
    /// Logical shape of this source.
    shape: (usize, usize),
}

impl MatrixSource {
    /// A source covering the full piece space `shape`, where the pieces'
    /// coordinates are already logical coordinates.
    pub fn new(shape: (usize, usize), pieces: Vec<Piece>) -> Self {
        MatrixSource {
            pieces,
            origin: (0, 0),
            shape,
        }
    }

    /// Logical shape.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.1
    }

    /// The underlying piece descriptors.
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// Crops to the sub-rectangle `rows` x `cols` (logical coordinates).
    /// Pure metadata: no I/O. This is how the paper "partitions"
    /// `B = A4 − L2'U2` in under a second on the master (Section 5.2).
    pub fn window(&self, rows: (usize, usize), cols: (usize, usize)) -> Result<MatrixSource> {
        if rows.0 > rows.1 || cols.0 > cols.1 || rows.1 > self.shape.0 || cols.1 > self.shape.1 {
            return Err(CoreError::Invariant(format!(
                "window rows {rows:?} cols {cols:?} out of bounds for {:?} source",
                self.shape
            )));
        }
        let origin = (self.origin.0 + rows.0, self.origin.1 + cols.0);
        let shape = (rows.1 - rows.0, cols.1 - cols.0);
        // Keep only pieces overlapping the new window.
        let pieces = self
            .pieces
            .iter()
            .filter(|p| {
                p.rows.1 > origin.0
                    && p.rows.0 < origin.0 + shape.0
                    && p.cols.1 > origin.1
                    && p.cols.0 < origin.1 + shape.1
            })
            .cloned()
            .collect();
        Ok(MatrixSource {
            pieces,
            origin,
            shape,
        })
    }

    /// Splits into the four Figure-1 quadrants at `(row_split, col_split)`.
    pub fn quadrants(&self, row_split: usize, col_split: usize) -> Result<[MatrixSource; 4]> {
        let (n, m) = self.shape;
        Ok([
            self.window((0, row_split), (0, col_split))?,
            self.window((0, row_split), (col_split, m))?,
            self.window((row_split, n), (0, col_split))?,
            self.window((row_split, n), (col_split, m))?,
        ])
    }

    /// Reads the logical sub-rectangle `rows` x `cols`, decoding only the
    /// files that overlap it. The pieces must cover the rectangle exactly
    /// once: a descriptor that lost a piece (or lists one twice) is an
    /// error, never a zero-filled block.
    pub fn read_range(
        &self,
        io: &mut dyn BlockIo,
        rows: (usize, usize),
        cols: (usize, usize),
    ) -> Result<Matrix> {
        if rows.0 > rows.1 || cols.0 > cols.1 || rows.1 > self.shape.0 || cols.1 > self.shape.1 {
            return Err(CoreError::Invariant(format!(
                "read_range rows {rows:?} cols {cols:?} out of bounds for {:?} source",
                self.shape
            )));
        }
        let mut out = Matrix::zeros(rows.1 - rows.0, cols.1 - cols.0);
        // Absolute target rectangle in piece space.
        let tr = (self.origin.0 + rows.0, self.origin.0 + rows.1);
        let tc = (self.origin.1 + cols.0, self.origin.1 + cols.1);
        let mut copied = 0;
        for piece in &self.pieces {
            let r0 = piece.rows.0.max(tr.0);
            let r1 = piece.rows.1.min(tr.1);
            let c0 = piece.cols.0.max(tc.0);
            let c1 = piece.cols.1.min(tc.1);
            if r0 >= r1 || c0 >= c1 {
                continue;
            }
            let data = io.read_bytes(&piece.path).map_err(CoreError::MapReduce)?;
            let block = decode_binary(&data)?;
            if block.shape() != (piece.nrows(), piece.ncols()) {
                return Err(CoreError::Invariant(format!(
                    "piece {} has shape {:?}, descriptor says {}x{}",
                    piece.path,
                    block.shape(),
                    piece.nrows(),
                    piece.ncols()
                )));
            }
            for r in r0..r1 {
                let src_row =
                    &block.row(r - piece.rows.0)[(c0 - piece.cols.0)..(c1 - piece.cols.0)];
                let dst_row = &mut out.row_mut(r - tr.0)[(c0 - tc.0)..(c1 - tc.0)];
                dst_row.copy_from_slice(src_row);
            }
            copied += (r1 - r0) * (c1 - c0);
        }
        // Pieces are disjoint, so the count is exact coverage.
        let wanted = out.rows() * out.cols();
        if copied != wanted {
            return Err(CoreError::Invariant(format!(
                "pieces cover {copied} of the {wanted} elements of rows {rows:?} cols {cols:?}"
            )));
        }
        Ok(out)
    }

    /// Reads the entire logical matrix.
    pub fn read_all(&self, io: &mut dyn BlockIo) -> Result<Matrix> {
        self.read_range(io, (0, self.shape.0), (0, self.shape.1))
    }

    /// Reads a stripe of full-width rows.
    pub fn read_rows(&self, io: &mut dyn BlockIo, r0: usize, r1: usize) -> Result<Matrix> {
        self.read_range(io, (r0, r1), (0, self.shape.1))
    }

    /// Reads a stripe of full-height columns.
    pub fn read_cols(&self, io: &mut dyn BlockIo, c0: usize, c1: usize) -> Result<Matrix> {
        self.read_range(io, (0, self.shape.0), (c0, c1))
    }
}

/// Writes `block` to `path` and returns its piece descriptor, positioned at
/// `(row0, col0)` in piece space.
pub fn write_piece(
    io: &mut dyn BlockIo,
    path: &str,
    row0: usize,
    col0: usize,
    block: &Matrix,
) -> Piece {
    io.write_bytes(path, encode_binary(block));
    Piece::new(
        path,
        (row0, row0 + block.rows()),
        (col0, col0 + block.cols()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_matrix::random::random_matrix;

    fn scatter(dfs: &Dfs, m: &Matrix, tile: usize) -> MatrixSource {
        let mut io = MasterIo::new(dfs);
        let mut pieces = Vec::new();
        let mut idx = 0;
        let mut r = 0;
        while r < m.rows() {
            let r1 = (r + tile).min(m.rows());
            let mut c = 0;
            while c < m.cols() {
                let c1 = (c + tile).min(m.cols());
                let block = m
                    .block(mrinv_matrix::block::BlockRange::new((r, r1), (c, c1)))
                    .unwrap();
                pieces.push(write_piece(&mut io, &format!("t/{idx}"), r, c, &block));
                idx += 1;
                c = c1;
            }
            r = r1;
        }
        MatrixSource::new(m.shape(), pieces)
    }

    #[test]
    fn read_all_reassembles() {
        let dfs = Dfs::default();
        let m = random_matrix(13, 17, 1);
        let src = scatter(&dfs, &m, 5);
        let mut io = MasterIo::new(&dfs);
        assert_eq!(src.read_all(&mut io).unwrap(), m);
        assert!(io.bytes_read > 0);
    }

    #[test]
    fn read_range_reads_only_overlapping_files() {
        let dfs = Dfs::default();
        let m = random_matrix(20, 20, 2);
        let src = scatter(&dfs, &m, 10); // 4 tiles
        dfs.reset_counters();
        let mut io = MasterIo::new(&dfs);
        let got = src.read_range(&mut io, (0, 10), (0, 10)).unwrap();
        assert_eq!(
            got,
            m.block(mrinv_matrix::block::BlockRange::new((0, 10), (0, 10)))
                .unwrap()
        );
        assert_eq!(dfs.counters().reads, 1, "only one tile decoded");
    }

    #[test]
    fn window_then_read_matches_direct_block() {
        let dfs = Dfs::default();
        let m = random_matrix(16, 16, 3);
        let src = scatter(&dfs, &m, 6);
        let w = src.window((4, 12), (2, 14)).unwrap();
        assert_eq!(w.shape(), (8, 12));
        let mut io = MasterIo::new(&dfs);
        let got = w.read_all(&mut io).unwrap();
        let expect = m
            .block(mrinv_matrix::block::BlockRange::new((4, 12), (2, 14)))
            .unwrap();
        assert_eq!(got, expect);
        // Windows compose.
        let w2 = w.window((1, 5), (3, 7)).unwrap();
        let got2 = w2.read_all(&mut io).unwrap();
        let expect2 = m
            .block(mrinv_matrix::block::BlockRange::new((5, 9), (5, 9)))
            .unwrap();
        assert_eq!(got2, expect2);
    }

    #[test]
    fn quadrants_cover_source() {
        let dfs = Dfs::default();
        let m = random_matrix(10, 10, 4);
        let src = scatter(&dfs, &m, 4);
        let [q1, q2, q3, q4] = src.quadrants(6, 6).unwrap();
        assert_eq!(q1.shape(), (6, 6));
        assert_eq!(q2.shape(), (6, 4));
        assert_eq!(q3.shape(), (4, 6));
        assert_eq!(q4.shape(), (4, 4));
        let mut io = MasterIo::new(&dfs);
        let a4 = q4.read_all(&mut io).unwrap();
        assert_eq!(a4[(0, 0)], m[(6, 6)]);
    }

    #[test]
    fn stripes() {
        let dfs = Dfs::default();
        let m = random_matrix(9, 9, 5);
        let src = scatter(&dfs, &m, 3);
        let mut io = MasterIo::new(&dfs);
        assert_eq!(
            src.read_rows(&mut io, 3, 6).unwrap(),
            m.row_stripe(3, 6).unwrap()
        );
        assert_eq!(
            src.read_cols(&mut io, 0, 2).unwrap(),
            m.col_stripe(0, 2).unwrap()
        );
    }

    #[test]
    fn bounds_are_validated() {
        let dfs = Dfs::default();
        let m = random_matrix(4, 4, 6);
        let src = scatter(&dfs, &m, 2);
        let mut io = MasterIo::new(&dfs);
        assert!(src.read_range(&mut io, (0, 5), (0, 2)).is_err());
        assert!(src.window((2, 1), (0, 4)).is_err());
        assert!(src.window((0, 4), (0, 5)).is_err());
    }

    #[test]
    fn corrupt_descriptor_is_detected() {
        let dfs = Dfs::default();
        let m = random_matrix(4, 4, 7);
        let mut io = MasterIo::new(&dfs);
        io.write_bytes("p", encode_binary(&m));
        // Descriptor claims the file covers 2x2 but it holds 4x4.
        let src = MatrixSource::new((4, 4), vec![Piece::new("p", (0, 2), (0, 2))]);
        assert!(matches!(
            src.read_all(&mut io),
            Err(CoreError::Invariant(_))
        ));
    }

    #[test]
    fn uncovered_or_doubly_covered_elements_are_detected() {
        let dfs = Dfs::default();
        let m = random_matrix(4, 4, 8);
        let mut io = MasterIo::new(&dfs);
        let top = write_piece(&mut io, "top", 0, 0, &m.row_stripe(0, 2).unwrap());
        let bottom = write_piece(&mut io, "bottom", 2, 0, &m.row_stripe(2, 4).unwrap());
        let whole = MatrixSource::new((4, 4), vec![top.clone(), bottom.clone()]);
        assert_eq!(whole.read_all(&mut io).unwrap(), m);
        // A lost piece is a gap, not two rows of zeros.
        let gap = MatrixSource::new((4, 4), vec![top.clone()]);
        assert!(matches!(
            gap.read_all(&mut io),
            Err(CoreError::Invariant(_))
        ));
        // The covered half still reads.
        assert_eq!(
            gap.read_rows(&mut io, 0, 2).unwrap(),
            m.row_stripe(0, 2).unwrap()
        );
        // A piece listed twice overlaps itself.
        let twice = MatrixSource::new((4, 4), vec![top.clone(), top, bottom]);
        assert!(matches!(
            twice.read_all(&mut io),
            Err(CoreError::Invariant(_))
        ));
    }

    #[test]
    fn missing_piece_file_errors() {
        let dfs = Dfs::default();
        let src = MatrixSource::new((2, 2), vec![Piece::new("gone", (0, 2), (0, 2))]);
        let mut io = MasterIo::new(&dfs);
        assert!(matches!(
            src.read_all(&mut io),
            Err(CoreError::MapReduce(_))
        ));
    }

    #[test]
    fn master_io_accounts_bytes() {
        let dfs = Dfs::default();
        let mut io = MasterIo::new(&dfs);
        io.write_bytes("x", Bytes::from(vec![0u8; 30]));
        let _ = io.read_bytes("x").unwrap();
        assert_eq!(io.bytes_written, 30);
        assert_eq!(io.bytes_read, 30);
    }
}
