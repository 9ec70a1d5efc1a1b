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
//! fails unless they cover it exactly once.
//!
//! Every byte moves through the one accounted handle,
//! [`mrinv_mapreduce::TaskIo`] — a task context derefs to it, the master
//! opens one over `cluster.dfs` — and a stored block's header and shape
//! are checked in one place, [`stored_block`]. [`read_block`] decodes the
//! block into a [`Matrix`] of its own; a read that places blocks into a
//! larger matrix ([`MatrixSource::read_into`], the factor assemblies)
//! decodes each stored row straight into its slot. [`write_block`] is the
//! one encoder.

use mrinv_mapreduce::TaskIo;
use mrinv_matrix::io::{encode_binary, BinaryView};
use mrinv_matrix::Matrix;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Reads and decodes the block stored at `path`, which must hold exactly
/// `expect` (rows, columns): a file of any other shape is an
/// [`CoreError::Invariant`] naming it, never something to index into.
pub(crate) fn read_block(io: &mut TaskIo, path: &str, expect: (usize, usize)) -> Result<Matrix> {
    let bytes = io.read(path)?;
    Ok(stored_block(&bytes, path, expect)?.to_matrix())
}

/// The block that `bytes`, read from `path`, store, with [`read_block`]'s
/// checks and errors, its words left for the caller to decode straight
/// into place.
pub(crate) fn stored_block<'a>(
    bytes: &'a [u8],
    path: &str,
    expect: (usize, usize),
) -> Result<BinaryView<'a>> {
    let block = BinaryView::parse(bytes)?;
    if block.shape() != expect {
        return Err(CoreError::Invariant(format!(
            "file {path} holds a {:?} block, expected {expect:?}",
            block.shape()
        )));
    }
    Ok(block)
}

/// Encodes `block` and writes it to `path`.
pub(crate) fn write_block(io: &mut TaskIo, path: &str, block: &Matrix) {
    io.write(path, encode_binary(block));
}

/// The coverage rule of every read: files that placed anything but exactly
/// the `wanted` elements lost one (or list one twice), and a zero-filled
/// remainder is never a valid read.
pub(crate) fn expect_covered(
    placed: usize,
    wanted: usize,
    what: std::fmt::Arguments<'_>,
) -> Result<()> {
    if placed != wanted {
        return Err(CoreError::Invariant(format!(
            "files cover {placed} of the {wanted} elements of {what}"
        )));
    }
    Ok(())
}

/// True when `rows` x `cols` is a well-formed rectangle inside `shape`.
pub(crate) fn inside(rows: (usize, usize), cols: (usize, usize), shape: (usize, usize)) -> bool {
    rows.0 <= rows.1 && rows.1 <= shape.0 && cols.0 <= cols.1 && cols.1 <= shape.1
}

/// One stored rectangle of a logical matrix: the file at `path` holds the
/// dense block covering rows `rows.0..rows.1` and columns `cols.0..cols.1`
/// of the *piece coordinate space*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Piece {
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
    pub(crate) fn new(path: impl Into<String>, rows: (usize, usize), cols: (usize, usize)) -> Self {
        Piece {
            path: path.into(),
            rows,
            cols,
        }
    }

    /// The rows and columns of the piece inside `rows` x `cols` (piece
    /// space), if any.
    fn overlap(
        &self,
        rows: (usize, usize),
        cols: (usize, usize),
    ) -> Option<((usize, usize), (usize, usize))> {
        let r = (self.rows.0.max(rows.0), self.rows.1.min(rows.1));
        let c = (self.cols.0.max(cols.0), self.cols.1.min(cols.1));
        (r.0 < r.1 && c.0 < c.1).then_some((r, c))
    }

    /// True when the rectangle holds no element (a grid cell of a block
    /// smaller than the grid).
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.0 >= self.rows.1 || self.cols.0 >= self.cols.1
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
pub(crate) struct MatrixSource {
    pieces: Vec<Piece>,
    /// Window origin in piece space.
    origin: (usize, usize),
    /// Logical shape of this source.
    shape: (usize, usize),
}

impl MatrixSource {
    /// A source covering the full piece space `shape`, where the pieces'
    /// coordinates are already logical coordinates.
    pub(crate) fn new(shape: (usize, usize), pieces: Vec<Piece>) -> Self {
        MatrixSource {
            pieces,
            origin: (0, 0),
            shape,
        }
    }

    /// Logical shape.
    pub(crate) fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.shape.0
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.shape.1
    }

    /// The underlying piece descriptors.
    pub(crate) fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// The DFS files the pieces live in, in piece order.
    pub(crate) fn paths(&self) -> impl Iterator<Item = &str> + '_ {
        self.pieces.iter().map(|p| p.path.as_str())
    }

    /// The logical rectangle `rows` x `cols` in piece space; an error unless
    /// it is well formed and inside this source's shape.
    fn rect(
        &self,
        what: &str,
        rows: (usize, usize),
        cols: (usize, usize),
    ) -> Result<((usize, usize), (usize, usize))> {
        if !inside(rows, cols, self.shape) {
            return Err(CoreError::Invariant(format!(
                "{what} rows {rows:?} cols {cols:?} out of bounds for {:?} source",
                self.shape
            )));
        }
        let (r, c) = self.origin;
        Ok(((r + rows.0, r + rows.1), (c + cols.0, c + cols.1)))
    }

    /// Crops to the sub-rectangle `rows` x `cols` (logical coordinates).
    /// Pure metadata: no I/O. This is how the paper "partitions"
    /// `B = A4 − L2'U2` in under a second on the master (Section 5.2).
    pub(crate) fn window(
        &self,
        rows: (usize, usize),
        cols: (usize, usize),
    ) -> Result<MatrixSource> {
        let (wr, wc) = self.rect("window", rows, cols)?;
        // Keep only pieces overlapping the new window.
        let overlapping = |p: &&Piece| p.overlap(wr, wc).is_some();
        Ok(MatrixSource {
            pieces: self.pieces.iter().filter(overlapping).cloned().collect(),
            origin: (wr.0, wc.0),
            shape: (rows.1 - rows.0, cols.1 - cols.0),
        })
    }

    /// Splits into the four Figure-1 quadrants at `(row_split, col_split)`.
    pub(crate) fn quadrants(
        &self,
        row_split: usize,
        col_split: usize,
    ) -> Result<[MatrixSource; 4]> {
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
    pub(crate) fn read_range(
        &self,
        io: &mut TaskIo,
        rows: (usize, usize),
        cols: (usize, usize),
    ) -> Result<Matrix> {
        self.rect("read", rows, cols)?;
        let mut out = Matrix::zeros(rows.1 - rows.0, cols.1 - cols.0);
        self.read_into(io, rows, cols, &mut out, (0, 0), false)?;
        Ok(out)
    }

    /// [`MatrixSource::read_range`] into place: the rectangle lands in
    /// `out` with its top-left element at `corner` — transposed when
    /// `flip`, so source element `(r, c)` of it lands `(c, r)` from
    /// `corner`. The one routine that copies stored pieces into a matrix.
    pub(crate) fn read_into(
        &self,
        io: &mut TaskIo,
        rows: (usize, usize),
        cols: (usize, usize),
        out: &mut Matrix,
        corner: (usize, usize),
        flip: bool,
    ) -> Result<()> {
        let (tr, tc) = self.rect("read", rows, cols)?;
        let (h, w) = (rows.1 - rows.0, cols.1 - cols.0);
        let (placed_h, placed_w) = if flip { (w, h) } else { (h, w) };
        if corner.0 + placed_h > out.rows() || corner.1 + placed_w > out.cols() {
            return Err(CoreError::Invariant(format!(
                "a {placed_h}x{placed_w} read placed at {corner:?} overruns its {:?} target",
                out.shape()
            )));
        }
        let mut copied = 0;
        for piece in &self.pieces {
            let Some(((r0, r1), (c0, c1))) = piece.overlap(tr, tc) else {
                continue;
            };
            let bytes = io.read(&piece.path)?;
            let block = stored_block(&bytes, &piece.path, (piece.nrows(), piece.ncols()))?;
            let src_cols = (c0 - piece.cols.0)..(c1 - piece.cols.0);
            let dst_cols = corner.1 + c0 - tc.0..corner.1 + c1 - tc.0;
            for r in r0..r1 {
                let stored = r - piece.rows.0;
                if flip {
                    let col = corner.1 + r - tr.0;
                    let words = block.row(stored, src_cols.clone());
                    for (c, v) in (corner.0 + c0 - tc.0..).zip(words) {
                        out[(c, col)] = v;
                    }
                } else {
                    let row = &mut out.row_mut(corner.0 + r - tr.0)[dst_cols.clone()];
                    block.read_row(stored, src_cols.start, row);
                }
            }
            copied += (r1 - r0) * (c1 - c0);
        }
        // Pieces are disjoint, so the count is exact coverage.
        expect_covered(copied, h * w, format_args!("rows {rows:?} cols {cols:?}"))
    }

    /// Reads the entire logical matrix.
    pub(crate) fn read_all(&self, io: &mut TaskIo) -> Result<Matrix> {
        self.read_range(io, (0, self.shape.0), (0, self.shape.1))
    }

    /// Reads a stripe of full-width rows.
    pub(crate) fn read_rows(&self, io: &mut TaskIo, r0: usize, r1: usize) -> Result<Matrix> {
        self.read_range(io, (r0, r1), (0, self.shape.1))
    }

    /// Reads a stripe of full-height columns.
    pub(crate) fn read_cols(&self, io: &mut TaskIo, c0: usize, c1: usize) -> Result<Matrix> {
        self.read_range(io, (0, self.shape.0), (c0, c1))
    }
}

/// Test fixture: writes `block` to `path` and returns its piece
/// descriptor, positioned at `(row0, col0)` in piece space.
#[cfg(test)]
pub(crate) fn write_piece(
    io: &mut TaskIo,
    path: &str,
    row0: usize,
    col0: usize,
    block: &Matrix,
) -> Piece {
    write_block(io, path, block);
    Piece::new(
        path,
        (row0, row0 + block.rows()),
        (col0, col0 + block.cols()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrinv_mapreduce::Dfs;
    use mrinv_matrix::random::random_matrix;
    use std::sync::Arc;

    fn scatter(dfs: &Arc<Dfs>, m: &Matrix, tile: usize) -> MatrixSource {
        let mut io = TaskIo::new(dfs.clone());
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
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(13, 17, 1);
        let src = scatter(&dfs, &m, 5);
        let mut io = TaskIo::new(dfs.clone());
        assert_eq!(src.read_all(&mut io).unwrap(), m);
    }

    #[test]
    fn read_range_reads_only_overlapping_files() {
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(20, 20, 2);
        let src = scatter(&dfs, &m, 10); // 4 tiles
        dfs.reset_counters();
        let mut io = TaskIo::new(dfs.clone());
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
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(16, 16, 3);
        let src = scatter(&dfs, &m, 6);
        let w = src.window((4, 12), (2, 14)).unwrap();
        assert_eq!(w.shape(), (8, 12));
        let mut io = TaskIo::new(dfs.clone());
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
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(10, 10, 4);
        let src = scatter(&dfs, &m, 4);
        let [q1, q2, q3, q4] = src.quadrants(6, 6).unwrap();
        assert_eq!(q1.shape(), (6, 6));
        assert_eq!(q2.shape(), (6, 4));
        assert_eq!(q3.shape(), (4, 6));
        assert_eq!(q4.shape(), (4, 4));
        let mut io = TaskIo::new(dfs.clone());
        let a4 = q4.read_all(&mut io).unwrap();
        assert_eq!(a4[(0, 0)], m[(6, 6)]);
    }

    #[test]
    fn stripes() {
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(9, 9, 5);
        let src = scatter(&dfs, &m, 3);
        let mut io = TaskIo::new(dfs.clone());
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
    fn read_into_places_and_flips() {
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(7, 5, 9);
        let src = scatter(&dfs, &m, 3);
        let mut io = TaskIo::new(dfs.clone());
        let (rows, cols) = ((1, 6), (2, 5));
        let want = m
            .block(mrinv_matrix::block::BlockRange::new(rows, cols))
            .unwrap();
        let mut out = Matrix::zeros(9, 9);
        src.read_into(&mut io, rows, cols, &mut out, (2, 1), false)
            .unwrap();
        src.read_into(&mut io, rows, cols, &mut out, (0, 4), true)
            .unwrap();
        let block = |r, c| {
            out.block(mrinv_matrix::block::BlockRange::new(r, c))
                .unwrap()
        };
        assert_eq!(block((2, 7), (1, 4)), want);
        assert_eq!(block((0, 3), (4, 9)), want.transpose());
        // A placement that does not fit is refused, not clipped.
        for (corner, flip) in [
            ((5, 0), false),
            ((0, 7), false),
            ((7, 0), true),
            ((0, 5), true),
        ] {
            let got = src.read_into(&mut io, rows, cols, &mut out, corner, flip);
            assert!(
                matches!(got, Err(CoreError::Invariant(_))),
                "{corner:?} {flip}"
            );
        }
    }

    #[test]
    fn bounds_are_validated() {
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(4, 4, 6);
        let src = scatter(&dfs, &m, 2);
        let mut io = TaskIo::new(dfs.clone());
        assert!(src.read_range(&mut io, (0, 5), (0, 2)).is_err());
        assert!(src.window((2, 1), (0, 4)).is_err());
        assert!(src.window((0, 4), (0, 5)).is_err());
    }

    #[test]
    fn corrupt_descriptor_is_detected() {
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(4, 4, 7);
        let mut io = TaskIo::new(dfs.clone());
        write_block(&mut io, "p", &m);
        // Descriptor claims the file covers 2x2 but it holds 4x4.
        let src = MatrixSource::new((4, 4), vec![Piece::new("p", (0, 2), (0, 2))]);
        assert!(matches!(
            src.read_all(&mut io),
            Err(CoreError::Invariant(_))
        ));
    }

    #[test]
    fn uncovered_or_doubly_covered_elements_are_detected() {
        let dfs = Arc::new(Dfs::default());
        let m = random_matrix(4, 4, 8);
        let mut io = TaskIo::new(dfs.clone());
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
        let dfs = Arc::new(Dfs::default());
        let src = MatrixSource::new((2, 2), vec![Piece::new("gone", (0, 2), (0, 2))]);
        let mut io = TaskIo::new(dfs.clone());
        assert!(matches!(
            src.read_all(&mut io),
            Err(CoreError::MapReduce(_))
        ));
    }
}
