//! Matrix codecs for DFS storage.
//!
//! The paper stores the input matrix as a text file (`a.txt`) and reports
//! both text and binary sizes for its evaluation suite (Table 3). Blocks
//! moving through the pipeline use the binary codec; the text codec exists
//! for inputs, outputs, and the Table 3 size accounting.
//!
//! Binary format (little-endian):
//!
//! ```text
//! magic  b"MRX1"      4 bytes
//! rows   u64          8 bytes
//! cols   u64          8 bytes
//! data   f64 * rows*cols, row-major
//! ```
//!
//! Text format: a `rows cols` header line, then one line per row of
//! space-separated values, each the shortest `d.ddde±x` that reads back as
//! the same `f64` (a round trip is bit exact, `-0` and subnormals
//! included; every NaN is spelled `NaN`). The reader takes whatever
//! `str::parse::<f64>` does, so files that older builds wrote with 18
//! digits still load. Converting one number is the `decimal` submodule's
//! business.

use std::borrow::Cow;
use std::io::Write;
use std::ops::Range;

use bytes::{Buf, Bytes};

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};
use decimal::F64_MAX_LEN;

mod decimal;

const MAGIC: &[u8; 4] = b"MRX1";
const HEADER_LEN: usize = 4 + 8 + 8;

/// Bytes of text [`write_text`] collects before handing them on.
const TEXT_CHUNK: usize = 64 << 10;

/// Serializes a matrix to the binary format.
pub fn encode_binary(m: &Matrix) -> Bytes {
    Bytes::from(encode_binary_vec(m))
}

/// [`encode_binary`] into an owned vector, written once: what a service
/// frame's byte field carries, without the copy into a shared [`Bytes`]
/// and the copy back out of it.
pub fn encode_binary_vec(m: &Matrix) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + m.as_slice().len() * 8);
    encode_binary_onto(&mut buf, m.rows(), m.cols(), m.as_slice());
    buf
}

/// Appends the binary encoding of the `rows x cols` matrix whose row-major
/// elements are `values` to `buf` — for a container format that frames a
/// matrix after its own header, or a producer whose rows already sit
/// contiguously inside a larger matrix.
///
/// # Panics
/// If `values.len() != rows * cols`.
pub fn encode_binary_onto(buf: &mut Vec<u8>, rows: usize, cols: usize, values: &[f64]) {
    buf.reserve(HEADER_LEN + values.len() * 8);
    encode_header_onto(buf, rows, cols, values);
    // One bulk move of the elements: `flat_map` over fixed-size arrays
    // compiles to a vectorized copy, where a push per element would pay a
    // capacity check each.
    buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// [`encode_binary_onto`] without the copy of the elements: appends only
/// the header to `buf` and lends the element bytes that follow it, for a
/// writer that sends them from the memory that holds them (a frame
/// writer's splice). On a little-endian target the bytes are `values`'
/// own memory; elsewhere they are an owned little-endian copy.
///
/// # Panics
/// If `values.len() != rows * cols`.
pub fn encode_binary_lending<'v>(
    buf: &mut Vec<u8>,
    rows: usize,
    cols: usize,
    values: &'v [f64],
) -> Cow<'v, [u8]> {
    encode_header_onto(buf, rows, cols, values);
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the pointer and length describe exactly the memory of
        // `values`, which is initialized and borrowed for `'v`; `u8` has
        // alignment 1 and every bit pattern is a valid `u8`; and on a
        // little-endian target an `f64`'s memory is its `to_le_bytes()`.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), size_of_val(values))
        };
        Cow::Borrowed(bytes)
    }
    #[cfg(not(target_endian = "little"))]
    Cow::Owned(values.iter().flat_map(|v| v.to_le_bytes()).collect())
}

/// The binary encoding's header, appended to `buf`.
fn encode_header_onto(buf: &mut Vec<u8>, rows: usize, cols: usize, values: &[f64]) {
    assert_eq!(values.len(), rows * cols, "element count must match shape");
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(rows as u64).to_le_bytes());
    buf.extend_from_slice(&(cols as u64).to_le_bytes());
}

/// Deserializes a matrix from the binary format.
pub fn decode_binary(data: &[u8]) -> Result<Matrix> {
    Ok(BinaryView::parse(data)?.to_matrix())
}

/// A binary-encoded matrix whose header is checked and whose elements are
/// left in the bytes that store them: a reader decodes each row straight
/// into the place it is going, with no [`Matrix`] of its own in between.
#[derive(Debug, Clone, Copy)]
pub struct BinaryView<'a> {
    rows: usize,
    cols: usize,
    /// `rows * cols` little-endian `f64`s, row-major.
    elements: &'a [u8],
}

impl<'a> BinaryView<'a> {
    /// Checks `data`'s header and length, with [`decode_binary`]'s errors.
    pub fn parse(mut data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(MatrixError::Codec(format!(
                "binary matrix truncated: {} bytes, need at least {HEADER_LEN}",
                data.len()
            )));
        }
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(MatrixError::Codec(format!("bad magic {magic:?}")));
        }
        let rows = data.get_u64_le() as usize;
        let cols = data.get_u64_le() as usize;
        let expect = rows
            .checked_mul(cols)
            .and_then(|e| e.checked_mul(8))
            .ok_or_else(|| MatrixError::Codec("dimension overflow".into()))?;
        if data.remaining() != expect {
            return Err(MatrixError::Codec(format!(
                "binary matrix payload is {} bytes, expected {expect} for {rows}x{cols}",
                data.remaining()
            )));
        }
        Ok(BinaryView {
            rows,
            cols,
            elements: data,
        })
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Columns `cols` of row `r`, decoded a word at a time.
    ///
    /// # Panics
    /// If `r` or `cols` lies outside the matrix.
    pub fn row(&self, r: usize, cols: Range<usize>) -> impl ExactSizeIterator<Item = f64> + 'a {
        let (rows, width) = self.shape();
        assert!(
            r < rows && cols.end <= width,
            "row {r} cols {cols:?} outside {rows}x{width}"
        );
        let at = r * width;
        words(&self.elements[(at + cols.start) * 8..(at + cols.end) * 8])
    }

    /// Decodes row `r` from column `c0` on into `dst`, one word per slot.
    pub fn read_row(&self, r: usize, c0: usize, dst: &mut [f64]) {
        let words = self.row(r, c0..c0 + dst.len());
        for (d, v) in dst.iter_mut().zip(words) {
            *d = v;
        }
    }

    /// The whole matrix, decoded in one allocation and one bulk move.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, words(self.elements).collect())
            .expect("parse checked the element count")
    }
}

/// Little-endian `f64` words, in order.
fn words(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
}

/// Exact size in bytes of the binary encoding of a `rows x cols` matrix.
pub fn binary_size(rows: usize, cols: usize) -> u64 {
    HEADER_LEN as u64 + 8 * rows as u64 * cols as u64
}

/// Serializes a matrix to the text format; see [`write_text`].
pub fn encode_text(m: &Matrix) -> String {
    let mut out = Vec::with_capacity(text_size_estimate(m.rows(), m.cols()) as usize);
    write_text(&mut out, m).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the text format is ASCII")
}

/// Streams a matrix to `out` in the text format: a `rows cols` header
/// line, then one line per row of space-separated values, each the
/// shortest `d.ddde±x` that reads back as the same `f64` (what `{:e}`
/// prints). Nothing larger than one `TEXT_CHUNK` is held at a time, and
/// `out` receives whole chunks, so it needs no buffering of its own.
pub fn write_text(out: &mut impl Write, m: &Matrix) -> std::io::Result<()> {
    let mut buf = [0u8; TEXT_CHUNK];
    let mut at = 0;
    // Writes out what is buffered unless `need` more bytes still fit.
    let mut make_room = |buf: &[u8], at: &mut usize, need: usize| {
        if *at + need > buf.len() {
            out.write_all(&buf[..*at])?;
            *at = 0;
        }
        std::io::Result::Ok(())
    };
    let header = format!("{} {}\n", m.rows(), m.cols());
    buf[..header.len()].copy_from_slice(header.as_bytes());
    at += header.len();
    for row in m.row_iter() {
        for (j, &v) in row.iter().enumerate() {
            make_room(&buf, &mut at, 1 + F64_MAX_LEN)?;
            if j > 0 {
                buf[at] = b' ';
                at += 1;
            }
            let token = &mut buf[at..at + F64_MAX_LEN];
            at += decimal::write_f64(v, token.try_into().expect("sliced to that length"));
        }
        make_room(&buf, &mut at, 1)?;
        buf[at] = b'\n';
        at += 1;
    }
    out.write_all(&buf[..at])
}

/// Deserializes a matrix from the text format: two header fields, then
/// exactly `cols` values on each of exactly `rows` lines, values separated
/// by ASCII whitespace and blank lines ignored. A value is whatever
/// `str::parse::<f64>` accepts, and decodes to the same bits.
pub fn decode_text(text: &str) -> Result<Matrix> {
    let (header, body) = text.split_once('\n').unwrap_or((text, ""));
    let mut fields = header.split_ascii_whitespace().map(str::parse::<usize>);
    let (Some(Ok(rows)), Some(Ok(cols)), None) = (fields.next(), fields.next(), fields.next())
    else {
        return Err(MatrixError::Codec(format!("bad header line {header:?}")));
    };
    // Every value takes a byte and all but the last a separator, so a
    // count the body cannot hold is refused before anything is allocated.
    let count = rows
        .checked_mul(cols)
        .filter(|&n| n <= body.len().div_ceil(2))
        .ok_or_else(|| {
            MatrixError::Codec(format!(
                "header {rows}x{cols} promises more values than {} bytes can hold",
                body.len()
            ))
        })?;

    let bytes = body.as_bytes();
    let mut vals = Vec::with_capacity(count);
    // Non-blank lines finished, and values seen on the current one.
    let (mut row, mut in_row) = (0, 0);
    let mut i = 0;
    // One step past the end closes the last line if no newline did.
    while i <= bytes.len() {
        let b = bytes.get(i).copied().unwrap_or(b'\n');
        if b == b'\n' {
            if in_row > 0 {
                if in_row != cols {
                    return Err(MatrixError::Codec(format!(
                        "row {} has {in_row} values, expected {cols}",
                        row + 1
                    )));
                }
                row += 1;
                in_row = 0;
            }
            i += 1;
        } else if b.is_ascii_whitespace() {
            i += 1;
        } else {
            if row == rows {
                return Err(MatrixError::Codec(format!(
                    "too many rows: expected {rows}"
                )));
            }
            let (end, value) = decimal::scan_f64(body, i);
            let value = value.map_err(|e| {
                MatrixError::Codec(format!(
                    "bad value {:?} on row {}: {e}",
                    &body[i..end],
                    row + 1
                ))
            })?;
            // An overlong row is reported with its full count, not stored.
            if in_row < cols {
                vals.push(value);
            }
            in_row += 1;
            i = end;
        }
    }
    // A row of no columns is a blank line, so none are counted.
    let expected = if cols == 0 { 0 } else { rows };
    if row != expected {
        return Err(MatrixError::Codec(format!(
            "expected {expected} rows of {cols} values, found {row}"
        )));
    }
    Matrix::from_vec(rows, cols, vals)
}

/// Estimated size in bytes of the text encoding of a `rows x cols` matrix,
/// and an upper bound on it: 25 bytes is the longest value with its
/// separator (a uniform(-1, 1) element averages 21.7). Used for the
/// Table 3 text-size column, whose rounded GB figures it reproduces.
pub fn text_size_estimate(rows: usize, cols: usize) -> u64 {
    16 + 25 * rows as u64 * cols as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_matrix;

    #[test]
    fn binary_round_trip_is_exact() {
        let m = random_matrix(17, 9, 3);
        let enc = encode_binary(&m);
        assert_eq!(enc.len() as u64, binary_size(17, 9));
        let back = decode_binary(&enc).unwrap();
        assert_eq!(back, m);
    }

    /// A view reads every word, row and column range with the decoded
    /// matrix's bits, and refuses a range past its row.
    #[test]
    fn a_view_reads_what_decoding_reads() {
        let mut m = random_matrix(5, 7, 4);
        m[(2, 3)] = -0.0;
        let enc = encode_binary(&m);
        let view = BinaryView::parse(&enc).unwrap();
        assert_eq!(view.shape(), (5, 7));
        assert_eq!(view.to_matrix(), m);
        for r in 0..5 {
            let words: Vec<u64> = view.row(r, 0..7).map(f64::to_bits).collect();
            assert_eq!(
                words,
                m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let mut dst = [0.0; 4];
            view.read_row(r, 2, &mut dst);
            assert_eq!(dst, m.row(r)[2..6]);
            assert_eq!(view.row(r, 1..3).collect::<Vec<_>>(), m.row(r)[1..3]);
        }
        let past = std::panic::catch_unwind(|| view.row(0, 5..8).count());
        assert!(past.is_err(), "a range past the row is refused");
    }

    #[test]
    fn lent_elements_follow_the_header_as_the_copy_does() {
        for (rows, cols) in [(0, 0), (3, 0), (1, 1), (5, 7)] {
            let m = random_matrix(rows, cols, 11);
            let mut buf = vec![0xA5];
            let elements = encode_binary_lending(&mut buf, rows, cols, m.as_slice());
            assert_eq!(buf.len(), 1 + HEADER_LEN);
            buf.extend_from_slice(&elements);
            assert_eq!(&buf[1..], &encode_binary(&m)[..]);
            if cfg!(target_endian = "little") {
                assert!(matches!(elements, Cow::Borrowed(_)), "lent, not copied");
            }
        }
    }

    #[test]
    fn binary_rejects_corruption() {
        let m = random_matrix(3, 3, 0);
        let enc = encode_binary(&m);
        assert!(decode_binary(&enc[..10]).is_err());
        let mut bad = enc.to_vec();
        bad[0] = b'X';
        assert!(decode_binary(&bad).is_err());
        bad = enc.to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(decode_binary(&bad).is_err());
        assert!(decode_binary(&[]).is_err());
    }

    #[test]
    fn text_round_trip_is_exact() {
        let m = random_matrix(7, 11, 5);
        let enc = encode_text(&m);
        let back = decode_text(&enc).unwrap();
        assert_eq!(back, m, "shortest-digits text round trip must be bit exact");
    }

    #[test]
    fn text_handles_special_values() {
        let m = Matrix::from_rows(&[&[0.0, -0.0], &[f64::MAX, f64::MIN_POSITIVE]]).unwrap();
        let enc = encode_text(&m);
        assert_eq!(
            enc,
            "2 2\n0e0 -0e0\n1.7976931348623157e308 2.2250738585072014e-308\n"
        );
        let back = decode_text(&enc).unwrap();
        assert_eq!(back, m);
        assert!(back[(0, 1)].is_sign_negative());
    }

    #[test]
    fn text_skips_blank_lines_anywhere() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        for text in [
            "2 2\n1 2\n3 4",
            "2 2\n\n1 2\n\n \t\n3 4\n\n\n",
            "2 2\r\n1 2\r\n3 4\r\n",
            " 2\t2 \n  1   2  \n\t3 4 \n",
        ] {
            assert_eq!(decode_text(text).unwrap(), m, "{text:?}");
        }
    }

    #[test]
    fn text_rejects_malformed_input() {
        let message = |text: &str| match decode_text(text) {
            Err(MatrixError::Codec(message)) => message,
            other => panic!("{text:?} gave {other:?}"),
        };
        message("");
        message("abc def\n");
        message("2 2\n1 2\n3\n");
        message("2 2\n1 2\n3 4\n5 6\n");
        message("1 2\n1 banana\n");
        // Header: two fields, no more.
        message("2\n1 2\n");
        message("2 2 7\n1 2\n3 4\n");
        message("-2 2\n");
        // The right total in the wrong rows.
        assert!(message("2 2\n1 2 3\n4\n").contains("row 1 has 3 values"));
        assert!(message("2 2\n1\n2 3 4\n").contains("row 1 has 1 values"));
        assert!(message("2 2\n1 2 3 4\n").contains("row 1 has 4 values"));
        assert!(message("2 2\n1 2\n3 4 5\n").contains("row 2 has 3 values"));
        assert!(message("3 2\n1 2\n3 4\n\n\n\n").contains("found 2"));
        message("2 0\n1\n");
        message("0 2\n1 2\n");
    }

    #[test]
    fn text_header_cannot_make_the_decoder_allocate_or_overflow() {
        // Each used to abort on the allocation, panic with `capacity
        // overflow`, or wrap to an `Ok` 2^32 x 2^32 matrix of no elements.
        for text in [
            "3000000000 3\n",
            "1 18446744073709551615\n",
            "4294967296 4294967296\n",
            "4294967296 4294967296\n1 2\n",
            "2 2\n1 2\n3",
        ] {
            assert!(
                matches!(decode_text(text), Err(MatrixError::Codec(_))),
                "{text:?}"
            );
        }
        assert!(Matrix::from_vec(1 << 32, 1 << 32, Vec::new()).is_err());
        // The bound is tight: n values fit in 2n - 1 bytes.
        assert_eq!(decode_text("1 3\n1 2 3").unwrap().cols(), 3);
        assert_eq!(decode_text("3000000000 0\n").unwrap().rows(), 3_000_000_000);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(decode_binary(&encode_binary(&m)).unwrap(), m);
        assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);
        for (rows, cols) in [(0, 3), (3, 0)] {
            let m = Matrix::zeros(rows, cols);
            assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);
        }
    }

    #[test]
    fn size_formulas() {
        assert_eq!(binary_size(0, 0), 20);
        assert_eq!(binary_size(10, 10), 20 + 800);
        assert!(text_size_estimate(10, 10) > binary_size(10, 10));
    }

    #[test]
    fn table3_binary_sizes_extrapolate() {
        // Table 3: a 102400^2 matrix is ~80 GB binary (8 bytes/elem).
        let gb = binary_size(102_400, 102_400) as f64 / (1u64 << 30) as f64;
        assert!((gb - 78.1).abs() < 1.0, "expected ~78 GiB, got {gb}");
    }
}
