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

use bytes::{Buf, Bytes};

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

const MAGIC: &[u8; 4] = b"MRX1";
const HEADER_LEN: usize = 4 + 8 + 8;

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
    assert_eq!(values.len(), rows * cols, "element count must match shape");
    buf.reserve(HEADER_LEN + values.len() * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(rows as u64).to_le_bytes());
    buf.extend_from_slice(&(cols as u64).to_le_bytes());
    // One bulk move of the elements: `flat_map` over fixed-size arrays
    // compiles to a vectorized copy, where a push per element would pay a
    // capacity check each.
    buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Deserializes a matrix from the binary format.
pub fn decode_binary(mut data: &[u8]) -> Result<Matrix> {
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
    // The length is exact (checked above), so this is one allocation and
    // one bulk move of the elements.
    let vals = data
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
        .collect();
    Matrix::from_vec(rows, cols, vals)
}

/// Exact size in bytes of the binary encoding of a `rows x cols` matrix.
pub fn binary_size(rows: usize, cols: usize) -> u64 {
    HEADER_LEN as u64 + 8 * rows as u64 * cols as u64
}

/// Serializes a matrix to the text format: a `rows cols` header line, then
/// one line per row of space-separated decimal values.
pub fn encode_text(m: &Matrix) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(16 + m.as_slice().len() * 20);
    let _ = writeln!(out, "{} {}", m.rows(), m.cols());
    for row in m.row_iter() {
        let mut first = true;
        for v in row {
            if !first {
                out.push(' ');
            }
            first = false;
            // 17 significant digits round-trips every f64 exactly.
            let _ = write!(out, "{v:.17e}");
        }
        out.push('\n');
    }
    out
}

/// Deserializes a matrix from the text format.
pub fn decode_text(text: &str) -> Result<Matrix> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| MatrixError::Codec("empty text matrix".into()))?;
    let mut parts = header.split_whitespace();
    let rows: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MatrixError::Codec(format!("bad header line {header:?}")))?;
    let cols: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| MatrixError::Codec(format!("bad header line {header:?}")))?;
    let mut vals = Vec::with_capacity(rows * cols);
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        if i >= rows {
            return Err(MatrixError::Codec(format!(
                "too many rows: expected {rows}"
            )));
        }
        for tok in line.split_whitespace() {
            let v: f64 = tok
                .parse()
                .map_err(|e| MatrixError::Codec(format!("bad value {tok:?} on row {i}: {e}")))?;
            vals.push(v);
        }
    }
    if vals.len() != rows * cols {
        return Err(MatrixError::Codec(format!(
            "expected {} values for {rows}x{cols}, found {}",
            rows * cols,
            vals.len()
        )));
    }
    Matrix::from_vec(rows, cols, vals)
}

/// Estimated size in bytes of the text encoding of a `rows x cols` matrix
/// (each value printed with 17 significant digits plus separator, ~25
/// bytes). Used for the Table 3 text-size column.
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
        assert_eq!(back, m, "17-digit text round trip must be bit exact");
    }

    #[test]
    fn text_handles_special_values() {
        let m = Matrix::from_rows(&[&[0.0, -0.0], &[f64::MAX, f64::MIN_POSITIVE]]).unwrap();
        let back = decode_text(&encode_text(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn text_rejects_malformed_input() {
        assert!(decode_text("").is_err());
        assert!(decode_text("abc def\n").is_err());
        assert!(decode_text("2 2\n1 2\n3\n").is_err());
        assert!(decode_text("2 2\n1 2\n3 4\n5 6\n").is_err());
        assert!(decode_text("1 2\n1 banana\n").is_err());
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(decode_binary(&encode_binary(&m)).unwrap(), m);
        assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);
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
