//! The one frame codec every socket in the system speaks — worker
//! backend, service, and client: a 5-byte header (`u32` little-endian
//! length, counting the tag byte, then the tag byte) followed by the body.
//!
//! Both directions treat the peer as untrusted: a header is only a claim,
//! so the reader's memory grows with the bytes that actually arrive, not
//! with the announced length, and the writer refuses a body the length
//! field cannot represent instead of truncating it.

use std::io::{Error, ErrorKind, Read, Result, Write};

/// Reserved for a body before any of it has arrived; beyond this the
/// buffer grows only as received bytes fill it.
const FIRST_RESERVATION: usize = 64 * 1024;

/// The header of a frame carrying `body_len` body bytes under `tag`.
fn frame_header(tag: u8, body_len: usize) -> Result<[u8; 5]> {
    let len = body_len
        .checked_add(1)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| {
            let what = format!("frame body of {body_len} bytes overflows the u32 length field");
            Error::new(ErrorKind::InvalidInput, what)
        })?;
    let [a, b, c, d] = len.to_le_bytes();
    Ok([a, b, c, d, tag])
}

/// Writes one `len ∥ tag ∥ body` frame and flushes.
pub fn write_frame<W: Write>(stream: &mut W, tag: u8, body: &[u8]) -> Result<()> {
    stream.write_all(&frame_header(tag, body.len())?)?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one frame, returning `(tag, body)`.
pub fn read_frame<R: Read>(stream: &mut R) -> Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header)?;
    let [a, b, c, d, tag] = header;
    let Some(body_len) = u32::from_le_bytes([a, b, c, d]).checked_sub(1) else {
        return Err(Error::new(ErrorKind::InvalidData, "zero-length frame"));
    };
    let mut body = Vec::with_capacity((body_len as usize).min(FIRST_RESERVATION));
    let got = stream.take(u64::from(body_len)).read_to_end(&mut body)?;
    if got < body_len as usize {
        let what = format!("frame announced {body_len} body bytes, stream ended after {got}");
        return Err(Error::new(ErrorKind::UnexpectedEof, what));
    }
    Ok((tag, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        let big = vec![7u8; 3 * FIRST_RESERVATION + 5];
        write_frame(&mut wire, 9, b"hello").unwrap();
        write_frame(&mut wire, 0, &[]).unwrap();
        write_frame(&mut wire, 255, &big).unwrap();
        let mut stream = wire.as_slice();
        assert_eq!(read_frame(&mut stream).unwrap(), (9, b"hello".to_vec()));
        assert_eq!(read_frame(&mut stream).unwrap(), (0, Vec::new()));
        assert_eq!(read_frame(&mut stream).unwrap(), (255, big));
        let eof = read_frame(&mut stream).unwrap_err();
        assert_eq!(
            eof.kind(),
            ErrorKind::UnexpectedEof,
            "clean EOF between frames"
        );
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let err = read_frame(&mut [0u8, 0, 0, 0, 42].as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn a_lying_header_costs_no_memory_and_fails_at_eof() {
        // 4 GiB announced, 3 bytes sent: the reader must notice the EOF
        // having reserved only the first-reservation bound.
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend([1, 2, 3, 4]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn an_oversize_body_is_refused_not_truncated() {
        let largest = u32::MAX as usize - 1;
        assert_eq!(frame_header(3, largest).unwrap(), [255, 255, 255, 255, 3]);
        for too_big in [largest + 1, usize::MAX] {
            let err = frame_header(3, too_big).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidInput);
        }
    }
}
