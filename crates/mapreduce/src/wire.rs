//! The one frame codec every socket in the system speaks — worker
//! backend, service, and client: a 5-byte header (`u32` little-endian
//! length, counting the tag byte, then the tag byte) followed by the body.
//!
//! Both directions treat the peer as untrusted: a header is only a claim,
//! so the reader's memory grows with the bytes that actually arrive, not
//! with the announced length, and the writer refuses a body the length
//! field cannot represent instead of truncating it.
//!
//! A connection reads every frame into one buffer it owns
//! ([`read_frame`] clears it and keeps its capacity) and builds its
//! outgoing bodies in the same buffer, so a steady stream of frames
//! allocates nothing. The price is that a connection retains capacity
//! for its largest frame (up to twice it, from the reader's doubling
//! growth) until it closes.

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

/// Reads one frame's body into `body` and returns its tag. `body` is
/// cleared first and keeps its capacity: a body that fits allocates
/// nothing, and one that does not grows the buffer only as its bytes
/// arrive.
pub fn read_frame<R: Read>(stream: &mut R, body: &mut Vec<u8>) -> Result<u8> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header)?;
    let [a, b, c, d, tag] = header;
    let Some(body_len) = u32::from_le_bytes([a, b, c, d]).checked_sub(1) else {
        return Err(Error::new(ErrorKind::InvalidData, "zero-length frame"));
    };
    body.clear();
    body.reserve((body_len as usize).min(FIRST_RESERVATION));
    let got = stream.take(u64::from(body_len)).read_to_end(body)?;
    if got < body_len as usize {
        let what = format!("frame announced {body_len} body bytes, stream ended after {got}");
        return Err(Error::new(ErrorKind::UnexpectedEof, what));
    }
    Ok(tag)
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
        write_frame(&mut wire, 4, b"after").unwrap();
        let mut stream = wire.as_slice();
        let mut body = Vec::new();
        assert_eq!(read_frame(&mut stream, &mut body).unwrap(), 9);
        assert_eq!(body, b"hello");
        assert_eq!(read_frame(&mut stream, &mut body).unwrap(), 0);
        assert!(body.is_empty());
        assert_eq!(read_frame(&mut stream, &mut body).unwrap(), 255);
        assert_eq!(body, big);
        // A smaller frame after a larger one: only its own bytes.
        assert_eq!(read_frame(&mut stream, &mut body).unwrap(), 4);
        assert_eq!(body, b"after");
        let eof = read_frame(&mut stream, &mut body).unwrap_err();
        assert_eq!(
            eof.kind(),
            ErrorKind::UnexpectedEof,
            "clean EOF between frames"
        );
    }

    #[test]
    fn a_frame_that_fits_reuses_the_buffer() {
        let mut wire = Vec::new();
        for fill in 0..4u8 {
            write_frame(&mut wire, 1, &vec![fill; 3 * FIRST_RESERVATION]).unwrap();
        }
        let mut stream = wire.as_slice();
        let mut body = Vec::new();
        read_frame(&mut stream, &mut body).unwrap();
        let (at, capacity) = (body.as_ptr(), body.capacity());
        for fill in 1..4u8 {
            read_frame(&mut stream, &mut body).unwrap();
            assert_eq!(body, vec![fill; 3 * FIRST_RESERVATION]);
            assert_eq!((body.as_ptr(), body.capacity()), (at, capacity));
        }
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let err = read_frame(&mut [0u8, 0, 0, 0, 42].as_slice(), &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn a_lying_header_costs_no_memory_and_fails_at_eof() {
        // 4 GiB announced, 3 bytes sent: the reader must notice the EOF
        // having reserved only the first-reservation bound.
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend([1, 2, 3, 4]);
        let mut body = Vec::new();
        let err = read_frame(&mut wire.as_slice(), &mut body).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(body.capacity() <= FIRST_RESERVATION, "{}", body.capacity());
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
