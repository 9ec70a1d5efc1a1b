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
//!
//! A large payload need not enter that buffer at all. The one writer,
//! [`write_spliced_frame`], sends the header, the buffer and borrowed
//! [`Splice`]s — a payload spliced in at a recorded offset of the buffer —
//! in one `write_vectored` loop, so a matrix a frame carries goes to the
//! socket from the memory that holds it, and every frame is one syscall
//! (more only when the socket takes part of it). [`write_frame`] is its
//! one-part call. The bytes on the wire are the same either way.

use std::borrow::Cow;
use std::io::{Error, ErrorKind, IoSlice, Read, Result, Write};
use std::iter::once;

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
    write_spliced_frame(stream, tag, body, &[])
}

/// A payload a frame carries without copying it into the frame's buffer:
/// its bytes go on the wire at offset `at` of the buffer, before the
/// buffer's byte `at`.
#[derive(Debug, Clone)]
pub struct Splice<'a> {
    /// Where in the buffer the payload goes.
    pub at: usize,
    /// The payload: borrowed from the memory that holds it, or owned
    /// where it had to be converted.
    pub bytes: Cow<'a, [u8]>,
}

impl<'a> Splice<'a> {
    /// `bytes`, spliced in at offset `at`.
    pub fn new(at: usize, bytes: impl Into<Cow<'a, [u8]>>) -> Self {
        Splice {
            at,
            bytes: bytes.into(),
        }
    }
}

/// `IoSlice`s offered to one `write_vectored` call at most; a frame of
/// more parts than this is sent in several calls, a window at a time.
const WINDOW: usize = 16;

/// Writes one frame whose body is `buf` with each splice's bytes inserted
/// at its offset, and flushes. The splices come in order of their offsets
/// (equal offsets are sent in the order given), each at most `buf.len()`;
/// an empty one sends nothing.
///
/// The whole frame is checked before any byte is written: a splice out of
/// order or past the buffer is [`ErrorKind::InvalidInput`], and so is a
/// body, splices included, that the `u32` length field cannot represent.
/// The write keeps `write_all`'s contract: a partial write is resumed
/// where it stopped, an [`ErrorKind::Interrupted`] write is retried, and a
/// write of no bytes is [`ErrorKind::WriteZero`].
pub fn write_spliced_frame<W: Write>(
    stream: &mut W,
    tag: u8,
    buf: &[u8],
    splices: &[Splice<'_>],
) -> Result<()> {
    let mut from = 0;
    for splice in splices {
        if splice.at < from || splice.at > buf.len() {
            let what = format!(
                "splice at {} follows one at {from} or lies past the {}-byte buffer",
                splice.at,
                buf.len()
            );
            return Err(Error::new(ErrorKind::InvalidInput, what));
        }
        from = splice.at;
    }
    let body_len = splices
        .iter()
        .try_fold(buf.len(), |n, s| n.checked_add(s.bytes.len()))
        .unwrap_or(usize::MAX);
    let header = frame_header(tag, body_len)?;
    // The buffer cut at every splice, each cut followed by its splice.
    let offsets = || splices.iter().map(|s| s.at);
    let cuts = once(0)
        .chain(offsets())
        .zip(offsets().chain(once(buf.len())));
    let mut payloads = splices.iter().map(|s| &*s.bytes);
    let body = cuts.flat_map(move |(start, end)| once(&buf[start..end]).chain(payloads.next()));
    write_all_parts(stream, once(&header[..]).chain(body))?;
    stream.flush()
}

/// `write_all` over the concatenation of `parts`, through
/// `write_vectored`: a window of up to [`WINDOW`] non-empty parts per
/// call, advanced past what each call wrote and refilled from `parts`.
fn write_all_parts<'p, W: Write>(
    stream: &mut W,
    parts: impl Iterator<Item = &'p [u8]>,
) -> Result<()> {
    let mut parts = parts.filter(|part| !part.is_empty());
    let mut window = [IoSlice::new(&[]); WINDOW];
    let mut filled = 0;
    loop {
        for slot in &mut window[filled..] {
            let Some(part) = parts.next() else { break };
            *slot = IoSlice::new(part);
            filled += 1;
        }
        if filled == 0 {
            return Ok(());
        }
        let mut pending = &mut window[..filled];
        match stream.write_vectored(pending) {
            Ok(0) => {
                return Err(Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let left = pending.len();
        window.copy_within(filled - left..filled, 0);
        filled = left;
    }
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

    /// A socket at its worst: each call takes 1 to 7 bytes, every third
    /// is interrupted, and `write_vectored` is std's default, which writes
    /// only the first non-empty slice.
    #[derive(Default)]
    struct Trickle {
        wire: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(Error::new(ErrorKind::Interrupted, "signal"));
            }
            let n = buf.len().min(1 + self.calls * 5 % 7);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }

    /// `buf` with every splice's bytes inserted at its offset: the body a
    /// spliced frame must put on the wire.
    fn contiguous(buf: &[u8], splices: &[Splice<'_>]) -> Vec<u8> {
        let mut body = Vec::new();
        let mut from = 0;
        for s in splices {
            body.extend_from_slice(&buf[from..s.at]);
            body.extend_from_slice(&s.bytes);
            from = s.at;
        }
        body.extend_from_slice(&buf[from..]);
        body
    }

    #[test]
    fn a_spliced_frame_is_the_contiguous_frame_through_any_socket() {
        let buf: Vec<u8> = (0..40).collect();
        let long: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let cases: Vec<Vec<Splice<'_>>> = vec![
            vec![],
            vec![Splice::new(0, &b"head"[..])],
            vec![Splice::new(buf.len(), &b"tail"[..])],
            vec![
                Splice::new(0, &b"at-0"[..]),
                Splice::new(9, &long[..]),
                Splice::new(9, &b"adjacent"[..]),
                Splice::new(9, &[][..]),
                Splice::new(20, &[][..]),
                Splice::new(buf.len(), &b"end"[..]),
                Splice::new(buf.len(), vec![1, 2, 3]),
            ],
            // More parts than one write_vectored window offers.
            (0..=buf.len())
                .map(|at| Splice::new(at, &long[at..at + 3]))
                .collect(),
        ];
        for splices in &cases {
            let expected = contiguous(&buf, splices);
            let mut socket = Trickle::default();
            write_spliced_frame(&mut socket, 6, &buf, splices).unwrap();
            let mut contiguous_wire = Vec::new();
            write_frame(&mut contiguous_wire, 6, &expected).unwrap();
            assert_eq!(socket.wire, contiguous_wire, "{} splices", splices.len());
            let mut body = Vec::new();
            assert_eq!(
                read_frame(&mut socket.wire.as_slice(), &mut body).unwrap(),
                6
            );
            assert_eq!(body, expected);
        }
        // An empty buffer whose whole body is splices.
        let mut socket = Trickle::default();
        let splices = [Splice::new(0, &long[..]), Splice::new(0, &b"x"[..])];
        write_spliced_frame(&mut socket, 1, &[], &splices).unwrap();
        let mut body = Vec::new();
        read_frame(&mut socket.wire.as_slice(), &mut body).unwrap();
        assert_eq!(body, contiguous(&[], &splices));
    }

    #[test]
    fn a_socket_that_takes_nothing_is_write_zero() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let err = write_spliced_frame(&mut Full, 1, b"body", &[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    /// A socket that fails any write, so a frame refused before its first
    /// byte is told apart from one refused by the socket.
    struct Untouched;

    impl Write for Untouched {
        fn write(&mut self, _: &[u8]) -> Result<usize> {
            Err(Error::other("a byte was written"))
        }

        fn flush(&mut self) -> Result<()> {
            Err(Error::other("flushed"))
        }
    }

    #[test]
    fn a_bad_splice_or_an_oversize_total_writes_nothing() {
        let buf = [1u8, 2, 3];
        // Lent from one 2 GiB zeroed mapping whose pages are never touched.
        let half = vec![0u8; 1 << 31];
        let cases = [
            vec![Splice::new(4, &b"x"[..])],
            vec![Splice::new(usize::MAX, &[][..])],
            vec![Splice::new(2, &b"x"[..]), Splice::new(1, &b"y"[..])],
            // One byte over the largest body: 3 + 2^31 + 2^31 - 4 = 2^32 - 1.
            vec![
                Splice::new(0, &half[..]),
                Splice::new(3, &half[..(1 << 31) - 4]),
            ],
        ];
        for splices in &cases {
            let err = write_spliced_frame(&mut Untouched, 1, &buf, splices).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        }
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
