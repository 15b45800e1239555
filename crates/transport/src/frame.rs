//! Length-prefixed, checksummed frames over a byte stream.
//!
//! Every message on a socket connection travels as one frame:
//!
//! ```text
//! [0..4)    body length L        (u32, little-endian)
//! [4..8)    checksum             (low 32 bits of FNV-1a-64 of the body)
//! [8..8+L)  body                 (Msg::encode_transport bytes, or a hello)
//! ```
//!
//! The 8-byte header is the *entire* per-message transport overhead, so
//! the socket driver runs with `StoreConfig::header_bytes ==`
//! [`HEADER_BYTES`] and the nodes' wire ledgers charge exactly the
//! bytes written to the socket (`Msg::wire_size == encode_transport
//! len`, plus this header) — honest accounting, not a modeled constant.
//!
//! A stream decoder cannot resynchronise after corruption (there is no
//! frame delimiter to hunt for), so every decode failure — truncated
//! header or body, oversized length, checksum mismatch — is terminal
//! for the connection: the caller drops it and lets the dialer
//! reconnect. That maps corruption onto the protocol's existing
//! wire-loss semantics instead of risking a desynchronised parse.

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};

use storage::fnv1a64;

/// Bytes of framing overhead per message: 4-byte length + 4-byte
/// checksum.
pub const HEADER_BYTES: usize = 8;

/// Default cap on a frame body. Protocol messages are far smaller; a
/// length field beyond this is treated as stream corruption rather than
/// an allocation request.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed mid-frame (including EOF after a
    /// partial header or body — a torn frame).
    Io(io::Error),
    /// The header announced a body larger than the configured cap.
    TooLarge {
        /// The announced body length.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The body did not match the header's checksum.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max}")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The checksum field for `body`: FNV-1a-64 truncated to 32 bits (the
/// same hash the storage log's records use for torn-write detection).
fn checksum(body: &[u8]) -> u32 {
    fnv1a64(body) as u32
}

/// Appends one frame to `buf` in place: reserves the header, lets
/// `body` write the body straight after it, then patches in the body's
/// length and checksum. Frames appended back to back are a stream
/// [`read_frame`] and [`FrameParser`] read one by one.
///
/// # Panics
///
/// Panics if the body `body` wrote is longer than a `u32` can count.
pub fn append_frame(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; HEADER_BYTES]);
    body(buf);
    let (header, body) = buf[at..].split_at_mut(HEADER_BYTES);
    let len = u32::try_from(body.len()).expect("a frame body fits a u32 length");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum(body).to_le_bytes());
}

/// One frame, header and body, as the bytes that go on the wire.
pub(crate) fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + body.len());
    append_frame(&mut buf, |b| b.extend_from_slice(body));
    buf
}

/// Writes one frame (header + body) to `w`. A single buffered
/// `write_all`, so a frame is either queued to the OS in full or the
/// write fails — there is no partial-frame success path.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(body))
}

/// Reads one frame body from `r`.
///
/// Returns `Ok(None)` on a clean EOF *at a frame boundary* (the peer
/// closed between frames). EOF inside a header or body is a torn frame
/// and surfaces as [`FrameError::Io`]. Handles short reads (partial TCP
/// segments) transparently via `read_exact`.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    // First byte decides clean-close vs torn frame.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut header[1..])?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > max_frame {
        return Err(FrameError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    if checksum(&body) != want {
        return Err(FrameError::BadChecksum);
    }
    Ok(Some(body))
}

/// What a [`FrameParser`] reads per call while its frames fit.
const READ_CHUNK: usize = 16 << 10;

/// [`read_frame`] for a stream that is read whenever it has bytes, not
/// when a frame is wanted: a non-blocking socket's reads fill this
/// buffer, and complete frames are parsed out of it in place. Over the
/// same bytes it yields what [`read_frame`] yields — the same bodies, and
/// the same error at the same frame: [`FrameError::TooLarge`] from the
/// header alone (a body beyond the cap is never buffered),
/// [`FrameError::BadChecksum`], and a torn tail as
/// [`FrameError::Io`]`(UnexpectedEof)` from [`finish`](Self::finish).
#[derive(Default)]
pub struct FrameParser {
    buf: Vec<u8>,
    /// Parsed up to here.
    start: usize,
    /// Filled up to here.
    end: usize,
}

impl fmt::Debug for FrameParser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameParser")
            .field("buffered", &(self.end - self.start))
            .finish_non_exhaustive()
    }
}

impl FrameParser {
    /// An empty parser; its buffer is allocated by the first read.
    pub fn new() -> Self {
        Self::default()
    }

    /// One `read` from `r` into the free end of the buffer, after making
    /// room: parsed bytes are reclaimed, and a frame longer than the
    /// buffer grows it. Returns what `read` returned — `Ok(0)` is the end
    /// of the stream, to be judged by [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// Whatever `r.read` returns, `WouldBlock` included.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let grown = (2 * self.buf.len()).max(READ_CHUNK);
                self.buf.resize(grown, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame's body, borrowed from the buffer until the
    /// next call; `Ok(None)` while the buffer holds less than a frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] as soon as a header announces a body over
    /// `max_frame`, [`FrameError::BadChecksum`] for a body that does not
    /// match its header. Both are terminal for the stream.
    pub fn next_frame(&mut self, max_frame: usize) -> Result<Option<&[u8]>, FrameError> {
        let held = &self.buf[self.start..self.end];
        let Some(header) = held.get(..HEADER_BYTES) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let want = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > max_frame {
            return Err(FrameError::TooLarge {
                len,
                max: max_frame,
            });
        }
        if held.len() < HEADER_BYTES + len {
            return Ok(None);
        }
        let body_at = self.start + HEADER_BYTES;
        self.start = body_at + len;
        let body = &self.buf[body_at..self.start];
        if checksum(body) != want {
            return Err(FrameError::BadChecksum);
        }
        Ok(Some(body))
    }

    /// Whether the buffer has no free space left — after a read, that the
    /// read took all it was offered and the stream may hold more.
    pub(crate) fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// Judges the end of the stream: clean at a frame boundary.
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] with [`ErrorKind::UnexpectedEof`] when the
    /// stream ended inside a frame — a torn frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.start == self.end {
            Ok(())
        } else {
            Err(FrameError::Io(ErrorKind::UnexpectedEof.into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrips_and_reports_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 300]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), vec![0xAB; 300]);
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    /// A signal storm costs iterations, not stack: the retry of an
    /// interrupted first read is a loop.
    #[test]
    fn interrupted_reads_are_retried_in_place() {
        struct Stormy<R>(u32, R);
        impl<R: Read> Read for Stormy<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0 > 0 {
                    self.0 -= 1;
                    return Err(ErrorKind::Interrupted.into());
                }
                self.1.read(buf)
            }
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, b"after the storm").unwrap();
        let mut r = Stormy(10_000, Cursor::new(buf));
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().unwrap(),
            b"after the storm"
        );
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { .. }));
    }

    #[test]
    fn torn_header_and_torn_body_are_io_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload").unwrap();
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut]), 1024).unwrap_err();
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn corrupt_body_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum));
    }
}
