//! Property coverage for the socket frame decoder: whatever the stream
//! does — arrives one byte at a time, tears mid-frame, announces an
//! absurd length, or flips a bit anywhere — the decoder never panics
//! and never silently desynchronises. Valid prefixes decode exactly;
//! the first corruption is a terminal, *detected* error (the connection
//! layer responds by dropping the connection, which the protocol
//! already tolerates as wire loss).

use std::io::Read;

use proptest::collection::vec;
use proptest::prelude::*;
use transport::frame::append_frame;
use transport::{read_frame, write_frame, FrameError, FrameParser, HEADER_BYTES};

const MAX_FRAME: usize = 1 << 16;

/// A reader that hands out at most `chunk` bytes per call — models TCP
/// delivering partial segments. `read_frame` must reassemble
/// transparently.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn arb_bodies() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..200), 1..6)
}

fn encode_stream(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for b in bodies {
        write_frame(&mut out, b).unwrap();
    }
    out
}

proptest! {
    /// Partial reads never corrupt reassembly: any chunk size yields
    /// the identical frame sequence and a clean close.
    #[test]
    fn chunked_reads_reassemble_exactly(bodies in arb_bodies(), chunk in 1usize..17) {
        let stream = encode_stream(&bodies);
        let mut r = Chunked { data: &stream, pos: 0, chunk };
        for body in &bodies {
            let got = read_frame(&mut r, MAX_FRAME).unwrap().expect("frame");
            prop_assert_eq!(&got, body);
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// A stream cut at an arbitrary byte: every fully-contained frame
    /// decodes exactly; the cut frame surfaces as a detected error
    /// (torn i/o) or, if the cut lands on a frame boundary, a clean
    /// close. Never a panic, never a wrong frame.
    #[test]
    fn torn_streams_fail_detectably(bodies in arb_bodies(), cut_seed in any::<u64>()) {
        let stream = encode_stream(&bodies);
        let cut = (cut_seed as usize) % (stream.len() + 1);
        let mut r = &stream[..cut];
        let mut offset = 0usize;
        for body in &bodies {
            let end = offset + HEADER_BYTES + body.len();
            if end <= cut {
                // Fully inside the kept prefix: must decode exactly.
                let got = read_frame(&mut r, MAX_FRAME).unwrap().expect("frame");
                prop_assert_eq!(&got, body);
                offset = end;
            } else {
                // The torn frame: boundary cut reads as clean close,
                // anything else is a detected i/o tear.
                match read_frame(&mut r, MAX_FRAME) {
                    Ok(None) => prop_assert_eq!(cut, offset, "clean close off-boundary"),
                    Ok(Some(_)) => prop_assert!(false, "decoded a torn frame"),
                    Err(FrameError::Io(_)) => {}
                    Err(e) => prop_assert!(false, "unexpected error class: {e}"),
                }
                return Ok(());
            }
        }
        prop_assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    /// A bit flipped anywhere in the stream: frames before the flip
    /// decode exactly; the flipped frame NEVER decodes to different
    /// bytes than were sent — it errors (checksum/oversize/tear), the
    /// flip lands in a don't-care... it doesn't: every byte is covered
    /// by length, checksum, or body, so the outcome is an error or an
    /// identical frame is impossible. Assert: no panic, no silent
    /// wrong-body success.
    #[test]
    fn bit_flips_never_yield_wrong_bytes(bodies in arb_bodies(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let mut stream = encode_stream(&bodies);
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= 1 << bit;
        let mut r = stream.as_slice();
        for body in &bodies {
            match read_frame(&mut r, MAX_FRAME) {
                Ok(Some(got)) => prop_assert_eq!(
                    &got, body,
                    "decoder returned bytes that were never sent"
                ),
                // Detected corruption: terminal for the connection.
                Ok(None) | Err(_) => return Ok(()),
            }
        }
        // Flip must have been detected somewhere (it can't be a no-op:
        // every stream byte is load-bearing).
        prop_assert!(false, "bit flip at {pos} went completely unnoticed");
    }

    /// An announced length beyond the cap is rejected before any
    /// allocation, whatever follows it.
    #[test]
    fn oversized_lengths_are_rejected(len in (MAX_FRAME as u32 + 1)..u32::MAX, tail in vec(any::<u8>(), 0..16)) {
        let mut stream = Vec::new();
        stream.extend_from_slice(&len.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&tail);
        match read_frame(&mut stream.as_slice(), MAX_FRAME) {
            Err(FrameError::TooLarge { len: got, max }) => {
                prop_assert_eq!(got, len as usize);
                prop_assert_eq!(max, MAX_FRAME);
            }
            other => prop_assert!(false, "expected TooLarge, got {:?}", other.map(|_| ())),
        }
    }

    /// The in-place parser a poller reads with agrees with `read_frame`
    /// over the whole stream, however the stream is split into reads:
    /// the same frames, then the same end — clean, torn, oversized or a
    /// failed checksum, at the same frame. An oversized length is caught
    /// from the header alone: here no byte of its body is ever sent.
    #[test]
    fn split_reads_parse_in_place_as_read_frame_does(
        bodies in arb_bodies(),
        damage in 0u8..4,
        seed in any::<u64>(),
        bit in 0u8..8,
        big in (MAX_FRAME as u32 + 1)..u32::MAX,
        splits in vec(1usize..40, 1..8),
    ) {
        let mut stream = encode_stream(&bodies);
        match damage {
            0 => {}
            1 => stream.truncate(seed as usize % (stream.len() + 1)),
            2 => {
                let pos = seed as usize % stream.len();
                stream[pos] ^= 1 << bit;
            }
            _ => {
                stream.extend_from_slice(&big.to_le_bytes());
                stream.extend_from_slice(&0u32.to_le_bytes());
            }
        }
        prop_assert_eq!(in_place(&stream, &splits), whole(&stream));
    }

    /// Frames appended back to back into one buffer, each body written
    /// in place behind its reserved header, are the stream `write_frame`
    /// writes: `read_frame` yields the bodies, and so does the parser
    /// under any read split.
    #[test]
    fn appended_frames_parse_as_written_ones(
        bodies in arb_bodies(),
        splits in vec(1usize..40, 1..8),
    ) {
        let mut stream = b"ahead".to_vec();
        for body in &bodies {
            append_frame(&mut stream, |buf| buf.extend_from_slice(body));
        }
        prop_assert_eq!(&stream[..5], b"ahead");
        let stream = &stream[5..];
        prop_assert_eq!(stream, &encode_stream(&bodies)[..]);
        let mut want: Vec<Seen> = bodies.iter().cloned().map(Seen::Frame).collect();
        want.push(Seen::End);
        prop_assert_eq!(&whole(stream), &want);
        prop_assert_eq!(in_place(stream, &splits), want);
    }
}

/// What a decoder made of a stream: its frames, then how it ended.
#[derive(Debug, PartialEq)]
enum Seen {
    Frame(Vec<u8>),
    End,
    Torn,
    TooLarge(usize),
    BadChecksum,
}

fn ending(e: FrameError) -> Seen {
    match e {
        FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Seen::Torn,
        FrameError::Io(e) => panic!("no other i/o error is possible here: {e}"),
        FrameError::TooLarge { len, max } => {
            assert_eq!(max, MAX_FRAME);
            Seen::TooLarge(len)
        }
        FrameError::BadChecksum => Seen::BadChecksum,
    }
}

/// `read_frame` over the whole stream.
fn whole(stream: &[u8]) -> Vec<Seen> {
    let mut r = stream;
    let mut seen = Vec::new();
    loop {
        match read_frame(&mut r, MAX_FRAME) {
            Ok(Some(body)) => seen.push(Seen::Frame(body)),
            Ok(None) => break seen.push(Seen::End),
            Err(e) => break seen.push(ending(e)),
        }
    }
    seen
}

/// A [`FrameParser`] fed by reads of the sizes in `splits`, in turn.
fn in_place(stream: &[u8], splits: &[usize]) -> Vec<Seen> {
    struct Split<'a> {
        data: &'a [u8],
        splits: &'a [usize],
        reads: usize,
    }
    impl Read for Split<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf
                .len()
                .min(self.splits[self.reads % self.splits.len()])
                .min(self.data.len());
            self.reads += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }
    let mut r = Split {
        data: stream,
        splits,
        reads: 0,
    };
    let mut parser = FrameParser::new();
    let mut seen = Vec::new();
    loop {
        if parser.read_from(&mut r).expect("reads from memory") == 0 {
            seen.push(parser.finish().map_or_else(ending, |()| Seen::End));
            return seen;
        }
        loop {
            match parser.next_frame(MAX_FRAME) {
                Ok(Some(body)) => seen.push(Seen::Frame(body.to_vec())),
                Ok(None) => break,
                Err(e) => {
                    seen.push(ending(e));
                    return seen;
                }
            }
        }
    }
}
