//! Length-prefixed framing for the query protocol.
//!
//! One frame on the wire is a big-endian `u32` payload length followed by
//! exactly that many payload bytes. The codec is transport-agnostic
//! (generic over [`std::io::Read`]/[`std::io::Write`]) and enforces a
//! caller-supplied hard cap on the declared length *before* allocating
//! anything, so a hostile peer cannot make the reader balloon memory by
//! sending four bytes.
//!
//! What the payload bytes mean is the next layer's business
//! (`rtbh_core::serve` defines the request/response grammar); this module
//! only guarantees that both sides agree on frame boundaries and that a
//! torn or oversized frame surfaces as a clean [`FrameError`], never a
//! panic.
//!
//! ```
//! use rtbh_net::frame::{read_frame, write_frame};
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, b"hello").unwrap();
//! let mut cursor = &wire[..];
//! assert_eq!(read_frame(&mut cursor, 64).unwrap(), Some(b"hello".to_vec()));
//! // Clean EOF between frames is "no more frames", not an error.
//! assert_eq!(read_frame(&mut cursor, 64).unwrap(), None);
//! ```

use std::io::{self, Read, Write};

/// Reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the reader's hard cap.
    TooLarge {
        /// The length the peer declared.
        declared: u32,
        /// The cap the reader enforces.
        max: usize,
    },
    /// The stream ended inside a frame (after the length prefix started
    /// but before the payload completed).
    Truncated,
    /// An underlying I/O error (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            Self::Truncated => write!(f, "stream ended mid-frame"),
            Self::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary) and [`FrameError::Truncated`] if the stream dies mid-frame.
/// The declared length is checked against `max_payload` before any
/// allocation.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_raw = [0u8; 4];
    // The first byte distinguishes "no more frames" from "torn frame".
    match r.read(&mut len_raw[..1])? {
        0 => return Ok(None),
        1 => {}
        _ => unreachable!("read of a 1-byte buffer returned more than 1"),
    }
    r.read_exact(&mut len_raw[1..]).map_err(truncated_on_eof)?;
    let declared = u32::from_be_bytes(len_raw);
    if declared as usize > max_payload {
        return Err(FrameError::TooLarge {
            declared,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; declared as usize];
    r.read_exact(&mut payload).map_err(truncated_on_eof)?;
    Ok(Some(payload))
}

fn truncated_on_eof(e: io::Error) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Truncated
    } else {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed frame (length prefix + payload, one
/// `write_all` each). Panics if `payload` exceeds `u32::MAX` bytes, which
/// would be a caller bug — both sides of this protocol cap frames far
/// below that.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_multiple_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, &[0xFFu8; 300]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r, 1024).unwrap(), Some(b"abc".to_vec()));
        assert_eq!(read_frame(&mut r, 1024).unwrap(), Some(vec![0xFF; 300]));
        assert_eq!(read_frame(&mut r, 1024).unwrap(), None);
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &wire[..];
        match read_frame(&mut r, 4096) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX);
                assert_eq!(max, 4096);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn torn_frames_are_truncated_not_eof() {
        // Length prefix cut short.
        let mut r = &[0x00u8, 0x00][..];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
        // Payload cut short.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = &wire[..];
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Truncated)));
    }

    #[test]
    fn exact_cap_is_allowed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7u8; 64]).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), Some(vec![7u8; 64]));
    }
}
