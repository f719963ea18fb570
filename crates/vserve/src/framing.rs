//! Framing: how protocol payloads become bytes on a stream.
//!
//! The wire layer is split into two orthogonal seams (DESIGN.md §17):
//! [`crate::wire::Io`] moves raw bytes, and [`BinaryFraming`] cuts the
//! byte stream into payload frames: a `u32` little-endian length prefix
//! per frame, at most [`MAX_FRAME`] bytes of payload, preceded by a
//! fixed 8-byte hello/accept handshake that negotiates and *pins*
//! [`visualinux::proto::VERSION`]. A version mismatch is answered with
//! a reject frame and surfaces as [`FrameError::VersionSkew`], naming
//! both versions — never a silent misparse. It is the only wire format:
//! a peer whose first bytes are not a hello is refused.
//!
//! Framing sits strictly *below* the `VCommand` layer: a frame carries
//! an opaque UTF-8 payload, so `.vrec` captures (which record target
//! wire packets, not client frames) do not depend on it.
//!
//! Decoding is incremental and panic-free: bytes accumulate in a
//! [`DecodeBuf`] that tracks absolute stream positions, `decode` yields
//! complete frames (or `None` for "need more bytes"), and every failure
//! — truncated length prefix, oversized declared length, mid-frame
//! close, garbage bytes — is a positioned [`FrameError`], which the
//! malformed-frame suite (`tests/wire_fuzz.rs`) pins.

use std::fmt;

use visualinux::proto::VERSION;

/// The largest payload a frame carries, on both ends: a peer's declared
/// length past it is [`FrameError::Oversize`], and the engine answers a
/// reply past it with an error instead.
pub const MAX_FRAME: usize = 64 << 20;

/// Client hello: `VWHI` + u16-LE version + u16-LE reserved (zero).
pub const HELLO_MAGIC: [u8; 4] = *b"VWHI";
/// Server accept: `VWOK` + the pinned u16-LE version + reserved.
pub const ACCEPT_MAGIC: [u8; 4] = *b"VWOK";
/// Server reject: `VWNO` + the server's u16-LE version + the client's.
pub const REJECT_MAGIC: [u8; 4] = *b"VWNO";
/// Every handshake frame is exactly this long.
pub const HANDSHAKE_LEN: usize = 8;

/// A framing failure. Every variant carries enough to say *where* the
/// stream went wrong; none of them is ever a panic or a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A declared frame length exceeds [`MAX_FRAME`].
    Oversize {
        /// Absolute stream offset of the offending length prefix.
        at: u64,
        /// What the prefix declared.
        declared: u64,
        /// The ceiling it broke.
        max: u64,
    },
    /// Bytes that cannot be part of a valid frame (non-UTF-8 payloads,
    /// malformed handshake magic).
    Garbage {
        /// Absolute stream offset of the first offending byte.
        at: u64,
        /// What was wrong with them.
        what: String,
    },
    /// The stream closed mid-frame: a partial length prefix, or a
    /// payload shorter than its prefix declared.
    Truncated {
        /// Absolute stream offset where the incomplete frame began.
        at: u64,
        /// Bytes of it that did arrive.
        have: usize,
        /// Bytes the frame needed to complete (0 = unknowable: the length
        /// prefix itself is incomplete).
        need: usize,
    },
    /// The hello/accept handshake found the two ends speaking different
    /// protocol revisions. Both are named; nothing was negotiated.
    VersionSkew {
        /// The local end's [`VERSION`].
        ours: u16,
        /// What the peer announced.
        theirs: u16,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { at, declared, max } => write!(
                f,
                "at byte {at}: declared frame length {declared} exceeds the {max}-byte ceiling"
            ),
            FrameError::Garbage { at, what } => write!(f, "at byte {at}: {what}"),
            FrameError::Truncated { at, have, need } => {
                if *need == 0 {
                    write!(f, "at byte {at}: stream closed mid-frame ({have} bytes in)")
                } else {
                    write!(
                        f,
                        "at byte {at}: stream closed mid-frame ({have} of {need} bytes)"
                    )
                }
            }
            FrameError::VersionSkew { ours, theirs } => write!(
                f,
                "wire protocol version skew: we speak v{ours}, the peer speaks v{theirs}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// An incremental decode buffer: bytes in, frames out, with absolute
/// stream positions for diagnostics. Consumed prefixes are compacted
/// opportunistically so a long-lived connection does not grow it.
#[derive(Default)]
pub struct DecodeBuf {
    buf: Vec<u8>,
    /// Consumed prefix within `buf`.
    start: usize,
    /// Absolute stream offset of `buf[start]`.
    pos: u64,
}

impl DecodeBuf {
    /// An empty buffer at stream offset zero.
    pub fn new() -> DecodeBuf {
        DecodeBuf::default()
    }

    /// Append bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether nothing is waiting to be decoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absolute stream offset of the next unconsumed byte.
    pub fn position(&self) -> u64 {
        self.pos
    }

    fn peek(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.start += n;
        self.pos += n as u64;
    }
}

/// Length-prefixed binary frames: `u32`-LE payload length, then that
/// many bytes of UTF-8 payload, at most [`MAX_FRAME`]. Preceded on the
/// wire by the hello/accept handshake (see module docs); the framing
/// itself is version-agnostic — the negotiated version pins the
/// *payload* protocol, and the prefix makes frame boundaries explicit so
/// a corrupted stream fails at a named byte offset instead of resyncing
/// on luck.
#[derive(Debug, Clone, Copy)]
pub struct BinaryFraming;

impl BinaryFraming {
    /// Append one encoded frame carrying `payload` to `out`. The payload
    /// must fit [`MAX_FRAME`]: the engine refuses larger replies, and
    /// `WireClient` larger requests, before they get here.
    pub fn encode(&self, payload: &str, out: &mut Vec<u8>) {
        debug_assert!(payload.len() <= MAX_FRAME);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload.as_bytes());
    }

    /// Decode one complete frame off the front of `buf`, consuming it.
    /// `Ok(None)` means the frame is not complete yet — feed more bytes.
    /// Errors are positioned and terminal for the stream.
    pub fn decode(&self, buf: &mut DecodeBuf) -> Result<Option<String>, FrameError> {
        let bytes = buf.peek();
        if bytes.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        if declared > MAX_FRAME {
            return Err(FrameError::Oversize {
                at: buf.position(),
                declared: declared as u64,
                max: MAX_FRAME as u64,
            });
        }
        let total = 4 + declared;
        if bytes.len() < total {
            return Ok(None);
        }
        let at = buf.position();
        let payload = std::str::from_utf8(&bytes[4..total])
            .map_err(|e| FrameError::Garbage {
                at: at + 4 + e.valid_up_to() as u64,
                what: "frame payload is not valid UTF-8".into(),
            })?
            .to_string();
        buf.consume(total);
        Ok(Some(payload))
    }

    /// End-of-stream check: the peer closed; is the residue a clean
    /// frame boundary? A mid-frame close is a positioned
    /// [`FrameError::Truncated`].
    pub fn finish(&self, buf: &DecodeBuf) -> Result<(), FrameError> {
        if buf.is_empty() {
            return Ok(());
        }
        let bytes = buf.peek();
        let need = if bytes.len() < 4 {
            0 // length prefix itself is incomplete
        } else {
            4 + u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize
        };
        Err(FrameError::Truncated {
            at: buf.position(),
            have: buf.len(),
            need,
        })
    }
}

/// The client hello frame announcing `version`.
pub fn hello_frame(version: u16) -> [u8; HANDSHAKE_LEN] {
    handshake_frame(HELLO_MAGIC, version, 0)
}

/// The server accept frame pinning `version`.
pub fn accept_frame(version: u16) -> [u8; HANDSHAKE_LEN] {
    handshake_frame(ACCEPT_MAGIC, version, 0)
}

/// The server reject frame, naming its own version and echoing the
/// client's so *both* ends can report the skew by name.
pub fn reject_frame(ours: u16, theirs: u16) -> [u8; HANDSHAKE_LEN] {
    handshake_frame(REJECT_MAGIC, ours, theirs)
}

fn handshake_frame(magic: [u8; 4], a: u16, b: u16) -> [u8; HANDSHAKE_LEN] {
    let mut f = [0u8; HANDSHAKE_LEN];
    f[..4].copy_from_slice(&magic);
    f[4..6].copy_from_slice(&a.to_le_bytes());
    f[6..8].copy_from_slice(&b.to_le_bytes());
    f
}

/// Server side: parse a client hello off the front of `buf`.
/// `Ok(None)` = incomplete; `Ok(Some(version))` = the client's
/// announced version (the *caller* decides accept/reject — see
/// [`negotiate_server`]).
pub fn parse_hello(buf: &mut DecodeBuf) -> Result<Option<u16>, FrameError> {
    let bytes = buf.peek();
    if bytes.is_empty() {
        return Ok(None);
    }
    let have = bytes.len().min(4);
    if bytes[..have] != HELLO_MAGIC[..have] {
        return Err(FrameError::Garbage {
            at: buf.position(),
            what: format!(
                "expected a VWHI hello frame for wire protocol v{VERSION}, got {:?}",
                &bytes[..bytes.len().min(8)]
            ),
        });
    }
    if bytes.len() < HANDSHAKE_LEN {
        return Ok(None);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    buf.consume(HANDSHAKE_LEN);
    Ok(Some(version))
}

/// Server side: check the client's announced version against [`VERSION`]
/// and produce the verdict frame to send back. `Err` carries the skew
/// (after the caller ships the reject frame, the connection is done).
pub fn negotiate_server(
    theirs: u16,
) -> Result<[u8; HANDSHAKE_LEN], (FrameError, [u8; HANDSHAKE_LEN])> {
    if theirs == VERSION {
        Ok(accept_frame(VERSION))
    } else {
        Err((
            FrameError::VersionSkew {
                ours: VERSION,
                theirs,
            },
            reject_frame(VERSION, theirs),
        ))
    }
}

/// Client side: parse the server's accept/reject verdict. `Ok(None)` =
/// incomplete; `Ok(Some(()))` = accepted at `ours`;
/// [`FrameError::VersionSkew`] on a reject (naming both versions) or on
/// an accept for a version we did not offer.
pub fn parse_verdict(buf: &mut DecodeBuf, ours: u16) -> Result<Option<()>, FrameError> {
    let bytes = buf.peek();
    if bytes.len() < HANDSHAKE_LEN {
        return Ok(None);
    }
    let magic: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
    let a = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    match magic {
        ACCEPT_MAGIC if a == ours => {
            buf.consume(HANDSHAKE_LEN);
            Ok(Some(()))
        }
        ACCEPT_MAGIC => Err(FrameError::VersionSkew { ours, theirs: a }),
        REJECT_MAGIC => Err(FrameError::VersionSkew { ours, theirs: a }),
        _ => Err(FrameError::Garbage {
            at: buf.position(),
            what: format!("expected a VWOK/VWNO verdict frame, got {magic:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_framing_round_trips_across_split_reads() {
        let f = BinaryFraming;
        let mut wire = Vec::new();
        f.encode("hello", &mut wire);
        f.encode("", &mut wire);
        f.encode(&"x".repeat(1000), &mut wire);
        // Feed one byte at a time: decode must never mis-frame.
        let mut buf = DecodeBuf::new();
        let mut out = Vec::new();
        for b in wire {
            buf.extend(&[b]);
            while let Some(p) = f.decode(&mut buf).unwrap() {
                out.push(p);
            }
        }
        f.finish(&buf).unwrap();
        assert_eq!(out, ["hello".to_string(), String::new(), "x".repeat(1000)]);
    }

    #[test]
    fn oversize_declared_length_errors_with_position() {
        let f = BinaryFraming;
        let mut buf = DecodeBuf::new();
        buf.extend(b"prefix-consumed\n");
        let skip = buf.len();
        buf.consume(skip);
        buf.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = f.decode(&mut buf).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversize {
                at: skip as u64,
                declared: MAX_FRAME as u64 + 1,
                max: MAX_FRAME as u64
            }
        );
        assert!(err.to_string().contains("at byte 16"), "{err}");
    }

    #[test]
    fn mid_frame_close_is_a_positioned_truncation() {
        let f = BinaryFraming;
        let mut buf = DecodeBuf::new();
        buf.extend(&10u32.to_le_bytes());
        buf.extend(b"abc"); // 3 of 10 payload bytes
        assert_eq!(f.decode(&mut buf).unwrap(), None);
        let err = f.finish(&buf).unwrap_err();
        assert_eq!(
            err,
            FrameError::Truncated {
                at: 0,
                have: 7,
                need: 14
            }
        );
        // A truncated length prefix alone is also reported.
        let mut buf = DecodeBuf::new();
        buf.extend(&[0x05, 0x00]);
        assert!(matches!(
            f.finish(&buf),
            Err(FrameError::Truncated { have: 2, .. })
        ));
    }

    #[test]
    fn non_utf8_payload_is_garbage_at_the_bad_byte() {
        let f = BinaryFraming;
        let mut buf = DecodeBuf::new();
        buf.extend(&4u32.to_le_bytes());
        buf.extend(&[b'o', b'k', 0xff, 0xfe]);
        let err = f.decode(&mut buf).unwrap_err();
        assert_eq!(
            err,
            FrameError::Garbage {
                at: 6,
                what: "frame payload is not valid UTF-8".into()
            }
        );
    }

    #[test]
    fn handshake_accepts_matching_versions() {
        let mut buf = DecodeBuf::new();
        buf.extend(&hello_frame(VERSION));
        let theirs = parse_hello(&mut buf).unwrap().unwrap();
        assert_eq!(theirs, VERSION);
        let verdict = negotiate_server(theirs).unwrap();
        let mut cbuf = DecodeBuf::new();
        cbuf.extend(&verdict);
        assert_eq!(parse_verdict(&mut cbuf, VERSION).unwrap(), Some(()));
    }

    #[test]
    fn handshake_skew_names_both_versions_on_both_ends() {
        let (err, reject) = negotiate_server(9999).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("v{VERSION}")), "{msg}");
        assert!(msg.contains("v9999"), "{msg}");
        // The client decodes the reject into the mirrored skew.
        let mut buf = DecodeBuf::new();
        buf.extend(&reject);
        let err = parse_verdict(&mut buf, 9999).unwrap_err();
        assert_eq!(
            err,
            FrameError::VersionSkew {
                ours: 9999,
                theirs: VERSION
            }
        );
    }
}
