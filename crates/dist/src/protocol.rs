//! Versioned, length-prefixed, CRC-checked binary frame protocol spoken
//! between the broker and its workers over each worker's stdin (broker →
//! worker) and stdout (worker → broker) — five frame kinds, and nothing
//! else speaks it (the serve daemon's plane is plain text,
//! `datamime::servectl`). Closing the worker's stdin is the only stop.
//!
//! Wire layout of one frame (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0xD157_F4A3
//! 4       2     version      PROTOCOL_VERSION of the sender
//! 6       1     kind         frame discriminant (see `Frame`)
//! 7       1     reserved     must be zero
//! 8       4     payload_len  bytes of payload that follow
//! 12      n     payload      kind-specific encoding
//! 12+n    4     crc32        IEEE CRC-32 of the payload bytes
//! ```
//!
//! Floats cross the wire as raw IEEE-754 bit patterns (`f64::to_bits`),
//! never as decimal text, so an evaluation result decodes to exactly the
//! f64 the worker computed — a prerequisite for the bit-identical
//! determinism guarantee of the distributed backend (DESIGN.md §8).
//!
//! Version negotiation happens twice: the frame header carries the
//! sender's protocol version and [`read_frame`] rejects a mismatch
//! outright, and the `Hello` payload repeats it alongside the context
//! fingerprint and worker-binary identity so the broker can reject a
//! skewed worker with a clear error even if the header happened to agree.

// Supervised evaluation path: no panics outside tests (crates/audit/README.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use datamime_runtime::fingerprint;
use std::io::{Read, Write};

/// Protocol version spoken by this build. Bump on any change to the
/// frame header or payload encodings; the golden test
/// `wire_format_is_pinned_to_its_version` pins it with the bytes of one
/// frame of each kind and fails until both move together.
pub const PROTOCOL_VERSION: u16 = 2;

/// Manually-bumped revision of the evaluation semantics carried over the
/// wire (stage naming, unit encoding, error classification). Folded into
/// [`worker_identity`] so a worker binary built from different evaluation
/// code can never satisfy a broker expecting this build's semantics.
pub const WIRE_REVISION: u32 = 6;

/// Frame magic ("DIST", mangled). A connection that opens with anything
/// else is not speaking this protocol.
pub const FRAME_MAGIC: u32 = 0xD157_F4A3;

/// Upper bound on the payload of a single frame. Evaluation points are a
/// handful of f64s and stage tables are a few entries, so anything near
/// this limit indicates a corrupt or hostile peer rather than real data.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Fingerprint identifying the worker binary's evaluation semantics:
/// protocol version, wire revision, and the crate version baked in at
/// compile time. Both ends compute it from their own build; the broker
/// rejects a `Hello` whose identity differs from its own.
pub fn worker_identity() -> u64 {
    let mut pkg = 0xcbf2_9ce4_8422_2325u64;
    for b in env!("CARGO_PKG_VERSION").bytes() {
        pkg ^= u64::from(b);
        pkg = pkg.wrapping_mul(0x100_0000_01b3);
    }
    fingerprint(&[u64::from(PROTOCOL_VERSION), u64::from(WIRE_REVISION), pkg])
}

/// One message on the broker–worker wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → broker, the worker's first frame: identifies what it was
    /// built to evaluate.
    Hello {
        /// Protocol version the worker speaks.
        protocol_version: u16,
        /// Evaluation-context fingerprint the worker derived from its
        /// command line (must match the broker's).
        ctx_fingerprint: u64,
        /// [`worker_identity`] of the worker binary.
        identity: u64,
    },
    /// Broker → worker: handshake accepted; evaluation requests follow.
    HelloAck {
        /// Protocol version the broker speaks.
        protocol_version: u16,
    },
    /// Broker → worker: evaluate one candidate point.
    Eval {
        /// Global evaluation index (journal/observation order).
        index: u64,
        /// Supervision attempt number (0-based), for fault plans.
        attempt: u32,
        /// Dispatch number (0-based): how many times this point has been
        /// handed to a worker, including transparent re-dispatches after
        /// a worker died. Lets a fault plan kill only the first dispatch.
        dispatch: u32,
        /// Candidate point in `[0,1]^d`, as raw f64 bits.
        unit_bits: Vec<u64>,
    },
    /// Worker → broker: evaluation finished with a finite objective.
    EvalOk {
        /// Echoed evaluation index.
        index: u64,
        /// Objective value as raw f64 bits.
        error_bits: u64,
        /// Per-stage wall-clock milliseconds, as raw f64 bits.
        stage_ms: Vec<(String, u64)>,
    },
    /// Worker → broker: evaluation failed (panic caught in the worker,
    /// or a non-finite objective).
    EvalErr {
        /// Echoed evaluation index.
        index: u64,
        /// [`datamime_runtime::FailureKind`] tag, e.g. `"panic"`.
        kind: String,
        /// Human-readable failure detail.
        detail: String,
    },
}

impl Frame {
    /// The kind byte. 6–18 are retired (a liveness probe nothing sent, a
    /// `Shutdown` that said what closing stdin says, and the serve
    /// daemon's job frames before its plane became one line grammar —
    /// `datamime::servectl`) and are never reused.
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloAck { .. } => 2,
            Frame::Eval { .. } => 3,
            Frame::EvalOk { .. } => 4,
            Frame::EvalErr { .. } => 5,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// An I/O error from the underlying pipe or stream.
    Io(std::io::Error),
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic(u32),
    /// The frame header advertised a protocol version other than ours.
    VersionMismatch {
        /// Version the peer sent.
        got: u16,
        /// Version this build speaks.
        want: u16,
    },
    /// The payload length exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload checksum did not match its contents.
    CrcMismatch {
        /// Checksum carried by the frame.
        got: u32,
        /// Checksum computed over the received payload.
        want: u32,
    },
    /// The frame kind byte was not a known discriminant.
    UnknownKind(u8),
    /// The payload was structurally invalid for its kind.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Closed => write!(f, "peer closed the connection"),
            ProtocolError::Io(e) => write!(f, "I/O error: {e}"),
            ProtocolError::BadMagic(m) => {
                write!(
                    f,
                    "bad frame magic {m:#010x} (expected {FRAME_MAGIC:#010x})"
                )
            }
            ProtocolError::VersionMismatch { got, want } => write!(
                f,
                "protocol version mismatch: peer speaks v{got}, this build speaks v{want}"
            ),
            ProtocolError::Oversized(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte limit"
                )
            }
            ProtocolError::CrcMismatch { got, want } => {
                write!(
                    f,
                    "payload CRC mismatch: frame says {got:#010x}, contents hash to {want:#010x}"
                )
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Malformed("frame truncated mid-payload")
        } else {
            ProtocolError::Io(e)
        }
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `data` (the polynomial used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- payload primitives ----------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a payload slice.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtocolError::Malformed("payload shorter than declared"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| ProtocolError::Malformed("string field is not UTF-8"))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes after payload"))
        }
    }
}

// ---- encode ----------------------------------------------------------

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut p = Vec::new();
    match frame {
        Frame::Hello {
            protocol_version,
            ctx_fingerprint,
            identity,
        } => {
            put_u16(&mut p, *protocol_version);
            put_u64(&mut p, *ctx_fingerprint);
            put_u64(&mut p, *identity);
        }
        Frame::HelloAck { protocol_version } => put_u16(&mut p, *protocol_version),
        Frame::Eval {
            index,
            attempt,
            dispatch,
            unit_bits,
        } => {
            put_u64(&mut p, *index);
            put_u32(&mut p, *attempt);
            put_u32(&mut p, *dispatch);
            put_u32(&mut p, unit_bits.len() as u32);
            for &b in unit_bits {
                put_u64(&mut p, b);
            }
        }
        Frame::EvalOk {
            index,
            error_bits,
            stage_ms,
        } => {
            put_u64(&mut p, *index);
            put_u64(&mut p, *error_bits);
            put_u32(&mut p, stage_ms.len() as u32);
            for (name, ms_bits) in stage_ms {
                put_str(&mut p, name);
                put_u64(&mut p, *ms_bits);
            }
        }
        Frame::EvalErr {
            index,
            kind,
            detail,
        } => {
            put_u64(&mut p, *index);
            put_str(&mut p, kind);
            put_str(&mut p, detail);
        }
    }
    p
}

/// Serializes `frame` to its complete wire representation.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(16 + payload.len());
    put_u32(&mut out, FRAME_MAGIC);
    put_u16(&mut out, PROTOCOL_VERSION);
    out.push(frame.kind());
    out.push(0); // reserved
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    put_u32(&mut out, crc32(&payload));
    out
}

/// Writes one frame to `w` and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes).map_err(ProtocolError::Io)?;
    w.flush().map_err(ProtocolError::Io)?;
    Ok(())
}

// ---- decode ----------------------------------------------------------

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    let mut c = Cur::new(payload);
    let frame = match kind {
        1 => Frame::Hello {
            protocol_version: c.u16()?,
            ctx_fingerprint: c.u64()?,
            identity: c.u64()?,
        },
        2 => Frame::HelloAck {
            protocol_version: c.u16()?,
        },
        3 => {
            let index = c.u64()?;
            let attempt = c.u32()?;
            let dispatch = c.u32()?;
            let n = c.u32()? as usize;
            if n > MAX_PAYLOAD as usize / 8 {
                return Err(ProtocolError::Malformed("unit dimension too large"));
            }
            let mut unit_bits = Vec::with_capacity(n);
            for _ in 0..n {
                unit_bits.push(c.u64()?);
            }
            Frame::Eval {
                index,
                attempt,
                dispatch,
                unit_bits,
            }
        }
        4 => {
            let index = c.u64()?;
            let error_bits = c.u64()?;
            let n = c.u32()? as usize;
            if n > 1024 {
                return Err(ProtocolError::Malformed("stage table too large"));
            }
            let mut stage_ms = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?;
                let ms_bits = c.u64()?;
                stage_ms.push((name, ms_bits));
            }
            Frame::EvalOk {
                index,
                error_bits,
                stage_ms,
            }
        }
        5 => Frame::EvalErr {
            index: c.u64()?,
            kind: c.str()?,
            detail: c.str()?,
        },
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Reads one complete frame from `r`, validating magic, version, the
/// reserved byte, size, and checksum. Returns [`ProtocolError::Closed`] on a clean EOF at a
/// frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; 12];
    // Distinguish a clean close (0 bytes) from a mid-header truncation.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(ProtocolError::Closed),
            Ok(0) => return Err(ProtocolError::Malformed("frame truncated mid-header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    if header[7] != 0 {
        return Err(ProtocolError::Malformed("reserved header byte is not zero"));
    }
    let kind = header[6];
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let got = u32::from_le_bytes(crc_bytes);
    let want = crc32(&payload);
    if got != want {
        return Err(ProtocolError::CrcMismatch { got, want });
    }
    decode_payload(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACK: Frame = Frame::HelloAck {
        protocol_version: PROTOCOL_VERSION,
    };

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in golden_samples() {
            let bytes = encode_frame(&frame);
            let mut r = &bytes[..];
            let back = read_frame(&mut r).unwrap();
            assert_eq!(frame, back);
            assert!(r.is_empty(), "decoder consumed the whole frame");
        }
    }

    #[test]
    fn retired_kind_bytes_decode_to_unknown_kind() {
        for kind in 6..=18 {
            let mut bytes = encode_frame(&ACK);
            bytes[6] = kind;
            assert!(
                matches!(
                    read_frame(&mut &bytes[..]).unwrap_err(),
                    ProtocolError::UnknownKind(k) if k == kind
                ),
                "kind {kind}"
            );
        }
    }

    #[test]
    fn corrupting_any_payload_byte_is_caught_by_crc() {
        let frame = Frame::Eval {
            index: 5,
            attempt: 0,
            dispatch: 0,
            unit_bits: vec![0.75f64.to_bits()],
        };
        let clean = encode_frame(&frame);
        for i in 12..clean.len() - 4 {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            let err = read_frame(&mut &bad[..]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::CrcMismatch { .. }),
                "byte {i}: expected CrcMismatch, got {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_header_version_are_rejected() {
        let mut bytes = encode_frame(&ACK);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::BadMagic(_)
        ));

        let mut bytes = encode_frame(&ACK);
        bytes[4] = bytes[4].wrapping_add(1);
        match read_frame(&mut &bytes[..]).unwrap_err() {
            ProtocolError::VersionMismatch { got, want } => {
                assert_eq!(want, PROTOCOL_VERSION);
                assert_ne!(got, want);
            }
            other => panic!("expected VersionMismatch, got {other}"),
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let bytes = encode_frame(&ACK);
        for cut in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert!(
                !matches!(err, ProtocolError::Closed),
                "cut at {cut} must not look like a clean close"
            );
        }
        assert!(matches!(
            read_frame(&mut &[][..]).unwrap_err(),
            ProtocolError::Closed
        ));

        let mut bytes = encode_frame(&ACK);
        let huge = (MAX_PAYLOAD + 1).to_le_bytes();
        bytes[8..12].copy_from_slice(&huge);
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::Oversized(_)
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Hand-build a HelloAck frame with one stray payload byte and a
        // valid CRC over it: structurally sound, semantically malformed.
        let payload = [2u8, 0, 0xAB];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        bytes.push(2);
        bytes.push(0);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn nonzero_reserved_header_byte_is_malformed() {
        let mut bytes = encode_frame(&ACK);
        bytes[7] = 1;
        assert!(matches!(
            read_frame(&mut &bytes[..]).unwrap_err(),
            ProtocolError::Malformed(_)
        ));
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Lowercase hex of `bytes`, for pins a reader can diff.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One sample of every `Frame` variant.
    fn golden_samples() -> Vec<Frame> {
        let samples = vec![
            Frame::Hello {
                protocol_version: PROTOCOL_VERSION,
                ctx_fingerprint: 0x0123_4567_89ab_cdef,
                identity: 0xfedc_ba98_7654_3210,
            },
            ACK,
            Frame::Eval {
                index: 42,
                attempt: 1,
                dispatch: 2,
                unit_bits: vec![0.25f64.to_bits(), 0.5f64.to_bits(), (-0.0f64).to_bits()],
            },
            Frame::EvalOk {
                index: 42,
                error_bits: 1.5e-3f64.to_bits(),
                stage_ms: vec![
                    ("instantiate".to_string(), 0.125f64.to_bits()),
                    ("profile".to_string(), 7.75f64.to_bits()),
                ],
            },
            Frame::EvalErr {
                index: 7,
                kind: "panic".to_string(),
                detail: "boom".to_string(),
            },
        ];
        for frame in &samples {
            // Exhaustive on purpose: a new variant does not compile
            // until it is named here, beside the sample it needs.
            match frame {
                Frame::Hello { .. }
                | Frame::HelloAck { .. }
                | Frame::Eval { .. }
                | Frame::EvalOk { .. }
                | Frame::EvalErr { .. } => {}
            }
        }
        samples
    }

    /// The wire format, pinned: the version constants with the kind byte
    /// (offset 6) and the exact bytes of one frame of each variant. A
    /// change to any of them changes what crosses the pipe between two
    /// builds.
    #[test]
    fn wire_format_is_pinned_to_its_version() {
        let pinned: Vec<(u8, String)> = golden_samples()
            .iter()
            .map(|frame| {
                let bytes = encode_frame(frame);
                (bytes[6], hex(&bytes))
            })
            .collect();
        // Every kind byte the decoder accepts: an empty payload is
        // malformed for each live kind and unknown for any other byte.
        let live: Vec<u8> = (0..=u8::MAX)
            .filter(|&k| !matches!(decode_payload(k, &[]), Err(ProtocolError::UnknownKind(_))))
            .collect();
        assert!(
            live.iter().all(|k| !(6..=18).contains(k)),
            "kinds 6-18 are retired and never reused: {live:?}"
        );
        let mut sampled: Vec<u8> = pinned.iter().map(|(kind, _)| *kind).collect();
        sampled.sort_unstable();
        assert_eq!(sampled, live, "one sample per kind the decoder accepts");
        assert_eq!(
            (PROTOCOL_VERSION, WIRE_REVISION, pinned),
            (
                2,
                6,
                [
                    (
                        1,
                        "a3f457d102000100120000000200efcdab89674523011032547698badcfe847880fa",
                    ),
                    (
                        2,
                        "a3f457d1020002000200000002007d70ef73",
                    ),
                    (
                        3,
                        "a3f457d1020003002c0000002a00000000000000010000000200000003000000000000000000d03f000000000000e03f000000000000008050c19859",
                    ),
                    (
                        4,
                        "a3f457d1020004003e0000002a00000000000000fa7e6abc7493583f020000000b000000696e7374616e7469617465000000000000c03f0700000070726f66696c650000000000001f4095eabf3a",
                    ),
                    (
                        5,
                        "a3f457d1020005001900000007000000000000000500000070616e696304000000626f6f6d4fba0417",
                    ),
                ]
                .map(|(kind, bytes)| (kind, bytes.to_string()))
                .to_vec()
            ),
            "the frame wire format changed: bump PROTOCOL_VERSION (header or payload \
             encoding) or WIRE_REVISION (evaluation semantics) and re-pin these bytes \
             in the same change"
        );
    }

    #[test]
    fn worker_identity_is_stable_within_a_build() {
        assert_eq!(worker_identity(), worker_identity());
        assert_ne!(worker_identity(), 0);
    }
}
