//! Property tests for the dist frame decoder, `read_frame`: the decoder
//! the broker runs over a worker's raw stdout, and a worker over its
//! stdin.
//!
//! Five invariants:
//!
//! 1. **No input panics the decoder.** Random bytes, and valid frames
//!    with random bytes overwritten and sometimes a tail cut off, come back
//!    `Ok` or `Err`, never a panic; an `Ok` frame re-encodes to exactly
//!    the bytes it was read from.
//! 2. **An oversized declared length is refused from the header.** A
//!    length over `MAX_PAYLOAD` is `Oversized`, and not one byte past the
//!    12-byte header has been read.
//! 3. **Generated frames round-trip.** Every frame of the five kinds
//!    decodes to itself and consumes exactly its own encoding.
//! 4. **Truncation is never a clean close, except at byte 0.** A frame
//!    cut at any byte is an error, and it is `Closed` only when nothing
//!    at all was read.
//! 5. **A flipped payload bit is a CRC mismatch.** Any single bit flipped
//!    anywhere in the payload is `CrcMismatch`.

use datamime_dist::protocol::{encode_frame, FRAME_MAGIC, MAX_PAYLOAD};
use datamime_dist::{read_frame, Frame, ProtocolError, PROTOCOL_VERSION};
use proptest::prelude::*;

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..12).prop_map(|words| {
        words
            .into_iter()
            .filter_map(|w| char::from_u32(w % 0x11_0000))
            .collect()
    })
}

fn hello() -> impl Strategy<Value = Frame> {
    (0u16..=u16::MAX, any::<u64>(), any::<u64>()).prop_map(|(v, ctx, id)| Frame::Hello {
        protocol_version: v,
        ctx_fingerprint: ctx,
        identity: id,
    })
}

fn hello_ack() -> impl Strategy<Value = Frame> {
    (0u16..=u16::MAX).prop_map(|v| Frame::HelloAck {
        protocol_version: v,
    })
}

fn eval() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(any::<u64>(), 0..16),
    )
        .prop_map(|(index, attempt, dispatch, unit_bits)| Frame::Eval {
            index,
            attempt,
            dispatch,
            unit_bits,
        })
}

fn eval_ok() -> impl Strategy<Value = Frame> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec((text(), any::<u64>()), 0..6),
    )
        .prop_map(|(index, error_bits, stage_ms)| Frame::EvalOk {
            index,
            error_bits,
            stage_ms,
        })
}

fn eval_err() -> impl Strategy<Value = Frame> {
    (any::<u64>(), text(), text()).prop_map(|(index, kind, detail)| Frame::EvalErr {
        index,
        kind,
        detail,
    })
}

fn frames() -> impl Strategy<Value = Frame> {
    prop_oneof![hello(), hello_ack(), eval(), eval_ok(), eval_err()]
}

fn noise() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u64>(), 0..40)
        .prop_map(|words| words.iter().flat_map(|w| w.to_le_bytes()).collect())
}

/// Decodes `bytes`; on success, checks the frame re-encodes to exactly
/// the prefix it was read from.
fn check_decode(bytes: &[u8]) -> Result<(), String> {
    let mut r = bytes;
    if let Ok(frame) = read_frame(&mut r) {
        let consumed = bytes.len() - r.len();
        prop_assert_eq!(
            encode_frame(&frame),
            bytes[..consumed].to_vec(),
            "{:?}",
            frame
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in noise()) {
        check_decode(&bytes)?;
    }

    #[test]
    fn mutated_frames_never_panic_the_decoder(
        frame in frames(),
        edits in prop::collection::vec((any::<usize>(), any::<u32>()), 1..4),
        cut in any::<usize>(),
    ) {
        let mut bytes = encode_frame(&frame);
        for (at, value) in edits {
            // Half the edits land in the 12-byte header.
            let span = if at % 2 == 0 { 12 } else { bytes.len() };
            bytes[at / 2 % span] = value as u8;
        }
        bytes.truncate(bytes.len() - cut % 8 / 4 * (cut % 4));
        check_decode(&bytes)?;
    }

    #[test]
    fn an_oversized_length_is_refused_from_the_header(
        len in (MAX_PAYLOAD + 1)..=u32::MAX,
        kind in 0u8..=255,
        tail in noise(),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        bytes.push(kind);
        bytes.push(0);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let mut r = &bytes[..];
        let err = read_frame(&mut r).expect_err("oversized");
        prop_assert!(matches!(err, ProtocolError::Oversized(n) if n == len), "{}", err);
        prop_assert_eq!(r.len(), tail.len(), "read past the header");
    }

    #[test]
    fn generated_frames_round_trip(frame in frames()) {
        let bytes = encode_frame(&frame);
        let mut r = &bytes[..];
        let back = read_frame(&mut r).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, frame);
        prop_assert!(r.is_empty(), "decoder left {} bytes", r.len());
    }

    #[test]
    fn a_truncated_frame_is_closed_only_at_byte_zero(frame in frames()) {
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            match read_frame(&mut &bytes[..cut]) {
                Ok(back) => prop_assert!(false, "cut at {} decoded {:?}", cut, back),
                Err(ProtocolError::Closed) => prop_assert_eq!(cut, 0, "clean close mid-frame"),
                Err(e) => prop_assert!(cut > 0, "cut at 0 gave {}", e),
            }
        }
    }

    #[test]
    fn a_flipped_payload_bit_is_a_crc_mismatch(frame in frames(), bit in any::<usize>()) {
        let mut bytes = encode_frame(&frame);
        let payload_bits = (bytes.len() - 16) * 8;
        let bit = bit % payload_bits;
        bytes[12 + bit / 8] ^= 1 << (bit % 8);
        let err = read_frame(&mut &bytes[..]).expect_err("flipped bit");
        prop_assert!(matches!(err, ProtocolError::CrcMismatch { .. }), "bit {}: {}", bit, err);
    }
}
