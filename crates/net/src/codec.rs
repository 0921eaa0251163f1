//! Length-prefixed message framing.
//!
//! Wire format per frame: `u32` little-endian payload length, then the
//! JSON-serialized value. Built on [`bytes`] so partially received
//! frames accumulate without copying.
//!
//! The framing is generic over any serde value: the lockstep loop frames
//! [`Message`](crate::message::Message)s and the campaign service
//! (`proto`) its request/reply enums, both through [`encode_value`] /
//! [`decode_value`].

use crate::error::NetError;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};

/// Maximum accepted payload size (guards against corrupt length prefixes).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Encodes one value into a length-prefixed frame.
///
/// The [`MAX_FRAME`] cap is enforced **before any bytes are written**:
/// a payload above the cap would either be rejected by every conforming
/// peer (64 MiB – 4 GiB) or — worse — silently truncate its `u32` length
/// prefix (> 4 GiB) and desynchronize the stream for good. Oversized
/// payloads therefore fail here, on the send side, leaving `out`
/// untouched.
///
/// # Errors
///
/// Returns [`NetError::Codec`] if serialization fails or the serialized
/// payload exceeds [`MAX_FRAME`].
pub fn encode_value<T: Serialize + ?Sized>(value: &T, out: &mut BytesMut) -> Result<(), NetError> {
    let payload = serde_json::to_vec(value).map_err(|e| NetError::Codec(e.to_string()))?;
    if payload.len() > MAX_FRAME {
        return Err(NetError::Codec(format!(
            "{}-byte payload exceeds the {MAX_FRAME}-byte frame cap (refused before writing)",
            payload.len()
        )));
    }
    out.reserve(4 + payload.len());
    out.put_u32_le(payload.len() as u32);
    out.put_slice(&payload);
    Ok(())
}

/// Attempts to decode one value of at most `cap` payload bytes from the
/// accumulation buffer; a `cap` over [`MAX_FRAME`] counts as
/// [`MAX_FRAME`]. A longer length prefix is refused as soon as its four
/// bytes have arrived.
///
/// Returns `Ok(None)` when more bytes are needed; consumed bytes are
/// removed from `buf`.
///
/// # Errors
///
/// Returns [`NetError::Codec`] on a length prefix over `cap` or a
/// malformed payload.
pub fn decode_value<T: Deserialize>(buf: &mut BytesMut, cap: usize) -> Result<Option<T>, NetError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let cap = cap.min(MAX_FRAME);
    if len > cap {
        return Err(NetError::Codec(format!(
            "frame of {len} bytes exceeds the {cap}-byte cap"
        )));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let payload = buf.split_to(len);
    let msg = serde_json::from_slice(&payload).map_err(|e| NetError::Codec(e.to_string()))?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use avfi_sim::physics::VehicleControl;

    fn ctrl(frame: u64) -> Message {
        Message::Control {
            frame,
            control: VehicleControl::new(-0.25, 0.5, 0.0),
        }
    }

    /// The next message in `buf` under the default cap.
    fn next(buf: &mut BytesMut) -> Result<Option<Message>, NetError> {
        decode_value(buf, MAX_FRAME)
    }

    #[test]
    fn roundtrip_single() {
        let mut buf = BytesMut::new();
        encode_value(&ctrl(7), &mut buf).unwrap();
        let got = next(&mut buf).unwrap().unwrap();
        assert_eq!(got, ctrl(7));
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frame_waits() {
        let mut full = BytesMut::new();
        encode_value(&ctrl(1), &mut full).unwrap();
        let mut buf = BytesMut::new();
        // Feed one byte at a time; decode must return None until complete.
        for (i, b) in full.iter().enumerate() {
            buf.put_u8(*b);
            let r = next(&mut buf).unwrap();
            if i + 1 < full.len() {
                assert!(r.is_none(), "decoded early at byte {i}");
            } else {
                assert_eq!(r.unwrap(), ctrl(1));
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let mut buf = BytesMut::new();
        encode_value(&ctrl(1), &mut buf).unwrap();
        encode_value(&Message::Shutdown, &mut buf).unwrap();
        encode_value(&ctrl(3), &mut buf).unwrap();
        assert_eq!(next(&mut buf).unwrap().unwrap(), ctrl(1));
        assert_eq!(next(&mut buf).unwrap().unwrap(), Message::Shutdown);
        assert_eq!(next(&mut buf).unwrap().unwrap(), ctrl(3));
        assert!(next(&mut buf).unwrap().is_none());
    }

    #[test]
    fn generic_value_roundtrip() {
        let mut buf = BytesMut::new();
        let v = vec!["service".to_string(), "frames".to_string()];
        encode_value(&v, &mut buf).unwrap();
        let got: Vec<String> = decode_value(&mut buf, MAX_FRAME).unwrap().unwrap();
        assert_eq!(got, v);
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        buf.put_slice(b"junk");
        assert!(matches!(next(&mut buf), Err(NetError::Codec(_))));
        // Under a tighter cap, the prefix alone is enough to refuse a
        // frame; at its exact length the frame decodes.
        let mut frame = BytesMut::new();
        encode_value(&ctrl(1), &mut frame).unwrap();
        let len = frame.len() - 4;
        let err = decode_value::<Message>(&mut BytesMut::from(&frame[..4]), len - 1).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        assert_eq!(decode_value(&mut frame, len).unwrap(), Some(ctrl(1)));
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(4);
        buf.put_slice(b"{{{{");
        assert!(matches!(next(&mut buf), Err(NetError::Codec(_))));
    }

    /// Regression (send-side frame cap): a payload one byte over
    /// [`MAX_FRAME`] must be refused before anything lands in the output
    /// buffer. Unchecked, a 64 MiB–4 GiB payload emits a frame every
    /// conforming peer rejects, and a > 4 GiB one truncates its `u32`
    /// length prefix and permanently desyncs the stream; the cap check
    /// runs before either write can happen (the > 4 GiB case is the same
    /// code path — `payload.len() > MAX_FRAME` fires long before the
    /// `as u32` cast could wrap).
    #[test]
    fn send_side_cap_rejects_oversized_payload_before_writing() {
        // A JSON string of n ASCII bytes serializes to n + 2 bytes, so
        // this payload is exactly MAX_FRAME + 1 bytes.
        let over = "x".repeat(MAX_FRAME - 1);
        let mut out = BytesMut::new();
        let err = encode_value(&over, &mut out).unwrap_err();
        assert!(matches!(err, NetError::Codec(_)), "{err}");
        assert!(err.to_string().contains("frame cap"), "{err}");
        assert!(
            out.is_empty(),
            "nothing may be written for an oversized payload"
        );
    }

    /// Boundary partner of the cap test: a payload of exactly
    /// [`MAX_FRAME`] bytes is legal, fully framed, and decodes back.
    #[test]
    fn send_side_cap_admits_payload_at_exact_limit() {
        let at_limit = "x".repeat(MAX_FRAME - 2);
        let mut out = BytesMut::new();
        encode_value(&at_limit, &mut out).unwrap();
        assert_eq!(out.len(), 4 + MAX_FRAME);
        let back: String = decode_value(&mut out, MAX_FRAME).unwrap().unwrap();
        assert_eq!(back.len(), at_limit.len());
    }
}
