//! Optional length+CRC framing for the newline-JSON wire protocol.
//!
//! A framed line is
//!
//! ```text
//! !F <len:8 hex> <crc64:16 hex> <payload>\n
//! ```
//!
//! where `len` is the payload byte count and `crc64` is the
//! CRC-64/XZ of the payload. The `!F ` prefix can never begin a plain
//! JSON request (those start with `{` or a bare word like `stats`), so
//! framed and unframed clients share one port: the server decodes every
//! line that carries the prefix and mirrors the framing of each request
//! on its response. A truncated or damaged
//! frame fails closed with a typed [`FrameError`] instead of being
//! handed to the JSON parser as a guess.

use crate::crc64::crc64;

/// Marks a line as length+CRC framed.
pub const FRAME_PREFIX: &str = "!F ";

/// Why a framed line was rejected. Stringified into the `detail`
/// field of the typed `bad_frame` wire error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header is not `!F <8 hex> <16 hex> `.
    MalformedHeader,
    /// The payload is shorter or longer than the declared length —
    /// the signature of a torn or truncated write.
    LengthMismatch { declared: usize, actual: usize },
    /// The payload checksum does not match — a damaged frame.
    CrcMismatch { declared: u64, actual: u64 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::MalformedHeader => write!(f, "malformed frame header"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "frame length mismatch: declared {declared}, got {actual}"
                )
            }
            FrameError::CrcMismatch { declared, actual } => {
                write!(
                    f,
                    "frame crc mismatch: declared {declared:016x}, got {actual:016x}"
                )
            }
        }
    }
}

/// True when the line carries the frame prefix (works on raw bytes so
/// a damaged non-UTF-8 payload is still routed to frame validation).
pub fn is_framed(line: &[u8]) -> bool {
    line.starts_with(FRAME_PREFIX.as_bytes())
}

/// Wrap a payload in a length+CRC frame (without trailing newline).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_PREFIX.len() + 26);
    out.extend_from_slice(FRAME_PREFIX.as_bytes());
    out.extend_from_slice(format!("{:08x} {:016x} ", payload.len(), crc64(payload)).as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a framed line (without trailing newline) and return the
/// payload bytes.
pub fn decode_frame(line: &[u8]) -> Result<&[u8], FrameError> {
    let rest = line
        .strip_prefix(FRAME_PREFIX.as_bytes())
        .ok_or(FrameError::MalformedHeader)?;
    // Header tail: 8 hex, space, 16 hex, space.
    if rest.len() < 26 || rest[8] != b' ' || rest[25] != b' ' {
        return Err(FrameError::MalformedHeader);
    }
    let declared_len = parse_hex(&rest[..8]).ok_or(FrameError::MalformedHeader)? as usize;
    let declared_crc = parse_hex(&rest[9..25]).ok_or(FrameError::MalformedHeader)?;
    let payload = &rest[26..];
    if payload.len() != declared_len {
        return Err(FrameError::LengthMismatch {
            declared: declared_len,
            actual: payload.len(),
        });
    }
    let actual = crc64(payload);
    if actual != declared_crc {
        return Err(FrameError::CrcMismatch {
            declared: declared_crc,
            actual,
        });
    }
    Ok(payload)
}

fn parse_hex(digits: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for &d in digits {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        v = (v << 4) | nibble as u64;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_payloads() {
        for payload in [&b""[..], b"{\"id\":\"n1\"}", b"stats", &[0u8, 255, 10, 13]] {
            let framed = encode_frame(payload);
            assert!(is_framed(&framed));
            assert_eq!(decode_frame(&framed).expect("valid frame"), payload);
        }
    }

    #[test]
    fn plain_json_is_not_framed() {
        assert!(!is_framed(b"{\"id\":\"n1\"}"));
        assert!(!is_framed(b"stats"));
    }

    #[test]
    fn truncation_is_a_length_mismatch() {
        let framed = encode_frame(b"{\"id\":\"n1\",\"net\":\"...\"}");
        let torn = &framed[..framed.len() - 5];
        match decode_frame(torn) {
            Err(FrameError::LengthMismatch { declared, actual }) => {
                assert_eq!(declared, actual + 5)
            }
            other => panic!("expected length mismatch, got {other:?}"),
        }
    }

    #[test]
    fn any_payload_bit_flip_is_a_crc_mismatch() {
        let mut framed = encode_frame(b"{\"id\":\"n1\"}");
        let payload_start = framed.len() - b"{\"id\":\"n1\"}".len();
        for i in payload_start..framed.len() {
            framed[i] ^= 0x10;
            assert!(
                matches!(decode_frame(&framed), Err(FrameError::CrcMismatch { .. })),
                "flip at byte {i}"
            );
            framed[i] ^= 0x10;
        }
        assert!(decode_frame(&framed).is_ok());
    }

    #[test]
    fn garbage_headers_are_malformed_not_panics() {
        for line in [
            &b"!F "[..],
            b"!F zzzzzzzz 0000000000000000 {}",
            b"!F 00000002 00000000zzzzzzzz {}",
            b"!F 0000000200000000000000000 {}",
            b"!F short",
        ] {
            assert_eq!(
                decode_frame(line),
                Err(FrameError::MalformedHeader),
                "{line:?}"
            );
        }
    }
}
