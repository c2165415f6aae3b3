//! Checksummed line records: the workspace's on-disk JSON-lines framing.
//!
//! Persistent stores (the sweep-cache segments, campaign streams) append
//! one record per line. A crash or kill can truncate the final line, and a
//! disk can hand back damaged bytes years later — exactly the threat model
//! of the source paper — so every line carries its own [`fnv1a`] checksum:
//!
//! ```text
//! <16 lowercase hex digits> <payload>\n
//! ```
//!
//! The checksum covers the payload bytes only. [`decode`] rejects a line
//! whose framing is malformed or whose checksum does not match, which lets
//! a loader skip a truncated tail write (or a corrupted record in the
//! middle of a segment) without poisoning the records around it. Damage
//! that could only come from a hostile or badly broken writer — payloads
//! beyond [`MAX_PAYLOAD_BYTES`], embedded NUL bytes — gets its own typed
//! error instead of blending into the generic skip path, so loaders can
//! tell "torn tail write" apart from "this file is not ours".
//!
//! The campaign transport ships the same records between processes and
//! wants truncation detected *before* hashing a partial payload, so it uses
//! the length-prefixed framed variant ([`encode_framed`] / [`decode_framed`]):
//!
//! ```text
//! <8 hex payload-byte-length> <16 hex checksum> <payload>\n
//! ```

use crate::hash::fnv1a;

/// Hard ceiling on a record payload's byte length. Anything larger is not a
/// payload this workspace writes — segment entries and transport frames
/// are single JSON values — and is rejected with [`RecordError::Oversized`]
/// before the decoder hashes (or a caller buffers) an absurd line.
pub const MAX_PAYLOAD_BYTES: usize = 16 << 20;

/// Why a line failed to decode as a checksummed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The line does not look like `<16 hex digits> <payload>` at all —
    /// typically a truncated head or foreign data.
    Malformed,
    /// The framing parsed but the payload does not hash to the stated
    /// checksum — a truncated or corrupted payload.
    ChecksumMismatch,
    /// The line (or a payload handed to an encoder) exceeds
    /// [`MAX_PAYLOAD_BYTES`]: nothing this workspace writes is that large,
    /// so the bytes are foreign or damaged beyond salvage.
    Oversized,
    /// The line (or a payload handed to an encoder) embeds a NUL byte.
    /// JSON-lines payloads never do; NULs are the classic signature of a
    /// block of zeroed disk spliced into a file.
    EmbeddedNul,
    /// Framed records only: the stated payload length disagrees with the
    /// bytes actually present — a frame truncated or glued to its
    /// neighbour by a torn write.
    LengthMismatch,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Malformed => write!(f, "malformed record framing"),
            RecordError::ChecksumMismatch => write!(f, "record checksum mismatch"),
            RecordError::Oversized => {
                write!(f, "record exceeds {MAX_PAYLOAD_BYTES} payload bytes")
            }
            RecordError::EmbeddedNul => write!(f, "record embeds a NUL byte"),
            RecordError::LengthMismatch => write!(f, "framed record length mismatch"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Rejects payload bytes no well-formed record may carry. Shared by the
/// plain and framed decoders so both report the same typed errors.
fn check_payload(payload: &str) -> Result<(), RecordError> {
    if payload.len() > MAX_PAYLOAD_BYTES {
        return Err(RecordError::Oversized);
    }
    if payload.as_bytes().contains(&0) {
        return Err(RecordError::EmbeddedNul);
    }
    Ok(())
}

/// Frames a payload as one checksummed record line (without the trailing
/// newline). The payload must not contain `\n` — JSON-lines payloads never
/// do, and embedding one would split the record on read-back.
pub fn encode(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "record payloads must be single-line");
    format!("{:016x} {payload}", fnv1a(payload.as_bytes()))
}

/// Appends a payload to `out` as one framed record line, trailing newline
/// included. Equivalent to `out.push_str(&encode(payload))` plus the `\n`,
/// without the intermediate allocation — bulk exporters (telemetry traces,
/// campaign streams) frame thousands of lines into one buffer.
pub fn encode_line(payload: &str, out: &mut String) {
    debug_assert!(!payload.contains('\n'), "record payloads must be single-line");
    use std::fmt::Write;
    let _ = writeln!(out, "{:016x} {payload}", fnv1a(payload.as_bytes()));
}

/// Decodes one record line, returning the payload slice if — and only if —
/// the framing parses and the checksum matches the payload bytes.
pub fn decode(line: &str) -> Result<&str, RecordError> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let (checksum, payload) = line.split_at_checked(16).ok_or(RecordError::Malformed)?;
    let payload = payload.strip_prefix(' ').ok_or(RecordError::Malformed)?;
    check_payload(payload)?;
    let stated = u64::from_str_radix(checksum, 16).map_err(|_| RecordError::Malformed)?;
    if fnv1a(payload.as_bytes()) == stated {
        Ok(payload)
    } else {
        Err(RecordError::ChecksumMismatch)
    }
}

/// Frames a payload as one *length-prefixed* checksummed record line
/// (without the trailing newline): `<8 hex length> <16 hex checksum>
/// <payload>`. The TCP campaign transport uses this shape so a reader can
/// tell a truncated frame from a short payload before hashing anything.
///
/// Unlike [`encode`], this is fallible: transports frame data on behalf of
/// remote peers, so a payload that could never round-trip (embedded
/// newline or NUL, oversized) is a typed error, not a debug assert.
pub fn encode_framed(payload: &str) -> Result<String, RecordError> {
    if payload.contains('\n') {
        return Err(RecordError::Malformed);
    }
    check_payload(payload)?;
    Ok(format!("{:08x} {:016x} {payload}", payload.len(), fnv1a(payload.as_bytes())))
}

/// Decodes one length-prefixed record line produced by [`encode_framed`],
/// returning the payload slice only if the length, the framing and the
/// checksum all agree with the payload bytes.
pub fn decode_framed(line: &str) -> Result<&str, RecordError> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let (length, rest) = line.split_at_checked(8).ok_or(RecordError::Malformed)?;
    let rest = rest.strip_prefix(' ').ok_or(RecordError::Malformed)?;
    let stated_len = usize::from_str_radix(length, 16).map_err(|_| RecordError::Malformed)?;
    if stated_len > MAX_PAYLOAD_BYTES {
        return Err(RecordError::Oversized);
    }
    let (checksum, payload) = rest.split_at_checked(16).ok_or(RecordError::Malformed)?;
    let payload = payload.strip_prefix(' ').ok_or(RecordError::Malformed)?;
    check_payload(payload)?;
    if payload.len() != stated_len {
        return Err(RecordError::LengthMismatch);
    }
    let stated = u64::from_str_radix(checksum, 16).map_err(|_| RecordError::Malformed)?;
    if fnv1a(payload.as_bytes()) == stated {
        Ok(payload)
    } else {
        Err(RecordError::ChecksumMismatch)
    }
}

/// Hard ceiling on one framed *line*'s byte length: the `<8 hex length>
/// <16 hex checksum> ` header (26 bytes with separators) plus the maximum
/// payload. A stream that runs past this without a newline is not carrying
/// records this workspace wrote.
pub const MAX_LINE_BYTES: usize = MAX_PAYLOAD_BYTES + 26;

/// Incremental decoder for a stream of length-prefixed framed record lines
/// arriving in arbitrary chunks — the shape a non-blocking socket hands
/// back, where one `read()` may end mid-header, mid-payload, or mid-newline.
///
/// [`FrameDecoder::feed`] buffers partial lines across calls and yields
/// only payloads whose length, framing and checksum all agree. A damaged
/// line (torn write completed by later garbage, flipped bytes, foreign
/// data, invalid UTF-8) is counted in [`FrameDecoder::corrupt_frames`] and
/// *skipped*: the next newline resynchronises the stream, so one bad frame
/// never poisons the connection. A newline-less run longer than
/// [`MAX_LINE_BYTES`] is discarded eagerly so hostile or broken peers
/// cannot grow the buffer without bound.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    corrupt: u64,
    /// Set while discarding an over-long line: everything up to the next
    /// newline is damage already counted, not a frame to decode.
    discarding: bool,
}

impl FrameDecoder {
    /// An empty decoder: no buffered bytes, no damage counted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers `bytes` and returns every payload completed by them, in
    /// stream order. Damaged lines are counted and skipped, not returned.
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<String> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(nl) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[start..start + nl];
            start += nl + 1;
            if std::mem::take(&mut self.discarding) {
                continue; // tail of an over-long line, already counted
            }
            match std::str::from_utf8(line).map_err(|_| RecordError::Malformed) {
                Ok(text) => match decode_framed(text) {
                    Ok(payload) => out.push(payload.to_string()),
                    Err(_) => self.corrupt += 1,
                },
                Err(_) => self.corrupt += 1,
            }
        }
        self.buf.drain(..start);
        if !self.discarding && self.buf.len() > MAX_LINE_BYTES {
            self.buf.clear();
            self.corrupt += 1;
            self.discarding = true;
        } else if self.discarding {
            self.buf.clear();
        }
        out
    }

    /// Lines that arrived complete but failed to decode (plus over-long
    /// newline-less runs, counted once each).
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt
    }

    /// Bytes buffered awaiting a newline — a partial frame in flight.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let payload = r#"{"seed":7,"shard":0}"#;
        let line = encode(payload);
        assert_eq!(decode(&line), Ok(payload));
        assert_eq!(decode(&format!("{line}\n")), Ok(payload), "trailing newline is framing");
    }

    #[test]
    fn truncated_payload_is_a_checksum_mismatch() {
        let line = encode("a perfectly healthy record payload");
        let truncated = &line[..line.len() - 3];
        assert_eq!(decode(truncated), Err(RecordError::ChecksumMismatch));
    }

    #[test]
    fn corrupted_payload_is_a_checksum_mismatch() {
        let line = encode("payload");
        let corrupted = line.replace("payload", "paYload");
        assert_eq!(decode(&corrupted), Err(RecordError::ChecksumMismatch));
    }

    #[test]
    fn truncated_head_and_foreign_lines_are_malformed() {
        assert_eq!(decode("deadbeef"), Err(RecordError::Malformed));
        assert_eq!(decode(""), Err(RecordError::Malformed));
        assert_eq!(decode("not a checksum!! {\"x\":1}"), Err(RecordError::Malformed));
        // 16 hex digits but no separating space.
        assert_eq!(decode("0123456789abcdef{\"x\":1}"), Err(RecordError::Malformed));
    }

    #[test]
    fn empty_payload_is_framable() {
        let line = encode("");
        assert_eq!(decode(&line), Ok(""));
    }

    #[test]
    fn embedded_nul_is_its_own_error() {
        let line = format!("{:016x} pay\0load", fnv1a(b"pay\0load"));
        assert_eq!(decode(&line), Err(RecordError::EmbeddedNul));
        assert_eq!(encode_framed("pay\0load"), Err(RecordError::EmbeddedNul));
    }

    #[test]
    fn oversized_payload_is_its_own_error() {
        let big = "x".repeat(MAX_PAYLOAD_BYTES + 1);
        let line = format!("{:016x} {big}", fnv1a(big.as_bytes()));
        assert_eq!(decode(&line), Err(RecordError::Oversized));
        assert_eq!(encode_framed(&big), Err(RecordError::Oversized));
        // A framed header *claiming* an oversized payload is rejected from
        // the stated length alone, before looking at the bytes.
        assert_eq!(decode_framed("ffffffff 0000000000000000 x"), Err(RecordError::Oversized));
    }

    #[test]
    fn framed_roundtrip() {
        let payload = r#"{"unit":3,"lease":9}"#;
        let line = encode_framed(payload).unwrap();
        assert_eq!(decode_framed(&line), Ok(payload));
        assert_eq!(decode_framed(&format!("{line}\n")), Ok(payload));
        assert_eq!(decode_framed(&encode_framed("").unwrap()), Ok(""));
    }

    #[test]
    fn framed_rejects_newline_payloads() {
        assert_eq!(encode_framed("two\nlines"), Err(RecordError::Malformed));
    }

    #[test]
    fn framed_truncation_is_detected() {
        let line = encode_framed("transport frame payload").unwrap();
        // A torn write that loses the payload tail: the stated length no
        // longer matches the surviving bytes.
        assert_eq!(decode_framed(&line[..line.len() - 4]), Err(RecordError::LengthMismatch));
        // A torn write inside the header is plain malformed.
        assert_eq!(decode_framed(&line[..7]), Err(RecordError::Malformed));
    }

    #[test]
    fn framed_glued_frames_are_rejected() {
        // A frame with no trailing newline glued to its successor: length
        // check fires before any checksum work.
        let a = encode_framed("first").unwrap();
        let b = encode_framed("second").unwrap();
        assert_eq!(decode_framed(&format!("{a}{b}")), Err(RecordError::LengthMismatch));
    }

    #[test]
    fn decoder_reassembles_frames_split_at_every_boundary() {
        let payloads = [r#"{"unit":0}"#, "", r#"{"unit":1,"lease":4}"#];
        let mut stream = String::new();
        for p in payloads {
            stream.push_str(&encode_framed(p).unwrap());
            stream.push('\n');
        }
        let bytes = stream.as_bytes();
        for cut in 0..=bytes.len() {
            let mut dec = FrameDecoder::new();
            let mut got = dec.feed(&bytes[..cut]);
            got.extend(dec.feed(&bytes[cut..]));
            assert_eq!(got, payloads, "split at byte {cut} changed the stream");
            assert_eq!(dec.corrupt_frames(), 0);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn decoder_skips_damage_and_resynchronises() {
        let good = encode_framed("survivor").unwrap();
        let mut dec = FrameDecoder::new();
        // Foreign line, torn frame completed by garbage, then a good frame.
        let torn_line = encode_framed("torn away").unwrap();
        let torn = &torn_line[..9];
        let stream = format!("not a frame\n{torn}\n{good}\n");
        let got = dec.feed(stream.as_bytes());
        assert_eq!(got, vec!["survivor".to_string()]);
        assert_eq!(dec.corrupt_frames(), 2);
    }

    #[test]
    fn decoder_drops_invalid_utf8_lines() {
        let good = encode_framed("after").unwrap();
        let mut dec = FrameDecoder::new();
        let mut bytes = vec![0xffu8, 0xfe, b'\n'];
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        assert_eq!(dec.feed(&bytes), vec!["after".to_string()]);
        assert_eq!(dec.corrupt_frames(), 1);
    }

    #[test]
    fn decoder_bounds_newline_less_garbage() {
        let mut dec = FrameDecoder::new();
        let chunk = vec![b'x'; 1 << 20];
        let mut fed = 0usize;
        while fed <= MAX_LINE_BYTES {
            assert!(dec.feed(&chunk).is_empty());
            fed += chunk.len();
            assert!(dec.buffered() <= MAX_LINE_BYTES, "buffer grew unbounded");
        }
        assert_eq!(dec.corrupt_frames(), 1, "over-long run counted once");
        // The eventual newline ends the discard; the stream resynchronises.
        let good = encode_framed("back").unwrap();
        let tail = format!("yyy\n{good}\n");
        assert_eq!(dec.feed(tail.as_bytes()), vec!["back".to_string()]);
        assert_eq!(dec.corrupt_frames(), 1);
    }
}
