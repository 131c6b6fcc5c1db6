//! The wire protocol of the network front-end: a tiny length-prefixed
//! frame codec over any byte stream.
//!
//! A connection opens with the 4-byte preamble [`PREAMBLE`] (`"STN2"`),
//! then carries a sequence of frames, each `[kind: u8][len: u32 LE]
//! [payload: len bytes]`.  The client speaks [`FrameKind::Query`] /
//! [`FrameKind::MultiQuery`] to open a request, streams document bytes
//! with [`FrameKind::Chunk`], and closes the document with an empty
//! [`FrameKind::Finish`]; the server answers with exactly one
//! [`FrameKind::Matches`] / [`FrameKind::MultiMatches`] (success) or
//! [`FrameKind::Error`] (a stable numeric code from
//! [`crate::error::codes`] plus a human-readable message).
//!
//! The codec is deliberately paranoid — it is the outermost surface the
//! chaos harness attacks with torn frames, length-lying headers, and
//! garbage preambles:
//!
//! * frame lengths are validated against a maximum *before* any
//!   allocation, so a length-lying header cannot balloon memory;
//! * every partial read maps end-of-stream to a typed
//!   [`FrameError::Truncated`] (never a panic or a hang past the socket
//!   deadline);
//! * read deadlines surface as [`FrameError::Timeout`];
//! * payload decoders validate internal lengths exactly — trailing
//!   bytes, short counts, and non-UTF-8 text are all
//!   [`FrameError::BadPayload`].
//!
//! Every [`FrameError`] maps to a stable wire code
//! ([`FrameError::wire_code`]); the match is exhaustive so a new variant
//! without a code is a compile error.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use st_core::emit::{EmissionCursor, StreamedMatch};

use crate::error::codes;

/// The 4-byte connection preamble: `"STN2"` (Streamed Trees Net v2).
/// Version 2 carries the word-wise emission digest in the final
/// `Matches` cursor; a version-1 peer is refused with `BAD_PREAMBLE`.
pub const PREAMBLE: [u8; 4] = *b"STN2";

/// Default maximum frame payload length the server accepts (1 MiB).
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// Maximum response frame length a [`crate::net::NetClient`] accepts
/// (64 MiB — a `Matches` frame carries 8 bytes per selected node).
pub const RESPONSE_MAX_FRAME_LEN: usize = 64 << 20;

/// Frame type tags.  Client-to-server kinds live below `0x80`,
/// server-to-client kinds at `0x80` and above.  Append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Opens a single-query request: `[alpha_len: u16 LE][alphabet csv]
    /// [pattern]`.
    Query = 0x01,
    /// A run of document bytes (non-empty).
    Chunk = 0x02,
    /// Closes the document (empty payload); the server answers.
    Finish = 0x03,
    /// Opens a multi-query request: `[alpha_len: u16 LE][alphabet csv]
    /// [count: u16 LE]` then `count` of `[len: u16 LE][pattern]`.
    MultiQuery = 0x04,
    /// Opens a *streaming* single-query request (same payload as
    /// [`FrameKind::Query`]).  The server answers each `Chunk` with one
    /// [`FrameKind::MatchPart`] carrying the matches that crossed the
    /// certainty frontier during it (possibly zero), in lock step —
    /// request, reply, request, reply — so neither side ever blocks on a
    /// full socket buffer.  `Finish` is answered with a final
    /// cursor-carrying `Matches` (see [`encode_matches_with_cursor`]).
    StreamQuery = 0x05,
    /// Success reply to [`FrameKind::Query`]: `[count: u32 LE]` then
    /// `count` node ids as `u64 LE`.  In a streaming request the final
    /// `Matches` additionally carries the emission cursor (count +
    /// digest) after the ids.
    Matches = 0x81,
    /// Success reply to [`FrameKind::MultiQuery`]: `[members: u32 LE]`
    /// then per member `[count: u32 LE]` + ids as `u64 LE`.
    MultiMatches = 0x82,
    /// Failure reply: `[code: u16 LE][utf-8 message]`; codes are the
    /// stable registry in [`crate::error::codes`].
    Error = 0x83,
    /// Incremental streaming reply: `[start: u64 LE][count: u32 LE]`
    /// then `count` of `[node: u64 LE][offset: u64 LE]` — the matches at
    /// stream positions `start..start + count`, emitted at the earliest
    /// byte offset at which each is certain.
    MatchPart = 0x84,
}

impl FrameKind {
    /// Decodes a frame type byte.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0x01 => Some(FrameKind::Query),
            0x02 => Some(FrameKind::Chunk),
            0x03 => Some(FrameKind::Finish),
            0x04 => Some(FrameKind::MultiQuery),
            0x05 => Some(FrameKind::StreamQuery),
            0x81 => Some(FrameKind::Matches),
            0x82 => Some(FrameKind::MultiMatches),
            0x83 => Some(FrameKind::Error),
            0x84 => Some(FrameKind::MatchPart),
            _ => None,
        }
    }

    /// The wire byte of this kind.
    pub fn as_byte(self) -> u8 {
        self as u8
    }
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The connection did not open with [`PREAMBLE`].
    BadPreamble {
        /// The bytes actually received.
        got: [u8; 4],
    },
    /// An unknown frame type byte.
    BadFrameType {
        /// The offending byte.
        byte: u8,
    },
    /// A frame header declared a payload over the configured maximum.
    /// Detected before any allocation.
    TooLarge {
        /// The declared length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The stream ended mid-frame (a torn frame, a length-lying header,
    /// or a mid-stream disconnect).
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// A read deadline expired.
    Timeout,
    /// A frame arrived intact but its payload structure is malformed
    /// (bad internal lengths, trailing bytes, or non-UTF-8 text).
    BadPayload {
        /// What exactly is malformed.
        detail: String,
    },
    /// Any other transport error (connection reset, broken pipe, ...).
    Io {
        /// The [`io::ErrorKind`] of the failure.
        kind: io::ErrorKind,
    },
}

impl FrameError {
    /// The stable numeric code this error travels under in an `Error`
    /// frame.  Exhaustive by design — see [`crate::error::codes`].
    pub fn wire_code(&self) -> u16 {
        match self {
            FrameError::BadPreamble { .. } => codes::BAD_PREAMBLE,
            FrameError::BadFrameType { .. } => codes::BAD_FRAME_TYPE,
            FrameError::TooLarge { .. } => codes::FRAME_TOO_LARGE,
            FrameError::Truncated { .. } => codes::TRUNCATED_FRAME,
            FrameError::Timeout => codes::READ_TIMEOUT,
            FrameError::BadPayload { .. } => codes::BAD_PAYLOAD,
            FrameError::Io { .. } => codes::TRUNCATED_FRAME,
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadPreamble { got } => {
                write!(f, "bad preamble {got:02x?} (expected {PREAMBLE:02x?})")
            }
            FrameError::BadFrameType { byte } => write!(f, "unknown frame type 0x{byte:02x}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} byte(s) exceeds the {max}-byte maximum")
            }
            FrameError::Truncated { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            FrameError::Timeout => write!(f, "read deadline expired"),
            FrameError::BadPayload { detail } => write!(f, "malformed payload: {detail}"),
            FrameError::Io { kind } => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// The raw payload.
    pub payload: Vec<u8>,
}

fn bad_payload(detail: impl Into<String>) -> FrameError {
    FrameError::BadPayload {
        detail: detail.into(),
    }
}

/// Bytes in a frame header: the kind byte and the `u32` payload length.
const HEADER_LEN: usize = 5;

/// What a failed read or write means: deadline expiry is
/// [`FrameError::Timeout`], anything else [`FrameError::Io`].
fn io_error(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Timeout,
        kind => FrameError::Io { kind },
    }
}

/// Reads exactly `buf.len()` bytes, mapping end-of-stream to
/// [`FrameError::Truncated`] and deadline expiry to
/// [`FrameError::Timeout`].  Hand-rolled (rather than
/// [`Read::read_exact`]) so a deadline that fires after partial progress
/// still reports `Timeout`, not a generic error.
fn read_full(r: &mut impl Read, buf: &mut [u8], context: &'static str) -> Result<(), FrameError> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => return Err(FrameError::Truncated { context }),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(())
}

/// Reads and checks the connection preamble.
///
/// # Errors
///
/// [`FrameError::BadPreamble`] on a mismatch, [`FrameError::Truncated`]
/// if the stream ends inside it, [`FrameError::Timeout`] past the read
/// deadline.
pub fn read_preamble(r: &mut impl Read) -> Result<(), FrameError> {
    let mut got = [0u8; 4];
    read_full(r, &mut got, "preamble")?;
    if got != PREAMBLE {
        return Err(FrameError::BadPreamble { got });
    }
    Ok(())
}

/// Writes the connection preamble.
///
/// # Errors
///
/// [`FrameError::Timeout`] or [`FrameError::Io`] on transport failure.
pub fn write_preamble(w: &mut impl Write) -> Result<(), FrameError> {
    w.write_all(&PREAMBLE).map_err(io_error)
}

/// The one frame-header reader: asks for all five header bytes in each
/// `read`, so a header that arrives whole costs one call.  The kind byte
/// is checked as soon as it arrives and the declared length against
/// `max_len` before the caller allocates anything.  `Ok(None)` is a
/// clean end-of-stream before any header byte.
fn read_header(
    r: &mut impl Read,
    max_len: usize,
) -> Result<Option<(FrameKind, usize)>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut at = 0;
    while at < HEADER_LEN {
        match r.read(&mut header[at..]) {
            Ok(0) if at == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    context: "frame length",
                })
            }
            Ok(n) => {
                if at == 0 {
                    FrameKind::from_byte(header[0])
                        .ok_or(FrameError::BadFrameType { byte: header[0] })?;
                }
                at += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    let kind = FrameKind::from_byte(header[0]).expect("kind checked on arrival");
    let len = u32::from_le_bytes(header[1..].try_into().expect("4 length bytes")) as usize;
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    Ok(Some((kind, len)))
}

/// Reads one frame, enforcing `max_len` on the declared payload length
/// *before* allocating.  A whole frame costs two `read` calls (one for
/// an empty payload), and nothing past the frame is consumed.
///
/// # Errors
///
/// Any [`FrameError`]; end-of-stream anywhere inside the frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Frame, FrameError> {
    read_frame_or_eof(r, max_len)?.ok_or(FrameError::Truncated {
        context: "frame type",
    })
}

/// Like [`read_frame`], but a clean end-of-stream *before any frame
/// byte* returns `Ok(None)` — how a connection loop tells a polite
/// disconnect between requests from a torn frame.
///
/// # Errors
///
/// As [`read_frame`], for everything past the first byte.
pub fn read_frame_or_eof(r: &mut impl Read, max_len: usize) -> Result<Option<Frame>, FrameError> {
    let Some((kind, len)) = read_header(r, max_len)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, "frame payload")?;
    Ok(Some(Frame { kind, payload }))
}

/// Writes one frame: header and payload leave in one vectored write
/// (more only if the writer takes part of it).
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the payload does not fit a `u32` length,
/// otherwise [`FrameError::Timeout`] / [`FrameError::Io`].
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > u32::MAX as usize {
        return Err(FrameError::TooLarge {
            len: payload.len(),
            max: u32::MAX as usize,
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind.as_byte();
    header[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let total = HEADER_LEN + payload.len();
    let mut at = 0;
    while at < total {
        let wrote = if at < HEADER_LEN {
            w.write_vectored(&[IoSlice::new(&header[at..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[at - HEADER_LEN..])
        };
        match wrote {
            Ok(0) => {
                return Err(FrameError::Io {
                    kind: io::ErrorKind::WriteZero,
                })
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    w.flush().map_err(io_error)
}

/// The initial size of a [`FrameReader`]'s buffer: room for a preamble,
/// a request's opening frame and any small frames sent with it.
const FRAME_READER_START: usize = 4 << 10;

/// The server's read side of one connection: every frame is parsed out
/// of one buffer, and one `read` refills it with whatever the socket
/// holds, so a burst of frames costs one call and a frame's payload is
/// lent out of the buffer instead of copied into a fresh `Vec`.
///
/// The buffer starts at 4 KiB and grows only to fit the largest frame
/// admitted — header plus payload — after that frame's length has
/// passed the `max_len` check.  Bytes past the current frame stay
/// buffered for the next one.  Errors map exactly as [`read_frame`]'s.
pub(crate) struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Unparsed bytes are `buf[at..end]`.
    at: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0; FRAME_READER_START],
            at: 0,
            end: 0,
        }
    }

    /// The source the frames are read from.
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The next frame, its payload borrowed from the buffer; `Ok(None)`
    /// on a clean end-of-stream between frames.
    pub(crate) fn next_frame_or_eof(
        &mut self,
        max_len: usize,
    ) -> Result<Option<(FrameKind, &[u8])>, FrameError> {
        let Some((kind, len)) = read_header(self, max_len)? else {
            return Ok(None);
        };
        Ok(Some((kind, self.take(len)?)))
    }

    /// The next frame; end-of-stream anywhere is
    /// [`FrameError::Truncated`].
    pub(crate) fn next_frame(&mut self, max_len: usize) -> Result<(FrameKind, &[u8]), FrameError> {
        self.next_frame_or_eof(max_len)?
            .ok_or(FrameError::Truncated {
                context: "frame type",
            })
    }

    /// Consumes `len` buffered bytes, reading until that many are
    /// present.  The room a short buffer makes is sized for this payload
    /// plus the next frame's header.
    fn take(&mut self, len: usize) -> Result<&[u8], FrameError> {
        if self.end - self.at < len {
            if self.at + len > self.buf.len() {
                self.buf.copy_within(self.at..self.end, 0);
                self.end -= self.at;
                self.at = 0;
                if HEADER_LEN + len > self.buf.len() {
                    self.buf.resize(HEADER_LEN + len, 0);
                }
            }
            while self.end - self.at < len {
                match self.inner.read(&mut self.buf[self.end..]) {
                    Ok(0) => {
                        return Err(FrameError::Truncated {
                            context: "frame payload",
                        })
                    }
                    Ok(n) => self.end += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(io_error(e)),
                }
            }
        }
        let at = self.at;
        self.at += len;
        Ok(&self.buf[at..at + len])
    }
}

/// Buffered bytes first; an empty buffer is refilled by one `read` of
/// whatever the source holds.  The preamble and frame headers are read
/// through this.
impl<R: Read> Read for FrameReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.at == self.end {
            (self.at, self.end) = (0, 0);
            self.end = self.inner.read(&mut self.buf)?;
        }
        let n = out.len().min(self.end - self.at);
        out[..n].copy_from_slice(&self.buf[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Encodes a [`FrameKind::Query`] payload.
pub fn encode_query(alphabet_csv: &str, pattern: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + alphabet_csv.len() + pattern.len());
    out.extend_from_slice(&(alphabet_csv.len() as u16).to_le_bytes());
    out.extend_from_slice(alphabet_csv.as_bytes());
    out.extend_from_slice(pattern.as_bytes());
    out
}

/// Decodes a [`FrameKind::Query`] payload into `(alphabet_csv,
/// pattern)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] on short payloads, length lies, or
/// non-UTF-8 text.
pub fn decode_query(payload: &[u8]) -> Result<(String, String), FrameError> {
    if payload.len() < 2 {
        return Err(bad_payload("QUERY payload shorter than its header"));
    }
    let alpha_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    let rest = &payload[2..];
    if alpha_len > rest.len() {
        return Err(bad_payload(format!(
            "QUERY alphabet length {alpha_len} exceeds the {} payload byte(s) present",
            rest.len()
        )));
    }
    if alpha_len == 0 {
        return Err(bad_payload("QUERY with an empty alphabet"));
    }
    let csv = std::str::from_utf8(&rest[..alpha_len])
        .map_err(|_| bad_payload("QUERY alphabet is not UTF-8"))?;
    let pattern = std::str::from_utf8(&rest[alpha_len..])
        .map_err(|_| bad_payload("QUERY pattern is not UTF-8"))?;
    if pattern.is_empty() {
        return Err(bad_payload("QUERY with an empty pattern"));
    }
    Ok((csv.to_owned(), pattern.to_owned()))
}

/// Encodes a [`FrameKind::MultiQuery`] payload.
pub fn encode_multi_query<S: AsRef<str>>(alphabet_csv: &str, patterns: &[S]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(alphabet_csv.len() as u16).to_le_bytes());
    out.extend_from_slice(alphabet_csv.as_bytes());
    out.extend_from_slice(&(patterns.len() as u16).to_le_bytes());
    for p in patterns {
        let p = p.as_ref();
        out.extend_from_slice(&(p.len() as u16).to_le_bytes());
        out.extend_from_slice(p.as_bytes());
    }
    out
}

/// Decodes a [`FrameKind::MultiQuery`] payload into `(alphabet_csv,
/// patterns)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] on any structural lie: short headers,
/// counts past the payload, an empty pattern list, or trailing bytes.
pub fn decode_multi_query(payload: &[u8]) -> Result<(String, Vec<String>), FrameError> {
    if payload.len() < 2 {
        return Err(bad_payload("MQUERY payload shorter than its header"));
    }
    let alpha_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    let mut at = 2;
    if alpha_len == 0 || at + alpha_len > payload.len() {
        return Err(bad_payload("MQUERY alphabet length is empty or lies"));
    }
    let csv = std::str::from_utf8(&payload[at..at + alpha_len])
        .map_err(|_| bad_payload("MQUERY alphabet is not UTF-8"))?
        .to_owned();
    at += alpha_len;
    if at + 2 > payload.len() {
        return Err(bad_payload("MQUERY payload ends before its pattern count"));
    }
    let count = u16::from_le_bytes([payload[at], payload[at + 1]]) as usize;
    at += 2;
    if count == 0 {
        return Err(bad_payload("MQUERY with zero patterns"));
    }
    let mut patterns = Vec::with_capacity(count);
    for i in 0..count {
        if at + 2 > payload.len() {
            return Err(bad_payload(format!(
                "MQUERY payload ends before pattern {i}'s length"
            )));
        }
        let len = u16::from_le_bytes([payload[at], payload[at + 1]]) as usize;
        at += 2;
        if len == 0 {
            return Err(bad_payload(format!("MQUERY pattern {i} is empty")));
        }
        if at + len > payload.len() {
            return Err(bad_payload(format!(
                "MQUERY pattern {i}'s length {len} exceeds the payload"
            )));
        }
        let p = std::str::from_utf8(&payload[at..at + len])
            .map_err(|_| bad_payload(format!("MQUERY pattern {i} is not UTF-8")))?;
        patterns.push(p.to_owned());
        at += len;
    }
    if at != payload.len() {
        return Err(bad_payload(format!(
            "{} trailing byte(s) after the last MQUERY pattern",
            payload.len() - at
        )));
    }
    Ok((csv, patterns))
}

/// Encodes a [`FrameKind::Matches`] payload.
pub fn encode_matches(ids: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * ids.len());
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &id in ids {
        out.extend_from_slice(&(id as u64).to_le_bytes());
    }
    out
}

/// Decodes a [`FrameKind::Matches`] payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly
/// `4 + 8 * count` bytes.
pub fn decode_matches(payload: &[u8]) -> Result<Vec<usize>, FrameError> {
    let (ids, at) = decode_id_block(payload, 0)?;
    if at != payload.len() {
        return Err(bad_payload("trailing bytes after the MATCHES ids"));
    }
    Ok(ids)
}

fn decode_id_block(payload: &[u8], mut at: usize) -> Result<(Vec<usize>, usize), FrameError> {
    if at + 4 > payload.len() {
        return Err(bad_payload("payload ends before an id count"));
    }
    let count = u32::from_le_bytes([
        payload[at],
        payload[at + 1],
        payload[at + 2],
        payload[at + 3],
    ]) as usize;
    at += 4;
    if payload.len().saturating_sub(at) < count.saturating_mul(8) {
        return Err(bad_payload(format!(
            "id count {count} exceeds the payload bytes present"
        )));
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        let mut b = [0u8; 8];
        b.copy_from_slice(&payload[at..at + 8]);
        ids.push(u64::from_le_bytes(b) as usize);
        at += 8;
    }
    Ok((ids, at))
}

/// Encodes a [`FrameKind::MultiMatches`] payload.
pub fn encode_multi_matches(members: &[Vec<usize>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for ids in members {
        out.extend_from_slice(&encode_matches(ids));
    }
    out
}

/// Decodes a [`FrameKind::MultiMatches`] payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] on any structural inconsistency.
pub fn decode_multi_matches(payload: &[u8]) -> Result<Vec<Vec<usize>>, FrameError> {
    if payload.len() < 4 {
        return Err(bad_payload("MULTI_MATCHES payload shorter than its header"));
    }
    let members = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
    let mut at = 4;
    let mut out = Vec::with_capacity(members.min(1024));
    for _ in 0..members {
        let (ids, next) = decode_id_block(payload, at)?;
        out.push(ids);
        at = next;
    }
    if at != payload.len() {
        return Err(bad_payload("trailing bytes after the last member's ids"));
    }
    Ok(out)
}

/// Encodes a [`FrameKind::MatchPart`] payload: the matches at stream
/// positions `start..start + matches.len()`.
pub fn encode_match_part(start: u64, matches: &[StreamedMatch]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 16 * matches.len());
    out.extend_from_slice(&start.to_le_bytes());
    out.extend_from_slice(&(matches.len() as u32).to_le_bytes());
    for m in matches {
        out.extend_from_slice(&(m.node as u64).to_le_bytes());
        out.extend_from_slice(&(m.offset as u64).to_le_bytes());
    }
    out
}

/// Decodes a [`FrameKind::MatchPart`] payload into `(start, matches)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly
/// `12 + 16 * count` bytes.
pub fn decode_match_part(payload: &[u8]) -> Result<(u64, Vec<StreamedMatch>), FrameError> {
    if payload.len() < 12 {
        return Err(bad_payload("MATCH_PART payload shorter than its header"));
    }
    let start = u64::from_le_bytes(payload[..8].try_into().expect("length checked"));
    let count = u32::from_le_bytes(payload[8..12].try_into().expect("length checked")) as usize;
    let body = &payload[12..];
    if body.len() != count.saturating_mul(16) {
        return Err(bad_payload(format!(
            "MATCH_PART claims {count} match(es) but carries {} body byte(s)",
            body.len()
        )));
    }
    let mut matches = Vec::with_capacity(count);
    for pair in body.chunks_exact(16) {
        matches.push(StreamedMatch {
            node: u64::from_le_bytes(pair[..8].try_into().expect("chunk is 16 bytes")) as usize,
            offset: u64::from_le_bytes(pair[8..].try_into().expect("chunk is 16 bytes")) as usize,
        });
    }
    Ok((start, matches))
}

/// Encodes the final [`FrameKind::Matches`] payload of a *streaming*
/// request: the plain id block followed by the emission cursor, so the
/// client can verify that the parts it accumulated are exactly the
/// stream the server delivered (count and FNV-1a digest both).
pub fn encode_matches_with_cursor(ids: &[usize], cursor: EmissionCursor) -> Vec<u8> {
    let mut out = encode_matches(ids);
    out.extend_from_slice(&cursor.count.to_le_bytes());
    out.extend_from_slice(&cursor.digest.to_le_bytes());
    out
}

/// Decodes a final streaming [`FrameKind::Matches`] payload into
/// `(ids, cursor)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] unless the payload is exactly the id
/// block plus 16 cursor bytes.
pub fn decode_matches_with_cursor(
    payload: &[u8],
) -> Result<(Vec<usize>, EmissionCursor), FrameError> {
    let (ids, at) = decode_id_block(payload, 0)?;
    if payload.len() != at + 16 {
        return Err(bad_payload(
            "streaming MATCHES payload is not ids + a 16-byte cursor",
        ));
    }
    let count = u64::from_le_bytes(payload[at..at + 8].try_into().expect("length checked"));
    let digest = u64::from_le_bytes(payload[at + 8..at + 16].try_into().expect("length checked"));
    Ok((ids, EmissionCursor { count, digest }))
}

/// Encodes a [`FrameKind::Error`] payload.
pub fn encode_error(code: u16, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes a [`FrameKind::Error`] payload into `(code, message)`.
///
/// # Errors
///
/// [`FrameError::BadPayload`] on a short payload (the message may be
/// empty; non-UTF-8 text is replaced, not rejected — the code is the
/// contract, the message is advisory).
pub fn decode_error(payload: &[u8]) -> Result<(u16, String), FrameError> {
    if payload.len() < 2 {
        return Err(bad_payload("ERROR payload shorter than its code"));
    }
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    let message = String::from_utf8_lossy(&payload[2..]).into_owned();
    Ok((code, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, payload).unwrap();
        out
    }

    #[test]
    fn frame_round_trip() {
        let bytes = frame_bytes(FrameKind::Chunk, b"<a></a>");
        let f = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(f.kind, FrameKind::Chunk);
        assert_eq!(f.payload, b"<a></a>");
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut bytes = vec![FrameKind::Chunk.as_byte()];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&bytes), 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::TooLarge {
                len: u32::MAX as usize,
                max: 1024
            }
        );
    }

    #[test]
    fn torn_frame_is_truncated_not_a_hang() {
        let bytes = frame_bytes(FrameKind::Chunk, b"payload");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut]), 1024).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn eof_before_any_byte_is_a_polite_none() {
        assert_eq!(
            read_frame_or_eof(&mut Cursor::new(&[]), 1024).unwrap(),
            None
        );
    }

    #[test]
    fn bad_frame_type_is_typed() {
        let err = read_frame(&mut Cursor::new(&[0x7f, 0, 0, 0, 0]), 1024).unwrap_err();
        assert_eq!(err, FrameError::BadFrameType { byte: 0x7f });
    }

    #[test]
    fn preamble_mismatch_is_typed() {
        let err = read_preamble(&mut Cursor::new(b"HTTP")).unwrap_err();
        assert_eq!(err, FrameError::BadPreamble { got: *b"HTTP" });
    }

    #[test]
    fn query_payload_round_trip_and_lies() {
        let p = encode_query("a,b,c", ".*a");
        assert_eq!(
            decode_query(&p).unwrap(),
            ("a,b,c".to_owned(), ".*a".to_owned())
        );
        // Length lying past the payload.
        let mut lie = p.clone();
        lie[0] = 0xff;
        lie[1] = 0xff;
        assert!(decode_query(&lie).is_err());
        // Empty payloads and empty patterns.
        assert!(decode_query(&[]).is_err());
        assert!(decode_query(&encode_query("a,b", "")).is_err());
    }

    #[test]
    fn multi_query_round_trip_and_trailing_garbage() {
        let p = encode_multi_query("a,b", &[".*a", ".*b", ".*a.*b"]);
        let (csv, pats) = decode_multi_query(&p).unwrap();
        assert_eq!(csv, "a,b");
        assert_eq!(pats, vec![".*a", ".*b", ".*a.*b"]);
        let mut garbage = p.clone();
        garbage.push(0);
        assert!(decode_multi_query(&garbage).is_err());
        assert!(decode_multi_query(&encode_multi_query::<&str>("a,b", &[])).is_err());
    }

    #[test]
    fn matches_round_trip_and_count_lies() {
        let p = encode_matches(&[0, 3, 17]);
        assert_eq!(decode_matches(&p).unwrap(), vec![0, 3, 17]);
        let mut lie = p.clone();
        lie[0] = 200; // claims 200 ids, carries 3
        assert!(decode_matches(&lie).is_err());
        let multi = encode_multi_matches(&[vec![1, 2], vec![], vec![9]]);
        assert_eq!(
            decode_multi_matches(&multi).unwrap(),
            vec![vec![1, 2], vec![], vec![9]]
        );
    }

    #[test]
    fn match_part_round_trip_and_lies() {
        let ms = vec![
            StreamedMatch {
                node: 3,
                offset: 17,
            },
            StreamedMatch {
                node: 9,
                offset: 140,
            },
        ];
        let p = encode_match_part(5, &ms);
        assert_eq!(decode_match_part(&p).unwrap(), (5, ms.clone()));
        // Empty parts are legal (a chunk that decided nothing).
        let empty = encode_match_part(7, &[]);
        assert_eq!(decode_match_part(&empty).unwrap(), (7, vec![]));
        // Count lies and torn bodies are typed, never panics.
        let mut lie = p.clone();
        lie[8] = 200;
        assert!(decode_match_part(&lie).is_err());
        assert!(decode_match_part(&p[..p.len() - 1]).is_err());
        assert!(decode_match_part(&[0; 11]).is_err());
    }

    #[test]
    fn matches_with_cursor_round_trip_and_lies() {
        let cursor = EmissionCursor::over(&[StreamedMatch { node: 1, offset: 4 }]);
        let p = encode_matches_with_cursor(&[1], cursor);
        let (ids, c) = decode_matches_with_cursor(&p).unwrap();
        assert_eq!(ids, vec![1]);
        assert_eq!(c, cursor);
        // A plain MATCHES payload (no cursor) is rejected by the
        // streaming decoder, and the cursor-carrying payload is rejected
        // by the plain decoder — the two response shapes cannot be
        // silently confused.
        assert!(decode_matches_with_cursor(&encode_matches(&[1])).is_err());
        assert!(decode_matches(&p).is_err());
        assert!(decode_matches_with_cursor(&p[..p.len() - 1]).is_err());
    }

    #[test]
    fn stream_frame_kinds_round_trip_their_bytes() {
        assert_eq!(
            FrameKind::from_byte(FrameKind::StreamQuery.as_byte()),
            Some(FrameKind::StreamQuery)
        );
        assert_eq!(
            FrameKind::from_byte(FrameKind::MatchPart.as_byte()),
            Some(FrameKind::MatchPart)
        );
    }

    /// A source that counts its `read` calls, hands out at most `step`
    /// bytes per call, and past its bytes either ends or times out.
    struct CountingReader {
        bytes: Cursor<Vec<u8>>,
        step: usize,
        reads: usize,
        then_timeout: bool,
    }

    impl CountingReader {
        fn new(bytes: Vec<u8>) -> CountingReader {
            CountingReader {
                bytes: Cursor::new(bytes),
                step: usize::MAX,
                reads: 0,
                then_timeout: false,
            }
        }
    }

    impl Read for CountingReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = out.len().min(self.step);
            match self.bytes.read(&mut out[..n])? {
                0 if self.then_timeout => Err(io::ErrorKind::WouldBlock.into()),
                got => Ok(got),
            }
        }
    }

    /// A sink that counts its calls and takes at most `step` bytes per
    /// call.
    struct CountingWriter {
        bytes: Vec<u8>,
        step: usize,
        writes: usize,
        vectored: usize,
    }

    impl CountingWriter {
        fn new(step: usize) -> CountingWriter {
            CountingWriter {
                bytes: Vec::new(),
                step,
                writes: 0,
                vectored: 0,
            }
        }

        fn take(&mut self, bufs: &[IoSlice<'_>]) -> usize {
            let mut room = self.step;
            for b in bufs {
                let n = b.len().min(room);
                self.bytes.extend_from_slice(&b[..n]);
                room -= n;
            }
            self.step - room
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            Ok(self.take(&[IoSlice::new(buf)]))
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored += 1;
            Ok(self.take(bufs))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The preamble and one whole request: QUERY, 3 CHUNK, FINISH.
    fn request_burst() -> Vec<u8> {
        let mut wire = PREAMBLE.to_vec();
        wire.extend(frame_bytes(FrameKind::Query, &encode_query("a,b", ".*a")));
        for seg in [&b"<a><b>"[..], b"</b>", b"</a>"] {
            wire.extend(frame_bytes(FrameKind::Chunk, seg));
        }
        wire.extend(frame_bytes(FrameKind::Finish, &[]));
        wire
    }

    #[test]
    fn a_whole_frame_on_a_raw_stream_costs_two_reads() {
        let mut r = CountingReader::new(frame_bytes(FrameKind::Chunk, b"<a></a>"));
        let f = read_frame(&mut r, 1024).unwrap();
        assert_eq!(
            (f.kind, f.payload.as_slice()),
            (FrameKind::Chunk, &b"<a></a>"[..])
        );
        assert_eq!(r.reads, 2, "one read for the header, one for the payload");
    }

    #[test]
    fn write_frame_is_one_vectored_write() {
        let mut w = CountingWriter::new(usize::MAX);
        write_frame(&mut w, FrameKind::Chunk, b"<a></a>").unwrap();
        assert_eq!((w.vectored, w.writes), (1, 0));
        let mut wire = vec![FrameKind::Chunk.as_byte(), 7, 0, 0, 0];
        wire.extend_from_slice(b"<a></a>");
        assert_eq!(w.bytes, wire);
    }

    #[test]
    fn a_writer_taking_one_byte_per_call_gets_the_exact_wire_bytes() {
        for payload in [&b""[..], b"x", b"<a><b></b></a>"] {
            let mut w = CountingWriter::new(1);
            write_frame(&mut w, FrameKind::Chunk, payload).unwrap();
            let mut wire = vec![FrameKind::Chunk.as_byte()];
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
            assert_eq!(w.bytes, wire);
            assert_eq!(w.vectored + w.writes, wire.len());
        }
    }

    #[test]
    fn a_request_sent_in_one_burst_parses_with_one_fill() {
        let mut frames = FrameReader::new(CountingReader::new(request_burst()));
        read_preamble(&mut frames).unwrap();
        let mut kinds = Vec::new();
        let mut doc = Vec::new();
        loop {
            let (kind, payload) = frames.next_frame(1024).unwrap();
            kinds.push(kind);
            if kind == FrameKind::Chunk {
                doc.extend_from_slice(payload);
            }
            if kind == FrameKind::Finish {
                break;
            }
        }
        use FrameKind::{Chunk, Finish, Query};
        assert_eq!(kinds, [Query, Chunk, Chunk, Chunk, Finish]);
        assert_eq!(doc, b"<a><b></b></a>");
        assert_eq!(frames.inner.reads, 1);
        assert_eq!(frames.buf.len(), FRAME_READER_START, "no growth");
    }

    #[test]
    fn a_frame_larger_than_the_buffer_grows_it_to_header_plus_payload() {
        let payload = vec![b'x'; 3 * FRAME_READER_START];
        let mut frames =
            FrameReader::new(CountingReader::new(frame_bytes(FrameKind::Chunk, &payload)));
        let (kind, got) = frames.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!((kind, got), (FrameKind::Chunk, payload.as_slice()));
        assert_eq!(frames.buf.len(), HEADER_LEN + payload.len());
    }

    #[test]
    fn a_header_over_the_maximum_is_refused_before_any_growth() {
        let mut wire = vec![FrameKind::Chunk.as_byte()];
        wire.extend_from_slice(&(DEFAULT_MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut frames = FrameReader::new(CountingReader::new(wire));
        assert_eq!(
            frames.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            FrameError::TooLarge {
                len: DEFAULT_MAX_FRAME_LEN + 1,
                max: DEFAULT_MAX_FRAME_LEN
            }
        );
        assert_eq!(frames.buf.len(), FRAME_READER_START);
    }

    #[test]
    fn bytes_past_a_frame_survive_for_the_next_frame() {
        // Seven bytes per read: every frame boundary lands inside a read.
        let big = vec![b'y'; FRAME_READER_START + 3];
        let mut wire = frame_bytes(FrameKind::Chunk, b"<a>");
        wire.extend(frame_bytes(FrameKind::Chunk, &big));
        wire.extend(frame_bytes(FrameKind::Chunk, b"</a>"));
        let mut source = CountingReader::new(wire);
        source.step = 7;
        let mut frames = FrameReader::new(source);
        assert_eq!(frames.next_frame(1 << 16).unwrap().1, b"<a>");
        assert_eq!(frames.next_frame(1 << 16).unwrap().1, big.as_slice());
        assert_eq!(frames.next_frame(1 << 16).unwrap().1, b"</a>");
        assert_eq!(frames.next_frame_or_eof(1 << 16).unwrap(), None);
    }

    #[test]
    fn the_connection_buffer_maps_errors_as_the_raw_codec_does() {
        let wire = frame_bytes(FrameKind::Chunk, b"payload");
        for cut in 0..wire.len() {
            let raw = read_frame(&mut Cursor::new(&wire[..cut]), 1024).unwrap_err();
            let mut frames = FrameReader::new(Cursor::new(&wire[..cut]));
            assert_eq!(frames.next_frame(1024).unwrap_err(), raw, "cut at {cut}");
            // A deadline after partial progress is still a timeout.
            let stalled = || {
                let mut source = CountingReader::new(wire[..cut].to_vec());
                source.then_timeout = true;
                source
            };
            assert_eq!(read_frame(&mut stalled(), 1024), Err(FrameError::Timeout));
            let mut frames = FrameReader::new(stalled());
            assert_eq!(frames.next_frame(1024).unwrap_err(), FrameError::Timeout);
        }
        let mut frames = FrameReader::new(Cursor::new([0x7f, 0, 0, 0, 0]));
        assert_eq!(
            frames.next_frame(1024).unwrap_err(),
            FrameError::BadFrameType { byte: 0x7f }
        );
    }

    #[test]
    fn error_payload_round_trip() {
        let p = encode_error(codes::SLOW_CLIENT, "too slow");
        assert_eq!(
            decode_error(&p).unwrap(),
            (codes::SLOW_CLIENT, "too slow".to_owned())
        );
        assert!(decode_error(&[1]).is_err());
    }
}
