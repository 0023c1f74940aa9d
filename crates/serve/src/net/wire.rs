//! The `MGW1` wire protocol: length-prefixed, checksummed, versioned frames.
//!
//! Every message on a serving connection is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "MGW1"
//! 4       2     version (u16, little-endian; this codec speaks version 1)
//! 6       1     frame kind (see [`FrameKind`])
//! 7       8     request id (u64, echoed verbatim in the response frame)
//! 15      4     payload length (u32; bounded by [`MAX_FRAME_PAYLOAD`])
//! 19      n     payload (kind-specific codec, see below)
//! 19+n    8     FNV-1a-64 checksum of bytes 0..19+n
//! ```
//!
//! The codec follows the `MOG1` persistence rules of
//! [`mogul_sparse::persist`] — whose primitives it reuses directly:
//!
//! * **Never panic.** Every read is bounds-checked; malformed input returns
//!   a typed [`WireError`].
//! * **Never trust a length.** The payload length is validated against
//!   [`MAX_FRAME_PAYLOAD`] *before* any allocation, so a hostile header
//!   cannot trigger a huge allocation.
//! * **Fail closed.** A frame whose checksum does not match is rejected;
//!   framing is then unrecoverable and the connection must be closed.
//!
//! Payloads encode `f64` values as raw IEEE-754 bits, so query answers
//! travel **bit-identically**: a score decoded from the wire equals the
//! in-process score exactly.

use crate::error::ServeError;
use crate::net::stats::ServerStatsReport;
use crate::request::{QueryRequest, QueryResponse, ResponseStatus};
use mogul_core::{CoreError, OutOfSampleResult, RankedNode, SearchStats, TopKResult};
use mogul_sparse::persist::{checksum64, put_f64, put_u64, put_usize, ByteReader};
use std::io::Read;

/// First four bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"MGW1";

/// Protocol version this codec speaks. Frames declaring a higher version are
/// rejected with [`WireError::UnsupportedVersion`] — never half-parsed.
pub const WIRE_VERSION: u16 = 1;

/// Upper bound on a frame payload (16 MiB). A declared length past this is
/// rejected before allocation; it comfortably fits any real request or
/// response (a 16 MiB payload is a two-million-component feature vector).
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Fixed byte length of the frame header (magic through payload length).
pub const FRAME_HEADER_LEN: usize = 19;

/// Frame kinds of protocol version 1. Requests flow client → server
/// (`0x0_`), responses server → client (`0x8_`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`QueryRequest`] payload; answered by [`FrameKind::Answer`] or
    /// [`FrameKind::Error`] carrying the same request id.
    Query,
    /// Empty payload; answered by [`FrameKind::StatsReport`].
    Stats,
    /// Empty payload; asks the server to drain gracefully. Acknowledged
    /// immediately with [`FrameKind::DrainStarted`]; admitted requests still
    /// complete.
    Drain,
    /// A [`QueryResponse`] payload.
    Answer,
    /// A [`ServerStatsReport`] payload.
    StatsReport,
    /// A [`ServeError`] payload (typed: `Overloaded`, `Draining`,
    /// `BadRequest`, …).
    Error,
    /// Empty payload acknowledging a [`FrameKind::Drain`].
    DrainStarted,
}

impl FrameKind {
    /// Wire code of this kind.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Query => 0x01,
            FrameKind::Stats => 0x02,
            FrameKind::Drain => 0x03,
            FrameKind::Answer => 0x81,
            FrameKind::StatsReport => 0x82,
            FrameKind::Error => 0x83,
            FrameKind::DrainStarted => 0x84,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            0x01 => FrameKind::Query,
            0x02 => FrameKind::Stats,
            0x03 => FrameKind::Drain,
            0x81 => FrameKind::Answer,
            0x82 => FrameKind::StatsReport,
            0x83 => FrameKind::Error,
            0x84 => FrameKind::DrainStarted,
            got => return Err(WireError::UnknownKind { got }),
        })
    }
}

/// One decoded frame (header fields + raw payload bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Request id (echoed from request to response).
    pub request_id: u64,
    /// Raw payload bytes (decode with the kind-specific codec).
    pub payload: Vec<u8>,
}

/// Typed decode failures of the wire codec.
///
/// [`WireError::Payload`] leaves the connection usable (the frame itself was
/// intact); every other variant means framing is lost or the peer speaks a
/// different protocol, and the connection must be closed.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes actually read.
        got: [u8; 4],
    },
    /// The frame declares a protocol version this codec does not speak.
    UnsupportedVersion {
        /// Declared version.
        got: u16,
    },
    /// The frame kind byte is not a known [`FrameKind`].
    UnknownKind {
        /// The byte actually read.
        got: u8,
    },
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`] (rejected
    /// before allocation).
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The trailing checksum does not match the received bytes.
    ChecksumMismatch {
        /// Checksum declared by the frame.
        expected: u64,
        /// Checksum of the bytes actually received.
        actual: u64,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Which part of the frame was being read.
        context: &'static str,
    },
    /// The frame was intact but its payload failed the kind-specific codec.
    Payload(String),
    /// A socket read or write exceeded its configured timeout (see
    /// [`NetClient::set_read_timeout`](crate::net::NetClient::set_read_timeout)).
    /// The connection state is indeterminate mid-frame, so the connection
    /// must be abandoned — but the failure is transient, and the request is
    /// safe to retry against another replica.
    TimedOut {
        /// Human-readable detail from the underlying I/O error.
        detail: String,
    },
    /// An I/O failure while reading or writing the stream.
    Io {
        /// The kind of I/O error.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad frame magic {got:?} (want \"MGW1\")"),
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this codec speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind { got } => write!(f, "unknown frame kind 0x{got:02x}"),
            WireError::FrameTooLarge { declared, max } => {
                write!(
                    f,
                    "frame payload of {declared} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: declared {expected:#018x}, computed {actual:#018x}"
            ),
            WireError::Truncated { context } => write!(f, "stream ended while reading {context}"),
            WireError::Payload(msg) => write!(f, "malformed frame payload: {msg}"),
            WireError::TimedOut { detail } => write!(f, "i/o timeout: {detail}"),
            WireError::Io { kind, detail } => write!(f, "i/o error ({kind:?}): {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        match err.kind() {
            // `set_read_timeout` surfaces an expired deadline as either
            // `WouldBlock` (unix) or `TimedOut` (windows); both mean the
            // peer stalled, not that it answered wrongly.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::TimedOut {
                detail: err.to_string(),
            },
            kind => WireError::Io {
                kind,
                detail: err.to_string(),
            },
        }
    }
}

/// Map a [`ByteReader`] failure onto [`WireError::Payload`].
fn payload_err(err: mogul_sparse::SparseError) -> WireError {
    WireError::Payload(err.to_string())
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Encode one complete frame (header + payload + checksum) into a buffer
/// ready for a single `write_all`.
pub fn encode_frame(
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 8);
    append_frame(kind, request_id, payload, &mut out)?;
    Ok(out)
}

/// [`encode_frame`] appending to `out`, so several frames can leave in one
/// `write_all`. On error `out` is unchanged.
pub(crate) fn append_frame(
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared: payload.len(),
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind.code());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum64(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Whether `buffered` starts with a whole frame by its declared length, so
/// [`read_frame`] over a buffered reader holding these bytes returns
/// without touching the socket. (Only the length is read: a frame that
/// will fail validation counts as whole too.)
pub(crate) fn holds_whole_frame(buffered: &[u8]) -> bool {
    let Some(declared) = buffered.get(15..FRAME_HEADER_LEN) else {
        return false;
    };
    let declared = u32::from_le_bytes(declared.try_into().expect("4-byte slice")) as usize;
    buffered.len() - FRAME_HEADER_LEN >= declared.saturating_add(8)
}

/// Fill `buf` from the reader, distinguishing a clean end-of-stream before
/// the first byte (`Ok(false)`) from a mid-read truncation.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<bool, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Truncated { context });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Read one frame from a stream.
///
/// Returns `Ok(None)` when the stream is cleanly closed at a frame boundary
/// (the normal end of a connection). Header fields are validated — and the
/// payload length bounded — *before* the payload is allocated or read; the
/// trailing checksum is verified over everything received.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header, "frame header")? {
        return Ok(None);
    }
    if header[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic {
            got: [header[0], header[1], header[2], header[3]],
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let kind = FrameKind::from_code(header[6])?;
    let request_id = u64::from_le_bytes(header[7..15].try_into().expect("8-byte slice"));
    let declared = u32::from_le_bytes(header[15..19].try_into().expect("4-byte slice")) as usize;
    if declared > MAX_FRAME_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; declared];
    if !payload.is_empty() && !read_exact_or_eof(r, &mut payload, "frame payload")? {
        return Err(WireError::Truncated {
            context: "frame payload",
        });
    }
    let mut trailer = [0u8; 8];
    if !read_exact_or_eof(r, &mut trailer, "frame checksum")? {
        return Err(WireError::Truncated {
            context: "frame checksum",
        });
    }
    let expected = u64::from_le_bytes(trailer);
    let mut actual = checksum64(&header);
    // FNV-1a composes over concatenation only by re-feeding; checksum the
    // header and payload as one logical stream without concatenating them.
    for &b in &payload {
        actual ^= b as u64;
        actual = actual.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if expected != actual {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(Some(Frame {
        kind,
        request_id,
        payload,
    }))
}

// ---------------------------------------------------------------------------
// String helpers (length-prefixed UTF-8)
// ---------------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn take_str(reader: &mut ByteReader<'_>, what: &str) -> Result<String, WireError> {
    let len = reader.take_len(1, what).map_err(payload_err)?;
    let bytes = reader.take_bytes(len, what).map_err(payload_err)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Payload(format!("{what}: invalid UTF-8")))
}

// ---------------------------------------------------------------------------
// QueryRequest payload
// ---------------------------------------------------------------------------

const REQ_IN_DATABASE: u8 = 0;
const REQ_OUT_OF_SAMPLE: u8 = 1;
// Strict variants: identical body, but the request demands a complete
// answer — a degraded scatter-gather must fail typed
// ([`ServeError::Incomplete`]) instead of answering with a shard subset.
// New tags (rather than a trailing flag byte) keep the common case
// byte-identical to protocol v1 day one: a non-strict request encoded by
// this codec decodes on a pre-resilience server, and a pre-resilience
// server rejects a strict request typed (unknown tag → `Payload` error on
// a still-usable connection) instead of silently dropping the flag.
const REQ_IN_DATABASE_STRICT: u8 = 2;
const REQ_OUT_OF_SAMPLE_STRICT: u8 = 3;

/// Encode a [`QueryRequest`] payload.
pub fn encode_query_request(request: &QueryRequest, out: &mut Vec<u8>) {
    encode_query_request_opts(request, false, out);
}

/// Encode a [`QueryRequest`] payload, optionally flagged `require_complete`
/// (the strict tags). A non-strict encoding is byte-identical to
/// [`encode_query_request`].
pub fn encode_query_request_opts(
    request: &QueryRequest,
    require_complete: bool,
    out: &mut Vec<u8>,
) {
    match request {
        QueryRequest::InDatabase { node, k } => {
            out.push(if require_complete {
                REQ_IN_DATABASE_STRICT
            } else {
                REQ_IN_DATABASE
            });
            put_usize(out, *node);
            put_usize(out, *k);
        }
        QueryRequest::OutOfSample { feature, k } => {
            out.push(if require_complete {
                REQ_OUT_OF_SAMPLE_STRICT
            } else {
                REQ_OUT_OF_SAMPLE
            });
            put_usize(out, *k);
            put_usize(out, feature.len());
            for &v in feature {
                put_f64(out, v);
            }
        }
    }
}

/// Decode a [`QueryRequest`] payload (must consume the payload exactly),
/// discarding the `require_complete` flag.
pub fn decode_query_request(payload: &[u8]) -> Result<QueryRequest, WireError> {
    decode_query_request_opts(payload).map(|(request, _)| request)
}

/// Decode a [`QueryRequest`] payload (must consume the payload exactly),
/// returning the request and its `require_complete` flag.
pub fn decode_query_request_opts(payload: &[u8]) -> Result<(QueryRequest, bool), WireError> {
    let mut reader = ByteReader::new(payload);
    let tag = reader.take_bytes(1, "request tag").map_err(payload_err)?[0];
    let require_complete = matches!(tag, REQ_IN_DATABASE_STRICT | REQ_OUT_OF_SAMPLE_STRICT);
    let request = match tag {
        REQ_IN_DATABASE | REQ_IN_DATABASE_STRICT => {
            let node = reader.take_usize("request node").map_err(payload_err)?;
            let k = reader.take_usize("request k").map_err(payload_err)?;
            QueryRequest::InDatabase { node, k }
        }
        REQ_OUT_OF_SAMPLE | REQ_OUT_OF_SAMPLE_STRICT => {
            let k = reader.take_usize("request k").map_err(payload_err)?;
            let len = reader.take_len(8, "request feature").map_err(payload_err)?;
            let feature = reader
                .take_f64s(len, "request feature")
                .map_err(payload_err)?;
            QueryRequest::OutOfSample { feature, k }
        }
        other => {
            return Err(WireError::Payload(format!(
                "unknown query-request tag {other}"
            )))
        }
    };
    reader.finish("query request").map_err(payload_err)?;
    Ok((request, require_complete))
}

// ---------------------------------------------------------------------------
// QueryResponse payload
// ---------------------------------------------------------------------------

fn encode_top_k(top_k: &TopKResult, out: &mut Vec<u8>) {
    put_usize(out, top_k.len());
    for item in top_k.items() {
        put_usize(out, item.node);
        put_f64(out, item.score);
    }
}

fn decode_top_k(reader: &mut ByteReader<'_>) -> Result<TopKResult, WireError> {
    let len = reader.take_len(16, "top-k items").map_err(payload_err)?;
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        let node = reader.take_usize("top-k node").map_err(payload_err)?;
        let score = reader.take_f64("top-k score").map_err(payload_err)?;
        items.push(RankedNode { node, score });
    }
    // `TopKResult::new` re-sorts with the same (score desc, node asc)
    // comparator every constructor uses, so the decoded ordering is
    // bit-identical to the encoded one.
    Ok(TopKResult::new(items))
}

fn encode_search_stats(stats: &SearchStats, out: &mut Vec<u8>) {
    put_usize(out, stats.clusters_considered);
    put_usize(out, stats.clusters_pruned);
    put_usize(out, stats.nodes_scored);
    put_usize(out, stats.bound_evaluations);
}

fn decode_search_stats(reader: &mut ByteReader<'_>) -> Result<SearchStats, WireError> {
    Ok(SearchStats {
        clusters_considered: reader
            .take_usize("stats clusters_considered")
            .map_err(payload_err)?,
        clusters_pruned: reader
            .take_usize("stats clusters_pruned")
            .map_err(payload_err)?,
        nodes_scored: reader
            .take_usize("stats nodes_scored")
            .map_err(payload_err)?,
        bound_evaluations: reader
            .take_usize("stats bound_evaluations")
            .map_err(payload_err)?,
    })
}

const RESP_IN_DATABASE: u8 = 0;
const RESP_OUT_OF_SAMPLE: u8 = 1;
// Degraded variants: same body, prefixed with the `shards_answered /
// shards_total` completeness field. Complete answers keep tags 0/1
// byte-for-byte, so every answer an old client can *receive* (it cannot
// send the strict flag that tolerates degradation) still decodes.
const RESP_IN_DATABASE_DEGRADED: u8 = 2;
const RESP_OUT_OF_SAMPLE_DEGRADED: u8 = 3;

/// Encode a [`QueryResponse`] payload (scores as raw IEEE-754 bits —
/// bit-identical on decode).
pub fn encode_query_response(response: &QueryResponse, out: &mut Vec<u8>) {
    encode_query_response_status(response, ResponseStatus::Complete, out);
}

/// Encode a [`QueryResponse`] payload together with its completeness
/// status. A [`ResponseStatus::Complete`] encoding is byte-identical to
/// [`encode_query_response`]; a degraded one uses the degraded tags and
/// prefixes the body with the shard counts.
pub fn encode_query_response_status(
    response: &QueryResponse,
    status: ResponseStatus,
    out: &mut Vec<u8>,
) {
    let degraded = |base: u8| -> u8 {
        match status {
            ResponseStatus::Complete => base,
            ResponseStatus::Degraded { .. } => base + 2,
        }
    };
    let put_status = |out: &mut Vec<u8>| {
        if let ResponseStatus::Degraded {
            shards_answered,
            shards_total,
        } = status
        {
            put_usize(out, shards_answered);
            put_usize(out, shards_total);
        }
    };
    match response {
        QueryResponse::InDatabase(top_k) => {
            out.push(degraded(RESP_IN_DATABASE));
            put_status(out);
            encode_top_k(top_k, out);
        }
        QueryResponse::OutOfSample(result) => {
            out.push(degraded(RESP_OUT_OF_SAMPLE));
            put_status(out);
            encode_top_k(&result.top_k, out);
            put_usize(out, result.neighbors.len());
            for &n in &result.neighbors {
                put_usize(out, n);
            }
            put_f64(out, result.nearest_neighbor_secs);
            put_f64(out, result.top_k_secs);
            encode_search_stats(&result.stats, out);
        }
    }
}

/// Decode a [`QueryResponse`] payload (must consume the payload exactly),
/// discarding the completeness status.
pub fn decode_query_response(payload: &[u8]) -> Result<QueryResponse, WireError> {
    decode_query_response_status(payload).map(|(response, _)| response)
}

/// Decode a [`QueryResponse`] payload (must consume the payload exactly),
/// returning the response and its [`ResponseStatus`].
pub fn decode_query_response_status(
    payload: &[u8],
) -> Result<(QueryResponse, ResponseStatus), WireError> {
    let mut reader = ByteReader::new(payload);
    let tag = reader.take_bytes(1, "response tag").map_err(payload_err)?[0];
    let status = match tag {
        RESP_IN_DATABASE | RESP_OUT_OF_SAMPLE => ResponseStatus::Complete,
        RESP_IN_DATABASE_DEGRADED | RESP_OUT_OF_SAMPLE_DEGRADED => {
            let shards_answered = reader
                .take_usize("response shards answered")
                .map_err(payload_err)?;
            let shards_total = reader
                .take_usize("response shards total")
                .map_err(payload_err)?;
            ResponseStatus::Degraded {
                shards_answered,
                shards_total,
            }
        }
        other => {
            return Err(WireError::Payload(format!(
                "unknown query-response tag {other}"
            )))
        }
    };
    let response = match tag {
        RESP_IN_DATABASE | RESP_IN_DATABASE_DEGRADED => {
            QueryResponse::InDatabase(decode_top_k(&mut reader)?)
        }
        _ => {
            let top_k = decode_top_k(&mut reader)?;
            let neighbors = reader
                .take_usize_vec("response neighbors")
                .map_err(payload_err)?;
            let nearest_neighbor_secs = reader
                .take_f64("response nn seconds")
                .map_err(payload_err)?;
            let top_k_secs = reader
                .take_f64("response top-k seconds")
                .map_err(payload_err)?;
            let stats = decode_search_stats(&mut reader)?;
            QueryResponse::OutOfSample(Box::new(OutOfSampleResult {
                top_k,
                neighbors,
                nearest_neighbor_secs,
                top_k_secs,
                stats,
            }))
        }
    };
    reader.finish("query response").map_err(payload_err)?;
    Ok((response, status))
}

// ---------------------------------------------------------------------------
// ServeError payload
// ---------------------------------------------------------------------------

const ERR_OVERLOADED: u8 = 1;
const ERR_DRAINING: u8 = 2;
const ERR_BAD_REQUEST: u8 = 3;
const ERR_INDEX: u8 = 4;
const ERR_CONFIG: u8 = 5;
const ERR_DURABILITY: u8 = 6;
const ERR_INCOMPLETE: u8 = 7;

/// Encode a [`ServeError`] payload.
///
/// [`ServeError::Index`] travels as its display string (the inner
/// [`CoreError`] structure is not a wire contract); it decodes as
/// `Index(InvalidInput(message))`, preserving the variant and the message.
pub fn encode_serve_error(error: &ServeError, out: &mut Vec<u8>) {
    match error {
        ServeError::Overloaded {
            queue_depth,
            queue_capacity,
        } => {
            out.push(ERR_OVERLOADED);
            put_usize(out, *queue_depth);
            put_usize(out, *queue_capacity);
        }
        ServeError::Draining => out.push(ERR_DRAINING),
        ServeError::BadRequest { reason } => {
            out.push(ERR_BAD_REQUEST);
            put_str(out, reason);
        }
        ServeError::Index(err) => {
            out.push(ERR_INDEX);
            put_str(out, &err.to_string());
        }
        ServeError::Config { reason } => {
            out.push(ERR_CONFIG);
            put_str(out, reason);
        }
        ServeError::Durability { reason } => {
            out.push(ERR_DURABILITY);
            put_str(out, reason);
        }
        ServeError::Incomplete {
            shards_answered,
            shards_total,
        } => {
            out.push(ERR_INCOMPLETE);
            put_usize(out, *shards_answered);
            put_usize(out, *shards_total);
        }
    }
}

/// Decode a [`ServeError`] payload (must consume the payload exactly).
pub fn decode_serve_error(payload: &[u8]) -> Result<ServeError, WireError> {
    let mut reader = ByteReader::new(payload);
    let tag = reader.take_bytes(1, "error tag").map_err(payload_err)?[0];
    let error = match tag {
        ERR_OVERLOADED => ServeError::Overloaded {
            queue_depth: reader
                .take_usize("error queue depth")
                .map_err(payload_err)?,
            queue_capacity: reader
                .take_usize("error queue capacity")
                .map_err(payload_err)?,
        },
        ERR_DRAINING => ServeError::Draining,
        ERR_BAD_REQUEST => ServeError::BadRequest {
            reason: take_str(&mut reader, "error reason")?,
        },
        ERR_INDEX => ServeError::Index(CoreError::InvalidInput(take_str(
            &mut reader,
            "error detail",
        )?)),
        ERR_CONFIG => ServeError::Config {
            reason: take_str(&mut reader, "error reason")?,
        },
        ERR_DURABILITY => ServeError::Durability {
            reason: take_str(&mut reader, "error reason")?,
        },
        ERR_INCOMPLETE => ServeError::Incomplete {
            shards_answered: reader
                .take_usize("error shards answered")
                .map_err(payload_err)?,
            shards_total: reader
                .take_usize("error shards total")
                .map_err(payload_err)?,
        },
        other => return Err(WireError::Payload(format!("unknown error tag {other}"))),
    };
    reader.finish("serve error").map_err(payload_err)?;
    Ok(error)
}

// ---------------------------------------------------------------------------
// ServerStatsReport payload
// ---------------------------------------------------------------------------

/// Encode a [`ServerStatsReport`] payload.
pub fn encode_stats_report(report: &ServerStatsReport, out: &mut Vec<u8>) {
    put_u64(out, report.epoch);
    put_u64(out, report.items);
    put_f64(out, report.uptime_secs);
    put_u64(out, report.connections);
    put_u64(out, report.queue_depth);
    put_u64(out, report.queue_capacity);
    put_u64(out, report.inflight);
    put_u64(out, report.completed);
    put_u64(out, report.shed_overloaded);
    put_u64(out, report.shed_draining);
    put_u64(out, report.bad_requests);
    put_u64(out, report.index_errors);
    put_f64(out, report.p50_us);
    put_f64(out, report.p95_us);
    put_f64(out, report.qps);
    put_u64(out, report.rebuild_support);
    put_f64(out, report.rebuild_fraction);
    out.push(report.draining as u8);
    // Additive trailing field (see the decoder): keep appending new fields
    // here, never reorder the ones above.
    put_u64(out, report.shed_deadline);
    put_u64(out, report.answered_by_reader);
}

/// Decode a [`ServerStatsReport`] payload (must consume the payload
/// exactly).
pub fn decode_stats_report(payload: &[u8]) -> Result<ServerStatsReport, WireError> {
    let mut reader = ByteReader::new(payload);
    let u = |what: &str, reader: &mut ByteReader<'_>| -> Result<u64, WireError> {
        reader.take_u64(what).map_err(payload_err)
    };
    let report = ServerStatsReport {
        epoch: u("stats epoch", &mut reader)?,
        items: u("stats items", &mut reader)?,
        uptime_secs: reader.take_f64("stats uptime").map_err(payload_err)?,
        connections: u("stats connections", &mut reader)?,
        queue_depth: u("stats queue depth", &mut reader)?,
        queue_capacity: u("stats queue capacity", &mut reader)?,
        inflight: u("stats inflight", &mut reader)?,
        completed: u("stats completed", &mut reader)?,
        shed_overloaded: u("stats shed overloaded", &mut reader)?,
        shed_draining: u("stats shed draining", &mut reader)?,
        bad_requests: u("stats bad requests", &mut reader)?,
        index_errors: u("stats index errors", &mut reader)?,
        p50_us: reader.take_f64("stats p50").map_err(payload_err)?,
        p95_us: reader.take_f64("stats p95").map_err(payload_err)?,
        qps: reader.take_f64("stats qps").map_err(payload_err)?,
        rebuild_support: u("stats rebuild support", &mut reader)?,
        rebuild_fraction: reader
            .take_f64("stats rebuild fraction")
            .map_err(payload_err)?,
        draining: reader
            .take_bytes(1, "stats draining")
            .map_err(payload_err)?[0]
            != 0,
        // Additive trailing field: a payload from a pre-resilience server
        // simply ends here, and the counter defaults to zero. New fields
        // must follow the same pattern (append + default-if-absent) so old
        // payloads keep decoding.
        shed_deadline: if reader.remaining() > 0 {
            u("stats shed deadline", &mut reader)?
        } else {
            0
        },
        answered_by_reader: if reader.remaining() > 0 {
            u("stats answered by reader", &mut reader)?
        } else {
            0
        },
    };
    reader.finish("stats report").map_err(payload_err)?;
    Ok(report)
}
