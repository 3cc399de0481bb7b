//! The length-prefixed wire protocol.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! ┌────────────┬──────────┬─────────────────────────┐
//! │ length u32 │ type  u8 │ payload (length-1 bytes)│
//! │ big-endian │          │                         │
//! └────────────┴──────────┴─────────────────────────┘
//! ```
//!
//! `length` counts the type byte plus the payload and must be between 1 and
//! [`MAX_FRAME_LEN`].  Frame fields are big-endian integers, IEEE-754 bit
//! patterns for floats, and strings as a `u16` byte length followed by
//! UTF-8.  [`Value`]s — the attribute values of a submitted query's target
//! tuple — travel in the canonical encoding of [`exspan_types::codec`], the
//! same bytes that name the tuple in a provenance VID and persist it in the
//! store; frames are decoded with that module's bounds-checked `Reader`.  A
//! string value is looked up, never interned: one that no stored tuple could
//! hold makes the frame malformed.
//!
//! Frame types (client → server requests carry a `request_id` echoed in the
//! response so a session can pipeline):
//!
//! | type | frame                         | direction |
//! |------|-------------------------------|-----------|
//! | 0x01 | [`Frame::Hello`] (magic+vers) | C → S     |
//! | 0x03 | [`Frame::Bye`]                | C ↔ S     |
//! | 0x04 | [`Frame::HelloAckV2`]         | S → C     |
//! | 0x10 | [`Frame::SubmitQuery`]        | C → S     |
//! | 0x11 | [`Frame::SubmitAck`]          | S → C     |
//! | 0x12 | [`Frame::Poll`]               | C → S     |
//! | 0x14 | [`Frame::QueryStatusV2`]      | S → C     |
//! | 0x15 | [`Frame::ResultChunk`]        | S → C     |
//! | 0x7F | [`Frame::Error`]              | S → C     |
//!
//! There is one protocol version, [`PROTOCOL_VERSION`]; a [`Frame::Hello`]
//! announcing an older one is answered with
//! [`ErrorCode::HandshakeRejected`].  (Tags `0x02` and `0x13` belonged to
//! version 1 and are not reused; the `V2` suffixes date from then.)
//!
//! Every protocol violation is answered with a typed [`Frame::Error`]
//! ([`ErrorCode`]) on the same connection — the server never hangs up on a
//! malformed, oversized or over-limit request.
//!
//! # Pipelining
//!
//! A client may keep any number of requests in flight on one connection;
//! the server answers each in the loop turn that reads it, so the
//! handshake's `pipeline_depth` (always 32) is a window hint, not a limit.
//! Responses are matched by the echoed `request` id and may complete **out
//! of order** — a fast query's status can arrive while an earlier query's
//! result is still streaming.
//!
//! # Result streaming
//!
//! [`MAX_FRAME_LEN`] bounds *frames*, not *results*.  When a poll finds a
//! completed query, [`Frame::QueryStatusV2`] announces the rendered result
//! body's byte length in `result_total`; the body itself follows as
//! [`Frame::ResultChunk`] frames (each carrying at most [`MAX_CHUNK_DATA`]
//! bytes — the announced `chunk_bytes` in practice) that the client
//! reassembles by `request` id with [`ResultAssembler`].  Chunks for one
//! request arrive in offset order; chunks for *different* requests may
//! interleave.  A `result_total` of zero means no chunks follow.
//!
//! # Reserved fields
//!
//! Result bodies always travel as rendered.  The `codec` flag of
//! [`Frame::Hello`] / [`Frame::HelloAckV2`] once negotiated a compressed
//! body; it stays in the layout, a client may still set it, and the server
//! always answers `false`.  The `cache_maintained` and
//! `compressed_bytes_saved` counters of [`Frame::QueryStatusV2`] likewise
//! stay in the layout, written as zero by the server.

use exspan_core::{Repr, TraversalOrder};
use exspan_types::codec::{self, DecodeError, Reader};
use exspan_types::Value;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Handshake magic: the first four payload bytes of [`Frame::Hello`].
pub const MAGIC: [u8; 4] = *b"XSPN";

/// The wire protocol version spoken by this crate.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on `type byte + payload` of one frame (64 KiB).  Larger
/// frames are answered with [`ErrorCode::Oversized`] and skipped.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Encoded size of a [`Frame::ResultChunk`] minus its data bytes: type (1)
/// + request (8) + offset (8) + total (8) + data length prefix (4).
pub const CHUNK_HEADER_LEN: usize = 29;

/// Most data bytes one [`Frame::ResultChunk`] can carry without the frame
/// exceeding [`MAX_FRAME_LEN`].
pub const MAX_CHUNK_DATA: usize = MAX_FRAME_LEN - CHUNK_HEADER_LEN;

/// Typed protocol error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame body could not be decoded.
    Malformed,
    /// The frame length exceeded [`MAX_FRAME_LEN`]; the body was skipped.
    Oversized,
    /// The handshake was rejected (bad magic, unsupported version, or a
    /// request sent before any successful [`Frame::Hello`]).
    HandshakeRejected,
    /// Admission control refused the request (session cap or in-flight
    /// query cap reached).  Back off and retry.
    Admission,
    /// The session's token bucket is empty.  Back off and retry.
    RateLimited,
    /// A [`Frame::Poll`] named a query id this deployment never issued.
    UnknownQuery,
    /// The connection's bounded write queue overflowed — the client is
    /// reading too slowly for the responses it requested.  The server sends
    /// this and then closes the connection cleanly.
    Overloaded,
}

impl ErrorCode {
    /// The on-wire `u16` value.
    pub fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Oversized => 2,
            ErrorCode::HandshakeRejected => 3,
            ErrorCode::Admission => 4,
            ErrorCode::RateLimited => 5,
            ErrorCode::UnknownQuery => 6,
            ErrorCode::Overloaded => 8,
        }
    }

    /// Parses the on-wire `u16` value.
    pub fn from_wire(code: u16) -> Result<ErrorCode, WireError> {
        Ok(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::HandshakeRejected,
            4 => ErrorCode::Admission,
            5 => ErrorCode::RateLimited,
            6 => ErrorCode::UnknownQuery,
            8 => ErrorCode::Overloaded,
            other => return Err(WireError::new(format!("unknown error code {other}"))),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::Oversized => "oversized frame",
            ErrorCode::HandshakeRejected => "handshake rejected",
            ErrorCode::Admission => "admission control refused",
            ErrorCode::RateLimited => "rate limited",
            ErrorCode::UnknownQuery => "unknown query id",
            ErrorCode::Overloaded => "write queue overflow (slow reader)",
        };
        f.write_str(name)
    }
}

/// A frame body failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, e.g. `"truncated payload: needed 8 bytes, had 3"`.
    pub reason: String,
}

impl WireError {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        WireError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.reason)
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::new(e.to_string())
    }
}

/// Completion state carried by [`Frame::QueryStatusV2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// The query is still in flight — poll again after the clock advances.
    Pending,
    /// The result reached the issuer; `latency` and `summary` are valid.
    Complete,
}

/// A provenance query as submitted over the wire, mirroring the builder
/// parameters of `Deployment::query(..)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Node issuing the query.
    pub issuer: u32,
    /// Provenance representation.  [`Repr::TrustDomain`] (an explicit
    /// node→domain map) has no wire form and fails to encode; use
    /// [`Repr::ContiguousTrustDomains`] instead.
    pub repr: Repr,
    /// Traversal order.
    pub traversal: TraversalOrder,
    /// Whether the query participates in result caching (§6.1).
    pub cached: bool,
    /// Target relation name, e.g. `"bestPathCost"`.
    pub relation: String,
    /// Node at which the target tuple resides.
    pub location: u32,
    /// The target tuple's non-location attribute values.
    pub values: Vec<Value>,
}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session handshake: magic plus protocol version.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Reserved: an offer of a result-body codec, which the server
        /// declines.
        codec: bool,
    },
    /// Handshake acceptance with the deployment's shape and the session's
    /// limits.
    HelloAckV2 {
        /// Server-assigned session id.
        session: u64,
        /// Name of the NDlog program the deployment runs.
        program: String,
        /// Number of nodes in the topology.
        nodes: u32,
        /// Maximum queries in flight across all sessions.
        max_inflight: u32,
        /// Token-bucket refill rate (requests per second) of this session.
        rate: f64,
        /// Token-bucket burst capacity of this session.
        burst: u32,
        /// The session's protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Requests a client is advised to keep in flight (always 32; the
        /// server refuses none for depth).
        pipeline_depth: u32,
        /// Data bytes per [`Frame::ResultChunk`] the server will send.
        chunk_bytes: u32,
        /// Reserved: always `false` — result bodies travel as rendered.
        codec: bool,
    },
    /// Orderly goodbye (either direction; the server echoes it).
    Bye,
    /// Submit a provenance query.
    SubmitQuery {
        /// Client-chosen id echoed in the response.
        request: u64,
        /// The query.
        spec: QuerySpec,
    },
    /// The query was admitted; poll `query` for its outcome.
    SubmitAck {
        /// Echo of the submit's request id.
        request: u64,
        /// Server-assigned query id.
        query: u64,
    },
    /// Ask for the current state of a submitted query.
    Poll {
        /// Client-chosen id echoed in the response.
        request: u64,
        /// The query id from [`Frame::SubmitAck`].
        query: u64,
    },
    /// Current state of a query.  When `state` is
    /// [`QueryState::Complete`], `result_total` announces the byte length of
    /// the rendered result body that follows as [`Frame::ResultChunk`]
    /// frames (zero means the result is empty and no chunks follow).
    QueryStatusV2 {
        /// Echo of the poll's request id.
        request: u64,
        /// The polled query id.
        query: u64,
        /// Completion state.
        state: QueryState,
        /// Simulated seconds from issue to completion (0 while pending).
        latency: f64,
        /// Human-readable result summary (empty while pending).
        summary: String,
        /// Total bytes of the streamed result body (0 while pending) —
        /// exactly the bytes that follow as [`Frame::ResultChunk`] frames.
        result_total: u64,
        /// Reserved: always zero.
        cache_maintained: u64,
        /// Reserved: always zero.
        compressed_bytes_saved: u64,
    },
    /// One slice of a rendered query result, reassembled by `request` id.
    ResultChunk {
        /// The poll request whose [`Frame::QueryStatusV2`] announced this
        /// stream.
        request: u64,
        /// Byte offset of `bytes` within the full result body.
        offset: u64,
        /// Total byte length of the full result body.
        total: u64,
        /// This slice of the body (at most [`MAX_CHUNK_DATA`] bytes).
        bytes: Vec<u8>,
    },
    /// A typed protocol error.  The connection stays open.
    Error {
        /// What kind of violation occurred.
        code: ErrorCode,
        /// The offending request id (0 when not attributable).
        request: u64,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAckV2 { .. } => "HelloAckV2",
            Frame::Bye => "Bye",
            Frame::SubmitQuery { .. } => "SubmitQuery",
            Frame::SubmitAck { .. } => "SubmitAck",
            Frame::Poll { .. } => "Poll",
            Frame::QueryStatusV2 { .. } => "QueryStatusV2",
            Frame::ResultChunk { .. } => "ResultChunk",
            Frame::Error { .. } => "Error",
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len())
        .map_err(|_| WireError::new(format!("string of {} bytes exceeds u16 length", s.len())))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_repr(out: &mut Vec<u8>, repr: &Repr) -> Result<(), WireError> {
    match repr {
        Repr::Polynomial => out.push(0),
        Repr::NodeSet => out.push(1),
        Repr::DerivationCount => out.push(2),
        Repr::Derivability => out.push(3),
        Repr::Bdd => out.push(4),
        Repr::ContiguousTrustDomains(size) => {
            out.push(5);
            put_u32(out, *size);
        }
        Repr::TrustDomain(_) => {
            return Err(WireError::new(
                "Repr::TrustDomain has no wire form; use ContiguousTrustDomains",
            ))
        }
    }
    Ok(())
}

fn put_traversal(out: &mut Vec<u8>, traversal: TraversalOrder) {
    match traversal {
        TraversalOrder::Bfs => out.push(0),
        TraversalOrder::Dfs => out.push(1),
        TraversalOrder::DfsThreshold(t) => {
            out.push(2);
            put_i64(out, t);
        }
        TraversalOrder::RandomMoonwalk { fanout, seed } => {
            out.push(3);
            put_u32(out, fanout as u32);
            put_u64(out, seed);
        }
    }
}

/// Encodes a frame as its full wire bytes (length prefix included).
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let mut body = Vec::with_capacity(32);
    match frame {
        Frame::Hello { version, codec } => {
            body.push(0x01);
            body.extend_from_slice(&MAGIC);
            put_u16(&mut body, *version);
            body.push(u8::from(*codec));
        }
        Frame::HelloAckV2 {
            session,
            program,
            nodes,
            max_inflight,
            rate,
            burst,
            version,
            pipeline_depth,
            chunk_bytes,
            codec,
        } => {
            body.push(0x04);
            put_u64(&mut body, *session);
            put_str(&mut body, program)?;
            put_u32(&mut body, *nodes);
            put_u32(&mut body, *max_inflight);
            put_f64(&mut body, *rate);
            put_u32(&mut body, *burst);
            put_u16(&mut body, *version);
            put_u32(&mut body, *pipeline_depth);
            put_u32(&mut body, *chunk_bytes);
            body.push(u8::from(*codec));
        }
        Frame::Bye => body.push(0x03),
        Frame::SubmitQuery { request, spec } => {
            body.push(0x10);
            put_u64(&mut body, *request);
            put_u32(&mut body, spec.issuer);
            put_repr(&mut body, &spec.repr)?;
            put_traversal(&mut body, spec.traversal);
            body.push(u8::from(spec.cached));
            put_str(&mut body, &spec.relation)?;
            put_u32(&mut body, spec.location);
            let count = u16::try_from(spec.values.len())
                .map_err(|_| WireError::new("tuple of more than u16::MAX values"))?;
            put_u16(&mut body, count);
            for value in &spec.values {
                codec::encode_value(value, &mut body);
            }
        }
        Frame::SubmitAck { request, query } => {
            body.push(0x11);
            put_u64(&mut body, *request);
            put_u64(&mut body, *query);
        }
        Frame::Poll { request, query } => {
            body.push(0x12);
            put_u64(&mut body, *request);
            put_u64(&mut body, *query);
        }
        Frame::QueryStatusV2 {
            request,
            query,
            state,
            latency,
            summary,
            result_total,
            cache_maintained,
            compressed_bytes_saved,
        } => {
            body.push(0x14);
            put_u64(&mut body, *request);
            put_u64(&mut body, *query);
            body.push(match state {
                QueryState::Pending => 0,
                QueryState::Complete => 1,
            });
            put_f64(&mut body, *latency);
            put_str(&mut body, summary)?;
            put_u64(&mut body, *result_total);
            put_u64(&mut body, *cache_maintained);
            put_u64(&mut body, *compressed_bytes_saved);
        }
        Frame::ResultChunk {
            request,
            offset,
            total,
            bytes,
        } => {
            body.push(0x15);
            put_u64(&mut body, *request);
            put_u64(&mut body, *offset);
            put_u64(&mut body, *total);
            let len = u32::try_from(bytes.len())
                .map_err(|_| WireError::new("chunk data exceeds u32 length"))?;
            put_u32(&mut body, len);
            body.extend_from_slice(bytes);
        }
        Frame::Error {
            code,
            request,
            message,
        } => {
            body.push(0x7F);
            put_u16(&mut body, code.to_wire());
            put_u64(&mut body, *request);
            put_str(&mut body, message)?;
        }
    }
    if body.len() > MAX_FRAME_LEN {
        return Err(WireError::new(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
            body.len()
        )));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A frame string: `u16` byte length, then UTF-8.
fn read_str(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    let len = r.u16()? as usize;
    Ok(r.utf8(len)?.to_string())
}

fn read_repr(r: &mut Reader<'_>) -> Result<Repr, DecodeError> {
    Ok(match r.u8()? {
        0 => Repr::Polynomial,
        1 => Repr::NodeSet,
        2 => Repr::DerivationCount,
        3 => Repr::Derivability,
        4 => Repr::Bdd,
        5 => Repr::ContiguousTrustDomains(r.u32()?),
        _ => return Err(r.error("unknown repr tag")),
    })
}

fn read_traversal(r: &mut Reader<'_>) -> Result<TraversalOrder, DecodeError> {
    Ok(match r.u8()? {
        0 => TraversalOrder::Bfs,
        1 => TraversalOrder::Dfs,
        2 => TraversalOrder::DfsThreshold(r.i64()?),
        3 => TraversalOrder::RandomMoonwalk {
            fanout: r.u32()? as usize,
            seed: r.u64()?,
        },
        _ => return Err(r.error("unknown traversal tag")),
    })
}

fn read_state(r: &mut Reader<'_>) -> Result<QueryState, DecodeError> {
    match r.u8()? {
        0 => Ok(QueryState::Pending),
        1 => Ok(QueryState::Complete),
        _ => Err(r.error("unknown query state")),
    }
}

/// Decodes one frame body (`type byte + payload`, no length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(body);
    let frame = match r.u8()? {
        0x01 => {
            if r.bytes(4)? != MAGIC {
                return Err(WireError::new("bad handshake magic"));
            }
            Frame::Hello {
                version: r.u16()?,
                codec: r.u8()? != 0,
            }
        }
        0x04 => Frame::HelloAckV2 {
            session: r.u64()?,
            program: read_str(&mut r)?,
            nodes: r.u32()?,
            max_inflight: r.u32()?,
            rate: r.f64()?,
            burst: r.u32()?,
            version: r.u16()?,
            pipeline_depth: r.u32()?,
            chunk_bytes: r.u32()?,
            codec: r.u8()? != 0,
        },
        0x03 => Frame::Bye,
        0x10 => {
            let request = r.u64()?;
            let issuer = r.u32()?;
            let repr = read_repr(&mut r)?;
            let traversal = read_traversal(&mut r)?;
            let cached = r.u8()? != 0;
            let relation = read_str(&mut r)?;
            let location = r.u32()?;
            let count = r.u16()?;
            let count = r.count(count)?;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(codec::decode_known_value(&mut r)?);
            }
            Frame::SubmitQuery {
                request,
                spec: QuerySpec {
                    issuer,
                    repr,
                    traversal,
                    cached,
                    relation,
                    location,
                    values,
                },
            }
        }
        0x11 => Frame::SubmitAck {
            request: r.u64()?,
            query: r.u64()?,
        },
        0x12 => Frame::Poll {
            request: r.u64()?,
            query: r.u64()?,
        },
        0x14 => Frame::QueryStatusV2 {
            request: r.u64()?,
            query: r.u64()?,
            state: read_state(&mut r)?,
            latency: r.f64()?,
            summary: read_str(&mut r)?,
            result_total: r.u64()?,
            cache_maintained: r.u64()?,
            compressed_bytes_saved: r.u64()?,
        },
        0x15 => {
            let request = r.u64()?;
            let offset = r.u64()?;
            let total = r.u64()?;
            let len = r.u32()? as usize;
            Frame::ResultChunk {
                request,
                offset,
                total,
                bytes: r.bytes(len)?.to_vec(),
            }
        }
        0x7F => Frame::Error {
            code: ErrorCode::from_wire(r.u16()?)?,
            request: r.u64()?,
            message: read_str(&mut r)?,
        },
        other => return Err(WireError::new(format!("unknown frame type 0x{other:02x}"))),
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Framed stream I/O
// ---------------------------------------------------------------------------

/// Result of pulling one frame off a stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame body (type byte + payload), within the size limit.
    Body(Vec<u8>),
    /// The frame declared more than [`MAX_FRAME_LEN`] bytes.  The body has
    /// already been read and discarded, so the stream stays in sync and the
    /// caller can answer with [`ErrorCode::Oversized`].
    Oversized {
        /// The declared body length.
        declared: usize,
    },
}

/// Reads one length-prefixed frame.  Returns `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<FrameRead>> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len == 0 {
        // No type byte: surface as an empty (malformed) body.
        return Ok(Some(FrameRead::Body(Vec::new())));
    }
    if len > MAX_FRAME_LEN {
        // Drain the declared body through a bounded copy buffer so the
        // connection survives and stays framed.
        if io::copy(&mut stream.take(len as u64), &mut io::sink())? < len as u64 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside oversized frame body",
            ));
        }
        return Ok(Some(FrameRead::Oversized { declared: len }));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(FrameRead::Body(body)))
}

/// Writes one frame to the stream (with length prefix) and flushes it.
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let bytes = encode_frame(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    stream.write_all(&bytes)?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Incremental framing (nonblocking I/O)
// ---------------------------------------------------------------------------

/// Incremental frame decoder for nonblocking sockets: [`feed`] it whatever
/// bytes a read returned, then drain complete frames with [`next_frame`].
///
/// Like [`read_frame`], oversized frames are swallowed without buffering
/// their bodies (the skip is tracked as a counter, so a hostile 4 GiB
/// declared length costs no memory) and surfaced as
/// [`FrameRead::Oversized`] once fully skipped, leaving the stream framed.
/// The bound on [`buffered`] holds for a caller that drains [`next_frame`]
/// until it returns `None` after each [`feed`], as the server and the load
/// generator do: a second oversized body is discarded only once the first
/// one's `Oversized` has been taken.
///
/// [`feed`]: FrameBuffer::feed
/// [`next_frame`]: FrameBuffer::next_frame
/// [`buffered`]: FrameBuffer::buffered
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes of an oversized body still to discard, with its declared size.
    skipping: Option<(usize, usize)>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.skip_oversized();
    }

    /// Discards the buffered part of an oversized body: the one being
    /// skipped, or else one the first undrained frame declares.  A skip
    /// whose `Oversized` is still pending starts no other.
    fn skip_oversized(&mut self) {
        if self.skipping.is_none() {
            let avail = &self.buf[self.pos..];
            if avail.len() < 4 {
                return;
            }
            let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
            if len <= MAX_FRAME_LEN {
                return;
            }
            self.pos += 4;
            self.skipping = Some((len, len));
        }
        let buffered = self.buffered();
        if let Some((remaining, _)) = &mut self.skipping {
            let eat = buffered.min(*remaining);
            self.pos += eat;
            *remaining -= eat;
        }
        self.compact();
    }

    /// Bytes currently buffered and not yet consumed by [`next_frame`].
    ///
    /// [`next_frame`]: FrameBuffer::next_frame
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 8 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pops the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Option<FrameRead> {
        self.skip_oversized();
        if let Some((remaining, declared)) = self.skipping {
            if remaining > 0 {
                return None;
            }
            self.skipping = None;
            return Some(FrameRead::Oversized { declared });
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len == 0 {
            // No type byte: surface as an empty (malformed) body.
            self.pos += 4;
            self.compact();
            return Some(FrameRead::Body(Vec::new()));
        }
        // `len` is at most MAX_FRAME_LEN: skip_oversized took a longer body.
        if avail.len() < 4 + len {
            return None;
        }
        let body = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        self.compact();
        Some(FrameRead::Body(body))
    }
}

// ---------------------------------------------------------------------------
// Result streaming
// ---------------------------------------------------------------------------

/// Server-side chunker: slices one rendered result body into
/// [`Frame::ResultChunk`] frames for `request`, pulled one at a time so the
/// reactor can pace the stream against the connection's write budget.
#[derive(Debug, Clone)]
pub struct ResultStream {
    request: u64,
    body: Arc<Vec<u8>>,
    offset: usize,
    chunk_bytes: usize,
}

impl ResultStream {
    /// A stream over `body` (shared, not copied) for `request`, emitting at
    /// most `chunk_bytes` data bytes per frame (clamped to
    /// [`MAX_CHUNK_DATA`]; zero is treated as the maximum).
    pub fn new(request: u64, body: Arc<Vec<u8>>, chunk_bytes: usize) -> ResultStream {
        let chunk_bytes = match chunk_bytes {
            0 => MAX_CHUNK_DATA,
            n => n.min(MAX_CHUNK_DATA),
        };
        ResultStream {
            request,
            body,
            offset: 0,
            chunk_bytes,
        }
    }

    /// Whether every byte has been emitted (vacuously true for an empty
    /// body: an empty result sends no chunks at all).
    pub fn is_done(&self) -> bool {
        self.offset >= self.body.len()
    }

    /// The next chunk frame, or `None` when the stream is exhausted.
    pub fn next_chunk(&mut self) -> Option<Frame> {
        if self.is_done() {
            return None;
        }
        let end = (self.offset + self.chunk_bytes).min(self.body.len());
        let frame = Frame::ResultChunk {
            request: self.request,
            offset: self.offset as u64,
            total: self.body.len() as u64,
            bytes: self.body[self.offset..end].to_vec(),
        };
        self.offset = end;
        Some(frame)
    }
}

/// Client-side reassembler for one request's [`Frame::ResultChunk`] stream.
///
/// Chunks must arrive in offset order with a consistent `total` (the server
/// never reorders chunks *within* one request; only chunks of different
/// requests interleave).
#[derive(Debug)]
pub struct ResultAssembler {
    total: u64,
    buf: Vec<u8>,
}

impl ResultAssembler {
    /// An assembler expecting `total` bytes (from
    /// [`Frame::QueryStatusV2::result_total`]).
    pub fn new(total: u64) -> ResultAssembler {
        ResultAssembler {
            total,
            buf: Vec::new(),
        }
    }

    /// Whether every announced byte has arrived (immediately true when the
    /// announced total is zero).
    pub fn is_complete(&self) -> bool {
        self.buf.len() as u64 == self.total
    }

    /// Accepts one chunk; returns the full body once the last byte lands.
    pub fn accept(
        &mut self,
        offset: u64,
        total: u64,
        bytes: &[u8],
    ) -> Result<Option<Vec<u8>>, WireError> {
        if total != self.total {
            return Err(WireError::new(format!(
                "chunk declares total {total}, stream announced {}",
                self.total
            )));
        }
        if offset != self.buf.len() as u64 {
            return Err(WireError::new(format!(
                "chunk at offset {offset}, expected {}",
                self.buf.len()
            )));
        }
        if offset + bytes.len() as u64 > self.total {
            return Err(WireError::new(format!(
                "chunk overruns announced total {}",
                self.total
            )));
        }
        if bytes.is_empty() && !self.is_complete() {
            return Err(WireError::new("empty chunk in unfinished stream"));
        }
        self.buf.extend_from_slice(bytes);
        if self.is_complete() {
            Ok(Some(std::mem::take(&mut self.buf)))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame).expect("encodes");
        let (len, body) = bytes.split_at(4);
        assert_eq!(
            u32::from_be_bytes([len[0], len[1], len[2], len[3]]) as usize,
            body.len()
        );
        assert_eq!(decode_frame(body).expect("decodes"), frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            codec: false,
        });
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            codec: true,
        });
        roundtrip(Frame::Bye);
        roundtrip(Frame::SubmitQuery {
            request: 99,
            spec: QuerySpec {
                issuer: 3,
                repr: Repr::ContiguousTrustDomains(25),
                traversal: TraversalOrder::RandomMoonwalk { fanout: 2, seed: 9 },
                cached: true,
                relation: "bestPathCost".into(),
                location: 2,
                values: vec![
                    Value::Node(2),
                    Value::Int(5),
                    Value::from("x"),
                    Value::Bool(true),
                    Value::list(vec![Value::Int(1), Value::Node(0)]),
                    Value::Digest([9; 20]),
                    Value::Payload(1500),
                ],
            },
        });
        roundtrip(Frame::SubmitAck {
            request: 99,
            query: 1,
        });
        roundtrip(Frame::Poll {
            request: 100,
            query: 1,
        });
        roundtrip(Frame::Error {
            code: ErrorCode::RateLimited,
            request: 101,
            message: "back off".into(),
        });
        roundtrip(Frame::HelloAckV2 {
            session: 7,
            program: "mincost".into(),
            nodes: 100,
            max_inflight: 512,
            rate: 250.5,
            burst: 32,
            version: 2,
            pipeline_depth: 16,
            chunk_bytes: MAX_CHUNK_DATA as u32,
            codec: true,
        });
        roundtrip(Frame::QueryStatusV2 {
            request: 100,
            query: 1,
            state: QueryState::Complete,
            latency: 0.125,
            summary: "8192 derivations".into(),
            result_total: 150_000,
            cache_maintained: 17,
            compressed_bytes_saved: 4096,
        });
        roundtrip(Frame::ResultChunk {
            request: 100,
            offset: 65_000,
            total: 150_000,
            bytes: vec![0xAB; 1000],
        });
        roundtrip(Frame::Error {
            code: ErrorCode::Overloaded,
            request: 0,
            message: "slow reader".into(),
        });
    }

    #[test]
    fn version_1_frames_and_short_encodings_are_rejected() {
        // The flag byte of Hello/HelloAckV2 and the two session counters of
        // QueryStatusV2 are mandatory: an encoding that stops short of them
        // is truncated, not "older".
        let mut hello = vec![0x01];
        hello.extend_from_slice(&MAGIC);
        hello.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        assert!(decode_frame(&hello).is_err());
        let status = Frame::QueryStatusV2 {
            request: 9,
            query: 3,
            state: QueryState::Complete,
            latency: 0.5,
            summary: "done".into(),
            result_total: 10,
            cache_maintained: 5,
            compressed_bytes_saved: 6,
        };
        let body = encode_frame(&status).unwrap()[4..].to_vec();
        assert!(decode_frame(&body[..body.len() - 16]).is_err());
        // The version-1 response tags are gone.
        for tag in [0x02, 0x13] {
            let err = decode_frame(&[tag]).unwrap_err();
            assert!(err.reason.contains("unknown frame type"), "{}", err.reason);
        }
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        let full = encode_frame(&Frame::SubmitAck {
            request: 1,
            query: 2,
        })
        .unwrap();
        let body = &full[4..];
        for cut in 1..body.len() {
            let err = decode_frame(&body[..cut]).expect_err("truncation must fail");
            assert!(err.reason.contains("truncated"), "{}", err.reason);
        }
        // Trailing garbage is rejected too.
        let mut padded = body.to_vec();
        padded.push(0);
        assert!(decode_frame(&padded)
            .expect_err("padding must fail")
            .reason
            .contains("trailing"));
    }

    #[test]
    fn bad_magic_and_unknown_tags_are_rejected() {
        let mut hello = encode_frame(&Frame::Hello {
            version: PROTOCOL_VERSION,
            codec: false,
        })
        .unwrap()[4..]
            .to_vec();
        hello[1] = b'Y';
        assert!(decode_frame(&hello).unwrap_err().reason.contains("magic"));
        assert!(decode_frame(&[0x55])
            .unwrap_err()
            .reason
            .contains("unknown frame type"));
        assert!(decode_frame(&[]).unwrap_err().reason.contains("truncated"));
    }

    #[test]
    fn trust_domain_map_has_no_wire_form() {
        let err = encode_frame(&Frame::SubmitQuery {
            request: 1,
            spec: QuerySpec {
                issuer: 0,
                repr: Repr::TrustDomain(std::collections::BTreeMap::new()),
                traversal: TraversalOrder::Bfs,
                cached: false,
                relation: "link".into(),
                location: 0,
                values: vec![],
            },
        })
        .unwrap_err();
        assert!(err.reason.contains("TrustDomain"));
    }

    /// A `SubmitQuery` body carrying `values` behind `count`.
    fn submit_body(count: u16, values: &[u8]) -> Vec<u8> {
        let frame = Frame::SubmitQuery {
            request: 1,
            spec: QuerySpec {
                issuer: 0,
                repr: Repr::Polynomial,
                traversal: TraversalOrder::Bfs,
                cached: false,
                relation: "link".into(),
                location: 0,
                values: vec![],
            },
        };
        let mut body = encode_frame(&frame).unwrap()[4..].to_vec();
        body.truncate(body.len() - 2); // the zero value count
        body.extend_from_slice(&count.to_be_bytes());
        body.extend_from_slice(values);
        body
    }

    #[test]
    fn deeply_nested_lists_are_decode_errors_in_every_decoder() {
        // 100,000 nested list headers (5 bytes a level) once overflowed the
        // stack of the store's unbounded decoder; the one decoder's depth
        // bound turns them into the typed error recovery treats as a torn
        // tail.
        const LEVELS: usize = 100_000;
        let nested = [0x05, 0, 0, 0, 1].repeat(LEVELS);
        let deep = |e: DecodeError| assert_eq!(e.reason, "list nesting too deep");

        let mut tuple = vec![0x03, 0, 0, 0, 1, b'r', 0, 0, 0, 0, 0, 0, 0, 1];
        tuple.extend_from_slice(&nested);
        deep(codec::decode_tuple(&mut Reader::new(&tuple)).unwrap_err());

        // (A body this size is past MAX_FRAME_LEN, so a server refuses it
        // even earlier; decode_frame itself must still be safe on it.)
        let err = decode_frame(&submit_body(1, &nested)).unwrap_err();
        assert!(
            err.reason.contains("list nesting too deep"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn hostile_submit_values_are_typed_errors() {
        // A value count beyond the bytes present reserves nothing.
        let err = decode_frame(&submit_body(u16::MAX, &[])).unwrap_err();
        assert!(err.reason.contains("exceeds input"), "{}", err.reason);
        // Unknown value tag, and a string that is not UTF-8.
        assert!(decode_frame(&submit_body(1, &[0x99])).is_err());
        assert!(decode_frame(&submit_body(1, &[0x03, 0, 0, 0, 1, 0xFF])).is_err());
    }

    #[test]
    fn stream_io_roundtrips_and_flags_oversized() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Bye).unwrap();
        // Hand-build an oversized frame followed by a valid one.
        let declared = MAX_FRAME_LEN + 1;
        buf.extend_from_slice(&(declared as u32).to_be_bytes());
        buf.extend(std::iter::repeat(0u8).take(declared));
        write_frame(
            &mut buf,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                codec: false,
            },
        )
        .unwrap();

        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor).unwrap().unwrap() {
            FrameRead::Body(body) => assert_eq!(decode_frame(&body).unwrap(), Frame::Bye),
            FrameRead::Oversized { .. } => panic!("first frame is fine"),
        }
        match read_frame(&mut cursor).unwrap().unwrap() {
            FrameRead::Oversized { declared: d } => assert_eq!(d, declared),
            FrameRead::Body(_) => panic!("second frame is oversized"),
        }
        // The stream re-synchronizes on the next frame.
        match read_frame(&mut cursor).unwrap().unwrap() {
            FrameRead::Body(body) => {
                assert_eq!(
                    decode_frame(&body).unwrap(),
                    Frame::Hello {
                        version: PROTOCOL_VERSION,
                        codec: false
                    }
                );
            }
            FrameRead::Oversized { .. } => panic!("third frame is fine"),
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // A stream that ends inside an oversized body is an error.
        let mut truncated = (declared as u32).to_be_bytes().to_vec();
        truncated.resize(100, 0);
        let err = read_frame(&mut io::Cursor::new(truncated)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Bye).unwrap();
        write_frame(
            &mut wire,
            &Frame::SubmitAck {
                request: 9,
                query: 3,
            },
        )
        .unwrap();

        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for byte in wire {
            fb.feed(&[byte]);
            while let Some(FrameRead::Body(body)) = fb.next_frame() {
                got.push(decode_frame(&body).unwrap());
            }
        }
        assert_eq!(
            got,
            vec![
                Frame::Bye,
                Frame::SubmitAck {
                    request: 9,
                    query: 3
                }
            ]
        );
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_skips_oversized_without_buffering() {
        // Two oversized frames back to back, then one that fits.
        let sizes = [MAX_FRAME_LEN + 100, MAX_FRAME_LEN + 7];
        let mut wire = Vec::new();
        for declared in sizes {
            wire.extend_from_slice(&(declared as u32).to_be_bytes());
            wire.extend(std::iter::repeat(0u8).take(declared));
        }
        write_frame(&mut wire, &Frame::Bye).unwrap();

        let mut fb = FrameBuffer::new();
        let mut events = Vec::new();
        // Feed in uneven pieces so each skip spans several feeds, draining
        // after each feed as the server does.
        for piece in wire.chunks(7 * 1024 + 13) {
            fb.feed(piece);
            while let Some(read) = fb.next_frame() {
                events.push(match read {
                    FrameRead::Oversized { declared } => Err(declared),
                    FrameRead::Body(body) => Ok(decode_frame(&body).unwrap()),
                });
            }
            // The oversized bodies must never accumulate in memory.
            assert!(fb.buffered() <= 16 * 1024, "buffered {}", fb.buffered());
        }
        assert_eq!(events, [Err(sizes[0]), Err(sizes[1]), Ok(Frame::Bye)]);
    }

    #[test]
    fn chunk_stream_reassembles_including_exact_cap_boundary() {
        // A body that is an exact multiple of the chunk size must not emit
        // a trailing empty chunk, and one exactly at the cap is one chunk.
        for (len, chunk) in [
            (MAX_CHUNK_DATA, MAX_CHUNK_DATA),     // exactly at cap: 1 chunk
            (2 * MAX_CHUNK_DATA, MAX_CHUNK_DATA), // exact multiple: 2 chunks
            (MAX_CHUNK_DATA + 1, MAX_CHUNK_DATA), // one byte over: 2 chunks
            (10, 3),                              // small odd split
        ] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut stream = ResultStream::new(42, Arc::new(body.clone()), chunk);
            let mut assembler = ResultAssembler::new(len as u64);
            let mut frames = 0usize;
            let mut out = None;
            while let Some(frame) = stream.next_chunk() {
                frames += 1;
                let Frame::ResultChunk {
                    request,
                    offset,
                    total,
                    bytes,
                } = encode_then_decode(frame)
                else {
                    panic!("chunk frames survive the wire");
                };
                assert_eq!(request, 42);
                assert!(!bytes.is_empty());
                if let Some(full) = assembler.accept(offset, total, &bytes).unwrap() {
                    out = Some(full);
                }
            }
            assert_eq!(frames, len.div_ceil(chunk));
            assert_eq!(out.expect("stream completes"), body);
            assert!(stream.is_done());
        }
        // Empty body: no chunks, assembler complete from the start.
        let mut empty = ResultStream::new(1, Arc::new(Vec::new()), 64);
        assert!(empty.is_done());
        assert!(empty.next_chunk().is_none());
        assert!(ResultAssembler::new(0).is_complete());
    }

    fn encode_then_decode(frame: Frame) -> Frame {
        let bytes = encode_frame(&frame).unwrap();
        decode_frame(&bytes[4..]).unwrap()
    }

    #[test]
    fn assembler_rejects_gaps_reorders_and_overruns() {
        let mut a = ResultAssembler::new(10);
        assert!(a.accept(0, 9, b"abc").is_err(), "inconsistent total");
        assert!(a.accept(5, 10, b"abc").is_err(), "gap");
        assert!(a.accept(0, 10, b"").is_err(), "empty chunk mid-stream");
        assert_eq!(a.accept(0, 10, b"abcde").unwrap(), None);
        assert!(a.accept(0, 10, b"abcde").is_err(), "replayed offset");
        assert!(a.accept(5, 10, b"fghijk").is_err(), "overrun");
        assert_eq!(
            a.accept(5, 10, b"fghij").unwrap().as_deref(),
            Some(&b"abcdefghij"[..])
        );
    }
}
