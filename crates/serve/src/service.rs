//! The service core: every protocol decision of `exspan-serve`, and no I/O.
//!
//! A [`Service`] owns the [`Deployment`] and each connection's protocol
//! state: an incremental [`FrameBuffer`] on the read side, a bounded write
//! queue plus pending [`ResultStream`]s on the write side, the per-session
//! [`TokenBucket`], and whether the session is greeted or draining.  It sees
//! no socket and reads no clock.  Its caller hands it bytes in, takes bytes
//! out, and says what time it is: every call takes `now`, in wall seconds
//! since the service was built, and the core first advances the deployment
//! to `origin + now × clock_rate` — the simulated time real time has paid
//! for — so a frame is answered against every event already due.  The
//! deployment advances once per `now`; later calls at the same `now` answer
//! against the same state.
//!
//! [`crate::server`] drives it from `poll(2)` and the wall clock;
//! `crates/serve/tests/wire_protocol.rs` drives it from a scripted one.
//!
//! The core keeps no per-query state: a query id is the index of its
//! outcome in the deployment, and a completed poll renders that outcome's
//! body, which is streamed back in [`Frame::ResultChunk`] frames.
//!
//! # Backpressure
//!
//! Every connection has a byte budget ([`ServeConfig::write_queue_bytes`])
//! covering both queued encoded frames and the committed-but-unsent
//! remainder of result streams.  A response that would exceed the budget —
//! i.e. a reader too slow for the results it requested — is answered with a
//! typed [`ErrorCode::Overloaded`] error, after which the connection drains
//! and is [finished](Service::finished).  The core never buffers
//! unboundedly for a slow reader.
//!
//! Result chunks are paced pull-style: a stream's next chunk is encoded only
//! when the write queue has room, and multiple pending streams on one
//! connection are drained round-robin — so a small response polled after a
//! huge one completes first (out-of-order completion).

use crate::limiter::TokenBucket;
use crate::proto::{
    self, ErrorCode, Frame, FrameBuffer, FrameRead, QuerySpec, QueryState, ResultStream,
    CHUNK_HEADER_LEN, MAX_CHUNK_DATA, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::server::ServeConfig;
use exspan_core::{Annotation, Deployment};
use exspan_types::{Symbol, Tuple};
use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::sync::Arc;

/// Low-water mark for refilling a connection's write queue from its pending
/// result streams: chunks are pulled while fewer bytes than this are queued.
const REFILL_BYTES: usize = 128 * 1024;

/// The `pipeline_depth` every handshake ack advertises: a window size for
/// clients.  Requests are answered in the call that receives them, so none
/// is ever refused for depth.
const ADVERTISED_PIPELINE_DEPTH: u32 = 32;

/// A connection's slot in the core; a closed connection's slot is reused.
pub type ConnId = usize;

/// The protocol state of every connection, and the deployment they query.
pub struct Service {
    deployment: Deployment,
    config: ServeConfig,
    /// Simulated time at wall time 0.
    origin: f64,
    /// The wall time the deployment was last advanced to.
    advanced: f64,
    /// Every connection, by slot: a `Vec`, so that the shell's per-turn
    /// walk over ten thousand sessions hashes nothing.
    conns: Vec<Option<Conn>>,
    /// Empty slots of `conns`.
    free: Vec<ConnId>,
    /// The session id the next connection gets; ids start at 1.
    next_session: u64,
}

impl Service {
    /// Serves `deployment` under `config`, wall time 0 being now.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `clock_rate` or the token-bucket
    /// `rate` is not finite and positive or `burst` is 0.
    pub fn new(deployment: Deployment, config: &ServeConfig) -> io::Result<Service> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(config.clock_rate) || !positive(config.rate) || config.burst == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "clock rate ({}) and request rate ({}) must be finite and > 0, burst ({}) > 0",
                    config.clock_rate, config.rate, config.burst
                ),
            ));
        }
        Ok(Service {
            origin: deployment.now(),
            deployment,
            config: config.clone(),
            advanced: f64::NEG_INFINITY,
            conns: Vec::new(),
            free: Vec::new(),
            next_session: 1,
        })
    }

    /// Opens a connection, or returns the encoded `Admission` error refusing
    /// it when [`ServeConfig::max_sessions`] are open.
    pub fn connect(&mut self) -> Result<ConnId, Vec<u8>> {
        if self.conns.len() - self.free.len() >= self.config.max_sessions {
            return Err(encode(&Frame::Error {
                code: ErrorCode::Admission,
                request: 0,
                message: format!("session limit {} reached", self.config.max_sessions),
            }));
        }
        let conn = Some(Conn {
            frames: FrameBuffer::new(),
            out: Vec::new(),
            streams: VecDeque::new(),
            stream_bytes: 0,
            budget: self.config.write_queue_bytes,
            bucket: TokenBucket::new(self.config.rate, self.config.burst),
            session: self.next_session,
            greeted: false,
            draining: false,
        });
        self.next_session += 1;
        let Some(id) = self.free.pop() else {
            self.conns.push(conn);
            return Ok(self.conns.len() - 1);
        };
        self.conns[id] = conn;
        Ok(id)
    }

    /// Runs every event due by wall time `now`, unless already run to it.
    pub fn advance(&mut self, now: f64) {
        if now > self.advanced {
            self.advanced = now;
            let until = self.origin + now * self.config.clock_rate;
            self.deployment.run_until(until);
        }
    }

    /// Wall time at which the next simulated event falls due, if any.
    pub fn next_due(&mut self) -> Option<f64> {
        let due = self.deployment.next_event_time()?;
        Some((due - self.origin) / self.config.clock_rate)
    }

    /// Takes `bytes` read from `conn` at wall time `now` and answers every
    /// frame they complete.  A draining connection reads nothing more.
    pub fn receive(&mut self, conn: ConnId, bytes: &[u8], now: f64) {
        self.advance(now);
        let conn = self.conns.get_mut(conn).and_then(Option::as_mut);
        let Some(conn) = conn.filter(|c| !c.draining) else {
            return;
        };
        conn.frames.feed(bytes);
        while !conn.draining {
            let Some(read) = conn.frames.next_frame() else {
                break;
            };
            conn.handle_frame(read, &mut self.deployment, &self.config, now);
        }
    }

    /// Whether `conn` still reads: open and not draining.
    pub fn reading(&self, conn: ConnId) -> bool {
        self.conn(conn).is_some_and(|c| !c.draining)
    }

    /// Whether `conn` has output queued or result streams pending.
    pub fn has_output(&self, conn: ConnId) -> bool {
        self.conn(conn)
            .is_some_and(|c| !c.out.is_empty() || !c.streams.is_empty())
    }

    /// The bytes to write to `conn` next, empty when it has none.  Report
    /// what was written with [`Service::wrote`].
    pub fn output(&mut self, conn: ConnId) -> &[u8] {
        let Some(conn) = self.conn_mut(conn) else {
            return &[];
        };
        if conn.out.is_empty() {
            conn.refill_from_streams();
        }
        &conn.out
    }

    /// Records that the first `n` bytes [`Service::output`] returned for
    /// `conn` are written.
    pub fn wrote(&mut self, conn: ConnId, n: usize) {
        if let Some(conn) = self.conn_mut(conn) {
            conn.out.drain(..n);
            // An idle connection keeps at most one frame's worth of buffer.
            if conn.out.is_empty() {
                conn.out.shrink_to(MAX_FRAME_LEN);
            }
        }
    }

    /// Whether `conn` is done: it drained everything after a `Bye` or an
    /// `Overloaded` error, and may be closed.
    pub fn finished(&self, conn: ConnId) -> bool {
        self.conn(conn).map_or(true, |c| c.draining) && !self.has_output(conn)
    }

    /// Forgets `conn`, whatever its state.
    pub fn disconnect(&mut self, conn: ConnId) {
        if self.conns.get_mut(conn).and_then(Option::take).is_some() {
            self.free.push(conn);
        }
    }

    fn conn(&self, id: ConnId) -> Option<&Conn> {
        self.conns.get(id)?.as_ref()
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        self.conns.get_mut(id)?.as_mut()
    }

    /// Ends the service and hands back the deployment.
    pub fn into_deployment(self) -> Deployment {
        self.deployment
    }
}

fn encode(frame: &Frame) -> Vec<u8> {
    proto::encode_frame(frame).expect("server response frames always encode")
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// A completed query's one-line summary, and its full result body.
fn render(annotation: Option<&Annotation>) -> (String, Vec<u8>) {
    let set = |prefix, ids: &BTreeSet<u32>| {
        let ids: Vec<String> = ids.iter().map(|id| format!("{prefix}{id}")).collect();
        format!("{{{}}}", ids.join(", "))
    };
    let (summary, body) = match annotation {
        None => ("no result".into(), String::new()),
        Some(Annotation::Expr(e)) => (
            format!("{} derivations", e.num_derivations()),
            e.to_string(),
        ),
        Some(Annotation::Nodes(n)) => (format!("{} nodes", n.len()), set('n', n)),
        Some(Annotation::Domains(d)) => (format!("{} trust domains", d.len()), set('d', d)),
        Some(Annotation::Count(c)) => (format!("count {c}"), c.to_string()),
        Some(Annotation::Bool(b)) => (format!("derivable: {b}"), b.to_string()),
        Some(Annotation::Bdd(_)) => ("condensed (BDD)".into(), "condensed (BDD)".into()),
    };
    (summary, body.into_bytes())
}

/// Admits a submitted query: its `SubmitAck`, or the typed error refusing it.
fn admit(deployment: &mut Deployment, request: u64, spec: QuerySpec, max_inflight: usize) -> Frame {
    let refuse = |code, message| Frame::Error {
        code,
        request,
        message,
    };
    let inflight = deployment.incomplete_queries();
    if inflight >= max_inflight {
        return refuse(
            ErrorCode::Admission,
            format!("{inflight} queries in flight (limit {max_inflight})"),
        );
    }
    let nodes = deployment.topology().num_nodes();
    if spec.issuer as usize >= nodes || spec.location as usize >= nodes {
        return refuse(
            ErrorCode::Malformed,
            format!(
                "issuer n{} / location n{} outside the {nodes}-node topology",
                spec.issuer, spec.location
            ),
        );
    }
    // A name no program interned names no tuple; looking it up never
    // interns, so a client cannot grow the interner with relation names.
    let Some(relation) = Symbol::get(&spec.relation) else {
        return refuse(
            ErrorCode::Malformed,
            format!("no relation named {:?}", spec.relation),
        );
    };
    let target = Tuple::new(relation, spec.location, spec.values);
    let handle = deployment
        .query(&target)
        .issuer(spec.issuer)
        .repr(spec.repr)
        .traversal(spec.traversal)
        .cached(spec.cached)
        .submit();
    Frame::SubmitAck {
        request,
        query: handle.index() as u64,
    }
}

/// Answers a poll: the status frame, plus the rendered body to stream when
/// the query has completed with one.
fn status(deployment: &Deployment, request: u64, query: u64) -> (Frame, Option<Arc<Vec<u8>>>) {
    // A query id is the index of its outcome, whichever session submitted it.
    let outcome = usize::try_from(query)
        .ok()
        .and_then(|index| deployment.outcomes().get(index));
    let Some(outcome) = outcome else {
        let unknown = Frame::Error {
            code: ErrorCode::UnknownQuery,
            request,
            message: format!("no query #{query} in this deployment"),
        };
        return (unknown, None);
    };
    let (state, latency, summary, body) = match outcome.completed_at {
        Some(completed_at) => {
            let (summary, body) = render(outcome.annotation.as_ref());
            let body = (!body.is_empty()).then(|| Arc::new(body));
            let latency = completed_at - outcome.issued_at;
            (QueryState::Complete, latency, summary, body)
        }
        None => (QueryState::Pending, 0.0, String::new(), None),
    };
    let frame = Frame::QueryStatusV2 {
        request,
        query,
        state,
        latency,
        summary,
        result_total: body.as_ref().map_or(0, |b| b.len() as u64),
        // Reserved counters, always zero.
        cache_maintained: 0,
        compressed_bytes_saved: 0,
    };
    (frame, body)
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// One connection's protocol state.
struct Conn {
    frames: FrameBuffer,
    /// Encoded frames not yet written.
    out: Vec<u8>,
    /// Pending result streams, drained round-robin one chunk at a time.
    streams: VecDeque<ResultStream>,
    /// Committed-but-unsent stream bytes (data + per-chunk framing), exact.
    stream_bytes: usize,
    /// [`ServeConfig::write_queue_bytes`]: the most `out` and
    /// `stream_bytes` may hold together.
    budget: usize,
    bucket: TokenBucket,
    session: u64,
    /// Whether a `Hello` has been accepted on this connection.
    greeted: bool,
    /// Finish once the write queue fully drains (after `Bye` or a fatal
    /// error frame); reads are ignored from then on.
    draining: bool,
}

impl Conn {
    /// Encoded wire cost of streaming `remaining` more body bytes.
    fn stream_cost(remaining: usize) -> usize {
        remaining + remaining.div_ceil(MAX_CHUNK_DATA) * (CHUNK_HEADER_LEN + 4)
    }

    /// Commits an obligatory response: the status/ack frame plus an optional
    /// non-empty result body to stream.  A commit over the write budget
    /// abandons pending streams, queues a typed `Overloaded` error instead,
    /// and drains the connection.
    fn respond(&mut self, frame: &Frame, body: Option<(u64, Arc<Vec<u8>>)>) {
        let bytes = encode(frame);
        let body_cost = body.as_ref().map_or(0, |(_, b)| Self::stream_cost(b.len()));
        if self.out.len() + self.stream_bytes + bytes.len() + body_cost > self.budget {
            let budget = self.budget;
            self.streams.clear();
            self.stream_bytes = 0;
            self.out.extend(encode(&Frame::Error {
                code: ErrorCode::Overloaded,
                request: 0,
                message: format!("write queue over its {budget}-byte budget (slow reader)"),
            }));
            self.draining = true;
            return;
        }
        self.out.extend(bytes);
        if let Some((request, body)) = body {
            self.streams
                .push_back(ResultStream::new(request, body, MAX_CHUNK_DATA));
            self.stream_bytes += body_cost;
        }
    }

    /// Answers `request` with a typed error; the connection stays open.
    fn refuse(&mut self, code: ErrorCode, request: u64, message: String) {
        let error = Frame::Error {
            code,
            request,
            message,
        };
        self.respond(&error, None);
    }

    /// Pulls chunks from pending streams (round-robin) while the write
    /// queue is under the refill mark.
    fn refill_from_streams(&mut self) {
        while !self.streams.is_empty() && self.out.len() < REFILL_BYTES {
            let mut stream = self.streams.pop_front().expect("checked non-empty");
            let chunk = stream.next_chunk().expect("queued streams have bytes left");
            let bytes = encode(&chunk);
            self.stream_bytes -= bytes.len();
            self.out.extend(bytes);
            if !stream.is_done() {
                self.streams.push_back(stream);
            }
        }
    }

    fn handle_frame(
        &mut self,
        read: FrameRead,
        deployment: &mut Deployment,
        config: &ServeConfig,
        now: f64,
    ) {
        let frame = match read {
            FrameRead::Oversized { declared } => {
                let message = format!("frame of {declared} bytes exceeds {MAX_FRAME_LEN}");
                return self.refuse(ErrorCode::Oversized, 0, message);
            }
            FrameRead::Body(body) => match proto::decode_frame(&body) {
                Ok(frame) => frame,
                Err(e) => return self.refuse(ErrorCode::Malformed, 0, e.reason),
            },
        };
        match frame {
            Frame::Hello { version, .. } if version < PROTOCOL_VERSION => {
                // The client may retry with a supported version.
                let message = format!(
                    "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                );
                self.refuse(ErrorCode::HandshakeRejected, 0, message);
            }
            Frame::Hello { .. } => {
                // A client from the future is answered at the one version
                // this server speaks.
                self.greeted = true;
                let ack = Frame::HelloAckV2 {
                    session: self.session,
                    program: deployment.program_name().to_string(),
                    nodes: deployment.topology().num_nodes() as u32,
                    max_inflight: config.max_inflight as u32,
                    rate: config.rate,
                    burst: config.burst,
                    version: PROTOCOL_VERSION,
                    pipeline_depth: ADVERTISED_PIPELINE_DEPTH,
                    chunk_bytes: MAX_CHUNK_DATA as u32,
                    // Reserved: an offered result codec is declined.
                    codec: false,
                };
                self.respond(&ack, None);
            }
            Frame::Bye => {
                self.out.extend(encode(&Frame::Bye));
                self.draining = true;
            }
            Frame::SubmitQuery { request, spec } => {
                if self.gate_request(request, config, now) {
                    let reply = admit(deployment, request, spec, config.max_inflight);
                    self.respond(&reply, None);
                }
            }
            Frame::Poll { request, query } => {
                if self.gate_request(request, config, now) {
                    let (reply, body) = status(deployment, request, query);
                    self.respond(&reply, body.map(|b| (request, b)));
                }
            }
            // Server-to-client frames arriving at the server are protocol
            // violations, answered in kind (connection stays open).
            other @ (Frame::HelloAckV2 { .. }
            | Frame::SubmitAck { .. }
            | Frame::QueryStatusV2 { .. }
            | Frame::ResultChunk { .. }
            | Frame::Error { .. }) => {
                let message = format!("{} frames are server-to-client only", other.name());
                self.refuse(ErrorCode::Malformed, 0, message);
            }
        }
    }

    /// Handshake and rate-limit gate shared by submits and polls.  `false`
    /// means a typed error was already queued.
    fn gate_request(&mut self, request: u64, config: &ServeConfig, now: f64) -> bool {
        if !self.greeted {
            let message = "no Hello received on this session yet".into();
            self.refuse(ErrorCode::HandshakeRejected, request, message);
            return false;
        }
        if !self.bucket.try_take(now) {
            let (rate, burst) = (config.rate, config.burst);
            let message = format!("session bucket empty (rate {rate}/s, burst {burst})");
            self.refuse(ErrorCode::RateLimited, request, message);
            return false;
        }
        true
    }
}
