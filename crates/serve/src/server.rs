//! The wall-clock server: a [`Deployment`] behind TCP.
//!
//! Threading model: one thread, no async runtime, whatever the session
//! count.  A single `poll(2)` loop owns the nonblocking listener, every
//! nonblocking connection and the [`Deployment`].  Each connection is a
//! small state machine: an incremental [`FrameBuffer`] on the read side, a
//! bounded write queue plus pending [`ResultStream`]s on the write side, and
//! the per-session [`TokenBucket`].  Each turn of the loop:
//!
//! 1. sleeps in `poll(2)` until a socket is ready or the next simulated event
//!    is due in wall time ([`Deployment::next_event_time`] mapped back
//!    through `origin` and `clock_rate`, rounded up to whole milliseconds,
//!    never longer than `POLL_TIMEOUT_MS`);
//! 2. advances the deployment to the simulated time real time has paid for,
//!    `origin + elapsed × clock_rate` ([`Deployment::run_until`], the same
//!    call every other front-end makes);
//! 3. accepts, reads and answers frames — handshake, rate limit, query
//!    admission and polls all run inline, so a request is answered in the
//!    turn that reads it;
//! 4. flushes every connection with pending output.
//!
//! Running due events before answering frames means a poll sees every query
//! event real time has already paid for.  The cost of one thread: no socket
//! is served while a `run_until` runs, so a long churn batch delays every
//! session's next reply by its own duration.
//!
//! The server keeps no per-query state: a query id is the index of its
//! outcome in the deployment, and a completed poll renders that outcome's
//! body, which is streamed back in [`Frame::ResultChunk`] frames.
//!
//! # Backpressure
//!
//! Every connection has a byte budget ([`ServeConfig::write_queue_bytes`])
//! covering both queued encoded frames and the committed-but-unsent
//! remainder of result streams.  A response that would exceed the budget —
//! i.e. a reader too slow for the results it requested — is answered with a
//! typed [`ErrorCode::Overloaded`] error, after which the connection is
//! flushed and closed.  The server never blocks on, nor buffers unboundedly
//! for, a slow reader.
//!
//! Result chunks are paced pull-style: a stream's next chunk is encoded only
//! when the write queue has room, and multiple pending streams on one
//! connection are drained round-robin — so a small response submitted after
//! a huge one genuinely completes first (out-of-order completion).

use crate::limiter::TokenBucket;
use crate::proto::{
    self, ErrorCode, Frame, FrameBuffer, FrameRead, QuerySpec, QueryState, ResultStream,
    CHUNK_HEADER_LEN, MAX_CHUNK_DATA, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use exspan_core::{Annotation, Deployment};
use exspan_types::{Symbol, Tuple};
use pollshim::{PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Longest `poll(2)` sleep: bounds shutdown latency when no fd turns ready
/// and no simulated event is due sooner.
const POLL_TIMEOUT_MS: i32 = 25;

/// Low-water mark for refilling a connection's write queue from its pending
/// result streams: chunks are pulled while fewer bytes than this are queued.
const REFILL_BYTES: usize = 128 * 1024;

/// Upper bound on bytes written to one connection per loop turn.  A single
/// long result stream therefore cannot monopolize the loop: other
/// connections get served between its slices, and responses committed on
/// the *same* connection while a stream drains go out ahead of the stream's
/// tail — which is what makes pipelined completion genuinely out-of-order.
const FLUSH_BYTES_PER_TURN: usize = 128 * 1024;

/// The `pipeline_depth` every handshake ack advertises: a window size for
/// clients.  Requests are answered in the turn that reads them, so none is
/// ever refused for depth.
const ADVERTISED_PIPELINE_DEPTH: u32 = 32;

/// Tuning knobs of a [`Server`], built fluently:
///
/// ```no_run
/// use exspan_serve::ServeConfig;
/// let config = ServeConfig::default()
///     .addr("127.0.0.1:0")
///     .max_sessions(10_000)
///     .rate_limit(500.0, 64);
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    addr: String,
    max_sessions: usize,
    max_inflight: usize,
    rate: f64,
    burst: u32,
    clock_rate: f64,
    write_queue_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 256,
            max_inflight: 4096,
            rate: 500.0,
            burst: 64,
            clock_rate: 50.0,
            write_queue_bytes: 1024 * 1024,
        }
    }
}

impl ServeConfig {
    /// Listen address; port 0 binds an ephemeral port.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Maximum concurrently connected sessions; further connections are
    /// refused with [`ErrorCode::Admission`].
    pub fn max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Maximum provenance queries in flight across all sessions; further
    /// submits are refused with [`ErrorCode::Admission`].
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Per-session token bucket: `rate` requests per second refill, `burst`
    /// capacity.  [`Server::bind`] refuses a `rate` that is not finite and
    /// positive, and a `burst` of 0.
    pub fn rate_limit(mut self, rate: f64, burst: u32) -> Self {
        self.rate = rate;
        self.burst = burst;
        self
    }

    /// Simulated seconds the deployment advances per wall-clock second.
    /// [`Server::bind`] refuses a rate that is not finite and positive — a
    /// stalled or inverted clock would never reach any event.
    pub fn clock_rate(mut self, clock_rate: f64) -> Self {
        self.clock_rate = clock_rate;
        self
    }

    /// Per-connection write budget in bytes, covering queued frames plus
    /// committed-but-unsent result stream remainders.  A response that would
    /// exceed it is answered with [`ErrorCode::Overloaded`] and the
    /// connection is closed after flushing.
    pub fn write_queue_bytes(mut self, write_queue_bytes: usize) -> Self {
        self.write_queue_bytes = write_queue_bytes;
        self
    }
}

/// A running server.  Dropping the handle leaks the thread; call
/// [`ServerHandle::shutdown`] to stop it and take the deployment back.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Deployment>,
    sessions: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The bound listen address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently connected sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every connection, joins the server thread and
    /// returns the deployment in its final state — checkpointed first, so a
    /// deployment with a persistent store next boots from the snapshot alone
    /// (a no-op for an in-memory one).
    pub fn shutdown(self) -> Deployment {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the poll loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let mut deployment = self.thread.join().expect("server thread panicked");
        deployment.checkpoint();
        deployment
    }
}

/// The service front-end: owns nothing after [`Server::bind`], which moves
/// the deployment onto the server thread.
pub struct Server;

impl Server {
    /// Boots the server: binds the listen socket, spawns the one server
    /// thread, and returns immediately.
    ///
    /// Churn or other future work should be scheduled on the deployment
    /// (e.g. [`Deployment::schedule_churn_event`]) *before* binding: the
    /// wall clock pays simulated time out gradually, so events scheduled
    /// ahead fire while the server is live.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], before anything is bound or spawned,
    /// when `clock_rate` or the token-bucket `rate` is not finite and
    /// positive or `burst` is 0; otherwise whatever binding the socket or
    /// spawning the thread returns.
    pub fn bind(deployment: Deployment, config: ServeConfig) -> io::Result<ServerHandle> {
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
        // Best-effort: a 10k-session cap is useless if the process is stuck
        // at the default 1024-fd soft limit.  Failure is fine — the accept
        // path refuses over-cap connections gracefully either way.
        let _ = pollshim::raise_nofile_limit(config.max_sessions as u64 + 64);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(AtomicUsize::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let sessions = Arc::clone(&sessions);
            thread::Builder::new()
                .name("exspan-serve".into())
                .spawn(move || {
                    Reactor {
                        // Simulated time is `origin + elapsed × clock_rate`:
                        // real time pays for it, so maintenance, churn and
                        // queries run at an observable pace.
                        origin: deployment.now(),
                        epoch: Instant::now(),
                        deployment,
                        config,
                        conns: HashMap::new(),
                        next_conn: 0,
                        next_session: 1,
                        sessions,
                    }
                    .run(&listener, &stop)
                })?
        };

        Ok(ServerHandle {
            addr,
            stop,
            thread,
            sessions,
        })
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

fn summarize(annotation: Option<&Annotation>) -> String {
    match annotation {
        None => "no result".into(),
        Some(Annotation::Expr(e)) => format!("{} derivations", e.num_derivations()),
        Some(Annotation::Nodes(n)) => format!("{} nodes", n.len()),
        Some(Annotation::Domains(d)) => format!("{} trust domains", d.len()),
        Some(Annotation::Count(c)) => format!("count {c}"),
        Some(Annotation::Bool(b)) => format!("derivable: {b}"),
        Some(Annotation::Bdd(_)) => "condensed (BDD)".into(),
    }
}

/// Renders a completed query's full result body for the chunk stream.
fn render_result(annotation: Option<&Annotation>) -> Vec<u8> {
    match annotation {
        None => Vec::new(),
        Some(Annotation::Expr(e)) => e.to_string().into_bytes(),
        Some(Annotation::Nodes(nodes)) => {
            let ids: Vec<String> = nodes.iter().map(|n| format!("n{n}")).collect();
            format!("{{{}}}", ids.join(", ")).into_bytes()
        }
        Some(Annotation::Domains(domains)) => {
            let ids: Vec<String> = domains.iter().map(|d| format!("d{d}")).collect();
            format!("{{{}}}", ids.join(", ")).into_bytes()
        }
        Some(Annotation::Count(c)) => c.to_string().into_bytes(),
        Some(Annotation::Bool(b)) => b.to_string().into_bytes(),
        Some(Annotation::Bdd(_)) => b"condensed (BDD)".to_vec(),
    }
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
            let annotation = outcome.annotation.as_ref();
            let body = render_result(annotation);
            let body = (!body.is_empty()).then(|| Arc::new(body));
            (
                QueryState::Complete,
                completed_at - outcome.issued_at,
                summarize(annotation),
                body,
            )
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
// Reactor
// ---------------------------------------------------------------------------

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Encoded frames awaiting write; `out_head` bytes of the front frame
    /// are already on the wire.
    out: VecDeque<Vec<u8>>,
    out_head: usize,
    /// Total encoded bytes in `out` (fully counted until a frame completes).
    queued_bytes: usize,
    /// Pending result streams, drained round-robin one chunk at a time.
    streams: VecDeque<ResultStream>,
    /// Committed-but-unsent stream bytes (data + per-chunk framing).
    stream_bytes: usize,
    bucket: TokenBucket,
    session: u64,
    /// Whether a `Hello` has been accepted on this connection.
    greeted: bool,
    /// Close once the write queue fully flushes (after `Bye` or a fatal
    /// error frame); reads are ignored from then on.
    draining: bool,
}

impl Conn {
    fn new(stream: TcpStream, session: u64, config: &ServeConfig) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(),
            out: VecDeque::new(),
            out_head: 0,
            queued_bytes: 0,
            streams: VecDeque::new(),
            stream_bytes: 0,
            bucket: TokenBucket::new(config.rate, config.burst),
            session,
            greeted: false,
            draining: false,
        }
    }

    /// Encoded wire cost of streaming `remaining` more body bytes.
    fn stream_cost(remaining: usize) -> usize {
        remaining + remaining.div_ceil(MAX_CHUNK_DATA) * (CHUNK_HEADER_LEN + 4)
    }

    /// Queues an encoded response frame without a budget check (used for
    /// error frames, which are small and must go out).
    fn enqueue(&mut self, frame: &Frame) {
        let bytes = proto::encode_frame(frame).expect("server response frames always encode");
        self.queued_bytes += bytes.len();
        self.out.push_back(bytes);
    }

    /// Switches the connection to overload drain: pending streams are
    /// abandoned, a typed `Overloaded` error is queued, and the connection
    /// closes once flushed.
    fn overload(&mut self, budget: usize) {
        self.streams.clear();
        self.stream_bytes = 0;
        self.enqueue(&Frame::Error {
            code: ErrorCode::Overloaded,
            request: 0,
            message: format!("write queue over its {budget}-byte budget (slow reader)"),
        });
        self.draining = true;
    }

    /// Commits an obligatory response: the status/ack frame plus an optional
    /// non-empty result body to stream.  Over-budget commits become
    /// `Overloaded`.
    fn respond(&mut self, frame: &Frame, body: Option<(u64, Arc<Vec<u8>>)>, config: &ServeConfig) {
        let bytes = proto::encode_frame(frame).expect("server response frames always encode");
        let body_cost = body.as_ref().map_or(0, |(_, b)| Self::stream_cost(b.len()));
        if self.queued_bytes + self.stream_bytes + bytes.len() + body_cost
            > config.write_queue_bytes
        {
            self.overload(config.write_queue_bytes);
            return;
        }
        self.queued_bytes += bytes.len();
        self.out.push_back(bytes);
        if let Some((request, body)) = body {
            self.streams
                .push_back(ResultStream::new(request, body, MAX_CHUNK_DATA));
            self.stream_bytes += body_cost;
        }
    }

    /// Pulls chunks from pending streams (round-robin) while the write
    /// queue is under the refill mark.
    fn refill_from_streams(&mut self) {
        while !self.streams.is_empty() && self.queued_bytes < REFILL_BYTES {
            let mut stream = self.streams.pop_front().expect("checked non-empty");
            if let Some(chunk) = stream.next_chunk() {
                let bytes =
                    proto::encode_frame(&chunk).expect("server response frames always encode");
                self.stream_bytes = self.stream_bytes.saturating_sub(bytes.len());
                self.queued_bytes += bytes.len();
                self.out.push_back(bytes);
            }
            if !stream.is_done() {
                self.streams.push_back(stream);
            }
        }
        if self.streams.is_empty() {
            self.stream_bytes = 0;
        }
    }

    /// Writes as much queued output as the socket accepts, up to
    /// [`FLUSH_BYTES_PER_TURN`] bytes per call.  Returns `true` when the
    /// connection is finished (drained or broken).
    fn flush(&mut self) -> bool {
        let mut written = 0usize;
        loop {
            if written >= FLUSH_BYTES_PER_TURN {
                break;
            }
            if self.out.is_empty() {
                self.refill_from_streams();
                if self.out.is_empty() {
                    break;
                }
            }
            let front = self.out.front().expect("checked non-empty");
            match self.stream.write(&front[self.out_head..]) {
                Ok(0) => return true,
                Ok(n) => {
                    written += n;
                    self.out_head += n;
                    if self.out_head == front.len() {
                        self.queued_bytes -= front.len();
                        self.out.pop_front();
                        self.out_head = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        self.draining && self.out.is_empty() && self.streams.is_empty()
    }

    /// Whether the poll set should watch this connection for writability.
    fn wants_write(&self) -> bool {
        !self.out.is_empty() || !self.streams.is_empty()
    }
}

struct Reactor {
    deployment: Deployment,
    /// Simulated time at [`Server::bind`].
    origin: f64,
    /// Wall time at [`Server::bind`].
    epoch: Instant,
    config: ServeConfig,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    next_session: u64,
    sessions: Arc<AtomicUsize>,
}

impl Reactor {
    fn run(mut self, listener: &TcpListener, stop: &AtomicBool) -> Deployment {
        let mut scratch = vec![0u8; 16 * 1024];
        let mut fds: Vec<PollFd> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut finished: Vec<usize> = Vec::new();

        while !stop.load(Ordering::SeqCst) {
            fds.clear();
            order.clear();
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if !conn.draining {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                order.push(id);
            }
            let timeout = self.poll_timeout_ms();
            if pollshim::poll(&mut fds, timeout).is_err() {
                break;
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }

            // Due events first, so the frames answered below see them.
            let now = self.origin + self.epoch.elapsed().as_secs_f64() * self.config.clock_rate;
            self.deployment.run_until(now);

            if fds[0].readable() {
                self.accept_new(listener, stop);
            }

            // Connection reads (frame processing may queue output).
            finished.clear();
            for (i, &id) in order.iter().enumerate() {
                if fds[i + 1].readable() {
                    let done = self.read_conn(id, &mut scratch);
                    if done {
                        finished.push(id);
                    }
                }
            }
            for id in finished.drain(..) {
                self.drop_conn(id);
            }

            // Flush every connection with pending output — whether the
            // readiness came from POLLOUT or the output was queued this
            // turn (fresh sockets are almost always writable).
            finished.clear();
            for (&id, conn) in &mut self.conns {
                if conn.wants_write() && conn.flush() {
                    finished.push(id);
                }
            }
            for id in finished.drain(..) {
                self.drop_conn(id);
            }
        }
        self.deployment
    }

    /// Wall milliseconds until the next simulated event is due: rounded up,
    /// 0 when it already is, at most [`POLL_TIMEOUT_MS`].
    fn poll_timeout_ms(&mut self) -> i32 {
        let Some(due) = self.deployment.next_event_time() else {
            return POLL_TIMEOUT_MS;
        };
        let wall_due_s = (due - self.origin) / self.config.clock_rate;
        let wait_ms = (wall_due_s - self.epoch.elapsed().as_secs_f64()) * 1e3;
        if wait_ms <= 0.0 {
            0
        } else {
            wait_ms.ceil().min(f64::from(POLL_TIMEOUT_MS)) as i32
        }
    }

    fn drop_conn(&mut self, id: usize) {
        if self.conns.remove(&id).is_some() {
            self.sessions.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn accept_new(&mut self, listener: &TcpListener, stop: &AtomicBool) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    // Bounded accept: refuse with a typed error frame.  The
                    // accepted socket is still blocking and its send buffer
                    // empty, so this small write cannot stall.
                    if self.conns.len() >= self.config.max_sessions {
                        let mut stream = stream;
                        let _ = proto::write_frame(
                            &mut stream,
                            &Frame::Error {
                                code: ErrorCode::Admission,
                                request: 0,
                                message: format!(
                                    "session limit {} reached",
                                    self.config.max_sessions
                                ),
                            },
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    let session = self.next_session;
                    self.next_session += 1;
                    self.conns
                        .insert(id, Conn::new(stream, session, &self.config));
                    self.sessions.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Reads everything the socket has, feeding the frame buffer and
    /// handling complete frames.  Returns `true` when the connection died.
    fn read_conn(&mut self, id: usize, scratch: &mut [u8]) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            match conn.stream.read(scratch) {
                Ok(0) => return true,
                Ok(n) => {
                    let fed = &scratch[..n];
                    conn.frames.feed(fed);
                    while let Some(read) = self.conns.get_mut(&id).and_then(|c| {
                        if c.draining {
                            None
                        } else {
                            c.frames.next_frame()
                        }
                    }) {
                        self.handle_frame(id, read);
                    }
                    if self.conns.get(&id).map_or(true, |c| c.draining) {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    fn handle_frame(&mut self, id: usize, read: FrameRead) {
        let config = &self.config;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let body = match read {
            FrameRead::Body(body) => body,
            FrameRead::Oversized { declared } => {
                conn.respond(
                    &Frame::Error {
                        code: ErrorCode::Oversized,
                        request: 0,
                        message: format!("frame of {declared} bytes exceeds {MAX_FRAME_LEN}"),
                    },
                    None,
                    config,
                );
                return;
            }
        };
        let frame = match proto::decode_frame(&body) {
            Ok(frame) => frame,
            Err(e) => {
                conn.respond(
                    &Frame::Error {
                        code: ErrorCode::Malformed,
                        request: 0,
                        message: e.reason,
                    },
                    None,
                    config,
                );
                return;
            }
        };
        match frame {
            Frame::Hello { version, .. } => {
                if version < PROTOCOL_VERSION {
                    conn.respond(
                        &Frame::Error {
                            code: ErrorCode::HandshakeRejected,
                            request: 0,
                            message: format!(
                                "protocol version {version} unsupported (server speaks \
                                 {PROTOCOL_VERSION})"
                            ),
                        },
                        None,
                        config,
                    );
                    return; // the client may retry with a supported version
                }
                // A client from the future is answered at the one version
                // this server speaks.
                conn.greeted = true;
                let ack = Frame::HelloAckV2 {
                    session: conn.session,
                    program: self.deployment.program_name().to_string(),
                    nodes: self.deployment.topology().num_nodes() as u32,
                    max_inflight: config.max_inflight as u32,
                    rate: config.rate,
                    burst: config.burst,
                    version: PROTOCOL_VERSION,
                    pipeline_depth: ADVERTISED_PIPELINE_DEPTH,
                    chunk_bytes: MAX_CHUNK_DATA as u32,
                    // Reserved: an offered result codec is declined.
                    codec: false,
                };
                conn.respond(&ack, None, config);
            }
            Frame::Bye => {
                conn.enqueue(&Frame::Bye);
                conn.draining = true;
            }
            Frame::SubmitQuery { request, spec } => {
                if Self::gate_request(conn, request, config) {
                    let reply = admit(&mut self.deployment, request, spec, config.max_inflight);
                    conn.respond(&reply, None, config);
                }
            }
            Frame::Poll { request, query } => {
                if Self::gate_request(conn, request, config) {
                    let (reply, body) = status(&self.deployment, request, query);
                    conn.respond(&reply, body.map(|b| (request, b)), config);
                }
            }
            // Server-to-client frames arriving at the server are protocol
            // violations, answered in kind (connection stays open).
            other @ (Frame::HelloAckV2 { .. }
            | Frame::SubmitAck { .. }
            | Frame::QueryStatusV2 { .. }
            | Frame::ResultChunk { .. }
            | Frame::Error { .. }) => {
                conn.respond(
                    &Frame::Error {
                        code: ErrorCode::Malformed,
                        request: 0,
                        message: format!("{} frames are server-to-client only", other.name()),
                    },
                    None,
                    config,
                );
            }
        }
    }

    /// Handshake and rate-limit gate shared by submits and polls.  `false`
    /// means a typed error was already queued.
    fn gate_request(conn: &mut Conn, request: u64, config: &ServeConfig) -> bool {
        if !conn.greeted {
            conn.respond(
                &Frame::Error {
                    code: ErrorCode::HandshakeRejected,
                    request,
                    message: "no Hello received on this session yet".into(),
                },
                None,
                config,
            );
            return false;
        }
        if !conn.bucket.try_take() {
            conn.respond(
                &Frame::Error {
                    code: ErrorCode::RateLimited,
                    request,
                    message: format!(
                        "session bucket empty (rate {}/s, burst {})",
                        config.rate, config.burst
                    ),
                },
                None,
                config,
            );
            return false;
        }
        true
    }
}
