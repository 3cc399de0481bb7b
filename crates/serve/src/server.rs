//! The wall-clock server: a [`Deployment`] behind TCP.
//!
//! Threading model (tokio-free, two threads total regardless of session
//! count):
//!
//! * **Reactor thread** — a single `poll(2)` loop over the nonblocking
//!   listener and every nonblocking connection.  Each connection is a small
//!   state machine: an incremental [`FrameBuffer`] on the read side, a
//!   bounded write queue plus pending [`ResultStream`]s on the write side,
//!   and the per-session [`TokenBucket`].
//!   The reactor performs the handshake, rate limiting, pipeline-depth
//!   accounting and result chunking itself; only submits and polls cross to
//!   the worker (tagged with a connection id so responses find their way
//!   back and may complete out of order).
//! * **Worker thread** — owns the [`Deployment`].  Each wake-up (a command
//!   arrived, or a millisecond passed) drains pending commands (submits,
//!   polls), then advances the deployment once, to the simulated time real
//!   time has paid for: `origin + elapsed × clock_rate`
//!   ([`Deployment::run_until`], the same call every other front-end makes).
//!   It keeps no per-query state: a query id is the index of its outcome in
//!   the deployment, and a completed poll renders that outcome's body, which
//!   the reactor streams back in [`Frame::ResultChunk`] frames.  The worker
//!   wakes the reactor through a loopback byte after posting replies.
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
use exspan_types::Tuple;
use pollshim::{PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Reactor poll timeout: bounds shutdown latency when no fd turns ready.
const POLL_TIMEOUT_MS: i32 = 25;

/// Low-water mark for refilling a connection's write queue from its pending
/// result streams: chunks are pulled while fewer bytes than this are queued.
const REFILL_BYTES: usize = 128 * 1024;

/// Upper bound on bytes written to one connection per reactor tick.  A
/// single long result stream therefore cannot monopolize the loop: other
/// connections get served between its slices, and responses committed on
/// the *same* connection while a stream drains go out ahead of the stream's
/// tail — which is what makes pipelined completion genuinely out-of-order.
const FLUSH_QUANTUM: usize = 128 * 1024;

/// How long the worker blocks waiting for a command before it advances the
/// simulated clock anyway: short enough to keep pace with real time, long
/// enough not to busy-spin.
const QUANTUM: Duration = Duration::from_millis(1);

/// Tuning knobs of a [`Server`], built fluently:
///
/// ```no_run
/// use exspan_serve::ServeConfig;
/// let config = ServeConfig::default()
///     .addr("127.0.0.1:0")
///     .max_sessions(10_000)
///     .rate_limit(500.0, 64)
///     .pipeline_depth(32);
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    addr: String,
    max_sessions: usize,
    max_inflight: usize,
    rate: f64,
    burst: u32,
    clock_rate: f64,
    pipeline_depth: u32,
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
            pipeline_depth: 32,
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

    /// Requests one connection may keep in flight before further requests
    /// are refused with [`ErrorCode::Admission`].
    pub fn pipeline_depth(mut self, pipeline_depth: u32) -> Self {
        self.pipeline_depth = pipeline_depth.max(1);
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

/// What the worker tells the reactor about a submit.
enum SubmitVerdict {
    Admitted { query: u64 },
    Refused { code: ErrorCode, message: String },
}

/// What the worker tells the reactor about a poll.
enum PollVerdict {
    Status {
        state: QueryState,
        latency: f64,
        summary: String,
        /// Rendered result body (polls of completed queries only).
        result: Option<Arc<Vec<u8>>>,
    },
    Unknown,
}

/// Reactor → worker, tagged with the originating connection.
enum Command {
    Submit {
        conn: usize,
        request: u64,
        spec: QuerySpec,
    },
    Poll {
        conn: usize,
        request: u64,
        query: u64,
    },
}

/// Worker → reactor.
enum Reply {
    Submit {
        conn: usize,
        request: u64,
        verdict: SubmitVerdict,
    },
    Poll {
        conn: usize,
        request: u64,
        query: u64,
        verdict: PollVerdict,
    },
}

/// A running server.  Dropping the handle leaks the threads; call
/// [`ServerHandle::shutdown`] to stop them and take the deployment back.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor: JoinHandle<()>,
    worker: JoinHandle<Deployment>,
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

    /// Stops accepting, closes every connection, joins both threads and
    /// returns the deployment in its final state — checkpointed first, so a
    /// deployment with a persistent store next boots from the snapshot alone
    /// (a no-op for an in-memory one).
    pub fn shutdown(self) -> Deployment {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the poll loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.reactor.join();
        let mut deployment = self.worker.join().expect("worker thread panicked");
        deployment.checkpoint();
        deployment
    }
}

/// The service front-end: owns nothing after [`Server::bind`], which moves
/// the deployment onto the worker thread.
pub struct Server;

impl Server {
    /// Boots the server: binds the listen socket, spawns the worker and the
    /// reactor, and returns immediately.
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
    /// positive or `burst` is 0; otherwise whatever binding the sockets or
    /// spawning the threads returns.
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

        // Loopback wake pair: the worker writes a byte after posting
        // replies, turning the reactor's poll ready.
        let wake_listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
        let (wake_rx, _) = wake_listener.accept()?;
        wake_rx.set_nonblocking(true)?;
        drop(wake_listener);

        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(AtomicUsize::new(0));
        let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let greeting = SessionGreeting {
            program: deployment.program_name().to_string(),
            nodes: deployment.topology().num_nodes() as u32,
        };

        let worker = {
            let config = config.clone();
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("exspan-serve-worker".into())
                .spawn(move || {
                    worker_loop(deployment, &config, &cmd_rx, &reply_tx, wake_tx, &stop)
                })?
        };

        let reactor = {
            let stop = Arc::clone(&stop);
            let sessions = Arc::clone(&sessions);
            thread::Builder::new()
                .name("exspan-serve-reactor".into())
                .spawn(move || {
                    Reactor {
                        config,
                        greeting,
                        cmds: cmd_tx,
                        conns: HashMap::new(),
                        next_conn: 0,
                        next_session: 1,
                        sessions,
                    }
                    .run(&listener, &wake_rx, &reply_rx, &stop);
                })?
        };

        Ok(ServerHandle {
            addr,
            stop,
            reactor,
            worker,
            sessions,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker
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

fn worker_loop(
    mut deployment: Deployment,
    config: &ServeConfig,
    rx: &mpsc::Receiver<Command>,
    replies: &mpsc::Sender<Reply>,
    mut wake: TcpStream,
    stop: &AtomicBool,
) -> Deployment {
    // Simulated time is `origin + elapsed × clock_rate`: real time pays for
    // it, so maintenance, churn and queries run at an observable pace.
    let origin = deployment.now();
    let epoch = Instant::now();

    let handle_command = |deployment: &mut Deployment, cmd: Command| match cmd {
        Command::Submit {
            conn,
            request,
            spec,
        } => {
            let verdict = admit(deployment, spec, config.max_inflight);
            let _ = replies.send(Reply::Submit {
                conn,
                request,
                verdict,
            });
        }
        Command::Poll {
            conn,
            request,
            query,
        } => {
            // A query id is the index of its outcome, whichever session
            // submitted it.
            let outcome = usize::try_from(query)
                .ok()
                .and_then(|index| deployment.outcomes().get(index));
            let verdict = match outcome {
                None => PollVerdict::Unknown,
                Some(outcome) => match outcome.completed_at {
                    Some(completed_at) => PollVerdict::Status {
                        state: QueryState::Complete,
                        latency: completed_at - outcome.issued_at,
                        summary: summarize(outcome.annotation.as_ref()),
                        result: Some(Arc::new(render_result(outcome.annotation.as_ref()))),
                    },
                    None => PollVerdict::Status {
                        state: QueryState::Pending,
                        latency: 0.0,
                        summary: String::new(),
                        result: None,
                    },
                },
            };
            let _ = replies.send(Reply::Poll {
                conn,
                request,
                query,
                verdict,
            });
        }
    };

    loop {
        let mut replied = false;
        while let Ok(cmd) = rx.try_recv() {
            handle_command(&mut deployment, cmd);
            replied = true;
        }
        if replied {
            let _ = wake.write(&[1]);
        }
        deployment.run_until(origin + epoch.elapsed().as_secs_f64() * config.clock_rate);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Block for at most one quantum so the simulated clock keeps pace
        // even when no commands arrive.  On wakeup, drain whatever else is
        // already queued before writing the wake byte: commands the reactor
        // forwarded in one tick (e.g. a pipelined batch from one client)
        // then commit their replies together, ahead of the first flush.
        match rx.recv_timeout(QUANTUM) {
            Ok(cmd) => {
                handle_command(&mut deployment, cmd);
                while let Ok(cmd) = rx.try_recv() {
                    handle_command(&mut deployment, cmd);
                }
                let _ = wake.write(&[1]);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    deployment
}

fn admit(deployment: &mut Deployment, spec: QuerySpec, max_inflight: usize) -> SubmitVerdict {
    let inflight = deployment.incomplete_queries();
    if inflight >= max_inflight {
        return SubmitVerdict::Refused {
            code: ErrorCode::Admission,
            message: format!("{inflight} queries in flight (limit {max_inflight})"),
        };
    }
    let nodes = deployment.topology().num_nodes();
    if spec.issuer as usize >= nodes || spec.location as usize >= nodes {
        return SubmitVerdict::Refused {
            code: ErrorCode::Malformed,
            message: format!(
                "issuer n{} / location n{} outside the {nodes}-node topology",
                spec.issuer, spec.location
            ),
        };
    }
    let target = Tuple::new(spec.relation.as_str(), spec.location, spec.values);
    let handle = deployment
        .query(&target)
        .issuer(spec.issuer)
        .repr(spec.repr)
        .traversal(spec.traversal)
        .cached(spec.cached)
        .submit();
    SubmitVerdict::Admitted {
        query: handle.index() as u64,
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// Deployment metadata echoed in every handshake ack — captured before the
/// deployment moves onto the worker thread.
struct SessionGreeting {
    program: String,
    nodes: u32,
}

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
    /// Requests currently at the worker (pipeline-depth accounting).
    inflight: u32,
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
            inflight: 0,
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
    /// result body to stream.  Over-budget commits become `Overloaded`.
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
            if !body.is_empty() {
                self.streams
                    .push_back(ResultStream::new(request, body, MAX_CHUNK_DATA));
                self.stream_bytes += body_cost;
            }
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
    /// [`FLUSH_QUANTUM`] bytes per call.  Returns `true` when the
    /// connection is finished (drained or broken).
    fn flush(&mut self) -> bool {
        let mut written = 0usize;
        loop {
            if written >= FLUSH_QUANTUM {
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
    config: ServeConfig,
    greeting: SessionGreeting,
    cmds: mpsc::Sender<Command>,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    next_session: u64,
    sessions: Arc<AtomicUsize>,
}

impl Reactor {
    fn run(
        mut self,
        listener: &TcpListener,
        wake_rx: &TcpStream,
        replies: &mpsc::Receiver<Reply>,
        stop: &AtomicBool,
    ) {
        let mut scratch = vec![0u8; 16 * 1024];
        let mut fds: Vec<PollFd> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut finished: Vec<usize> = Vec::new();

        while !stop.load(Ordering::SeqCst) {
            fds.clear();
            order.clear();
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
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
            if pollshim::poll(&mut fds, POLL_TIMEOUT_MS).is_err() {
                break;
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }

            // Worker replies (drain the wake bytes, then the channel — the
            // channel is drained unconditionally so a missed byte is
            // harmless).
            if fds[1].readable() {
                drain_wake(wake_rx, &mut scratch);
            }
            while let Ok(reply) = replies.try_recv() {
                self.route_reply(reply);
            }

            if fds[0].readable() {
                self.accept_new(listener, stop);
            }

            // Connection reads (frame processing may queue output).
            finished.clear();
            for (i, &id) in order.iter().enumerate() {
                if fds[i + 2].readable() {
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
            // iteration (fresh sockets are almost always writable).
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
                    program: self.greeting.program.clone(),
                    nodes: self.greeting.nodes,
                    max_inflight: config.max_inflight as u32,
                    rate: config.rate,
                    burst: config.burst,
                    version: PROTOCOL_VERSION,
                    pipeline_depth: config.pipeline_depth,
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
                    let sent = self.cmds.send(Command::Submit {
                        conn: id,
                        request,
                        spec,
                    });
                    Self::track_sent(conn, request, sent.is_ok(), config);
                }
            }
            Frame::Poll { request, query } => {
                if Self::gate_request(conn, request, config) {
                    let sent = self.cmds.send(Command::Poll {
                        conn: id,
                        request,
                        query,
                    });
                    Self::track_sent(conn, request, sent.is_ok(), config);
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

    /// Handshake, rate-limit and pipeline-depth gate shared by submits and
    /// polls.  `false` means a typed error was already queued.
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
        if conn.inflight >= config.pipeline_depth {
            conn.respond(
                &Frame::Error {
                    code: ErrorCode::Admission,
                    request,
                    message: format!(
                        "pipeline depth {} reached on this connection",
                        config.pipeline_depth
                    ),
                },
                None,
                config,
            );
            return false;
        }
        true
    }

    /// Accounts for a command handed to the worker (or reports the worker
    /// gone, if the channel is closed).
    fn track_sent(conn: &mut Conn, request: u64, sent: bool, config: &ServeConfig) {
        if sent {
            conn.inflight += 1;
        } else {
            conn.respond(
                &Frame::Error {
                    code: ErrorCode::Shutdown,
                    request,
                    message: "worker is gone".into(),
                },
                None,
                config,
            );
            conn.draining = true;
        }
    }

    fn route_reply(&mut self, reply: Reply) {
        let config = &self.config;
        match reply {
            Reply::Submit {
                conn,
                request,
                verdict,
            } => {
                let Some(conn) = self.conns.get_mut(&conn) else {
                    return; // connection died while the submit was in flight
                };
                conn.inflight = conn.inflight.saturating_sub(1);
                match verdict {
                    SubmitVerdict::Admitted { query } => {
                        conn.respond(&Frame::SubmitAck { request, query }, None, config);
                    }
                    SubmitVerdict::Refused { code, message } => {
                        conn.respond(
                            &Frame::Error {
                                code,
                                request,
                                message,
                            },
                            None,
                            config,
                        );
                    }
                }
            }
            Reply::Poll {
                conn,
                request,
                query,
                verdict,
            } => {
                let Some(conn) = self.conns.get_mut(&conn) else {
                    return;
                };
                conn.inflight = conn.inflight.saturating_sub(1);
                match verdict {
                    PollVerdict::Status {
                        state,
                        latency,
                        summary,
                        result,
                    } => {
                        let body = result.filter(|b| !b.is_empty());
                        let result_total = body.as_ref().map_or(0, |b| b.len() as u64);
                        conn.respond(
                            &Frame::QueryStatusV2 {
                                request,
                                query,
                                state,
                                latency,
                                summary,
                                result_total,
                                // Reserved counters, always zero.
                                cache_maintained: 0,
                                compressed_bytes_saved: 0,
                            },
                            body.map(|b| (request, b)),
                            config,
                        );
                    }
                    PollVerdict::Unknown => {
                        conn.respond(
                            &Frame::Error {
                                code: ErrorCode::UnknownQuery,
                                request,
                                message: format!("no query #{query} in this deployment"),
                            },
                            None,
                            config,
                        );
                    }
                }
            }
        }
    }
}

fn drain_wake(mut wake_rx: &TcpStream, scratch: &mut [u8]) {
    loop {
        match wake_rx.read(scratch) {
            Ok(0) => return, // worker gone; replies channel will drain dry
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return, // includes WouldBlock: fully drained
        }
    }
}
