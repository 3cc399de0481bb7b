//! The wall-clock shell around the [`Service`] core: a [`Deployment`]
//! behind TCP.
//!
//! Threading model: one thread, no async runtime, whatever the session
//! count.  A single `poll(2)` loop owns the nonblocking listener, every
//! nonblocking connection and the [`Service`], which makes every protocol
//! decision.  The shell only moves bytes between sockets and the core, and
//! reads the wall clock once per turn, as seconds since [`Server::bind`].
//! Each turn of the loop:
//!
//! 1. sleeps in `poll(2)` until a socket is ready or the next simulated event
//!    is due ([`Service::next_due`], rounded up to whole milliseconds, never
//!    longer than `POLL_TIMEOUT_MS`);
//! 2. advances the core to the wall time ([`Service::advance`]), which runs
//!    the events real time has paid for;
//! 3. accepts connections, then reads sockets into [`Service::receive`],
//!    which answers each request in the turn that reads it;
//! 4. writes every connection's [`Service::output`], at most
//!    [`FLUSH_BYTES_PER_TURN`] bytes each.
//!
//! Running due events before answering frames means a poll sees every query
//! event real time has already paid for.  The cost of one thread: no socket
//! is served while a `run_until` runs, so a long churn batch delays every
//! session's next reply by its own duration.

use crate::service::{ConnId, Service};
use exspan_core::Deployment;
use pollshim::{PollFd, POLLIN, POLLOUT};
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

/// Upper bound on bytes written to one connection per loop turn.  A single
/// long result stream therefore cannot monopolize the loop: other
/// connections get served between its slices, and responses committed on
/// the *same* connection while a stream drains go out ahead of the stream's
/// tail.
pub const FLUSH_BYTES_PER_TURN: usize = 128 * 1024;

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
    pub(crate) addr: String,
    pub(crate) max_sessions: usize,
    pub(crate) max_inflight: usize,
    pub(crate) rate: f64,
    pub(crate) burst: u32,
    pub(crate) clock_rate: f64,
    pub(crate) write_queue_bytes: usize,
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
    /// refused with [`crate::ErrorCode::Admission`].
    pub fn max_sessions(mut self, max_sessions: usize) -> Self {
        self.max_sessions = max_sessions;
        self
    }

    /// Maximum provenance queries in flight across all sessions; further
    /// submits are refused with [`crate::ErrorCode::Admission`].
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
    /// exceed it is answered with [`crate::ErrorCode::Overloaded`] and the
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
    /// Whatever [`Service::new`] refuses the config with, before anything is
    /// bound or spawned; otherwise whatever binding the socket or spawning
    /// the thread returns.
    pub fn bind(deployment: Deployment, config: ServeConfig) -> io::Result<ServerHandle> {
        let service = Service::new(deployment, &config)?;
        // Best-effort: a 10k-session cap is useless if the process is stuck
        // at the default 1024-fd soft limit.  Failure is fine — the accept
        // path refuses over-cap connections gracefully either way.
        let _ = pollshim::raise_nofile_limit(config.max_sessions as u64 + 64);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(AtomicUsize::new(0));
        let shell = Shell {
            service,
            listener,
            stop: Arc::clone(&stop),
            sessions: Arc::clone(&sessions),
            streams: Vec::new(),
        };
        let thread = thread::Builder::new()
            .name("exspan-serve".into())
            .spawn(move || shell.run())?;

        Ok(ServerHandle {
            addr,
            stop,
            thread,
            sessions,
        })
    }
}

/// The server thread's state: the core, the sockets, and what the
/// [`ServerHandle`] shares.
struct Shell {
    service: Service,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    sessions: Arc<AtomicUsize>,
    /// The socket of each open connection, indexed by its slot in the core.
    streams: Vec<Option<TcpStream>>,
}

impl Shell {
    fn run(mut self) -> Deployment {
        let epoch = Instant::now();
        let mut now = 0.0;
        let mut buf = vec![0u8; 16 * 1024];
        let mut fds: Vec<PollFd> = Vec::new();
        let mut order: Vec<ConnId> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            fds.clear();
            order.clear();
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            for (id, stream) in self.streams.iter().enumerate() {
                let Some(stream) = stream else { continue };
                let mut events = 0i16;
                if self.service.reading(id) {
                    events |= POLLIN;
                }
                if self.service.has_output(id) {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(stream.as_raw_fd(), events));
                order.push(id);
            }
            // Milliseconds until the next event is due: rounded up, 0 when
            // it already is.
            let timeout = self.service.next_due().map_or(POLL_TIMEOUT_MS, |due| {
                ((due - now) * 1e3)
                    .ceil()
                    .clamp(0.0, f64::from(POLL_TIMEOUT_MS)) as i32
            });
            if pollshim::poll(&mut fds, timeout).is_err() || self.stop.load(Ordering::SeqCst) {
                break;
            }

            // Due events first, so the frames answered below see them.
            now = epoch.elapsed().as_secs_f64();
            self.service.advance(now);
            if fds[0].readable() {
                self.accept();
            }
            for (fd, &id) in fds[1..].iter().zip(&order) {
                if fd.readable() && !self.read(id, &mut buf, now) {
                    self.close(id);
                }
            }
            // Flush every connection with pending output — whether the
            // readiness came from POLLOUT or the output was queued this turn
            // (fresh sockets are almost always writable).
            for id in 0..self.streams.len() {
                if self.service.has_output(id) && !self.flush(id) {
                    self.close(id);
                }
            }
        }
        self.service.into_deployment()
    }

    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _peer)) => match self.service.connect() {
                    // The accepted socket is still blocking and its send
                    // buffer empty, so this small refusal cannot stall.
                    Err(refusal) => {
                        let _ = stream.write_all(&refusal);
                    }
                    Ok(id) => {
                        if stream.set_nonblocking(true).is_err() {
                            self.service.disconnect(id);
                            continue;
                        }
                        stream.set_nodelay(true).ok();
                        if self.streams.len() <= id {
                            self.streams.resize_with(id + 1, || None);
                        }
                        self.streams[id] = Some(stream);
                        self.sessions.fetch_add(1, Ordering::SeqCst);
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Hands everything the socket has to the core, until it would block or
    /// the core stops reading.  `false` when the connection died.
    fn read(&mut self, id: ConnId, buf: &mut [u8], now: f64) -> bool {
        let stream = self.streams[id]
            .as_mut()
            .expect("polled connections are open");
        while self.service.reading(id) {
            match stream.read(buf) {
                Ok(0) => return false,
                Ok(n) => self.service.receive(id, &buf[..n], now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Writes the core's output for `id` until the socket would block, up to
    /// [`FLUSH_BYTES_PER_TURN`] bytes.  `false` when the connection is
    /// finished (drained or broken).
    fn flush(&mut self, id: ConnId) -> bool {
        let stream = self.streams[id]
            .as_mut()
            .expect("open connections have sockets");
        let mut written = 0;
        while written < FLUSH_BYTES_PER_TURN {
            let out = self.service.output(id);
            if out.is_empty() {
                break;
            }
            match stream.write(&out[..out.len().min(FLUSH_BYTES_PER_TURN - written)]) {
                Ok(0) => return false,
                Ok(n) => {
                    written += n;
                    self.service.wrote(id, n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        !self.service.finished(id)
    }

    fn close(&mut self, id: ConnId) {
        self.service.disconnect(id);
        self.streams[id] = None;
        self.sessions.fetch_sub(1, Ordering::SeqCst);
    }
}
