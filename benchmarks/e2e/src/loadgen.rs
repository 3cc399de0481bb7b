//! The load generator for `serve-query`: one thread, a few nonblocking
//! protocol-v2 connections with the result codec negotiated, driven by
//! `poll(2)`.  Built directly on `proto::encode_frame` / `FrameBuffer` /
//! `ResultAssembler` so that what is timed is the server, not a client
//! library's blocking calls.
//!
//! A query's life on the wire: `SubmitQuery` → `SubmitAck` → (1 ms) `Poll`
//! → `QueryStatusV2` — pending: poll again in 1 ms; complete: the body
//! follows as `ResultChunk`s.  A query is done when its whole body is
//! reassembled and decompressed.  In an open loop a query's latency runs
//! from the instant it was *due*, so time the generator (or the server)
//! stalls is charged to every query that had to wait.  The client's own
//! pause before each poll is taken out again: it is the client's choice, not
//! the service's time, and `poll(2)` rounds it to whole milliseconds, which
//! would put a millisecond or two of timer into a two-millisecond latency.

use exspan_serve::proto::{self, Frame, FrameBuffer, FrameRead, ResultAssembler};
use exspan_serve::{QuerySpec, QueryState};
use exspan_types::compress::decompress_bytes;
use pollshim::{PollFd, POLLIN, POLLOUT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Delay between an ack (or a pending status) and the next poll.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// A query not done this long after it was due has failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// How queries are offered.
pub enum Load {
    /// `inflight` queries outstanding at all times until `total` were
    /// issued: callers that each wait for their reply.  Measures capacity.
    Closed { inflight: usize, total: usize },
    /// Query `i` is due `offsets_s[i]` seconds into the phase, whatever the
    /// server is doing: independent users.  Measures latency at a rate.
    Open { offsets_s: Vec<f64> },
}

/// Poisson arrivals at `rate` per second for `seconds`: offsets from the
/// phase start, ascending.  Equal seeds give equal schedules.
pub fn poisson_offsets(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut offsets = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return offsets;
        }
        offsets.push(t);
    }
}

/// Timeline of one finished query, in seconds since its phase started.
#[derive(Debug, Clone)]
pub struct Done {
    pub due_s: f64,
    pub sent_s: f64,
    pub ack_s: f64,
    pub complete_s: f64,
    pub done_s: f64,
    pub polls: u32,
    /// Seconds the client itself let pass between an ack (or a pending
    /// status) and sending the next poll.
    pub think_s: f64,
    /// Simulated issue-to-completion time the server reported.
    pub sim_latency_s: f64,
}

impl Done {
    /// From due to done, less the client's own pauses.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s - self.think_s) * 1e3
    }
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub done: Vec<Done>,
    pub attempted: u64,
    /// Error frames, protocol violations and timeouts, one line each.
    pub failures: Vec<String>,
    pub timeouts: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// Requests on the wire without a reply yet; kept under the pipeline
    /// depth the server announced, or it would refuse the excess.
    outstanding: u32,
    depth: u32,
    /// Encoded requests waiting for pipeline room.
    backlog: VecDeque<Vec<u8>>,
    codec: bool,
}

struct Live {
    index: usize,
    conn: usize,
    due: Instant,
    sent: Instant,
    ack: Option<Instant>,
    complete: Option<Instant>,
    server_query: u64,
    polls: u32,
    think: Duration,
    sim_latency_s: f64,
}

pub struct Generator {
    conns: Vec<Conn>,
    next_request: u64,
    /// Wall time of connect + `Hello`/`HelloAckV2`, per connection.
    pub connect_ms: Vec<f64>,
}

fn protocol_error(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Generator {
    /// Connects `connections` sessions and completes their handshakes
    /// (blocking), then switches the sockets to nonblocking.
    pub fn connect(addr: SocketAddr, connections: usize) -> io::Result<Generator> {
        let mut conns = Vec::new();
        let mut connect_ms = Vec::new();
        for _ in 0..connections {
            let t = Instant::now();
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            proto::write_frame(
                &mut stream,
                &Frame::Hello {
                    version: proto::PROTOCOL_VERSION,
                    codec: true,
                },
            )?;
            let ack = match proto::read_frame(&mut stream)? {
                Some(FrameRead::Body(body)) => {
                    proto::decode_frame(&body).map_err(|e| protocol_error(e.to_string()))?
                }
                other => return Err(protocol_error(format!("handshake got {other:?}"))),
            };
            let Frame::HelloAckV2 {
                pipeline_depth,
                codec,
                ..
            } = ack
            else {
                return Err(protocol_error(format!("handshake got {}", ack.name())));
            };
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                frames: FrameBuffer::new(),
                out: Vec::new(),
                out_pos: 0,
                outstanding: 0,
                depth: pipeline_depth.max(2) - 1,
                backlog: VecDeque::new(),
                codec,
            });
        }
        Ok(Generator {
            conns,
            next_request: 0,
            connect_ms,
        })
    }

    /// Says goodbye on every connection (best effort).
    pub fn close(mut self) {
        for conn in &mut self.conns {
            let _ = conn.stream.set_nonblocking(false);
            let _ = proto::write_frame(&mut conn.stream, &Frame::Bye);
        }
    }

    /// Runs one phase to completion: offers `load`, taking query `i`'s spec
    /// from `specs[i % specs.len()]`, and hands every reassembled body to
    /// `on_body(i, body)`.  `stall`, for tests, freezes the generator once
    /// for the given duration at the given offset into the phase.
    pub fn run_phase(
        &mut self,
        specs: &[QuerySpec],
        load: &Load,
        stall: Option<(f64, Duration)>,
        on_body: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<PhaseResult> {
        let total = match load {
            Load::Closed { total, .. } => *total,
            Load::Open { offsets_s } => offsets_s.len(),
        };
        let mut result = PhaseResult::default();
        let mut live: HashMap<u64, Live> = HashMap::new();
        // request id → (live id, whether the request was a submit)
        let mut requests: HashMap<u64, (u64, bool)> = HashMap::new();
        let mut assembling: HashMap<u64, (u64, ResultAssembler)> = HashMap::new();
        let mut polls_due: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
        let mut by_age: VecDeque<(Instant, u64)> = VecDeque::new();
        let mut issued = 0usize;
        let mut stall = stall;
        let mut scratch = vec![0u8; 64 * 1024];
        let start = Instant::now();
        let since = |at: Instant| at.duration_since(start).as_secs_f64();

        loop {
            let now = Instant::now();
            if let Some((at_s, pause)) = stall {
                if since(now) >= at_s {
                    std::thread::sleep(pause);
                    stall = None;
                    continue;
                }
            }

            // Arrivals.
            loop {
                let due = match load {
                    Load::Closed { inflight, .. } => {
                        (live.len() < *inflight && issued < total).then_some(now)
                    }
                    Load::Open { offsets_s } => offsets_s
                        .get(issued)
                        .map(|s| start + Duration::from_secs_f64(*s))
                        .filter(|due| *due <= now),
                };
                let Some(due) = due else { break };
                let id = self.request_id();
                let conn = issued % self.conns.len();
                self.enqueue(
                    conn,
                    &Frame::SubmitQuery {
                        request: id,
                        spec: specs[issued % specs.len()].clone(),
                    },
                )?;
                requests.insert(id, (id, true));
                live.insert(
                    id,
                    Live {
                        index: issued,
                        conn,
                        due,
                        sent: now,
                        ack: None,
                        complete: None,
                        server_query: 0,
                        polls: 0,
                        think: Duration::ZERO,
                        sim_latency_s: 0.0,
                    },
                );
                by_age.push_back((due, id));
                issued += 1;
                result.attempted += 1;
            }

            // Polls that have come due.
            while let Some(Reverse((due, id))) = polls_due.peek().copied() {
                if due > now {
                    break;
                }
                polls_due.pop();
                if let Some(q) = live.get_mut(&id) {
                    q.polls += 1;
                    q.think += now.duration_since(due - POLL_EVERY);
                    let (conn, query) = (q.conn, q.server_query);
                    let request = self.request_id();
                    self.enqueue(conn, &Frame::Poll { request, query })?;
                    requests.insert(request, (id, false));
                }
            }

            // Queries that ran out of time.
            while let Some(&(due, id)) = by_age.front() {
                if !live.contains_key(&id) {
                    by_age.pop_front();
                } else if now.duration_since(due) > QUERY_TIMEOUT {
                    by_age.pop_front();
                    let q = live.remove(&id).expect("checked live");
                    result.timeouts += 1;
                    result.failures.push(format!(
                        "query {} timed out after {QUERY_TIMEOUT:?}",
                        q.index
                    ));
                } else {
                    break;
                }
            }

            for conn in &mut self.conns {
                result.bytes_out += conn.flush()?;
            }
            if live.is_empty() && issued == total {
                return Ok(result);
            }

            // Sleep until the next thing this thread has to do, or a socket
            // is ready.  poll(2) counts in whole milliseconds; rounding up
            // keeps the generator off the server's cores between events.
            let mut wake = now + Duration::from_millis(100);
            if let Load::Open { offsets_s } = load {
                if let Some(s) = offsets_s.get(issued) {
                    wake = wake.min(start + Duration::from_secs_f64(*s));
                }
            }
            if let Some(Reverse((due, _))) = polls_due.peek() {
                wake = wake.min(*due);
            }
            let wait = wake.saturating_duration_since(Instant::now());
            let timeout_ms = wait.as_nanos().div_ceil(1_000_000) as i32;
            let mut fds: Vec<PollFd> = self
                .conns
                .iter()
                .map(|c| {
                    let events = if c.out_pos < c.out.len() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    };
                    PollFd::new(c.stream.as_raw_fd(), events)
                })
                .collect();
            pollshim::poll(&mut fds, timeout_ms)?;

            for (ci, fd) in fds.iter().enumerate() {
                if !fd.readable() {
                    continue;
                }
                loop {
                    let conn = &mut self.conns[ci];
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => return Err(protocol_error("server closed the connection".into())),
                        Ok(n) => {
                            result.bytes_in += n as u64;
                            conn.frames.feed(&scratch[..n]);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                while let Some(read) = self.conns[ci].frames.next_frame() {
                    let frame = match read {
                        FrameRead::Body(body) => {
                            proto::decode_frame(&body).map_err(|e| protocol_error(e.to_string()))?
                        }
                        FrameRead::Oversized { declared } => {
                            return Err(protocol_error(format!("{declared}-byte frame")))
                        }
                    };
                    let at = Instant::now();
                    let conn = &mut self.conns[ci];
                    let mut finished: Option<(u64, Vec<u8>)> = None;
                    match frame {
                        Frame::SubmitAck { request, query } => {
                            conn.outstanding = conn.outstanding.saturating_sub(1);
                            if let Some((id, true)) = requests.remove(&request) {
                                if let Some(q) = live.get_mut(&id) {
                                    q.ack = Some(at);
                                    q.server_query = query;
                                    polls_due.push(Reverse((at + POLL_EVERY, id)));
                                }
                            }
                        }
                        Frame::QueryStatusV2 {
                            request,
                            state,
                            latency,
                            result_total,
                            ..
                        } => {
                            conn.outstanding = conn.outstanding.saturating_sub(1);
                            let Some((id, false)) = requests.remove(&request) else {
                                continue;
                            };
                            let Some(q) = live.get_mut(&id) else { continue };
                            match state {
                                QueryState::Pending => {
                                    polls_due.push(Reverse((at + POLL_EVERY, id)));
                                }
                                QueryState::Complete => {
                                    q.complete = Some(at);
                                    q.sim_latency_s = latency;
                                    if result_total == 0 {
                                        finished = Some((id, Vec::new()));
                                    } else {
                                        assembling.insert(
                                            request,
                                            (id, ResultAssembler::new(result_total)),
                                        );
                                    }
                                }
                            }
                        }
                        Frame::ResultChunk {
                            request,
                            offset,
                            total,
                            bytes,
                        } => {
                            if let Some((id, assembler)) = assembling.get_mut(&request) {
                                let id = *id;
                                match assembler.accept(offset, total, &bytes) {
                                    Ok(Some(body)) => {
                                        assembling.remove(&request);
                                        let body = if conn.codec {
                                            decompress_bytes(&body)
                                                .map_err(|e| protocol_error(e.to_string()))?
                                        } else {
                                            body
                                        };
                                        finished = Some((id, body));
                                    }
                                    Ok(None) => {}
                                    Err(e) => return Err(protocol_error(e.to_string())),
                                }
                            }
                        }
                        Frame::Error {
                            code,
                            request,
                            message,
                        } => {
                            conn.outstanding = conn.outstanding.saturating_sub(1);
                            let index = requests
                                .remove(&request)
                                .and_then(|(id, _)| live.remove(&id))
                                .map(|q| q.index);
                            result
                                .failures
                                .push(format!("query {index:?}: {code:?}: {message}"));
                        }
                        other => {
                            return Err(protocol_error(format!(
                                "unexpected {} from the server",
                                other.name()
                            )))
                        }
                    }
                    if let Some((id, body)) = finished {
                        let q = live.remove(&id).expect("finished query is live");
                        on_body(q.index, &body);
                        let complete = q.complete.unwrap_or(at);
                        result.done.push(Done {
                            due_s: since(q.due),
                            sent_s: since(q.sent),
                            ack_s: since(q.ack.unwrap_or(complete)),
                            complete_s: since(complete),
                            done_s: since(at),
                            polls: q.polls,
                            think_s: q.think.as_secs_f64(),
                            sim_latency_s: q.sim_latency_s,
                        });
                    }
                }
            }
        }
    }

    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    fn enqueue(&mut self, conn: usize, frame: &Frame) -> io::Result<()> {
        let bytes = proto::encode_frame(frame).map_err(|e| protocol_error(e.to_string()))?;
        self.conns[conn].backlog.push_back(bytes);
        Ok(())
    }
}

impl Conn {
    /// Moves backlog into the write buffer while the pipeline has room and
    /// writes what the socket takes.  Returns bytes written.
    fn flush(&mut self) -> io::Result<u64> {
        while self.outstanding < self.depth {
            let Some(bytes) = self.backlog.pop_front() else {
                break;
            };
            if self.out_pos == self.out.len() {
                self.out.clear();
                self.out_pos = 0;
            }
            self.out.extend_from_slice(&bytes);
            self.outstanding += 1;
        }
        let mut written = 0u64;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(protocol_error("server closed the connection".into())),
                Ok(n) => {
                    self.out_pos += n;
                    written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_core::{Exspan, ProvenanceMode, Repr, TraversalOrder};
    use exspan_ndlog::programs;
    use exspan_netsim::Topology;
    use exspan_serve::{ServeConfig, Server};

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_offsets(400.0, 2.0, 7);
        assert_eq!(a, poisson_offsets(400.0, 2.0, 7));
        assert_ne!(a, poisson_offsets(400.0, 2.0, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|t| (0.0..2.0).contains(t)));
        // 800 expected arrivals; six standard deviations is ±170.
        assert!((630..970).contains(&a.len()), "{}", a.len());
    }

    /// A tiny real server: the paper's four-node example.
    fn tiny_server() -> (exspan_serve::ServerHandle, Vec<QuerySpec>) {
        let mut deployment = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .mode(ProvenanceMode::Reference)
            .build()
            .unwrap();
        deployment.run_to_fixpoint();
        let specs = deployment
            .tuples_everywhere_shared("bestPathCost")
            .iter()
            .map(|t| QuerySpec {
                issuer: t.location,
                repr: Repr::Polynomial,
                traversal: TraversalOrder::Bfs,
                cached: false,
                relation: "bestPathCost".into(),
                location: t.location,
                values: t.values.clone(),
            })
            .collect();
        let config = ServeConfig::default()
            .clock_rate(1000.0)
            .rate_limit(1e9, u32::MAX);
        (Server::bind(deployment, config).unwrap(), specs)
    }

    #[test]
    fn closed_loop_completes_every_query_with_a_body() {
        let (server, specs) = tiny_server();
        let mut generator = Generator::connect(server.addr(), 2).unwrap();
        let mut bodies = 0usize;
        let load = Load::Closed {
            inflight: 4,
            total: 40,
        };
        let result = generator
            .run_phase(&specs, &load, None, &mut |_, body| {
                assert!(!body.is_empty());
                bodies += 1;
            })
            .unwrap();
        generator.close();
        server.shutdown();
        assert_eq!((result.attempted, result.done.len(), bodies), (40, 40, 40));
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert!(result.bytes_in > 0 && result.bytes_out > 0);
        for d in &result.done {
            assert!(d.due_s <= d.sent_s && d.sent_s <= d.ack_s);
            assert!(d.ack_s <= d.complete_s && d.complete_s <= d.done_s);
            assert!(d.polls >= 1);
            // Each poll waited at least the client's pause.
            assert!(d.think_s >= f64::from(d.polls) * POLL_EVERY.as_secs_f64());
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time_not_the_send_time() {
        let (server, specs) = tiny_server();
        let mut generator = Generator::connect(server.addr(), 1).unwrap();
        // One query every 10 ms for 300 ms; the generator freezes for 100 ms
        // at t = 100 ms, so about ten queries come due while it cannot send.
        let offsets_s: Vec<f64> = (1..=30).map(|i| f64::from(i) * 0.01).collect();
        let load = Load::Open { offsets_s };
        let stall = Some((0.1, Duration::from_millis(100)));
        let result = generator
            .run_phase(&specs, &load, stall, &mut |_, _| {})
            .unwrap();
        generator.close();
        server.shutdown();
        assert_eq!(result.done.len(), 30);
        let late: Vec<&Done> = result
            .done
            .iter()
            .filter(|d| d.sent_s - d.due_s > 0.02)
            .collect();
        assert!(late.len() >= 5, "{} queries sent late", late.len());
        for d in &late {
            // Charged from when it was due: the wait is in the latency.
            assert!(d.latency_ms() >= (d.sent_s - d.due_s) * 1e3);
            assert!((0.09..0.21).contains(&d.due_s), "due at {}", d.due_s);
        }
        let worst = result.done.iter().map(Done::latency_ms).fold(0.0, f64::max);
        assert!(worst >= 80.0, "worst latency {worst} ms hides the stall");
    }
}
