//! A small blocking client for the wire protocol — the counterpart the
//! protocol tests (and simple tools) drive the server with.
//!
//! Requests can be pipelined: [`ServeClient::submit_pipelined`] /
//! [`ServeClient::poll_pipelined`] send without waiting, and
//! [`ServeClient::recv_response`] returns logical responses as they complete — matched by request id, possibly out of
//! order, with streamed [`Frame::ResultChunk`] bodies reassembled
//! transparently.  The plain [`ServeClient::submit`] / [`ServeClient::poll`]
//! wrappers stay strictly request-response.

use crate::error::ServeError;
use crate::proto::{
    self, ErrorCode, Frame, FrameRead, QuerySpec, QueryState, ResultAssembler, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Smallest pause between polls in [`ServeClient::wait_for`].
const BACKOFF_FLOOR: Duration = Duration::from_millis(1);

/// Largest pause between polls in [`ServeClient::wait_for`].
const BACKOFF_CEIL: Duration = Duration::from_millis(256);

/// What the server advertised in its handshake ack.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Server-assigned session id.
    pub session: u64,
    /// Name of the NDlog program the deployment runs.
    pub program: String,
    /// Number of nodes in the topology.
    pub nodes: u32,
    /// Global in-flight query limit.
    pub max_inflight: u32,
    /// This session's token-bucket refill rate (requests per second).
    pub rate: f64,
    /// This session's token-bucket burst capacity.
    pub burst: u32,
    /// The session's protocol version.
    pub version: u16,
    /// Requests the server advises keeping in flight (a hint, not a limit).
    pub pipeline_depth: u32,
    /// Data bytes per result chunk the server streams.
    pub chunk_bytes: u32,
}

/// Result of polling a query.
#[derive(Debug, Clone)]
pub struct PollStatus {
    /// Completion state.
    pub state: QueryState,
    /// Simulated seconds from issue to completion (0 while pending).
    pub latency: f64,
    /// Result summary (empty while pending).
    pub summary: String,
    /// The full rendered result, reassembled from the chunk stream.  `None`
    /// while pending.
    pub result: Option<String>,
}

/// One logical server response, matched to its request id.
#[derive(Debug, Clone)]
pub enum Response {
    /// The query was admitted ([`Frame::SubmitAck`]).
    Submitted {
        /// Echo of the submit's request id.
        request: u64,
        /// Server-assigned query id.
        query: u64,
    },
    /// A poll completed — with any streamed result fully reassembled.
    Status {
        /// Echo of the poll's request id.
        request: u64,
        /// The polled query id.
        query: u64,
        /// The status (and result body, if one was streamed).
        status: PollStatus,
    },
    /// The server answered this request with a typed error frame.
    Rejected {
        /// The offending request id (0 when not attributable).
        request: u64,
        /// What kind of violation occurred.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A poll whose chunk stream is still arriving.
struct PendingStream {
    query: u64,
    state: QueryState,
    latency: f64,
    summary: String,
    assembler: ResultAssembler,
}

/// One connected, greeted protocol session.
pub struct ServeClient {
    /// The session's one socket: reads are buffered, frames are written
    /// straight through (each is encoded whole before it is sent).
    reader: BufReader<TcpStream>,
    info: SessionInfo,
    next_request: u64,
    /// Polls whose `QueryStatusV2` announced a body still being streamed.
    streams: HashMap<u64, PendingStream>,
}

impl ServeClient {
    /// Connects and performs the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream);
        proto::write_frame(
            &mut reader.get_ref(),
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                codec: false,
            },
        )?;
        let info = match read_one(&mut reader)? {
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
                ..
            } => SessionInfo {
                session,
                program,
                nodes,
                max_inflight,
                rate,
                burst,
                version,
                pipeline_depth,
                chunk_bytes,
            },
            Frame::Error {
                code,
                request,
                message,
            } => {
                return Err(ServeError::Protocol {
                    code,
                    request,
                    message,
                })
            }
            other => {
                return Err(ServeError::UnexpectedFrame {
                    got: other.name(),
                    expected: "HelloAckV2",
                })
            }
        };
        Ok(ServeClient {
            reader,
            info,
            next_request: 1,
            streams: HashMap::new(),
        })
    }

    /// The server's handshake metadata.
    pub fn info(&self) -> &SessionInfo {
        &self.info
    }

    fn request_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Sends a submit without waiting; returns its request id for matching
    /// against [`ServeClient::recv_response`].
    pub fn submit_pipelined(&mut self, spec: QuerySpec) -> Result<u64, ServeError> {
        let request = self.request_id();
        proto::write_frame(
            &mut self.reader.get_ref(),
            &Frame::SubmitQuery { request, spec },
        )?;
        Ok(request)
    }

    /// Sends a poll without waiting; returns its request id.
    pub fn poll_pipelined(&mut self, query: u64) -> Result<u64, ServeError> {
        let request = self.request_id();
        proto::write_frame(&mut self.reader.get_ref(), &Frame::Poll { request, query })?;
        Ok(request)
    }

    /// Blocks until the next *logical* response completes.  Chunked result
    /// streams are reassembled internally: this returns only when a
    /// response (of any pipelined request — they may finish out of order)
    /// is whole.
    pub fn recv_response(&mut self) -> Result<Response, ServeError> {
        loop {
            match read_one(&mut self.reader)? {
                Frame::SubmitAck { request, query } => {
                    return Ok(Response::Submitted { request, query })
                }
                Frame::QueryStatusV2 {
                    request,
                    query,
                    state,
                    latency,
                    summary,
                    result_total,
                    ..
                } => {
                    if result_total == 0 {
                        let result = (state == QueryState::Complete).then(String::new);
                        return Ok(Response::Status {
                            request,
                            query,
                            status: PollStatus {
                                state,
                                latency,
                                summary,
                                result,
                            },
                        });
                    }
                    // Body follows as chunks; keep reading.
                    self.streams.insert(
                        request,
                        PendingStream {
                            query,
                            state,
                            latency,
                            summary,
                            assembler: ResultAssembler::new(result_total),
                        },
                    );
                }
                Frame::ResultChunk {
                    request,
                    offset,
                    total,
                    bytes,
                } => {
                    let Some(stream) = self.streams.get_mut(&request) else {
                        return Err(ServeError::UnexpectedFrame {
                            got: "ResultChunk",
                            expected: "a chunk of an announced stream",
                        });
                    };
                    if let Some(body) = stream.assembler.accept(offset, total, &bytes)? {
                        let stream = self
                            .streams
                            .remove(&request)
                            .expect("stream entry just borrowed");
                        return Ok(Response::Status {
                            request,
                            query: stream.query,
                            status: PollStatus {
                                state: stream.state,
                                latency: stream.latency,
                                summary: stream.summary,
                                result: Some(String::from_utf8_lossy(&body).into_owned()),
                            },
                        });
                    }
                }
                Frame::Error {
                    code,
                    request,
                    message,
                } => {
                    return Ok(Response::Rejected {
                        request,
                        code,
                        message,
                    })
                }
                other => {
                    return Err(ServeError::UnexpectedFrame {
                        got: other.name(),
                        expected: "a response frame",
                    })
                }
            }
        }
    }

    /// Submits a query; returns the server-assigned query id.
    ///
    /// Typed error frames surface as [`ServeError::Protocol`] — check
    /// [`ServeError::is_backpressure`] to distinguish rate-limit/admission
    /// pushback (retry after a pause) from hard failures.
    pub fn submit(&mut self, spec: QuerySpec) -> Result<u64, ServeError> {
        let request = self.submit_pipelined(spec)?;
        match self.recv_response()? {
            Response::Submitted { request: r, query } if r == request => Ok(query),
            Response::Rejected {
                request: r,
                code,
                message,
            } if r == request || r == 0 => Err(ServeError::Protocol {
                code,
                request: r,
                message,
            }),
            _ => Err(ServeError::UnexpectedFrame {
                got: "a response for a different request",
                expected: "SubmitAck",
            }),
        }
    }

    /// Polls a query once (reassembling any streamed result body).
    pub fn poll(&mut self, query: u64) -> Result<PollStatus, ServeError> {
        let request = self.poll_pipelined(query)?;
        match self.recv_response()? {
            Response::Status {
                request: r, status, ..
            } if r == request => Ok(status),
            Response::Rejected {
                request: r,
                code,
                message,
            } if r == request || r == 0 => Err(ServeError::Protocol {
                code,
                request: r,
                message,
            }),
            _ => Err(ServeError::UnexpectedFrame {
                got: "a response for a different request",
                expected: "QueryStatusV2",
            }),
        }
    }

    /// Polls until the query completes, for at most `timeout` wall time.
    /// Returns `Ok(None)` on timeout.
    ///
    /// Pauses between polls follow truncated binary exponential backoff
    /// (1 ms doubling to 256 ms) with per-session deterministic jitter, so
    /// thousands of concurrent sessions spread their polls instead of
    /// synchronizing into a storm.  Rate-limit and admission pushback are
    /// absorbed as extra backoff rather than surfaced as errors.
    pub fn wait_for(
        &mut self,
        query: u64,
        timeout: Duration,
    ) -> Result<Option<PollStatus>, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut backoff = BACKOFF_FLOOR;
        // Deterministic jitter stream, decorrelated across sessions and
        // queries by the server-assigned ids.
        let mut jitter = Jitter::new(self.info.session.wrapping_mul(0x9E37_79B9) ^ query);
        loop {
            match self.poll(query) {
                Ok(status) if status.state == QueryState::Complete => {
                    return Ok(Some(status));
                }
                Ok(_) => {}
                Err(e) if e.is_backpressure() => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Sleep backoff/2 .. backoff, capped at the deadline.
            let pause = backoff / 2 + jitter.in_range(backoff / 2);
            std::thread::sleep(pause.min(deadline - now));
            backoff = (backoff * 2).min(BACKOFF_CEIL);
        }
    }

    /// Sends an orderly goodbye and waits for the echo (discarding any
    /// still-in-flight pipelined responses on the way).
    pub fn bye(mut self) -> Result<(), ServeError> {
        proto::write_frame(&mut self.reader.get_ref(), &Frame::Bye)?;
        loop {
            match read_one(&mut self.reader)? {
                Frame::Bye => return Ok(()),
                // Responses to pipelined requests may still be in flight
                // ahead of the echo; drop them.
                Frame::SubmitAck { .. }
                | Frame::QueryStatusV2 { .. }
                | Frame::ResultChunk { .. }
                | Frame::Error { .. } => {}
                other => {
                    return Err(ServeError::UnexpectedFrame {
                        got: other.name(),
                        expected: "Bye",
                    })
                }
            }
        }
    }
}

/// xorshift64* jitter source: no external RNG, deterministic per seed.
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(seed: u64) -> Jitter {
        Jitter {
            state: seed | 1, // xorshift state must be nonzero
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform duration in `[0, bound)` (zero when `bound` is zero).
    fn in_range(&mut self, bound: Duration) -> Duration {
        let nanos = bound.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.next() % nanos)
    }
}

/// Reads and decodes exactly one frame, treating EOF and oversized frames as
/// errors (the *server* never sends oversized frames).
fn read_one(reader: &mut BufReader<TcpStream>) -> Result<Frame, ServeError> {
    match proto::read_frame(reader)? {
        None => Err(ServeError::ConnectionClosed),
        Some(FrameRead::Oversized { .. }) => Err(ServeError::UnexpectedFrame {
            got: "oversized frame",
            expected: "a bounded frame",
        }),
        Some(FrameRead::Body(body)) => Ok(proto::decode_frame(&body)?),
    }
}
