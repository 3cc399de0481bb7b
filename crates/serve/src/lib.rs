//! # exspan-serve
//!
//! A wall-clock service front-end for ExSPAN deployments: the same
//! `Deployment` that regenerates the paper's figures, served over TCP to
//! concurrent client sessions while the deployment keeps churning.
//!
//! ## Architecture: a core without I/O, and a poll(2) shell
//!
//! [`Service`] ([`service`]) makes every protocol decision — sessions,
//! admission, token buckets, bounded write queues, result streams — and
//! does no I/O: it takes bytes in and hands bytes out, and every call says
//! the wall time, to which it advances the deployment first.
//! [`Server`] ([`server`]) is the shell: one thread, no async runtime, one
//! `poll(2)` loop (via the vendored `pollshim`) over nonblocking sockets,
//! and the one reader of the wall clock.  Requests are answered in the turn
//! that reads them, so no request waits on another thread; no socket is
//! served while a `run_until` runs.
//!
//! ## Wire protocol
//!
//! Length-prefixed frames over TCP (see [`proto`] for the byte-level
//! layout; attribute values travel in the canonical encoding of
//! [`exspan_types::codec`]):
//!
//! ```text
//! length: u32 BE │ type: u8 │ payload
//! ```
//!
//! A session is `Hello → HelloAckV2` (there is one protocol version; an
//! older `Hello` is refused with a typed `HandshakeRejected`), then any
//! number of **pipelined** `SubmitQuery`/`Poll` frames, each answered by a
//! response carrying its request id — possibly **out of order**: a short
//! response overtakes the tail of a long result stream.  Completed polls
//! stream the rendered result as `ResultChunk` frames
//! ([`proto::MAX_FRAME_LEN`] bounds *frames*, not results), which a client
//! reassembles with [`proto::ResultAssembler`].  A session ends with
//! `Bye ↔ Bye`.
//! Bodies travel as rendered: the handshake's `codec` flag and the two
//! trailing `QueryStatusV2` counters are reserved, and its `pipeline_depth`
//! is a constant window hint (see [`proto`]).
//!
//! Every violation — malformed body, oversized frame, pre-handshake
//! request, admission-control overflow, rate-limit exhaustion, a relation
//! name no program defines, write-queue overflow, unknown query id — is
//! answered with a typed [`proto::ErrorCode`]; only `Overloaded` closes the
//! connection.
//!
//! Server-side limits are consolidated in the [`ServeConfig`] builder: a
//! bounded accept queue (`max_sessions`), a global in-flight query cap
//! (`max_inflight`), a per-session token bucket ([`limiter::TokenBucket`])
//! and a per-connection write-queue byte bound.
//!
//! ## Running it
//!
//! `cargo run -p exspan-serve --bin exspan-serve` prints the bound address
//! and serves until stdin closes; the in-process equivalent is
//! [`Server::bind`], spoken to over a `TcpStream` with the raw protocol
//! ([`proto::write_frame`], [`proto::read_frame`]).  Load is measured by
//! the repository's end-to-end benchmark, not by this crate:
//! `bash benchmarks/e2e/run.sh --workload serve-query --seed 42 --seconds 8
//! --trace 0` drives closed- and open-loop query mixes against a live server
//! over loopback TCP.

pub mod limiter;
pub mod proto;
pub mod server;
pub mod service;

pub use limiter::TokenBucket;
pub use proto::{
    ErrorCode, Frame, FrameBuffer, QuerySpec, QueryState, ResultAssembler, ResultStream, WireError,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use service::{ConnId, Service};
