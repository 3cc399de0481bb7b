//! # exspan-serve
//!
//! A wall-clock service front-end for ExSPAN deployments: the same
//! `Deployment` that regenerates the paper's figures, served over TCP to
//! concurrent client sessions while the deployment keeps churning.
//!
//! ## Architecture: a poll(2) reactor plus one worker thread
//!
//! The server is two threads, no async runtime:
//!
//! * the **reactor** owns the listen socket and every connection.  All
//!   sockets are nonblocking; one `poll(2)` loop (via the vendored
//!   `pollshim`) drives per-connection state machines — an incremental
//!   [`proto::FrameBuffer`] on the read side, a bounded write queue plus
//!   pending [`proto::ResultStream`]s on the write side.  A connection that
//!   requests more response bytes than [`ServeConfig::write_queue_bytes`]
//!   while not reading them is answered with a typed `Overloaded` error and
//!   closed — slow readers cannot pin server memory.
//! * the **worker** owns the [`exspan_core::Deployment`]: it executes the
//!   submits/polls it receives over a channel, advances the deployment to
//!   `origin + elapsed × clock_rate` once per wake-up, and wakes the reactor
//!   through a loopback socket pair.  It holds no per-query state.
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
//! number of **pipelined** requests: up to [`ServeConfig::pipeline_depth`]
//! `SubmitQuery`/`Poll` frames may be in flight at once, each answered by a
//! response carrying its request id — possibly **out of order**, in
//! whatever order the worker finishes them.  Completed polls stream the
//! rendered result as `ResultChunk` frames
//! ([`proto::MAX_FRAME_LEN`] bounds *frames*, not results) and reassembled
//! transparently by [`ServeClient`].  A session ends with `Bye ↔ Bye`.
//! Bodies travel as rendered: the handshake's `codec` flag and the two
//! trailing `QueryStatusV2` counters are reserved (see [`proto`]).
//!
//! Every violation — malformed body, oversized frame, pre-handshake
//! request, admission-control overflow, rate-limit exhaustion, pipeline
//! overrun, write-queue overflow, unknown query id — is answered with a
//! typed [`proto::ErrorCode`]; only `Overloaded` closes the connection.
//!
//! Server-side limits are consolidated in the [`ServeConfig`] builder: a
//! bounded accept queue (`max_sessions`), a global in-flight query cap
//! (`max_inflight`), a per-session token bucket ([`limiter::TokenBucket`]),
//! a per-connection pipeline depth and write-queue byte bound.
//!
//! ## Running it
//!
//! `cargo run -p exspan-serve --bin exspan-serve` prints the bound address
//! and serves until stdin closes; the in-process equivalent is
//! [`Server::bind`] + [`ServeClient::connect`].  Load is measured by the
//! repository's end-to-end benchmark, not by this crate:
//! `bash benchmarks/e2e/run.sh --workload serve-query --seed 42 --seconds 8
//! --trace 0` drives closed- and open-loop query mixes against a live server
//! over loopback TCP.

pub mod client;
pub mod error;
pub mod limiter;
pub mod proto;
pub mod server;

pub use client::{PollStatus, Response, ServeClient, SessionInfo};
pub use error::ServeError;
pub use limiter::TokenBucket;
pub use proto::{
    ErrorCode, Frame, FrameBuffer, QuerySpec, QueryState, ResultAssembler, ResultStream, WireError,
};
pub use server::{ServeConfig, Server, ServerHandle};
