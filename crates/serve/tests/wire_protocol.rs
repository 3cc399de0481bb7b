//! Wire-protocol tests, most of them against the service core on a scripted
//! clock — no socket, no sleep, no wall clock: malformed / oversized /
//! truncated frames, handshake rejection of old protocol versions,
//! query-admission overflow and rate-limit backpressure — each answered with
//! a *typed* protocol error on a connection that stays open — plus chunked
//! result streaming past [`MAX_FRAME_LEN`], pipelined out-of-order
//! completion, slow-reader write-queue overflow, canonical values on the
//! wire, and unknown relation names and string values refused without
//! interning them.
//!
//! What only the socket shell does runs against a live in-process server:
//! the refusal of unrunnable rates before anything is bound, the shutdown
//! checkpoint, the accept-path session cap, one query end to end, simulated
//! time advancing with no client attached, and one reactor holding ten
//! thousand idle sessions.

use exspan_core::{Deployment, Exspan, ProvenanceMode, Repr, Traversal};
use exspan_netsim::{ChurnEvent, LinkClass, LinkProps, Topology};
use exspan_serve::proto::{
    self, ErrorCode, Frame, FrameRead, QuerySpec, QueryState, MAX_CHUNK_DATA, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use exspan_serve::server::FLUSH_BYTES_PER_TURN;
use exspan_serve::{ConnId, ResultAssembler, ServeConfig, Server, ServerHandle, Service};
use exspan_types::value::encode_str_for_hash;
use exspan_types::{codec, Symbol, Tuple, Value};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::rc::{Rc, Weak};
use std::time::Duration;

fn deployment(topology: Topology) -> Deployment {
    let mut deployment = Exspan::builder()
        .program(exspan_ndlog::programs::mincost())
        .topology(topology)
        .mode(ProvenanceMode::Reference)
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    deployment
}

/// The core serving MINCOST on `topology`, at wall time 0.
fn boot_on(topology: Topology, config: ServeConfig) -> Core {
    let service = Service::new(deployment(topology), &config).expect("a sound config");
    Core(Rc::new(RefCell::new(Scripted { service, now: 0.0 })))
}

fn boot(config: ServeConfig) -> Core {
    boot_on(Topology::paper_example(), config)
}

/// A live server on a loopback socket, serving MINCOST on the paper's
/// example topology.
fn serve(config: ServeConfig) -> ServerHandle {
    Server::bind(deployment(Topology::paper_example()), config).expect("server boots")
}

/// A chain of `k` diamonds: spine `0..=k`, each hop doubled through two
/// midpoints, so the min-cost route `0 → k` has cost `2k` and `2^k`
/// distinct derivations — its rendered provenance polynomial grows
/// exponentially in `k`, which is how these tests manufacture results far
/// bigger than one frame.
fn diamond_chain(k: usize) -> Topology {
    let mut topology = Topology::empty(3 * k + 1);
    let props = || LinkProps::from_class(LinkClass::StubStub);
    for i in 0..k {
        let spine = i as u32;
        let next = (i + 1) as u32;
        let mid_a = (k + 1 + 2 * i) as u32;
        let mid_b = (k + 2 + 2 * i) as u32;
        topology.add_link(spine, mid_a, props());
        topology.add_link(mid_a, next, props());
        topology.add_link(spine, mid_b, props());
        topology.add_link(mid_b, next, props());
    }
    topology
}

/// What a test talks to: the core on a scripted clock, or a live server.
trait Host {
    type Conn: Wire;
    /// A connection the server holds, not yet greeted.
    fn raw_connect(&self) -> Self::Conn;
}

/// A client end: frames go out through `Write` and come back through `Read`.
trait Wire: Read + Write {
    /// Lets one millisecond of wall time pass.
    fn pause(&mut self);
}

impl Host for ServerHandle {
    type Conn = TcpStream;

    fn raw_connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }
}

impl Wire for TcpStream {
    fn pause(&mut self) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The service core and the wall time a test has scripted for it.
struct Scripted {
    service: Service,
    /// Wall seconds since boot; moves only when a test moves it.
    now: f64,
}

/// The core on a scripted clock, shared by the connections a test opens.
struct Core(Rc<RefCell<Scripted>>);

impl Core {
    /// Moves the wall clock to `now` seconds since boot.
    fn set_clock(&self, now: f64) {
        self.0.borrow_mut().now = now;
    }

    fn shutdown(self) -> Deployment {
        let scripted = Rc::try_unwrap(self.0)
            .ok()
            .expect("connections hold no core");
        scripted.into_inner().service.into_deployment()
    }
}

impl Host for Core {
    type Conn = CoreConn;

    fn raw_connect(&self) -> CoreConn {
        let id = self.0.borrow_mut().service.connect();
        CoreConn {
            core: Rc::downgrade(&self.0),
            id: id.expect("under the session cap"),
            unread: VecDeque::new(),
        }
    }
}

/// One connection to a [`Core`]: a write hands the bytes to the core at the
/// scripted time, and a read takes what one turn of the socket shell would
/// write to a peer that accepts everything, at most
/// [`FLUSH_BYTES_PER_TURN`].  With nothing to read, a read fails with
/// `WouldBlock` — or reads EOF once the core has finished the connection.
struct CoreConn {
    core: Weak<RefCell<Scripted>>,
    id: ConnId,
    /// Bytes the core wrote that the test has not read yet.
    unread: VecDeque<u8>,
}

impl CoreConn {
    fn core(&self) -> Rc<RefCell<Scripted>> {
        self.core.upgrade().expect("the core is up")
    }
}

impl Write for CoreConn {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let core = self.core();
        let Scripted { service, now } = &mut *core.borrow_mut();
        service.receive(self.id, bytes, *now);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for CoreConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let core = self.core();
        let service = &mut core.borrow_mut().service;
        if self.unread.is_empty() {
            let mut written = 0;
            while written < FLUSH_BYTES_PER_TURN {
                let out = service.output(self.id);
                if out.is_empty() {
                    break;
                }
                let n = out.len().min(FLUSH_BYTES_PER_TURN - written);
                self.unread.extend(&out[..n]);
                written += n;
                service.wrote(self.id, n);
            }
            if written == 0 {
                if service.finished(self.id) {
                    return Ok(0);
                }
                return Err(io::ErrorKind::WouldBlock.into());
            }
        }
        self.unread.read(buf)
    }
}

impl Wire for CoreConn {
    fn pause(&mut self) {
        self.core().borrow_mut().now += 0.001;
    }
}

fn read_decoded(stream: &mut impl Read) -> Frame {
    match proto::read_frame(stream).expect("read").expect("not EOF") {
        FrameRead::Body(body) => proto::decode_frame(&body).expect("decodable reply"),
        FrameRead::Oversized { .. } => panic!("server never sends oversized frames"),
    }
}

/// Greets a raw connection; returns the server's `HelloAckV2`.
fn hello(stream: &mut impl Wire) -> Frame {
    proto::write_frame(
        stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            codec: false,
        },
    )
    .unwrap();
    let ack = read_decoded(stream);
    assert!(
        matches!(ack, Frame::HelloAckV2 { version, .. } if version == PROTOCOL_VERSION),
        "expected HelloAckV2, got {ack:?}"
    );
    ack
}

/// A connected, greeted session.
fn session<H: Host>(server: &H) -> H::Conn {
    let mut stream = server.raw_connect();
    hello(&mut stream);
    stream
}

/// Ends a session whose requests are all answered: `Bye ↔ Bye`.
fn bye(mut stream: impl Wire) {
    proto::write_frame(&mut stream, &Frame::Bye).unwrap();
    assert!(matches!(read_decoded(&mut stream), Frame::Bye));
}

fn expect_error(stream: &mut impl Wire, code: ErrorCode) {
    match read_decoded(stream) {
        Frame::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {code:?} error, got {other:?}"),
    }
}

/// Submits `spec` on a greeted connection: the query id, or the typed
/// refusal.
fn submit(stream: &mut impl Wire, spec: QuerySpec) -> Result<u64, ErrorCode> {
    proto::write_frame(stream, &Frame::SubmitQuery { request: 1, spec }).unwrap();
    match read_decoded(stream) {
        Frame::SubmitAck { query, .. } => Ok(query),
        Frame::Error { code, .. } => Err(code),
        other => panic!("expected SubmitAck, got {other:?}"),
    }
}

/// One poll's answer, its streamed result reassembled.
#[derive(Debug, PartialEq)]
struct Status {
    state: QueryState,
    latency: f64,
    summary: String,
    /// The result length the status announced.
    total: u64,
    body: Vec<u8>,
}

/// Reads until one poll response is whole: its request id, and the status
/// or the typed refusal.  Pipelined polls' chunk streams may interleave;
/// `open` holds the ones still arriving.
fn recv_status(
    stream: &mut impl Wire,
    open: &mut HashMap<u64, (Status, ResultAssembler)>,
) -> (u64, Result<Status, ErrorCode>) {
    loop {
        match read_decoded(stream) {
            Frame::QueryStatusV2 {
                request,
                state,
                latency,
                summary,
                result_total,
                cache_maintained,
                compressed_bytes_saved,
                ..
            } => {
                assert_eq!((cache_maintained, compressed_bytes_saved), (0, 0));
                let status = Status {
                    state,
                    latency,
                    summary,
                    total: result_total,
                    body: Vec::new(),
                };
                if result_total == 0 {
                    return (request, Ok(status));
                }
                open.insert(request, (status, ResultAssembler::new(result_total)));
            }
            Frame::ResultChunk {
                request,
                offset,
                total,
                bytes,
            } => {
                let (_, assembler) = open.get_mut(&request).expect("an announced stream");
                if let Some(body) = assembler.accept(offset, total, &bytes).expect("in order") {
                    let (status, _) = open.remove(&request).expect("just found");
                    return (request, Ok(Status { body, ..status }));
                }
            }
            Frame::Error { request, code, .. } => return (request, Err(code)),
            other => panic!("expected a poll response, got {other:?}"),
        }
    }
}

/// Polls `query` once.
fn poll(stream: &mut impl Wire, query: u64) -> Result<Status, ErrorCode> {
    proto::write_frame(stream, &Frame::Poll { request: 2, query }).unwrap();
    recv_status(stream, &mut HashMap::new()).1
}

/// Polls `query` every millisecond until it completes, absorbing admission
/// and rate-limit pushback; a query still pending after two minutes fails
/// the test.
fn wait_for(stream: &mut impl Wire, query: u64) -> Result<Status, ErrorCode> {
    for _ in 0..120_000 {
        match poll(stream, query) {
            Ok(status) if status.state != QueryState::Complete => {}
            Err(ErrorCode::Admission | ErrorCode::RateLimited) => {}
            done => return done,
        }
        stream.pause();
    }
    panic!("query {query} never completed");
}

fn bestpath_spec() -> QuerySpec {
    QuerySpec {
        issuer: 3,
        repr: Repr::Polynomial,
        traversal: Traversal::Bfs,
        cached: false,
        relation: "bestPathCost".into(),
        location: 0,
        values: vec![Value::Node(2), Value::Int(5)],
    }
}

/// The min-cost route `0 → to` on a [`diamond_chain`] topology, queried
/// from the spine end.
fn diamond_spec(to: u32, cost: i64) -> QuerySpec {
    QuerySpec {
        issuer: to,
        repr: Repr::Polynomial,
        traversal: Traversal::Bfs,
        cached: false,
        relation: "bestPathCost".into(),
        location: 0,
        values: vec![Value::Node(to), Value::Int(cost)],
    }
}

#[test]
fn malformed_truncated_and_oversized_frames_get_typed_errors() {
    let server = boot(ServeConfig::default());
    let mut stream = server.raw_connect();
    hello(&mut stream);

    // Unknown frame type.
    stream.write_all(&1u32.to_be_bytes()).unwrap();
    stream.write_all(&[0x55]).unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);

    // Well-framed but truncated SubmitAck-shaped body.
    stream.write_all(&3u32.to_be_bytes()).unwrap();
    stream.write_all(&[0x11, 0, 0]).unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);

    // Zero-length frame (no type byte).
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);

    // Oversized frame: declared bigger than the limit, body streamed out.
    let declared = (MAX_FRAME_LEN + 1) as u32;
    stream.write_all(&declared.to_be_bytes()).unwrap();
    let junk = vec![0u8; declared as usize];
    stream.write_all(&junk).unwrap();
    expect_error(&mut stream, ErrorCode::Oversized);

    // The connection survived all four violations.
    bye(stream);
    server.shutdown();
}

#[test]
fn handshake_rejects_old_versions_and_the_connection_stays_usable() {
    let server = boot(ServeConfig::default());
    let mut stream = server.raw_connect();

    // Requests before any Hello are rejected but the connection stays open.
    proto::write_frame(
        &mut stream,
        &Frame::Poll {
            request: 7,
            query: 0,
        },
    )
    .unwrap();
    expect_error(&mut stream, ErrorCode::HandshakeRejected);

    // Every version below the one the server speaks is rejected — there
    // is no negotiate-down path — and the session is still not greeted...
    for version in 0..PROTOCOL_VERSION {
        proto::write_frame(
            &mut stream,
            &Frame::Hello {
                version,
                codec: false,
            },
        )
        .unwrap();
        expect_error(&mut stream, ErrorCode::HandshakeRejected);
    }
    proto::write_frame(
        &mut stream,
        &Frame::Poll {
            request: 8,
            query: 0,
        },
    )
    .unwrap();
    expect_error(&mut stream, ErrorCode::HandshakeRejected);

    // ...while the same connection accepts a current Hello afterwards (one
    // from the future is answered at the server's version)...
    proto::write_frame(
        &mut stream,
        &Frame::Hello {
            version: 999,
            codec: false,
        },
    )
    .unwrap();
    match read_decoded(&mut stream) {
        Frame::HelloAckV2 { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HelloAckV2, got {other:?}"),
    }

    // Server-to-client frames sent by the client are violations, typed too.
    proto::write_frame(
        &mut stream,
        &Frame::SubmitAck {
            request: 1,
            query: 1,
        },
    )
    .unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);
    server.shutdown();
}

#[test]
fn session_admission_overflow_is_refused_with_a_typed_error() {
    let server = serve(ServeConfig::default().max_sessions(2));
    let mut a = server.raw_connect();
    hello(&mut a);
    let mut b = server.raw_connect();
    hello(&mut b);
    // Session slots are released asynchronously, so the cap is checked on
    // the live pair: the third connection must be refused while both are up.
    let mut c = server.raw_connect();
    expect_error(&mut c, ErrorCode::Admission);
    server.shutdown();
}

#[test]
fn query_admission_overflow_is_refused_with_a_typed_error() {
    // clock_rate ≈ 0 freezes simulated time, so submitted queries cannot
    // complete and the in-flight cap is hit deterministically.
    let server = boot(ServeConfig::default().max_inflight(3).clock_rate(1e-9));
    let mut client = session(&server);
    for _ in 0..3 {
        submit(&mut client, bestpath_spec()).expect("under the cap");
    }
    let err = submit(&mut client, bestpath_spec()).expect_err("cap reached");
    assert_eq!(err, ErrorCode::Admission);

    // The session is still usable: polls keep working.
    let status = poll(&mut client, 0).expect("poll works");
    assert_eq!(status.state, QueryState::Pending);
    bye(client);
    server.shutdown();
}

#[test]
fn rate_limit_backpressure_is_typed_and_recoverable() {
    // One token a second, two at most; simulated time stands still.
    let server = boot(ServeConfig::default().rate_limit(1.0, 2).clock_rate(1e-9));
    let mut client = session(&server);
    submit(&mut client, bestpath_spec()).expect("token 1");
    submit(&mut client, bestpath_spec()).expect("token 2");
    let err = submit(&mut client, bestpath_spec()).expect_err("bucket empty");
    assert_eq!(err, ErrorCode::RateLimited);
    // The bucket refills a whole token a second after it was spent, and no
    // sooner.
    server.set_clock(0.999);
    let err = submit(&mut client, bestpath_spec()).expect_err("not yet a whole token");
    assert_eq!(err, ErrorCode::RateLimited);
    server.set_clock(1.0);
    submit(&mut client, bestpath_spec()).expect("token 3, refilled");
    // Still connected: the goodbye handshake completes.
    bye(client);
    server.shutdown();
}

#[test]
fn bind_refuses_rates_no_clock_or_bucket_can_run_on() {
    // A port nothing holds: bound once to learn it, then released.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let bind = |config: ServeConfig| {
        let deployment = Exspan::builder()
            .program(exspan_ndlog::programs::mincost())
            .topology(Topology::paper_example())
            .build()
            .expect("valid deployment");
        Server::bind(deployment, config.addr(addr.as_str()))
    };
    let mut bad: Vec<ServeConfig> = [0.0, -1.0, f64::NAN, f64::INFINITY]
        .into_iter()
        .map(|rate| ServeConfig::default().clock_rate(rate))
        .collect();
    bad.push(ServeConfig::default().rate_limit(0.0, 1));
    bad.push(ServeConfig::default().rate_limit(f64::NAN, 1));
    bad.push(ServeConfig::default().rate_limit(1.0, 0));
    for config in bad {
        let err = bind(config.clone())
            .err()
            .unwrap_or_else(|| panic!("{config:?} must be refused"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{config:?}");
    }
    // Refusal came before anything was bound: the address is still free.
    let server = bind(ServeConfig::default()).expect("a sound config binds the same address");
    bye(session(&server));
    server.shutdown();
}

#[test]
fn shutdown_checkpoints_a_deployment_that_has_a_store() {
    // Nothing tells the server about the store: the deployment knows.  After
    // shutdown a reopen boots from the snapshot alone.
    let dir = std::env::temp_dir().join(format!("exspan-serve-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = || {
        Exspan::builder()
            .program(exspan_ndlog::programs::mincost())
            .topology(Topology::paper_example())
            .mode(ProvenanceMode::Reference)
            .data_dir(&dir)
    };
    let mut deployment = builder().build().expect("a fresh store");
    deployment.run_to_fixpoint();
    assert!(deployment.storage_stats().committed_batches > 0);
    let server = Server::bind(deployment, ServeConfig::default()).expect("server boots");
    let digest = server.shutdown().state_digest();

    let reopened = builder().build().expect("the store reopens");
    assert!(reopened.recovered_from_store());
    assert_eq!(reopened.storage_stats().recovered_batches, 0);
    assert_eq!(reopened.state_digest(), digest);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_query_ids_are_typed_errors() {
    let server = boot(ServeConfig::default());
    let mut client = session(&server);
    let err = poll(&mut client, 987_654).expect_err("no such query");
    assert_eq!(err, ErrorCode::UnknownQuery);
    bye(client);
    server.shutdown();
}

#[test]
fn a_query_completes_end_to_end_over_the_wire() {
    let server = serve(ServeConfig::default().clock_rate(1000.0));
    let mut client = server.raw_connect();
    let Frame::HelloAckV2 {
        program,
        nodes,
        version,
        pipeline_depth,
        chunk_bytes,
        ..
    } = hello(&mut client)
    else {
        unreachable!("hello checks the ack")
    };
    assert_eq!(program, "MINCOST");
    assert_eq!(nodes, 4);
    assert_eq!(version, PROTOCOL_VERSION);
    assert_eq!(pipeline_depth, 32);
    assert_eq!(chunk_bytes, MAX_CHUNK_DATA as u32);
    let query = submit(&mut client, bestpath_spec()).expect("admitted");
    let status = wait_for(&mut client, query).expect("no protocol error");
    assert_eq!(status.state, QueryState::Complete);
    assert!(status.latency > 0.0, "simulated latency is positive");
    assert_eq!(status.summary, "2 derivations");
    // The rendered polynomial is streamed alongside the summary.
    assert!(
        !status.body.is_empty(),
        "completed polls carry the result body"
    );
    bye(client);
    let deployment = server.shutdown();
    assert_eq!(deployment.outcomes().len(), 1);
}

#[test]
fn large_results_stream_chunked_and_pipelined_polls_complete_out_of_order() {
    // 2^12 = 4096 derivations render to roughly half a megabyte — far past
    // MAX_FRAME_LEN, so the body must arrive as a reassembled chunk stream.
    let k = 12;
    let server = boot_on(diamond_chain(k), ServeConfig::default().clock_rate(1000.0));
    let mut client = session(&server);

    let big = submit(&mut client, diamond_spec(k as u32, 2 * k as i64)).expect("admitted");
    let status = wait_for(&mut client, big).expect("no protocol error");
    assert_eq!(status.summary, format!("{} derivations", 1u64 << k));
    let body = status.body;
    assert!(
        body.len() > MAX_FRAME_LEN,
        "result must exceed one frame to exercise chunking, got {} bytes",
        body.len()
    );

    // A one-hop route: small result, instant to render.
    let small = submit(&mut client, diamond_spec(k as u32 + 1, 1)).expect("admitted");
    wait_for(&mut client, small).expect("no protocol error");

    // Pipeline a poll of the big query then a poll of the small one, both
    // in one read: the small response is committed while the big stream
    // still drains one turn's slice at a time, and streams drain
    // round-robin, so the small response overtakes the stream's tail —
    // genuine out-of-order completion.
    let (r_big, r_small) = (1, 2);
    let mut pipelined = Vec::new();
    for (request, query) in [(r_big, big), (r_small, small)] {
        proto::write_frame(&mut pipelined, &Frame::Poll { request, query }).expect("pipelined");
    }
    client.write_all(&pipelined).unwrap();

    let mut open = HashMap::new();
    let mut responses = Vec::new();
    for _ in 0..2 {
        match recv_status(&mut client, &mut open) {
            (request, Ok(status)) => responses.push((request, status)),
            other => panic!("expected a poll status, got {other:?}"),
        }
    }
    // Both responses must arrive intact, and the big one must carry the
    // full reassembled body.
    let big_status = &responses
        .iter()
        .find(|(r, _)| *r == r_big)
        .expect("big poll answered")
        .1;
    assert_eq!(big_status.body, body);
    assert!(
        responses.iter().any(|(r, _)| *r == r_small),
        "small poll answered"
    );
    assert_eq!(
        responses[0].0, r_small,
        "the small poll completes ahead of the big stream"
    );

    bye(client);
    server.shutdown();
}

#[test]
fn offered_codec_is_declined_and_bodies_travel_plain() {
    // The `codec` flag is reserved: a client that still offers it is told
    // `false`, and the chunk stream carries the rendering itself.
    let server = boot(ServeConfig::default().clock_rate(1000.0));
    let mut stream = server.raw_connect();
    proto::write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            codec: true,
        },
    )
    .unwrap();
    match read_decoded(&mut stream) {
        Frame::HelloAckV2 { codec, .. } => assert!(!codec, "the offer must be declined"),
        other => panic!("expected HelloAckV2, got {other:?}"),
    }
    let query = submit(&mut stream, bestpath_spec()).expect("admitted");
    let body = wait_for(&mut stream, query).expect("completes").body;

    let deployment = server.shutdown();
    let rendered = deployment.outcomes()[0]
        .annotation
        .as_ref()
        .and_then(|a| a.as_expr())
        .expect("a polynomial answer")
        .to_string();
    assert_eq!(body, rendered.into_bytes());
}

#[test]
fn repeated_polls_from_any_session_render_the_same_body() {
    // The server keeps nothing per query or per session: a query id is the
    // index of its outcome, and every poll renders that outcome again.
    let server = boot(ServeConfig::default().clock_rate(1000.0));
    let mut stream = session(&server);
    let query = submit(&mut stream, bestpath_spec()).expect("admitted");
    let first = wait_for(&mut stream, query).expect("completes");
    assert!(first.total > 0 && first.total == first.body.len() as u64);
    assert_eq!(first, wait_for(&mut stream, query).expect("completes"));
    let mut other = session(&server);
    assert_eq!(first, wait_for(&mut other, query).expect("completes"));
    server.shutdown();
}

#[test]
fn slow_reader_write_queue_overflow_is_typed_and_closes() {
    // 2^8 = 256 derivations render to ~30 KiB — far over this server's
    // 4 KiB write budget, so committing the result response must trip the
    // overload path: a typed Overloaded error, then a clean close.
    let k = 8;
    let server = boot_on(
        diamond_chain(k),
        ServeConfig::default()
            .clock_rate(1000.0)
            .write_queue_bytes(4096),
    );
    let mut client = session(&server);
    let query = submit(&mut client, diamond_spec(k as u32, 2 * k as i64)).expect("admitted");
    // Pending polls are small and fit the budget; the completion response
    // does not, so the wait surfaces the overload error — fatal, not one
    // of the retry hints `wait_for` absorbs.
    let err = wait_for(&mut client, query).expect_err("overload instead of a result");
    assert_eq!(err, ErrorCode::Overloaded);
    // The server drained the error frame and closed the connection.
    let eof = proto::read_frame(&mut client).expect("an orderly close");
    assert!(eof.is_none(), "connection is gone");
    server.shutdown();
}

#[test]
fn submitted_values_travel_in_the_canonical_form() {
    // The target tuple's values cross the wire in the canonical encoding of
    // `exspan_types::codec`, so the VID the server queries — SHA-1 over that
    // same encoding — must equal the one computed client-side, whatever the
    // value types (here a string, a nested list, a digest).  The relation is
    // one the program defines: an unknown name is refused at admission.
    let server = boot(ServeConfig::default().clock_rate(1000.0));
    let values = vec![
        Value::from("pröv"),
        Value::list(vec![
            Value::Node(1),
            Value::list(vec![Value::Int(-7), Value::from("inner")]),
            Value::Bool(true),
        ]),
        Value::Digest([0xA5; 20]),
    ];
    let mut client = session(&server);
    let spec = QuerySpec {
        values: values.clone(),
        ..bestpath_spec()
    };
    let query = submit(&mut client, spec).expect("admitted");
    let status = wait_for(&mut client, query).expect("no protocol error");
    assert_eq!(status.state, QueryState::Complete);
    bye(client);
    let deployment = server.shutdown();
    assert_eq!(
        deployment.outcomes()[0].vid,
        Tuple::new("bestPathCost", 0, values).vid()
    );
}

#[test]
fn an_unknown_relation_is_malformed_and_never_interned() {
    // A relation name or a string value is client input: the server looks
    // it up and does not intern it, since an interned string is never freed.
    let server = boot(ServeConfig::default().clock_rate(1000.0));
    let mut client = session(&server);
    let unknown = QuerySpec {
        relation: "noSuchRelation".into(),
        ..bestpath_spec()
    };
    let err = submit(&mut client, unknown).expect_err("no program defines the relation");
    assert_eq!(err, ErrorCode::Malformed);
    // A string value no tuple holds, its bytes built without interning it:
    // this process is the server's.
    let fresh = "a string value no tuple holds";
    let spec = QuerySpec {
        values: vec![],
        ..bestpath_spec()
    };
    let frame = proto::encode_frame(&Frame::SubmitQuery { request: 1, spec });
    let mut body = frame.expect("encodes").split_off(4);
    body.truncate(body.len() - 2); // the zero value count
    body.extend_from_slice(&2u16.to_be_bytes());
    codec::encode_value(&Value::Node(2), &mut body);
    encode_str_for_hash(fresh, &mut body);
    let mut stream = session(&server);
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&body).unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);
    // The session stays usable.
    let query = submit(&mut client, bestpath_spec()).expect("admitted");
    let status = wait_for(&mut client, query).expect("no protocol error");
    assert_eq!(status.summary, "2 derivations");
    bye(client);
    assert_eq!(server.shutdown().outcomes().len(), 1);
    assert_eq!(Symbol::get("noSuchRelation"), None);
    assert_eq!(Symbol::get(fresh), None);
}

#[test]
fn simulated_time_advances_with_no_client_attached() {
    // A link deletion falls due one simulated second after bind; at 1000
    // simulated seconds per wall second it is long past after 200 ms, though
    // no socket ever turned ready.
    let mut deployment = Exspan::builder()
        .program(exspan_ndlog::programs::mincost())
        .topology(Topology::paper_example())
        .mode(ProvenanceMode::Reference)
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    let has_link_0_1 = |deployment: &Deployment| {
        deployment
            .tuples_shared(0, "link")
            .iter()
            .any(|t| t.values[0] == Value::Node(1))
    };
    assert!(has_link_0_1(&deployment));
    let props = *deployment.topology().link(0, 1).expect("link 0-1");
    let at = deployment.now() + 1.0;
    let event = ChurnEvent {
        time: at,
        add: false,
        a: 0,
        b: 1,
        props,
    };
    deployment.schedule_churn_event(&event, at);
    let server =
        Server::bind(deployment, ServeConfig::default().clock_rate(1000.0)).expect("server boots");
    std::thread::sleep(Duration::from_millis(200));
    let deployment = server.shutdown();
    assert!(deployment.now() >= at);
    assert!(!has_link_0_1(&deployment), "the deletion was applied");
}

#[test]
fn idle_sessions_soak() {
    // One reactor thread holds ten thousand idle sessions and every one of
    // them still gets served.  Each session costs two descriptors in this
    // process (client end + server end); 512 are left for everything else.
    const WORKERS: usize = 8;
    let nofile = pollshim::raise_nofile_limit(20_512).expect("rlimit") as usize;
    let n = 10_000.min((nofile - 512) / 2);
    assert!(n >= 9_000, "descriptor limit {nofile} is too low to soak");
    let server = serve(ServeConfig::default().max_sessions(n).clock_rate(1000.0));
    let complete = |client: &mut TcpStream| {
        let query = submit(client, bestpath_spec()).expect("admitted");
        let status = wait_for(client, query).expect("no protocol error");
        assert_eq!(status.summary, "2 derivations");
        query
    };

    let mut first = session(&server);
    let known = complete(&mut first);
    let connected = std::sync::Barrier::new(WORKERS + 1);
    let mut last = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (connected, server) = (&connected, &server);
                scope.spawn(move || {
                    // n - 2 sessions here, plus `first` and `last`.
                    let share = (n - 2) / WORKERS + usize::from(w < (n - 2) % WORKERS);
                    let mut clients: Vec<TcpStream> = (0..share).map(|_| session(server)).collect();
                    connected.wait(); // everyone is connected
                    connected.wait(); // the idle hold is over
                    for client in &mut clients {
                        let status = poll(client, known).expect("idle session still served");
                        assert_eq!(status.state, QueryState::Complete);
                    }
                    connected.wait(); // keep every session open until all polled
                })
            })
            .collect();
        connected.wait();
        let last = session(&server);
        assert_eq!(server.session_count(), n);
        std::thread::sleep(Duration::from_secs(1));
        assert_eq!(server.session_count(), n, "idle sessions are kept");
        connected.wait();
        connected.wait();
        for worker in workers {
            worker.join().expect("worker");
        }
        last
    });
    complete(&mut first);
    complete(&mut last);
    server.shutdown();
}
