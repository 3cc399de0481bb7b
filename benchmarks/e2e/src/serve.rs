//! `serve-query`: the query mix of `query-churn`, but entering through
//! `exspan-serve` on a loopback socket.  The server (reactor + worker) runs
//! in this process and is the system under test; the generator is one more
//! thread of it (see `loadgen`).

use crate::loadgen::{poisson_offsets, Done, Generator, Load, PhaseResult};
use crate::mix::{self, Kind, Targets};
use crate::probes;
use crate::proc::{self, Host};
use crate::report::ChildReport;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads;
use exspan_core::{Annotation, Exspan, ProvenanceMode, Repr};
use exspan_ndlog::programs;
use exspan_serve::{QuerySpec, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Simulated seconds per wall second.  At 1000 a query's simulated network
/// time (tens of simulated ms) is a few percent of its wall latency, so
/// what is measured is the service.
const CLOCK_RATE: f64 = 1000.0;
const CONNECTIONS: usize = 2;
const WARMUP_QUERIES: usize = 600;
/// The measured work of a child: closed-loop windows, each between two host
/// calibrations, 32 in flight, 600 queries (a third of a second).  A window's
/// rate per quiet second is a sample of the capacity, its median latency in
/// quiet milliseconds a sample of the latency.
const CLOSED_INFLIGHT: usize = 32;
const CLOSED_WINDOW: usize = 600;
const WINDOWS: usize = 8;
/// Traced 1-shard children go on to open-loop windows: Poisson arrivals at
/// about a fifth of capacity, and at twice that, for half a second each,
/// latency from each query's due time.  Rate and length are per *quiet*
/// second: the schedule is stretched by the host factor of the moment, so a
/// host at half speed is offered half the wall rate and the server is as busy
/// as on a quiet host.  (At a fixed wall rate a slow spell doubles the
/// utilisation and queueing sets in: one run in ten then read 7.8 ms for 1.6.)
/// These latencies are per-layer metrics, in wall milliseconds, and not the
/// end-to-end latency: at this load a query's time is four thread wake-ups
/// and the worker's sleep quantum, and those follow the state of the host,
/// not the program and not the host factor — over 56 windows the median moved
/// by 0.3 % per 1 % of factor (the closed-loop rate by 1.02 %), and between
/// two spells of one afternoon by a third with no change in the code.
const OPEN_RATE: f64 = 400.0;
const OPEN_RATE_HIGH: f64 = 800.0;
const OPEN_WINDOW_S: f64 = 0.5;
const OPEN_WINDOWS: usize = 4;

struct Planned {
    spec: QuerySpec,
    hot: Option<usize>,
    kind: Kind,
}

fn plan(rng: &mut SmallRng, targets: &Targets, nodes: u32, n: usize) -> Vec<Planned> {
    use rand::Rng;
    mix::draw(rng, targets, n)
        .into_iter()
        .map(|q| Planned {
            spec: QuerySpec {
                issuer: rng.gen_range(0..nodes),
                repr: q.kind.repr(),
                traversal: q.kind.traversal(),
                cached: q.kind.cached(),
                relation: q.target.relation.as_str().to_string(),
                location: q.target.location,
                values: q.target.values.clone(),
            },
            hot: q.hot,
            kind: q.kind,
        })
        .collect()
}

/// What came back for each hot target, so it can be held against the
/// in-process answer once the server has returned the deployment.
struct Bodies {
    first: Vec<Option<Vec<u8>>>,
    mismatches: Vec<String>,
    captured: Vec<Vec<u8>>,
}

impl Bodies {
    fn see(&mut self, planned: &Planned, body: &[u8]) {
        if self.captured.len() < 256 {
            self.captured.push(body.to_vec());
        }
        let Some(hot) = planned.hot else { return };
        if planned.kind.repr() != Repr::Polynomial {
            return;
        }
        match &self.first[hot] {
            None => self.first[hot] = Some(body.to_vec()),
            // No churn: every later answer for the target is the same.
            Some(first) if first != body => self
                .mismatches
                .push(format!("two different bodies for hot target {hot}")),
            Some(_) => {}
        }
    }
}

/// The generator side of one child: connections, the seeded query draw, and
/// what came back.
struct Client<'a> {
    generator: Generator,
    rng: SmallRng,
    targets: &'a Targets,
    nodes: u32,
    bodies: Bodies,
}

impl Client<'_> {
    /// Draws `n` queries and offers them as `load`; failures are counted
    /// into `report`.  Returns when every query is done or written off.
    fn phase(&mut self, n: usize, load: &Load, report: &mut ChildReport) -> PhaseResult {
        let planned = plan(&mut self.rng, self.targets, self.nodes, n);
        let specs: Vec<QuerySpec> = planned.iter().map(|p| p.spec.clone()).collect();
        let bodies = &mut self.bodies;
        let result = self
            .generator
            .run_phase(&specs, load, None, &mut |i, body| {
                bodies.see(&planned[i % planned.len()], body);
            })
            .unwrap_or_else(|e| {
                report.check(false, || format!("load generator: {e}"));
                PhaseResult::default()
            });
        report.attempted += result.attempted;
        report.failed += result.failures.len() as u64;
        for line in result.failures.iter().take(5) {
            report.errors.push(line.clone());
        }
        result
    }
}

fn spans_for(tracer: &mut Tracer, phase: &str, start: Instant, done: &[Done]) {
    if !tracer.on() {
        return;
    }
    let at = |s: f64| start + std::time::Duration::from_secs_f64(s);
    for d in done {
        let query = tracer.record(
            &format!("serve.query.{phase}"),
            0,
            at(d.due_s),
            at(d.done_s),
        );
        tracer.record("serve.submit_ack", query, at(d.sent_s), at(d.ack_s));
        tracer.record("serve.complete_wait", query, at(d.ack_s), at(d.complete_s));
        tracer.record("serve.body_stream", query, at(d.complete_s), at(d.done_s));
    }
}

fn p(values: &[f64], pct: f64) -> f64 {
    stats::percentile(&stats::sorted(values), pct)
}

/// The open-loop windows at one rate: each window's median and p99 latency
/// (wall ms), and all their queries for the per-layer breakdown.
struct OpenWindows {
    rate: f64,
    /// Names the windows' spans.
    phase: &'static str,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    done: Vec<Done>,
    timeouts: u64,
}

impl OpenWindows {
    fn at(rate: f64, phase: &'static str) -> OpenWindows {
        OpenWindows {
            rate,
            phase,
            p50_ms: Vec::new(),
            p99_ms: Vec::new(),
            drain_ms: Vec::new(),
            done: Vec::new(),
            timeouts: 0,
        }
    }

    /// One more window: Poisson arrivals for [`OPEN_WINDOW_S`].
    fn run(
        &mut self,
        seed: u64,
        client: &mut Client,
        host: &mut Host,
        report: &mut ChildReport,
        tracer: &mut Tracer,
    ) {
        let stretch = host.factor_now();
        let offsets_s: Vec<f64> = poisson_offsets(self.rate, OPEN_WINDOW_S, seed)
            .into_iter()
            .map(|s| s * stretch)
            .collect();
        let last_due = offsets_s.last().copied().unwrap_or(0.0);
        let n = offsets_s.len();
        let load = Load::Open { offsets_s };
        let start = Instant::now();
        let b = client.phase(n, &load, report);
        spans_for(tracer, self.phase, start, &b.done);
        let lat: Vec<f64> = b.done.iter().map(Done::latency_ms).collect();
        self.p50_ms.push(p(&lat, 50.0));
        self.p99_ms.push(p(&lat, 99.0));
        let last_done = b.done.iter().map(|d| d.done_s).fold(0.0, f64::max);
        self.drain_ms.push((last_done - last_due).max(0.0) * 1e3);
        self.timeouts += b.timeouts;
        self.done.extend(b.done);
    }
}

pub fn serve_query(shards: usize, seed: u64, host: &mut Host, tracer: &mut Tracer) -> ChildReport {
    let mut report = ChildReport::default();
    let ((server, generator, targets, nodes), setup) = host.timed(|| {
        let topology = workloads::graph();
        let nodes = topology.num_nodes() as u32;
        let span = tracer.begin("core.build", 0);
        let mut deployment = Exspan::builder()
            .program(programs::mincost())
            .topology(topology)
            .mode(ProvenanceMode::Reference)
            .shards(shards)
            .build()
            .expect("benchmark configuration is valid");
        tracer.end(span);
        let span = tracer.begin("core.run_to_fixpoint", 0);
        deployment.run_to_fixpoint();
        tracer.end(span);
        let targets = Targets::harvest(&deployment);
        let config = ServeConfig::default()
            .clock_rate(CLOCK_RATE)
            .rate_limit(1e9, u32::MAX);
        let span = tracer.begin("serve.bind", 0);
        let server = Server::bind(deployment, config).expect("bind loopback");
        tracer.end(span);
        let span = tracer.begin("serve.connect", 0);
        let generator = Generator::connect(server.addr(), CONNECTIONS).expect("connect");
        tracer.end(span);
        (server, generator, targets, nodes)
    });
    report.set("serve.connect_ms", stats::median(&generator.connect_ms));
    report.sample("setup_s", (host.startup_s + setup.wall_s) / setup.factor);

    let mut client = Client {
        generator,
        rng: SmallRng::seed_from_u64(seed ^ 0x5E17E),
        targets: &targets,
        nodes,
        bodies: Bodies {
            first: vec![None; targets.hot.len()],
            mismatches: Vec::new(),
            captured: Vec::new(),
        },
    };
    let closed = |total| Load::Closed {
        inflight: CLOSED_INFLIGHT,
        total,
    };
    // Unrecorded: fills the result cache and the server's lazily built state.
    client.phase(WARMUP_QUERIES, &closed(WARMUP_QUERIES), &mut report);

    let mut closed_done: Vec<Done> = Vec::new();
    let (mut closed_bytes, mut closed_wall_s) = (0u64, 0.0);
    let mut timeouts = 0u64;
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let (a, window) =
            host.timed(|| client.phase(CLOSED_WINDOW, &closed(CLOSED_WINDOW), &mut report));
        spans_for(tracer, "closed", start, &a.done);
        // First submit to last body.
        let last = a.done.iter().map(|d| d.done_s).fold(0.0, f64::max);
        if last > 0.0 {
            report.sample("ops_per_s", a.done.len() as f64 * window.factor / last);
            let lat: Vec<f64> = a.done.iter().map(Done::latency_ms).collect();
            report.sample("lat_ms", p(&lat, 50.0) / window.factor);
        }
        timeouts += a.timeouts;
        closed_bytes += a.bytes_in + a.bytes_out;
        closed_wall_s += last;
        closed_done.extend(a.done);
    }
    let completed = closed_done.len().max(1) as f64;
    report.set("harness.raw_ops_per_s", completed / closed_wall_s);
    let wire = closed_bytes as f64 / completed;
    report.set("bytes_per_op", wire);
    report.set("serve.wire_bytes_per_query", wire);
    let polls: f64 = closed_done.iter().map(|d| f64::from(d.polls)).sum();
    report.set("serve.polls_per_query", polls / completed);

    let open_loop = tracer.on() && shards == 1;
    if open_loop {
        let mut open = OpenWindows::at(OPEN_RATE, "open400");
        let mut high = OpenWindows::at(OPEN_RATE_HIGH, "open800");
        for w in 0..OPEN_WINDOWS as u64 {
            open.run(
                seed ^ 0xA221 ^ w << 32,
                &mut client,
                host,
                &mut report,
                tracer,
            );
            high.run(
                seed ^ 0xC881 ^ w << 32,
                &mut client,
                host,
                &mut report,
                tracer,
            );
        }
        timeouts += open.timeouts + high.timeouts;
        report.set("serve.lat_p50_ms_400qps", stats::median(&open.p50_ms));
        report.set("serve.lat_p99_ms_400qps", stats::median(&open.p99_ms));
        report.set("serve.lat_p50_ms_800qps", stats::median(&high.p50_ms));
        report.set("serve.lat_p99_ms_800qps", stats::median(&high.p99_ms));
        let b = &open.done;
        let ms = |f: fn(&Done) -> f64| b.iter().map(f).collect::<Vec<f64>>();
        let submit_ack = ms(|d| (d.ack_s - d.sent_s) * 1e3);
        report.set("serve.submit_ack_p50_ms", p(&submit_ack, 50.0));
        report.set("serve.submit_ack_p99_ms", p(&submit_ack, 99.0));
        report.set(
            "serve.complete_wait_p50_ms",
            p(&ms(|d| (d.complete_s - d.ack_s - d.think_s) * 1e3), 50.0),
        );
        report.set(
            "serve.body_stream_p50_ms",
            p(&ms(|d| (d.done_s - d.complete_s) * 1e3), 50.0),
        );
        let sim = ms(|d| d.sim_latency_s / CLOCK_RATE * 1e3);
        report.set("serve.sim_latency_p50_ms", p(&sim, 50.0));
        let overhead = ms(|d| d.latency_ms() - d.sim_latency_s / CLOCK_RATE * 1e3);
        report.set("serve.overhead_p50_ms", p(&overhead, 50.0));
        report.set("serve.overhead_p99_ms", p(&overhead, 99.0));
        report.set(
            "serve.gen_lateness_p99_ms",
            p(&ms(|d| (d.sent_s - d.due_s) * 1e3), 99.0),
        );
        report.set("serve.drain_ms", stats::median(&open.drain_ms));
    }
    report.set("serve.timeouts", timeouts as f64);
    report.set("peak_rss_mb", proc::peak_rss_mb());
    let Client {
        generator,
        mut bodies,
        ..
    } = client;
    generator.close();
    let span = tracer.begin("serve.shutdown", 0);
    let mut deployment = server.shutdown();
    tracer.end(span);

    // Every body the wire delivered for a hot target must be the rendering
    // of the same query executed in-process on the deployment the server
    // hands back (nothing churned, so its state is what was served).
    for line in std::mem::take(&mut bodies.mismatches) {
        report.check(false, || line);
    }
    let solo = workloads::solo_queries(&mut deployment, &targets, &mut report, tracer);
    for (i, answer) in solo.answers.iter().enumerate() {
        let want = answer
            .as_ref()
            .and_then(Annotation::as_expr)
            .map(ToString::to_string);
        if let Some(got) = &bodies.first[i] {
            report.check(want.as_deref().map(str::as_bytes) == Some(got), || {
                format!("served body of hot target {i} differs from the in-process answer")
            });
        }
    }
    let annotations: Vec<Annotation> = solo.answers.into_iter().flatten().collect();

    if open_loop {
        probes::frames(
            &mut report,
            &probes::spec_for(&targets.hot[0]),
            &bodies.captured[0],
        );
        probes::compress(&mut report, &bodies.captured);
        probes::render(&mut report, &annotations);
    }
    report
}
