//! The batch workloads.  Each function below is the body of one child
//! process: it sets the deployment up, runs the measured work through the
//! crates' public API in stretches bracketed by host calibrations
//! ([`Host::timed`]), checks the result, and fills a [`ChildReport`].  Sizes
//! are constants of the workload definition — they are what "input size"
//! means when a rate is quoted — chosen so that a child takes one to five
//! seconds and a run holds many.

use crate::mix::{self, Targets};
use crate::oracle;
use crate::proc::{self, Host};
use crate::report::ChildReport;
use crate::stats;
use crate::trace::Tracer;
use exspan_core::{Annotation, Deployment, Exspan, ProvenanceMode, Repr, TraversalOrder};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::{ChurnEvent, ChurnModel, Topology};
use exspan_types::{NodeId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Every workload runs on one fixed transit-stub graph per size, under one
/// fixed churn schedule — they are part of the workload's definition, as the
/// fixed GT-ITM graphs are of the paper's.  Work to converge, to absorb a
/// link change and to answer a query all depend on the graph's path
/// structure and on *which* links flip; between random graphs and schedules
/// of one size they differed by 10–60 % in sizing runs, and even renaming
/// the nodes of one graph moved value-mode convergence by 20 % (BDD variables
/// are numbered in first-seen order).  Either would bury the regressions
/// the bounds are there to catch.  The seed therefore drives the query
/// workloads' draws — who asks for which tuple, how, and when — and nothing
/// in the maintenance workloads, whose inputs are the graph and schedule.
const GRAPH_SEED: u64 = 42;
/// Network size of every workload: one transit-stub domain, 100 nodes.  A
/// PATHVECTOR fixpoint on it is under a second, so a run holds ten of them
/// per shard count; on 200 nodes it is six seconds and a run held one.
const DOMAINS: usize = 1;

/// The paper's churn: 10 link changes every 0.5 simulated seconds.
const CHURN_INTERVAL: f64 = 0.5;
const CHURN_CHANGES: usize = 10;
/// Simulated seconds of churn measured by `churn-durable` (11 batches).
const CHURN_SECONDS: f64 = 6.0;
/// `query-churn`: every node issues 5 queries per simulated second for 4
/// seconds (2,000 queries), driven in slices of one churn interval — 250
/// queries and one churn batch each, every slice a stretch of its own.
const QUERY_SECONDS: f64 = 4.0;
const QUERIES_PER_NODE_PER_S: f64 = 5.0;
/// Passes over the hot set at quiescence; each is a latency sample.
const SOLO_PASSES: usize = 8;

/// The 100-node graph every workload runs on.
pub fn graph() -> Topology {
    Topology::transit_stub(DOMAINS, GRAPH_SEED)
}

/// The churn schedule every churning workload uses: the paper's model,
/// minus the deletions that would cut the network in two and the
/// re-additions of links that therefore never went away.  A partition makes
/// MINCOST count to its cost limit and makes the simulator drop in-flight
/// query messages; both are real behaviour, but dropped queries are failed
/// operations, and the benchmark is of the steady state.  Link changes keep
/// arriving at the paper's rate.
pub fn churn_schedule(topology: &Topology, seconds: f64) -> Vec<ChurnEvent> {
    let model = ChurnModel {
        interval: CHURN_INTERVAL,
        changes_per_batch: CHURN_CHANGES,
        seed: GRAPH_SEED ^ 0xC0FFEE,
    };
    let mut scratch = topology.clone();
    let mut kept = Vec::new();
    for event in model.schedule(topology, seconds) {
        if event.add {
            if !scratch.has_link(event.a, event.b) {
                scratch.add_link(event.a, event.b, event.props);
                kept.push(event);
            }
        } else if let Some(props) = scratch.link(event.a, event.b).copied() {
            scratch.remove_link(event.a, event.b);
            if scratch.is_connected() {
                kept.push(event);
            } else {
                scratch.add_link(event.a, event.b, props);
            }
        }
    }
    kept
}

fn build(
    tracer: &mut Tracer,
    program: Program,
    topology: Topology,
    mode: ProvenanceMode,
    shards: usize,
    data_dir: Option<&Path>,
) -> Deployment {
    let span = tracer.begin("core.build", 0);
    let mut builder = Exspan::builder()
        .program(program)
        .topology(topology)
        .mode(mode)
        .shards(shards);
    if let Some(dir) = data_dir {
        builder = builder.data_dir(dir);
    }
    let deployment = builder.build().expect("benchmark configuration is valid");
    tracer.end(span);
    deployment
}

fn digest(tracer: &mut Tracer, deployment: &Deployment, report: &mut ChildReport) -> String {
    let span = tracer.begin("core.state_digest", 0);
    let t = Instant::now();
    let digest = deployment.state_digest();
    report.set("core.digest_ms", t.elapsed().as_secs_f64() * 1e3);
    tracer.end(span);
    digest
}

/// Holds every `bestPathCost` tuple against the oracle.  PATHVECTOR keeps
/// simple paths only; MINCOST (`mincost = true`) has no such guard, so it
/// also derives each node's cheapest round trip to itself, and it drops
/// paths at its cost limit.
fn check_best_path_costs(deployment: &Deployment, mincost: bool, report: &mut ChildReport) {
    let mut oracle = oracle::shortest_path_costs(deployment.topology());
    for (s, row) in oracle.iter_mut().enumerate() {
        row[s] = None;
    }
    if mincost {
        for (a, b, props) in deployment.topology().links() {
            for s in [a as usize, b as usize] {
                let round_trip = 2 * props.cost;
                oracle[s][s] = Some(oracle[s][s].map_or(round_trip, |c: i64| c.min(round_trip)));
            }
        }
        for cost in oracle.iter_mut().flatten() {
            *cost = cost.filter(|c| *c < programs::MINCOST_INFINITY);
        }
    }
    let tuples = deployment.tuples_everywhere_shared("bestPathCost");
    for t in &tuples {
        let (dest, cost) = match t.values.as_slice() {
            [Value::Node(d), Value::Int(c)] => (*d as usize, *c),
            other => {
                report.check(false, || format!("malformed bestPathCost {other:?}"));
                continue;
            }
        };
        let want = oracle[t.location as usize][dest];
        report.check(want == Some(cost), || {
            format!(
                "bestPathCost(@{},{dest}) = {cost}, oracle says {want:?}",
                t.location
            )
        });
    }
    let expected = oracle.iter().flatten().flatten().count();
    report.check(tuples.len() == expected, || {
        format!(
            "{} bestPathCost tuples, the oracle expects {expected}",
            tuples.len()
        )
    });
}

// ---------------------------------------------------------------------------
// converge-ref / converge-value
// ---------------------------------------------------------------------------

pub fn converge(
    mode: ProvenanceMode,
    shards: usize,
    host: &mut Host,
    tracer: &mut Tracer,
) -> (ChildReport, Deployment) {
    let mut report = ChildReport::default();
    let (mut deployment, setup) =
        host.timed(|| build(tracer, programs::path_vector(), graph(), mode, shards, None));
    report.set("core.build_ms", setup.wall_s * 1e3);
    report.sample("setup_s", (host.startup_s + setup.wall_s) / setup.factor);

    let (fixpoint, run) = host.timed(|| {
        let span = tracer.begin("core.run_to_fixpoint", 0);
        let fixpoint = deployment.run_to_fixpoint();
        tracer.end(span);
        fixpoint
    });
    let wall = run.quiet_s();

    let steps = fixpoint.steps as f64;
    let net = deployment.engine().stats();
    report.sample("ops_per_s", steps / wall);
    report.sample("lat_ms", wall * 1e3);
    report.set("harness.raw_ops_per_s", steps / run.wall_s);
    report.set("bytes_per_op", net.total_bytes() as f64 / steps);
    report.set("peak_rss_mb", proc::peak_rss_mb());

    report.set("runtime.steps", steps);
    report.set("runtime.us_per_step", wall * 1e6 / steps);
    report.set(
        "runtime.tuples_stored",
        deployment.engine().total_tuples() as f64,
    );
    report.set("netsim.messages", net.total_messages() as f64);
    report.set("netsim.bytes", net.total_bytes() as f64);
    report.set("netsim.comm_mb_per_node", deployment.avg_comm_mb());
    if let Some((memo, nodes, annotation_bytes)) = deployment.with_value_provenance(|p| {
        (
            p.manager().memo_stats(),
            p.manager().node_count(),
            p.total_annotation_bytes(),
        )
    }) {
        let lookups = (memo.hits + memo.misses).max(1);
        report.set("bdd.memo_hit_ratio", memo.hits as f64 / lookups as f64);
        report.set("bdd.memo_clears", memo.clears as f64);
        report.set("bdd.nodes", nodes as f64);
        report.set("core.value_annotation_bytes", annotation_bytes as f64);
    }

    let errors = deployment.engine().eval_errors();
    report.check(errors == 0, || format!("{errors} rule evaluation errors"));
    check_best_path_costs(&deployment, false, &mut report);
    let digest = digest(tracer, &deployment, &mut report);
    report.fact("digest", digest);
    report.fact(
        "counts",
        format!(
            "steps={} bytes={} messages={}",
            fixpoint.steps,
            net.total_bytes(),
            net.total_messages()
        ),
    );
    (report, deployment)
}

// ---------------------------------------------------------------------------
// churn-durable
// ---------------------------------------------------------------------------

fn mincost(tracer: &mut Tracer, shards: usize, data_dir: Option<&Path>) -> Deployment {
    build(
        tracer,
        programs::mincost(),
        graph(),
        ProvenanceMode::Reference,
        shards,
        data_dir,
    )
}

/// MINCOST on the default durable store in `dir`: initial fixpoint (set-up),
/// then [`CHURN_SECONDS`] of churn driven batch by batch the way the figure
/// experiments drive it, every batch a stretch of its own.  Then the data dir
/// is copied, and the copy reopened while the first deployment still lives —
/// no checkpoint, no clean shutdown — which must reproduce the digest (the
/// durability check, and the recovery time).
pub fn churn_durable(
    shards: usize,
    dir: &Path,
    host: &mut Host,
    tracer: &mut Tracer,
) -> (ChildReport, Deployment) {
    let mut report = ChildReport::default();
    let (mut deployment, setup) = host.timed(|| {
        let _ = std::fs::remove_dir_all(dir);
        let mut deployment = mincost(tracer, shards, Some(dir));
        let span = tracer.begin("core.run_to_fixpoint", 0);
        deployment.run_to_fixpoint();
        tracer.end(span);
        deployment
    });
    report.sample("setup_s", (host.startup_s + setup.wall_s) / setup.factor);

    let schedule = churn_schedule(&graph(), CHURN_SECONDS);
    let start = deployment.now();
    let storage_before = deployment.storage_stats();
    let written_before = proc::written_bytes();
    let mut steps = 0u64;
    let (mut quiet_s, mut wall_s) = (0.0, 0.0);
    let mut batch_ms = Vec::new();
    let mut next = 0usize;
    let phase = tracer.begin("churn_phase", 0);
    let mut slice_end = CHURN_INTERVAL;
    while slice_end < CHURN_SECONDS + CHURN_INTERVAL {
        let (batch_steps, batch) = host.timed(|| {
            let span = tracer.begin("core.schedule_churn_event", phase);
            while next < schedule.len() && schedule[next].time <= slice_end {
                deployment.schedule_churn_event(&schedule[next], start + schedule[next].time);
                next += 1;
            }
            tracer.end(span);
            let span = tracer.begin("core.run_until", phase);
            let stats = deployment.run_until(start + slice_end + CHURN_INTERVAL * 0.99);
            tracer.end(span);
            stats.steps
        });
        steps += batch_steps;
        quiet_s += batch.quiet_s();
        wall_s += batch.wall_s;
        batch_ms.push(batch.quiet_s() * 1e3);
        slice_end += CHURN_INTERVAL;
    }
    // The last slice carries no new events; whatever re-derivation is still
    // queued past its horizon belongs to the phase too.
    let (settle_steps, settle) = host.timed(|| {
        let span = tracer.begin("core.run_to_fixpoint", phase);
        let stats = deployment.run_to_fixpoint();
        tracer.end(span);
        stats.steps
    });
    steps += settle_steps;
    quiet_s += settle.quiet_s();
    wall_s += settle.wall_s;
    tracer.end(phase);
    batch_ms.pop(); // the event-free settling slice is not a batch

    let written = (proc::written_bytes() - written_before) as f64;
    let storage = deployment.storage_stats();
    let committed = (storage.committed_ops - storage_before.committed_ops) as f64;
    report.sample("ops_per_s", steps as f64 / quiet_s);
    report.sample("lat_ms", stats::median(&batch_ms));
    report.set("harness.raw_ops_per_s", steps as f64 / wall_s);
    report.set("bytes_per_op", written / committed.max(1.0));
    report.set("runtime.steps", steps as f64);
    report.set("runtime.us_per_step", quiet_s * 1e6 / steps as f64);
    report.set("runtime.churn_batch_p50_ms", stats::median(&batch_ms));
    report.set("runtime.churn_batch_max_ms", stats::max(&batch_ms));
    report.set(
        "runtime.tuples_stored",
        deployment.engine().total_tuples() as f64,
    );
    report.set("store.committed_ops", committed);
    report.set(
        "store.committed_batches",
        (storage.committed_batches - storage_before.committed_batches) as f64,
    );
    report.set(
        "store.snapshots_written",
        (storage.snapshots_written - storage_before.snapshots_written) as f64,
    );
    report.set("store.bytes_written", written);
    report.set("store.snapshot_bytes", proc::dir_bytes(dir) as f64);
    report.check(schedule.len() == next, || {
        format!("{next} of {} churn events applied", schedule.len())
    });
    let errors = deployment.engine().eval_errors();
    report.check(errors == 0, || format!("{errors} rule evaluation errors"));
    check_best_path_costs(&deployment, true, &mut report);

    let digest = digest(tracer, &deployment, &mut report);
    report.fact("digest", &digest);
    report.fact("counts", format!("steps={steps} committed_ops={committed}"));
    report.set("peak_rss_mb", proc::peak_rss_mb());

    // Durability: what reached the files by now, with no checkpoint and no
    // clean shutdown, must be the state just digested.
    let copy = dir.with_extension("copy");
    proc::copy_dir(dir, &copy).expect("copy data dir");
    let (reopened, recovery) = host.timed(|| {
        let span = tracer.begin("store.recover", 0);
        let reopened = mincost(tracer, shards, Some(&copy));
        tracer.end(span);
        reopened
    });
    report.set("store.recover_ms", recovery.quiet_s() * 1e3);
    report.check(reopened.recovered_from_store(), || {
        "reopened deployment did not recover from the store".into()
    });
    let recovered = reopened.state_digest();
    report.check(recovered == digest, || {
        format!("recovered digest {recovered} != {digest} before the drop")
    });
    drop(reopened);
    let _ = std::fs::remove_dir_all(&copy);
    (report, deployment)
}

// ---------------------------------------------------------------------------
// query-churn
// ---------------------------------------------------------------------------

pub fn query_churn(
    shards: usize,
    seed: u64,
    host: &mut Host,
    tracer: &mut Tracer,
) -> (ChildReport, Deployment) {
    let mut report = ChildReport::default();
    let ((mut deployment, targets, start, submitted), setup) = host.timed(|| {
        let mut deployment = mincost(tracer, shards, None);
        let span = tracer.begin("core.run_to_fixpoint", 0);
        deployment.run_to_fixpoint();
        tracer.end(span);
        let targets = Targets::harvest(&deployment);
        let nodes = deployment.topology().num_nodes();
        let start = deployment.now();
        for event in churn_schedule(&graph(), QUERY_SECONDS) {
            deployment.schedule_churn_event(&event, start + event.time);
        }
        // Every node issues at its own seeded phase of the common period;
        // the queries are dealt to the issue slots in time order.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let interval = 1.0 / QUERIES_PER_NODE_PER_S;
        let mut slots: Vec<(f64, NodeId)> = Vec::new();
        for issuer in 0..nodes as NodeId {
            let mut at = start + rng.gen_range(0.0..interval);
            while at < start + QUERY_SECONDS {
                slots.push((at, issuer));
                at += interval;
            }
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0));
        for ((at, issuer), q) in slots.iter().zip(mix::draw(&mut rng, &targets, slots.len())) {
            deployment
                .query(&q.target)
                .issuer(*issuer)
                .repr(q.kind.repr())
                .traversal(q.kind.traversal())
                .cached(q.kind.cached())
                .at(*at)
                .submit();
        }
        (deployment, targets, start, slots.len() as u64)
    });
    report.sample("setup_s", (host.startup_s + setup.wall_s) / setup.factor);

    // Measured: the whole offered load, one churn interval at a time so that
    // each stretch has a host factor of its own.  The child's sample is all
    // queries over all quiet seconds: single slices are no samples of one
    // thing, because the re-derivation a churn batch sets off is maintenance
    // work riding along, and is heavy-tailed (slice rates ran 800–1,400/s).
    let phase = tracer.begin("query_phase", 0);
    let mut steps = 0u64;
    let (mut quiet_s, mut wall_s) = (0.0, 0.0);
    let slices = (QUERY_SECONDS / CHURN_INTERVAL).round() as usize;
    for k in 1..=slices + 1 {
        let (slice_steps, slice) = host.timed(|| {
            let span = tracer.begin("core.run_until", phase);
            let stats = if k <= slices {
                deployment.run_until(start + k as f64 * CHURN_INTERVAL)
            } else {
                deployment.run_to_fixpoint()
            };
            tracer.end(span);
            stats.steps
        });
        steps += slice_steps;
        quiet_s += slice.quiet_s();
        wall_s += slice.wall_s;
    }
    tracer.end(phase);

    let completed = deployment
        .outcomes()
        .iter()
        .filter(|o| o.is_complete())
        .count() as u64;
    let traffic = deployment.query_traffic_stats();
    report.attempted += submitted;
    report.failed += submitted - completed;
    if completed < submitted {
        report.errors.push(format!(
            "{} of {submitted} queries never completed",
            submitted - completed
        ));
    }
    report.sample("ops_per_s", completed as f64 / quiet_s);
    report.set("harness.raw_ops_per_s", completed as f64 / wall_s);
    report.set(
        "bytes_per_op",
        traffic.bytes as f64 / completed.max(1) as f64,
    );
    report.set("runtime.steps", steps as f64);
    report.set(
        "runtime.interactive_us_per_step",
        quiet_s * 1e6 / steps as f64,
    );
    let lookups = (traffic.cache_hits + traffic.cache_misses).max(1);
    report.set(
        "core.cache_hit_ratio",
        traffic.cache_hits as f64 / lookups as f64,
    );
    report.set("core.cache_invalidations", traffic.invalidations as f64);
    report.set(
        "core.query_msgs_per_query",
        traffic.messages as f64 / completed.max(1) as f64,
    );
    report.set(
        "core.query_bytes_per_query",
        traffic.bytes as f64 / completed.max(1) as f64,
    );
    report.fact(
        "counts",
        format!(
            "steps={steps} completed={completed} bytes={} messages={}",
            traffic.bytes, traffic.messages
        ),
    );

    // At quiescence: one query at a time, alone on the deployment.  The
    // median uncached query of each pass over the hot set is a latency
    // sample.
    for _ in 0..SOLO_PASSES {
        let (solo, pass) =
            host.timed(|| solo_queries(&mut deployment, &targets, &mut report, tracer));
        report.sample(
            "lat_ms",
            stats::median(&solo.uncached_us) / 1e3 / pass.factor,
        );
    }
    report.set("peak_rss_mb", proc::peak_rss_mb());
    (report, deployment)
}

#[derive(Default)]
pub struct Solo {
    /// Wall µs of each uncached and each cache-answered query.
    pub uncached_us: Vec<f64>,
    pub cached_us: Vec<f64>,
    /// The uncached answer per hot target (`None` where the tuple is gone).
    pub answers: Vec<Option<Annotation>>,
}

/// Executes, for every hot target, an uncached then a cached polynomial
/// query in-process and alone, timing each (wall µs).
///
/// The uncached answer is read off the live provenance graph, and is checked
/// against the topology: every base tuple it names must be a link that
/// exists now.  The cached answer is *not* required to equal it.  On this
/// system it sometimes does not: an entry cached while a tuple or rule
/// execution was briefly absent is not invalidated when the tuple comes
/// back, an alternative derivation that a new link adds beside a cached
/// entry goes unseen, and (rarely) a query already in flight re-caches a
/// derivation just after its invalidation passed.  How many hot targets
/// answer differently from the cache is reported as
/// `core.cache_stale_answers`, for the change that fixes it to move.
pub fn solo_queries(
    deployment: &mut Deployment,
    targets: &Targets,
    report: &mut ChildReport,
    tracer: &mut Tracer,
) -> Solo {
    let mut timed = |deployment: &mut Deployment, target, cached: bool| {
        let span = tracer.begin("core.query_execute", 0);
        let t = Instant::now();
        let outcome = deployment
            .query(target)
            .repr(Repr::Polynomial)
            .traversal(TraversalOrder::Bfs)
            .cached(cached)
            .execute();
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.end(span);
        (outcome.annotation, us)
    };
    let links: BTreeSet<_> = deployment
        .topology()
        .links()
        .flat_map(|(a, b, props)| {
            [
                Deployment::link_tuple(a, b, props.cost).vid(),
                Deployment::link_tuple(b, a, props.cost).vid(),
            ]
        })
        .collect();
    let mut solo = Solo::default();
    let mut stale = 0u64;
    for target in &targets.hot {
        // A hot tuple that churn deleted has no provenance to ask for.
        if deployment.derivation_count(target) == 0 {
            solo.answers.push(None);
            continue;
        }
        let (plain, us) = timed(deployment, target, false);
        solo.uncached_us.push(us);
        // Twice: the first cached query may fill the cache, the second is
        // answered from it.
        timed(deployment, target, true);
        let (cached, us) = timed(deployment, target, true);
        solo.cached_us.push(us);
        let bases = plain
            .as_ref()
            .and_then(Annotation::as_expr)
            .map(exspan_core::ProvExpr::base_tuples);
        report.check(bases.as_ref().is_some_and(|b| b.is_subset(&links)), || {
            format!("provenance of {target:?} names a link that does not exist")
        });
        stale += u64::from(plain != cached);
        solo.answers.push(plain);
    }
    report.set("core.cache_stale_answers", stale as f64);
    report.set("core.query_uncached_us", stats::median(&solo.uncached_us));
    report.set(
        "core.query_uncached_p95_us",
        stats::percentile(&stats::sorted(&solo.uncached_us), 95.0),
    );
    report.set("core.query_cached_us", stats::median(&solo.cached_us));
    solo
}
