//! Layer probes: each times one crate's public functions on inputs harvested
//! from the workload that just ran, so the per-layer numbers describe the
//! same data the end-to-end numbers were measured on.  Probes run only in a
//! traced run, after the measured phase, in the same child.
//!
//! To add one: write a function here that takes harvested inputs and a
//! `&mut ChildReport`, time a loop over a public function with `Instant`
//! (pass results through `black_box`), `report.set("<layer>.<what>", …)`,
//! add the name to `spec::PER_LAYER` (and `BENCHMARK.json`), and call it
//! from the child of the workload whose data it should see.

use crate::report::ChildReport;
use crate::workloads;
use exspan_bdd::{Bdd, BddManager, SharedBddStore};
use exspan_core::{
    provenance_rewrite, Annotation, Deployment, Exspan, ProvenanceMode, Repr, RewriteOptions,
};
use exspan_ndlog::ast::Program;
use exspan_ndlog::{parse_program, programs, ProgramPlans};
use exspan_netsim::{Simulator, Topology};
use exspan_runtime::Table;
use exspan_serve::proto::{self, Frame, FrameRead};
use exspan_serve::{QuerySpec, QueryState};
use exspan_store::wal::WalWriter;
use exspan_store::{codec, snapshot, Durability, WalOp};
use exspan_types::compress::{compress_bytes, decompress_bytes};
use exspan_types::{wire, Tuple, Value};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Enough rows for stable per-operation times, few enough to stay in the
/// tens of milliseconds per probe.
const SAMPLE: usize = 20_000;

fn sample(tuples: &[Arc<Tuple>]) -> &[Arc<Tuple>] {
    &tuples[..tuples.len().min(SAMPLE)]
}

fn ns_per(t: Instant, n: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn project(tuple: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter()
        .map(|&c| match c {
            0 => Value::Node(tuple.location),
            c => tuple.values[c - 1].clone(),
        })
        .collect()
}

/// `runtime.table_*`: a table shaped like the engine's own — the program's
/// declared key plus the secondary indexes its join plans demand — fed the
/// harvested rows of `relation`.
pub fn table(report: &mut ChildReport, executed: &Program, relation: &str, rows: &[Arc<Tuple>]) {
    let rows = sample(rows);
    if rows.is_empty() {
        return;
    }
    let key = executed
        .table(relation)
        .map(|t| t.keys.clone())
        .unwrap_or_default();
    let plans = ProgramPlans::compile(executed);
    let demands: Vec<Vec<usize>> = plans
        .demands
        .iter()
        .filter(|(rel, _)| rel.as_str() == relation)
        .flat_map(|(_, cols)| cols.iter().cloned())
        .collect();
    let mut table = Table::new(relation, key.clone()).with_indexes(demands.clone());

    let t = Instant::now();
    for row in rows {
        black_box(table.insert_shared(row));
    }
    report.set("runtime.table_insert_ns", ns_per(t, rows.len()));

    // Probe through every access path the planner asked for (the declared
    // key when it asked for none).
    let paths = if demands.is_empty() {
        vec![key]
    } else {
        demands
    };
    let keys: Vec<(usize, Vec<Value>)> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| (i % paths.len(), project(row, &paths[i % paths.len()])))
        .collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for (path, key) in &keys {
        if let Some(found) = table.probe(&paths[*path], key) {
            hits += found.count();
        }
    }
    black_box(hits);
    report.set("runtime.table_probe_ns", ns_per(t, keys.len()));

    let t = Instant::now();
    for row in rows {
        black_box(table.delete(row));
    }
    report.set("runtime.table_delete_ns", ns_per(t, rows.len()));
}

/// `types.vid_ns`, `types.wire_size_ns`: what reference mode pays per
/// derivation to name a tuple and to account for its message.
pub fn types(report: &mut ChildReport, rows: &[Arc<Tuple>]) {
    let rows = sample(rows);
    let t = Instant::now();
    for row in rows {
        black_box(row.vid());
    }
    report.set("types.vid_ns", ns_per(t, rows.len()));
    let t = Instant::now();
    for row in rows {
        black_box(wire::message_size(
            std::slice::from_ref(row.as_ref()),
            wire::REFERENCE_ANNOTATION_BYTES,
        ));
    }
    report.set("types.wire_size_ns", ns_per(t, rows.len()));
}

/// `netsim.queue_ns`: one `send` plus one `pop` on the event queue, between
/// neighbouring nodes of the workload's own topology.
pub fn netsim(report: &mut ChildReport, topology: &Topology) {
    let pairs: Vec<(u32, u32)> = topology.links().map(|(a, b, _)| (a, b)).collect();
    if pairs.is_empty() {
        return;
    }
    let mut sim: Simulator<u64> = Simulator::new(topology.clone());
    let rounds = 100_000usize;
    let t = Instant::now();
    for i in 0..rounds {
        let (a, b) = pairs[i % pairs.len()];
        sim.send(a, b, 64, i as u64);
        // Keep a standing queue of a few hundred events, as a converging
        // network does, rather than timing an empty heap.
        if i >= 256 {
            black_box(sim.pop());
        }
    }
    report.set("netsim.queue_ns", ns_per(t, rounds));
}

/// `ndlog.parse_us`, `ndlog.plan_us`, `core.rewrite_us`: what `build()` does
/// to the program text before the first event.
pub fn front_end(report: &mut ChildReport, name: &str, source: &str) {
    let reps = 50;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(parse_program(name, source).expect("built-in program parses"));
    }
    report.set("ndlog.parse_us", ns_per(t, reps) / 1e3);
    let program = parse_program(name, source)
        .expect("built-in program parses")
        .normalize();
    let t = Instant::now();
    for _ in 0..reps {
        black_box(provenance_rewrite(&program, RewriteOptions::default()));
    }
    report.set("core.rewrite_us", ns_per(t, reps) / 1e3);
    let rewritten = provenance_rewrite(&program, RewriteOptions::default());
    let t = Instant::now();
    for _ in 0..reps {
        black_box(ProgramPlans::compile(&rewritten));
    }
    report.set("ndlog.plan_us", ns_per(t, reps) / 1e3);
}

/// The executed form of a built-in program under reference provenance.
pub fn rewritten(program: &Program) -> Program {
    provenance_rewrite(program, RewriteOptions::default()).normalize()
}

/// A path-vector-shaped BDD workload: each "route" is the OR over a few
/// alternative paths, each path the AND of its links' variables; routes
/// share links the way routes through one transit core do.  Returns the
/// number of apply calls made.
fn bdd_replay(manager: &mut BddManager, routes: u32) -> u64 {
    let mut applies = 0u64;
    let mut acc: Vec<Bdd> = Vec::new();
    for r in 0..routes {
        let mut route = manager.constant(false);
        for alt in 0..3u32 {
            let mut path = manager.constant(true);
            for hop in 0..6u32 {
                // Hops near the core (small hop index) repeat across routes.
                let var = if hop < 3 {
                    (r % 16) * 4 + hop + alt
                } else {
                    1_000 + (r * 7 + alt * 3 + hop) % 4_000
                };
                let v = manager.var(var);
                path = manager.and(path, v);
                applies += 1;
            }
            route = manager.or(route, path);
            applies += 1;
        }
        acc.push(route);
    }
    black_box(acc);
    applies
}

/// `bdd.apply_ns` on an isolated store, and `bdd.two_thread_scaling`: the
/// same replay from two threads sharing one store (two shards in value
/// mode), as throughput relative to one thread — 2.0 is perfect scaling,
/// below 1.0 the store's lock costs more than the second core gives.
pub fn bdd(report: &mut ChildReport) {
    let routes = 4_000;
    let mut manager = BddManager::with_store(SharedBddStore::new());
    let t = Instant::now();
    let applies = bdd_replay(&mut manager, routes);
    let one = t.elapsed().as_secs_f64();
    report.set("bdd.apply_ns", one * 1e9 / applies as f64);

    let store = SharedBddStore::new();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let store = store.clone();
            scope.spawn(move || {
                let mut manager = BddManager::with_store(store);
                black_box(bdd_replay(&mut manager, routes));
            });
        }
    });
    let two = t.elapsed().as_secs_f64();
    report.set("bdd.two_thread_scaling", 2.0 * one / two);
}

/// `store.snapshot_encode_mb_s`, `store.tuple_codec_ns`,
/// `store.wal_append_us_per_op`, `store.fsync_ms_per_batch`: the pieces a
/// durable barrier batch is made of, on the deployment's own rows.
pub fn store(report: &mut ChildReport, deployment: &Deployment, rows: &[Arc<Tuple>], dir: &Path) {
    let snap = deployment.engine().collect_snapshot();
    let mut buf = Vec::new();
    let t = Instant::now();
    snapshot::encode_snapshot(&snap, &mut buf);
    let secs = t.elapsed().as_secs_f64();
    report.set("store.snapshot_encode_mb_s", buf.len() as f64 / 1e6 / secs);

    let rows = sample(rows);
    let mut encoded = Vec::new();
    let t = Instant::now();
    for row in rows {
        encoded.clear();
        codec::encode_tuple(row, &mut encoded);
        let mut reader = codec::Reader::new(&encoded);
        black_box(codec::decode_tuple(&mut reader).expect("own encoding decodes"));
    }
    report.set("store.tuple_codec_ns", ns_per(t, rows.len()));

    // Batches of 500 ops, the order of magnitude one churn window commits.
    let ops: Vec<WalOp> = rows
        .iter()
        .take(10_000)
        .map(|row| WalOp::Tuple {
            node: row.location,
            insert: true,
            tuple: Arc::clone(row),
        })
        .collect();
    let batches: Vec<&[WalOp]> = ops.chunks(500).collect();
    let timed = |durability: Durability| {
        let path = dir.join(format!("probe-{durability:?}.wal"));
        let mut wal = WalWriter::open(&path, 0, durability).expect("open probe WAL");
        let t = Instant::now();
        for (seq, batch) in batches.iter().enumerate() {
            wal.append_batch(batch, seq as u64 + 1, 0)
                .expect("append probe batch");
        }
        let secs = t.elapsed().as_secs_f64();
        drop(wal);
        let _ = std::fs::remove_file(&path);
        secs
    };
    let unsynced = timed(Durability::None);
    let synced = timed(Durability::Barrier);
    report.set(
        "store.wal_append_us_per_op",
        unsynced * 1e6 / ops.len().max(1) as f64,
    );
    report.set(
        "store.fsync_ms_per_batch",
        (synced - unsynced).max(0.0) * 1e3 / batches.len().max(1) as f64,
    );
}

/// `serve.encode_frame_ns`, `serve.decode_frame_ns`: the three frames a
/// served query is made of, with a captured result body in the chunk.
pub fn frames(report: &mut ChildReport, spec: &QuerySpec, body: &[u8]) {
    let frames = [
        Frame::SubmitQuery {
            request: 77,
            spec: spec.clone(),
        },
        Frame::QueryStatusV2 {
            request: 78,
            query: 12_345,
            state: QueryState::Complete,
            latency: 0.0421,
            summary: "2 derivations".into(),
            result_total: body.len() as u64,
            cache_maintained: 0,
            compressed_bytes_saved: 0,
        },
        Frame::ResultChunk {
            request: 78,
            offset: 0,
            total: body.len() as u64,
            bytes: body[..body.len().min(proto::MAX_CHUNK_DATA)].to_vec(),
        },
    ];
    let reps = 20_000;
    let t = Instant::now();
    for i in 0..reps {
        black_box(proto::encode_frame(&frames[i % 3]).expect("frame encodes"));
    }
    report.set("serve.encode_frame_ns", ns_per(t, reps));
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| proto::encode_frame(f).expect("frame encodes"))
        .collect();
    let t = Instant::now();
    for i in 0..reps {
        black_box(proto::decode_frame(&encoded[i % 3][4..]).expect("own frame decodes"));
    }
    report.set("serve.decode_frame_ns", ns_per(t, reps));
    // Keep the incremental path honest too: the buffer must hand the same
    // frames back.
    let mut buffer = proto::FrameBuffer::new();
    for bytes in &encoded {
        buffer.feed(bytes);
    }
    for frame in &frames {
        let ok = matches!(buffer.next_frame(), Some(FrameRead::Body(b))
            if proto::decode_frame(&b).as_ref() == Ok(frame));
        report.check(ok, || {
            format!("{} did not survive FrameBuffer", frame.name())
        });
    }
}

/// `types.compress_*`: the dictionary codec over captured result bodies.
pub fn compress(report: &mut ChildReport, bodies: &[Vec<u8>]) {
    let raw: usize = bodies.iter().map(Vec::len).sum();
    if raw == 0 {
        return;
    }
    let reps = (4_000_000 / raw).clamp(1, 200);
    let t = Instant::now();
    let mut packed = Vec::new();
    for _ in 0..reps {
        packed = bodies.iter().map(|b| compress_bytes(b)).collect::<Vec<_>>();
    }
    let secs = t.elapsed().as_secs_f64();
    report.set("types.compress_mb_s", (raw * reps) as f64 / 1e6 / secs);
    let t = Instant::now();
    for _ in 0..reps {
        for p in &packed {
            black_box(decompress_bytes(p).expect("own compression decompresses"));
        }
    }
    let secs = t.elapsed().as_secs_f64();
    report.set("types.decompress_mb_s", (raw * reps) as f64 / 1e6 / secs);
    let small: usize = packed.iter().map(Vec::len).sum();
    report.set("types.compress_ratio", raw as f64 / small.max(1) as f64);
}

/// `core.render_us`: `ProvExpr::to_string()` per captured result.
pub fn render(report: &mut ChildReport, annotations: &[Annotation]) {
    let exprs: Vec<_> = annotations.iter().filter_map(Annotation::as_expr).collect();
    if exprs.is_empty() {
        return;
    }
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        for e in &exprs {
            black_box(e.to_string());
        }
    }
    report.set("core.render_us", ns_per(t, reps * exprs.len()) / 1e3);
}

/// `store.wal_replay_ops_per_s`: the default snapshot cadence rewrites the
/// snapshot at every barrier of these workloads, so an ordinary reopen never
/// replays a WAL tail.  This probe ages a store with snapshots off (initial
/// fixpoint plus 2 simulated seconds of the workloads' churn), then reopens
/// it, so that path has a number before the cadence changes.
pub fn wal_replay(report: &mut ChildReport, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let topology = workloads::graph();
    let open = || {
        Exspan::builder()
            .program(programs::mincost())
            .topology(topology.clone())
            .mode(ProvenanceMode::Reference)
            .data_dir(dir)
            .snapshot_every_bytes(u64::MAX)
            .build()
            .expect("probe configuration is valid")
    };
    let mut deployment = open();
    deployment.run_to_fixpoint();
    let start = deployment.now();
    for event in workloads::churn_schedule(&topology, 2.0) {
        deployment.schedule_churn_event(&event, start + event.time);
    }
    deployment.run_to_fixpoint();
    let ops = deployment.storage_stats().committed_ops;
    let digest = deployment.state_digest();
    drop(deployment);
    let t = Instant::now();
    let reopened = open();
    let secs = t.elapsed().as_secs_f64();
    report.set("store.wal_replay_ops_per_s", ops as f64 / secs);
    report.check(reopened.state_digest() == digest, || {
        "WAL-only recovery changed the state digest".into()
    });
    drop(reopened);
    let _ = std::fs::remove_dir_all(dir);
}

/// The query spec the frame probe encodes: a hot-set polynomial query.
pub fn spec_for(target: &Tuple) -> QuerySpec {
    QuerySpec {
        issuer: target.location,
        repr: Repr::Polynomial,
        traversal: exspan_core::TraversalOrder::Bfs,
        cached: false,
        relation: target.relation.as_str().to_string(),
        location: target.location,
        values: target.values.clone(),
    }
}
