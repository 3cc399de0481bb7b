//! The distributed NDlog engine: shard coordinator.
//!
//! The engine executes a (localized, normalized) NDlog [`Program`] over the
//! discrete-event simulator using pipelined semi-naïve evaluation: every
//! tuple insertion or deletion is a *delta* processed one at a time from the
//! per-node FIFO (modelled by the per-shard simulated-time event queues).  A
//! delta is applied to the local table, and — if the visible state changed —
//! joined against the other body predicates of every rule it can trigger,
//! producing new deltas that are either enqueued locally or shipped to the
//! head's location specifier over the network.
//!
//! Deletions flow through exactly the same machinery with inverted polarity
//! (the deletion delta rules of §4.2), relying on the derivation counts kept
//! by [`crate::table::Table`] so that a tuple only disappears when its last
//! derivation is gone.
//!
//! # Sharded execution
//!
//! The topology's nodes are partitioned over `Shard`s (see [`crate::shard`]) by
//! rendezvous hashing; each shard owns the tables, event queue and traffic
//! counters of its nodes.  [`Engine::run_until`] — the one way to advance
//! simulated time — has two event loops and picks between them from what it
//! can observe.
//!
//! With more than one shard, no [`ExternalSink`] and a positive latency on
//! every current link, it runs the shards on worker threads in *barrier
//! windows*: at each barrier the coordinator finds the earliest pending event
//! time `t_min` across all shards and releases every shard to process its
//! events strictly before `t_min + L`, where `L` is the smallest link latency
//! of the topology (the *lookahead*).  A cross-shard delta produced inside
//! the window is due no earlier than the window's end, so delivering the
//! per-shard outboxes into the destination inboxes at the barrier never
//! reorders anything.  Every event carries an execution-independent ordering
//! key (`(time, source node, per-source sequence)`), per-node state is only
//! ever touched by the owning shard, and the traffic counters are integral —
//! which together make the sharded run *bit-identical* to the one-shard run,
//! as the determinism tests assert.
//!
//! Otherwise — one shard, a sink listening, or a zero-latency link, which
//! leaves a window no lookahead — it steps through the events one at a time
//! in global key order on the calling thread (at one shard simply the shard's
//! own queue), handing each external tuple to the sink as it arrives.  A sink
//! cannot be served from inside a barrier window: it reads tables and the
//! clock *at the event*, and the window has by then applied later deltas of
//! the same node.

use crate::plugin::{AnnotationPolicy, ExternalSink};
use crate::shard::{RuleData, Shard};
use exspan_ndlog::ast::{BodyItem, Program};
use exspan_ndlog::plan::ProgramPlans;
use exspan_netsim::{
    LinkClass, LinkProps, RoutedEvent, ShardView, Simulator, Topology, TrafficStats,
};
use exspan_store::{
    AggProvEntry, LinkRecord, MemoryBackend, RecoveredState, SnapshotData, StorageBackend,
    StorageStats, WalOp,
};
use exspan_types::fxhash::FxHashMap;
use exspan_types::{wire, NodeId, RelId, Symbol, Tuple, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Name of the internal event used to trigger aggregate-group recomputation.
/// The `$` prefix keeps it out of the namespace of user-defined relations.
pub(crate) const AGG_RECOMPUTE_EVENT: &str = "$aggRecompute";

/// Message payload exchanged between nodes (and enqueued locally).
///
/// Deltas carry their tuple behind an [`Arc`]: the queue entry, the table row
/// it becomes on arrival and every join input cloned from it all share one
/// allocation.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A tuple delta: insertion (`insert = true`) or deletion of `tuple` at
    /// the destination node.
    Delta {
        /// The tuple being inserted or deleted (shared, never mutated).
        tuple: Arc<Tuple>,
        /// Polarity of the delta.
        insert: bool,
        /// Opaque annotation shipped with the delta (value-based provenance
        /// carries the derivation history here; see
        /// [`crate::plugin::AnnotationPolicy`]).
        token: Option<crate::plugin::AnnotationToken>,
    },
}

/// Result of processing one simulator event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    /// The event was consumed by the engine.
    Handled,
    /// An event tuple arrived for which the engine has no rules.  Higher
    /// layers (the provenance query protocol) handle these.
    External {
        /// Node at which the tuple arrived.
        node: NodeId,
        /// The tuple itself (shared with the delta that carried it).
        tuple: Arc<Tuple>,
        /// Simulated arrival time.
        time: f64,
        /// Polarity of the delta.
        insert: bool,
    },
    /// The event queue is empty.
    Idle,
}

/// Statistics about a fixpoint computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixpointStats {
    /// Simulated time at which the last delta was processed.
    pub fixpoint_time: f64,
    /// Number of events processed.
    pub steps: u64,
    /// Number of external (unhandled) tuples encountered and dropped.
    pub external: u64,
}

/// Runaway guard: the most events one `run_until` call processes.  The
/// parallel loop checks it once per barrier window, so it may process
/// slightly more.
const MAX_STEPS: u64 = 200_000_000;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// At most how many shards (worker threads) execute the protocol; 1
    /// keeps everything on the calling thread.  An engine built with an
    /// annotation policy ([`Engine::with_policy`]) runs one shard whatever
    /// this says.
    pub shards: usize,
    /// When `true`, the engine additionally accounts every transmitted
    /// message under the dictionary wire codec ([`exspan_types::compress`]):
    /// tuple contents dictionary-encoded, annotations charged at the size
    /// the policy reports through
    /// [`crate::AnnotationPolicy::annotation_bytes_compressed`].  Off by
    /// default — the flat model behind every existing figure is untouched;
    /// the compressed totals surface through [`Engine::compressed_bytes`]
    /// and never feed back into [`Engine::stats`].
    pub track_compressed: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 1,
            track_compressed: false,
        }
    }
}

/// The distributed declarative-networking engine.
pub struct Engine {
    data: Arc<RuleData>,
    /// Master copy of the topology; shards hold read-only snapshots that are
    /// refreshed (via [`Engine::sync_topology`]) whenever the master changed.
    topology: Topology,
    topo_dirty: bool,
    /// `assignment[node]` = shard owning that node.
    assignment: Arc<Vec<u16>>,
    shards: Vec<Shard>,
    /// Cross-shard mailboxes: `inboxes[s]` holds events routed to shard `s`
    /// that it has not yet pulled into its queue.
    inboxes: Vec<Mutex<Vec<RoutedEvent<Payload>>>>,
    /// Storage backend behind the persistence seam.  The in-memory default
    /// ([`MemoryBackend`]) accepts and discards everything; shard journaling
    /// stays off, so the hot path pays nothing.
    backend: Box<dyn StorageBackend>,
    /// Sequence number of the last committed WAL batch.
    commit_seq: u64,
    /// Topology link changes journaled since the last barrier flush (links
    /// live on the coordinator, not in any shard's table store).
    link_journal: Vec<WalOp>,
    /// Whether journaling is active (persistent backend attached).
    journaling: bool,
}

/// On-wire encoding of a [`LinkClass`] inside a [`LinkRecord`].
fn link_class_code(class: LinkClass) -> u8 {
    match class {
        LinkClass::TransitTransit => 0,
        LinkClass::TransitStub => 1,
        LinkClass::StubStub => 2,
        LinkClass::Testbed => 3,
        LinkClass::Custom => 4,
    }
}

fn link_class_from_code(code: u8) -> LinkClass {
    match code {
        0 => LinkClass::TransitTransit,
        1 => LinkClass::TransitStub,
        2 => LinkClass::StubStub,
        3 => LinkClass::Testbed,
        _ => LinkClass::Custom,
    }
}

fn link_record(a: NodeId, b: NodeId, props: &LinkProps) -> LinkRecord {
    LinkRecord {
        a,
        b,
        latency_bits: props.latency.to_bits(),
        bandwidth_bits: props.bandwidth.to_bits(),
        cost: props.cost,
        class: link_class_code(props.class),
    }
}

fn link_props(record: &LinkRecord) -> LinkProps {
    LinkProps {
        latency: f64::from_bits(record.latency_bits),
        bandwidth: f64::from_bits(record.bandwidth_bits),
        cost: record.cost,
        class: link_class_from_code(record.class),
    }
}

impl Engine {
    /// Creates an engine executing `program` over `topology`.
    ///
    /// For a program that declares the `prov` and `ruleExec` tables (the
    /// provenance rewrite's output) the engine maintains those entries
    /// natively for *aggregate* rule firings, tracing MIN/MAX outputs to the
    /// winning input tuple (§4.2.2); the rewritten rules cover the rest, but
    /// cannot express an aggregate.
    pub fn new(program: Program, topology: Topology, config: EngineConfig) -> Self {
        let aggregate_provenance =
            program.table("prov").is_some() && program.table("ruleExec").is_some();
        let program = program.normalize();
        let mut triggers: FxHashMap<RelId, Vec<(usize, usize)>> = FxHashMap::default();
        for (ri, rule) in program.rules.iter().enumerate() {
            for (ai, item) in rule.body.iter().enumerate() {
                if let BodyItem::Atom(a) = item {
                    // Register every occurrence as a trigger position; the
                    // same relation occurring twice registers twice.
                    triggers.entry(a.relation).or_default().push((ri, ai));
                }
            }
        }
        let keys: FxHashMap<RelId, Vec<usize>> = program
            .tables
            .iter()
            .map(|t| (t.relation, t.keys.clone()))
            .collect();
        // Compile the per-(rule, trigger) join plans and collect the
        // secondary indexes they demand; every shard's table store maintains
        // exactly those indexes.
        let plans = ProgramPlans::compile(&program);
        let index_demands: FxHashMap<RelId, Vec<Vec<usize>>> = plans
            .demands
            .iter()
            .map(|(rel, cols)| (*rel, cols.iter().cloned().collect()))
            .collect();
        let num_shards = config.shards.max(1);
        let assignment = Arc::new(topology.partition_rendezvous(num_shards));
        let mut rule_by_label = FxHashMap::default();
        for (ri, rule) in program.rules.iter().enumerate() {
            rule_by_label.entry(rule.label).or_insert(ri);
        }
        let data = Arc::new(RuleData {
            rule_by_label,
            rules: program.rules,
            triggers,
            plans,
            agg_recompute: Symbol::intern(AGG_RECOMPUTE_EVENT),
            config,
            aggregate_provenance,
        });
        let topo_arc = Arc::new(topology.clone());
        let shards = (0..num_shards)
            .map(|i| {
                let mut sim = Simulator::with_bucket_width(Arc::clone(&topo_arc), 0.1);
                if num_shards > 1 {
                    sim.configure_shard(ShardView {
                        assignment: Arc::clone(&assignment),
                        shard_id: i as u16,
                    });
                }
                Shard::new(Arc::clone(&data), keys.clone(), index_demands.clone(), sim)
            })
            .collect();
        Engine {
            data,
            topology,
            topo_dirty: false,
            assignment,
            inboxes: (0..num_shards).map(|_| Mutex::new(Vec::new())).collect(),
            shards,
            backend: Box::new(MemoryBackend),
            commit_seq: 0,
            link_journal: Vec::new(),
            journaling: false,
        }
    }

    /// Creates an engine that reports every base change, rule firing, remote
    /// send and arrival to `policy` (e.g. value-based provenance).  One
    /// policy has to see all of them in event order, so the engine runs one
    /// shard, which owns the policy, whatever [`EngineConfig::shards`] says.
    pub fn with_policy(
        program: Program,
        topology: Topology,
        config: EngineConfig,
        policy: Box<dyn AnnotationPolicy + Send>,
    ) -> Self {
        let one_shard = EngineConfig {
            shards: 1,
            ..config
        };
        let mut engine = Self::new(program, topology, one_shard);
        engine.shards[0].policy = Some(policy);
        engine
    }

    /// Number of shards executing this engine.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u16 {
        self.assignment.get(node as usize).copied().unwrap_or(0)
    }

    fn owner(&self, node: NodeId) -> usize {
        self.shard_of(node) as usize
    }

    /// The annotation policy this engine was built with, if any.
    pub fn policy(&self) -> Option<&dyn AnnotationPolicy> {
        let policy = self.shards[0].policy.as_deref()?;
        Some(policy)
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.shards.iter().map(|s| s.sim.now()).fold(0.0, f64::max)
    }

    /// Time at which the last delta was processed (the fixpoint time once the
    /// queue drains).
    pub fn last_activity(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.last_delta_time)
            .fold(0.0, f64::max)
    }

    /// Traffic statistics, merged across shards.  The merge is exact (all
    /// counters are integral), so the result is identical to what the
    /// sequential engine accumulates.
    pub fn stats(&self) -> TrafficStats {
        let mut merged = self.shards[0].sim.stats().clone();
        for shard in &self.shards[1..] {
            merged.merge_from(shard.sim.stats());
        }
        merged
    }

    /// Total bytes every transmitted message would have cost under the
    /// dictionary wire codec, summed across shards.  Only accumulates when
    /// [`EngineConfig::track_compressed`] is set; the merge is a sum of
    /// integral per-shard counters, so — like [`Engine::stats`] — the result
    /// is identical at any shard count.
    pub fn compressed_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.compressed_bytes).sum()
    }

    /// Total count (across shards) of evaluation errors that the static
    /// analyzer guarantees cannot happen for accepted programs (unbound
    /// variables, unknown functions).  Always 0 for programs that pass
    /// `exspan_ndlog::analyze` without errors; the differential tests assert
    /// exactly that.  Data-dependent rejections (type mismatches in
    /// comparisons) are not errors and are not counted.
    pub fn eval_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.eval_errors.get()).sum()
    }

    /// The network topology (mutable, for churn).  Shards receive the updated
    /// snapshot before the next run.
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.topo_dirty = true;
        &mut self.topology
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Re-distributes the master topology to the shards if it changed.
    fn sync_topology(&mut self) {
        if !self.topo_dirty {
            return;
        }
        let snapshot = Arc::new(self.topology.clone());
        for shard in &mut self.shards {
            shard.sim.set_topology(Arc::clone(&snapshot));
        }
        self.topo_dirty = false;
    }

    /// Visible tuples of `relation` at `node` as shared handles (no
    /// attribute-vector copies).
    pub fn tuples_shared(&self, node: NodeId, relation: &str) -> Vec<Arc<Tuple>> {
        self.shards[self.owner(node)]
            .store
            .tuples_shared(node, RelId::intern(relation))
    }

    /// [`Engine::tuples_shared`] restricted to the tuples whose leading
    /// attributes (0 = location) equal `prefix`: same order, read by key range.
    pub fn tuples_with_prefix(
        &self,
        node: NodeId,
        relation: RelId,
        prefix: &[Value],
    ) -> Vec<Arc<Tuple>> {
        let store = &self.shards[self.owner(node)].store;
        store.tuples_with_prefix(node, relation, prefix)
    }

    /// Visible tuples of `relation` across all nodes, as shared handles
    /// sorted by tuple content.
    pub fn tuples_everywhere_shared(&self, relation: &str) -> Vec<Arc<Tuple>> {
        let rel = RelId::intern(relation);
        let mut out: Vec<Arc<Tuple>> = self
            .shards
            .iter()
            .flat_map(|s| s.store.tuples_everywhere_shared(rel))
            .collect();
        out.sort();
        out
    }

    /// Derivation count of an exact tuple at its own location.
    pub fn derivation_count(&self, tuple: &Tuple) -> usize {
        self.shards[self.owner(tuple.location)]
            .store
            .derivation_count(tuple.location, tuple)
    }

    /// Total number of stored tuples across all nodes and relations.
    pub fn total_tuples(&self) -> usize {
        self.shards.iter().map(|s| s.store.total_tuples()).sum()
    }

    /// Inserts a base tuple at `node` now (processed when its event fires).
    pub fn insert_base(&mut self, node: NodeId, tuple: Tuple) {
        self.schedule_delta(self.now(), node, tuple, true);
    }

    /// Deletes a base tuple at `node` now.
    pub fn delete_base(&mut self, node: NodeId, tuple: Tuple) {
        self.schedule_delta(self.now(), node, tuple, false);
    }

    /// Schedules a delta at an absolute simulated time (used by experiment
    /// drivers for churn and data-plane workloads).
    pub fn schedule_delta(&mut self, time: f64, node: NodeId, tuple: Tuple, insert: bool) {
        let owner = self.owner(node);
        let tuple = Arc::new(tuple);
        // Scheduled base-level changes are reported to the policy when
        // they are scheduled; derived deltas never go through here.
        if let Some(policy) = &mut self.shards[owner].policy {
            policy.on_base(node, &tuple, insert);
        }
        self.shards[owner].sim.schedule_at(
            time,
            node,
            Payload::Delta {
                tuple,
                insert,
                token: None,
            },
        );
    }

    /// Sends a tuple from `from` to `to` on behalf of a higher layer (the
    /// provenance query protocol), charging `extra_bytes` of annotation in
    /// addition to the tuple's wire size.  Returns the bytes charged.
    pub fn send_tuple(
        &mut self,
        from: NodeId,
        to: NodeId,
        tuple: Tuple,
        extra_bytes: usize,
    ) -> usize {
        self.sync_topology();
        let bytes = wire::message_size(std::slice::from_ref(&tuple), extra_bytes);
        let owner = self.owner(from);
        if self.data.config.track_compressed {
            // Query-layer annotations are opaque to the codec: the tuple
            // contents compress, the annotation is charged as-is.
            self.shards[owner].compressed_bytes += exspan_types::compress::compressed_message_size(
                std::slice::from_ref(&tuple),
                extra_bytes,
            ) as u64;
        }
        self.shards[owner].sim.send(
            from,
            to,
            bytes,
            Payload::Delta {
                tuple: Arc::new(tuple),
                insert: true,
                token: None,
            },
        );
        self.flush_outboxes();
        bytes
    }

    /// Moves events diverted to foreign shards into the destination inboxes,
    /// coalescing same-destination events into one locked append per
    /// destination shard rather than a lock round-trip per event.
    fn flush_outboxes(&mut self) {
        let num_shards = self.shards.len();
        let mut grouped: Vec<Vec<RoutedEvent<Payload>>> = Vec::new();
        for i in 0..num_shards {
            let out = self.shards[i].sim.take_outbox();
            if out.is_empty() {
                continue;
            }
            grouped.resize_with(num_shards, Vec::new);
            for ev in out {
                grouped[self.owner(ev.msg.to)].push(ev);
            }
        }
        for (dest, batch) in grouped.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.inboxes[dest]
                    .lock()
                    .expect("inbox poisoned")
                    .append(batch);
            }
        }
    }

    /// Pulls every inbox into its shard's queue (single-threaded contexts).
    fn drain_inboxes(&mut self) {
        for (shard, inbox) in self.shards.iter_mut().zip(&self.inboxes) {
            shard.drain_inbox(inbox);
        }
    }

    /// The shard holding the next event in global key order, and that event's
    /// time, or `None` when every queue is empty.  With several shards the
    /// in-flight cross-shard deltas are delivered first and the per-shard
    /// queues merged by event key — the exact order one shard would use.  One
    /// shard diverts nothing to an outbox, so its own queue is the answer.
    fn next_event(&mut self) -> Option<(usize, f64)> {
        if let [only] = self.shards.as_slice() {
            return only.sim.peek_time().map(|t| (0, t));
        }
        self.flush_outboxes();
        self.drain_inboxes();
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.sim.peek_key().map(|k| (i, k)))
            .min_by(|(_, a), (_, b)| a.order(b))
            .map(|(i, k)| (i, k.time))
    }

    /// Simulated time of the earliest pending event across all shards (after
    /// delivering any in-flight cross-shard deltas), or `None` when every
    /// queue is empty.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.sync_topology();
        self.next_event().map(|(_, t)| t)
    }

    /// Runs until the event queue is empty (global fixpoint).
    pub fn run_to_fixpoint(&mut self) -> FixpointStats {
        self.run_until(f64::INFINITY, None)
    }

    /// Runs until the next event would occur after `time_limit` (or the
    /// queues empty).
    ///
    /// External tuples — event tuples no rule handles — are handed to `sink`
    /// in global deterministic event order, with the engine available for
    /// replies, so higher protocol layers (the provenance query protocol)
    /// advance on the *same* simulated clock as protocol maintenance and
    /// churn.  Without a sink they are dropped and counted, and a
    /// multi-shard engine is free to use the parallel barrier loop; the
    /// result is bit-identical either way.
    pub fn run_until(
        &mut self,
        time_limit: f64,
        mut sink: Option<&mut dyn ExternalSink>,
    ) -> FixpointStats {
        self.sync_topology();
        let steps_before: u64 = self.shards.iter().map(|s| s.processed).sum();
        let ext_before: u64 = self.shards.iter().map(|s| s.externals_seen).sum();
        // A zero-latency link leaves a barrier window no lookahead: step.
        let windowed = self.shards.len() > 1
            && sink.is_none()
            && self.topology.min_link_latency().map_or(true, |l| l > 0.0);
        if windowed {
            // `next_event` delivers the in-flight cross-shard deltas; with
            // nothing due by the limit (an idle server's every loop turn) no
            // worker thread is spawned for the empty window.
            if self.next_event().is_some_and(|(_, t)| t <= time_limit) {
                self.run_parallel(time_limit);
            }
        } else {
            let mut steps = 0u64;
            while steps < MAX_STEPS {
                let Some((idx, t)) = self.next_event() else {
                    break;
                };
                if t > time_limit {
                    break;
                }
                steps += 1;
                let step = self.shards[idx].step();
                if let (
                    Step::External {
                        node,
                        tuple,
                        time,
                        insert,
                    },
                    Some(sink),
                ) = (step, sink.as_deref_mut())
                {
                    sink.on_external(self, node, tuple, time, insert);
                    // The sink held the engine mutably: pick up a topology
                    // change before the next event routes.
                    self.sync_topology();
                }
            }
        }
        // The run just closed and every worker thread has joined: commit
        // the journaled operations as one quiescent WAL batch.
        self.flush_storage();
        let steps_after: u64 = self.shards.iter().map(|s| s.processed).sum();
        let ext_after: u64 = self.shards.iter().map(|s| s.externals_seen).sum();
        FixpointStats {
            fixpoint_time: self.last_activity(),
            steps: steps_after - steps_before,
            external: ext_after - ext_before,
        }
    }

    /// The barrier-windowed parallel event loop.
    ///
    /// Every round has three barriers: (w) all shards finished their window
    /// and delivered their outboxes, (a) all shards drained their inboxes and
    /// published their earliest pending event time, (b) the coordinator
    /// decided the next horizon (or termination).  Shards then process all
    /// events strictly before the horizon in parallel.
    fn run_parallel(&mut self, time_limit: f64) {
        let lookahead = self.topology.min_link_latency().unwrap_or(f64::INFINITY);
        let num_shards = self.shards.len();
        let barrier = Barrier::new(num_shards + 1);
        let next_times: Vec<AtomicU64> = (0..num_shards)
            .map(|_| AtomicU64::new(f64::NAN.to_bits()))
            .collect();
        let horizon = AtomicU64::new(f64::NAN.to_bits());
        let stop = AtomicBool::new(false);
        let total_steps = AtomicU64::new(0);

        fn publish(slot: &AtomicU64, t: Option<f64>) {
            slot.store(t.unwrap_or(f64::NAN).to_bits(), Ordering::SeqCst);
        }

        let inboxes = &self.inboxes;
        let assignment = &self.assignment;
        let barrier_ref = &barrier;
        let next_ref = &next_times;
        let horizon_ref = &horizon;
        let stop_ref = &stop;
        let steps_ref = &total_steps;

        std::thread::scope(|scope| {
            for (i, shard) in self.shards.iter_mut().enumerate() {
                scope.spawn(move || {
                    shard.drain_inbox(&inboxes[i]);
                    publish(&next_ref[i], shard.sim.peek_time());
                    // Per-destination coalescing buffers, reused across
                    // windows: one locked append per destination shard per
                    // barrier window instead of a lock round-trip per event.
                    let mut outbound: Vec<Vec<RoutedEvent<Payload>>> =
                        (0..num_shards).map(|_| Vec::new()).collect();
                    loop {
                        barrier_ref.wait(); // (a) every shard published its minimum
                        barrier_ref.wait(); // (b) coordinator decided
                        if stop_ref.load(Ordering::SeqCst) {
                            break;
                        }
                        let h = f64::from_bits(horizon_ref.load(Ordering::SeqCst));
                        let steps = shard.run_window(h, time_limit);
                        steps_ref.fetch_add(steps, Ordering::SeqCst);
                        for ev in shard.sim.take_outbox() {
                            outbound[assignment[ev.msg.to as usize] as usize].push(ev);
                        }
                        for (dest, batch) in outbound.iter_mut().enumerate() {
                            if !batch.is_empty() {
                                inboxes[dest].lock().expect("inbox poisoned").append(batch);
                            }
                        }
                        barrier_ref.wait(); // (w) all cross-shard deltas delivered
                        shard.drain_inbox(&inboxes[i]);
                        publish(&next_ref[i], shard.sim.peek_time());
                    }
                });
            }
            // Coordinator.
            loop {
                barrier.wait(); // (a)
                let min_next = next_times
                    .iter()
                    .map(|s| f64::from_bits(s.load(Ordering::SeqCst)))
                    .filter(|t| !t.is_nan())
                    .fold(f64::NAN, f64::min);
                let exhausted = total_steps.load(Ordering::SeqCst) >= MAX_STEPS;
                let terminate = min_next.is_nan() || min_next > time_limit || exhausted;
                if terminate {
                    stop.store(true, Ordering::SeqCst);
                } else {
                    horizon.store((min_next + lookahead).to_bits(), Ordering::SeqCst);
                }
                barrier.wait(); // (b)
                if terminate {
                    break;
                }
                barrier.wait(); // (w)
            }
        });
    }

    // ------------------------------------------------------------------
    // Persistence (the storage seam)
    // ------------------------------------------------------------------

    /// Attaches a storage backend and turns on operation journaling.  Call
    /// after [`Engine::recover`], so the replayed operations are not
    /// re-journaled.
    pub fn attach_storage(&mut self, backend: Box<dyn StorageBackend>) {
        self.backend = backend;
        self.journaling = self.backend.is_persistent();
        for shard in &mut self.shards {
            shard.store.set_journaling(self.journaling);
        }
    }

    /// Journals a topology link change (call alongside the
    /// `topology_mut().add_link/remove_link` that applies it; no-op without
    /// a persistent backend).
    pub fn journal_link(&mut self, add: bool, a: NodeId, b: NodeId, props: &LinkProps) {
        if self.journaling {
            self.link_journal.push(WalOp::Link {
                add,
                link: link_record(a, b, props),
            });
        }
    }

    /// Commits the operations journaled since the last flush as one WAL
    /// batch and writes a snapshot if enough log accumulated.  Called at the
    /// single-threaded end of every `run_*` call — a quiescent barrier, so
    /// the batch captures a complete window.
    fn flush_storage(&mut self) {
        if self.journaling {
            let mut ops = std::mem::take(&mut self.link_journal);
            for shard in &mut self.shards {
                ops.extend(shard.store.take_journal());
            }
            if !ops.is_empty() {
                self.commit_seq += 1;
                let time_bits = self.last_activity().to_bits();
                self.backend
                    .commit_batch(&ops, self.commit_seq, time_bits)
                    .unwrap_or_else(|e| panic!("WAL commit failed: {e}"));
                if self.backend.snapshot_due() {
                    let snap = self.collect_snapshot();
                    self.backend
                        .write_snapshot(&snap)
                        .unwrap_or_else(|e| panic!("snapshot write failed: {e}"));
                }
            }
        }
    }

    /// Flushes pending journal entries and folds the log into a snapshot
    /// (graceful-shutdown checkpoint; no-op without a persistent backend).
    /// An empty log after the flush means the snapshot on disk, if any, is
    /// current — and no snapshot beside an empty log is a fresh store, which
    /// a snapshot of the bare topology would turn into a recovered one.
    pub fn checkpoint(&mut self) {
        self.flush_storage();
        if self.backend.stats().wal_bytes > 0 {
            let snap = self.collect_snapshot();
            self.backend
                .write_snapshot(&snap)
                .unwrap_or_else(|e| panic!("checkpoint snapshot failed: {e}"));
        }
    }

    /// Collects the full logical state in canonical form: links sorted by
    /// endpoint pair, tables sorted by `(node, relation name)` with rows in
    /// `scan()` order, aggregate-provenance entries sorted by group.  The
    /// encoding of this value is a pure function of logical state — shard
    /// count and execution interleaving do not affect a byte.
    pub fn collect_snapshot(&self) -> SnapshotData {
        let mut links: Vec<LinkRecord> = self
            .topology
            .links()
            .map(|(a, b, props)| link_record(a, b, props))
            .collect();
        links.sort_by_key(|l| (l.a, l.b));
        let mut tables: Vec<exspan_store::TableDump> =
            self.shards.iter().flat_map(|s| s.store.dump()).collect();
        tables.sort_by(|x, y| (x.node, x.relation.as_str()).cmp(&(y.node, y.relation.as_str())));
        let mut agg: Vec<AggProvEntry> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.agg_prov
                    .iter()
                    .map(|((node, relation, group), (prov, exec))| AggProvEntry {
                        node: *node,
                        relation: *relation,
                        group: group.clone(),
                        prov: Arc::clone(prov),
                        exec: Arc::clone(exec),
                    })
            })
            .collect();
        agg.sort_by(|x, y| {
            (x.node, x.relation.as_str(), &x.group).cmp(&(y.node, y.relation.as_str(), &y.group))
        });
        SnapshotData {
            seq: self.commit_seq,
            time_bits: self.last_activity().to_bits(),
            node_count: self.topology.num_nodes() as u32,
            links,
            tables,
            agg,
        }
    }

    /// SHA-1 over the canonical snapshot encoding: equal digests ⇔ equal
    /// logical state, independent of shard count.  The commit sequence
    /// number is zeroed first — it counts storage-layer barrier flushes, so
    /// an in-memory deployment and a persistent one in the same logical
    /// state would otherwise digest differently.
    pub fn state_digest(&self) -> exspan_types::Digest {
        let mut snap = self.collect_snapshot();
        snap.seq = 0;
        let mut bytes = Vec::new();
        exspan_store::snapshot::encode_snapshot(&snap, &mut bytes);
        exspan_types::sha1_digest(&bytes)
    }

    /// Storage counters of the backend (WAL and snapshots).
    pub fn storage_stats(&self) -> StorageStats {
        self.backend.stats()
    }

    // ------------------------------------------------------------------
    // Recovery (applying a recovered store to a fresh engine)
    // ------------------------------------------------------------------

    /// Applies a recovered store to this (fresh) engine: the snapshot's
    /// links, table rows and aggregate-provenance entries, then the committed
    /// WAL tail in commit order, then the clock and the commit sequence.  The
    /// snapshot's node count must already match the topology's.
    pub fn recover(&mut self, state: &RecoveredState) {
        if let Some(snap) = &state.snapshot {
            let existing: Vec<(NodeId, NodeId)> =
                self.topology.links().map(|(a, b, _)| (a, b)).collect();
            let topo = self.topology_mut();
            for (a, b) in existing {
                topo.remove_link(a, b);
            }
            for l in &snap.links {
                topo.add_link(l.a, l.b, link_props(l));
            }
            for dump in &snap.tables {
                let owner = self.owner(dump.node);
                let store = &mut self.shards[owner].store;
                for (tuple, count) in &dump.rows {
                    store
                        .table_mut(dump.node, tuple.relation)
                        .restore(Arc::clone(tuple), *count);
                }
            }
            for entry in &snap.agg {
                let pair = (Arc::clone(&entry.prov), Arc::clone(&entry.exec));
                self.set_agg_prov(entry.node, entry.relation, &entry.group, Some(pair));
            }
        }
        for op in state.batches.iter().flat_map(|batch| &batch.ops) {
            self.replay_wal_op(op);
        }
        // Scheduling and commits continue from where the crashed run
        // committed.
        let (seq, time_bits) = state.watermark();
        self.commit_seq = seq;
        let time = f64::from_bits(time_bits);
        for shard in &mut self.shards {
            shard.sim.advance_to(time);
            shard.last_delta_time = time;
        }
    }

    /// Installs (`Some`) or removes the aggregate-provenance pair of one
    /// group at its owning shard.
    fn set_agg_prov(
        &mut self,
        node: NodeId,
        relation: RelId,
        group: &[Value],
        pair: Option<(Arc<Tuple>, Arc<Tuple>)>,
    ) {
        let owner = self.owner(node);
        let agg_prov = &mut self.shards[owner].agg_prov;
        let key = (node, relation, group.to_vec());
        match pair {
            Some(pair) => agg_prov.insert(key, pair),
            None => agg_prov.remove(&key),
        };
    }

    /// Replays one journaled operation.  Tuple intents run through the
    /// identical table code that produced them, so replay reproduces
    /// duplicate counts, keyed replacement and decrement-vs-remove outcomes
    /// exactly; rules are *not* re-fired (their derived deltas were
    /// journaled as their own operations).
    fn replay_wal_op(&mut self, op: &WalOp) {
        match op {
            WalOp::Tuple {
                node,
                insert,
                tuple,
            } => {
                let owner = self.owner(*node);
                let table = self.shards[owner].store.table_mut(*node, tuple.relation);
                if *insert {
                    table.insert_shared(tuple);
                } else {
                    table.delete(tuple);
                }
            }
            WalOp::Link { add, link } => {
                let topo = self.topology_mut();
                if *add {
                    topo.add_link(link.a, link.b, link_props(link));
                } else {
                    topo.remove_link(link.a, link.b);
                }
            }
            WalOp::AggProv {
                install,
                node,
                relation,
                group,
                tuples,
            } => {
                let pair = tuples.clone().filter(|_| *install);
                self.set_agg_prov(*node, *relation, group, pair);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_ndlog::programs;
    use exspan_netsim::Topology;

    fn link(s: NodeId, d: NodeId, c: i64) -> Tuple {
        Tuple::new("link", s, vec![Value::Node(d), Value::Int(c)])
    }

    fn best(s: NodeId, d: NodeId, c: i64) -> Tuple {
        Tuple::new("bestPathCost", s, vec![Value::Node(d), Value::Int(c)])
    }

    /// Shared-handle membership test (the tests read state through the
    /// zero-copy accessors).
    fn contains(tuples: &[Arc<Tuple>], t: &Tuple) -> bool {
        tuples.iter().any(|x| **x == *t)
    }

    /// Inserts both directions of every link of the topology as base tuples
    /// (the paper assumes symmetric links).
    fn seed_links(engine: &mut Engine) {
        let links: Vec<(NodeId, NodeId, i64)> = engine
            .topology()
            .links()
            .map(|(a, b, p)| (a, b, p.cost))
            .collect();
        for (a, b, cost) in links {
            engine.insert_base(a, link(a, b, cost));
            engine.insert_base(b, link(b, a, cost));
        }
    }

    #[test]
    fn mincost_on_paper_topology_matches_figure_3() {
        // Figure 3: best path cost a->c is 5 (direct, or via b: 3+2=5).
        let topo = Topology::paper_example();
        let mut engine = Engine::new(programs::mincost(), topo, EngineConfig::default());
        seed_links(&mut engine);
        let stats = engine.run_to_fixpoint();
        assert!(stats.steps > 0);

        // a = node 0, b = 1, c = 2, d = 3.
        let a_best = engine.tuples_shared(0, "bestPathCost");
        let get = |d: NodeId| -> i64 {
            a_best
                .iter()
                .find(|t| t.values[0] == Value::Node(d))
                .map_or(i64::MAX, |t| t.values[1].as_int().unwrap())
        };
        assert_eq!(get(1), 3); // a->b direct
        assert_eq!(get(2), 5); // a->c direct or via b
        assert_eq!(get(3), 8); // a->b->c->d = 3+2+3
                               // b's best cost to c is 2.
        let b_best = engine.tuples_shared(1, "bestPathCost");
        assert!(contains(&b_best, &best(1, 2, 2)));
        // pathCost(@a,c,5) has two derivations (Figure 4).
        let pc = Tuple::new("pathCost", 0, vec![Value::Node(2), Value::Int(5)]);
        assert_eq!(engine.derivation_count(&pc), 2);
    }

    #[test]
    fn mincost_handles_link_deletion_incrementally() {
        let topo = Topology::paper_example();
        let mut engine = Engine::new(programs::mincost(), topo, EngineConfig::default());
        seed_links(&mut engine);
        engine.run_to_fixpoint();
        // Delete the direct a-c link (cost 5) in both directions.
        engine.delete_base(0, link(0, 2, 5));
        engine.delete_base(2, link(2, 0, 5));
        engine.run_to_fixpoint();
        // Best cost a->c remains 5 via b (3+2), but now with one derivation.
        let a_best = engine.tuples_shared(0, "bestPathCost");
        assert!(contains(&a_best, &best(0, 2, 5)));
        let pc = Tuple::new("pathCost", 0, vec![Value::Node(2), Value::Int(5)]);
        assert_eq!(engine.derivation_count(&pc), 1);
        // Now delete a-b as well: a's only neighbour left is... none (a had b and c).
        engine.delete_base(0, link(0, 1, 3));
        engine.delete_base(1, link(1, 0, 3));
        engine.run_to_fixpoint();
        let a_best = engine.tuples_shared(0, "bestPathCost");
        assert!(
            a_best.is_empty(),
            "a is disconnected, all bestPathCost tuples must be retracted, got {a_best:?}"
        );
    }

    #[test]
    fn mincost_cost_improvement_replaces_keyed_row() {
        // Line 0-1-2 with expensive direct link 0-2; adding a cheap link later
        // must lower the best cost (keyed update) and cascade.
        let mut topo = Topology::empty(3);
        use exspan_netsim::{LinkClass, LinkProps};
        let props = |cost| LinkProps {
            cost,
            ..LinkProps::from_class(LinkClass::Custom)
        };
        topo.add_link(0, 1, props(10));
        topo.add_link(1, 2, props(10));
        let mut engine = Engine::new(programs::mincost(), topo, EngineConfig::default());
        seed_links(&mut engine);
        engine.run_to_fixpoint();
        assert!(contains(
            &engine.tuples_shared(0, "bestPathCost"),
            &best(0, 2, 20)
        ));
        // New cheap direct link 0-2.
        engine.topology_mut().add_link(0, 2, props(3));
        engine.insert_base(0, link(0, 2, 3));
        engine.insert_base(2, link(2, 0, 3));
        engine.run_to_fixpoint();
        let bests = engine.tuples_shared(0, "bestPathCost");
        assert!(contains(&bests, &best(0, 2, 3)));
        assert!(!contains(&bests, &best(0, 2, 20)));
        // Node 1's cost to 2 must not regress.
        assert!(contains(
            &engine.tuples_shared(1, "bestPathCost"),
            &best(1, 2, 10)
        ));
    }

    #[test]
    fn path_vector_computes_loop_free_paths() {
        let topo = Topology::paper_example();
        let mut engine = Engine::new(programs::path_vector(), topo, EngineConfig::default());
        seed_links(&mut engine);
        engine.run_to_fixpoint();
        // Best path a->d must be a,b,c,d (cost 8) or a,c,d (cost 8): both cost
        // 8; accept either but require cost 8 and a loop-free path ending at d.
        let best_paths = engine.tuples_shared(0, "bestPath");
        let to_d = best_paths
            .iter()
            .find(|t| t.values[0] == Value::Node(3))
            .expect("a must have a best path to d");
        assert_eq!(to_d.values[2], Value::Int(8));
        let path = to_d.values[1].as_list().unwrap();
        assert_eq!(path.first(), Some(&Value::Node(0)));
        assert_eq!(path.last(), Some(&Value::Node(3)));
        let unique: std::collections::BTreeSet<_> = path.iter().collect();
        assert_eq!(unique.len(), path.len(), "path must be loop-free");
    }

    #[test]
    fn packet_forward_delivers_along_best_path() {
        let topo = Topology::paper_example();
        let mut engine = Engine::new(programs::packet_forward(), topo, EngineConfig::default());
        seed_links(&mut engine);
        engine.run_to_fixpoint();
        // Send a packet from a (0) to d (3).
        let packet = Tuple::new(
            "ePacket",
            0,
            vec![Value::Node(0), Value::Node(3), Value::Payload(1024)],
        );
        engine.insert_base(0, packet);
        engine.run_to_fixpoint();
        let received = engine.tuples_shared(3, "recvPacket");
        assert_eq!(received.len(), 1, "packet must be delivered exactly once");
        assert_eq!(received[0].values[0], Value::Node(0));
        assert_eq!(received[0].values[1], Value::Node(3));
        // No other node materialized a recvPacket.
        for n in [0, 1, 2] {
            assert!(engine.tuples_shared(n, "recvPacket").is_empty());
        }
    }

    #[test]
    fn traffic_is_accounted_for_remote_derivations() {
        let topo = Topology::paper_example();
        let mut engine = Engine::new(programs::mincost(), topo, EngineConfig::default());
        seed_links(&mut engine);
        engine.run_to_fixpoint();
        let stats = engine.stats();
        assert!(stats.total_bytes() > 0, "protocol must exchange messages");
        assert!(stats.total_messages() > 0);
        // Every node participates.
        for n in 0..4 {
            assert!(stats.bytes_sent[n] > 0, "node {n} sent nothing");
        }
    }

    #[test]
    fn run_until_respects_time_limit() {
        let topo = Topology::transit_stub(1, 5);
        let mut engine = Engine::new(programs::mincost(), topo, EngineConfig::default());
        seed_links(&mut engine);
        let stats = engine.run_until(0.01, None);
        assert!(engine.now() <= 0.011);
        assert!(stats.steps > 0);
    }

    #[test]
    fn aggregate_provenance_creates_prov_and_rule_exec() {
        use exspan_ndlog::ast::TableDecl;
        let topo = Topology::paper_example();
        // Declaring the two provenance tables is what turns the native
        // aggregate instrumentation on.
        let mut program = programs::mincost();
        program.tables.push(TableDecl::new("prov", 4));
        program.tables.push(TableDecl::new("ruleExec", 4));
        let mut engine = Engine::new(program, topo, EngineConfig::default());
        seed_links(&mut engine);
        engine.run_to_fixpoint();
        // bestPathCost(@a,c,5) must have a prov entry pointing at a ruleExec
        // for sp3 whose input is pathCost(@a,c,5).
        let target = best(0, 2, 5);
        let prov = engine.tuples_shared(0, "prov");
        let entry = prov
            .iter()
            .find(|t| t.values[0] == Value::from_digest(target.vid()))
            .expect("prov entry for bestPathCost(@a,c,5)");
        let rid = entry.values[1].clone();
        let execs = engine.tuples_shared(0, "ruleExec");
        let exec = execs
            .iter()
            .find(|t| t.values[0] == rid)
            .expect("ruleExec entry");
        assert_eq!(exec.values[1], Value::Str("sp3".into()));
        let pc_vid = Tuple::new("pathCost", 0, vec![Value::Node(2), Value::Int(5)]).vid();
        assert_eq!(
            exec.values[2],
            Value::list(vec![Value::Digest(pc_vid.0)]),
            "sp3's provenance child is the winning pathCost tuple"
        );
    }

    type Fingerprint = (Vec<Arc<Tuple>>, Vec<u64>, Vec<(f64, f64)>);

    /// Collects a canonical snapshot of the engine's full visible state and
    /// traffic accounting, for sharded-vs-sequential comparisons.
    fn state_fingerprint(engine: &Engine, relations: &[&str]) -> Fingerprint {
        let mut tuples = Vec::new();
        for r in relations {
            tuples.extend(engine.tuples_everywhere_shared(r));
        }
        let stats = engine.stats();
        (
            tuples,
            stats.bytes_sent.clone(),
            stats.avg_bandwidth_samples(),
        )
    }

    #[test]
    fn sharded_mincost_is_bit_identical_to_sequential() {
        let relations = ["link", "pathCost", "bestPathCost"];
        let build = |shards: usize| {
            let topo = Topology::transit_stub(1, 42);
            let mut engine = Engine::new(
                programs::mincost(),
                topo,
                EngineConfig {
                    shards,
                    ..Default::default()
                },
            );
            seed_links(&mut engine);
            let stats = engine.run_to_fixpoint();
            (state_fingerprint(&engine, &relations), stats)
        };
        let (seq_state, seq_stats) = build(1);
        for shards in [2, 4] {
            let (sharded_state, sharded_stats) = build(shards);
            assert_eq!(
                seq_state, sharded_state,
                "{shards}-shard run diverged from the sequential oracle"
            );
            assert_eq!(seq_stats, sharded_stats, "fixpoint stats diverged");
        }
    }

    #[test]
    fn sharded_deletion_cascade_matches_sequential() {
        let relations = ["link", "pathCost", "bestPathCost"];
        let build = |shards: usize| {
            let topo = Topology::testbed_ring(24, 7);
            let mut engine = Engine::new(
                programs::mincost(),
                topo,
                EngineConfig {
                    shards,
                    ..Default::default()
                },
            );
            seed_links(&mut engine);
            engine.run_to_fixpoint();
            // Delete a few links and re-run, exercising cross-shard retraction.
            for (a, b) in [(0u32, 1u32), (5, 6), (10, 11)] {
                let cost = engine.topology().link(a, b).map_or(1, |p| p.cost);
                engine.topology_mut().remove_link(a, b);
                engine.delete_base(a, link(a, b, cost));
                engine.delete_base(b, link(b, a, cost));
            }
            engine.run_to_fixpoint();
            state_fingerprint(&engine, &relations)
        };
        let oracle = build(1);
        assert_eq!(oracle, build(3), "3-shard churned run diverged");
        assert_eq!(oracle, build(4), "4-shard churned run diverged");
    }

    #[test]
    fn run_until_hands_externals_to_the_sink_in_step_order() {
        /// Collects surfaced externals; replies once to the first one so the
        /// reply's surfacing proves the sink can drive the engine re-entrantly.
        struct Collect {
            seen: Vec<(NodeId, Tuple, f64)>,
            replied: bool,
        }
        impl ExternalSink for Collect {
            fn on_external(
                &mut self,
                engine: &mut Engine,
                node: NodeId,
                tuple: Arc<Tuple>,
                time: f64,
                _insert: bool,
            ) {
                self.seen.push((node, (*tuple).clone(), time));
                if !self.replied && tuple.relation == "eProvQuery" {
                    self.replied = true;
                    let reply = Tuple::new("eProvResults", (node + 1) % 4, vec![Value::Int(7)]);
                    engine.send_tuple(node, (node + 1) % 4, reply, 0);
                }
            }
        }

        let run = |shards: usize| {
            let topo = Topology::paper_example();
            let mut engine = Engine::new(
                programs::mincost(),
                topo,
                EngineConfig {
                    shards,
                    ..Default::default()
                },
            );
            seed_links(&mut engine);
            engine.run_to_fixpoint();
            for n in 0..4u32 {
                let q = Tuple::new("eProvQuery", n, vec![Value::Int(n as i64)]);
                engine.send_tuple(n, (n + 1) % 4, q, 0);
            }
            let mut sink = Collect {
                seen: Vec::new(),
                replied: false,
            };
            let stats = engine.run_until(f64::INFINITY, Some(&mut sink));
            (sink.seen, stats.external)
        };
        let (seq, externals) = run(1);
        // All four queries plus the sink's reply were surfaced (not dropped).
        assert_eq!(externals, 5);
        assert_eq!(seq.len(), 5);
        assert!(seq.iter().any(|(_, t, _)| t.relation == "eProvResults"));
        // And the stepping loop is shard-count independent.
        assert_eq!(seq, run(3).0);
        assert_eq!(seq, run(4).0);
    }

    #[test]
    fn run_until_with_a_sink_respects_the_time_limit() {
        struct Ignore;
        impl ExternalSink for Ignore {
            fn on_external(&mut self, _: &mut Engine, _: NodeId, _: Arc<Tuple>, _: f64, _: bool) {}
        }
        let topo = Topology::transit_stub(1, 5);
        let mut engine = Engine::new(programs::mincost(), topo, EngineConfig::default());
        seed_links(&mut engine);
        let stats = engine.run_until(0.01, Some(&mut Ignore));
        assert!(engine.now() <= 0.011);
        assert!(stats.steps > 0);
        assert!(engine.peek_time().is_some(), "events must remain queued");
    }

    #[test]
    fn both_loops_agree_with_and_without_a_sink() {
        /// Records the arrival time of every external it is handed.
        struct Record(Vec<f64>);
        impl ExternalSink for Record {
            fn on_external(&mut self, _: &mut Engine, _: NodeId, _: Arc<Tuple>, t: f64, _: bool) {
                self.0.push(t);
            }
        }

        // Externals beside route maintenance and forwarded packets: probes
        // (event tuples no rule handles) sent over the network before the
        // routes converge and scheduled locally after.  The 3-shard run
        // without a sink is `run_parallel`; the other three are the stepping
        // loop.
        let run = |shards: usize, with_sink: bool| {
            let config = EngineConfig {
                shards,
                ..Default::default()
            };
            let mut engine = Engine::new(
                programs::packet_forward(),
                Topology::paper_example(),
                config,
            );
            seed_links(&mut engine);
            for n in 0..4u32 {
                let peer = (n + 2) % 4;
                let probe =
                    |at: NodeId, id: u32| Tuple::new("eProbe", at, vec![Value::Int(id.into())]);
                engine.send_tuple(n, peer, probe(peer, n), 16);
                engine.schedule_delta(0.003 * f64::from(n + 1), n, probe(n, 10 + n), true);
                let packet = vec![Value::Node(n), Value::Node(peer), Value::Payload(256)];
                engine.schedule_delta(0.05, n, Tuple::new("ePacket", n, packet), true);
            }
            let mut sink = Record(Vec::new());
            let mut advance = |engine: &mut Engine, limit: f64| {
                let sink: Option<&mut dyn ExternalSink> =
                    if with_sink { Some(&mut sink) } else { None };
                engine.run_until(limit, sink)
            };
            let at_limit = advance(&mut engine, 0.0065);
            // Nothing is due by the same limit a second time, and events
            // remain queued: the empty window spawns no worker threads.
            let idle = advance(&mut engine, 0.0065);
            assert_eq!((idle.steps, idle.external), (0, 0));
            assert_eq!(idle.fixpoint_time, at_limit.fixpoint_time);
            let next = engine.peek_time();
            let queued: usize = engine.shards.iter().map(|s| s.sim.pending()).sum();
            let rest = advance(&mut engine, f64::INFINITY);
            assert_eq!(engine.peek_time(), None);
            assert_eq!(advance(&mut engine, f64::INFINITY).steps, 0, "drained");
            if with_sink {
                assert_eq!(sink.0.len() as u64, at_limit.external + rest.external);
                assert!(sink.0.windows(2).all(|w| w[0] <= w[1]), "{:?}", sink.0);
            }
            let bytes = engine.stats().total_bytes();
            let received = engine.tuples_everywhere_shared("recvPacket").len();
            let digest = engine.state_digest();
            (at_limit, next, queued, rest, bytes, received, digest)
        };
        let reference = run(1, false);
        let (at_limit, next, queued, rest, _, received, _) = reference;
        assert!(
            at_limit.external > 0 && rest.external > 0,
            "externals on both sides"
        );
        assert_eq!(at_limit.external + rest.external, 8);
        assert!(next.is_some() && queued > 0, "the limit must cut the run");
        assert_eq!(received, 4, "every packet delivered");
        assert_eq!(reference, run(1, true), "1 shard, sink");
        assert_eq!(reference, run(3, false), "3 shards, run_parallel");
        assert_eq!(reference, run(3, true), "3 shards, sink");
    }
}
