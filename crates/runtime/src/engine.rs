//! The distributed NDlog engine: its shards and their two event loops.
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
//! With more than one shard, no listening caller and a positive hop, it runs
//! the shards in *barrier windows*, shard 0 on the calling thread and each
//! other shard on a thread of its own, with no coordinator.  Every shard
//! publishes its earliest pending event time, and after a barrier each reads
//! all of them and computes the same horizon `t_min + L`, where `t_min` is
//! the earliest time across all shards and `L` the simulator's hop
//! ([`Simulator::hop`]: the smallest link latency of the topology, the
//! *lookahead*); it then processes its events strictly before the horizon.
//! A cross-shard delta produced inside the window — routed, or crossing a
//! partition after one `L` hop — is due no earlier than the window's end,
//! so delivering it to its shard's mailbox at the window's second barrier
//! never reorders anything.  A value-based history leaves its shard's BDD
//! store in the canonical encoding and is rebuilt in the destination's as
//! the destination drains its mailbox.  Every event carries an
//! execution-independent ordering key (`(time, source node, per-source
//! sequence)`), per-node state is only ever touched by the owning shard, and
//! the traffic counters are integral — which together make the sharded run
//! *bit-identical* to the one-shard run, as the determinism tests assert.
//!
//! Otherwise — one shard, a caller listening, or a zero-latency link, which
//! leaves a window no lookahead — it steps through the events one at a time
//! in global key order on the calling thread (at one shard simply the
//! shard's own queue), returning each external tuple to a listening caller
//! as it arrives ([`External`]).  That cannot be done from inside a barrier
//! window: the caller reads tables and the clock *at the event*, and the
//! window has by then applied later deltas of the same node.

use crate::shard::{RuleData, Shard};
use crate::table::ProbeIter;
use crate::value_policy::ValueBddPolicy;
use exspan_bdd::{Bdd, Variables};
use exspan_ndlog::ast::{BodyItem, Program};
use exspan_ndlog::is_event_predicate;
use exspan_ndlog::plan::ProgramPlans;
use exspan_netsim::{
    LinkClass, LinkProps, RoutedEvent, ShardView, Simulator, Topology, TrafficStats,
};
use exspan_store::{AggProvEntry, LinkRecord, RecoveredState, SnapshotData, StoreError, WalOp};
use exspan_types::fxhash::FxHashMap;
use exspan_types::{wire, Digest, NodeId, RelId, Symbol, Tuple, Value, Vid};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Name of the internal event used to trigger aggregate-group recomputation.
/// The `$` prefix keeps it out of the namespace of user-defined relations.
pub(crate) const AGG_RECOMPUTE_EVENT: &str = "$aggRecompute";

/// Message payload exchanged between nodes (and enqueued locally): a tuple
/// delta, the insertion (`insert = true`) or deletion of `tuple` at the
/// destination node.
///
/// Deltas carry their tuple behind an [`Arc`]: the queue entry, the table row
/// it becomes on arrival and every join input cloned from it all share one
/// allocation.
#[derive(Debug, Clone)]
pub struct Payload {
    /// The tuple being inserted or deleted (shared, never mutated).
    pub tuple: Arc<Tuple>,
    /// Polarity of the delta.
    pub insert: bool,
    /// The derivation history value-based provenance ships with the delta
    /// ([`ValueBddPolicy`]); `None` in every other mode.
    pub token: Option<Bdd>,
}

/// An event tuple that arrived for which the engine has no rules.  Higher
/// layers (the provenance query protocol) handle these.
#[derive(Debug)]
pub struct External {
    /// Node at which the tuple arrived.
    pub node: NodeId,
    /// The tuple itself (shared with the delta that carried it).
    pub tuple: Arc<Tuple>,
    /// Simulated arrival time.
    pub time: f64,
}

/// Statistics about a fixpoint computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixpointStats {
    /// Simulated time at which the last delta was processed.
    pub fixpoint_time: f64,
    /// Number of events processed.
    pub steps: u64,
}

/// Runaway guard: the most events one `run_until` call processes, or a
/// caller re-entering it per external tuple.  The parallel loop checks it
/// once per barrier window, so it may process slightly more.
pub const MAX_STEPS: u64 = 200_000_000;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// At most how many shards (worker threads) execute the protocol; 1
    /// keeps everything on the calling thread.  An engine built with a
    /// journal ([`Engine::with_parts`]) runs one shard whatever this says; a
    /// value-mode engine runs them all, each with a BDD store of its own.
    pub shards: usize,
    /// When `true`, the engine additionally accounts every transmitted
    /// message under the dictionary size model ([`exspan_types::compress`]):
    /// tuple contents dictionary-charged, a value-based annotation at its
    /// BDD's compressed size
    /// ([`exspan_bdd::BddStore::compressed_serialized_size`]).  Off by
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
    /// The variable of each base tuple, under value-based provenance.
    variables: Option<Variables<Arc<Tuple>>>,
}

/// Events leaving one shard for another, with the history each one ships
/// in the canonical encoding ([`exspan_bdd::BddStore::encode`]): a history
/// is a handle into its own shard's store, and means nothing in another.
#[derive(Default)]
struct Parcel {
    events: Vec<RoutedEvent<Payload>>,
    /// The events' encoded histories, back to back, and their lengths.
    histories: Vec<u8>,
    lengths: Vec<usize>,
}

impl Parcel {
    /// Adds `ev`, encoding its history out of its shard's `policy`.
    fn pack(&mut self, policy: Option<&mut ValueBddPolicy>, ev: RoutedEvent<Payload>) {
        if let (Some(policy), Some(token)) = (policy, ev.msg.payload.token) {
            let start = self.histories.len();
            policy.store.encode(token, &mut self.histories);
            self.lengths.push(self.histories.len() - start);
        }
        self.events.push(ev);
    }

    /// Queues every event at `shard`, its history rebuilt in the shard's
    /// store, emptying the parcel.
    fn unpack(&mut self, shard: &mut Shard) {
        let (mut lengths, mut at) = (self.lengths.drain(..), 0);
        for mut ev in self.events.drain(..) {
            if let (Some(policy), Some(token)) = (&mut shard.policy, &mut ev.msg.payload.token) {
                let len = lengths.next().expect("an encoding per history");
                *token = policy.store.decode(&self.histories[at..at + len]);
                at += len;
            }
            shard.sim.push_routed(ev);
        }
        self.histories.clear();
    }
}

fn link_record(a: NodeId, b: NodeId, props: &LinkProps) -> LinkRecord {
    LinkRecord {
        a,
        b,
        latency_bits: props.latency.to_bits(),
        bandwidth_bits: props.bandwidth.to_bits(),
        cost: props.cost,
        class: props.class as u8,
    }
}

fn link_props(record: &LinkRecord) -> LinkProps {
    LinkProps {
        latency: f64::from_bits(record.latency_bits),
        bandwidth: f64::from_bits(record.bandwidth_bits),
        cost: record.cost,
        class: LinkClass::ALL
            .get(usize::from(record.class))
            .map_or(LinkClass::Custom, |c| *c),
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
        Self::with_parts(program, topology, config, false, false)
    }

    /// Creates an engine that maintains value-based provenance if `value` is
    /// set (a [`ValueBddPolicy`] per shard, [`crate::value_policy`]) and, if
    /// `journal` is set, journals every change to its state as a [`WalOp`]
    /// for its owner to take ([`Engine::take_journal`]) and make durable.
    /// One journal is one shard's record, so a journaling engine runs one
    /// shard whatever [`EngineConfig::shards`] says.
    pub fn with_parts(
        program: Program,
        topology: Topology,
        config: EngineConfig,
        value: bool,
        journal: bool,
    ) -> Self {
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
        let plans = ProgramPlans::compile(&program);
        let num_shards = if journal { 1 } else { config.shards.max(1) };
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
            provenance_relations: [Symbol::intern("prov"), Symbol::intern("ruleExec")],
        });
        let topo_arc = Arc::new(topology.clone());
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|i| {
                let mut sim = Simulator::with_bucket_width(Arc::clone(&topo_arc), 0.1);
                if num_shards > 1 {
                    sim.configure_shard(ShardView {
                        assignment: Arc::clone(&assignment),
                        shard_id: i as u16,
                    });
                }
                let mut shard = Shard::new(Arc::clone(&data), keys.clone(), sim);
                shard.policy = value.then(ValueBddPolicy::default);
                shard
            })
            .collect();
        shards[0].journal = journal.then(Vec::new);
        Engine {
            data,
            topology,
            topo_dirty: false,
            assignment,
            shards,
            variables: value.then(Variables::default),
        }
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

    /// Each shard's value-based provenance, if the engine keeps it.
    pub fn policies(&self) -> impl Iterator<Item = &ValueBddPolicy> {
        self.shards.iter().filter_map(|s| s.policy.as_ref())
    }

    /// Annotation bytes attached to transmitted tuples so far, summed across
    /// the shards; `None` without value-based provenance.
    pub fn annotation_bytes(&self) -> Option<u64> {
        let bytes = self.policies().map(ValueBddPolicy::total_annotation_bytes);
        self.variables.as_ref().map(|_| bytes.sum())
    }

    /// The value-based provenance of `tuple`: the annotation of its row at
    /// its own location.  `None` without value-based provenance or a visible
    /// row — an event keeps none.  The handle belongs to the store of the
    /// shard owning the location; any other reads it as another function.
    pub fn annotation_of(&self, tuple: &Tuple) -> Option<Bdd> {
        self.variables.as_ref()?;
        let shard = &self.shards[self.owner(tuple.location)];
        let table = shard.store.table(tuple.location, tuple.relation)?;
        table.annotation(tuple)
    }

    /// Derivability of `tuple` under a trust assignment over base tuples
    /// (value mode, answered locally by the shard owning the tuple): is it
    /// derivable using only trusted base tuples?  A tuple not visible is
    /// not.  `None` without value-based provenance.
    pub fn derivable_under<F: Fn(Vid) -> bool>(&self, tuple: &Tuple, trusted: F) -> Option<bool> {
        let variables = self.variables.as_ref()?;
        let policy = self.shards[self.owner(tuple.location)].policy.as_ref()?;
        let annotation = self.annotation_of(tuple);
        Some(annotation.is_some_and(|b| variables.derivable_under(&policy.store, b, trusted)))
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

    /// Bytes sent by every node, summed across shards: the total of
    /// [`Engine::stats`] without cloning and merging the bandwidth series.
    pub fn total_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sim.stats().total_bytes())
            .sum()
    }

    /// Total bytes every transmitted message would have cost under the
    /// dictionary size model, summed across shards.  Only accumulates when
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

    /// The network topology, mutably and unjournaled (recovery writes it
    /// directly).  Shards receive the updated snapshot before the next run.
    fn topology_mut(&mut self) -> &mut Topology {
        self.topo_dirty = true;
        &mut self.topology
    }

    /// Adds (or replaces) a link of the topology and journals the change.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, props: LinkProps) {
        self.topology_mut().add_link(a, b, props);
        self.record_link(true, a, b, &props);
    }

    /// Removes the link between `a` and `b` and journals the removal, if
    /// there is such a link; returns its properties.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> Option<LinkProps> {
        let props = self.topology.link(a, b).copied()?;
        self.topology_mut().remove_link(a, b);
        self.record_link(false, a, b, &props);
        Some(props)
    }

    /// Journals a link change the engine applied (a journaling engine has
    /// one shard, whose journal takes it).
    fn record_link(&mut self, add: bool, a: NodeId, b: NodeId, props: &LinkProps) {
        self.shards[0].journal_op(|| WalOp::Link {
            add,
            link: link_record(a, b, props),
        });
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

    /// The join's own [`Table::probe`](crate::Table::probe) of `relation` at
    /// `node`: its rows holding `key` at `cols` (0 = location), borrowed in
    /// place, in scan order.  `None` when `node` has no such table, or when
    /// no prefix of its primary key serves `cols`.
    pub fn probe<'a>(
        &'a self,
        node: NodeId,
        relation: RelId,
        cols: &'a [usize],
        key: &'a [Value],
    ) -> Option<ProbeIter<'a>> {
        let table = self.shards[self.owner(node)].store.table(node, relation)?;
        table.probe(cols, key)
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
        let token = self.entering_history(owner, &tuple, insert);
        self.shards[owner].sim.schedule_at(
            time,
            node,
            Payload {
                tuple,
                insert,
                token,
            },
        );
    }

    /// The history a delta entering from outside at shard `owner` ships
    /// under value-based provenance: its base tuple's variable, numbered on
    /// first sight, for an insertion or an event a rule hears, made in the
    /// shard's store.  A deletion takes its row's.
    fn entering_history(&mut self, owner: usize, tuple: &Arc<Tuple>, insert: bool) -> Option<Bdd> {
        let variables = self.variables.as_mut()?;
        let fires = insert || is_event_predicate(tuple.relation.as_str());
        if !fires || self.data.is_external(tuple.relation) {
            return None;
        }
        let id = variables.id(Arc::clone(tuple), |t| t.vid());
        Some(self.shards[owner].policy.as_mut()?.store.var(id))
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
            // Query-layer annotations are opaque to the size model: the
            // tuple contents compress, the annotation is charged as-is.
            self.shards[owner].compressed_bytes += exspan_types::compress::compressed_message_size(
                std::slice::from_ref(&tuple),
                extra_bytes,
            ) as u64;
        }
        let tuple = Arc::new(tuple);
        let token = self.entering_history(owner, &tuple, true);
        self.shards[owner].sim.send(
            from,
            to,
            bytes,
            Payload {
                tuple,
                insert: true,
                token,
            },
        );
        self.flush_outboxes();
        bytes
    }

    /// From now on, every shard records the vertex (`values[0]`: a VID or
    /// RID) of each `prov`/`ruleExec` row it inserts or deletes visibly, for
    /// [`Engine::drain_vertex_changes`].  Every change to the provenance
    /// graph is such a row change, so this is what a higher layer caching
    /// results computed from the graph (the query layer) needs to hear of.
    pub fn record_vertex_changes(&mut self) {
        for shard in &mut self.shards {
            shard.vertex_changes.get_or_insert_with(Vec::new);
        }
    }

    /// Takes every vertex recorded since the last drain, shard by shard
    /// (nothing before [`Engine::record_vertex_changes`]).
    pub fn drain_vertex_changes(&mut self) -> impl Iterator<Item = Digest> + '_ {
        self.shards
            .iter_mut()
            .filter_map(|s| s.vertex_changes.as_mut())
            .flat_map(|changes| changes.drain(..))
    }

    /// Moves every event a shard diverted to a foreign shard straight into
    /// that shard's queue, its history re-made in that shard's store.
    fn flush_outboxes(&mut self) {
        let mut parcel = Parcel::default();
        for i in 0..self.shards.len() {
            for ev in self.shards[i].sim.take_outbox() {
                let dest = self.owner(ev.msg.to);
                parcel.pack(self.shards[i].policy.as_mut(), ev);
                parcel.unpack(&mut self.shards[dest]);
            }
        }
    }

    /// The shard holding the next event in global key order, and that event's
    /// time, or `None` when every queue is empty.  With several shards the
    /// cross-shard deltas in the outboxes are delivered first and the
    /// per-shard queues merged by event key — the exact order one shard would
    /// use.  One shard diverts nothing to an outbox, so its own queue is the
    /// answer.
    fn next_event(&mut self) -> Option<(usize, f64)> {
        if let [only] = self.shards.as_slice() {
            return only.sim.peek_time().map(|t| (0, t));
        }
        self.flush_outboxes();
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

    /// Runs until the event queue is empty (global fixpoint), dropping
    /// external tuples.
    pub fn run_to_fixpoint(&mut self) -> FixpointStats {
        self.run_until(f64::INFINITY, false).0
    }

    /// Runs until the next event would occur after `time_limit` (or the
    /// queues empty), or, when `listen`ing, until an external tuple — an
    /// event tuple no rule handles — arrives.
    ///
    /// A listening run steps in global deterministic event order and hands
    /// the external tuple back with the engine paused at its arrival: a
    /// higher layer (the provenance query protocol) handles it and calls
    /// again, so it advances on the *same* simulated clock as protocol
    /// maintenance and churn.  Otherwise external tuples are dropped, and a
    /// multi-shard engine is free to use the parallel barrier loop; the
    /// result is bit-identical either way.
    pub fn run_until(
        &mut self,
        time_limit: f64,
        listen: bool,
    ) -> (FixpointStats, Option<External>) {
        self.sync_topology();
        let steps_before: u64 = self.shards.iter().map(|s| s.processed).sum();
        let mut external = None;
        // The hop is the lookahead: a zero-latency link leaves a barrier
        // window none, so step.
        let lookahead = self.shards[0].sim.hop();
        if self.shards.len() > 1 && !listen && lookahead > 0.0 {
            // `next_event` delivers the in-flight cross-shard deltas; with
            // nothing due by the limit (an idle server's every loop turn) no
            // worker thread is spawned for the empty window.
            if self.next_event().is_some_and(|(_, t)| t <= time_limit) {
                self.run_parallel(time_limit, lookahead);
            }
        } else {
            let mut steps = 0u64;
            while steps < MAX_STEPS && external.is_none() {
                let Some((idx, t)) = self.next_event() else {
                    break;
                };
                if t > time_limit {
                    break;
                }
                steps += 1;
                external = self.shards[idx].step().filter(|_| listen);
            }
        }
        let steps_after: u64 = self.shards.iter().map(|s| s.processed).sum();
        let stats = FixpointStats {
            fixpoint_time: self.last_activity(),
            steps: steps_after - steps_before,
        };
        (stats, external)
    }

    /// The barrier-windowed parallel event loop.  Shard 0 runs on the calling
    /// thread, every other shard on a scoped thread of its own, and all of
    /// them wait twice per window on one barrier.  Each shard publishes its
    /// earliest pending event time and its step count into its own slot and
    /// waits at (a); then every shard reads all slots and decides alike —
    /// stop when nothing is due by `time_limit` or [`MAX_STEPS`] is reached,
    /// else process every event strictly before the horizon, `lookahead`
    /// past the earliest pending one.  It delivers its cross-shard deltas to
    /// the destination mailboxes, their histories encoded out of its own
    /// store, and waits at (w), then pulls its own mailbox into its queue,
    /// rebuilding the histories in its store, and publishes again.  No slot is written
    /// between (a) and the next publication, and no mailbox between (w) and
    /// the next (a), so no shard reads what another is writing.
    fn run_parallel(&mut self, time_limit: f64, lookahead: f64) {
        let num_shards = self.shards.len();
        let barrier = Barrier::new(num_shards);
        // Slot `i`: shard `i`'s earliest pending event time (NaN for none)
        // and its steps so far, as bits.
        let slots: Vec<[AtomicU64; 2]> = (0..num_shards).map(|_| Default::default()).collect();
        let mailboxes: Vec<Mutex<Vec<Parcel>>> =
            (0..num_shards).map(|_| Mutex::default()).collect();
        let mailbox = |dest: usize| mailboxes[dest].lock().expect("mailbox poisoned");
        let assignment = &self.assignment;
        let run = |i: usize, shard: &mut Shard| {
            let mut steps = 0u64;
            // Per-destination coalescing buffers, reused across windows: one
            // locked append per destination shard per window.
            let mut outbound: Vec<Parcel> = (0..num_shards).map(|_| Parcel::default()).collect();
            loop {
                let next = shard.sim.peek_time().unwrap_or(f64::NAN);
                slots[i][0].store(next.to_bits(), Ordering::SeqCst);
                slots[i][1].store(steps, Ordering::SeqCst);
                barrier.wait(); // (a) every shard published
                let min_next = slots
                    .iter()
                    .map(|s| f64::from_bits(s[0].load(Ordering::SeqCst)))
                    .fold(f64::NAN, f64::min);
                let total: u64 = slots.iter().map(|s| s[1].load(Ordering::SeqCst)).sum();
                if min_next.is_nan() || min_next > time_limit || total >= MAX_STEPS {
                    break;
                }
                // The window: every event strictly before the horizon and
                // none after the limit, externals dropped.
                let due = |t: f64| t < min_next + lookahead && t <= time_limit;
                while shard.sim.peek_time().is_some_and(due) {
                    shard.step();
                    steps += 1;
                }
                for ev in shard.sim.take_outbox() {
                    let dest = assignment[ev.msg.to as usize] as usize;
                    outbound[dest].pack(shard.policy.as_mut(), ev);
                }
                for (dest, parcel) in outbound.iter_mut().enumerate() {
                    if !parcel.events.is_empty() {
                        mailbox(dest).push(std::mem::take(parcel));
                    }
                }
                barrier.wait(); // (w) every cross-shard delta delivered
                for mut parcel in mailbox(i).drain(..) {
                    parcel.unpack(shard);
                }
            }
        };
        let (first, rest) = self.shards.split_at_mut(1);
        std::thread::scope(|scope| {
            for (i, shard) in rest.iter_mut().enumerate() {
                scope.spawn(move || run(i + 1, shard));
            }
            run(0, &mut first[0]);
        });
    }

    // ------------------------------------------------------------------
    // Persistence (the journal and the canonical state)
    // ------------------------------------------------------------------

    /// Hands over the operations journaled since the last call, in the order
    /// they changed the state (empty for an engine built without a journal).
    /// Taken after a `run_until` returns — every worker thread has joined —
    /// they are one quiescent batch.
    pub fn take_journal(&mut self) -> Vec<WalOp> {
        self.shards[0]
            .journal
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Collects the full logical state in canonical form: links sorted by
    /// endpoint pair, tables sorted by `(node, relation name)` with rows in
    /// `scan()` order, aggregate-provenance entries sorted by group.  The
    /// encoding of this value is a pure function of logical state — shard
    /// count and execution interleaving do not affect a byte.  Its `seq` is
    /// 0: the store that writes it stamps its own commit watermark.
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
            .flat_map(|s| &s.groups)
            .flat_map(|(&(node, relation), groups)| {
                groups.iter().filter_map(move |(group, g)| {
                    let (prov, exec) = g.prov.as_ref()?;
                    Some(AggProvEntry {
                        node,
                        relation,
                        group: group.clone(),
                        prov: Arc::clone(prov),
                        exec: Arc::clone(exec),
                    })
                })
            })
            .collect();
        agg.sort_by(|x, y| {
            (x.node, x.relation.as_str(), &x.group).cmp(&(y.node, y.relation.as_str(), &y.group))
        });
        SnapshotData {
            seq: 0,
            time_bits: self.last_activity().to_bits(),
            node_count: self.topology.num_nodes() as u32,
            links,
            tables,
            agg,
        }
    }

    /// SHA-1 over the canonical snapshot encoding: equal digests ⇔ equal
    /// logical state, independent of shard count.
    pub fn state_digest(&self) -> exspan_types::Digest {
        let snap = self.collect_snapshot();
        let mut bytes = Vec::new();
        exspan_store::snapshot::encode_snapshot(&snap, &mut bytes);
        exspan_types::sha1_digest(&bytes)
    }

    // ------------------------------------------------------------------
    // Recovery (applying a recovered store to a fresh engine)
    // ------------------------------------------------------------------

    /// Applies a recovered store to this (fresh) engine: the snapshot's
    /// links, table rows and aggregate-provenance entries, then the committed
    /// WAL tail in commit order, then the clock.  Every node the store names
    /// must already be inside the topology.  Fails, applying only part of
    /// the snapshot, on a row count no dump holds.
    pub fn recover(&mut self, state: &RecoveredState) -> Result<(), StoreError> {
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
                        .restore(Arc::clone(tuple), *count)?;
                }
            }
            for entry in &snap.agg {
                let pair = (Arc::clone(&entry.prov), Arc::clone(&entry.exec));
                self.set_group_prov(entry.node, entry.relation, &entry.group, Some(pair));
            }
        }
        for op in state.batches.iter().flat_map(|batch| &batch.ops) {
            self.replay_wal_op(op);
        }
        // A group's last dispatched output is the row its head table holds.
        for shard in &mut self.shards {
            shard.restore_group_outputs();
        }
        // Scheduling continues from where the crashed run committed.
        let (_, time_bits) = state.watermark();
        let time = f64::from_bits(time_bits);
        for shard in &mut self.shards {
            shard.sim.advance_to(time);
            shard.last_delta_time = time;
        }
        Ok(())
    }

    /// Installs (`Some`) or removes the aggregate-provenance pair of one
    /// group at its owning shard.  Recovery restores the groups' outputs
    /// only after this, so a removed pair leaves nothing of its group.
    fn set_group_prov(
        &mut self,
        node: NodeId,
        relation: RelId,
        group: &[Value],
        pair: Option<(Arc<Tuple>, Arc<Tuple>)>,
    ) {
        let owner = self.owner(node);
        let groups = self.shards[owner].groups.entry((node, relation));
        let groups = groups.or_default();
        match pair {
            Some(pair) => groups.entry(group.to_vec()).or_default().prov = Some(pair),
            None => {
                groups.remove(group);
            }
        }
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
                self.set_group_prov(*node, *relation, group, pair);
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

    /// An engine of `program` over `topology` on at most `shards` shards.
    fn sharded(program: Program, topology: Topology, shards: usize) -> Engine {
        let config = EngineConfig {
            shards,
            ..Default::default()
        };
        Engine::new(program, topology, config)
    }

    /// Advances `engine` to `limit` as a deployment does: a listening run is
    /// re-entered after each external tuple it hands back, which `handle`
    /// is given first, with the engine.  Returns the runs' summed stats.
    fn drive(
        engine: &mut Engine,
        limit: f64,
        listen: bool,
        mut handle: impl FnMut(&mut Engine, External),
    ) -> FixpointStats {
        let mut steps = 0;
        loop {
            let (stats, external) = engine.run_until(limit, listen);
            steps += stats.steps;
            match external {
                Some(external) => handle(engine, external),
                None => return FixpointStats { steps, ..stats },
            }
        }
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
        engine.add_link(0, 2, props(3));
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
        // One shard, or a listening caller, steps; two and four shards
        // without one run barrier windows.
        for shards in [1, 2, 4] {
            for listen in [false, true] {
                let topo = Topology::transit_stub(1, 5);
                let mut engine = sharded(programs::mincost(), topo, shards);
                seed_links(&mut engine);
                let stats = drive(&mut engine, 0.01, listen, |_, _| {});
                let clocks = engine.shards.iter().map(|s| s.sim.now());
                assert!(clocks.fold(0.0, f64::max) <= 0.01, "{shards} shards");
                assert!(stats.steps > 0);
                assert!(engine.peek_time().is_some(), "events must remain queued");
            }
        }
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
            let mut engine = sharded(programs::mincost(), topo, shards);
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
            let mut engine = sharded(programs::mincost(), topo, shards);
            seed_links(&mut engine);
            engine.run_to_fixpoint();
            // Delete a few links and re-run, exercising cross-shard retraction.
            for (a, b) in [(0u32, 1u32), (5, 6), (10, 11)] {
                let cost = engine.remove_link(a, b).map_or(1, |p| p.cost);
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
    fn run_until_hands_externals_back_in_step_order() {
        // The caller replies once, to the first query, so the reply's
        // coming back proves the caller can drive the engine between runs.
        let run = |shards: usize| {
            let topo = Topology::paper_example();
            let mut engine = sharded(programs::mincost(), topo, shards);
            seed_links(&mut engine);
            engine.run_to_fixpoint();
            for n in 0..4u32 {
                let q = Tuple::new("eProvQuery", n, vec![Value::Int(n as i64)]);
                engine.send_tuple(n, (n + 1) % 4, q, 0);
            }
            let mut seen = Vec::new();
            let mut replied = false;
            drive(&mut engine, f64::INFINITY, true, |engine, ext| {
                seen.push((ext.node, (*ext.tuple).clone(), ext.time));
                if !replied && ext.tuple.relation == "eProvQuery" {
                    replied = true;
                    let to = (ext.node + 1) % 4;
                    let reply = Tuple::new("eProvResults", to, vec![Value::Int(7)]);
                    engine.send_tuple(ext.node, to, reply, 0);
                }
            });
            seen
        };
        let seq = run(1);
        // All four queries plus the reply were handed back (not dropped).
        assert_eq!(seq.len(), 5);
        assert!(seq.iter().any(|(_, t, _)| t.relation == "eProvResults"));
        // And the stepping loop is shard-count independent.
        assert_eq!(seq, run(3));
        assert_eq!(seq, run(4));
    }

    /// Externals beside route maintenance and forwarded packets: probes
    /// (event tuples no rule handles) sent over the network before the
    /// routes converge and scheduled locally after.
    fn probes_and_packets(shards: usize) -> Engine {
        let topo = Topology::paper_example();
        let mut engine = sharded(programs::packet_forward(), topo, shards);
        seed_links(&mut engine);
        for n in 0..4u32 {
            let peer = (n + 2) % 4;
            let probe = |at: NodeId, id: u32| Tuple::new("eProbe", at, vec![Value::Int(id.into())]);
            engine.send_tuple(n, peer, probe(peer, n), 16);
            engine.schedule_delta(0.003 * f64::from(n + 1), n, probe(n, 10 + n), true);
            let packet = vec![Value::Node(n), Value::Node(peer), Value::Payload(256)];
            engine.schedule_delta(0.05, n, Tuple::new("ePacket", n, packet), true);
        }
        engine
    }

    #[test]
    fn both_loops_agree_listening_or_not() {
        // Several shards not listening run barrier windows; one shard, or a
        // listening caller, steps.
        let run = |shards: usize, listen: bool| {
            let mut engine = probes_and_packets(shards);
            let mut handed = Vec::new();
            let mut advance = |engine: &mut Engine, limit: f64| {
                let before = handed.len();
                let stats = drive(engine, limit, listen, |_, ext| handed.push(ext.time));
                (stats, handed.len() - before)
            };
            let (at_limit, at_limit_handed) = advance(&mut engine, 0.0065);
            // Nothing is due by the same limit a second time, and events
            // remain queued: the empty window spawns no worker threads.
            let (idle, idle_handed) = advance(&mut engine, 0.0065);
            assert_eq!((idle.steps, idle_handed), (0, 0));
            assert_eq!(idle.fixpoint_time, at_limit.fixpoint_time);
            let next = engine.peek_time();
            let queued: usize = engine.shards.iter().map(|s| s.sim.pending()).sum();
            let (rest, rest_handed) = advance(&mut engine, f64::INFINITY);
            assert_eq!(engine.peek_time(), None);
            assert_eq!(advance(&mut engine, f64::INFINITY).0.steps, 0, "drained");
            if listen {
                let sides = (at_limit_handed, rest_handed);
                assert!(sides.0 > 0 && sides.1 > 0, "externals on both sides");
                assert_eq!(sides.0 + sides.1, 8);
                assert!(handed.windows(2).all(|w| w[0] <= w[1]), "{handed:?}");
            } else {
                assert_eq!((at_limit_handed, rest_handed), (0, 0), "dropped");
            }
            let bytes = engine.stats().total_bytes();
            let received = engine.tuples_everywhere_shared("recvPacket").len();
            let digest = engine.state_digest();
            (at_limit, next, queued, rest, bytes, received, digest)
        };
        let reference = run(1, false);
        let (_, next, queued, _, _, received, _) = reference;
        assert!(next.is_some() && queued > 0, "the limit must cut the run");
        assert_eq!(received, 4, "every packet delivered");
        assert_eq!(reference, run(1, true), "1 shard, listening");
        for shards in [2, 3, 4] {
            assert_eq!(reference, run(shards, false), "{shards} shards, windows");
            assert_eq!(reference, run(shards, true), "{shards} shards, listening");
        }
    }

    #[test]
    fn alternating_loops_hand_each_other_their_events() {
        // Successive runs alternate listening (stepping) and not (barrier
        // windows at several shards): what one loop leaves queued or in
        // flight, the next must pick up.
        let limits = [0.001, 0.0025, 0.0065, 0.01, 0.02, 0.049, 0.0505, 0.06];
        let run = |shards: usize, listen: fn(usize) -> bool| {
            let mut engine = probes_and_packets(shards);
            let mut handed = Vec::new();
            for (i, limit) in limits.into_iter().chain([f64::INFINITY]).enumerate() {
                drive(&mut engine, limit, listen(i), |_, ext| {
                    handed.push(ext.time);
                });
            }
            assert_eq!(engine.peek_time(), None);
            let bytes = engine.stats().total_bytes();
            let received = engine.tuples_everywhere_shared("recvPacket").len();
            (handed, bytes, received, engine.state_digest())
        };
        let every = run(1, |_| true);
        assert_eq!(every.0.len(), 8, "every external handed back");
        assert_eq!(every.2, 4, "every packet delivered");
        let reference = run(1, |i| i % 2 == 0);
        // Each listening run hands back exactly the externals due in its
        // window; the others drop theirs.
        let window = |t: f64| limits.iter().position(|&l| t <= l).unwrap_or(limits.len());
        let due: Vec<f64> = every
            .0
            .iter()
            .copied()
            .filter(|&t| window(t) % 2 == 0)
            .collect();
        assert!(!due.is_empty(), "the listening runs were handed some");
        assert_eq!(reference.0, due);
        let state = |r: &(Vec<f64>, u64, usize, Digest)| (r.1, r.2, r.3);
        assert_eq!(
            state(&reference),
            state(&every),
            "listening changes nothing"
        );
        assert_eq!(reference, run(3, |i| i % 2 == 0), "3 shards");
    }
}
