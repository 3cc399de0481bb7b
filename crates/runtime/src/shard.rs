//! One shard of the distributed engine: the delta-processing core.
//!
//! The runtime partitions the topology's nodes over shards by rendezvous
//! hashing (see `Topology::partition_rendezvous`); each `Shard` owns the
//! materialized tables, event queue and traffic counters of its nodes and
//! executes rule firings for them.  NDlog rule bodies are *localized* — a
//! firing only ever reads the tables of the node it fires at — so a shard
//! never touches another shard's state.  Deltas whose head is located on a
//! foreign node leave through the simulator's outbox and are delivered to
//! the destination shard's inbox, carrying their execution-independent
//! ordering key (`(time, source, per-source seq)`), which the destination
//! queue sorts by.  Together these two properties make the sharded execution
//! bit-identical to the sequential one: every node processes exactly the same
//! deltas in exactly the same order, no matter how many shards (or threads)
//! the work is spread over.
//!
//! Tuples flow through the shard behind [`Arc`]s: the delta message, the
//! stored table row and every grounded join input share one allocation, and
//! relation lookups (trigger lists, tables) are keyed on interned
//! [`RelId`]s, so the per-delta path allocates no strings and deep-copies no
//! attribute vectors.

use crate::engine::{EngineConfig, Payload, Step};
use crate::plugin::{AnnotationPolicy, AnnotationToken};
use crate::table::{DeleteEffect, InsertEffect, TableStore};
use exspan_ndlog::ast::{AggFunc, Rule};
use exspan_ndlog::eval::EvalError;
use exspan_ndlog::is_event_predicate;
use exspan_ndlog::plan::{AggRulePlans, JoinPlan, KeyOp, ProgramPlans};
use exspan_netsim::{RoutedEvent, Simulator};
use exspan_store::WalOp;
use exspan_types::fxhash::FxHashMap;
use exspan_types::{wire, Digest, NodeId, RelId, Symbol, Tuple, Value};
use std::cmp::Ordering;
use std::sync::{Arc, Mutex};

/// Leaf callback of the plan executor: receives the buffers, whose frame
/// holds a satisfying assignment.
type PlanSink<'a> = dyn FnMut(&mut Scratch) + 'a;

/// A finished evaluation: the grounded inputs in body-atom order (left empty
/// when nothing reads them) and what the assignment derived.
type Derived<T> = (Vec<Arc<Tuple>>, T);

/// The executor's reusable buffers, so that a firing allocates only what it
/// derives.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The rule's variable slots; candidates overwrite them on backtrack.
    frame: Vec<Value>,
    /// One probe-key buffer per join level: a level's probe borrows its key
    /// while the levels below it build theirs.
    keys: Vec<Vec<Value>>,
    /// The candidate grounded at each body position — tracked only for an
    /// annotation policy, aggregate provenance or a reordered plan.
    inputs: Vec<Option<Arc<Tuple>>>,
    /// The triggers of the delta being fired, copied out of the shared rule
    /// data so that firing them can borrow the shard mutably.
    triggers: Vec<(usize, usize)>,
    /// The heads one rule firing derived, awaiting emission.
    fired: Vec<Derived<Tuple>>,
}

impl Scratch {
    /// Makes room for `len` slots.  Old values stay: which slots are bound
    /// at each point of a rule is static, so none is read before it is
    /// written.
    fn size_frame(&mut self, len: usize) {
        if self.frame.len() < len {
            self.frame.resize(len, Value::Bool(false));
        }
    }

    /// Sizes the buffers for one run of `plan` over a body of `body_len`
    /// items; returns whether the grounded inputs are tracked: when `wanted`,
    /// or when a reordered plan must restore the canonical order by them.
    fn begin(&mut self, plan: &JoinPlan, body_len: usize, wanted: bool) -> bool {
        self.size_frame(plan.frame_len);
        let track = wanted || !plan.in_body_order;
        self.inputs.clear();
        self.inputs.resize(if track { body_len } else { 0 }, None);
        track
    }

    /// The tracked inputs, in body-atom order.
    fn grounded(&self) -> Vec<Arc<Tuple>> {
        self.inputs.iter().flatten().cloned().collect()
    }
}

fn read_key(ops: &[KeyOp], node: NodeId, frame: &[Value]) -> Vec<Value> {
    ops.iter().map(|op| op.read(node, frame)).collect()
}

/// Rule program data shared (read-only) by all shards.
pub(crate) struct RuleData {
    pub rules: Vec<Rule>,
    /// relation -> list of (rule index, trigger atom index)
    pub triggers: FxHashMap<RelId, Vec<(usize, usize)>>,
    /// Compiled join plans for every (rule, trigger) pair and aggregate rule,
    /// plus the secondary-index demands the table stores maintain: only the
    /// probed column sets no primary-key prefix serves (none for the
    /// built-in programs), since every other probe is a primary key range.
    pub plans: ProgramPlans,
    /// Rule label → index of the first rule carrying it (what an
    /// aggregate-recompute event names its rule by).
    pub rule_by_label: FxHashMap<Symbol, usize>,
    /// Interned name of the internal aggregate-recompute event.
    pub agg_recompute: RelId,
    pub config: EngineConfig,
    /// Whether aggregate rule firings maintain `prov`/`ruleExec` entries (the
    /// program declares both tables).
    pub aggregate_provenance: bool,
    /// `prov` and `ruleExec`, interned: the rows whose changes a shard records
    /// in [`Shard::vertex_changes`].
    pub provenance_relations: [RelId; 2],
}

/// Identifies one aggregate group at one node: (node, relation, group key).
type AggGroupKey = (NodeId, RelId, Vec<Value>);

/// One shard: tables, event queue and rule execution for a subset of nodes.
pub(crate) struct Shard {
    data: Arc<RuleData>,
    pub(crate) store: TableStore,
    pub(crate) sim: Simulator<Payload>,
    /// The annotation policy of an engine built with one; such an engine has
    /// this shard only.  `Send` is asked of the box, not of the trait: an
    /// engine moves whole onto the `exspan-serve` server thread.
    pub(crate) policy: Option<Box<dyn AnnotationPolicy + Send>>,
    /// Bookkeeping for aggregate provenance: the (prov tuple, ruleExec
    /// tuple) pair currently installed for each group.  Not derivable from
    /// the tables, so it is journaled/snapshotted and restored on recovery
    /// (`pub(crate)` for the engine's recovery path).
    pub(crate) agg_prov: FxHashMap<AggGroupKey, (Arc<Tuple>, Arc<Tuple>)>,
    pub(crate) last_delta_time: f64,
    pub(crate) externals_seen: u64,
    pub(crate) processed: u64,
    /// Count of evaluation errors that are statically impossible for
    /// analyzer-accepted programs (unbound variables, unknown functions).
    /// Such errors silently drop the candidate derivation in release builds
    /// (preserving the historical byte-identical behavior) but are counted
    /// here and debug-asserted, so the differential tests can assert the
    /// analyzer's acceptance actually implies error-free evaluation.
    pub(crate) eval_errors: std::cell::Cell<u64>,
    /// Bytes this shard's transmitted messages would cost under the
    /// dictionary size model.  Only accumulated when
    /// `EngineConfig::track_compressed` is on; never feeds the flat
    /// `TrafficStats` the figures are built on.
    pub(crate) compressed_bytes: u64,
    /// The vertex (`values[0]`: a VID or RID) of every `prov`/`ruleExec` row
    /// this shard inserted or deleted visibly since the last
    /// [`crate::Engine::drain_vertex_changes`]; `None` until
    /// [`crate::Engine::record_vertex_changes`] asks for them.
    pub(crate) vertex_changes: Option<Vec<Digest>>,
    /// The operations applied since the last barrier flush, which the engine
    /// commits as one WAL batch; `None` for an in-memory engine.  Tuple
    /// intents and aggregate-provenance changes are pushed here as the shard
    /// applies them, link changes by the engine.
    pub(crate) journal: Option<Vec<WalOp>>,
    scratch: Scratch,
}

impl Shard {
    pub(crate) fn new(
        data: Arc<RuleData>,
        keys: FxHashMap<RelId, Vec<usize>>,
        index_demands: FxHashMap<RelId, Vec<Vec<usize>>>,
        sim: Simulator<Payload>,
    ) -> Self {
        Shard {
            data,
            store: TableStore::with_indexes(keys, index_demands),
            sim,
            policy: None,
            agg_prov: FxHashMap::default(),
            last_delta_time: 0.0,
            externals_seen: 0,
            processed: 0,
            eval_errors: std::cell::Cell::new(0),
            compressed_bytes: 0,
            vertex_changes: None,
            journal: None,
            scratch: Scratch::default(),
        }
    }

    /// Moves every event waiting in `inbox` into this shard's queue.
    pub(crate) fn drain_inbox(&mut self, inbox: &Mutex<Vec<RoutedEvent<Payload>>>) {
        let mut guard = inbox.lock().expect("inbox poisoned");
        for ev in guard.drain(..) {
            self.sim.push_routed(ev);
        }
    }

    /// Processes the next queued event.
    pub(crate) fn step(&mut self) -> Step {
        let Some(msg) = self.sim.pop() else {
            return Step::Idle;
        };
        self.processed += 1;
        let time = msg.time;
        match msg.payload {
            Payload::Delta {
                tuple,
                insert,
                token,
            } => {
                let node = msg.to;
                if tuple.relation == self.data.agg_recompute {
                    self.last_delta_time = time;
                    self.handle_aggregate_recompute(node, &tuple);
                    return Step::Handled;
                }
                if self.is_external(tuple.relation) {
                    self.externals_seen += 1;
                    return Step::External {
                        node,
                        tuple,
                        time,
                        insert,
                    };
                }
                self.last_delta_time = time;
                self.process_delta(node, tuple, insert, token);
                Step::Handled
            }
        }
    }

    /// Processes every queued event strictly before `horizon` (and no later
    /// than `limit`), dropping externals, and returns the number processed.
    /// This is one barrier window of the parallel fixpoint loop; the horizon
    /// is chosen by the coordinator such that no in-flight cross-shard
    /// message can be due before it.
    pub(crate) fn run_window(&mut self, horizon: f64, limit: f64) -> u64 {
        let mut steps = 0u64;
        while let Some(k) = self.sim.peek_key() {
            if k.time >= horizon || k.time > limit {
                break;
            }
            self.step();
            steps += 1;
        }
        steps
    }

    /// Whether tuples of `relation` have no handler inside the engine: event
    /// predicates that trigger no rule are surfaced to the caller.
    fn is_external(&self, relation: RelId) -> bool {
        is_event_predicate(relation.as_str()) && !self.data.triggers.contains_key(&relation)
    }

    // ------------------------------------------------------------------
    // Delta processing
    // ------------------------------------------------------------------

    fn process_delta(
        &mut self,
        node: NodeId,
        tuple: Arc<Tuple>,
        insert: bool,
        token: Option<AnnotationToken>,
    ) {
        let is_event = is_event_predicate(tuple.relation.as_str());
        let mut fire = true;
        let mut removed = false;
        let mut replaced: Option<Arc<Tuple>> = None;
        if !is_event {
            // Journal the mutation *intent* (not its effect): replaying the
            // same arguments through this identical code path reproduces
            // duplicate counts, keyed replacement and decrement-vs-remove
            // outcomes deterministically.
            self.journal_op(|| WalOp::Tuple {
                node,
                insert,
                tuple: Arc::clone(&tuple),
            });
            let table = self.store.table_mut(node, tuple.relation);
            if insert {
                match table.insert_shared(&tuple) {
                    InsertEffect::Added => {}
                    InsertEffect::Duplicate => fire = false,
                    InsertEffect::Replaced(old) => replaced = Some(old),
                }
            } else {
                match table.delete(&tuple) {
                    DeleteEffect::Removed => removed = true,
                    DeleteEffect::Decremented | DeleteEffect::Missing => fire = false,
                }
            }
            if fire {
                self.note_vertex_change(&tuple);
            }
        }
        // Insertions merge their shipped annotation *before* firing, so the
        // rules triggered by this delta see it; deletions drop the stored
        // annotation only *after* their cascade fired, because the cascade
        // ships the retracted derivation's history with its own deltas.
        if insert {
            if let Some(p) = &mut self.policy {
                p.on_arrival(node, &tuple, token, true, false);
            }
        }
        if fire {
            if let Some(old) = replaced {
                // Cascade the replaced row as a deletion before propagating
                // the new insertion; it left the visible state for good.
                self.fire_rules(node, &old, false);
                if let Some(p) = &mut self.policy {
                    p.on_arrival(node, &old, None, false, true);
                }
            }
            self.fire_rules(node, &tuple, insert);
        }
        if !insert {
            if let Some(p) = &mut self.policy {
                p.on_arrival(node, &tuple, token, false, removed);
            }
        }
    }

    /// Appends the operation `op` builds to the journal, if this shard keeps
    /// one.
    pub(crate) fn journal_op(&mut self, op: impl FnOnce() -> WalOp) {
        if let Some(journal) = &mut self.journal {
            journal.push(op());
        }
    }

    /// Records the vertex of a `prov`/`ruleExec` row that just entered or
    /// left the visible state, if vertex changes are being recorded.  The
    /// provenance rewrite keys both tables by the whole row, so no such row
    /// is ever replaced.
    fn note_vertex_change(&mut self, row: &Tuple) {
        let Some(changes) = &mut self.vertex_changes else {
            return;
        };
        if self.data.provenance_relations.contains(&row.relation) {
            changes.extend(row.values.first().and_then(|v| v.as_digest().ok()));
        }
    }

    fn fire_rules(&mut self, node: NodeId, tuple: &Arc<Tuple>, insert: bool) {
        let mut s = std::mem::take(&mut self.scratch);
        s.triggers.clear();
        if let Some(list) = self.data.triggers.get(&tuple.relation) {
            s.triggers.extend_from_slice(list);
        }
        for i in 0..s.triggers.len() {
            let (rule_idx, atom_idx) = s.triggers[i];
            let rule = &self.data.rules[rule_idx];
            let recompute = match self.data.plans.aggregates.get(&rule_idx) {
                Some(plans) => self.recompute_event(rule, plans, node, tuple, atom_idx, &mut s),
                None => {
                    self.evaluate_trigger(rule, rule_idx, node, tuple, atom_idx, &mut s);
                    None
                }
            };
            if let Some(event) = recompute {
                let tuple = Arc::new(event);
                self.sim.schedule_local(
                    node,
                    Payload::Delta {
                        tuple,
                        insert: true,
                        token: None,
                    },
                );
            }
            // One head delta per satisfying assignment.
            for (inputs, head) in s.fired.drain(..) {
                let head = Arc::new(head);
                let token = self.note_derivation(node, &inputs);
                self.dispatch_delta(node, head, insert, token);
            }
        }
        self.scratch = s;
    }

    /// Evaluates a non-aggregate rule body with `tuple` bound at `atom_idx`
    /// by executing the compiled join plan, leaving in `s.fired` the head
    /// tuple of each satisfying assignment in body-atom order, with its
    /// grounded input tuples when they are tracked.
    fn evaluate_trigger(
        &self,
        rule: &Rule,
        rule_idx: usize,
        node: NodeId,
        tuple: &Arc<Tuple>,
        atom_idx: usize,
        s: &mut Scratch,
    ) {
        let Some(plan) = self.data.plans.triggers.get(&(rule_idx, atom_idx)) else {
            return;
        };
        // Transient event atoms are never materialized: nothing to join.
        // The body is localized: the trigger's location must be this node.
        if plan.dead || tuple.location != node {
            return;
        }
        let track = s.begin(plan, rule.body.len(), self.policy.is_some());
        let Some(trigger) = &plan.trigger else {
            return;
        };
        if !trigger.matches(tuple, &mut s.frame) {
            return;
        }
        if track {
            s.inputs[atom_idx] = Some(Arc::clone(tuple));
        }
        self.run_levels(rule, plan, node, 0, s, &mut |s| {
            let head = plan.derive(rule.head.relation, &s.frame);
            if let Some(head) = self.noted(rule, head).flatten() {
                s.fired.push((s.grounded(), head));
            }
        });
        if !plan.in_body_order {
            self.restore_canonical_order(&mut s.fired);
        }
    }

    /// Executes the levels of a compiled join plan from `depth` down: probes
    /// the demanded index when the key can be built (falling back to a
    /// canonical scan otherwise) and unifies each candidate into the frame,
    /// recursing per match; past the last level, applies the guards and
    /// hands the frame to `sink`.  A plan without a trigger is one of the
    /// aggregate evaluation contexts, which restrict every candidate to the
    /// evaluating node.
    fn run_levels(
        &self,
        rule: &Rule,
        plan: &JoinPlan,
        node: NodeId,
        depth: usize,
        s: &mut Scratch,
        sink: &mut PlanSink<'_>,
    ) {
        let Some(level) = plan.levels.get(depth) else {
            if self.noted(rule, plan.guards_hold(&mut s.frame)) == Some(true) {
                sink(s);
            }
            return;
        };
        let Some(table) = self.store.table(node, level.relation) else {
            return;
        };
        if s.keys.len() <= depth {
            s.keys.resize_with(depth + 1, Vec::new);
        }
        // Taken out for the duration of this level, so that its probe can
        // borrow it while the recursion below uses the rest of `s`.
        let mut key = std::mem::take(&mut s.keys[depth]);
        let probe = match level.probe_key(node, &s.frame, &mut key) {
            true => table.probe(&level.cols, &key),
            false => None,
        };
        let local_only = plan.trigger.is_none();
        let mut visit = |candidate: &Arc<Tuple>| {
            if local_only && candidate.location != node {
                return;
            }
            if level.atom.matches(candidate, &mut s.frame) {
                if let Some(input) = s.inputs.get_mut(level.body_idx) {
                    *input = Some(Arc::clone(candidate));
                }
                self.run_levels(rule, plan, node, depth + 1, s, sink);
            }
        };
        match probe {
            Some(iter) => iter.for_each(&mut visit),
            None => table.scan().for_each(&mut visit),
        }
        s.keys[depth] = key;
    }

    /// Records an evaluation error observed while pruning a candidate
    /// binding.  `TypeError`/`ArityError` are data-dependent and legitimately
    /// reject candidates; `UnboundVariable`/`UnknownFunction` are statically
    /// impossible for analyzer-accepted programs, so those are counted (and
    /// flagged in debug builds).  Release behavior is unchanged either way:
    /// the candidate is dropped.
    fn note_eval_error(&self, rule: &Rule, err: &EvalError) {
        if matches!(
            err,
            EvalError::UnboundVariable(_) | EvalError::UnknownFunction(_)
        ) {
            self.eval_errors.set(self.eval_errors.get() + 1);
            debug_assert!(
                false,
                "rule {}: statically-impossible eval error: {err}",
                rule.label
            );
        }
    }

    /// Unwraps an evaluation result, noting the error of a failed one.
    fn noted<T>(&self, rule: &Rule, result: Result<T, EvalError>) -> Option<T> {
        result.map_err(|e| self.note_eval_error(rule, &e)).ok()
    }

    /// Restores the canonical (body-atom order) result sequence after a
    /// reordered plan enumerated the same satisfying assignments in greedy
    /// order.  Body-atom order is lexicographic by the candidates' primary
    /// row keys per body atom — exactly what comparing grounded inputs
    /// row-key-wise reconstructs — so emitted deltas keep their
    /// execution-independent sequence numbers and every figure stays
    /// byte-identical.
    fn restore_canonical_order<T>(&self, results: &mut [Derived<T>]) {
        results.sort_by(|a, b| self.canonical_cmp(a.0.iter(), b.0.iter()));
    }

    /// Compares two assignments of one plan by their grounded inputs, in
    /// body-atom order.
    fn canonical_cmp<'a>(
        &self,
        a: impl Iterator<Item = &'a Arc<Tuple>>,
        b: impl Iterator<Item = &'a Arc<Tuple>>,
    ) -> Ordering {
        let mut keys = a.zip(b).map(|(x, y)| self.store.row_order(x, y));
        keys.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
    }

    /// Reports one rule firing to the annotation policy, if there is one.
    fn note_derivation(&mut self, node: NodeId, inputs: &[Arc<Tuple>]) -> Option<AnnotationToken> {
        self.policy.as_mut()?.on_derivation(node, inputs)
    }

    /// Sends or locally enqueues a delta for `head` produced at `node`.
    fn dispatch_delta(
        &mut self,
        node: NodeId,
        head: Arc<Tuple>,
        insert: bool,
        token: Option<AnnotationToken>,
    ) {
        let dest = head.location;
        if dest == node {
            self.sim.schedule_local(
                node,
                Payload::Delta {
                    tuple: head,
                    insert,
                    token,
                },
            );
        } else {
            let annotation_bytes = match &mut self.policy {
                Some(policy) => policy.annotation_bytes(token),
                None => 0,
            };
            let bytes = wire::message_size(std::slice::from_ref(&*head), annotation_bytes);
            if self.data.config.track_compressed {
                let compressed_annotation = match &mut self.policy {
                    Some(policy) => policy.annotation_bytes_compressed(token),
                    None => 0,
                };
                self.compressed_bytes += exspan_types::compress::compressed_message_size(
                    std::slice::from_ref(&*head),
                    compressed_annotation,
                ) as u64;
            }
            self.sim.send(
                node,
                dest,
                bytes,
                Payload::Delta {
                    tuple: head,
                    insert,
                    token,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Aggregates
    // ------------------------------------------------------------------

    /// The event that schedules a (local) recomputation of the aggregate
    /// group(s) affected by a delta at body atom `atom_idx`.
    ///
    /// The recomputation itself runs as a separate queued event
    /// ([`crate::engine::AGG_RECOMPUTE_EVENT`]) rather than synchronously:
    /// this guarantees that any output deltas dispatched by *earlier*
    /// recomputations of the same group have already been applied to the head
    /// table when the comparison against the currently stored output is made.
    /// A synchronous recomputation could read a stale output value and emit
    /// contradictory retractions, which prevents convergence.
    fn recompute_event(
        &self,
        rule: &Rule,
        plans: &AggRulePlans,
        node: NodeId,
        tuple: &Tuple,
        atom_idx: usize,
        s: &mut Scratch,
    ) -> Option<Tuple> {
        let (atom, key) = plans.triggers.get(&atom_idx)?;
        s.size_frame(plans.group.frame_len);
        if !atom.matches(tuple, &mut s.frame) || tuple.location != node {
            return None;
        }
        // An empty group key means "recompute every group of this rule".
        let group_key = key.as_ref().map(|ops| read_key(ops, node, &s.frame));
        let values = vec![
            Value::Str(rule.label),
            Value::list(group_key.unwrap_or_default()),
        ];
        Some(Tuple::new(self.data.agg_recompute, node, values))
    }

    /// Handles a queued aggregate-recomputation event.
    fn handle_aggregate_recompute(&mut self, node: NodeId, event: &Tuple) {
        let Ok(label) = event.values[0].as_symbol() else {
            return;
        };
        let Ok(group_key) = event.values[1].as_list() else {
            return;
        };
        let data = Arc::clone(&self.data);
        let Some(&rule_idx) = data.rule_by_label.get(&label) else {
            return;
        };
        let Some(plans) = data.plans.aggregates.get(&rule_idx) else {
            return;
        };
        let rule = &data.rules[rule_idx];
        let mut s = std::mem::take(&mut self.scratch);
        if group_key.is_empty() {
            for g in self.all_groups(rule, plans, node, &mut s) {
                self.recompute_group(rule, plans, node, &g, &mut s);
            }
        } else {
            self.recompute_group(rule, plans, node, group_key, &mut s);
        }
        self.scratch = s;
    }

    /// Enumerates every group key of an aggregate rule at `node` — the head
    /// location plus every non-aggregate head argument — read out of each
    /// assignment of the whole body, then out of each stored output: a group
    /// whose last assignment left through an atom that does not bind the
    /// whole key has only its output left, which its recomputation retracts.
    fn all_groups(
        &self,
        rule: &Rule,
        plans: &AggRulePlans,
        node: NodeId,
        s: &mut Scratch,
    ) -> Vec<Vec<Value>> {
        let plan = &plans.all_groups;
        let mut found: Vec<Derived<Vec<Value>>> = Vec::new();
        if !plan.dead {
            s.begin(plan, rule.body.len(), false);
            self.run_levels(rule, plan, node, 0, s, &mut |s| {
                if let Some(ops) = &plans.body_key {
                    found.push((s.grounded(), read_key(ops, node, &s.frame)));
                }
            });
        }
        if !plan.in_body_order {
            self.restore_canonical_order(&mut found);
        }
        let mut groups: Vec<Vec<Value>> = Vec::new();
        for (_, k) in found {
            if !groups.contains(&k) {
                groups.push(k);
            }
        }
        let (Some((_, _, agg_pos)), Some(table)) = (
            rule.head.aggregate(),
            self.store.table(node, rule.head.relation),
        ) else {
            return groups;
        };
        for output in table.scan() {
            let args = output.values.iter().enumerate();
            let rest = args.filter(|(i, _)| *i != agg_pos).map(|(_, v)| v.clone());
            let key: Vec<Value> = std::iter::once(Value::Node(output.location))
                .chain(rest)
                .collect();
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        groups
    }

    /// Recomputes one aggregate group and reconciles its output tuple.
    fn recompute_group(
        &mut self,
        rule: &Rule,
        plans: &AggRulePlans,
        node: NodeId,
        group_key: &[Value],
        s: &mut Scratch,
    ) {
        let Some((func, agg_var, agg_pos)) = rule.head.aggregate() else {
            return;
        };
        if func != AggFunc::Count && agg_var.is_none() {
            return;
        }
        // Enumerate this group's assignments.  Pre-binding the group-key
        // variables restricts the enumeration to the affected group
        // (essential for performance: one delta must not trigger a scan of
        // every group at the node), and the compiled group plan turns the
        // restriction into index probes.  The fold keeps the aggregate value
        // and the inputs of the winning assignment (for MIN/MAX provenance,
        // the winning tuple is the provenance child; for COUNT the first
        // assignment is used as a representative) — first in canonical
        // order among equals, whatever order the plan enumerates in.
        let plan = &plans.group;
        let mut count = 0i64;
        let mut best: Option<(i64, Vec<Arc<Tuple>>)> = None;
        if !plan.dead {
            let wanted = self.policy.is_some() || self.data.aggregate_provenance;
            s.begin(plan, rule.body.len(), wanted);
            for (slot, value) in plans.group_slots.iter().zip(group_key) {
                if let Some(slot) = slot {
                    s.frame[*slot] = value.clone();
                }
            }
            self.run_levels(rule, plan, node, 0, s, &mut |s| {
                count += 1;
                let value = match (func, plans.agg_slot.map(|slot| &s.frame[slot])) {
                    (AggFunc::Count, _) => 0,
                    (_, Some(Value::Int(v))) => *v,
                    _ => return,
                };
                let better = best
                    .as_ref()
                    .map_or(true, |(cur, inputs)| match value.cmp(cur) {
                        Ordering::Equal if plan.in_body_order => false,
                        Ordering::Equal => self
                            .canonical_cmp(s.inputs.iter().flatten(), inputs.iter())
                            .is_lt(),
                        ord => ord.is_gt() == (func == AggFunc::Max),
                    });
                if better {
                    best = Some((value, s.grounded()));
                }
            });
        }
        let new_output = match func {
            AggFunc::Count => (count > 0).then_some(Value::Int(count)),
            AggFunc::Min | AggFunc::Max => best.as_ref().map(|(v, _)| Value::Int(*v)),
        };
        let winning_inputs = best.map_or_else(Vec::new, |(_, inputs)| inputs);

        // Current output for this group, if any.
        let loc = match &group_key[0] {
            Value::Node(n) => *n,
            Value::Int(n) => *n as NodeId,
            _ => return,
        };
        let current = self.find_group_output(rule, plans, node, group_key, agg_pos);

        let new_tuple = new_output.map(|value| {
            let mut values = Vec::with_capacity(rule.head.args.len());
            let mut key_iter = group_key.iter().skip(1);
            for (i, _) in rule.head.args.iter().enumerate() {
                if i == agg_pos {
                    values.push(value.clone());
                } else {
                    values.push(
                        key_iter
                            .next()
                            .expect("group key covers non-agg args")
                            .clone(),
                    );
                }
            }
            Arc::new(Tuple::new(rule.head.relation, loc, values))
        });

        if current == new_tuple {
            return;
        }

        // Retract the old output (and its aggregate-provenance entries).
        if let Some(old) = current {
            if self.data.aggregate_provenance {
                if let Some((prov_t, exec_t)) =
                    self.agg_prov
                        .remove(&(node, rule.head.relation, group_key.to_vec()))
                {
                    self.journal_op(|| WalOp::AggProv {
                        install: false,
                        node,
                        relation: rule.head.relation,
                        group: group_key.to_vec(),
                        tuples: None,
                    });
                    self.dispatch_delta(node, prov_t, false, None);
                    self.dispatch_delta(node, exec_t, false, None);
                }
            }
            let token = self.note_derivation(node, &[]);
            self.dispatch_delta(node, old, false, token);
        }

        // Assert the new output.
        if let Some(new_t) = new_tuple {
            let token = self.note_derivation(node, &winning_inputs);
            if self.data.aggregate_provenance {
                let vids: Vec<_> = winning_inputs.iter().map(|t| t.vid()).collect();
                let rid = exspan_types::tuple::rule_exec_id(rule.label.as_str(), node, &vids);
                let exec_t = Arc::new(Tuple::new(
                    "ruleExec",
                    node,
                    vec![
                        Value::from_digest(rid),
                        Value::Str(rule.label),
                        Value::list(vids.iter().map(|v| Value::Digest(v.0)).collect()),
                    ],
                ));
                let prov_t = Arc::new(Tuple::new(
                    "prov",
                    new_t.location,
                    vec![
                        Value::from_digest(new_t.vid()),
                        Value::from_digest(rid),
                        Value::Node(node),
                    ],
                ));
                self.agg_prov.insert(
                    (node, rule.head.relation, group_key.to_vec()),
                    (Arc::clone(&prov_t), Arc::clone(&exec_t)),
                );
                self.journal_op(|| WalOp::AggProv {
                    install: true,
                    node,
                    relation: rule.head.relation,
                    group: group_key.to_vec(),
                    tuples: Some((Arc::clone(&prov_t), Arc::clone(&exec_t))),
                });
                self.dispatch_delta(node, exec_t, true, None);
                self.dispatch_delta(node, prov_t, true, None);
            }
            self.dispatch_delta(node, new_t, true, token);
        }
    }

    /// Finds the currently stored output tuple of an aggregate group, by a
    /// probe of the head table over the group's output columns (falling back
    /// to the canonical scan when it has none or its location is not a node).
    fn find_group_output(
        &self,
        rule: &Rule,
        plans: &AggRulePlans,
        node: NodeId,
        group_key: &[Value],
        agg_pos: usize,
    ) -> Option<Arc<Tuple>> {
        let table = self.store.table(node, rule.head.relation)?;
        let loc = match &group_key[0] {
            Value::Node(n) => *n,
            Value::Int(n) => *n as NodeId,
            _ => return None,
        };
        let matches = |t: &&Arc<Tuple>| {
            if t.location != loc {
                return false;
            }
            let mut key_iter = group_key.iter().skip(1);
            for (i, v) in t.values.iter().enumerate() {
                if i == agg_pos {
                    continue;
                }
                match key_iter.next() {
                    Some(k) if k == v => {}
                    _ => return false,
                }
            }
            true
        };
        // The group key is the probe key once its location is node-valued.
        let output_cols = plans.output_cols.as_slice();
        let probe = match group_key[0] {
            Value::Node(_) if !output_cols.is_empty() => table.probe(output_cols, group_key),
            _ => None,
        };
        match probe {
            Some(mut iter) => iter.find(matches).cloned(),
            None => table.scan().find(matches).cloned(),
        }
    }
}
