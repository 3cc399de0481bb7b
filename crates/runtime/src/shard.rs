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
//! attribute vectors.  Under value-based provenance a row's annotation
//! comes out of the table with the row, so a firing conjoins its inputs'
//! histories without building a list of them.

use crate::engine::{EngineConfig, External, Payload};
use crate::table::{DeleteEffect, InsertEffect, TableStore};
use crate::value_policy::ValueBddPolicy;
use exspan_bdd::Bdd;
use exspan_ndlog::ast::{AggFunc, Rule};
use exspan_ndlog::eval::EvalError;
use exspan_ndlog::is_event_predicate;
use exspan_ndlog::plan::{AggRulePlans, JoinPlan, KeyOp, ProgramPlans};
use exspan_netsim::Simulator;
use exspan_store::WalOp;
use exspan_types::fxhash::FxHashMap;
use exspan_types::{wire, Digest, NodeId, RelId, Symbol, Tuple, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Leaf callback of the plan executor: receives the buffers, whose frame
/// holds a satisfying assignment.
type PlanSink<'a> = dyn FnMut(&mut Scratch) + 'a;

/// The executor's reusable buffers, so that a firing allocates only what it
/// derives.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The rule's variable slots; candidates overwrite them on backtrack.
    frame: Vec<Value>,
    /// One probe-key buffer per join level: a level's probe borrows its key
    /// while the levels below it build theirs.
    keys: Vec<Vec<Value>>,
    /// The candidate grounded at each body position — tracked only for
    /// aggregate provenance.
    inputs: Vec<Option<Arc<Tuple>>>,
    /// The annotation of the candidate grounded at each body position
    /// ([`Bdd::TRUE`] at the others) — tracked only for value-based
    /// provenance.
    annotations: Vec<Bdd>,
    /// The triggers of the delta being fired, copied out of the shared rule
    /// data so that firing them can borrow the shard mutably.
    triggers: Vec<(usize, usize)>,
    /// The heads one rule firing derived, awaiting emission.
    fired: Vec<Tuple>,
    /// `annotations` at each fired head, one body's length after another.
    fired_annotations: Vec<Bdd>,
    /// `annotations` at an aggregate group's winning assignment.
    winning: Vec<Bdd>,
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
    /// items, tracking the grounded inputs when `inputs` and their
    /// annotations when `annotations`.
    fn begin(&mut self, plan: &JoinPlan, body_len: usize, inputs: bool, annotations: bool) {
        self.size_frame(plan.frame_len);
        self.inputs.clear();
        self.inputs.resize(if inputs { body_len } else { 0 }, None);
        self.annotations.clear();
        let len = if annotations { body_len } else { 0 };
        self.annotations.resize(len, Bdd::TRUE);
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
    /// Compiled join plans for every (rule, trigger) pair and aggregate rule.
    /// A probe is a primary key range where a prefix of the table's key
    /// serves its columns (every probe of the built-in programs) and a scan
    /// elsewhere.
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

impl RuleData {
    /// Whether tuples of `relation` have no handler inside the engine: event
    /// predicates that trigger no rule are surfaced to the caller.
    pub(crate) fn is_external(&self, relation: RelId) -> bool {
        is_event_predicate(relation.as_str()) && !self.triggers.contains_key(&relation)
    }
}

/// What one aggregate group last dispatched: its output and, under aggregate
/// provenance, the `prov`/`ruleExec` pair installed with it.  The group
/// retracts exactly these when its output changes, whether or not they have
/// landed.
#[derive(Debug, Default)]
pub(crate) struct AggGroup {
    pub output: Option<Arc<Tuple>>,
    pub prov: Option<(Arc<Tuple>, Arc<Tuple>)>,
}

/// The aggregate groups of one head relation at one node, by group key (the
/// head location, then every non-aggregate head argument).
pub(crate) type AggGroups = BTreeMap<Vec<Value>, AggGroup>;

/// One shard: tables, event queue and rule execution for a subset of nodes.
pub(crate) struct Shard {
    data: Arc<RuleData>,
    pub(crate) store: TableStore,
    pub(crate) sim: Simulator<Payload>,
    /// This shard's value-based provenance, in an engine built with it: the
    /// store its annotations and queued histories are handles into.
    pub(crate) policy: Option<ValueBddPolicy>,
    /// Every aggregate group with a dispatched output, by `(node, head
    /// relation)`.  The provenance pairs are not derivable from the tables,
    /// so they are journaled/snapshotted and restored on recovery, which
    /// reads the outputs back from the head tables (`pub(crate)` for the
    /// engine's recovery path).
    pub(crate) groups: FxHashMap<(NodeId, RelId), AggGroups>,
    pub(crate) last_delta_time: f64,
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
    /// The operations applied since the engine's owner last took them
    /// ([`crate::Engine::take_journal`]); `None` for an engine built without
    /// a journal.  Tuple intents and aggregate-provenance changes are pushed
    /// here as the shard applies them, link changes by the engine.
    pub(crate) journal: Option<Vec<WalOp>>,
    scratch: Scratch,
}

impl Shard {
    pub(crate) fn new(
        data: Arc<RuleData>,
        keys: FxHashMap<RelId, Vec<usize>>,
        sim: Simulator<Payload>,
    ) -> Self {
        Shard {
            data,
            store: TableStore::new(keys),
            sim,
            policy: None,
            groups: FxHashMap::default(),
            last_delta_time: 0.0,
            processed: 0,
            eval_errors: std::cell::Cell::new(0),
            compressed_bytes: 0,
            vertex_changes: None,
            journal: None,
            scratch: Scratch::default(),
        }
    }

    /// Processes the next queued event, returning the external tuple it
    /// carried, if any.
    pub(crate) fn step(&mut self) -> Option<External> {
        let msg = self.sim.pop()?;
        self.processed += 1;
        let (node, time) = (msg.to, msg.time);
        let Payload {
            tuple,
            insert,
            token,
        } = msg.payload;
        if tuple.relation == self.data.agg_recompute {
            self.last_delta_time = time;
            self.handle_aggregate_recompute(node, &tuple);
            return None;
        }
        if self.data.is_external(tuple.relation) {
            return Some(External { node, tuple, time });
        }
        self.last_delta_time = time;
        self.process_delta(node, tuple, insert, token);
        None
    }

    // ------------------------------------------------------------------
    // Delta processing
    // ------------------------------------------------------------------

    fn process_delta(&mut self, node: NodeId, tuple: Arc<Tuple>, insert: bool, token: Option<Bdd>) {
        let is_event = is_event_predicate(tuple.relation.as_str());
        // The history the rules this delta triggers conjoin: what it shipped
        // (the engine numbers a base tuple's variable where it enters), or a
        // deletion's row's, read below.
        let mut annotation = token.unwrap_or(Bdd::FALSE);
        let mut fire = true;
        let mut replaced = None;
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
                // An alternative derivation's history is ORed into the row's.
                let policy = &mut self.policy;
                let or = |row, shipped| match policy {
                    Some(p) => p.or(row, shipped),
                    None => row,
                };
                match table.insert_annotated(&tuple, annotation, or) {
                    InsertEffect::Added => {}
                    InsertEffect::Duplicate => fire = false,
                    InsertEffect::Replaced(old, old_annotation) => {
                        replaced = Some((old, old_annotation));
                    }
                }
            } else {
                match table.delete(&tuple) {
                    DeleteEffect::Removed(stored) => annotation = stored,
                    DeleteEffect::Decremented | DeleteEffect::Missing => fire = false,
                }
            }
            if fire {
                self.note_vertex_change(&tuple);
            }
        }
        if fire {
            if let Some((old, old_annotation)) = replaced {
                // Cascade the replaced row as a deletion before propagating
                // the new insertion; it left the visible state for good.
                self.fire_rules(node, &old, old_annotation, false);
            }
            self.fire_rules(node, &tuple, annotation, insert);
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

    fn fire_rules(&mut self, node: NodeId, tuple: &Arc<Tuple>, annotation: Bdd, insert: bool) {
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
                    self.evaluate_trigger(rule_idx, node, tuple, annotation, atom_idx, &mut s);
                    None
                }
            };
            if let Some(event) = recompute {
                let tuple = Arc::new(event);
                self.sim.schedule_local(
                    node,
                    Payload {
                        tuple,
                        insert: true,
                        token: None,
                    },
                );
            }
            // One head delta per satisfying assignment; `n` is the body's
            // length where annotations are tracked, 0 elsewhere.
            let n = s.annotations.len();
            for (i, head) in s.fired.drain(..).enumerate() {
                let inputs = &s.fired_annotations[i * n..][..n];
                let token = self.policy.as_mut().map(|p| p.conjoin(inputs));
                self.dispatch_delta(node, Arc::new(head), insert, token);
            }
            s.fired_annotations.clear();
        }
        self.scratch = s;
    }

    /// Evaluates a non-aggregate rule body with the trigger `tuple`, whose
    /// history is `annotation`, bound at `atom_idx` by executing the
    /// compiled join plan, leaving in `s.fired` the head tuple of each
    /// satisfying assignment, and in `s.fired_annotations` its inputs'
    /// annotations when they are tracked.
    fn evaluate_trigger(
        &self,
        rule_idx: usize,
        node: NodeId,
        tuple: &Arc<Tuple>,
        annotation: Bdd,
        atom_idx: usize,
        s: &mut Scratch,
    ) {
        let rule = &self.data.rules[rule_idx];
        let Some(plan) = self.data.plans.triggers.get(&(rule_idx, atom_idx)) else {
            return;
        };
        // Transient event atoms are never materialized: nothing to join.
        // The body is localized: the trigger's location must be this node.
        if plan.dead || tuple.location != node {
            return;
        }
        s.begin(plan, rule.body.len(), false, self.policy.is_some());
        let Some(trigger) = &plan.trigger else {
            return;
        };
        if !trigger.matches(tuple, &mut s.frame) {
            return;
        }
        if let Some(slot) = s.annotations.get_mut(atom_idx) {
            *slot = annotation;
        }
        // A head located outside the topology derives nothing, like a head
        // whose location is not a node: there is no node to hold it.
        let nodes = self.sim.topology().num_nodes();
        self.run_levels(rule, plan, node, 0, s, &mut |s| {
            let head = plan.derive(rule.head.relation, &s.frame);
            let head = self.noted(rule, head).flatten();
            if let Some(head) = head.filter(|h| (h.location as usize) < nodes) {
                s.fired.push(head);
                s.fired_annotations.extend_from_slice(&s.annotations);
            }
        });
    }

    /// Executes the levels of a compiled join plan from `depth` down: probes
    /// the table's primary map when the key can be built and a prefix of the
    /// table's key serves it (falling back to a canonical scan otherwise) and unifies each candidate into the frame,
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
        let mut visit = |(candidate, annotation): (&Arc<Tuple>, Bdd)| {
            if local_only && candidate.location != node {
                return;
            }
            if level.atom.matches(candidate, &mut s.frame) {
                if let Some(input) = s.inputs.get_mut(level.body_idx) {
                    *input = Some(Arc::clone(candidate));
                }
                if let Some(slot) = s.annotations.get_mut(level.body_idx) {
                    *slot = annotation;
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

    /// Sends or locally enqueues a delta for `head` produced at `node`.
    fn dispatch_delta(&mut self, node: NodeId, head: Arc<Tuple>, insert: bool, token: Option<Bdd>) {
        let dest = head.location;
        if dest == node {
            self.sim.schedule_local(
                node,
                Payload {
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
                // The shipped BDD's varint node encoding; the flat charge
                // above already counted this delta's annotation bytes.
                let compressed_annotation = match (&mut self.policy, token) {
                    (Some(policy), Some(bdd)) => policy.store.compressed_serialized_size(bdd),
                    _ => 0,
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
                Payload {
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
    /// ([`crate::engine::AGG_RECOMPUTE_EVENT`]) rather than synchronously, so
    /// that it sees the deltas queued before it.
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
    /// assignment of the whole body, then every group with a dispatched
    /// output, in key order: a group whose last assignment left through an
    /// atom that does not bind the whole key has only its output left, which
    /// its recomputation retracts.
    fn all_groups(
        &self,
        rule: &Rule,
        plans: &AggRulePlans,
        node: NodeId,
        s: &mut Scratch,
    ) -> Vec<Vec<Value>> {
        let plan = &plans.all_groups;
        let mut groups: Vec<Vec<Value>> = Vec::new();
        if let Some(ops) = plans.body_key.as_ref().filter(|_| !plan.dead) {
            s.begin(plan, rule.body.len(), false, false);
            self.run_levels(rule, plan, node, 0, s, &mut |s| {
                let key = read_key(ops, node, &s.frame);
                if !groups.contains(&key) {
                    groups.push(key);
                }
            });
        }
        if let Some(dispatched) = self.groups.get(&(node, rule.head.relation)) {
            for key in dispatched.keys() {
                if !groups.contains(key) {
                    groups.push(key.clone());
                }
            }
        }
        groups
    }

    /// Reads every row of an aggregate head table back as its group's last
    /// dispatched output, as recovery does once the tables are restored.
    pub(crate) fn restore_group_outputs(&mut self) {
        for rule in &self.data.rules {
            let Some((_, _, agg_pos)) = rule.head.aggregate() else {
                continue;
            };
            for output in self.store.tuples_everywhere_shared(rule.head.relation) {
                let args = output.values.iter().enumerate();
                let rest = args.filter(|(i, _)| *i != agg_pos).map(|(_, v)| v.clone());
                let key = std::iter::once(Value::Node(output.location)).chain(rest);
                let key: Vec<Value> = key.collect();
                let groups = self.groups.entry((output.location, rule.head.relation));
                groups.or_default().entry(key).or_default().output = Some(output);
            }
        }
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
        // restriction into key-range probes.  The fold keeps the aggregate value
        // and the inputs and their annotations of the winning assignment (for
        // MIN/MAX provenance, the winning tuple is the provenance child; for
        // COUNT the first assignment is used as a representative) — the
        // first enumerated among equals.
        let plan = &plans.group;
        let mut count = 0i64;
        let mut best: Option<(i64, Vec<Arc<Tuple>>)> = None;
        if !plan.dead {
            let inputs = self.data.aggregate_provenance;
            s.begin(plan, rule.body.len(), inputs, self.policy.is_some());
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
                let better = best.as_ref().map_or(true, |(cur, _)| match value.cmp(cur) {
                    Ordering::Equal => false,
                    ord => ord.is_gt() == (func == AggFunc::Max),
                });
                if better {
                    best = Some((value, s.grounded()));
                    s.winning.clear();
                    s.winning.extend_from_slice(&s.annotations);
                }
            });
        }
        let new_output = match func {
            AggFunc::Count => (count > 0).then_some(Value::Int(count)),
            AggFunc::Min | AggFunc::Max => best.as_ref().map(|(v, _)| Value::Int(*v)),
        };
        let winning_inputs = best.map_or_else(Vec::new, |(_, inputs)| inputs);

        let loc = match &group_key[0] {
            Value::Node(n) => *n,
            Value::Int(n) => *n as NodeId,
            _ => return,
        };
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

        // Compare with what the group last dispatched, landed or not, and
        // take it out of its slot to retract it.
        let slot = (node, rule.head.relation);
        let groups = self.groups.get_mut(&slot);
        let group = groups.and_then(|g| g.get_mut(group_key));
        if group.as_ref().and_then(|g| g.output.as_ref()) == new_tuple.as_ref() {
            return;
        }
        let last = group.map(std::mem::take).unwrap_or_default();
        if let Some((prov_t, exec_t)) = last.prov {
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
        if let Some(old) = last.output {
            let token = self.policy.as_mut().map(|p| p.conjoin(&[]));
            self.dispatch_delta(node, old, false, token);
        }

        // Assert the new output.
        let mut sent = AggGroup::default();
        if let Some(new_t) = new_tuple {
            let token = self.policy.as_mut().map(|p| p.conjoin(&s.winning));
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
                self.journal_op(|| WalOp::AggProv {
                    install: true,
                    node,
                    relation: rule.head.relation,
                    group: group_key.to_vec(),
                    tuples: Some((Arc::clone(&prov_t), Arc::clone(&exec_t))),
                });
                sent.prov = Some((Arc::clone(&prov_t), Arc::clone(&exec_t)));
                self.dispatch_delta(node, exec_t, true, None);
                self.dispatch_delta(node, prov_t, true, None);
            }
            sent.output = Some(Arc::clone(&new_t));
            self.dispatch_delta(node, new_t, true, token);
        }
        let groups = self.groups.entry(slot).or_default();
        match (groups.get_mut(group_key), sent.output.is_some()) {
            (Some(group), true) => *group = sent,
            (Some(_), false) => {
                groups.remove(group_key);
            }
            (None, true) => {
                groups.insert(group_key.to_vec(), sent);
            }
            (None, false) => {}
        }
    }
}
