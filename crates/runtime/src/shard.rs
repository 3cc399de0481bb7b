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
use exspan_ndlog::ast::{AggFunc, Atom, BodyItem, Expr, HeadArg, Rule, Term};
use exspan_ndlog::eval::{eval_cmp, eval_expr, Bindings, EvalError, FuncRegistry};
use exspan_ndlog::is_event_predicate;
use exspan_ndlog::plan::{JoinLevel, JoinPlan, KeySource, ProgramPlans};
use exspan_netsim::{RoutedEvent, Simulator};
use exspan_types::{wire, NodeId, RelId, Symbol, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Leaf callback of the plan executor: receives the shard, the completed
/// bindings and the grounded candidate tuples in body-atom slots.
type PlanSink<'a> = dyn FnMut(&Shard, Bindings, &[Option<Arc<Tuple>>]) + 'a;

/// Rule program data shared (read-only) by all shards.
pub(crate) struct RuleData {
    pub rules: Vec<Rule>,
    /// relation -> list of (rule index, trigger atom index)
    pub triggers: HashMap<RelId, Vec<(usize, usize)>>,
    /// Compiled join plans for every (rule, trigger) pair and aggregate rule,
    /// plus the secondary-index demands the table stores maintain.
    pub plans: ProgramPlans,
    /// Interned name of the internal aggregate-recompute event.
    pub agg_recompute: RelId,
    pub funcs: FuncRegistry,
    pub config: EngineConfig,
    /// Whether aggregate rule firings maintain `prov`/`ruleExec` entries (the
    /// program declares both tables).
    pub aggregate_provenance: bool,
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
    /// engine moves whole onto a service worker thread.
    pub(crate) policy: Option<Box<dyn AnnotationPolicy + Send>>,
    /// Bookkeeping for aggregate provenance: the (prov tuple, ruleExec
    /// tuple) pair currently installed for each group.  Not derivable from
    /// the tables, so it is journaled/snapshotted and restored on recovery
    /// (`pub(crate)` for the engine's recovery path).
    pub(crate) agg_prov: HashMap<AggGroupKey, (Arc<Tuple>, Arc<Tuple>)>,
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
    /// dictionary wire codec.  Only accumulated when
    /// `EngineConfig::track_compressed` is on; never feeds the flat
    /// `TrafficStats` the figures are built on.
    pub(crate) compressed_bytes: u64,
}

impl Shard {
    pub(crate) fn new(
        data: Arc<RuleData>,
        keys: HashMap<RelId, Vec<usize>>,
        index_demands: HashMap<RelId, Vec<Vec<usize>>>,
        sim: Simulator<Payload>,
    ) -> Self {
        Shard {
            data,
            store: TableStore::with_indexes(keys, index_demands),
            sim,
            policy: None,
            agg_prov: HashMap::new(),
            last_delta_time: 0.0,
            externals_seen: 0,
            processed: 0,
            eval_errors: std::cell::Cell::new(0),
            compressed_bytes: 0,
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
            self.store.journal_tuple(node, insert, &tuple);
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

    fn fire_rules(&mut self, node: NodeId, tuple: &Arc<Tuple>, insert: bool) {
        // Borrow the trigger list out of a cloned `Arc` handle rather than
        // cloning the Vec itself: this runs once per delta.
        let data = Arc::clone(&self.data);
        let Some(trigger_list) = data.triggers.get(&tuple.relation) else {
            return;
        };
        for &(rule_idx, atom_idx) in trigger_list {
            let rule = &data.rules[rule_idx];
            if rule.is_aggregate() {
                self.schedule_aggregate_recompute(rule, node, tuple, atom_idx);
            } else {
                self.fire_rule(rule, rule_idx, node, tuple, atom_idx, insert);
            }
        }
    }

    /// Fires a non-aggregate rule triggered by `tuple` bound at body atom
    /// `atom_idx`, emitting one head delta per satisfying assignment.
    fn fire_rule(
        &mut self,
        rule: &Rule,
        rule_idx: usize,
        node: NodeId,
        tuple: &Arc<Tuple>,
        atom_idx: usize,
        insert: bool,
    ) {
        let derivations = self.evaluate_rule_with_trigger(rule, rule_idx, node, tuple, atom_idx);
        for (inputs, head) in derivations {
            self.emit_derivation(rule, node, &inputs, head, insert);
        }
    }

    /// Evaluates a rule body with `tuple` bound at `atom_idx` by executing
    /// the compiled join plan, returning the grounded input tuples (in
    /// body-atom order) and the head tuple for each satisfying assignment —
    /// in the exact sequence the historical nested-loop scan produced.
    fn evaluate_rule_with_trigger(
        &self,
        rule: &Rule,
        rule_idx: usize,
        node: NodeId,
        tuple: &Arc<Tuple>,
        atom_idx: usize,
    ) -> Vec<(Vec<Arc<Tuple>>, Tuple)> {
        let BodyItem::Atom(trigger_atom) = &rule.body[atom_idx] else {
            return Vec::new();
        };
        let Some(mut bindings) = unify_atom(trigger_atom, tuple, &Bindings::new()) else {
            return Vec::new();
        };
        // The body is localized: the trigger's location must be this node.
        if tuple.location != node {
            return Vec::new();
        }
        // Ensure the location variable is bound to this node.
        if let Term::Var(v) = &trigger_atom.location {
            bindings.insert(*v, Value::Node(node));
        }

        let Some(plan) = self.data.plans.triggers.get(&(rule_idx, atom_idx)) else {
            return Vec::new();
        };
        // Transient event atoms are never materialized: nothing to join.
        if plan.dead {
            return Vec::new();
        }

        let mut results: Vec<(Vec<Arc<Tuple>>, Tuple)> = Vec::new();
        let mut slots: Vec<Option<Arc<Tuple>>> = vec![None; rule.body.len()];
        slots[atom_idx] = Some(Arc::clone(tuple));
        self.run_plan(
            rule,
            plan,
            node,
            0,
            bindings,
            &mut slots,
            false,
            &mut |shard, bindings, slots| {
                if let Some((inputs, head)) = shard.finish_rule(rule, bindings, slots) {
                    results.push((inputs, head));
                }
            },
        );
        if !plan.in_body_order {
            self.restore_canonical_order(&mut results, |r| &r.0);
        }
        results
    }

    /// Executes one level of a compiled join plan: probes the demanded index
    /// when every key column is bound (falling back to a canonical scan
    /// otherwise) and unifies each candidate, recursing per match.
    ///
    /// `local_only` marks the aggregate evaluation contexts, which restrict
    /// every candidate to the evaluating node.  The sink receives the
    /// completed bindings and the grounded tuples in body-atom slots.
    #[allow(clippy::too_many_arguments)]
    fn run_plan(
        &self,
        rule: &Rule,
        plan: &JoinPlan,
        node: NodeId,
        depth: usize,
        bindings: Bindings,
        slots: &mut Vec<Option<Arc<Tuple>>>,
        local_only: bool,
        sink: &mut PlanSink<'_>,
    ) {
        if depth == plan.levels.len() {
            sink(self, bindings, slots);
            return;
        }
        let level = &plan.levels[depth];
        let BodyItem::Atom(atom) = &rule.body[level.body_idx] else {
            return;
        };
        let Some(table) = self.store.table(node, level.relation) else {
            return;
        };
        let mut visit = |candidate: &Arc<Tuple>| {
            if local_only && candidate.location != node {
                return;
            }
            if let Some(new_bindings) = unify_atom(atom, candidate, &bindings) {
                slots[level.body_idx] = Some(Arc::clone(candidate));
                self.run_plan(
                    rule,
                    plan,
                    node,
                    depth + 1,
                    new_bindings,
                    slots,
                    local_only,
                    sink,
                );
                slots[level.body_idx] = None;
            }
        };
        match probe_key(level, node, &bindings) {
            Some(key) => match table.probe(&level.cols, &key) {
                Some(iter) => iter.for_each(&mut visit),
                None => table.scan().for_each(&mut visit),
            },
            None => table.scan().for_each(&mut visit),
        }
    }

    /// Applies assignments and constraints over completed bindings,
    /// returning the fully-bound set (the shared leaf step of both the
    /// trigger-join and aggregate evaluation paths).
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

    fn eval_or_note(&self, rule: &Rule, expr: &Expr, bindings: &Bindings) -> Option<Value> {
        match eval_expr(expr, bindings, &self.data.funcs) {
            Ok(v) => Some(v),
            Err(e) => {
                self.note_eval_error(rule, &e);
                None
            }
        }
    }

    fn apply_guards(&self, rule: &Rule, mut bindings: Bindings) -> Option<Bindings> {
        for item in &rule.body {
            match item {
                BodyItem::Assign(var, expr) => {
                    let value = self.eval_or_note(rule, expr, &bindings)?;
                    // An assignment to an already-bound variable acts as an
                    // equality constraint (standard Datalog convention).
                    if let Some(existing) = bindings.get(*var) {
                        if *existing != value {
                            return None;
                        }
                    } else {
                        bindings.insert(*var, value);
                    }
                }
                BodyItem::Constraint(op, lhs, rhs) => {
                    let l = self.eval_or_note(rule, lhs, &bindings)?;
                    let r = self.eval_or_note(rule, rhs, &bindings)?;
                    // A comparison failure here is always type-driven
                    // (`eval_cmp` cannot see unbound variables), so it is a
                    // legitimate data-dependent rejection, not counted.
                    if !eval_cmp(*op, &l, &r).ok()? {
                        return None;
                    }
                }
                BodyItem::Atom(_) => {}
            }
        }
        Some(bindings)
    }

    /// Applies assignments and constraints, then constructs the head tuple.
    /// The grounded inputs are read out of the body-ordered slots directly —
    /// no per-derivation copy-and-sort.
    fn finish_rule(
        &self,
        rule: &Rule,
        bindings: Bindings,
        slots: &[Option<Arc<Tuple>>],
    ) -> Option<(Vec<Arc<Tuple>>, Tuple)> {
        let bindings = self.apply_guards(rule, bindings)?;
        let head = self.build_head(rule, &bindings)?;
        Some((slots.iter().flatten().cloned().collect(), head))
    }

    /// Restores the canonical (body-atom-ordered nested-loop) result
    /// sequence after a reordered plan enumerated the same satisfying
    /// assignments in greedy order.  The historical order is lexicographic
    /// by the candidates' primary row keys per body atom — exactly what
    /// comparing grounded inputs row-key-wise reconstructs — so emitted
    /// deltas keep their execution-independent sequence numbers and every
    /// figure stays byte-identical.
    fn restore_canonical_order<T>(
        &self,
        results: &mut [T],
        inputs_of: impl Fn(&T) -> &Vec<Arc<Tuple>>,
    ) {
        if results.len() < 2 {
            return;
        }
        // Every result grounds the same relation at each body slot, so the
        // per-slot key specs can be resolved once, not per comparison.
        let specs: Vec<&[usize]> = inputs_of(&results[0])
            .iter()
            .map(|t| self.store.key_spec(t.relation))
            .collect();
        results.sort_by(|a, b| {
            let (a, b) = (inputs_of(a), inputs_of(b));
            for ((x, y), spec) in a.iter().zip(b.iter()).zip(&specs) {
                match row_key_cmp(spec, x, y) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            a.len().cmp(&b.len())
        });
    }

    /// Looks up a head variable, counting the (statically impossible)
    /// unbound case via [`Shard::note_eval_error`].
    fn head_binding<'b>(
        &self,
        rule: &Rule,
        bindings: &'b Bindings,
        v: Symbol,
    ) -> Option<&'b Value> {
        let value = bindings.get(v);
        if value.is_none() {
            self.note_eval_error(rule, &EvalError::UnboundVariable(v.as_str().to_string()));
        }
        value
    }

    fn build_head(&self, rule: &Rule, bindings: &Bindings) -> Option<Tuple> {
        let loc = match &rule.head.location {
            Term::Var(v) => self.head_binding(rule, bindings, *v)?.as_node().ok()?,
            Term::Const(Value::Node(n)) => *n,
            Term::Const(Value::Int(n)) => *n as NodeId,
            Term::Const(_) => return None,
        };
        let mut values = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            match arg {
                HeadArg::Term(Term::Var(v)) => {
                    values.push(self.head_binding(rule, bindings, *v)?.clone());
                }
                HeadArg::Term(Term::Const(c)) => values.push(c.clone()),
                HeadArg::Expr(e) => values.push(self.eval_or_note(rule, e, bindings)?),
                HeadArg::Aggregate(_, _) => return None,
            }
        }
        Some(Tuple::new(rule.head.relation, loc, values))
    }

    /// Emits the head delta of a (non-aggregate) rule firing: notifies the
    /// annotation policy, then enqueues locally or ships to the head node.
    fn emit_derivation(
        &mut self,
        rule: &Rule,
        node: NodeId,
        inputs: &[Arc<Tuple>],
        head: Tuple,
        insert: bool,
    ) {
        let head = Arc::new(head);
        let token = self.note_derivation(rule, node, inputs, &head, insert);
        self.dispatch_delta(node, head, insert, token);
    }

    /// Reports one rule firing to the annotation policy, if there is one.
    fn note_derivation(
        &mut self,
        rule: &Rule,
        node: NodeId,
        inputs: &[Arc<Tuple>],
        output: &Tuple,
        insert: bool,
    ) -> Option<AnnotationToken> {
        let policy = self.policy.as_mut()?;
        policy.on_derivation(node, rule.label.as_str(), inputs, output, insert)
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
                Some(policy) => policy.annotation_bytes(node, dest, &head, token),
                None => 0,
            };
            let bytes = wire::message_size(std::slice::from_ref(&*head), annotation_bytes);
            if self.data.config.track_compressed {
                let compressed_annotation = match &mut self.policy {
                    Some(policy) => policy.annotation_bytes_compressed(
                        node,
                        dest,
                        &head,
                        token,
                        annotation_bytes,
                    ),
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

    /// Schedules a (local) recomputation of the aggregate group(s) affected
    /// by a delta.
    ///
    /// The recomputation itself runs as a separate queued event
    /// ([`crate::engine::AGG_RECOMPUTE_EVENT`]) rather than synchronously:
    /// this guarantees that any output deltas dispatched by *earlier*
    /// recomputations of the same group have already been applied to the head
    /// table when the comparison against the currently stored output is made.
    /// A synchronous recomputation could read a stale output value and emit
    /// contradictory retractions, which prevents convergence.
    fn schedule_aggregate_recompute(
        &mut self,
        rule: &Rule,
        node: NodeId,
        tuple: &Tuple,
        atom_idx: usize,
    ) {
        let Some((_, _, agg_pos)) = rule.head.aggregate() else {
            return;
        };
        let BodyItem::Atom(trigger_atom) = &rule.body[atom_idx] else {
            return;
        };
        let Some(bindings) = unify_atom(trigger_atom, tuple, &Bindings::new()) else {
            return;
        };
        if tuple.location != node {
            return;
        }
        // An empty group key means "recompute every group of this rule".
        let group_key = self.group_key(rule, &bindings, agg_pos).unwrap_or_default();
        let event = Tuple::new(
            self.data.agg_recompute,
            node,
            vec![Value::Str(rule.label), Value::list(group_key)],
        );
        self.sim.schedule_local(
            node,
            Payload::Delta {
                tuple: Arc::new(event),
                insert: true,
                token: None,
            },
        );
    }

    /// Handles a queued aggregate-recomputation event.
    fn handle_aggregate_recompute(&mut self, node: NodeId, event: &Tuple) {
        let Ok(label) = event.values[0].as_symbol() else {
            return;
        };
        let Ok(group_key) = event.values[1].as_list().map(<[Value]>::to_vec) else {
            return;
        };
        let data = Arc::clone(&self.data);
        let Some((rule_idx, rule)) = data
            .rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.label == label)
        else {
            return;
        };
        let Some((func, agg_var, agg_pos)) = rule.head.aggregate() else {
            return;
        };
        if group_key.is_empty() {
            let groups = self.all_groups(rule, rule_idx, node, agg_pos);
            for g in groups {
                self.recompute_group(rule, rule_idx, node, func, agg_var, agg_pos, &g);
            }
        } else {
            self.recompute_group(rule, rule_idx, node, func, agg_var, agg_pos, &group_key);
        }
    }

    /// The group key is the head location plus every non-aggregate head
    /// argument, evaluated under `bindings`.
    fn group_key(&self, rule: &Rule, bindings: &Bindings, agg_pos: usize) -> Option<Vec<Value>> {
        let mut key = Vec::new();
        match &rule.head.location {
            Term::Var(v) => key.push(bindings.get(*v)?.clone()),
            Term::Const(c) => key.push(c.clone()),
        }
        for (i, arg) in rule.head.args.iter().enumerate() {
            if i == agg_pos {
                continue;
            }
            match arg {
                HeadArg::Term(Term::Var(v)) => key.push(bindings.get(*v)?.clone()),
                HeadArg::Term(Term::Const(c)) => key.push(c.clone()),
                _ => return None,
            }
        }
        Some(key)
    }

    /// Enumerates all group keys derivable at `node` for an aggregate rule.
    fn all_groups(
        &self,
        rule: &Rule,
        rule_idx: usize,
        node: NodeId,
        agg_pos: usize,
    ) -> Vec<Vec<Value>> {
        let plan = self
            .data
            .plans
            .aggregates
            .get(&rule_idx)
            .map(|p| &p.all_groups);
        let mut groups: Vec<Vec<Value>> = Vec::new();
        for (bindings, _inputs) in self.evaluate_rule_body(rule, plan, node, &Bindings::new()) {
            if let Some(k) = self.group_key(rule, &bindings, agg_pos) {
                if !groups.contains(&k) {
                    groups.push(k);
                }
            }
        }
        groups
    }

    /// Pre-binds the head variables that form a group key, so aggregate
    /// recomputation only enumerates the affected group rather than the whole
    /// table (essential for performance: one delta must not trigger a scan of
    /// every group at the node).
    fn group_bindings(&self, rule: &Rule, group_key: &[Value], agg_pos: usize) -> Bindings {
        let mut bindings = Bindings::new();
        if let Term::Var(v) = &rule.head.location {
            bindings.insert(*v, group_key[0].clone());
        }
        let mut key_iter = group_key.iter().skip(1);
        for (i, arg) in rule.head.args.iter().enumerate() {
            if i == agg_pos {
                continue;
            }
            let key_val = key_iter.next();
            if let (HeadArg::Term(Term::Var(v)), Some(value)) = (arg, key_val) {
                bindings.insert(*v, value.clone());
            }
        }
        bindings
    }

    /// Evaluates the whole rule body at `node` under `initial` bindings by
    /// executing `plan`, returning every satisfying assignment with its
    /// grounded input tuples (in body-atom order, in the canonical scan
    /// enumeration sequence).
    fn evaluate_rule_body(
        &self,
        rule: &Rule,
        plan: Option<&JoinPlan>,
        node: NodeId,
        initial: &Bindings,
    ) -> Vec<(Bindings, Vec<Arc<Tuple>>)> {
        let Some(plan) = plan else {
            return Vec::new();
        };
        if plan.dead {
            return Vec::new();
        }
        let mut results: Vec<(Bindings, Vec<Arc<Tuple>>)> = Vec::new();
        let mut slots: Vec<Option<Arc<Tuple>>> = vec![None; rule.body.len()];
        self.run_plan(
            rule,
            plan,
            node,
            0,
            initial.clone(),
            &mut slots,
            true,
            &mut |shard, bindings, slots| {
                if let Some(complete) = shard.apply_guards(rule, bindings) {
                    results.push((complete, slots.iter().flatten().cloned().collect()));
                }
            },
        );
        if !plan.in_body_order {
            self.restore_canonical_order(&mut results, |r| &r.1);
        }
        results
    }

    /// Recomputes one aggregate group and reconciles its output tuple.
    #[allow(clippy::too_many_arguments)]
    fn recompute_group(
        &mut self,
        rule: &Rule,
        rule_idx: usize,
        node: NodeId,
        func: AggFunc,
        agg_var: Option<Symbol>,
        agg_pos: usize,
        group_key: &[Value],
    ) {
        // Gather all bindings for this group.  Pre-binding the group-key
        // variables restricts the enumeration to the affected group, and the
        // compiled group plan turns the restriction into index probes.
        let initial = self.group_bindings(rule, group_key, agg_pos);
        let plan = self.data.plans.aggregates.get(&rule_idx).map(|p| &p.group);
        let all = self.evaluate_rule_body(rule, plan, node, &initial);
        let mut in_group: Vec<(Bindings, Vec<Arc<Tuple>>)> = Vec::new();
        for (b, inputs) in all {
            if let Some(k) = self.group_key(rule, &b, agg_pos) {
                if k == group_key {
                    in_group.push((b, inputs));
                }
            }
        }

        // Compute the aggregate value and the winning binding (for MIN/MAX
        // provenance, the winning tuple is the provenance child; for COUNT the
        // first binding is used as a representative).
        let new_output: Option<(Value, usize)> = match func {
            AggFunc::Count => {
                if in_group.is_empty() {
                    None
                } else {
                    Some((Value::Int(in_group.len() as i64), 0))
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let Some(var) = agg_var else {
                    return;
                };
                let mut best: Option<(i64, usize)> = None;
                for (i, (b, _)) in in_group.iter().enumerate() {
                    let Some(Value::Int(v)) = b.get(var).cloned() else {
                        continue;
                    };
                    best = match best {
                        None => Some((v, i)),
                        Some((cur, ci)) => {
                            let better = match func {
                                AggFunc::Min => v < cur,
                                AggFunc::Max => v > cur,
                                AggFunc::Count => false,
                            };
                            if better {
                                Some((v, i))
                            } else {
                                Some((cur, ci))
                            }
                        }
                    };
                }
                best.map(|(v, i)| (Value::Int(v), i))
            }
        };

        // Current output for this group, if any.
        let loc = match &group_key[0] {
            Value::Node(n) => *n,
            Value::Int(n) => *n as NodeId,
            _ => return,
        };
        let current = self.find_group_output(rule, rule_idx, node, group_key, agg_pos);

        let new_tuple = new_output.as_ref().map(|(value, _)| {
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
                    self.store
                        .journal_agg(false, node, rule.head.relation, group_key, None);
                    self.dispatch_delta(node, prov_t, false, None);
                    self.dispatch_delta(node, exec_t, false, None);
                }
            }
            let token = self.note_derivation(rule, node, &[], &old, false);
            self.dispatch_delta(node, old, false, token);
        }

        // Assert the new output.
        if let (Some(new_t), Some((_, winner_idx))) = (new_tuple, new_output) {
            let winning_inputs = in_group
                .get(winner_idx)
                .map(|(_, inputs)| inputs.clone())
                .unwrap_or_default();
            let token = self.note_derivation(rule, node, &winning_inputs, &new_t, true);
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
                self.store.journal_agg(
                    true,
                    node,
                    rule.head.relation,
                    group_key,
                    Some((&prov_t, &exec_t)),
                );
                self.dispatch_delta(node, exec_t, true, None);
                self.dispatch_delta(node, prov_t, true, None);
            }
            self.dispatch_delta(node, new_t, true, token);
        }
    }

    /// Finds the currently stored output tuple of an aggregate group, by
    /// keyed probe of the head table when the group columns are indexed
    /// (falling back to the canonical scan otherwise).
    fn find_group_output(
        &self,
        rule: &Rule,
        rule_idx: usize,
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
        let output_cols = self
            .data
            .plans
            .aggregates
            .get(&rule_idx)
            .map_or(&[][..], |p| p.output_cols.as_slice());
        if !output_cols.is_empty() {
            let mut key = Vec::with_capacity(output_cols.len());
            key.push(Value::Node(loc));
            key.extend(group_key.iter().skip(1).cloned());
            if key.len() == output_cols.len() {
                if let Some(mut iter) = table.probe(output_cols, &key) {
                    return iter.find(matches).cloned();
                }
            }
        }
        table.scan().find(matches).cloned()
    }
}

/// Compares two tuples of the same relation by their primary row key under
/// `spec` — the order `scan()` enumerates them in.
fn row_key_cmp(spec: &[usize], a: &Tuple, b: &Tuple) -> Ordering {
    debug_assert_eq!(a.relation, b.relation);
    if spec.is_empty() {
        return (a.location, &a.values).cmp(&(b.location, &b.values));
    }
    for &i in spec {
        let ord = if i == 0 {
            a.location.cmp(&b.location)
        } else {
            a.values[i - 1].cmp(&b.values[i - 1])
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Builds the probe-key values of one join level under the current bindings.
///
/// Returns `None` when the level has no probe columns or a key value cannot
/// be produced (an unbound variable, or a location constant that is not
/// node-valued) — the executor then falls back to a scan, where unification
/// filters exactly as it always did.  A probe key is only ever a *narrowing*:
/// every candidate it yields is still unified against the atom.
fn probe_key(level: &JoinLevel, node: NodeId, bindings: &Bindings) -> Option<Vec<Value>> {
    if level.cols.is_empty() {
        return None;
    }
    let mut key = Vec::with_capacity(level.cols.len());
    for (&col, source) in level.cols.iter().zip(&level.sources) {
        let value = match source {
            KeySource::CurrentNode => Value::Node(node),
            KeySource::Term(Term::Const(c)) => {
                if col == 0 {
                    // The location column stores `Value::Node`; unification
                    // accepts an integer constant naming the same node.
                    match c {
                        Value::Node(n) => Value::Node(*n),
                        Value::Int(n) => Value::Node(*n as NodeId),
                        _ => return None,
                    }
                } else {
                    c.clone()
                }
            }
            KeySource::Term(Term::Var(v)) => {
                let bound = bindings.get(*v)?.clone();
                if col == 0 && !matches!(bound, Value::Node(_)) {
                    // A non-node binding can never match a location; let the
                    // scan + unification path reject every candidate.
                    return None;
                }
                bound
            }
        };
        key.push(value);
    }
    Some(key)
}

/// Unifies an atom against a tuple under existing bindings, returning the
/// extended bindings on success.
pub(crate) fn unify_atom(atom: &Atom, tuple: &Tuple, bindings: &Bindings) -> Option<Bindings> {
    if atom.relation != tuple.relation || atom.args.len() != tuple.values.len() {
        return None;
    }
    let mut out = bindings.clone();
    // Location.
    match &atom.location {
        Term::Var(v) => match out.get(*v) {
            Some(existing) => {
                if *existing != Value::Node(tuple.location) {
                    return None;
                }
            }
            None => {
                out.insert(*v, Value::Node(tuple.location));
            }
        },
        Term::Const(c) => {
            if *c != Value::Node(tuple.location) && *c != Value::Int(tuple.location as i64) {
                return None;
            }
        }
    }
    // Arguments.
    for (term, value) in atom.args.iter().zip(tuple.values.iter()) {
        match term {
            Term::Var(v) => match out.get(*v) {
                Some(existing) => {
                    if existing != value {
                        return None;
                    }
                }
                None => {
                    out.insert(*v, value.clone());
                }
            },
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_binds_and_checks_consistency() {
        let atom = Atom::new("link", Term::var("Z"), vec![Term::var("S"), Term::var("C")]);
        let t = Tuple::new("link", 1, vec![Value::Node(2), Value::Int(3)]);
        let b = unify_atom(&atom, &t, &Bindings::new()).unwrap();
        assert_eq!(b.get(Symbol::intern("Z")), Some(&Value::Node(1)));
        assert_eq!(b.get(Symbol::intern("S")), Some(&Value::Node(2)));
        assert_eq!(b.get(Symbol::intern("C")), Some(&Value::Int(3)));
        // Conflicting pre-binding fails.
        let mut pre = Bindings::new();
        pre.insert(Symbol::intern("S"), Value::Node(9));
        assert!(unify_atom(&atom, &t, &pre).is_none());
        // Constant mismatch fails.
        let atom2 = Atom::new(
            "link",
            Term::var("Z"),
            vec![Term::var("S"), Term::constant(4i64)],
        );
        assert!(unify_atom(&atom2, &t, &Bindings::new()).is_none());
        // Relation mismatch fails.
        let atom3 = Atom::new("path", Term::var("Z"), vec![Term::var("S"), Term::var("C")]);
        assert!(unify_atom(&atom3, &t, &Bindings::new()).is_none());
    }
}
