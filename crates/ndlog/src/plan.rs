//! Compile-time join planning: turning rule bodies into indexed probe plans.
//!
//! The engine evaluates a rule body by joining the trigger delta against the
//! stored tables of the remaining body atoms.  Done naïvely, every level of
//! that join scans a whole table and unifies against every row — O(|table|)
//! per atom and O(|table|^k) per trigger for a k-atom body.  This module
//! compiles, once at program-load time, a [`JoinPlan`] for every
//! `(rule, trigger atom)` pair (and, for aggregate rules, for the group
//! re-enumeration) that the runtime executes instead:
//!
//! * For each remaining body atom, given the variables bound so far, the plan
//!   records which argument positions are **bound** — the probe key — and how
//!   to obtain each key value at runtime (a term to evaluate, or the
//!   evaluating node for the localized location attribute).
//! * The plan is the **body order**: the atoms after the trigger are joined
//!   in the order the rule lists them, so reordering the body is how a
//!   program author changes which atoms are probed and on what.
//! * A probe whose columns begin with the declared primary key's leading
//!   columns ([`primary_prefix`]) is one key range of the table's primary
//!   map, the only index a table keeps.  The `(relation, key columns)` pairs
//!   no such prefix serves are the program's [demands](ProgramPlans::demands):
//!   the runtime scans the table at each of those probes.
//! * Which variables are bound at each point of a plan is static, so the
//!   rule's variables are numbered into dense **slots** and the plan carries
//!   everything a firing does lowered onto them — atoms to
//!   [bind/check operations](ArgOp), probe keys to [slot reads](KeyOp),
//!   assignments and constraints to [guards](Guard) over
//!   [lowered expressions](CExpr), the head to slot reads — for the runtime
//!   to execute against one reusable frame of values instead of
//!   interpreting the AST under a binding set cloned per candidate.
//!
//! Planning is purely syntactic — it looks only at the AST — so the executor
//! still unifies every probed candidate: a probe narrows the candidate set
//! (always to a superset of the matching rows), it never replaces the match.
//! Determinism contract: the storage layer guarantees `probe()` yields
//! candidates in the same canonical order as `scan()`, so a firing's
//! satisfying assignments come out in body order, lexicographic by the
//! candidates' primary row keys, and every emitted delta keeps the same
//! sequence number whether a level probes or scans.

use crate::ast::{Atom, BodyItem, CmpOp, Expr, HeadArg, Program, Rule, Term};
use crate::eval::{eval_cmp, CExpr, EvalError};
use crate::is_event_predicate;
use std::collections::{BTreeMap, BTreeSet};

use exspan_types::fxhash::FxHashMap;
use exspan_types::{NodeId, RelId, Symbol, Tuple, Value};

/// What one atom position does with the candidate's value there.  Which
/// variables are bound when an atom is reached is static, so each variable
/// occurrence is lowered, once, to a write or a comparison on its **slot** in
/// the rule's frame (one `Vec<Value>` per shard that candidates overwrite on
/// backtrack).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgOp {
    /// Equal this constant (a location constant is stored node-valued).
    Const(Value),
    /// First occurrence of a variable: write the value into its slot.
    Bind(usize),
    /// A variable bound earlier — by the trigger, an outer level, or an
    /// earlier position of this same atom: equal the slot.
    Check(usize),
}

/// A body atom lowered to slot operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomOps {
    relation: RelId,
    /// Location first, then the arguments.
    ops: Vec<ArgOp>,
}

impl AtomOps {
    /// Lowers `atom` where `bound` is bound: location first, so that a
    /// variable repeated inside the atom binds, then checks.
    fn lower(atom: &Atom, bound: &BTreeSet<Symbol>, vars: &[Symbol]) -> Self {
        let mut seen = bound.clone();
        let terms = std::iter::once(&atom.location).chain(&atom.args);
        let ops = terms.enumerate().map(|(i, term)| match term {
            // Unification accepts an integer constant naming the location.
            Term::Const(Value::Int(n)) if i == 0 && NodeId::try_from(*n).is_ok() => {
                ArgOp::Const(Value::Node(*n as NodeId))
            }
            Term::Const(c) => ArgOp::Const(c.clone()),
            Term::Var(v) if seen.insert(*v) => ArgOp::Bind(slot(vars, *v)),
            Term::Var(v) => ArgOp::Check(slot(vars, *v)),
        });
        AtomOps {
            relation: atom.relation,
            ops: ops.collect(),
        }
    }

    /// Unifies `tuple` against the atom under the bindings in `frame`,
    /// writing the slots the atom binds.  A failed candidate may leave some
    /// written; the next one overwrites them before anything reads them.
    pub fn matches(&self, tuple: &Tuple, frame: &mut [Value]) -> bool {
        if self.relation != tuple.relation || self.ops.len() != tuple.values.len() + 1 {
            return false;
        }
        let location = Value::Node(tuple.location);
        let values = std::iter::once(&location).chain(&tuple.values);
        self.ops.iter().zip(values).all(|(op, value)| match op {
            ArgOp::Const(c) => c == value,
            ArgOp::Check(s) => frame[*s] == *value,
            ArgOp::Bind(s) => {
                frame[*s] = value.clone();
                true
            }
        })
    }
}

/// How one value is read out of a running firing: a probe-key column, or a
/// component of an aggregate's group key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyOp {
    /// The node the rule is evaluated at (the location column of the
    /// aggregate re-enumeration paths, which restrict every candidate to the
    /// local node regardless of variable bindings).
    Node,
    /// A constant.
    Const(Value),
    /// The slot of a variable the plan proved is bound by then.
    Slot(usize),
}

impl KeyOp {
    /// The value, evaluating at `node` over `frame`.
    pub fn read(&self, node: NodeId, frame: &[Value]) -> Value {
        match self {
            KeyOp::Node => Value::Node(node),
            KeyOp::Const(c) => c.clone(),
            KeyOp::Slot(s) => frame[*s].clone(),
        }
    }
}

/// The slot of `v` in a frame numbered by `vars` (see [`rule_vars`]).
fn slot(vars: &[Symbol], v: Symbol) -> usize {
    let found = vars.binary_search(&v);
    found.expect("every variable a rule can bind has a slot")
}

/// The variables a firing of `rule` can bind, in slot order: those of its
/// body atoms, its assignment targets, and the head variables a group
/// recomputation pre-binds.
fn rule_vars(rule: &Rule) -> Vec<Symbol> {
    let mut vars = group_bound_vars(rule);
    for item in &rule.body {
        match item {
            BodyItem::Atom(a) => vars.extend(a.variables()),
            BodyItem::Assign(v, _) => {
                vars.insert(*v);
            }
            BodyItem::Constraint(..) => {}
        }
    }
    vars.into_iter().collect()
}

fn lower_expr(e: &Expr, bound: &BTreeSet<Symbol>, vars: &[Symbol]) -> CExpr {
    CExpr::lower(e, &|v| bound.contains(&v).then(|| slot(vars, v)))
}

/// One assignment or constraint of a rule body, over the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// `V = expr`, `V` unbound until here: write the slot.
    Assign(usize, CExpr),
    /// `V = expr`, `V` already bound: an equality test (standard Datalog
    /// convention).
    Test(usize, CExpr),
    /// `lhs op rhs`.
    Constraint(CmpOp, CExpr, CExpr),
}

/// One level of a join plan: the body atom joined at this depth and the
/// columns (over the full attribute list, 0 = location) that are bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinLevel {
    /// Index of this atom within the rule body (`Rule::body`).
    pub body_idx: usize,
    /// Relation joined at this level.
    pub relation: RelId,
    /// Bound columns forming the probe key, ascending.  Empty means no
    /// selective position is bound: the executor falls back to a full scan.
    pub cols: Vec<usize>,
    /// How to compute each key value, parallel to `cols`.
    pub key: Vec<KeyOp>,
    /// The atom, lowered under the variables bound when this level runs.
    pub atom: AtomOps,
}

impl JoinLevel {
    /// Whether this level has a probe key (vs. scanning the table).
    pub fn probes(&self) -> bool {
        !self.cols.is_empty()
    }

    /// Builds the probe key of this level into `key`.  Returns `false` when
    /// there is none — no probe columns, or a location column bound to a
    /// value that is not a node, which can never match: the executor then
    /// scans, where unification filters exactly as it always did.  A probe
    /// key is only ever a *narrowing*: every candidate it yields is still
    /// unified against the atom.
    pub fn probe_key(&self, node: NodeId, frame: &[Value], key: &mut Vec<Value>) -> bool {
        key.clear();
        key.extend(self.key.iter().map(|op| op.read(node, frame)));
        self.probes() && (self.cols[0] != 0 || matches!(key[0], Value::Node(_)))
    }
}

/// A compiled join order for one rule evaluation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPlan {
    /// Join levels in body-atom order, the trigger atom left out.
    pub levels: Vec<JoinLevel>,
    /// True when some joined atom is an event predicate: transient state is
    /// never materialized, so the join can produce no results at all.
    pub dead: bool,
    /// The atom the delta is unified with before any level runs (`None` for
    /// the aggregate re-enumerations, which start from the group key and
    /// restrict every candidate to the evaluating node).
    pub trigger: Option<AtomOps>,
    /// The body's assignments and constraints in body order, lowered under
    /// the variables bound once every level has matched.
    pub guards: Vec<Guard>,
    /// What a firing derives, read once the guards hold: the head location,
    /// then its arguments (empty for an aggregate rule, whose head is
    /// assembled from the group key).
    pub head: Vec<CExpr>,
    /// Number of slots in the rule's frame.
    pub frame_len: usize,
}

/// How many leading columns of a probe over `cols` the primary map of a table
/// keyed on `key` serves as one key range: the longest common prefix of
/// `cols` and the key order (an empty `key` means whole-tuple order
/// `0, 1, 2, …`), provided it holds a non-location column — a table is
/// already one node's rows, so a location-only range is a scan.  `None`
/// means no primary prefix serves the probe, and the runtime's `Table`
/// leaves it to a scan.  This one rule decides what
/// [`ProgramPlans::demands`] lists, what the `N002` lint reports and which
/// probes the runtime's `Table` serves.
pub fn primary_prefix(key: &[usize], cols: &[usize]) -> Option<usize> {
    let key_col = |i: usize| match key.is_empty() {
        true => Some(i),
        false => key.get(i).copied(),
    };
    let p = (0..cols.len())
        .take_while(|&i| key_col(i) == Some(cols[i]))
        .count();
    cols[..p].iter().any(|&c| c != 0).then_some(p)
}

impl JoinPlan {
    /// The `(relation, key columns)` pairs this plan probes.
    pub fn probed(&self) -> impl Iterator<Item = (RelId, &[usize])> {
        self.levels
            .iter()
            .filter(|l| l.probes())
            .map(|l| (l.relation, l.cols.as_slice()))
    }

    /// The head tuple of `relation` that a frame the guards hold in derives;
    /// `None` when the head location is not a node.
    pub fn derive(&self, relation: RelId, frame: &[Value]) -> Result<Option<Tuple>, EvalError> {
        let Ok(location) = self.head[0].eval(frame)?.as_node() else {
            return Ok(None);
        };
        let mut values = Vec::with_capacity(self.head.len() - 1);
        for arg in &self.head[1..] {
            values.push(arg.eval(frame)?.into_owned());
        }
        Ok(Some(Tuple::new(relation, location, values)))
    }

    /// Applies the assignments and constraints to a frame every level has
    /// matched into; `Ok(false)` rejects the candidate.  A comparison the
    /// operand types do not support rejects too: it is data-dependent.
    pub fn guards_hold(&self, frame: &mut [Value]) -> Result<bool, EvalError> {
        for guard in &self.guards {
            let holds = match guard {
                Guard::Assign(s, e) => {
                    frame[*s] = e.eval(frame)?.into_owned();
                    true
                }
                Guard::Test(s, e) => *e.eval(frame)? == frame[*s],
                Guard::Constraint(op, l, r) => {
                    eval_cmp(*op, &*l.eval(frame)?, &*r.eval(frame)?).unwrap_or(false)
                }
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Computes the probe columns of `atom` given the statically-bound variable
/// set, and lowers it.  `loc_is_node` marks the aggregate evaluation
/// contexts, where every candidate is filtered to the evaluating node before
/// unification.
fn bound_cols(
    atom: &Atom,
    bound: &BTreeSet<Symbol>,
    loc_is_node: bool,
    vars: &[Symbol],
) -> JoinLevel {
    let mut cols = Vec::new();
    let mut key = Vec::new();
    let terms = std::iter::once(&atom.location).chain(&atom.args);
    for (col, term) in terms.enumerate() {
        let op = match term {
            _ if col == 0 && loc_is_node => KeyOp::Node,
            Term::Var(v) if bound.contains(v) => KeyOp::Slot(slot(vars, *v)),
            Term::Var(_) => continue,
            // The location column stores `Value::Node`.  Only node-valued
            // constants can match a location; anything else never unifies,
            // which the per-candidate check handles.
            Term::Const(Value::Int(n)) if col == 0 => KeyOp::Const(Value::Node(*n as NodeId)),
            Term::Const(c) if col == 0 && c.as_node().is_err() => continue,
            Term::Const(c) => KeyOp::Const(c.clone()),
        };
        cols.push(col);
        key.push(op);
    }
    // A location-only key is not selective: tables are already partitioned
    // per (node, relation), so probing on the location alone would win
    // nothing over a scan while still costing index maintenance.
    if cols == [0] {
        cols.clear();
        key.clear();
    }
    JoinLevel {
        body_idx: 0, // caller fills in
        relation: atom.relation,
        cols,
        key,
        atom: AtomOps::lower(atom, bound, vars),
    }
}

/// Compiles one evaluation context of `rule`: the delta unified with body
/// atom `trigger_idx`, or (`None`) an aggregate re-enumeration of the whole
/// body, with `pre_bound` bound beforehand.  The remaining atoms are joined
/// in body order.
fn compile_plan(rule: &Rule, trigger_idx: Option<usize>, pre_bound: &BTreeSet<Symbol>) -> JoinPlan {
    let vars = rule_vars(rule);
    let loc_is_node = trigger_idx.is_none();
    let mut bound = pre_bound.clone();
    let trigger = trigger_idx.and_then(|i| match &rule.body[i] {
        BodyItem::Atom(a) => {
            bound.extend(a.variables());
            Some(AtomOps::lower(a, pre_bound, &vars))
        }
        _ => None,
    });
    let mut dead = false;
    let mut levels = Vec::new();
    for (body_idx, item) in rule.body.iter().enumerate() {
        let atom = match item {
            BodyItem::Atom(a) if Some(body_idx) != trigger_idx => a,
            _ => continue,
        };
        dead |= is_event_predicate(atom.relation.as_str());
        let mut level = bound_cols(atom, &bound, loc_is_node, &vars);
        level.body_idx = body_idx;
        bound.extend(atom.variables());
        levels.push(level);
    }
    let mut guards = Vec::new();
    for item in &rule.body {
        guards.push(match item {
            BodyItem::Atom(_) => continue,
            BodyItem::Constraint(op, l, r) => Guard::Constraint(
                *op,
                lower_expr(l, &bound, &vars),
                lower_expr(r, &bound, &vars),
            ),
            BodyItem::Assign(v, e) => {
                let e = lower_expr(e, &bound, &vars);
                match bound.insert(*v) {
                    true => Guard::Assign(slot(&vars, *v), e),
                    false => Guard::Test(slot(&vars, *v), e),
                }
            }
        });
    }
    let head_term = |t: &Term| lower_expr(&Expr::Term(t.clone()), &bound, &vars);
    let head_args = rule.head.args.iter().filter_map(|arg| match arg {
        HeadArg::Term(t) => Some(head_term(t)),
        HeadArg::Expr(e) => Some(lower_expr(e, &bound, &vars)),
        HeadArg::Aggregate(..) => None,
    });
    let head_location = match &rule.head.location {
        Term::Const(Value::Int(n)) => CExpr::Const(Value::Node(*n as NodeId)),
        term => head_term(term),
    };
    JoinPlan {
        levels,
        dead,
        trigger,
        guards,
        head: match rule.is_aggregate() {
            true => Vec::new(),
            false => std::iter::once(head_location).chain(head_args).collect(),
        },
        frame_len: vars.len(),
    }
}

/// Compiles the join plan for `rule` when a delta arrives at body atom
/// `trigger_idx`: the trigger's variables (location included) are bound by
/// unification before any stored table is touched.
pub fn compile_trigger_plan(rule: &Rule, trigger_idx: usize) -> JoinPlan {
    compile_plan(rule, Some(trigger_idx), &BTreeSet::new())
}

/// Compiles the full-body evaluation plan used by the aggregate paths, with
/// `initially_bound` variables pre-bound (the group key for a group
/// recomputation, nothing for the all-groups enumeration).  Every candidate
/// in these contexts is restricted to the evaluating node, so the location
/// column is always probeable.
pub fn compile_body_plan(rule: &Rule, initially_bound: &BTreeSet<Symbol>) -> JoinPlan {
    compile_plan(rule, None, initially_bound)
}

/// The terms an aggregate rule's group key is read from: the head location,
/// then every non-aggregate head argument (`None` for one that is not a
/// term).
fn group_terms(rule: &Rule) -> impl Iterator<Item = Option<&Term>> {
    let args = rule.head.args.iter().filter_map(|arg| match arg {
        HeadArg::Aggregate(..) => None,
        HeadArg::Term(t) => Some(Some(t)),
        HeadArg::Expr(_) => Some(None),
    });
    std::iter::once(Some(&rule.head.location)).chain(args)
}

/// The variables an aggregate rule's group key binds before re-enumeration:
/// the head location variable plus every non-aggregate head argument
/// variable.
pub fn group_bound_vars(rule: &Rule) -> BTreeSet<Symbol> {
    if !rule.is_aggregate() {
        return BTreeSet::new();
    }
    let vars = group_terms(rule).filter_map(|t| match t {
        Some(Term::Var(v)) => Some(*v),
        _ => None,
    });
    vars.collect()
}

/// How the group key is read out of a frame in which `bound` is bound:
/// `None` when a component is a variable not bound there (or not a term).
fn group_key_ops(rule: &Rule, bound: &BTreeSet<Symbol>, vars: &[Symbol]) -> Option<Vec<KeyOp>> {
    let ops = group_terms(rule).map(|t| match t? {
        Term::Const(c) => Some(KeyOp::Const(c.clone())),
        Term::Var(v) => bound.contains(v).then(|| KeyOp::Slot(slot(vars, *v))),
    });
    ops.collect()
}

/// The compiled plans of an aggregate rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRulePlans {
    /// Re-enumeration of one group (group-key variables pre-bound).
    pub group: JoinPlan,
    /// Enumeration of every group at a node (nothing pre-bound).
    pub all_groups: JoinPlan,
    /// Body-atom index → that atom lowered as a trigger, and how the group
    /// key of the affected group is read once it matched (`None` when the
    /// atom does not bind all of it: every group is then recomputed).
    pub triggers: FxHashMap<usize, (AtomOps, Option<Vec<KeyOp>>)>,
    /// The slot each component of a group key pre-binds in `group`'s frame
    /// (`None` for a constant).
    pub group_slots: Vec<Option<usize>>,
    /// How `all_groups` reads a group key once the whole body matched.
    pub body_key: Option<Vec<KeyOp>>,
    /// The slot of the aggregated variable, when the rule binds it.
    pub agg_slot: Option<usize>,
}

impl AggRulePlans {
    fn compile(rule: &Rule) -> Self {
        let vars = rule_vars(rule);
        let mut body_bound = BTreeSet::new();
        let mut triggers = FxHashMap::default();
        for (i, item) in rule.body.iter().enumerate() {
            match item {
                BodyItem::Atom(a) => {
                    let ops = AtomOps::lower(a, &BTreeSet::new(), &vars);
                    triggers.insert(i, (ops, group_key_ops(rule, &a.variables(), &vars)));
                    body_bound.extend(a.variables());
                }
                BodyItem::Assign(v, _) => {
                    body_bound.insert(*v);
                }
                BodyItem::Constraint(..) => {}
            }
        }
        let group_slots = group_terms(rule).map(|t| match t {
            Some(Term::Var(v)) => Some(slot(&vars, *v)),
            _ => None,
        });
        let agg_var = rule.head.aggregate().and_then(|(_, var, _)| var);
        AggRulePlans {
            group: compile_plan(rule, None, &group_bound_vars(rule)),
            all_groups: compile_plan(rule, None, &BTreeSet::new()),
            triggers,
            group_slots: group_slots.collect(),
            body_key: group_key_ops(rule, &body_bound, &vars),
            agg_slot: agg_var.and_then(|v| vars.binary_search(&v).ok()),
        }
    }
}

/// Every compiled plan of a program, plus the probes its tables' primary
/// maps cannot serve.
#[derive(Debug, Clone, Default)]
pub struct ProgramPlans {
    /// `(rule index, trigger body-atom index)` → plan, for non-aggregate
    /// rules.
    pub triggers: FxHashMap<(usize, usize), JoinPlan>,
    /// Rule index → aggregate plans, for aggregate rules.
    pub aggregates: FxHashMap<usize, AggRulePlans>,
    /// Relation → the probed column lists no [`primary_prefix`] of its
    /// declared key serves: the probes the runtime answers with a scan.
    pub demands: BTreeMap<RelId, BTreeSet<Vec<usize>>>,
}

impl ProgramPlans {
    /// Compiles plans for every `(rule, trigger atom)` pair and every
    /// aggregate rule of `program`, collecting the demands.
    pub fn compile(program: &Program) -> Self {
        let mut out = ProgramPlans::default();
        for (ri, rule) in program.rules.iter().enumerate() {
            if rule.is_aggregate() {
                let plans = AggRulePlans::compile(rule);
                out.collect_demands(program, &plans.group);
                out.collect_demands(program, &plans.all_groups);
                out.aggregates.insert(ri, plans);
            } else {
                for (ai, item) in rule.body.iter().enumerate() {
                    if !matches!(item, BodyItem::Atom(_)) {
                        continue;
                    }
                    let plan = compile_plan(rule, Some(ai), &BTreeSet::new());
                    out.collect_demands(program, &plan);
                    out.triggers.insert((ri, ai), plan);
                }
            }
        }
        out
    }

    /// Records each probe of `plan` that no primary prefix of its
    /// relation's declared key serves.
    fn collect_demands(&mut self, program: &Program, plan: &JoinPlan) {
        if plan.dead {
            return;
        }
        for (relation, cols) in plan.probed() {
            let decl = program.tables.iter().find(|t| t.relation == relation);
            let key = decl.map_or(&[][..], |t| t.keys.as_slice());
            if primary_prefix(key, cols).is_none() {
                let demand = self.demands.entry(relation).or_default();
                demand.insert(cols.to_vec());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    fn rule<'a>(p: &'a Program, label: &str) -> (usize, &'a Rule) {
        p.rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.label == label)
            .unwrap_or_else(|| panic!("no rule {label}"))
    }

    #[test]
    fn trigger_plan_probes_fully_bound_atom() {
        // pv4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
        let p = programs::path_vector();
        let (_, pv4) = rule(&p, "pv4");
        // Triggered by bestPathCost (atom 0): S, D, C bound -> probe path on
        // location, destination and cost (columns 0, 1, 3; P at 2 is free).
        let plan = compile_trigger_plan(pv4, 0);
        assert_eq!(plan.levels.len(), 1);
        assert_eq!(plan.levels[0].cols, vec![0, 1, 3]);
        assert!(plan.levels[0].probes());
        assert!(!plan.dead);
        // Triggered by path (atom 1): bestPathCost fully bound.
        let plan = compile_trigger_plan(pv4, 1);
        assert_eq!(plan.levels[0].cols, vec![0, 1, 2]);
    }

    #[test]
    fn location_only_keys_degenerate_to_scans() {
        // sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), ...
        // Triggered by link, only Z is bound in bestPathCost -> scan.
        let p = programs::mincost();
        let (_, sp2) = rule(&p, "sp2");
        let plan = compile_trigger_plan(sp2, 0);
        assert_eq!(plan.levels.len(), 1);
        assert!(!plan.levels[0].probes());
    }

    #[test]
    fn aggregate_group_plan_probes_group_columns() {
        // pv3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C): the group key binds
        // S and D, so re-enumeration probes path on (location, D).
        let p = programs::path_vector();
        let (pv3_idx, pv3) = rule(&p, "pv3");
        // Aggregate rules appear in `aggregates`, not `triggers`.
        let plans = ProgramPlans::compile(&p);
        assert!(plans.aggregates.contains_key(&pv3_idx));
        assert!(!plans.triggers.keys().any(|&(ri, _)| ri == pv3_idx));
        let bound = group_bound_vars(pv3);
        assert!(bound.contains("S") && bound.contains("D"));
        let plan = compile_body_plan(pv3, &bound);
        assert_eq!(plan.levels[0].cols, vec![0, 1]);
        assert_eq!(plan.levels[0].key[0], KeyOp::Node);
        // With nothing pre-bound the location-only key degenerates to a scan.
        let all = compile_body_plan(pv3, &BTreeSet::new());
        assert!(!all.levels[0].probes());
    }

    #[test]
    fn primary_prefixes_need_a_non_location_column() {
        // Whole-tuple order 0, 1, 2, …
        assert_eq!(primary_prefix(&[], &[0, 1]), Some(2));
        assert_eq!(primary_prefix(&[], &[0, 1, 3]), Some(2));
        assert_eq!(primary_prefix(&[], &[1, 2]), None);
        // A declared key, covered whole or in part.
        assert_eq!(primary_prefix(&[0, 1], &[0, 1, 2]), Some(2));
        assert_eq!(primary_prefix(&[0, 1, 2, 3], &[0, 1]), Some(2));
        assert_eq!(primary_prefix(&[1], &[1, 2]), Some(1));
        // The location alone is the whole per-node table.
        assert_eq!(primary_prefix(&[0, 1], &[0, 2]), None);
        assert_eq!(primary_prefix(&[], &[0]), None);
        assert_eq!(primary_prefix(&[0, 1], &[]), None);
    }

    #[test]
    fn built_in_programs_demand_no_scan() {
        // Their probes — path[0,1] (pv3's group), path[0,1,3] (pv4),
        // pathCost[0,1], bestPathCost[0,1], bestPathCost[0,1,2] and
        // bestHop[0,1] — all begin with their table's key.  The
        // provenance-rewritten forms are pinned in `exspan_core::rewrite`.
        for program in [
            programs::path_vector(),
            programs::mincost(),
            programs::packet_forward(),
        ] {
            let demands = ProgramPlans::compile(&program.normalize()).demands;
            assert!(demands.is_empty(), "{}: {demands:?}", program.name);
        }
    }

    #[test]
    fn event_predicate_atoms_mark_the_plan_dead() {
        // f1 ePacket(@Next,...) :- ePacket(@N,...), bestHop(@N,Dst,Next), ...
        let p = programs::packet_forward();
        let (_, f1) = rule(&p, "f1");
        // Triggered by bestHop, the remaining atom is the transient ePacket:
        // nothing is ever materialized to join against.
        let plan = compile_trigger_plan(f1, 1);
        assert!(plan.dead);
    }

    #[test]
    fn plan_levels_follow_the_body() {
        // Triggered by t1 (binds S, A), t3 comes next although t2 has more
        // bound arguments: only S is bound in t3, so it is scanned, and t2
        // is then probed on every column t1 and t3 bound.
        let text = r#"
            materialize(t1, 2, keys(0,1)).
            materialize(t2, 3, keys(0,1,2)).
            materialize(t3, 3, keys(0,1,2)).
            r1 out(@S,A,B) :- t1(@S,A), t3(@S,B,C), t2(@S,A,B).
        "#;
        let p = crate::parse_program("body_order", text).unwrap();
        let plan = compile_trigger_plan(&p.rules[0], 0);
        assert_eq!(plan.levels[0].body_idx, 1);
        assert!(plan.levels[0].cols.is_empty());
        assert_eq!(plan.levels[1].body_idx, 2);
        assert_eq!(plan.levels[1].cols, vec![0, 1, 2]);
    }
}
