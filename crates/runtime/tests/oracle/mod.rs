//! A reference evaluator for the engine's tests: a naive bottom-up fixpoint
//! over the program AST.  It shares with the engine only the AST and the
//! built-in functions (`exspan_ndlog::eval`); there is no planner, index,
//! table store, shard, simulator or delta here, so a bug in any of those
//! shows up as a disagreement with it.
//!
//! # Semantics
//!
//! * A base tuple is present while its insertions outnumber its deletions
//!   (deleting an absent tuple does nothing); the surplus is its derivation
//!   count.
//! * A rule fires at one node: every body atom matches a row located there.
//!   Atoms are matched in body order, then the assignments and constraints
//!   run in body order.  `V = e` binds `V` if nothing bound it yet and tests
//!   equality otherwise.  An `Int` constant naming a node unifies with a
//!   location.  An evaluation error or an ill-typed comparison rejects the
//!   candidate.
//! * A head location that is not a node value derives nothing; a node value
//!   must name a node of the topology.
//! * Aggregates (`min`, `max`, `count`) group an assignment by the head
//!   location and the other head arguments; `min` and `max` read integers
//!   only.  The non-aggregate relations are rebuilt from the base plus the
//!   current aggregate outputs, the aggregates are recomputed over them, and
//!   this repeats until the aggregate outputs stop changing.  That handles
//!   MINCOST-style recursion through `min`.
//!
//! # Domain
//!
//! Outside it the evaluator panics instead of guessing:
//!
//! * event predicates, which are transient and so order-dependent;
//! * a keyed table (its key leaves out a column) whose key does not determine
//!   the row.  The engine replaces rows under one key, last writer wins, so
//!   which row survives depends on event order.  An aggregate's group key
//!   determines its output row, and a keyed base relation must hold one row
//!   per key; a non-aggregate rule may not write a keyed table.  PATHVECTOR
//!   is outside the domain (`bestPath` is keyed `(S,D)` and written by
//!   `pv4`, so equal-cost ties are order-dependent); MINCOST is inside it.

use exspan_ndlog::ast::{AggFunc, Atom, BodyItem, Expr, HeadArg, Program, Rule, Term};
use exspan_ndlog::eval::{eval_cmp, CExpr};
use exspan_types::{NodeId, RelId, Symbol, Tuple, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Variable bindings of one candidate firing.
type Env = BTreeMap<Symbol, Value>;

/// Rows by (relation, location).
type Db = BTreeMap<(RelId, NodeId), BTreeSet<Tuple>>;

/// The fixpoint of a program over a set of base tuples.
pub struct Model {
    rows: BTreeMap<RelId, BTreeSet<Tuple>>,
    base: BTreeMap<Tuple, usize>,
    relations: BTreeSet<RelId>,
}

impl Model {
    /// The rows of `relation` across every node, in tuple order.
    pub fn rows(&self, relation: &str) -> Vec<Tuple> {
        let rows = self.rows.get(relation).into_iter().flatten();
        rows.cloned().collect()
    }

    /// The derivation count of a base tuple.
    pub fn derivation_count(&self, base: &Tuple) -> usize {
        self.base.get(base).copied().unwrap_or(0)
    }

    /// Panics, naming the relation and `case`, unless `visible` lists this
    /// model's rows for every relation the program names.
    pub fn assert_visible(
        &self,
        visible: impl Fn(&str) -> Vec<Arc<Tuple>>,
        case: &dyn std::fmt::Debug,
    ) {
        for relation in &self.relations {
            let seen: Vec<Tuple> = visible(relation.as_str())
                .iter()
                .map(|t| (**t).clone())
                .collect();
            let expected = self.rows(relation.as_str());
            assert_eq!(
                seen, expected,
                "{relation} differs from the evaluator's in {case:?}"
            );
        }
    }
}

/// Evaluates `program` over a topology of `nodes` nodes and the base tuples
/// that `changes` (tuple, insert) leave present.
pub fn evaluate(
    program: &Program,
    nodes: usize,
    changes: impl IntoIterator<Item = (Tuple, bool)>,
) -> Model {
    let program = program.normalize();
    check_domain(&program);
    let mut base: BTreeMap<Tuple, usize> = BTreeMap::new();
    for (tuple, insert) in changes {
        let count = base.entry(tuple.clone()).or_default();
        match insert {
            true => *count += 1,
            false => *count = count.saturating_sub(1),
        }
        if *count == 0 {
            base.remove(&tuple);
        }
    }
    let mut keys = BTreeSet::new();
    for tuple in base.keys() {
        let fresh = keys.insert((tuple.relation, key_of(&program, tuple)));
        assert!(
            fresh,
            "outside the domain: two base rows share the key of {tuple}"
        );
    }
    let (aggregates, plain): (Vec<&Rule>, Vec<&Rule>) =
        program.rules.iter().partition(|r| r.is_aggregate());
    let mut outputs: BTreeSet<Tuple> = BTreeSet::new();
    for _ in 0..1000 {
        let db = closure(&plain, nodes, base.keys().chain(&outputs));
        let next: BTreeSet<Tuple> = aggregates
            .iter()
            .flat_map(|r| aggregate(r, nodes, &db))
            .collect();
        if next != outputs {
            outputs = next;
            continue;
        }
        let mut rows: BTreeMap<RelId, BTreeSet<Tuple>> = BTreeMap::new();
        for ((relation, _), tuples) in db {
            rows.entry(relation).or_default().extend(tuples);
        }
        let atoms = program
            .rules
            .iter()
            .flat_map(Rule::body_atoms)
            .map(|a| a.relation);
        let heads = program.rules.iter().map(|r| r.head.relation);
        let tables = program.tables.iter().map(|t| t.relation);
        let relations = atoms.chain(heads).chain(tables).collect();
        return Model {
            rows,
            base,
            relations,
        };
    }
    panic!("the aggregate outputs of {} did not settle", program.name);
}

/// Panics on a program outside the evaluator's domain.
fn check_domain(program: &Program) {
    for rule in &program.rules {
        let mut named =
            std::iter::once(rule.head.relation).chain(rule.body_atoms().map(|a| a.relation));
        if let Some(event) = named.find(|r| is_event(*r)) {
            panic!(
                "outside the domain: rule {} names the event {event}",
                rule.label
            );
        }
        let keyed = program
            .table(rule.head.relation.as_str())
            .is_some_and(|t| !t.keys.is_empty() && (0..t.arity).any(|c| !t.keys.contains(&c)));
        assert!(
            rule.is_aggregate() || !keyed,
            "outside the domain: rule {} writes the keyed table {}",
            rule.label,
            rule.head.relation
        );
    }
}

/// The paper's naming convention: `e` then an uppercase letter.
fn is_event(relation: RelId) -> bool {
    let mut chars = relation.as_str().chars();
    chars.next() == Some('e') && chars.next().is_some_and(|c| c.is_ascii_uppercase())
}

/// The declared key of `tuple`'s relation read out of it (the whole tuple
/// when the key is empty or undeclared).
fn key_of(program: &Program, tuple: &Tuple) -> Vec<Value> {
    let columns = std::iter::once(Value::Node(tuple.location)).chain(tuple.values.iter().cloned());
    let keys = program
        .table(tuple.relation.as_str())
        .map(|t| t.keys.clone())
        .unwrap_or_default();
    let columns = columns
        .enumerate()
        .filter(|(c, _)| keys.is_empty() || keys.contains(c));
    columns.map(|(_, v)| v).collect()
}

/// Every tuple the non-aggregate `rules` derive from `facts`, with them.
fn closure<'a>(rules: &[&Rule], nodes: usize, facts: impl Iterator<Item = &'a Tuple>) -> Db {
    let mut db = Db::new();
    let mut new: Vec<Tuple> = facts.cloned().collect();
    while !new.is_empty() {
        for tuple in new.drain(..) {
            db.entry((tuple.relation, tuple.location))
                .or_default()
                .insert(tuple);
        }
        for rule in rules {
            for node in 0..nodes as NodeId {
                for env in assignments(rule, node, &db) {
                    let derived = derive(rule, &env, nodes);
                    let fresh = |t: &Tuple| {
                        !db.get(&(t.relation, t.location))
                            .is_some_and(|s| s.contains(t))
                    };
                    new.extend(derived.filter(fresh));
                }
            }
        }
    }
    db
}

/// The outputs of an aggregate rule over `db`.
fn aggregate(rule: &Rule, nodes: usize, db: &Db) -> Vec<Tuple> {
    let (func, var, position) = rule.head.aggregate().expect("an aggregate rule");
    let mut groups: BTreeMap<Vec<Value>, Vec<i64>> = BTreeMap::new();
    for node in 0..nodes as NodeId {
        for env in assignments(rule, node, db) {
            let location = head_location(rule, &env);
            let args = rule.head.args.iter().filter_map(|arg| match arg {
                HeadArg::Term(t) => Some(term_value(t, &env)),
                _ => None,
            });
            let Some(key) = std::iter::once(location)
                .chain(args)
                .collect::<Option<Vec<_>>>()
            else {
                continue;
            };
            assert_eq!(
                key[0],
                Value::Node(node),
                "outside the domain: rule {} aggregates remotely",
                rule.label
            );
            let value = match (func, var.and_then(|v| env.get(&v))) {
                (AggFunc::Count, _) => 0,
                (_, Some(Value::Int(v))) => *v,
                _ => continue,
            };
            groups.entry(key).or_default().push(value);
        }
    }
    let outputs = groups.into_iter().map(|(key, values)| {
        let value = match func {
            AggFunc::Count => values.len() as i64,
            AggFunc::Min => *values.iter().min().expect("a group has a value"),
            AggFunc::Max => *values.iter().max().expect("a group has a value"),
        };
        let mut args = key[1..].to_vec();
        args.insert(position, Value::Int(value));
        let location = key[0].as_node().expect("a group is located at its node");
        Tuple::new(rule.head.relation, location, args)
    });
    outputs.collect()
}

/// Every assignment of `rule`'s body at `node` that its guards accept.
fn assignments(rule: &Rule, node: NodeId, db: &Db) -> Vec<Env> {
    let mut envs = vec![Env::new()];
    for atom in rule.body_atoms() {
        let rows = db.get(&(atom.relation, node)).into_iter().flatten();
        let rows: Vec<&Tuple> = rows.collect();
        envs = envs
            .iter()
            .flat_map(|env| rows.iter().filter_map(|t| unify(atom, t, env.clone())))
            .collect();
    }
    envs.retain_mut(|env| guards_hold(rule, env));
    envs
}

fn unify(atom: &Atom, tuple: &Tuple, mut env: Env) -> Option<Env> {
    if atom.args.len() != tuple.values.len() {
        return None;
    }
    let location = Value::Node(tuple.location);
    let values = std::iter::once(&location).chain(&tuple.values);
    let terms = std::iter::once(&atom.location).chain(&atom.args);
    for (i, (term, value)) in terms.zip(values).enumerate() {
        let matched = match term {
            Term::Const(Value::Int(n)) if i == 0 && NodeId::try_from(*n).is_ok() => {
                *value == Value::Node(*n as NodeId)
            }
            Term::Const(c) => c == value,
            Term::Var(v) => *env.entry(*v).or_insert_with(|| value.clone()) == *value,
        };
        if !matched {
            return None;
        }
    }
    Some(env)
}

fn guards_hold(rule: &Rule, env: &mut Env) -> bool {
    rule.body.iter().all(|item| match item {
        BodyItem::Atom(_) => true,
        BodyItem::Assign(v, e) => match (eval(e, env), env.get(v)) {
            (Some(value), Some(bound)) => value == *bound,
            (Some(value), None) => {
                env.insert(*v, value);
                true
            }
            (None, _) => false,
        },
        BodyItem::Constraint(op, l, r) => match (eval(l, env), eval(r, env)) {
            (Some(l), Some(r)) => eval_cmp(*op, &l, &r).unwrap_or(false),
            _ => false,
        },
    })
}

/// The head of a non-aggregate firing, if it derives one.
fn derive(rule: &Rule, env: &Env, nodes: usize) -> Option<Tuple> {
    let location = head_location(rule, env)?.as_node().ok()?;
    assert!(
        (location as usize) < nodes,
        "outside the domain: rule {} derives at n{location}, outside the topology",
        rule.label
    );
    let args = rule.head.args.iter().map(|arg| match arg {
        HeadArg::Term(t) => term_value(t, env),
        HeadArg::Expr(e) => eval(e, env),
        HeadArg::Aggregate(..) => None,
    });
    Some(Tuple::new(
        rule.head.relation,
        location,
        args.collect::<Option<_>>()?,
    ))
}

fn head_location(rule: &Rule, env: &Env) -> Option<Value> {
    match &rule.head.location {
        Term::Const(Value::Int(n)) => Some(Value::Node(*n as NodeId)),
        term => term_value(term, env),
    }
}

fn term_value(term: &Term, env: &Env) -> Option<Value> {
    eval(&Expr::Term(term.clone()), env)
}

/// `expr` under `env`, through the built-ins; `None` on any error.
fn eval(expr: &Expr, env: &Env) -> Option<Value> {
    let names: Vec<Symbol> = env.keys().copied().collect();
    let frame: Vec<Value> = env.values().cloned().collect();
    let lowered = CExpr::lower(expr, &|v| names.binary_search(&v).ok());
    lowered.eval(&frame).ok().map(Cow::into_owned)
}
