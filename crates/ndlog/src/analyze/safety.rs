//! Pass 2 — safety: aggregate stratification and constraint satisfiability.
//!
//! NDlog permits recursion *through* a `min`/`max` aggregate only in the
//! sanctioned monotone pattern of the paper's MINCOST program: every cycle
//! that re-derives the aggregate's input must pass through a rule carrying a
//! bounding constraint (MINCOST's `C < 64` horizon), so the recursion
//! converges instead of oscillating.  Formally, within each strongly
//! connected component of the relation-dependency graph that contains an
//! aggregate head: the subgraph of edges contributed by *unguarded* rules
//! (rules with no constraint in their body) must be acyclic.  `count`
//! aggregates are never monotone under churn and may not participate in
//! recursion at all.  Violations are `E012`.
//!
//! The pass also rejects constraints that can never hold (`E013`): constant
//! comparisons that fold to `false`, and per-variable integer bound sets
//! that are mutually contradictory (`C < 3, C > 5`).

use crate::ast::{AggFunc, BodyItem, CmpOp, Expr, Program, Term};
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap};
use crate::eval::CExpr;
use exspan_types::{RelId, Symbol, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the pass, pushing diagnostics into `out`.
pub(crate) fn check(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    check_aggregate_recursion(program, source, out);
    for (ri, rule) in program.rules.iter().enumerate() {
        check_satisfiability(program, ri, rule, source, out);
    }
}

// ---------------------------------------------------------------------------
// Aggregate stratification (E012)
// ---------------------------------------------------------------------------

fn check_aggregate_recursion(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    let sccs = relation_sccs(program);
    for (ri, rule) in program.rules.iter().enumerate() {
        let Some((func, _, _)) = rule.head.aggregate() else {
            continue;
        };
        let head = rule.head.relation;
        let Some(scc) = sccs.iter().find(|s| s.contains(&head)) else {
            continue;
        };
        if !scc_is_cyclic(program, scc) {
            continue;
        }
        let span = source.and_then(|m| m.rule(ri).map(|r| r.full));
        match func {
            AggFunc::Count => {
                let msg = format!(
                    "count aggregate over {head} participates in recursion; \
                     count is not monotone under churn and cannot be maintained on a cycle"
                );
                out.push(
                    Diagnostic::new("E012", Severity::Error, Some(rule.label), msg).with_span(span),
                );
            }
            AggFunc::Min | AggFunc::Max => {
                if unguarded_subgraph_is_cyclic(program, scc) {
                    let msg = format!(
                        "recursion through the {func} aggregate over {head} has a cycle with no \
                         bounding constraint; add a guard (like MINCOST's cost horizon) so the \
                         recursion converges"
                    );
                    out.push(
                        Diagnostic::new("E012", Severity::Error, Some(rule.label), msg)
                            .with_span(span),
                    );
                }
            }
        }
    }
}

/// Strongly connected components of the relation-dependency graph
/// (edge: body relation → head relation), via Kosaraju.
fn relation_sccs(program: &Program) -> Vec<BTreeSet<RelId>> {
    let mut rels: BTreeSet<RelId> = BTreeSet::new();
    let mut fwd: BTreeMap<RelId, BTreeSet<RelId>> = BTreeMap::new();
    let mut rev: BTreeMap<RelId, BTreeSet<RelId>> = BTreeMap::new();
    for rule in &program.rules {
        rels.insert(rule.head.relation);
        for atom in rule.body_atoms() {
            rels.insert(atom.relation);
            fwd.entry(atom.relation)
                .or_default()
                .insert(rule.head.relation);
            rev.entry(rule.head.relation)
                .or_default()
                .insert(atom.relation);
        }
    }
    let mut order = Vec::new();
    let mut seen = BTreeSet::new();
    for &r in &rels {
        post_order(r, &fwd, &mut seen, &mut order);
    }
    let mut sccs = Vec::new();
    let mut assigned = BTreeSet::new();
    for &r in order.iter().rev() {
        if assigned.contains(&r) {
            continue;
        }
        let mut scc = BTreeSet::new();
        collect_scc(r, &rev, &mut assigned, &mut scc);
        sccs.push(scc);
    }
    sccs
}

fn post_order(
    r: RelId,
    edges: &BTreeMap<RelId, BTreeSet<RelId>>,
    seen: &mut BTreeSet<RelId>,
    order: &mut Vec<RelId>,
) {
    if !seen.insert(r) {
        return;
    }
    if let Some(next) = edges.get(&r) {
        for &n in next {
            post_order(n, edges, seen, order);
        }
    }
    order.push(r);
}

fn collect_scc(
    r: RelId,
    edges: &BTreeMap<RelId, BTreeSet<RelId>>,
    assigned: &mut BTreeSet<RelId>,
    scc: &mut BTreeSet<RelId>,
) {
    if !assigned.insert(r) {
        return;
    }
    scc.insert(r);
    if let Some(next) = edges.get(&r) {
        for &n in next {
            collect_scc(n, edges, assigned, scc);
        }
    }
}

/// A component is a real cycle when it has more than one relation, or a
/// single relation some rule derives directly from itself.
fn scc_is_cyclic(program: &Program, scc: &BTreeSet<RelId>) -> bool {
    if scc.len() > 1 {
        return true;
    }
    program.rules.iter().any(|rule| {
        scc.contains(&rule.head.relation)
            && rule.body_atoms().any(|a| a.relation == rule.head.relation)
    })
}

/// Whether the SCC-internal edges contributed by rules carrying *no*
/// constraint still form a cycle.  If every cycle passes through at least
/// one constrained rule, the recursion is bounded and sanctioned.
fn unguarded_subgraph_is_cyclic(program: &Program, scc: &BTreeSet<RelId>) -> bool {
    let mut edges: BTreeMap<RelId, BTreeSet<RelId>> = BTreeMap::new();
    for rule in &program.rules {
        if !scc.contains(&rule.head.relation) {
            continue;
        }
        let guarded = rule
            .body
            .iter()
            .any(|i| matches!(i, BodyItem::Constraint(..)));
        if guarded {
            continue;
        }
        for atom in rule.body_atoms() {
            if scc.contains(&atom.relation) {
                edges
                    .entry(atom.relation)
                    .or_default()
                    .insert(rule.head.relation);
            }
        }
    }
    // DFS cycle detection over the (tiny) subgraph.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Active,
        Done,
    }
    fn dfs(
        r: RelId,
        edges: &BTreeMap<RelId, BTreeSet<RelId>>,
        marks: &mut BTreeMap<RelId, Mark>,
    ) -> bool {
        match marks.get(&r) {
            Some(Mark::Active) => return true,
            Some(Mark::Done) => return false,
            None => {}
        }
        marks.insert(r, Mark::Active);
        if let Some(next) = edges.get(&r) {
            for &n in next {
                if dfs(n, edges, marks) {
                    return true;
                }
            }
        }
        marks.insert(r, Mark::Done);
        false
    }
    let mut marks = BTreeMap::new();
    scc.iter().any(|&r| dfs(r, &edges, &mut marks))
}

// ---------------------------------------------------------------------------
// Constraint satisfiability (E013)
// ---------------------------------------------------------------------------

/// Accumulated integer constraints on one variable, normalized to closed
/// bounds.
#[derive(Default)]
struct IntBounds {
    lo: Option<i64>,
    hi: Option<i64>,
    eq: Option<i64>,
    ne: BTreeSet<i64>,
}

fn check_satisfiability(
    _program: &Program,
    ri: usize,
    rule: &crate::ast::Rule,
    source: Option<&SourceMap>,
    out: &mut Diagnostics,
) {
    let mut bounds: BTreeMap<Symbol, IntBounds> = BTreeMap::new();
    for (bi, item) in rule.body.iter().enumerate() {
        let BodyItem::Constraint(op, lhs, rhs) = item else {
            continue;
        };
        let span = source.and_then(|m| m.body_item(ri, bi));
        let l = fold(lhs);
        let r = fold(rhs);
        match (l, r) {
            (Folded::Const(a), Folded::Const(b))
                if crate::eval::eval_cmp(*op, &a, &b) == Ok(false) =>
            {
                let msg = format!("constraint is always false ({a:?} {op} {b:?})");
                out.push(
                    Diagnostic::new("E013", Severity::Error, Some(rule.label), msg).with_span(span),
                );
            }
            (Folded::Var(v), Folded::Const(Value::Int(k))) => {
                record_bound(&mut bounds, v, *op, k);
            }
            (Folded::Const(Value::Int(k)), Folded::Var(v)) => {
                record_bound(&mut bounds, v, flip(*op), k);
            }
            _ => {}
        }
    }
    let span = source.and_then(|m| m.rule(ri).map(|r| r.full));
    for (v, b) in &bounds {
        if let Some(reason) = contradiction(b) {
            let msg = format!("constraints on {v} can never all hold ({reason})");
            out.push(
                Diagnostic::new("E013", Severity::Error, Some(rule.label), msg).with_span(span),
            );
        }
    }
}

enum Folded {
    Const(Value),
    Var(Symbol),
    Opaque,
}

/// Folds an expression that references no variables down to its value.
fn fold(e: &Expr) -> Folded {
    if let Expr::Term(Term::Var(v)) = e {
        return Folded::Var(*v);
    }
    match CExpr::lower(e, &|_| None).eval(&[]) {
        Ok(v) => Folded::Const(v.into_owned()),
        Err(_) => Folded::Opaque,
    }
}

/// Mirrors a comparison so the variable sits on the left: `3 < V` ⇒ `V > 3`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

fn record_bound(bounds: &mut BTreeMap<Symbol, IntBounds>, v: Symbol, op: CmpOp, k: i64) {
    let b = bounds.entry(v).or_default();
    match op {
        CmpOp::Lt => b.hi = Some(b.hi.map_or(k - 1, |h| h.min(k - 1))),
        CmpOp::Le => b.hi = Some(b.hi.map_or(k, |h| h.min(k))),
        CmpOp::Gt => b.lo = Some(b.lo.map_or(k + 1, |l| l.max(k + 1))),
        CmpOp::Ge => b.lo = Some(b.lo.map_or(k, |l| l.max(k))),
        CmpOp::Eq => {
            if let Some(prev) = b.eq {
                if prev != k {
                    // Two different required values: force the lo>hi check to
                    // trip by narrowing to an empty interval.
                    b.lo = Some(prev.max(k));
                    b.hi = Some(prev.min(k));
                }
            }
            b.eq = Some(k);
        }
        CmpOp::Ne => {
            b.ne.insert(k);
        }
    }
}

fn contradiction(b: &IntBounds) -> Option<String> {
    if let (Some(lo), Some(hi)) = (b.lo, b.hi) {
        if lo > hi {
            return Some(format!("requires both >= {lo} and <= {hi}"));
        }
    }
    if let Some(eq) = b.eq {
        if b.lo.is_some_and(|lo| eq < lo) || b.hi.is_some_and(|hi| eq > hi) {
            return Some(format!("== {eq} lies outside the bounded range"));
        }
        if b.ne.contains(&eq) {
            return Some(format!("requires both == {eq} and != {eq}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::analyze::analyze;
    use crate::parser::parse_program;

    fn codes(src: &str) -> Vec<&'static str> {
        let p = parse_program("t", src).unwrap();
        analyze(&p).errors().map(|d| d.code).collect()
    }

    #[test]
    fn mincost_min_recursion_is_sanctioned() {
        let a = analyze(&crate::programs::mincost());
        assert!(
            !a.errors().any(|d| d.code == "E012"),
            "{}",
            a.diagnostics.render(None)
        );
    }

    #[test]
    fn unguarded_min_recursion_is_rejected() {
        // MINCOST minus its cost horizon: the min aggregate feeds itself
        // with no bounding constraint anywhere on the cycle.
        let codes = codes(
            "sp1 pathCost(@S,D,C) :- link(@S,D,C).\n\
             sp2 pathCost(@S,D,C1+C2) :- link(@S,Z,C1), bestPathCost(@S,D,C2).\n\
             sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).\n",
        );
        assert!(codes.contains(&"E012"), "{codes:?}");
    }

    #[test]
    fn count_recursion_is_always_rejected() {
        let codes = codes(
            "c1 total(@S,count<*>) :- item(@S,X).\n\
             c2 item(@S,N) :- total(@S,N), N < 5.\n",
        );
        assert!(codes.contains(&"E012"), "{codes:?}");
    }

    #[test]
    fn non_recursive_aggregates_are_fine() {
        let codes = codes(
            "a1 pathCost(@S,D,C) :- link(@S,D,C).\n\
             a2 best(@S,D,min<C>) :- pathCost(@S,D,C).\n",
        );
        assert!(!codes.contains(&"E012"), "{codes:?}");
    }

    #[test]
    fn contradictory_bounds_are_unsatisfiable() {
        let codes = codes("r1 out(@S,C) :- link(@S,D,C), C < 3, C > 5.\n");
        assert!(codes.contains(&"E013"), "{codes:?}");
    }

    #[test]
    fn constant_false_constraint_is_unsatisfiable() {
        let codes = codes("r1 out(@S,C) :- link(@S,D,C), 1 == 2.\n");
        assert!(codes.contains(&"E013"), "{codes:?}");
    }

    #[test]
    fn satisfiable_bounds_pass() {
        let codes = codes("r1 out(@S,C) :- link(@S,D,C), C > 0, C < 64, C != 7.\n");
        assert!(!codes.contains(&"E013"), "{codes:?}");
    }
}
