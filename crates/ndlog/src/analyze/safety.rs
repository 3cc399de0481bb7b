//! Pass 2 — safety: aggregate stratification and constraint satisfiability.
//!
//! NDlog permits recursion *through* a `min`/`max` aggregate only in the
//! sanctioned monotone pattern of the paper's MINCOST program: every cycle
//! that re-derives the aggregate's input must pass through a rule carrying a
//! bounding constraint (MINCOST's `C < 64` horizon), so the recursion
//! converges instead of oscillating.  Formally, over the relation-dependency
//! graph (an edge from each body relation to its rule's head), an aggregate
//! head `H` is recursive when `H` reaches itself.  Its cycle set is every
//! relation `R` that `H` reaches and that reaches `H` back; no relation of
//! that set may reach itself over the edges of *unguarded* rules (rules
//! with no constraint in their body) whose head is in the set.  `count`
//! aggregates are never monotone under churn and may not participate in
//! recursion at all.  Violations are `E012`.
//!
//! The pass also rejects constraints that can never hold (`E013`): constant
//! comparisons that fold to `false`, and per-variable integer bound sets
//! that are mutually contradictory (`C < 3, C > 5`).

use crate::ast::{AggFunc, BodyItem, CmpOp, Expr, Program, Rule, Term};
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap};
use crate::eval::CExpr;
use exspan_types::{RelId, Symbol, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the pass, pushing diagnostics into `out`.
pub(crate) fn check(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    check_aggregate_recursion(program, source, out);
    for (ri, rule) in program.rules.iter().enumerate() {
        check_satisfiability(ri, rule, source, out);
    }
}

// ---------------------------------------------------------------------------
// Aggregate stratification (E012)
// ---------------------------------------------------------------------------

fn check_aggregate_recursion(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    let all = edges(program, |_| true);
    for (ri, rule) in program.rules.iter().enumerate() {
        let Some((func, _, _)) = rule.head.aggregate() else {
            continue;
        };
        let head = rule.head.relation;
        let from_head = reachable(&all, head);
        if !from_head.contains(&head) {
            continue;
        }
        let msg = match func {
            AggFunc::Count => format!(
                "count aggregate over {head} participates in recursion; \
                 count is not monotone under churn and cannot be maintained on a cycle"
            ),
            AggFunc::Min | AggFunc::Max => {
                let cycle: BTreeSet<RelId> = from_head
                    .into_iter()
                    .filter(|&r| reachable(&all, r).contains(&head))
                    .collect();
                let unguarded = edges(program, |r| {
                    cycle.contains(&r.head.relation)
                        && !r.body.iter().any(|i| matches!(i, BodyItem::Constraint(..)))
                });
                if !cycle.iter().any(|&r| reachable(&unguarded, r).contains(&r)) {
                    continue;
                }
                format!(
                    "recursion through the {func} aggregate over {head} has a cycle with no \
                     bounding constraint; add a guard (like MINCOST's cost horizon) so the \
                     recursion converges"
                )
            }
        };
        let span = source.and_then(|m| m.rule(ri).map(|r| r.full));
        out.push(Diagnostic::new("E012", Severity::Error, Some(rule.label), msg).with_span(span));
    }
}

/// Relation-dependency edges: body relation → the head relations it feeds.
type Edges = BTreeMap<RelId, BTreeSet<RelId>>;

/// The body → head edges of the rules `keep` selects.
fn edges(program: &Program, keep: impl Fn(&Rule) -> bool) -> Edges {
    let mut edges = Edges::new();
    for rule in program.rules.iter().filter(|r| keep(r)) {
        for atom in rule.body_atoms() {
            edges
                .entry(atom.relation)
                .or_default()
                .insert(rule.head.relation);
        }
    }
    edges
}

/// The relations `from` reaches over one or more edges; `from` is among
/// them only when it lies on a cycle.
fn reachable(edges: &Edges, from: RelId) -> BTreeSet<RelId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(r) = stack.pop() {
        for &n in edges.get(&r).into_iter().flatten() {
            if seen.insert(n) {
                stack.push(n);
            }
        }
    }
    seen
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

fn check_satisfiability(ri: usize, rule: &Rule, source: Option<&SourceMap>, out: &mut Diagnostics) {
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
    fn aggregate_recursion_verdicts() {
        for (what, src, e012) in [
            (
                "MINCOST minus its cost horizon",
                "sp1 pathCost(@S,D,C) :- link(@S,D,C).\n\
                 sp2 pathCost(@S,D,C1+C2) :- link(@S,Z,C1), bestPathCost(@S,D,C2).\n\
                 sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).\n",
                true,
            ),
            (
                "count recursion, even guarded",
                "c1 total(@S,count<*>) :- item(@S,X).\n\
                 c2 item(@S,N) :- total(@S,N), N < 5.\n",
                true,
            ),
            (
                "a non-recursive aggregate",
                "a1 pathCost(@S,D,C) :- link(@S,D,C).\n\
                 a2 best(@S,D,min<C>) :- pathCost(@S,D,C).\n",
                false,
            ),
            (
                "an unguarded cycle of the cycle set that misses the head",
                "r1 a(@S,D,C) :- link(@S,D,C).\n\
                 r2 a(@S,D,C) :- b(@S,D,C).\n\
                 r3 b(@S,D,C) :- a(@S,D,C).\n\
                 r4 best(@S,D,min<C>) :- a(@S,D,C).\n\
                 r5 b(@S,D,C) :- best(@S,D,C), C < 64.\n",
                true,
            ),
            (
                "a guarded path beside an unguarded one back to the input",
                "sp1 pathCost(@S,D,C) :- link(@S,D,C).\n\
                 sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2, C<64.\n\
                 sp3 pathCost(@S,D,C) :- bestPathCost(@S,D,C).\n\
                 sp4 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).\n",
                true,
            ),
            (
                "guarded two-relation min recursion",
                "m1 cand(@S,D,C) :- link(@S,D,C).\n\
                 m2 cand(@S,D,C) :- best(@S,D,C).\n\
                 m3 best(@S,D,min<C>) :- cand(@S,D,C), C < 64.\n",
                false,
            ),
            (
                "a count self-loop",
                "c1 total(@S,count<N>) :- total(@S,N), N < 5.\n",
                true,
            ),
        ] {
            let codes = codes(src);
            assert_eq!(codes.contains(&"E012"), e012, "{what}: {codes:?}");
        }
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
