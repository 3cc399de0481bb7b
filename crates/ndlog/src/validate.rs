//! Static well-formedness checks for NDlog programs.
//!
//! The distributed engine (and the provenance rewrite of §4.2.2) assumes
//! programs are in *localized form*: every body predicate of a rule is
//! located at the same variable, and the head location either equals it or is
//! bound by some body attribute (so the derivation can be shipped in a single
//! message).  These checks reject programs the engine could not execute
//! faithfully, with actionable error messages.
//!
//! This module is the structural pass of the static-analysis suite: it runs
//! first in [`crate::analyze::analyze_with_source`], and the deeper passes
//! (schema inference, aggregate stratification, reachability, distribution
//! lints) of [`mod@crate::analyze`] push into the same [`Diagnostics`].

use crate::ast::{BodyItem, HeadArg, Program, Rule, Term};
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap};
use exspan_types::Symbol;
use std::collections::BTreeSet;

/// Runs the structural checks, pushing diagnostics into `out`.  Used by
/// [`crate::analyze::analyze`] so all passes share one collection.
pub(crate) fn validate_into(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    let mut seen_labels = BTreeSet::new();
    for (idx, rule) in program.rules.iter().enumerate() {
        if !seen_labels.insert(rule.label) {
            out.push(
                Diagnostic::new(
                    "E001",
                    Severity::Error,
                    Some(rule.label),
                    "duplicate rule label",
                )
                .with_span(source.and_then(|m| m.rule(idx).map(|r| r.label))),
            );
        }
        validate_rule(idx, rule, source, out);
    }
    for (idx, decl) in program.tables.iter().enumerate() {
        for &k in &decl.keys {
            if k >= decl.arity {
                out.push(
                    Diagnostic::new(
                        "E007",
                        Severity::Error,
                        None,
                        format!(
                            "table {} declares key position {k} but has arity {}",
                            decl.relation, decl.arity
                        ),
                    )
                    .with_span(source.and_then(|m| m.tables.get(idx).copied())),
                );
            }
        }
    }
}

fn validate_rule(idx: usize, rule: &Rule, source: Option<&SourceMap>, out: &mut Diagnostics) {
    let head_span = source.and_then(|m| m.rule(idx).map(|r| r.head));
    let full_span = source.and_then(|m| m.rule(idx).map(|r| r.full));

    let atoms: Vec<_> = rule.body_atoms().collect();
    if atoms.is_empty() {
        out.push(
            Diagnostic::new(
                "E002",
                Severity::Error,
                Some(rule.label),
                "rule body contains no predicate atom",
            )
            .with_span(full_span),
        );
        return;
    }

    // Localized form: all body atoms share one location variable (or equal
    // constants).
    let first_loc = &atoms[0].location;
    for a in &atoms[1..] {
        if a.location != *first_loc {
            let item = rule
                .body
                .iter()
                .position(|b| matches!(b, BodyItem::Atom(x) if std::ptr::eq(x, *a)));
            out.push(
                Diagnostic::new(
                    "E003",
                    Severity::Error,
                    Some(rule.label),
                    format!(
                        "body is not localized: {} is at @{} but {} is at @{}",
                        atoms[0].relation, first_loc, a.relation, a.location
                    ),
                )
                .with_span(item.and_then(|i| source.and_then(|m| m.body_item(idx, i)))),
            );
            break;
        }
    }

    // Collect variables bound by body atoms, then by assignments (in order).
    let mut bound: BTreeSet<Symbol> = BTreeSet::new();
    for a in &atoms {
        bound.extend(a.variables());
    }
    for (item_idx, item) in rule.body.iter().enumerate() {
        let item_span = source.and_then(|m| m.body_item(idx, item_idx));
        match item {
            BodyItem::Assign(v, e) => {
                let mut used = BTreeSet::new();
                e.variables(&mut used);
                for u in &used {
                    if !bound.contains(u) {
                        out.push(
                            Diagnostic::new(
                                "E004",
                                Severity::Error,
                                Some(rule.label),
                                format!(
                                    "assignment {v} uses variable {u} that is not bound earlier"
                                ),
                            )
                            .with_span(item_span),
                        );
                    }
                }
                bound.insert(*v);
            }
            BodyItem::Constraint(_, a, b) => {
                let mut used = BTreeSet::new();
                a.variables(&mut used);
                b.variables(&mut used);
                for u in &used {
                    if !bound.contains(u) {
                        out.push(
                            Diagnostic::new(
                                "E004",
                                Severity::Error,
                                Some(rule.label),
                                format!("constraint uses unbound variable {u}"),
                            )
                            .with_span(item_span),
                        );
                    }
                }
            }
            BodyItem::Atom(_) => {}
        }
    }

    // Range restriction: every head variable must be bound by the body.
    if let Term::Var(v) = &rule.head.location {
        if !bound.contains(v) {
            out.push(
                Diagnostic::new(
                    "E004",
                    Severity::Error,
                    Some(rule.label),
                    format!("head location variable {v} is not bound by the body"),
                )
                .with_span(head_span),
            );
        }
    }
    for (arg_idx, arg) in rule.head.args.iter().enumerate() {
        let mut used = BTreeSet::new();
        match arg {
            HeadArg::Term(Term::Var(v)) => {
                used.insert(*v);
            }
            HeadArg::Term(Term::Const(_)) => {}
            HeadArg::Expr(e) => e.variables(&mut used),
            HeadArg::Aggregate(_, Some(v)) => {
                used.insert(*v);
            }
            HeadArg::Aggregate(_, None) => {}
        }
        for u in used {
            if !bound.contains(&u) {
                out.push(
                    Diagnostic::new(
                        "E004",
                        Severity::Error,
                        Some(rule.label),
                        format!("head variable {u} is not bound by the body"),
                    )
                    .with_span(source.and_then(|m| m.head_arg(idx, arg_idx))),
                );
            }
        }
    }

    // At most one aggregate per head, and aggregate rules must keep the head
    // at the body location (aggregation is a local operation in NDlog).
    let agg_count = rule
        .head
        .args
        .iter()
        .filter(|a| matches!(a, HeadArg::Aggregate(_, _)))
        .count();
    if agg_count > 1 {
        out.push(
            Diagnostic::new(
                "E005",
                Severity::Error,
                Some(rule.label),
                "at most one aggregate is allowed per rule head",
            )
            .with_span(head_span),
        );
    }
    if agg_count == 1 && rule.head.location != *first_loc {
        out.push(
            Diagnostic::new(
                "E006",
                Severity::Error,
                Some(rule.label),
                "aggregate rules must derive at the same location as their body",
            )
            .with_span(head_span),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::{analyze, analyze_with_source};
    use crate::diag::Diagnostic;
    use crate::parser::{parse_program, parse_program_spanned};

    /// The error diagnostics of analyzing `src`.
    fn errors(src: &str) -> Vec<Diagnostic> {
        let p = parse_program("bad", src).unwrap();
        analyze(&p).errors().cloned().collect()
    }

    #[test]
    fn rejects_unlocalized_rule() {
        let errs = errors("r1 out(@X,Y) :- a(@X,Y), b(@Y,X).");
        assert!(errs.iter().any(|e| e.message.contains("not localized")));
    }

    #[test]
    fn rejects_unbound_head_variable() {
        let errs = errors("r1 out(@X,Z) :- a(@X,Y).");
        assert!(errs.iter().any(|e| e.message.contains("Z")));
    }

    #[test]
    fn rejects_unbound_head_location() {
        let errs = errors("r1 out(@W,Y) :- a(@X,Y).");
        assert!(errs
            .iter()
            .any(|e| e.message.contains("head location variable W")));
    }

    #[test]
    fn rejects_duplicate_labels_and_bodyless_rules() {
        let errs = errors("r1 out(@X,Y) :- a(@X,Y). r1 out2(@X,Y) :- a(@X,Y).");
        assert!(errs.iter().any(|e| e.message.contains("duplicate")));
    }

    #[test]
    fn rejects_unbound_constraint_and_assignment_vars() {
        let errs = errors("r1 out(@X,Y) :- a(@X,Y), Z!=3.");
        assert!(errs
            .iter()
            .any(|e| e.message.contains("unbound variable Z")));

        let errs = errors("r1 out(@X,V) :- a(@X,Y), V=W+1.");
        assert!(errs.iter().any(|e| e.message.contains("not bound earlier")));
    }

    #[test]
    fn rejects_remote_aggregate_and_bad_table_keys() {
        let errs = errors("r1 out(@Y,min<C>) :- a(@X,Y,C).");
        assert!(errs
            .iter()
            .any(|e| e.message.contains("aggregate rules must derive")));

        let mut p2 = parse_program("bad2", "r1 out(@X,C) :- a(@X,C).").unwrap();
        p2.tables
            .push(crate::ast::TableDecl::with_keys("out", 2, vec![5]));
        let analysis = analyze(&p2);
        assert!(analysis
            .errors()
            .any(|e| e.message.contains("key position 5")));
    }

    #[test]
    fn spanned_validation_carries_line_col() {
        let src = "r1 out(@X,Z) :- a(@X,Y).\n";
        let (p, map) = parse_program_spanned("bad", src).unwrap();
        let analysis = analyze_with_source(&p, Some(&map));
        let e = analysis
            .errors()
            .find(|e| e.message.contains("head variable Z"))
            .expect("unbound head variable error");
        assert_eq!(e.code, "E004");
        let span = e.span.expect("span recorded");
        assert_eq!(map.line_col(span.start), (1, 11)); // the `Z` head argument
        assert!(e.to_string().contains("E004"), "{e}");
        // Unspanned validation keeps spans empty.
        assert!(analyze(&p).errors().all(|e| e.span.is_none()));
    }
}
