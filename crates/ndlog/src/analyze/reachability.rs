//! Pass 3 — reachability and liveness warnings.
//!
//! Computes the set of *derivable* relations by fixpoint: base relations
//! (never the head of any rule — seeded externally, like the topology's
//! `link` table or a test's injected deltas) and event predicates (injected
//! by workloads) start derivable; a rule whose body atoms are all derivable
//! makes its head derivable.  Anything left over is dead weight:
//!
//! * `W001` — a derived relation that can never actually be derived (its
//!   rules all depend, directly or transitively, on underivable state).
//! * `W002` — a rule that can never fire because a body atom is underivable.
//! * `W003` — a `materialize` declaration no rule reads *or* writes
//!   (write-only tables are fine: they are a program's outputs).

use crate::ast::{BodyItem, Program};
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap};
use exspan_types::RelId;
use std::collections::BTreeSet;

/// Runs the pass, pushing diagnostics into `out`.
pub(crate) fn check(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    let heads: BTreeSet<RelId> = program.rules.iter().map(|r| r.head.relation).collect();
    let read: BTreeSet<RelId> = program
        .rules
        .iter()
        .flat_map(|r| r.body_atoms().map(|a| a.relation))
        .collect();

    // Seeds: base relations (mentioned anywhere but never derived) and event
    // predicates (injected by the workload even when rules also derive them).
    let mut derivable: BTreeSet<RelId> = BTreeSet::new();
    let tables = program.tables.iter().map(|t| t.relation);
    let mentioned: BTreeSet<RelId> = heads.iter().chain(&read).copied().chain(tables).collect();
    for &rel in &mentioned {
        if !heads.contains(&rel) || crate::is_event_predicate(rel.as_str()) {
            derivable.insert(rel);
        }
    }

    // Fixpoint.
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if derivable.contains(&rule.head.relation) {
                continue;
            }
            if rule.body_atoms().all(|a| derivable.contains(&a.relation)) {
                derivable.insert(rule.head.relation);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // W001: derived-but-underivable relations, reported at their first
    // body occurrence (that is where the dead dependency bites).
    let mut reported: BTreeSet<RelId> = BTreeSet::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        for (bi, item) in rule.body.iter().enumerate() {
            let BodyItem::Atom(a) = item else { continue };
            if derivable.contains(&a.relation) || !reported.insert(a.relation) {
                continue;
            }
            let span = source.and_then(|m| m.body_item(ri, bi));
            let msg = format!(
                "{} can never be derived: every rule deriving it depends on underivable state",
                a.relation
            );
            out.push(Diagnostic::new("W001", Severity::Warning, None, msg).with_span(span));
        }
    }

    // W002: rules that can never fire.
    for (ri, rule) in program.rules.iter().enumerate() {
        let dead = rule.body_atoms().find(|a| !derivable.contains(&a.relation));
        if let Some(atom) = dead {
            let span = source.and_then(|m| m.rule(ri).map(|r| r.full));
            let msg = format!(
                "rule can never fire: body atom {} is never derivable",
                atom.relation
            );
            out.push(
                Diagnostic::new("W002", Severity::Warning, Some(rule.label), msg).with_span(span),
            );
        }
    }

    // W003: declared tables neither read nor written.
    for (ti, table) in program.tables.iter().enumerate() {
        if read.contains(&table.relation) || heads.contains(&table.relation) {
            continue;
        }
        // The engine seeds `link` from the topology even when no rule
        // derives it, so a declared-but-unread link table is still unused.
        let span = source.and_then(|m| m.tables.get(ti).copied());
        let msg = format!(
            "table {} is declared but no rule reads or writes it",
            table.relation
        );
        out.push(Diagnostic::new("W003", Severity::Warning, None, msg).with_span(span));
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::analyze;
    use crate::parser::parse_program;

    fn warning_codes(src: &str) -> Vec<&'static str> {
        let p = parse_program("t", src).unwrap();
        analyze(&p).warnings().map(|d| d.code).collect()
    }

    #[test]
    fn underivable_relation_warns() {
        // ghost is derived only from itself: no base case.
        let codes = warning_codes(
            "g1 ghost(@S,X) :- ghost(@S,X).\n\
             r1 out(@S,X) :- ghost(@S,X).\n",
        );
        assert!(codes.contains(&"W001"), "{codes:?}");
        assert!(codes.contains(&"W002"), "{codes:?}");
    }

    #[test]
    fn event_predicates_are_externally_injectable() {
        let codes = warning_codes(
            "f1 ePacket(@N,D) :- ePacket(@S,D), hop(@S,N).\n\
             f2 got(@S,D) :- ePacket(@S,D).\n",
        );
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn unused_table_warns_but_write_only_does_not() {
        let codes = warning_codes(
            "materialize(orphan, 2, keys(0)).\n\
             materialize(sink, 2, keys(0)).\n\
             r1 sink(@S,X) :- a(@S,X).\n",
        );
        assert_eq!(codes, vec!["W003"], "{codes:?}");
    }

    #[test]
    fn builtins_have_no_liveness_warnings() {
        for p in [
            crate::programs::mincost(),
            crate::programs::path_vector(),
            crate::programs::packet_forward(),
        ] {
            let a = analyze(&p);
            assert!(
                !a.diagnostics.has_warnings(),
                "{}: {}",
                p.name,
                a.diagnostics.render(None)
            );
        }
    }
}
