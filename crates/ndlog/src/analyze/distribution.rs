//! Pass 4 — distribution-shape notes.
//!
//! Nothing here is wrong, exactly — these notes explain what a program will
//! *cost* when deployed, using the same compiled plans the engine executes
//! ([`crate::plan::ProgramPlans`] over the normalized program, so the report
//! matches runtime behavior exactly):
//!
//! * `N001` — a rule with a remote head (`head(@Z, …) :- body(@S, …)`)
//!   derives into a relation consumed by an aggregate: every candidate
//!   derivation crosses the network just to lose the `min`/`max`/`count`
//!   race at the destination.  (This is the per-derivation traffic the
//!   paper's MINCOST evaluation measures.)
//! * `N002` — a probe the runtime answers with a table scan: one per entry
//!   of [`ProgramPlans::demands`], a probed column set that no prefix of the
//!   table's primary key serves.
//! * `N003` — a (rule, trigger) join level with no probe key, which falls
//!   back to a full table scan.
//! * `N004` — a trigger whose plan joins a transient event predicate:
//!   transient state is never materialized, so the trigger is dead weight.

use crate::ast::{BodyItem, Program, Term};
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap};
use crate::plan::ProgramPlans;
use exspan_types::RelId;

/// Runs the pass, pushing diagnostics into `out`.
pub(crate) fn check(program: &Program, source: Option<&SourceMap>, out: &mut Diagnostics) {
    remote_feeds_into_aggregates(program, source, out);

    // Plans are compiled over the normalized program — the form the engine
    // executes.  `normalize` preserves rule order and count, so rule indexes
    // (and therefore spans) stay aligned with the source.
    let norm = program.normalize();
    let plans = ProgramPlans::compile(&norm);

    for (rel, keys) in &plans.demands {
        let span = table_span(program, source, *rel);
        for key in keys {
            let cols: Vec<String> = key.iter().map(|c| format!("col{c}")).collect();
            let msg = format!(
                "the delta-join planner scans {rel} at each probe on ({}): \
                 no prefix of its primary key serves them",
                cols.join(", ")
            );
            out.push(Diagnostic::new("N002", Severity::Note, None, msg).with_span(span));
        }
    }

    let mut triggers: Vec<_> = plans.triggers.iter().collect();
    triggers.sort_by_key(|((ri, ai), _)| (*ri, *ai));
    for ((ri, ai), plan) in triggers {
        let rule = &norm.rules[*ri];
        let span = source.and_then(|m| m.rule(*ri).map(|r| r.full));
        let BodyItem::Atom(trigger) = &rule.body[*ai] else {
            continue;
        };
        if plan.dead {
            let msg = format!(
                "when triggered by {}, this rule joins a transient event predicate \
                 that is never materialized; the trigger can produce no results",
                trigger.relation
            );
            out.push(
                Diagnostic::new("N004", Severity::Note, Some(rule.label), msg).with_span(span),
            );
            continue;
        }
        for level in &plan.levels {
            if !level.probes() {
                let msg = format!(
                    "when triggered by {}, the join probes no index for {} and \
                     falls back to a full scan",
                    trigger.relation, level.relation
                );
                out.push(
                    Diagnostic::new("N003", Severity::Note, Some(rule.label), msg).with_span(span),
                );
            }
        }
    }
}

/// `N001`: remote-headed rules deriving into an aggregate's input.
fn remote_feeds_into_aggregates(
    program: &Program,
    source: Option<&SourceMap>,
    out: &mut Diagnostics,
) {
    for (ri, rule) in program.rules.iter().enumerate() {
        let Some(first) = rule.body_atoms().next() else {
            continue;
        };
        let remote = match (&rule.head.location, &first.location) {
            (Term::Var(h), Term::Var(b)) => h != b,
            // A constant head location is a fixed destination: remote from
            // every other node.
            (Term::Const(_), _) => true,
            _ => false,
        };
        if !remote {
            continue;
        }
        for agg_rule in &program.rules {
            let Some((func, _, _)) = agg_rule.head.aggregate() else {
                continue;
            };
            if !agg_rule
                .body_atoms()
                .any(|a| a.relation == rule.head.relation)
            {
                continue;
            }
            let span = source.and_then(|m| m.rule(ri).map(|r| r.full));
            let msg = format!(
                "every derivation of {} is sent across the network into the {func} \
                 aggregate of rule {}; most arrivals lose the aggregate race",
                rule.head.relation, agg_rule.label
            );
            out.push(
                Diagnostic::new("N001", Severity::Note, Some(rule.label), msg).with_span(span),
            );
        }
    }
}

fn table_span(
    program: &Program,
    source: Option<&SourceMap>,
    rel: RelId,
) -> Option<crate::diag::Span> {
    let map = source?;
    let ti = program.tables.iter().position(|t| t.relation == rel)?;
    map.tables.get(ti).copied()
}

#[cfg(test)]
mod tests {
    use crate::analyze::analyze;
    use crate::parser::parse_program;

    fn note_codes(src: &str) -> Vec<&'static str> {
        let p = parse_program("t", src).unwrap();
        analyze(&p).notes().map(|d| d.code).collect()
    }

    #[test]
    fn mincost_reports_n001_and_no_n002() {
        let a = analyze(&crate::programs::mincost());
        let notes: Vec<_> = a.notes().map(|d| d.code).collect();
        assert!(notes.contains(&"N001"), "{notes:?}");
        assert!(!notes.contains(&"N002"), "{notes:?}");
    }

    #[test]
    fn a_probe_no_primary_prefix_serves_is_a_scan() {
        // Triggered by a, t is probed on (loc, C) = [0,2] under key [0,1]:
        // that is the program's one demand.
        let p = parse_program(
            "t",
            "materialize(t, 3, keys(0,1)).\n\
             r1 out(@S,C) :- a(@S,C), t(@S,D,C).\n",
        )
        .unwrap();
        let a = analyze(&p);
        let n002: Vec<_> = a.notes().filter(|d| d.code == "N002").collect();
        let msgs: Vec<_> = n002.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            msgs,
            [
                "the delta-join planner scans t at each probe on (col0, col2): \
              no prefix of its primary key serves them"
            ]
        );
    }

    #[test]
    fn local_rules_produce_no_remote_feed_note() {
        let codes = note_codes(
            "a1 pathCost(@S,D,C) :- link(@S,D,C).\n\
             a2 best(@S,D,min<C>) :- pathCost(@S,D,C).\n",
        );
        assert!(!codes.contains(&"N001"), "{codes:?}");
    }

    #[test]
    fn event_join_trigger_is_flagged_dead() {
        // Triggered by hop, the plan must join the transient ePing — dead.
        let codes = note_codes("f1 out(@N,D) :- ePing(@S,D), hop(@S,N).\n");
        assert!(codes.contains(&"N004"), "{codes:?}");
    }

    #[test]
    fn location_only_joins_fall_back_to_scans() {
        let codes = note_codes("j1 out(@S,X,Y) :- a(@S,X), b(@S,Y).\n");
        assert!(codes.contains(&"N003"), "{codes:?}");
    }
}
