//! The provenance-maintenance rewrite (paper §4.2, Algorithm 1).
//!
//! Given a localized NDlog program, the rewrite produces an augmented program
//! that — when executed by the ordinary distributed engine — maintains the
//! distributed provenance graph as a side effect of protocol execution:
//!
//! * For every non-aggregate rule `h(@H1,…) :- t1(@X,…), …, tn(@X,…), c1, …`
//!   a *derivation rule* is generated that computes the rule-execution
//!   identifier `RID = SHA1(R + RLoc + VIDList)` and emits a local
//!   `e<H>Temp` event carrying everything needed to (a) install the
//!   `ruleExec` entry at the executing node, (b) ship the original derivation
//!   plus the `(RID, RLoc)` pointer to the head's location, and (c) install
//!   the `prov` entry there.
//! * Per derived relation, four *shared* rules consume those events: one
//!   installs `ruleExec`, one forwards the `e<H>` message, one re-derives the
//!   original head tuple (so the rewritten program subsumes the original),
//!   and one installs the `prov` entry.
//! * Per base relation, a rule installs the `prov` entry with a `null` RID,
//!   marking base tuples as EDB leaves of the provenance graph (Table 1).
//! * Aggregate (MIN/MAX) rules are left untouched: their provenance — the
//!   winning input tuple (§4.2.2) — is maintained natively by the engine for
//!   every program that declares the `prov` and `ruleExec` tables, as the
//!   output of this rewrite does ([`exspan_runtime::Engine::new`]).
//!
//! The only change to messages exchanged by the original protocol is the
//! extra `(RID, RLoc)` pair — 24 bytes — on each inter-node derivation, which
//! is precisely the reference-based provenance overhead evaluated in §7.

use exspan_ndlog::ast::{Atom, BodyItem, Expr, HeadArg, Program, Rule, RuleHead, TableDecl, Term};
use exspan_types::{RelId, Symbol, Value};
use std::collections::BTreeMap;

/// Options controlling the rewrite.  It has none: the type stays so that
/// callers of [`provenance_rewrite`] keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {}

/// Capitalizes the first character of a relation name (used to build the
/// generated event-relation names, e.g. `pathCost` → `ePathCostTemp`).
fn capitalize(name: &str) -> String {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) => c.to_ascii_uppercase().to_string() + chars.as_str(),
        None => String::new(),
    }
}

/// Name of the temporary local event for a derived relation.
fn temp_event_name(relation: &str) -> String {
    format!("e{}Temp", capitalize(relation))
}

/// Name of the cross-node derivation event for a derived relation.
fn send_event_name(relation: &str) -> String {
    format!("e{}Prov", capitalize(relation))
}

/// Applies the provenance rewrite to `program`.
///
/// The input program is normalized first (head expressions become explicit
/// assignments) so that every head argument is a plain term.
pub fn provenance_rewrite(program: &Program, _options: RewriteOptions) -> Program {
    let program = program.normalize();
    let mut out = Program::new(format!("{}+prov", program.name));
    out.tables = program.tables.clone();
    // The provenance tables themselves (set semantics: one row per edge of
    // the provenance graph).
    out.tables.push(TableDecl::new("prov", 4));
    out.tables.push(TableDecl::new("ruleExec", 4));

    // Group non-aggregate rules by head relation so the four shared rules are
    // emitted once per relation.
    let mut heads: BTreeMap<RelId, usize> = BTreeMap::new();

    for rule in &program.rules {
        if rule.is_aggregate() {
            // Aggregates keep their original form; the engine maintains their
            // provenance natively (winning-tuple child, §4.2.2).
            out.rules.push(rule.clone());
            continue;
        }
        out.rules.push(derivation_rule(rule));
        heads
            .entry(rule.head.relation)
            .or_insert(rule.head.args.len());
    }

    for (relation, arity) in &heads {
        out.rules.extend(shared_rules(relation.as_str(), *arity));
    }

    // Base-tuple provenance entries (null RID).
    for base in program.base_relations() {
        if let Some(decl) = program.table(base.as_str()) {
            out.rules.push(base_prov_rule(base.as_str(), decl.arity));
        }
    }

    out
}

/// Builds the per-rule derivation rule (the analogue of `r20` in §4.2.1).
fn derivation_rule(rule: &Rule) -> Rule {
    let body_atoms: Vec<&Atom> = rule.body_atoms().collect();
    let body_loc = body_atoms
        .first()
        .map(|a| a.location.clone())
        .expect("validated rules have at least one body atom");

    let mut body = rule.body.clone();

    // RLoc = <body location>, R = <rule label>.
    body.push(BodyItem::Assign(
        "ProvRLoc".into(),
        Expr::Term(body_loc.clone()),
    ));
    body.push(BodyItem::Assign("ProvR".into(), Expr::constant(rule.label)));

    // PID_i = f_sha1("t_i", loc, args…) for each body atom.
    let mut pid_vars = Vec::new();
    for (i, atom) in body_atoms.iter().enumerate() {
        let pid = Symbol::intern(&format!("ProvPid{i}"));
        let mut args = vec![
            Expr::constant(atom.relation),
            Expr::Term(atom.location.clone()),
        ];
        args.extend(atom.args.iter().map(|t| Expr::Term(t.clone())));
        body.push(BodyItem::Assign(pid, Expr::call("f_sha1", args)));
        pid_vars.push(pid);
    }

    // List = f_append(PID_1, …, PID_n); RID = f_sha1(R, RLoc, List).
    body.push(BodyItem::Assign(
        "ProvList".into(),
        Expr::call("f_append", pid_vars.iter().map(|p| Expr::var(*p)).collect()),
    ));
    body.push(BodyItem::Assign(
        "ProvRid".into(),
        Expr::call(
            "f_sha1",
            vec![
                Expr::var("ProvR"),
                Expr::var("ProvRLoc"),
                Expr::var("ProvList"),
            ],
        ),
    ));

    // Head: e<H>Temp(@RLoc, H1, …, Ho, RID, R, List).
    let mut args = vec![head_location_as_arg(rule)];
    args.extend(rule.head.args.iter().cloned());
    args.push(HeadArg::Term(Term::var("ProvRid")));
    args.push(HeadArg::Term(Term::var("ProvR")));
    args.push(HeadArg::Term(Term::var("ProvList")));

    Rule::new(
        format!("{}_prov", rule.label),
        RuleHead::new(
            temp_event_name(rule.head.relation.as_str()),
            Term::var("ProvRLoc"),
            args,
        ),
        body,
    )
}

/// The original head location, re-expressed as an ordinary argument of the
/// temporary event.
fn head_location_as_arg(rule: &Rule) -> HeadArg {
    HeadArg::Term(rule.head.location.clone())
}

/// Builds the four shared rules for one derived relation of arity
/// `1 + num_args` (location + `num_args` attributes).
fn shared_rules(relation: &str, num_args: usize) -> Vec<Rule> {
    let temp = temp_event_name(relation);
    let send = send_event_name(relation);
    // Variables H1 (head location) and A1..A<num_args>.
    let head_loc = Term::var("ProvH1");
    let arg_vars: Vec<Term> = (0..num_args)
        .map(|i| Term::var(format!("ProvA{i}")))
        .collect();

    // Body atom matching the temp event:
    //   e<H>Temp(@RLoc, H1, A…, RID, R, List)
    let temp_atom = |_with: ()| {
        let mut args = vec![head_loc.clone()];
        args.extend(arg_vars.iter().cloned());
        args.push(Term::var("ProvRid"));
        args.push(Term::var("ProvR"));
        args.push(Term::var("ProvList"));
        Atom::new(temp.clone(), Term::var("ProvRLoc"), args)
    };

    // Body atom matching the send event:
    //   e<H>Prov(@H1, A…, RID, RLoc)
    let send_atom = || {
        let mut args: Vec<Term> = arg_vars.clone();
        args.push(Term::var("ProvRid"));
        args.push(Term::var("ProvRLoc"));
        Atom::new(send.clone(), head_loc.clone(), args)
    };

    let mut rules = Vec::new();

    // ruleExec(@RLoc, RID, R, List) :- e<H>Temp(...).
    rules.push(Rule::new(
        format!("prov_{relation}_exec"),
        RuleHead::new(
            "ruleExec",
            Term::var("ProvRLoc"),
            vec![
                HeadArg::Term(Term::var("ProvRid")),
                HeadArg::Term(Term::var("ProvR")),
                HeadArg::Term(Term::var("ProvList")),
            ],
        ),
        vec![BodyItem::Atom(temp_atom(()))],
    ));

    // e<H>Prov(@H1, A…, RID, RLoc) :- e<H>Temp(...).
    let mut send_head_args: Vec<HeadArg> = arg_vars.iter().cloned().map(HeadArg::Term).collect();
    send_head_args.push(HeadArg::Term(Term::var("ProvRid")));
    send_head_args.push(HeadArg::Term(Term::var("ProvRLoc")));
    rules.push(Rule::new(
        format!("prov_{relation}_send"),
        RuleHead::new(send.clone(), head_loc.clone(), send_head_args),
        vec![BodyItem::Atom(temp_atom(()))],
    ));

    // h(@H1, A…) :- e<H>Prov(...).
    rules.push(Rule::new(
        format!("prov_{relation}_derive"),
        RuleHead::new(
            relation,
            head_loc.clone(),
            arg_vars.iter().cloned().map(HeadArg::Term).collect(),
        ),
        vec![BodyItem::Atom(send_atom())],
    ));

    // prov(@H1, VID, RID, RLoc) :- e<H>Prov(...), VID = f_sha1("h", H1, A…).
    let mut vid_args = vec![Expr::constant(relation), Expr::Term(head_loc.clone())];
    vid_args.extend(arg_vars.iter().map(|t| Expr::Term(t.clone())));
    rules.push(Rule::new(
        format!("prov_{relation}_prov"),
        RuleHead::new(
            "prov",
            head_loc.clone(),
            vec![
                HeadArg::Term(Term::var("ProvVid")),
                HeadArg::Term(Term::var("ProvRid")),
                HeadArg::Term(Term::var("ProvRLoc")),
            ],
        ),
        vec![
            BodyItem::Atom(send_atom()),
            BodyItem::Assign("ProvVid".into(), Expr::call("f_sha1", vid_args)),
        ],
    ));

    rules
}

/// Builds the base-relation provenance rule:
/// `prov(@X, VID, null, X) :- base(@X, A…), VID = f_sha1("base", X, A…).`
fn base_prov_rule(relation: &str, arity: usize) -> Rule {
    let num_args = arity.saturating_sub(1);
    let loc = Term::var("ProvX");
    let arg_vars: Vec<Term> = (0..num_args)
        .map(|i| Term::var(format!("ProvB{i}")))
        .collect();
    let mut vid_args = vec![Expr::constant(relation), Expr::Term(loc.clone())];
    vid_args.extend(arg_vars.iter().map(|t| Expr::Term(t.clone())));
    Rule::new(
        format!("prov_{relation}_base"),
        RuleHead::new(
            "prov",
            loc.clone(),
            vec![
                HeadArg::Term(Term::var("ProvVid")),
                HeadArg::Term(Term::Const(Value::Digest([0u8; 20]))),
                HeadArg::Term(loc.clone()),
            ],
        ),
        vec![
            BodyItem::Atom(Atom::new(relation, loc.clone(), arg_vars)),
            BodyItem::Assign("ProvVid".into(), Expr::call("f_sha1", vid_args)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_ndlog::analyze;
    use exspan_ndlog::programs;

    #[test]
    fn rewritten_mincost_validates_and_has_expected_structure() {
        let p = provenance_rewrite(&programs::mincost(), RewriteOptions::default());
        assert!(!analyze(&p).has_errors(), "rewritten program must validate");
        // sp1 and sp2 each get a derivation rule; sp3 (aggregate) is kept.
        assert!(p.rule("sp1_prov").is_some());
        assert!(p.rule("sp2_prov").is_some());
        assert!(p.rule("sp3").is_some());
        assert!(
            p.rule("sp1").is_none(),
            "original non-aggregate rules are subsumed"
        );
        // Shared rules exist once for pathCost.
        assert!(p.rule("prov_pathCost_exec").is_some());
        assert!(p.rule("prov_pathCost_send").is_some());
        assert!(p.rule("prov_pathCost_derive").is_some());
        assert!(p.rule("prov_pathCost_prov").is_some());
        // Base provenance for link.
        assert!(p.rule("prov_link_base").is_some());
        // prov / ruleExec tables are declared.
        assert!(p.table("prov").is_some());
        assert!(p.table("ruleExec").is_some());
    }

    #[test]
    fn derivation_rule_computes_rid_from_body_vids() {
        let p = provenance_rewrite(&programs::mincost(), RewriteOptions::default());
        let r = p.rule("sp2_prov").unwrap();
        // Two body atoms -> two PID assignments, plus RLoc, R, List, RID and
        // the original normalized C assignment.
        let assigns: Vec<&str> = r
            .body
            .iter()
            .filter_map(|b| match b {
                BodyItem::Assign(v, _) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        assert!(assigns.contains(&"ProvPid0"));
        assert!(assigns.contains(&"ProvPid1"));
        assert!(assigns.contains(&"ProvList"));
        assert!(assigns.contains(&"ProvRid"));
        assert!(assigns.contains(&"ProvRLoc"));
        assert!(assigns.contains(&"ProvR"));
        // The head is the temporary event at the rule location with
        // original-head-arity + 4 arguments (H1, D, C, RID, R, List).
        assert_eq!(r.head.relation, "ePathCostTemp");
        assert_eq!(r.head.args.len(), 3 + 3);
    }

    #[test]
    fn shared_rules_are_not_duplicated_per_source_rule() {
        // sp1 and sp2 both derive pathCost; the exec/send/derive/prov rules
        // must appear exactly once to avoid double derivations.
        let p = provenance_rewrite(&programs::mincost(), RewriteOptions::default());
        let count = |label: &str| p.rules.iter().filter(|r| r.label == label).count();
        assert_eq!(count("prov_pathCost_exec"), 1);
        assert_eq!(count("prov_pathCost_send"), 1);
        assert_eq!(count("prov_pathCost_derive"), 1);
        assert_eq!(count("prov_pathCost_prov"), 1);
    }

    #[test]
    fn rewritten_path_vector_and_packet_forward_validate() {
        for program in [programs::path_vector(), programs::packet_forward()] {
            let p = provenance_rewrite(&program, RewriteOptions::default());
            let errors: Vec<_> = analyze(&p).errors().cloned().collect();
            assert!(
                errors.is_empty(),
                "rewrite of {} failed validation: {errors:?}",
                program.name
            );
        }
    }

    #[test]
    fn event_head_relations_are_rewritten_too() {
        // PACKETFORWARD's f1 rule derives the ePacket event; its rewrite must
        // produce a derivation rule and shared rules for ePacket.
        let p = provenance_rewrite(&programs::packet_forward(), RewriteOptions::default());
        assert!(p.rule("f1_prov").is_some());
        assert!(p.rule("prov_ePacket_derive").is_some());
    }

    #[test]
    fn rewritten_programs_probe_what_the_originals_probe_with_no_scan() {
        // The derivation rules carry the original multi-atom bodies, so the
        // rewritten program must probe every (relation, columns) pair the
        // original does — the provenance overhead must not reintroduce
        // scans — and, like the original, every probe begins with its
        // table's primary key, so none is left to a scan.
        use exspan_ndlog::plan::{JoinPlan, ProgramPlans};
        use std::collections::BTreeSet;
        fn probed(plans: &ProgramPlans) -> BTreeSet<(RelId, Vec<usize>)> {
            let groups = plans.aggregates.values().map(|a| &a.group);
            let all: Vec<&JoinPlan> = plans.triggers.values().chain(groups).collect();
            let pairs = all.into_iter().flat_map(JoinPlan::probed);
            pairs.map(|(r, c)| (r, c.to_vec())).collect()
        }
        for program in [
            programs::path_vector(),
            programs::mincost(),
            programs::packet_forward(),
        ] {
            let original = ProgramPlans::compile(&program.normalize());
            let rewritten = provenance_rewrite(&program, RewriteOptions::default());
            let rewritten = ProgramPlans::compile(&rewritten.normalize());
            assert!(probed(&original).is_subset(&probed(&rewritten)));
            assert!(rewritten.demands.is_empty(), "{:?}", rewritten.demands);
            // The aggregate rules survive the rewrite untouched, so their
            // group re-enumeration plans are compiled for it too.
            assert_eq!(original.aggregates.len(), rewritten.aggregates.len());
        }
    }

    #[test]
    fn rewrite_preserves_analysis_verdict() {
        // Every analyzer-accepted builtin must stay error-free after the
        // provenance rewrite: the rewrite runs after analysis, so an error
        // it introduced would mean deploying a program the analyzer never
        // accepted.
        for program in [
            programs::mincost(),
            programs::path_vector(),
            programs::packet_forward(),
        ] {
            assert!(!exspan_ndlog::analyze(&program).has_errors());
            let rewritten = provenance_rewrite(&program, RewriteOptions::default());
            let analysis = exspan_ndlog::analyze(&rewritten);
            assert!(
                !analysis.has_errors(),
                "rewrite of {} introduced analysis errors:\n{}",
                program.name,
                analysis.diagnostics.render(None)
            );
        }
    }

    #[test]
    fn capitalize_behaviour() {
        assert_eq!(capitalize("pathCost"), "PathCost");
        assert_eq!(capitalize("ePacket"), "EPacket");
        assert_eq!(capitalize(""), "");
        assert_eq!(temp_event_name("pathCost"), "ePathCostTemp");
        assert_eq!(send_event_name("bestPath"), "eBestPathProv");
    }
}
