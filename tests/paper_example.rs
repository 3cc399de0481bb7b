//! Reproduces the paper's running example end-to-end: the Figure 3 topology,
//! the Figure 4/5 provenance graph of `bestPathCost(@a,c,5)` and the contents
//! of the `prov` / `ruleExec` tables of Tables 1 and 2.

use exspan::core::storage::{all_prov_entries, prov_entries, rule_exec_entry};
use exspan::core::{Annotation, Deployment, ProvExpr, ProvenanceMode, Repr};
use exspan::ndlog::programs;
use exspan::netsim::Topology;
use exspan::setup;
use exspan::types::tuple::rule_exec_id;
use exspan::types::{Tuple, Value, Vid};

const A: u32 = 0;
const B: u32 = 1;
const C: u32 = 2;

fn tuple(rel: &str, loc: u32, dst: u32, cost: i64) -> Tuple {
    Tuple::new(rel, loc, vec![Value::Node(dst), Value::Int(cost)])
}

fn reference_system() -> Deployment {
    setup::mincost_reference(Topology::paper_example(), 1)
}

#[test]
fn figure_3_best_path_costs() {
    let system = reference_system();
    // Best path costs from a (Figure 3): b=3, c=5, d=8.
    let expected = [(B, 3), (C, 5), (3u32, 8)];
    let a_best = system.tuples_shared(A, "bestPathCost");
    for (dest, cost) in expected {
        assert!(
            a_best
                .iter()
                .any(|t| **t == tuple("bestPathCost", A, dest, cost)),
            "missing bestPathCost(@a,{dest},{cost}); have {a_best:?}"
        );
    }
}

#[test]
fn table_1_prov_entries_for_the_example() {
    let system = reference_system();
    let engine = system.engine();

    // pathCost(@a,c,5) is derivable in two alternative ways (rows 2-3 of
    // Table 1): via sp1 at a and via sp2 at b.
    let pc_a_c_5 = tuple("pathCost", A, C, 5);
    let entries = prov_entries(engine, A, pc_a_c_5.vid());
    assert_eq!(
        entries.len(),
        2,
        "pathCost(@a,c,5) must have two derivations"
    );
    let mut rlocs: Vec<u32> = entries.iter().map(|e| e.rloc).collect();
    rlocs.sort();
    assert_eq!(rlocs, vec![A, B]);
    assert!(entries.iter().all(|e| !e.is_base()));

    // Base tuples carry the null RID (rows 1, 5, 6 of Table 1).
    let link_a_c = tuple("link", A, C, 5);
    let base = prov_entries(engine, A, link_a_c.vid());
    assert_eq!(base.len(), 1);
    assert!(base[0].is_base());
    assert_eq!(base[0].rloc, A);

    // bestPathCost(@a,c,5) has exactly one derivation, local to a (row 4).
    let bpc = tuple("bestPathCost", A, C, 5);
    let bpc_entries = prov_entries(engine, A, bpc.vid());
    assert_eq!(bpc_entries.len(), 1);
    assert_eq!(bpc_entries[0].rloc, A);

    // The prov table is partitioned by location: node a never stores entries
    // for tuples located at b.
    for entry in all_prov_entries(engine) {
        let at_loc = prov_entries(engine, entry.loc, entry.vid);
        assert!(at_loc.contains(&entry));
    }
}

#[test]
fn table_2_rule_exec_entries_match_figure_5() {
    let system = reference_system();
    let engine = system.engine();

    // The sp2 execution at b (RID3 in Figure 5) has inputs link(@b,a,3) and
    // bestPathCost(@b,c,2), in body order.
    let link_b_a = tuple("link", B, A, 3);
    let bpc_b_c = tuple("bestPathCost", B, C, 2);
    let expected_rid = rule_exec_id("sp2", B, &[link_b_a.vid(), bpc_b_c.vid()]);
    let exec = rule_exec_entry(engine, B, expected_rid)
        .expect("ruleExec entry for sp2@b must exist (Table 2, row 4)");
    assert_eq!(exec.rule, "sp2");
    assert_eq!(exec.rloc, B);
    assert_eq!(exec.vids, vec![link_b_a.vid(), bpc_b_c.vid()]);

    // The derivation it produced is pathCost(@a,c,5): its prov entry points
    // back to this RID at b.
    let pc = tuple("pathCost", A, C, 5);
    let via_b = prov_entries(engine, A, pc.vid())
        .into_iter()
        .find(|e| e.rloc == B)
        .expect("remote derivation entry");
    assert_eq!(via_b.rid, Some(expected_rid));

    // The sp3 execution at a (RID5) takes pathCost(@a,c,5) as its only input.
    let bpc_a_c = tuple("bestPathCost", A, C, 5);
    let sp3_entry = prov_entries(engine, A, bpc_a_c.vid())
        .into_iter()
        .next()
        .expect("prov entry for bestPathCost(@a,c,5)");
    let sp3_exec = rule_exec_entry(engine, A, sp3_entry.rid.unwrap())
        .expect("ruleExec for sp3@a must exist (Table 2, row 2)");
    assert_eq!(sp3_exec.rule, "sp3");
    assert_eq!(sp3_exec.vids, vec![pc.vid()]);
}

#[test]
fn figure_4_provenance_polynomial_of_best_path_cost() {
    let mut system = reference_system();
    let target = tuple("bestPathCost", A, C, 5);
    let outcome = system
        .query(&target)
        .issuer(3)
        .repr(Repr::Polynomial)
        .execute();
    let expr = outcome.annotation.expect("query completes");
    let expr = expr.as_expr().unwrap();
    // Two alternative derivations (the two paths of Figure 4).
    assert_eq!(expr.num_derivations(), 2);
    // The base tuples involved are exactly link(@a,c,5), link(@b,a,3) and
    // link(@b,c,2).
    let bases = expr.base_tuples();
    let expected: std::collections::BTreeSet<_> = [
        tuple("link", A, C, 5).vid(),
        tuple("link", B, A, 3).vid(),
        tuple("link", B, C, 2).vid(),
    ]
    .into_iter()
    .collect();
    assert_eq!(bases, expected);
    // The printed polynomial mentions both rule executions.
    let printed = expr.to_string();
    assert!(printed.contains("sp1@n0") || printed.contains("sp2@n1"));
}

#[test]
fn node_level_provenance_is_a_b() {
    // §3: the node-level provenance of bestPathCost(@a,c,5) is {a, b}.
    let mut system = reference_system();
    let target = tuple("bestPathCost", A, C, 5);
    let outcome = system
        .query(&target)
        .issuer(3)
        .repr(Repr::NodeSet)
        .execute();
    let nodes = outcome.annotation.expect("query completes");
    assert_eq!(
        nodes
            .as_nodes()
            .unwrap()
            .iter()
            .copied()
            .collect::<Vec<_>>(),
        vec![A, B]
    );
}

#[test]
fn provenance_graph_is_acyclic() {
    // §4.1 models provenance as an acyclic graph; walk every edge
    // (prov -> ruleExec -> child prov) and check no VID is its own ancestor.
    let system = reference_system();
    let engine = system.engine();
    let entries = all_prov_entries(engine);
    for entry in &entries {
        let mut stack = vec![entry.vid];
        let mut visited = std::collections::HashSet::new();
        let mut depth = 0usize;
        while let Some(vid) = stack.pop() {
            depth += 1;
            assert!(depth < 10_000, "provenance traversal did not terminate");
            for e in prov_entries(engine, entry.loc, vid)
                .into_iter()
                .chain(entries.iter().filter(|e| e.vid == vid).cloned())
            {
                if let Some(rid) = e.rid {
                    if let Some(exec) = rule_exec_entry(engine, e.rloc, rid) {
                        for child in exec.vids {
                            assert_ne!(child, entry.vid, "cycle through {:?}", entry.vid);
                            if visited.insert(child) {
                                stack.push(child);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn reference_mode_overhead_is_small_on_the_example() {
    // The reference-based run exchanges more bytes than the bare protocol but
    // far fewer than value-based provenance — the core claim of the paper.
    let programs = programs::mincost();
    let run =
        |mode| setup::converged(programs.clone(), Topology::paper_example(), mode, 1).total_bytes();
    let none = run(ProvenanceMode::None);
    let reference = run(ProvenanceMode::Reference);
    let value = run(ProvenanceMode::ValueBdd);
    assert!(none > 0);
    assert!(reference > none, "reference-based must add some overhead");
    assert!(
        value > reference,
        "value-based must cost more than reference-based"
    );
}

/// `e` evaluated in the Boolean semiring: a base tuple is true when trusted.
fn holds(e: &ProvExpr, trusted: &dyn Fn(Vid) -> bool) -> bool {
    match e {
        ProvExpr::Base(v) => trusted(*v),
        ProvExpr::Sum { terms, .. } => terms.iter().any(|t| holds(t, trusted)),
        ProvExpr::Product { factors, .. } => factors.iter().all(|f| holds(f, trusted)),
    }
}

/// The exact traffic of a fixed query sequence — once uncached, then twice in
/// a caching session — under every representation, so that a change in what
/// the query protocol sends, caches or answers fails here, not only in the
/// benchmark's exact counts.  Only a BDD session evaluates trust assignments,
/// in its own store: each of its answers, evaluated under every assignment
/// of the polynomial's base tuples, must equal the polynomial evaluated in
/// the Boolean semiring (the PosBool homomorphism).  The trust-domain map
/// leaves b unmapped, so b is its own domain, 1 — the domain a is mapped to
/// as well.
#[test]
fn query_traffic_of_a_fixed_sequence_is_pinned() {
    let polynomial =
        "<sp3@n0>((<sp1@n0>(e374ded6) + <sp2@n1>(b1528719*<sp3@n1>(<sp1@n1>(eae52576))))@n0)";
    // Per representation: the answer, then bytes, messages, cache hits and
    // misses of the uncached session and of the caching one, then what
    // `derivable_under` says when every base tuple is trusted.
    let pinned = [
        (
            Repr::Polynomial,
            polynomial,
            [(562, 4, 0, 12), (859, 6, 1, 12)],
            None,
        ),
        (
            Repr::NodeSet,
            "Nodes({0, 1})",
            [(400, 4, 0, 12), (596, 6, 1, 12)],
            None,
        ),
        (
            Repr::DerivationCount,
            "Count(2)",
            [(392, 4, 0, 12), (582, 6, 1, 12)],
            None,
        ),
        (
            Repr::Derivability,
            "Bool(true)",
            [(386, 4, 0, 12), (573, 6, 1, 12)],
            None,
        ),
        (
            Repr::Bdd,
            // A handle into the session's own store, which numbers its
            // nodes from 2: the three literals, `ba·bc`, then the answer.
            "Bdd(Bdd(6))",
            [(452, 4, 0, 12), (678, 6, 1, 12)],
            Some(true),
        ),
        (
            Repr::TrustDomain([(A, B)].into()),
            "Domains({1})",
            [(396, 4, 0, 12), (588, 6, 1, 12)],
            None,
        ),
        (
            Repr::ContiguousTrustDomains(2),
            "Domains({0})",
            [(396, 4, 0, 12), (588, 6, 1, 12)],
            None,
        ),
    ];
    let target = tuple("bestPathCost", A, C, 5);
    let outcome = reference_system().query(&target).issuer(3).execute();
    let expr = outcome.annotation.as_ref().and_then(Annotation::as_expr);
    let expr = expr.expect("a polynomial answer");
    assert_eq!(expr.to_string(), polynomial);
    let bases: Vec<Vid> = expr.base_tuples().into_iter().collect();
    for (repr, answer, traffic, trusted) in pinned {
        let mut system = reference_system();
        let mut handles = Vec::new();
        for cached in [false, true, true] {
            let query = system.query(&target).issuer(3).repr(repr.clone());
            handles.push(query.cached(cached).submit());
            system.run_to_fixpoint();
        }
        for (handle, traffic) in [handles[0], handles[2]].into_iter().zip(traffic) {
            let outcome = system.outcome(handle).expect("submitted");
            let observed = match outcome.annotation.as_ref().expect("completed") {
                Annotation::Expr(e) => e.to_string(),
                other => format!("{other:?}"),
            };
            assert_eq!(observed, answer, "{repr:?}");
            let session = system.session(handle);
            let s = session.stats();
            let observed = (s.bytes, s.messages, s.cache_hits, s.cache_misses);
            assert_eq!(observed, traffic, "{repr:?}");
            assert_eq!(
                system.derivable_under(handle, |_| true),
                trusted,
                "{repr:?}"
            );
            assert_eq!(session.bdd().is_some(), repr == Repr::Bdd, "{repr:?}");
            if repr != Repr::Bdd {
                continue;
            }
            for mask in 0..1u32 << bases.len() {
                let trusted = |v: Vid| {
                    (bases.iter())
                        .position(|b| *b == v)
                        .is_some_and(|i| mask >> i & 1 == 1)
                };
                assert_eq!(
                    system.derivable_under(handle, trusted),
                    Some(holds(expr, &trusted)),
                    "trusted set {mask:03b}"
                );
            }
        }
    }
}
