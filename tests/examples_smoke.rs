//! Smoke tests mirroring the core path of each `examples/` binary, so the
//! examples' API surface cannot silently rot between releases.
//!
//! Every scenario runs through the shared `exspan::setup` helper (the same
//! builder-based prologue the examples use) and is executed twice: on the
//! sequential engine (one shard — the historical behavior) and on the
//! sharded engine (three shards).  Each scenario returns a comparable
//! outcome, and the two executions must agree exactly — any determinism
//! drift between the sharded and sequential runtimes fails the suite.
//!
//! The two examples that build 100-node transit-stub networks are exercised
//! here on smaller topologies to keep debug-mode test time reasonable; CI
//! additionally runs the real binaries at full scale in release mode.

use exspan::core::storage::{all_prov_entries, all_rule_exec_entries};
use exspan::core::{Repr, Traversal};
use exspan::netsim::{ChurnModel, LinkClass, LinkProps, Topology};
use exspan::setup;
use exspan::types::{Tuple, Value};
use std::sync::Arc;

/// Runs `scenario` on the sequential oracle and on three shards and asserts
/// both executions produce the same outcome.
fn assert_sharding_invariant<T: PartialEq + std::fmt::Debug>(
    name: &str,
    scenario: impl Fn(usize) -> T,
) {
    let sequential = scenario(1);
    let sharded = scenario(3);
    assert_eq!(
        sequential, sharded,
        "{name}: sharded run diverged from the sequential engine"
    );
}

/// `examples/quickstart.rs`: Figure 3, provenance of `bestPathCost(@a,c,5)`
/// in three representations.
fn quickstart_core_path(shards: usize) -> (u64, Option<u64>, Vec<u32>) {
    let mut deployment = setup::mincost_reference(Topology::paper_example(), shards);
    assert!(!deployment.tuples_shared(0, "bestPathCost").is_empty());

    let target = Tuple::new("bestPathCost", 0, vec![Value::Node(2), Value::Int(5)]);

    let outcome = deployment
        .query(&target)
        .issuer(3)
        .repr(Repr::Polynomial)
        .execute();
    let polynomial = outcome.annotation.expect("polynomial query completes");
    let derivations = polynomial.as_expr().unwrap().num_derivations();
    assert_eq!(derivations, 2);

    let outcome = deployment
        .query(&target)
        .issuer(3)
        .repr(Repr::DerivationCount)
        .execute();
    let count = outcome.annotation.unwrap().as_count();
    assert_eq!(count, Some(2));

    let outcome = deployment
        .query(&target)
        .issuer(3)
        .repr(Repr::NodeSet)
        .execute();
    let nodes: Vec<u32> = outcome
        .annotation
        .unwrap()
        .as_nodes()
        .unwrap()
        .iter()
        .copied()
        .collect();
    assert_eq!(nodes, vec![0, 1]);
    (derivations, count, nodes)
}

#[test]
fn quickstart_smoke() {
    assert_sharding_invariant("quickstart", quickstart_core_path);
}

/// `examples/network_debugging.rs`: inspect the provenance graph, explain a
/// route, then fail a link and watch the state update incrementally.
fn network_debugging_core_path(shards: usize) -> (Vec<Arc<Tuple>>, String, Vec<Arc<Tuple>>) {
    let mut deployment = setup::mincost_reference(Topology::testbed_ring(12, 7), shards);
    assert!(!all_prov_entries(deployment.engine()).is_empty());
    assert!(!all_rule_exec_entries(deployment.engine()).is_empty());

    let routes = deployment.tuples_shared(0, "bestPathCost");
    let suspicious = routes
        .iter()
        .max_by_key(|t| t.values[1].as_int().unwrap_or(0))
        .expect("node 0 has routes")
        .clone();

    let outcome = deployment.query(&suspicious).repr(Repr::NodeSet).execute();
    assert!(!outcome.annotation.unwrap().as_nodes().unwrap().is_empty());

    let outcome = deployment
        .query(&suspicious)
        .repr(Repr::Polynomial)
        .execute();
    let expr_text = outcome.annotation.unwrap().as_expr().unwrap().to_string();
    assert!(!expr_text.is_empty());

    let neighbor = deployment.topology().neighbors(0)[0];
    deployment.remove_link(0, neighbor);
    deployment.run_to_fixpoint();
    // The network is still connected through the rest of the ring, so node 0
    // keeps a route to every other node.
    let remaining = deployment.tuples_shared(0, "bestPathCost");
    assert!(!remaining.is_empty());
    (routes, expr_text, remaining)
}

#[test]
fn network_debugging_smoke() {
    assert_sharding_invariant("network_debugging", network_debugging_core_path);
}

/// `examples/churn_diagnostics.rs`: cached derivation-count queries while
/// churn events are applied, all on the deployment's one clock.
fn churn_diagnostics_core_path(shards: usize) -> (Option<u64>, Vec<Arc<Tuple>>, u64, u64) {
    // The churn model only churns stub-stub links, so build a small ring of
    // them (the example's 100-node transit-stub network is too slow for a
    // debug-mode smoke test).
    let mut topology = Topology::empty(12);
    for i in 0..12u32 {
        topology.add_link(i, (i + 1) % 12, LinkProps::from_class(LinkClass::StubStub));
    }
    let churn = ChurnModel {
        interval: 0.5,
        changes_per_batch: 2,
        seed: 99,
    };
    let schedule = churn.schedule(&topology, 1.0);
    assert!(!schedule.is_empty(), "churn model produced no events");
    let mut deployment = setup::mincost_reference(topology, shards);

    let monitored = deployment
        .tuples_shared(0, "bestPathCost")
        .first()
        .expect("node 0 has routes")
        .clone();
    let handle = deployment
        .query(&monitored)
        .issuer(0)
        .repr(Repr::DerivationCount)
        .cached(true)
        .submit();
    deployment.run_to_fixpoint();
    let first_count = deployment
        .outcome(handle)
        .unwrap()
        .annotation
        .as_ref()
        .and_then(exspan::core::Annotation::as_count);
    assert!(first_count.is_some());

    // Churn changes the provenance beneath the cached result; the next
    // query's messages find it dropped.
    for event in &schedule {
        deployment.apply_churn_event(event);
    }
    deployment.run_to_fixpoint();

    let dest = monitored.values[0].clone();
    let surviving = deployment.tuples_shared(0, "bestPathCost");
    if let Some(current) = surviving.iter().find(|t| t.values[0] == dest) {
        let current = current.clone();
        let h = deployment
            .query(&current)
            .issuer(0)
            .repr(Repr::DerivationCount)
            .cached(true)
            .submit();
        deployment.run_to_fixpoint();
        assert!(deployment.outcome(h).unwrap().annotation.is_some());
    }
    let invalidations = deployment.session(handle).stats().invalidations;
    let messages = deployment.query_traffic_stats().messages;
    assert!(messages > 0);
    (first_count, surviving, messages, invalidations)
}

#[test]
fn churn_diagnostics_smoke() {
    assert_sharding_invariant("churn_diagnostics", churn_diagnostics_core_path);
}

/// `examples/trust_management.rs`: trust-domain granularity plus acceptance
/// decisions evaluated directly on condensed (BDD) provenance.
fn trust_management_core_path(shards: usize) -> (bool, bool) {
    let mut deployment = setup::mincost_reference(Topology::paper_example(), shards);

    let routes = deployment.tuples_shared(3, "bestPathCost");
    let route_to_a = routes
        .iter()
        .find(|t| t.values[0] == Value::Node(0))
        .expect("d has a route to a")
        .clone();

    let domains: std::collections::BTreeMap<u32, u32> =
        (0..4).map(|n| (n, if n <= 1 { 0 } else { 1 })).collect();
    let outcome = deployment
        .query(&route_to_a)
        .issuer(3)
        .repr(Repr::TrustDomain(domains))
        .traversal(Traversal::Bfs)
        .execute();
    assert!(outcome.annotation.is_some());

    let handle = deployment
        .query(&route_to_a)
        .issuer(3)
        .repr(Repr::Bdd)
        .submit();
    deployment.run_to_fixpoint();

    let accept_all = deployment
        .derivable_under(handle, |_| true)
        .expect("BDD query completed");
    let trusted_links: Vec<_> = [(0u32, 1u32, 3i64), (1, 0, 3)]
        .iter()
        .map(|&(s, d, c)| Tuple::new("link", s, vec![Value::Node(d), Value::Int(c)]).vid())
        .collect();
    let accept_domain0 = deployment
        .derivable_under(handle, |vid| trusted_links.contains(&vid))
        .expect("BDD query completed");

    assert!(accept_all);
    assert!(!accept_domain0);
    (accept_all, accept_domain0)
}

#[test]
fn trust_management_smoke() {
    assert_sharding_invariant("trust_management", trust_management_core_path);
}
