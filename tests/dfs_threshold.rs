//! DFS-with-threshold (§6.2) stops exploring a tuple's alternative
//! derivations once the partial result satisfies the threshold: more than T
//! derivations, or derivable at all.  A polynomial or a BDD never satisfies
//! it, so under those representations the traversal is plain DFS and must
//! cost what DFS costs: the same answers and bytes, no BDD node more, and no
//! partial combination computed and thrown away on a child's arrival.
//!
//! Every run builds a fresh deployment, so a BDD session's store starts
//! empty and its counters count that run's work alone.

use exspan::core::storage::prov_entries;
use exspan::core::{Annotation, ProvExpr, Repr, Traversal};
use exspan::netsim::Topology;
use exspan::setup;

/// What one run observed: the answers, the query bytes, and the BDD
/// session's memo lookups (hits + misses), node count and memo clears —
/// zero for a session of another representation.
type Run = (Vec<Annotation>, u64, u64, usize, u64);

/// Queries, on a fresh converged MINCOST deployment, every `pathCost` tuple
/// with at least three alternative derivations (at most 12), in one session.
fn run(repr: Repr, traversal: Traversal) -> Run {
    let mut d = setup::mincost_reference(Topology::testbed_ring(20, 7), 1);
    let nodes = 0..d.topology().num_nodes() as u32;
    let mut targets: Vec<_> = nodes
        .flat_map(|n| d.tuples_shared(n, "pathCost"))
        .filter(|t| prov_entries(d.engine(), t.location, t.vid()).len() >= 3)
        .collect();
    targets.truncate(12);
    assert!(
        targets.len() >= 4,
        "too few targets with three alternatives"
    );
    let mut answers = Vec::new();
    let mut last = None;
    for t in &targets {
        let q = d.query(t).issuer((t.location + 5) % 20).repr(repr.clone());
        let handle = q.traversal(traversal).submit();
        d.run_to_fixpoint();
        let outcome = d.outcome(handle).expect("submitted");
        answers.push(outcome.annotation.clone().expect("the query completes"));
        last = Some(handle);
    }
    let session = d.session(last.expect("at least one query"));
    let (lookups, nodes, clears) = session.bdd().map_or((0, 0, 0), |store| {
        let memo = store.memo_stats();
        (memo.hits + memo.misses, store.node_count(), memo.clears)
    });
    (
        answers,
        d.query_traffic_stats().bytes,
        lookups,
        nodes,
        clears,
    )
}

#[test]
fn a_threshold_no_partial_result_satisfies_costs_what_dfs_costs() {
    let threshold = Traversal::DfsThreshold(3);
    let dfs = run(Repr::Polynomial, Traversal::Dfs);
    let derivations = |a: &Annotation| a.as_expr().map(ProvExpr::num_derivations);
    assert!(dfs.0.iter().all(|a| derivations(a) >= Some(3)));
    assert_eq!(dfs.2, 0, "a polynomial session has no BDD store");
    assert_eq!(run(Repr::Polynomial, threshold), dfs);

    // A BDD session numbers base tuples in the order it meets them and owns
    // its store, so equal traversals on fresh deployments give equal
    // handles, equal memo lookups, equal nodes and equal memo clears.
    let dfs = run(Repr::Bdd, Traversal::Dfs);
    assert!(dfs.2 > 0, "the BDD store did no work");
    assert!(dfs.3 > 2, "the BDD store made no node");
    assert_eq!(
        run(Repr::Bdd, threshold),
        dfs,
        "answers, bytes, memo lookups, nodes, memo clears"
    );
}
