//! DFS-with-threshold (§6.2) stops exploring a tuple's alternative
//! derivations once the partial result satisfies the threshold: more than T
//! derivations, or derivable at all.  A polynomial or a BDD never satisfies
//! it, so under those representations the traversal is plain DFS and must
//! cost what DFS costs: the same answers and bytes, no BDD node more, and no
//! partial combination computed and thrown away on a child's arrival.
//!
//! One test, so that no other test shares the process-wide BDD store while
//! its counters are read.

use exspan::bdd::SharedBddStore;
use exspan::core::storage::prov_entries;
use exspan::core::{Annotation, ProvExpr, Repr, Traversal};
use exspan::netsim::Topology;
use exspan::setup;

/// Queries, on a fresh converged MINCOST deployment, every `pathCost` tuple
/// with at least three alternative derivations (at most 12): the answers,
/// the query bytes, and the apply steps the BDD store took meanwhile (memo
/// hits and misses).
fn run(repr: Repr, traversal: Traversal) -> (Vec<Annotation>, u64, u64) {
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
    let steps = || {
        let memo = SharedBddStore::global().memo_stats();
        memo.hits + memo.misses
    };
    let before = steps();
    let answers = targets
        .iter()
        .map(|t| {
            let q = d.query(t).issuer((t.location + 5) % 20).repr(repr.clone());
            let outcome = q.traversal(traversal).execute();
            outcome.annotation.expect("the query completes")
        })
        .collect();
    (answers, d.query_traffic_stats().bytes, steps() - before)
}

#[test]
fn a_threshold_no_partial_result_satisfies_costs_what_dfs_costs() {
    let threshold = Traversal::DfsThreshold(3);
    let dfs = run(Repr::Polynomial, Traversal::Dfs);
    let derivations = |a: &Annotation| a.as_expr().map(ProvExpr::num_derivations);
    assert!(dfs.0.iter().all(|a| derivations(a) >= Some(3)));
    assert_eq!(run(Repr::Polynomial, threshold), dfs);

    // A BDD session numbers base tuples in the order it meets them, so equal
    // traversals give equal handles into the shared store.  The first run
    // makes every node and fills the memo; from then on, equal work is an
    // equal number of memo hits.
    let store = SharedBddStore::global();
    run(Repr::Bdd, Traversal::Dfs);
    let (nodes, clears) = (store.node_count(), store.memo_stats().clears);
    let dfs = run(Repr::Bdd, Traversal::Dfs);
    assert!(dfs.2 > 0, "the BDD store did no work");
    assert_eq!(
        run(Repr::Bdd, threshold),
        dfs,
        "answers, bytes, apply steps"
    );
    assert_eq!(
        store.node_count(),
        nodes,
        "BDD nodes added after the first run"
    );
    assert_eq!(store.memo_stats().clears, clears, "the memo was cleared");
}
