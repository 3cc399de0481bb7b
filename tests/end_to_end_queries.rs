//! End-to-end distributed query tests on a 20-node testbed topology:
//! representation consistency, traversal orders, caching and invalidation,
//! and agreement between reference-based and value-based provenance — all
//! through the `Deployment` API.

use exspan::core::{Deployment, ProvenanceMode, QueryHandle, Repr, Traversal};
use exspan::ndlog::programs;
use exspan::netsim::{LinkClass, LinkProps, Topology};
use exspan::setup;
use exspan::types::{Tuple, Value};
use std::sync::Arc;

fn reference_deployment(nodes: usize, seed: u64) -> Deployment {
    setup::mincost_reference(Topology::testbed_ring(nodes, seed), 1)
}

fn some_targets(deployment: &Deployment, count: usize) -> Vec<Arc<Tuple>> {
    let mut out = Vec::new();
    for n in 0..deployment.topology().num_nodes() as u32 {
        for t in deployment.tuples_shared(n, "bestPathCost") {
            out.push(t);
            if out.len() >= count {
                return out;
            }
        }
    }
    out
}

/// Bytes the session of `handle` spent so far — used to measure the cost of
/// individual queries as deltas.
fn session_bytes(deployment: &Deployment, handle: QueryHandle) -> u64 {
    deployment.session(handle).stats().bytes
}

#[test]
fn representations_agree_on_the_same_tuple() {
    let mut deployment = reference_deployment(12, 3);
    let targets = some_targets(&deployment, 6);
    assert!(!targets.is_empty());
    for target in targets {
        let issuer = (target.location + 3) % 12;

        let poly = deployment
            .query(&target)
            .issuer(issuer)
            .repr(Repr::Polynomial)
            .execute();
        let poly = poly.annotation.expect("polynomial query completes");
        let expr = poly.as_expr().unwrap();

        let count = deployment
            .query(&target)
            .issuer(issuer)
            .repr(Repr::DerivationCount)
            .execute();
        let count = count.annotation.unwrap().as_count().unwrap();
        assert_eq!(
            expr.num_derivations(),
            count,
            "#DERIVATION must equal the number of monomials in the polynomial for {target}"
        );
        assert!(count >= 1);

        let nodes = deployment
            .query(&target)
            .issuer(issuer)
            .repr(Repr::NodeSet)
            .execute();
        let nodes = nodes.annotation.unwrap();
        let nodes = nodes.as_nodes().unwrap();
        assert!(
            nodes.contains(&target.location),
            "the tuple's own node participates in its derivation"
        );

        let derivable = deployment
            .query(&target)
            .issuer(issuer)
            .repr(Repr::Derivability)
            .execute();
        assert_eq!(derivable.annotation.unwrap().as_bool(), Some(true));

        // BDD (absorption) provenance is satisfiable when everything is
        // trusted and unsatisfiable when nothing is.
        let handle = deployment
            .query(&target)
            .issuer(issuer)
            .repr(Repr::Bdd)
            .submit();
        deployment.run_to_fixpoint();
        assert_eq!(deployment.derivable_under(handle, |_| true), Some(true));
        assert_eq!(deployment.derivable_under(handle, |_| false), Some(false));
    }
}

#[test]
fn traversal_orders_return_identical_full_results() {
    let mut deployment = reference_deployment(12, 5);
    let targets = some_targets(&deployment, 4);
    for target in targets {
        let mut results = Vec::new();
        for order in [Traversal::Bfs, Traversal::Dfs] {
            let out = deployment
                .query(&target)
                .issuer(0)
                .repr(Repr::DerivationCount)
                .traversal(order)
                .execute();
            results.push(out.annotation.unwrap().as_count().unwrap());
        }
        assert_eq!(
            results[0], results[1],
            "BFS and DFS must agree on the derivation count of {target}"
        );
    }
}

#[test]
fn dfs_threshold_stops_early_and_never_exceeds_full_traversal() {
    let mut deployment = reference_deployment(16, 9);
    let targets = some_targets(&deployment, 8);
    for target in targets {
        let full_handle = deployment
            .query(&target)
            .issuer(1)
            .repr(Repr::DerivationCount)
            .traversal(Traversal::Bfs)
            .submit();
        let full_before = session_bytes(&deployment, full_handle);
        deployment.run_to_fixpoint();
        let full = deployment.outcome(full_handle).unwrap().clone();
        let full_count = full.annotation.unwrap().as_count().unwrap();
        let full_bytes = session_bytes(&deployment, full_handle) - full_before;

        let thr_handle = deployment
            .query(&target)
            .issuer(1)
            .repr(Repr::DerivationCount)
            .traversal(Traversal::DfsThreshold(1))
            .submit();
        let thr_before = session_bytes(&deployment, thr_handle);
        deployment.run_to_fixpoint();
        let thr = deployment.outcome(thr_handle).unwrap().clone();
        let thr_count = thr.annotation.unwrap().as_count().unwrap();
        let thr_bytes = session_bytes(&deployment, thr_handle) - thr_before;
        // The threshold query may stop early, so it reports at most the full
        // count, and it must report more than the threshold iff the full
        // count does.
        assert!(thr_count <= full_count);
        assert_eq!(thr_count > 1, full_count > 1);
        assert!(
            thr_bytes <= full_bytes,
            "threshold pruning must not send more bytes than the full traversal"
        );
    }
}

#[test]
fn random_moonwalk_explores_a_subset() {
    let mut deployment = reference_deployment(12, 13);
    let target = some_targets(&deployment, 1).remove(0);
    let full = deployment
        .query(&target)
        .issuer(0)
        .repr(Repr::DerivationCount)
        .traversal(Traversal::Bfs)
        .execute();
    let walk = deployment
        .query(&target)
        .issuer(0)
        .repr(Repr::DerivationCount)
        .traversal(Traversal::RandomMoonwalk { fanout: 1, seed: 7 })
        .execute();
    let full = full.annotation.unwrap().as_count().unwrap();
    let walk = walk.annotation.unwrap().as_count().unwrap();
    assert!(walk >= 1);
    assert!(walk <= full);
}

#[test]
fn random_moonwalk_walk_is_a_function_of_its_seed() {
    let count = |deployment: &mut Deployment, target: &Tuple| {
        let full = deployment
            .query(target)
            .issuer(0)
            .repr(Repr::DerivationCount)
            .execute();
        full.annotation.unwrap().as_count().unwrap()
    };
    // The derivations walked, one per vertex, as a polynomial.
    let walk = |deployment: &mut Deployment, target: &Tuple, seed: u64| {
        let walk = deployment
            .query(target)
            .issuer(0)
            .repr(Repr::Polynomial)
            .traversal(Traversal::RandomMoonwalk { fanout: 1, seed })
            .execute();
        walk.annotation.expect("moonwalk completes")
    };
    let mut deployment = reference_deployment(12, 13);
    let target = some_targets(&deployment, 40)
        .into_iter()
        .max_by_key(|t| count(&mut deployment, t))
        .unwrap();
    assert!(count(&mut deployment, &target) >= 2);
    let walks: Vec<_> = (1..=6)
        .map(|seed| walk(&mut deployment, &target, seed))
        .collect();
    assert!(
        walks.iter().any(|w| *w != walks[0]),
        "six seeds walked the same derivations: {:?}",
        walks[0]
    );
    let mut fresh = reference_deployment(12, 13);
    assert_eq!(walk(&mut fresh, &target, 1), walks[0]);
}

#[test]
fn caching_reduces_traffic_and_is_invalidated_correctly() {
    let mut deployment = reference_deployment(12, 21);
    let targets = some_targets(&deployment, 5);

    // Two sessions over the same deployment: identical configuration except
    // caching.  Queries with equal configs share the session (and cache).
    let run_round = |deployment: &mut Deployment, cached: bool| -> (QueryHandle, u64) {
        let mut last = None;
        for t in &targets {
            let h = deployment
                .query(t)
                .issuer(0)
                .repr(Repr::Polynomial)
                .cached(cached)
                .submit();
            deployment.run_to_fixpoint();
            last = Some(h);
        }
        let h = last.expect("targets nonempty");
        (h, deployment.session(h).stats().bytes)
    };

    // Without caching: repeated identical queries cost the same every time.
    let (_h, first_uncached) = run_round(&mut deployment, false);
    let (h_uncached, uncached_bytes) = run_round(&mut deployment, false);
    assert_eq!(
        uncached_bytes,
        2 * first_uncached,
        "without caching the second round costs exactly as much as the first"
    );

    // With caching: the second round is nearly free and hits the cache.
    let (h_cached, first_round) = run_round(&mut deployment, true);
    let (_, cached_bytes) = run_round(&mut deployment, true);
    assert!(
        deployment.session(h_cached).stats().cache_hits > 0,
        "second round must hit the cache"
    );
    assert!(
        cached_bytes - first_round < first_round,
        "cached round must be cheaper than the first round"
    );
    assert!(cached_bytes < uncached_bytes);
    assert_ne!(
        deployment.session(h_cached).cache_entries(),
        0,
        "cached session holds results"
    );
    assert_eq!(
        deployment.session(h_uncached).cache_entries(),
        0,
        "uncached session holds none"
    );

    // All answers agree with fresh uncached derivation-count queries.
    let baseline_counts: Vec<u64> = targets
        .iter()
        .map(|t| {
            deployment
                .query(t)
                .issuer(0)
                .repr(Repr::DerivationCount)
                .execute()
                .annotation
                .unwrap()
                .as_count()
                .unwrap()
        })
        .collect();

    // Delete one link tuple, insert it back and re-query: every cached result
    // computed from it has died, and the answers are recomputed where needed.
    let some_link = (*deployment.tuples_shared(0, "link").remove(0)).clone();
    let stored = "a stored link tuple has its declared arity";
    deployment.delete_base(0, some_link.clone()).expect(stored);
    deployment.run_to_fixpoint();
    deployment.insert_base(0, some_link).expect(stored);
    deployment.run_to_fixpoint();
    for (t, expected) in targets.iter().zip(baseline_counts) {
        let ann = deployment
            .query(t)
            .issuer(0)
            .repr(Repr::Polynomial)
            .cached(true)
            .execute()
            .annotation
            .unwrap();
        assert_eq!(ann.as_expr().unwrap().num_derivations(), expected);
    }
    assert!(
        deployment.session(h_cached).stats().invalidations > 0,
        "the link's deletion reached cached results"
    );
}

#[test]
fn value_and_reference_provenance_agree_on_derivability() {
    // Run the same protocol in value-based and reference-based modes; for a
    // sample of tuples, the value-mode BDD and a reference-mode BDD query
    // must agree on derivability under random trust assignments.
    let topo = Topology::testbed_ring(10, 33);
    let value_deployment = setup::converged(
        programs::mincost(),
        topo.clone(),
        ProvenanceMode::ValueBdd,
        1,
    );
    let mut ref_deployment = setup::mincost_reference(topo, 1);

    let targets = some_targets(&ref_deployment, 5);
    for target in targets {
        // Reference-based: distributed BDD query.
        let handle = ref_deployment
            .query(&target)
            .issuer(0)
            .repr(Repr::Bdd)
            .submit();
        ref_deployment.run_to_fixpoint();

        // Both derivable when everything is trusted, neither when nothing is.
        assert_eq!(ref_deployment.derivable_under(handle, |_| true), Some(true));
        assert_eq!(
            ref_deployment.derivable_under(handle, |_| false),
            Some(false)
        );
        assert_eq!(
            value_deployment.with_value_provenance(|p| p.derivable_under(&target, |_| true)),
            Some(true)
        );
        assert_eq!(
            value_deployment.with_value_provenance(|p| p.derivable_under(&target, |_| false)),
            Some(false)
        );

        // Under "trust only even-numbered nodes' links": both agree.
        let links = ref_deployment.tuples_everywhere_shared("link");
        let trust_even = |vid: exspan::types::Vid| {
            links
                .iter()
                .find(|l| l.vid() == vid)
                .is_some_and(|l| l.location % 2 == 0)
        };
        assert_eq!(
            ref_deployment.derivable_under(handle, trust_even),
            value_deployment.with_value_provenance(|p| p.derivable_under(&target, trust_even)),
            "value- and reference-based derivability disagree for {target}"
        );
    }
}

#[test]
fn packet_forwarding_with_provenance_delivers_packets() {
    let mut deployment = setup::converged(
        programs::packet_forward(),
        Topology::testbed_ring(8, 17),
        ProvenanceMode::Reference,
        1,
    );
    // Send packets between several pairs.
    for (src, dst) in [(0u32, 4u32), (1, 5), (7, 2)] {
        let packet = Tuple::new(
            "ePacket",
            src,
            vec![Value::Node(src), Value::Node(dst), Value::Payload(1024)],
        );
        deployment
            .insert_base(src, packet)
            .expect("ePacket is an event, not a materialized relation");
    }
    deployment.run_to_fixpoint();
    for (src, dst) in [(0u32, 4u32), (1, 5), (7, 2)] {
        let received = deployment.tuples_shared(dst, "recvPacket");
        assert!(
            received.iter().any(|t| t.values[0] == Value::Node(src)),
            "packet from {src} to {dst} was not delivered: {received:?}"
        );
    }
}

/// Protocol ids are derived from the path that leads to a vertex (module docs
/// of `exspan_core::query`), and a debug assertion fires if one is entered
/// into the id table twice.  Two shapes could make paths collide: a rule
/// execution that joins the same tuple at two body positions, and a ring,
/// where alternative derivations share most of their vertices.
#[test]
fn derived_query_ids_are_unique_on_repeated_and_shared_vertices() {
    // MINCOST plus a rule joining `bestPathCost` with itself.  The repeated
    // input must be a tuple that waits for a remote rule execution: one that
    // resolves on the spot has left the table before its twin enters.
    let source = programs::mincost_source()
        + "materialize(pair, 3, keys(0,1,2)).
           j1 pair(@S,A,B) :- bestPathCost(@S,A,C1), bestPathCost(@S,B,C2).";
    let self_join = exspan::ndlog::parser::parse_program("SELFJOIN", &source)
        .expect("program parses")
        .normalize();
    let joined = setup::converged(
        self_join,
        Topology::paper_example(),
        ProvenanceMode::Reference,
        1,
    );
    // pair(@a,c,c) joins bestPathCost(@a,c,5) — two derivations, one of them
    // through b — with itself.
    let twice = Tuple::new("pair", 0, vec![Value::Node(2), Value::Node(2)]);

    let mut ring_topology = Topology::empty(6);
    for i in 0..6u32 {
        let props = LinkProps::from_class(LinkClass::StubStub);
        ring_topology.add_link(i, (i + 1) % 6, props);
    }
    let ring = setup::mincost_reference(ring_topology, 1);
    // The node opposite n0 is reached at equal cost both ways round.
    let routes = ring.tuples_shared(0, "bestPathCost");
    let to_opposite = routes.iter().find(|t| t.values[0] == Value::Node(3));
    let opposite = Tuple::clone(to_opposite.expect("n0 reaches n3"));

    for (mut deployment, target, derivations) in [(joined, twice, 4), (ring, opposite, 2)] {
        let mut counts = Vec::new();
        for traversal in [
            Traversal::Bfs,
            Traversal::Dfs,
            Traversal::DfsThreshold(1_000),
            Traversal::RandomMoonwalk { fanout: 8, seed: 7 },
        ] {
            // Twice per cached session, so the second run meets a warm cache.
            for cached in [false, true, true] {
                let outcome = deployment
                    .query(&target)
                    .issuer(3)
                    .traversal(traversal)
                    .cached(cached)
                    .execute();
                assert!(outcome.is_complete(), "{traversal:?} cached={cached}");
                let polynomial = outcome.annotation.expect("complete");
                counts.push(polynomial.as_expr().expect("polynomial").num_derivations());
            }
        }
        assert!(
            counts.iter().all(|&c| c == derivations),
            "every traversal order finds {derivations} derivation(s) of {target}: {counts:?}"
        );
    }
}
