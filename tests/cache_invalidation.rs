//! The query-result cache (§6.1) against the provenance graph beneath it:
//! after a change settles, a cached query answers exactly as an uncached one.
//! One test per way a cached result used to outlive the change that made it
//! stale, each on Figure 3's network (a = 0, b = 1, c = 2, d = 3; links a-b 3,
//! a-c 5, b-c 2, b-d 5, c-d 3):
//!
//! * a negative entry, cached while its tuple was absent, when the tuple
//!   returns;
//! * an entry beside which a new link adds a second derivation;
//! * an entry computed by a query in flight while a link it uses goes;
//! * an entry beneath which the graph changes with no query message after
//!   the change, which used to be the only time the cache heard of it.

use exspan::core::{Deployment, Repr};
use exspan::netsim::{ChurnEvent, LinkProps, Topology};
use exspan::setup;
use exspan::types::{NodeId, Tuple, Value};

const A: NodeId = 0;
const B: NodeId = 1;
const C: NodeId = 2;
const D: NodeId = 3;

fn tuple(relation: &str, at: NodeId, dest: NodeId, cost: i64) -> Tuple {
    Tuple::new(relation, at, vec![Value::Node(dest), Value::Int(cost)])
}

/// `target`'s derivation count asked from d once the deployment is quiet:
/// first from a caching session (whatever its cache holds), then uncached.
fn cached_then_uncached(d: &mut Deployment, target: &Tuple) -> [Option<u64>; 2] {
    [true, false].map(|cached| {
        let query = d.query(target).issuer(D).repr(Repr::DerivationCount);
        query.cached(cached).execute().annotation?.as_count()
    })
}

/// Removes the link `a`-`b` now, runs to quiescence, and returns the link's
/// properties, to restore it with.
fn cut(d: &mut Deployment, a: NodeId, b: NodeId) -> LinkProps {
    let props = *d.topology().link(a, b).expect("link of Figure 3");
    d.remove_link(a, b);
    d.run_to_fixpoint();
    props
}

#[test]
fn a_negative_entry_dies_when_its_tuple_returns() {
    let mut d = setup::mincost_reference(Topology::paper_example(), 1);
    // `pathCost(@a,b,3)` has one derivation, the link a-b itself.
    let target = tuple("pathCost", A, B, 3);
    let props = cut(&mut d, A, B);
    // Cached while the tuple is absent: no derivation at all.
    let absent = cached_then_uncached(&mut d, &target);
    assert_eq!(absent, [Some(0), Some(0)]);
    d.add_link(A, B, props);
    d.run_to_fixpoint();
    let back = cached_then_uncached(&mut d, &target);
    assert_eq!(back, [Some(1), Some(1)], "[cached, uncached]");
}

#[test]
fn a_new_link_beside_a_cached_entry_reaches_it() {
    let mut d = setup::mincost_reference(Topology::paper_example(), 1);
    // Without b-c, a reaches c at cost 5 over the direct link only.
    let target = tuple("bestPathCost", A, C, 5);
    let props = cut(&mut d, B, C);
    let one = cached_then_uncached(&mut d, &target);
    assert_eq!(one, [Some(1), Some(1)]);
    // Restoring b-c adds a-b-c, also of cost 5, beside the cached entry: it
    // touches no tuple that entry was computed from.
    d.add_link(B, C, props);
    d.run_to_fixpoint();
    let two = cached_then_uncached(&mut d, &target);
    assert_eq!(two, [Some(2), Some(2)], "[cached, uncached]");
}

#[test]
fn a_query_in_flight_when_a_link_goes_caches_no_derivation_of_it() {
    // `bestPathCost(@a,d,8)` has three derivations: a-b-d, a-b-c-d and
    // a-c-d.  Deleting c-d leaves a-b-d.  A cached query from d is issued at
    // `t`, and the deletion applies at `t + offset`: as the query starts,
    // while it travels the graph, and after it completes.
    let target = tuple("bestPathCost", A, D, 8);
    for step in 0..40 {
        let offset = f64::from(step) * 0.0005;
        let mut d = setup::mincost_reference(Topology::paper_example(), 1);
        let t = d.now() + 0.01;
        let props = *d.topology().link(C, D).expect("link c-d");
        let deletion = ChurnEvent {
            time: 0.0,
            add: false,
            a: C,
            b: D,
            props,
        };
        d.schedule_churn_event(&deletion, t + offset);
        let query = d.query(&target).issuer(D).repr(Repr::DerivationCount);
        query.cached(true).at(t).submit();
        d.run_to_fixpoint();
        let answers = cached_then_uncached(&mut d, &target);
        assert_eq!(answers, [Some(1), Some(1)], "deletion at +{offset} s");
    }
}

#[test]
fn a_change_reaches_the_cache_by_the_end_of_its_run() {
    let mut d = setup::mincost_reference(Topology::paper_example(), 1);
    let target = tuple("bestPathCost", A, C, 5);
    let query = d.query(&target).repr(Repr::Polynomial).cached(true);
    let handle = query.submit();
    d.run_to_fixpoint();
    assert!(d.outcome(handle).expect("submitted").is_complete());
    let warm = d.session(handle).cache_entries();
    // a-b carries one of the target's two derivations; no query follows.
    cut(&mut d, A, B);
    let session = d.session(handle);
    assert!(session.cache_entries() < warm, "{warm} entries before");
    assert!(session.stats().invalidations > 0);
}
