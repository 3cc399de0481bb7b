//! Cached equals uncached, under churn.  MINCOST and PATHVECTOR run on a
//! testbed ring whose links a churn schedule adds and deletes, while cached
//! queries for the routes travel the graph as it changes.  Once everything
//! has settled, every `bestPathCost` at the first 12 nodes must answer the
//! same from a caching session as from a session that does not cache, as a
//! polynomial and as a derivation count, at one shard and at two.  And a
//! link deletion scheduled before a result is cached reaches that result when
//! it applies.

use exspan_core::{Annotation, Deployment, Exspan, ProvExpr, ProvenanceMode, Repr};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::{ChurnModel, LinkClass, LinkProps, Topology};
use exspan_types::Tuple;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 13;
const CHECKED_NODES: u32 = 12;
const CHURN_SECONDS: f64 = 1.0;
const QUERIES: usize = 60;
const REPRS: [Repr; 2] = [Repr::Polynomial, Repr::DerivationCount];

/// `testbed_ring(NODES, seed)` with stub-stub links, the class a churn
/// schedule adds and deletes.
fn ring(seed: u64) -> Topology {
    let testbed = Topology::testbed_ring(NODES, seed);
    let mut topology = Topology::empty(NODES);
    for (a, b, _) in testbed.links() {
        topology.add_link(a, b, LinkProps::from_class(LinkClass::StubStub));
    }
    topology
}

/// The routes at the first [`CHECKED_NODES`] nodes.
fn routes(d: &Deployment) -> Vec<Tuple> {
    let all = d.tuples_everywhere_shared("bestPathCost");
    let checked = all.iter().filter(|t| t.location < CHECKED_NODES);
    checked.map(|t| (**t).clone()).collect()
}

/// `expr` with the terms of every sum and the factors of every product in
/// one order.  A vertex combines its children's results as they arrive, and
/// a cache hit arrives sooner than a result computed afresh.
fn canonical(expr: &ProvExpr) -> ProvExpr {
    let sorted = |children: &[ProvExpr]| {
        let mut children: Vec<ProvExpr> = children.iter().map(canonical).collect();
        children.sort_by_cached_key(|c| format!("{c:?}"));
        children
    };
    match expr {
        ProvExpr::Base(vid) => ProvExpr::Base(*vid),
        ProvExpr::Sum { loc, terms } => ProvExpr::Sum {
            loc: *loc,
            terms: sorted(terms),
        },
        ProvExpr::Product { rule, loc, factors } => ProvExpr::Product {
            rule: *rule,
            loc: *loc,
            factors: sorted(factors),
        },
    }
}

fn answer(d: &mut Deployment, target: &Tuple, repr: &Repr, cached: bool) -> Option<Annotation> {
    let query = d.query(target).repr(repr.clone()).cached(cached);
    let annotation = query.execute().annotation?;
    Some(match annotation.as_expr() {
        Some(expr) => Annotation::Expr(canonical(expr)),
        None => annotation,
    })
}

fn check(program: fn() -> Program, seed: u64, shards: usize) {
    let topology = ring(seed);
    let churn = ChurnModel {
        interval: 0.2,
        changes_per_batch: 3,
        seed,
    };
    let schedule = churn.schedule(&topology, CHURN_SECONDS);
    assert!(!schedule.is_empty(), "seed {seed}: no churn");
    let mut d = Exspan::builder()
        .program(program())
        .topology(topology)
        .shards(shards)
        .build()
        .expect("valid deployment");
    d.run_to_fixpoint();
    let start = d.now();
    for event in &schedule {
        d.schedule_churn_event(event, start + event.time);
    }
    // Cached queries from anywhere, at any time of the churn, for the routes
    // as they stood before it: some are deleted on the way, some come back.
    let before = routes(&d);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..QUERIES {
        let target = &before[rng.gen_range(0..before.len())];
        let repr = &REPRS[rng.gen_range(0..REPRS.len())];
        let at = start + rng.gen_range(0.0..CHURN_SECONDS + 0.2);
        let issuer = rng.gen_range(0..NODES as u32);
        let query = d.query(target).issuer(issuer).repr(repr.clone());
        query.cached(true).at(at).submit();
    }
    d.run_to_fixpoint();
    let name = d.program_name().to_string();
    for target in routes(&d) {
        for repr in &REPRS {
            let cached = answer(&mut d, &target, repr, true);
            let uncached = answer(&mut d, &target, repr, false);
            assert_eq!(
                cached, uncached,
                "{name}, seed {seed}, {shards} shard(s), {repr:?}: {target}"
            );
        }
    }
}

#[test]
fn mincost_caches_answer_as_uncached_queries_do() {
    for seed in 1..=8 {
        for shards in [1, 2] {
            check(programs::mincost, seed, shards);
        }
    }
}

#[test]
fn pathvector_caches_answer_as_uncached_queries_do() {
    for seed in 1..=8 {
        for shards in [1, 2] {
            check(programs::path_vector, seed, shards);
        }
    }
}

/// MINCOST on Figure 3's network, run to its fixpoint.
fn mincost_deployment(mode: ProvenanceMode) -> Deployment {
    let mut d = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .mode(mode)
        .build()
        .expect("valid deployment");
    d.run_to_fixpoint();
    d
}

#[test]
fn scheduled_delta_invalidates_cache_at_application_time() {
    use exspan_netsim::{ChurnEvent, LinkClass, LinkProps};

    let mut d = mincost_deployment(ProvenanceMode::Reference);
    let target = Tuple::new(
        "bestPathCost",
        0,
        vec![exspan_types::Value::Node(2), exspan_types::Value::Int(5)],
    );

    // Schedule deletion of the direct a-c link half a simulated second
    // ahead — *before* anything is cached, so an invalidation performed
    // at scheduling time would be a no-op.
    let event = ChurnEvent {
        time: 0.0,
        add: false,
        a: 0,
        b: 2,
        props: LinkProps::from_class(LinkClass::Custom),
    };
    let at = d.now() + 0.5;
    d.schedule_churn_event(&event, at);

    // A cached query issued now completes (and populates the cache) well
    // before the delta applies: two derivations, direct link and via b.
    let before = d
        .query(&target)
        .issuer(3)
        .repr(Repr::DerivationCount)
        .cached(true)
        .execute();
    assert_eq!(before.annotation.unwrap().as_count(), Some(2));
    assert!(
        before.completed_at.unwrap() < at,
        "query completed pre-churn"
    );

    // The cached result must have been invalidated when the delta was
    // *applied*, so the re-query sees the single surviving derivation
    // instead of the stale cached 2.
    let after = d
        .query(&target)
        .issuer(3)
        .repr(Repr::DerivationCount)
        .cached(true)
        .execute();
    assert_eq!(after.annotation.unwrap().as_count(), Some(1));
}
