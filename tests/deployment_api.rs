//! Integration tests of the first-class `Deployment` API: builder
//! validation, and — the tentpole guarantee — churn and multiple concurrent
//! provenance queries progressing together on *one* simulated clock, with
//! bit-identical results across shard counts, in every provenance mode.
//!
//! No `engine_mut()` escape hatch is used anywhere: everything goes through
//! the typed deployment surface.

use exspan::core::{BuildError, Deployment, Exspan, ProvenanceMode, QueryOutcome, Repr, Traversal};
use exspan::ndlog::programs;
use exspan::netsim::{ChurnModel, LinkClass, LinkProps, Topology};
use exspan::types::{Tuple, Value};
use std::sync::Arc;

/// A 12-node ring of stub-stub links (the link class the churn model
/// mutates).
fn ring_topology() -> Topology {
    let mut topology = Topology::empty(12);
    for i in 0..12u32 {
        topology.add_link(i, (i + 1) % 12, LinkProps::from_class(LinkClass::StubStub));
    }
    topology
}

/// Everything observable about one churn-plus-concurrent-queries run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<(u32, Option<f64>, Option<String>)>,
    routes: Vec<Arc<Tuple>>,
    total_bytes: u64,
    query_bytes: u64,
}

/// Runs MINCOST to fixpoint, then schedules a churn workload *and* several
/// provenance queries inside the same time window and advances everything
/// with the deployment's clock alone.
fn churn_with_concurrent_queries(mode: ProvenanceMode, shards: usize) -> Observed {
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(ring_topology())
        .mode(mode)
        .shards(shards)
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    let start = deployment.now();

    // A churn schedule spanning one second of simulated time.
    let churn = ChurnModel {
        interval: 0.25,
        changes_per_batch: 1,
        seed: 5,
    };
    let schedule = churn.schedule(deployment.topology(), 1.0);
    assert!(!schedule.is_empty(), "churn model produced no events");
    let churn_end = start + schedule.iter().map(|e| e.time).fold(0.0, f64::max);
    for event in &schedule {
        deployment.schedule_churn_event(event, start + event.time);
    }

    // Three queries issued at staggered times *inside* the churn window,
    // with different sessions (different representations), so query
    // messages and maintenance deltas interleave on the event queue.
    let targets: Vec<Arc<Tuple>> = deployment.tuples_shared(0, "bestPathCost");
    assert!(targets.len() >= 2);
    let handles = vec![
        deployment
            .query(&targets[0])
            .issuer(6)
            .repr(Repr::DerivationCount)
            .traversal(Traversal::Bfs)
            .at(start + 0.05)
            .submit(),
        deployment
            .query(&targets[1])
            .issuer(3)
            .repr(Repr::NodeSet)
            .cached(true)
            .at(start + 0.10)
            .submit(),
        deployment
            .query(&targets[0])
            .issuer(9)
            .repr(Repr::Polynomial)
            .at(start + 0.60)
            .submit(),
    ];

    // Advance the one clock in slices.  Midway, the early queries must have
    // completed while churn events are still pending — queries overlap
    // ongoing maintenance instead of monopolizing the engine.
    deployment.run_until(start + 0.5);
    assert!(deployment.now() <= start + 0.5 + 1e-9);
    assert!(
        deployment.outcome(handles[0]).unwrap().is_complete(),
        "query issued at +0.05 must complete before +0.5"
    );
    assert!(
        deployment.outcome(handles[1]).unwrap().is_complete(),
        "query issued at +0.10 must complete before +0.5"
    );
    assert!(
        !deployment.outcome(handles[2]).unwrap().is_complete(),
        "query scheduled at +0.6 must not have run yet"
    );

    deployment.run_to_fixpoint();

    // Every query completed, every completion lies inside or before the end
    // of the churn window's cascades, and the two early completions precede
    // the *scheduled* end of churn — concurrency on one clock.
    for handle in &handles {
        let outcome = deployment.outcome(*handle).unwrap();
        assert!(outcome.is_complete(), "query never completed: {outcome:?}");
        assert!(
            outcome.annotation.is_some(),
            "completed query carries an annotation"
        );
    }
    for handle in &handles[..2] {
        let completed = deployment.outcome(*handle).unwrap().completed_at.unwrap();
        assert!(
            completed < churn_end,
            "early query completed at {completed}, after the churn window {churn_end}"
        );
    }

    let fmt_outcome = |o: &QueryOutcome| {
        (
            o.issuer,
            o.latency(),
            o.annotation.as_ref().map(|a| format!("{a:?}")),
        )
    };
    Observed {
        outcomes: deployment.outcomes().iter().map(fmt_outcome).collect(),
        routes: deployment.tuples_everywhere_shared("bestPathCost"),
        total_bytes: deployment.total_bytes(),
        query_bytes: deployment.query_traffic_stats().bytes,
    }
}

#[test]
fn churn_and_concurrent_queries_share_one_clock_in_every_mode() {
    for mode in [
        ProvenanceMode::None,
        ProvenanceMode::Reference,
        ProvenanceMode::ValueBdd,
        ProvenanceMode::Centralized { server: 0 },
    ] {
        let sequential = churn_with_concurrent_queries(mode, 1);
        assert!(
            !sequential.routes.is_empty(),
            "{mode:?}: churned ring lost all routes"
        );
        assert!(
            sequential.query_bytes > 0,
            "{mode:?}: queries generated no traffic"
        );
        let sharded = churn_with_concurrent_queries(mode, 3);
        assert_eq!(
            sequential, sharded,
            "{mode:?}: sharded run diverged from the sequential oracle"
        );
    }
}

#[test]
fn shards_is_an_upper_bound_that_value_mode_caps_at_one() {
    // One annotation policy sees every event, so a value-mode engine runs
    // one shard whatever is asked for — and answers as `.shards(1)` does.
    let build = |mode: ProvenanceMode, shards: usize| {
        let mut deployment = Exspan::builder()
            .program(programs::mincost())
            .topology(ring_topology())
            .mode(mode)
            .shards(shards)
            .build()
            .expect("valid deployment");
        deployment.run_to_fixpoint();
        deployment
    };
    let (one, four) = (
        build(ProvenanceMode::ValueBdd, 1),
        build(ProvenanceMode::ValueBdd, 4),
    );
    assert_eq!((one.num_shards(), four.num_shards()), (1, 1));
    assert_eq!(one.state_digest(), four.state_digest());
    assert_eq!(one.total_bytes(), four.total_bytes());
    let target = one.tuples_shared(0, "bestPathCost").remove(0);
    let links = one.tuples_shared(0, "link");
    let trusts: [&dyn Fn(exspan::types::Vid) -> bool; 3] =
        [&|_| true, &|_| false, &|vid| vid != links[0].vid()];
    let answers = |deployment: &exspan::core::Deployment| {
        trusts.map(|trusted| {
            deployment
                .with_value_provenance(|p| p.derivable_under(&target, trusted))
                .expect("value mode")
        })
    };
    assert_eq!(answers(&one), answers(&four));
    assert_eq!(answers(&one)[..2], [true, false]);
    assert_eq!(build(ProvenanceMode::Reference, 4).num_shards(), 4);
}

#[test]
fn a_durable_deployment_runs_one_shard() {
    // A store's journal is one shard's record, so a durable deployment runs
    // one shard whatever is asked for.  What it stores is still what a
    // four-shard engine computes, and a reopen recovers exactly that.
    let dir = std::env::temp_dir().join(format!("exspan-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = |data_dir: Option<&std::path::Path>| {
        let mut builder = Exspan::builder()
            .program(programs::mincost())
            .topology(ring_topology())
            .shards(4);
        if let Some(dir) = data_dir {
            builder = builder.data_dir(dir);
        }
        builder.build().expect("valid deployment")
    };
    let churn = |deployment: &mut Deployment| {
        deployment.run_to_fixpoint();
        let start = deployment.now();
        let model = ChurnModel {
            interval: 0.25,
            changes_per_batch: 1,
            seed: 5,
        };
        for event in &model.schedule(deployment.topology(), 1.0) {
            deployment.schedule_churn_event(event, start + event.time);
        }
        deployment.run_to_fixpoint();
        deployment.state_digest()
    };
    let (mut memory, mut durable) = (build(None), build(Some(&dir)));
    assert_eq!((memory.num_shards(), durable.num_shards()), (4, 1));
    let digest = churn(&mut durable);
    assert_eq!(digest, churn(&mut memory));
    drop(durable);
    let reopened = build(Some(&dir));
    assert!(reopened.recovered_from_store());
    assert_eq!(reopened.num_shards(), 1);
    assert_eq!(reopened.state_digest(), digest);
    std::fs::remove_dir_all(&dir).expect("remove the store");
}

#[test]
fn a_zero_latency_link_is_stepped_through_not_refused() {
    // A barrier window has no lookahead over a zero-latency link, so a
    // multi-shard engine steps through the events while one exists — here
    // one added at runtime, after the build saw positive latencies only.
    let instant = LinkProps {
        latency: 0.0,
        ..LinkProps::from_class(LinkClass::Custom)
    };
    let digest = |shards: usize| {
        let mut deployment = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::line(4))
            .shards(shards)
            .build()
            .expect("valid deployment");
        deployment.run_to_fixpoint();
        deployment.add_link(0, 3, instant);
        deployment.run_to_fixpoint();
        assert_eq!(deployment.num_shards(), shards);
        let best = deployment.tuples_shared(0, "bestPathCost");
        assert!(best
            .iter()
            .any(|t| t.values == [Value::Node(3), Value::Int(1)]));
        deployment.state_digest()
    };
    assert_eq!(digest(1), digest(2));
    // Value mode builds one shard whatever is asked for, so a zero-latency
    // link is no reason to refuse four.
    let mut topology = Topology::line(4);
    topology.add_link(0, 3, instant);
    let value = Exspan::builder()
        .program(programs::mincost())
        .topology(topology)
        .mode(ProvenanceMode::ValueBdd)
        .shards(4)
        .build()
        .expect("value mode builds one shard");
    assert_eq!(value.num_shards(), 1);
}

#[test]
fn a_malformed_base_tuple_is_refused_where_it_enters() {
    // `link` is declared `materialize(link, 3, …)`: a tuple of another arity
    // once reached the table and panicked there, far from the call.
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .build()
        .expect("valid deployment");
    let short = Tuple::new("link", 0, vec![]);
    let err = deployment.insert_base(0, short.clone()).unwrap_err();
    assert_eq!(
        (err.relation.as_str(), err.declared, err.found),
        ("link", 3, 1)
    );
    assert!(deployment.delete_base(0, short).is_err());
    let long = vec![Value::Node(1), Value::Int(1), Value::Int(1)];
    let long = Tuple::new("link", 0, long);
    assert!(deployment.schedule_delta(1.0, 0, long, true).is_err());
    deployment.run_to_fixpoint();
    let best = deployment.tuples_shared(0, "bestPathCost");
    assert!(best
        .iter()
        .any(|t| t.values == [Value::Node(2), Value::Int(5)]));
}

#[test]
fn queries_survive_interleaved_route_withdrawal() {
    // Delete the link under a monitored route *between* two queries for it:
    // the second query must observe the updated provenance on the same clock.
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .mode(ProvenanceMode::Reference)
        .build()
        .unwrap();
    deployment.run_to_fixpoint();

    // pathCost(@a,c,5) has two derivations (direct link and via b).
    let target = deployment
        .tuples_shared(0, "bestPathCost")
        .into_iter()
        .find(|t| t.values[0] == exspan::types::Value::Node(2))
        .unwrap();
    let before = deployment
        .query(&target)
        .issuer(3)
        .repr(Repr::DerivationCount)
        .execute();
    assert_eq!(before.annotation.unwrap().as_count(), Some(2));

    deployment.remove_link(0, 2);
    let after = deployment
        .query(&target)
        .issuer(3)
        .repr(Repr::DerivationCount)
        .execute();
    // The route to c now derives only via b; the query ran after the
    // deletion cascade on the same clock.
    assert_eq!(after.annotation.unwrap().as_count(), Some(1));
    let pc = Tuple::new(
        "pathCost",
        0,
        vec![exspan::types::Value::Node(2), exspan::types::Value::Int(5)],
    );
    assert_eq!(deployment.derivation_count(&pc), 1);
}

#[test]
fn builder_surfaces_configuration_errors() {
    assert!(matches!(
        Exspan::builder().build(),
        Err(BuildError::MissingProgram)
    ));
    assert!(matches!(
        Exspan::builder().program(programs::mincost()).build(),
        Err(BuildError::MissingTopology)
    ));
    assert!(matches!(
        Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .mode(ProvenanceMode::Centralized { server: 99 })
            .build(),
        Err(BuildError::CentralizedServerOutOfRange {
            server: 99,
            nodes: 4
        })
    ));
}
