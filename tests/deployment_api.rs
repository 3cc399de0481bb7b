//! Integration tests of the first-class `Deployment` API: builder
//! validation, and — the tentpole guarantee — churn and multiple concurrent
//! provenance queries progressing together on *one* simulated clock, with
//! bit-identical results across shard counts, in every provenance mode.
//!
//! No `engine_mut()` escape hatch is used anywhere: everything goes through
//! the typed deployment surface.

use exspan::core::{
    BaseTupleError, BuildError, Deployment, Exspan, ProvenanceMode, QueryOutcome, Repr, Traversal,
};
use exspan::ndlog::programs;
use exspan::netsim::{ChurnEvent, ChurnModel, LinkClass, LinkProps, Topology};
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
fn value_mode_builds_the_shards_it_is_asked_for() {
    // Each shard keeps its own BDD store and a history crossing shards
    // travels encoded, so four value-mode shards answer as one does.
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
    assert_eq!((one.num_shards(), four.num_shards()), (1, 4));
    assert_eq!(one.state_digest(), four.state_digest());
    assert_eq!(one.total_bytes(), four.total_bytes());
    let annotation_bytes = |d: &Deployment| d.engine().annotation_bytes();
    assert_eq!(annotation_bytes(&one), annotation_bytes(&four));
    let target = one.tuples_shared(0, "bestPathCost").remove(0);
    let links = one.tuples_shared(0, "link");
    let trusts: [&dyn Fn(exspan::types::Vid) -> bool; 3] =
        [&|_| true, &|_| false, &|vid| vid != links[0].vid()];
    let answers = |deployment: &exspan::core::Deployment| {
        trusts.map(|trusted| {
            deployment
                .engine()
                .derivable_under(&target, trusted)
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
    // Nor is it a reason to refuse four value-mode shards, which step
    // through it to what one shard computes.
    let value = |shards: usize| {
        let mut topology = Topology::line(4);
        topology.add_link(0, 3, instant);
        let mut deployment = Exspan::builder()
            .program(programs::mincost())
            .topology(topology)
            .mode(ProvenanceMode::ValueBdd)
            .shards(shards)
            .build()
            .expect("a zero-latency link is no reason to refuse value mode");
        assert_eq!(deployment.num_shards(), shards);
        deployment.run_to_fixpoint();
        let bytes = deployment.engine().annotation_bytes();
        (deployment.state_digest(), bytes)
    };
    assert_eq!(value(1), value(4));
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
    let BaseTupleError::Arity {
        relation,
        declared,
        found,
    } = err
    else {
        panic!("refused for its arity, not {err:?}");
    };
    assert_eq!((relation.as_str(), declared, found), ("link", 3, 1));
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
fn a_base_tuple_is_refused_at_a_node_that_is_not_its_own() {
    // n99 is outside the 4-node topology: each entry point once panicked in
    // the simulator's queue.  A tuple located at n0 once entered n1's table,
    // where no rule ever fires on it.
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    let digest = deployment.state_digest();
    let settled = |d: &mut Deployment| {
        d.run_to_fixpoint();
        d.state_digest()
    };
    for (node, tuple, refusal) in [
        (
            99,
            Deployment::link_tuple(99, 0, 1),
            BaseTupleError::NoSuchNode { node: 99, nodes: 4 },
        ),
        (
            1,
            Deployment::link_tuple(0, 2, 1),
            BaseTupleError::Misplaced {
                node: 1,
                location: 0,
            },
        ),
    ] {
        let inserted = deployment.insert_base(node, tuple.clone());
        assert_eq!(inserted, Err(refusal.clone()));
        assert_eq!(settled(&mut deployment), digest);
        let deleted = deployment.delete_base(node, tuple.clone());
        assert_eq!(deleted, Err(refusal.clone()));
        assert_eq!(settled(&mut deployment), digest);
        let scheduled = deployment.schedule_delta(deployment.now(), node, tuple, true);
        assert_eq!(scheduled, Err(refusal));
        assert_eq!(settled(&mut deployment), digest);
    }
    // `link(@99,0,1)` has nowhere to go; `link(@0,99,1)` was never stored.
    deployment.remove_link(0, 99);
    assert_eq!(settled(&mut deployment), digest);
}

#[test]
fn a_head_located_outside_the_topology_derives_nothing() {
    // `fwd(@0,n99)` is a valid base tuple at n0, but `r1` would ship its
    // head to n99, which the 3-node line does not have: the derivation is
    // skipped, as for a head location that is not a node, instead of
    // reaching a node the simulator cannot hold.
    let source = "materialize(fwd, 2, keys(0,1)).\n\
                  materialize(got, 2, keys(0,1)).\n\
                  r1 got(@D,S) :- fwd(@S,D).\n";
    let program = exspan::ndlog::parse_program("FWD", source).expect("parses");
    for mode in [
        ProvenanceMode::None,
        ProvenanceMode::Reference,
        ProvenanceMode::ValueBdd,
    ] {
        for shards in [1, 2] {
            let mut deployment = Exspan::builder()
                .program(program.clone())
                .topology(Topology::line(3))
                .mode(mode)
                .shards(shards)
                .build()
                .expect("valid deployment");
            deployment.run_to_fixpoint();
            let bytes = deployment.total_bytes();
            let far = Tuple::new("fwd", 0, vec![Value::Node(99)]);
            let near = Tuple::new("fwd", 0, vec![Value::Node(2)]);
            deployment.insert_base(0, far).expect("n0 holds it");
            deployment.insert_base(0, near).expect("n0 holds it");
            deployment.run_to_fixpoint();
            let got = deployment.tuples_everywhere_shared("got");
            assert_eq!(got.len(), 1, "{mode:?} at {shards} shard(s): {got:?}");
            assert_eq!(got[0].location, 2);
            assert!(deployment.total_bytes() > bytes);
        }
    }
}

#[test]
fn a_query_outside_the_topology_or_the_past_is_refused() {
    // Each of these once panicked in the simulator: an issuer or a target
    // node outside the 4-node topology indexed past its per-node tables, an
    // issue time before now was scheduled in the past, and one at +∞ was
    // never reached.
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .mode(ProvenanceMode::Reference)
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    let quiet = |d: &Deployment| (d.state_digest(), d.total_bytes());
    let before = quiet(&deployment);
    let best = Tuple::new("bestPathCost", 0, vec![Value::Node(2), Value::Int(5)]);
    let elsewhere = Tuple::new("bestPathCost", 99, vec![Value::Node(2), Value::Int(5)]);
    let now = deployment.now();
    let outcomes = [
        deployment.query(&best).issuer(99).execute(),
        deployment.query(&elsewhere).execute(),
    ];
    let handles = [
        deployment.query(&best).issuer(99).at(now + 1.0).submit(),
        deployment.query(&best).at(now - 1.0).submit(),
        deployment.query(&best).at(f64::INFINITY).submit(),
    ];
    assert_eq!(deployment.incomplete_queries(), 0);
    deployment.run_to_fixpoint();
    let submitted = handles.map(|h| deployment.outcome(h).cloned().expect("valid handle"));
    for outcome in outcomes.iter().chain(&submitted) {
        assert_eq!(outcome.completed_at, None, "{outcome:?}");
    }
    assert_eq!(quiet(&deployment), before);
    // The refusals leave the deployment answering as before.
    let answered = deployment.query(&best).execute();
    assert!(answered.completed_at.is_some());
}

#[test]
fn a_delta_scheduled_in_the_past_is_refused() {
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    let digest = deployment.state_digest();
    let now = deployment.now();
    let tuple = Deployment::link_tuple(0, 2, 1);
    for time in [now - 1.0, f64::NAN, f64::INFINITY] {
        let err = deployment
            .schedule_delta(time, 0, tuple.clone(), true)
            .unwrap_err();
        let BaseTupleError::Past {
            time: at,
            now: at_now,
        } = err
        else {
            panic!("refused for its time, not {err:?}");
        };
        assert!(at.to_bits() == time.to_bits() && at_now == now);
        deployment.run_to_fixpoint();
        assert_eq!(deployment.state_digest(), digest);
    }
    assert!(deployment.schedule_delta(now, 0, tuple, true).is_ok());
    deployment.run_to_fixpoint();
    assert_ne!(deployment.state_digest(), digest);
}

#[test]
fn a_link_change_the_deployment_cannot_apply_is_refused() {
    let mut deployment = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .build()
        .expect("valid deployment");
    deployment.run_to_fixpoint();
    let (digest, bytes) = (deployment.state_digest(), deployment.total_bytes());
    let props = LinkProps::from_class(LinkClass::Custom);
    let add = |a, b| ChurnEvent {
        time: 0.0,
        add: true,
        a,
        b,
        props,
    };
    let now = deployment.now();
    deployment.add_link(0, 99, props);
    deployment.apply_churn_event(&add(0, 42));
    deployment.add_link(1, 1, props);
    deployment.schedule_churn_event(&add(0, 3), now - 1.0);
    deployment.schedule_churn_event(&add(0, 3), f64::NAN);
    deployment.schedule_churn_event(&add(0, 3), f64::INFINITY);
    // A latency that is not a finite number >= 0 would deliver a message
    // before it was sent, or leave a barrier window no lookahead.
    for latency in [-0.5, f64::NAN, f64::INFINITY] {
        deployment.add_link(0, 3, LinkProps { latency, ..props });
    }
    assert_eq!(deployment.topology().num_links(), 5);
    deployment.run_to_fixpoint();
    assert_eq!(deployment.topology().num_links(), 5);
    assert_eq!(deployment.state_digest(), digest);
    assert_eq!(deployment.total_bytes(), bytes);
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
    // A constant head location names no node: the user's rule is refused in
    // every mode, not a rule the provenance rewrite generated from it.
    let constant_head =
        exspan::ndlog::parse_program("C", "r1 a(@oN,D) :- link(@S,D,C).").expect("parses");
    for mode in [
        ProvenanceMode::None,
        ProvenanceMode::Reference,
        ProvenanceMode::ValueBdd,
    ] {
        let refused = Exspan::builder()
            .program(constant_head.clone())
            .topology(Topology::paper_example())
            .mode(mode)
            .build();
        match refused {
            Err(BuildError::InvalidProgram(errors)) => {
                assert!(errors.iter().all(|e| e.contains("rule r1:")), "{errors:?}");
            }
            other => panic!("{mode:?}: {:?}", other.map(|_| ())),
        }
    }
}
