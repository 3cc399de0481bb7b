//! Value-based provenance through the public `Engine` API only: a row's
//! annotation ORs its alternative derivations, lives as long as the row,
//! and is charged on the wire as the token its delta shipped — at one shard,
//! and at two, where the two nodes' shards each keep a BDD store.

use exspan_ndlog::{parse_program, programs};
use exspan_netsim::Topology;
use exspan_runtime::{Engine, EngineConfig};
use exspan_types::{Tuple, Value};

/// `reach(@D,S)` is derived at `S` from `link(@S,D)` and shipped to `D`;
/// `reach(@S,D)` is also derived where it is stored, from `back(@S,D)`.
/// Each test runs at one shard and at two.
fn engines() -> impl Iterator<Item = Engine> {
    [1, 2].into_iter().map(engine)
}

fn engine(shards: usize) -> Engine {
    let source = "materialize(link, 2, keys(0,1)). materialize(back, 2, keys(0,1)).
        materialize(reach, 2, keys(0,1)).
        r1 reach(@D,S) :- link(@S,D). r2 reach(@S,D) :- back(@S,D).";
    let program = parse_program("reach", source).expect("test program parses");
    let config = EngineConfig {
        shards,
        ..EngineConfig::default()
    };
    let engine = Engine::with_parts(program, Topology::line(2), config, true, false);
    assert_eq!(engine.num_shards(), shards);
    engine
}

fn t(relation: &str, loc: u32, d: u32) -> Tuple {
    Tuple::new(relation, loc, vec![Value::Node(d)])
}

fn change(e: &mut Engine, tuple: &Tuple, insert: bool) {
    e.schedule_delta(e.now(), tuple.location, tuple.clone(), insert);
    e.run_to_fixpoint();
}

/// Whether `tuple` is derivable trusting only `trusted`.
fn trusting(e: &Engine, tuple: &Tuple, trusted: &[&Tuple]) -> bool {
    let trusted = |vid| trusted.iter().any(|t| t.vid() == vid);
    e.derivable_under(tuple, trusted).expect("value mode")
}

#[test]
fn alternative_derivations_are_ored_and_kept_until_the_row_goes() {
    for mut e in engines() {
        let (link, back, reach) = (t("link", 0, 1), t("back", 1, 0), t("reach", 1, 0));
        change(&mut e, &link, true);
        change(&mut e, &back, true);
        // One derivation shipped from node 0, one made at node 1, ORed at
        // the storing node: either suffices.
        assert_eq!(e.derivation_count(&reach), 2);
        assert!(trusting(&e, &reach, &[&link]) && trusting(&e, &reach, &[&back]));
        assert!(!trusting(&e, &reach, &[]) && !trusting(&e, &link, &[&back]));
        // A deletion that leaves a derivation keeps the annotation ...
        let both = e.annotation_of(&reach);
        change(&mut e, &back, false);
        assert_eq!(e.annotation_of(&reach), both);
        // ... and the last one drops it, with the deleted base tuple's own.
        change(&mut e, &link, false);
        assert_eq!(
            (e.annotation_of(&reach), e.annotation_of(&link)),
            (None, None)
        );
        assert_eq!(e.derivable_under(&reach, |_| true), Some(false));
    }
}

#[test]
fn a_content_equal_tuple_in_another_allocation_finds_its_annotation() {
    for mut e in engines() {
        change(&mut e, &t("link", 0, 1), true);
        let reach = e.annotation_of(&t("reach", 1, 0));
        assert!(reach.is_some());
        // A second derivation of the base tuple, in a fresh allocation,
        // takes the variable it was numbered instead of minting a new one.
        let nodes =
            |e: &Engine| -> Vec<usize> { e.policies().map(|p| p.manager().node_count()).collect() };
        let before = nodes(&e);
        change(&mut e, &t("link", 0, 1), true);
        assert_eq!(e.derivation_count(&t("link", 0, 1)), 2);
        assert_eq!(nodes(&e), before);
        assert_eq!(e.annotation_of(&t("reach", 1, 0)), reach);
    }
}

#[test]
fn unseen_inputs_become_base_variables() {
    // A tuple that lands with no shipped history — sent by a higher
    // layer, never scheduled — is taken for a base tuple.
    for mut e in engines() {
        let back = t("back", 1, 0);
        e.send_tuple(0, 1, back.clone(), 0);
        e.run_to_fixpoint();
        let reach = t("reach", 1, 0);
        assert!(trusting(&e, &reach, &[&back]) && !trusting(&e, &reach, &[]));
    }
}

#[test]
fn annotation_bytes_follow_the_shipped_token() {
    // Only `reach`'s remote send ships history: one node (its variable
    // and two child references) and a root reference.
    for mut e in engines() {
        change(&mut e, &t("link", 0, 1), true);
        change(&mut e, &t("back", 1, 0), true);
        assert_eq!(e.annotation_bytes(), Some(16));
    }
}

#[test]
fn a_topology_with_no_link_runs_windows_that_agree_with_one_shard() {
    // Every remote send is unroutable and lands one hop — the local
    // processing delay — later, so the hop is still a window's lookahead.
    // MINCOST's keyed best costs make the steps depend on arrival order.
    let run = |shards: usize, value: bool| {
        let config = EngineConfig {
            shards,
            ..EngineConfig::default()
        };
        let topology = Topology::empty(6);
        let mut e = Engine::with_parts(programs::mincost(), topology, config, value, false);
        let links = [
            (0, 1, 4),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 2),
            (4, 5, 1),
            (5, 0, 1),
            (0, 3, 2),
        ];
        for (a, b, cost) in links {
            for (from, to) in [(a, b), (b, a)] {
                let link = Tuple::new("link", from, vec![Value::Node(to), Value::Int(cost)]);
                e.schedule_delta(0.0, from, link, true);
            }
        }
        let steps = e.run_to_fixpoint().steps;
        let digest = e.state_digest();
        (steps, digest, e.stats().total_bytes(), e.annotation_bytes())
    };
    for value in [false, true] {
        let one = run(1, value);
        assert!(one.0 > 100, "the links derive across nodes: {one:?}");
        for shards in [2, 3] {
            assert_eq!(one, run(shards, value), "{shards} shards, value {value}");
        }
    }
}
