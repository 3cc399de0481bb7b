//! The exact size of value mode's BDD stores on the benchmark's convergence
//! run: PATHVECTOR to fixpoint on `transit_stub(1, 42)`.  A change to the
//! store's kernel that alters a function's structure, or to the engine that
//! alters which histories are built, moves these counts here, in
//! `cargo test`, and not only in the end-to-end benchmark.

use exspan_ndlog::programs;
use exspan_netsim::Topology;
use exspan_runtime::{Engine, EngineConfig};
use exspan_types::{Tuple, Value};

/// The fixpoint's `(nodes per shard store, annotation bytes, bytes sent)`.
fn converge(shards: usize) -> (Vec<usize>, Option<u64>, u64) {
    let topology = Topology::transit_stub(1, 42);
    let links: Vec<_> = topology.links().map(|(a, b, p)| (a, b, p.cost)).collect();
    let config = EngineConfig {
        shards,
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_parts(programs::path_vector(), topology, config, true, false);
    let link = |a, b, cost| Tuple::new("link", a, vec![Value::Node(b), Value::Int(cost)]);
    for (a, b, cost) in links {
        engine.insert_base(a, link(a, b, cost));
        engine.insert_base(b, link(b, a, cost));
    }
    engine.run_to_fixpoint();
    let nodes = engine
        .policies()
        .map(|p| p.manager().node_count())
        .collect();
    let sent = engine.stats().total_bytes();
    (nodes, engine.annotation_bytes(), sent)
}

#[test]
fn path_vector_value_stores_hold_their_pinned_node_counts() {
    assert_eq!(converge(1), (vec![158_443], Some(3_601_600), 6_909_320));
    assert_eq!(
        converge(2),
        (vec![111_289, 115_841], Some(3_601_600), 6_909_320)
    );
}
