//! `Topology::routes_from` against the search it replaced: a Dijkstra from
//! one source that stops when it pops the destination.  The route table must
//! give every ordered pair the same latency and the same bottleneck
//! bandwidth, bit for bit, including where equal-latency paths of different
//! bandwidth tie and where a node cannot be reached.

use exspan_netsim::{LinkClass, LinkProps, Topology};
use exspan_types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry of the oracle's search: (latency, bottleneck bandwidth,
/// node), ordered for a min-heap on latency alone.
#[derive(PartialEq)]
struct Entry(f64, f64, NodeId);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
    }
}

/// Each node's links as `(neighbour, props)`, neighbours ascending as
/// `Topology::neighbors` lists them: read once per topology so that the
/// oracle's thousands of searches stay fast in a debug build.
fn adjacency(t: &Topology) -> Vec<Vec<(NodeId, LinkProps)>> {
    t.nodes()
        .map(|n| {
            let link = |m| (m, *t.link(n, m).expect("adjacency implies link"));
            t.neighbors(n).into_iter().map(link).collect()
        })
        .collect()
}

/// The per-send search the simulator ran before it kept route rows.
fn path_latency(
    adjacency: &[Vec<(NodeId, LinkProps)>],
    from: NodeId,
    to: NodeId,
) -> Option<(f64, f64)> {
    if from == to {
        return Some((0.0, f64::INFINITY));
    }
    let mut dist = vec![f64::INFINITY; adjacency.len().max(from as usize + 1)];
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, f64::INFINITY, from));
    while let Some(Entry(lat, bw, node)) = heap.pop() {
        if node == to {
            return Some((lat, bw));
        }
        if lat > dist[node as usize] {
            continue;
        }
        for &(m, props) in &adjacency[node as usize] {
            let nlat = lat + props.latency;
            if nlat < dist[m as usize] {
                dist[m as usize] = nlat;
                heap.push(Entry(nlat, bw.min(props.bandwidth), m));
            }
        }
    }
    None
}

fn bits(route: Option<(f64, f64)>) -> Option<(u64, u64)> {
    route.map(|(lat, bw)| (lat.to_bits(), bw.to_bits()))
}

fn assert_routes_match(t: &Topology, what: &str) {
    let adjacency = adjacency(t);
    for from in t.nodes() {
        let row = t.routes_from(from);
        assert_eq!(row.len(), t.num_nodes(), "{what}: row of {from}");
        for to in t.nodes() {
            assert_eq!(
                bits(row[to as usize]),
                bits(path_latency(&adjacency, from, to)),
                "{what}: {from} -> {to}"
            );
        }
    }
}

/// Checks `t`, then `t` with one link added, then that with one removed.
fn assert_routes_match_under_churn(mut t: Topology, what: &str, rng: &mut SmallRng) {
    assert_routes_match(&t, what);
    let n = t.num_nodes() as NodeId;
    let absent = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| !t.has_link(a, b))
        .collect::<Vec<_>>();
    if !absent.is_empty() {
        let (a, b) = absent[rng.gen_range(0..absent.len())];
        t.add_link(a, b, tied_link(rng));
        assert_routes_match(&t, &format!("{what} + {a}-{b}"));
    }
    let present = t.links().map(|(a, b, _)| (a, b)).collect::<Vec<_>>();
    if !present.is_empty() {
        let (a, b) = present[rng.gen_range(0..present.len())];
        t.remove_link(a, b);
        assert_routes_match(&t, &format!("{what} - {a}-{b}"));
    }
}

/// A link whose latency is 0, 1 or 2 ms, so that two 1 ms hops tie with one
/// 2 ms hop exactly, and whose bandwidth differs between tied paths.
fn tied_link(rng: &mut SmallRng) -> LinkProps {
    LinkProps {
        latency: [0.0, 0.001, 0.002][rng.gen_range(0..3usize)],
        bandwidth: [10e6, 50e6, 100e6, 1e9][rng.gen_range(0..4usize)],
        cost: 1,
        class: LinkClass::Custom,
    }
}

/// A sparse random graph of 6–16 nodes with tied latencies; the last node
/// has no links at all, so every topology has an unreachable node.
fn tied_topology(rng: &mut SmallRng) -> Topology {
    let n = rng.gen_range(6..=16usize);
    let mut t = Topology::empty(n);
    for a in 0..n - 1 {
        for b in a + 1..n - 1 {
            if rng.gen_bool(0.3) {
                t.add_link(a as NodeId, b as NodeId, tied_link(rng));
            }
        }
    }
    t
}

#[test]
fn route_rows_equal_the_per_pair_search_on_generated_topologies() {
    let mut rng = SmallRng::seed_from_u64(2010);
    for (t, what) in [
        (Topology::transit_stub(1, 42), "transit_stub(1, 42)"),
        (Topology::transit_stub(2, 7), "transit_stub(2, 7)"),
        (Topology::line(5), "line(5)"),
    ] {
        assert_routes_match_under_churn(t, what, &mut rng);
    }
}

#[test]
fn route_rows_equal_the_per_pair_search_where_latencies_tie() {
    for seed in 0..24 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = tied_topology(&mut rng);
        let last = t.num_nodes() as NodeId - 1;
        assert!(t.routes_from(0)[last as usize].is_none());
        assert_routes_match_under_churn(t, &format!("seed {seed}"), &mut rng);
    }
}
