//! Network topologies, their one shortest-path search
//! ([`Topology::routes_from`]) and generators.

use exspan_types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The class of a link; used to pick latency/bandwidth defaults and to select
/// candidate links for the churn workload (which only touches stub-to-stub
/// links, as in §7.2).  A stored link record carries a class as its
/// position in [`LinkClass::ALL`] (`class as u8`), so the order is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Between two transit (backbone) nodes: 50 ms, 1 Gbps.
    TransitTransit,
    /// Between a transit node and a stub node: 10 ms, 100 Mbps.
    TransitStub,
    /// Between two stub nodes: 2 ms, 50 Mbps.
    StubStub,
    /// Cluster testbed link (Gigabit Ethernet): 0.1 ms, 1 Gbps.
    Testbed,
    /// Anything else (unit tests, hand-built examples).
    Custom,
}

impl LinkClass {
    /// Every class, in declaration order.
    pub const ALL: [LinkClass; 5] = [
        LinkClass::TransitTransit,
        LinkClass::TransitStub,
        LinkClass::StubStub,
        LinkClass::Testbed,
        LinkClass::Custom,
    ];

    /// Default propagation latency in seconds for this class (paper §7).
    pub fn default_latency(self) -> f64 {
        match self {
            LinkClass::TransitTransit => 0.050,
            LinkClass::TransitStub => 0.010,
            LinkClass::StubStub => 0.002,
            LinkClass::Testbed => 0.0001,
            LinkClass::Custom => 0.001,
        }
    }

    /// Default bandwidth in bits per second for this class (paper §7).
    pub fn default_bandwidth(self) -> f64 {
        match self {
            LinkClass::TransitTransit => 1e9,
            LinkClass::TransitStub => 100e6,
            LinkClass::StubStub => 50e6,
            LinkClass::Testbed => 1e9,
            LinkClass::Custom => 100e6,
        }
    }
}

/// Properties of a (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProps {
    /// One-way propagation latency in seconds.
    pub latency: f64,
    /// Bandwidth in bits per second.
    pub bandwidth: f64,
    /// Routing cost used by the protocols (the paper fixes this at 1).
    pub cost: i64,
    /// Class of the link.
    pub class: LinkClass,
}

impl LinkProps {
    /// Creates link properties from a class with the paper's defaults and a
    /// routing cost of 1.
    pub fn from_class(class: LinkClass) -> Self {
        LinkProps {
            latency: class.default_latency(),
            bandwidth: class.default_bandwidth(),
            cost: 1,
            class,
        }
    }
}

/// An undirected network topology with per-link properties.
///
/// Links are stored once per unordered pair; all query methods treat them as
/// bidirectional (the paper assumes symmetric links).
///
/// A [`crate::Simulator`] routes over an immutable snapshot and keeps the
/// [`Topology::routes_from`] rows it computed on it, so a changed topology
/// reaches a simulator as a new snapshot through
/// [`crate::Simulator::set_topology`], which drops those rows.
#[derive(Debug, Clone)]
pub struct Topology {
    num_nodes: usize,
    links: BTreeMap<(NodeId, NodeId), LinkProps>,
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

/// A node reached by [`Topology::routes_from`]'s search: (latency,
/// bottleneck bandwidth, node), ordered for a min-heap on latency.
#[derive(PartialEq)]
struct Entry(f64, f64, NodeId);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let reversed = other.0.partial_cmp(&self.0);
        reversed.unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl Topology {
    /// Creates an empty topology with `num_nodes` nodes (ids `0..num_nodes`).
    pub fn empty(num_nodes: usize) -> Self {
        Topology {
            num_nodes,
            links: BTreeMap::new(),
            adjacency: BTreeMap::new(),
        }
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// Adds (or replaces) a bidirectional link.  Its latency must be a
    /// finite number ≥ 0: it is the sharded runtime's lookahead.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, props: LinkProps) {
        assert!(a != b, "self links are not allowed");
        assert!(
            (a as usize) < self.num_nodes && (b as usize) < self.num_nodes,
            "link endpoints must be valid nodes"
        );
        assert!(
            (0.0..f64::INFINITY).contains(&props.latency),
            "link latency must be a finite number >= 0"
        );
        self.links.insert(Self::key(a, b), props);
        self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
    }

    /// Removes a link if present; returns whether a link was removed.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) -> bool {
        let removed = self.links.remove(&Self::key(a, b)).is_some();
        if removed {
            if let Some(s) = self.adjacency.get_mut(&a) {
                s.remove(&b);
            }
            if let Some(s) = self.adjacency.get_mut(&b) {
                s.remove(&a);
            }
        }
        removed
    }

    /// Returns the properties of the link between `a` and `b`, if any.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&LinkProps> {
        self.links.get(&Self::key(a, b))
    }

    /// Returns `true` if a link between `a` and `b` exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.links.contains_key(&Self::key(a, b))
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.adjacency
            .get(&n)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Degree of a node.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency
            .get(&n)
            .map_or(0, std::collections::BTreeSet::len)
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all links as `(a, b, props)` with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, &LinkProps)> {
        self.links.iter().map(|(&(a, b), p)| (a, b, p))
    }

    /// Links of a particular class, as `(a, b)` pairs.
    pub fn links_of_class(&self, class: LinkClass) -> Vec<(NodeId, NodeId)> {
        self.links
            .iter()
            .filter(|(_, p)| p.class == class)
            .map(|(&(a, b), _)| (a, b))
            .collect()
    }

    /// Returns `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.routes_from(0).iter().all(Option::is_some)
    }

    /// The lowest-latency route from `from` to every node (Dijkstra over link
    /// latencies): `routes[to]` is the path delay and the bottleneck bandwidth
    /// along that path, or `None` if `to` is unreachable.  `routes[from]` is
    /// `(0.0, f64::INFINITY)`.
    ///
    /// Used by the simulator to model communication between nodes that are
    /// not directly adjacent (e.g. the provenance query protocol, which
    /// contacts arbitrary `RLoc` nodes over the underlying IP network).  Each
    /// node's route is recorded when the search first pops it, which is where
    /// a search for that node alone would stop: the pushes and pops up to
    /// there are the same, so ties between equal-latency paths resolve the
    /// same way in both.
    pub fn routes_from(&self, from: NodeId) -> Vec<Option<(f64, f64)>> {
        let n = self.num_nodes.max(from as usize + 1);
        let mut routes = vec![None; n];
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(Entry(0.0, f64::INFINITY, from));
        while let Some(Entry(lat, bw, node)) = heap.pop() {
            routes[node as usize].get_or_insert((lat, bw));
            if lat > dist[node as usize] {
                continue;
            }
            for &m in self.adjacency.get(&node).into_iter().flatten() {
                let props = self.link(node, m).expect("adjacency implies link");
                let nlat = lat + props.latency;
                if nlat < dist[m as usize] {
                    dist[m as usize] = nlat;
                    heap.push(Entry(nlat, bw.min(props.bandwidth), m));
                }
            }
        }
        routes
    }

    /// Smallest one-way propagation latency over all current links, or `None`
    /// if the topology has no links.
    ///
    /// This is the *lookahead* of the sharded runtime: an event processed at
    /// time `t` can only influence another node at `t + min_link_latency` or
    /// later, so all shards may safely process events up to
    /// `earliest pending event + min_link_latency` in parallel.
    pub fn min_link_latency(&self) -> Option<f64> {
        self.links.values().map(|p| p.latency).reduce(f64::min)
    }

    /// Partitions the nodes over `num_shards` shards by rendezvous (highest
    /// random weight) hashing of the node id.
    ///
    /// Rendezvous hashing keeps the assignment independent of the topology's
    /// link structure and stable under churn, and changing the shard count
    /// only moves the minimal number of nodes.  The hash is a fixed integer
    /// mix, so the partition is identical on every platform and run.
    pub fn partition_rendezvous(&self, num_shards: usize) -> Vec<u16> {
        assert!(num_shards > 0, "need at least one shard");
        assert!(num_shards <= u16::MAX as usize, "too many shards");
        fn mix(x: u64) -> u64 {
            // splitmix64 finalizer.
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        (0..self.num_nodes)
            .map(|n| {
                (0..num_shards)
                    .max_by_key(|&s| mix(((n as u64) << 20) ^ s as u64))
                    .expect("num_shards > 0") as u16
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Generators
    // ------------------------------------------------------------------

    /// The 4-node example network of Figure 3 (nodes a=0, b=1, c=2, d=3).
    ///
    /// Link costs match the figure: a–b 3, a–c 5, b–c 2, b–d 5, c–d 3.
    pub fn paper_example() -> Topology {
        let mut t = Topology::empty(4);
        let mk = |cost| LinkProps {
            latency: 0.002,
            bandwidth: 50e6,
            cost,
            class: LinkClass::Custom,
        };
        t.add_link(0, 1, mk(3)); // a-b
        t.add_link(0, 2, mk(5)); // a-c
        t.add_link(1, 2, mk(2)); // b-c
        t.add_link(1, 3, mk(5)); // b-d
        t.add_link(2, 3, mk(3)); // c-d
        t
    }

    /// GT-ITM style transit-stub topology with the parameters of §7:
    /// 4 transit nodes per transit domain, 3 stubs per transit node, 8 nodes
    /// per stub (100 nodes per domain).  `num_domains` scales the network
    /// size; the simulation experiments use 1–5 domains (100–500 nodes).
    pub fn transit_stub(num_domains: usize, seed: u64) -> Topology {
        const TRANSIT_PER_DOMAIN: usize = 4;
        const STUBS_PER_TRANSIT: usize = 3;
        const NODES_PER_STUB: usize = 8;
        let nodes_per_domain = TRANSIT_PER_DOMAIN * (1 + STUBS_PER_TRANSIT * NODES_PER_STUB);
        let num_nodes = num_domains * nodes_per_domain;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = Topology::empty(num_nodes);

        let mut transit_nodes: Vec<NodeId> = Vec::new();
        let mut next_id: NodeId = 0;
        for _domain in 0..num_domains {
            // Allocate transit nodes for this domain and wire them in a ring
            // with one extra chord for redundancy.
            let domain_transit: Vec<NodeId> = (0..TRANSIT_PER_DOMAIN)
                .map(|i| next_id + i as NodeId)
                .collect();
            next_id += TRANSIT_PER_DOMAIN as NodeId;
            for i in 0..TRANSIT_PER_DOMAIN {
                let a = domain_transit[i];
                let b = domain_transit[(i + 1) % TRANSIT_PER_DOMAIN];
                t.add_link(a, b, LinkProps::from_class(LinkClass::TransitTransit));
            }
            t.add_link(
                domain_transit[0],
                domain_transit[2],
                LinkProps::from_class(LinkClass::TransitTransit),
            );

            // Stubs hanging off each transit node.
            for &transit in &domain_transit {
                for _stub in 0..STUBS_PER_TRANSIT {
                    let stub_nodes: Vec<NodeId> =
                        (0..NODES_PER_STUB).map(|i| next_id + i as NodeId).collect();
                    next_id += NODES_PER_STUB as NodeId;
                    // Intra-stub ring: 8 stub-stub links.
                    for i in 0..NODES_PER_STUB {
                        let a = stub_nodes[i];
                        let b = stub_nodes[(i + 1) % NODES_PER_STUB];
                        t.add_link(a, b, LinkProps::from_class(LinkClass::StubStub));
                    }
                    // Plus ~5 extra random intra-stub links, giving ≈13 links
                    // per stub (the paper reports 315 stub-stub links in the
                    // 200-node network, i.e. ≈13 per stub).
                    let mut extra = 0;
                    let mut attempts = 0;
                    while extra < 5 && attempts < 50 {
                        attempts += 1;
                        let a = stub_nodes[rng.gen_range(0..NODES_PER_STUB)];
                        let b = stub_nodes[rng.gen_range(0..NODES_PER_STUB)];
                        if a != b && !t.has_link(a, b) {
                            t.add_link(a, b, LinkProps::from_class(LinkClass::StubStub));
                            extra += 1;
                        }
                    }
                    // Stub-to-transit uplink from the first stub node.
                    t.add_link(
                        stub_nodes[0],
                        transit,
                        LinkProps::from_class(LinkClass::TransitStub),
                    );
                }
            }
            transit_nodes.extend(domain_transit);
        }

        // Inter-domain links: chain the domains through random transit nodes.
        for d in 1..num_domains {
            let a =
                transit_nodes[(d - 1) * TRANSIT_PER_DOMAIN + rng.gen_range(0..TRANSIT_PER_DOMAIN)];
            let b = transit_nodes[d * TRANSIT_PER_DOMAIN + rng.gen_range(0..TRANSIT_PER_DOMAIN)];
            t.add_link(a, b, LinkProps::from_class(LinkClass::TransitTransit));
        }
        t
    }

    /// The deployment testbed topology of §7.4: nodes arranged in a ring, and
    /// each node additionally linked to one random peer such that the maximum
    /// degree is three.
    pub fn testbed_ring(num_nodes: usize, seed: u64) -> Topology {
        assert!(num_nodes >= 3, "testbed ring needs at least 3 nodes");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = Topology::empty(num_nodes);
        for i in 0..num_nodes {
            let a = i as NodeId;
            let b = ((i + 1) % num_nodes) as NodeId;
            t.add_link(a, b, LinkProps::from_class(LinkClass::Testbed));
        }
        // Random extra peers with degree cap 3.
        let mut order: Vec<NodeId> = (0..num_nodes as NodeId).collect();
        // Fisher-Yates shuffle for a deterministic but seed-dependent order.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for &a in &order {
            if t.degree(a) >= 3 {
                continue;
            }
            // Try to find a peer that also has spare degree.
            for _ in 0..num_nodes {
                let b = rng.gen_range(0..num_nodes) as NodeId;
                if b != a && t.degree(b) < 3 && !t.has_link(a, b) {
                    t.add_link(a, b, LinkProps::from_class(LinkClass::Testbed));
                    break;
                }
            }
        }
        t
    }

    /// A simple line topology (useful in unit tests).
    pub fn line(num_nodes: usize) -> Topology {
        let mut t = Topology::empty(num_nodes);
        for i in 1..num_nodes {
            t.add_link(
                (i - 1) as NodeId,
                i as NodeId,
                LinkProps::from_class(LinkClass::Custom),
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_matches_figure_3() {
        let t = Topology::paper_example();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_links(), 5);
        assert_eq!(t.link(0, 1).unwrap().cost, 3);
        assert_eq!(t.link(0, 2).unwrap().cost, 5);
        assert_eq!(t.link(1, 2).unwrap().cost, 2);
        assert_eq!(t.link(1, 3).unwrap().cost, 5);
        assert_eq!(t.link(2, 3).unwrap().cost, 3);
        assert!(!t.has_link(0, 3));
        assert!(t.is_connected());
    }

    #[test]
    fn add_remove_links_updates_adjacency() {
        let mut t = Topology::empty(3);
        t.add_link(0, 1, LinkProps::from_class(LinkClass::Custom));
        assert!(t.has_link(1, 0), "links are bidirectional");
        assert_eq!(t.neighbors(0), vec![1]);
        assert!(t.remove_link(1, 0));
        assert!(!t.has_link(0, 1));
        assert!(!t.remove_link(0, 1), "double removal reports false");
        assert_eq!(t.degree(0), 0);
    }

    #[test]
    #[should_panic(expected = "self links")]
    fn self_links_rejected() {
        let mut t = Topology::empty(2);
        t.add_link(1, 1, LinkProps::from_class(LinkClass::Custom));
    }

    #[test]
    fn transit_stub_has_expected_size_and_structure() {
        let t = Topology::transit_stub(2, 42);
        assert_eq!(t.num_nodes(), 200);
        assert!(t.is_connected());
        // The paper reports roughly 315 stub-to-stub links for 200 nodes.
        let stub_links = t.links_of_class(LinkClass::StubStub).len();
        assert!(
            (280..=340).contains(&stub_links),
            "stub-stub link count {stub_links} out of expected range"
        );
        // Transit-stub uplinks: one per stub = 24.
        assert_eq!(t.links_of_class(LinkClass::TransitStub).len(), 24);
        // Every class uses the paper's latencies.
        for (_, _, p) in t.links() {
            match p.class {
                LinkClass::TransitTransit => assert_eq!(p.latency, 0.050),
                LinkClass::TransitStub => assert_eq!(p.latency, 0.010),
                LinkClass::StubStub => assert_eq!(p.latency, 0.002),
                _ => panic!("unexpected link class in transit-stub topology"),
            }
            assert_eq!(p.cost, 1);
        }
    }

    #[test]
    fn transit_stub_scales_linearly_with_domains() {
        for domains in 1..=5 {
            let t = Topology::transit_stub(domains, 7);
            assert_eq!(t.num_nodes(), domains * 100);
            assert!(t.is_connected());
        }
    }

    #[test]
    fn transit_stub_is_deterministic_per_seed() {
        let a = Topology::transit_stub(1, 99);
        let b = Topology::transit_stub(1, 99);
        let c = Topology::transit_stub(1, 100);
        let links = |t: &Topology| t.links().map(|(a, b, _)| (a, b)).collect::<Vec<_>>();
        assert_eq!(links(&a), links(&b));
        assert_ne!(links(&a), links(&c));
    }

    #[test]
    fn testbed_ring_respects_degree_cap() {
        let t = Topology::testbed_ring(40, 1);
        assert_eq!(t.num_nodes(), 40);
        assert!(t.is_connected());
        for n in t.nodes() {
            assert!(t.degree(n) >= 2, "ring guarantees degree ≥ 2");
            assert!(t.degree(n) <= 3, "degree cap of 3 violated at node {n}");
        }
    }

    #[test]
    fn routes_follow_shortest_paths() {
        let t = Topology::line(4); // 0-1-2-3, each 1 ms
        assert!(t.num_links() == 3 && t.is_connected());
        let routes = t.routes_from(0);
        assert_eq!(routes.len(), 4);
        let (lat, bw) = routes[3].unwrap();
        assert!((lat - 0.003).abs() < 1e-9);
        assert_eq!(bw, 100e6);
        assert_eq!(routes[0], Some((0.0, f64::INFINITY)));
        // Unreachable node.
        let mut t2 = Topology::empty(3);
        t2.add_link(0, 1, LinkProps::from_class(LinkClass::Custom));
        assert!(t2.routes_from(0)[2].is_none());
        assert!(!t2.is_connected());
    }

    #[test]
    fn min_link_latency_reflects_current_links() {
        let mut t = Topology::empty(3);
        assert!(t.min_link_latency().is_none());
        t.add_link(0, 1, LinkProps::from_class(LinkClass::TransitTransit));
        assert_eq!(t.min_link_latency(), Some(0.050));
        t.add_link(1, 2, LinkProps::from_class(LinkClass::StubStub));
        assert_eq!(t.min_link_latency(), Some(0.002));
        t.remove_link(1, 2);
        assert_eq!(t.min_link_latency(), Some(0.050));
    }

    #[test]
    fn rendezvous_partition_is_deterministic_and_balanced() {
        let t = Topology::transit_stub(1, 42);
        let p4 = t.partition_rendezvous(4);
        assert_eq!(p4, t.partition_rendezvous(4), "partition is deterministic");
        assert_eq!(p4.len(), t.num_nodes());
        assert!(p4.iter().all(|&s| s < 4));
        // Every shard gets a reasonable share of the 100 nodes.
        for shard in 0..4u16 {
            let n = p4.iter().filter(|&&s| s == shard).count();
            assert!(
                (10..=40).contains(&n),
                "shard {shard} owns {n} of 100 nodes — partition is badly skewed"
            );
        }
        // A single shard owns everything (the sequential oracle).
        assert!(t.partition_rendezvous(1).iter().all(|&s| s == 0));
        // Growing the shard count only moves nodes, never swaps unaffected
        // ones between surviving shards (the rendezvous property is hard to
        // check directly; at minimum the assignment changes deterministically).
        assert_eq!(t.partition_rendezvous(3), t.partition_rendezvous(3));
    }
}
