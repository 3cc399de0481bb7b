//! The provenance-query mix shared by `query-churn` and `serve-query`, so
//! the two differ only in how queries reach the deployment (in-process on
//! the simulated clock vs. over a socket).

use exspan_core::{Deployment, Repr, TraversalOrder};
use exspan_types::{NodeId, Tuple};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

/// Nodes whose `bestPathCost` tuples form the hot set, and its size — the
/// 64-tuple set the paper-figure experiments query (operators investigate
/// the same few routes repeatedly, which is what makes caching matter).
/// 80 % of queries aim at it; the rest are uniform over every `bestPathCost`
/// tuple, so the cache also sees keys it has never held.
const HOT_NODES: NodeId = 12;
const HOT_SET: usize = 64;

pub struct Targets {
    pub hot: Vec<Arc<Tuple>>,
    pub all: Vec<Arc<Tuple>>,
}

impl Targets {
    /// Harvests the target population from a converged MINCOST deployment.
    pub fn harvest(deployment: &Deployment) -> Targets {
        let mut hot = Vec::new();
        for node in 0..HOT_NODES {
            hot.extend(deployment.tuples_shared(node, "bestPathCost"));
        }
        hot.truncate(HOT_SET);
        Targets {
            hot,
            all: deployment.tuples_everywhere_shared("bestPathCost"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Polynomial, BFS, result cache on (40 %).
    PolyCached,
    /// Polynomial, BFS, cache off (40 %).
    PolyUncached,
    /// Condensed BDD, DFS with threshold 3, cache off (20 %).
    BddDfs,
}

impl Kind {
    pub fn repr(self) -> Repr {
        match self {
            Kind::PolyCached | Kind::PolyUncached => Repr::Polynomial,
            Kind::BddDfs => Repr::Bdd,
        }
    }

    pub fn traversal(self) -> TraversalOrder {
        match self {
            Kind::PolyCached | Kind::PolyUncached => TraversalOrder::Bfs,
            Kind::BddDfs => TraversalOrder::DfsThreshold(3),
        }
    }

    pub fn cached(self) -> bool {
        self == Kind::PolyCached
    }
}

/// One drawn query: which tuple, how, and (for hot targets) its index in
/// [`Targets::hot`], which the correctness checks key on.
pub struct Draw {
    pub target: Arc<Tuple>,
    pub hot: Option<usize>,
    pub kind: Kind,
}

/// Draws `n` queries.  The shares are exact in every block of ten (8 hot and
/// 2 cold targets; 4 cached, 4 uncached, 2 BDD) and the order within a block
/// is the seed's: a latency median sits between the cheap cached and the dear
/// uncached queries, so letting the shares themselves wander by a percent or
/// two from draw to draw moves it more than most code changes would.
pub fn draw(rng: &mut SmallRng, targets: &Targets, n: usize) -> Vec<Draw> {
    use Kind::{BddDfs, PolyCached, PolyUncached};
    let mut hot = [true, true, true, true, true, true, true, true, false, false];
    let mut kinds = [
        PolyCached,
        PolyCached,
        PolyCached,
        PolyCached,
        PolyUncached,
        PolyUncached,
        PolyUncached,
        PolyUncached,
        BddDfs,
        BddDfs,
    ];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for i in (1..10).rev() {
            hot.swap(i, rng.gen_range(0..=i));
            kinds.swap(i, rng.gen_range(0..=i));
        }
        for (&is_hot, &kind) in hot.iter().zip(&kinds).take(n - out.len()) {
            let (target, hot) = if is_hot {
                let i = rng.gen_range(0..targets.hot.len());
                (Arc::clone(&targets.hot[i]), Some(i))
            } else {
                let i = rng.gen_range(0..targets.all.len());
                (Arc::clone(&targets.all[i]), None)
            };
            out.push(Draw { target, hot, kind });
        }
    }
    out
}
