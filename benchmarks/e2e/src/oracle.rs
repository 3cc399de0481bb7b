//! An answer the benchmark computes itself: least path cost between every
//! pair of nodes, straight from `Topology::links()`, to hold `bestPathCost`
//! against.  Link costs are 1 on the generated topologies (so this is a hop
//! count) but not on the paper's four-node example, hence Dijkstra.

use exspan_netsim::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `cost[s][d]` = least total link cost from `s` to `d`, `None` if
/// unreachable.  `cost[s][s]` is `Some(0)`.
pub fn shortest_path_costs(topology: &Topology) -> Vec<Vec<Option<i64>>> {
    let n = topology.num_nodes();
    let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for (a, b, props) in topology.links() {
        adj[a as usize].push((b as usize, props.cost));
        adj[b as usize].push((a as usize, props.cost));
    }
    (0..n)
        .map(|source| {
            let mut dist: Vec<Option<i64>> = vec![None; n];
            let mut heap = BinaryHeap::from([Reverse((0i64, source))]);
            while let Some(Reverse((d, u))) = heap.pop() {
                if dist[u].is_some() {
                    continue;
                }
                dist[u] = Some(d);
                for &(v, w) in &adj[u] {
                    if dist[v].is_none() {
                        heap.push(Reverse((d + w, v)));
                    }
                }
            }
            dist
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_costs() {
        // Figure 3: a–b 3, a–c 5, b–c 2, b–d 5, c–d 3 (a=0 … d=3).
        let cost = shortest_path_costs(&Topology::paper_example());
        assert_eq!(cost[0][2], Some(5)); // a→c: direct 5 ties a→b→c 3+2
        assert_eq!(cost[0][3], Some(8)); // a→b→d or a→c→d
        assert_eq!(cost[1][3], Some(5));
        assert_eq!(cost[3][0], cost[0][3]);
        assert_eq!(cost[2][2], Some(0));
    }

    #[test]
    fn unreachable_nodes_have_no_cost() {
        let cost = shortest_path_costs(&Topology::empty(3));
        assert_eq!(cost[0][1], None);
        assert_eq!(cost[1][1], Some(0));
    }
}
