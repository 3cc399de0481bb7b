//! History independence under link removal (paper §4: incremental
//! maintenance under churn reaches the fixpoint of the new topology).
//!
//! Each schedule builds MINCOST or PATHVECTOR on a `testbed_ring` in one of
//! the three provenance modes, runs it to fixpoint, and then removes links —
//! until the graph splits, or one to three at random — sometimes re-adding
//! one, with the next change landing either at fixpoint or mid-convergence.
//! After the last change has settled:
//!
//! * every visible row of the program's relations, and of `prov` and
//!   `ruleExec` in reference mode, equals that of a fresh fixpoint on the
//!   final topology, and so does its derivation count;
//! * `state_digest` is equal at 1 and 2 shards;
//! * every `bestPathCost` is the shortest-path cost this test computes from
//!   the final topology (for MINCOST, the costs below `MINCOST_INFINITY`).
//!
//! MINCOST runs on the testbed's unit costs.  PATHVECTOR runs on distinct
//! power-of-two link costs, so that no two paths tie: `bestPath` keeps one
//! row per key, and a tie between two paths is not yet maintained exactly.

use exspan::core::{Deployment, Exspan, ProvenanceMode};
use exspan::ndlog::ast::Program;
use exspan::ndlog::programs::{self, MINCOST_INFINITY};
use exspan::netsim::{LinkProps, Topology};
use exspan::types::{NodeId, Tuple, Value};
use std::collections::BTreeMap;

/// Schedules in the fixed block; half of them remove links until the graph
/// splits.
const SCHEDULES: u64 = 128;

const MODES: [ProvenanceMode; 3] = [
    ProvenanceMode::None,
    ProvenanceMode::Reference,
    ProvenanceMode::ValueBdd,
];

/// SplitMix64: the schedule generator, a function of the schedule number.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One link change, then how long the deployment runs before the next one
/// (`f64::INFINITY`: to fixpoint).
struct Change {
    add: bool,
    a: NodeId,
    b: NodeId,
    props: LinkProps,
    pause: f64,
}

struct Schedule {
    path_vector: bool,
    mode: ProvenanceMode,
    start: Topology,
    changes: Vec<Change>,
    /// Whether some topology along the schedule is disconnected.
    splits: bool,
}

impl Schedule {
    fn new(index: u64) -> Schedule {
        let mut rng = Rng(index);
        let path_vector = index % 2 == 1;
        let mode = MODES[(index / 2 % 3) as usize];
        let mut start = Topology::testbed_ring(4 + rng.below(4), rng.next());
        if path_vector {
            let links: Vec<_> = start.links().map(|(a, b, p)| (a, b, *p)).collect();
            for (k, (a, b, props)) in links.into_iter().enumerate() {
                start.remove_link(a, b);
                let cost = 1 << k;
                start.add_link(a, b, LinkProps { cost, ..props });
            }
        }
        let hop = start.min_link_latency().unwrap();
        let mut links: Vec<_> = start.links().map(|(a, b, p)| (a, b, *p)).collect();
        for i in (1..links.len()).rev() {
            links.swap(i, rng.below(i + 1));
        }
        let until_split = index % 4 < 2;
        let mut topology = start.clone();
        let mut changes = Vec::new();
        let mut splits = false;
        let mut removed = Vec::new();
        for (a, b, props) in links {
            let enough = if until_split {
                splits
            } else {
                removed.len() == 1 + index as usize / 4 % 3
            };
            if enough {
                break;
            }
            topology.remove_link(a, b);
            splits |= !topology.is_connected();
            removed.push((a, b, props));
            changes.push(Change {
                add: false,
                a,
                b,
                props,
                pause: 0.0,
            });
        }
        if rng.below(3) == 0 {
            let (a, b, props) = removed[rng.below(removed.len())];
            changes.push(Change {
                add: true,
                a,
                b,
                props,
                pause: 0.0,
            });
        }
        for change in &mut changes {
            change.pause = match rng.below(3) {
                0 => f64::INFINITY,
                k => hop * k as f64,
            };
        }
        Schedule {
            path_vector,
            mode,
            start,
            changes,
            splits,
        }
    }

    fn program(&self) -> Program {
        if self.path_vector {
            programs::path_vector()
        } else {
            programs::mincost()
        }
    }

    fn deploy(&self, topology: Topology, shards: usize) -> Deployment {
        let mut d = Exspan::builder()
            .program(self.program())
            .topology(topology)
            .mode(self.mode)
            .shards(shards)
            .build()
            .unwrap();
        d.run_to_fixpoint();
        d
    }

    fn run(&self, shards: usize) -> Deployment {
        let mut d = self.deploy(self.start.clone(), shards);
        for c in &self.changes {
            if c.add {
                d.add_link(c.a, c.b, c.props);
            } else {
                d.remove_link(c.a, c.b);
            }
            d.run_until(d.now() + c.pause);
        }
        d.run_to_fixpoint();
        d
    }
}

/// Every visible row of the program's relations and of `prov` and
/// `ruleExec` with its derivation count, by relation, in a canonical order.
fn visible_rows(d: &Deployment, program: &Program) -> BTreeMap<String, Vec<(Tuple, usize)>> {
    let tables = program.tables.iter().map(|t| t.relation.as_str());
    let names = tables.chain(["prov", "ruleExec"]);
    names
        .map(|name| {
            let mut rows: Vec<(Tuple, usize)> = d
                .tuples_everywhere_shared(name)
                .iter()
                .map(|t| ((**t).clone(), d.derivation_count(t)))
                .collect();
            rows.sort();
            (name.to_string(), rows)
        })
        .collect()
}

/// Least link-cost distance from `from` to every node it reaches.
fn distances(topology: &Topology, from: NodeId) -> BTreeMap<NodeId, i64> {
    let mut dist = BTreeMap::from([(from, 0)]);
    let mut changed = true;
    while changed {
        changed = false;
        for (a, b, props) in topology.links() {
            for (x, y) in [(a, b), (b, a)] {
                let Some(&dx) = dist.get(&x) else { continue };
                if dist.get(&y).map_or(true, |&dy| dx + props.cost < dy) {
                    dist.insert(y, dx + props.cost);
                    changed = true;
                }
            }
        }
    }
    dist
}

/// The `bestPathCost(@S,D,C)` rows the program must hold on `topology`: the
/// least cost of a path from S to D of at least one hop.  MINCOST also
/// reaches S itself (out over a link and back) and stops below its
/// infinity; PATHVECTOR's paths are loop-free.
fn shortest_path_costs(topology: &Topology, path_vector: bool) -> BTreeMap<(NodeId, NodeId), i64> {
    let nodes = topology.num_nodes() as NodeId;
    let dist: Vec<_> = (0..nodes).map(|s| distances(topology, s)).collect();
    let mut best = BTreeMap::new();
    for s in 0..nodes {
        for (&d, &c) in &dist[s as usize] {
            if d != s {
                best.insert((s, d), c);
            }
        }
        if !path_vector {
            let neighbours = topology
                .links()
                .filter_map(|(a, b, p)| match (a == s, b == s) {
                    (true, _) => Some((b, p.cost)),
                    (_, true) => Some((a, p.cost)),
                    _ => None,
                });
            let round_trip = neighbours.map(|(z, c)| c + dist[z as usize][&s]).min();
            if let Some(c) = round_trip {
                best.insert((s, s), c);
            }
        }
    }
    if !path_vector {
        best.retain(|_, c| *c < MINCOST_INFINITY);
    }
    best
}

fn best_path_costs(d: &Deployment) -> BTreeMap<(NodeId, NodeId), i64> {
    d.tuples_everywhere_shared("bestPathCost")
        .iter()
        .map(|t| match t.values[..] {
            [Value::Node(dest), Value::Int(cost)] => ((t.location, dest), cost),
            _ => panic!("malformed row {t:?}"),
        })
        .collect()
}

/// What `got` has beyond `want` and lacks of it, as `+row`/`-row` lines.
fn diff<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Vec<String> {
    let extra = got
        .iter()
        .filter(|t| !want.contains(t))
        .map(|t| format!("+{t:?}"));
    let missing = want
        .iter()
        .filter(|t| !got.contains(t))
        .map(|t| format!("-{t:?}"));
    extra.chain(missing).collect()
}

#[test]
fn every_schedule_ends_at_the_fixpoint_of_its_final_topology() {
    let mut splits = 0;
    let mut failures = Vec::new();
    for index in 0..SCHEDULES {
        let schedule = Schedule::new(index);
        splits += usize::from(schedule.splits);
        let what = format!(
            "schedule {index} ({}, {:?}, {} change(s), splits: {})",
            schedule.program().name,
            schedule.mode,
            schedule.changes.len(),
            schedule.splits
        );
        let one = schedule.run(1);
        if one.state_digest() != schedule.run(2).state_digest() {
            failures.push(format!("{what}: the state differs at 1 and 2 shards"));
        }
        let program = schedule.program();
        let fresh = schedule.deploy(one.topology().clone(), 1);
        let (got, want) = (visible_rows(&one, &program), visible_rows(&fresh, &program));
        for (relation, rows) in &want {
            let rows = diff(&got[relation], rows);
            if !rows.is_empty() {
                failures.push(format!(
                    "{what}: {relation} differs from a fresh fixpoint in {} row(s), first {}",
                    rows.len(),
                    rows[0]
                ));
            }
        }
        let want = shortest_path_costs(one.topology(), schedule.path_vector);
        if best_path_costs(&one) != want {
            failures.push(format!(
                "{what}: bestPathCost is not the shortest-path cost"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(splits >= 60, "only {splits} schedules split the graph");
}
