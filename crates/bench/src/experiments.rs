//! Experiment drivers — one function per figure of the evaluation (§7).

use crate::report::{FigureReport, Series};
use exspan_core::{Deployment, Exspan, ProvenanceMode, Repr, TraversalOrder};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::{ChurnModel, Topology};
use exspan_types::{NodeId, Tuple, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Experiment scale: the paper's parameters are expensive on a single core,
/// so the harness defaults to a reduced scale that preserves every trend and
/// can regenerate the full-scale numbers with [`Scale::paper`].
#[derive(Debug, Clone)]
pub struct Scale {
    /// Transit-stub domain counts for Figures 6 and 7 (100 nodes per domain).
    pub domains: Vec<usize>,
    /// Domains used for the churn and packet-forwarding experiments
    /// (Figures 8–10; the paper uses 2 domains = 200 nodes).
    pub traffic_domains: usize,
    /// Seconds of data-plane traffic for Figure 8.
    pub packet_duration: f64,
    /// Packets per second each node sends in Figure 8 (paper: 100).
    pub packets_per_second: f64,
    /// Seconds of churn for Figures 9 and 10 (paper: 2.5).
    pub churn_duration: f64,
    /// Link changes per churn batch (paper: 10 every 0.5 s).
    pub churn_changes_per_batch: usize,
    /// Domains used for the query experiments (Figures 11–15; paper: 1).
    pub query_domains: usize,
    /// Provenance queries per second per node (paper: 5).
    pub queries_per_second: f64,
    /// Seconds of query workload.
    pub query_duration: f64,
    /// Testbed sizes for Figure 17 (paper: 5–40 nodes).
    pub testbed_sizes: Vec<usize>,
    /// Testbed size for Figure 16 (paper: 40 nodes).
    pub testbed_nodes: usize,
    /// Base random seed.
    pub seed: u64,
    /// Shards (worker threads) executing each protocol run.  Results are
    /// bit-identical for every value; only wall-clock time changes.
    pub shards: usize,
}

impl Scale {
    /// A minimal scale for CI smoke runs: every figure in seconds, trends
    /// preserved, numbers deterministic (the committed `benchmarks/baseline`
    /// files are generated at this scale).
    pub fn tiny() -> Self {
        Scale {
            domains: vec![1],
            traffic_domains: 1,
            packet_duration: 0.4,
            packets_per_second: 5.0,
            churn_duration: 1.0,
            churn_changes_per_batch: 3,
            query_domains: 1,
            queries_per_second: 1.0,
            query_duration: 1.0,
            testbed_sizes: vec![5, 10, 20],
            testbed_nodes: 20,
            seed: 42,
            shards: 1,
        }
    }

    /// A reduced scale suitable for quick runs.
    pub fn small() -> Self {
        Scale {
            domains: vec![1, 2],
            traffic_domains: 1,
            packet_duration: 1.0,
            packets_per_second: 10.0,
            churn_duration: 1.5,
            churn_changes_per_batch: 6,
            query_domains: 1,
            queries_per_second: 2.0,
            query_duration: 2.0,
            testbed_sizes: vec![5, 10, 20, 40],
            testbed_nodes: 40,
            seed: 42,
            shards: 1,
        }
    }

    /// The paper's parameters (§7).
    pub fn paper() -> Self {
        Scale {
            domains: vec![1, 2, 3, 4, 5],
            traffic_domains: 2,
            packet_duration: 4.5,
            packets_per_second: 100.0,
            churn_duration: 2.5,
            churn_changes_per_batch: 10,
            query_domains: 1,
            queries_per_second: 5.0,
            query_duration: 4.0,
            testbed_sizes: vec![5, 10, 15, 20, 25, 30, 35, 40],
            testbed_nodes: 40,
            seed: 42,
            shards: 1,
        }
    }

    /// The same scale with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// The three provenance modes compared throughout the evaluation, in the
/// order the figure legends list them.
pub fn evaluation_modes() -> Vec<ProvenanceMode> {
    vec![
        ProvenanceMode::ValueBdd,
        ProvenanceMode::Reference,
        ProvenanceMode::None,
    ]
}

/// Builds a deployment (links auto-seeded) and runs the protocol to fixpoint
/// on at most `shards` worker threads (results are identical for every shard
/// count).
pub fn run_protocol(
    program: &Program,
    topology: Topology,
    mode: ProvenanceMode,
    shards: usize,
) -> Deployment {
    let mut deployment = Exspan::builder()
        .program(program.clone())
        .topology(topology)
        .mode(mode)
        .shards(shards)
        .build()
        .expect("experiment configuration is valid");
    deployment.run_to_fixpoint();
    deployment
}

fn comm_cost_vs_nodes(program: &Program, scale: &Scale, id: &str, title: &str) -> FigureReport {
    let mut series: Vec<Series> = evaluation_modes()
        .iter()
        .map(|m| Series::new(m.label(), Vec::new()))
        .collect();
    for &domains in &scale.domains {
        let nodes = domains * 100;
        for (i, &mode) in evaluation_modes().iter().enumerate() {
            let topology = Topology::transit_stub(domains, scale.seed);
            let system = run_protocol(program, topology, mode, scale.shards);
            series[i].points.push((nodes as f64, system.avg_comm_mb()));
        }
    }
    FigureReport {
        id: id.into(),
        title: title.into(),
        x_label: "Number of Nodes".into(),
        y_label: "Average Comm. Cost (MB)".into(),
        series,
        expected_shape: "value-based ≫ reference-based ≈ no-provenance; all grow roughly \
                         linearly with the number of nodes"
            .into(),
    }
}

/// Figure 6: average communication cost (MB) for MINCOST vs network size.
pub fn figure6(scale: &Scale) -> FigureReport {
    comm_cost_vs_nodes(
        &programs::mincost(),
        scale,
        "fig6",
        "Average communication cost for MINCOST",
    )
}

/// Figure 7: average communication cost (MB) for PATHVECTOR vs network size.
pub fn figure7(scale: &Scale) -> FigureReport {
    comm_cost_vs_nodes(
        &programs::path_vector(),
        scale,
        "fig7",
        "Average communication cost for PATHVECTOR",
    )
}

/// Schedules the Figure 8 packet workload against a converged system: each
/// node picks a random peer and sends `packets_per_second` 1024-byte payloads
/// per second for `packet_duration` seconds.  Returns the simulated time the
/// workload started at.
fn drive_packet_workload(system: &mut Deployment, scale: &Scale, nodes: usize) -> f64 {
    let start = system.now();
    let mut rng = SmallRng::seed_from_u64(scale.seed);
    let interval = 1.0 / scale.packets_per_second;
    for node in 0..nodes as NodeId {
        let dest = loop {
            let d = rng.gen_range(0..nodes as NodeId);
            if d != node {
                break d;
            }
        };
        let mut t = start + rng.gen_range(0.0..interval);
        while t < start + scale.packet_duration {
            let packet = Tuple::new(
                "ePacket",
                node,
                vec![Value::Node(node), Value::Node(dest), Value::Payload(1024)],
            );
            system.schedule_delta(t, node, packet, true);
            t += interval;
        }
    }
    system.run_until(start + scale.packet_duration);
    start
}

/// Figure 8: average per-node bandwidth (MBps) over time while forwarding
/// 1024-byte packets on the data plane.
pub fn figure8(scale: &Scale) -> FigureReport {
    let mut series = Vec::new();
    for mode in evaluation_modes() {
        let topology = Topology::transit_stub(scale.traffic_domains, scale.seed);
        let nodes = topology.num_nodes();
        let mut system = run_protocol(&programs::packet_forward(), topology, mode, scale.shards);
        let start = drive_packet_workload(&mut system, scale, nodes);

        let points = rebase_bandwidth(system.avg_bandwidth_mbps(), start, scale.packet_duration);
        series.push(Series::new(system.mode().label(), points));
    }
    FigureReport {
        id: "fig8".into(),
        title: "Average bandwidth for PACKETFORWARD".into(),
        x_label: "Time (seconds)".into(),
        y_label: "Average Bandwidth (MBps)".into(),
        series,
        expected_shape: "all three curves nearly coincide: the 1024-byte payload dominates the \
                         per-packet provenance annotation"
            .into(),
    }
}

/// Drives a churn schedule against a converged system, slice by slice.
///
/// Each event's deltas are scheduled at `start + event.time`, so its
/// maintenance traffic lands at the schedule's position in the bandwidth
/// time-series; the engine clock only advances while events are processed,
/// so applying the deltas "now" would pile every batch onto the
/// initial-fixpoint buckets.  `start` is the simulated time the churn window
/// begins at (normally `deployment.now()` right after fixpoint).
pub fn drive_churn(
    system: &mut Deployment,
    churn: &ChurnModel,
    schedule: &[exspan_netsim::ChurnEvent],
    start: f64,
    duration: f64,
) {
    let mut idx = 0usize;
    let mut t = churn.interval;
    while t < duration + churn.interval {
        while idx < schedule.len() && schedule[idx].time <= t {
            system.schedule_churn_event(&schedule[idx], start + schedule[idx].time);
            idx += 1;
        }
        system.run_until(start + t + churn.interval * 0.99);
        t += churn.interval;
    }
}

fn churn_experiment(program: &Program, scale: &Scale, id: &str, title: &str) -> FigureReport {
    let mut series = Vec::new();
    for mode in evaluation_modes() {
        let topology = Topology::transit_stub(scale.traffic_domains, scale.seed);
        let churn = ChurnModel {
            interval: 0.5,
            changes_per_batch: scale.churn_changes_per_batch,
            seed: scale.seed ^ 0xC0FFEE,
        };
        let schedule = churn.schedule(&topology, scale.churn_duration);
        let mut system = run_protocol(program, topology, mode, scale.shards);
        let start = system.now();

        drive_churn(&mut system, &churn, &schedule, start, scale.churn_duration);

        let points = rebase_bandwidth(system.avg_bandwidth_mbps(), start, scale.churn_duration);
        series.push(Series::new(system.mode().label(), points));
    }
    FigureReport {
        id: id.into(),
        title: title.into(),
        x_label: "Time (seconds)".into(),
        y_label: "Average Bandwidth (MBps)".into(),
        series,
        expected_shape: "reference-based provenance hugs the no-provenance curve; value-based is \
                         several times higher"
            .into(),
    }
}

/// Figure 9: per-node bandwidth over time for MINCOST under churn.
pub fn figure9(scale: &Scale) -> FigureReport {
    churn_experiment(
        &programs::mincost(),
        scale,
        "fig9",
        "Average bandwidth for MINCOST under churn",
    )
}

/// Figure 10: per-node bandwidth over time for PATHVECTOR under churn.
pub fn figure10(scale: &Scale) -> FigureReport {
    churn_experiment(
        &programs::path_vector(),
        scale,
        "fig10",
        "Average bandwidth for PATHVECTOR under churn",
    )
}

/// Result of one query-workload run.
pub struct QueryRun {
    /// Per-node query bandwidth samples (KBps).
    pub bandwidth_kbps: Vec<(f64, f64)>,
    /// Query completion latencies in seconds.
    pub latencies: Vec<f64>,
    /// Number of completed queries.
    pub completed: usize,
    /// Total query traffic in bytes.
    pub total_bytes: u64,
}

/// Runs the query workload of §7.3: every node issues `queries_per_second`
/// provenance queries per second for `query_duration` seconds, each targeting
/// a randomly selected `bestPathCost` tuple.  All queries are submitted
/// through the deployment's builder API and progress — together with any
/// residual maintenance — under the deployment's single simulated clock.
pub fn query_workload(
    scale: &Scale,
    repr: Repr,
    traversal: TraversalOrder,
    caching: bool,
) -> QueryRun {
    let topology = Topology::transit_stub(scale.query_domains, scale.seed);
    let nodes = topology.num_nodes();
    let mut deployment = run_protocol(
        &programs::mincost(),
        topology,
        ProvenanceMode::Reference,
        scale.shards,
    );
    let start = deployment.now();

    // Gather the population of queryable tuples.  Queries target the routes
    // of a small set of "hot" destinations (operators investigate specific
    // routes repeatedly), which is what makes result caching effective; the
    // uncached runs use the identical workload for a fair comparison.
    let mut targets: Vec<Arc<Tuple>> = Vec::new();
    for n in 0..nodes.min(12) as NodeId {
        targets.extend(deployment.tuples_shared(n, "bestPathCost"));
    }
    targets.truncate(64);

    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xABCD);
    let interval = 1.0 / scale.queries_per_second;
    for issuer in 0..nodes as NodeId {
        let mut t = start + rng.gen_range(0.0..interval);
        while t < start + scale.query_duration {
            let target = &targets[rng.gen_range(0..targets.len())];
            deployment
                .query(target)
                .issuer(issuer)
                .repr(repr.clone())
                .traversal(traversal)
                .cached(caching)
                .at(t)
                .submit();
            t += interval;
        }
    }
    deployment.run_to_fixpoint();

    let latencies: Vec<f64> = deployment
        .outcomes()
        .iter()
        .filter_map(exspan_core::QueryOutcome::latency)
        .collect();
    let completed = latencies.len();
    let bandwidth_kbps = deployment
        .query_bandwidth_samples()
        .into_iter()
        .filter(|&(t, _)| t >= start)
        .map(|(t, bps)| (t - start, bps / 1024.0 / nodes as f64))
        .collect();
    QueryRun {
        bandwidth_kbps,
        latencies,
        completed,
        total_bytes: deployment.query_traffic_stats().bytes,
    }
}

/// Figure 11: average query bandwidth (KBps) with and without caching.
pub fn figure11(scale: &Scale) -> FigureReport {
    let without = query_workload(scale, Repr::Polynomial, TraversalOrder::Bfs, false);
    let with = query_workload(scale, Repr::Polynomial, TraversalOrder::Bfs, true);
    FigureReport {
        id: "fig11".into(),
        title: "Query bandwidth with and without caching (POLYNOMIAL)".into(),
        x_label: "Time (seconds)".into(),
        y_label: "Average Bandwidth (KBps)".into(),
        series: vec![
            Series::new("Without caching", without.bandwidth_kbps),
            Series::new("With caching", with.bandwidth_kbps),
        ],
        expected_shape: "caching reduces steady-state query bandwidth substantially (the paper \
                         observes roughly 50 KBps dropping to about 20 KBps)"
            .into(),
    }
}

/// Figure 12: CDF of query completion latency with and without caching.
pub fn figure12(scale: &Scale) -> FigureReport {
    let without = query_workload(scale, Repr::Polynomial, TraversalOrder::Bfs, false);
    let with = query_workload(scale, Repr::Polynomial, TraversalOrder::Bfs, true);
    FigureReport {
        id: "fig12".into(),
        title: "CDF of query completion latency with and without caching".into(),
        x_label: "Query Completion Time (seconds)".into(),
        y_label: "Cumulative Fraction".into(),
        series: vec![
            Series::new("With caching", cdf(&with.latencies)),
            Series::new("Without caching", cdf(&without.latencies)),
        ],
        expected_shape: "all queries complete within a fraction of a second; caching shifts the \
                         CDF left (most queries answered from nearby caches)"
            .into(),
    }
}

/// Figure 13: query bandwidth for BFS, DFS and DFS-with-threshold traversal.
pub fn figure13(scale: &Scale) -> FigureReport {
    let orders: Vec<(&str, TraversalOrder)> = vec![
        ("BFS", TraversalOrder::Bfs),
        ("DFS", TraversalOrder::Dfs),
        ("DFS-Threshold", TraversalOrder::DfsThreshold(3)),
    ];
    let series = orders
        .into_iter()
        .map(|(label, order)| {
            let run = query_workload(scale, Repr::DerivationCount, order, false);
            Series::new(label, run.bandwidth_kbps)
        })
        .collect();
    FigureReport {
        id: "fig13".into(),
        title: "Query bandwidth under different traversal orders (#DERIVATION)".into(),
        x_label: "Time (seconds)".into(),
        y_label: "Average Bandwidth (KBps)".into(),
        series,
        expected_shape: "BFS ≈ DFS; DFS-with-threshold uses noticeably less bandwidth (the paper \
                         reports about 40% less) because it prunes the traversal"
            .into(),
    }
}

/// Figure 14: CDF of query latency under the three traversal orders.
pub fn figure14(scale: &Scale) -> FigureReport {
    let orders: Vec<(&str, TraversalOrder)> = vec![
        ("BFS", TraversalOrder::Bfs),
        ("DFS-Threshold", TraversalOrder::DfsThreshold(3)),
        ("DFS", TraversalOrder::Dfs),
    ];
    let series = orders
        .into_iter()
        .map(|(label, order)| {
            let run = query_workload(scale, Repr::DerivationCount, order, false);
            Series::new(label, cdf(&run.latencies))
        })
        .collect();
    FigureReport {
        id: "fig14".into(),
        title: "CDF of query latency under different traversal orders".into(),
        x_label: "Query Completion Latency (seconds)".into(),
        y_label: "Cumulative Fraction".into(),
        series,
        expected_shape: "DFS has the longest latency tail; the threshold variant removes most of \
                         it; BFS is fastest"
            .into(),
    }
}

/// Figure 15: query bandwidth for POLYNOMIAL vs BDD result representations.
pub fn figure15(scale: &Scale) -> FigureReport {
    let poly = query_workload(scale, Repr::Polynomial, TraversalOrder::Bfs, false);
    let bdd = query_workload(scale, Repr::Bdd, TraversalOrder::Bfs, false);
    FigureReport {
        id: "fig15".into(),
        title: "Query bandwidth: POLYNOMIAL vs BDD representation".into(),
        x_label: "Time (seconds)".into(),
        y_label: "Average Bandwidth (KBps)".into(),
        series: vec![
            Series::new("Polynomial", poly.bandwidth_kbps),
            Series::new("BDD", bdd.bandwidth_kbps),
        ],
        expected_shape: "the BDD (absorption) representation transfers measurably fewer bytes \
                         (the paper reports POLYNOMIAL using ~57% more bandwidth)"
            .into(),
    }
}

/// Runs PATHVECTOR to fixpoint on a testbed ring of `nodes` nodes,
/// returning the system and the fixpoint time (which `run_protocol`
/// discards but Figures 16 and 17 need).
fn run_testbed_pathvector(scale: &Scale, mode: ProvenanceMode, nodes: usize) -> (Deployment, f64) {
    let topology = Topology::testbed_ring(nodes, scale.seed);
    let mut deployment = Exspan::builder()
        .program(programs::path_vector())
        .topology(topology)
        .mode(mode)
        .shards(scale.shards)
        .build()
        .expect("experiment configuration is valid");
    let stats = deployment.run_to_fixpoint();
    (deployment, stats.fixpoint_time)
}

/// Figure 16: per-node bandwidth over time for PATHVECTOR on the testbed
/// topology (ring plus random peers, 40 nodes, degree ≤ 3).
pub fn figure16(scale: &Scale) -> FigureReport {
    let mut series = Vec::new();
    for mode in evaluation_modes() {
        let (system, fixpoint_time) = run_testbed_pathvector(scale, mode, scale.testbed_nodes);
        let points = system
            .avg_bandwidth_mbps()
            .into_iter()
            .filter(|&(t, _)| t <= fixpoint_time + 0.5)
            .map(|(t, mbps)| (t, mbps * 1024.0))
            .collect();
        series.push(Series::new(mode.label(), points));
    }
    FigureReport {
        id: "fig16".into(),
        title: "Average bandwidth for PATHVECTOR in the testbed deployment".into(),
        x_label: "Time (seconds)".into(),
        y_label: "Average Bandwidth (KBps)".into(),
        series,
        expected_shape: "reference-based adds roughly 30% over no-provenance; value-based roughly \
                         triples it (the paper reports +29% vs +204%)"
            .into(),
    }
}

/// Figure 17: fixpoint latency vs testbed size for PATHVECTOR.
pub fn figure17(scale: &Scale) -> FigureReport {
    let mut series: Vec<Series> = evaluation_modes()
        .iter()
        .map(|m| Series::new(m.label(), Vec::new()))
        .collect();
    for &n in &scale.testbed_sizes {
        for (i, &mode) in evaluation_modes().iter().enumerate() {
            let (_, fixpoint_time) = run_testbed_pathvector(scale, mode, n);
            series[i].points.push((n as f64, fixpoint_time));
        }
    }
    FigureReport {
        id: "fig17".into(),
        title: "Fixpoint latency for PATHVECTOR in various sized testbed deployments".into(),
        x_label: "Number of Nodes".into(),
        y_label: "Fixpoint Latency (seconds)".into(),
        series,
        expected_shape: "fixpoint latency grows slowly with network size and is nearly identical \
                         for all three provenance modes"
            .into(),
    }
}

/// Figure 18: compressed vs flat provenance communication cost.
///
/// Every other figure charges the flat wire model; this one additionally runs
/// the dictionary size model ([`exspan_types::compress`]) over the
/// *same* value-based provenance runs of MINCOST, PATHVECTOR and
/// PACKETFORWARD, so each program gets a flat and a compressed curve over
/// identical message streams.  The compressed charge is a parallel counter —
/// the messages themselves, and therefore Figures 6–17, are untouched.
pub fn figure18(scale: &Scale) -> FigureReport {
    let programs: [(&str, Program); 3] = [
        ("MINCOST", programs::mincost()),
        ("PATHVECTOR", programs::path_vector()),
        ("PACKETFORWARD", programs::packet_forward()),
    ];
    let mut series: Vec<Series> = Vec::with_capacity(programs.len() * 2);
    for (name, _) in &programs {
        series.push(Series::new(format!("{name} uncompressed"), Vec::new()));
        series.push(Series::new(format!("{name} compressed"), Vec::new()));
    }
    for &domains in &scale.domains {
        let nodes = domains * 100;
        for (i, (name, program)) in programs.iter().enumerate() {
            let topology = Topology::transit_stub(domains, scale.seed);
            let mut system = Exspan::builder()
                .program(program.clone())
                .topology(topology)
                .mode(ProvenanceMode::ValueBdd)
                .shards(scale.shards)
                .track_compressed(true)
                .build()
                .expect("experiment configuration is valid");
            system.run_to_fixpoint();
            if *name == "PACKETFORWARD" {
                drive_packet_workload(&mut system, scale, nodes);
            }
            series[2 * i]
                .points
                .push((nodes as f64, system.avg_comm_mb()));
            series[2 * i + 1]
                .points
                .push((nodes as f64, system.avg_comm_mb_compressed()));
        }
    }
    FigureReport {
        id: "fig18".into(),
        title: "Compressed vs flat provenance communication cost".into(),
        x_label: "Number of Nodes".into(),
        y_label: "Average Comm. Cost (MB)".into(),
        series,
        expected_shape: "the dictionary codec cuts MINCOST and PATHVECTOR communication cost by \
                         at least a quarter; PACKETFORWARD saves less because the 1024-byte \
                         payloads are charged as opaque bytes"
            .into(),
    }
}

/// Returns all figure ids in order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18",
    ]
}

/// Runs a figure by id.
pub fn run_figure(id: &str, scale: &Scale) -> Option<FigureReport> {
    Some(match id {
        "fig6" => figure6(scale),
        "fig7" => figure7(scale),
        "fig8" => figure8(scale),
        "fig9" => figure9(scale),
        "fig10" => figure10(scale),
        "fig11" => figure11(scale),
        "fig12" => figure12(scale),
        "fig13" => figure13(scale),
        "fig14" => figure14(scale),
        "fig15" => figure15(scale),
        "fig16" => figure16(scale),
        "fig17" => figure17(scale),
        "fig18" => figure18(scale),
        _ => return None,
    })
}

/// Empirical CDF of a set of samples, as `(value, fraction ≤ value)` points.
pub fn cdf(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len().max(1) as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Rebases a bandwidth time-series so that `start` becomes time zero and only
/// `duration` seconds are kept.
fn rebase_bandwidth(samples: Vec<(f64, f64)>, start: f64, duration: f64) -> Vec<(f64, f64)> {
    samples
        .into_iter()
        .filter(|&(t, _)| t >= start && t <= start + duration)
        .map(|(t, v)| (t - start, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let samples = [0.3, 0.1, 0.2, 0.2];
        let c = cdf(&samples);
        assert_eq!(c.len(), 4);
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn rebase_filters_and_shifts() {
        let samples = vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (5.0, 4.0)];
        let out = rebase_bandwidth(samples, 1.0, 2.0);
        assert_eq!(out, vec![(0.0, 2.0), (1.0, 3.0)]);
    }

    #[test]
    fn scales_are_ordered() {
        let small = Scale::small();
        let paper = Scale::paper();
        assert!(small.domains.len() < paper.domains.len());
        assert!(small.queries_per_second < paper.queries_per_second);
        assert_eq!(paper.domains.last(), Some(&5));
    }

    #[test]
    fn run_figure_dispatches_known_ids_only() {
        assert!(run_figure("nope", &Scale::small()).is_none());
        assert_eq!(all_figure_ids().len(), 13);
    }
}
