//! Incremental provenance maintenance under churn, plus query-result caching.
//!
//! Scenario: a 100-node network experiences link churn (the workload of
//! §7.2).  The operator keeps issuing provenance queries for routes while the
//! network changes underneath.  Reference-based provenance keeps maintenance
//! traffic close to the no-provenance baseline; a cached query result (§6.1)
//! dies whenever maintenance changes the provenance graph beneath it, so a
//! cached answer is never stale; and — because maintenance,
//! churn and queries share one simulated clock — the monitoring queries
//! travel the network *while* the churn cascades are still being processed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example churn_diagnostics
//! ```

use exspan::core::Repr;
use exspan::netsim::{ChurnModel, Topology};

fn main() {
    let topology = Topology::transit_stub(1, 21);
    let churn = ChurnModel {
        interval: 0.5,
        changes_per_batch: 4,
        seed: 99,
    };
    let schedule = churn.schedule(&topology, 2.0);
    println!(
        "{} nodes, {} links, {} churn events over 2.0 s",
        topology.num_nodes(),
        topology.num_links(),
        schedule.len()
    );

    let mut deployment = exspan::setup::mincost_reference(topology, 1);
    println!(
        "initial fixpoint: t={:.2}s, {:.2} MB average per-node traffic",
        deployment.now(),
        deployment.avg_comm_mb()
    );

    // Pick a route at node 0 to keep monitoring with cached
    // derivation-count queries.
    let monitored = deployment
        .tuples_shared(0, "bestPathCost")
        .first()
        .expect("node 0 has routes")
        .clone();
    println!("monitoring provenance of {monitored}");

    let first = deployment
        .query(&monitored)
        .issuer(0)
        .repr(Repr::DerivationCount)
        .cached(true)
        .execute();
    println!(
        "  initial query: {:?} derivations, latency {:.1} ms",
        first
            .annotation
            .as_ref()
            .and_then(exspan::core::Annotation::as_count),
        first.latency().unwrap_or_default() * 1e3
    );

    // Apply churn in 0.5 s slices.  The re-query is *scheduled* shortly after
    // the batch and progresses on the same clock as the maintenance cascades
    // the batch triggers; before each of its messages, the cached results
    // those cascades changed the provenance of are dropped.
    let mut applied = 0usize;
    for batch_end in [0.5f64, 1.0, 1.5, 2.0] {
        for event in schedule
            .iter()
            .filter(|e| e.time <= batch_end && e.time > batch_end - 0.5)
        {
            deployment.apply_churn_event(event);
            applied += 1;
        }

        let dest = monitored.values[0].clone();
        let current = deployment
            .tuples_shared(0, "bestPathCost")
            .into_iter()
            .find(|t| t.values[0] == dest);
        let handle = current.as_ref().map(|t| {
            let issue_at = deployment.now() + 0.2;
            deployment
                .query(t)
                .issuer(0)
                .repr(Repr::DerivationCount)
                .cached(true)
                .at(issue_at)
                .submit()
        });

        deployment.run_until(deployment.now() + 0.45);

        match (current, handle) {
            (Some(t), Some(h)) => {
                let outcome = deployment.outcome(h).expect("submitted");
                let stats = deployment.session(h).stats().clone();
                println!(
                    "  t={batch_end:.1}s ({applied} churn events applied): {t} has {:?} derivations \
                     [cache: {} hits / {} misses / {} invalidations]",
                    outcome.annotation.as_ref().and_then(exspan::core::Annotation::as_count),
                    stats.cache_hits,
                    stats.cache_misses,
                    stats.invalidations,
                );
            }
            _ => println!("  t={batch_end:.1}s: route to {dest:?} currently withdrawn"),
        }
    }

    let bw = deployment.avg_bandwidth_mbps();
    let peak = bw.iter().fold(0.0f64, |m, &(_, v)| m.max(v));
    println!(
        "\nmaintenance traffic stayed at a peak of {peak:.3} MBps per node under churn \
         (reference-based provenance adds only 24-byte pointers per derivation)"
    );
    let stats = deployment.query_traffic_stats();
    println!(
        "query traffic total: {} KB over {} messages",
        stats.bytes / 1024,
        stats.messages
    );
}
