//! Sharded-vs-sequential determinism at the `Deployment` level.
//!
//! The tentpole guarantee of the sharded runtime is that every observable —
//! protocol state, per-node byte counters, the bandwidth time-series — is
//! *bit-identical* to the sequential engine (`shards(1)`).  These tests pin
//! that guarantee for every provenance mode, over topologies small enough for
//! debug-mode CI.  Under value-based provenance each shard keeps its own BDD
//! store and a history crossing shards travels encoded, so the annotation
//! bytes and the derivability answers are pinned too.

use exspan_core::{Deployment, Exspan, ProvExpr, ProvenanceMode, Repr};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::{ChurnEvent, Topology};
use exspan_types::{Tuple, Vid};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything a figure could observe about a finished run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    tuples: Vec<Arc<Tuple>>,
    bytes_sent: Vec<u64>,
    total_bytes: u64,
    avg_comm_mb: f64,
    bandwidth: Vec<(f64, f64)>,
    fixpoint_time: f64,
    /// Value mode only: the annotation bytes summed across shards, and
    /// whether each visible `bestPathCost` is derivable under each of
    /// [`trust_assignments`].
    value: Option<(u64, Vec<Vec<bool>>)>,
}

/// Three fixed trust assignments over base tuples: all of them, the links
/// stored at even nodes, and the tuples whose VID begins with an even byte.
fn trust_assignments(deployment: &Deployment) -> [Box<dyn Fn(Vid) -> bool>; 3] {
    let even_links: BTreeSet<Vid> = deployment
        .tuples_everywhere_shared("link")
        .iter()
        .filter(|l| l.location % 2 == 0)
        .map(|l| l.vid())
        .collect();
    [
        Box::new(|_| true),
        Box::new(move |vid| even_links.contains(&vid)),
        Box::new(|vid: Vid| vid.0[0] % 2 == 0),
    ]
}

fn deploy(program: &Program, mode: ProvenanceMode, shards: usize) -> Deployment {
    Exspan::builder()
        .program(program.clone())
        .topology(Topology::testbed_ring(32, 11))
        .mode(mode)
        .shards(shards)
        .build()
        .expect("valid deployment")
}

fn run(program: &Program, mode: ProvenanceMode, shards: usize, churn: bool) -> Fingerprint {
    let mut deployment = deploy(program, mode, shards);
    let stats = deployment.run_to_fixpoint();
    if churn {
        // Fail a few ring edges and let the retractions cascade.
        for (a, b) in [(0u32, 1u32), (8, 9), (16, 17)] {
            deployment.remove_link(a, b);
        }
        deployment.run_to_fixpoint();
    }
    let mut tuples = Vec::new();
    for rel in [
        "link",
        "pathCost",
        "bestPathCost",
        "bestPath",
        "prov",
        "ruleExec",
    ] {
        tuples.extend(deployment.tuples_everywhere_shared(rel));
    }
    let s = deployment.engine().stats();
    // The summed per-shard counters equal the merged statistics' total.
    assert_eq!(deployment.total_bytes(), s.total_bytes(), "{shards} shards");
    let engine = deployment.engine();
    let value = engine.annotation_bytes().map(|bytes| {
        let trusts = trust_assignments(&deployment);
        let best = deployment.tuples_everywhere_shared("bestPathCost");
        let derivable = |t: &Tuple| -> Vec<bool> {
            let answers = trusts.iter().map(|f| engine.derivable_under(t, f));
            answers.map(|a| a.expect("value mode")).collect()
        };
        (bytes, best.iter().map(|t| derivable(t)).collect())
    });
    Fingerprint {
        tuples,
        bytes_sent: s.bytes_sent.clone(),
        total_bytes: s.total_bytes(),
        avg_comm_mb: deployment.avg_comm_mb(),
        bandwidth: deployment.avg_bandwidth_mbps(),
        fixpoint_time: stats.fixpoint_time,
        value,
    }
}

fn assert_modes_deterministic(program: &Program, churn: bool) {
    let modes = [
        ProvenanceMode::None,
        ProvenanceMode::Reference,
        ProvenanceMode::ValueBdd,
    ];
    for mode in modes {
        let oracle = run(program, mode, 1, churn);
        for shards in [2, 4] {
            let sharded = run(program, mode, shards, churn);
            assert_eq!(
                oracle, sharded,
                "{mode:?} with {shards} shards diverged from the sequential oracle (churn={churn})"
            );
        }
    }
}

#[test]
fn mincost_all_modes_bit_identical_across_shard_counts() {
    assert_modes_deterministic(&programs::mincost(), false);
}

#[test]
fn mincost_with_link_failures_bit_identical_across_shard_counts() {
    assert_modes_deterministic(&programs::mincost(), true);
}

#[test]
fn path_vector_all_modes_bit_identical_across_shard_counts() {
    assert_modes_deterministic(&programs::path_vector(), false);
}

/// Expands a polynomial into its canonical monomial set — one sorted VID
/// list per derivation — which is insensitive to the order sub-results
/// happened to arrive in.
fn monomials(e: &ProvExpr) -> BTreeSet<Vec<Vid>> {
    match e {
        ProvExpr::Base(v) => BTreeSet::from([vec![*v]]),
        ProvExpr::Sum { terms, .. } => terms.iter().flat_map(monomials).collect(),
        ProvExpr::Product { factors, .. } => {
            let mut acc: BTreeSet<Vec<Vid>> = BTreeSet::from([Vec::new()]);
            for f in factors {
                let fm = monomials(f);
                acc = acc
                    .iter()
                    .flat_map(|m| {
                        fm.iter().map(move |fm1| {
                            let mut combined = m.clone();
                            combined.extend(fm1.iter().copied());
                            combined.sort();
                            combined
                        })
                    })
                    .collect();
            }
            acc
        }
    }
}

#[test]
fn cached_answers_after_link_deletion_identical_across_shard_counts() {
    // Warm a caching session, fail a ring link, re-converge, ask again: the
    // second round is answered partly from surviving cache entries and
    // partly by recomputing invalidated ones, and its derivations must not
    // depend on the shard count.
    let round = |shards: usize| {
        let mut deployment = deploy(&programs::mincost(), ProvenanceMode::Reference, shards);
        deployment.run_to_fixpoint();
        let targets: Vec<Tuple> = deployment
            .tuples_everywhere_shared("bestPathCost")
            .iter()
            .filter(|t| t.location < 6)
            .map(|t| (**t).clone())
            .collect();
        assert!(!targets.is_empty(), "protocol produced no bestPathCost");
        let ask = |deployment: &mut Deployment| {
            let handles: Vec<_> = targets
                .iter()
                .map(|t| {
                    deployment
                        .query(t)
                        .repr(Repr::Polynomial)
                        .cached(true)
                        .submit()
                })
                .collect();
            deployment.run_to_fixpoint();
            handles
        };
        ask(&mut deployment);
        deployment.remove_link(2, 3);
        deployment.run_to_fixpoint();
        let handles = ask(&mut deployment);
        assert!(
            deployment.session(handles[0]).stats().invalidations > 0,
            "the deleted link must touch cached entries"
        );
        handles
            .iter()
            .map(|h| {
                let outcome = deployment.outcome(*h).expect("own handle");
                outcome
                    .annotation
                    .as_ref()
                    .and_then(|a| a.as_expr())
                    .map(monomials)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(round(1), round(4));
}

#[test]
fn a_run_whose_queries_end_before_its_churn_is_identical_across_shard_counts() {
    // Every query completes early in the run and the churn goes on after
    // it: the run steps while a query is in flight, and at several shards
    // finishes in barrier windows once none is.
    let run = |shards: usize| {
        let mut deployment = deploy(&programs::mincost(), ProvenanceMode::Reference, shards);
        deployment.run_to_fixpoint();
        let start = deployment.now();
        let targets: Vec<Tuple> = deployment
            .tuples_everywhere_shared("bestPathCost")
            .iter()
            .filter(|t| t.location < 4)
            .map(|t| (**t).clone())
            .collect();
        let handles: Vec<_> = targets
            .iter()
            .map(|t| {
                let query = deployment.query(t).issuer(t.location + 5);
                query.cached(true).at(start + 0.001).submit()
            })
            .collect();
        let churn_at = start + 1.0;
        for (i, (a, b)) in [(0u32, 1u32), (8, 9), (16, 17)].into_iter().enumerate() {
            let props = *deployment.topology().link(a, b).expect("ring link");
            let at = churn_at + i as f64;
            let event = ChurnEvent {
                time: at,
                add: false,
                a,
                b,
                props,
            };
            deployment.schedule_churn_event(&event, at);
        }
        let steps = deployment.run_until(churn_at + 10.0).steps;
        let outcomes: Vec<_> = handles
            .iter()
            .map(|h| {
                let outcome = deployment.outcome(*h).expect("own handle");
                let done = outcome.completed_at.expect("completed");
                assert!(done < churn_at, "completed at {done}, churn at {churn_at}");
                (outcome.annotation.clone(), done)
            })
            .collect();
        let digest = deployment.state_digest();
        (digest, deployment.total_bytes(), outcomes, steps)
    };
    let oracle = run(1);
    assert!(!oracle.2.is_empty());
    assert_eq!(oracle, run(2), "2 shards");
    assert_eq!(oracle, run(4), "4 shards");
}

#[test]
fn interning_order_does_not_change_canonical_state_or_traffic() {
    // The interned hot path orders symbols by *content*, so pre-populating
    // the global interner with the protocol's vocabulary in scrambled order
    // (and with a pile of unrelated symbols in between) must not move a
    // single tuple in canonical scan order, a single byte in the traffic
    // counters, or a single sample in the bandwidth series.
    let program = programs::path_vector();
    let oracle = run(&program, ProvenanceMode::ValueBdd, 1, true);
    let mut vocabulary: Vec<String> = ["bestPath", "path", "link", "prov", "ruleExec"]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    vocabulary.extend((0..64).map(|i| format!("zz_unrelated_{i}")));
    vocabulary.sort();
    for name in vocabulary.iter().rev() {
        exspan_types::Symbol::intern(name);
    }
    let replay = run(&program, ProvenanceMode::ValueBdd, 1, true);
    assert_eq!(
        oracle, replay,
        "scrambled interning order changed observable state"
    );
}
