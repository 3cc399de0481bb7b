//! Incremental maintenance correctness: after arbitrary link insertions and
//! deletions, the incrementally maintained state (and its provenance) must
//! match a system recomputed from scratch on the final topology.

use exspan::core::storage::{all_prov_entries, all_rule_exec_entries, rule_exec_entry};
use exspan::core::{Deployment, ProvenanceMode};
use exspan::ndlog::programs;
use exspan::netsim::{LinkClass, LinkProps, Topology};
use exspan::setup;
use exspan::types::Tuple;
use std::sync::Arc;

fn run_fresh(topology: Topology, mode: ProvenanceMode) -> Deployment {
    setup::converged(programs::mincost(), topology, mode, 1)
}

fn best_path_costs(deployment: &Deployment) -> Vec<Arc<Tuple>> {
    deployment.tuples_everywhere_shared("bestPathCost")
}

#[test]
fn deletion_then_recompute_matches_scratch_run() {
    // Start from the paper example, delete the a-c link, and compare with a
    // fresh run on the 4-link topology.
    let mut incremental = run_fresh(Topology::paper_example(), ProvenanceMode::Reference);
    incremental.remove_link(0, 2);
    incremental.run_to_fixpoint();

    let mut final_topology = Topology::paper_example();
    final_topology.remove_link(0, 2);
    let scratch = run_fresh(final_topology, ProvenanceMode::Reference);

    assert_eq!(
        best_path_costs(&incremental),
        best_path_costs(&scratch),
        "incremental deletion must converge to the same routing state as recomputation"
    );
}

#[test]
fn insertion_then_recompute_matches_scratch_run() {
    // Start without the a-c link, add it, and compare with the full example.
    let mut initial = Topology::paper_example();
    initial.remove_link(0, 2);
    let mut incremental = run_fresh(initial, ProvenanceMode::Reference);
    incremental.add_link(
        0,
        2,
        LinkProps {
            cost: 5,
            ..LinkProps::from_class(LinkClass::Custom)
        },
    );
    incremental.run_to_fixpoint();

    let scratch = run_fresh(Topology::paper_example(), ProvenanceMode::Reference);
    assert_eq!(best_path_costs(&incremental), best_path_costs(&scratch));
}

#[test]
fn repeated_churn_on_testbed_converges_to_scratch_state() {
    let base = Topology::testbed_ring(12, 5);
    let mut incremental = run_fresh(base.clone(), ProvenanceMode::Reference);

    // Remove two ring links and add one chord, in several steps.
    let removals = [(0u32, 1u32), (6u32, 7u32)];
    let addition = (2u32, 9u32);

    let mut final_topology = base;
    for &(a, b) in &removals {
        incremental.remove_link(a, b);
        incremental.run_to_fixpoint();
        final_topology.remove_link(a, b);
    }
    if !final_topology.has_link(addition.0, addition.1) {
        let props = LinkProps::from_class(LinkClass::Testbed);
        incremental.add_link(addition.0, addition.1, props);
        incremental.run_to_fixpoint();
        final_topology.add_link(addition.0, addition.1, props);
    }

    let scratch = run_fresh(final_topology, ProvenanceMode::Reference);
    assert_eq!(
        best_path_costs(&incremental),
        best_path_costs(&scratch),
        "routing state diverged after churn"
    );
}

#[test]
fn provenance_graph_has_no_dangling_pointers_after_churn() {
    let mut system = run_fresh(Topology::paper_example(), ProvenanceMode::Reference);
    system.remove_link(1, 2); // b-c
    system.run_to_fixpoint();
    system.add_link(
        1,
        2,
        LinkProps {
            cost: 2,
            ..LinkProps::from_class(LinkClass::Custom)
        },
    );
    system.run_to_fixpoint();

    // Every derived prov entry must reference an existing ruleExec entry, and
    // every ruleExec child must itself have prov entries somewhere.
    let engine = system.engine();
    let prov = all_prov_entries(engine);
    let execs = all_rule_exec_entries(engine);
    assert!(!prov.is_empty());
    assert!(!execs.is_empty());
    for entry in prov.iter().filter(|e| !e.is_base()) {
        let exec = rule_exec_entry(engine, entry.rloc, entry.rid.unwrap());
        assert!(
            exec.is_some(),
            "prov entry {entry:?} references a missing ruleExec entry"
        );
    }
    for exec in &execs {
        for child in &exec.vids {
            assert!(
                prov.iter().any(|p| p.vid == *child),
                "ruleExec {exec:?} references child {child:?} with no prov entry"
            );
        }
    }
}

#[test]
fn value_mode_tracks_state_under_churn_too() {
    let mut system = run_fresh(Topology::paper_example(), ProvenanceMode::ValueBdd);
    let before = best_path_costs(&system);
    assert!(!before.is_empty());
    system.remove_link(0, 1);
    system.run_to_fixpoint();
    let scratch = {
        let mut t = Topology::paper_example();
        t.remove_link(0, 1);
        run_fresh(t, ProvenanceMode::ValueBdd)
    };
    assert_eq!(best_path_costs(&system), best_path_costs(&scratch));
    // The value policy still serves local derivability answers, through the
    // closure-scoped accessor (no MutexGuard escapes).
    let target = best_path_costs(&system).remove(0);
    assert_eq!(
        system.engine().derivable_under(&target, |_| true),
        Some(true)
    );
}
