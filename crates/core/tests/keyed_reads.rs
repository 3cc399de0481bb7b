//! The query layer reads `prov` and `ruleExec` by key range; the reader it
//! replaced — copy the node's table, sort it by content, parse every row,
//! keep the matches — lives on here as the oracle.  Equality includes order:
//! the order of a vertex's `prov` entries is the order annotations combine in.

use exspan_core::storage::{
    all_prov_entries, all_rule_exec_entries, prov_entries, rule_exec_entry,
};
use exspan_core::{Deployment, Exspan, ProvEntry, ProvenanceMode, RuleExecEntry};
use exspan_ndlog::programs;
use exspan_netsim::{LinkClass, LinkProps, Topology};
use exspan_runtime::Engine;
use exspan_types::{Digest, NodeId, Rid, Vid};

fn scanned_prov_entries(engine: &Engine, node: NodeId, vid: Vid) -> Vec<ProvEntry> {
    engine
        .tuples_shared(node, "prov")
        .iter()
        .filter_map(|t| ProvEntry::from_tuple(t))
        .filter(|e| e.vid == vid)
        .collect()
}

fn scanned_rule_exec_entry(engine: &Engine, node: NodeId, rid: Rid) -> Option<RuleExecEntry> {
    engine
        .tuples_shared(node, "ruleExec")
        .iter()
        .filter_map(|t| RuleExecEntry::from_tuple(t))
        .find(|e| e.rid == rid)
}

/// Checks every `prov` row and every `ruleExec` row in the network.
fn assert_keyed_reads_match_the_scan(d: &Deployment) {
    let engine = d.engine();
    let prov = all_prov_entries(engine);
    let execs = all_rule_exec_entries(engine);
    assert!(!prov.is_empty() && !execs.is_empty());
    let mut alternatives = 0;
    for e in &prov {
        let keyed = prov_entries(engine, e.loc, e.vid);
        assert!(keyed.contains(e));
        assert_eq!(keyed, scanned_prov_entries(engine, e.loc, e.vid));
        alternatives += usize::from(keyed.len() > 1);
    }
    assert!(alternatives > 0, "no vertex with alternative derivations");
    for e in &execs {
        let keyed = rule_exec_entry(engine, e.rloc, e.rid);
        assert_eq!(keyed.as_ref(), Some(e), "one ruleExec row per RID");
        assert_eq!(keyed, scanned_rule_exec_entry(engine, e.rloc, e.rid));
    }
    assert!(prov_entries(engine, 0, Digest::ZERO).is_empty());
    assert!(rule_exec_entry(engine, 0, Digest::ZERO).is_none());
}

#[test]
fn keyed_provenance_reads_equal_the_sorted_scan_through_churn() {
    for shards in [1, 4] {
        let mut d = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::testbed_ring(16, 7))
            .mode(ProvenanceMode::Reference)
            .shards(shards)
            .build()
            .expect("valid deployment");
        d.run_to_fixpoint();
        assert_keyed_reads_match_the_scan(&d);
        d.remove_link(0, 1);
        d.remove_link(8, 9);
        d.run_to_fixpoint();
        assert_keyed_reads_match_the_scan(&d);
        d.add_link(
            0,
            1,
            LinkProps {
                latency: 0.013,
                bandwidth: 80.0,
                cost: 2,
                class: LinkClass::Custom,
            },
        );
        d.remove_link(4, 5);
        d.run_to_fixpoint();
        assert_keyed_reads_match_the_scan(&d);
    }
}
