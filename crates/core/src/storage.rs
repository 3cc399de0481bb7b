//! Typed access to the distributed provenance storage model (§4.1).
//!
//! The provenance graph is stored in two relations partitioned across all
//! nodes:
//!
//! * `prov(@Loc, VID, RID, RLoc)` — the tuple vertex `VID` stored at `Loc` is
//!   directly derivable from the rule execution `RID` residing at `RLoc`.
//!   Base tuples carry the all-zero ("null") RID.
//! * `ruleExec(@RLoc, RID, R, VIDList)` — rule `R` executed at `RLoc` with
//!   the input tuple vertices listed in `VIDList`.
//!
//! These relations are ordinary engine tables (they are maintained by the
//! rewritten NDlog rules); this module merely parses their tuples into typed
//! entries for the query layer and re-creates the paper's Tables 1 and 2.

use exspan_runtime::Engine;
use exspan_types::{Digest, NodeId, RelId, Rid, Symbol, Tuple, Value, Vid};
use std::sync::OnceLock;

/// A typed `prov` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvEntry {
    /// Node storing the tuple vertex.
    pub loc: NodeId,
    /// Tuple vertex identifier.
    pub vid: Vid,
    /// Rule execution that derived it, or `None` for base (EDB) tuples.
    pub rid: Option<Rid>,
    /// Node at which that rule execution resides.
    pub rloc: NodeId,
}

impl ProvEntry {
    /// Parses a `prov` tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<ProvEntry> {
        if tuple.relation != relations().0 || tuple.values.len() != 3 {
            return None;
        }
        let vid = tuple.values[0].as_digest().ok()?;
        let rid = tuple.values[1].as_digest().ok()?;
        let rloc = tuple.values[2].as_node().ok()?;
        Some(ProvEntry {
            loc: tuple.location,
            vid,
            rid: if rid == Digest::ZERO { None } else { Some(rid) },
            rloc,
        })
    }

    /// Whether this entry marks a base (EDB) tuple.
    pub fn is_base(&self) -> bool {
        self.rid.is_none()
    }
}

/// A typed `ruleExec` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleExecEntry {
    /// Node at which the rule executed.
    pub rloc: NodeId,
    /// Rule execution identifier.
    pub rid: Rid,
    /// Rule label (e.g. `"sp2"`), the row's own interned string.
    pub rule: Symbol,
    /// Vertex identifiers of the input tuples, in body order.
    pub vids: Vec<Vid>,
}

impl RuleExecEntry {
    /// Parses a `ruleExec` tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<RuleExecEntry> {
        let (rid, rule, vids) = rule_exec_fields(tuple)?;
        Some(RuleExecEntry {
            rloc: tuple.location,
            rid,
            rule,
            vids: vids.collect(),
        })
    }
}

/// A `ruleExec` tuple's RID, rule label and input VIDs, read in place.
fn rule_exec_fields(tuple: &Tuple) -> Option<(Rid, Symbol, impl Iterator<Item = Vid> + '_)> {
    if tuple.relation != relations().1 || tuple.values.len() != 3 {
        return None;
    }
    let rid = tuple.values[0].as_digest().ok()?;
    let rule = tuple.values[1].as_symbol().ok()?;
    let inputs = tuple.values[2].as_list().ok()?;
    inputs.iter().all(|v| v.as_digest().is_ok()).then_some(())?;
    Some((rid, rule, inputs.iter().filter_map(|v| v.as_digest().ok())))
}

/// `prov` and `ruleExec`, interned once: a read takes no interner lock.
fn relations() -> (RelId, RelId) {
    static RELATIONS: OnceLock<(RelId, RelId)> = OnceLock::new();
    *RELATIONS.get_or_init(|| (RelId::intern("prov"), RelId::intern("ruleExec")))
}

/// The leading columns `[loc, id]` of the `prov` rows of tuple vertex `id`,
/// or of the `ruleExec` row of rule execution `id`, at `node`.
pub(crate) fn vertex_key(node: NodeId, id: Digest) -> [Value; 2] {
    [Value::Node(node), Value::from_digest(id)]
}

/// The `prov` entries of the tuple vertex `key` names at `node`, read in
/// place through the join's probe on columns `[0, 1]`.  `prov` is
/// whole-tuple-keyed, so that is one key range of the node's table, in the
/// order the query layer's results depend on: ascending `(RID, RLoc)`, i.e.
/// the table sorted by content, then filtered — alternative derivations are
/// combined, and DFS / moonwalk pick among them, in exactly this sequence.
pub(crate) fn prov_rows<'a>(
    engine: &'a Engine,
    node: NodeId,
    key: &'a [Value; 2],
) -> impl Iterator<Item = ProvEntry> + 'a {
    let rows = engine.probe(node, relations().0, &[0, 1], key);
    rows.into_iter()
        .flatten()
        .filter_map(|(t, _)| ProvEntry::from_tuple(t))
}

/// The rule label and input VIDs of the `ruleExec` row `key` names at
/// `node`, read in place: the first row of its key range.
pub(crate) fn rule_exec_row<'a>(
    engine: &'a Engine,
    node: NodeId,
    key: &'a [Value; 2],
) -> Option<(Symbol, impl Iterator<Item = Vid> + 'a)> {
    let mut rows = engine.probe(node, relations().1, &[0, 1], key)?;
    let (_, rule, vids) = rows.find_map(|(t, _)| rule_exec_fields(t))?;
    Some((rule, vids))
}

/// Returns all `prov` entries for `vid` stored at `node`, in ascending
/// `(RID, RLoc)` order: the order a query combines them in.
pub fn prov_entries(engine: &Engine, node: NodeId, vid: Vid) -> Vec<ProvEntry> {
    prov_rows(engine, node, &vertex_key(node, vid)).collect()
}

/// Returns the `ruleExec` entry for `rid` stored at `node`, if any.
pub fn rule_exec_entry(engine: &Engine, node: NodeId, rid: Rid) -> Option<RuleExecEntry> {
    let key = vertex_key(node, rid);
    let mut rows = engine.probe(node, relations().1, &[0, 1], &key)?;
    rows.find_map(|(t, _)| RuleExecEntry::from_tuple(t))
}

/// Returns every `prov` entry stored anywhere in the network (used by tests
/// and the paper-example reproduction of Table 1).
pub fn all_prov_entries(engine: &Engine) -> Vec<ProvEntry> {
    engine
        .tuples_everywhere_shared("prov")
        .iter()
        .filter_map(|t| ProvEntry::from_tuple(t))
        .collect()
}

/// Returns every `ruleExec` entry stored anywhere in the network (Table 2).
pub fn all_rule_exec_entries(engine: &Engine) -> Vec<RuleExecEntry> {
    engine
        .tuples_everywhere_shared("ruleExec")
        .iter()
        .filter_map(|t| RuleExecEntry::from_tuple(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `prov` and `ruleExec` row a MINCOST deployment on Figure 3's
    /// network wrote parses to an entry with the row's fields: one base entry
    /// per link, and a derived entry names a `ruleExec` row at its `RLoc`
    /// whose RID is the digest of its rule, location and inputs.
    #[test]
    fn rows_a_deployment_wrote_parse() {
        let mut d = crate::Exspan::builder()
            .program(exspan_ndlog::programs::mincost())
            .topology(exspan_netsim::Topology::paper_example())
            .build()
            .expect("valid deployment");
        d.run_to_fixpoint();
        let engine = d.engine();
        let rows = engine.tuples_everywhere_shared("prov");
        let prov = all_prov_entries(engine);
        assert_eq!(prov.len(), rows.len());
        for (row, e) in rows.iter().zip(&prov) {
            let rid = Value::from_digest(e.rid.unwrap_or(Digest::ZERO));
            let fields = vec![Value::from_digest(e.vid), rid, Value::Node(e.rloc)];
            assert_eq!((row.location, &row.values), (e.loc, &fields));
            if let Some(rid) = e.rid {
                assert!(rule_exec_entry(engine, e.rloc, rid).is_some(), "{e:?}");
            }
        }
        let links = engine.tuples_everywhere_shared("link").len();
        assert_eq!(prov.iter().filter(|e| e.is_base()).count(), links);

        let rows = engine.tuples_everywhere_shared("ruleExec");
        let execs = all_rule_exec_entries(engine);
        assert_eq!(execs.len(), rows.len());
        for (row, exec) in rows.iter().zip(&execs) {
            assert_eq!(row.location, exec.rloc);
            let rid = exspan_types::tuple::rule_exec_id(exec.rule.as_str(), exec.rloc, &exec.vids);
            assert_eq!(exec.rid, rid, "{exec:?}");
        }
        assert!(execs.iter().any(|e| e.rule == "sp2" && e.vids.len() == 2));
    }

    #[test]
    fn malformed_tuples_are_rejected() {
        let bad = Tuple::new("prov", 0, vec![Value::Int(1)]);
        assert!(ProvEntry::from_tuple(&bad).is_none());
        let wrong_rel = Tuple::new(
            "other",
            0,
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        assert!(ProvEntry::from_tuple(&wrong_rel).is_none());
        let bad_exec = Tuple::new("ruleExec", 0, vec![Value::Int(1)]);
        assert!(RuleExecEntry::from_tuple(&bad_exec).is_none());
    }
}
