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
use exspan_types::{Digest, NodeId, Rid, Tuple, Value, Vid};

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
        if tuple.relation != "prov" || tuple.values.len() != 3 {
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

    /// Renders this entry as a `prov` tuple.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(
            "prov",
            self.loc,
            vec![
                Value::from_digest(self.vid),
                Value::from_digest(self.rid.unwrap_or(Digest::ZERO)),
                Value::Node(self.rloc),
            ],
        )
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
    /// Rule label (e.g. `"sp2"`).
    pub rule: String,
    /// Vertex identifiers of the input tuples, in body order.
    pub vids: Vec<Vid>,
}

impl RuleExecEntry {
    /// Parses a `ruleExec` tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<RuleExecEntry> {
        if tuple.relation != "ruleExec" || tuple.values.len() != 3 {
            return None;
        }
        let rid = tuple.values[0].as_digest().ok()?;
        let rule = tuple.values[1].as_str().ok()?.to_string();
        let vids = tuple.values[2]
            .as_list()
            .ok()?
            .iter()
            .map(exspan_types::Value::as_digest)
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        Some(RuleExecEntry {
            rloc: tuple.location,
            rid,
            rule,
            vids,
        })
    }

    /// Renders this entry as a `ruleExec` tuple.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(
            "ruleExec",
            self.rloc,
            vec![
                Value::from_digest(self.rid),
                Value::from(self.rule.clone()),
                Value::list(self.vids.iter().map(|v| Value::Digest(v.0)).collect()),
            ],
        )
    }
}

/// Returns all `prov` entries for `vid` stored at `node`.
///
/// `prov` is whole-tuple-keyed, so these are the key range `[node, vid, ..]`
/// of the node's table and only those rows are read and parsed, in the order
/// the query layer's results depend on: ascending `(RID, RLoc)`, i.e. the
/// table sorted by content, then filtered — alternative derivations are
/// combined, and DFS / moonwalk pick among them, in exactly this sequence.
pub fn prov_entries(engine: &Engine, node: NodeId, vid: Vid) -> Vec<ProvEntry> {
    let key = [Value::Node(node), Value::from_digest(vid)];
    let rows = engine.tuples_with_prefix(node, "prov", &key);
    rows.iter()
        .filter_map(|t| ProvEntry::from_tuple(t))
        .collect()
}

/// Returns the `ruleExec` entry for `rid` stored at `node`, if any: the
/// first row of the key range `[node, rid, ..]`.
pub fn rule_exec_entry(engine: &Engine, node: NodeId, rid: Rid) -> Option<RuleExecEntry> {
    let key = [Value::Node(node), Value::from_digest(rid)];
    let rows = engine.tuples_with_prefix(node, "ruleExec", &key);
    rows.iter().find_map(|t| RuleExecEntry::from_tuple(t))
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

    #[test]
    fn prov_entry_round_trips_and_detects_base() {
        let t = Tuple::new("link", 1, vec![Value::Node(2), Value::Int(3)]);
        let base = ProvEntry {
            loc: 1,
            vid: t.vid(),
            rid: None,
            rloc: 1,
        };
        let parsed = ProvEntry::from_tuple(&base.to_tuple()).unwrap();
        assert_eq!(parsed, base);
        assert!(parsed.is_base());

        let derived = ProvEntry {
            loc: 0,
            vid: t.vid(),
            rid: Some(exspan_types::tuple::rule_exec_id("sp1", 1, &[t.vid()])),
            rloc: 1,
        };
        let parsed = ProvEntry::from_tuple(&derived.to_tuple()).unwrap();
        assert_eq!(parsed, derived);
        assert!(!parsed.is_base());
    }

    #[test]
    fn rule_exec_entry_round_trips() {
        let vids = vec![
            Tuple::new("link", 1, vec![Value::Node(2), Value::Int(3)]).vid(),
            Tuple::new("bestPathCost", 1, vec![Value::Node(2), Value::Int(3)]).vid(),
        ];
        let e = RuleExecEntry {
            rloc: 1,
            rid: exspan_types::tuple::rule_exec_id("sp2", 1, &vids),
            rule: "sp2".into(),
            vids,
        };
        assert_eq!(RuleExecEntry::from_tuple(&e.to_tuple()).unwrap(), e);
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
