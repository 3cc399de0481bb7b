//! Value-based distributed provenance (§3, §4.1.2), maintained by the
//! engine.
//!
//! In value-based provenance every transmitted tuple carries its *entire*
//! derivation history.  Following the evaluation section, the history is
//! condensed into a BDD over base tuples ("Value-based Prov. (BDD)" in
//! Figures 6–10 and 16): on every rule firing the shard conjoins the
//! annotations of the grounded inputs (all local to the firing node) and
//! ships the resulting BDD *with the delta* (`Payload::token`); when the
//! delta is applied at its destination the shipped history is disjoined into
//! the annotation stored for the tuple *at that node*.
//!
//! Keeping annotations per `(node, tuple)` mirrors the paper's distribution
//! model (each node knows the provenance of the tuples it stores) and is what
//! the figures' value-mode bytes depend on: a delta leaving a node is charged
//! the history stored *at that node* when the rule fires.  One policy sees
//! every base change, rule firing, remote send and arrival in event order, so
//! an engine built with one ([`crate::Engine::with_parts`]) runs one shard,
//! which owns it.  The BDD manager hash-conses, so the serialized size of a
//! function does not depend on the order operations reached it.
//!
//! Annotations and variables are keyed by the engine's shared `Arc<Tuple>`
//! (compared by content, Fx-hashed), so no §4.1 VID is computed on the
//! maintenance path: a variable's VID is taken once, when it is created, for
//! the trust callbacks of [`ValueBddPolicy::derivable_under`].  Variables are
//! numbered in first-seen order, as when they were keyed by VID.
//!
//! Because the annotation is carried with the data, queries in value-based
//! mode are answered locally ([`ValueBddPolicy::annotation_of`]) without any
//! distributed traversal — the trade-off the paper explores: high maintenance
//! bandwidth, zero query latency.

use exspan_bdd::{Bdd, BddManager};
use exspan_types::fxhash::FxHashMap;
use exspan_types::{NodeId, Tuple, Vid};
use std::sync::Arc;

/// The provenance stored at one node, by tuple.
type Annotations = FxHashMap<Arc<Tuple>, Bdd>;

/// The annotations stored at `node`, grown on first use (the policy is built
/// before it sees the topology).
fn stored_at(annotations: &mut Vec<Annotations>, node: NodeId) -> &mut Annotations {
    let i = node as usize;
    if annotations.len() <= i {
        annotations.resize_with(i + 1, Annotations::default);
    }
    &mut annotations[i]
}

/// The value-based (BDD) provenance an engine maintains in value mode.
#[derive(Debug, Default)]
pub struct ValueBddPolicy {
    manager: BddManager,
    /// Boolean variable assigned to each base tuple, in first-seen order.
    vars: FxHashMap<Arc<Tuple>, u32>,
    /// Each variable's VID, indexed by variable.
    var_vids: Vec<Vid>,
    /// Provenance stored for each tuple, by the node storing it.
    annotations: Vec<Annotations>,
    /// Bytes of annotation attached to messages so far.
    annotation_bytes_total: u64,
}

impl ValueBddPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn var_for(&mut self, tuple: &Arc<Tuple>) -> Bdd {
        let (next, vids) = (self.var_vids.len() as u32, &mut self.var_vids);
        let id = *self.vars.entry(Arc::clone(tuple)).or_insert_with(|| {
            vids.push(tuple.vid());
            next
        });
        self.manager.var(id)
    }

    /// The provenance BDD stored for a tuple at its own location, if any.
    pub fn annotation_of(&self, tuple: &Tuple) -> Option<Bdd> {
        let stored = self.annotations.get(tuple.location as usize)?;
        stored.get(tuple).copied()
    }

    /// Derivability test under a trust assignment over base tuples: is the
    /// tuple derivable using only trusted base tuples?
    pub fn derivable_under<F: Fn(Vid) -> bool>(&self, tuple: &Tuple, trusted: F) -> bool {
        let Some(b) = self.annotation_of(tuple) else {
            return false;
        };
        let vid = |v: u32| self.var_vids.get(v as usize).copied();
        self.manager.evaluate(b, |v| vid(v).is_some_and(&trusted))
    }

    /// Total annotation bytes attached to transmitted tuples so far.
    pub fn total_annotation_bytes(&self) -> u64 {
        self.annotation_bytes_total
    }

    /// The BDD manager (for inspection).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Records a base tuple inserted (`insert = true`) or deleted at `node`
    /// through [`crate::Engine::schedule_delta`].
    pub(crate) fn on_base(&mut self, node: NodeId, tuple: &Arc<Tuple>, insert: bool) {
        if insert {
            let var = self.var_for(tuple);
            stored_at(&mut self.annotations, node).insert(Arc::clone(tuple), var);
        } else {
            stored_at(&mut self.annotations, node).remove(&**tuple);
        }
    }

    /// The history one rule firing at `node` ships with its delta, from the
    /// grounded `inputs` (the engine's shared table rows), for insertion and
    /// deletion deltas alike.
    pub(crate) fn on_derivation(&mut self, node: NodeId, inputs: &[Arc<Tuple>]) -> Bdd {
        // AND over the inputs' locally stored provenance.  Rule bodies are
        // localized, so every input lives at the firing node.  Deletion
        // deltas ship the same conjunction: a value-based retraction must
        // identify *which* derivation disappears, so it carries (and is
        // charged for) that derivation's history just like the insertion
        // that established it.
        let mut conj = Bdd::TRUE;
        for input in inputs {
            let b = match stored_at(&mut self.annotations, node).get(&**input) {
                Some(&b) => b,
                // Inputs we have never seen (never reported through
                // `on_base`) are treated as base variables.
                None => {
                    let var = self.var_for(input);
                    stored_at(&mut self.annotations, node).insert(Arc::clone(input), var);
                    var
                }
            };
            conj = self.manager.and(conj, b);
        }
        conj
    }

    /// Charges the annotation bytes of a transmitted delta carrying `token`.
    pub(crate) fn annotation_bytes(&mut self, token: Option<Bdd>) -> usize {
        let bytes = token.map_or(0, |t| self.manager.serialized_size(t));
        self.annotation_bytes_total += bytes as u64;
        bytes
    }

    /// Applies a delta for `tuple` at `node`.  For insertions `token` is the
    /// history shipped with the delta (if any).  For deletions `removed`
    /// reports whether the tuple left the node's visible state (its last
    /// derivation disappeared): a tuple still visible through other
    /// derivations keeps its annotation.
    pub(crate) fn on_arrival(
        &mut self,
        node: NodeId,
        tuple: &Arc<Tuple>,
        token: Option<Bdd>,
        insert: bool,
        removed: bool,
    ) {
        if insert {
            // OR the shipped derivation history into the annotation stored
            // for this tuple at this node (alternative derivations).
            if let Some(shipped) = token {
                let stored = stored_at(&mut self.annotations, node);
                match stored.get_mut(&**tuple) {
                    Some(existing) => *existing = self.manager.or(*existing, shipped),
                    None => {
                        stored.insert(Arc::clone(tuple), shipped);
                    }
                }
            }
        } else if removed {
            // Last derivation gone: the stale history must not keep
            // contributing bytes.  Tuples that stay visible through other
            // derivations keep their annotation.
            stored_at(&mut self.annotations, node).remove(&**tuple);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::Value;

    fn link(s: NodeId, d: NodeId, c: i64) -> Arc<Tuple> {
        Arc::new(Tuple::new("link", s, vec![Value::Node(d), Value::Int(c)]))
    }

    fn path_cost(s: NodeId, d: NodeId, c: i64) -> Arc<Tuple> {
        Arc::new(Tuple::new(
            "pathCost",
            s,
            vec![Value::Node(d), Value::Int(c)],
        ))
    }

    #[test]
    fn tracks_base_and_derived_provenance() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        let l2 = link(1, 0, 3);
        p.on_base(0, &l1, true);
        p.on_base(1, &l2, true);
        let pc = path_cost(0, 2, 5);
        let token = p.on_derivation(0, &[Arc::clone(&l1)]);
        p.on_arrival(0, &pc, Some(token), true, false);
        assert!(p.derivable_under(&pc, |v| v == l1.vid()));
        assert!(!p.derivable_under(&pc, |v| v == l2.vid()));
        assert_eq!(p.annotations.iter().map(Annotations::len).sum::<usize>(), 3);
    }

    #[test]
    fn alternative_derivations_are_ored_at_the_storage_node() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        let l2 = link(1, 0, 3);
        let bpc = Arc::new(Tuple::new(
            "bestPathCost",
            1,
            vec![Value::Node(2), Value::Int(2)],
        ));
        p.on_base(0, &l1, true);
        p.on_base(1, &l2, true);
        p.on_base(1, &bpc, true); // treat as base for the test
        let pc = path_cost(0, 2, 5);
        // One derivation computed at node 0, an alternative shipped from 1.
        let t1 = p.on_derivation(0, &[Arc::clone(&l1)]);
        p.on_arrival(0, &pc, Some(t1), true, false);
        let t2 = p.on_derivation(1, &[Arc::clone(&l2), Arc::clone(&bpc)]);
        p.on_arrival(0, &pc, Some(t2), true, false);
        // Either derivation suffices.
        assert!(p.derivable_under(&pc, |v| v == l1.vid()));
        assert!(p.derivable_under(&pc, |v| v == l2.vid() || v == bpc.vid()));
        assert!(!p.derivable_under(&pc, |v| v == l2.vid()));
    }

    #[test]
    fn unseen_inputs_become_base_variables() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        let pc = path_cost(0, 2, 5);
        // on_base was never called for l1.
        let token = p.on_derivation(0, &[Arc::clone(&l1)]);
        p.on_arrival(0, &pc, Some(token), true, false);
        assert!(p.derivable_under(&pc, |v| v == l1.vid()));
    }

    #[test]
    fn annotation_bytes_follow_the_shipped_token() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        p.on_base(0, &l1, true);
        let token = p.on_derivation(0, &[Arc::clone(&l1)]);
        let b1 = p.annotation_bytes(Some(token));
        assert!(b1 > 0);
        assert_eq!(p.total_annotation_bytes(), b1 as u64);
        // Deltas without a token carry no annotation.
        assert_eq!(p.annotation_bytes(None), 0);
        // Deleting the base tuple clears its annotation.
        p.on_base(0, &l1, false);
        assert!(p.annotation_of(&l1).is_none());
    }

    #[test]
    fn deletion_arrival_drops_only_when_removed() {
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        p.on_base(0, &l1, true);
        let pc = path_cost(0, 2, 5);
        let token = p.on_derivation(0, &[Arc::clone(&l1)]);
        p.on_arrival(0, &pc, Some(token), true, false);
        assert!(p.annotation_of(&pc).is_some());
        // A deletion that leaves other derivations keeps the annotation.
        p.on_arrival(0, &pc, None, false, false);
        assert!(p.annotation_of(&pc).is_some());
        // The final deletion drops it.
        p.on_arrival(0, &pc, None, false, true);
        assert!(p.annotation_of(&pc).is_none());
    }

    #[test]
    fn a_content_equal_tuple_in_another_allocation_finds_the_annotation() {
        // Keys compare by content: a pointer-keyed map would split one
        // tuple's history over duplicate inserts and keyed replacements.
        let mut p = ValueBddPolicy::new();
        let l1 = link(0, 2, 5);
        p.on_base(0, &l1, true);
        let pc = path_cost(0, 2, 5);
        let token = p.on_derivation(0, &[Arc::clone(&l1)]);
        p.on_arrival(0, &pc, Some(token), true, false);
        let pc_copy = path_cost(0, 2, 5);
        assert!(!Arc::ptr_eq(&pc, &pc_copy));
        assert_eq!(p.annotation_of(&pc_copy), Some(token));
        // An input in a fresh allocation conjoins the stored variable rather
        // than minting a new one.
        let again = p.on_derivation(0, &[link(0, 2, 5)]);
        assert_eq!(again, token);
        p.on_arrival(0, &pc_copy, None, false, true);
        assert!(p.annotation_of(&pc).is_none());
    }
}
