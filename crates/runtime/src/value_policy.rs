//! Value-based distributed provenance (§3, §4.1.2), maintained by the
//! engine.
//!
//! Every transmitted tuple carries its *entire* derivation history,
//! condensed into a BDD over base tuples ("Value-based Prov. (BDD)" in
//! Figures 6–10 and 16): a rule firing conjoins its grounded inputs'
//! annotations and ships the BDD *with the delta* (`Payload::token`), and
//! where the delta lands the history is disjoined into the annotation of the
//! tuple's table row (see [`crate::table`]).  An event is stored nowhere and
//! keeps no annotation: the history it arrived with serves only the firing
//! it triggers.
//!
//! Each shard of a value-mode engine owns one [`ValueBddPolicy`]: the BDD
//! store its rows' annotations and its queued deltas' histories are handles
//! into, with no lock, and the annotation bytes its sends were charged.  The
//! engine owns the one numbering of base tuples as variables
//! ([`exspan_bdd::Variables`]).  It numbers a base tuple where the tuple
//! enters it — scheduled ([`crate::Engine::schedule_delta`]) or sent by a
//! higher layer ([`crate::Engine::send_tuple`]), always outside an event
//! loop, so the numbering does not depend on the shard count — and makes
//! the variable's node in the store of the shard the tuple enters.  A delta
//! that leaves its shard ships its history in the canonical encoding
//! ([`exspan_bdd::BddStore::encode`]), and the destination shard rebuilds it
//! in its own store as it takes the delta in.  The variable ids travel as
//! they are, so the rebuilt history has the structure — and the
//! [`exspan_bdd::BddStore::serialized_size`] — of the shipped one.
//!
//! Because the annotation is carried with the data, queries in value-based
//! mode are answered locally ([`crate::Engine::derivable_under`], at the
//! shard owning the tuple) without any distributed traversal — the
//! trade-off the paper explores: high maintenance bandwidth, zero query
//! latency.

use exspan_bdd::{Bdd, BddStore};

/// One shard's value-based (BDD) provenance in value mode.
#[derive(Debug, Default)]
pub struct ValueBddPolicy {
    /// The store this shard's annotations and histories live in.
    pub(crate) store: BddStore,
    /// Bytes of annotation attached to this shard's messages so far.
    annotation_bytes_total: u64,
}

impl ValueBddPolicy {
    /// Total annotation bytes attached to the tuples this shard transmitted
    /// so far ([`crate::Engine::annotation_bytes`] sums the shards).
    pub fn total_annotation_bytes(&self) -> u64 {
        self.annotation_bytes_total
    }

    /// The BDD store the annotations live in (for inspection).
    pub fn manager(&self) -> &BddStore {
        &self.store
    }

    /// The history one rule firing ships with its delta: the AND of its
    /// grounded inputs' annotations, in body order, for insertion and
    /// deletion deltas alike.  Rule bodies are localized, so every input
    /// lives at the firing node; a value-based retraction must identify
    /// *which* derivation disappears, so it carries (and is charged for)
    /// that derivation's history just like the insertion that established
    /// it.
    pub(crate) fn conjoin(&mut self, inputs: &[Bdd]) -> Bdd {
        self.store.and_all(inputs.iter().copied())
    }

    /// Merges an alternative derivation's history into a row's.
    pub(crate) fn or(&mut self, row: Bdd, shipped: Bdd) -> Bdd {
        self.store.or(row, shipped)
    }

    /// Charges the annotation bytes of a transmitted delta carrying `token`.
    pub(crate) fn annotation_bytes(&mut self, token: Option<Bdd>) -> usize {
        let bytes = token.map_or(0, |t| self.store.serialized_size(t));
        self.annotation_bytes_total += bytes as u64;
        bytes
    }
}
