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
//! This policy owns the BDD store the annotations are handles into, with no
//! lock: an [`exspan_bdd::KeyedBddStore`] keyed by tuple, the shape a
//! condensed query session owns too.  The engine numbers each base tuple's
//! variable where the tuple first enters it — scheduled
//! ([`crate::Engine::schedule_delta`]) or sent by a higher layer
//! ([`crate::Engine::send_tuple`]) — taking its VID then, once, for the
//! trust callbacks of [`ValueBddPolicy::derivable_under`].  It sees
//! every base change and rule firing in event order, so an engine built with
//! one ([`crate::Engine::with_parts`]) runs one shard, which owns it.
//!
//! Because the annotation is carried with the data, queries in value-based
//! mode are answered locally ([`crate::Engine::derivable_under`]) without
//! any distributed traversal — the trade-off the paper explores: high
//! maintenance bandwidth, zero query latency.

use exspan_bdd::{Bdd, BddStore, KeyedBddStore};
use exspan_types::{Tuple, Vid};
use std::sync::Arc;

/// The value-based (BDD) provenance an engine maintains in value mode.
#[derive(Debug, Default)]
pub struct ValueBddPolicy {
    /// The store, and the variable of each base tuple in first-seen order.
    bdds: KeyedBddStore<Arc<Tuple>>,
    /// Bytes of annotation attached to messages so far.
    annotation_bytes_total: u64,
}

impl ValueBddPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The variable of base tuple `tuple`, numbered on first sight.
    pub(crate) fn var_for(&mut self, tuple: &Arc<Tuple>) -> Bdd {
        self.bdds.var(Arc::clone(tuple), |t| t.vid())
    }

    /// Derivability test under a trust assignment over base tuples: does
    /// `annotation` hold using only trusted base tuples?
    pub fn derivable_under<F: Fn(Vid) -> bool>(&self, annotation: Bdd, trusted: F) -> bool {
        self.bdds.derivable_under(annotation, trusted)
    }

    /// Total annotation bytes attached to transmitted tuples so far.
    pub fn total_annotation_bytes(&self) -> u64 {
        self.annotation_bytes_total
    }

    /// The BDD store the annotations live in (for inspection).
    pub fn manager(&self) -> &BddStore {
        self.bdds.store()
    }

    /// The history one rule firing ships with its delta: the AND of its
    /// grounded inputs' annotations, in body order, for insertion and
    /// deletion deltas alike.  Rule bodies are localized, so every input
    /// lives at the firing node; a value-based retraction must identify
    /// *which* derivation disappears, so it carries (and is charged for)
    /// that derivation's history just like the insertion that established
    /// it.
    pub(crate) fn conjoin(&mut self, inputs: &[Bdd]) -> Bdd {
        let store = self.bdds.store_mut();
        inputs.iter().fold(Bdd::TRUE, |conj, &b| store.and(conj, b))
    }

    /// Merges an alternative derivation's history into a row's.
    pub(crate) fn or(&mut self, row: Bdd, shipped: Bdd) -> Bdd {
        self.bdds.store_mut().or(row, shipped)
    }

    /// Charges the annotation bytes of a transmitted delta carrying `token`.
    pub(crate) fn annotation_bytes(&mut self, token: Option<Bdd>) -> usize {
        let bytes = token.map_or(0, |t| self.bdds.store_mut().serialized_size(t));
        self.annotation_bytes_total += bytes as u64;
        bytes
    }
}
