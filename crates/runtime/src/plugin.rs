//! Engine extension hooks.
//!
//! The engine itself knows nothing about provenance.  *Value-based*
//! provenance (paper §3, "Distribution") — where every transmitted tuple
//! carries its entire derivation history — is implemented by the provenance
//! layer as an [`AnnotationPolicy`] plugged into the engine: the policy
//! observes every rule firing and decides how many extra bytes to attach to
//! each transmitted tuple.  Centralized provenance can similarly be modelled
//! by charging upload traffic from the policy.
//!
//! Annotations travel *with* the deltas, mirroring the paper's value-based
//! distribution model: [`AnnotationPolicy::on_derivation`] returns an opaque
//! [`AnnotationToken`] that the engine ships inside the delta message, and
//! [`AnnotationPolicy::on_arrival`] merges it into the policy's state for the
//! *receiving* node when the delta is applied there.  Annotation state is
//! kept per `(node, tuple)` because a delta is charged on the wire the
//! history held *at the sending node* when it fires — what the figures'
//! value-mode bytes measure.  Every hook hands the policy the engine's shared
//! `Arc<Tuple>` (the delta's, or the table row's), so that state can be keyed
//! by the tuple itself: no hook computes a VID.  One policy must see every
//! arrival, derivation and remote send, so an engine built with a policy
//! ([`Engine::with_parts`]) runs one shard, which owns it.  The hooks take
//! only what their one implementor, `exspan_core`'s value-based policy,
//! reads.

use crate::engine::Engine;
use exspan_types::{NodeId, Tuple};
use std::sync::Arc;

/// Receives event tuples the engine has no rules for during a driven run.
///
/// This is the hook through which higher protocol layers — the distributed
/// provenance *query* protocol of `exspan-core` — participate in the
/// engine's single simulated clock: [`Engine::run_until`] calls
/// the sink for every external tuple *in deterministic event order*, with the
/// engine handed back mutably so the sink can reply (send tuples, schedule
/// deltas) at the exact simulated time the event occurred.  Protocol
/// maintenance deltas, churn deltas and query messages therefore interleave
/// on one event queue instead of the query layer monopolizing the engine.
pub trait ExternalSink {
    /// Called for every surfaced external tuple.  `time` is the simulated
    /// arrival time; `insert` is the delta's polarity.  The tuple is shared
    /// with the delta that carried it (clone the `Arc` to retain it).
    fn on_external(
        &mut self,
        engine: &mut Engine,
        node: NodeId,
        tuple: Arc<Tuple>,
        time: f64,
        insert: bool,
    );
}

/// Opaque handle to an annotation shipped inside a delta message.  The
/// meaning of the token is private to the policy that produced it (the
/// value-based policy uses BDD node handles).
pub type AnnotationToken = u64;

/// Observes derivations and charges per-message annotation bytes.
pub trait AnnotationPolicy {
    /// Downcasting support: reads the concrete policy back out of
    /// [`Engine::policy`].
    fn as_any(&self) -> &dyn std::any::Any;

    /// Called when a base tuple is inserted (`insert = true`) or deleted at
    /// `node` by the experiment driver.
    fn on_base(&mut self, node: NodeId, tuple: &Arc<Tuple>, insert: bool);

    /// Called on every rule firing at `node` with the grounded `inputs` (the
    /// engine's shared table rows), for insertion and deletion deltas alike.
    ///
    /// The returned token is attached to the emitted delta and handed back to
    /// the policy at [`AnnotationPolicy::annotation_bytes`] (if the delta
    /// leaves the node) and [`AnnotationPolicy::on_arrival`] (when it is
    /// applied at its destination).
    fn on_derivation(&mut self, node: NodeId, inputs: &[Arc<Tuple>]) -> Option<AnnotationToken>;

    /// Returns the number of extra annotation bytes a transmitted delta
    /// carrying `token` costs.
    fn annotation_bytes(&mut self, token: Option<AnnotationToken>) -> usize;

    /// Returns the annotation bytes for the same transmission under the
    /// *compressed* accounting model ([`exspan_types::compress`]).  Only
    /// consulted when the engine runs with
    /// [`crate::engine::EngineConfig::track_compressed`] enabled, and always
    /// *after* [`AnnotationPolicy::annotation_bytes`] for the same delta.
    fn annotation_bytes_compressed(&mut self, token: Option<AnnotationToken>) -> usize;

    /// Called when a delta for `tuple` is applied at `node`.  For insertions
    /// `token` is the annotation shipped with the delta (if any).  For
    /// deletions `removed` reports whether the tuple actually left the
    /// node's visible state (its last derivation disappeared), so policies
    /// can keep annotations of tuples that remain visible through other
    /// derivations.
    fn on_arrival(
        &mut self,
        node: NodeId,
        tuple: &Arc<Tuple>,
        token: Option<AnnotationToken>,
        insert: bool,
        removed: bool,
    );
}
