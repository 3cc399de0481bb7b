//! # exspan-bdd
//!
//! A small reduced ordered binary decision diagram (ROBDD) library.
//!
//! ExSPAN's *condensed provenance* optimization (paper §6.3) encodes the
//! algebraic (semiring) representation of a tuple's provenance as a boolean
//! expression over base-tuple variables and stores it as a BDD.  Because
//! ROBDDs are canonical, boolean absorption (`a·(a+b) = a`) happens
//! automatically, which both shrinks the representation and is precisely the
//! "absorption provenance" of Liu et al. used for derivability tests and
//! trust decisions.
//!
//! The implementation is a classic hash-consed apply-based ROBDD:
//!
//! * [`BddStore`] owns one node arena: a `Vec` of nodes indexed by dense
//!   `u32` handles (terminals 0 and 1), an open-addressed unique table of
//!   handles, a bounded apply memo and an epoch-stamped mark vector for the
//!   node walk, all flat vectors of integers.  Its owner applies without a
//!   lock.
//! * [`Variables`] numbers base tuples as variables, in first-seen order,
//!   with each variable's VID.  A value-mode engine owns one numbering (keyed
//!   by tuple) and a store per shard; each condensed (BDD) query session
//!   owns a numbering (keyed by VID) and a store, which live and die with
//!   its deployment.
//! * [`BddManager`] puts a store behind an `Arc<Mutex<_>>`, its clones
//!   handles onto it ([`SharedBddStore`] is the same type).  It is kept only
//!   for the end-to-end benchmark's BDD probe.
//! * [`Bdd`] is a `u32` handle, meaningful in the store that made it.  Equal
//!   handles of one store are equal functions; no size, count or
//!   evaluation reads a handle's value, so none depends on the order in
//!   which nodes were made.
//! * The connectives are [`BddStore::and`] and [`BddStore::or`]
//!   (provenance is monotone: nothing negates a history), plus variable
//!   creation, evaluation, [`BddStore::support`] and
//!   [`BddStore::sat_count`].
//! * [`BddStore::serialized_size`] estimates the number of bytes required
//!   to ship a BDD over the network, which is what the evaluation's
//!   bandwidth accounting uses for value-based (BDD) provenance and for the
//!   BDD query representation (Figures 6, 7, 15).  It runs once per remote
//!   send in value mode, so its walk allocates nothing once the store's mark
//!   vector has grown.  [`BddStore::compressed_serialized_size`] is the
//!   varint-encoded counterpart used by the opt-in compressed accounting
//!   mode (Figure 18): the length of the canonical encoding
//!   [`BddStore::encode`] writes and [`BddStore::decode`] reads, in which a
//!   value-mode history crosses from one shard's store to another's.  Its
//!   variable ids are written as they are: in a store whose variables are
//!   numbered alike, [`BddStore::decode`] rebuilds the same function.
//!
//! # Memory
//!
//! The unique table is rebuilt from the arena before it passes ¾ full, so a
//! handle stays its node's creation rank.  The apply memo is a lossy,
//! direct-mapped cache that grows with the store up to [`MEMO_CAPACITY`]
//! slots and is never cleared.  Nodes are permanent — repeating a workload
//! allocates nothing new, which keeps long churn runs at steady-state memory.
//! The node walks mark the nodes they reached with a per-walk epoch in a
//! vector indexed by handle, so charging or encoding a send allocates
//! nothing once the vector has grown.

mod manager;

pub use manager::{
    Bdd, BddManager, BddStore, MemoStats, SharedBddStore, VarId, Variables, MEMO_CAPACITY,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let mut m = BddStore::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let a_or_ab = m.or(a, ab);
        // Absorption: a + a*b == a.
        assert_eq!(a_or_ab, a);
    }
}
