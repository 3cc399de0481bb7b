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
//!   `u32` handles (terminals 0 and 1), a unique table from node shape to
//!   handle, a bounded, epoch-cleared apply memo and an epoch-stamped mark
//!   vector for the node walk, all hashed by [`exspan_types::fxhash`].  Its
//!   owner applies without a lock.
//! * [`KeyedBddStore`] is a store plus the numbering of base tuples as its
//!   variables, in first-seen order, and each variable's VID.  It is the
//!   one shape both users own: the engine's value-based provenance (keyed by
//!   tuple) and each condensed (BDD) query session (keyed by VID), whose
//!   store lives and dies with its deployment.
//! * [`SharedBddStore`] puts a store behind an `Arc<Mutex<_>>`, and
//!   [`BddManager`] is a handle onto one.  The pair is kept only for the
//!   end-to-end benchmark's BDD probe.
//! * [`Bdd`] is a `u32` handle, meaningful in the store that made it.  Equal
//!   handles of one store are equal functions; no size, count or
//!   evaluation reads a handle's value, so none depends on the order in
//!   which nodes were made.
//! * Boolean connectives are [`BddStore::and`], [`BddStore::or`] and
//!   [`BddStore::not`] (negation shares the apply memo), plus variable
//!   creation, evaluation, [`BddStore::support`] and
//!   [`BddStore::sat_count`].
//! * [`BddStore::serialized_size`] estimates the number of bytes required
//!   to ship a BDD over the network, which is what the evaluation's
//!   bandwidth accounting uses for value-based (BDD) provenance and for the
//!   BDD query representation (Figures 6, 7, 15).  It runs once per remote
//!   send in value mode, so its walk allocates nothing once the store's mark
//!   vector has grown.  [`BddStore::compressed_serialized_size`] is the
//!   varint-encoded counterpart used by the opt-in compressed accounting
//!   mode (Figure 18).

mod manager;

pub use manager::{
    Bdd, BddManager, BddStore, KeyedBddStore, MemoStats, SharedBddStore, VarId, MEMO_CAPACITY,
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
