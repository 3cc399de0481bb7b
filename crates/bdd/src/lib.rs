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
//! The implementation is a classic hash-consed apply-based ROBDD over a
//! *shared* node store:
//!
//! * [`SharedBddStore`] owns the interned node table (hash-consing) and a
//!   bounded, epoch-cleared apply memo, both hashed by
//!   [`exspan_types::fxhash`] (the keys are content-keyed node ids the store
//!   chose, so SipHash's keyed resistance buys nothing).  One process-global
//!   store backs every `BddManager::new()`, so structurally identical
//!   provenance BDDs built by different sessions or policies are stored once
//!   and share memo hits.
//! * [`BddManager`] is a cloneable handle onto a store; use
//!   [`BddManager::with_store`] with a fresh store for isolation.
//! * [`Bdd`] is a lightweight handle whose `u64` id is *content-keyed* — a
//!   Merkle-style hash of `(var, low, high)` — so handle values are
//!   deterministic regardless of construction order or interleaving.
//! * Boolean connectives are provided via [`BddManager::and`],
//!   [`BddManager::or`], [`BddManager::not`] plus variable creation and
//!   evaluation helpers.
//! * [`BddManager::serialized_size`] estimates the number of bytes required
//!   to ship a BDD over the network, which is what the evaluation's
//!   bandwidth accounting uses for value-based (BDD) provenance and for the
//!   BDD query representation (Figures 6, 7, 15).  It runs once per remote
//!   send in value mode, so its walk reuses a visited set and stack held in
//!   the store instead of allocating.
//!   [`BddManager::compressed_serialized_size`] is the varint-encoded
//!   counterpart used by the opt-in compressed accounting mode (Figure 18).

mod manager;

pub use manager::{Bdd, BddManager, MemoStats, SharedBddStore, VarId, MEMO_CAPACITY};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let a_or_ab = m.or(a, ab);
        // Absorption: a + a*b == a.
        assert_eq!(a_or_ab, a);
    }
}
