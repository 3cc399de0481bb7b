//! # exspan-types
//!
//! Foundation types shared by every crate in the ExSPAN workspace:
//!
//! * [`Value`] — the dynamically-typed attribute values carried by network
//!   tuples (node addresses, integers, interned strings, `Arc`-shared lists,
//!   raw digests).
//! * [`Tuple`] — a located relational tuple, the unit of state and of
//!   communication in a declarative network.  Its relation is an interned
//!   [`RelId`]; resolve it with [`Tuple::relation_name`].
//! * [`Symbol`] / [`RelId`] — the workspace-wide string interner behind the
//!   hot path: `Copy` handles with pointer equality and content ordering
//!   (see [`symbol`] for why that combination keeps the figures
//!   byte-identical).
//! * [`NodeId`] — the address of a node in the simulated network.
//! * [`Vid`] / [`Rid`] — provenance vertex identifiers: SHA-1 digests of tuple
//!   contents and of rule-execution instances respectively (paper §4.1).
//! * [`sha1`] — a from-scratch SHA-1 implementation (no external dependency),
//!   used solely to derive collision-resistant vertex identifiers.
//! * [`wire`] — the byte-size model used for all bandwidth accounting in the
//!   evaluation harness.  Interning does not change any wire size: the model
//!   always charged a fixed-width relation id per tuple and content-length
//!   bytes per string value.
//! * [`codec`] — the one binary codec: the canonical (VID) encoding of values
//!   and tuples, its decoder, and the bounds-checked [`codec::Reader`] and
//!   [`codec::DecodeError`] that the store's records, the serve protocol's
//!   frames and the byte codec below are all decoded with.
//! * [`compress`] — the dictionary size model behind the opt-in compressed
//!   accounting mode (Figure 18): the first occurrence of a string/VID in a
//!   message is charged inline and assigned a varint id, repeats cost the id
//!   alone; beside it, a byte codec for rendered text.
//! * [`fxhash`] — the Fx hasher of the maps whose keys the program, topology
//!   or BDD store chose (SipHash stays where keys come off a socket).

pub mod codec;
pub mod compress;
pub mod fxhash;
pub mod sha1;
pub mod symbol;
pub mod tuple;
pub mod value;
pub mod wire;

pub use sha1::{sha1_digest, Digest};
pub use symbol::{RelId, Symbol};
pub use tuple::{NodeId, Rid, Tuple, Vid};
pub use value::Value;

/// Convenience result alias used across the workspace for fallible operations
/// that report a human-readable error message.
pub type Result<T> = std::result::Result<T, Error>;

/// Error type shared by the foundation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A value had a different runtime type than the operation required.
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// What it actually got, rendered for display.
        found: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_readable() {
        let e = Error::TypeMismatch {
            expected: "int",
            found: "string(\"x\")".into(),
        };
        assert!(e.to_string().contains("expected int"));
    }
}
