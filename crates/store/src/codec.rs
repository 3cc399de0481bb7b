//! The value/tuple codec of the WAL and snapshot formats — a re-export of
//! [`exspan_types::codec`], the workspace's one binary codec.
//!
//! Records persist values and tuples in the canonical (VID) encoding: the
//! bytes that name a tuple in a provenance VID are the bytes that store it.
//! The record framing around them ([`crate::wal`], [`crate::snapshot`]) is
//! decoded with the same bounds-checked [`Reader`], so every decoding
//! failure — in a WAL record it marks the torn tail of a crashed write, in
//! a snapshot it marks corruption — is the one positioned [`DecodeError`].

pub use exspan_types::codec::*;
