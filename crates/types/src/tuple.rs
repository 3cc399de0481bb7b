//! Relational tuples, schemas and provenance vertex identifiers.
//!
//! Since the interned hot path landed, a tuple's relation is a [`RelId`] — a
//! `Copy` interned symbol — rather than an owned `String`.  Construction
//! sites are unchanged (`Tuple::new("link", …)` interns transparently), and
//! [`Tuple::relation_name`] resolves the id back to its `&'static str`.
//! Identity is unaffected: VIDs hash the relation's *content*, the wire-size
//! model already charged a fixed-width relation id, and tuples order exactly
//! as they did when the relation was a string.

use crate::sha1::{Digest, Sha1};
use crate::symbol::RelId;
use crate::value::{encode_str_for_hash, Value};
use crate::Error;

/// The address of a node in the network.  Location specifiers (`@X`) resolve
/// to `NodeId`s at runtime.
pub type NodeId = u32;

/// Vertex identifier of a *tuple vertex* in the provenance graph: the SHA-1
/// digest of the tuple's relation name, location and attribute values
/// (paper §4.1).
pub type Vid = Digest;

/// Vertex identifier of a *rule-execution vertex*: the SHA-1 digest of the
/// rule label, the executing location and the VIDs of the input tuples.
pub type Rid = Digest;

/// A relation schema: name, arity, and which attribute positions form the
/// primary key (used for update/overwrite semantics of materialized tables,
/// e.g. `bestPathCost` keyed on `(src, dst)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Interned relation name, e.g. `"pathCost"`.
    pub name: RelId,
    /// Number of attributes, including the location attribute.
    pub arity: usize,
    /// Indices of the primary-key attributes.  Empty means "all attributes".
    pub key: Vec<usize>,
}

impl Schema {
    /// Creates a schema whose key is the full set of attributes (set
    /// semantics).
    pub fn new(name: impl Into<RelId>, arity: usize) -> Self {
        Schema {
            name: name.into(),
            arity,
            key: Vec::new(),
        }
    }

    /// Creates a schema with an explicit primary key.
    pub fn with_key(name: impl Into<RelId>, arity: usize, key: Vec<usize>) -> Self {
        Schema {
            name: name.into(),
            arity,
            key,
        }
    }

    /// Checks that `tuple` conforms to this schema.
    pub fn check(&self, tuple: &Tuple) -> Result<(), Error> {
        if tuple.relation != self.name {
            return Err(Error::SchemaViolation(format!(
                "tuple relation {} does not match schema {}",
                tuple.relation, self.name
            )));
        }
        if tuple.arity() != self.arity {
            return Err(Error::SchemaViolation(format!(
                "relation {}: arity {} != expected {}",
                self.name,
                tuple.arity(),
                self.arity
            )));
        }
        Ok(())
    }

    /// Extracts the primary-key projection of a tuple under this schema.
    pub fn key_of(&self, tuple: &Tuple) -> TupleKey {
        if self.key.is_empty() {
            TupleKey {
                relation: tuple.relation,
                location: tuple.location,
                values: tuple.values.clone(),
            }
        } else {
            TupleKey {
                relation: tuple.relation,
                location: tuple.location,
                values: self.key.iter().map(|&i| tuple.values[i].clone()).collect(),
            }
        }
    }
}

/// The primary-key projection of a tuple; used for keyed table maintenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleKey {
    /// Interned relation name.
    pub relation: RelId,
    /// Location of the tuple.
    pub location: NodeId,
    /// Key attribute values.
    pub values: Vec<Value>,
}

/// A located relational tuple — the unit of state and of communication.
///
/// The first conceptual attribute of every NDlog predicate is its location
/// specifier; we store it separately in [`Tuple::location`] and keep the
/// remaining attributes in [`Tuple::values`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    /// Interned relation (predicate) identifier.  Compare it against string
    /// literals directly (`t.relation == "prov"`) or resolve it with
    /// [`Tuple::relation_name`].
    pub relation: RelId,
    /// The node at which this tuple resides (the `@` attribute).
    pub location: NodeId,
    /// The non-location attribute values, in declaration order.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.  Accepts anything convertible to a [`RelId`]: string
    /// literals intern transparently, and an existing `RelId` is free.
    pub fn new(relation: impl Into<RelId>, location: NodeId, values: Vec<Value>) -> Self {
        Tuple {
            relation: relation.into(),
            location,
            values,
        }
    }

    /// Resolves the interned relation id to its name.
    pub fn relation_name(&self) -> &'static str {
        self.relation.as_str()
    }

    /// Total number of attributes including the location specifier.
    pub fn arity(&self) -> usize {
        self.values.len() + 1
    }

    /// Computes the provenance vertex identifier of this tuple:
    /// `VID = SHA1(relation + location + attributes)` (paper §4.1).
    ///
    /// The digest is computed over the canonical [`Value`] encoding of
    /// `[Str(relation), Node(location), values...]`, which makes it identical
    /// to what the NDlog built-in `f_sha1("relation", Loc, attrs...)` used by
    /// the rewritten provenance-maintenance rules produces — a requirement
    /// for distributed provenance queries to be able to follow VID pointers
    /// generated by either path.
    pub fn vid(&self) -> Vid {
        let mut h = Sha1::new();
        let mut buf = Vec::with_capacity(16 * (self.values.len() + 2));
        encode_str_for_hash(self.relation.as_str(), &mut buf);
        Value::Node(self.location).encode_for_hash(&mut buf);
        for v in &self.values {
            v.encode_for_hash(&mut buf);
        }
        h.update(&buf);
        h.finalize()
    }

    /// Number of bytes this tuple occupies when sent in a network message:
    /// a small header (relation id + location) plus each attribute's wire
    /// size.  The model always charged a fixed 2-byte relation id — the
    /// in-memory interning matches the wire format it already assumed.
    pub fn wire_size(&self) -> usize {
        // 2 bytes relation id, 4 bytes location, 1 byte attribute count.
        7 + self.values.iter().map(Value::wire_size).sum::<usize>()
    }

    /// Convenience accessor: the `i`-th non-location attribute.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl std::fmt::Display for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(@n{}", self.relation, self.location)?;
        for v in &self.values {
            write!(f, ",{v}")?;
        }
        write!(f, ")")
    }
}

/// Computes the rule-execution vertex identifier
/// `RID = SHA1(rule_label + location + VID_1 + ... + VID_n)` (paper §4.1).
///
/// As with [`Tuple::vid`], the digest is computed over the canonical value
/// encoding of `[Str(rule_label), Node(location), List(vids)]`, matching the
/// `RID = f_sha1(R, RLoc, List)` computation in the rewritten rules.
pub fn rule_exec_id(rule_label: &str, location: NodeId, input_vids: &[Vid]) -> Rid {
    let mut h = Sha1::new();
    let mut buf = Vec::with_capacity(32 + 24 * input_vids.len());
    encode_str_for_hash(rule_label, &mut buf);
    Value::Node(location).encode_for_hash(&mut buf);
    Value::list(input_vids.iter().map(|v| Value::Digest(v.0)).collect()).encode_for_hash(&mut buf);
    h.update(&buf);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(src: NodeId, dst: NodeId, cost: i64) -> Tuple {
        Tuple::new("link", src, vec![Value::Node(dst), Value::Int(cost)])
    }

    #[test]
    fn vid_is_deterministic_and_content_addressed() {
        let a = link(1, 2, 3);
        let b = link(1, 2, 3);
        assert_eq!(a.vid(), b.vid());
        assert_ne!(a.vid(), link(1, 2, 4).vid());
        assert_ne!(a.vid(), link(2, 2, 3).vid());
        // Different relation name, same contents.
        let c = Tuple::new("pathCost", 1, vec![Value::Node(2), Value::Int(3)]);
        assert_ne!(a.vid(), c.vid());
    }

    #[test]
    fn vid_matches_value_level_encoding() {
        // The interned fast path must produce the exact digest the
        // Value-by-Value encoding (and hence f_sha1) produces.
        let t = link(1, 2, 3);
        let mut buf = Vec::new();
        Value::from("link").encode_for_hash(&mut buf);
        Value::Node(1).encode_for_hash(&mut buf);
        Value::Node(2).encode_for_hash(&mut buf);
        Value::Int(3).encode_for_hash(&mut buf);
        let mut h = Sha1::new();
        h.update(&buf);
        assert_eq!(t.vid(), h.finalize());
    }

    #[test]
    fn rid_depends_on_rule_location_and_inputs() {
        let v1 = link(1, 2, 3).vid();
        let v2 = link(2, 3, 1).vid();
        let r = rule_exec_id("sp2", 2, &[v1, v2]);
        assert_ne!(r, rule_exec_id("sp1", 2, &[v1, v2]));
        assert_ne!(r, rule_exec_id("sp2", 3, &[v1, v2]));
        assert_ne!(r, rule_exec_id("sp2", 2, &[v2, v1]));
        assert_eq!(r, rule_exec_id("sp2", 2, &[v1, v2]));
    }

    #[test]
    fn schema_check_catches_arity_and_name() {
        let s = Schema::new("link", 3);
        assert!(s.check(&link(1, 2, 3)).is_ok());
        assert!(s
            .check(&Tuple::new("link", 1, vec![Value::Node(2)]))
            .is_err());
        assert!(s
            .check(&Tuple::new("path", 1, vec![Value::Node(2), Value::Int(1)]))
            .is_err());
    }

    #[test]
    fn keyed_schema_projects_key() {
        // bestPathCost(@S, D, C) keyed on (S=location, D) -> key index 0 of values.
        let s = Schema::with_key("bestPathCost", 3, vec![0]);
        let t = Tuple::new("bestPathCost", 1, vec![Value::Node(2), Value::Int(9)]);
        let k = s.key_of(&t);
        assert_eq!(k.values, vec![Value::Node(2)]);
        assert_eq!(k.location, 1);

        let unkeyed = Schema::new("link", 3);
        let k2 = unkeyed.key_of(&link(1, 2, 3));
        assert_eq!(k2.values.len(), 2);
    }

    #[test]
    fn wire_size_counts_header_and_values() {
        let t = link(1, 2, 3);
        assert_eq!(t.wire_size(), 7 + 4 + 4);
    }

    #[test]
    fn display_shows_location_and_values() {
        assert_eq!(link(1, 2, 3).to_string(), "link(@n1,n2,3)");
    }

    #[test]
    fn arity_counts_location() {
        assert_eq!(link(1, 2, 3).arity(), 3);
    }

    #[test]
    fn relation_is_interned_and_resolvable() {
        let t = link(1, 2, 3);
        assert_eq!(t.relation_name(), "link");
        assert_eq!(t.relation, "link");
        // Construction from an existing RelId is free and equal.
        let t2 = Tuple::new(t.relation, 1, t.values.clone());
        assert_eq!(t, t2);
    }
}
