//! Dynamically-typed attribute values.
//!
//! NDlog tuples carry heterogeneous attributes: node addresses, integers,
//! costs, strings (rule labels, relation names), lists (path vectors, VID
//! lists) and raw 20-byte digests (provenance pointers).  [`Value`] is the
//! closed union of those cases.
//!
//! Two cases are engineered for cheap cloning, because values are copied on
//! every rule firing, join candidate and delta application:
//!
//! * [`Value::Str`] holds an interned [`Symbol`] — cloning is a pointer copy
//!   and equality a pointer comparison, while ordering, hashing, display and
//!   the wire/hash encodings remain functions of the string *content* (so
//!   canonical scan orders and VIDs are unchanged by interning).
//! * [`Value::List`] holds its elements behind an [`Arc`] — cloning a path
//!   vector or VID list bumps a reference count instead of deep-copying.
//!   Lists are immutable once built (construct them with [`Value::list`]).

use crate::sha1::Digest;
use crate::symbol::Symbol;
use crate::Error;
use std::sync::Arc;

/// A single attribute value inside a [`crate::Tuple`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A node address (location specifier).
    Node(u32),
    /// A signed integer (costs, counts, thresholds, payload sizes…).
    Int(i64),
    /// An interned string (relation names, rule labels, domain names…).
    Str(Symbol),
    /// A boolean (derivability tests).
    Bool(bool),
    /// An ordered, immutable list of values (path vectors, VID lists,
    /// buffered results), shared behind an [`Arc`].
    List(Arc<Vec<Value>>),
    /// A 20-byte digest (VIDs, RIDs, query identifiers).
    Digest([u8; 20]),
    /// An opaque payload of the given size in bytes.  Only the size is
    /// modelled; the content of data-plane packets is irrelevant to
    /// provenance, but its wire footprint matters for Figure 8.
    Payload(u32),
}

impl Value {
    /// Creates a list value (the canonical [`Value::List`] constructor).
    pub fn list(values: Vec<Value>) -> Value {
        Value::List(Arc::new(values))
    }

    /// Creates an interned string value.
    pub fn str(s: impl Into<Symbol>) -> Value {
        Value::Str(s.into())
    }

    /// Returns the node id if this value is a node address.
    pub fn as_node(&self) -> Result<u32, Error> {
        match self {
            Value::Node(n) => Ok(*n),
            other => Err(Error::TypeMismatch {
                expected: "node",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the integer if this value is an [`Value::Int`].
    pub fn as_int(&self) -> Result<i64, Error> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(Error::TypeMismatch {
                expected: "int",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the string slice if this value is a [`Value::Str`].
    pub fn as_str(&self) -> Result<&'static str, Error> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(Error::TypeMismatch {
                expected: "string",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the interned symbol if this value is a [`Value::Str`].
    pub fn as_symbol(&self) -> Result<Symbol, Error> {
        match self {
            Value::Str(s) => Ok(*s),
            other => Err(Error::TypeMismatch {
                expected: "string",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the boolean if this value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::TypeMismatch {
                expected: "bool",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns a reference to the list if this value is a [`Value::List`].
    pub fn as_list(&self) -> Result<&[Value], Error> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(Error::TypeMismatch {
                expected: "list",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the digest if this value is a [`Value::Digest`].
    pub fn as_digest(&self) -> Result<Digest, Error> {
        match self {
            Value::Digest(d) => Ok(Digest(*d)),
            other => Err(Error::TypeMismatch {
                expected: "digest",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Creates a digest value from a [`Digest`].
    pub fn from_digest(d: Digest) -> Value {
        Value::Digest(d.0)
    }

    /// Number of bytes this value contributes to a serialized message.
    ///
    /// The model follows the paper's accounting: node addresses and integers
    /// are 4 bytes, digests 20 bytes, strings and lists their content plus a
    /// small length header, opaque payloads their declared size.  Interning
    /// and [`Arc`]-sharing are runtime representation choices — the wire
    /// footprint is a function of the content alone and is identical to the
    /// pre-interning model.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Node(_) => 4,
            Value::Int(_) => 4,
            Value::Bool(_) => 1,
            Value::Str(s) => 2 + s.len(),
            Value::List(l) => 2 + l.iter().map(Value::wire_size).sum::<usize>(),
            Value::Digest(_) => 20,
            Value::Payload(sz) => *sz as usize,
        }
    }

    /// Appends a canonical byte encoding of the value to `out`.
    ///
    /// Used to compute VIDs: the encoding is injective per variant (a type tag
    /// followed by a fixed-width or length-prefixed body) so distinct values
    /// never produce identical byte strings.
    pub fn encode_for_hash(&self, out: &mut Vec<u8>) {
        match self {
            Value::Node(n) => {
                out.push(0x01);
                out.extend_from_slice(&n.to_be_bytes());
            }
            Value::Int(i) => {
                out.push(0x02);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Str(s) => encode_str_for_hash(s.as_str(), out),
            Value::Bool(b) => {
                out.push(0x04);
                out.push(*b as u8);
            }
            Value::List(l) => {
                out.push(0x05);
                out.extend_from_slice(&(l.len() as u32).to_be_bytes());
                for v in l.iter() {
                    v.encode_for_hash(out);
                }
            }
            Value::Digest(d) => {
                out.push(0x06);
                out.extend_from_slice(d);
            }
            Value::Payload(sz) => {
                out.push(0x07);
                out.extend_from_slice(&sz.to_be_bytes());
            }
        }
    }
}

/// Appends the canonical hash encoding of a string value — identical to
/// `Value::Str(s).encode_for_hash(..)` but usable without interning or
/// allocating (the VID computation encodes the relation name this way).
pub fn encode_str_for_hash(s: &str, out: &mut Vec<u8>) {
    out.push(0x03);
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Node(n) => write!(f, "n{n}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Digest(d) => write!(f, "#{}", Digest(*d).short()),
            Value::Payload(sz) => write!(f, "<payload:{sz}B>"),
        }
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(n as i64)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Symbol::intern(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Symbol::intern(&s))
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1_digest;

    #[test]
    fn accessors_succeed_on_matching_variant() {
        assert_eq!(Value::Node(7).as_node().unwrap(), 7);
        assert_eq!(Value::Int(-3).as_int().unwrap(), -3);
        assert_eq!(Value::from("x").as_str().unwrap(), "x");
        assert_eq!(Value::from("x").as_symbol().unwrap(), Symbol::intern("x"));
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(
            Value::list(vec![Value::Int(1)]).as_list().unwrap(),
            &[Value::Int(1)]
        );
        let d = sha1_digest(b"t");
        assert_eq!(Value::from_digest(d).as_digest().unwrap(), d);
    }

    #[test]
    fn accessors_fail_on_wrong_variant() {
        assert!(Value::Int(1).as_node().is_err());
        assert!(Value::Node(1).as_int().is_err());
        assert!(Value::Int(1).as_str().is_err());
        assert!(Value::Int(1).as_symbol().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Int(1).as_list().is_err());
        assert!(Value::Int(1).as_digest().is_err());
    }

    #[test]
    fn wire_sizes_follow_model() {
        assert_eq!(Value::Node(1).wire_size(), 4);
        assert_eq!(Value::Int(1).wire_size(), 4);
        assert_eq!(Value::Bool(true).wire_size(), 1);
        assert_eq!(Value::from("abcd").wire_size(), 6);
        assert_eq!(Value::Digest([0; 20]).wire_size(), 20);
        assert_eq!(Value::Payload(1024).wire_size(), 1024);
        assert_eq!(
            Value::list(vec![Value::Int(1), Value::Node(2)]).wire_size(),
            2 + 4 + 4
        );
    }

    #[test]
    fn hash_encoding_distinguishes_variants() {
        // Int(1) and Node(1) must encode differently.
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(1).encode_for_hash(&mut a);
        Value::Node(1).encode_for_hash(&mut b);
        assert_ne!(a, b);

        // Nested lists vs flat concatenation must differ.
        let mut c = Vec::new();
        let mut d = Vec::new();
        Value::list(vec![Value::Int(1), Value::Int(2)]).encode_for_hash(&mut c);
        Value::list(vec![Value::list(vec![Value::Int(1), Value::Int(2)])]).encode_for_hash(&mut d);
        assert_ne!(c, d);
    }

    #[test]
    fn interned_str_encoding_matches_raw_helper() {
        let mut via_value = Vec::new();
        Value::from("pathCost").encode_for_hash(&mut via_value);
        let mut via_helper = Vec::new();
        encode_str_for_hash("pathCost", &mut via_helper);
        assert_eq!(via_value, via_helper);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Node(3).to_string(), "n3");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(
            Value::list(vec![Value::Node(1), Value::Node(2)]).to_string(),
            "[n1,n2]"
        );
        assert!(Value::Payload(9).to_string().contains("9B"));
    }

    #[test]
    fn ordering_is_content_based() {
        // Str ordering must follow string content (canonical scan orders
        // depend on it), regardless of intern order.
        assert!(Value::from("zz") > Value::from("aa"));
        assert!(Value::from("aa") < Value::from("ab"));
        // Variant rank ordering is unchanged: Node < Int < Str < Bool < List.
        assert!(Value::Node(9) < Value::Int(0));
        assert!(Value::Int(9) < Value::from(""));
        assert!(Value::from("zzz") < Value::Bool(false));
        assert!(Value::Bool(true) < Value::list(vec![]));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("a"), Value::Str(Symbol::intern("a")));
        assert_eq!(Value::from(String::from("a")), Value::from("a"));
        assert_eq!(Value::from(Symbol::intern("a")), Value::from("a"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::str("a"), Value::from("a"));
    }
}
