//! The one binary codec for [`Value`]s and [`Tuple`]s.
//!
//! The paper names every tuple by `f_sha1` over one canonical encoding of
//! its contents (§4.2, the VID).  That encoding —
//! [`Value::encode_for_hash`]: a one-byte type tag followed by a fixed-width
//! or length-prefixed big-endian body — is injective, which makes it
//! decodable, so it is also the form in which values are persisted (WAL and
//! snapshot records of `exspan-store`) and sent (`SubmitQuery` values of
//! `exspan-serve`): the bytes that identify a tuple are the bytes that store
//! and ship it.
//!
//! ```text
//! value := 0x01 node:u32        | 0x02 int:i64
//!        | 0x03 len:u32 utf8    | 0x04 bool:u8 (0 or 1)
//!        | 0x05 count:u32 value*| 0x06 digest:[u8; 20]
//!        | 0x07 payload-size:u32
//! tuple := 0x03 len:u32 relation-utf8  location:u32  count:u32 value*
//! ```
//!
//! This module adds the decoder, and the bounds-checked [`Reader`] every
//! other binary decoder in the workspace is built on: the store's record and
//! snapshot framing, the serve protocol's frames, and
//! [`crate::compress::decompress_bytes`].  All of them report the same
//! positioned [`DecodeError`]; none of them panics on torn, truncated or
//! hostile input.  LEB128 varints ([`put_varint`], [`Reader::varint`],
//! [`varint_len`]) serve that byte codec and the compressed size models.

use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::value::{encode_str_for_hash, Value};

/// Deepest [`Value::List`] nesting a decoder accepts — more than any program
/// in this workspace produces.  Bounds recursion, so a hostile or bit-rotted
/// input fails with a [`DecodeError`] instead of exhausting the stack.
pub const MAX_LIST_DEPTH: usize = 8;

/// How a decoder turns a string into its symbol.
type Lookup = fn(&str) -> Option<Symbol>;

/// A decode failure: the offset it occurred at plus a static reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset in the input at which decoding failed.
    pub at: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an encoded buffer.  Fixed-width integers are
/// big-endian, matching the canonical encoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`DecodeError`] at the current position — for callers layering
    /// their own tags and framing on this reader.
    pub fn error(&self, reason: &'static str) -> DecodeError {
        DecodeError {
            at: self.pos,
            reason,
        }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.error("truncated input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    /// An IEEE-754 double stored as its big-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A LEB128 varint (7 data bits per byte, at most 10 bytes).
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            x |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// Validates a declared element or byte count: every element costs at
    /// least one byte, so a count beyond [`Reader::remaining`] is corrupt —
    /// rejecting it here keeps a hostile count from reserving capacity.
    pub fn count(&self, declared: impl Into<u64>) -> Result<usize, DecodeError> {
        let declared = declared.into();
        if declared > self.remaining() as u64 {
            return Err(self.error("declared length exceeds input"));
        }
        Ok(declared as usize)
    }

    /// The next `len` bytes as UTF-8.
    pub fn utf8(&mut self, len: usize) -> Result<&'a str, DecodeError> {
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.error("string is not valid UTF-8"))
    }

    /// A canonical string encoding (`0x03`, `u32` length, UTF-8).
    pub fn string(&mut self) -> Result<&'a str, DecodeError> {
        match self.u8()? {
            0x03 => self.str_body(),
            _ => Err(self.error("expected a string tag")),
        }
    }

    fn str_body(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        self.utf8(len)
    }

    /// Requires the input to be fully consumed: a record is a complete,
    /// self-delimiting unit, so bytes after it mean the framing lied.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(self.error("trailing bytes"))
        }
    }
}

/// Appends `x` as a LEB128 varint (the inverse of [`Reader::varint`]).
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Number of bytes [`put_varint`] writes for `x` (1..=10).
pub fn varint_len(mut x: u64) -> usize {
    let mut n = 1;
    while x >= 0x80 {
        x >>= 7;
        n += 1;
    }
    n
}

/// Appends the canonical encoding of `v`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    v.encode_for_hash(out);
}

/// Decodes one [`Value`], re-interning string symbols (as recovery in a
/// fresh process must).
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    decode_value_at(r, 0, |s| Some(Symbol::intern(s)))
}

/// Decodes one [`Value`] of client input, whose strings are looked up and
/// never interned (an interned string is never freed): a string no symbol
/// holds, which no stored tuple can hold either, is an error.
pub fn decode_known_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    decode_value_at(r, 0, Symbol::get)
}

fn decode_value_at(r: &mut Reader<'_>, depth: usize, symbol: Lookup) -> Result<Value, DecodeError> {
    match r.u8()? {
        0x01 => Ok(Value::Node(r.u32()?)),
        0x02 => Ok(Value::Int(r.i64()?)),
        0x03 => symbol(r.str_body()?)
            .map(Value::Str)
            .ok_or(r.error("unknown string")),
        0x04 => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            _ => Err(r.error("invalid bool byte")),
        },
        0x05 => {
            if depth >= MAX_LIST_DEPTH {
                return Err(r.error("list nesting too deep"));
            }
            let count = r.u32()?;
            let count = r.count(count)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_value_at(r, depth + 1, symbol)?);
            }
            Ok(Value::list(items))
        }
        0x06 => Ok(Value::Digest(r.array()?)),
        0x07 => Ok(Value::Payload(r.u32()?)),
        _ => Err(r.error("unknown value tag")),
    }
}

/// Appends the canonical encoding of a tuple: relation name, location,
/// value count, values.
pub fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    encode_str_for_hash(t.relation.as_str(), out);
    out.extend_from_slice(&t.location.to_be_bytes());
    out.extend_from_slice(&(t.values.len() as u32).to_be_bytes());
    for v in &t.values {
        encode_value(v, out);
    }
}

/// Decodes one [`Tuple`], re-interning its relation.
pub fn decode_tuple(r: &mut Reader<'_>) -> Result<Tuple, DecodeError> {
    let relation = r.string()?;
    let location = r.u32()?;
    let count = r.u32()?;
    let count = r.count(count)?;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(decode_value(r)?);
    }
    Ok(Tuple::new(relation, location, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_value(&mut r).expect("decode");
        assert_eq!(&back, v);
        assert!(r.is_empty(), "trailing bytes after {v:?}");
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(&Value::Node(7));
        roundtrip_value(&Value::Int(-42));
        roundtrip_value(&Value::Int(i64::MIN));
        roundtrip_value(&Value::from("bestPathCost"));
        roundtrip_value(&Value::from(""));
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Digest([9u8; 20]));
        roundtrip_value(&Value::Payload(1500));
        roundtrip_value(&Value::list(vec![
            Value::Int(1),
            Value::list(vec![Value::Node(2), Value::Bool(false)]),
            Value::from("nested"),
        ]));
        roundtrip_value(&Value::list(Vec::new()));
    }

    #[test]
    fn tuple_roundtrips() {
        let t = Tuple::new(
            "link",
            3,
            vec![Value::Node(4), Value::Int(10), Value::from("x")],
        );
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_tuple(&mut r).expect("decode");
        assert_eq!(back, t);
        r.finish().expect("whole buffer consumed");
        // The decoded tuple hashes to the same VID: persistence preserves
        // provenance identity.
        assert_eq!(back.vid(), t.vid());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let t = Tuple::new("prov", 1, vec![Value::Digest([1; 20]), Value::Node(2)]);
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_tuple(&mut r).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tags_and_trailing_bytes_are_reported_with_their_position() {
        let mut r = Reader::new(&[0x99]);
        let err = decode_value(&mut r).unwrap_err();
        assert_eq!((err.at, err.reason), (1, "unknown value tag"));
        assert!(decode_value(&mut Reader::new(&[0x04, 2])).is_err());
        let mut r = Reader::new(&[0x04, 1, 0]);
        decode_value(&mut r).expect("the value itself is fine");
        assert_eq!(r.finish().unwrap_err().reason, "trailing bytes");
    }

    #[test]
    fn corrupt_list_count_does_not_overallocate() {
        // Tag 0x05 + count u32::MAX, then nothing.
        let mut buf = vec![0x05];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(
            decode_value(&mut r).unwrap_err().reason,
            "declared length exceeds input"
        );
    }

    #[test]
    fn lists_nest_to_the_bound_and_no_deeper() {
        let nested = |depth: usize| {
            let mut v = Value::Int(0);
            for _ in 0..depth {
                v = Value::list(vec![v]);
            }
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            buf
        };
        assert!(decode_value(&mut Reader::new(&nested(MAX_LIST_DEPTH))).is_ok());
        let err = decode_value(&mut Reader::new(&nested(MAX_LIST_DEPTH + 1))).unwrap_err();
        assert_eq!(err.reason, "list nesting too deep");
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for x in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, x);
            assert_eq!(buf.len(), varint_len(x));
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), x);
            assert!(r.is_empty());
        }
        // Eleven continuation bytes cannot fit in 64 bits.
        assert!(Reader::new(&[0xFF; 11]).varint().is_err());
    }
}
