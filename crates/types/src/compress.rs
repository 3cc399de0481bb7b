//! Dictionary size model: what provenance traffic would cost compressed.
//!
//! Value-based provenance ships highly repetitive content — recurring rule
//! labels, relation names, VIDs and polynomial structure that the flat model
//! in [`crate::wire`] charges byte-for-byte.  This module charges the same
//! messages under a **deterministic per-message dictionary encoding**
//! (Figure 18).  Within one message, the first occurrence of a string or
//! digest is charged inline and assigned the next varint id; every repeat
//! costs the id alone.  The dictionary resets at message boundaries, so the
//! charge of a message is a pure function of its content — the property
//! every figure relies on for bit-identical results at any shard count.
//! Nothing is encoded: the figure only ever needs the byte count.
//!
//! # Charged grammar
//!
//! Integers are LEB128 varints (7 data bits per byte, little-endian groups;
//! [`crate::codec::varint_len`]); signed integers are zigzag-folded first.
//! Strings and digests go through the dictionary:
//!
//! ```text
//! message := varint(ntuples) tuple*
//! tuple   := str(relation) varint(location) varint(nvalues) value*
//! value   := 0x01 varint(node)      | 0x02 zigzag-varint(int)
//!          | 0x03 str               | 0x04 bool-byte
//!          | 0x05 varint(len) value*| 0x06 digest
//!          | 0x07 varint(payload-size) payload-bytes
//! str     := 0x00 varint(len) utf8-bytes   ; define: assigns the next id
//!          | 0x01 varint(id)               ; back-reference
//! digest  := 0x00 raw-20-bytes             ; define: assigns the next id
//!          | 0x01 varint(id)               ; back-reference
//! ```
//!
//! Strings and digests share one id space, assigned in definition order;
//! lists are never dictionary entries, though the strings and digests inside
//! them are.  A [`Value::Payload`] is charged its declared size — packet
//! payloads are treated as incompressible.
//!
//! The compressed *message* model ([`compressed_message_size`]) keeps the
//! UDP/IP overhead ([`crate::wire::UDP_IP_HEADER_BYTES`]) — the network does
//! not shrink — but replaces the fixed 12-byte message header with the
//! grammar's own varint tuple-count framing.
//!
//! A second, byte-oriented codec ([`compress_bytes`] /
//! [`decompress_bytes`]) applies the same define-or-reference scheme to
//! opaque rendered payloads: alphanumeric word tokens of a text are
//! dictionarized, everything else is copied raw, and decoding reproduces the
//! input exactly.  Nothing ships bytes through it: it pays only on long,
//! repetitive renderings, and on the result bodies `benchmarks/e2e` serves
//! it read `types.compress_ratio` = 0.75 (a third *larger*), so
//! `exspan-serve` sends bodies as rendered.  The pair stays as the subject
//! of that benchmark's `types.compress_*` probes.

use crate::codec::{put_varint, varint_len, DecodeError, Reader};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::wire::UDP_IP_HEADER_BYTES;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

/// The dictionary of one message.  Strings and digests share one id space.
#[derive(Default)]
struct Dictionary<'a> {
    strings: HashMap<&'a str, u64>,
    digests: HashMap<&'a [u8; 20], u64>,
}

/// Bytes one dictionary entry costs: op byte plus id on a repeat, op byte
/// plus `inline` on the first occurrence, which takes `next` as its id.
fn entry_charge<K>(entry: Entry<'_, K, u64>, next: u64, inline: usize) -> usize {
    1 + match entry {
        Entry::Occupied(e) => varint_len(*e.get()),
        Entry::Vacant(e) => {
            e.insert(next);
            inline
        }
    }
}

impl<'a> Dictionary<'a> {
    fn next_id(&self) -> u64 {
        (self.strings.len() + self.digests.len()) as u64
    }

    fn str(&mut self, s: &'a str) -> usize {
        let next = self.next_id();
        let inline = varint_len(s.len() as u64) + s.len();
        entry_charge(self.strings.entry(s), next, inline)
    }

    fn digest(&mut self, d: &'a [u8; 20]) -> usize {
        let next = self.next_id();
        entry_charge(self.digests.entry(d), next, d.len())
    }

    fn value(&mut self, v: &'a Value) -> usize {
        1 + match v {
            Value::Node(n) => varint_len(u64::from(*n)),
            Value::Int(i) => varint_len(zigzag(*i)),
            Value::Str(s) => self.str(s.as_str()),
            Value::Bool(_) => 1,
            Value::List(l) => {
                varint_len(l.len() as u64) + l.iter().map(|v| self.value(v)).sum::<usize>()
            }
            Value::Digest(d) => self.digest(d),
            Value::Payload(sz) => varint_len(u64::from(*sz)) + *sz as usize,
        }
    }

    fn tuple(&mut self, t: &'a Tuple) -> usize {
        self.str(t.relation.as_str())
            + varint_len(u64::from(t.location))
            + varint_len(t.values.len() as u64)
            + t.values.iter().map(|v| self.value(v)).sum::<usize>()
    }
}

/// Compressed counterpart of [`crate::wire::message_size`]: UDP/IP overhead
/// plus the charged grammar's `message` (varint tuple count,
/// dictionary-charged tuples) plus an already-compressed annotation of
/// `annotation_bytes`.
pub fn compressed_message_size(tuples: &[Tuple], annotation_bytes: usize) -> usize {
    let mut dict = Dictionary::default();
    let count =
        varint_len(tuples.len() as u64) + tuples.iter().map(|t| dict.tuple(t)).sum::<usize>();
    UDP_IP_HEADER_BYTES + count + annotation_bytes
}

// ---------------------------------------------------------------------------
// Byte-payload codec
// ---------------------------------------------------------------------------

/// Ops of the byte-payload stream.  `OP_RAW` copies bytes verbatim, `OP_DEF`
/// copies them *and* assigns the next dictionary id, and any op ≥ `OP_REF0`
/// references entry `op - OP_REF0`.
const OP_RAW: u64 = 0;
const OP_DEF: u64 = 1;
const OP_REF0: u64 = 2;

/// Shortest alphanumeric token worth dictionarizing: a define costs two
/// bytes of framing, so one-byte tokens always travel raw.
const MIN_TOKEN: usize = 2;

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Appends one `OP_RAW` or `OP_DEF` chunk: op, length, bytes.
fn put_chunk(out: &mut Vec<u8>, op: u64, bytes: &[u8]) {
    put_varint(out, op);
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Compresses an opaque byte payload with the define-or-reference scheme
/// over its alphanumeric word tokens.  Deterministic, self-contained, and
/// exactly invertible by [`decompress_bytes`]; repetitive rendered text
/// (polynomials full of recurring VIDs) shrinks substantially, while
/// incompressible input grows by at most the raw-chunk framing.
pub fn compress_bytes(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut dict: HashMap<&[u8], u64> = HashMap::new();
    let mut raw_start = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        if is_word(input[i]) {
            let start = i;
            while i < input.len() && is_word(input[i]) {
                i += 1;
            }
            let token = &input[start..i];
            if token.len() < MIN_TOKEN {
                continue; // stays inside the pending raw run
            }
            if start > raw_start {
                put_chunk(&mut out, OP_RAW, &input[raw_start..start]);
            }
            raw_start = i;
            if let Some(&id) = dict.get(token) {
                put_varint(&mut out, OP_REF0 + id);
            } else {
                dict.insert(token, dict.len() as u64);
                put_chunk(&mut out, OP_DEF, token);
            }
        } else {
            i += 1;
        }
    }
    if input.len() > raw_start {
        put_chunk(&mut out, OP_RAW, &input[raw_start..]);
    }
    out
}

/// Decompresses a payload produced by [`compress_bytes`].  Never panics:
/// torn or hostile input yields a [`DecodeError`].
pub fn decompress_bytes(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut r = Reader::new(input);
    let mut out = Vec::with_capacity(input.len());
    let mut dict: Vec<std::ops::Range<usize>> = Vec::new(); // tokens, as ranges of `out`
    while !r.is_empty() {
        let op = r.varint()?;
        if op == OP_RAW || op == OP_DEF {
            let len = r.varint()?;
            let bytes = r.bytes(r.count(len)?)?;
            if op == OP_DEF {
                dict.push(out.len()..out.len() + bytes.len());
            }
            out.extend_from_slice(bytes);
        } else {
            let token = usize::try_from(op - OP_REF0)
                .ok()
                .and_then(|id| dict.get(id))
                .ok_or_else(|| r.error("dictionary reference out of range"))?;
            // The referenced token already lives in `out`.
            out.extend_from_within(token.clone());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn compressed_message_beats_flat_model_on_repetitive_content() {
        let vid = [0x11; 20];
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::new(
                    "ruleExec",
                    i,
                    vec![
                        Value::Digest(vid),
                        Value::from("sp2"),
                        Value::list(vec![Value::Digest(vid), Value::Digest([i as u8; 20])]),
                    ],
                )
            })
            .collect();
        let flat = wire::message_size(&tuples, 0);
        let compressed = compressed_message_size(&tuples, 0);
        assert!(
            compressed < flat * 3 / 4,
            "compressed {compressed} vs flat {flat}"
        );
    }

    #[test]
    fn byte_codec_roundtrips_and_compresses_repetitive_text() {
        let rendered = "(#ab12cd34 * #ef56ab78 + #ab12cd34 * #ef56ab78 + #ab12cd34)".repeat(16);
        let compressed = compress_bytes(rendered.as_bytes());
        assert!(
            compressed.len() < rendered.len() * 2 / 3,
            "{} vs {}",
            compressed.len(),
            rendered.len()
        );
        assert_eq!(decompress_bytes(&compressed).unwrap(), rendered.as_bytes());
    }

    #[test]
    fn byte_codec_roundtrips_arbitrary_bytes() {
        let cases: [&[u8]; 5] = [
            b"",
            b"x",
            b"no repeats here at all, every word distinct",
            &[0u8, 255, 128, 7, 7, 7],
            "héllo wörld héllo wörld".as_bytes(),
        ];
        for input in cases {
            let compressed = compress_bytes(input);
            assert_eq!(decompress_bytes(&compressed).unwrap(), input);
        }
    }

    #[test]
    fn byte_codec_decode_never_panics_on_torn_input() {
        let compressed = compress_bytes(b"token token token, more tokens and #digests");
        for cut in 0..compressed.len() {
            let _ = decompress_bytes(&compressed[..cut]); // Err or short Ok, never a panic
        }
    }
}
