//! Dictionary wire codec: the compressed byte model for provenance traffic.
//!
//! Value-based provenance ships highly repetitive content — recurring rule
//! labels, relation names, VIDs and polynomial structure that the flat model
//! in [`crate::wire`] charges byte-for-byte.  This module implements the
//! compressed counterpart: a **deterministic per-message dictionary codec**.
//! Within one message, the first occurrence of a string or digest is emitted
//! inline and assigned the next varint id; every repeat costs the id alone.
//! The dictionary resets at message boundaries, so both sides can decode
//! without any shared session state and the encoded size of a message is a
//! pure function of its content — the property every figure relies on for
//! bit-identical results at any shard count.
//!
//! # Wire grammar
//!
//! Integers are LEB128 varints (7 data bits per byte, little-endian groups);
//! signed integers are zigzag-folded first.  Strings and digests go through
//! the dictionary:
//!
//! ```text
//! message := varint(ntuples) tuple*
//! tuple   := str(relation) varint(location) varint(nvalues) value*
//! value   := 0x01 varint(node)      | 0x02 zigzag-varint(int)
//!          | 0x03 str               | 0x04 bool-byte
//!          | 0x05 varint(len) value*| 0x06 digest
//!          | 0x07 varint(payload-size)
//! str     := 0x00 varint(len) utf8-bytes   ; define: assigns the next id
//!          | 0x01 varint(id)               ; back-reference
//! digest  := 0x00 raw-20-bytes             ; define: assigns the next id
//!          | 0x01 varint(id)               ; back-reference
//! ```
//!
//! Strings and digests share one id space, assigned in definition order.
//! [`Value::Payload`] stays opaque: only its size varint is materialized, and
//! the accounting ([`Encoder::charged_len`]) still charges the declared bytes
//! — packet payloads are treated as incompressible.
//!
//! The compressed *message* model ([`compressed_message_size`]) keeps the
//! UDP/IP overhead ([`crate::wire::UDP_IP_HEADER_BYTES`]) — the network does
//! not shrink — but replaces the fixed 12-byte message header with the
//! codec's own varint tuple-count framing.
//!
//! A second, byte-oriented entry point ([`compress_bytes`] /
//! [`decompress_bytes`]) applies the same define-or-reference scheme to
//! opaque rendered payloads: alphanumeric word tokens of a text are
//! dictionarized, everything else is copied raw, and decoding reproduces the
//! input exactly.  Nothing ships bytes through it: it pays only on long,
//! repetitive renderings, and on the result bodies `benchmarks/e2e` serves
//! it read `types.compress_ratio` = 0.75 (a third *larger*), so
//! `exspan-serve` sends bodies as rendered.  The pair stays as the subject
//! of that benchmark's `types.compress_*` probes.

use crate::codec::{put_varint, DecodeError, Reader, MAX_LIST_DEPTH};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::wire::UDP_IP_HEADER_BYTES;
use std::collections::HashMap;

/// Value variant tags (distinct from the hash-encoding tags on purpose: the
/// codec is a wire format, not an identity function).
const TAG_NODE: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_STR: u8 = 0x03;
const TAG_BOOL: u8 = 0x04;
const TAG_LIST: u8 = 0x05;
const TAG_DIGEST: u8 = 0x06;
const TAG_PAYLOAD: u8 = 0x07;

/// Dictionary ops for strings and digests.
const DICT_DEFINE: u8 = 0x00;
const DICT_REF: u8 = 0x01;

/// Number of bytes the varint encoding of `x` takes (1..=10).
pub fn varint_len(x: u64) -> usize {
    let mut x = x;
    let mut n = 1;
    while x >= 0x80 {
        x >>= 7;
        n += 1;
    }
    n
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Per-message encoder: owns the output buffer and the dictionary state.
/// Encode any number of tuples (or raw primitives) through one encoder to
/// share its dictionary; drop or [`Encoder::finish`] it at the message
/// boundary.
#[derive(Debug, Default)]
pub struct Encoder {
    out: Vec<u8>,
    strings: HashMap<String, u64>,
    digests: HashMap<[u8; 20], u64>,
    next_id: u64,
    /// Opaque payload bytes charged but not materialized (see module docs).
    opaque: usize,
}

impl Encoder {
    /// A fresh encoder with an empty dictionary.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Appends a LEB128 varint.
    pub fn write_varint(&mut self, x: u64) {
        put_varint(&mut self.out, x);
    }

    /// Appends a string through the dictionary: inline on first occurrence,
    /// a varint back-reference afterwards.
    pub fn encode_str(&mut self, s: &str) {
        if let Some(&id) = self.strings.get(s) {
            self.out.push(DICT_REF);
            self.write_varint(id);
        } else {
            self.strings.insert(s.to_string(), self.next_id);
            self.next_id += 1;
            self.out.push(DICT_DEFINE);
            self.write_varint(s.len() as u64);
            self.out.extend_from_slice(s.as_bytes());
        }
    }

    /// Appends a 20-byte digest through the dictionary.
    pub fn encode_digest(&mut self, d: &[u8; 20]) {
        if let Some(&id) = self.digests.get(d) {
            self.out.push(DICT_REF);
            self.write_varint(id);
        } else {
            self.digests.insert(*d, self.next_id);
            self.next_id += 1;
            self.out.push(DICT_DEFINE);
            self.out.extend_from_slice(d);
        }
    }

    /// Appends one value.
    pub fn encode_value(&mut self, v: &Value) {
        match v {
            Value::Node(n) => {
                self.out.push(TAG_NODE);
                self.write_varint(u64::from(*n));
            }
            Value::Int(i) => {
                self.out.push(TAG_INT);
                self.write_varint(zigzag(*i));
            }
            Value::Str(s) => {
                self.out.push(TAG_STR);
                self.encode_str(s.as_str());
            }
            Value::Bool(b) => {
                self.out.push(TAG_BOOL);
                self.out.push(u8::from(*b));
            }
            Value::List(l) => {
                self.out.push(TAG_LIST);
                self.write_varint(l.len() as u64);
                for v in l.iter() {
                    self.encode_value(v);
                }
            }
            Value::Digest(d) => {
                self.out.push(TAG_DIGEST);
                self.encode_digest(d);
            }
            Value::Payload(sz) => {
                self.out.push(TAG_PAYLOAD);
                self.write_varint(u64::from(*sz));
                self.opaque += *sz as usize;
            }
        }
    }

    /// Appends one tuple: relation (dictionary string), location, values.
    pub fn encode_tuple(&mut self, t: &Tuple) {
        self.encode_str(t.relation.as_str());
        self.write_varint(u64::from(t.location));
        self.write_varint(t.values.len() as u64);
        for v in &t.values {
            self.encode_value(v);
        }
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.out
    }

    /// Bytes this encoding is *charged* on the modelled wire: the encoded
    /// buffer plus the declared sizes of opaque payloads (whose content is
    /// never materialized but must still cross the network uncompressed).
    pub fn charged_len(&self) -> usize {
        self.out.len() + self.opaque
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Per-message decoder: the dictionary layer over a [`Reader`].  Mirrors
/// [`Encoder`]; torn, truncated or hostile input surfaces as a
/// [`DecodeError`] — decoding never panics.
#[derive(Debug)]
pub struct Decoder<'a> {
    r: Reader<'a>,
    /// Definition-order dictionary; strings and digests share the id space.
    entries: Vec<DictEntry>,
}

#[derive(Debug, Clone)]
enum DictEntry {
    Str(String),
    Digest([u8; 20]),
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `input` with an empty dictionary.
    pub fn new(input: &'a [u8]) -> Decoder<'a> {
        Decoder {
            r: Reader::new(input),
            entries: Vec::new(),
        }
    }

    /// A varint length or count, bounded by what is physically present.
    fn read_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.r.varint()?;
        self.r.count(n)
    }

    fn read_u32(&mut self, overflow: &'static str) -> Result<u32, DecodeError> {
        u32::try_from(self.r.varint()?).map_err(|_| self.r.error(overflow))
    }

    /// Resolves a back-reference to its dictionary entry.
    fn entry(&mut self) -> Result<&DictEntry, DecodeError> {
        let id = self.r.varint()?;
        usize::try_from(id)
            .ok()
            .and_then(|id| self.entries.get(id))
            .ok_or_else(|| self.r.error("dictionary reference out of range"))
    }

    /// Reads a dictionary string (define or back-reference).
    pub fn decode_str(&mut self) -> Result<String, DecodeError> {
        match self.r.u8()? {
            DICT_DEFINE => {
                let len = self.read_len()?;
                let s = self.r.utf8(len)?.to_string();
                self.entries.push(DictEntry::Str(s.clone()));
                Ok(s)
            }
            DICT_REF => match self.entry()? {
                DictEntry::Str(s) => Ok(s.clone()),
                DictEntry::Digest(_) => Err(self
                    .r
                    .error("reference to a digest where a string was expected")),
            },
            _ => Err(self.r.error("invalid dictionary op")),
        }
    }

    /// Reads a dictionary digest (define or back-reference).
    pub fn decode_digest(&mut self) -> Result<[u8; 20], DecodeError> {
        match self.r.u8()? {
            DICT_DEFINE => {
                let d = self.r.array()?;
                self.entries.push(DictEntry::Digest(d));
                Ok(d)
            }
            DICT_REF => match self.entry()? {
                DictEntry::Digest(d) => Ok(*d),
                DictEntry::Str(_) => Err(self
                    .r
                    .error("reference to a string where a digest was expected")),
            },
            _ => Err(self.r.error("invalid dictionary op")),
        }
    }

    fn decode_value_at(&mut self, depth: usize) -> Result<Value, DecodeError> {
        match self.r.u8()? {
            TAG_NODE => self.read_u32("node id overflows u32").map(Value::Node),
            TAG_INT => Ok(Value::Int(unzigzag(self.r.varint()?))),
            TAG_STR => Ok(Value::from(self.decode_str()?)),
            TAG_BOOL => match self.r.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(self.r.error("invalid bool byte")),
            },
            TAG_LIST => {
                if depth >= MAX_LIST_DEPTH {
                    return Err(self.r.error("list nesting too deep"));
                }
                let len = self.read_len()?;
                let mut items = Vec::with_capacity(len.min(64));
                for _ in 0..len {
                    items.push(self.decode_value_at(depth + 1)?);
                }
                Ok(Value::list(items))
            }
            TAG_DIGEST => Ok(Value::Digest(self.decode_digest()?)),
            TAG_PAYLOAD => self
                .read_u32("payload size overflows u32")
                .map(Value::Payload),
            _ => Err(self.r.error("invalid value tag")),
        }
    }

    /// Reads one value.
    pub fn decode_value(&mut self) -> Result<Value, DecodeError> {
        self.decode_value_at(0)
    }

    /// Reads one tuple.
    pub fn decode_tuple(&mut self) -> Result<Tuple, DecodeError> {
        let relation = self.decode_str()?;
        let location = self.read_u32("location overflows u32")?;
        let nvalues = self.read_len()?;
        let mut values = Vec::with_capacity(nvalues.min(64));
        for _ in 0..nvalues {
            values.push(self.decode_value()?);
        }
        Ok(Tuple::new(relation, location, values))
    }
}

/// Encodes a whole message — `varint(count)` followed by the tuples sharing
/// one dictionary.
pub fn encode_message(tuples: &[Tuple]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.write_varint(tuples.len() as u64);
    for t in tuples {
        enc.encode_tuple(t);
    }
    enc.finish()
}

/// Decodes a message produced by [`encode_message`].  Trailing bytes are an
/// error: a message is a complete, self-delimiting unit.
pub fn decode_message(bytes: &[u8]) -> Result<Vec<Tuple>, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let count = dec.read_len()?;
    let mut tuples = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        tuples.push(dec.decode_tuple()?);
    }
    dec.r.finish()?;
    Ok(tuples)
}

/// Compressed counterpart of [`crate::wire::message_size`]: UDP/IP overhead
/// plus the codec's own framing (varint tuple count, dictionary-encoded
/// tuples) plus an already-compressed annotation of `annotation_bytes`.
pub fn compressed_message_size(tuples: &[Tuple], annotation_bytes: usize) -> usize {
    let mut enc = Encoder::new();
    enc.write_varint(tuples.len() as u64);
    for t in tuples {
        enc.encode_tuple(t);
    }
    UDP_IP_HEADER_BYTES + enc.charged_len() + annotation_bytes
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

/// Compresses an opaque byte payload with the define-or-reference scheme
/// over its alphanumeric word tokens.  Deterministic, self-contained, and
/// exactly invertible by [`decompress_bytes`]; repetitive rendered text
/// (polynomials full of recurring VIDs) shrinks substantially, while
/// incompressible input grows by at most the raw-chunk framing.
pub fn compress_bytes(input: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    let mut dict: HashMap<&[u8], u64> = HashMap::new();
    let mut raw_start = 0usize;
    let mut i = 0usize;
    // Flushes input[raw_start..end] as one raw chunk.
    fn flush_raw(enc: &mut Encoder, input: &[u8], raw_start: usize, end: usize) {
        if end > raw_start {
            enc.write_varint(OP_RAW);
            enc.write_varint((end - raw_start) as u64);
            enc.out.extend_from_slice(&input[raw_start..end]);
        }
    }
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
            flush_raw(&mut enc, input, raw_start, start);
            raw_start = i;
            if let Some(&id) = dict.get(token) {
                enc.write_varint(OP_REF0 + id);
            } else {
                let id = dict.len() as u64;
                dict.insert(token, id);
                enc.write_varint(OP_DEF);
                enc.write_varint(token.len() as u64);
                enc.out.extend_from_slice(token);
            }
        } else {
            i += 1;
        }
    }
    flush_raw(&mut enc, input, raw_start, input.len());
    enc.finish()
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

    fn roundtrip_tuple(t: &Tuple) {
        let bytes = encode_message(std::slice::from_ref(t));
        let back = decode_message(&bytes).expect("roundtrip decodes");
        assert_eq!(back, vec![t.clone()]);
    }

    #[test]
    fn varint_len_matches_the_encoding() {
        for x in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.write_varint(x);
            assert_eq!(enc.bytes().len(), varint_len(x));
        }
    }

    #[test]
    fn zigzag_roundtrips_signed_extremes() {
        for i in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn tuples_roundtrip_across_variants() {
        roundtrip_tuple(&Tuple::new("link", 1, vec![Value::Node(2), Value::Int(-7)]));
        roundtrip_tuple(&Tuple::new(
            "mixed",
            9,
            vec![
                Value::from("héllo ✓ unicode"),
                Value::Bool(true),
                Value::Digest([0xAB; 20]),
                Value::Payload(1024),
                Value::list(vec![
                    Value::Int(i64::MIN),
                    Value::list(vec![Value::from("nested")]),
                ]),
            ],
        ));
    }

    #[test]
    fn dictionary_makes_repeats_cheap() {
        let vid = [0x5A; 20];
        let one = Tuple::new("prov", 3, vec![Value::Digest(vid)]);
        let mut enc_once = Encoder::new();
        enc_once.encode_tuple(&one);
        let first = enc_once.bytes().len();
        enc_once.encode_tuple(&one);
        let second = enc_once.bytes().len() - first;
        // The repeat references both the relation and the digest by id.
        assert!(second < first / 2, "repeat cost {second} vs first {first}");
    }

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
    fn payloads_are_charged_but_not_materialized() {
        let t = Tuple::new("packet", 0, vec![Value::Payload(1024)]);
        let mut enc = Encoder::new();
        enc.encode_tuple(&t);
        assert!(enc.bytes().len() < 32);
        assert!(enc.charged_len() >= 1024);
        roundtrip_tuple(&t);
    }

    #[test]
    fn torn_input_never_panics() {
        let tuples = vec![
            Tuple::new(
                "mixed",
                7,
                vec![
                    Value::from("répeat"),
                    Value::from("répeat"),
                    Value::Digest([3; 20]),
                    Value::list(vec![Value::Int(-1), Value::Bool(false)]),
                ],
            ),
            Tuple::new("mixed", 8, vec![Value::Digest([3; 20])]),
        ];
        let bytes = encode_message(&tuples);
        for cut in 0..bytes.len() {
            // Every strict prefix must produce a typed error, not a panic.
            assert!(decode_message(&bytes[..cut]).is_err());
        }
        assert!(decode_message(&bytes).is_ok());
    }

    #[test]
    fn hostile_lengths_and_references_are_rejected() {
        // Declared string length far beyond the physical input.
        let mut enc = Encoder::new();
        enc.write_varint(1); // one tuple
        enc.out.push(DICT_DEFINE);
        enc.write_varint(1 << 30);
        assert!(decode_message(enc.bytes()).is_err());
        // Reference to an id never defined.
        let mut enc = Encoder::new();
        enc.write_varint(1);
        enc.out.push(DICT_REF);
        enc.write_varint(99);
        assert!(decode_message(enc.bytes()).is_err());
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
