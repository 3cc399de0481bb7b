//! Tests of `exspan_types::compress`: exact charges of the dictionary size
//! model, its annotation additivity, and properties of the byte codec —
//! lossless on arbitrary payloads, and *no* input, however torn, may ever
//! panic its decoder.

use exspan_types::compress::{compress_bytes, compressed_message_size, decompress_bytes};
use exspan_types::{Symbol, Tuple, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary unicode strings, surrogate code points skipped by
/// `char::from_u32` (strings of every plane, including the empty string).
fn arb_string() -> impl Strategy<Value = String> {
    vec((0u32..0x11_0000).boxed(), 0..12)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

fn arb_digest() -> impl Strategy<Value = [u8; 20]> {
    vec(any::<u8>().boxed(), 20..21).prop_map(|bytes| {
        let mut d = [0u8; 20];
        d.copy_from_slice(&bytes);
        d
    })
}

/// Arbitrary values over the full `Value` enum, lists nested up to depth 3.
fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        any::<u32>().prop_map(Value::Node),
        any::<i64>().prop_map(Value::Int),
        arb_string().prop_map(|s| Value::Str(Symbol::intern(&s))),
        any::<bool>().prop_map(Value::Bool),
        arb_digest().prop_map(Value::Digest),
        any::<u32>().prop_map(Value::Payload),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| vec(inner, 0..4).prop_map(Value::list))
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (arb_string(), any::<u32>(), vec(arb_value(), 0..5))
        .prop_map(|(name, location, values)| Tuple::new(name.as_str(), location, values))
}

/// The charge of one message, less the UDP/IP header every message pays.
fn charge(tuples: &[Tuple]) -> usize {
    compressed_message_size(tuples, 0) - exspan_types::wire::UDP_IP_HEADER_BYTES
}

fn digests(n: u8) -> impl Iterator<Item = Value> {
    (0..n).map(|i| Value::Digest([i; 20]))
}

/// Exact, hand-counted charges of the dictionary model, one per rule of its
/// grammar.  `r` below is the relation `"r"`, defined as id 0 in every
/// message: `0x00 varint(1) b'r'`, 3 bytes.
#[test]
fn the_dictionary_charge_is_pinned() {
    // Zero tuples: the count varint alone; an annotation adds its bytes.
    assert_eq!(charge(&[]), 1);
    assert_eq!(compressed_message_size(&[], 7), 28 + 1 + 7);

    // First occurrence vs back-reference.  "link" is defined inline in the
    // first tuple (1 op + 1 len + 4 bytes) and costs op + id in the second.
    let link = |at, to| Tuple::new("link", at, vec![Value::Node(to)]);
    assert_eq!(charge(&[link(1, 2)]), 1 + (6 + 1 + 1 + 2));
    assert_eq!(
        charge(&[link(1, 2), link(2, 3)]),
        1 + (6 + 1 + 1 + 2) + (2 + 1 + 1 + 2)
    );
    let ab = Value::from("ab");
    // count, r, location, nvalues, then tag + define "ab", tag + ref.
    assert_eq!(
        charge(&[Tuple::new("r", 0, vec![ab.clone()])]),
        1 + 3 + 1 + 1 + 5
    );
    assert_eq!(
        charge(&[Tuple::new("r", 0, vec![ab.clone(), ab])]),
        1 + 3 + 1 + 1 + 5 + 3
    );

    // Relation names and string values share one dictionary.
    assert_eq!(
        charge(&[Tuple::new("r", 0, vec![Value::from("r")])]),
        1 + 3 + 1 + 1 + 3
    );

    // Strings and digests share one id space: after `r` (id 0) and 127
    // digests (ids 1..=127), "s" is id 128, so its back-reference takes a
    // 2-byte varint.  Separate spaces would have made it id 1.
    let s = Value::from("s");
    let mut values: Vec<Value> = digests(127).collect();
    values.extend([s.clone(), s]);
    let defines = 127 * (1 + 1 + 20) + (1 + 1 + 1 + 1);
    assert_eq!(
        charge(&[Tuple::new("r", 0, values)]),
        1 + 3 + 1 + 2 + defines + (1 + 1 + 2)
    );

    // A back-reference to id >= 128 costs a 2-byte varint, one below it 1.
    let mut values: Vec<Value> = digests(128).collect();
    values.extend([Value::Digest([127; 20]), Value::Digest([0; 20])]);
    let defines = 128 * (1 + 1 + 20);
    assert_eq!(
        charge(&[Tuple::new("r", 0, values)]),
        1 + 3 + 1 + 2 + defines + (1 + 1 + 2) + (1 + 1 + 1)
    );

    // Ints are zigzag varints: -1 -> 1 (1 byte), -65 -> 129 (2 bytes),
    // i64::MIN -> u64::MAX (10 bytes); each behind a tag byte.
    let ints = vec![Value::Int(-1), Value::Int(-65), Value::Int(i64::MIN)];
    assert_eq!(
        charge(&[Tuple::new("r", 0, ints)]),
        1 + 3 + 1 + 1 + (2 + 3 + 11)
    );

    // Locations and nodes are varints; a bool is tag + byte.
    let t = Tuple::new("r", 300, vec![Value::Node(128), Value::Bool(true)]);
    assert_eq!(charge(&[t]), 1 + 3 + 2 + 1 + (1 + 2) + 2);

    // A nested list is tag + length varint + its items; lists are never
    // dictionary entries, but the strings inside them are.
    let nested = Value::list(vec![
        Value::Int(1),
        Value::list(vec![Value::from("x"), Value::from("x")]),
        Value::list(Vec::new()),
    ]);
    let items = 2 + (2 + 4 + 3) + 2;
    assert_eq!(
        charge(&[Tuple::new("r", 0, vec![nested])]),
        1 + 3 + 1 + 1 + 2 + items
    );

    // A payload costs its tag and size varint plus its declared bytes.
    let t = Tuple::new("r", 0, vec![Value::Payload(1024)]);
    assert_eq!(charge(&[t]), 1 + 3 + 1 + 1 + (1 + 2) + 1024);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn byte_payloads_round_trip(payload in vec(any::<u8>().boxed(), 0..512)) {
        let packed = compress_bytes(&payload);
        prop_assert_eq!(decompress_bytes(&packed).expect("lossless"), payload);
    }

    #[test]
    fn compressed_size_accounts_annotation(
        tuples in vec(arb_tuple().boxed(), 0..4),
        annotation in 0usize..4096,
    ) {
        // The charged model is annotation-additive: the annotation rides
        // uncompressed on top of the dictionary-coded tuple bytes.
        let base = compressed_message_size(&tuples, 0);
        prop_assert_eq!(compressed_message_size(&tuples, annotation), base + annotation);
    }

    #[test]
    fn torn_payload_never_panics(
        payload in vec(any::<u8>().boxed(), 0..256),
        cut in any::<usize>(),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut packed = compress_bytes(&payload);
        packed.truncate(cut % (packed.len() + 1));
        if !packed.is_empty() {
            let idx = flip % packed.len();
            packed[idx] ^= 1 << bit;
        }
        let _ = decompress_bytes(&packed);
    }

    #[test]
    fn garbage_never_panics(junk in vec(any::<u8>().boxed(), 0..128)) {
        let _ = decompress_bytes(&junk);
    }
}
