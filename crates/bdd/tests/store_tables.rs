//! The store's unique table is rebuilt from its node arena as it grows, so
//! a handle stays the node's creation rank through every growth, and a
//! decode that grows the table mid-way still rebuilds the encoded function.

use exspan_bdd::{Bdd, BddStore};

/// The partial disjunctions of `x0·x10 + x1·x11 + … + x9·x19` under the
/// natural variable order, in the order they are made.  The whole function
/// has thousands of nodes, more than the table's first several sizes hold.
fn interleaved(s: &mut BddStore) -> Vec<Bdd> {
    let mut acc = Bdd::FALSE;
    (0..10)
        .map(|i| {
            let (a, b) = (s.var(i), s.var(i + 10));
            let ab = s.and(a, b);
            acc = s.or(acc, ab);
            acc
        })
        .collect()
}

fn encoded(s: &mut BddStore, f: Bdd) -> Vec<u8> {
    let mut bytes = Vec::new();
    s.encode(f, &mut bytes);
    bytes
}

#[test]
fn remaking_every_node_after_table_growths_returns_its_old_handle() {
    let mut s = BddStore::new();
    let made = interleaved(&mut s);
    let nodes = s.node_count();
    assert!(nodes > 1_000, "{nodes} nodes: the table grew too few times");
    // Each partial result is a new function, made after the one before it:
    // its handle, a creation rank, is higher.
    assert!(made.windows(2).all(|w| w[0] < w[1]));
    // Building the same functions again and decoding their encodings
    // rebuilds every node they reach: nothing new, and the old handles.
    assert_eq!(interleaved(&mut s), made);
    for &f in made.iter().rev() {
        let bytes = encoded(&mut s, f);
        assert_eq!(s.decode(&bytes), f);
    }
    assert_eq!(s.node_count(), nodes);
}

#[test]
fn decoding_into_a_growing_store_rebuilds_the_same_function() {
    let mut source = BddStore::new();
    let f = *interleaved(&mut source).last().unwrap();
    let bytes = encoded(&mut source, f);
    // An empty store grows its table several times during the decode; a
    // busy one made other nodes first, so the decoded ones take other
    // handles there.
    let mut busy = BddStore::new();
    let vars: Vec<Bdd> = (0..40).rev().map(|v| busy.var(v)).collect();
    busy.or_all(vars);
    for mut store in [BddStore::new(), busy] {
        let g = store.decode(&bytes);
        assert_eq!(encoded(&mut store, g), bytes);
        for assignment in [0u32, 0x3ff, 0xf_fc00, 0x5_5555, 0xa_aaaa, 0x8_0001] {
            let value = |v| assignment >> v & 1 == 1;
            assert_eq!(store.evaluate(g, value), source.evaluate(f, value));
        }
    }
}
