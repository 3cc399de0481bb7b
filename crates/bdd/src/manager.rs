//! The node store, its handles, its canonical encoding and the numbering
//! of its variables; the crate docs describe them.

use exspan_types::codec::{put_varint, varint_len, Reader};
use exspan_types::fxhash::FxHashMap;
use exspan_types::Vid;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a boolean variable.  In ExSPAN each variable stands for one
/// base tuple (or, at node granularity, one node / trust domain).
pub type VarId = u32;

/// Bound on a store's apply memo, a direct-mapped cache that grows with the
/// store up to this many slots and is overwritten, never cleared.
pub const MEMO_CAPACITY: usize = 1 << 16;

/// A handle to a BDD node: its index in the [`BddStore`] that made it.
///
/// Handles are meaningful relative to that store only: a handle from
/// another store (an engine's value-provenance store, or another query
/// session's) names an unrelated function there, or none.  Equal handles of
/// one store denote semantically equal boolean functions (canonicity of
/// ROBDDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant `false` function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant `true` function.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this handle is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// The slot of an internal node in its store's arena.
    fn slot(self) -> usize {
        self.0 as usize - 2
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: VarId,
    low: Bdd,
    high: Bdd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    And,
    Or,
}

/// Counters of a store's bounded memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Apply results answered from the memo.
    pub hits: u64,
    /// Apply recursions that had to compute.
    pub misses: u64,
    /// Always 0 (the memo is never cleared); kept for the end-to-end benchmark.
    pub clears: u64,
    /// Occupied apply-memo slots (≤ [`MEMO_CAPACITY`]).
    pub entries: usize,
}

/// One node arena with its unique table and bounded apply memo.
///
/// ```
/// use exspan_bdd::{Bdd, BddStore};
/// let mut s = BddStore::new();
/// let a = s.var(0);
/// let b = s.var(1);
/// let ab = s.and(a, b);
/// assert_eq!(s.or(a, ab), a); // absorption
/// assert_eq!(s.and(a, Bdd::FALSE), Bdd::FALSE);
/// ```
#[derive(Debug, Default)]
pub struct BddStore {
    /// Every internal node, the one with handle `h` at slot `h - 2`.
    nodes: Vec<Node>,
    /// Each internal node's handle (0 in an empty slot), open-addressed and
    /// linearly probed, a power of two long and at most ¾ full.
    unique: Vec<u32>,
    /// Direct-mapped `[a, b | op << 31, result]` apply results (`a` is 0 in
    /// an empty slot), as many as `unique` up to [`MEMO_CAPACITY`].
    memo: Vec<[u32; 3]>,
    hits: u64,
    misses: u64,
    /// The epoch of the last walk that reached each internal node, by slot
    /// (grown on demand), and the current walk's epoch.
    marks: Vec<u32>,
    epoch: u32,
    /// Each node's position in the encoding being written, by slot (valid
    /// where `marks` holds the current epoch; grown by encodings only).
    positions: Vec<u32>,
    /// The walk's stack, kept between walks (and a decoder's node list).
    stack: Vec<Bdd>,
}

impl BddStore {
    /// Creates a store holding only the two terminals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes, including the two terminals.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + 2
    }

    /// Memo counters (hits, misses, occupied slots).
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            clears: 0,
            entries: self.memo.iter().filter(|e| e[0] != 0).count(),
        }
    }

    fn node(&self, b: Bdd) -> Node {
        self.nodes[b.slot()]
    }

    /// The unique-table slot holding `node`'s handle, or the empty one
    /// where it belongs.
    fn probe(&self, node: Node) -> usize {
        let mut i = slot_of(node.var, node.low.0, node.high.0, self.unique.len());
        while self.unique[i] != 0 && self.node(Bdd(self.unique[i])) != node {
            i = (i + 1) & (self.unique.len() - 1);
        }
        i
    }

    fn mk_node(&mut self, var: VarId, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        if 4 * (self.nodes.len() + 1) > 3 * self.unique.len() {
            // Rebuild from the arena at twice the length: a node keeps its
            // handle, its creation rank.  The memo grows alongside.
            self.unique = vec![0; (2 * self.unique.len()).max(64)];
            for slot in 0..self.nodes.len() {
                let i = self.probe(self.nodes[slot]);
                self.unique[i] = slot as u32 + 2;
            }
            let len = self.unique.len().min(MEMO_CAPACITY);
            if self.memo.len() < len {
                let old = std::mem::replace(&mut self.memo, vec![[0; 3]; len]);
                for e in old.into_iter().filter(|e| e[0] != 0) {
                    self.memo[slot_of(e[0], e[1], 0, len)] = e;
                }
            }
        }
        let node = Node { var, low, high };
        let i = self.probe(node);
        if self.unique[i] == 0 {
            assert!(self.node_count() < 1 << 31, "store outgrew 31-bit handles");
            self.unique[i] = self.node_count() as u32;
            self.nodes.push(node);
        }
        Bdd(self.unique[i])
    }

    /// Returns the BDD for a single positive variable literal.
    pub fn var(&mut self, v: VarId) -> Bdd {
        self.mk_node(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// Conjunction of two BDDs.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(Op::And, a, b)
    }

    /// Disjunction of two BDDs.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(Op::Or, a, b)
    }

    fn apply(&mut self, op: Op, a: Bdd, b: Bdd) -> Bdd {
        // Terminal short-circuits: `zero` absorbs, `one` is the identity.
        let (zero, one) = match op {
            Op::And => (Bdd::FALSE, Bdd::TRUE),
            Op::Or => (Bdd::TRUE, Bdd::FALSE),
        };
        if a == zero || b == zero {
            return zero;
        }
        if a == one || a == b {
            return b;
        }
        if b == one {
            return a;
        }
        // Normalize operand order for the (commutative) memo.
        let (x, y) = if a <= b { (a.0, b.0) } else { (b.0, a.0) };
        let y = y | (op as u32) << 31;
        let entry = self.memo[slot_of(x, y, 0, self.memo.len())];
        if entry[..2] == [x, y] {
            self.hits += 1;
            return Bdd(entry[2]);
        }
        self.misses += 1;
        let (na, nb) = (self.node(a), self.node(b));
        let var = na.var.min(nb.var);
        let (a_low, a_high) = if na.var == var {
            (na.low, na.high)
        } else {
            (a, a)
        };
        let (b_low, b_high) = if nb.var == var {
            (nb.low, nb.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a_low, b_low);
        let high = self.apply(op, a_high, b_high);
        let r = self.mk_node(var, low, high);
        // The recursion may have grown the memo: find the slot anew.
        let slot = slot_of(x, y, 0, self.memo.len());
        self.memo[slot] = [x, y, r.0];
        r
    }

    /// Conjunction of an iterator of BDDs (`true` for an empty iterator).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for b in items {
            acc = self.and(acc, b);
            if acc == Bdd::FALSE {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of BDDs (`false` for an empty iterator).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for b in items {
            acc = self.or(acc, b);
            if acc == Bdd::TRUE {
                break;
            }
        }
        acc
    }

    /// Evaluates the function under a total assignment: `assignment(v)` gives
    /// the truth value of variable `v`.
    pub fn evaluate<F: Fn(VarId) -> bool>(&self, b: Bdd, assignment: F) -> bool {
        let mut cur = b;
        while !cur.is_terminal() {
            let n = self.node(cur);
            cur = if assignment(n.var) { n.high } else { n.low };
        }
        cur == Bdd::TRUE
    }

    /// Estimated number of bytes needed to ship this BDD over the network:
    /// each non-terminal node serializes its variable id and two child
    /// references (4 + 4 + 4 bytes), plus a 4-byte root reference.  This is
    /// the flat model every existing figure is built on; it depends only on
    /// the reachable structure, never on handles.
    pub fn serialized_size(&mut self, b: Bdd) -> usize {
        let mut reached = 0;
        self.walk(b, |_| reached += 1);
        4 + reached * 12
    }

    /// The set of variables the function actually depends on, ascending.
    ///
    /// Absorption can make a function independent of variables that appear in
    /// the original polynomial — e.g. `a + a·b` does not depend on `b`.
    pub fn support(&mut self, b: Bdd) -> Vec<VarId> {
        let mut vars = Vec::new();
        self.walk(b, |n| vars.push(n.var));
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Starts a walk: grows the marks to the arena and takes a fresh epoch.
    fn begin_walk(&mut self) {
        self.marks.resize(self.nodes.len(), 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The epoch wrapped: forget every mark of the last 2³² walks.
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    fn marked(&self, b: Bdd) -> bool {
        self.marks[b.slot()] == self.epoch
    }

    /// Visits each internal node reachable from `b` once, marking it with
    /// this walk's epoch.
    fn walk(&mut self, b: Bdd, mut visit: impl FnMut(&Node)) {
        self.begin_walk();
        self.stack.push(b);
        while let Some(cur) = self.stack.pop() {
            if cur.is_terminal() || self.marked(cur) {
                continue;
            }
            self.marks[cur.slot()] = self.epoch;
            let n = &self.nodes[cur.slot()];
            visit(n);
            self.stack.extend([n.low, n.high]);
        }
    }

    /// Hands `emit` the integers of `b`'s canonical encoding, in order: the
    /// nodes reachable from `b` in structural postorder (low child first),
    /// each as its variable and two child references, then the root's
    /// reference.  A reference is 0 or 1 for a terminal and a node's
    /// position + 2 otherwise, so a terminal function is its reference alone.
    fn postorder(&mut self, b: Bdd, mut emit: impl FnMut(u64)) {
        self.begin_walk();
        self.positions.resize(self.nodes.len(), 0);
        let reference = |s: &Self, x: Bdd| match x.is_terminal() {
            true => u64::from(x.0),
            false => u64::from(s.positions[x.slot()]) + 2,
        };
        let mut next = 0;
        self.stack.extend((!b.is_terminal()).then_some(b));
        while let Some(&cur) = self.stack.last() {
            // Descend into the first child not yet written, low first; the
            // stack is a path of an acyclic graph, so it holds no node twice.
            let n = self.node(cur);
            let mut pending = [n.low, n.high].into_iter();
            if let Some(child) = pending.find(|&c| !c.is_terminal() && !self.marked(c)) {
                self.stack.push(child);
                continue;
            }
            self.stack.pop();
            emit(u64::from(n.var));
            emit(reference(self, n.low));
            emit(reference(self, n.high));
            self.marks[cur.slot()] = self.epoch;
            self.positions[cur.slot()] = next;
            next += 1;
        }
        emit(reference(self, b));
    }

    /// Appends `b`'s canonical encoding to `out`: the integers of a
    /// structural postorder of its nodes, as varints.  Variable ids are
    /// written as they are.
    pub fn encode(&mut self, b: Bdd, out: &mut Vec<u8>) {
        self.postorder(b, |x| put_varint(out, x));
    }

    /// Rebuilds the function `bytes` encodes ([`BddStore::encode`]) in this
    /// store, bottom-up, and returns its handle — the one it already has if
    /// this store holds it.  Panics if `bytes` is not one whole encoding.
    pub fn decode(&mut self, bytes: &[u8]) -> Bdd {
        const MALFORMED: &str = "not a BDD encoding";
        let mut r = Reader::new(bytes);
        let mut built = std::mem::take(&mut self.stack);
        let resolve = |built: &[Bdd], x: u64| match x {
            0 => Bdd::FALSE,
            1 => Bdd::TRUE,
            x => *built.get(x as usize - 2).expect(MALFORMED),
        };
        let root = loop {
            // A node is three integers and the root reference one, so an
            // integer that ends the input is the root.
            let first = r.varint().expect(MALFORMED);
            if r.is_empty() {
                break resolve(&built, first);
            }
            let var = VarId::try_from(first).expect(MALFORMED);
            let low = resolve(&built, r.varint().expect(MALFORMED));
            let high = resolve(&built, r.varint().expect(MALFORMED));
            built.push(self.mk_node(var, low, high));
        };
        built.clear();
        self.stack = built;
        root
    }

    /// Length of `b`'s canonical encoding ([`BddStore::encode`]): what it
    /// costs under the compressed wire model.  Like
    /// [`BddStore::serialized_size`] it is a pure function of the reachable
    /// structure, so compressed byte counts are identical at any shard count.
    pub fn compressed_serialized_size(&mut self, b: Bdd) -> usize {
        let mut size = 0;
        self.postorder(b, |x| size += varint_len(x));
        size
    }

    /// Counts satisfying assignments over the given number of variables.
    pub fn sat_count(&self, b: Bdd, num_vars: u32) -> u64 {
        // Returns (count below this node assuming node's var is the next
        // unassigned one, var index of this node or num_vars for terminals).
        fn go(s: &BddStore, b: Bdd, num_vars: u32, memo: &mut FxHashMap<Bdd, u64>) -> (u64, u32) {
            if b.is_terminal() {
                return (u64::from(b.0), num_vars);
            }
            let n = s.node(b);
            if let Some(&c) = memo.get(&b) {
                return (c, n.var);
            }
            let (cl, vl) = go(s, n.low, num_vars, memo);
            let (ch, vh) = go(s, n.high, num_vars, memo);
            let total = (cl << (vl - n.var - 1)) + (ch << (vh - n.var - 1));
            memo.insert(b, total);
            (total, n.var)
        }
        let (c, v) = go(self, b, num_vars, &mut FxHashMap::default());
        c << v
    }
}

/// The slot that a fixed multiplicative mix of three words picks in a table
/// of `len` slots, a power of two of at least 2: the mix's high bits.
fn slot_of(x: u32, y: u32, z: u32, len: usize) -> usize {
    let k = (u64::from(x) << 32 | u64::from(y)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let k = (k ^ u64::from(z)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (k >> (64 - len.trailing_zeros())) as usize
}

/// The numbering of keys (base tuples) as BDD variables, in first-seen
/// order, with each variable's [`Vid`] for trust assignments: a value-mode
/// engine's keyed by tuple, a condensed (BDD) query session's by VID.
///
/// ```
/// use exspan_bdd::{BddStore, Variables};
/// use exspan_types::{Tuple, Value};
/// let vid = |name: &str| Tuple::new(name, 0, vec![Value::Int(1)]).vid();
/// let (a, b) = (vid("a"), vid("b"));
/// let (mut vars, mut s) = (Variables::default(), BddStore::new());
/// let (va, vb) = (vars.id(a, |v| *v), vars.id(b, |v| *v));
/// let f = { let (x, y) = (s.var(va), s.var(vb)); s.and(x, y) };
/// assert!(vars.derivable_under(&s, f, |_| true));
/// assert!(!vars.derivable_under(&s, f, |v| v == a));
/// ```
#[derive(Debug)]
pub struct Variables<K> {
    /// Each key's variable, numbered in first-seen order.
    ids: FxHashMap<K, VarId>,
    /// Each variable's VID, indexed by variable.
    vids: Vec<Vid>,
}

impl<K> Default for Variables<K> {
    fn default() -> Self {
        Variables {
            ids: FxHashMap::default(),
            vids: Vec::new(),
        }
    }
}

impl<K: Hash + Eq> Variables<K> {
    /// The variable of `key`, numbered on first sight, when `vid` takes the
    /// key's VID.
    pub fn id(&mut self, key: K, vid: impl FnOnce(&K) -> Vid) -> VarId {
        let (next, vids) = (self.vids.len() as VarId, &mut self.vids);
        *self.ids.entry(key).or_insert_with_key(|key| {
            vids.push(vid(key));
            next
        })
    }

    /// Whether `b`, a function of `store` over these variables, holds using
    /// only trusted base tuples: each variable is true exactly when its VID
    /// is `trusted`.
    pub fn derivable_under(&self, store: &BddStore, b: Bdd, trusted: impl Fn(Vid) -> bool) -> bool {
        let vid = |v: VarId| self.vids.get(v as usize).copied();
        store.evaluate(b, |v| vid(v).is_some_and(&trusted))
    }
}

/// A [`BddStore`] behind an `Arc<Mutex<_>>`: clones are handles onto one
/// store, and each call takes its lock for its duration.  Nothing in the
/// workspace uses it: it exists for the end-to-end benchmark's BDD probe,
/// which measures the locked path from two threads, with exactly these
/// methods.  Own a [`BddStore`] instead.
#[derive(Debug, Clone, Default)]
pub struct BddManager {
    inner: Arc<Mutex<BddStore>>,
}

/// The store a [`BddManager`] is a handle onto: a manager, whose clones
/// share it.
pub type SharedBddStore = BddManager;

impl BddManager {
    /// Creates a fresh store containing only the two terminals.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle onto `store`: the store's own.
    pub fn with_store(store: SharedBddStore) -> Self {
        store
    }

    fn lock(&self) -> MutexGuard<'_, BddStore> {
        self.inner.lock().expect("shared BDD store poisoned")
    }

    /// Returns the BDD for a single positive variable literal.
    pub fn var(&mut self, v: VarId) -> Bdd {
        self.lock().var(v)
    }

    /// Returns the constant BDD for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Conjunction of two BDDs.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.lock().and(a, b)
    }

    /// Disjunction of two BDDs.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.lock().or(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_terminals() {
        let store = SharedBddStore::new();
        let m = BddManager::with_store(store.clone());
        assert!(Bdd::TRUE.is_terminal());
        assert!(Bdd::FALSE.is_terminal());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
        assert_eq!(BddStore::new().node_count(), 2);
        assert_eq!(store.lock().node_count(), 2);
    }

    #[test]
    fn identities() {
        let mut m = BddStore::new();
        let a = m.var(0);
        assert_eq!(m.and(a, Bdd::TRUE), a);
        assert_eq!(m.and(a, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(a, Bdd::FALSE), a);
        assert_eq!(m.or(a, Bdd::TRUE), Bdd::TRUE);
        assert_eq!(m.and(a, a), a);
        assert_eq!(m.or(a, a), a);
    }

    #[test]
    fn absorption_paper_example() {
        // The paper's example: a · (a + b) = a, and a + a·b = a.
        let mut m = BddStore::new();
        let a = m.var(0);
        let b = m.var(1);
        let a_plus_b = m.or(a, b);
        assert_eq!(m.and(a, a_plus_b), a);
        let ab = m.and(a, b);
        assert_eq!(m.or(a, ab), a);
        // Support shows b is no longer relevant.
        let f = m.or(a, ab);
        assert_eq!(m.support(f), vec![0]);
    }

    #[test]
    fn canonical_handles_mean_semantic_equality() {
        let mut m = BddStore::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        // (a+b)·c == a·c + b·c  (distributivity).
        let left = {
            let ab = m.or(a, b);
            m.and(ab, c)
        };
        let right = {
            let ac = m.and(a, c);
            let bc = m.and(b, c);
            m.or(ac, bc)
        };
        assert_eq!(left, right);
    }

    #[test]
    fn sizes_and_counts_do_not_depend_on_build_order_or_store() {
        // Handles are dense per store, so two stores number one function
        // differently; what leaves a store is a function of structure alone.
        let (mut s1, mut s2) = (BddStore::new(), BddStore::new());
        let f1 = {
            let (a, b, c) = (s1.var(0), s1.var(1), s1.var(2));
            let ab = s1.and(a, b);
            s1.or(ab, c)
        };
        let f2 = {
            let (c, b, a) = (s2.var(2), s2.var(1), s2.var(0));
            let ca = s2.or(c, a);
            let cb = s2.or(c, b);
            s2.and(cb, ca)
        };
        assert_eq!(s1.serialized_size(f1), s2.serialized_size(f2));
        assert_eq!(
            s1.compressed_serialized_size(f1),
            s2.compressed_serialized_size(f2)
        );
        assert_eq!(s1.sat_count(f1, 3), s2.sat_count(f2, 3));
        assert_eq!(s1.sat_count(f1, 3), 5);
    }

    #[test]
    fn satisfiability() {
        let mut m = BddStore::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert_ne!(ab, Bdd::FALSE);
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = BddStore::new();
        let a = m.var(0);
        let b = m.var(1);
        let or = m.or(a, b);
        let and = m.and(a, b);
        assert_eq!(m.sat_count(or, 2), 3);
        assert_eq!(m.sat_count(and, 2), 1);
        assert_eq!(m.sat_count(Bdd::TRUE, 2), 4);
        assert_eq!(m.sat_count(Bdd::FALSE, 2), 0);
        assert_eq!(m.sat_count(a, 3), 4);
    }

    #[test]
    fn serialized_size_grows_with_structure() {
        let mut m = BddStore::new();
        let a = m.var(0);
        assert_eq!(m.serialized_size(Bdd::TRUE), 4);
        let single = m.serialized_size(a);
        let b = m.var(1);
        let c = m.var(2);
        let f = {
            let ab = m.and(a, b);
            m.or(ab, c)
        };
        assert!(m.serialized_size(f) > single);
    }

    #[test]
    fn compressed_size_beats_flat_size_on_real_structure() {
        let mut m = BddStore::new();
        // Terminals: one varint byte vs the flat 4-byte root reference.
        assert_eq!(m.compressed_serialized_size(Bdd::TRUE), 1);
        assert_eq!(m.compressed_serialized_size(Bdd::FALSE), 1);
        // A chain conjunction over small variable ids: ~3 varint bytes per
        // node against the flat model's 12.
        let vars: Vec<Bdd> = (0..10).map(|i| m.var(i)).collect();
        let f = m.and_all(vars.iter().copied());
        let flat = m.serialized_size(f);
        let compressed = m.compressed_serialized_size(f);
        assert!(
            compressed * 2 < flat,
            "compressed {compressed} vs flat {flat}"
        );
        // Pure function of structure: recomputing gives the same answer.
        assert_eq!(m.compressed_serialized_size(f), compressed);
    }

    #[test]
    fn and_or_all_fold() {
        let mut m = BddStore::new();
        let vars: Vec<Bdd> = (0..4).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.iter().copied());
        assert!(m.evaluate(all, |_| true));
        assert!(!m.evaluate(all, |v| v != 2));
        let any = m.or_all(vars.iter().copied());
        assert!(m.evaluate(any, |v| v == 3));
        assert!(!m.evaluate(any, |_| false));
        assert_eq!(m.and_all(std::iter::empty()), Bdd::TRUE);
        assert_eq!(m.or_all(std::iter::empty()), Bdd::FALSE);
    }

    #[test]
    fn support_of_constant_is_empty() {
        let mut m = BddStore::new();
        assert!(m.support(Bdd::TRUE).is_empty());
        assert!(m.support(Bdd::FALSE).is_empty());
    }

    #[test]
    fn managers_share_the_store() {
        let store = SharedBddStore::new();
        let mut m1 = BddManager::with_store(store.clone());
        let mut m2 = BddManager::with_store(store.clone());
        let nodes = || store.lock().node_count();
        let before = nodes();
        let a1 = m1.var(7);
        let after_first = nodes();
        let a2 = m2.var(7);
        // The second manager's identical literal allocates nothing.
        assert_eq!(a1, a2);
        assert_eq!(nodes(), after_first);
        assert_eq!(after_first, before + 1);
        // Handles interchange between managers on the same store.
        let b = m1.var(8);
        let ab = m2.and(a1, b);
        assert!(store.lock().evaluate(ab, |_| true));
    }

    #[test]
    fn apply_memo_is_bounded_and_nodes_reach_steady_state() {
        let mut m = BddStore::new();
        // One churn round: tens of thousands of distinct pairwise
        // conjunctions — far more apply keys than MEMO_CAPACITY.
        let churn = |m: &mut BddStore| {
            // Coprime moduli: the pair (i % 509, i % 512) is distinct for
            // every i below 509·512, giving ~80k distinct apply keys.
            for i in 0..40_000u32 {
                let a = m.var(i % 509);
                let b = m.var(i % 512);
                let f = m.and(a, b);
                let hits = m.hits;
                assert_eq!(m.and(a, b), f);
                assert_eq!(m.hits, hits + u64::from(a != b), "a repeat missed");
                let _ = m.or(a, b);
            }
        };
        churn(&mut m);
        let after_first = m.node_count();
        // Long churn: repeat the identical workload.  Interning means no new
        // nodes; the direct-mapped memo means no unbounded table (the old
        // per-manager apply cache's regression) and nothing to clear.
        for _ in 0..3 {
            churn(&mut m);
        }
        let stats = m.memo_stats();
        assert_eq!(m.node_count(), after_first, "repeat workload allocated");
        assert!(stats.entries <= MEMO_CAPACITY);
        assert_eq!(stats.clears, 0);
        assert!(stats.hits > 0);
    }
}
