//! Hash-consed reduced ordered BDDs over a shared node store.
//!
//! Since the provenance-compression PR, nodes no longer live inside each
//! [`BddManager`]: every manager is a lightweight handle onto a
//! [`SharedBddStore`] — by default one process-global store — so structurally
//! identical condition BDDs built by different sessions, policies or nodes
//! cost a single allocation and share one bounded apply memo.
//!
//! # Determinism
//!
//! Node identifiers are **content-keyed**: an internal node's id is a 63-bit
//! Merkle-style hash of `(var, low.id, high.id)` (terminals are fixed at 0
//! and 1).  A node therefore has the same id no matter which handle interned
//! it first or how concurrent sessions interleave — handle values, and the
//! annotation tokens derived from them, are reproducible across runs and
//! shard counts.  Hash-consing canonicity is preserved: equal handles still
//! mean semantically equal boolean functions.  An id collision between two
//! distinct nodes is detected at interning time and panics; over a 63-bit
//! space this is astronomically unlikely at any workload size this
//! workspace reaches.
//!
//! # Memory
//!
//! The store's apply/negation memos are bounded at [`MEMO_CAPACITY`] entries
//! and epoch-cleared when full (the classic computed-table policy), so a
//! long-lived deployment no longer grows its memo without bound.  Interned
//! nodes are permanent — repeating a workload allocates nothing new, which
//! is what keeps long churn runs at steady-state memory.

use exspan_types::codec::varint_len;
use exspan_types::fxhash::{FxHashMap, FxHashSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Identifier of a boolean variable.  In ExSPAN each variable stands for one
/// base tuple (or, at node granularity, one node / trust domain).
pub type VarId = u32;

/// Bound on the shared store's apply + negation memo sizes.  When either
/// memo reaches this many entries both are cleared and the epoch counter in
/// [`MemoStats::clears`] increments.
pub const MEMO_CAPACITY: usize = 1 << 16;

/// High bit tagging internal-node ids, so they never collide with the
/// terminal ids 0 and 1.
const NODE_ID_TAG: u64 = 1 << 63;

/// A handle to a BDD node in a [`SharedBddStore`].
///
/// Handles are meaningful relative to the store that interned them — which
/// for every manager built with [`BddManager::new`] is the process-global
/// store, so such handles interchange freely across managers.  Equal handles
/// denote semantically equal boolean functions (canonicity of ROBDDs), and
/// because ids are content-keyed the *numeric* handle value is deterministic
/// too, independent of interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u64);

impl Bdd {
    /// The constant `false` function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant `true` function.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this handle is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: VarId,
    low: Bdd,
    high: Bdd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
}

/// Counters of the shared store's bounded memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Apply/negation results answered from the memo.
    pub hits: u64,
    /// Apply/negation recursions that had to compute.
    pub misses: u64,
    /// Times the memos were epoch-cleared after reaching [`MEMO_CAPACITY`].
    pub clears: u64,
    /// Current apply-memo entries (≤ [`MEMO_CAPACITY`]).
    pub entries: usize,
}

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Content-keyed node id: a Merkle-style hash of the node's shape.  The
/// chained mixing keeps `(low, high)` asymmetric; the tag bit keeps internal
/// ids disjoint from the terminals.
fn node_id(var: VarId, low: u64, high: u64) -> u64 {
    let mut h = mix(0x9E37_79B9_7F4A_7C15 ^ u64::from(var));
    h = mix(h ^ low);
    h = mix(h ^ high);
    h | NODE_ID_TAG
}

#[derive(Debug, Default)]
struct StoreInner {
    nodes: FxHashMap<u64, Node>,
    apply_memo: FxHashMap<(Op, Bdd, Bdd), Bdd>,
    not_memo: FxHashMap<Bdd, Bdd>,
    hits: u64,
    misses: u64,
    clears: u64,
    /// The node walk's visited set and stack, kept between walks so that
    /// charging a remote send allocates nothing.
    walk_seen: FxHashSet<Bdd>,
    walk_stack: Vec<Bdd>,
}

impl StoreInner {
    fn node(&self, b: Bdd) -> Node {
        *self
            .nodes
            .get(&b.0)
            .expect("BDD handle does not belong to this store")
    }

    fn mk_node(&mut self, var: VarId, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        let id = node_id(var, low.0, high.0);
        let node = Node { var, low, high };
        if let Some(existing) = self.nodes.get(&id) {
            assert_eq!(*existing, node, "content-keyed BDD node id collision");
            return Bdd(id);
        }
        self.nodes.insert(id, node);
        Bdd(id)
    }

    fn clear_memos(&mut self) {
        self.apply_memo.clear();
        self.not_memo.clear();
        self.clears += 1;
    }

    fn not(&mut self, a: Bdd) -> Bdd {
        if a == Bdd::TRUE {
            return Bdd::FALSE;
        }
        if a == Bdd::FALSE {
            return Bdd::TRUE;
        }
        if let Some(&r) = self.not_memo.get(&a) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let n = self.node(a);
        let low = self.not(n.low);
        let high = self.not(n.high);
        let r = self.mk_node(n.var, low, high);
        if self.not_memo.len() >= MEMO_CAPACITY {
            self.clear_memos();
        }
        self.not_memo.insert(a, r);
        r
    }

    fn apply(&mut self, op: Op, a: Bdd, b: Bdd) -> Bdd {
        // Terminal short-circuits.
        match op {
            Op::And => {
                if a == Bdd::FALSE || b == Bdd::FALSE {
                    return Bdd::FALSE;
                }
                if a == Bdd::TRUE {
                    return b;
                }
                if b == Bdd::TRUE {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == Bdd::TRUE || b == Bdd::TRUE {
                    return Bdd::TRUE;
                }
                if a == Bdd::FALSE {
                    return b;
                }
                if b == Bdd::FALSE {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
        }
        // Normalize operand order for the (commutative) memo.  Ids are
        // content-keyed, so the normalized key is itself deterministic.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.apply_memo.get(&key) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let na = self.node(a);
        let nb = self.node(b);
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
        if self.apply_memo.len() >= MEMO_CAPACITY {
            self.clear_memos();
        }
        self.apply_memo.insert(key, r);
        r
    }

    /// Collects the internal nodes reachable from `b` in `walk_seen` and
    /// returns how many there are.
    fn walk(&mut self, b: Bdd) -> usize {
        let StoreInner {
            nodes,
            walk_seen: seen,
            walk_stack: stack,
            ..
        } = self;
        seen.clear();
        stack.push(b);
        while let Some(cur) = stack.pop() {
            if !cur.is_terminal() && seen.insert(cur) {
                let n = nodes[&cur.0];
                stack.extend([n.low, n.high]);
            }
        }
        seen.len()
    }

    /// Varint-serialized size: nodes are numbered 0..n in a deterministic
    /// structural postorder (low child first), references are varints (0/1
    /// for terminals, local index + 2 otherwise), each node costs
    /// `varint(var) + varint(low ref) + varint(high ref)`, and the root
    /// reference closes the encoding.
    fn compressed_size_walk(&self, b: Bdd, local: &mut FxHashMap<u64, u64>, size: &mut usize) {
        if b.is_terminal() || local.contains_key(&b.0) {
            return;
        }
        let n = self.node(b);
        self.compressed_size_walk(n.low, local, size);
        self.compressed_size_walk(n.high, local, size);
        let child_ref = |x: Bdd, local: &FxHashMap<u64, u64>| {
            if x.is_terminal() {
                x.0
            } else {
                local[&x.0] + 2
            }
        };
        *size += varint_len(u64::from(n.var))
            + varint_len(child_ref(n.low, local))
            + varint_len(child_ref(n.high, local));
        local.insert(b.0, local.len() as u64);
    }

    fn compressed_serialized_size(&self, b: Bdd) -> usize {
        if b.is_terminal() {
            return varint_len(b.0);
        }
        let mut local = FxHashMap::default();
        let mut size = 0usize;
        self.compressed_size_walk(b, &mut local, &mut size);
        size + varint_len(local[&b.0] + 2)
    }
}

/// One interned node table plus bounded apply memo, shared by any number of
/// [`BddManager`] handles.  [`SharedBddStore::global`] is the process-wide
/// instance every `BddManager::new()` attaches to; [`SharedBddStore::new`]
/// creates an isolated store (tests and benchmarks that measure allocation
/// behavior want one not shared with concurrently running code).
#[derive(Debug, Clone, Default)]
pub struct SharedBddStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl SharedBddStore {
    /// Creates a fresh, isolated store containing only the two terminals.
    pub fn new() -> SharedBddStore {
        SharedBddStore::default()
    }

    /// The process-global store.
    pub fn global() -> SharedBddStore {
        static GLOBAL: OnceLock<SharedBddStore> = OnceLock::new();
        GLOBAL.get_or_init(SharedBddStore::new).clone()
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("shared BDD store poisoned")
    }

    /// Number of interned nodes, including the two terminals.
    pub fn node_count(&self) -> usize {
        self.lock().nodes.len() + 2
    }

    /// Memo counters (hits, misses, epoch clears, current entries).
    pub fn memo_stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            hits: inner.hits,
            misses: inner.misses,
            clears: inner.clears,
            entries: inner.apply_memo.len(),
        }
    }
}

/// A handle onto a [`SharedBddStore`] providing boolean operations.
///
/// ```
/// use exspan_bdd::BddManager;
/// let mut m = BddManager::new();
/// let a = m.var(0);
/// let b = m.var(1);
/// let ab = m.and(a, b);
/// let f = m.or(a, ab);
/// assert_eq!(f, a); // absorption
/// ```
///
/// `Clone` shares the store, and [`BddManager::node_count`] reports the
/// store's population: code that asserts allocation behavior should attach
/// to an isolated store via [`BddManager::with_store`].
#[derive(Debug, Clone)]
pub struct BddManager {
    store: SharedBddStore,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a handle onto the process-global shared store.
    pub fn new() -> Self {
        BddManager {
            store: SharedBddStore::global(),
        }
    }

    /// Creates a handle onto a specific (e.g. isolated) store.
    pub fn with_store(store: SharedBddStore) -> Self {
        BddManager { store }
    }

    /// Number of nodes in the underlying store, including the two terminals.
    pub fn node_count(&self) -> usize {
        self.store.node_count()
    }

    /// Memo counters of the underlying store.
    pub fn memo_stats(&self) -> MemoStats {
        self.store.memo_stats()
    }

    /// Returns the BDD for a single positive variable literal.
    pub fn var(&mut self, v: VarId) -> Bdd {
        self.store.lock().mk_node(v, Bdd::FALSE, Bdd::TRUE)
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
        self.store.lock().apply(Op::And, a, b)
    }

    /// Disjunction of two BDDs.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.store.lock().apply(Op::Or, a, b)
    }

    /// Negation of a BDD.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        self.store.lock().not(a)
    }

    /// Conjunction of an iterator of BDDs (`true` for an empty iterator).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut inner = self.store.lock();
        let mut acc = Bdd::TRUE;
        for b in items {
            acc = inner.apply(Op::And, acc, b);
            if acc == Bdd::FALSE {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of BDDs (`false` for an empty iterator).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut inner = self.store.lock();
        let mut acc = Bdd::FALSE;
        for b in items {
            acc = inner.apply(Op::Or, acc, b);
            if acc == Bdd::TRUE {
                break;
            }
        }
        acc
    }

    /// Evaluates the function under a total assignment: `assignment(v)` gives
    /// the truth value of variable `v`.
    pub fn evaluate<F: Fn(VarId) -> bool>(&self, b: Bdd, assignment: F) -> bool {
        let inner = self.store.lock();
        let mut cur = b;
        while !cur.is_terminal() {
            let n = inner.node(cur);
            cur = if assignment(n.var) { n.high } else { n.low };
        }
        cur == Bdd::TRUE
    }

    /// The set of variables the function actually depends on.
    ///
    /// Absorption can make a function independent of variables that appear in
    /// the original polynomial — e.g. `a + a·b` does not depend on `b`.
    pub fn support(&self, b: Bdd) -> Vec<VarId> {
        let mut inner = self.store.lock();
        inner.walk(b);
        let vars: std::collections::BTreeSet<VarId> =
            inner.walk_seen.iter().map(|&n| inner.node(n).var).collect();
        vars.into_iter().collect()
    }

    /// Estimated number of bytes needed to ship this BDD over the network:
    /// each non-terminal node serializes its variable id and two child
    /// references (4 + 4 + 4 bytes), plus a 4-byte root reference.  This is
    /// the flat model every existing figure is built on; it depends only on
    /// the reachable structure, never on node ids.
    pub fn serialized_size(&self, b: Bdd) -> usize {
        4 + self.store.lock().walk(b) * 12
    }

    /// Number of bytes this BDD costs under the compressed wire model:
    /// nodes numbered in deterministic structural postorder, variable ids
    /// and child references encoded as varints.  Like
    /// [`BddManager::serialized_size`] it is a pure function of the
    /// reachable structure, so compressed byte counts are identical at any
    /// shard count.
    pub fn compressed_serialized_size(&self, b: Bdd) -> usize {
        self.store.lock().compressed_serialized_size(b)
    }

    /// Counts satisfying assignments over the given number of variables.
    pub fn sat_count(&self, b: Bdd, num_vars: u32) -> u64 {
        fn go(
            inner: &StoreInner,
            b: Bdd,
            num_vars: u32,
            memo: &mut FxHashMap<Bdd, u64>,
        ) -> (u64, u32) {
            // Returns (count below this node assuming node's var is the next
            // unassigned one, var index of this node or num_vars for terminals).
            if b == Bdd::FALSE {
                return (0, num_vars);
            }
            if b == Bdd::TRUE {
                return (1, num_vars);
            }
            let n = inner.node(b);
            if let Some(&c) = memo.get(&b) {
                return (c, n.var);
            }
            let (cl, vl) = go(inner, n.low, num_vars, memo);
            let (ch, vh) = go(inner, n.high, num_vars, memo);
            let low = cl << (vl - n.var - 1);
            let high = ch << (vh - n.var - 1);
            let total = low + high;
            memo.insert(b, total);
            (total, n.var)
        }
        let inner = self.store.lock();
        let mut memo = FxHashMap::default();
        let (c, v) = go(&inner, b, num_vars, &mut memo);
        c << v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manager over an isolated store, for tests that assert allocation
    /// or memo behavior (the global store is shared with parallel tests).
    fn isolated() -> BddManager {
        BddManager::with_store(SharedBddStore::new())
    }

    #[test]
    fn constants_and_terminals() {
        let m = isolated();
        assert!(Bdd::TRUE.is_terminal());
        assert!(Bdd::FALSE.is_terminal());
        assert_eq!(m.constant(true), Bdd::TRUE);
        assert_eq!(m.constant(false), Bdd::FALSE);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn identities() {
        let mut m = BddManager::new();
        let a = m.var(0);
        assert_eq!(m.and(a, Bdd::TRUE), a);
        assert_eq!(m.and(a, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(a, Bdd::FALSE), a);
        assert_eq!(m.or(a, Bdd::TRUE), Bdd::TRUE);
        assert_eq!(m.and(a, a), a);
        assert_eq!(m.or(a, a), a);
    }

    #[test]
    fn negation_involution_and_excluded_middle() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = {
            let ab = m.and(a, b);
            let nb = m.not(b);
            m.or(ab, nb)
        };
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
        assert_eq!(m.or(f, nf), Bdd::TRUE);
        assert_eq!(m.and(f, nf), Bdd::FALSE);
    }

    #[test]
    fn absorption_paper_example() {
        // The paper's example: a · (a + b) = a, and a + a·b = a.
        let mut m = BddManager::new();
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
        let mut m = BddManager::new();
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
    fn handles_are_deterministic_across_stores_and_build_order() {
        // Content-keyed ids: the same function gets the same handle no
        // matter which store builds it or in what operation order.
        let mut m1 = isolated();
        let mut m2 = isolated();
        let f1 = {
            let a = m1.var(0);
            let b = m1.var(1);
            m1.and(a, b)
        };
        let f2 = {
            let b = m2.var(1);
            let a = m2.var(0);
            m2.and(b, a)
        };
        assert_eq!(f1, f2);
        assert!(!f1.is_terminal());
    }

    #[test]
    fn satisfiability() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert_ne!(ab, Bdd::FALSE);
        let na = m.not(a);
        let contradiction = m.and(a, na);
        assert_eq!(contradiction, Bdd::FALSE);
    }

    #[test]
    fn sat_count_small_functions() {
        let mut m = BddManager::new();
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
        let mut m = BddManager::new();
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
        let mut m = BddManager::new();
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
        let mut m = BddManager::new();
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
        let m = BddManager::new();
        assert!(m.support(Bdd::TRUE).is_empty());
        assert!(m.support(Bdd::FALSE).is_empty());
    }

    #[test]
    fn managers_share_the_store() {
        let store = SharedBddStore::new();
        let mut m1 = BddManager::with_store(store.clone());
        let mut m2 = BddManager::with_store(store.clone());
        let before = store.node_count();
        let a1 = m1.var(7);
        let after_first = store.node_count();
        let a2 = m2.var(7);
        // The second manager's identical literal allocates nothing.
        assert_eq!(a1, a2);
        assert_eq!(store.node_count(), after_first);
        assert_eq!(after_first, before + 1);
        // Handles interchange between managers on the same store.
        let b = m1.var(8);
        let ab = m2.and(a1, b);
        assert!(m1.evaluate(ab, |_| true));
    }

    #[test]
    fn apply_memo_is_bounded_and_nodes_reach_steady_state() {
        let mut m = isolated();
        // One churn round: tens of thousands of distinct pairwise
        // conjunctions — far more apply keys than MEMO_CAPACITY.
        let churn = |m: &mut BddManager| {
            // Coprime moduli: the pair (i % 509, i % 512) is distinct for
            // every i below 509·512, giving ~80k distinct apply keys.
            for i in 0..40_000u32 {
                let a = m.var(i % 509);
                let b = m.var(i % 512);
                let f = m.and(a, b);
                assert_eq!(m.and(a, b), f); // immediate repeat: memo hit
                let _ = m.or(a, b);
            }
        };
        churn(&mut m);
        let after_first = m.node_count();
        let stats_first = m.memo_stats();
        assert!(
            stats_first.entries <= MEMO_CAPACITY,
            "memo grew past its bound: {}",
            stats_first.entries
        );
        // Long churn: repeat the identical workload.  Interning means no new
        // nodes; the bounded memo means no unbounded table either — the
        // regression the old per-manager apply cache had.
        for _ in 0..3 {
            churn(&mut m);
        }
        let stats = m.memo_stats();
        assert_eq!(m.node_count(), after_first, "repeat workload allocated");
        assert!(stats.entries <= MEMO_CAPACITY);
        assert!(stats.clears >= 1, "expected at least one epoch clear");
        assert!(stats.hits > 0);
    }
}
