//! Per-node materialized tables.
//!
//! A table stores the tuples of one relation at one node.  Two pieces of
//! bookkeeping matter for correct incremental maintenance:
//!
//! * **Derivation counts** — the same tuple can be derived in multiple ways
//!   (e.g. `pathCost(@a,c,5)` in Figure 4 has two derivations).  A tuple is
//!   only *inserted* into the visible state when its count goes 0→1 and only
//!   *removed* when it returns to 0, so downstream rules fire exactly on
//!   presence changes.
//! * **Keyed update semantics** — NDlog materialized tables declare primary
//!   keys (e.g. `bestPathCost` is keyed on `(@S,D)`); inserting a tuple whose
//!   key already exists with different non-key attributes *replaces* the old
//!   tuple, and the replaced tuple must be cascaded as a deletion.
//!
//! Rows hold their tuple behind an [`Arc`]: the delta that inserted a tuple,
//! the stored row, and every join candidate cloned out of a scan share one
//! allocation, so the hot path bumps reference counts instead of deep-copying
//! attribute vectors.  Tables are keyed by interned [`RelId`]s, making the
//! `(node, relation)` store lookups allocation-free.
//!
//! A [`Table::probe`] has two access paths.  Columns that begin with the
//! declared key's leading columns (whole-tuple order `0, 1, 2, …` for an
//! empty key) and hold a non-location column are one key range of the
//! primary map, whatever the rest of the probe binds; that rule is
//! `exspan_ndlog::plan::primary_prefix`, which also decides the program's
//! index demands.  Only a column set no such prefix serves gets a maintained
//! secondary index.

use exspan_ndlog::plan::primary_prefix;
use exspan_store::TableDump;
use exspan_types::fxhash::FxHashMap;
use exspan_types::{NodeId, RelId, Tuple, Value};
use std::collections::btree_map::{self, Entry};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Effect of an insertion on the visible state of the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertEffect {
    /// The tuple was not present before: downstream rules must fire.
    Added,
    /// The exact tuple was already present; its derivation count was
    /// incremented but the visible state did not change.
    Duplicate,
    /// A tuple with the same primary key but different attributes was
    /// replaced.  The old tuple must be cascaded as a deletion before the new
    /// tuple's insertion is propagated.
    Replaced(Arc<Tuple>),
}

/// Effect of a deletion on the visible state of the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeleteEffect {
    /// The last derivation was removed: the tuple left the table and
    /// downstream deletions must fire.
    Removed,
    /// One derivation was removed but others remain; no visible change.
    Decremented,
    /// The tuple (or that exact version of the keyed row) was not present.
    Missing,
}

/// A primary row key, shared between the primary map and every posting set
/// that lists the row.
type RowKey = Arc<[Value]>;

#[derive(Debug, Clone)]
struct Row {
    tuple: Arc<Tuple>,
    count: usize,
}

/// An order-preserving secondary index over one column set.
///
/// The index maps a projection of the full attribute list (location = column
/// 0) to the rows holding that projection, by *primary row key* — the very
/// `BTreeMap` keys of [`Table::rows`], one shared allocation per row — so
/// iterating one posting map enumerates its rows in the same canonical order
/// a full [`Table::scan`] would, which is what keeps indexed evaluation
/// bit-identical to scan evaluation (the probe narrows the candidate set, it
/// never reorders it).  Each posting carries its row's tuple: a probe walks
/// one posting map and never descends the primary map per candidate.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    /// Indexed columns over the full attribute list, ascending (0 = location).
    cols: Vec<usize>,
    /// Projection value → the rows carrying it.
    postings: BTreeMap<Vec<Value>, BTreeMap<RowKey, Arc<Tuple>>>,
}

impl SecondaryIndex {
    /// The indexed projection of `tuple`, or `None` when the tuple is too
    /// short to have every indexed column (such a tuple can never match a
    /// probe built from an atom that binds those positions).
    fn project(&self, tuple: &Tuple) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(self.cols.len());
        for &c in &self.cols {
            if c == 0 {
                key.push(Value::Node(tuple.location));
            } else {
                key.push(tuple.values.get(c - 1)?.clone());
            }
        }
        Some(key)
    }

    fn insert(&mut self, tuple: &Arc<Tuple>, row_key: &RowKey) {
        if let Some(key) = self.project(tuple) {
            let rows = self.postings.entry(key).or_default();
            rows.insert(Arc::clone(row_key), Arc::clone(tuple));
        }
    }

    fn remove(&mut self, tuple: &Tuple, row_key: &[Value]) {
        if let Some(key) = self.project(tuple) {
            if let Some(rows) = self.postings.get_mut(&key) {
                rows.remove(row_key);
                if rows.is_empty() {
                    self.postings.remove(&key);
                }
            }
        }
    }
}

/// A materialized table for one relation at one node.
///
/// Rows are kept in a `BTreeMap` ordered by primary key, so scans enumerate
/// tuples in one canonical order no matter in which order derivations
/// arrived.  Join enumeration order feeds the engine's event sequence
/// numbers, so canonical scans are a prerequisite for the deterministic
/// (sharded = sequential) execution the runtime guarantees.  (Interned
/// [`Value::Str`] attributes order by string *content*, so the canonical
/// order is also independent of interning order.)
#[derive(Debug, Clone)]
pub struct Table {
    relation: RelId,
    /// Primary-key positions over the full attribute list (0 = location).
    /// Empty means whole-tuple (set) semantics.
    key: Vec<usize>,
    rows: BTreeMap<RowKey, Row>,
    /// Order-preserving secondary indexes, one per demanded column set
    /// (compiled from the program's join plans; see `exspan_ndlog::plan`).
    indexes: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates a table with the given primary-key positions.
    pub fn new(relation: impl Into<RelId>, key: Vec<usize>) -> Self {
        Table {
            relation: relation.into(),
            key,
            rows: BTreeMap::new(),
            indexes: Vec::new(),
        }
    }

    /// Adds maintained secondary indexes over the given column sets (builder
    /// style; columns over the full attribute list, 0 = location).
    pub fn with_indexes(mut self, demands: impl IntoIterator<Item = Vec<usize>>) -> Self {
        for cols in demands {
            self.add_index(cols);
        }
        self
    }

    /// Adds (and backfills) one maintained secondary index.  Adding a column
    /// set twice is a no-op, as is a column set the primary `rows` map
    /// already serves as a key range ([`primary_prefix`]) — a secondary
    /// index there would copy the primary map and double the write cost for
    /// nothing.
    pub fn add_index(&mut self, cols: Vec<usize>) {
        if cols.is_empty()
            || primary_prefix(&self.key, &cols).is_some()
            || self.indexes.iter().any(|ix| ix.cols == cols)
        {
            return;
        }
        let mut index = SecondaryIndex {
            cols,
            postings: BTreeMap::new(),
        };
        for (row_key, row) in &self.rows {
            index.insert(&row.tuple, row_key);
        }
        self.indexes.push(index);
    }

    /// Creates a table with whole-tuple (set) semantics.
    pub fn set_semantics(relation: impl Into<RelId>) -> Self {
        Self::new(relation, Vec::new())
    }

    /// Relation name.
    pub fn relation(&self) -> &str {
        self.relation.as_str()
    }

    /// Number of distinct tuples currently visible.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn key_of(&self, tuple: &Tuple) -> RowKey {
        let attr = |i: usize| match i {
            0 => Value::Node(tuple.location),
            i => tuple.values[i - 1].clone(),
        };
        match self.key.is_empty() {
            true => (0..tuple.arity()).map(attr).collect(),
            false => self.key.iter().map(|&i| attr(i)).collect(),
        }
    }

    /// Inserts one derivation of `tuple`, sharing the caller's allocation
    /// (the hot path: the delta's `Arc` becomes the stored row on 0→1).
    pub fn insert_shared(&mut self, tuple: &Arc<Tuple>) -> InsertEffect {
        debug_assert_eq!(tuple.relation, self.relation);
        let row = || Row {
            tuple: Arc::clone(tuple),
            count: 1,
        };
        match self.rows.entry(self.key_of(tuple)) {
            Entry::Vacant(e) => {
                for ix in &mut self.indexes {
                    ix.insert(tuple, e.key());
                }
                e.insert(row());
                InsertEffect::Added
            }
            Entry::Occupied(mut e) if *e.get().tuple == **tuple => {
                // Tables keyed on a proper subset of their attributes hold
                // *functional* state (one row per key, e.g. an aggregate
                // output or a routing-table entry): re-asserting the same row
                // is idempotent.  Whole-tuple (set semantics) tables count
                // duplicate derivations instead.
                if self.key.is_empty() || self.key.len() >= tuple.arity() {
                    e.get_mut().count += 1;
                }
                InsertEffect::Duplicate
            }
            Entry::Occupied(mut e) => {
                // Keyed update: replace the old version of this row.  The
                // primary key is unchanged but non-key attributes (which
                // secondary indexes may cover) are not.
                let old = std::mem::replace(e.get_mut(), row()).tuple;
                for ix in &mut self.indexes {
                    ix.remove(&old, e.key());
                    ix.insert(tuple, e.key());
                }
                InsertEffect::Replaced(old)
            }
        }
    }

    /// Inserts one derivation of `tuple` (convenience wrapper for callers
    /// that do not already hold the tuple behind an `Arc`).
    pub fn insert(&mut self, tuple: &Tuple) -> InsertEffect {
        self.insert_shared(&Arc::new(tuple.clone()))
    }

    /// Deletes one derivation of `tuple`.
    pub fn delete(&mut self, tuple: &Tuple) -> DeleteEffect {
        debug_assert_eq!(tuple.relation, self.relation);
        match self.rows.entry(self.key_of(tuple)) {
            Entry::Vacant(_) => DeleteEffect::Missing,
            // A stale deletion for a version of the row that has already
            // been replaced: ignore it.
            Entry::Occupied(e) if *e.get().tuple != *tuple => DeleteEffect::Missing,
            Entry::Occupied(mut e) if e.get().count > 1 => {
                e.get_mut().count -= 1;
                DeleteEffect::Decremented
            }
            Entry::Occupied(e) => {
                let (key, removed) = e.remove_entry();
                for ix in &mut self.indexes {
                    ix.remove(&removed.tuple, &key);
                }
                DeleteEffect::Removed
            }
        }
    }

    /// Returns the current derivation count of `tuple` (0 if absent).
    pub fn count(&self, tuple: &Tuple) -> usize {
        match self.rows.get(&self.key_of(tuple)) {
            Some(row) if *row.tuple == *tuple => row.count,
            _ => 0,
        }
    }

    /// Whether the exact tuple is currently visible.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.count(tuple) > 0
    }

    /// Reinstates one row with an explicit derivation count, maintaining
    /// the secondary indexes.  Used by snapshot recovery, which hands
    /// rows back in the exact `(tuple, count)` form [`Table::rows_with_counts`]
    /// emitted them in — the rebuilt table is structurally identical to the
    /// one that was dumped.
    pub fn restore(&mut self, tuple: Arc<Tuple>, count: u64) {
        debug_assert_eq!(tuple.relation, self.relation);
        let key = self.key_of(&tuple);
        for ix in &mut self.indexes {
            ix.insert(&tuple, &key);
        }
        self.rows.insert(
            key,
            Row {
                tuple,
                count: count as usize,
            },
        );
    }

    /// Iterates the visible rows with their derivation counts, in canonical
    /// scan order (the persistence dump format).
    pub fn rows_with_counts(&self) -> impl Iterator<Item = (&Arc<Tuple>, u64)> {
        self.rows.values().map(|r| (&r.tuple, r.count as u64))
    }

    /// Iterates over the visible tuples (shared rows, in canonical order).
    pub fn scan(&self) -> impl Iterator<Item = &Arc<Tuple>> {
        self.rows.values().map(|r| &r.tuple)
    }

    /// Probes for the rows whose projection at `cols` equals `key`, yielding
    /// them in the **same canonical order** as [`Table::scan`] (the
    /// determinism contract of indexed evaluation).  When the columns begin
    /// with the declared key's leading columns ([`primary_prefix`]), the probe
    /// is one key range of the primary map, each row checked against the
    /// remaining columns; otherwise it walks the maintained secondary index
    /// over exactly `cols`.  Returns `None` when neither can serve — the
    /// caller falls back to a scan.  The iterator borrows `cols` and `key`
    /// and allocates nothing.
    pub fn probe<'a>(&'a self, cols: &'a [usize], key: &'a [Value]) -> Option<ProbeIter<'a>> {
        if key.len() != cols.len() {
            // A malformed key can never have been built from these columns;
            // make the misuse a defined scan fallback rather than a panic.
            return None;
        }
        if let Some(p) = primary_prefix(&self.key, cols) {
            let (prefix, rest) = key.split_at(p);
            return Some(self.range(prefix, &cols[p..], rest));
        }
        let index = self.indexes.iter().find(|ix| ix.cols == cols)?;
        let rows = index.postings.get(key);
        Some(ProbeIter(ProbeInner::Postings(rows.map(BTreeMap::values))))
    }

    /// The rows whose primary row key starts with `prefix` and that hold
    /// `key` at `cols`, in scan order.
    fn range<'a>(
        &'a self,
        prefix: &'a [Value],
        cols: &'a [usize],
        key: &'a [Value],
    ) -> ProbeIter<'a> {
        let from = (Bound::Included(prefix), Bound::Unbounded);
        ProbeIter(ProbeInner::Range {
            rows: Some(self.rows.range::<[Value], _>(from)),
            prefix,
            cols,
            key,
        })
    }

    /// Collects the visible tuples as shared handles (sorted by tuple
    /// content for determinism), without deep-copying attribute vectors.
    pub fn tuples_shared(&self) -> Vec<Arc<Tuple>> {
        let mut out: Vec<Arc<Tuple>> = self.scan().cloned().collect();
        out.sort();
        out
    }

    #[cfg(test)]
    fn secondary_index_count(&self) -> usize {
        self.indexes.len()
    }

    #[cfg(test)]
    fn index_is_consistent(&self) -> bool {
        self.indexes.iter().all(|ix| {
            // Every row appears under exactly its projection, and every
            // posting points at a live row with that projection — by the
            // primary map's own key allocation, not a copy of it.
            let mut expected = BTreeMap::new();
            for (row_key, row) in &self.rows {
                if let Some(p) = ix.project(&row.tuple) {
                    let rows: &mut BTreeMap<_, _> = expected.entry(p).or_default();
                    rows.insert(row_key.clone(), Arc::clone(&row.tuple));
                }
            }
            let shared = |(k, t): (&RowKey, &Arc<Tuple>)| {
                let (key, row) = self.rows.get_key_value(k).expect("live");
                Arc::ptr_eq(k, key) && Arc::ptr_eq(t, &row.tuple)
            };
            expected == ix.postings && ix.postings.values().flatten().all(shared)
        })
    }
}

/// Whether `tuple` holds `key` at `cols` (over the full attribute list,
/// 0 = location).
fn holds(tuple: &Tuple, cols: &[usize], key: &[Value]) -> bool {
    cols.iter().zip(key).all(|(&c, v)| match c {
        0 => Value::Node(tuple.location) == *v,
        c => tuple.values.get(c - 1) == Some(v),
    })
}

/// Iterator over the rows matching one probe, in canonical scan order.
#[derive(Debug)]
pub struct ProbeIter<'a>(ProbeInner<'a>);

#[derive(Debug)]
enum ProbeInner<'a> {
    /// A walk of the primary rows whose key starts with `prefix`, yielding
    /// those that hold `key` at `cols` (`rows` is `None` once the walk left
    /// the range).
    Range {
        rows: Option<btree_map::Range<'a, RowKey, Row>>,
        prefix: &'a [Value],
        cols: &'a [usize],
        key: &'a [Value],
    },
    /// A secondary-index probe: walk the matching postings in primary row
    /// key order (`None` when the key has none).
    Postings(Option<btree_map::Values<'a, RowKey, Arc<Tuple>>>),
}

impl<'a> Iterator for ProbeIter<'a> {
    type Item = &'a Arc<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            ProbeInner::Range {
                rows,
                prefix,
                cols,
                key,
            } => loop {
                let (row_key, row) = rows.as_mut()?.next()?;
                if !row_key.starts_with(prefix) {
                    *rows = None;
                    return None;
                }
                if holds(&row.tuple, cols, key) {
                    return Some(&row.tuple);
                }
            },
            ProbeInner::Postings(rows) => rows.as_mut()?.next(),
        }
    }
}

/// A helper collection mapping `(node, relation)` to its [`Table`], with
/// lazily-created tables.  It stores tables only; the shard that applies a
/// change also records it for the store.
#[derive(Debug, Default, Clone)]
pub struct TableStore {
    tables: FxHashMap<(NodeId, RelId), Table>,
    /// Key declarations by relation.
    keys: FxHashMap<RelId, Vec<usize>>,
    /// Secondary-index demands by relation (from the compiled join plans);
    /// every lazily-created table of that relation maintains them.
    index_demands: FxHashMap<RelId, Vec<Vec<usize>>>,
}

impl TableStore {
    /// Creates an empty store with the given key declarations and no
    /// secondary indexes.
    pub fn new(keys: FxHashMap<RelId, Vec<usize>>) -> Self {
        Self::with_indexes(keys, FxHashMap::default())
    }

    /// Creates an empty store with key declarations and per-relation
    /// secondary-index demands.
    pub fn with_indexes(
        keys: FxHashMap<RelId, Vec<usize>>,
        index_demands: FxHashMap<RelId, Vec<Vec<usize>>>,
    ) -> Self {
        TableStore {
            tables: FxHashMap::default(),
            keys,
            index_demands,
        }
    }

    /// The declared primary-key positions of `relation` (empty = whole-tuple
    /// set semantics).  This is the order `scan()` — and therefore `probe()`
    /// — enumerates rows in.
    pub fn key_spec(&self, relation: RelId) -> &[usize] {
        self.keys.get(&relation).map_or(&[], Vec::as_slice)
    }

    /// Returns the table for `(node, relation)`, creating it if necessary.
    pub fn table_mut(&mut self, node: NodeId, relation: RelId) -> &mut Table {
        match self.tables.entry((node, relation)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let key_spec = self.keys.get(&relation).cloned().unwrap_or_default();
                let demands = self
                    .index_demands
                    .get(&relation)
                    .cloned()
                    .unwrap_or_default();
                e.insert(Table::new(relation, key_spec).with_indexes(demands))
            }
        }
    }

    /// Returns the table for `(node, relation)` if it exists.
    pub fn table(&self, node: NodeId, relation: RelId) -> Option<&Table> {
        self.tables.get(&(node, relation))
    }

    /// All visible tuples of `relation` at `node` as shared handles.
    pub fn tuples_shared(&self, node: NodeId, relation: RelId) -> Vec<Arc<Tuple>> {
        self.table(node, relation)
            .map_or_else(Vec::new, Table::tuples_shared)
    }

    /// [`TableStore::tuples_shared`] restricted to the tuples whose leading
    /// attributes (0 = location) equal `prefix`, in the same order.  Under a
    /// whole-tuple key the row key is the attribute list, so the matches are
    /// the primary key range [`Table::probe`] walks, already in content
    /// order; a keyed table's full read is filtered instead.
    pub fn tuples_with_prefix(
        &self,
        node: NodeId,
        relation: RelId,
        prefix: &[Value],
    ) -> Vec<Arc<Tuple>> {
        let Some(table) = self.table(node, relation) else {
            return Vec::new();
        };
        if table.key.is_empty() {
            return table.range(prefix, &[], &[]).cloned().collect();
        }
        let mut out = table.tuples_shared();
        if let Some((loc, rest)) = prefix.split_first() {
            out.retain(|t| *loc == Value::Node(t.location) && t.values.starts_with(rest));
        }
        out
    }

    /// All visible tuples of `relation` across every node, as shared handles
    /// (sorted by tuple content for determinism).
    pub fn tuples_everywhere_shared(&self, relation: RelId) -> Vec<Arc<Tuple>> {
        let mut out: Vec<Arc<Tuple>> = self
            .tables
            .iter()
            .filter(|((_, r), _)| *r == relation)
            .flat_map(|(_, t)| t.scan().cloned())
            .collect();
        out.sort();
        out
    }

    /// The derivation count of `tuple` at `node` (0 if absent).
    pub fn derivation_count(&self, node: NodeId, tuple: &Tuple) -> usize {
        self.table(node, tuple.relation)
            .map_or(0, |table| table.count(tuple))
    }

    /// Total number of visible tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Dumps every table in canonical order: sorted by `(node, relation
    /// name)`, rows in scan order with their derivation counts.  This is the
    /// table section of a snapshot and the input to the engine's state
    /// digest; its bytes are independent of shard count and execution
    /// interleaving.  Empty tables
    /// are skipped (a never-written and a written-then-emptied table are
    /// the same logical state).
    pub fn dump(&self) -> Vec<TableDump> {
        let mut dumps: Vec<TableDump> = self
            .tables
            .iter()
            .filter(|(_, t)| !t.is_empty())
            .map(|(&(node, relation), table)| TableDump {
                node,
                relation,
                rows: table
                    .rows_with_counts()
                    .map(|(t, c)| (Arc::clone(t), c))
                    .collect(),
            })
            .collect();
        dumps.sort_by(|a, b| (a.node, a.relation.as_str()).cmp(&(b.node, b.relation.as_str())));
        dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::Symbol;

    fn path_cost(loc: NodeId, d: NodeId, c: i64) -> Tuple {
        Tuple::new("pathCost", loc, vec![Value::Node(d), Value::Int(c)])
    }

    fn best(loc: NodeId, d: NodeId, c: i64) -> Tuple {
        Tuple::new("bestPathCost", loc, vec![Value::Node(d), Value::Int(c)])
    }

    #[test]
    fn set_semantics_counts_derivations() {
        let mut t = Table::set_semantics("pathCost");
        let p = path_cost(0, 2, 5);
        assert_eq!(t.insert(&p), InsertEffect::Added);
        assert_eq!(t.insert(&p), InsertEffect::Duplicate);
        assert_eq!(t.count(&p), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.delete(&p), DeleteEffect::Decremented);
        assert!(t.contains(&p));
        assert_eq!(t.delete(&p), DeleteEffect::Removed);
        assert!(!t.contains(&p));
        assert_eq!(t.delete(&p), DeleteEffect::Missing);
    }

    #[test]
    fn shared_insert_shares_the_allocation() {
        let mut t = Table::set_semantics("pathCost");
        let p = Arc::new(path_cost(0, 2, 5));
        assert_eq!(t.insert_shared(&p), InsertEffect::Added);
        // The stored row is the same allocation, not a deep copy.
        let stored = t.scan().next().unwrap();
        assert!(Arc::ptr_eq(stored, &p));
    }

    #[test]
    fn distinct_tuples_coexist_under_set_semantics() {
        let mut t = Table::set_semantics("pathCost");
        t.insert(&path_cost(0, 2, 5));
        t.insert(&path_cost(0, 2, 7));
        assert_eq!(t.len(), 2);
        assert!(t.contains(&path_cost(0, 2, 5)));
        assert!(t.contains(&path_cost(0, 2, 7)));
    }

    #[test]
    fn keyed_table_replaces_row_with_same_key() {
        // bestPathCost(@S,D,C) keyed on (S, D) = positions (0, 1).
        let mut t = Table::new("bestPathCost", vec![0, 1]);
        assert_eq!(t.insert(&best(0, 2, 5)), InsertEffect::Added);
        let eff = t.insert(&best(0, 2, 4));
        assert_eq!(eff, InsertEffect::Replaced(Arc::new(best(0, 2, 5))));
        assert_eq!(t.len(), 1);
        assert!(t.contains(&best(0, 2, 4)));
        assert!(!t.contains(&best(0, 2, 5)));
        // Different key coexists.
        assert_eq!(t.insert(&best(0, 3, 9)), InsertEffect::Added);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn keyed_rows_are_idempotent_under_reinsertion() {
        let mut t = Table::new("bestPathCost", vec![0, 1]);
        t.insert(&best(0, 2, 5));
        assert_eq!(t.insert(&best(0, 2, 5)), InsertEffect::Duplicate);
        assert_eq!(
            t.count(&best(0, 2, 5)),
            1,
            "keyed rows do not count duplicates"
        );
        assert_eq!(t.delete(&best(0, 2, 5)), DeleteEffect::Removed);
        assert!(t.is_empty());
    }

    #[test]
    fn stale_delete_of_replaced_row_is_ignored() {
        let mut t = Table::new("bestPathCost", vec![0, 1]);
        t.insert(&best(0, 2, 5));
        t.insert(&best(0, 2, 4));
        // A delayed cascade tries to delete the old version.
        assert_eq!(t.delete(&best(0, 2, 5)), DeleteEffect::Missing);
        assert!(t.contains(&best(0, 2, 4)));
    }

    #[test]
    fn add_index_backfills_existing_rows() {
        let mut t = Table::set_semantics("pathCost");
        t.insert(&path_cost(0, 2, 5));
        t.insert(&path_cost(0, 3, 1));
        // No primary prefix serves (loc, C): unindexed, the caller must scan.
        // So must it for a key whose length is not the column count.
        let loc_cost = [Value::Node(0), Value::Int(1)];
        assert!(t.probe(&[0, 2], &loc_cost).is_none());
        assert!(t.probe(&[0, 1], &loc_cost[..1]).is_none());
        t.add_index(vec![0, 2]);
        assert!(t.index_is_consistent());
        assert!(t.probe(&[0, 2], &loc_cost[..1]).is_none());
        let hit: Vec<_> = t.probe(&[0, 2], &loc_cost).unwrap().collect();
        assert_eq!(hit, vec![&Arc::new(path_cost(0, 3, 1))]);
        // Re-adding the same column set is a no-op; empty sets and primary
        // prefixes are rejected.
        t.add_index(vec![0, 2]);
        t.add_index(vec![]);
        t.add_index(vec![0, 1]);
        assert_eq!(t.secondary_index_count(), 1);
    }

    #[test]
    fn tuples_shared_returns_sorted_visible_rows() {
        let mut t = Table::set_semantics("pathCost");
        t.insert(&path_cost(0, 3, 1));
        t.insert(&path_cost(0, 2, 5));
        let rows: Vec<Tuple> = t.tuples_shared().iter().map(|a| (**a).clone()).collect();
        assert_eq!(rows, vec![path_cost(0, 2, 5), path_cost(0, 3, 1)]);
    }

    fn attrs(t: &Tuple) -> Vec<Value> {
        let loc = std::iter::once(Value::Node(t.location));
        loc.chain(t.values.iter().cloned()).collect()
    }

    /// The reader the prefix read replaces, kept as its oracle: the table
    /// copied and sorted by content, then the rows starting with `prefix`.
    fn sorted_then_filtered(mut all: Vec<Arc<Tuple>>, prefix: &[Value]) -> Vec<Arc<Tuple>> {
        all.retain(|t| attrs(t).starts_with(prefix));
        all
    }

    /// The probe's oracle: the scan, filtered to the rows holding `key` at
    /// `cols`.
    fn scanned_then_filtered(t: &Table, cols: &[usize], key: &[Value]) -> Vec<Arc<Tuple>> {
        let attrs_at = |row: &Tuple| {
            cols.iter()
                .map(|&c| attrs(row)[c].clone())
                .collect::<Vec<_>>()
        };
        let rows = t.scan().filter(|row| attrs_at(row) == key);
        rows.cloned().collect()
    }

    /// Every non-empty column set over four attributes, ascending.
    fn every_column_set() -> Vec<Vec<usize>> {
        let set = |bits: usize| (0..4).filter(|c| bits & (1 << c) != 0).collect();
        (1..16).map(set).collect()
    }

    proptest::proptest! {
        /// Under random inserts, duplicate derivations, keyed replacements
        /// and deletes, a probe over every column set — a primary key range,
        /// a point read of the whole key, or a secondary index — equals the
        /// filtered scan in content and order, and the store's prefix read
        /// equals sort-then-filter.  Keys: every attribute of every tuple
        /// touched (rows present, deleted and never inserted alike), and one
        /// absent node.
        #[test]
        fn probes_equal_the_filtered_scan(
            spec in 0usize..3,
            ops in proptest::collection::vec((0u8..3, 0u32..2, 0u32..3, 0i64..3, 0i64..2), 0..48),
        ) {
            let key_spec = [vec![], vec![0, 1], vec![0, 1, 2]][spec].clone();
            let r = Symbol::intern("r");
            let mut store = TableStore::with_indexes(
                FxHashMap::from_iter([(r, key_spec)]),
                FxHashMap::from_iter([(r, every_column_set())]),
            );
            let mut touched = vec![vec![Value::Node(9); 4]];
            for (op, loc, a, b, c) in ops {
                let row = Tuple::new("r", loc, vec![Value::Node(a), Value::Int(b), Value::Int(c)]);
                let t = store.table_mut(loc, r);
                if op < 2 {
                    t.insert(&row);
                } else {
                    t.delete(&row);
                }
                touched.push(attrs(&row));
            }
            for node in [0, 1] {
                let t = store.table_mut(node, r);
                proptest::prop_assert!(t.index_is_consistent());
                for cols in every_column_set() {
                    for row in &touched {
                        let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
                        let probed: Vec<Arc<Tuple>> =
                            t.probe(&cols, &key).expect("every column set served").cloned().collect();
                        proptest::prop_assert_eq!(probed, scanned_then_filtered(t, &cols, &key));
                    }
                }
                for row in &touched {
                    for prefix in (0..=4).map(|n| &row[..n]) {
                        proptest::prop_assert_eq!(
                            store.tuples_with_prefix(node, r, prefix),
                            sorted_then_filtered(store.tuples_shared(node, r), prefix)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn only_column_sets_no_primary_prefix_serves_are_indexed() {
        // Keyed on (loc, D): the four sets beginning with it are key ranges
        // of the primary map, the other eleven get a secondary index.
        let t = Table::new("bestPathCost", vec![0, 1]).with_indexes(every_column_set());
        assert_eq!(t.secondary_index_count(), 11);
    }

    #[test]
    fn table_store_lazily_creates_with_declared_keys() {
        let best_rel = Symbol::intern("bestPathCost");
        let pc_rel = Symbol::intern("pathCost");
        let mut keys = FxHashMap::default();
        keys.insert(best_rel, vec![0usize, 1]);
        let mut store = TableStore::new(keys);
        store.table_mut(0, best_rel).insert(&best(0, 2, 5));
        store.table_mut(0, best_rel).insert(&best(0, 2, 3));
        assert_eq!(
            store.tuples_shared(0, best_rel),
            vec![Arc::new(best(0, 2, 3))]
        );
        // Undeclared relations default to set semantics.
        store.table_mut(1, pc_rel).insert(&path_cost(1, 2, 5));
        store.table_mut(1, pc_rel).insert(&path_cost(1, 2, 7));
        assert_eq!(store.tuples_shared(1, pc_rel).len(), 2);
        assert_eq!(store.total_tuples(), 3);
        assert_eq!(store.tuples_everywhere_shared(pc_rel).len(), 2);
        assert!(store.table(9, pc_rel).is_none());
        assert!(store.tuples_shared(9, pc_rel).is_empty());
        assert!(store.tuples_with_prefix(9, pc_rel, &[]).is_empty());
    }
}
