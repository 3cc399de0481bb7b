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
//! A row is its own key.  The primary map is keyed by a `RowKey`: the
//! row's tuple behind an [`Arc`] — the one allocation the delta that
//! inserted it, every join candidate cloned out of a scan and every posting
//! share — the table's interned key spec, and an inline order-preserving
//! abbreviation of the first two key columns.  It orders exactly as the
//! tuple's projection on the key compares as a `[Value]` slice, and most
//! comparisons are decided by the abbreviations without dereferencing the
//! tuple.  A lookup by a borrowed tuple or probe prefix goes through the
//! same order (`KeyView`), so no insert, delete, count or probe
//! allocates.  Tables are keyed by interned [`RelId`]s, making the
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
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::btree_map::{self, Entry};
use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::{Arc, Mutex};

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

/// Primary-key positions over the full attribute list (0 = location), empty
/// for whole-tuple order.  Interned once per distinct spec, so a row key
/// carries its spec as one pointer, with no per-row allocation and no
/// reference count to bump.
type Spec = &'static Vec<usize>;

fn intern_spec(cols: Vec<usize>) -> Spec {
    static SPECS: Mutex<Vec<Spec>> = Mutex::new(Vec::new());
    let mut specs = SPECS
        .lock()
        .expect("no thread panics holding the spec list");
    if let Some(&spec) = specs.iter().find(|s| ***s == cols) {
        return spec;
    }
    let spec: Spec = Box::leak(Box::new(cols));
    specs.push(spec);
    spec
}

/// Bit 0 of an abbreviation: set when equal abbreviations mean equal values.
const EXACT: u64 = 1;

/// An order-preserving 64-bit abbreviation of one key column: the `Value`
/// case's rank in its derived order in the top three bits (counted from 1,
/// so that an absent column, [`EXACT`] alone, sorts before every value), 60
/// bits of the value, and [`EXACT`].  `a < b` implies `abbreviate(a) <=
/// abbreviate(b)`, and whether an abbreviation is exact depends on the
/// abbreviation alone, so equal exact abbreviations are equal values.
fn abbreviate(v: &Value) -> u64 {
    const LIM: i64 = 1 << 59;
    let lead = |bytes: &[u8]| {
        let mut b = [0u8; 8];
        let n = bytes.len().min(8);
        b[..n].copy_from_slice(&bytes[..n]);
        u64::from_be_bytes(b) >> 4
    };
    let (rank, body, exact) = match v {
        Value::Node(n) => (1, u64::from(*n), true),
        // A 60-bit integer with its sign bit flipped; the ints beyond that
        // range clamp onto its two ends, which are therefore inexact.
        Value::Int(i) => {
            let c = (*i).clamp(-LIM, LIM - 1);
            (2, (c + LIM) as u64, -LIM < c && c < LIM - 1)
        }
        Value::Str(s) => (3, lead(s.as_str().as_bytes()), false),
        Value::Bool(b) => (4, u64::from(*b), true),
        Value::List(_) => (5, 0, false),
        Value::Digest(d) => (6, lead(d), false),
        Value::Payload(p) => (7, u64::from(*p), true),
    };
    rank << 61 | body << 1 | u64::from(exact)
}

/// The columns one key compares: a tuple's projection on a spec, or a
/// borrowed probe prefix.
#[derive(Debug, Clone, Copy)]
enum Cols<'a> {
    Row(&'a Tuple, &'a [usize]),
    Prefix(&'a [Value]),
}

impl<'a> Cols<'a> {
    fn len(self) -> usize {
        match self {
            Cols::Row(t, []) => t.arity(),
            Cols::Row(_, spec) => spec.len(),
            Cols::Prefix(p) => p.len(),
        }
    }

    fn get(self, i: usize) -> Cow<'a, Value> {
        match self {
            Cols::Prefix(p) => Cow::Borrowed(&p[i]),
            Cols::Row(t, spec) => match if spec.is_empty() { i } else { spec[i] } {
                0 => Cow::Owned(Value::Node(t.location)),
                c => Cow::Borrowed(&t.values[c - 1]),
            },
        }
    }

    /// The abbreviations of the first two columns.
    fn abbreviations(self) -> [u64; 2] {
        [0, 1].map(|i| match i < self.len() {
            true => abbreviate(&self.get(i)),
            false => EXACT,
        })
    }

    /// Compares two column lists as `[Value]` slices (a proper prefix
    /// first), deciding by their abbreviations `a` and `b` where they can.
    fn cmp_abbreviated(self, a: &[u64; 2], other: Self, b: &[u64; 2]) -> Ordering {
        for i in 0..2 {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
            if a[i] & EXACT == 0 {
                return self.cmp_from(other, i);
            }
        }
        self.cmp_from(other, 2)
    }

    /// Compares the columns from `from` on, then the lengths.
    fn cmp_from(self, other: Self, from: usize) -> Ordering {
        let (m, n) = (self.len(), other.len());
        let mut cols = (from..m.min(n)).map(|i| self.get(i).cmp(&other.get(i)));
        cols.find(|o| o.is_ne()).unwrap_or(m.cmp(&n))
    }
}

/// A key the primary map is searched by: a stored [`RowKey`], or a borrowed
/// [`Probe`], which builds none.
trait KeyView {
    fn parts(&self) -> (&[u64; 2], Cols<'_>);
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        let ((a, ac), (b, bc)) = (self.parts(), other.parts());
        ac.cmp_abbreviated(a, bc, b)
    }
}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn KeyView + '_ {}

/// A row's key in the primary map and in every posting set that lists it:
/// the row's own tuple, the table's key spec, and the abbreviations of the
/// first two key columns.  A keyed replacement re-keys the row, so a key
/// never keeps a replaced tuple alive.
#[derive(Debug, Clone)]
struct RowKey {
    tuple: Arc<Tuple>,
    spec: Spec,
    abbr: [u64; 2],
}

impl RowKey {
    fn new(tuple: Arc<Tuple>, spec: Spec) -> Self {
        let abbr = Cols::Row(&tuple, spec).abbreviations();
        RowKey { tuple, spec, abbr }
    }

    fn cols(&self) -> Cols<'_> {
        Cols::Row(&self.tuple, self.spec)
    }

    /// Whether the key's columns begin with `prefix`'s, decided by an
    /// exact abbreviation where the prefix has one (so the walk that leaves
    /// a key range stops without reading the next row's tuple).
    fn starts_with(&self, prefix: &Probe) -> bool {
        let (cols, n) = (self.cols(), prefix.cols.len());
        cols.len() >= n
            && (0..n).all(|i| match i < 2 && prefix.abbr[i] & EXACT != 0 {
                true => self.abbr[i] == prefix.abbr[i],
                false => cols.get(i) == prefix.cols.get(i),
            })
    }
}

impl KeyView for RowKey {
    fn parts(&self) -> (&[u64; 2], Cols<'_>) {
        (&self.abbr, self.cols())
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for RowKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cols()
            .cmp_abbreviated(&self.abbr, other.cols(), &other.abbr)
    }
}

impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RowKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RowKey {}

/// A borrowed key: a tuple projected on a spec, or a probe prefix.
#[derive(Debug)]
struct Probe<'a> {
    abbr: [u64; 2],
    cols: Cols<'a>,
}

impl<'a> Probe<'a> {
    fn new(cols: Cols<'a>) -> Self {
        Probe {
            abbr: cols.abbreviations(),
            cols,
        }
    }
}

impl KeyView for Probe<'_> {
    fn parts(&self) -> (&[u64; 2], Cols<'_>) {
        (&self.abbr, self.cols)
    }
}

/// An order-preserving secondary index over one column set.
///
/// The index maps a projection of the full attribute list (location = column
/// 0) to the set of [`RowKey`]s of the rows holding that projection — clones
/// of the primary map's keys, sharing each row's tuple — so iterating one
/// posting set enumerates its rows in the same canonical order a full
/// [`Table::scan`] would, which is what keeps indexed evaluation
/// bit-identical to scan evaluation (the probe narrows the candidate set, it
/// never reorders it).  A probe walks one posting set and never descends the
/// primary map per candidate.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    /// Indexed columns over the full attribute list, ascending (0 = location).
    cols: Vec<usize>,
    /// Projection value → the rows carrying it.
    postings: BTreeMap<Vec<Value>, BTreeSet<RowKey>>,
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

    fn insert(&mut self, row: &RowKey) {
        if let Some(key) = self.project(&row.tuple) {
            self.postings.entry(key).or_default().insert(row.clone());
        }
    }

    fn remove(&mut self, row: &RowKey) {
        if let Some(key) = self.project(&row.tuple) {
            if let Some(rows) = self.postings.get_mut(&key) {
                rows.remove(row);
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
    key: Spec,
    /// Each row, keyed by itself, with its derivation count.
    rows: BTreeMap<RowKey, usize>,
    /// Order-preserving secondary indexes, one per demanded column set
    /// (compiled from the program's join plans; see `exspan_ndlog::plan`).
    indexes: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates a table with the given primary-key positions.
    pub fn new(relation: impl Into<RelId>, key: Vec<usize>) -> Self {
        Table {
            relation: relation.into(),
            key: intern_spec(key),
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
            || primary_prefix(self.key, &cols).is_some()
            || self.indexes.iter().any(|ix| ix.cols == cols)
        {
            return;
        }
        let mut index = SecondaryIndex {
            cols,
            postings: BTreeMap::new(),
        };
        for row in self.rows.keys() {
            index.insert(row);
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

    /// Inserts one derivation of `tuple`, sharing the caller's allocation
    /// (the delta's `Arc` becomes the stored row on 0→1).
    pub fn insert_shared(&mut self, tuple: &Arc<Tuple>) -> InsertEffect {
        debug_assert_eq!(tuple.relation, self.relation);
        match self.rows.entry(RowKey::new(Arc::clone(tuple), self.key)) {
            Entry::Vacant(e) => {
                for ix in &mut self.indexes {
                    ix.insert(e.key());
                }
                e.insert(1);
                InsertEffect::Added
            }
            Entry::Occupied(mut e) if e.key().tuple == *tuple => {
                // Tables keyed on a proper subset of their attributes hold
                // *functional* state (one row per key, e.g. an aggregate
                // output or a routing-table entry): re-asserting the same row
                // is idempotent.  Whole-tuple (set semantics) tables count
                // duplicate derivations instead.
                if self.key.is_empty() || self.key.len() >= tuple.arity() {
                    *e.get_mut() += 1;
                }
                InsertEffect::Duplicate
            }
            Entry::Occupied(e) => {
                // Keyed update: the row is re-keyed by its new version (the
                // key columns, hence the abbreviations, are unchanged; the
                // non-key attributes secondary indexes may cover are not).
                let (old, _) = e.remove_entry();
                let row = RowKey {
                    tuple: Arc::clone(tuple),
                    ..old
                };
                for ix in &mut self.indexes {
                    ix.remove(&old);
                    ix.insert(&row);
                }
                self.rows.insert(row, 1);
                InsertEffect::Replaced(old.tuple)
            }
        }
    }

    /// Deletes one derivation of `tuple`, found in one descent of the
    /// primary map.
    pub fn delete(&mut self, tuple: &Arc<Tuple>) -> DeleteEffect {
        debug_assert_eq!(tuple.relation, self.relation);
        match self.rows.entry(RowKey::new(Arc::clone(tuple), self.key)) {
            Entry::Vacant(_) => DeleteEffect::Missing,
            // A stale deletion for a version of the row that has already
            // been replaced: ignore it.
            Entry::Occupied(e) if e.key().tuple != *tuple => DeleteEffect::Missing,
            Entry::Occupied(mut e) if *e.get() > 1 => {
                *e.get_mut() -= 1;
                DeleteEffect::Decremented
            }
            Entry::Occupied(e) => {
                let (row, _) = e.remove_entry();
                for ix in &mut self.indexes {
                    ix.remove(&row);
                }
                DeleteEffect::Removed
            }
        }
    }

    /// Returns the current derivation count of `tuple` (0 if absent).
    pub fn count(&self, tuple: &Tuple) -> usize {
        let probe = Probe::new(Cols::Row(tuple, self.key));
        match self.rows.get_key_value(&probe as &dyn KeyView) {
            Some((row, &count)) if *row.tuple == *tuple => count,
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
        let row = RowKey::new(tuple, self.key);
        for ix in &mut self.indexes {
            ix.insert(&row);
        }
        self.rows.insert(row, count as usize);
    }

    /// Iterates the visible rows with their derivation counts, in canonical
    /// scan order (the persistence dump format).
    pub fn rows_with_counts(&self) -> impl Iterator<Item = (&Arc<Tuple>, u64)> {
        self.rows.iter().map(|(row, &c)| (&row.tuple, c as u64))
    }

    /// Iterates over the visible tuples (shared rows, in canonical order).
    pub fn scan(&self) -> impl Iterator<Item = &Arc<Tuple>> {
        self.rows.keys().map(|row| &row.tuple)
    }

    /// Probes for the rows whose projection at `cols` equals `key`, yielding
    /// them in the **same canonical order** as [`Table::scan`] (the
    /// determinism contract of indexed evaluation).  When the columns begin
    /// with the declared key's leading columns ([`primary_prefix`]), the probe
    /// is one key range of the primary map, each row checked against the
    /// remaining columns;
    /// otherwise it walks the maintained secondary index
    /// over exactly `cols`.  Returns `None` when neither can serve — the
    /// caller falls back to a scan.  The iterator borrows `cols` and `key`
    /// and allocates nothing.
    pub fn probe<'a>(&'a self, cols: &'a [usize], key: &'a [Value]) -> Option<ProbeIter<'a>> {
        if key.len() != cols.len() {
            // A malformed key can never have been built from these columns;
            // make the misuse a defined scan fallback rather than a panic.
            return None;
        }
        if let Some(p) = primary_prefix(self.key, cols) {
            let (prefix, rest) = key.split_at(p);
            return Some(self.range(prefix, &cols[p..], rest));
        }
        let index = self.indexes.iter().find(|ix| ix.cols == cols)?;
        let rows = index.postings.get(key);
        Some(ProbeIter(ProbeInner::Postings(rows.map(BTreeSet::iter))))
    }

    /// The rows whose primary row key starts with `prefix` and that hold
    /// `key` at `cols`, in scan order.
    fn range<'a>(
        &'a self,
        prefix: &'a [Value],
        cols: &'a [usize],
        key: &'a [Value],
    ) -> ProbeIter<'a> {
        let prefix = Probe::new(Cols::Prefix(prefix));
        let from = (Bound::Included(&prefix as &dyn KeyView), Bound::Unbounded);
        ProbeIter(ProbeInner::Range {
            rows: Some(self.rows.range::<dyn KeyView, _>(from)),
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
            // posting shares a live row's tuple.
            let mut expected = BTreeMap::new();
            for row in self.rows.keys() {
                if let Some(p) = ix.project(&row.tuple) {
                    let rows: &mut BTreeSet<_> = expected.entry(p).or_default();
                    rows.insert(row.clone());
                }
            }
            let shared = |row: &RowKey| {
                let (live, _) = self.rows.get_key_value(row).expect("live");
                Arc::ptr_eq(&row.tuple, &live.tuple)
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
        rows: Option<btree_map::Range<'a, RowKey, usize>>,
        prefix: Probe<'a>,
        cols: &'a [usize],
        key: &'a [Value],
    },
    /// A secondary-index probe: walk the matching postings in primary row
    /// key order (`None` when the key has none).
    Postings(Option<btree_set::Iter<'a, RowKey>>),
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
                let (row, _) = rows.as_mut()?.next()?;
                if !row.starts_with(prefix) {
                    *rows = None;
                    return None;
                }
                if holds(&row.tuple, cols, key) {
                    return Some(&row.tuple);
                }
            },
            ProbeInner::Postings(rows) => rows.as_mut()?.next().map(|row| &row.tuple),
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

    /// Orders two tuples of one relation as its tables' primary maps do:
    /// the order `scan()` — and therefore `probe()` — enumerates rows in.
    pub fn row_order(&self, a: &Tuple, b: &Tuple) -> Ordering {
        debug_assert_eq!(a.relation, b.relation);
        let spec = self.keys.get(&a.relation).map_or(&[][..], Vec::as_slice);
        Cols::Row(a, spec).cmp_from(Cols::Row(b, spec), 0)
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

    fn path_cost(loc: NodeId, d: NodeId, c: i64) -> Arc<Tuple> {
        Arc::new(Tuple::new(
            "pathCost",
            loc,
            vec![Value::Node(d), Value::Int(c)],
        ))
    }

    fn best(loc: NodeId, d: NodeId, c: i64) -> Arc<Tuple> {
        Arc::new(Tuple::new(
            "bestPathCost",
            loc,
            vec![Value::Node(d), Value::Int(c)],
        ))
    }

    #[test]
    fn set_semantics_counts_derivations() {
        let mut t = Table::set_semantics("pathCost");
        let p = path_cost(0, 2, 5);
        assert_eq!(t.insert_shared(&p), InsertEffect::Added);
        assert_eq!(t.insert_shared(&p), InsertEffect::Duplicate);
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
        let p = path_cost(0, 2, 5);
        assert_eq!(t.insert_shared(&p), InsertEffect::Added);
        // The stored row is the same allocation, not a deep copy.
        let stored = t.scan().next().unwrap();
        assert!(Arc::ptr_eq(stored, &p));
    }

    #[test]
    fn distinct_tuples_coexist_under_set_semantics() {
        let mut t = Table::set_semantics("pathCost");
        t.insert_shared(&path_cost(0, 2, 5));
        t.insert_shared(&path_cost(0, 2, 7));
        assert_eq!(t.len(), 2);
        assert!(t.contains(&path_cost(0, 2, 5)));
        assert!(t.contains(&path_cost(0, 2, 7)));
    }

    #[test]
    fn keyed_table_replaces_row_with_same_key() {
        // bestPathCost(@S,D,C) keyed on (S, D) = positions (0, 1).
        let mut t = Table::new("bestPathCost", vec![0, 1]);
        assert_eq!(t.insert_shared(&best(0, 2, 5)), InsertEffect::Added);
        let eff = t.insert_shared(&best(0, 2, 4));
        assert_eq!(eff, InsertEffect::Replaced(best(0, 2, 5)));
        assert_eq!(t.len(), 1);
        assert!(t.contains(&best(0, 2, 4)));
        assert!(!t.contains(&best(0, 2, 5)));
        // Different key coexists.
        assert_eq!(t.insert_shared(&best(0, 3, 9)), InsertEffect::Added);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn keyed_rows_are_idempotent_under_reinsertion() {
        let mut t = Table::new("bestPathCost", vec![0, 1]);
        t.insert_shared(&best(0, 2, 5));
        assert_eq!(t.insert_shared(&best(0, 2, 5)), InsertEffect::Duplicate);
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
        t.insert_shared(&best(0, 2, 5));
        t.insert_shared(&best(0, 2, 4));
        // A delayed cascade tries to delete the old version.
        assert_eq!(t.delete(&best(0, 2, 5)), DeleteEffect::Missing);
        assert!(t.contains(&best(0, 2, 4)));
    }

    #[test]
    fn add_index_backfills_existing_rows() {
        let mut t = Table::set_semantics("pathCost");
        t.insert_shared(&path_cost(0, 2, 5));
        t.insert_shared(&path_cost(0, 3, 1));
        // No primary prefix serves (loc, C): unindexed, the caller must scan.
        // So must it for a key whose length is not the column count.
        let loc_cost = [Value::Node(0), Value::Int(1)];
        assert!(t.probe(&[0, 2], &loc_cost).is_none());
        assert!(t.probe(&[0, 1], &loc_cost[..1]).is_none());
        t.add_index(vec![0, 2]);
        assert!(t.index_is_consistent());
        assert!(t.probe(&[0, 2], &loc_cost[..1]).is_none());
        let hit: Vec<_> = t.probe(&[0, 2], &loc_cost).unwrap().collect();
        assert_eq!(hit, vec![&path_cost(0, 3, 1)]);
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
        t.insert_shared(&path_cost(0, 3, 1));
        t.insert_shared(&path_cost(0, 2, 5));
        assert_eq!(
            t.tuples_shared(),
            vec![path_cost(0, 2, 5), path_cost(0, 3, 1)]
        );
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
        /// and deletes, a probe over every column set — a primary key range
        /// (the whole key included) or a secondary index — equals the
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
                let row = Arc::new(Tuple::new("r", loc, vec![Value::Node(a), Value::Int(b), Value::Int(c)]));
                let t = store.table_mut(loc, r);
                if op < 2 {
                    t.insert_shared(&row);
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

    /// A value of every case, drawn to land on the abbreviation's edges:
    /// ints on both sides of zero and of its 60-bit range, strings and
    /// digests that share their abbreviated leading bytes, nested lists.
    fn value() -> proptest::BoxedStrategy<Value> {
        use proptest::prelude::*;
        const LIM: i64 = 1 << 59;
        const INTS: [i64; 9] = [
            i64::MIN,
            -LIM - 1,
            -LIM,
            -LIM + 1,
            LIM - 2,
            LIM - 1,
            LIM,
            LIM + 1,
            i64::MAX,
        ];
        const STRS: [&str; 8] = [
            "",
            "a",
            "ab",
            "ab\0",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "abcdefghj",
        ];
        let digest = |(a, b, c): (u8, u8, u8)| {
            let mut d = [0x5a; 20];
            (d[0], d[7], d[19]) = (a, 0x70 | b, c);
            Value::Digest(d)
        };
        let leaf = prop_oneof![
            (0u32..3).prop_map(Value::Node),
            (-2i64..3).prop_map(Value::Int),
            (0..INTS.len()).prop_map(|i| Value::Int(INTS[i])),
            (0..STRS.len()).prop_map(|i| Value::str(STRS[i])),
            any::<bool>().prop_map(Value::Bool),
            (0u8..2, 0u8..2, 0u8..2).prop_map(digest),
            (0u32..3).prop_map(Value::Payload),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            proptest::collection::vec(inner, 0..3).prop_map(Value::list)
        })
    }

    /// The key the primary map was keyed by before rows keyed themselves:
    /// the tuple's projection on the spec.
    fn projection(t: &Tuple, spec: &[usize]) -> Vec<Value> {
        match spec {
            [] => attrs(t),
            spec => spec.iter().map(|&c| attrs(t)[c].clone()).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Under a whole-tuple key, `(0,1)`, `(0,1,2)` and the non-prefix
        /// `(0,2)`, a row key orders and equals another exactly as their
        /// projections compare as `[Value]` slices, and so does a tuple
        /// looked up by reference; a borrowed probe prefix of every length
        /// compares with every key as the slice prefix does.
        #[test]
        fn row_keys_order_as_their_projections(
            rows in proptest::collection::vec(
                (0u32..2, proptest::collection::vec(value(), 2..4)),
                1..10,
            ),
        ) {
            let rows: Vec<Arc<Tuple>> =
                rows.into_iter().map(|(loc, vs)| Arc::new(Tuple::new("r", loc, vs))).collect();
            for spec in [vec![], vec![0, 1], vec![0, 1, 2], vec![0, 2]] {
                let spec = intern_spec(spec);
                for a in &rows {
                    let (ka, pa) = (RowKey::new(Arc::clone(a), spec), projection(a, spec));
                    for b in &rows {
                        let (kb, pb) = (RowKey::new(Arc::clone(b), spec), projection(b, spec));
                        proptest::prop_assert_eq!(ka.cmp(&kb), pa.cmp(&pb));
                        proptest::prop_assert_eq!(ka == kb, pa == pb);
                        let by_ref = Probe::new(Cols::Row(a, spec));
                        proptest::prop_assert_eq!((&by_ref as &dyn KeyView).cmp(&kb), pa.cmp(&pb));
                        for n in 0..=pa.len() {
                            let prefix = Probe::new(Cols::Prefix(&pa[..n]));
                            let prefix = &prefix as &dyn KeyView;
                            proptest::prop_assert_eq!(prefix.cmp(&kb), pa[..n].cmp(&pb));
                            proptest::prop_assert_eq!((&kb as &dyn KeyView).cmp(prefix), pb[..].cmp(&pa[..n]));
                        }
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
        store.table_mut(0, best_rel).insert_shared(&best(0, 2, 5));
        store.table_mut(0, best_rel).insert_shared(&best(0, 2, 3));
        assert_eq!(store.tuples_shared(0, best_rel), vec![best(0, 2, 3)]);
        // Undeclared relations default to set semantics.
        store
            .table_mut(1, pc_rel)
            .insert_shared(&path_cost(1, 2, 5));
        store
            .table_mut(1, pc_rel)
            .insert_shared(&path_cost(1, 2, 7));
        assert_eq!(store.tuples_shared(1, pc_rel).len(), 2);
        assert_eq!(store.total_tuples(), 3);
        assert_eq!(store.tuples_everywhere_shared(pc_rel).len(), 2);
        assert!(store.table(9, pc_rel).is_none());
        assert!(store.tuples_shared(9, pc_rel).is_empty());
        assert!(store.tuples_with_prefix(9, pc_rel, &[]).is_empty());
    }
}
