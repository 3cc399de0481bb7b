//! Pins what a table's hot operations allocate and what a keyed replacement
//! leaves alive.  Once the table is built, a duplicate insert, a decrement,
//! a stale delete, a point probe, a prefix probe and a count allocate no
//! byte: a row is its own key, and a lookup borrows the tuple or the probe
//! key instead of copying key columns.  A replaced tuple is held by its
//! caller alone.
//!
//! The counting allocator is the only `unsafe` here: it forwards every call
//! to the system allocator and adds the requested size to a per-thread
//! counter, so tests running on other threads do not disturb a reading.
#![allow(unsafe_code)]

use exspan_runtime::{DeleteEffect, InsertEffect, Table};
use exspan_types::{Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; `note` touches only a const-initialized
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes `f` allocated on this thread, with its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// Asserts that `f` allocates nothing and returns true.
fn allocates_nothing(what: &str, f: impl FnOnce() -> bool) {
    let (bytes, ok) = allocated_by(f);
    assert_eq!(bytes, 0, "{what} allocated");
    assert!(ok, "{what} returned the wrong result");
}

fn row(loc: u32, d: u32, c: i64) -> Arc<Tuple> {
    Arc::new(Tuple::new("r", loc, vec![Value::Node(d), Value::Int(c)]))
}

#[test]
fn hot_table_operations_allocate_nothing() {
    // A whole-tuple table counts derivations: 64 rows, 8 per `(loc, d)`.
    let mut set = Table::set_semantics("r");
    let rows: Vec<Arc<Tuple>> = (0..64).map(|i| row(0, i % 8, i64::from(i) - 32)).collect();
    for r in &rows {
        set.insert_shared(r);
    }
    let (r, absent) = (&rows[17], row(0, 1, 99));
    let point = [Value::Node(0), Value::Node(1), Value::Int(-15)];
    let prefix = &point[..2];

    allocates_nothing("a duplicate insert", || {
        set.insert_shared(r) == InsertEffect::Duplicate
    });
    allocates_nothing("a count", || set.count(r) == 2);
    allocates_nothing("a decrement", || set.delete(r) == DeleteEffect::Decremented);
    allocates_nothing("a stale delete", || {
        set.delete(&absent) == DeleteEffect::Missing
    });
    allocates_nothing("a point probe", || {
        set.probe(&[0, 1, 2], &point).map(Iterator::count) == Some(1)
    });
    allocates_nothing("a prefix probe", || {
        set.probe(&[0, 1], prefix).map(Iterator::count) == Some(8)
    });
}

#[test]
fn a_keyed_replacement_keeps_no_handle_on_the_replaced_tuple() {
    let mut keyed = Table::new("r", vec![0, 1]);
    let (old, new) = (row(0, 2, 5), row(0, 2, 4));
    assert_eq!(keyed.insert_shared(&old), InsertEffect::Added);
    let InsertEffect::Replaced(replaced) = keyed.insert_shared(&new) else {
        panic!("a new version of a keyed row replaces the old one");
    };
    assert!(Arc::ptr_eq(&replaced, &old));
    assert_eq!(Arc::strong_count(&old), 2, "only the caller's two handles");
    assert_eq!(Arc::strong_count(&new), 2, "the caller's and the table's");
    allocates_nothing("a probe of the whole declared key", || {
        let key = [Value::Node(0), Value::Node(2)];
        keyed.probe(&[0, 1], &key).and_then(|mut rows| rows.next()) == Some(&new)
    });
    // A stale delete of the replaced version leaves the row as it is.
    allocates_nothing("a stale keyed delete", || {
        keyed.delete(&old) == DeleteEffect::Missing
    });
    assert!(keyed.contains(&new));
}
