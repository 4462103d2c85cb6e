//! Allocation budget of the select pipeline: a column read allocates
//! once per value it returns plus a constant per statement, and a row
//! the predicate rejects allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_minidb::Database;

thread_local! {
    /// Allocations (and reallocations) made by the current thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `rows` watches; every 50th is an `x` under 100.
fn catalog(rows: usize) -> Database {
    let mut db = Database::new("budget");
    db.execute("CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(64) {
        let tuples: Vec<String> = chunk
            .iter()
            .map(|i| match i % 50 {
                0 => format!("({i}, 'x', 99.5)"),
                1 => format!("({i}, 'x', 100.5)"),
                _ => format!("({i}, 'brand{}', {}.5)", i % 17, i % 300),
            })
            .collect();
        db.execute(&format!("INSERT INTO watches VALUES {}", tuples.join(", "))).unwrap();
    }
    db
}

/// What a statement may allocate besides its values: the chain buffer
/// and its growth, the output vector, the compiled filter.
const PER_STATEMENT: usize = 24;

#[test]
fn column_read_allocates_once_per_value() {
    let rows = 2_000;
    let db = catalog(rows);
    let stmt = Database::prepare_select("SELECT brand FROM watches ORDER BY id").unwrap();
    let (values, n) = allocations(|| db.query_column(&stmt, "brand").unwrap());
    assert_eq!(values.len(), rows);
    assert!(n <= rows + PER_STATEMENT, "{n} allocations for {rows} values");
}

#[test]
fn rejected_rows_allocate_nothing() {
    let pushed = "SELECT brand FROM watches WHERE (brand = 'x' AND price < 100) ORDER BY id ASC";
    let stmt = Database::prepare_select(pushed).unwrap();
    let db = catalog(2_000);
    let (values, n) = allocations(|| db.query_column(&stmt, "brand").unwrap());
    assert_eq!(values.len(), 40);
    assert!(n <= values.len() + PER_STATEMENT, "{n} allocations for {} values", values.len());

    // With no survivor at all, the count does not depend on the table.
    let none = "SELECT brand FROM watches WHERE (brand = 'y' AND price < 100) ORDER BY id ASC";
    let stmt = Database::prepare_select(none).unwrap();
    let (values, small) = allocations(|| db.query_column(&stmt, "brand").unwrap());
    assert!(values.is_empty());
    let twice = catalog(4_000);
    let (_, large) = allocations(|| twice.query_column(&stmt, "brand").unwrap());
    assert_eq!(small, large, "allocations grew with the rows scanned");
    assert!(small <= PER_STATEMENT, "{small} allocations for an empty answer");
}
