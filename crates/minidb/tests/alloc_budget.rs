//! Allocation budget of the select pipeline: a column read through the
//! sink allocates a constant per statement: nothing per value it hands
//! over, nothing per row the predicate rejects.

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

/// What a statement may allocate besides its output: the chain buffer
/// and its growth, the compiled filter.
const PER_STATEMENT: usize = 24;

/// Reads `column` through the sink into one text buffer cut by end
/// offsets — the shape the engine's column has — and counts the blocks.
fn packed_read(db: &Database, sql: &str, column: &str) -> ((String, Vec<usize>), usize) {
    let stmt = Database::prepare_select(sql).unwrap();
    allocations(|| {
        let (mut text, mut ends) = (String::new(), Vec::new());
        db.query_column_each(&stmt, column, |v| {
            v.write_to(&mut text).unwrap();
            ends.push(text.len());
        })
        .unwrap();
        (text, ends)
    })
}

#[test]
fn column_read_through_the_sink_allocates_a_constant() {
    for (sql, column) in [
        ("SELECT brand FROM watches ORDER BY id", "brand"),
        // Floats are formatted in place, not into a `String` each.
        ("SELECT price FROM watches ORDER BY id", "price"),
    ] {
        let ((_, ends), small) = packed_read(&catalog(2_000), sql, column);
        assert_eq!(ends.len(), 2_000);
        // The statement's own, plus the doubling growth of the text and
        // of the offsets (26 when this was written).
        assert!(small <= PER_STATEMENT + 8, "{small} allocations for 2 000 values");
        // Twice the rows: a buffer that grows by doubling grows once
        // more (28 when this was written), nothing grows per value.
        let ((_, ends), large) = packed_read(&catalog(4_000), sql, column);
        assert_eq!(ends.len(), 4_000);
        assert!(large <= small + 4, "{small} allocations at 2 000 rows, {large} at 4 000");
    }
}

#[test]
fn rejected_rows_allocate_nothing() {
    let pushed = "SELECT brand FROM watches WHERE (brand = 'x' AND price < 100) ORDER BY id ASC";
    let db = catalog(2_000);
    let ((_, ends), n) = packed_read(&db, pushed, "brand");
    assert_eq!(ends.len(), 40);
    assert!(n <= PER_STATEMENT, "{n} allocations for {} values", ends.len());

    // With no survivor at all, the count does not depend on the table.
    let none = "SELECT brand FROM watches WHERE (brand = 'y' AND price < 100) ORDER BY id ASC";
    let ((_, ends), small) = packed_read(&db, none, "brand");
    assert!(ends.is_empty());
    let (_, large) = packed_read(&catalog(4_000), none, "brand");
    assert_eq!(small, large, "allocations grew with the rows scanned");
    assert!(small <= PER_STATEMENT, "{small} allocations for an empty answer");
}
