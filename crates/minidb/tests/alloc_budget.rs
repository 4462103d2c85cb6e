//! Allocation budget of the select pipeline: a column read through the
//! sink allocates a constant per statement: nothing per value it hands
//! over, nothing per row the predicate rejects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_minidb::{ColumnSink, Database, Value};

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
/// and its growth, the compiled filter — 12 with 40 survivors when this
/// was written.
const PER_STATEMENT: usize = 16;

/// What an unfiltered scan may allocate besides its output, sized by
/// the table: 4 when this was written.
const SCAN: usize = 4;

/// One text buffer cut by end offsets — the shape the engine's column
/// has — sized once from what the sink is told.
#[derive(Default)]
struct Packed {
    text: String,
    ends: Vec<usize>,
}

impl ColumnSink for &mut Packed {
    fn size(&mut self, values: usize, text_bytes: usize) {
        self.ends.reserve_exact(values);
        self.text.reserve_exact(text_bytes);
    }

    fn push(&mut self, value: &Value) {
        value.write_to(&mut self.text).unwrap();
        self.ends.push(self.text.len());
    }
}

/// Reads `column` of one scan through the sink into a [`Packed`]
/// column, as the engine reads a source's rules, and counts the blocks.
fn packed_read(db: &Database, sql: &str, column: &str) -> ((String, Vec<usize>), usize) {
    let stmt = Database::prepare_select(sql).unwrap();
    allocations(|| {
        let mut packed = Packed::default();
        let selection = db.select(&stmt).unwrap();
        selection.each(selection.column(&stmt, column).unwrap(), &mut &mut packed);
        (packed.text, packed.ends)
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
        // The statement's own and the column's two, each sized once (6
        // when this was written; 26 while the text and the offsets grew
        // by doubling).
        assert!(small <= SCAN + 2, "{small} allocations for 2 000 values");
        // Twice the rows: nothing grows at all (28 while the column
        // doubled).
        let ((_, ends), large) = packed_read(&catalog(4_000), sql, column);
        assert_eq!(ends.len(), 4_000);
        assert_eq!(large, small, "{small} allocations at 2 000 rows, {large} at 4 000");
    }
}

/// One wide value among 2 000 narrow ones — a 64 KiB name, a `REAL`
/// that renders as 326 bytes — sizes a read of 80 rows by what the
/// column holds, not 80 times the outlier, and by the narrow ones alone
/// once it is deleted.
#[test]
fn one_wide_value_does_not_size_every_read() {
    let mut db = catalog(2_000);
    let (wide, tiny) = ("w".repeat(1 << 16), format!("0.{}5", "0".repeat(322)));
    db.execute(&format!("INSERT INTO watches VALUES (4000, '{wide}', {tiny})")).unwrap();
    let few = |db: &Database, column| {
        let sql = format!("SELECT {column} FROM watches WHERE brand = 'x' ORDER BY id");
        packed_read(db, &sql, column).0
    };
    for (column, widest) in [("brand", wide.len()), ("price", 326)] {
        let (all, _) = packed_read(&db, &format!("SELECT {column} FROM watches"), column).0;
        let (text, ends) = few(&db, column);
        assert_eq!(ends.len(), 80);
        assert!(
            text.capacity() <= all.len() && text.capacity() < ends.len() * widest,
            "{} bytes reserved for {} values of {column}, {} stored",
            text.capacity(),
            text.len(),
            all.len()
        );
    }
    db.execute("DELETE FROM watches WHERE id = 4000").unwrap();
    for column in ["brand", "price"] {
        let (text, ends) = few(&db, column);
        // The widest left is `brand16` or `299.5`.
        assert!(text.capacity() <= ends.len() * 7, "{} bytes for {column}", text.capacity());
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

/// Three columns of statements that share their rows cost one
/// statement's blocks and two more columns: the rows are filtered and
/// ordered once. When this was written one statement cost 12 blocks,
/// the three together 16, and run apart 36.
#[test]
fn statements_sharing_their_rows_pay_one_statement() {
    let db = catalog(2_000);
    let sql = |column: &str| {
        format!("SELECT {column} FROM watches WHERE (brand = 'x' AND price < 100) ORDER BY id")
    };
    let columns = ["brand", "price", "id"];
    let stmts: Vec<_> =
        columns.iter().map(|c| Database::prepare_select(&sql(c)).unwrap()).collect();
    let (_, one) = packed_read(&db, &sql("brand"), "brand");
    let (columns, together) = allocations(|| {
        let mut packed: [Packed; 3] = Default::default();
        let selection = db.select(&stmts[0]).unwrap();
        for ((stmt, column), packed) in stmts.iter().zip(columns).zip(&mut packed) {
            selection.each(selection.column(stmt, column).unwrap(), &mut &mut *packed);
        }
        packed.map(|p| p.ends.len())
    });
    assert_eq!(columns, [40; 3]);
    assert!(together <= one + 2 * 2, "{together} blocks for three, {one} for one");
}
