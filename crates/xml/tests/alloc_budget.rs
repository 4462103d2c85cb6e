//! Allocation budget of the XPath evaluator: a path allocates once per
//! string it returns plus a constant per evaluation, and a node a
//! predicate rejects allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_xml::xpath::XPath;
use s2s_xml::Document;

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

/// `records` watches; every 50th is an `x` under 100.
fn catalog(records: usize) -> Document {
    let mut xml = String::from("<catalog>");
    for i in 0..records {
        let (brand, price) = match i % 50 {
            0 => ("x".to_string(), "99.5".to_string()),
            1 => ("x".to_string(), "100.5".to_string()),
            _ => (format!("brand{}", i % 17), format!("{}.5", 100 + i % 300)),
        };
        xml.push_str(&format!(
            "<watch id=\"{i}\"><brand>{brand}</brand><price>{price}</price></watch>"
        ));
    }
    xml.push_str("</catalog>");
    s2s_xml::parse(&xml).unwrap()
}

/// What an evaluation may allocate besides its strings: the two step
/// buffers and their growth, the output vector.
const PER_EVALUATION: usize = 40;

#[test]
fn text_step_allocates_once_per_value() {
    let records = 2_000;
    let doc = catalog(records);
    let path = XPath::new("/catalog/watch/brand/text()").unwrap();
    let (values, n) = allocations(|| path.eval_strings(&doc));
    assert_eq!(values.len(), records);
    assert!(n <= records + PER_EVALUATION, "{n} allocations for {records} values");
}

#[test]
fn rejected_nodes_allocate_nothing() {
    let doc = catalog(2_000);
    let pushed = XPath::new("/catalog/watch[brand = 'x'][price < '100']/brand/text()").unwrap();
    let (values, n) = allocations(|| pushed.eval_strings(&doc));
    assert_eq!(values.len(), 40);
    assert!(n <= values.len() + PER_EVALUATION, "{n} allocations for {} values", values.len());

    // With no survivor at all, the count does not depend on the document.
    let none = XPath::new("/catalog/watch[brand = 'y'][price < '100']/brand/text()").unwrap();
    let (values, small) = allocations(|| none.eval_strings(&doc));
    assert!(values.is_empty());
    let twice = catalog(4_000);
    let (_, large) = allocations(|| none.eval_strings(&twice));
    assert_eq!(small, large, "allocations grew with the nodes visited");
    assert!(small <= PER_EVALUATION, "{small} allocations for an empty answer");
}
