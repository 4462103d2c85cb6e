//! Allocation budget of the XPath evaluator: an evaluation through the
//! sink allocates a constant — nothing per string it hands over,
//! nothing per node a predicate rejects — and the list form one
//! `String` per string on top.

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

/// What an evaluation may allocate besides its output: the two step
/// buffers and their growth.
const PER_EVALUATION: usize = 40;

/// What a 2 000-string evaluation through the sink may allocate: the
/// evaluation's own, plus the doubling growth of the text and of the
/// offsets.
const SINK_BUDGET: usize = PER_EVALUATION + 8;

/// Evaluates `path` through the sink into one text buffer cut by end
/// offsets — the shape the engine's column has — and counts the blocks.
fn packed_eval(doc: &Document, path: &str) -> ((String, Vec<usize>), usize) {
    let path = XPath::new(path).unwrap();
    allocations(|| {
        let (mut text, mut ends) = (String::new(), Vec::new());
        path.each_string(doc, |s| {
            text.push_str(s);
            ends.push(text.len());
        });
        (text, ends)
    })
}

#[test]
fn evaluation_through_the_sink_allocates_a_constant() {
    // Single-text-node content, attribute values, and element results
    // are all handed over borrowed from the document.
    for path in ["/catalog/watch/brand/text()", "/catalog/watch/@id", "/catalog/watch/price"] {
        let ((_, ends), small) = packed_eval(&catalog(2_000), path);
        assert_eq!(ends.len(), 2_000);
        assert!(small <= SINK_BUDGET, "{small} allocations for 2 000 values of {path}");
        // Twice the records: each buffer that grows by doubling (two
        // step buffers, text, offsets) grows once more — 43 then 47 when
        // this was written — and nothing grows per value.
        let ((_, ends), large) = packed_eval(&catalog(4_000), path);
        assert_eq!(ends.len(), 4_000);
        assert!(large <= small + 4, "{small} allocations at 2 000 records, {large} at 4 000");
    }
}

/// Mixed content is composed in one scratch buffer reused from result
/// to result, not in a `String` per result.
#[test]
fn mixed_content_shares_one_scratch_buffer() {
    let record = "<w><b>Sei<!-- split -->ko</b><n>Dive <i>200</i> m</n></w>";
    let document =
        |records: usize| s2s_xml::parse(&format!("<c>{}</c>", record.repeat(records))).unwrap();
    for (path, value) in [("/c/w/b/text()", "Seiko"), ("/c/w/n", "Dive 200 m")] {
        let ((text, ends), small) = packed_eval(&document(500), path);
        assert_eq!((ends.len(), &text[..ends[0]]), (500, value));
        let (_, large) = packed_eval(&document(1_000), path);
        assert!(small <= SINK_BUDGET && large <= small + 4, "{path}: {small}, then {large}");
    }
}

/// The list form is the sink form plus one `String` per value.
#[test]
fn list_form_allocates_once_per_value() {
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
    let pushed = "/catalog/watch[brand = 'x'][price < '100']/brand/text()";
    let ((_, ends), n) = packed_eval(&doc, pushed);
    assert_eq!(ends.len(), 40);
    assert!(n <= PER_EVALUATION, "{n} allocations for {} values", ends.len());

    // With no survivor at all, the count does not depend on the document.
    let none = "/catalog/watch[brand = 'y'][price < '100']/brand/text()";
    let ((_, ends), small) = packed_eval(&doc, none);
    assert!(ends.is_empty());
    let (_, large) = packed_eval(&catalog(4_000), none);
    assert_eq!(small, large, "allocations grew with the nodes visited");
    assert!(small <= PER_EVALUATION, "{small} allocations for an empty answer");
}
