//! Allocation budgets. The parser allocates per document, not per node:
//! its arena's vectors grow by doubling. An XPath evaluation through
//! the sink allocates a constant — nothing per string it hands over,
//! nothing per node a predicate rejects — and the list form one
//! `String` per string on top.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_xml::xpath::{RecordFilter, XPath};
use s2s_xml::{Document, StringSink};

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
fn catalog_xml(records: usize) -> String {
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
    xml
}

fn catalog(records: usize) -> Document {
    s2s_xml::parse(&catalog_xml(records)).unwrap()
}

/// What parsing a document of a few distinct names may allocate: the
/// arena's vectors, the text buffer, the name table and the open
/// elements, each grown by doubling.
const PARSE_BUDGET: usize = 100;

#[test]
fn parse_allocates_per_document_not_per_node() {
    let (small, large) = (catalog_xml(2_000), catalog_xml(4_000));
    let (doc, at_2k) = allocations(|| s2s_xml::parse(&small).unwrap());
    assert_eq!(doc.node_count(), 1 + 2_000 * 5);
    let (doc, at_4k) = allocations(|| s2s_xml::parse(&large).unwrap());
    assert_eq!(doc.node_count(), 1 + 4_000 * 5);
    // Twice the nodes: each vector that grows by doubling grows once
    // more — 82 then 88 when this was written — and nothing per node.
    assert!(at_2k <= PARSE_BUDGET, "{at_2k} allocations for 2 000 records");
    assert!(at_4k <= at_2k + 8, "{at_2k} allocations at 2 000 records, {at_4k} at 4 000");
}

/// What an evaluation may allocate besides its output: the two step
/// buffers and their growth.
const PER_EVALUATION: usize = 40;

/// What a 2 000-string evaluation through the sink may allocate: the
/// evaluation's own, plus the text and the offsets, each sized once.
const SINK_BUDGET: usize = PER_EVALUATION + 2;

/// One text buffer cut by end offsets — the shape the engine's column
/// has — sized once from what the sink is told.
#[derive(Default)]
struct Packed {
    text: String,
    ends: Vec<usize>,
}

impl StringSink for &mut Packed {
    fn size(&mut self, strings: usize, text_bytes: usize) {
        self.ends.reserve_exact(strings);
        self.text.reserve_exact(text_bytes);
    }

    fn push(&mut self, string: &str) {
        self.text.push_str(string);
        self.ends.push(self.text.len());
    }
}

/// Evaluates `path` through the sink into a [`Packed`] column and
/// counts the blocks.
fn packed_eval(doc: &Document, path: &str) -> ((String, Vec<usize>), usize) {
    let path = XPath::new(path).unwrap();
    allocations(|| {
        let mut packed = Packed::default();
        path.each_string(doc, &mut packed);
        (packed.text, packed.ends)
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
        // Twice the records: the two step buffers grow once more by
        // doubling — 23 then 25 when this was written, 43 then 47 while
        // the text and the offsets doubled too — and nothing else grows.
        let ((_, ends), large) = packed_eval(&catalog(4_000), path);
        assert_eq!(ends.len(), 4_000);
        assert!(large <= small + 2, "{small} allocations at 2 000 records, {large} at 4 000");
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
        assert!(small <= SINK_BUDGET && large <= small + 2, "{path}: {small}, then {large}");
    }
}

/// One 64 KiB paragraph among 2 000 short prices sizes a read of the
/// prices by the text the document holds, not 2 000 times the paragraph.
#[test]
fn one_wide_node_does_not_size_every_read() {
    let paragraph = format!("<note>{}</note>", "w".repeat(1 << 16));
    let xml = catalog_xml(2_000).replace("</catalog>", &format!("{paragraph}</catalog>"));
    let doc = s2s_xml::parse(&xml).unwrap();
    let ((text, ends), n) = packed_eval(&doc, "/catalog/watch/price/text()");
    assert_eq!(ends.len(), 2_000);
    assert!(text.capacity() <= xml.len(), "{} bytes reserved, {}", text.capacity(), text.len());
    assert!(n <= SINK_BUDGET, "{n} allocations for 2 000 values");
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

/// Three fields of one set of records, read in one walk, cost no more
/// blocks than one of them read alone, and nothing per record: the
/// records are selected once, and no step buffer is grown to hold the
/// fields. When this was written one path cost 23 blocks, the three
/// together 20 at 2 000 records and 21 at 4 000.
#[test]
fn paths_sharing_their_records_pay_one_walk() {
    let paths: Vec<XPath> =
        ["/catalog/watch/brand/text()", "/catalog/watch/@id", "/catalog/watch/price"]
            .iter()
            .map(|p| XPath::new(p).unwrap())
            .collect();
    let refs: Vec<&XPath> = paths.iter().collect();
    let together = |records: usize| {
        let doc = catalog(records);
        let (lengths, n) = allocations(|| {
            let mut packed: [Packed; 3] = Default::default();
            XPath::each_string_grouped(&refs, &doc, &mut packed.each_mut(), None::<RecordFilter>);
            packed.map(|p| p.ends.len())
        });
        assert_eq!(lengths, [records; 3]);
        n
    };
    let (_, one) = packed_eval(&catalog(2_000), "/catalog/watch/brand/text()");
    let (small, large) = (together(2_000), together(4_000));
    assert!(small <= one, "{small} blocks for three, {one} for one");
    assert!(large <= small + 2, "{small} allocations at 2 000 records, {large} at 4 000");
}
