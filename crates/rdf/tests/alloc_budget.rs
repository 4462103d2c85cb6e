//! Allocation budget of term construction: a term built from borrowed
//! text, or an IRI minted under a prefix, is one heap block — the shared
//! `Arc<str>` — with no `String` in between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_rdf::vocab::xsd;
use s2s_rdf::{BlankNode, Iri, Literal};

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

#[test]
fn a_term_from_borrowed_text_is_one_block() {
    // The well-known datatype IRIs are allocated once per process.
    let (string, decimal) = (xsd::string(), xsd::decimal());
    drop(string);

    let (iri, n) = allocations(|| Iri::new("http://example.org/data/watch/db/17"));
    assert_eq!((iri.unwrap().local_name(), n), ("17", 1));
    let prefix = Iri::new("http://example.org/data/watch/db/").unwrap();
    let (iri, n) = allocations(|| Iri::new_under(&prefix, "http://example.org/data/watch/db/18"));
    assert_eq!((iri.unwrap().local_name(), n), ("18", 1));
    let (literal, n) = allocations(|| Literal::string("Seiko"));
    assert_eq!((literal.lexical(), n), ("Seiko", 1));
    let (literal, n) = allocations(|| Literal::typed("129.99", decimal));
    assert_eq!((literal.lexical(), n), ("129.99", 1));
    let (blank, n) = allocations(|| BlankNode::new("b1"));
    assert_eq!((blank.unwrap().label(), n), ("b1", 1));
}
