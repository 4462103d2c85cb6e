//! Allocation budget of a scan: `find_iter` allocates its working
//! memory and one slot block once, so 250 matches and 2 000 cost the
//! same number of blocks when each match is dropped before the next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_textmatch::Regex;

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

/// `records` lines in the benchmark's text-source layout.
fn catalog(records: usize) -> String {
    (0..records)
        .map(|i| format!("brand: b{}-x | price: {}.5 | case: c{}\n", i % 17, i % 300, i % 5))
        .collect()
}

/// What a scan may allocate, whatever it finds.
const PER_SCAN: usize = 16;

/// The captured text's total length and the match count of a scan that
/// reads group 1 of each match, the way the regex wrapper does, and the
/// blocks it allocated.
fn scan(re: &Regex, text: &str) -> ((usize, usize), usize) {
    allocations(|| {
        re.find_iter(text)
            .filter_map(|m| m.get(1))
            .fold((0, 0), |(len, n), c| (len + c.len(), n + 1))
    })
}

#[test]
fn a_scan_allocates_the_same_blocks_for_any_number_of_matches() {
    let (small, large) = (catalog(250), catalog(2_000));
    // A terminal run, a loop that steps to its end, and a pattern
    // without a literal prefix.
    for pattern in [r"brand: ([\w-]+)", r"price: ([0-9.]+)\b", r"(\d+)\.5"] {
        let re = Regex::new(pattern).unwrap();
        let ((_, few), few_blocks) = scan(&re, &small);
        let ((_, many), many_blocks) = scan(&re, &large);
        assert_eq!((few, many), (250, 2_000), "{pattern}");
        assert_eq!(few_blocks, many_blocks, "{pattern}: blocks grew with the matches");
        // The scratch (two visited-stamp tables, two slot buffers, two
        // thread lists and the closure stack, with their growth) and the
        // one slot block the matches share.
        assert!(many_blocks <= PER_SCAN, "{pattern}: {many_blocks} blocks");
    }
}

#[test]
fn held_matches_keep_their_own_slots() {
    let re = Regex::new(r"brand: ([\w-]+)").unwrap();
    let text = catalog(3);
    let held: Vec<_> = re.find_iter(&text).collect();
    let brands: Vec<&str> = held.iter().map(|m| m.get(1).unwrap().text()).collect();
    assert_eq!(brands, ["b0-x", "b1-x", "b2-x"]);
}
