//! Allocation budget of the Instance Generator: a three-attribute
//! individual costs twelve heap blocks (its IRI, its `Individual` — the
//! source id, one map node, a `Vec` and a `String` per value — and one
//! block per literal), the graph's tree nodes come on top per triple,
//! everything else is vectors that double, and a record the condition
//! rejects allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_core::extract::{AttributeResult, ExtractionReport};
use s2s_core::instance::{generate, InstanceSet};
use s2s_core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s_core::query::{parse, plan};
use s2s_netsim::SimDuration;
use s2s_owl::Ontology;

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

fn ontology() -> Ontology {
    Ontology::builder("http://budget.example/schema#")
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .datatype_property("price", "Product", "http://www.w3.org/2001/XMLSchema#decimal")
        .unwrap()
        .datatype_property("case", "Watch", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap()
}

/// One source of `records` watches with a brand, a price and a case.
fn report(ontology: &Ontology, records: usize) -> ExtractionReport {
    let mut module = MappingModule::new();
    for attribute in ["brand", "price", "case"] {
        module
            .register(
                ontology,
                format!("thing.product.watch.{attribute}").parse().unwrap(),
                ExtractionRule::TextRegex { pattern: "x".into(), group: 0 },
                "DB".into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
    }
    let results = module
        .iter()
        .map(|mapping| AttributeResult {
            mapping: mapping.clone(),
            values: (0..records)
                .map(|i| match mapping.property().local_name() {
                    "brand" => format!("brand{}", i % 17),
                    "price" => format!("{}.5", i % 300),
                    _ => "steel".to_string(),
                })
                .collect(),
            elapsed: SimDuration::from_micros(10),
        })
        .collect();
    ExtractionReport { results, ..Default::default() }
}

fn generated(query: &str, records: usize) -> (InstanceSet, usize) {
    let ontology = ontology();
    let plan = plan(&parse(query).unwrap(), &ontology).unwrap();
    let report = report(&ontology, records);
    // The first answer over an ontology also computes its closure.
    generate(&ontology, &plan, &report);
    allocations(|| generate(&ontology, &plan, &report))
}

/// What an answer may allocate besides its individuals and tree nodes:
/// the per-source columns, block and buffers, and the doublings of the
/// vectors of individuals, survivors, candidates and positions.
const REMAINDER: usize = 96;

/// Tree nodes for `triples` triples: a node holds up to eleven, the bulk
/// build fills leaves and hangs them under inner nodes of the same
/// width.
fn tree_nodes(triples: usize) -> usize {
    triples / 11 + triples / 121 + 4
}

#[test]
fn an_individual_costs_twelve_blocks() {
    for records in [1_000, 2_000] {
        let (set, n) = generated("SELECT watch", records);
        assert_eq!(set.individuals.len(), records);
        assert_eq!(set.graph.len(), 5 * records);
        let budget = 12 * records + tree_nodes(set.graph.len()) + REMAINDER;
        assert!(n <= budget, "{n} allocations for {records} individuals, budget {budget}");
    }
}

#[test]
fn rejected_records_allocate_nothing() {
    let (set, small) = generated("SELECT watch WHERE brand='none'", 1_000);
    assert!(set.individuals.is_empty());
    let (_, large) = generated("SELECT watch WHERE brand='none'", 2_000);
    assert_eq!(small, large, "allocations grew with the records rejected");
    assert!(small <= REMAINDER, "{small} allocations for an empty answer");
}
