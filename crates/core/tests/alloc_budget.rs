//! Allocation budget of the Instance Generator: a three-attribute
//! individual costs twelve heap blocks (its IRI, its `Individual` — the
//! source id, one map node, a `Vec` and a `String` per value — and one
//! block per literal; its entailed types are stamped from closures made
//! once per answer), the graph's tree nodes come on top per triple,
//! everything else is vectors that double, and a record the condition
//! rejects allocates nothing — the condition's selection is a bitmap
//! sized once by the records. And of the pipeline before it: a value
//! costs nothing between its source and the generator — a column is
//! two blocks however long, moved from the wrapper to the report, and
//! copied once (two blocks) when a view serves or keeps it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_core::extract::{AttributeResult, ExtractionReport};
use s2s_core::instance::{generate, InstanceSet};
use s2s_core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s_core::query::{parse, plan};
use s2s_core::source::Connection;
use s2s_core::S2s;
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

/// `sources`, each of `records` watches with a brand, a price and a case.
fn report(ontology: &Ontology, records: usize, sources: &[&str]) -> ExtractionReport {
    let mut module = MappingModule::new();
    for source in sources {
        for attribute in ["brand", "price", "case"] {
            module
                .register(
                    ontology,
                    format!("thing.product.watch.{attribute}").parse().unwrap(),
                    ExtractionRule::TextRegex { pattern: "x".into(), group: 0 },
                    (*source).into(),
                    RecordScenario::MultiRecord,
                )
                .unwrap();
        }
    }
    let results = module
        .iter()
        .map(|mapping| AttributeResult {
            mapping: mapping.clone().into(),
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
    generated_over(query, records, &["DB"])
}

fn generated_over(query: &str, records: usize, sources: &[&str]) -> (InstanceSet, usize) {
    let ontology = ontology();
    let plan = plan(&parse(query).unwrap(), &ontology).unwrap();
    let report = report(&ontology, records, sources);
    // The first answer over an ontology also computes its closure.
    generate(&ontology, &plan, &report);
    allocations(|| generate(&ontology, &plan, &report))
}

/// What an answer may allocate besides its individuals and tree nodes:
/// the per-source columns, rows and buffers, one closure per template
/// (four here) and the doublings of the vectors of individuals,
/// survivors and triples — 29 when this was written. Closing the whole
/// answer once more, as the generator did before it stamped template
/// closures, adds 14 at 1 000 individuals (the round's candidate and
/// position vectors) and fails this budget.
const REMAINDER: usize = 32;

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

/// The condition's selection is one bitmap and the copies its
/// complements borrow: at most the tree's height + 1 blocks a query,
/// sized by the records and never grown by them, the second source's in
/// the first one's buffers.
#[test]
fn a_selection_costs_at_most_the_height_of_its_tree_in_blocks() {
    const SOURCES: [&str; 2] = ["DB", "XML"];
    const DEEP: &str = "(brand='none' AND NOT (price>=0 OR case LIKE 'x%'))";
    // A condition that accepts every record allocates, beyond what the
    // query without it does, its selection.
    for (condition, height) in [
        ("brand LIKE 'b%' AND price>=0".to_string(), 2),
        ("NOT (brand='x' AND price<100)".to_string(), 3),
        (format!("NOT (case='resin' OR {DEEP})"), 6),
    ] {
        for records in [1_000, 2_000] {
            let (all, unconditioned) = generated_over("SELECT watch", records, &SOURCES);
            let (kept, selected) =
                generated_over(&format!("SELECT watch WHERE {condition}"), records, &SOURCES);
            assert_eq!(kept.individuals.len(), all.individuals.len(), "{condition}");
            assert!(
                selected <= unconditioned + height + 1,
                "{selected} allocations under `{condition}`, {unconditioned} without, {records} records"
            );
        }
    }
    // One that rejects every record allocates what it does at any count.
    for condition in
        ["brand='x' AND price<100".to_string(), format!("NOT (case='steel' OR {DEEP})")]
    {
        let query = format!("SELECT watch WHERE {condition}");
        let (set, small) = generated_over(&query, 1_000, &SOURCES);
        assert!(set.individuals.is_empty(), "{condition}");
        let (_, large) = generated_over(&query, 2_000, &SOURCES);
        assert_eq!(small, large, "allocations under `{condition}` grew with the records rejected");
        assert!(small <= REMAINDER, "{small} allocations for an empty answer");
    }
}

/// An engine over one database of `rows` watches (brand, price) and one
/// XML catalog of as many, nothing cached but compiled rules and plans.
fn engine(rows: usize, views: bool) -> S2s {
    let mut db = s2s_minidb::Database::new("budget");
    db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
    let mut xml = String::from("<c>");
    for i in 0..rows {
        db.execute(&format!("INSERT INTO w VALUES ({i}, 'brand{}', {}.5)", i % 17, i % 300))
            .unwrap();
        xml.push_str(&format!("<w><b>brand{}</b><p>{}.5</p></w>", i % 17, i % 300));
    }
    xml.push_str("</c>");
    let s2s = S2s::new(ontology());
    let mut s2s = if views { s2s.with_views() } else { s2s };
    s2s.register_source("DB", Connection::Database { db: db.into() }).unwrap();
    let document = s2s_xml::parse(&xml).unwrap().into();
    s2s.register_source("XML", Connection::Xml { document }).unwrap();
    let sql = |column: &str| ExtractionRule::Sql {
        query: format!("SELECT {column} FROM w ORDER BY id"),
        column: column.into(),
    };
    let xpath = |field: &str| ExtractionRule::XPath { path: format!("/c/w/{field}/text()") };
    for (attribute, rule, source) in [
        ("brand", sql("brand"), "DB"),
        ("price", sql("price"), "DB"),
        ("brand", xpath("b"), "XML"),
        ("price", xpath("p"), "XML"),
    ] {
        let path = format!("thing.product.{attribute}");
        s2s.register_attribute(&path, rule, source, RecordScenario::MultiRecord).unwrap();
    }
    s2s
}

/// Blocks one warm query costs that reads four `rows`-value columns and
/// keeps no record (so the generator adds nothing per record).
fn query_cost(rows: usize, views: bool) -> usize {
    let s2s = engine(rows, views);
    let query = "SELECT product WHERE brand='none'";
    // Warm: rules compiled, plan cached, views (if any) materialized.
    assert!(s2s.query(query).unwrap().individuals().is_empty());
    let (outcome, n) = allocations(|| s2s.query(query).unwrap());
    assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
    assert_eq!(outcome.stats.view_hits, if views { 4 } else { 0 });
    n
}

/// Each of a query's vectors that grow by doubling (per column: row
/// chains or step buffers, text, offsets) may grow once more when the
/// rows double; nothing may grow per value.
const DOUBLINGS: usize = 4 * 5;

#[test]
fn an_extracted_column_is_moved_from_wrapper_to_generator() {
    let (small, large) = (query_cost(2_000, false), query_cost(4_000, false));
    // 233 then 245 when this was written.
    assert!(small <= 300, "{small} allocations for four 2 000-value columns");
    assert!(large <= small + DOUBLINGS, "{small} allocations at 2 000 rows, {large} at 4 000");
}

/// Blocks one replay costs on an engine whose cached answer read
/// `sources` database sources: the freshness check compares every
/// recorded version with the registry's.
fn replay_cost(sources: usize) -> usize {
    let mut s2s = S2s::new(ontology()).with_result_cache();
    for i in 0..sources {
        let mut db = s2s_minidb::Database::new("budget");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT)").unwrap();
        db.execute("INSERT INTO w VALUES (1, 'brand1')").unwrap();
        let id = format!("DB{i}");
        s2s.register_source(&id, Connection::Database { db: db.into() }).unwrap();
        let rule = ExtractionRule::Sql {
            query: "SELECT brand FROM w ORDER BY id".into(),
            column: "brand".into(),
        };
        s2s.register_attribute("thing.product.brand", rule, &id, RecordScenario::MultiRecord)
            .unwrap();
    }
    let query = "SELECT product WHERE brand='none'";
    assert_eq!(s2s.query(query).unwrap().stats.result_cache.misses, 1);
    let (outcome, n) = allocations(|| s2s.query(query).unwrap());
    assert_eq!(outcome.stats.result_cache.hits, 1);
    assert_eq!(outcome.stats.tasks, sources);
    n
}

#[test]
fn a_replay_checks_freshness_without_allocating_per_dependency() {
    assert_eq!(replay_cost(1), replay_cost(8), "a replay allocated per source it depends on");
}

#[test]
fn a_view_served_slice_clones_two_blocks() {
    let (small, large) = (query_cost(2_000, true), query_cost(4_000, true));
    // 90 at either length when this was written.
    assert_eq!(small, large, "a view hit copies a column: two blocks at any length");
    // Against the same query with nothing to serve it: the four wrapper
    // runs are gone, two blocks per slice came instead.
    assert!(small <= query_cost(2_000, false), "{small} allocations for four view hits");
}

/// An engine over one database table of one row and `rules` text
/// columns, each mapped to its own attribute by its own SQL rule; no
/// result cache, so every query runs every rule.
fn rule_engine(rules: usize) -> S2s {
    let mut ontology =
        Ontology::builder("http://budget.example/rules#").class("Product", None).unwrap();
    for i in 0..rules {
        ontology = ontology
            .datatype_property(
                &format!("a{i}"),
                "Product",
                "http://www.w3.org/2001/XMLSchema#string",
            )
            .unwrap();
    }
    let mut db = s2s_minidb::Database::new("budget");
    let columns: Vec<String> = (0..rules).map(|i| format!("a{i} TEXT")).collect();
    db.execute(&format!("CREATE TABLE w (id INTEGER PRIMARY KEY, {})", columns.join(", ")))
        .unwrap();
    let values: Vec<String> = (0..rules).map(|i| format!("'v{i}'")).collect();
    db.execute(&format!("INSERT INTO w VALUES (1, {})", values.join(", "))).unwrap();
    let mut s2s = S2s::new(ontology.build().unwrap());
    s2s.register_source("DB", Connection::Database { db: db.into() }).unwrap();
    for i in 0..rules {
        let rule = ExtractionRule::Sql {
            query: format!("SELECT a{i} FROM w ORDER BY id"),
            column: format!("a{i}"),
        };
        let path = format!("thing.product.a{i}");
        s2s.register_attribute(&path, rule, "DB", RecordScenario::MultiRecord).unwrap();
    }
    s2s
}

/// Blocks one warm query costs on [`rule_engine`]`(rules)`.
fn rules_cost(rules: usize) -> usize {
    let s2s = rule_engine(rules);
    let query = "SELECT product WHERE a0='none'";
    // Warm: rules compiled, plan cached.
    assert!(s2s.query(query).unwrap().individuals().is_empty());
    let (outcome, n) = allocations(|| s2s.query(query).unwrap());
    assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
    assert_eq!(outcome.stats.tasks, rules);
    n
}

/// A rule a warm query runs costs its column, its wrapper's buffers
/// and its share of the generator — 14.4 blocks when this was written —
/// and nothing to find its compiled form, which its mapping holds. A
/// shared compiled-rule cache keyed on `(language, rule text)` cost one
/// more: the key `String`, 15.4 blocks a rule, and fails this bound.
#[test]
fn a_warm_rule_finds_its_compiled_form_without_allocating() {
    const EXTRA: usize = 32;
    let (few, many) = (rules_cost(16), rules_cost(16 + EXTRA));
    assert!(
        many - few <= 15 * EXTRA,
        "{} allocations for {EXTRA} more rules ({few} at 16 rules, {many} at {})",
        many - few,
        16 + EXTRA
    );
}
