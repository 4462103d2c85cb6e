//! Allocation budget of the Instance Generator: a three-attribute
//! individual costs four heap blocks (its IRI and one block per
//! literal; its values go to the answer's record list, its entailed
//! types are stamped from closures made once per answer), the graph is
//! the generator's vector of triples as emitted, everything else is
//! vectors sized once per source or that double, and a record the
//! condition rejects allocates nothing — the condition is folded once
//! per source into a buffer sized by the tree. The individuals' view
//! costs seven blocks an individual (its value vector, a `Vec` and a
//! `String` per value) on its first read, none after, and nothing when
//! the answer is only rendered. And of the pipeline before it: a value
//! costs nothing between its source and the generator — a column is
//! two blocks however long, moved from the wrapper to the report, and
//! copied once (two blocks) when a view serves or keeps it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s2s_core::extract::{AttributeResult, ExtractionReport, Strategy};
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
    /// A block size watched on the current thread, and how many
    /// allocations of it were made.
    static SIZED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = SIZED.try_with(|sized| {
        let (watched, n) = sized.get();
        sized.set((watched, n + usize::from(size == watched)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Allocations of exactly `size` bytes `f` makes.
fn blocks_of<T>(size: usize, f: impl FnOnce() -> T) -> (T, usize) {
    SIZED.with(|sized| sized.set((size, 0)));
    let out = f();
    (out, SIZED.with(|sized| sized.replace((0, 0)).1))
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

/// What an answer may allocate besides its individuals: the per-source
/// columns, rows and buffers, one closure per template (four here), the
/// record list's buffers and the doublings of the vectors of survivors
/// and triples — 66 at 1 000 individuals and 67 at 2 000 when this was
/// written (67 and 69 while the generator built each `Individual`; the
/// graph is the vector of triples, so it adds nothing). Closing the
/// whole answer once more, as the generator did before it stamped
/// template closures, adds 14 at 1 000 individuals (the round's
/// candidate and position vectors) and fails this budget.
const REMAINDER: usize = 70;

/// What an answer with no individuals may allocate: 10 to 16 blocks
/// when this was written.
const EMPTY_ANSWER: usize = 32;

/// An individual's IRI and its three literals. While the generator
/// built each `Individual` as it kept the record — the source id, one
/// map node, a `Vec` and a `String` per value — it was twelve: 12 067
/// blocks at 1 000 individuals, 4 066 now.
#[test]
fn an_individual_costs_four_blocks_to_generate() {
    for records in [1_000, 2_000] {
        let (set, n) = generated("SELECT watch", records);
        assert_eq!(set.individuals.len(), records);
        assert_eq!(set.graph.len(), 5 * records);
        let budget = 4 * records + REMAINDER;
        assert!(n <= budget, "{n} allocations for {records} individuals, budget {budget}");
    }
}

/// The view's first read costs an individual its value vector and a
/// `Vec` and a `String` per value — the source id and the IRIs are
/// shared — plus one vector for all; a second read costs nothing.
#[test]
fn the_view_costs_seven_blocks_an_individual_on_its_first_read_only() {
    for records in [1_000, 2_000] {
        let (set, _) = generated("SELECT watch", records);
        let (_, first) = allocations(|| set.individuals[0].values.len());
        let budget = 7 * records + 1;
        assert!(first <= budget, "{first} allocations for {records} individuals, budget {budget}");
        let (_, second) = allocations(|| set.individuals[records - 1].values.len());
        assert_eq!(second, 0, "the second read built the view again");
    }
}

/// Rendering reads the graph, or the record list for plain XML and
/// text: the view is still unbuilt after every format, its first read
/// as costly as on an answer never rendered.
#[test]
fn rendering_builds_no_view() {
    use s2s_core::instance::{render, OutputFormat};
    let ontology = ontology();
    let (unrendered, _) = generated("SELECT watch", 1_000);
    let (_, build) = allocations(|| unrendered.individuals[0].values.len());
    let (set, _) = generated("SELECT watch", 1_000);
    for format in [
        OutputFormat::OwlRdfXml,
        OutputFormat::Turtle,
        OutputFormat::NTriples,
        OutputFormat::Xml,
        OutputFormat::Text,
    ] {
        assert!(!render(&set, &ontology, format).is_empty());
    }
    let (_, first) = allocations(|| set.individuals[0].values.len());
    assert_eq!(first, build, "a rendering built the view");
}

/// Writing an answer as RDF/XML allocates its output buffer, sized from
/// the triple count, its prefix map and its memo of qualified names —
/// the same blocks at 1 000 individuals as at 2 000, none per triple.
#[test]
fn rendering_rdf_xml_allocates_no_block_per_triple() {
    use s2s_core::instance::{render, OutputFormat};
    let ontology = ontology();
    let blocks: Vec<usize> = [1_000, 2_000]
        .into_iter()
        .map(|records| {
            let (set, _) = generated("SELECT watch", records);
            let (xml, n) = allocations(|| render(&set, &ontology, OutputFormat::OwlRdfXml));
            assert!(xml.len() > 200 * records, "{} bytes", xml.len());
            n
        })
        .collect();
    assert_eq!(blocks[0], blocks[1], "blocks grew with the triples");
    assert!(blocks[0] <= RENDERING, "{} blocks to render", blocks[0]);
}

/// What writing an answer as RDF/XML may allocate: 16 blocks when this
/// was written.
const RENDERING: usize = 16;

#[test]
fn rejected_records_allocate_nothing() {
    let (set, small) = generated("SELECT watch WHERE brand='none'", 1_000);
    assert!(set.individuals.is_empty());
    let (_, large) = generated("SELECT watch WHERE brand='none'", 2_000);
    assert_eq!(small, large, "allocations grew with the records rejected");
    assert!(small <= EMPTY_ANSWER, "{small} allocations for an empty answer");
}

/// The generator tests an unfiltered source's records with the
/// condition folded against its columns: one buffer, sized by the tree
/// and never grown by the records, the second source's fold in the
/// first one's — within the tree's height + 1 blocks a query.
#[test]
fn a_selection_costs_at_most_the_height_of_its_tree_in_blocks() {
    const SOURCES: [&str; 2] = ["DB", "XML"];
    const DEEP: &str = "(brand='none' AND NOT (price>=0 OR case LIKE 'x%'))";
    // A condition that accepts every record allocates, beyond what the
    // query without it does, its fold.
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
        assert!(small <= EMPTY_ANSWER, "{small} allocations for an empty answer");
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

/// Each of a query's vectors that grow by doubling — the two step
/// buffers of each XPath walk — may grow once more when the rows
/// double; a column is reserved once by its count, and nothing may grow
/// per value.
const DOUBLINGS: usize = 2 * 2;

#[test]
fn an_extracted_column_is_moved_from_wrapper_to_generator() {
    let (small, large) = (query_cost(2_000, false), query_cost(4_000, false));
    // 99 then 100 when this was written; 126 then 130 while each rule
    // ran as its own statement, 223 then 235 while the text and offsets
    // of every column grew by doubling.
    assert!(small <= 110, "{small} allocations for four 2 000-value columns");
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

/// Blocks one warm fresh query costs over `sources` remote database
/// sources of one row each, one `brand` rule apiece.
fn fresh_cost(sources: usize) -> usize {
    let mut s2s = S2s::new(ontology());
    for i in 0..sources {
        let mut db = s2s_minidb::Database::new("budget");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT)").unwrap();
        db.execute("INSERT INTO w VALUES (1, 'brand1')").unwrap();
        let id = format!("DB{i}");
        let (cost, failure) = (s2s_netsim::CostModel::lan(), s2s_netsim::FailureModel::reliable());
        s2s.register_remote_source(&id, Connection::Database { db: db.into() }, cost, failure)
            .unwrap();
        let rule = ExtractionRule::Sql {
            query: "SELECT brand FROM w ORDER BY id".into(),
            column: "brand".into(),
        };
        s2s.register_attribute("thing.product.brand", rule, &id, RecordScenario::MultiRecord)
            .unwrap();
    }
    let query = "SELECT product WHERE brand='none'";
    assert!(s2s.query(query).unwrap().individuals().is_empty());
    let (outcome, n) = allocations(|| s2s.query(query).unwrap());
    assert_eq!(outcome.stats.round_trips, sources as u64);
    assert_eq!(outcome.sources.len(), sources);
    n
}

/// The query ledger costs no more per source than the health map,
/// pushdown plan and loose counters it replaced: before it, a fresh
/// query over 8 remote sources allocated 155 more blocks than one over
/// a single source (227 against 72). With the ledger it was 149 (219
/// against 70); with columns reserved once and batches planned without
/// copies, 93 (155 against 62). With a source's rules run as one
/// statement, 100 (165 against 65): a one-rule source paid the statement
/// list, the columns and the results of its group. Run through its
/// filter without them it is 73 (137 against 64) when this was written,
/// the filter's record numbers included.
#[test]
fn the_ledger_allocates_no_more_per_source_than_the_accounts_it_replaced() {
    let (one, eight) = (fresh_cost(1), fresh_cost(8));
    assert!(eight - one <= 75, "{} more blocks for 7 more sources ({one}, {eight})", eight - one);
}

/// An engine shaped like a B2B fan-out: 640 catalog rows split into
/// `shards` remote databases behind a WAN, three SQL rules a shard, two
/// exchanges in flight. Prices are the grid `20.01 + 0.62·k`, dealt out
/// by a stride, so `price < 45` keeps 41 rows whatever the split.
fn fanout_engine(shards: usize) -> S2s {
    const ROWS: usize = 640;
    let mut s2s = S2s::new(ontology()).with_strategy(Strategy::Parallel { workers: 2 });
    for (shard, rows) in (0..ROWS).collect::<Vec<_>>().chunks(ROWS / shards).enumerate() {
        let mut db = s2s_minidb::Database::new("shard");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL, c TEXT)")
            .unwrap();
        let tuples: Vec<String> = rows
            .iter()
            .map(|&i| {
                let cents = 2_001 + (i * 7 % ROWS) * 62;
                let (brand, case) =
                    (["Seiko", "Casio", "Orient"][i % 3], ["steel", "resin"][i % 2]);
                format!("({i}, '{brand}', {}.{:02}, '{case}')", cents / 100, cents % 100)
            })
            .collect();
        db.execute(&format!("INSERT INTO w VALUES {}", tuples.join(", "))).unwrap();
        let id = shard_id(shard);
        let (cost, failure) = (s2s_netsim::CostModel::wan(), s2s_netsim::FailureModel::reliable());
        s2s.register_remote_source(&id, Connection::Database { db: db.into() }, cost, failure)
            .unwrap();
        for (attribute, column) in [("brand", "brand"), ("price", "price"), ("case", "c")] {
            let rule = ExtractionRule::Sql {
                query: format!("SELECT {column} FROM w ORDER BY id"),
                column: column.into(),
            };
            let path = format!("thing.product.watch.{attribute}");
            s2s.register_attribute(&path, rule, &id, RecordScenario::MultiRecord).unwrap();
        }
    }
    s2s
}

/// The id of fan-out shard `shard`: 29 bytes, an odd size no block but
/// text has.
fn shard_id(shard: usize) -> String {
    format!("CATALOG_SHARD_{shard:02}_EU_WEST_1_AZ")
}

/// Blocks one warm query costs on [`fanout_engine`]`(shards)`.
fn fanout_cost(shards: usize) -> usize {
    let s2s = fanout_engine(shards);
    let query = "SELECT watch WHERE price < 45";
    assert_eq!(s2s.query(query).unwrap().individuals().len(), 41);
    let (outcome, n) = allocations(|| s2s.query(query).unwrap());
    assert_eq!(outcome.individuals().len(), 41);
    assert_eq!((outcome.stats.tasks, outcome.stats.round_trips), (3 * shards, shards as u64));
    n
}

/// 64 shards of ten rows, 41 individuals: a source costs its data, not
/// a fixed setup. When this was written a query cost 415 blocks over 8
/// shards and 813 over 64, 7.1 for each shard more, the individuals'
/// view unbuilt; 724 and 1 117, 7.0 a shard, while the generator built
/// it (eight blocks an individual), each shard read
/// through its `price` filter, none recorded as a dependency and nothing
/// built to generate from a shard that kept no row; 737 and 1 351, 11.0
/// a shard, while both were (739 and 1 353 before that); 752
/// and 1 478, 13.0 a shard, while a dependency allocated its source's
/// id once per rule; 767 and 1 918, 20.6 a shard, read whole; 821 and
/// 2 364,
/// 27.6 a shard, while a shard's three rules ran as three statements;
/// 1 165 and 3 973, 50.1 a shard, while every column grew by doubling
/// and batch planning copied each source's id, seed text, section
/// lengths and endpoints.
#[test]
fn a_fanout_query_costs_its_sources_data() {
    let (few, many) = (fanout_cost(8), fanout_cost(64));
    assert!(many <= 820, "{many} allocations for a query over 64 shards");
    assert!(
        many - few <= 400,
        "{} more blocks for 56 more shards ({few} at 8, {many} at 64)",
        many - few
    );
}

/// Copies of a shard's id one warm filtered query over 64 shards makes:
/// one for each shard's ledger row. An individual shares its source's
/// one id of the answer (64 + 41 copies while each had its own). A
/// dependency entry copies its source's id too, and only the views and
/// the result cache read them: an engine without either records none.
/// Recording them anyway cost 64 copies more when this was written (169
/// against 105); with a result cache they are back.
#[test]
fn a_fanout_without_views_or_a_result_cache_records_no_dependency() {
    // The measured query after a warm-up one of the same answer: a
    // result cache must miss it.
    let id_copies = |s2s: S2s, measured: &str| {
        assert_eq!(s2s.query("SELECT watch WHERE price < 45").unwrap().individuals().len(), 41);
        let (outcome, n) = blocks_of(shard_id(0).len(), || s2s.query(measured).unwrap());
        assert_eq!((outcome.individuals().len(), outcome.stats.round_trips), (41, 64));
        n
    };
    let plain = id_copies(fanout_engine(64), "SELECT watch WHERE price < 45");
    assert_eq!(plain, 64, "a shard's id copied {plain} times");
    let outcome = fanout_engine(64).query("SELECT watch WHERE price < 45").unwrap();
    let individuals = outcome.individuals();
    for (a, b) in individuals.iter().zip(&individuals[1..]) {
        let shared = std::sync::Arc::ptr_eq(&a.source, &b.source);
        assert_eq!(a.source == b.source, shared, "{} and {}", a.source, b.source);
    }
    let cached =
        id_copies(fanout_engine(64).with_result_cache(), "SELECT watch WHERE NOT (price >= 45)");
    assert!(cached >= plain + 64, "{cached} copies with a result cache");
}

#[test]
fn a_view_served_slice_clones_two_blocks() {
    let (small, large) = (query_cost(2_000, true), query_cost(4_000, true));
    assert_eq!(small, large, "a view hit copies a column: two blocks at any length");
    // 70 when this was written: a change to the view path may not add
    // a block to the served query.
    assert!(small <= 70, "{small} allocations for four view hits");
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

/// A rule a warm query runs costs its column and its share of the
/// generator — 9.3 blocks when this was written, the source's rules
/// one statement; 14.4 while each was its own — and nothing to find its
/// compiled form, which its mapping holds. A shared compiled-rule cache
/// keyed on `(language, rule text)` costs one more: the key `String`,
/// 10.3 blocks a rule, and fails this bound.
#[test]
fn a_warm_rule_finds_its_compiled_form_without_allocating() {
    const EXTRA: usize = 32;
    let (few, many) = (rules_cost(16), rules_cost(16 + EXTRA));
    assert!(
        many - few <= 10 * EXTRA,
        "{} allocations for {EXTRA} more rules ({few} at 16 rules, {many} at {})",
        many - few,
        16 + EXTRA
    );
}

/// An engine over one source of `rows` watches — a table, or a
/// document whose rules select their records by `records` — with the
/// rules of `attributes` (`brand`, `price`, `case`) on it.
fn one_source(records: Option<&str>, attributes: &[&str], rows: usize) -> S2s {
    let mut s2s = S2s::new(ontology());
    register_watches(&mut s2s, "S", records, attributes, rows);
    s2s
}

/// Registers source `id` of `rows` watches — a table, or a document
/// whose rules select their records by `records` — with the rules of
/// `attributes` (`brand`, `price`, `case`) on it.
fn register_watches(
    s2s: &mut S2s,
    id: &str,
    records: Option<&str>,
    attributes: &[&str],
    rows: usize,
) {
    if records.is_some() {
        let mut doc = String::from("<c>");
        for i in 0..rows {
            let (brand, price) = (i % 17, i % 300);
            doc.push_str(&format!("<w><b>brand{brand}</b><p>{price}.5</p><k>steel</k></w>"));
        }
        doc.push_str("</c>");
        let document = s2s_xml::parse(&doc).unwrap().into();
        s2s.register_source(id, Connection::Xml { document }).unwrap();
    } else {
        let mut db = s2s_minidb::Database::new("budget");
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL, c TEXT)")
            .unwrap();
        for i in 0..rows {
            let (brand, price) = (i % 17, i % 300);
            db.execute(&format!("INSERT INTO w VALUES ({i}, 'brand{brand}', {price}.5, 'steel')"))
                .unwrap();
        }
        s2s.register_source(id, Connection::Database { db: db.into() }).unwrap();
    }
    for attribute in attributes {
        let (column, field) = match *attribute {
            "brand" => ("brand", "b"),
            "price" => ("price", "p"),
            _ => ("c", "k"),
        };
        let rule = if let Some(records) = records {
            ExtractionRule::XPath { path: format!("{records}/{field}/text()") }
        } else {
            let query = format!("SELECT {column} FROM w ORDER BY id");
            ExtractionRule::Sql { query, column: column.into() }
        };
        let path = format!("thing.product.watch.{attribute}");
        s2s.register_attribute(&path, rule, id, RecordScenario::MultiRecord).unwrap();
    }
}

/// Blocks one warm query costs on [`one_source`], keeping no record.
fn one_source_cost(records: Option<&str>, attributes: &[&str], rows: usize) -> usize {
    let s2s = one_source(records, attributes, rows);
    let query = "SELECT watch WHERE brand='none'";
    assert!(s2s.query(query).unwrap().individuals().is_empty());
    let (outcome, n) = allocations(|| s2s.query(query).unwrap());
    assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
    assert_eq!(outcome.source("S").unwrap().statements, 1);
    n
}

/// What a rule that joins its source's statement may add: its column's
/// two blocks and its share of the generator — 7 when this was written,
/// for SQL and XPath alike. Run as statements of their own, a
/// 2 000-row source's second and third rules cost 11 blocks each
/// (SQL) or 28 (XPath, whose step buffers grow by doubling), and fail
/// this budget.
const PER_GROUPED_RULE: usize = 8;

/// A three-rule SQL source scans its table once: the two more rules
/// cost their columns, at 2 000 rows as at 4 000.
#[test]
fn a_three_rule_sql_source_is_one_statement() {
    let one = one_source_cost(None, &["brand"], 2_000);
    let three = one_source_cost(None, &["brand", "price", "case"], 2_000);
    assert!(three - one <= 2 * PER_GROUPED_RULE, "{three} blocks for three rules, {one} for one");
    assert_eq!(one_source_cost(None, &["brand", "price", "case"], 4_000), three);
}

/// A three-rule XML source walks its records once, whether a child path
/// or a `//` step selects them: the two more rules cost their columns,
/// and twice the records grow the walk's two step buffers once more at
/// most.
#[test]
fn a_three_rule_xml_source_is_one_walk() {
    for records in ["/c/w", "//w"] {
        let one = one_source_cost(Some(records), &["brand"], 2_000);
        let three = one_source_cost(Some(records), &["brand", "price", "case"], 2_000);
        assert!(
            three - one <= 2 * PER_GROUPED_RULE,
            "{records}: {three} blocks for three rules, {one} for one"
        );
        let large = one_source_cost(Some(records), &["brand", "price", "case"], 4_000);
        assert!(large <= three + 2, "{records}: {three} blocks at 2 000 records, {large} at 4 000");
    }
}

/// A query shaped like the benchmark's `structured_selective`: two
/// sources of 2 000 records, a table and a document, three rules each,
/// under `brand = … AND price < …`. Both sources run filtered: a column
/// is reserved once whatever it keeps, so the query costs a few blocks
/// that do not grow with the records beyond what its twin — the
/// condition doubly negated, filtered as well since the whole tree
/// binds — costs: one per filtered source for its record numbers, the
/// condition's leaves, the folded tree and the scan's columns, the
/// pruning planner's tally. When this was written the filtered query
/// cost 308 blocks and its twin 312, the individuals' view unbuilt (573
/// and 577 while the generator built it; 578 and 582 before that, 580
/// and an unfiltered 574 when the twin bound nothing).
#[test]
fn a_filtered_query_costs_its_kept_records() {
    let mut s2s = S2s::new(ontology());
    for (id, records) in [("DB", None), ("XML", Some("/c/w"))] {
        register_watches(&mut s2s, id, records, &["brand", "price", "case"], 2_000);
    }
    let cost = |query: &str| {
        let individuals = s2s.query(query).unwrap().individuals().len();
        let (outcome, n) = allocations(|| s2s.query(query).unwrap());
        assert_eq!(outcome.individuals().len(), individuals);
        (outcome, n)
    };
    let condition = "brand = 'brand3' AND price < 40";
    let (filtered, blocks) = cost(&format!("SELECT watch WHERE {condition}"));
    let (twin, twin_blocks) = cost(&format!("SELECT watch WHERE NOT (NOT ({condition}))"));
    assert_eq!(filtered.individuals(), twin.individuals());
    assert_eq!(filtered.individuals().len(), 34);
    assert!(filtered.sources.iter().all(|r| r.pushed.len() == 2), "{:?}", filtered.sources);
    assert!(blocks <= 310, "{blocks} blocks for the filtered query");
    assert!(blocks <= twin_blocks + 6, "{blocks} blocks filtered, {twin_blocks} unfiltered");
}
