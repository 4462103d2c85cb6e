//! Cross-crate regression pins: behaviours that were tuned during
//! development and must not drift.

use std::sync::Arc;

use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::owl::Ontology;
use s2s::textmatch::Regex;
use s2s::S2s;

/// The find_iter fast path must stay linear: a 200 KB haystack with
/// thousands of matches completes quickly and yields the exact count.
#[test]
fn regex_find_iter_linear_at_scale() {
    let hay: String = "brand: Seiko | ".repeat(10_000);
    let re = Regex::new(r"brand: (\w+)").unwrap();
    let start = std::time::Instant::now();
    let n = re.find_iter(&hay).count();
    assert_eq!(n, 10_000);
    // Generous bound: the pre-fix quadratic version took seconds.
    assert!(start.elapsed().as_millis() < 2_000, "find_iter regressed: {:?}", start.elapsed());
}

/// Minted individual IRIs are stable across runs (downstream systems key
/// on them).
#[test]
fn minted_iris_are_stable() {
    let run = || {
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
            .unwrap()
            .build()
            .unwrap();
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (brand TEXT)").unwrap();
        db.execute("INSERT INTO w VALUES ('Seiko')").unwrap();
        let mut s2s = S2s::new(ontology);
        s2s.register_source("DB_ID_45", Connection::Database { db: Arc::new(db) }).unwrap();
        s2s.register_attribute(
            "thing.product.brand",
            ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() },
            "DB_ID_45",
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let outcome = s2s.query("SELECT product").unwrap();
        outcome.individuals()[0].iri.as_str().to_string()
    };
    let iri = run();
    assert_eq!(iri, "http://example.org/schema/data/product/db_id_45/0");
    assert_eq!(run(), iri);
}

/// The paper's attribute-id format stays exactly `thing.<classes>.<attr>`.
#[test]
fn attribute_path_format_pinned() {
    let o = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .datatype_property("case", "Watch", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let watch = o.class_iri("Watch").unwrap();
    let case = o.property_iri("case").unwrap();
    let p = s2s::owl::AttributePath::for_attribute(&o, &watch, &case).unwrap();
    assert_eq!(p.to_string(), "thing.product.watch.case");
}

/// Graph pattern queries must keep using indexes: a bound-subject probe
/// into a large graph is far below full-scan cost.
#[test]
fn graph_index_probe_scales() {
    use s2s::rdf::{Graph, Iri, Literal, Term, Triple};
    let mut g = Graph::new();
    let p = Iri::new("http://x.org/p").unwrap();
    for i in 0..50_000 {
        g.insert(Triple::new(
            Iri::new(format!("http://x.org/s{i}")).unwrap(),
            p.clone(),
            Literal::integer(i),
        ));
    }
    let probe = Term::from(Iri::new("http://x.org/s25000").unwrap());
    let start = std::time::Instant::now();
    for _ in 0..1_000 {
        assert_eq!(g.match_pattern(Some(&probe), None, None).count(), 1);
    }
    assert!(start.elapsed().as_millis() < 1_000, "index probe regressed");
}

/// Turtle escaping pins: strings with every escapable character survive
/// the render used by the Instance Generator.
#[test]
fn turtle_escape_pins() {
    use s2s::rdf::{turtle, Graph, Iri, Literal, Triple};
    let nasty = "tab\t quote\" backslash\\ newline\n end";
    let mut g = Graph::new();
    g.insert(Triple::new(
        Iri::new("http://x.org/s").unwrap(),
        Iri::new("http://x.org/p").unwrap(),
        Literal::string(nasty),
    ));
    let text = turtle::serialize(&g, &turtle::PrefixMap::new());
    let g2 = turtle::parse(&text).unwrap();
    let lit = g2.iter().next().unwrap().object().as_literal().cloned().unwrap();
    assert_eq!(lit.lexical(), nasty);
}

/// WebL Select() semantics are end-exclusive char ranges — mappings in
/// the wild depend on it.
#[test]
fn webl_select_is_end_exclusive() {
    use s2s::webdoc::{WebStore, WeblProgram};
    let p = WeblProgram::parse(r#"Select("Seiko Men's", 0, 5);"#).unwrap();
    assert_eq!(p.run(&WebStore::new()).unwrap().as_str(), Some("Seiko"));
}

/// SQL LIKE must treat `%`/`_` per SQL, not as regex.
#[test]
fn sql_like_wildcards_pinned() {
    let mut db = Database::new("d");
    db.execute("CREATE TABLE t (s TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('a.c'), ('abc'), ('axc'), ('ac')").unwrap();
    // `.` is literal in LIKE.
    assert_eq!(db.query("SELECT s FROM t WHERE s LIKE 'a.c'").unwrap().len(), 1);
    // `_` matches exactly one char.
    assert_eq!(db.query("SELECT s FROM t WHERE s LIKE 'a_c'").unwrap().len(), 3);
    // `%` matches any run including empty.
    assert_eq!(db.query("SELECT s FROM t WHERE s LIKE 'a%c'").unwrap().len(), 4);
}

/// Simulated endpoint behaviour is pinned to source-id seeds: the same
/// deployment always observes the same failures (tests and EXPERIMENTS.md
/// depend on this).
#[test]
fn netsim_seed_pinning() {
    use s2s::netsim::{CostModel, Endpoint, FailureModel};
    let ep = Endpoint::new("SHARD_00", CostModel::wan(), FailureModel::reliable(), 42);
    let t1 = ep.invoke(100).unwrap();
    let ep2 = Endpoint::new("SHARD_00", CostModel::wan(), FailureModel::reliable(), 42);
    let t2 = ep2.invoke(100).unwrap();
    assert_eq!(t1, t2);
}

/// Two sources whose ids the mapping repository once folded into one key
/// (`src-<lower-cased id, '_'→'-'>`, or no key at all for an id with a
/// `.` or a space) each keep their own mapping: both contribute to the
/// answer, and editing one leaves the other alone.
#[test]
fn distinct_source_ids_never_overwrite_each_others_mappings() {
    let ontology = || {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
            .unwrap()
            .build()
            .unwrap()
    };
    let source = |brand: &str| {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (brand TEXT, alias TEXT)").unwrap();
        db.execute(&format!("INSERT INTO w VALUES ('{brand}', '{brand}-alias')")).unwrap();
        Connection::Database { db: Arc::new(db) }
    };
    let rule = |column: &str| ExtractionRule::Sql {
        query: format!("SELECT {column} FROM w"),
        column: column.into(),
    };
    let brands = |s2s: &S2s| {
        let brand = s2s.ontology().property_iri("brand").unwrap();
        let outcome = s2s.query("SELECT product").unwrap();
        assert!(outcome.errors().is_empty());
        let mut found: Vec<String> = outcome
            .individuals()
            .iter()
            .filter_map(|i| i.value(&brand))
            .map(String::from)
            .collect();
        found.sort();
        found
    };

    for (a, b) in [("DB_1", "db-1"), ("a.example.org", "b.example.org"), ("feed one", "feed two")] {
        let mut s2s = S2s::new(ontology()).with_result_cache();
        for (id, brand) in [(a, "Seiko"), (b, "Orient")] {
            s2s.register_source(id, source(brand)).unwrap();
            let multi = RecordScenario::MultiRecord;
            s2s.register_attribute("thing.product.brand", rule("brand"), id, multi).unwrap();
        }
        assert_eq!(s2s.mapping_count(), 2, "{a} / {b}");
        assert_eq!(brands(&s2s), ["Orient", "Seiko"], "{a} / {b}");

        // Re-registering `a` is an edit of `a` alone.
        s2s.register_attribute(
            "thing.product.brand",
            rule("alias"),
            a,
            RecordScenario::MultiRecord,
        )
        .unwrap();
        assert_eq!(s2s.mapping_count(), 2, "{a} / {b}");
        assert_eq!(brands(&s2s), ["Orient", "Seiko-alias"], "{a} / {b}");
    }
}

/// Source ids become IRI path segments lower-cased, with characters
/// outside `[a-z0-9._-]` as `-`, so `DB` and `db` (or `DB 1` and `db-1`)
/// once both minted `…/product/db/0` for their first record: two
/// individuals with one IRI, one Turtle subject with both brands, and no
/// error. The registry now refuses the second id, local or remote, with
/// a coded error, and ids with distinct segments keep distinct IRIs.
#[test]
fn source_ids_that_mint_one_iri_segment_are_refused() {
    use s2s::netsim::{CostModel, FailureModel};
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let source = |brand: &str| {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE w (brand TEXT)").unwrap();
        db.execute(&format!("INSERT INTO w VALUES ('{brand}')")).unwrap();
        Connection::Database { db: Arc::new(db) }
    };
    let rule =
        || ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() };
    let mut s2s = S2s::new(ontology);
    s2s.register_source("DB", source("Seiko")).unwrap();
    s2s.register_source("DB 1", source("Casio")).unwrap();
    for (id, taken) in [("db", "DB"), ("Db", "DB"), ("db-1", "DB 1"), ("dB?1", "DB 1")] {
        let local = s2s.register_source(id, source("Orient"));
        let remote = s2s.register_remote_source(
            id,
            source("Orient"),
            CostModel::wan(),
            FailureModel::reliable(),
        );
        for refused in [local, remote] {
            let err = refused.expect_err(id);
            assert_eq!(err.code(), "s2s::source::iri_segment_collision", "{id}: {err}");
            assert!(err.to_string().contains(&format!("`{taken}`")), "{id}: {err}");
            assert!(err.help().is_some());
        }
    }

    // Only the segment is refused: `_` is a segment character of its own.
    s2s.register_source("DB_1", source("Orient")).unwrap();
    for id in ["DB", "DB 1", "DB_1"] {
        s2s.register_attribute("thing.product.brand", rule(), id, RecordScenario::MultiRecord)
            .unwrap();
    }
    let outcome = s2s.query("SELECT product").unwrap();
    let mut iris: Vec<&str> = outcome.individuals().iter().map(|i| i.iri.as_str()).collect();
    iris.sort();
    let minted = |segment: &str| format!("http://example.org/schema/data/product/{segment}/0");
    assert_eq!(iris, [minted("db-1"), minted("db"), minted("db_1")]);
}

/// A client's S2SQL is untrusted input: `((((…`, `NOT NOT …` and a
/// 200 000-term `AND` chain are refused with a coded error and the
/// engine keeps serving. Before the cap the first two aborted the
/// process in the parser and the third in whatever walked or dropped
/// the left-deep tree.
#[test]
fn s2sql_nesting_is_capped_end_to_end() {
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let mut db = Database::new("d");
    db.execute("CREATE TABLE w (brand TEXT)").unwrap();
    db.execute("INSERT INTO w VALUES ('Seiko')").unwrap();
    let mut s2s = S2s::new(ontology);
    s2s.register_source("DB", Connection::Database { db: Arc::new(db) }).unwrap();
    let rule = ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() };
    s2s.register_attribute("thing.product.brand", rule, "DB", RecordScenario::MultiRecord).unwrap();

    let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(move || {
        let n = 200_000;
        for text in [
            format!("SELECT product WHERE {}brand='x'{}", "(".repeat(n), ")".repeat(n)),
            format!("SELECT product WHERE {}brand='x'", "NOT ".repeat(n)),
            format!("SELECT product WHERE brand='x'{}", " AND brand='x'".repeat(n)),
        ] {
            let err = s2s.query(&text).expect_err("past the cap");
            assert_eq!(err.code(), "s2s::query::nesting_too_deep", "{}", &text[..40]);
            assert!(err.help().is_some());
        }
        // At the cap the query runs — planner, residual filter and all.
        let d = s2s::core::query::MAX_CONDITION_DEPTH;
        let chained =
            format!("SELECT product WHERE brand='Seiko'{}", " AND brand!='x'".repeat(d - 1));
        assert_eq!(s2s.query(&chained).unwrap().individuals().len(), 1);
    });
    worker.unwrap().join().expect("no stack overflow at or past the cap");
}

/// An XQuery rule nesting `concat(` 200 000 deep once compiled for
/// minutes (quadratic) and recursed without bound. It is now refused at
/// the cap as a coded failure on its own source, fast, while the other
/// source answers in full.
#[test]
fn xquery_concat_nesting_is_a_coded_failure_end_to_end() {
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let mut db = Database::new("d");
    db.execute("CREATE TABLE w (brand TEXT)").unwrap();
    db.execute("INSERT INTO w VALUES ('Seiko'), ('Casio')").unwrap();
    let document = s2s::xml::parse("<c><w><b>Orient</b></w></c>").unwrap();
    let mut s2s = S2s::new(ontology);
    s2s.register_source("DB", Connection::Database { db: Arc::new(db) }).unwrap();
    s2s.register_source("XML", Connection::Xml { document: Arc::new(document) }).unwrap();
    let sql = ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() };
    s2s.register_attribute("thing.product.brand", sql, "DB", RecordScenario::MultiRecord).unwrap();
    let query = format!("for $w in //w return {}$w/b/text()", "concat(".repeat(200_000));
    let xquery = ExtractionRule::XQuery { query };
    s2s.register_attribute("thing.product.brand", xquery, "XML", RecordScenario::MultiRecord)
        .unwrap();

    let started = std::time::Instant::now();
    let outcome = s2s.query("SELECT product").unwrap();
    assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
    let [failure] = outcome.errors() else { panic!("{:?}", outcome.errors()) };
    assert_eq!(
        (failure.source.as_str(), failure.error.code()),
        ("XML", "s2s::xml::nesting_too_deep")
    );
    assert!(failure.error.help().is_some());
    assert_eq!(outcome.individuals().len(), 2, "the database answers in full");
    assert_eq!(outcome.stats.completeness, 0.5);
}

/// A numeric attribute types only what is in `xsd:decimal`'s lexical
/// space. The payload of an autonomous source may spell `NaN`, `inf` or
/// `1e5` where a price belongs; those parse as floats, and were once
/// minted as `"NaN"^^xsd:decimal` — an ill-typed literal in the answer.
/// They stay plain strings, like any other text under a numeric range.
#[test]
fn float_spellings_are_not_minted_as_decimals() {
    use s2s::core::instance::OutputFormat;
    use s2s::rdf::vocab::xsd;

    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("price", "Product", xsd::DECIMAL)
        .unwrap()
        .build()
        .unwrap();
    let payload = "<c><p><v>59.5</v></p><p><v>NaN</v></p><p><v>inf</v></p><p><v>1e5</v></p>\
                   <p><v>-infinity</v></p><p><v> +7. </v></p></c>";
    let mut s2s = S2s::new(ontology);
    let document = Arc::new(s2s::xml::parse(payload).unwrap());
    s2s.register_source("XML", Connection::Xml { document }).unwrap();
    let rule = ExtractionRule::XPath { path: "//p/v/text()".into() };
    s2s.register_attribute("thing.product.price", rule, "XML", RecordScenario::MultiRecord)
        .unwrap();

    let outcome = s2s.query("SELECT product").unwrap();
    assert_eq!(outcome.individuals().len(), 6);
    let prices: Vec<_> =
        outcome.instances.graph.iter().filter_map(|t| t.object().as_literal()).collect();
    let (typed, plain): (Vec<_>, Vec<_>) =
        prices.iter().partition(|l| l.datatype().as_str() == xsd::DECIMAL);
    let lexical = |literals: &[&&s2s::rdf::Literal]| -> Vec<String> {
        let mut forms: Vec<String> = literals.iter().map(|l| l.lexical().to_string()).collect();
        forms.sort();
        forms
    };
    assert_eq!(lexical(&typed), ["+7.", "59.5"]);
    assert_eq!(lexical(&plain), ["-infinity", "1e5", "NaN", "inf"]);
    assert!(plain.iter().all(|l| l.datatype().as_str() == xsd::STRING));

    let turtle = outcome.render(s2s.ontology(), OutputFormat::Turtle);
    assert_eq!(s2s::rdf::turtle::parse(&turtle).unwrap(), outcome.instances.graph);
}

/// A supplier table whose `state` column holds a keyword in both cases:
/// `OR`, `or` and `WA`.
fn suppliers_by_state() -> S2s {
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Supplier", None)
        .unwrap()
        .datatype_property("state", "Supplier", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let mut db = Database::new("d");
    db.execute("CREATE TABLE s (state TEXT)").unwrap();
    db.execute("INSERT INTO s VALUES ('OR'), ('or'), ('WA')").unwrap();
    let mut s2s = S2s::new(ontology);
    s2s.register_source("DB", Connection::Database { db: Arc::new(db) }).unwrap();
    let rule = ExtractionRule::Sql { query: "SELECT state FROM s".into(), column: "state".into() };
    s2s.register_attribute("thing.supplier.state", rule, "DB", RecordScenario::MultiRecord)
        .unwrap();
    s2s
}

/// The caches were keyed by a second lexer that upper-cased `or`
/// wherever it stood as a word; the parser reads a bare word after an
/// operator as a value. `state=or` issued after `state=OR` hit the
/// `OR` entry and answered with the wrong supplier. The key is now the
/// rendering of the parse, so the two never share an entry.
#[test]
fn keyword_valued_constraints_never_share_a_cache_entry() {
    let states = |outcome: &s2s::core::middleware::QueryOutcome| -> Vec<String> {
        outcome
            .individuals()
            .iter()
            .flat_map(|i| i.values.iter().flat_map(|(_, values)| values).cloned())
            .collect()
    };
    for s2s in [suppliers_by_state(), suppliers_by_state().with_result_cache()] {
        let upper = s2s.query("SELECT supplier WHERE state=OR").unwrap();
        assert_eq!(states(&upper), ["OR"]);
        let lower = s2s.query("SELECT supplier WHERE state=or").unwrap();
        assert_eq!(states(&lower), ["or"]);
        assert_eq!((lower.stats.plan_cache.hits, lower.stats.result_cache.hits), (0, 0));
        // The spellings that *do* parse alike share the entry.
        let quoted = s2s.query("select supplier where state = \"or\"").unwrap();
        assert_eq!(states(&quoted), ["or"]);
        assert_eq!(quoted.stats.plan_cache.hits + quoted.stats.result_cache.hits, 1);
    }
}

/// `state = + 5` is a syntax error (`+` is the whole constraint, `5`
/// trails it); the old key lexer spelled it like the well-formed
/// `state = +5`, so once that was cached the malformed text was
/// answered `Ok`.
#[test]
fn malformed_query_is_an_error_whatever_is_cached() {
    let s2s = suppliers_by_state();
    let malformed = "SELECT supplier WHERE state = + 5";
    let cold = s2s.query(malformed).expect_err("cold");
    assert_eq!(cold.code(), "s2s::query::syntax");
    assert!(s2s.query("SELECT supplier WHERE state = +5").unwrap().individuals().is_empty());
    assert_eq!(s2s.query(malformed).expect_err("after its twin was cached"), cold);
}

/// The query is parsed before the admission gate: on a saturated engine
/// a malformed query is the client's error, not load to shed — nothing
/// is queued and no permit is taken for it.
#[test]
fn malformed_query_on_a_saturated_engine_is_an_error_not_a_shed() {
    let s2s = suppliers_by_state().with_admission(s2s::netsim::AdmissionConfig::with_permits(1));
    let slot = s2s.admission().unwrap().admit("hog", None).unwrap();
    let opts = s2s::QueryOptions::default()
        .with_deadline(s2s::netsim::SimDuration::from_millis(1))
        .with_tenant("meek");
    let err = s2s.query_with_options("SELECT supplier WHERE", &opts).expect_err("malformed");
    assert_eq!(err.code(), "s2s::query::syntax");
    let well_formed = s2s.query_with_options("SELECT supplier", &opts).unwrap();
    drop(slot);
    assert!(well_formed.stats.shed);
    let stats = s2s.admission_stats().unwrap();
    assert_eq!((stats.admitted, stats.shed), (1, 1), "the hog and the one well-formed query");
}

/// A `TextRegex` rule asking for a group its pattern does not have used
/// to register and then answer `Ok` with nothing: every match's
/// `get(2)` was `None` and silently skipped, so the attribute came back
/// empty with `completeness == 1.0`. It is a coded wrapper failure of
/// that attribute — an honest partial answer, like any other bad rule.
#[test]
fn regex_group_past_the_pattern_is_a_coded_failure() {
    let string = "http://www.w3.org/2001/XMLSchema#string";
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", string)
        .unwrap()
        .datatype_property("model", "Product", string)
        .unwrap()
        .build()
        .unwrap();
    let mut files = s2s::webdoc::WebStore::new();
    files.register_text("http://files/p.txt", "brand: Fossil\nbrand: Timex\n");
    let mut s2s = S2s::new(ontology);
    let connection = Connection::Text { store: Arc::new(files), url: "http://files/p.txt".into() };
    s2s.register_source("TXT", connection).unwrap();
    // Both rules spell one pattern, so they share one compiled regex:
    // the check is the rule's, not the cache entry's.
    for (attribute, group) in [("brand", 1), ("model", 2)] {
        let rule = ExtractionRule::TextRegex { pattern: r"brand: (\w+)".into(), group };
        let path = format!("thing.product.{attribute}");
        s2s.register_attribute(&path, rule, "TXT", RecordScenario::MultiRecord).unwrap();
    }

    let outcome = s2s.query("SELECT product").unwrap();
    assert_eq!(outcome.individuals().len(), 2, "the in-range rule still answers");
    let [failure] = outcome.errors() else { panic!("one failure, got {:?}", outcome.errors()) };
    assert_eq!(failure.attribute, "thing.product.model");
    assert_eq!(failure.error.code(), "s2s::regex::no_such_group");
    assert!(failure.error.to_string().contains("group 2"), "{}", failure.error);
    assert!(failure.error.to_string().contains("has 1"), "{}", failure.error);
    assert!(failure.error.help().is_some());
    assert_eq!(outcome.stats.completeness, 0.5);
}

/// A pretty-printed XML catalog pads its numbers, and the generator
/// trims what it emits (`" 59.5 "` becomes `"59.5"^^xsd:decimal`). The
/// comparison read the candidate with `str::parse::<f64>`, which rejects
/// the padding, so a padded price fell to byte-wise string comparison
/// (`' ' < '2'`): `price < 20` answered all three watches, `price > 100`
/// and `price = 59.5` none — no error, `completeness == 1.0`. The
/// numeric reading of a candidate ignores surrounding whitespace.
#[test]
fn a_padded_number_compares_as_the_number_it_is_emitted_as() {
    use s2s::rdf::vocab::xsd;

    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("price", "Product", xsd::DECIMAL)
        .unwrap()
        .build()
        .unwrap();
    let payload = "<c>\n  <w><price> 59.5 </price></w>\n  <w><price>\n  129.99\n</price></w>\n  \
                   <w><price>15</price></w>\n</c>";
    let mut s2s = S2s::new(ontology);
    let document = Arc::new(s2s::xml::parse(payload).unwrap());
    s2s.register_source("XML", Connection::Xml { document }).unwrap();
    let rule = ExtractionRule::XPath { path: "/c/w/price/text()".into() };
    s2s.register_attribute("thing.product.price", rule, "XML", RecordScenario::MultiRecord)
        .unwrap();

    for (query, expected) in [
        ("SELECT product WHERE price < 20", vec!["15"]),
        ("SELECT product WHERE price > 100", vec!["129.99"]),
        ("SELECT product WHERE price = 59.5", vec!["59.5"]),
    ] {
        let outcome = s2s.query(query).unwrap();
        assert!(outcome.errors().is_empty(), "{query}: {:?}", outcome.errors());
        assert_eq!(outcome.stats.completeness, 1.0, "{query}");
        let emitted: Vec<_> = outcome
            .instances
            .graph
            .iter()
            .filter_map(|t| t.object().as_literal())
            .filter(|l| l.datatype().as_str() == xsd::DECIMAL)
            .map(|l| l.lexical().to_string())
            .collect();
        assert_eq!(emitted, expected, "{query}");
    }
}

/// A `Product` ontology with a string `brand` and a decimal `price`.
fn brand_price_ontology() -> Ontology {
    use s2s::rdf::vocab::xsd;
    Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", xsd::STRING)
        .unwrap()
        .datatype_property("price", "Product", xsd::DECIMAL)
        .unwrap()
        .build()
        .unwrap()
}

/// An answer as sorted `(brand, price)` rows, `-` for a missing value.
fn brand_price_rows(outcome: &s2s::core::middleware::QueryOutcome) -> Vec<(String, String)> {
    let value = |i: &s2s::core::instance::Individual, property: &str| {
        let found = i.values.iter().find(|(p, _)| p.local_name() == property);
        found.and_then(|(_, v)| v.first().cloned()).unwrap_or_else(|| "-".into())
    };
    let mut rows: Vec<(String, String)> =
        outcome.individuals().iter().map(|i| (value(i, "brand"), value(i, "price"))).collect();
    rows.sort();
    rows
}

/// `(brand, price)` records as a `w` table (`id` is the record order).
fn watch_table(records: &[(&str, i64)]) -> Connection {
    let mut db = Database::new("d");
    db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price INTEGER)").unwrap();
    for (i, (brand, price)) in records.iter().enumerate() {
        db.execute(&format!("INSERT INTO w VALUES ({}, '{brand}', {price})", i + 1)).unwrap();
    }
    Connection::Database { db: Arc::new(db) }
}

/// `(brand, price)` records as `<c><w><brand/><price/></w>…</c>`.
fn watch_document(records: &[(&str, i64)]) -> Connection {
    let mut xml = String::from("<c>");
    for (brand, price) in records {
        xml.push_str(&format!("<w><brand>{brand}</brand><price>{price}</price></w>"));
    }
    xml.push_str("</c>");
    Connection::Xml { document: Arc::new(s2s::xml::parse(&xml).unwrap()) }
}

/// Runs one case of the stale-slice repro: a views engine over
/// `before` answers `query`, Casio's price moves from 150 to 60 with the
/// change event honestly naming `price`, and the views engine must then
/// answer like a freshly built one over the mutated data.
///
/// A view slice was advanced, not refreshed, whenever no event named the
/// one field its rule's *result* came from — the SQL result column, or an
/// XPath's last step. A rule that filters on another field reads that
/// field too: the price change brings Casio into `price < 100`, so the
/// `brand` slice must be refreshed. The views engine served the old
/// brand slice beside the refreshed price slice, Casio's brand lost and
/// its price orphaned: `{(Seiko, 50), (-, 60)}`. The fresh engine keeps
/// no views, so it filters the source by the query's `WHERE`.
fn assert_a_filtered_slice_is_refreshed(
    source: fn(&[(&str, i64)]) -> Connection,
    change: s2s::netsim::ChangeKind,
    rules: [ExtractionRule; 2],
    query: &str,
) {
    let before = [("Seiko", 50), ("Casio", 150)];
    let after = [("Seiko", 50), ("Casio", 60)];
    let build = |records: &[(&str, i64)], views: bool| {
        let mut s2s = S2s::new(brand_price_ontology());
        if views {
            s2s = s2s.with_views();
        }
        s2s.register_source("SRC", source(records)).unwrap();
        for (attribute, rule) in ["brand", "price"].into_iter().zip(rules.clone()) {
            let path = format!("thing.product.{attribute}");
            s2s.register_attribute(&path, rule, "SRC", RecordScenario::MultiRecord).unwrap();
        }
        s2s
    };
    let viewed = build(&before, true);
    assert_eq!(brand_price_rows(&viewed.query(query).unwrap()), [("Seiko".into(), "50".into())]);
    viewed.mutate_source("SRC", source(&after), change, vec!["price".into()]).unwrap();
    let fresh = brand_price_rows(&build(&after, false).query(query).unwrap());
    assert_eq!(fresh, [("Casio".to_string(), "60".to_string()), ("Seiko".into(), "50".into())]);
    assert_eq!(brand_price_rows(&viewed.query(query).unwrap()), fresh);
}

fn sql_scan(column: &str, filter: &str) -> ExtractionRule {
    ExtractionRule::Sql {
        query: format!("SELECT {column} FROM w {filter}ORDER BY id"),
        column: column.into(),
    }
}

/// A hand-written SQL rule with a `WHERE`, views alone; the column is
/// also spelled as the event does not spell it, since SQL resolves
/// names case-insensitively.
#[test]
fn a_view_refreshes_a_sql_slice_whose_where_reads_the_changed_column() {
    for filtered in ["WHERE price < 100 ", "WHERE Price < 100 "] {
        let rules = [sql_scan("brand", filtered), sql_scan("price", filtered)];
        let change = s2s::netsim::ChangeKind::RowUpdate;
        assert_a_filtered_slice_is_refreshed(watch_table, change, rules, "SELECT product");
    }
}

/// Plain SQL rules under a query whose `price < 100` a views-less
/// engine filters the source by; the views hold the slices whole.
#[test]
fn a_view_refreshes_a_pushed_sql_slice_when_the_pushed_column_changes() {
    let rules = [sql_scan("brand", ""), sql_scan("price", "")];
    let change = s2s::netsim::ChangeKind::RowUpdate;
    let query = "SELECT product WHERE price < 100";
    assert_a_filtered_slice_is_refreshed(watch_table, change, rules, query);
}

/// The same over XML, where the filter tests each record's `price`.
#[test]
fn a_view_refreshes_a_pushed_xpath_slice_when_the_guard_element_changes() {
    let xpath = |step: &str| ExtractionRule::XPath { path: format!("/c/w/{step}/text()") };
    let change = s2s::netsim::ChangeKind::NodeEdit;
    let query = "SELECT product WHERE price < 100";
    let rules = [xpath("brand"), xpath("price")];
    assert_a_filtered_slice_is_refreshed(watch_document, change, rules, query);
}

/// The bootstrap proposed `price: ([0-9.]+)` for a labelled text field
/// whose samples it had accepted as numbers (`-5` parses as `f64`): the
/// pattern skipped `-5`, so alpha was answered with beta's price and
/// beta with none, at completeness 1.0 and no error. A proposed pattern
/// captures each value whole, whatever its spelling.
#[test]
fn a_bootstrapped_text_rule_captures_signed_and_exponent_numbers() {
    let export = "brand: alpha | price: -5\nbrand: beta | price: 7\n\
                  brand: gamma | price: +5\nbrand: delta | price: 1e3\n";
    let mut files = s2s::webdoc::WebStore::new();
    files.register_text("file:///export.txt", export);
    let mut s2s = S2s::new(brand_price_ontology());
    let connection = Connection::Text { store: Arc::new(files), url: "file:///export.txt".into() };
    s2s.register_source("TXT", connection).unwrap();
    let report = s2s.register_bootstrapped("TXT").unwrap();
    assert_eq!(report.candidates.iter().filter(|c| c.applied).count(), 2, "{report:?}");

    let outcome = s2s.query("SELECT product").unwrap();
    assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
    assert_eq!(outcome.stats.completeness, 1.0);
    let rows: Vec<(String, String)> =
        [("alpha", "-5"), ("beta", "7"), ("delta", "1e3"), ("gamma", "+5")]
            .iter()
            .map(|(b, p)| (b.to_string(), p.to_string()))
            .collect();
    assert_eq!(brand_price_rows(&outcome), rows);
}

/// A condition compares in its property's declared range, as SPARQL
/// compares in an operand's datatype. The comparison once read both
/// sides as `f64` whenever both parsed and as bytes otherwise, whatever
/// the range: `price < 100` answered the placeholder `-` (`'-' < '1'`)
/// and `1e1` (as 10), `price > 100` answered `N/A` (`'N' > '1'`) and
/// `inf`, and `brand < '9'` left out the brand `10` (10 > 9), while the
/// same answers emitted `-`, `N/A`, `1e1` and `inf` as plain strings,
/// not decimals. A form outside a decimal range now satisfies nothing,
/// and a string range orders by code point.
#[test]
fn a_condition_compares_in_its_range() {
    use s2s::rdf::vocab::xsd;

    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("price", "Product", xsd::DECIMAL)
        .unwrap()
        .datatype_property("brand", "Product", xsd::STRING)
        .unwrap()
        .build()
        .unwrap();
    let mut payload = String::from("<c>");
    for (price, brand) in [("-", "a"), ("1e1", "b"), ("59.50", "c"), ("N/A", "d"), ("inf", "e")]
        .into_iter()
        .chain([("150", "10")])
    {
        payload.push_str(&format!("<w><price>{price}</price><brand>{brand}</brand></w>"));
    }
    payload.push_str("</c>");
    let mut s2s = S2s::new(ontology);
    let document = Arc::new(s2s::xml::parse(&payload).unwrap());
    s2s.register_source("XML", Connection::Xml { document }).unwrap();
    for attribute in ["price", "brand"] {
        let rule = ExtractionRule::XPath { path: format!("/c/w/{attribute}/text()") };
        s2s.register_attribute(
            &format!("thing.product.{attribute}"),
            rule,
            "XML",
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }

    for (query, expected) in [
        // Each answered watch as its `brand price`.
        ("SELECT product WHERE price < 100", ["c 59.50"]),
        ("SELECT product WHERE price > 100", ["10 150"]),
        ("SELECT product WHERE brand < '9'", ["10 150"]),
    ] {
        let outcome = s2s.query(query).unwrap();
        assert!(outcome.errors().is_empty(), "{query}: {:?}", outcome.errors());
        let answered: Vec<String> = outcome
            .individuals()
            .iter()
            .map(|i| i.values.iter().map(|(_, v)| v.join(",")).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(answered, expected, "{query}");
    }
}
