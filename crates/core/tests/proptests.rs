//! Property tests for the middleware: the full pipeline returns exactly
//! the records matching the query, across strategies and source types.

use std::sync::Arc;

use proptest::prelude::*;
use s2s_core::extract::{extract_one, ExtractorManager, Strategy as ExecStrategy};
use s2s_core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s_core::query::{condition_matches, CondOp, ConditionTree, ResolvedCondition};
use s2s_core::source::{Connection, SourceRegistry};
use s2s_core::{plan_pushdown, S2s};
use s2s_minidb::Database;
use s2s_owl::Ontology;
use s2s_rdf::Iri;

fn ontology() -> Ontology {
    Ontology::builder("http://prop.example/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .datatype_property("price", "Product", "http://www.w3.org/2001/XMLSchema#decimal")
        .unwrap()
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
struct Row {
    brand: String,
    price: i64,
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        ("[A-D]", 0i64..200).prop_map(|(brand, price)| Row { brand, price }),
        0..30,
    )
}

fn deploy(rows: &[Row], strategy: ExecStrategy) -> S2s {
    let mut db = Database::new("d");
    db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
    for (i, r) in rows.iter().enumerate() {
        db.execute(&format!("INSERT INTO p VALUES ({}, '{}', {})", i + 1, r.brand, r.price))
            .unwrap();
    }
    // The same rows as an XML source.
    let mut xml = String::from("<c>");
    for r in rows {
        xml.push_str(&format!("<p><b>{}</b><v>{}</v></p>", r.brand, r.price));
    }
    xml.push_str("</c>");

    let mut s2s = S2s::new(ontology()).with_strategy(strategy);
    s2s.register_source("DB", Connection::Database { db: Arc::new(db) }).unwrap();
    s2s.register_source(
        "XML",
        Connection::Xml { document: Arc::new(s2s_xml::parse(&xml).unwrap()) },
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.brand",
        ExtractionRule::Sql {
            query: "SELECT brand FROM p ORDER BY id".into(),
            column: "brand".into(),
        },
        "DB",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.price",
        ExtractionRule::Sql {
            query: "SELECT price FROM p ORDER BY id".into(),
            column: "price".into(),
        },
        "DB",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.brand",
        ExtractionRule::XPath { path: "//p/b/text()".into() },
        "XML",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.price",
        ExtractionRule::XPath { path: "//p/v/text()".into() },
        "XML",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    s2s
}

/// One `(column type, stored literal, op, constant)` the planner's
/// `rewrite_db` gates accept: a text column against a non-numeric
/// constant, a numeric column against a numeric constant, a text column
/// under `LIKE`.
fn arb_pushable() -> impl Strategy<Value = (&'static str, String, CondOp, String)> {
    let ordered = || {
        prop_oneof![
            Just(CondOp::Eq),
            Just(CondOp::Ne),
            Just(CondOp::Lt),
            Just(CondOp::Le),
            Just(CondOp::Gt),
            Just(CondOp::Ge)
        ]
    };
    // Quarters are exact in binary, so the stored value, its rendering
    // and the constant all denote the same number.
    let number = || {
        prop_oneof![
            (-50i64..50).prop_map(|n| n.to_string()),
            (-200i64..200).prop_map(|q| (q as f64 / 4.0).to_string()),
        ]
    };
    let text = ("[ab1. ]{0,4}", ordered(), "[ab][ab1. ]{0,3}");
    let real = (number(), ordered(), prop_oneof![number(), Just("1e1".to_string())]);
    let integer = ((-50i64..50).prop_map(|n| n.to_string()), ordered(), number());
    let like = ("[ab%_]{0,6}", Just(CondOp::Like), "[ab%_]{0,6}");
    prop_oneof![
        text.prop_map(|(v, op, c)| ("TEXT", format!("'{v}'"), op, c)),
        real.prop_map(|(v, op, c)| ("REAL", v, op, c)),
        integer.prop_map(|(v, op, c)| ("INTEGER", v, op, c)),
        like.prop_map(|(v, op, c)| ("TEXT", format!("'{v}'"), op, c)),
    ]
}

proptest! {
    /// The SQL comparison a pushed conjunct runs at a database source
    /// (`minidb`'s typed `CmpOp` and its own `like_match`) and the
    /// mediator's residual comparison (`condition_matches`, i.e.
    /// `ConstraintOp::holds`) are separate code — no crate sees both but
    /// this one. Under the planner's push gates they must agree on
    /// whether a one-row table's row survives.
    #[test]
    fn pushed_sql_predicate_agrees_with_the_residual((ty, stored, op, constant) in arb_pushable()) {
        let mut db = Database::new("d");
        db.execute(&format!("CREATE TABLE t (v {ty})")).unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({stored})")).unwrap();
        let mut registry = SourceRegistry::new();
        registry.register_local("DB", Connection::Database { db: Arc::new(db) }).unwrap();
        let ontology = ontology();
        let path: s2s_owl::AttributePath = "thing.product.brand".parse().unwrap();
        let mut module = MappingModule::new();
        let rule = ExtractionRule::Sql { query: "SELECT v FROM t".into(), column: "v".into() };
        module
            .register(&ontology, path.clone(), rule, "DB".into(), RecordScenario::MultiRecord)
            .unwrap();
        let schemas = ExtractorManager::obtain_schemas(&module, &[path]).unwrap();
        // The candidate as the mediator sees it: the column rendered.
        let candidate = extract_one(&registry, &schemas[0].mapping).unwrap().0.remove(0);

        let cond = ResolvedCondition {
            property: ontology.property_iri("brand").unwrap(),
            op,
            value: constant,
        };
        let tree = ConditionTree::Leaf(cond.clone());
        let (pushed, plan) = plan_pushdown(&registry, &schemas, Some(&tree), None);
        prop_assert_eq!(plan.pushed_predicates(), 1, "inside the gates: {:?}", cond);
        let survived = !extract_one(&registry, &pushed[0].mapping).unwrap().0.is_empty();
        prop_assert_eq!(
            survived,
            condition_matches(&cond, &candidate),
            "{} on a {} column holding {}",
            pushed[0].mapping.rule().text(),
            ty,
            stored
        );
    }

    /// SELECT with no conditions returns every record from every source.
    #[test]
    fn unconditional_query_total(rows in arb_rows()) {
        let s2s = deploy(&rows, ExecStrategy::Serial);
        let outcome = s2s.query("SELECT product").unwrap();
        prop_assert!(outcome.errors().is_empty());
        prop_assert_eq!(outcome.individuals().len(), rows.len() * 2);
    }

    /// Equality filters agree with a direct count, per source.
    #[test]
    fn brand_filter_agrees(rows in arb_rows(), probe in "[A-E]") {
        let s2s = deploy(&rows, ExecStrategy::Serial);
        let outcome = s2s.query(&format!("SELECT product WHERE brand='{probe}'")).unwrap();
        let expect = rows.iter().filter(|r| r.brand == probe).count() * 2;
        prop_assert_eq!(outcome.individuals().len(), expect);
    }

    /// Numeric range filters agree with a direct count.
    #[test]
    fn price_filter_agrees(rows in arb_rows(), threshold in 0i64..200) {
        let s2s = deploy(&rows, ExecStrategy::Serial);
        let outcome = s2s.query(&format!("SELECT product WHERE price<{threshold}")).unwrap();
        let expect = rows.iter().filter(|r| r.price < threshold).count() * 2;
        prop_assert_eq!(outcome.individuals().len(), expect);
    }

    /// Conjunctions intersect.
    #[test]
    fn conjunction_intersects(rows in arb_rows(), probe in "[A-D]", threshold in 0i64..200) {
        let s2s = deploy(&rows, ExecStrategy::Serial);
        let q = format!("SELECT product WHERE brand='{probe}' AND price>={threshold}");
        let outcome = s2s.query(&q).unwrap();
        let expect =
            rows.iter().filter(|r| r.brand == probe && r.price >= threshold).count() * 2;
        prop_assert_eq!(outcome.individuals().len(), expect);
    }

    /// Serial and parallel strategies produce the same answer set.
    #[test]
    fn strategy_invariance(rows in arb_rows(), workers in 2usize..8) {
        let serial = deploy(&rows, ExecStrategy::Serial);
        let parallel = deploy(&rows, ExecStrategy::Parallel { workers });
        let a = serial.query("SELECT product").unwrap();
        let b = parallel.query("SELECT product").unwrap();
        let key = |o: &s2s_core::middleware::QueryOutcome| {
            let mut v: Vec<String> =
                o.individuals().iter().map(|i| format!("{}:{:?}", i.source, i.values)).collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&a), key(&b));
    }

    /// Both materializations of the same records answer identically
    /// (schema heterogeneity is invisible at the semantic layer).
    #[test]
    fn cross_source_agreement(rows in arb_rows(), probe in "[A-D]") {
        let s2s = deploy(&rows, ExecStrategy::Serial);
        let outcome = s2s.query(&format!("SELECT product WHERE brand='{probe}'")).unwrap();
        let db_count = outcome.individuals().iter().filter(|i| i.source == "DB").count();
        let xml_count = outcome.individuals().iter().filter(|i| i.source == "XML").count();
        prop_assert_eq!(db_count, xml_count);
    }

    /// The graph triple count is consistent with the structured view.
    #[test]
    fn graph_consistent_with_individuals(rows in arb_rows()) {
        let s2s = deploy(&rows, ExecStrategy::Serial);
        let outcome = s2s.query("SELECT product").unwrap();
        let type_triples = outcome
            .instances
            .graph
            .match_pattern(None, Some(&s2s_rdf::vocab::rdf::type_()), None)
            .count();
        // Exactly one type triple per individual (no deeper hierarchy).
        prop_assert_eq!(type_triples, outcome.individuals().len());
    }

    /// S2SQL parsing never panics.
    #[test]
    fn s2sql_parser_total(q in any::<String>()) {
        let _ = s2s_core::query::parse(&q);
    }

    /// condition_matches: Eq/Ne are complementary on comparable values;
    /// Lt/Ge and Le/Gt are complementary for numeric pairs.
    #[test]
    fn condition_complements(value in -1000i64..1000, bound in -1000i64..1000) {
        let prop = Iri::new("http://prop.example/p").unwrap();
        let c = |op| ResolvedCondition { property: prop.clone(), op, value: bound.to_string() };
        let v = value.to_string();
        prop_assert_ne!(condition_matches(&c(CondOp::Eq), &v), condition_matches(&c(CondOp::Ne), &v));
        prop_assert_ne!(condition_matches(&c(CondOp::Lt), &v), condition_matches(&c(CondOp::Ge), &v));
        prop_assert_ne!(condition_matches(&c(CondOp::Le), &v), condition_matches(&c(CondOp::Gt), &v));
    }
}
