//! Cross-crate integration tests: the full S2S pipeline from source
//! registration to serialized OWL output, exercised through the `s2s`
//! façade crate.

use std::sync::Arc;

use s2s::core::instance::OutputFormat;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::owl::{Ontology, Reasoner};
use s2s::webdoc::WebStore;
use s2s::S2s;

fn ontology() -> Ontology {
    Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .class("Provider", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .datatype_property("price", "Product", "http://www.w3.org/2001/XMLSchema#decimal")
        .unwrap()
        .datatype_property("case", "Watch", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .object_property("provider", "Product", "Provider")
        .unwrap()
        .build()
        .unwrap()
}

fn deploy() -> S2s {
    let mut db = Database::new("catalog");
    db.execute(
        "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL, c TEXT, s TEXT)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO watches VALUES \
         (1,'Seiko',129.99,'stainless-steel','WatchWorld'), \
         (2,'Casio',59.5,'resin','WatchWorld')",
    )
    .unwrap();

    let xml =
        s2s::xml::parse("<c><w><b>Orient</b><p>189.0</p><m>stainless-steel</m></w></c>").unwrap();

    let mut web = WebStore::new();
    web.register_html("http://shop/81", "<p><b>Tissot Classic</b></p><i>price 249.00 usd</i>");
    let web = Arc::new(web);

    let mut s2s = S2s::new(ontology());
    s2s.register_source("DB_ID_45", Connection::Database { db: Arc::new(db) }).unwrap();
    s2s.register_source("XML_7", Connection::Xml { document: Arc::new(xml) }).unwrap();
    s2s.register_source("wpage_81", Connection::Web { store: web, url: "http://shop/81".into() })
        .unwrap();

    for (attr, col) in [("brand", "brand"), ("price", "price"), ("case", "c"), ("provider", "s")] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::Sql {
                query: format!("SELECT {col} FROM watches ORDER BY id"),
                column: col.into(),
            },
            "DB_ID_45",
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    for (attr, el) in [("brand", "b"), ("price", "p"), ("case", "m")] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::XPath { path: format!("//w/{el}/text()") },
            "XML_7",
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    s2s.register_attribute(
        "thing.product.watch.brand",
        ExtractionRule::Webl {
            program: r#"
                var m = Str_Search(Text(PAGE), "<p><b>" + `[A-Za-z ]+`);
                var parts = Str_Split(m[0][0], "<>");
                var brand = parts[2];
            "#
            .into(),
        },
        "wpage_81",
        RecordScenario::SingleRecord,
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.watch.price",
        ExtractionRule::TextRegex { pattern: r"price (\d+\.\d+) usd".into(), group: 1 },
        "wpage_81",
        RecordScenario::SingleRecord,
    )
    .unwrap();
    s2s
}

#[test]
fn one_query_integrates_three_source_types() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch").unwrap();
    assert!(outcome.errors().is_empty());
    assert_eq!(outcome.individuals().len(), 4); // 2 db + 1 xml + 1 web
    let sources: std::collections::BTreeSet<_> =
        outcome.individuals().iter().map(|i| &*i.source).collect();
    assert_eq!(sources.len(), 3);
}

#[test]
fn conditions_apply_across_source_boundaries() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch WHERE case='stainless-steel'").unwrap();
    assert_eq!(outcome.individuals().len(), 2); // Seiko (db) + Orient (xml)
    let outcome = s2s.query("SELECT watch WHERE price>200").unwrap();
    assert_eq!(outcome.individuals().len(), 1); // Tissot (web)
}

#[test]
fn owl_output_reparses_and_is_consistent() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch").unwrap();

    // Turtle reparses to the identical graph.
    let ttl = outcome.render(s2s.ontology(), OutputFormat::Turtle);
    let parsed = s2s::rdf::turtle::parse(&ttl).unwrap();
    assert_eq!(parsed, outcome.instances.graph);

    // N-Triples too.
    let nt = outcome.render(s2s.ontology(), OutputFormat::NTriples);
    let parsed = s2s::rdf::ntriples::parse(&nt).unwrap();
    assert_eq!(parsed, outcome.instances.graph);

    // The generated instances satisfy the ontology (no consistency
    // issues).
    let reasoner = Reasoner::new(s2s.ontology());
    let issues = reasoner.check_consistency(&outcome.instances.graph);
    assert!(issues.is_empty(), "{issues:?}");
}

#[test]
fn xml_output_is_well_formed() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch").unwrap();
    let xml = outcome.render(s2s.ontology(), OutputFormat::Xml);
    let doc = s2s::xml::parse(&xml).unwrap();
    assert_eq!(doc.root().name(), "instances");
    assert_eq!(doc.root().child_elements().count(), 4);
}

#[test]
fn realization_finds_most_specific_class() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch WHERE brand='Seiko'").unwrap();
    let reasoner = Reasoner::new(s2s.ontology());
    let ind = &outcome.individuals()[0];
    let types = reasoner.realize(&outcome.instances.graph, &s2s::rdf::Term::from(ind.iri.clone()));
    assert_eq!(types.len(), 1);
    assert_eq!(types[0].local_name(), "Watch");
}

#[test]
fn provider_individuals_typed_from_object_property_range() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch").unwrap();
    let provider = s2s.ontology().class_iri("Provider").unwrap();
    let providers: Vec<_> = outcome.instances.graph.instances_of(&provider).collect();
    assert_eq!(providers.len(), 1); // WatchWorld minted once, shared
}

#[test]
fn repeated_queries_are_deterministic() {
    let s2s = deploy();
    let a = s2s.query("SELECT watch").unwrap();
    let b = s2s.query("SELECT watch").unwrap();
    assert_eq!(a.instances.graph, b.instances.graph);
    assert_eq!(a.individuals().len(), b.individuals().len());
}

#[test]
fn select_superclass_includes_subclass_instances() {
    // Querying `product` must return the watches: the plan's attribute
    // paths are rooted at Product, and Watch mappings registered under
    // watch paths still answer brand/price because the attribute
    // belongs to Product.
    let s2s = deploy();
    let outcome = s2s.query("SELECT product WHERE brand='Casio'").unwrap();
    assert_eq!(outcome.individuals().len(), 1);
}
