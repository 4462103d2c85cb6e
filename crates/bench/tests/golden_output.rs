//! Golden bytes for the Instance Generator's five output formats.
//!
//! The pinned hashes were computed on the commit *before* the SPO-eager
//! graph, the semi-naive materializer and the streaming serializers
//! landed, so they prove that rewrite changed no output byte. The
//! deployment is the mixed four-source demo (DB + XML + WEB + TXT over
//! one catalog) extended with what the serializers branch on: an object
//! property (`provider`, minted + range-typed individuals) and a literal
//! that needs escaping in every syntax.

use std::sync::Arc;

use s2s_bench::{
    catalog_db, catalog_html, catalog_xml, map_db, map_web, map_xml, ontology, records,
};
use s2s_core::instance::OutputFormat;
use s2s_core::mapping::{ExtractionRule, RecordScenario};
use s2s_core::source::Connection;
use s2s_core::S2s;
use s2s_webdoc::WebStore;

const FORMATS: [OutputFormat; 5] = [
    OutputFormat::OwlRdfXml,
    OutputFormat::Turtle,
    OutputFormat::NTriples,
    OutputFormat::Xml,
    OutputFormat::Text,
];

/// `(len, fnv1a64)` in [`FORMATS`] order.
const GOLDEN: [(usize, u64); 5] = [
    (0x3e2e, 0x3ee1_9c46_2173_63ce),
    (0x23fb, 0xc579_1246_b82d_6a64),
    (0x7817, 0x698b_26d9_b43b_b6b6),
    (0x21a3, 0x41b8_ae80_532a_9b44),
    (0x1712, 0x5e96_63fe_be0b_a235),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

fn deploy() -> S2s {
    let recs = records(12, 7);
    let mut s2s = S2s::new(ontology());
    s2s.register_source("DB", Connection::Database { db: Arc::new(catalog_db(&recs)) }).unwrap();
    s2s.register_source("XML", Connection::Xml { document: Arc::new(catalog_xml(&recs)) }).unwrap();

    // The text export carries the awkward values: a brand that needs
    // escaping as XML text, as an XML attribute and as a Turtle string,
    // and the provider (an object property) of the whole file.
    let mut text = String::from("provider: Time House & Sons\n");
    for (i, r) in recs.iter().enumerate() {
        let brand = if i == 3 { r#"R&D "Pro" <v2> \ed"# } else { r.brand.as_str() };
        text.push_str(&format!("brand: {brand} | price: {} | case: {}\n", r.price, r.case));
    }
    let mut web = WebStore::new();
    web.register_html("http://shop/list", catalog_html(&recs));
    web.register_text("file:///export.txt", text);
    let web = Arc::new(web);
    s2s.register_source(
        "WEB",
        Connection::Web { store: web.clone(), url: "http://shop/list".into() },
    )
    .unwrap();
    s2s.register_source("TXT", Connection::Text { store: web, url: "file:///export.txt".into() })
        .unwrap();

    map_db(&mut s2s, "DB");
    map_xml(&mut s2s, "XML");
    map_web(&mut s2s, "WEB");
    for (attr, pattern, scenario) in [
        ("brand", r"brand: ([^|]+) \|", RecordScenario::MultiRecord),
        ("price", r"price: ([0-9.]+)", RecordScenario::MultiRecord),
        ("case", r"case: ([\w-]+)", RecordScenario::MultiRecord),
        ("provider", r"provider: ([^\n]+)", RecordScenario::SingleRecord),
    ] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::TextRegex { pattern: pattern.into(), group: 1 },
            "TXT",
            scenario,
        )
        .unwrap();
    }
    s2s
}

#[test]
fn five_output_formats_are_byte_identical_to_the_pinned_parent() {
    let s2s = deploy();
    let outcome = s2s.query("SELECT watch").unwrap();
    assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
    assert_eq!(outcome.individuals().len(), 48);

    let owl = outcome.render(s2s.ontology(), OutputFormat::OwlRdfXml);
    assert!(owl.contains("<s:brand>R&amp;D \"Pro\" &lt;v2&gt; \\ed</s:brand>"), "{owl}");
    assert!(owl.contains("<s:provider rdf:resource="), "{owl}");
    let ttl = outcome.render(s2s.ontology(), OutputFormat::Turtle);
    assert!(ttl.contains(r#"s:brand "R&D \"Pro\" <v2> \\ed""#), "{ttl}");

    let measured = FORMATS
        .map(|f| outcome.render(s2s.ontology(), f))
        .map(|s| (s.len(), fnv1a64(s.as_bytes())));
    assert_eq!(measured, GOLDEN, "rendered bytes moved; measured = {measured:x?}");
}
