//! Property tests for the middleware: the full pipeline returns exactly
//! the records matching the query, across strategies and source types,
//! the Instance Generator agrees with the one it replaced
//! (`tests/reference`) on generated extraction reports, the cache key
//! of a query text says exactly what the parser read in it, a packed
//! column reads back as the list of strings it was built from, and over
//! generated lexical forms (the `lexical_form` tests) a condition
//! compares in its range, a literal is typed exactly in its range, and
//! pushing a conjunct changes no answer.

mod reference;

use std::cmp::Ordering;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestRng;
use s2s_core::error::S2sError;
use s2s_core::extract::{
    extract_one, AttributeResult, ExtractionFailure, ExtractionReport, ExtractorManager,
    Strategy as ExecStrategy, Values,
};
use s2s_core::instance::generate;
use s2s_core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s_core::query::{
    condition_matches, normalize, parse, CondOp, Condition, ConditionExpr, ResolvedCondition,
    S2sqlQuery, MAX_CONDITION_DEPTH,
};
use s2s_core::source::{Connection, SourceRegistry};
use s2s_core::S2s;
use s2s_minidb::Database;
use s2s_owl::Ontology;
use s2s_rdf::Iri;
use s2s_textmatch::ValueSpace;

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

/// One `(column type, stored literal, op, constant)`: a text column
/// under a string range, a numeric column under a decimal range against
/// a decimal constant, a text column under `LIKE`.
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
    let text = ("[ab1. ]{0,4}", ordered(), "[ab1. ]{0,4}");
    let real = (number(), ordered(), number());
    let integer = ((-50i64..50).prop_map(|n| n.to_string()), ordered(), number());
    let like = ("[ab%_]{0,6}", Just(CondOp::Like), "[ab%_]{0,6}");
    prop_oneof![
        text.prop_map(|(v, op, c)| ("TEXT", format!("'{v}'"), op, c)),
        real.prop_map(|(v, op, c)| ("REAL", v, op, c)),
        integer.prop_map(|(v, op, c)| ("INTEGER", v, op, c)),
        like.prop_map(|(v, op, c)| ("TEXT", format!("'{v}'"), op, c)),
    ]
}

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// The ontology of the generator differential: a class tree, text and
/// numeric attributes at two levels, and an object property whose
/// values become referenced individuals — and every rule the reasoner
/// has, so that a record's entailments are more than its class's
/// supertypes: `brand ⊑ label` (a sub-property), `provider ≡ supplies⁻`
/// (an inverse, whose own domain and range type the referenced
/// individual and the record back), `Provider ⊑ Company` (a range with a
/// superclass), and `stock` with a second domain, `Stocked`, outside the
/// record class's closure (it types only the records that have a stock:
/// the report's columns are ragged).
fn catalog_ontology() -> Ontology {
    Ontology::builder("http://prop.example/schema#")
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .class("Company", None)
        .unwrap()
        .class("Provider", Some("Company"))
        .unwrap()
        .class("Stocked", None)
        .unwrap()
        .datatype_property("label", "Product", &format!("{XSD}string"))
        .unwrap()
        .datatype_property("brand", "Product", &format!("{XSD}string"))
        .unwrap()
        .subproperty_of("brand", "label")
        .unwrap()
        .datatype_property("price", "Product", &format!("{XSD}decimal"))
        .unwrap()
        .datatype_property("stock", "Product", &format!("{XSD}integer"))
        .unwrap()
        .property_domain("stock", "Stocked")
        .unwrap()
        .datatype_property("case", "Watch", &format!("{XSD}string"))
        .unwrap()
        .object_property("provider", "Product", "Provider")
        .unwrap()
        .object_property("supplies", "Provider", "Product")
        .unwrap()
        .inverse("provider", "supplies")
        .unwrap()
        .build()
        .unwrap()
}

/// The values a catalog attribute takes.
fn catalog_pool(attribute: &str) -> &'static [&'static str] {
    match attribute {
        "brand" => &["Seiko", "Casio", "Orient", ""],
        // Numeric columns hold the forms the reference's `parse::<f64>`
        // gate and `i64` reading type as the value spaces do: decimals,
        // integers as `i64` prints them, and plain text.
        "price" => &["19.99", "100", " 250.5 ", "-3", "+7.", "cheap", ""],
        "stock" => &["0", "12", "-4", "many", "1.5"],
        "case" => &["steel", "resin"],
        _ => &["Time House", "ACME", "acme", "Zürich & Co", ""],
    }
}

/// A query over the catalog: any of its classes, now and then a
/// projection, and three times in four a condition over the class's own
/// attributes — every operator, constants drawn from the attribute's
/// value pool (so leaves do hold), from the other pools and from numbers
/// and patterns beside them, nested to height 8 (a chain now and then
/// to 40) — which one time in eight each is made to reject, or to
/// accept, every record whatever the rest of it says.
fn catalog_query(rng: &mut TestRng) -> S2sqlQuery {
    const CLASSES: [(&str, &[&str]); 3] = [
        ("product", &["brand", "price", "stock", "provider"]),
        ("watch", &["brand", "price", "stock", "provider", "case", "thing.product.watch.case"]),
        ("provider", &[]),
    ];
    const CONSTANTS: [&str; 12] =
        ["100", "19.99", "12.0", "0", "-3", "250.5", "S%", "%", "_eiko", "%e%", "a", "nonesuch"];
    let (class, attributes) = CLASSES[rng.below(CLASSES.len())];
    let leaf = |rng: &mut TestRng| {
        let (attribute, other) = (pick(rng, attributes), pick(rng, attributes));
        let pool = |attribute: &str| catalog_pool(attribute.rsplit('.').next().unwrap());
        let value = match rng.below(3) {
            0 => pick(rng, &CONSTANTS),
            1 => pick(rng, pool(other)),
            _ => pick(rng, pool(attribute)),
        };
        ConditionExpr::Leaf(Condition {
            attribute: attribute.into(),
            op: OPS[rng.below(OPS.len())],
            value: value.into(),
        })
    };
    let never = || {
        Box::new(ConditionExpr::Leaf(Condition {
            attribute: "brand".into(),
            op: CondOp::Eq,
            value: "nonesuch".into(),
        }))
    };
    let condition = (!attributes.is_empty() && rng.below(4) != 0).then(|| {
        let tree = Box::new(arb_condition(rng, 40, 8, &leaf));
        match rng.below(8) {
            0 => ConditionExpr::And(tree, never()),
            1 => ConditionExpr::Or(tree, Box::new(ConditionExpr::Not(never()))),
            _ => *tree,
        }
    });
    let projection = (!attributes.is_empty() && rng.below(3) == 0)
        .then(|| (0..=rng.below(2)).map(|_| pick(rng, attributes).to_string()).collect());
    S2sqlQuery { class: class.into(), projection, condition }
}

/// An extraction report as the mediator would hand it over: one to four
/// sources — their ids sanitized into IRI segments (`DB 1`, `Db.2`), some
/// to one segment (`DB 1`, `db-1`: the source registry refuses such a
/// pair, but the generator's public API takes a report built by hand,
/// and their records' facts merge under one subject), some out of id
/// order (`XML`, `web`; `a`, `a-b`) — each with a random subset of the
/// attributes, multi-record columns of ragged lengths (now and then past
/// 1 000 records, so the record numbers' decimal widths cross) and
/// single-record ones, two paths to one property, and a failure or two.
fn catalog_report(rng: &mut TestRng, ontology: &Ontology) -> ExtractionReport {
    const SOURCES: [&str; 7] = ["DB 1", "db-1", "Db.2", "XML", "web", "a", "a-b"];
    const PATHS: [&str; 6] = [
        "thing.product.brand",
        "thing.product.watch.brand",
        "thing.product.price",
        "thing.product.stock",
        "thing.product.watch.case",
        "thing.product.provider",
    ];
    let mut module = MappingModule::new();
    let first = rng.below(SOURCES.len());
    for source in (0..=rng.below(4)).map(|k| SOURCES[(first + k) % SOURCES.len()]) {
        let forced = rng.below(PATHS.len());
        for (at, path) in PATHS.iter().enumerate() {
            if at != forced && rng.below(2) == 0 {
                continue;
            }
            let scenario = match rng.below(4) {
                0 => RecordScenario::SingleRecord,
                _ => RecordScenario::MultiRecord,
            };
            let rule = ExtractionRule::TextRegex { pattern: "x".into(), group: 0 };
            module
                .register(ontology, path.parse().unwrap(), rule, source.into(), scenario)
                .unwrap();
        }
    }
    let records = match rng.below(6) {
        0 => 1_000 + rng.below(300),
        _ => rng.below(40),
    };
    let mut results: Vec<AttributeResult> = module
        .iter()
        .map(|mapping| {
            let pool = catalog_pool(mapping.property().local_name());
            let len = match mapping.scenario() {
                RecordScenario::SingleRecord => rng.below(3),
                RecordScenario::MultiRecord => records.saturating_sub(rng.below(3) * rng.below(3)),
            };
            AttributeResult {
                mapping: mapping.clone().into(),
                values: (0..len).map(|_| pool[rng.below(pool.len())].to_string()).collect(),
                elapsed: s2s_netsim::SimDuration::from_micros(10),
            }
        })
        .collect();
    // Column order is the mediator's, not the module's.
    for i in (1..results.len()).rev() {
        results.swap(i, rng.below(i + 1));
    }
    let failures = (0..rng.below(3))
        .map(|k| ExtractionFailure {
            attribute: PATHS[k].into(),
            source: "gone".into(),
            error: S2sError::UnknownSource { id: "gone".into() },
        })
        .collect();
    ExtractionReport { results, failures, ..Default::default() }
}

const KEYWORDS: [&str; 6] = ["SELECT", "WHERE", "AND", "OR", "NOT", "LIKE"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len())]
}

/// `word` in lower, upper or its own case.
fn recase(word: &str, rng: &mut TestRng) -> String {
    match rng.below(3) {
        0 => word.to_lowercase(),
        1 => word.to_uppercase(),
        _ => word.to_string(),
    }
}

/// A class, attribute or projection name: any run of identifier
/// characters, a keyword in any case now and then. Where an attribute
/// stands the parser reads a leading `NOT` word as the operator, so no
/// parse ever holds such an attribute and none is generated.
fn arb_identifier(rng: &mut TestRng, attribute: bool) -> String {
    const ALPHABET: &[u8] = b"abcXYZ019_.-";
    let word = match rng.below(3) {
        0 => recase(pick(rng, &KEYWORDS), rng),
        _ => (0..=rng.below(6)).map(|_| ALPHABET[rng.below(ALPHABET.len())] as char).collect(),
    };
    let reads_as_not = word.len() >= 3
        && word[..3].eq_ignore_ascii_case("NOT")
        && !word.as_bytes().get(3).is_some_and(u8::is_ascii_alphanumeric);
    if attribute && reads_as_not {
        format!("x{word}")
    } else {
        word
    }
}

/// A constraint value: quotes of both styles, spaces, keywords,
/// operators, signs and non-ASCII text, in any mix — the empty string
/// included.
fn arb_value(rng: &mut TestRng) -> String {
    const PIECES: [&str; 16] = [
        "'", "\"", " ", "or", "AND", "Not", "like", "Seiko", "5", "+", "-12.5", "<=", "%", "é",
        "時計", "\u{2003}",
    ];
    (0..rng.below(5)).map(|_| pick(rng, &PIECES)).collect()
}

const OPS: [CondOp; 7] =
    [CondOp::Eq, CondOp::Ne, CondOp::Lt, CondOp::Le, CondOp::Gt, CondOp::Ge, CondOp::Like];

fn arb_leaf(rng: &mut TestRng) -> ConditionExpr {
    ConditionExpr::Leaf(Condition {
        attribute: arb_identifier(rng, true),
        op: OPS[rng.below(OPS.len())],
        value: arb_value(rng),
    })
}

type Leaf<'a> = &'a dyn Fn(&mut TestRng) -> ConditionExpr;

/// A condition tree over `leaf`s of height at most `height`: bushy up to
/// `bushy_height`, and one time in eight a chain that reaches `height`
/// exactly.
fn arb_condition(
    rng: &mut TestRng,
    height: usize,
    bushy_height: usize,
    leaf: Leaf<'_>,
) -> ConditionExpr {
    fn bushy(rng: &mut TestRng, height: usize, leaf: Leaf<'_>) -> ConditionExpr {
        if height <= 1 || rng.below(3) == 0 {
            return leaf(rng);
        }
        let a = Box::new(bushy(rng, height - 1, leaf));
        match rng.below(3) {
            0 => ConditionExpr::Not(a),
            1 => ConditionExpr::And(a, Box::new(bushy(rng, height - 1, leaf))),
            _ => ConditionExpr::Or(Box::new(bushy(rng, height - 1, leaf)), a),
        }
    }
    if rng.below(8) != 0 {
        return bushy(rng, height.min(bushy_height), leaf);
    }
    let mut chain = leaf(rng);
    for _ in 1..height {
        let link = Box::new(chain);
        chain = match rng.below(5) {
            0 => ConditionExpr::Not(link),
            1 => ConditionExpr::And(link, Box::new(leaf(rng))),
            2 => ConditionExpr::And(Box::new(leaf(rng)), link),
            3 => ConditionExpr::Or(link, Box::new(leaf(rng))),
            _ => ConditionExpr::Or(Box::new(leaf(rng)), link),
        };
    }
    chain
}

fn arb_query(rng: &mut TestRng) -> S2sqlQuery {
    S2sqlQuery {
        class: arb_identifier(rng, false),
        projection: (rng.below(3) == 0)
            .then(|| (0..=rng.below(3)).map(|_| arb_identifier(rng, false)).collect()),
        condition: (rng.below(4) != 0)
            .then(|| arb_condition(rng, MAX_CONDITION_DEPTH, 5, &arb_leaf)),
    }
}

/// The tokens of a valid query whose constraints are the ones a second
/// lexer is likeliest to misread: bare keywords, signed numbers, quoted
/// words.
fn soup_tokens(rng: &mut TestRng) -> Vec<String> {
    const OPS: [&str; 8] = ["=", "!=", "<>", "<", "<=", ">", ">=", "LIKE"];
    const VALUES: [&str; 12] =
        ["or", "OR", "and", "Not", "like", "Seiko", "+5", "-12.5", "5", "'or'", "'x y'", "\"WA\""];
    let mut tokens = vec!["SELECT".to_string(), pick(rng, &["supplier", "where", "w"]).to_string()];
    for i in 0..=rng.below(3) {
        tokens.push(if i == 0 { "WHERE" } else { pick(rng, &["AND", "OR"]) }.to_string());
        if rng.below(4) == 0 {
            tokens.push("NOT".into());
        }
        tokens.extend(
            [pick(rng, &["state", "price", "like"]), pick(rng, &OPS), pick(rng, &VALUES)]
                .map(String::from),
        );
    }
    tokens
}

/// One spelling of `tokens`: words re-cased, two-character operators
/// split or swapped for their synonym, signs detached from their digits,
/// quote styles swapped or dropped, operators joined to their operands.
fn soup_spelling(rng: &mut TestRng, tokens: &[String]) -> String {
    let mut text = String::new();
    for token in tokens {
        let first = token.chars().next().expect("tokens are not empty");
        let operator = "=!<>".contains(first);
        let spelled = if rng.below(3) != 0 {
            token.clone()
        } else if first.is_alphabetic() {
            recase(&token.to_lowercase(), rng)
        } else if operator && token.len() == 2 {
            match (token.as_str(), rng.below(2)) {
                ("<>", 0) => "!=".into(),
                ("!=", 0) => "<>".into(),
                _ => format!("{} {}", &token[..1], &token[1..]),
            }
        } else if first == '+' || first == '-' {
            format!("{first} {}", &token[1..])
        } else if first == '\'' || first == '"' {
            let inner = &token[1..token.len() - 1];
            match rng.below(3) {
                0 => format!("'{inner}'"),
                1 => format!("\"{inner}\""),
                _ => inner.to_string(),
            }
        } else {
            token.clone()
        };
        if operator && rng.below(2) == 0 {
            text.truncate(text.trim_end().len());
            text.push_str(&spelled);
        } else {
            text.push_str(&spelled);
            text.push(' ');
        }
    }
    text
}

proptest! {
    /// The canonical rendering is one spelling per query and the parser
    /// reads it back: distinct parses can therefore never render — and
    /// so never key the caches — alike.
    #[test]
    fn rendered_query_parses_back(seed in any::<u64>()) {
        let query = arb_query(&mut TestRng::from_seed(seed));
        let text = query.to_string();
        prop_assert_eq!(parse(&text), Ok(query), "{}", text);
    }

    /// A shared key means a shared parse. The forward direction
    /// (equivalent spellings share a key) is the `meta-normalize` oracle
    /// of `s2s-conform`; this is the direction a cache is wrong without:
    /// a key lexer of its own upper-cased `state=or` into `state=OR`'s
    /// entry and glued `+ 5` into `+5`.
    #[test]
    fn shared_key_means_shared_parse(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let tokens = soup_tokens(&mut rng);
        let (a, b) = (soup_spelling(&mut rng, &tokens), soup_spelling(&mut rng, &tokens));
        if normalize(&a) == normalize(&b) {
            prop_assert_eq!(parse(&a), parse(&b), "{:?} and {:?} share a key", a, b);
        }
    }

    /// Sorted emission, entailment stamped from per-template closures
    /// and the selection by column change the order work is done in,
    /// never the answer: over generated reports and generated queries
    /// the generator returns what the one it replaced (`tests/reference`,
    /// which filters a record at a time through `ConditionTree::matches`
    /// and closes the whole answer) returns — an equal graph, equal
    /// individuals in equal order, equal errors — under conditions and
    /// projections alike. The reports hold what the selection must get
    /// right: two columns for one property,
    /// single-record columns, ragged lengths, sources without a column
    /// for a leaf's property. The ontology holds what the templates must
    /// get right: rows about the referenced individual, rows about the
    /// record that only a value entails (a domain outside the class's
    /// closure, an inverse's range), sub-property copies.
    #[test]
    fn generator_agrees_with_reference(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let ontology = catalog_ontology();
        let report = catalog_report(&mut rng, &ontology);
        let query = catalog_query(&mut rng);
        let plan = s2s_core::query::plan(&query, &ontology).unwrap();

        let new = generate(&ontology, &plan, &report);
        let old = reference::generate(&ontology, &plan, &report);
        let sources: Vec<&str> = report.results.iter().map(|r| r.mapping.source().as_str()).collect();
        // A copy builds its own view, whether taken before the
        // original's first read or after it.
        let unread = new.clone();
        prop_assert_eq!(new.individuals.len(), old.individuals.len());
        prop_assert!(*new.individuals == *old.individuals, "individuals of `{query}` over {sources:?}");
        let read = new.clone();
        for copy in [&unread, &read] {
            prop_assert!(*copy.individuals == *old.individuals, "a copy's view of `{query}`");
            prop_assert!(*copy == new);
        }
        prop_assert!(new.graph == old.graph, "graph of `{query}` over {sources:?}");
        prop_assert_eq!(&new.errors, &old.errors);
        prop_assert_eq!((new.completeness, new.round_trips), (old.completeness, old.round_trips));
    }

    /// A database source filters a row with the residual's own
    /// comparison on the cell as printed: over a one-row table of each
    /// column type, the row survives the filter exactly when
    /// `condition_matches` holds for the value the mediator sees.
    #[test]
    fn a_filtered_row_survives_as_the_residual_decides((ty, stored, op, constant) in arb_pushable()) {
        let mut db = Database::new("d");
        db.execute(&format!("CREATE TABLE t (v {ty})")).unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({stored})")).unwrap();
        let mut registry = SourceRegistry::new();
        registry.register_local("DB", Connection::Database { db: Arc::new(db.clone()) }).unwrap();
        let ontology = ontology();
        // A text column maps the string-ranged brand, a numeric one the
        // decimal-ranged price.
        let (attribute, space) = match ty {
            "TEXT" => ("brand", ValueSpace::String),
            _ => ("price", ValueSpace::Decimal),
        };
        let path: s2s_owl::AttributePath =
            format!("thing.product.{attribute}").parse().unwrap();
        let mut module = MappingModule::new();
        let rule = ExtractionRule::Sql { query: "SELECT v FROM t".into(), column: "v".into() };
        module
            .register(&ontology, path.clone(), rule.clone(), "DB".into(), RecordScenario::MultiRecord)
            .unwrap();
        let schemas = ExtractorManager::obtain_schemas(&module, std::slice::from_ref(&path)).unwrap();
        // The candidate as the mediator sees it: the column rendered.
        let candidate = extract_one(&registry, &schemas[0].mapping).unwrap().0;
        let candidate = candidate.first().expect("one row, one value");
        let property = ontology.property_iri(attribute).unwrap();
        let cond = ResolvedCondition::new(property, op, constant.clone(), space);

        let mut s2s = S2s::new(ontology);
        s2s.register_source("DB", Connection::Database { db: Arc::new(db) }).unwrap();
        s2s.register_attribute(&path.to_string(), rule, "DB", RecordScenario::MultiRecord)
            .unwrap();
        let out = s2s.query(&format!("SELECT product WHERE {attribute} {op} '{constant}'")).unwrap();
        prop_assert_eq!(out.source("DB").unwrap().pushed.len(), 1);
        prop_assert_eq!(
            out.individuals().len() == 1,
            condition_matches(&cond, candidate),
            "{} {} {} on a {} column holding {}",
            attribute,
            op,
            constant,
            ty,
            stored
        );
    }

    /// SELECT with no conditions returns every record from every source.
    #[test]
    fn unconditional_query_total(rows in arb_rows()) {
        let s2s = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
        let outcome = s2s.query("SELECT product").unwrap();
        prop_assert!(outcome.errors().is_empty());
        prop_assert_eq!(outcome.individuals().len(), rows.len() * 2);
    }

    /// Equality filters agree with a direct count, per source.
    #[test]
    fn brand_filter_agrees(rows in arb_rows(), probe in "[A-E]") {
        let s2s = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
        let outcome = s2s.query(&format!("SELECT product WHERE brand='{probe}'")).unwrap();
        let expect = rows.iter().filter(|r| r.brand == probe).count() * 2;
        prop_assert_eq!(outcome.individuals().len(), expect);
    }

    /// Numeric range filters agree with a direct count.
    #[test]
    fn price_filter_agrees(rows in arb_rows(), threshold in 0i64..200) {
        let s2s = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
        let outcome = s2s.query(&format!("SELECT product WHERE price<{threshold}")).unwrap();
        let expect = rows.iter().filter(|r| r.price < threshold).count() * 2;
        prop_assert_eq!(outcome.individuals().len(), expect);
    }

    /// Conjunctions intersect.
    #[test]
    fn conjunction_intersects(rows in arb_rows(), probe in "[A-D]", threshold in 0i64..200) {
        let s2s = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
        let q = format!("SELECT product WHERE brand='{probe}' AND price>={threshold}");
        let outcome = s2s.query(&q).unwrap();
        let expect =
            rows.iter().filter(|r| r.brand == probe && r.price >= threshold).count() * 2;
        prop_assert_eq!(outcome.individuals().len(), expect);
    }

    /// One exchange at a time and several at once produce the same
    /// answer set.
    #[test]
    fn strategy_invariance(rows in arb_rows(), workers in 2usize..8) {
        let serial = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
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
        let s2s = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
        let outcome = s2s.query(&format!("SELECT product WHERE brand='{probe}'")).unwrap();
        let db_count = outcome.individuals().iter().filter(|i| &*i.source == "DB").count();
        let xml_count = outcome.individuals().iter().filter(|i| &*i.source == "XML").count();
        prop_assert_eq!(db_count, xml_count);
    }

    /// The graph triple count is consistent with the structured view.
    #[test]
    fn graph_consistent_with_individuals(rows in arb_rows()) {
        let s2s = deploy(&rows, ExecStrategy::Parallel { workers: 1 });
        let outcome = s2s.query("SELECT product").unwrap();
        let type_triples = outcome
            .instances
            .graph
            .match_pattern(None, Some(&s2s_rdf::vocab::rdf::type_()), None)
            .count();
        // Exactly one type triple per individual (no deeper hierarchy).
        prop_assert_eq!(type_triples, outcome.individuals().len());
    }

    /// A packed column is the list of strings pushed into it: any text
    /// (empty strings and multi-byte characters included), any length up
    /// to well past a real column's, read back by index, by iteration
    /// and after a truncation, with nothing past the end.
    #[test]
    fn packed_column_is_the_list_it_stands_for(
        list in proptest::collection::vec(any::<String>(), 0..40),
        repeats in 1usize..300,
        keep in 0usize..50,
    ) {
        // Up to ~12 000 values: the generated list over and over.
        let list: Vec<&str> =
            list.iter().map(String::as_str).cycle().take(list.len() * repeats).collect();
        let packed: Values = list.iter().collect();
        prop_assert_eq!(packed.len(), list.len());
        prop_assert_eq!(packed.is_empty(), list.is_empty());
        prop_assert_eq!(packed.text_len(), list.iter().map(|s| s.len()).sum::<usize>());
        prop_assert_eq!(packed.iter().collect::<Vec<_>>(), list.clone());
        prop_assert_eq!(packed.first(), list.first().copied());
        for i in [0, 1, list.len() / 2, list.len().saturating_sub(1)] {
            prop_assert_eq!(packed.get(i), list.get(i).copied(), "value {}", i);
        }
        prop_assert_eq!(packed.get(list.len()), None);
        prop_assert_eq!(format!("{packed:?}"), format!("{list:?}"));
        let owned: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        prop_assert!(packed == Values::from(owned) && packed == list[..]);

        let mut cut = packed.clone();
        cut.truncate(keep);
        let kept = &list[..keep.min(list.len())];
        prop_assert!(cut == *kept, "truncate({}) of {} values", keep, list.len());
        prop_assert_eq!(cut.text_len(), kept.iter().map(|s| s.len()).sum::<usize>());
        cut.push("后");
        prop_assert_eq!((cut.len(), cut.get(kept.len())), (kept.len() + 1, Some("后")));
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
        let c = |op| ResolvedCondition::new(prop.clone(), op, bound.to_string(), ValueSpace::Decimal);
        let v = value.to_string();
        prop_assert_ne!(condition_matches(&c(CondOp::Eq), &v), condition_matches(&c(CondOp::Ne), &v));
        prop_assert_ne!(condition_matches(&c(CondOp::Lt), &v), condition_matches(&c(CondOp::Ge), &v));
        prop_assert_ne!(condition_matches(&c(CondOp::Le), &v), condition_matches(&c(CondOp::Gt), &v));
    }
}

/// Lexical forms that tell value spaces apart: decimals signed,
/// zero-padded, with a point at either end, or past `f64`'s precision;
/// exponents; non-finite spellings; placeholders; numeric-looking,
/// non-ASCII and apostrophe words. None holds whitespace, `<`, `&` or
/// `|`, so every source kind serves each verbatim.
const FORMS: [&str; 38] = [
    "59.5",
    "59.50",
    "+59.5",
    "-59.5",
    "059.5",
    ".5",
    "5.",
    "0",
    "-0",
    "+0.0",
    "100",
    "0100",
    "99999999999999999999",
    "0.1",
    "0.10000000000000001",
    "9007199254740993",
    "1e2",
    "1E2",
    "-1.5e-1",
    "inf",
    "-inf",
    "INF",
    "NaN",
    "nan",
    "-infinity",
    "-",
    "N/A",
    ".",
    "+",
    "10",
    "9",
    "007",
    "seiko",
    "Seiko",
    "é",
    "時計",
    "o'clock",
    "true",
];

/// A lexical form: one of [`FORMS`], a generated decimal, or a short run
/// of number characters.
fn lexical_form() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..FORMS.len()).prop_map(|i| FORMS[i].to_string()),
        (0u8..3, 0u32..300, 0u32..100).prop_map(|(sign, whole, fraction)| {
            let sign = ["", "-", "+"][sign as usize];
            match fraction {
                0..=49 => format!("{sign}{whole}"),
                _ => format!("{sign}{whole}.{fraction}"),
            }
        }),
        "[-+0-9.eE]{1,5}",
    ]
}

/// A lexical form with up to two characters of whitespace on either
/// side, ASCII or not.
fn padded_form() -> impl Strategy<Value = String> {
    const PADDING: [&str; 6] = ["", "", " ", "\t", "\n ", "\u{a0}"];
    (0..PADDING.len(), lexical_form(), 0..PADDING.len())
        .prop_map(|(before, form, after)| format!("{}{form}{}", PADDING[before], PADDING[after]))
}

/// An independent model of the decimal lexical space and its order: a
/// form without the whitespace around it, split at its sign and point.
/// An integer is a decimal without a point.
fn model_decimal(form: &str, integer: bool) -> Option<(bool, String, String)> {
    let form = form.trim();
    let (negative, rest) = match form.chars().next()? {
        '-' => (true, &form[1..]),
        '+' => (false, &form[1..]),
        _ => (false, form),
    };
    let mut parts = rest.splitn(2, '.');
    let whole = parts.next()?;
    let fraction = parts.next();
    if integer && fraction.is_some() {
        return None;
    }
    let fraction = fraction.unwrap_or("");
    let digits = |s: &str| s.chars().all(|c| c.is_ascii_digit());
    let some = !whole.is_empty() || !fraction.is_empty();
    (some && digits(whole) && digits(fraction))
        .then(|| (negative, whole.to_string(), fraction.to_string()))
}

/// How `a` and `b` order in `space` by the model: bytes for a string;
/// for a decimal or an integer, both magnitudes padded with zeros to
/// one width, so their text orders as their values do. `None` when a
/// side is outside the space.
fn model_order(space: ValueSpace, a: &str, b: &str) -> Option<Ordering> {
    if space == ValueSpace::String {
        return Some(a.cmp(b));
    }
    let integer = space == ValueSpace::Integer;
    let ((a_neg, a_whole, a_frac), (b_neg, b_whole, b_frac)) =
        (model_decimal(a, integer)?, model_decimal(b, integer)?);
    let (w, f) = (a_whole.len().max(b_whole.len()), a_frac.len().max(b_frac.len()));
    let magnitude = |whole: &str, frac: &str| format!("{whole:0>w$}{frac:0<f$}");
    let (a_mag, b_mag) = (magnitude(&a_whole, &a_frac), magnitude(&b_whole, &b_frac));
    let zero = "0".repeat(w + f);
    Some(match (a_neg && a_mag != zero, b_neg && b_mag != zero) {
        (false, false) => a_mag.cmp(&b_mag),
        (true, true) => b_mag.cmp(&a_mag),
        (negative, _) => {
            if negative {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
    })
}

/// Whether `form` is in the space of the XSD datatype `local`, by the
/// model: a double is a decimal with an optional exponent, or `INF`,
/// `+INF`, `-INF`, `NaN`.
fn model_contains(local: &str, form: &str) -> bool {
    let collapsed = form.trim();
    match local {
        "string" => true,
        "decimal" => model_decimal(form, false).is_some(),
        "integer" => model_decimal(form, true).is_some(),
        "boolean" => matches!(collapsed, "true" | "false" | "1" | "0"),
        _ => match collapsed {
            "INF" | "+INF" | "-INF" | "NaN" => true,
            _ => {
                let (mantissa, exponent) = match collapsed.find(['e', 'E']) {
                    Some(at) => (&collapsed[..at], Some(&collapsed[at + 1..])),
                    None => (collapsed, None),
                };
                let exponent_ok = exponent.is_none_or(|e| {
                    let digits = e.strip_prefix(['+', '-']).unwrap_or(e);
                    !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit())
                });
                exponent_ok && model_decimal(mantissa, false).is_some()
            }
        },
    }
}

/// Whether the superseded comparison ([`reference::holds`]) and the
/// value space must agree on `candidate op constant`: in a string range
/// when the old one did not read both sides as numbers; in a decimal or
/// integer range when both sides are in the space, with at most 15
/// significant digits, so `f64` orders them as their values.
fn old_rule_agrees(space: ValueSpace, candidate: &str, constant: &str) -> bool {
    if space == ValueSpace::String {
        return constant.parse::<f64>().is_err() || candidate.trim().parse::<f64>().is_err();
    }
    let integer = space == ValueSpace::Integer;
    let short = |form: &str| {
        model_decimal(form, integer).is_some_and(|(_, whole, fraction)| {
            let digits = format!("{whole}{fraction}");
            digits.trim_start_matches('0').trim_end_matches('0').len() <= 15
        })
    };
    short(candidate) && short(constant) && constant == constant.trim()
}

/// Whether `ord` satisfies `op` (not `LIKE`).
fn accepts(op: CondOp, ord: Ordering) -> bool {
    match op {
        CondOp::Eq => ord.is_eq(),
        CondOp::Ne => ord.is_ne(),
        CondOp::Lt => ord.is_lt(),
        CondOp::Le => ord.is_le(),
        CondOp::Gt => ord.is_gt(),
        CondOp::Ge => ord.is_ge(),
        CondOp::Like => unreachable!("LIKE orders nothing"),
    }
}

/// Rows `(brand, price)` served by a database, an XML document, a web
/// page and a text file, each mapping both attributes; the database's
/// price column is `INTEGER` when every price is a plain integer SQL
/// stores (at most 18 characters), `REAL` when every one is a plain
/// decimal, `TEXT` otherwise.
fn lexical_deployment(rows: &[(String, String)]) -> S2s {
    let plain = |p: &str, point: bool| {
        let digits = p.strip_prefix('-').unwrap_or(p);
        if digits.len() > 18 {
            return false;
        }
        let (whole, fraction) = digits.split_once('.').unwrap_or((digits, "1"));
        (point || !digits.contains('.'))
            && [whole, fraction]
                .iter()
                .all(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
    };
    let column = if rows.iter().all(|(_, p)| plain(p, false)) {
        "INTEGER"
    } else if rows.iter().all(|(_, p)| plain(p, true)) {
        "REAL"
    } else {
        "TEXT"
    };
    let quoted = |s: &str| format!("'{}'", s.replace('\'', "''"));
    let mut db = Database::new("d");
    db.execute(&format!("CREATE TABLE p (id INTEGER PRIMARY KEY, brand TEXT, price {column})"))
        .unwrap();
    let (mut xml, mut html, mut text) =
        (String::from("<c>"), String::from("<html><body><ul>"), String::new());
    for (i, (brand, price)) in rows.iter().enumerate() {
        let stored = if column == "TEXT" { quoted(price) } else { price.clone() };
        db.execute(&format!("INSERT INTO p VALUES ({}, {}, {stored})", i + 1, quoted(brand)))
            .unwrap();
        xml.push_str(&format!("<p><b>{brand}</b><v>{price}</v></p>"));
        html.push_str(&format!("<li><b>{brand}</b> <i>{price}</i></li>"));
        text.push_str(&format!("brand: {brand} | price: {price}\n"));
    }
    xml.push_str("</c>");
    html.push_str("</ul></body></html>");
    let mut web = s2s_webdoc::WebStore::new();
    web.register_html("http://shop/list", html);
    web.register_text("file:///shop.txt", text);
    let web = Arc::new(web);

    let mut s2s = S2s::new(ontology());
    let sources = [
        ("DB", Connection::Database { db: Arc::new(db) }),
        ("XML", Connection::Xml { document: Arc::new(s2s_xml::parse(&xml).unwrap()) }),
        ("WEB", Connection::Web { store: Arc::clone(&web), url: "http://shop/list".into() }),
        ("TXT", Connection::Text { store: web, url: "file:///shop.txt".into() }),
    ];
    for (id, connection) in sources {
        s2s.register_source(id, connection).unwrap();
    }
    let sql = |column: &str| ExtractionRule::Sql {
        query: format!("SELECT {column} FROM p ORDER BY id"),
        column: column.into(),
    };
    let webl = |tag: &str| ExtractionRule::Webl {
        program: format!("var v = TagTexts(Text(PAGE), \"{tag}\");"),
    };
    let regex = |label: &str| ExtractionRule::TextRegex {
        pattern: format!(r"{label}: ([^ |\n]+)"),
        group: 1,
    };
    for (attribute, tag) in [("brand", "b"), ("price", "v")] {
        let path = format!("thing.product.{attribute}");
        let rules = [
            ("DB", sql(attribute)),
            ("XML", ExtractionRule::XPath { path: format!("/c/p/{tag}/text()") }),
            ("WEB", webl(if tag == "b" { "b" } else { "i" })),
            ("TXT", regex(attribute)),
        ];
        for (id, rule) in rules {
            s2s.register_attribute(&path, rule, id, RecordScenario::MultiRecord).unwrap();
        }
    }
    s2s
}

/// Generated rows for [`lexical_deployment`]: a brand and a price, each
/// a lexical form.
fn lexical_rows() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((lexical_form(), lexical_form()), 0..6)
}

proptest! {
    /// A condition compares in its property's range, by an independent
    /// model of the decimal order (padded digit strings) and the code
    /// point order — a side outside the space satisfying no operator,
    /// `!=` included — and, on the forms where the two cannot differ,
    /// as the comparison it replaced (`tests/reference`) did.
    #[test]
    fn a_condition_compares_lexical_forms_in_its_range(
        space in prop_oneof![
            Just(ValueSpace::String),
            Just(ValueSpace::Decimal),
            Just(ValueSpace::Integer)
        ],
        op in 0..OPS.len(),
        candidate in padded_form(),
        constant in lexical_form(),
    ) {
        let op = OPS[op];
        let property = Iri::new("http://prop.example/p").unwrap();
        let condition = ResolvedCondition::new(property, op, constant.clone(), space);
        let got = condition_matches(&condition, &candidate);
        let model = match op {
            CondOp::Like => s2s_textmatch::like_match(&candidate, &constant),
            _ => model_order(space, &candidate, &constant).is_some_and(|o| accepts(op, o)),
        };
        prop_assert_eq!(got, model, "{:?} {} {:?} in {:?}", candidate, op, constant, space);
        if op == CondOp::Like || old_rule_agrees(space, &candidate, &constant) {
            prop_assert_eq!(got, reference::holds(op, &candidate, &constant));
        }
    }

    /// The Instance Generator types a value by its property's range
    /// exactly when the value is in the range's space, and the reasoner
    /// finds such a literal conforming exactly then: a typed literal
    /// conforms, and a value outside the space is emitted as the plain
    /// string the reasoner reports.
    #[test]
    fn a_lexical_form_is_typed_exactly_in_its_range(
        range in 0usize..5,
        form in padded_form(),
    ) {
        const RANGES: [&str; 5] = ["string", "decimal", "integer", "double", "boolean"];
        let local = RANGES[range];
        let datatype = Iri::new(format!("{XSD}{local}")).unwrap();
        let ontology = Ontology::builder("http://prop.example/schema#")
            .class("Product", None)
            .unwrap()
            .datatype_property("v", "Product", datatype.as_str())
            .unwrap()
            .build()
            .unwrap();
        let mut module = MappingModule::new();
        let rule = ExtractionRule::TextRegex { pattern: "x".into(), group: 0 };
        let path = "thing.product.v".parse().unwrap();
        module.register(&ontology, path, rule, "S".into(), RecordScenario::MultiRecord).unwrap();
        let mapping = module.iter().next().unwrap().clone();
        let report = ExtractionReport {
            results: vec![AttributeResult {
                mapping: mapping.into(),
                values: Values::from(vec![form.clone()]),
                elapsed: s2s_netsim::SimDuration::from_micros(1),
            }],
            ..Default::default()
        };
        let plan = s2s_core::query::plan(&parse("SELECT product").unwrap(), &ontology).unwrap();
        let set = generate(&ontology, &plan, &report);
        let property = ontology.property_iri("v").unwrap();
        let literal = set
            .graph
            .match_pattern(None, Some(&property), None)
            .find_map(|t| t.object().as_literal().cloned())
            .unwrap();
        let inside = model_contains(local, &form);
        prop_assert_eq!(s2s_owl::reasoner::literal_conforms(&literal, &datatype), inside);
        let typed = literal.datatype() == &datatype && local != "string";
        prop_assert_eq!(typed, inside && local != "string", "{:?} as {}", form, local);
        if !inside {
            prop_assert_eq!(literal.lexical(), form.as_str());
        }
    }

    /// Filtering a source by the condition — a database's rows, a
    /// document's records, a page's or a file's equal columns — changes
    /// no answer, record numbers included: over rows of lexical forms and
    /// conditions on either attribute with lexical-form constants, the
    /// deployment answers what a copy with views, which binds nothing
    /// and leaves every record to the generator, answers.
    #[test]
    fn pushdown_of_lexical_forms_changes_no_answer(
        rows in lexical_rows(),
        conditions in proptest::collection::vec(
            (any::<bool>(), 0..OPS.len(), lexical_form()),
            1..3,
        ),
    ) {
        let text = conditions
            .iter()
            .map(|(brand, op, constant)| {
                let attribute = if *brand { "brand" } else { "price" };
                format!("{attribute} {} '{}'", OPS[*op], constant.replace('\'', "''"))
            })
            .collect::<Vec<_>>()
            .join(" AND ");
        let answer = |s2s: S2s| {
            let outcome = s2s.query(&format!("SELECT product WHERE {text}")).unwrap();
            (outcome.individuals().to_vec(), outcome.errors().len())
        };
        let filtered = answer(lexical_deployment(&rows));
        let twin = answer(lexical_deployment(&rows).with_views());
        prop_assert_eq!(filtered, twin, "{}", text);
    }
}
