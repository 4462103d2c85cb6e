//! Workload generators behind the `experiments` binary and its record
//! ([`record`]).
//!
//! Everything is seeded and deterministic: the same parameters always
//! produce the same catalog, the same deployment, and (thanks to
//! per-source endpoint seeding in `s2s-netsim`) the same simulated
//! network behaviour. Nothing outside [`wall`], the harnesses of the
//! concurrency and overload gates, reads the wall clock; wall-clock cost
//! is measured by the `benchmark/` package.

#![forbid(unsafe_code)]

pub mod record;
pub mod wall;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use s2s_core::extract::Strategy;
use s2s_core::mapping::{ExtractionRule, RecordScenario};
use s2s_core::middleware::QueryOutcome;
use s2s_core::source::Connection;
use s2s_core::S2s;
use s2s_minidb::Database;
use s2s_netsim::{ChangeKind, CostModel, FailureModel, SimDuration};
use s2s_owl::Ontology;
use s2s_webdoc::WebStore;
use s2s_xml::Document;

/// Brand vocabulary for generated catalogs.
pub const BRANDS: &[&str] =
    &["Seiko", "Casio", "Orient", "Tissot", "Fossil", "Timex", "Citizen", "Bulova"];

/// Case-material vocabulary.
pub const CASES: &[&str] = &["stainless-steel", "resin", "titanium", "leather", "ceramic"];

/// One generated catalog record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Record id.
    pub id: i64,
    /// Brand name.
    pub brand: String,
    /// Price in USD.
    pub price: f64,
    /// Case material.
    pub case: String,
}

/// Generates `n` deterministic records.
pub fn records(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Record {
            id: i as i64 + 1,
            brand: BRANDS[rng.gen_range(0..BRANDS.len())].to_string(),
            price: (rng.gen_range(2000..50000) as f64) / 100.0,
            case: CASES[rng.gen_range(0..CASES.len())].to_string(),
        })
        .collect()
}

/// The watch ontology used by every experiment.
pub fn ontology() -> Ontology {
    Ontology::builder("http://bench.example/schema#")
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

/// A synthetic ontology: a balanced class tree of roughly `classes`
/// classes with `props_per_class` datatype properties each.
pub fn synthetic_ontology(classes: usize, props_per_class: usize) -> Ontology {
    let mut b = Ontology::builder("http://bench.example/big#").class("C0", None).unwrap();
    for i in 1..classes {
        let parent = format!("C{}", (i - 1) / 2);
        b = b.class(&format!("C{i}"), Some(&parent)).unwrap();
    }
    for i in 0..classes {
        for p in 0..props_per_class {
            b = b
                .datatype_property(
                    &format!("p{i}_{p}"),
                    &format!("C{i}"),
                    "http://www.w3.org/2001/XMLSchema#string",
                )
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// Materializes records as a relational database.
pub fn catalog_db(records: &[Record]) -> Database {
    let mut db = Database::new("catalog");
    db.execute(
        "CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL, case_m TEXT)",
    )
    .unwrap();
    for chunk in records.chunks(64) {
        let values: Vec<String> = chunk
            .iter()
            .map(|r| format!("({}, '{}', {}, '{}')", r.id, r.brand, r.price, r.case))
            .collect();
        db.execute(&format!("INSERT INTO watches VALUES {}", values.join(", "))).unwrap();
    }
    db
}

/// Materializes records as an XML document.
pub fn catalog_xml(records: &[Record]) -> Document {
    let mut xml = String::from("<catalog>");
    for r in records {
        xml.push_str(&format!(
            "<watch id=\"{}\"><brand>{}</brand><price>{}</price><case>{}</case></watch>",
            r.id, r.brand, r.price, r.case
        ));
    }
    xml.push_str("</catalog>");
    s2s_xml::parse(&xml).unwrap()
}

/// Materializes records as one HTML page listing all records (the
/// n-record web scenario).
pub fn catalog_html(records: &[Record]) -> String {
    let mut html = String::from("<html><body><ul>");
    for r in records {
        html.push_str(&format!(
            "<li><b>{}</b> <span class=\"price\">{}</span> <i>{}</i></li>",
            r.brand, r.price, r.case
        ));
    }
    html.push_str("</ul></body></html>");
    html
}

/// Materializes records as a plain-text export.
pub fn catalog_text(records: &[Record]) -> String {
    let mut text = String::new();
    for r in records {
        text.push_str(&format!("brand: {} | price: {} | case: {}\n", r.brand, r.price, r.case));
    }
    text
}

/// The SQL mappings for a database source.
pub fn map_db(s2s: &mut S2s, id: &str) {
    for (attr, col) in [("brand", "brand"), ("price", "price"), ("case", "case_m")] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::Sql {
                query: format!("SELECT {col} FROM watches ORDER BY id"),
                column: col.into(),
            },
            id,
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
}

/// The XPath mappings for an XML source.
pub fn map_xml(s2s: &mut S2s, id: &str) {
    for (attr, el) in [("brand", "brand"), ("price", "price"), ("case", "case")] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::XPath { path: format!("/catalog/watch/{el}/text()") },
            id,
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
}

/// The WebL mappings for a web-page source (list page, n records).
pub fn map_web(s2s: &mut S2s, id: &str) {
    s2s.register_attribute(
        "thing.product.watch.brand",
        ExtractionRule::Webl { program: "var b = TagTexts(Text(PAGE), \"b\");".into() },
        id,
        RecordScenario::MultiRecord,
    )
    .unwrap();
    // `Str_Search` yields [group0, group1] per match and the
    // list-to-text flattening concatenates the groups, so the price
    // comes from its own tag (same convention as the conform catalog).
    s2s.register_attribute(
        "thing.product.watch.price",
        ExtractionRule::Webl { program: "var p = TagTexts(Text(PAGE), \"span\");".into() },
        id,
        RecordScenario::MultiRecord,
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.watch.case",
        ExtractionRule::Webl { program: "var c = TagTexts(Text(PAGE), \"i\");".into() },
        id,
        RecordScenario::MultiRecord,
    )
    .unwrap();
}

/// The regex mappings for a text source.
pub fn map_text(s2s: &mut S2s, id: &str) {
    for (attr, pat) in
        [("brand", r"brand: ([\w-]+)"), ("price", r"price: ([0-9.]+)"), ("case", r"case: ([\w-]+)")]
    {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::TextRegex { pattern: pat.into(), group: 1 },
            id,
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
}

/// The catalog in all four source formats, as `(source id, connection)`
/// in registration order: a database `DB`, an XML document `XML`, an
/// HTML list page `WEB` and a plain-text export `TXT`.
pub fn catalog_sources(records: &[Record]) -> [(&'static str, Connection); 4] {
    let mut web = WebStore::new();
    web.register_html("http://shop/list", catalog_html(records));
    web.register_text("file:///export.txt", catalog_text(records));
    let web = Arc::new(web);
    [
        ("DB", Connection::Database { db: Arc::new(catalog_db(records)) }),
        ("XML", Connection::Xml { document: Arc::new(catalog_xml(records)) }),
        ("WEB", Connection::Web { store: web.clone(), url: "http://shop/list".into() }),
        ("TXT", Connection::Text { store: web, url: "file:///export.txt".into() }),
    ]
}

/// Registers the hand-written mappings of the four [`catalog_sources`].
fn map_catalog(s2s: &mut S2s) {
    map_db(s2s, "DB");
    map_xml(s2s, "XML");
    map_web(s2s, "WEB");
    map_text(s2s, "TXT");
}

/// A mixed deployment: the same `n`-record catalog materialized in all
/// four source formats, all local (E1, E2, E6).
pub fn deploy_mixed(n: usize, seed: u64) -> S2s {
    let mut s2s = S2s::new(ontology());
    for (id, connection) in catalog_sources(&records(n, seed)) {
        s2s.register_source(id, connection).unwrap();
    }
    map_catalog(&mut s2s);
    s2s
}

/// [`deploy_mixed`] with every source behind its own reliable WAN
/// endpoint, so each query pays simulated round trips and wire bytes
/// (E15, E16).
pub fn deploy_wan(n: usize, seed: u64) -> S2s {
    let mut s2s = S2s::new(ontology());
    for (id, connection) in catalog_sources(&records(n, seed)) {
        s2s.register_remote_source(id, connection, CostModel::wan(), FailureModel::reliable())
            .unwrap();
    }
    map_catalog(&mut s2s);
    s2s
}

/// A sharded deployment: `sources` remote databases of `per_source`
/// records each (E3, E9).
pub fn deploy_sharded(
    sources: usize,
    per_source: usize,
    cost: CostModel,
    failure: FailureModel,
    strategy: Strategy,
) -> S2s {
    let mut s2s = S2s::new(ontology()).with_strategy(strategy);
    for i in 0..sources {
        let recs = records(per_source, 1000 + i as u64);
        let id = format!("SHARD_{i:03}");
        s2s.register_remote_source(
            &id,
            Connection::Database { db: Arc::new(catalog_db(&recs)) },
            cost,
            failure,
        )
        .unwrap();
        map_db(&mut s2s, &id);
    }
    s2s
}

/// An ontology whose `Product` class carries `attrs` string properties
/// `a0..a{attrs-1}` (the attributes-per-source sweep axis).
pub fn wide_ontology(attrs: usize) -> Ontology {
    let mut b = Ontology::builder("http://bench.example/wide#").class("Product", None).unwrap();
    for j in 0..attrs {
        b = b
            .datatype_property(
                &format!("a{j}"),
                "Product",
                "http://www.w3.org/2001/XMLSchema#string",
            )
            .unwrap();
    }
    b.build().unwrap()
}

/// A wide deployment: `sources` remote databases, each mapping the same
/// `attrs` attributes (one SQL rule per attribute, identical text on
/// every source). This is the batching workload: a query pays `sources`
/// round trips.
pub fn deploy_wide(sources: usize, attrs: usize, cost: CostModel, strategy: Strategy) -> S2s {
    wide(sources, attrs, cost, strategy, false)
}

/// [`deploy_wide`]'s per-attribute twin, the E11 baseline: attribute
/// `j > 0` of database `i` is registered under a source of its own,
/// `WIDE_{i}_a{j}`, over the same connection and cost model, so every
/// attribute crosses the wire as its own one-rule exchange — the
/// paper-literal Fig. 5 dispatch — in the same source-major order.
/// Attribute 0 keeps the database's own id, and with it its endpoint's
/// jitter stream. Each twin source yields its own individual.
pub fn deploy_wide_per_attribute(
    sources: usize,
    attrs: usize,
    cost: CostModel,
    strategy: Strategy,
) -> S2s {
    wide(sources, attrs, cost, strategy, true)
}

fn wide(
    sources: usize,
    attrs: usize,
    cost: CostModel,
    strategy: Strategy,
    per_attribute: bool,
) -> S2s {
    let mut s2s = S2s::new(wide_ontology(attrs)).with_strategy(strategy);
    let columns: Vec<String> = (0..attrs).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..sources {
        let mut db = Database::new(format!("wide{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..attrs).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let connection = Connection::Database { db: Arc::new(db) };
        for j in 0..attrs {
            let id = if per_attribute && j > 0 {
                format!("WIDE_{i:03}_a{j}")
            } else {
                format!("WIDE_{i:03}")
            };
            if j == 0 || per_attribute {
                s2s.register_remote_source(&id, connection.clone(), cost, FailureModel::reliable())
                    .unwrap();
            }
            s2s.register_attribute(
                &format!("thing.product.a{j}"),
                ExtractionRule::Sql {
                    query: format!("SELECT a{j} FROM t"),
                    column: format!("a{j}"),
                },
                &id,
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
    }
    s2s
}

/// The sorted `(property, value)` pairs of an answer, whichever
/// individuals carry them: what [`deploy_wide`] and its per-attribute
/// twin must agree on.
pub fn wide_values(outcome: &QueryOutcome) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = outcome
        .individuals()
        .iter()
        .flat_map(|i| &i.values)
        .flat_map(|(p, values)| values.iter().map(move |v| (p.to_string(), v.clone())))
        .collect();
    pairs.sort();
    pairs
}

// ---------------------------------------------------------------------
// Bootstrap fleet (E17).

/// Leaf classes (no children) of [`synthetic_ontology`]'s balanced
/// class tree (`C{i}`'s parent is `C{(i-1)/2}`). Fleet sources expose
/// properties of leaf classes only, so the bootstrap's
/// most-specific-class selection lands exactly on the class whose
/// properties the source carries.
pub fn fleet_leaf_classes(classes: usize) -> Vec<usize> {
    (0..classes).filter(|&i| 2 * i + 1 >= classes).collect()
}

/// The source kinds the fleet rotates through.
pub const FLEET_KINDS: [&str; 4] = ["db", "xml", "web", "text"];

/// Materializes one synthetic fleet source as `(class index, kind,
/// connection)`. Source `i` exposes the `props` string properties of a
/// leaf class `C{c}` as native fields named exactly like the
/// properties (`p{c}_{j}`) over `rows` records — except web sources,
/// whose HTML tag names use the hyphenated form (`<p{c}-{j}>`,
/// underscores are not valid in tag names), exercising the bootstrap's
/// normalized-match tier instead of the exact tier.
pub fn fleet_source(
    i: usize,
    classes: usize,
    props: usize,
    rows: usize,
) -> (usize, &'static str, Connection) {
    let leaves = fleet_leaf_classes(classes);
    let c = leaves[i % leaves.len()];
    let kind = FLEET_KINDS[i % FLEET_KINDS.len()];
    let value = |j: usize, r: usize| format!("v{i}-{j}-{r}");
    let connection = match kind {
        "db" => {
            let mut db = Database::new(format!("fleet{i}"));
            let cols: Vec<String> = (0..props).map(|j| format!("p{c}_{j} TEXT")).collect();
            db.execute(&format!("CREATE TABLE t ({})", cols.join(", "))).unwrap();
            for r in 0..rows {
                let vals: Vec<String> = (0..props).map(|j| format!("'{}'", value(j, r))).collect();
                db.execute(&format!("INSERT INTO t VALUES ({})", vals.join(", "))).unwrap();
            }
            Connection::Database { db: Arc::new(db) }
        }
        "xml" => {
            let mut xml = String::from("<export>");
            for r in 0..rows {
                xml.push_str("<rec>");
                for j in 0..props {
                    xml.push_str(&format!("<p{c}_{j}>{}</p{c}_{j}>", value(j, r)));
                }
                xml.push_str("</rec>");
            }
            xml.push_str("</export>");
            Connection::Xml { document: Arc::new(s2s_xml::parse(&xml).unwrap()) }
        }
        "web" => {
            let mut html = String::from("<html><body>");
            for r in 0..rows {
                html.push_str("<div>");
                for j in 0..props {
                    html.push_str(&format!("<p{c}-{j}>{}</p{c}-{j}>", value(j, r)));
                }
                html.push_str("</div>");
            }
            html.push_str("</body></html>");
            let mut store = WebStore::new();
            let url = format!("http://fleet/{i}");
            store.register_html(&url, html);
            Connection::Web { store: Arc::new(store), url }
        }
        _ => {
            let mut text = String::new();
            for r in 0..rows {
                let fields: Vec<String> =
                    (0..props).map(|j| format!("p{c}_{j}: {}", value(j, r))).collect();
                text.push_str(&fields.join(" | "));
                text.push('\n');
            }
            let mut store = WebStore::new();
            let url = format!("file:///fleet{i}.txt");
            store.register_text(&url, text);
            Connection::Text { store: Arc::new(store), url }
        }
    };
    (c, kind, connection)
}

/// What one E17 bootstrap-at-catalog-scale run measured.
#[derive(Debug, Clone)]
pub struct E17Report {
    /// Sources bootstrapped.
    pub sources: usize,
    /// Ontology size axis: classes in the synthetic tree.
    pub classes: usize,
    /// Ontology size axis: datatype properties per class.
    pub props_per_class: usize,
    /// Records per source.
    pub rows: usize,
    /// Accepted candidates registered as mappings (expected
    /// `sources × props_per_class`).
    pub mappings: usize,
    /// Conflicts surfaced across the fleet (expected 0: every fleet
    /// field matches its property at the exact or normalized tier).
    pub conflicts: usize,
    /// Individuals one end-to-end query against a bootstrapped leaf
    /// class produced (> 0 proves the generated mappings extract).
    pub query_individuals: usize,
    /// Sources whose re-bootstrap produced a different candidate set
    /// (expected 0: bootstrap is deterministic).
    pub divergences: usize,
}

impl E17Report {
    /// Renders the report as a single JSON object (pinned as
    /// `tests/golden/e17.json`).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sources\":{},\"classes\":{},\"props_per_class\":{},\"rows\":{},",
                "\"mappings\":{},\"conflicts\":{},\"query_individuals\":{},",
                "\"divergences\":{}}}"
            ),
            self.sources,
            self.classes,
            self.props_per_class,
            self.rows,
            self.mappings,
            self.conflicts,
            self.query_individuals,
            self.divergences,
        )
    }
}

/// Candidate-set signature used by the E17 determinism check: applied
/// state is excluded so a consumed report compares equal to a fresh
/// re-bootstrap.
fn candidate_signature(report: &s2s_core::BootstrapReport) -> String {
    report
        .candidates
        .iter()
        .map(|c| {
            format!(
                "{}|{}|{:?}|{:?}|{}|{}",
                c.field, c.path, c.rule, c.scenario, c.confidence, c.accepted
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the E17 bootstrap fleet: registers `sources` synthetic sources
/// over a `classes × props` ontology, bootstraps every one through
/// [`s2s_core::S2s::bootstrap_source`] / `apply_bootstrap`, then runs
/// one end-to-end query and checks re-bootstrap determinism.
pub fn run_bootstrap_fleet(sources: usize, classes: usize, props: usize, rows: usize) -> E17Report {
    let mut s2s = S2s::new(synthetic_ontology(classes, props));
    for i in 0..sources {
        let (_, _, connection) = fleet_source(i, classes, props, rows);
        s2s.register_source(&format!("F{i}"), connection).unwrap();
    }

    let mut reports: Vec<_> = (0..sources)
        .map(|i| s2s.bootstrap_source(&format!("F{i}")).expect("fleet sources have schemas"))
        .collect();
    let conflicts: usize = reports.iter().map(|r| r.conflicts.len()).sum();
    let mappings: usize = reports
        .iter_mut()
        .map(|r| s2s.apply_bootstrap(r).expect("accepted candidates register"))
        .sum();

    // End-to-end: query the first source's leaf class.
    let outcome = s2s.query(&format!("SELECT c{}", fleet_leaf_classes(classes)[0])).unwrap();

    // Determinism: a second bootstrap of every source must reproduce
    // the candidate set exactly.
    let divergences = (0..sources)
        .filter(|i| {
            let fresh = s2s.bootstrap_source(&format!("F{i}")).expect("still registered");
            candidate_signature(&fresh) != candidate_signature(&reports[*i])
        })
        .count();

    E17Report {
        sources,
        classes,
        props_per_class: props,
        rows,
        mappings,
        conflicts,
        query_individuals: outcome.instances.individuals.len(),
        divergences,
    }
}

/// Canonical fingerprint of a query answer: the sorted multiset of
/// individual value maps. Two runs agree on a query iff their keys are
/// equal — independent of task interleaving, timing, or provenance.
pub fn result_key(outcome: &s2s_core::middleware::QueryOutcome) -> String {
    let mut keys: Vec<String> =
        outcome.individuals().iter().map(|i| format!("{:?}", i.values)).collect();
    keys.sort();
    keys.join("|")
}

/// The price threshold whose `price < T` predicate selects about `pct`
/// percent of `records`: the k-th smallest price (k = ⌈n·pct/100⌉),
/// nudged one cent up so the k-th record itself matches.
pub fn selectivity_threshold(records: &[Record], pct: f64) -> f64 {
    let mut prices: Vec<f64> = records.iter().map(|r| r.price).collect();
    prices.sort_by(f64::total_cmp);
    let k = ((records.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, records.len());
    ((prices[k - 1] * 100.0).round() as i64 + 1) as f64 / 100.0
}

/// One selectivity point of the E15 pushdown sweep: a `price <` query
/// and its unfiltered twin run on one engine.
#[derive(Debug, Clone)]
pub struct PushdownPoint {
    /// Target selectivity, percent of catalog rows.
    pub selectivity_pct: f64,
    /// The swept `price <` threshold.
    pub threshold: f64,
    /// Individuals in the pushed answer.
    pub matched: usize,
    /// Whether the pushed answer diverged from the unfiltered one, IRIs
    /// included.
    pub mismatch: bool,
    /// Total wire bytes of the unfiltered twin.
    pub baseline_wire_bytes: u64,
    /// Total wire bytes of the filtered query.
    pub pushed_wire_bytes: u64,
    /// Response wire bytes of the unfiltered twin.
    pub baseline_response_bytes: u64,
    /// Response wire bytes of the filtered query.
    pub pushed_response_bytes: u64,
    /// Response bytes the filter kept off the wire: the unfiltered
    /// twin's response bytes minus the filtered run's.
    pub wire_bytes_saved: u64,
    /// Conjuncts bound to the sources' record statements.
    pub pushed_predicates: u64,
    /// Sources pruned outright.
    pub pruned_sources: u64,
}

impl PushdownPoint {
    /// Total-wire-bytes reduction factor of the filter at this point.
    pub fn reduction(&self) -> f64 {
        self.baseline_wire_bytes as f64 / (self.pushed_wire_bytes.max(1)) as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"selectivity_pct\":{},\"threshold\":{},\"matched\":{},",
                "\"mismatch\":{},\"baseline_wire_bytes\":{},\"pushed_wire_bytes\":{},",
                "\"baseline_response_bytes\":{},\"pushed_response_bytes\":{},",
                "\"wire_bytes_saved\":{},\"pushed_predicates\":{},",
                "\"pruned_sources\":{},\"reduction\":{:.2}}}"
            ),
            self.selectivity_pct,
            self.threshold,
            self.matched,
            self.mismatch,
            self.baseline_wire_bytes,
            self.pushed_wire_bytes,
            self.baseline_response_bytes,
            self.pushed_response_bytes,
            self.wire_bytes_saved,
            self.pushed_predicates,
            self.pruned_sources,
            self.reduction(),
        )
    }
}

/// The full E15 sweep (pinned as `tests/golden/e15.json`).
#[derive(Debug, Clone)]
pub struct PushdownReport {
    /// Catalog rows behind every source.
    pub rows: usize,
    /// One entry per swept selectivity.
    pub points: Vec<PushdownPoint>,
}

impl PushdownReport {
    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(PushdownPoint::to_json).collect();
        format!("{{\"rows\":{},\"points\":[{}]}}", self.rows, points.join(","))
    }
}

/// Runs `query` on `engine` and then on `twin`, a fresh engine of the
/// same deployment with views, which bind no condition: every source
/// runs unfiltered; returns the measured [`PushdownPoint`].
pub fn run_pushdown_point(
    engine: &S2s,
    twin: &S2s,
    query: &str,
    selectivity_pct: f64,
    threshold: f64,
) -> PushdownPoint {
    let pushed = engine.query(query).expect("pushdown query");
    let baseline = twin.query(query).expect("baseline query");
    assert!(baseline.sources.iter().all(|r| r.pushed.is_empty()), "the twin runs unfiltered");
    PushdownPoint {
        selectivity_pct,
        threshold,
        matched: pushed.individuals().len(),
        mismatch: pushed.individuals() != baseline.individuals(),
        baseline_wire_bytes: baseline.stats.wire_bytes,
        pushed_wire_bytes: pushed.stats.wire_bytes,
        baseline_response_bytes: baseline.stats.wire_response_bytes,
        pushed_response_bytes: pushed.stats.wire_response_bytes,
        wire_bytes_saved: baseline
            .stats
            .wire_response_bytes
            .saturating_sub(pushed.stats.wire_response_bytes),
        pushed_predicates: pushed.sources.iter().map(|r| r.pushed.len() as u64).sum(),
        pruned_sources: pushed.sources.iter().filter(|r| r.pruned).count() as u64,
    }
}

// ---------------------------------------------------------------------
// Incremental-delta harness (E16).
// ---------------------------------------------------------------------

/// One mutation-rate point of the E16 delta sweep: the same
/// query stream with background source mutations run on a views-enabled
/// engine and on its invalidate-and-recompute twin (result cache only —
/// after every mutation the answers that read the source miss at their
/// next lookup, and the query re-extracts everything from the wire).
#[derive(Debug, Clone)]
pub struct DeltaPoint {
    /// Mutations per hundred queries.
    pub mutation_pct: f64,
    /// Queries executed on each arm.
    pub queries: usize,
    /// Source mutations applied to each arm.
    pub mutations: usize,
    /// Steps where the two arms' answers disagreed.
    pub divergences: usize,
    /// Simulated time the recompute arm spent answering the stream.
    pub baseline_sim: SimDuration,
    /// Simulated time the delta arm spent answering the stream (feed
    /// polls plus re-extracted slices).
    pub delta_sim: SimDuration,
    /// Total wire bytes moved by the recompute arm.
    pub baseline_wire_bytes: u64,
    /// Total wire bytes moved by the delta arm.
    pub delta_wire_bytes: u64,
    /// Slices served without re-extraction on the delta arm.
    pub view_hits: u64,
    /// Slices incrementally re-extracted on the delta arm.
    pub view_refreshes: u64,
    /// Slices rebuilt from scratch after a feed gap.
    pub view_full_refreshes: u64,
    /// Worst served-slice staleness observed on the delta arm,
    /// simulated µs (the view was this far behind its last freshness
    /// verification when served).
    pub max_staleness_us: u64,
}

impl DeltaPoint {
    /// Throughput advantage of delta maintenance at this point on the
    /// simulated clock: the recompute arm's time over the delta arm's.
    pub fn speedup(&self) -> f64 {
        self.baseline_sim.as_micros() as f64 / self.delta_sim.as_micros().max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"mutation_pct\":{},\"queries\":{},\"mutations\":{},",
                "\"divergences\":{},\"baseline_sim_us\":{},\"delta_sim_us\":{},",
                "\"speedup\":{:.2},",
                "\"baseline_wire_bytes\":{},\"delta_wire_bytes\":{},",
                "\"view_hits\":{},\"view_refreshes\":{},\"view_full_refreshes\":{},",
                "\"max_staleness_us\":{}}}"
            ),
            self.mutation_pct,
            self.queries,
            self.mutations,
            self.divergences,
            self.baseline_sim.as_micros(),
            self.delta_sim.as_micros(),
            self.speedup(),
            self.baseline_wire_bytes,
            self.delta_wire_bytes,
            self.view_hits,
            self.view_refreshes,
            self.view_full_refreshes,
            self.max_staleness_us,
        )
    }
}

/// The full E16 sweep (pinned as `tests/golden/e16.json`).
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Catalog rows behind every source.
    pub rows: usize,
    /// One entry per swept mutation rate.
    pub points: Vec<DeltaPoint>,
}

impl DeltaReport {
    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(DeltaPoint::to_json).collect();
        format!("{{\"rows\":{},\"points\":[{}]}}", self.rows, points.join(","))
    }
}

/// Runs one E16 point: a repeated-text query stream over
/// [`deploy_wan`], with the DB source's price column mutated at
/// `mutation_pct` mutations per hundred queries (honest `fields =
/// ["price"]` declarations on the change feed). The delta arm maintains
/// materialized views; the baseline arm relies on the result cache
/// alone, so every mutation forces it back onto the wire for all four
/// sources, each filtered by the condition; the views hold slices
/// whole. Both arms see the identical query stream and mutation
/// schedule, and every answer is compared step by step.
pub fn run_delta(rows: usize, seed: u64, steps: usize, mutation_pct: f64) -> DeltaPoint {
    let baseline = deploy_wan(rows, seed).with_result_cache();
    let delta = deploy_wan(rows, seed).with_result_cache().with_views();
    let mut recs = records(rows, seed);
    let thresholds = [120, 220, 320, 420];
    let texts: Vec<String> =
        thresholds.iter().map(|t| format!("SELECT watch WHERE price < {t}")).collect();

    let mut acc = 0.0f64;
    let mut mutations = 0usize;
    let mut divergences = 0usize;
    let (mut baseline_sim, mut delta_sim) = (SimDuration::ZERO, SimDuration::ZERO);
    let (mut base_wire, mut delta_wire) = (0u64, 0u64);
    let (mut view_hits, mut view_refreshes, mut view_full_refreshes) = (0u64, 0u64, 0u64);
    let mut max_staleness_us = 0u64;
    for step in 0..steps {
        acc += mutation_pct / 100.0;
        if acc >= 1.0 {
            acc -= 1.0;
            mutations += 1;
            for r in recs.iter_mut() {
                r.price += 1.0;
            }
            let db = Arc::new(catalog_db(&recs));
            for engine in [&baseline, &delta] {
                engine
                    .mutate_source(
                        "DB",
                        Connection::Database { db: Arc::clone(&db) },
                        ChangeKind::RowUpdate,
                        vec!["price".into()],
                    )
                    .expect("DB is registered");
            }
        }
        let base_outcome = baseline.query(&texts[step % texts.len()]).expect("baseline query");
        let delta_outcome = delta.query(&texts[step % texts.len()]).expect("delta query");
        baseline_sim += base_outcome.stats.simulated;
        delta_sim += delta_outcome.stats.simulated;
        base_wire += base_outcome.stats.wire_bytes;
        delta_wire += delta_outcome.stats.wire_bytes;
        view_hits += delta_outcome.stats.view_hits;
        view_refreshes += delta_outcome.stats.view_refreshes;
        view_full_refreshes += delta_outcome.stats.view_full_refreshes;
        max_staleness_us = max_staleness_us.max(delta_outcome.stats.view_staleness.as_micros());
        if result_key(&base_outcome) != result_key(&delta_outcome) {
            divergences += 1;
        }
    }

    DeltaPoint {
        mutation_pct,
        queries: steps,
        mutations,
        divergences,
        baseline_sim,
        delta_sim,
        baseline_wire_bytes: base_wire,
        delta_wire_bytes: delta_wire,
        view_hits,
        view_refreshes,
        view_full_refreshes,
        max_staleness_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(records(50, 7), records(50, 7));
        assert_ne!(records(50, 7), records(50, 8));
    }

    #[test]
    fn mixed_deployment_sources_agree_on_filters() {
        let s2s = deploy_mixed(40, 9);
        let outcome = s2s.query("SELECT watch WHERE brand='Seiko'").unwrap();
        // Same catalog in 4 formats → per-source counts are equal.
        let mut counts = std::collections::BTreeMap::new();
        for i in outcome.individuals() {
            *counts.entry(i.source.clone()).or_insert(0usize) += 1;
        }
        let vals: Vec<usize> = counts.values().copied().collect();
        assert!(vals.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn sharded_deployment_counts() {
        let s2s = deploy_sharded(
            4,
            10,
            CostModel::lan(),
            FailureModel::reliable(),
            Strategy::Parallel { workers: 4 },
        );
        let outcome = s2s.query("SELECT watch").unwrap();
        assert_eq!(outcome.individuals().len(), 40);
    }

    #[test]
    fn wide_deployment_and_its_per_attribute_twin_agree() {
        let batched = deploy_wide(3, 4, CostModel::wan(), Strategy::Parallel { workers: 1 })
            .query("SELECT product")
            .unwrap();
        let per_attr =
            deploy_wide_per_attribute(3, 4, CostModel::wan(), Strategy::Parallel { workers: 1 })
                .query("SELECT product")
                .unwrap();
        assert_eq!(batched.individuals().len(), 3);
        assert_eq!(per_attr.individuals().len(), 12, "one individual per twin source");
        assert_eq!(wide_values(&batched), wide_values(&per_attr));
        assert_eq!(batched.stats.round_trips, 3);
        assert_eq!(per_attr.stats.round_trips, 12);
        assert!(batched.stats.simulated < per_attr.stats.simulated);
    }

    #[test]
    fn bootstrap_twin_matches_handwritten_demo_deployment() {
        // The acceptance bar for the bootstrap pass: on the demo
        // catalog, accepted bootstrap output must produce byte-identical
        // query fingerprints to the hand-written registrations.
        let n = 40;
        let seed = 42;
        let handwritten = deploy_mixed(n, seed);

        // Same sources, zero hand-written mappings.
        let mut twin = S2s::new(ontology());
        for (id, connection) in catalog_sources(&records(n, seed)) {
            twin.register_source(id, connection).unwrap();
        }

        for id in ["DB", "XML", "TXT"] {
            let report = twin.register_bootstrapped(id).unwrap();
            assert_eq!(
                report.candidates.iter().filter(|c| c.applied).count(),
                3,
                "{id}: {report:?}"
            );
        }
        // The bare <b>/<i> web tags carry no name signal; the operator
        // resolves the surfaced conflicts, exactly as in the conform
        // oracle arm.
        let mut report = twin.bootstrap_source("WEB").unwrap();
        report.resolve("b", "thing.product.watch.brand").unwrap();
        report.resolve("i", "thing.product.watch.case").unwrap();
        assert_eq!(twin.apply_bootstrap(&mut report).unwrap(), 3);

        for query in
            ["SELECT watch", "SELECT watch WHERE price < 300", "SELECT watch WHERE brand='Seiko'"]
        {
            let a = handwritten.query(query).unwrap();
            let b = twin.query(query).unwrap();
            assert_eq!(result_key(&a), result_key(&b), "diverged on {query}");
        }
    }
}
