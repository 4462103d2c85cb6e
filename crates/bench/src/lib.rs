//! Workload generators and harnesses behind the `experiments` binary
//! (E1–E17, A1).
//!
//! Everything is seeded and deterministic: the same parameters always
//! produce the same catalog, the same deployment, and (thanks to
//! per-source endpoint seeding in `s2s-netsim`) the same simulated
//! network behaviour.

#![forbid(unsafe_code)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use s2s_core::extract::Strategy;
use s2s_core::mapping::{ExtractionRule, RecordScenario};
use s2s_core::middleware::QueryOutcome;
use s2s_core::source::Connection;
use s2s_core::{QueryOptions, S2s};
use s2s_minidb::Database;
use s2s_netsim::{AdmissionConfig, ChangeKind, CostModel, FailureModel, SimDuration};
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

/// A mixed deployment: the same `n`-record catalog materialized in all
/// four source formats, all local (E1, E2, E6).
pub fn deploy_mixed(n: usize, seed: u64) -> S2s {
    let recs = records(n, seed);
    let mut s2s = S2s::new(ontology());

    s2s.register_source("DB", Connection::Database { db: Arc::new(catalog_db(&recs)) }).unwrap();
    s2s.register_source("XML", Connection::Xml { document: Arc::new(catalog_xml(&recs)) }).unwrap();

    let mut web = WebStore::new();
    web.register_html("http://shop/list", catalog_html(&recs));
    web.register_text("file:///export.txt", catalog_text(&recs));
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
    map_text(&mut s2s, "TXT");
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
    /// Wall clock of the introspection + candidate-generation phase.
    pub bootstrap_wall: std::time::Duration,
    /// Wall clock of registering every accepted candidate.
    pub register_wall: std::time::Duration,
    /// Mean path-lookup cost over the bootstrapped mapping table
    /// (E4-style `mappings_for` probe), nanoseconds per op.
    pub lookup_ns_per_op: f64,
    /// Wall clock of one end-to-end query against a bootstrapped leaf
    /// class.
    pub query_wall: std::time::Duration,
    /// Individuals the end-to-end query produced (> 0 proves the
    /// generated mappings extract).
    pub query_individuals: usize,
    /// Sources whose re-bootstrap produced a different candidate set
    /// (expected 0: bootstrap is deterministic).
    pub divergences: usize,
}

impl E17Report {
    /// Renders the report as a single JSON object (no dependencies; the
    /// smoke-audit artifact format).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"sources\":{},\"classes\":{},\"props_per_class\":{},\"rows\":{},",
                "\"mappings\":{},\"conflicts\":{},",
                "\"bootstrap_wall_us\":{},\"register_wall_us\":{},",
                "\"lookup_ns_per_op\":{:.1},",
                "\"query_wall_us\":{},\"query_individuals\":{},",
                "\"divergences\":{}}}"
            ),
            SCHEMA_VERSION,
            self.sources,
            self.classes,
            self.props_per_class,
            self.rows,
            self.mappings,
            self.conflicts,
            self.bootstrap_wall.as_micros(),
            self.register_wall.as_micros(),
            self.lookup_ns_per_op,
            self.query_wall.as_micros(),
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
/// [`s2s_core::S2s::bootstrap_source`] / `apply_bootstrap`, then
/// measures mapping-table lookup cost, one end-to-end query, and
/// re-bootstrap determinism.
pub fn run_bootstrap_fleet(sources: usize, classes: usize, props: usize, rows: usize) -> E17Report {
    let ontology = synthetic_ontology(classes, props);
    let mut s2s = S2s::new(ontology.clone());
    let specs: Vec<(usize, &str)> = (0..sources)
        .map(|i| {
            let (c, kind, connection) = fleet_source(i, classes, props, rows);
            s2s.register_source(&format!("F{i}"), connection).unwrap();
            (c, kind)
        })
        .collect();

    let (mut reports, bootstrap_wall) = time(|| {
        (0..sources)
            .map(|i| s2s.bootstrap_source(&format!("F{i}")).expect("fleet sources have schemas"))
            .collect::<Vec<_>>()
    });
    let conflicts: usize = reports.iter().map(|r| r.conflicts.len()).sum();

    let (mappings, register_wall) = time(|| {
        reports
            .iter_mut()
            .map(|r| s2s.apply_bootstrap(r).expect("accepted candidates register"))
            .sum::<usize>()
    });

    // E4-style lookup probe over an equivalent standalone mapping table.
    let mut module = s2s_core::mapping::MappingModule::new();
    let mut paths: Vec<s2s_owl::AttributePath> = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        for c in report.candidates.iter().filter(|c| c.applied) {
            let path: s2s_owl::AttributePath = c.path.parse().unwrap();
            module
                .register(
                    &ontology,
                    path.clone(),
                    c.rule.clone(),
                    format!("F{i}").as_str().into(),
                    c.scenario,
                )
                .unwrap();
            paths.push(path);
        }
    }
    const LOOKUP_ITERS: usize = 1000;
    let (hits, lookup_wall) = time(|| {
        let mut hits = 0usize;
        for k in 0..LOOKUP_ITERS {
            let probe = &paths[k % paths.len()];
            hits += module.mappings_for(probe).len();
        }
        hits
    });
    assert!(hits >= LOOKUP_ITERS, "every probe is a registered path");
    let lookup_ns_per_op = lookup_wall.as_nanos() as f64 / LOOKUP_ITERS as f64;

    // End-to-end: query the first source's leaf class.
    let class = format!("c{}", specs[0].0);
    let (outcome, query_wall) = time(|| s2s.query(&format!("SELECT {class}")).unwrap());

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
        bootstrap_wall,
        register_wall,
        lookup_ns_per_op,
        query_wall,
        query_individuals: outcome.instances.individuals.len(),
        divergences,
    }
}

/// Wall-clock helper for the experiments binary.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let v = f();
    (v, start.elapsed())
}

// ---------------------------------------------------------------------
// Multi-client throughput harness (E13).
// ---------------------------------------------------------------------

/// A paced remote deployment for throughput runs: the `n`-record
/// catalog in all four formats, each behind a WAN endpoint whose
/// simulated latency is *real-time paced* (see [`CostModel::with_pace`])
/// so concurrent clients genuinely overlap their waits. `pace = 0`
/// yields the instant-execution baseline with identical simulated costs
/// and identical answers.
pub fn deploy_paced(
    n: usize,
    seed: u64,
    pace_us_per_sim_ms: u64,
    strategy: Strategy,
    result_cache: bool,
) -> S2s {
    let recs = records(n, seed);
    let cost = CostModel::wan().with_pace(pace_us_per_sim_ms);
    let reliable = FailureModel::reliable();
    let mut s2s = S2s::new(ontology()).with_strategy(strategy);
    if result_cache {
        s2s = s2s.with_result_cache();
    }

    s2s.register_remote_source(
        "DB",
        Connection::Database { db: Arc::new(catalog_db(&recs)) },
        cost,
        reliable,
    )
    .unwrap();
    s2s.register_remote_source(
        "XML",
        Connection::Xml { document: Arc::new(catalog_xml(&recs)) },
        cost,
        reliable,
    )
    .unwrap();
    let mut web = WebStore::new();
    web.register_html("http://shop/list", catalog_html(&recs));
    web.register_text("file:///export.txt", catalog_text(&recs));
    let web = Arc::new(web);
    s2s.register_remote_source(
        "WEB",
        Connection::Web { store: web.clone(), url: "http://shop/list".into() },
        cost,
        reliable,
    )
    .unwrap();
    s2s.register_remote_source(
        "TXT",
        Connection::Text { store: web, url: "file:///export.txt".into() },
        cost,
        reliable,
    )
    .unwrap();

    map_db(&mut s2s, "DB");
    map_xml(&mut s2s, "XML");
    map_web(&mut s2s, "WEB");
    map_text(&mut s2s, "TXT");
    s2s
}

/// A cache-cold workload: every client gets `per_client` *distinct*
/// query texts (distinct price thresholds), so no query repeats
/// anywhere and every engine cache misses.
pub fn cold_workload(clients: usize, per_client: usize) -> Vec<Vec<String>> {
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|i| format!("SELECT watch WHERE price < {}", 30 + c * per_client + i))
                .collect()
        })
        .collect()
}

/// A cache-warm workload: `total` queries cycling through `shared`
/// distinct texts, split evenly across clients. Client `c` starts
/// `c·shared/clients` texts into the cycle, so concurrent clients warm
/// different entries instead of racing on the same cold miss; the
/// measured window *includes* the warming phase.
pub fn warm_workload(clients: usize, shared: usize, total: usize) -> Vec<Vec<String>> {
    let texts: Vec<String> =
        (0..shared).map(|i| format!("SELECT watch WHERE price < {}", 500 + i)).collect();
    let per_client = total / clients;
    (0..clients)
        .map(|c| {
            let offset = c * shared / clients;
            (0..per_client).map(|i| texts[(offset + i) % shared].clone()).collect()
        })
        .collect()
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

/// Runs every distinct text of `workload` serially on `reference` and
/// returns text → [`result_key`]. The reference engine is typically an
/// unpaced, cache-free twin of the engine under test.
pub fn serial_baseline(
    reference: &S2s,
    workload: &[Vec<String>],
) -> std::collections::BTreeMap<String, String> {
    let mut baseline = std::collections::BTreeMap::new();
    for texts in workload {
        for t in texts {
            baseline
                .entry(t.clone())
                .or_insert_with(|| result_key(&reference.query(t).expect("baseline query")));
        }
    }
    baseline
}

/// Version of the JSON artifact layout emitted by
/// [`ThroughputReport::to_json`] and [`OverloadReport::to_json`].
/// Bump when a field is added, removed, or re-typed; the smoke jobs
/// refuse artifacts whose `schema_version` differs from the binary's.
pub const SCHEMA_VERSION: u32 = 4;

/// What one throughput run measured.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Concurrent client threads.
    pub clients: usize,
    /// Total queries executed (all clients).
    pub queries: usize,
    /// Wall-clock time of the whole run.
    pub wall: std::time::Duration,
    /// Queries per second of wall-clock time.
    pub qps: f64,
    /// Median per-query wall latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-query wall latency, microseconds.
    pub p99_us: u64,
    /// Queries whose [`result_key`] differed from the serial baseline.
    pub mismatches: usize,
    /// The worst per-query completeness observed.
    pub min_completeness: f64,
    /// Plan-cache counters at the end of the run.
    pub plan_cache: s2s_core::CacheStats,
    /// Result-cache counters at the end of the run.
    pub result_cache: s2s_core::CacheStats,
}

impl ThroughputReport {
    /// Hit rate of a counter pair, in `[0, 1]` (`0` when idle).
    pub fn hit_rate(stats: s2s_core::CacheStats) -> f64 {
        let total = stats.hits + stats.misses;
        if total == 0 {
            0.0
        } else {
            stats.hits as f64 / total as f64
        }
    }

    /// Renders the report as a single JSON object (no dependencies; the
    /// smoke-audit artifact format).
    pub fn to_json(&self) -> String {
        fn cache(stats: s2s_core::CacheStats) -> String {
            format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
                stats.hits, stats.misses, stats.evictions
            )
        }
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"clients\":{},\"queries\":{},\"wall_us\":{},\"qps\":{:.1},",
                "\"p50_us\":{},\"p99_us\":{},\"mismatches\":{},\"min_completeness\":{},",
                "\"plan_cache\":{},\"result_cache\":{}}}"
            ),
            SCHEMA_VERSION,
            self.clients,
            self.queries,
            self.wall.as_micros(),
            self.qps,
            self.p50_us,
            self.p99_us,
            self.mismatches,
            self.min_completeness,
            cache(self.plan_cache),
            cache(self.result_cache),
        )
    }
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

/// One selectivity point of the E15 pushdown sweep: the same query run
/// on a planner-enabled engine and its planner-free twin.
#[derive(Debug, Clone)]
pub struct PushdownPoint {
    /// Target selectivity, percent of catalog rows.
    pub selectivity_pct: f64,
    /// The swept `price <` threshold.
    pub threshold: f64,
    /// Individuals in the pushed answer.
    pub matched: usize,
    /// Whether the pushed answer diverged from the planner-free one.
    pub mismatch: bool,
    /// Total wire bytes without the planner.
    pub baseline_wire_bytes: u64,
    /// Total wire bytes with the planner.
    pub pushed_wire_bytes: u64,
    /// Response wire bytes without the planner.
    pub baseline_response_bytes: u64,
    /// Response wire bytes with the planner.
    pub pushed_response_bytes: u64,
    /// Response bytes the planner kept off the wire: the planner-free
    /// twin's response bytes minus the pushed run's.
    pub wire_bytes_saved: u64,
    /// Predicates pushed into source-native rules.
    pub pushed_predicates: u64,
    /// Sources pruned outright.
    pub pruned_sources: u64,
}

impl PushdownPoint {
    /// Total-wire-bytes reduction factor of the planner at this point.
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

/// The full E15 sweep (the `e15.json` smoke artifact).
#[derive(Debug, Clone)]
pub struct PushdownReport {
    /// Catalog rows behind every source.
    pub rows: usize,
    /// One entry per swept selectivity.
    pub points: Vec<PushdownPoint>,
}

impl PushdownReport {
    /// Renders the report as a single JSON object (no dependencies;
    /// the smoke-artifact format).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(PushdownPoint::to_json).collect();
        format!(
            "{{\"schema_version\":{},\"rows\":{},\"points\":[{}]}}",
            SCHEMA_VERSION,
            self.rows,
            points.join(",")
        )
    }
}

/// Runs `query` on the planner-enabled engine `on` and its planner-free
/// twin `off`, returning the measured [`PushdownPoint`].
pub fn run_pushdown_point(
    on: &S2s,
    off: &S2s,
    query: &str,
    selectivity_pct: f64,
    threshold: f64,
) -> PushdownPoint {
    let pushed = on.query(query).expect("pushdown query");
    let baseline = off.query(query).expect("baseline query");
    let plan = pushed.pushdown.as_ref();
    PushdownPoint {
        selectivity_pct,
        threshold,
        matched: pushed.individuals().len(),
        mismatch: result_key(&pushed) != result_key(&baseline),
        baseline_wire_bytes: baseline.stats.wire_bytes,
        pushed_wire_bytes: pushed.stats.wire_bytes,
        baseline_response_bytes: baseline.stats.wire_response_bytes,
        pushed_response_bytes: pushed.stats.wire_response_bytes,
        wire_bytes_saved: baseline
            .stats
            .wire_response_bytes
            .saturating_sub(pushed.stats.wire_response_bytes),
        pushed_predicates: plan.map_or(0, |p| p.pushed_predicates()),
        pruned_sources: plan.map_or(0, |p| p.pruned_sources()),
    }
}

/// Validates one smoke-report artifact (`e13.json`, `e14.json`,
/// `e15.json`): the text must be a single well-formed JSON document and
/// every `schema_version` field in it must equal [`SCHEMA_VERSION`]
/// (top-level for e13/e15, per run for e14). Dependency-free.
///
/// # Errors
///
/// Returns a description of the first syntax error, a missing
/// `schema_version`, or a version mismatch.
pub fn validate_report(json: &str) -> Result<(), String> {
    let mut p = JsonCheck { bytes: json.as_bytes(), pos: 0, versions: Vec::new() };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    if p.versions.is_empty() {
        return Err("no schema_version field anywhere in the document".into());
    }
    for v in &p.versions {
        if *v != i64::from(SCHEMA_VERSION) {
            return Err(format!("schema_version {v} != expected {SCHEMA_VERSION}"));
        }
    }
    Ok(())
}

/// A minimal recursive-descent JSON well-formedness checker that also
/// collects every integer-valued `"schema_version"` member it passes.
struct JsonCheck<'a> {
    bytes: &'a [u8],
    pos: usize,
    versions: Vec<i64>,
}

impl JsonCheck<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(|_| ()),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            if key == "schema_version" {
                match self.peek() {
                    Some(c) if c == b'-' || c.is_ascii_digit() => {
                        let text = self.number()?;
                        let v = text
                            .parse::<i64>()
                            .map_err(|_| format!("schema_version is not an integer: {text:?}"))?;
                        self.versions.push(v);
                    }
                    _ => {
                        return Err(format!("schema_version is not a number at byte {}", self.pos))
                    }
                }
            } else {
                self.value()?;
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!("bad \\u escape at byte {}", self.pos))
                                    }
                                }
                            }
                        }
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
                    }
                }
                Some(_) => self.pos += 1,
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<String, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// Runs `workload[c]` on client thread `c`, all threads sharing the one
/// `engine`, and checks every answer against `baseline`.
pub fn run_throughput(
    engine: &S2s,
    workload: &[Vec<String>],
    baseline: &std::collections::BTreeMap<String, String>,
) -> ThroughputReport {
    let started = std::time::Instant::now();
    let per_client: Vec<Vec<(u64, bool, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .iter()
            .map(|texts| {
                scope.spawn(move || {
                    texts
                        .iter()
                        .map(|t| {
                            let q = std::time::Instant::now();
                            let outcome = engine.query(t).expect("throughput query");
                            (
                                q.elapsed().as_micros() as u64,
                                baseline.get(t) == Some(&result_key(&outcome)),
                                outcome.stats.completeness,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed();
    let samples: Vec<(u64, bool, f64)> = per_client.into_iter().flatten().collect();
    throughput_report(engine, workload.len(), wall, samples)
}

/// Runs `workload` on a single OS thread as a discrete-event loop over
/// virtual time: every client issues its queries in order and waits out
/// each answer's simulated cost on a timer before issuing the next.
/// Timers fire in `(deadline, sequence)` order, so the schedule is a
/// function of the workload alone. No thread blocks per client, so the
/// client count can exceed the core count by orders of magnitude; with
/// a paced engine every query runs under `defer_pacing` and the loop
/// sleeps once per virtual-clock advance at the steepest pace rate it
/// has seen, so wall time tracks the virtual makespan across all
/// clients exactly as a thread-per-client run would — without the
/// threads.
///
/// Latency percentiles report *virtual* per-query service time
/// (simulated microseconds) rather than wall time: under a multiplexer,
/// per-query wall time would mostly measure other clients' compute,
/// not this query's service.
pub fn run_throughput_reactor(
    engine: &S2s,
    workload: &[Vec<String>],
    baseline: &std::collections::BTreeMap<String, String>,
) -> ThroughputReport {
    use std::cmp::Reverse;

    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    let mut issued = vec![0usize; workload.len()];
    // (due_us, sequence, client): every client's first timer is due now.
    let mut timers: std::collections::BinaryHeap<_> =
        (0..workload.len()).map(|client| Reverse((0u64, client, client))).collect();
    let mut sequence = workload.len();
    let (mut now_us, mut pace_us_per_sim_ms) = (0u64, 0u64);
    while let Some(Reverse((due_us, _, client))) = timers.pop() {
        if due_us > now_us {
            s2s_netsim::pace_sleep((due_us - now_us).saturating_mul(pace_us_per_sim_ms) / 1_000);
            now_us = due_us;
        }
        let Some(text) = workload[client].get(issued[client]) else { continue };
        issued[client] += 1;
        let (outcome, deferred_us) =
            s2s_netsim::defer_pacing(|| engine.query(text).expect("reactor throughput query"));
        let service_us = outcome.stats.simulated.as_micros();
        samples.push((
            service_us,
            baseline.get(text) == Some(&result_key(&outcome)),
            outcome.stats.completeness,
        ));
        // The query would have blocked `deferred_us` of wall time for
        // `service_us` of virtual time: remember the steepest rate and
        // pay it back on clock advances (at once when there is no
        // virtual span to spread it over).
        match deferred_us.saturating_mul(1_000).checked_div(service_us) {
            Some(rate) => pace_us_per_sim_ms = pace_us_per_sim_ms.max(rate),
            None => s2s_netsim::pace_sleep(deferred_us),
        }
        timers.push(Reverse((now_us + service_us, sequence, client)));
        sequence += 1;
    }
    throughput_report(engine, workload.len(), started.elapsed(), samples)
}

/// Folds per-query `(latency_us, key_matches, completeness)` samples
/// and the engine's end-of-run counters into a [`ThroughputReport`].
fn throughput_report(
    engine: &S2s,
    clients: usize,
    wall: std::time::Duration,
    samples: Vec<(u64, bool, f64)>,
) -> ThroughputReport {
    let mut latencies: Vec<u64> = Vec::with_capacity(samples.len());
    let mut mismatches = 0usize;
    let mut min_completeness = 1.0f64;
    for (lat, ok, completeness) in &samples {
        latencies.push(*lat);
        if !ok {
            mismatches += 1;
        }
        min_completeness = min_completeness.min(*completeness);
    }
    latencies.sort_unstable();
    let percentile = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() - 1) * p / 100]
        }
    };
    let queries = latencies.len();
    ThroughputReport {
        clients,
        queries,
        wall,
        qps: if wall.as_secs_f64() > 0.0 { queries as f64 / wall.as_secs_f64() } else { 0.0 },
        p50_us: percentile(50),
        p99_us: percentile(99),
        mismatches,
        min_completeness,
        plan_cache: engine.plan_cache_stats(),
        result_cache: engine.result_cache_stats(),
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
    /// Sustained throughput of the recompute arm, queries/sec.
    pub baseline_qps: f64,
    /// Sustained throughput of the delta arm, queries/sec.
    pub delta_qps: f64,
    /// 99th-percentile per-query wall latency, recompute arm, µs.
    pub baseline_p99_us: u64,
    /// 99th-percentile per-query wall latency, delta arm, µs.
    pub delta_p99_us: u64,
    /// Total wire bytes moved by the recompute arm.
    pub baseline_wire_bytes: u64,
    /// Total wire bytes moved by the delta arm (feed polls plus
    /// re-extracted slices).
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
    /// Throughput advantage of delta maintenance at this point.
    pub fn speedup(&self) -> f64 {
        self.delta_qps / self.baseline_qps.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"mutation_pct\":{},\"queries\":{},\"mutations\":{},",
                "\"divergences\":{},\"baseline_qps\":{:.1},\"delta_qps\":{:.1},",
                "\"speedup\":{:.2},\"baseline_p99_us\":{},\"delta_p99_us\":{},",
                "\"baseline_wire_bytes\":{},\"delta_wire_bytes\":{},",
                "\"view_hits\":{},\"view_refreshes\":{},\"view_full_refreshes\":{},",
                "\"max_staleness_us\":{}}}"
            ),
            self.mutation_pct,
            self.queries,
            self.mutations,
            self.divergences,
            self.baseline_qps,
            self.delta_qps,
            self.speedup(),
            self.baseline_p99_us,
            self.delta_p99_us,
            self.baseline_wire_bytes,
            self.delta_wire_bytes,
            self.view_hits,
            self.view_refreshes,
            self.view_full_refreshes,
            self.max_staleness_us,
        )
    }
}

/// The full E16 sweep (the `e16.json` smoke artifact).
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Catalog rows behind every source.
    pub rows: usize,
    /// One entry per swept mutation rate.
    pub points: Vec<DeltaPoint>,
}

impl DeltaReport {
    /// Renders the report as a single JSON object (no dependencies;
    /// the smoke-artifact format).
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(DeltaPoint::to_json).collect();
        format!(
            "{{\"schema_version\":{},\"rows\":{},\"points\":[{}]}}",
            SCHEMA_VERSION,
            self.rows,
            points.join(",")
        )
    }
}

/// Runs one E16 point: a repeated-text query stream over the paced
/// four-source WAN deployment, with the DB source's price column
/// mutated at `mutation_pct` mutations per hundred queries (honest
/// `fields = ["price"]` declarations on the change feed). The delta arm
/// maintains materialized views; the baseline arm relies on the result
/// cache alone, so every mutation forces it back onto the wire for all
/// four sources. Both arms see the identical mutation schedule and
/// every answer is compared step by step.
pub fn run_delta(rows: usize, seed: u64, steps: usize, mutation_pct: f64, pace: u64) -> DeltaPoint {
    let baseline = deploy_paced(rows, seed, pace, Strategy::Parallel { workers: 1 }, true);
    let delta =
        deploy_paced(rows, seed, pace, Strategy::Parallel { workers: 1 }, true).with_views();
    let mut recs = records(rows, seed);
    let texts: Vec<String> =
        [120, 220, 320, 420].iter().map(|t| format!("SELECT watch WHERE price < {t}")).collect();

    let mut acc = 0.0f64;
    let mut mutations = 0usize;
    let mut divergences = 0usize;
    let mut base_lat: Vec<u64> = Vec::with_capacity(steps);
    let mut delta_lat: Vec<u64> = Vec::with_capacity(steps);
    let (mut base_wire, mut delta_wire) = (0u64, 0u64);
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
        let text = &texts[step % texts.len()];
        let (base_outcome, base_wall) = time(|| baseline.query(text).expect("baseline query"));
        let (delta_outcome, delta_wall) = time(|| delta.query(text).expect("delta query"));
        base_lat.push(base_wall.as_micros() as u64);
        delta_lat.push(delta_wall.as_micros() as u64);
        base_wire += base_outcome.stats.wire_bytes;
        delta_wire += delta_outcome.stats.wire_bytes;
        max_staleness_us = max_staleness_us.max(delta_outcome.stats.view_staleness.as_micros());
        if result_key(&base_outcome) != result_key(&delta_outcome) {
            divergences += 1;
        }
    }

    let qps = |lat: &[u64]| -> f64 {
        let total_us: u64 = lat.iter().sum();
        if total_us == 0 {
            0.0
        } else {
            lat.len() as f64 / (total_us as f64 / 1e6)
        }
    };
    let p99 = |lat: &mut Vec<u64>| -> u64 {
        lat.sort_unstable();
        if lat.is_empty() {
            0
        } else {
            lat[(lat.len() - 1) * 99 / 100]
        }
    };
    let views = delta.view_stats();
    DeltaPoint {
        mutation_pct,
        queries: steps,
        mutations,
        divergences,
        baseline_qps: qps(&base_lat),
        delta_qps: qps(&delta_lat),
        baseline_p99_us: p99(&mut base_lat),
        delta_p99_us: p99(&mut delta_lat),
        baseline_wire_bytes: base_wire,
        delta_wire_bytes: delta_wire,
        view_hits: views.hits,
        view_refreshes: views.refreshes,
        view_full_refreshes: views.full_refreshes,
        max_staleness_us,
    }
}

// ---------------------------------------------------------------------
// Open-loop overload harness (E14).
// ---------------------------------------------------------------------

/// One tenant of an overload run: a name and its share of arrivals
/// (weights, not percentages — shares `[1, 1, 3]` give the third
/// tenant 60% of the traffic, the classic misbehaving neighbour).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name, passed through [`QueryOptions::with_tenant`].
    pub name: &'static str,
    /// Arrival-share weight relative to the other tenants.
    pub share: u32,
}

/// Parameters of one open-loop overload run: arrivals are scheduled at
/// a fixed rate (a multiple of the engine's calibrated capacity) and
/// issued whether or not earlier queries have finished — the arrival
/// process never waits on the service process, which is what lets an
/// unprotected engine melt down.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Arrival rate as a multiple of calibrated capacity.
    pub load: f64,
    /// Wall-clock length of the arrival window.
    pub window: std::time::Duration,
    /// Per-query deadline budget (simulated time) when shedding is on.
    pub deadline: SimDuration,
    /// Admission permits when shedding is on.
    pub permits: usize,
    /// Whether admission control + deadline budgets are enabled.
    pub shedding: bool,
    /// The tenants and their arrival shares.
    pub tenants: Vec<TenantSpec>,
}

/// Per-tenant outcome counts of one overload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantOutcome {
    /// Queries this tenant submitted.
    pub arrivals: usize,
    /// Complete answers returned.
    pub served: usize,
    /// Queries refused at arrival.
    pub shed: usize,
}

/// What one overload run measured.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Arrival-rate multiple of capacity.
    pub load: f64,
    /// Whether admission control + budgets were enabled.
    pub shedding: bool,
    /// Calibrated capacity estimate, queries/sec.
    pub capacity_qps: f64,
    /// Total arrivals issued.
    pub arrivals: usize,
    /// Complete answers (not shed, completeness 1.0).
    pub served: usize,
    /// Queries refused at arrival.
    pub shed: usize,
    /// Answers returned degraded (not shed, completeness < 1.0).
    pub degraded: usize,
    /// Median wall latency of served queries, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile wall latency of served queries, milliseconds.
    pub p99_ms: f64,
    /// Served queries per second of whole-run wall time (arrival
    /// window plus drain).
    pub goodput_qps: f64,
    /// Whole-run wall time.
    pub wall: std::time::Duration,
    /// Peak admission queue depth (0 with shedding off).
    pub peak_queued: usize,
    /// Per-tenant outcome counts, in [`OverloadConfig::tenants`] order.
    pub tenants: Vec<(String, TenantOutcome)>,
}

impl OverloadReport {
    /// Renders the report as one JSON object (same dependency-free
    /// style as [`ThroughputReport::to_json`]).
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|(name, t)| {
                format!(
                    "{{\"name\":\"{}\",\"arrivals\":{},\"served\":{},\"shed\":{}}}",
                    name, t.arrivals, t.served, t.shed
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"load\":{},\"shedding\":{},\"capacity_qps\":{:.1},",
                "\"arrivals\":{},\"served\":{},\"shed\":{},\"degraded\":{},",
                "\"p50_ms\":{:.2},\"p99_ms\":{:.2},\"goodput_qps\":{:.1},",
                "\"wall_ms\":{},\"peak_queued\":{},\"tenants\":[{}]}}"
            ),
            SCHEMA_VERSION,
            self.load,
            self.shedding,
            self.capacity_qps,
            self.arrivals,
            self.served,
            self.shed,
            self.degraded,
            self.p50_ms,
            self.p99_ms,
            self.goodput_qps,
            self.wall.as_millis(),
            self.peak_queued,
            tenants.join(","),
        )
    }
}

/// Runs one open-loop overload experiment.
///
/// The engine is the paced four-source WAN deployment of E13 under
/// `Strategy::Parallel { workers }`. Capacity is calibrated from three
/// isolated queries (median wall time, `permits` concurrent), then `load ×
/// capacity × window` arrivals are scheduled at fixed intervals across
/// the tenants by smooth weighted round-robin. Every arrival runs on
/// its own thread whether or not earlier queries have finished. Each
/// query text is distinct, so no cache shortcuts the wire.
pub fn run_overload(
    cfg: &OverloadConfig,
    pace_us_per_sim_ms: u64,
    workers: usize,
) -> OverloadReport {
    let mut engine =
        deploy_paced(12, 42, pace_us_per_sim_ms, Strategy::Parallel { workers }, false);

    // Calibrate: median wall time and worst simulated cost of three
    // isolated queries (before admission is installed, so the probe
    // sees the raw service path).
    let mut walls = Vec::new();
    let mut sim = SimDuration::ZERO;
    for i in 0..3 {
        let text = format!("SELECT watch WHERE price > {}", 900 + i);
        let (outcome, wall) = time(|| engine.query(&text).expect("calibration query"));
        walls.push(wall);
        sim = sim.max(outcome.stats.simulated);
    }
    walls.sort();
    let service = walls[1];
    let capacity_qps = cfg.permits as f64 / service.as_secs_f64().max(1e-6);

    if cfg.shedding {
        engine = engine.with_admission(
            AdmissionConfig::with_permits(cfg.permits)
                .with_capacity(cfg.permits * 2)
                .with_service_estimate(sim.max(SimDuration::from_millis(1))),
        );
    }

    let rate = cfg.load * capacity_qps;
    let arrivals = ((cfg.window.as_secs_f64() * rate).round() as usize).clamp(12, 400);
    let interval = std::time::Duration::from_secs_f64(1.0 / rate);

    // Smooth weighted round-robin tenant assignment: deterministic,
    // and it interleaves the heavy tenant instead of bursting it.
    let total_share: i64 = cfg.tenants.iter().map(|t| i64::from(t.share)).sum();
    let mut credits: Vec<i64> = vec![0; cfg.tenants.len()];
    let assign: Vec<usize> = (0..arrivals)
        .map(|_| {
            for (c, t) in credits.iter_mut().zip(&cfg.tenants) {
                *c += i64::from(t.share);
            }
            let k = (0..credits.len()).max_by_key(|&k| credits[k]).expect("tenants non-empty");
            credits[k] -= total_share;
            k
        })
        .collect();

    let started = std::time::Instant::now();
    let results: Vec<(usize, std::time::Duration, bool, f64)> = std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = (0..arrivals)
            .map(|i| {
                let tenant = cfg.tenants[assign[i]].name;
                let k = assign[i];
                let deadline = cfg.shedding.then_some(cfg.deadline);
                scope.spawn(move || {
                    let due = started + interval.mul_f64(i as f64);
                    if let Some(wait) = due.checked_duration_since(std::time::Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let text = format!("SELECT watch WHERE price < {}", 30 + i);
                    let mut opts = QueryOptions::default().with_tenant(tenant);
                    if let Some(d) = deadline {
                        opts = opts.with_deadline(d);
                    }
                    let q = std::time::Instant::now();
                    let outcome = engine.query_with_options(&text, &opts).expect("overload query");
                    (k, q.elapsed(), outcome.stats.shed, outcome.stats.completeness)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("arrival thread")).collect()
    });
    let wall = started.elapsed();

    let mut tenants: Vec<(String, TenantOutcome)> =
        cfg.tenants.iter().map(|t| (t.name.to_string(), TenantOutcome::default())).collect();
    let mut served_latencies: Vec<std::time::Duration> = Vec::new();
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut degraded = 0usize;
    for (k, latency, was_shed, completeness) in &results {
        let t = &mut tenants[*k].1;
        t.arrivals += 1;
        if *was_shed {
            shed += 1;
            t.shed += 1;
        } else if *completeness >= 1.0 {
            served += 1;
            t.served += 1;
            served_latencies.push(*latency);
        } else {
            degraded += 1;
        }
    }
    served_latencies.sort_unstable();
    let pct = |p: usize| -> f64 {
        if served_latencies.is_empty() {
            0.0
        } else {
            served_latencies[(served_latencies.len() - 1) * p / 100].as_secs_f64() * 1e3
        }
    };
    OverloadReport {
        load: cfg.load,
        shedding: cfg.shedding,
        capacity_qps,
        arrivals,
        served,
        shed,
        degraded,
        p50_ms: pct(50),
        p99_ms: pct(99),
        goodput_qps: if wall.as_secs_f64() > 0.0 {
            served as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        wall,
        peak_queued: engine.admission_stats().map_or(0, |s| s.peak_queued),
        tenants,
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
    fn all_formats_carry_all_records() {
        let recs = records(20, 1);
        let db = catalog_db(&recs);
        assert_eq!(db.query("SELECT * FROM watches").unwrap().len(), 20);
        let xml = catalog_xml(&recs);
        assert_eq!(s2s_xml::xpath::XPath::new("//watch").unwrap().eval(&xml).len(), 20);
        let html = catalog_html(&recs);
        assert_eq!(html.matches("<li>").count(), 20);
        let text = catalog_text(&recs);
        assert_eq!(text.lines().count(), 20);
    }

    #[test]
    fn mixed_deployment_answers_consistently() {
        let s2s = deploy_mixed(25, 3);
        let outcome = s2s.query("SELECT watch").unwrap();
        assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
        // 25 records × 4 representations.
        assert_eq!(outcome.individuals().len(), 100);
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
    fn throughput_harness_matches_serial_baseline() {
        let workload = cold_workload(2, 3);
        let reference = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 1 }, false);
        let baseline = serial_baseline(&reference, &workload);
        assert_eq!(baseline.len(), 6);

        let engine = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 4 }, true);
        let report = run_throughput(&engine, &workload, &baseline);
        assert_eq!(report.queries, 6);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.min_completeness, 1.0);
        assert!(report.qps > 0.0);
        // Distinct texts: the result cache never hits cold.
        assert_eq!(report.result_cache.hits, 0);
        let json = report.to_json();
        assert!(json.contains("\"mismatches\":0"), "{json}");
    }

    #[test]
    fn reactor_harness_matches_serial_baseline_at_high_client_counts() {
        // 32 clients on one thread — already past what the
        // thread-per-client runner would tolerate at this granularity.
        let workload = cold_workload(32, 2);
        let reference = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 1 }, false);
        let baseline = serial_baseline(&reference, &workload);

        let engine = deploy_paced(10, 5, 0, Strategy::Reactor, true);
        let report = run_throughput_reactor(&engine, &workload, &baseline);
        assert_eq!(report.clients, 32);
        assert_eq!(report.queries, 64);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.min_completeness, 1.0);
        assert!(report.qps > 0.0);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema_version\":4,"), "{json}");
    }

    #[test]
    fn overload_report_json_carries_schema_version() {
        let report = OverloadReport {
            load: 1.0,
            shedding: true,
            capacity_qps: 10.0,
            arrivals: 4,
            served: 3,
            shed: 1,
            degraded: 0,
            p50_ms: 1.0,
            p99_ms: 2.0,
            goodput_qps: 3.0,
            wall: std::time::Duration::from_millis(5),
            peak_queued: 1,
            tenants: vec![("t".into(), TenantOutcome { arrivals: 4, served: 3, shed: 1 })],
        };
        assert!(report.to_json().starts_with("{\"schema_version\":4,"), "{}", report.to_json());
    }

    #[test]
    fn warm_workload_shares_texts_and_hits_result_cache() {
        let workload = warm_workload(2, 4, 16);
        let distinct: std::collections::BTreeSet<&String> = workload.iter().flatten().collect();
        assert_eq!(distinct.len(), 4);
        assert_eq!(workload.iter().map(Vec::len).sum::<usize>(), 16);

        let reference = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 1 }, false);
        let baseline = serial_baseline(&reference, &workload);
        let engine = deploy_paced(10, 5, 0, Strategy::Parallel { workers: 4 }, true);
        let report = run_throughput(&engine, &workload, &baseline);
        assert_eq!(report.mismatches, 0);
        // 4 distinct texts, 16 queries: most replay from the result
        // cache. A concurrent client may re-miss a text another client
        // is still extracting (no request coalescing), so allow a few
        // extra misses beyond the 4 cold ones.
        assert!(report.result_cache.hits >= 8, "{:?}", report.result_cache);
    }

    #[test]
    fn overload_harness_sheds_under_pressure_and_not_at_idle() {
        let tenants =
            vec![TenantSpec { name: "calm", share: 1 }, TenantSpec { name: "noisy", share: 3 }];
        let overloaded = OverloadConfig {
            load: 4.0,
            window: std::time::Duration::from_millis(120),
            deadline: SimDuration::from_millis(150),
            permits: 2,
            shedding: true,
            tenants: tenants.clone(),
        };
        let report = run_overload(&overloaded, 60, 8);
        assert_eq!(report.arrivals, report.served + report.shed + report.degraded);
        assert!(report.shed > 0, "4x load never shed: {report:?}");
        assert!(report.served > 0, "4x load served nothing: {report:?}");
        let by_tenant: usize = report.tenants.iter().map(|(_, t)| t.arrivals).sum();
        assert_eq!(by_tenant, report.arrivals);
        // The noisy tenant sends 3x the traffic, so it absorbs the
        // bulk of the shedding.
        assert!(report.tenants[1].1.shed > report.tenants[0].1.shed, "{report:?}");

        let idle = OverloadConfig { load: 0.5, shedding: false, ..overloaded };
        let report = run_overload(&idle, 60, 8);
        assert_eq!(report.shed, 0, "unprotected run cannot shed: {report:?}");
        assert_eq!(report.peak_queued, 0);
        assert_eq!(report.served, report.arrivals, "{report:?}");
    }

    #[test]
    fn synthetic_ontology_shape() {
        let o = synthetic_ontology(31, 2);
        assert_eq!(o.class_count(), 31);
        assert_eq!(o.property_count(), 62);
        // Balanced tree: C30's parent chain reaches C0.
        let c30 = o.class_iri("C30").unwrap();
        let c0 = o.class_iri("C0").unwrap();
        assert!(o.is_subclass_of(&c30, &c0));
    }

    #[test]
    fn selectivity_threshold_hits_its_target() {
        let recs = records(1000, 42);
        for pct in [0.1, 1.0, 10.0, 50.0, 100.0] {
            let t = selectivity_threshold(&recs, pct);
            let matched = recs.iter().filter(|r| r.price < t).count();
            let want = ((recs.len() as f64 * pct / 100.0).ceil() as usize).max(1);
            assert!(
                matched >= want && matched <= want + 5,
                "{pct}%: threshold {t} matched {matched}, wanted about {want}"
            );
        }
    }

    #[test]
    fn pushdown_point_equivalence_and_savings() {
        let recs = records(200, 42);
        let off = deploy_paced(200, 42, 0, Strategy::Parallel { workers: 1 }, false);
        let on = deploy_paced(200, 42, 0, Strategy::Parallel { workers: 1 }, false).with_pushdown();
        let t = selectivity_threshold(&recs, 5.0);
        let point =
            run_pushdown_point(&on, &off, &format!("SELECT watch WHERE price < {t}"), 5.0, t);
        assert!(!point.mismatch, "pushdown diverged from the planner-free twin");
        assert!(point.pushed_predicates > 0, "nothing was pushed");
        assert!(
            point.pushed_response_bytes < point.baseline_response_bytes,
            "pushed responses did not shrink: {point:?}"
        );
        assert!(point.reduction() > 1.0, "{point:?}");
    }

    #[test]
    fn delta_maintenance_beats_recompute_and_never_diverges() {
        let point = run_delta(24, 42, 60, 10.0, 40);
        assert_eq!(point.divergences, 0, "delta arm diverged from recompute: {point:?}");
        assert!(point.mutations >= 5, "accumulator schedule drifted: {point:?}");
        assert!(point.view_hits > 0, "views never served a slice: {point:?}");
        assert_eq!(point.view_full_refreshes, 0, "feed gap in a 6-mutation run: {point:?}");
        assert!(
            point.delta_wire_bytes < point.baseline_wire_bytes,
            "delta moved no fewer wire bytes: {point:?}"
        );
        // The CI smoke gates the full >=3x claim under heavier pacing;
        // this quick in-tree run just has to show a clear win.
        assert!(point.speedup() > 1.5, "no delta speedup: {point:?}");
    }

    #[test]
    fn delta_point_without_mutations_is_pure_cache_replay() {
        let point = run_delta(24, 42, 12, 0.0, 0);
        assert_eq!(point.mutations, 0);
        assert_eq!(point.divergences, 0, "{point:?}");
        assert_eq!(point.view_full_refreshes, 0, "{point:?}");
        let report = DeltaReport { rows: 24, points: vec![point] };
        validate_report(&report.to_json()).expect("fresh e16 report validates");
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
        let recs = records(n, seed);
        let mut twin = S2s::new(ontology());
        twin.register_source("DB", Connection::Database { db: Arc::new(catalog_db(&recs)) })
            .unwrap();
        twin.register_source("XML", Connection::Xml { document: Arc::new(catalog_xml(&recs)) })
            .unwrap();
        let mut web = WebStore::new();
        web.register_html("http://shop/list", catalog_html(&recs));
        web.register_text("file:///export.txt", catalog_text(&recs));
        let web = Arc::new(web);
        twin.register_source(
            "WEB",
            Connection::Web { store: web.clone(), url: "http://shop/list".into() },
        )
        .unwrap();
        twin.register_source(
            "TXT",
            Connection::Text { store: web, url: "file:///export.txt".into() },
        )
        .unwrap();

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

    #[test]
    fn bootstrap_fleet_is_clean_and_deterministic() {
        let report = run_bootstrap_fleet(24, 16, 3, 4);
        assert_eq!(report.mappings, 24 * 3, "{report:?}");
        assert_eq!(report.conflicts, 0, "{report:?}");
        assert_eq!(report.divergences, 0, "{report:?}");
        assert!(report.query_individuals > 0, "{report:?}");
        validate_report(&report.to_json()).expect("fresh e17 report validates");
    }

    #[test]
    fn report_validator_accepts_real_reports_and_rejects_drift() {
        let report = PushdownReport { rows: 1, points: Vec::new() };
        validate_report(&report.to_json()).expect("fresh e15 report validates");
        // e14 shape: versions nested one per run.
        validate_report(r#"{"runs":[{"schema_version":4,"p99_ms":3.5},{"schema_version":4}]}"#)
            .expect("nested versions validate");
        assert!(validate_report("{}").is_err(), "missing schema_version");
        assert!(validate_report(r#"{"schema_version":999}"#).is_err(), "version drift");
        assert!(validate_report(r#"{"schema_version":4"#).is_err(), "truncated JSON");
        assert!(validate_report(r#"{"schema_version":4} extra"#).is_err(), "trailing data");
        assert!(validate_report(r#"{"schema_version":"3"}"#).is_err(), "non-numeric version");
        assert!(validate_report(r#"{"schema_version":3.5}"#).is_err(), "fractional version");
    }
}
