//! The experiment record: every table `experiments` prints, E1–E17.
//!
//! Each line is a function of seeds alone — counts, bytes and simulated
//! network time — so the record is the same on every machine and in
//! every build profile, and `tests/golden/experiments.txt` pins it byte
//! for byte. Wall-clock cost is not part of it: it is measured by the
//! `BENCHMARK.json` metrics EXPERIMENTS.md names per experiment, and E5,
//! E13, E14 and the A1 ablations, which measure nothing else, have no
//! section here (E13 and E14 keep their wall-clock gates, [`crate::wall`]).
//!
//! The record is also a gate: E15, E16 and E17 assert their acceptance
//! bars while they run, so a pushdown, view or bootstrap regression
//! panics here before any number is compared.

use std::fmt::Write as _;
use std::sync::Arc;

use s2s_core::baseline::SyntacticIntegrator;
use s2s_core::extract::{extract_one, Strategy};
use s2s_core::instance::OutputFormat;
use s2s_core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s_core::source::{Connection, SourceRegistry};
use s2s_core::S2s;
use s2s_netsim::{CostModel, FailureModel};
use s2s_owl::Reasoner;
use s2s_webdoc::WebStore;

use crate::*;

/// Appends one formatted line to the record; writing into a `String`
/// cannot fail.
macro_rules! row {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// The record as printed, plus three of its sweeps as reports (E15,
/// E16, and E17's largest fleet), pinned as JSON beside it.
#[derive(Debug)]
pub struct Transcript {
    /// Every table, as `experiments` prints it.
    pub text: String,
    /// The E15 pushdown sweep (`e15.json`).
    pub e15: PushdownReport,
    /// The E16 delta sweep (`e16.json`).
    pub e16: DeltaReport,
    /// E17 at its largest fleet (`e17.json`).
    pub e17: E17Report,
}

/// Runs every experiment once and returns the record.
pub fn run() -> Transcript {
    let mut out = String::new();
    row!(out, "S2S middleware — experiment harness (deterministic; simulated network time)");
    row!(out, "==========================================================================");
    e1(&mut out);
    e2(&mut out);
    e3(&mut out);
    e4(&mut out);
    e6(&mut out);
    e7(&mut out);
    e8(&mut out);
    e9(&mut out);
    e10(&mut out);
    e11(&mut out);
    e12(&mut out);
    let e15 = e15(&mut out);
    let e16 = e16(&mut out);
    let e17 = e17(&mut out);
    Transcript { text: out, e15, e16, e17 }
}

fn header(out: &mut String, id: &str, title: &str) {
    row!(out, "\n## {id} — {title}");
}

fn e1(out: &mut String) {
    header(out, "E1", "end-to-end S2SQL over 4 heterogeneous source types (Fig. 1)");
    row!(out, "{:>8} {:>12}", "records", "instances");
    for n in [100usize, 500, 2000] {
        let outcome = deploy_mixed(n, 42).query("SELECT watch").unwrap();
        row!(out, "{:>8} {:>12}", n, outcome.individuals().len());
    }
    row!(out, "  selectivity sweep (n=2000):");
    let s2s = deploy_mixed(2000, 42);
    for q in [
        "SELECT watch",
        "SELECT watch WHERE brand='Seiko'",
        "SELECT watch WHERE brand='Seiko' AND case='stainless-steel' AND price<300",
    ] {
        row!(out, "  {:>5} hits  {q}", s2s.query(q).unwrap().individuals().len());
    }
}

fn e2(out: &mut String) {
    header(out, "E2", "extraction per source type (§2.1), 1000-record catalog");
    let mut registry = SourceRegistry::new();
    for (id, connection) in catalog_sources(&records(1000, 42)) {
        registry.register_local(id, connection).unwrap();
    }
    row!(out, "{:>6} {:>12} {:>8}", "source", "rule", "values");
    for (src, rule) in [
        (
            "DB",
            ExtractionRule::Sql {
                query: "SELECT brand FROM watches ORDER BY id".into(),
                column: "brand".into(),
            },
        ),
        ("XML", ExtractionRule::XPath { path: "/catalog/watch/brand/text()".into() }),
        ("WEB", ExtractionRule::Webl { program: "var b = TagTexts(Text(PAGE), \"b\");".into() }),
        ("TXT", ExtractionRule::TextRegex { pattern: r"brand: ([\w-]+)".into(), group: 1 }),
    ] {
        let mut m = MappingModule::new();
        m.register(
            &ontology(),
            "thing.product.watch.brand".parse().unwrap(),
            rule,
            src.into(),
            RecordScenario::MultiRecord,
        )
        .unwrap();
        let mapping = m.iter().next().unwrap().clone();
        let (values, _) = extract_one(&registry, &mapping).unwrap();
        row!(out, "{:>6} {:>12} {:>8}", src, mapping.rule().language(), values.len());
    }
}

fn e3(out: &mut String) {
    header(out, "E3", "scaling with remote sources: serial vs parallel mediator (WAN)");
    row!(out, "{:>8} {:>16} {:>16} {:>9}", "sources", "serial(sim)", "parallel16(sim)", "speedup");
    for sources in [1usize, 4, 16, 64] {
        let deploy = |workers| {
            deploy_sharded(
                sources,
                20,
                CostModel::wan(),
                FailureModel::reliable(),
                Strategy::Parallel { workers },
            )
        };
        let serial = deploy(1).query("SELECT watch").unwrap().stats.simulated;
        let parallel = deploy(16).query("SELECT watch").unwrap().stats.simulated;
        let speedup = serial.as_micros() as f64 / parallel.as_micros().max(1) as f64;
        row!(
            out,
            "{:>8} {:>16} {:>16} {:>8.1}x",
            sources,
            serial.to_string(),
            parallel.to_string(),
            speedup
        );
    }
}

fn e4(out: &mut String) {
    header(out, "E4", "mapping-module scale: registration & lookup vs repository size");
    row!(out, "{:>10} {:>10} {:>13}", "attributes", "found", "path-segments");
    for classes in [32usize, 128, 512] {
        let o = synthetic_ontology(classes, 4);
        let paths: Vec<s2s_owl::AttributePath> = o
            .classes()
            .flat_map(|cl| {
                o.properties_of_class(cl.iri())
                    .into_iter()
                    .filter(|p| p.domains().any(|d| d == cl.iri()))
                    .map(|p| s2s_owl::AttributePath::for_attribute(&o, cl.iri(), p.iri()).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut module = MappingModule::new();
        for p in &paths {
            module
                .register(
                    &o,
                    p.clone(),
                    ExtractionRule::TextRegex { pattern: "x".into(), group: 0 },
                    "SRC".into(),
                    RecordScenario::MultiRecord,
                )
                .unwrap();
        }
        let found: usize = paths.iter().map(|p| module.mappings_for(p).len()).sum();
        let deepest = paths.iter().map(|p| p.to_string().split('.').count()).max().unwrap_or(0);
        row!(out, "{:>10} {:>10} {:>13}", paths.len(), found, deepest);
    }
}

fn e6(out: &mut String) {
    header(out, "E6", "instance generation + serialization per output format (§2.6)");
    let s2s = deploy_mixed(1000, 7);
    let outcome = s2s.query("SELECT watch").unwrap();
    row!(
        out,
        "instances: {}   graph triples: {}",
        outcome.individuals().len(),
        outcome.instances.graph.len()
    );
    row!(out, "{:>12} {:>12}", "format", "bytes");
    for (label, fmt) in [
        ("owl-rdfxml", OutputFormat::OwlRdfXml),
        ("turtle", OutputFormat::Turtle),
        ("ntriples", OutputFormat::NTriples),
        ("xml", OutputFormat::Xml),
        ("text", OutputFormat::Text),
    ] {
        row!(out, "{:>12} {:>12}", label, outcome.render(s2s.ontology(), fmt).len());
    }
}

fn e7(out: &mut String) {
    header(out, "E7", "one source with n records vs n one-record sources (§2.3)");
    row!(
        out,
        "{:>8} {:>18} {:>18} {:>16}",
        "records",
        "n-record (sim)",
        "1-record (sim)",
        "1-record par(sim)"
    );
    for n in [50usize, 200] {
        // n-record: one remote DB.
        let recs = records(n, 11);
        let mut multi = S2s::new(ontology());
        multi
            .register_remote_source(
                "DB",
                Connection::Database { db: Arc::new(catalog_db(&recs)) },
                CostModel::wan(),
                FailureModel::reliable(),
            )
            .unwrap();
        multi
            .register_attribute(
                "thing.product.watch.brand",
                ExtractionRule::Sql {
                    query: "SELECT brand FROM watches ORDER BY id".into(),
                    column: "brand".into(),
                },
                "DB",
                RecordScenario::MultiRecord,
            )
            .unwrap();
        let o_multi = multi.query("SELECT watch").unwrap();

        // 1-record: n remote pages.
        let mut web = WebStore::new();
        for r in &recs {
            web.register_html(format!("http://shop/{}", r.id), format!("<b>{}</b>", r.brand));
        }
        let web = Arc::new(web);
        let build = |strategy| {
            let mut s = S2s::new(ontology()).with_strategy(strategy);
            for r in &recs {
                let id = format!("wpage_{}", r.id);
                s.register_remote_source(
                    &id,
                    Connection::Web { store: web.clone(), url: format!("http://shop/{}", r.id) },
                    CostModel::wan(),
                    FailureModel::reliable(),
                )
                .unwrap();
                s.register_attribute(
                    "thing.product.watch.brand",
                    ExtractionRule::Webl {
                        program: "var b = TagTexts(Text(PAGE), \"b\")[0];".into(),
                    },
                    &id,
                    RecordScenario::SingleRecord,
                )
                .unwrap();
            }
            s
        };
        let o_single = build(Strategy::Parallel { workers: 1 }).query("SELECT watch").unwrap();
        let o_single_par = build(Strategy::Parallel { workers: 16 }).query("SELECT watch").unwrap();
        assert_eq!(o_multi.individuals().len(), n);
        assert_eq!(o_single.individuals().len(), n);
        row!(
            out,
            "{:>8} {:>18} {:>18} {:>16}",
            n,
            o_multi.stats.simulated.to_string(),
            o_single.stats.simulated.to_string(),
            o_single_par.stats.simulated.to_string()
        );
    }
}

fn e8(out: &mut String) {
    header(out, "E8", "semantic S2S vs syntactic baseline (3 heterogeneous orgs)");
    // Three orgs: same semantic content, different schemas/nomenclature.
    let mut org_a = s2s_minidb::Database::new("a");
    org_a
        .execute("CREATE TABLE products (id INTEGER PRIMARY KEY, brand TEXT, price_usd REAL)")
        .unwrap();
    org_a.execute("INSERT INTO products VALUES (1,'Seiko',129.99),(2,'Casio',59.5)").unwrap();
    let mut org_b = s2s_minidb::Database::new("b");
    org_b.execute("CREATE TABLE artikel (nr INTEGER PRIMARY KEY, marke TEXT, preis REAL)").unwrap();
    org_b.execute("INSERT INTO artikel VALUES (9,'Seiko',118.0)").unwrap();
    let org_c = s2s_xml::parse(
        "<ex><it><b>Seiko</b><p>140.0</p></it><it><b>Orient</b><p>189.0</p></it></ex>",
    )
    .unwrap();

    let mut s2s = S2s::new(ontology());
    s2s.register_source("ORG_A", Connection::Database { db: Arc::new(org_a.clone()) }).unwrap();
    s2s.register_source("ORG_B", Connection::Database { db: Arc::new(org_b.clone()) }).unwrap();
    s2s.register_source("ORG_C", Connection::Xml { document: Arc::new(org_c.clone()) }).unwrap();
    // Mappings: schema heterogeneity resolved here, once.
    for (attr, src, q, col) in [
        ("brand", "ORG_A", "SELECT brand FROM products ORDER BY id", "brand"),
        ("brand", "ORG_B", "SELECT marke FROM artikel ORDER BY nr", "marke"),
        ("price", "ORG_A", "SELECT price_usd FROM products ORDER BY id", "price_usd"),
        ("price", "ORG_B", "SELECT preis FROM artikel ORDER BY nr", "preis"),
    ] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::Sql { query: q.into(), column: col.into() },
            src,
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    for (attr, path) in [("brand", "//it/b/text()"), ("price", "//it/p/text()")] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::XPath { path: path.into() },
            "ORG_C",
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    let outcome = s2s.query("SELECT watch WHERE brand='Seiko'").unwrap();
    row!(
        out,
        "S2S:      1 S2SQL query, {} mappings registered → {} correct instances",
        s2s.mapping_count(),
        outcome.individuals().len()
    );

    // The baseline must hand-write per-source glue for THIS query.
    let mut registry = SourceRegistry::new();
    registry.register_local("ORG_A", Connection::Database { db: Arc::new(org_a) }).unwrap();
    registry.register_local("ORG_B", Connection::Database { db: Arc::new(org_b) }).unwrap();
    registry.register_local("ORG_C", Connection::Xml { document: Arc::new(org_c) }).unwrap();
    let mut baseline = SyntacticIntegrator::new();
    baseline
        .add_rule(
            "ORG_A",
            "brand",
            ExtractionRule::Sql {
                query: "SELECT brand FROM products WHERE brand='Seiko'".into(),
                column: "brand".into(),
            },
        )
        .add_rule(
            "ORG_B",
            "marke",
            ExtractionRule::Sql {
                query: "SELECT marke FROM artikel WHERE marke='Seiko'".into(),
                column: "marke".into(),
            },
        )
        .add_rule("ORG_C", "b", ExtractionRule::XPath { path: "//it[b='Seiko']/b/text()".into() });
    row!(
        out,
        "baseline: {} glue rules for this ONE query shape → {} raw records (fields still \
         unaligned: brand/marke/b)",
        baseline.glue_count(),
        baseline.run(&registry).records.len()
    );
}

fn e9(out: &mut String) {
    header(out, "E9", "fault injection: retry budgets vs completeness (§2.6)");
    row!(
        out,
        "{:>6} {:>7} {:>8} {:>8} {:>13} {:>8} {:>14}",
        "p",
        "budget",
        "ok",
        "failed",
        "completeness",
        "retries",
        "sim-time"
    );
    // Retry budget = attempts beyond the first call (0 = legacy
    // single-shot behaviour).
    for p in [0.0f64, 0.1, 0.25, 0.5] {
        for budget in [0u32, 1, 3] {
            let policy = s2s_core::ResiliencePolicy::default()
                .with_retry(s2s_netsim::RetryPolicy::attempts(budget + 1));
            let s2s = deploy_sharded(
                32,
                20,
                CostModel::lan(),
                FailureModel::flaky(p),
                Strategy::Parallel { workers: 8 },
            )
            .with_resilience(policy);
            let outcome = s2s.query("SELECT watch").unwrap();
            let failed = outcome
                .errors()
                .iter()
                .map(|e| e.source.clone())
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            row!(
                out,
                "{:>6.2} {:>7} {:>8} {:>8} {:>12.1}% {:>8} {:>14}",
                p,
                budget,
                32 - failed,
                failed,
                outcome.stats.completeness * 100.0,
                outcome.retries(),
                outcome.stats.simulated.to_string()
            );
        }
    }
}

fn e10(out: &mut String) {
    header(out, "E10", "reasoner over ontology size (§2.2): one individual per class");
    row!(out, "{:>8} {:>10} {:>10} {:>10}", "classes", "asserted", "inferred", "violations");
    for classes in [64usize, 256, 1024] {
        let o = synthetic_ontology(classes, 2);
        let reasoner = Reasoner::new(&o);
        let mut g = s2s_rdf::Graph::new();
        for (i, cl) in o.classes().enumerate() {
            let ind = s2s_rdf::Iri::new(format!("http://bench.example/data/i{i}")).unwrap();
            g.insert(s2s_rdf::Triple::new(ind, s2s_rdf::vocab::rdf::type_(), cl.iri().clone()));
        }
        let asserted = g.len();
        let inferred = reasoner.materialize(&mut g);
        let violations = reasoner.check_consistency(&g).len();
        row!(out, "{:>8} {:>10} {:>10} {:>10}", classes, asserted, inferred, violations);
    }
}

fn e11(out: &mut String) {
    header(out, "E11", "batched vs per-attribute extraction (wire coalescing + LPT planner)");
    row!(
        out,
        "{:>5} {:>8} {:>6} {:>16} {:>16} {:>9} {:>11} {:>11}",
        "cost",
        "sources",
        "attrs",
        "per-attr(sim)",
        "batched(sim)",
        "speedup",
        "rt-per-attr",
        "rt-batched"
    );
    for (cost_label, cost) in [("lan", CostModel::lan()), ("wan", CostModel::wan())] {
        for (sources, attrs) in [(8usize, 1usize), (8, 2), (8, 4), (8, 8), (16, 4)] {
            let four = Strategy::Parallel { workers: 4 };
            let per_attr = deploy_wide_per_attribute(sources, attrs, cost, four)
                .query("SELECT product")
                .unwrap();
            let batched = deploy_wide(sources, attrs, cost, four).query("SELECT product").unwrap();
            assert_eq!(
                wide_values(&per_attr),
                wide_values(&batched),
                "batched and per-attribute values diverged"
            );
            let speedup = per_attr.stats.simulated.as_micros() as f64
                / batched.stats.simulated.as_micros().max(1) as f64;
            row!(
                out,
                "{:>5} {:>8} {:>6} {:>16} {:>16} {:>8.1}x {:>11} {:>11}",
                cost_label,
                sources,
                attrs,
                per_attr.stats.simulated.to_string(),
                batched.stats.simulated.to_string(),
                speedup,
                per_attr.stats.round_trips,
                batched.stats.round_trips
            );
        }
    }
}

fn e12(out: &mut String) {
    header(out, "E12", "observability: a traced query's account (A/B answers)");
    let deploy = || deploy_wide(8, 4, CostModel::lan(), Strategy::Parallel { workers: 4 });
    let untraced = deploy().query("SELECT product").unwrap();
    let traced = deploy().with_tracing().query("SELECT product").unwrap();
    assert!(untraced.trace.is_none(), "an untraced query attaches no trace");
    assert_eq!(result_key(&untraced), result_key(&traced), "tracing changed the answer");
    let trace = traced.trace.as_ref().expect("tracing enabled");
    row!(
        out,
        "traced SELECT product over 8 sources × 4 attributes: {} spans, answer identical \
         to the untraced run",
        trace.spans().len()
    );
}

/// The E15 selectivity ladder, percent of catalog rows matched.
const E15_SELECTIVITIES: [f64; 5] = [0.1, 1.0, 10.0, 50.0, 100.0];

/// The E15 catalog size: large enough that responses dominate the wire
/// and a 1%-selective pushed predicate saves well over the 5× gate.
const E15_ROWS: usize = 2000;

/// E15: the same `price <` query ladder on a planner-enabled engine
/// and its planner-free twin (the catalog in all four source formats
/// behind WAN endpoints). At every selectivity the answers must agree,
/// a predicate must be pushed and response bytes must not grow; at 1%
/// the total wire bytes must drop at least 5×, both against the twin
/// and against the planner's own 100% point.
fn e15(out: &mut String) -> PushdownReport {
    header(out, "E15", "predicate pushdown: wire bytes vs selectivity (federated planner)");
    row!(
        out,
        "{:>6} {:>9} {:>8} {:>12} {:>12} {:>11} {:>7} {:>9}",
        "sel%",
        "thresh",
        "matched",
        "wire-off",
        "wire-on",
        "saved",
        "pushed",
        "reduction"
    );
    let recs = records(E15_ROWS, 42);
    let off = deploy_wan(E15_ROWS, 42);
    let on = deploy_wan(E15_ROWS, 42).with_pushdown();
    let points: Vec<PushdownPoint> = E15_SELECTIVITIES
        .iter()
        .map(|&pct| {
            let threshold = selectivity_threshold(&recs, pct);
            let query = format!("SELECT watch WHERE price < {threshold}");
            run_pushdown_point(&on, &off, &query, pct, threshold)
        })
        .collect();
    for p in &points {
        let pct = p.selectivity_pct;
        assert!(!p.mismatch, "pushdown diverged at {pct}% selectivity");
        assert!(p.pushed_predicates > 0, "no predicate was pushed at {pct}% selectivity");
        assert!(
            p.pushed_response_bytes <= p.baseline_response_bytes,
            "pushed responses grew at {pct}% selectivity: {p:?}"
        );
        row!(
            out,
            "{:>6} {:>9.2} {:>8} {:>11}B {:>11}B {:>10}B {:>7} {:>8.1}x",
            p.selectivity_pct,
            p.threshold,
            p.matched,
            p.baseline_wire_bytes,
            p.pushed_wire_bytes,
            p.wire_bytes_saved,
            p.pushed_predicates,
            p.reduction(),
        );
    }
    let at = |pct: f64| points.iter().find(|p| p.selectivity_pct == pct).expect("swept point");
    let (low, full) = (at(1.0), at(100.0));
    assert!(low.reduction() >= 5.0, "wire bytes at 1% selectivity fell < 5x: {low:?}");
    assert!(
        full.pushed_wire_bytes >= 5 * low.pushed_wire_bytes.max(1),
        "wire bytes at 1% selectivity are < 5x below the 100% point: {low:?} vs {full:?}"
    );
    PushdownReport { rows: E15_ROWS, points }
}

/// E16 catalog size.
const E16_ROWS: usize = 30;
/// E16 queries per point.
const E16_STEPS: usize = 120;
/// Mutation rates swept, in mutations per hundred queries.
const E16_RATES: [f64; 4] = [0.0, 5.0, 10.0, 25.0];

/// E16: per mutation rate, the identical query stream and DB-price
/// mutation schedule run on a views-enabled engine and on its
/// invalidate-and-recompute twin. At every rate the answers must agree
/// and no view may fall back to a full refresh; at 10% the views arm
/// must spend at most a third of the twin's simulated time and move
/// fewer wire bytes.
fn e16(out: &mut String) -> DeltaReport {
    header(out, "E16", "incremental deltas: materialized views vs invalidate-and-recompute");
    row!(
        out,
        "{:>6} {:>5} {:>12} {:>12} {:>8} {:>11} {:>11} {:>6} {:>6} {:>11} {:>4}",
        "mut%",
        "muts",
        "base(sim)",
        "delta(sim)",
        "speedup",
        "base-wire",
        "delta-wire",
        "hits",
        "refr",
        "staleness",
        "div"
    );
    let points: Vec<DeltaPoint> =
        E16_RATES.iter().map(|&pct| run_delta(E16_ROWS, 42, E16_STEPS, pct)).collect();
    for p in &points {
        let pct = p.mutation_pct;
        assert_eq!(p.divergences, 0, "delta arm diverged at {pct}% mutation rate");
        assert_eq!(p.view_full_refreshes, 0, "feed-gap full refreshes at {pct}% mutation rate");
        row!(
            out,
            "{:>6} {:>5} {:>12} {:>12} {:>7.1}x {:>10}B {:>10}B {:>6} {:>6} {:>9}µs {:>4}",
            p.mutation_pct,
            p.mutations,
            p.baseline_sim.to_string(),
            p.delta_sim.to_string(),
            p.speedup(),
            p.baseline_wire_bytes,
            p.delta_wire_bytes,
            p.view_hits,
            p.view_refreshes,
            p.max_staleness_us,
            p.divergences,
        );
    }
    let hot = points.iter().find(|p| p.mutation_pct == 10.0).expect("10% point");
    assert!(hot.speedup() >= 3.0, "views < 3x less simulated time at 10% mutations: {hot:?}");
    assert!(
        hot.delta_wire_bytes < hot.baseline_wire_bytes,
        "views moved no fewer wire bytes at 10% mutations: {hot:?}"
    );
    DeltaReport { rows: E16_ROWS, points }
}

/// E17 fleet shape: a 64-class × 4-property synthetic ontology, 4
/// records per source.
const E17_CLASSES: usize = 64;
const E17_PROPS: usize = 4;
const E17_ROWS: usize = 4;
/// Fleet sizes swept.
const E17_FLEETS: [usize; 4] = [100, 250, 500, 1000];

/// E17: every fleet is registered through the automatic mapping
/// bootstrap alone. It must surface no conflict, register one mapping
/// per source and property, re-bootstrap to the same candidate sets and
/// answer an end-to-end query.
fn e17(out: &mut String) -> E17Report {
    header(out, "E17", "mapping bootstrap at catalog scale: schema → candidates → registration");
    row!(out, "{:>7} {:>9} {:>5} {:>5} {:>4}", "sources", "mappings", "conf", "inds", "div");
    let mut largest = None;
    for sources in E17_FLEETS {
        let r = run_bootstrap_fleet(sources, E17_CLASSES, E17_PROPS, E17_ROWS);
        assert_eq!(r.divergences, 0, "bootstrap non-deterministic at {sources} sources");
        assert_eq!(r.conflicts, 0, "conflicts on a fleet whose every field matches: {r:?}");
        assert_eq!(r.mappings, sources * E17_PROPS, "missing mappings: {r:?}");
        assert!(r.query_individuals > 0, "bootstrapped mappings extracted nothing: {r:?}");
        row!(
            out,
            "{:>7} {:>9} {:>5} {:>5} {:>4}",
            r.sources,
            r.mappings,
            r.conflicts,
            r.query_individuals,
            r.divergences
        );
        largest = Some(r);
    }
    largest.expect("non-empty sweep")
}
