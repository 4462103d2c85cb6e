//! Batched per-source extraction: wire-level coalescing, the cost-based
//! planner, round-trip accounting, and composition with the resilience
//! layer. The per-attribute baseline is a deployment, not a mode: the
//! same data with every attribute registered under a source of its own,
//! so each crosses the wire as a one-rule exchange (paper Fig. 5).
//! Includes the headline acceptance check: ≥4 attributes per source over
//! the WAN cost model must get ≥2× cheaper when batched, with the same
//! values and failures.

use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::middleware::QueryOutcome;
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::netsim::{CostModel, FailureModel};
use s2s::owl::Ontology;
use s2s::S2s;

/// An ontology with one `Product` class and `sources × attrs` string
/// properties named `s{i}a{j}`.
fn wide_ontology(sources: usize, attrs: usize) -> Ontology {
    let mut b = Ontology::builder("http://example.org/schema#").class("Product", None).unwrap();
    for i in 0..sources {
        for j in 0..attrs {
            b = b
                .datatype_property(
                    &format!("s{i}a{j}"),
                    "Product",
                    "http://www.w3.org/2001/XMLSchema#string",
                )
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// `sources` remote databases, each carrying `attrs` mapped attributes;
/// database `i` fails per `failure(i)`. The rule text for attribute `j`
/// is identical on every source. With `per_attribute`, attribute `j` of
/// database `i` is registered under a source of its own, `S{i}_a{j}`,
/// over the same connection.
fn wide(
    sources: usize,
    attrs: usize,
    cost: CostModel,
    failure: impl Fn(usize) -> FailureModel,
    per_attribute: bool,
) -> S2s {
    let mut s2s =
        S2s::new(wide_ontology(sources, attrs)).with_strategy(Strategy::Parallel { workers: 1 });
    let columns: Vec<String> = (0..attrs).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..sources {
        let mut db = Database::new(format!("shard{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..attrs).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let connection = Connection::Database { db: Arc::new(db) };
        for j in 0..attrs {
            let id = if per_attribute { format!("S{i:02}_a{j}") } else { format!("S{i:02}") };
            if per_attribute || j == 0 {
                s2s.register_remote_source(&id, connection.clone(), cost, failure(i)).unwrap();
            }
            s2s.register_attribute(
                &format!("thing.product.s{i}a{j}"),
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
/// individuals carry them.
fn values(outcome: &QueryOutcome) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = outcome
        .individuals()
        .iter()
        .flat_map(|i| &i.values)
        .flat_map(|(p, values)| values.iter().map(move |v| (p.to_string(), v.clone())))
        .collect();
    pairs.sort();
    pairs
}

/// The sorted failed attribute paths of an answer, whichever source
/// they were registered under.
fn failed_attributes(outcome: &QueryOutcome) -> Vec<String> {
    let mut v: Vec<String> = outcome.errors().iter().map(|e| e.attribute.clone()).collect();
    v.sort();
    v
}

const SOURCES: usize = 6;
const ATTRS: usize = 5;

#[test]
fn wan_batching_at_least_halves_makespan_with_identical_output() {
    // The acceptance criterion: ≥4 attributes per source over WAN,
    // batched vs per-attribute, ≥2× makespan reduction, same values.
    let batched = wide(SOURCES, ATTRS, CostModel::wan(), |_| FailureModel::reliable(), false)
        .query("SELECT product")
        .unwrap();
    let per_attr = wide(SOURCES, ATTRS, CostModel::wan(), |_| FailureModel::reliable(), true)
        .query("SELECT product")
        .unwrap();
    assert_eq!(batched.individuals().len(), SOURCES);
    let properties: usize = batched.individuals().iter().map(|i| i.values.len()).sum();
    assert_eq!(properties, SOURCES * ATTRS);
    assert!(
        batched.stats.simulated.as_micros() * 2 <= per_attr.stats.simulated.as_micros(),
        "batched {} vs per-attribute {} is less than a 2x win",
        batched.stats.simulated,
        per_attr.stats.simulated
    );
    assert_eq!(values(&batched), values(&per_attr));
    assert!(batched.errors().is_empty() && per_attr.errors().is_empty());
}

#[test]
fn batching_pays_one_round_trip_per_source() {
    let batched = wide(SOURCES, ATTRS, CostModel::lan(), |_| FailureModel::reliable(), false)
        .query("SELECT product")
        .unwrap();
    let per_attr = wide(SOURCES, ATTRS, CostModel::lan(), |_| FailureModel::reliable(), true)
        .query("SELECT product")
        .unwrap();
    assert_eq!(batched.stats.round_trips, SOURCES as u64);
    assert_eq!(per_attr.stats.round_trips, (SOURCES * ATTRS) as u64);
}

#[test]
fn batches_fail_over_as_a_unit() {
    // Hard-down primaries with healthy replicas: every batch fails over
    // once and the query still completes.
    let mut s2s =
        S2s::new(wide_ontology(SOURCES, ATTRS)).with_strategy(Strategy::Parallel { workers: 1 });
    let columns: Vec<String> = (0..ATTRS).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..SOURCES {
        let mut db = Database::new(format!("shard{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..ATTRS).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let id = format!("S{i:02}");
        s2s.register_remote_source(
            &id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            FailureModel::unreachable(),
        )
        .unwrap();
        s2s.add_source_replica(&id, FailureModel::reliable()).unwrap();
        for j in 0..ATTRS {
            s2s.register_attribute(
                &format!("thing.product.s{i}a{j}"),
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
    let outcome = s2s.query("SELECT product").unwrap();
    assert_eq!(outcome.individuals().len(), SOURCES);
    assert!(outcome.errors().is_empty());
    assert_eq!(outcome.failovers(), SOURCES as u64, "one failover per batch, not per attribute");
    assert_eq!(outcome.stats.round_trips, 2 * SOURCES as u64);
}

#[test]
fn batched_and_unbatched_agree_under_partial_failure() {
    // Dead sources fail whole batches; live ones succeed. Per source or
    // per attribute, the same attributes make it.
    let build = |per_attribute| {
        let failure = |i: usize| {
            if i.is_multiple_of(2) {
                FailureModel::reliable()
            } else {
                FailureModel::unreachable()
            }
        };
        wide(4, 4, CostModel::lan(), failure, per_attribute)
            .with_strategy(Strategy::Parallel { workers: 4 })
            .query("SELECT product")
            .unwrap()
    };
    let batched = build(false);
    let per_attr = build(true);
    assert_eq!(batched.individuals().len(), 2, "only the live sources contribute");
    assert_eq!(batched.errors().len(), 8, "each dead source sinks its whole batch");
    assert_eq!(failed_attributes(&batched), failed_attributes(&per_attr));
    assert_eq!(values(&batched), values(&per_attr));
}

#[test]
fn renderers_annotate_round_trips() {
    let s2s = wide(2, 3, CostModel::lan(), |_| FailureModel::reliable(), false).with_views();
    let o = wide_ontology(2, 3);
    let first = s2s.query("SELECT product").unwrap();
    let xml = first.render(&o, s2s::core::instance::OutputFormat::Xml);
    assert!(xml.contains("round-trips=\"2\""), "{xml}");
    // A repeat query is served from the materialized views: no round
    // trips, no simulated time, the same instances, and nothing left
    // to annotate.
    let second = s2s.query("SELECT product").unwrap();
    assert_eq!(second.stats.view_hits, 6);
    assert_eq!(second.stats.round_trips, 0);
    assert_eq!(second.stats.simulated, s2s::netsim::SimDuration::ZERO);
    assert_eq!(first.instances.graph, second.instances.graph);
    let text = second.render(&o, s2s::core::instance::OutputFormat::Text);
    assert!(!text.contains("round trips"), "{text}");
}

/// Statements the wrappers ran for a query, summed over its sources.
fn statements(outcome: &QueryOutcome) -> usize {
    outcome.sources.iter().map(|row| row.statements).sum()
}

#[test]
fn a_sources_rules_that_share_a_record_scope_run_as_one_statement() {
    // A three-rule SQL source and a three-rule XML source: six rules,
    // two statements — one scan of the table, one walk of the records.
    let mut s2s = S2s::new(wide_ontology(2, 3)).with_tracing();
    let mut db = Database::new("catalog");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a0 TEXT, a1 TEXT, a2 TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x', 'y', 'z'), (2, 'u', 'v', 'w')").unwrap();
    s2s.register_source("DB", Connection::Database { db: Arc::new(db) }).unwrap();
    let document = s2s::xml::parse(
        "<c><r id='1'><a0>x</a0><a1>y</a1></r><r id='2'><a0>u</a0><a1>v</a1></r></c>",
    )
    .unwrap();
    s2s.register_source("XML", Connection::Xml { document: Arc::new(document) }).unwrap();
    for j in 0..3 {
        let sql = ExtractionRule::Sql {
            query: format!("SELECT a{j} FROM t ORDER BY id"),
            column: format!("a{j}"),
        };
        let field = if j == 2 { "@id".to_string() } else { format!("a{j}/text()") };
        let xpath = ExtractionRule::XPath { path: format!("/c/r/{field}") };
        let multi = RecordScenario::MultiRecord;
        s2s.register_attribute(&format!("thing.product.s0a{j}"), sql, "DB", multi).unwrap();
        s2s.register_attribute(&format!("thing.product.s1a{j}"), xpath, "XML", multi).unwrap();
    }
    let outcome = s2s.query("SELECT product").unwrap();
    assert!(outcome.errors().is_empty(), "{:?}", outcome.errors());
    assert_eq!(outcome.individuals().len(), 4);
    assert_eq!((outcome.stats.tasks, statements(&outcome)), (6, 2));
    let trace = outcome.trace.as_ref().expect("tracing on");
    for batch in trace.spans_of(s2s::obs::SpanKind::Batch) {
        assert_eq!(batch.get_attr("rules"), Some("3"), "{}", batch.name);
        assert_eq!(batch.get_attr("statements"), Some("1"), "{}", batch.name);
    }
}

#[test]
fn a_64_shard_fanout_runs_one_statement_a_shard() {
    let reliable = |_| FailureModel::reliable();
    let batched = wide(64, 3, CostModel::wan(), reliable, false).query("SELECT product").unwrap();
    assert_eq!((batched.stats.tasks, statements(&batched)), (192, 64));
    // Registered one attribute a source, every rule is a statement.
    let per_attr = wide(64, 3, CostModel::wan(), reliable, true).query("SELECT product").unwrap();
    assert_eq!((per_attr.stats.tasks, statements(&per_attr)), (192, 192));
    assert_eq!(values(&batched), values(&per_attr));
}
