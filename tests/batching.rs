//! Batched per-source extraction: wire-level coalescing, the cost-based
//! planner, round-trip accounting, and composition with the resilience
//! layer. `with_batching` only picks the planner's grouping key, so every
//! batched-vs-unbatched case here is "grouping per source ≡ grouping per
//! schema" through the one pipeline. Includes the headline acceptance
//! check: ≥4 attributes per source over the WAN cost model must get ≥2×
//! cheaper when batched, with byte-identical results and failures.

use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
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

/// `sources` remote databases, each carrying `attrs` mapped attributes.
/// The rule text for attribute `j` is identical on every source, so the
/// compiled-rule cache sees `attrs` distinct rules in total.
fn wide(
    sources: usize,
    attrs: usize,
    cost: CostModel,
    failure: FailureModel,
    batching: bool,
) -> S2s {
    let mut s2s = S2s::new(wide_ontology(sources, attrs))
        .with_strategy(Strategy::Serial)
        .with_batching(batching);
    let columns: Vec<String> = (0..attrs).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..sources {
        let mut db = Database::new(format!("shard{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..attrs).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let id = format!("S{i:02}");
        s2s.register_remote_source(&id, Connection::Database { db: Arc::new(db) }, cost, failure)
            .unwrap();
        for j in 0..attrs {
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

const SOURCES: usize = 6;
const ATTRS: usize = 5;

#[test]
fn batching_is_on_by_default_and_togglable() {
    let s2s = S2s::new(wide_ontology(1, 1));
    assert!(s2s.batching());
    assert!(!s2s.with_batching(false).batching());
}

#[test]
fn wan_batching_at_least_halves_makespan_with_identical_output() {
    // The acceptance criterion: ≥4 attributes per source over WAN,
    // batched vs per-attribute, ≥2× makespan reduction, same output.
    let batched = wide(SOURCES, ATTRS, CostModel::wan(), FailureModel::reliable(), true)
        .query("SELECT product")
        .unwrap();
    let unbatched = wide(SOURCES, ATTRS, CostModel::wan(), FailureModel::reliable(), false)
        .query("SELECT product")
        .unwrap();
    assert_eq!(batched.individuals().len(), SOURCES);
    let properties: usize = batched.individuals().iter().map(|i| i.values.len()).sum();
    assert_eq!(properties, SOURCES * ATTRS);
    assert!(
        batched.stats.simulated.as_micros() * 2 <= unbatched.stats.simulated.as_micros(),
        "batched {} vs unbatched {} is less than a 2x win",
        batched.stats.simulated,
        unbatched.stats.simulated
    );
    // Byte-identical results and failures.
    assert_eq!(format!("{:?}", batched.individuals()), format!("{:?}", unbatched.individuals()));
    assert_eq!(format!("{:?}", batched.errors()), format!("{:?}", unbatched.errors()));
}

#[test]
fn batching_pays_one_round_trip_per_source() {
    let batched = wide(SOURCES, ATTRS, CostModel::lan(), FailureModel::reliable(), true)
        .query("SELECT product")
        .unwrap();
    let unbatched = wide(SOURCES, ATTRS, CostModel::lan(), FailureModel::reliable(), false)
        .query("SELECT product")
        .unwrap();
    assert_eq!(batched.stats.round_trips, SOURCES as u64);
    assert_eq!(unbatched.stats.round_trips, (SOURCES * ATTRS) as u64);
}

#[test]
fn rule_cache_dedupes_identical_rules_across_sources() {
    // Attribute j carries the same SQL text on every source, so the
    // compiled-rule cache compiles `ATTRS` rules and serves the rest.
    let outcome = wide(SOURCES, ATTRS, CostModel::lan(), FailureModel::reliable(), true)
        .query("SELECT product")
        .unwrap();
    assert_eq!(outcome.stats.rule_cache.misses, ATTRS as u64);
    assert_eq!(outcome.stats.rule_cache.hits, ((SOURCES - 1) * ATTRS) as u64);
}

#[test]
fn batches_fail_over_as_a_unit() {
    // Hard-down primaries with healthy replicas: every batch fails over
    // once and the query still completes.
    let mut s2s = S2s::new(wide_ontology(SOURCES, ATTRS)).with_strategy(Strategy::Serial);
    let columns: Vec<String> = (0..ATTRS).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..SOURCES {
        let mut db = Database::new(format!("shard{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..ATTRS).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let id = format!("S{i:02}");
        s2s.register_remote_source_with_replicas(
            &id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            FailureModel::unreachable(),
            &[FailureModel::reliable()],
        )
        .unwrap();
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
    // Dead sources fail whole batches; live ones succeed. Both paths
    // must agree on which attributes made it.
    let build = |batching| {
        let mut s2s = S2s::new(wide_ontology(4, 4))
            .with_strategy(Strategy::Parallel { workers: 4 })
            .with_batching(batching);
        let columns: Vec<String> = (0..4).map(|j| format!("a{j} TEXT")).collect();
        for i in 0..4 {
            let mut db = Database::new(format!("shard{i}"));
            db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
            let values: Vec<String> = (0..4).map(|j| format!("'v{i}-{j}'")).collect();
            db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
            let failure =
                if i % 2 == 0 { FailureModel::reliable() } else { FailureModel::unreachable() };
            let id = format!("S{i:02}");
            s2s.register_remote_source(
                &id,
                Connection::Database { db: Arc::new(db) },
                CostModel::lan(),
                failure,
            )
            .unwrap();
            for j in 0..4 {
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
        s2s.query("SELECT product").unwrap()
    };
    let batched = build(true);
    let unbatched = build(false);
    assert_eq!(batched.individuals().len(), 2, "only the live sources contribute");
    assert_eq!(batched.errors().len(), 8, "each dead source sinks its whole batch");
    let sources = |errors: &[s2s::core::extract::ExtractionFailure]| {
        let mut v: Vec<String> =
            errors.iter().map(|e| format!("{}@{}", e.attribute, e.source)).collect();
        v.sort();
        v
    };
    assert_eq!(sources(batched.errors()), sources(unbatched.errors()));
    assert_eq!(format!("{:?}", batched.individuals()), format!("{:?}", unbatched.individuals()));
}

#[test]
fn renderers_annotate_round_trips() {
    let s2s = wide(2, 3, CostModel::lan(), FailureModel::reliable(), true).with_views();
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
