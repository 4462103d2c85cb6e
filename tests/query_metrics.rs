//! One account of every query in the metrics: fresh, plan-cache-hit,
//! replayed, shed and deadline-cut queries are each counted once and
//! observed once in every query histogram. Its own test target, since
//! the metrics registry is process-global.

use std::sync::Arc;

use s2s::core::extract::ResiliencePolicy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::netsim::{AdmissionConfig, ChangeKind, CostModel, FailureModel, RetryPolicy, SimDuration};
use s2s::obs::names;
use s2s::owl::Ontology;
use s2s::{QueryOptions, S2s};

fn catalog(brand: &str) -> Connection {
    let mut db = Database::new("d");
    db.execute("CREATE TABLE t (brand TEXT)").unwrap();
    db.execute(&format!("INSERT INTO t VALUES ('{brand}')")).unwrap();
    Connection::Database { db: Arc::new(db) }
}

/// One WAN source `DB` mapping `brand`, under `policy`.
fn engine(failure: FailureModel, policy: ResiliencePolicy) -> S2s {
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let mut s2s = S2s::new(ontology).with_resilience(policy);
    s2s.register_remote_source("DB", catalog("Seiko"), CostModel::wan(), failure).unwrap();
    s2s.register_attribute(
        "thing.product.brand",
        ExtractionRule::Sql { query: "SELECT brand FROM t".into(), column: "brand".into() },
        "DB",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    s2s
}

/// The query-level figures read together.
fn figures() -> [u64; 5] {
    let m = s2s::obs::global();
    [
        m.counter(names::QUERIES_TOTAL).get(),
        m.histogram(names::QUERY_WALL_US).count(),
        m.histogram(names::QUERY_SIM_US).count(),
        m.counter(names::QUERIES_DEGRADED_TOTAL).get(),
        m.counter(names::OVERLOAD_SHED_TOTAL).get(),
    ]
}

#[test]
fn every_query_is_counted_and_observed_once() {
    s2s::obs::set_enabled(true);
    let before = figures();

    let healthy = engine(FailureModel::reliable(), ResiliencePolicy::default())
        .with_result_cache()
        .with_admission(AdmissionConfig::with_permits(1));
    let fresh = healthy.query("SELECT product").unwrap();
    let replayed = healthy.query("SELECT product").unwrap();
    healthy.mutate_source("DB", catalog("Casio"), ChangeKind::RowUpdate, vec![]).unwrap();
    let plan_hit = healthy.query("SELECT product").unwrap();
    let slot = healthy.admission().unwrap().admit("hog", None).unwrap();
    let budget = QueryOptions::default().with_deadline(SimDuration::from_millis(1));
    // A text the result cache has not seen: a replay would pass the gate.
    let shed = healthy.query_with_options("SELECT product WHERE brand = 'x'", &budget).unwrap();
    drop(slot);

    let retries = RetryPolicy::attempts(10)
        .with_backoff(SimDuration::from_millis(50), 2, SimDuration::from_millis(400))
        .with_jitter(0.0);
    let down = engine(FailureModel::unreachable(), ResiliencePolicy::default().with_retry(retries));
    let budget = QueryOptions::default().with_deadline(SimDuration::from_millis(60));
    let cut = down.query_with_options("SELECT product", &budget).unwrap();

    s2s::obs::set_enabled(false);
    assert_eq!((fresh.stats.plan_cache.misses, plan_hit.stats.plan_cache.hits), (1, 1));
    assert_eq!(replayed.stats.result_cache.hits, 1);
    assert!(shed.stats.shed);
    assert!(cut.deadline_hits() > 0);

    let after = figures();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    // Five queries, each counted once and observed once per histogram;
    // the shed and the deadline-cut answers are the degraded ones.
    assert_eq!(delta, [5, 5, 5, 2, 1]);
}
