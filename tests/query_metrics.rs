//! One account of every query in the metrics: fresh, plan-cache-hit,
//! replayed, shed and deadline-cut queries are each counted once and
//! observed once in every query histogram, and every metric read from
//! the query ledger moves by exactly the ledger's figures. Its own test
//! target, and one test, since the metrics registry is process-global.

use std::sync::Arc;

use s2s::core::extract::ResiliencePolicy;
use s2s::core::ledger::SourceLedger;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::middleware::QueryOutcome;
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::netsim::{
    AdmissionConfig, ChangeKind, CostModel, FailureModel, HedgeConfig, RetryPolicy, SimDuration,
};
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

/// One figure of a ledger row.
type Figure = fn(&SourceLedger) -> u64;

/// Every counter read from the ledger, with the row figure it sums.
const LEDGER_COUNTERS: [(&str, Figure); 12] = [
    (names::EXTRACT_TASKS_TOTAL, |r| r.tasks as u64),
    (names::EXTRACT_FAILED_TASKS_TOTAL, |r| r.failed_tasks as u64),
    (names::NET_CALLS_TOTAL, |r| r.attempts),
    (names::NET_BYTES_TOTAL, |r| r.wire_bytes),
    (names::RETRY_RETRIES_TOTAL, |r| r.retries),
    (names::OVERLOAD_DEADLINE_EXCEEDED_TOTAL, |r| r.deadline_hits),
    (names::HEDGE_LAUNCHED_TOTAL, |r| r.hedges),
    (names::HEDGE_WINS_TOTAL, |r| r.hedge_wins),
    (names::VIEW_HITS_TOTAL, |r| r.view_hits),
    (names::VIEW_REFRESHES_TOTAL, |r| r.view_refreshes),
    (names::VIEW_FULL_REFRESHES_TOTAL, |r| r.view_full_refreshes),
    (names::FEED_POLLS_TOTAL, |r| r.feed_polls),
];

/// The registry's reading of every metric a fresh query's ledger or
/// answer feeds, by name (a histogram as its count and its sum).
fn folded() -> Vec<(String, u64)> {
    let m = s2s::obs::global();
    let mut got: Vec<(String, u64)> =
        LEDGER_COUNTERS.iter().map(|(name, _)| (name.to_string(), m.counter(name).get())).collect();
    for name in [names::INSTANCES_GENERATED_TOTAL, names::INSTANCE_TRIPLES_TOTAL] {
        got.push((name.to_string(), m.counter(name).get()));
    }
    for name in [names::SOURCE_EXCHANGE_SIM_US, names::VIEW_STALENESS_US] {
        let h = m.histogram(name);
        got.push((format!("{name}_count"), h.count()));
        got.push((format!("{name}_sum"), h.sum()));
    }
    got
}

/// What [`folded`] must have moved by over `outcomes`: their fresh
/// answers' ledger figures and sizes, summed.
fn ledger_sums(outcomes: &[&QueryOutcome]) -> Vec<(String, u64)> {
    let fresh: Vec<_> =
        outcomes.iter().filter(|o| !o.stats.shed && o.stats.result_cache.hits == 0).collect();
    let rows = || fresh.iter().flat_map(|o| &o.sources);
    let mut want: Vec<(String, u64)> = LEDGER_COUNTERS
        .iter()
        .map(|(name, figure)| (name.to_string(), rows().map(figure).sum()))
        .collect();
    let individuals = fresh.iter().map(|o| o.individuals().len() as u64).sum();
    want.push((names::INSTANCES_GENERATED_TOTAL.to_string(), individuals));
    want.push((
        names::INSTANCE_TRIPLES_TOTAL.to_string(),
        fresh.iter().map(|o| o.instances.graph.len() as u64).sum(),
    ));
    let exchanges: Vec<u64> =
        rows().filter(|r| r.attempts > 0).map(|r| r.wire_time.as_micros()).collect();
    want.push((format!("{}_count", names::SOURCE_EXCHANGE_SIM_US), exchanges.len() as u64));
    want.push((format!("{}_sum", names::SOURCE_EXCHANGE_SIM_US), exchanges.iter().sum()));
    let stale: Vec<u64> = fresh
        .iter()
        .filter(|o| o.stats.view_hits > 0)
        .map(|o| o.stats.view_staleness.as_micros())
        .collect();
    want.push((format!("{}_count", names::VIEW_STALENESS_US), stale.len() as u64));
    want.push((format!("{}_sum", names::VIEW_STALENESS_US), stale.iter().sum()));
    want
}

#[test]
fn every_query_is_counted_and_observed_once() {
    s2s::obs::set_enabled(true);
    let (before, ledger_before) = (figures(), folded());

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

    assert_eq!((fresh.stats.plan_cache.misses, plan_hit.stats.plan_cache.hits), (1, 1));
    assert_eq!(replayed.stats.result_cache.hits, 1);
    assert!(shed.stats.shed);
    assert!(cut.deadline_hits() > 0);

    let after = figures();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    // Five queries, each counted once and observed once per histogram;
    // the shed and the deadline-cut answers are the degraded ones.
    assert_eq!(delta, [5, 5, 5, 2, 1]);

    // A views engine through one mutation: the slice refreshes after a
    // feed poll whose frames go on the row, not through an endpoint.
    let views = engine(FailureModel::reliable(), ResiliencePolicy::default()).with_views();
    let cold = views.query("SELECT product").unwrap();
    views
        .mutate_source("DB", catalog("Casio"), ChangeKind::RowUpdate, vec!["brand".into()])
        .unwrap();
    let refreshed = views.query("SELECT product").unwrap();
    let served = views.query("SELECT product").unwrap();
    assert_eq!((refreshed.stats.feed_polls, refreshed.stats.view_refreshes), (1, 1));
    assert_eq!(served.stats.view_hits, 1);

    // A flaky source retried, and a straggling one hedged to a replica.
    let retried = ResiliencePolicy::default().with_retry(RetryPolicy::attempts(6));
    let flaky = engine(FailureModel::flaky(0.5), retried);
    let hedging = ResiliencePolicy::default()
        .with_retry(
            RetryPolicy::attempts(4)
                .with_backoff(SimDuration::from_millis(60), 2, SimDuration::from_millis(240))
                .with_jitter(0.0),
        )
        .with_hedging(HedgeConfig {
            percentile: 50,
            min_samples: 1,
            min_delay: SimDuration::from_micros(1),
        });
    let mut hedged = engine(FailureModel::flaky(0.7), hedging);
    hedged.add_source_replica("DB", FailureModel::reliable()).unwrap();
    let mut resilient = Vec::new();
    for _ in 0..20 {
        resilient.push(flaky.query("SELECT product").unwrap());
        resilient.push(hedged.query("SELECT product").unwrap());
    }
    assert!(resilient.iter().any(|o| o.retries() > 0), "no query retried");
    assert!(resilient.iter().any(|o| o.hedge_wins() > 0), "no hedge won");
    s2s::obs::set_enabled(false);

    let ledger_after = folded();
    let moved: Vec<(String, u64)> = ledger_after
        .into_iter()
        .zip(ledger_before)
        .map(|((name, a), (_, b))| (name, a - b))
        .collect();
    let answered = [&fresh, &replayed, &plan_hit, &shed, &cut, &cold, &refreshed, &served];
    let all: Vec<&QueryOutcome> = answered.into_iter().chain(&resilient).collect();
    // Each metric read from the ledger moved by its figure over the
    // fresh answers, summed; replays and shed queries carry no rows.
    assert_eq!(moved, ledger_sums(&all));
}
