//! Concurrent-engine integration tests: one `S2s` shared across client
//! threads must behave exactly like a serial engine — same answers,
//! full completeness — while the plan/result caches stay coherent
//! under mutation and equivalent query spellings.

use std::sync::Arc;

use proptest::prelude::*;
use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::query;
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::netsim::{CostModel, FailureModel, SimDuration};
use s2s::owl::Ontology;
use s2s::S2s;

fn ontology() -> Ontology {
    Ontology::builder("http://engine.example/schema#")
        .class("Product", None)
        .unwrap()
        .class("Watch", Some("Product"))
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .datatype_property("price", "Product", "http://www.w3.org/2001/XMLSchema#decimal")
        .unwrap()
        .build()
        .unwrap()
}

fn watch_db(n: usize) -> Database {
    let mut db = Database::new("catalog");
    db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
    for i in 0..n {
        db.execute(&format!("INSERT INTO w VALUES ({}, 'B{}', {})", i + 1, i, 10 + i * 7)).unwrap();
    }
    db
}

/// A remote DB deployment; `strategy` sizes the lanes its callers share.
fn deploy(n: usize, strategy: Strategy) -> S2s {
    let mut s2s = S2s::new(ontology()).with_strategy(strategy);
    s2s.register_remote_source(
        "DB",
        Connection::Database { db: Arc::new(watch_db(n)) },
        CostModel::wan(),
        FailureModel::reliable(),
    )
    .unwrap();
    for (attr, col) in [("brand", "brand"), ("price", "price")] {
        s2s.register_attribute(
            &format!("thing.product.watch.{attr}"),
            ExtractionRule::Sql {
                query: format!("SELECT {col} FROM w ORDER BY id"),
                column: col.into(),
            },
            "DB",
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    s2s
}

/// Order-independent fingerprint of a query answer.
fn answer_key(outcome: &s2s::core::middleware::QueryOutcome) -> String {
    let mut keys: Vec<String> =
        outcome.individuals().iter().map(|i| format!("{:?}", i.values)).collect();
    keys.sort();
    keys.join("|")
}

#[test]
fn s2s_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<S2s>();
    assert_send_sync::<Arc<S2s>>();
}

/// C client threads × Q queries against one shared engine: every answer
/// must equal the serial single-client baseline, at full completeness.
#[test]
fn shared_engine_matches_serial_baseline_across_threads() {
    const CLIENTS: usize = 4;
    const QUERIES: usize = 8;
    let texts: Vec<String> =
        (0..QUERIES).map(|q| format!("SELECT watch WHERE price < {}", 20 + q * 11)).collect();

    let serial = deploy(10, Strategy::Parallel { workers: 1 });
    let expected: Vec<String> =
        texts.iter().map(|t| answer_key(&serial.query(t).unwrap())).collect();

    let shared = Arc::new(deploy(10, Strategy::Parallel { workers: 8 }).with_result_cache());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let shared = Arc::clone(&shared);
            let texts = &texts;
            let expected = &expected;
            scope.spawn(move || {
                // Each client walks the workload from a different offset
                // so cold misses and warm hits interleave across threads.
                for q in 0..QUERIES {
                    let i = (c + q) % QUERIES;
                    let outcome = shared.query(&texts[i]).unwrap();
                    assert_eq!(
                        answer_key(&outcome),
                        expected[i],
                        "client {c} got a different answer for {:?}",
                        texts[i]
                    );
                    assert_eq!(outcome.stats.completeness, 1.0);
                }
            });
        }
    });
}

/// A repeated query is answered from the result cache: one hit, zero
/// simulated time, no wire round trips.
#[test]
fn repeat_query_is_replayed_from_result_cache() {
    let s2s = deploy(6, Strategy::Parallel { workers: 4 }).with_result_cache();
    let first = s2s.query("SELECT watch WHERE price < 40").unwrap();
    assert_eq!((first.stats.result_cache.hits, first.stats.result_cache.misses), (0, 1));

    let second = s2s.query("SELECT watch WHERE price < 40").unwrap();
    assert_eq!(second.stats.result_cache.hits, 1);
    assert_eq!(second.stats.simulated, SimDuration::ZERO, "replay touches no source");
    assert_eq!(second.stats.round_trips, 0);
    assert_eq!(second.individuals().len(), first.individuals().len());
    assert_eq!(answer_key(&second), answer_key(&first));
}

/// Registry/mapping mutation between queries invalidates the result
/// cache: the stale answer is never served again.
#[test]
fn mutation_invalidates_cached_results() {
    let mut s2s = deploy(4, Strategy::Parallel { workers: 1 }).with_result_cache();
    let before = s2s.query("SELECT watch").unwrap();
    assert_eq!(before.individuals().len(), 4);
    // Warm the cache and prove it is serving.
    assert_eq!(s2s.query("SELECT watch").unwrap().stats.result_cache.hits, 1);

    // Mutate the deployment: a second source contributes 2 more records.
    s2s.register_source("DB2", Connection::Database { db: Arc::new(watch_db(2)) }).unwrap();
    s2s.register_attribute(
        "thing.product.watch.brand",
        ExtractionRule::Sql {
            query: "SELECT brand FROM w ORDER BY id".into(),
            column: "brand".into(),
        },
        "DB2",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    assert!(s2s.result_cache_invalidations() >= 1, "mutation must drop cached answers");

    let after = s2s.query("SELECT watch").unwrap();
    assert_eq!(after.stats.result_cache.hits, 0, "stale answer served after mutation");
    assert_eq!(after.individuals().len(), 6, "fresh answer must see the new source");
}

/// Registering a source no mapping names, or a replica of a source an
/// answer read, changes no cached answer: the warm answer keeps
/// replaying, and a data mutation of its source still stops it.
#[test]
fn a_warm_answer_replays_across_source_and_replica_registration() {
    let mut s2s = deploy(4, Strategy::Parallel { workers: 1 }).with_result_cache();
    let text = "SELECT watch WHERE price < 30";
    let cold = s2s.query(text).unwrap();
    s2s.register_source("UNMAPPED", Connection::Database { db: Arc::new(watch_db(2)) }).unwrap();
    s2s.add_source_replica("DB", FailureModel::reliable()).unwrap();
    let warm = s2s.query(text).unwrap();
    assert_eq!(warm.stats.result_cache.hits, 1, "registration dropped a warm answer");
    assert_eq!(answer_key(&warm), answer_key(&cold));
    assert_eq!(s2s.result_cache_invalidations(), 0);

    let db = Connection::Database { db: Arc::new(watch_db(1)) };
    s2s.mutate_source("DB", db, s2s::netsim::ChangeKind::RowDelete, Vec::new()).unwrap();
    let fresh = s2s.query(text).unwrap();
    assert_eq!(fresh.stats.result_cache.hits, 0, "a stale answer was served");
    assert_eq!(fresh.individuals().len(), 1);
}

/// Overload hygiene: a shed query runs nothing past the result-cache
/// lookup, so the plan cache sees zero operations and neither cache
/// gains an entry.
#[test]
fn shed_queries_leave_plan_and_result_caches_untouched() {
    use s2s::netsim::AdmissionConfig;
    use s2s::QueryOptions;

    let shared = deploy(6, Strategy::Parallel { workers: 1 })
        .with_result_cache()
        .with_admission(AdmissionConfig::with_permits(1));
    // Warm one unrelated entry so the assertions compare real counts,
    // not just zeros.
    shared.query("SELECT watch WHERE price < 20").unwrap();
    let plan_len = shared.plan_cache_len();
    let plan_stats = shared.plan_cache_stats();
    let result_len = shared.result_cache_len();

    // Occupy the only permit; the next arrival's 1 ms budget cannot
    // absorb the estimated wait, so it is shed at the door.
    let slot = shared.admission().unwrap().admit("hog", None, false).unwrap();
    let opts =
        QueryOptions::default().with_deadline(SimDuration::from_millis(1)).with_tenant("meek");
    let out = shared.query_with_options("SELECT watch WHERE price < 999", &opts).unwrap();
    drop(slot);

    assert!(out.stats.shed);
    assert_eq!(shared.plan_cache_len(), plan_len, "shed query must not add a plan entry");
    assert_eq!(shared.plan_cache_stats(), plan_stats, "shed query must not touch the plan cache");
    assert_eq!(out.stats.plan_cache, Default::default());
    assert_eq!(shared.result_cache_len(), result_len, "shed query must not cache an answer");
    // The result-cache lookup itself is permitted (a hit would have
    // been served): exactly one miss, no write.
    assert_eq!((out.stats.result_cache.hits, out.stats.result_cache.misses), (0, 1));
}

/// Overload hygiene: a query that exhausts its deadline publishes
/// nothing — no plan-cache entry, no result-cache entry — so overload
/// casualties cannot churn entries that healthy queries rely on.
#[test]
fn deadline_exceeded_queries_publish_no_cache_entries() {
    use s2s::core::extract::ResiliencePolicy;
    use s2s::netsim::RetryPolicy;
    use s2s::QueryOptions;

    let policy = ResiliencePolicy::default().with_retry(
        RetryPolicy::attempts(8)
            .with_backoff(SimDuration::from_millis(50), 2, SimDuration::from_millis(400))
            .with_jitter(0.0),
    );
    let mut s2s = S2s::new(ontology()).with_result_cache().with_resilience(policy);
    s2s.register_remote_source(
        "DB",
        Connection::Database { db: Arc::new(watch_db(4)) },
        CostModel::wan(),
        FailureModel::unreachable(),
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.watch.brand",
        ExtractionRule::Sql {
            query: "SELECT brand FROM w ORDER BY id".into(),
            column: "brand".into(),
        },
        "DB",
        RecordScenario::MultiRecord,
    )
    .unwrap();

    let opts = QueryOptions::default().with_deadline(SimDuration::from_millis(60));
    let out = s2s.query_with_options("SELECT watch WHERE price < 50", &opts).unwrap();
    assert!(out.deadline_hits() >= 1, "the tight budget must expire mid-retry");
    assert_eq!(out.stats.round_trips, out.resilience["DB"].attempts);
    assert_eq!(s2s.plan_cache_len(), 0, "deadline casualty must not publish a plan");
    assert_eq!(s2s.result_cache_len(), 0, "degraded answer must not be cached");

    // Re-running without a deadline proves nothing was published: the
    // plan cache misses again, then (deadline_hits == 0) publishes.
    let retry = s2s.query("SELECT watch WHERE price < 50").unwrap();
    assert_eq!(retry.deadline_hits(), 0);
    assert_eq!((retry.stats.plan_cache.hits, retry.stats.plan_cache.misses), (0, 1));
    assert_eq!(s2s.plan_cache_len(), 1, "healthy (if failing) query does publish its plan");
}

/// Every figure in `stats.{result,plan}_cache` is this query's own
/// account: with N clients hammering one engine, each outcome still
/// shows exactly its own lookups, and the outcomes together add up to
/// the engine's counters — planner off or on.
#[test]
fn per_query_cache_accounts_hold_under_concurrency() {
    use s2s::core::CacheStats;
    use s2s::obs::SpanKind;

    const CLIENTS: usize = 4;
    const REPEATS: usize = 50;
    fn add(total: &mut CacheStats, part: CacheStats) {
        total.hits += part.hits;
        total.misses += part.misses;
        total.evictions += part.evictions;
    }

    for arm in 0..8 {
        let (pushdown, result_cache, distinct) = (arm & 4 != 0, arm & 2 != 0, arm & 1 != 0);
        let engine = deploy(6, Strategy::Parallel { workers: 4 }).with_tracing();
        let engine = if pushdown { engine.with_pushdown() } else { engine };
        let engine = if result_cache { engine.with_result_cache() } else { engine };
        let start = std::sync::Barrier::new(CLIENTS);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (engine, start) = (&engine, &start);
                    let bound = if distinct { 20 + c * 11 } else { 20 };
                    scope.spawn(move || {
                        let text = format!("SELECT watch WHERE price < {bound}");
                        start.wait();
                        (0..REPEATS).map(|_| engine.query(&text).unwrap()).collect::<Vec<_>>()
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client panicked")).collect()
        });
        assert_eq!(outcomes.len(), CLIENTS * REPEATS);

        let (mut results, mut plans) = Default::default();
        for outcome in &outcomes {
            let stats = &outcome.stats;
            let replayed = stats.result_cache.hits == 1;
            assert_eq!(stats.result_cache.hits + stats.result_cache.misses, result_cache as u64);
            assert_eq!(stats.plan_cache.hits + stats.plan_cache.misses, !replayed as u64);

            let trace = outcome.trace.as_ref().expect("traced engine");
            let spans = trace.spans_of(SpanKind::Rule);
            assert_eq!(spans.len(), if replayed { 0 } else { 2 }, "one rule span per attribute");
            let pushed = outcome.pushdown.as_ref().map_or(0, |p| p.pushed_predicates());
            assert_eq!(pushed, (pushdown && !replayed) as u64, "`price < N` is pushable");

            add(&mut results, stats.result_cache);
            add(&mut plans, stats.plan_cache);
        }
        assert!(!result_cache || results.hits > 0, "repeats must replay");
        assert_eq!(results, engine.result_cache_stats());
        assert_eq!(plans, engine.plan_cache_stats());
    }
}

/// A reliable source never times out, however many clients share its
/// endpoint: one WAN attempt costs at most 30 ms plus the bytes moved,
/// so a 35 ms client-side attempt timeout can only fire if an attempt is
/// charged for time the endpoint served to somebody else.
#[test]
fn concurrent_clients_never_time_out_a_reliable_source() {
    use s2s::core::extract::ResiliencePolicy;
    use s2s::netsim::RetryPolicy;

    const CLIENTS: usize = 4;
    const QUERIES: usize = 5_000;
    let timeout = RetryPolicy::attempts(1).with_attempt_timeout(SimDuration::from_millis(35));
    let engine = deploy(6, Strategy::Parallel { workers: 4 })
        .with_resilience(ResiliencePolicy::default().with_retry(timeout));
    let start = std::sync::Barrier::new(CLIENTS);
    let degraded: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (engine, start) = (&engine, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..QUERIES)
                        .filter(|q| {
                            let text = format!("SELECT watch WHERE price < {}", c * QUERIES + q);
                            engine.query(&text).unwrap().stats.completeness < 1.0
                        })
                        .count()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client panicked")).sum()
    });
    assert_eq!(degraded, 0, "of {} answers", CLIENTS * QUERIES);
}

proptest! {
    /// Equivalent S2SQL spellings (whitespace, keyword case) normalize
    /// to the same key, produce identical plans, and share one
    /// plan-cache entry — so every variant after the first is a hit.
    #[test]
    fn equivalent_spellings_share_one_plan_cache_entry(
        pad1 in "[ \t]{0,3}",
        pad2 in "[ \t]{1,3}",
        pad3 in "[ \t]{0,3}",
        select_kw in prop_oneof!["SELECT", "select", "Select", "sElEcT"],
        where_kw in prop_oneof!["WHERE", "where", "Where"],
        and_kw in prop_oneof!["AND", "and", "And"],
    ) {
        let canonical = "SELECT watch WHERE price < 60 AND brand != 'B1'";
        let variant = format!(
            "{pad1}{select_kw}{pad2}watch{pad2}{where_kw}{pad2}price{pad1} < {pad3}60 \
             {and_kw} brand{pad3}!={pad2}'B1'{pad3}"
        );
        prop_assert_eq!(query::normalize(&variant), query::normalize(canonical));

        let s2s = deploy(8, Strategy::Parallel { workers: 1 });
        let base = s2s.query(canonical).unwrap();
        let other = s2s.query(&variant).unwrap();
        prop_assert_eq!(&base.plan, &other.plan, "equivalent spellings must plan identically");
        prop_assert_eq!(answer_key(&base), answer_key(&other));
        // One shared entry: the first query misses, the variant hits.
        let plans = s2s.plan_cache_stats();
        prop_assert_eq!((plans.hits, plans.misses), (1, 1));
    }
}
