//! Observability layer: trace-tree determinism, degraded-mode span
//! outcomes, exporter round-trips, attempt-latency histograms, the
//! breaker accounting contract on `QueryStats::round_trips`, and the
//! trace and the stats as renderings of the query ledger.

use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::ledger::Unfiltered;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::middleware::QueryOutcome;
use s2s::core::source::Connection;
use s2s::core::{ResiliencePolicy, SourceLedger};
use s2s::minidb::Database;
use s2s::netsim::{
    AdmissionConfig, BreakerConfig, ChangeKind, CostModel, FailureModel, RetryPolicy, SimDuration,
};
use s2s::obs::{SpanKind, SpanOutcome};
use s2s::owl::Ontology;
use s2s::{QueryOptions, S2s};

/// An ontology with one `Product` class and `attrs` string properties.
fn wide_ontology(attrs: usize) -> Ontology {
    let mut b = Ontology::builder("http://example.org/schema#").class("Product", None).unwrap();
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

/// `sources` remote WAN databases, each mapping the same `attrs`
/// attributes, parallel workers, tracing on.
fn wide_traced(sources: usize, attrs: usize) -> S2s {
    let mut s2s = S2s::new(wide_ontology(attrs))
        .with_strategy(Strategy::Parallel { workers: 4 })
        .with_tracing();
    let columns: Vec<String> = (0..attrs).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..sources {
        let mut db = Database::new(format!("shard{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..attrs).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let id = format!("S{i:02}");
        s2s.register_remote_source(
            &id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            FailureModel::reliable(),
        )
        .unwrap();
        for j in 0..attrs {
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

/// One healthy WAN source plus one hard-down source, three attributes
/// each, serial extraction, retry budget 2, breaker trips after one
/// failure. Both batches price the same, so the planner dispatches them
/// by source id: `DOWN` first. Asked twice, the engine shows the whole
/// ladder — the first query's `DOWN` batch is retried and fails on the
/// wire, tripping the breaker; the second's is breaker-rejected — while
/// `GOOD` runs clean both times.
fn degraded_traced() -> S2s {
    let policy = ResiliencePolicy::default()
        .with_retry(RetryPolicy::attempts(2))
        .with_breaker(BreakerConfig::new(1, SimDuration::from_millis(60_000)));
    let mut s2s = S2s::new(wide_ontology(3))
        .with_strategy(Strategy::Parallel { workers: 1 })
        .with_resilience(policy)
        .with_tracing();
    for (id, failure) in [("GOOD", FailureModel::reliable()), ("DOWN", FailureModel::unreachable())]
    {
        let mut db = Database::new(id.to_lowercase());
        db.execute("CREATE TABLE t (a0 TEXT, a1 TEXT, a2 TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('x', 'y', 'z')").unwrap();
        s2s.register_remote_source(
            id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            failure,
        )
        .unwrap();
        for j in 0..3 {
            s2s.register_attribute(
                &format!("thing.product.a{j}"),
                ExtractionRule::Sql {
                    query: format!("SELECT a{j} FROM t"),
                    column: format!("a{j}"),
                },
                id,
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
    }
    s2s
}

/// Zeroes the digits after every `"wall_us":` — the one field that is
/// wall-clock (nondeterministic) by design.
fn mask_wall(jsonl: &str) -> String {
    let mut out = String::new();
    let mut rest = jsonl;
    while let Some(idx) = rest.find("\"wall_us\":") {
        let after = idx + "\"wall_us\":".len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn traces_are_deterministic_across_runs() {
    let run = || {
        let s2s = wide_traced(6, 4);
        let outcome = s2s.query("SELECT product").unwrap();
        s2s::obs::render_jsonl(outcome.trace.as_ref().expect("tracing on"))
    };
    let a = mask_wall(&run());
    let b = mask_wall(&run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "two runs of the same seeded workload must trace identically");
}

#[test]
fn untraced_query_attaches_no_trace() {
    let s2s = wide_traced(2, 2);
    assert!(s2s.tracing());
    let outcome = S2s::new(wide_ontology(1)).query("SELECT product").unwrap();
    assert!(outcome.trace.is_none());
}

/// The two degraded queries of [`degraded_traced`], on one engine.
fn degraded_twice() -> [s2s::core::middleware::QueryOutcome; 2] {
    let s2s = degraded_traced();
    [(); 2].map(|_| s2s.query("SELECT product").unwrap())
}

#[test]
fn degraded_query_traces_breaker_rejections_and_completeness() {
    for (run, outcome) in degraded_twice().iter().enumerate() {
        assert!(outcome.stats.completeness < 1.0);
        let trace = outcome.trace.as_ref().expect("tracing on");

        // The root is degraded and its completeness attr round-trips to
        // the exact stats value.
        assert_eq!(trace.root.outcome, SpanOutcome::Degraded);
        let attr: f64 = trace.root.get_attr("completeness").unwrap().parse().unwrap();
        assert_eq!(attr, outcome.stats.completeness);

        // The first query's DOWN batch failed on the wire (after a
        // retry); the second's was refused by the open breaker, and that
        // refusal is visible as a breaker-rejected attempt span.
        let attempts = trace.spans_of(s2s::obs::SpanKind::Attempt);
        let of = |o| attempts.iter().filter(|s| s.outcome == o).collect::<Vec<_>>();
        let (failed, rejected) = (of(SpanOutcome::Failed), of(SpanOutcome::BreakerRejected));
        if run == 0 {
            assert!(rejected.is_empty(), "the breaker is closed until DOWN fails");
            assert_eq!(failed.len(), 1);
            assert_eq!(failed[0].name, "DOWN");
            assert_eq!(failed[0].get_attr("retries"), Some("1"));
        } else {
            assert!(failed.is_empty(), "the open breaker keeps DOWN off the wire");
            assert_eq!(rejected.len(), 1);
            assert_eq!(rejected[0].name, "DOWN");
            assert_eq!(rejected[0].sim_us, 0, "a rejected call never reaches the wire");
        }
    }
}

#[test]
fn per_source_trace_has_the_batched_span_shape_in_planner_order() {
    let outcomes = degraded_twice();
    let mut ladder = Vec::new();
    for outcome in &outcomes {
        let root = &outcome.trace.as_ref().expect("tracing on").root;
        let batches: Vec<_> =
            root.children.iter().filter(|s| s.kind == s2s::obs::SpanKind::Batch).collect();

        // Dispatch order is a function of the plan alone.
        let names: Vec<_> = batches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["DOWN", "GOOD"]);

        // A batch carries one rule span per attribute, in submission
        // order, then one attempt span per endpoint tried.
        for batch in &batches {
            assert_eq!(batch.get_attr("rules"), Some("3"));
            // The source's row: a failed exchange completed no bytes.
            let wire_bytes: u64 = batch.get_attr("wire_bytes").expect("rendered").parse().unwrap();
            assert_eq!(wire_bytes > 0, batch.outcome != SpanOutcome::Failed);
            let [rules @ .., attempt] = &batch.children[..] else {
                panic!("rules + one attempt expected under {}: {:?}", batch.name, batch.children)
            };
            let paths: Vec<_> = rules.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(paths, ["thing.product.a0", "thing.product.a1", "thing.product.a2"]);
            for rule in rules {
                assert_eq!(rule.kind, s2s::obs::SpanKind::Rule);
                assert_eq!(rule.get_attr("source"), Some(batch.name.as_str()));
                assert_eq!(rule.get_attr("values"), Some("1"));
            }
            assert_eq!(attempt.kind, s2s::obs::SpanKind::Attempt);
            ladder.push((batch.outcome, attempt.outcome));
        }
    }

    // The degradation ladder, in order.
    assert_eq!(
        ladder,
        [
            (SpanOutcome::Failed, SpanOutcome::Failed),
            (SpanOutcome::Ok, SpanOutcome::Ok),
            (SpanOutcome::Failed, SpanOutcome::BreakerRejected),
            (SpanOutcome::Ok, SpanOutcome::Ok),
        ]
    );
}

#[test]
fn root_children_never_outlast_the_root() {
    // Regression: the `map` span's wall time used to contain its
    // sibling `pushdown` span. A large source that the planner prunes
    // (no `a1` mapping for the required conjunct) makes planning — which
    // prices the pruned rule locally — dominate the query, so any
    // double-count pushes the children's sum past the root.
    let mut s2s = S2s::new(wide_ontology(2)).with_views().with_tracing();
    let mut db = Database::new("big");
    db.execute("CREATE TABLE t (a0 TEXT)").unwrap();
    for chunk in 0..20 {
        let rows: Vec<String> = (0..500).map(|i| format!("('v{chunk}-{i}')")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    }
    s2s.register_source("BIG", Connection::Database { db: Arc::new(db) }).unwrap();
    s2s.register_attribute(
        "thing.product.a0",
        ExtractionRule::Sql { query: "SELECT a0 FROM t".into(), column: "a0".into() },
        "BIG",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    for round in 0..5 {
        let outcome = s2s.query("SELECT product WHERE a1 = 'x'").unwrap();
        assert!(outcome.source("BIG").unwrap().pruned);
        let root = &outcome.trace.as_ref().expect("tracing on").root;
        assert!(root.children.iter().any(|s| s.kind == s2s::obs::SpanKind::Pushdown));
        let children: u64 = root.children.iter().map(|s| s.wall_us).sum();
        assert!(
            children <= root.wall_us,
            "round {round}: direct children sum to {children} us, root is {} us\n{}",
            root.wall_us,
            s2s::obs::render_tree(outcome.trace.as_ref().unwrap()),
        );
    }
}

#[test]
fn round_trips_exclude_breaker_rejections() {
    // GOOD: one attempt per query. DOWN: the first query burns the
    // retry budget (2 attempts); the second is breaker-rejected and
    // never reaches the wire.
    let tallies: Vec<(u64, u64)> = degraded_twice()
        .iter()
        .map(|outcome| {
            let (good, down) = (outcome.source("GOOD").unwrap(), outcome.source("DOWN").unwrap());
            assert_eq!(
                outcome.stats.round_trips,
                good.attempts + down.attempts,
                "round_trips counts wire attempts only, never breaker rejections"
            );
            (down.breaker_rejections, outcome.stats.round_trips)
        })
        .collect();
    assert_eq!(tallies, [(0, 3), (1, 1)]);
}

#[test]
fn exporters_round_trip_on_wide_workload() {
    let s2s = wide_traced(4, 3);
    let outcome = s2s.query("SELECT product").unwrap();
    let trace = outcome.trace.as_ref().expect("tracing on");

    // JSONL: parse back and re-render byte-identically.
    let jsonl = s2s::obs::render_jsonl(trace);
    let records = s2s::obs::parse_jsonl(&jsonl).expect("export must parse");
    assert_eq!(s2s::obs::render_jsonl_records(&records), jsonl);
    assert_eq!(records.len(), trace.spans().len());

    // Text tree: one line per span, root first.
    let tree = s2s::obs::render_tree(trace);
    assert_eq!(tree.lines().count(), trace.spans().len());
    assert!(tree.lines().next().unwrap().starts_with("query"));

    // Prometheus: a freshly-populated registry renders, parses, and
    // re-renders identically.
    s2s::obs::set_enabled(true);
    let s2s = wide_traced(4, 3);
    let _ = s2s.query("SELECT product").unwrap();
    let prom = s2s::obs::render_prometheus(s2s::obs::global());
    s2s::obs::set_enabled(false);
    let samples = s2s::obs::parse_prometheus(&prom).expect("snapshot must parse");
    assert!(!samples.is_empty());
}

#[test]
fn endpoint_attempt_histogram_has_nonzero_percentiles() {
    s2s::obs::set_enabled(true);
    let s2s = wide_traced(6, 4);
    let _ = s2s.query("SELECT product").unwrap();
    // The registry is process-global and shared with any concurrently
    // running test, so assert floors, not exact values.
    let h = s2s::obs::global().histogram(s2s::obs::names::SOURCE_EXCHANGE_SIM_US);
    s2s::obs::set_enabled(false);
    assert!(h.count() >= 6, "one exchange per batched source");
    assert!(h.p50() > 0.0, "WAN exchanges take tens of ms of sim time");
    assert!(h.p99() > 0.0);
    assert!(h.p99() >= h.p50());
}

/// One row `('x', 'y', a2)` in table `t` of a database named after `id`.
fn ledger_db(id: &str, a2: &str) -> Connection {
    let mut db = Database::new(id.to_lowercase());
    db.execute("CREATE TABLE t (a0 TEXT, a1 TEXT, a2 TEXT)").unwrap();
    db.execute(&format!("INSERT INTO t VALUES ('x', 'y', '{a2}')")).unwrap();
    Connection::Database { db: Arc::new(db) }
}

/// A traced engine with views over three WAN databases:
/// `DB` and `FLAKY` map `a0`–`a2`, `FLAKY`'s primary is down behind a
/// reliable replica (so each of its exchanges fails over), and `PRUNED`
/// maps only `a0` (so a condition on `a1` prunes it).
fn ledger_traced() -> S2s {
    let mut s2s = S2s::new(wide_ontology(3)).with_views().with_tracing();
    for (id, attrs, failure) in [
        ("DB", 3, FailureModel::reliable()),
        ("FLAKY", 3, FailureModel::unreachable()),
        ("PRUNED", 1, FailureModel::reliable()),
    ] {
        s2s.register_remote_source(id, ledger_db(id, "z"), CostModel::wan(), failure).unwrap();
        for j in 0..attrs {
            s2s.register_attribute(
                &format!("thing.product.a{j}"),
                ExtractionRule::Sql {
                    query: format!("SELECT a{j} FROM t"),
                    column: format!("a{j}"),
                },
                id,
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
    }
    s2s.add_source_replica("FLAKY", FailureModel::reliable()).unwrap();
    s2s
}

#[test]
fn the_trace_and_the_stats_render_the_ledger() {
    let s2s = ledger_traced();
    let query = "SELECT product WHERE a1 = 'y'";
    let cold = s2s.query(query).unwrap();
    let warm = s2s.query(query).unwrap();
    // `a2` changed: DB's `a0` and `a1` rules do not read it (their slices
    // advance), its `a2` rule does (refreshed); FLAKY is untouched.
    s2s.mutate_source("DB", ledger_db("DB", "w"), ChangeKind::RowUpdate, vec!["a2".into()])
        .unwrap();
    let mutated = s2s.query(query).unwrap();

    let row = |o: &QueryOutcome, id| o.source(id).expect("a row per source").clone();
    let db = [&cold, &warm, &mutated].map(|o| row(o, "DB"));
    let views = db.each_ref().map(|r| (r.view_hits, r.view_refreshes, r.feed_polls));
    assert_eq!(views, [(0, 0, 0), (3, 0, 0), (2, 1, 1)]);
    assert_eq!((row(&cold, "FLAKY").attempts, row(&cold, "FLAKY").failovers), (2, 1));
    assert_eq!(row(&mutated, "FLAKY").view_hits, 3, "served fresh");
    assert_eq!(row(&mutated, "FLAKY").attempts, 0);

    for outcome in [&cold, &warm, &mutated] {
        let (rows, s) = (&outcome.sources, &outcome.stats);
        let sum = |f: fn(&SourceLedger) -> u64| rows.iter().map(f).sum::<u64>();

        // Every per-source total of `QueryStats` is the rows summed.
        assert_eq!(s.tasks as u64, sum(|r| r.tasks as u64));
        assert_eq!(s.failed_tasks as u64, sum(|r| r.failed_tasks as u64));
        assert_eq!(s.round_trips, sum(|r| r.attempts));
        assert_eq!(s.wire_bytes, sum(|r| r.wire_bytes));
        assert_eq!(s.wire_response_bytes, sum(|r| r.wire_response_bytes));
        assert_eq!(s.view_hits, sum(|r| r.view_hits));
        assert_eq!(s.view_refreshes, sum(|r| r.view_refreshes));
        assert_eq!(s.view_full_refreshes, sum(|r| r.view_full_refreshes));
        assert_eq!(s.feed_polls, sum(|r| r.feed_polls));
        assert_eq!(Some(s.view_staleness), rows.iter().map(|r| r.view_staleness).max());
        assert_eq!(outcome.failovers(), sum(|r| r.failovers));

        // The pruned source was planned away whole and never dialled.
        let pruned = row(outcome, "PRUNED");
        assert!(pruned.pruned);
        assert_eq!((pruned.tasks, pruned.attempts, pruned.wire_bytes), (0, 0, 0));

        let root = &outcome.trace.as_ref().expect("tracing on").root;
        let completeness: f64 = root.get_attr("completeness").unwrap().parse().unwrap();
        let answered = sum(|r| (r.tasks - r.failed_tasks) as u64) as f64;
        assert_eq!(completeness, answered / sum(|r| r.tasks as u64) as f64);
        for (key, figure) in [
            ("tasks", sum(|r| r.tasks as u64)),
            ("failed_tasks", sum(|r| r.failed_tasks as u64)),
            ("round_trips", sum(|r| r.attempts)),
            ("view_hits", sum(|r| r.view_hits)),
            ("view_refreshes", sum(|r| r.view_refreshes)),
            ("view_full_refreshes", sum(|r| r.view_full_refreshes)),
        ] {
            let rendered = root.get_attr(key).map(|v| v.parse::<u64>().unwrap());
            let views_idle = key.starts_with("view_") && s.view_hits + s.view_refreshes == 0;
            assert_eq!(rendered, (!views_idle).then_some(figure), "root `{key}`");
        }
        assert_eq!(root.get_attr("deadline_hits"), None);
        assert_eq!(root.get_attr("hedges"), None);

        let pushdown = root.children.iter().find(|c| c.kind == SpanKind::Pushdown).unwrap();
        let pushed = sum(|r| r.pushed.len() as u64);
        assert_eq!(pushdown.get_attr("pushed_predicates"), Some(pushed.to_string().as_str()));
        assert_eq!(pushdown.get_attr("pruned_sources"), Some("1"));
        assert_eq!(pushdown.get_attr("pruned"), Some("PRUNED"));

        for batch in root.children.iter().filter(|c| c.kind == SpanKind::Batch) {
            let row = row(outcome, &batch.name);
            assert_eq!(batch.sim_us, row.wire_time.as_micros(), "{}", batch.name);
            let bytes = row.wire_bytes.to_string();
            assert_eq!(batch.get_attr("wire_bytes"), Some(bytes.as_str()), "{}", batch.name);
            let rules = (row.tasks as u64 - row.view_hits).to_string();
            assert_eq!(batch.get_attr("rules"), Some(rules.as_str()), "{}", batch.name);
        }
    }
    // The views hold slices whole: the wire-bound sources run unfiltered.
    let views = |o: &QueryOutcome| {
        let unfiltered = o.sources.iter().filter(|r| r.unfiltered == Some(Unfiltered::Views));
        unfiltered.map(|r| r.source.clone()).collect::<Vec<_>>()
    };
    assert_eq!(views(&cold), ["DB", "FLAKY"]);
    assert_eq!(views(&mutated), ["DB"]);
    assert!(cold.sources.iter().all(|r| r.pushed.is_empty()));
    assert!(warm.trace.unwrap().spans_of(SpanKind::Batch).is_empty(), "all slices fresh");
}

/// `outcome`'s trace as JSON lines, wall time masked.
fn shape(outcome: &QueryOutcome) -> String {
    mask_wall(&s2s::obs::render_jsonl(outcome.trace.as_ref().expect("tracing on")))
}

/// The six ways a query leaves the engine, each traced: fresh, a
/// plan-cache hit, a result-cache replay, shed at admission, planned
/// with a pruned source, and repeated from the views.
fn six_shapes() -> [(&'static str, QueryOutcome); 6] {
    let plain = wide_traced(2, 1);
    let fresh = plain.query("SELECT product").unwrap();
    let plan_hit = plain.query("SELECT product").unwrap();

    let cached = wide_traced(2, 1).with_result_cache();
    cached.query("SELECT product").unwrap();
    let replay = cached.query("SELECT product").unwrap();

    let gated = wide_traced(1, 1).with_admission(AdmissionConfig::with_permits(1));
    let slot = gated.admission().unwrap().admit("hog", None).unwrap();
    let opts = QueryOptions::default().with_deadline(SimDuration::from_millis(1));
    let shed = gated.query_with_options("SELECT product", &opts).unwrap();
    drop(slot);

    let planned = ledger_traced();
    let pruned = planned.query("SELECT product WHERE a1 = 'y'").unwrap();
    let view = planned.query("SELECT product WHERE a1 = 'y'").unwrap();
    [
        ("fresh", fresh),
        ("plan-cache hit", plan_hit),
        ("replay", replay),
        ("shed", shed),
        ("pruned", pruned),
        ("view", view),
    ]
}

/// Every path's masked trace, `== name` above each, as pinned in
/// `tests/golden/trace_shapes.txt`.
const SHAPES: &str = include_str!("golden/trace_shapes.txt");

#[test]
fn every_query_path_keeps_its_trace_shape() {
    let mut pinned = SHAPES.split("== ").skip(1);
    for (name, outcome) in six_shapes() {
        let expected = pinned.next().expect("one pinned shape per path");
        assert_eq!(format!("{name}\n{}", shape(&outcome)), expected, "the `{name}` trace moved");
    }
    assert_eq!(pinned.next(), None, "one path per pinned shape");
}

#[test]
fn the_stats_completeness_is_the_answers() {
    let mut s2s = ledger_traced();
    s2s.register_remote_source(
        "DOWN",
        ledger_db("DOWN", "z"),
        CostModel::wan(),
        FailureModel::unreachable(),
    )
    .unwrap();
    s2s.register_attribute(
        "thing.product.a1",
        ExtractionRule::Sql { query: "SELECT a1 FROM t".into(), column: "a1".into() },
        "DOWN",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    // `a2` is projected out; PRUNED maps no `a1`; DOWN fails; the
    // repeat is served from the views wherever the cold query extracted.
    let query = "SELECT product(a0) WHERE a1 = 'y'";
    let cold = s2s.query(query).unwrap();
    let warm = s2s.query(query).unwrap();
    assert!(warm.stats.view_hits > 0);
    for outcome in [&cold, &warm] {
        assert!(outcome.sources.iter().any(|r| r.pruned));
        assert!(outcome.sources.iter().any(|r| r.projected_out > 0));
        assert_eq!(outcome.source("DOWN").unwrap().failed_tasks, 1);
        let s = &outcome.stats;
        assert_eq!(s.completeness, (s.tasks - s.failed_tasks) as f64 / s.tasks as f64);
        assert_eq!(s.completeness, outcome.instances.completeness);
        assert!(s.completeness < 1.0);
    }
}
