//! Distributed-systems behaviour: remote sources, parallel mediation,
//! failure injection, determinism.

use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::netsim::{CostModel, FailureModel};
use s2s::owl::Ontology;
use s2s::S2s;

fn ontology() -> Ontology {
    Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap()
}

fn sharded(n: usize, strategy: Strategy, failure: FailureModel) -> S2s {
    let mut s2s = S2s::new(ontology()).with_strategy(strategy);
    for i in 0..n {
        let mut db = Database::new(format!("shard{i}"));
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, brand TEXT)").unwrap();
        db.execute(&format!("INSERT INTO p VALUES (1, 'Brand-{i:02}')")).unwrap();
        let id = format!("S{i:02}");
        s2s.register_remote_source(
            &id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            failure,
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.brand",
            ExtractionRule::Sql { query: "SELECT brand FROM p".into(), column: "brand".into() },
            &id,
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    s2s
}

#[test]
fn parallel_makespan_below_serial_with_many_sources() {
    let s2s = sharded(16, Strategy::Parallel { workers: 16 }, FailureModel::reliable());
    let outcome = s2s.query("SELECT product").unwrap();
    assert_eq!(outcome.individuals().len(), 16);
    // With 16 workers over 16 WAN calls, simulated time ≈ the slowest
    // call, far below the serial sum.
    assert!(outcome.stats.simulated.as_micros() * 4 < outcome.stats.simulated_serial.as_micros());
}

#[test]
fn serial_strategy_reports_equal_makespans() {
    let s2s = sharded(8, Strategy::Parallel { workers: 1 }, FailureModel::reliable());
    let outcome = s2s.query("SELECT product").unwrap();
    assert_eq!(outcome.stats.simulated, outcome.stats.simulated_serial);
}

#[test]
fn worker_count_caps_speedup() {
    let two = sharded(16, Strategy::Parallel { workers: 2 }, FailureModel::reliable());
    let sixteen = sharded(16, Strategy::Parallel { workers: 16 }, FailureModel::reliable());
    let o2 = two.query("SELECT product").unwrap();
    let o16 = sixteen.query("SELECT product").unwrap();
    // Same tasks, same endpoints (same seeds) → identical serial totals.
    assert_eq!(o2.stats.simulated_serial, o16.stats.simulated_serial);
    // More workers → no worse makespan.
    assert!(o16.stats.simulated <= o2.stats.simulated);
    // Two workers cannot beat half the serial time.
    assert!(o2.stats.simulated.as_micros() * 2 >= o2.stats.simulated_serial.as_micros());
}

#[test]
fn failure_injection_yields_partial_results() {
    let s2s = sharded(32, Strategy::Parallel { workers: 8 }, FailureModel::flaky(0.5));
    let outcome = s2s.query("SELECT product").unwrap();
    let ok = outcome.individuals().len();
    let failed = outcome.stats.failed_tasks;
    assert_eq!(ok + failed, 32);
    assert!(ok > 0, "everything failed");
    assert!(failed > 0, "nothing failed at p=0.5 over 32 sources");
    // Every failure names its source and attribute.
    for e in outcome.errors() {
        assert!(e.source.starts_with('S'));
        assert_eq!(e.attribute, "thing.product.brand");
    }
}

#[test]
fn failures_are_deterministic_per_deployment() {
    let run = || {
        let s2s = sharded(16, Strategy::Parallel { workers: 1 }, FailureModel::flaky(0.4));
        let outcome = s2s.query("SELECT product").unwrap();
        let mut failed: Vec<String> = outcome.errors().iter().map(|e| e.source.clone()).collect();
        failed.sort();
        failed
    };
    assert_eq!(run(), run());
}

#[test]
fn parallel_and_serial_agree_on_results_under_failures() {
    let serial = sharded(16, Strategy::Parallel { workers: 1 }, FailureModel::flaky(0.3));
    let parallel = sharded(16, Strategy::Parallel { workers: 8 }, FailureModel::flaky(0.3));
    let a = serial.query("SELECT product").unwrap();
    let b = parallel.query("SELECT product").unwrap();
    // Endpoints are seeded per source id, so the same calls fail.
    let key = |o: &s2s::core::middleware::QueryOutcome| {
        let mut v: Vec<&str> = o.individuals().iter().map(|i| &*i.source).collect();
        v.sort();
        v.join(",")
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn lan_cheaper_than_wan() {
    let mut lan = S2s::new(ontology());
    let mut wan = S2s::new(ontology());
    for (s2s, cost) in [(&mut lan, CostModel::lan()), (&mut wan, CostModel::wan())] {
        let mut db = Database::new("d");
        db.execute("CREATE TABLE p (brand TEXT)").unwrap();
        db.execute("INSERT INTO p VALUES ('X')").unwrap();
        s2s.register_remote_source(
            "S",
            Connection::Database { db: Arc::new(db) },
            cost,
            FailureModel::reliable(),
        )
        .unwrap();
        s2s.register_attribute(
            "thing.product.brand",
            ExtractionRule::Sql { query: "SELECT brand FROM p".into(), column: "brand".into() },
            "S",
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    let t_lan = lan.query("SELECT product").unwrap().stats.simulated;
    let t_wan = wan.query("SELECT product").unwrap().stats.simulated;
    assert!(t_lan < t_wan, "lan {t_lan} !< wan {t_wan}");
}

#[test]
fn local_sources_cost_nothing() {
    let mut s2s = S2s::new(ontology());
    let mut db = Database::new("d");
    db.execute("CREATE TABLE p (brand TEXT)").unwrap();
    db.execute("INSERT INTO p VALUES ('X')").unwrap();
    s2s.register_source("L", Connection::Database { db: Arc::new(db) }).unwrap();
    s2s.register_attribute(
        "thing.product.brand",
        ExtractionRule::Sql { query: "SELECT brand FROM p".into(), column: "brand".into() },
        "L",
        RecordScenario::MultiRecord,
    )
    .unwrap();
    let outcome = s2s.query("SELECT product").unwrap();
    assert_eq!(outcome.stats.simulated.as_micros(), 0);
}
