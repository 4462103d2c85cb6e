//! Dispatch under `Strategy::Parallel`: concurrent callers contend for
//! the engine's k lanes, and no thread stands behind them. A file — a
//! process — of its own: the thread count of `/proc/self/status` belongs
//! to the whole test binary, so this check cannot sit beside the
//! thread-spawning tests of `tests/engine.rs`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::minidb::Database;
use s2s::netsim::{makespan, CostModel, FailureModel, SimDuration};
use s2s::owl::Ontology;
use s2s::S2s;

/// 1 000 wall us per simulated ms: a paced wait equals its charge.
const PACE: u64 = 1_000;

/// Live threads of this process.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).unwrap();
    line.trim().parse().unwrap()
}

/// Two remote DB sources, each one flat 5 ms exchange per query (no
/// jitter, no per-byte cost), dispatched two at a time.
fn deploy() -> S2s {
    let ontology = Ontology::builder("http://dispatch.example/schema#")
        .class("Watch", None)
        .unwrap()
        .datatype_property("brand", "Watch", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap();
    let flat = CostModel::new(SimDuration::from_millis(5), SimDuration::ZERO, 0).with_pace(PACE);
    let mut s2s = S2s::new(ontology).with_strategy(Strategy::Parallel { workers: 2 });
    for id in ["DB_A", "DB_B"] {
        let mut db = Database::new(id);
        db.execute("CREATE TABLE w (brand TEXT)").unwrap();
        db.execute("INSERT INTO w VALUES ('Seiko')").unwrap();
        let connection = Connection::Database { db: Arc::new(db) };
        s2s.register_remote_source(id, connection, flat, FailureModel::reliable()).unwrap();
        s2s.register_attribute(
            "thing.watch.brand",
            ExtractionRule::Sql { query: "SELECT brand FROM w".into(), column: "brand".into() },
            id,
            RecordScenario::MultiRecord,
        )
        .unwrap();
    }
    s2s
}

#[test]
fn parallel_callers_queue_for_the_engines_lanes_and_no_thread_serves_them() {
    #[cfg(target_os = "linux")]
    let before = threads();
    let engine = deploy();
    let alone = Instant::now();
    let first = engine.query("SELECT watch").unwrap();
    let alone = alone.elapsed();
    #[cfg(target_os = "linux")]
    assert_eq!(threads(), before, "building and querying the engine spawned a thread");

    // Two exchanges on two lanes: an uncontended query waits for one.
    assert_eq!(first.individuals().len(), 2);
    let wait = first.stats.simulated;
    assert_eq!((wait, first.stats.simulated_serial), (SimDuration::from_millis(5), wait + wait));
    assert!(alone >= Duration::from_micros(wait.as_micros() * PACE / 1_000));

    // Four concurrent callers book eight equal waits onto the same two
    // lanes, so whatever order they arrive in, the last of them cannot
    // finish before the 2-lane makespan of all eight. Were the slots not
    // shared, the four sleeps would overlap and end after one `wait`.
    let started = Instant::now();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> =
            (0..4).map(|_| scope.spawn(|| engine.query("SELECT watch").unwrap())).collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    let contended = started.elapsed();
    let waits: Vec<SimDuration> = outcomes
        .iter()
        .flat_map(|o| {
            [o.stats.simulated, o.stats.simulated_serial.saturating_sub(o.stats.simulated)]
        })
        .collect();
    assert_eq!(waits, [wait; 8], "equal waits make the bound independent of arrival order");
    let owed = makespan(&waits, 2);
    assert_eq!(owed, SimDuration::from_millis(20));
    assert!(
        contended >= Duration::from_micros(owed.as_micros() * PACE / 1_000),
        "four callers finished in {contended:?}, inside the 2-lane makespan {owed}"
    );
}
