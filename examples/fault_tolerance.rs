//! Partial results under source failure — and the resilience layer
//! that claws completeness back.
//!
//! The paper's Instance Generator "is responsible for providing
//! information about any error that has occurred during the extraction
//! process or in the query" (§2). This example puts half the sources
//! behind flaky simulated endpoints and runs the same query twice:
//!
//! 1. with no resilience: good sources answer, failed extractions are
//!    reported per attribute and per source, completeness < 1;
//! 2. with a `ResiliencePolicy` — three-attempt retry with exponential
//!    backoff, failover onto a replica endpoint, and a circuit breaker
//!    per endpoint — showing the degraded-mode report recovering.
//!
//! Run with: `cargo run --example fault_tolerance`

use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::core::ResiliencePolicy;
use s2s::minidb::Database;
use s2s::netsim::{BreakerConfig, CostModel, FailureModel, RetryPolicy, SimDuration};
use s2s::owl::Ontology;
use s2s::S2s;

fn deploy(policy: ResiliencePolicy) -> Result<S2s, Box<dyn std::error::Error>> {
    let ontology = Ontology::builder("http://example.org/schema#")
        .class("Product", None)?
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")?
        .build()?;

    let mut s2s =
        S2s::new(ontology).with_strategy(Strategy::Parallel { workers: 8 }).with_resilience(policy);

    // Sixteen remote shards; even-numbered ones are badly flaky, but
    // every flaky shard also has one reliable replica to fail over to.
    for i in 0..16 {
        let mut db = Database::new(format!("shard{i}"));
        db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, brand TEXT)")?;
        db.execute(&format!("INSERT INTO p VALUES (1, 'Brand-{i:02}')"))?;
        let id = format!("SHARD_{i:02}");
        let connection = Connection::Database { db: Arc::new(db) };
        let flaky = i % 2 == 0;
        let failure = if flaky { FailureModel::flaky(0.95) } else { FailureModel::reliable() };
        s2s.register_remote_source(&id, connection, CostModel::wan(), failure)?;
        if flaky {
            s2s.add_source_replica(&id, FailureModel::reliable())?;
        }
        s2s.register_attribute(
            "thing.product.brand",
            ExtractionRule::Sql { query: "SELECT brand FROM p".into(), column: "brand".into() },
            &id,
            RecordScenario::MultiRecord,
        )?;
    }
    Ok(s2s)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Round 1 — no retries, no failover: degraded results.
    let fragile = deploy(ResiliencePolicy::none())?;
    let outcome = fragile.query("SELECT product")?;
    println!(
        "without resilience: {} of 16 shards answered, completeness {:.2}",
        outcome.individuals().len(),
        outcome.stats.completeness
    );
    for err in outcome.errors() {
        println!("  FAIL {} / {} → {}", err.source, err.attribute, err.error);
    }

    // Round 2 — retry + replica failover + circuit breakers.
    let policy = ResiliencePolicy::default()
        .with_retry(RetryPolicy::attempts(3).with_backoff(
            SimDuration::from_millis(20),
            2,
            SimDuration::from_millis(500),
        ))
        .with_breaker(BreakerConfig::new(5, SimDuration::from_millis(10_000)));
    let resilient = deploy(policy)?;
    let outcome = resilient.query("SELECT product")?;
    println!(
        "\nwith resilience:    {} of 16 shards answered, completeness {:.2}",
        outcome.individuals().len(),
        outcome.stats.completeness
    );
    println!(
        "                    {} retries, {} failovers across the fleet",
        outcome.retries(),
        outcome.failovers()
    );
    println!("\nper-source degraded-mode report (flaky shards only):");
    println!(
        "  {:<10} {:>8} {:>8} {:>10} {:>9}",
        "source", "attempts", "retries", "failovers", "breaker"
    );
    for (source, health) in &outcome.resilience {
        if health.attempts > health.tasks as u64 {
            println!(
                "  {:<10} {:>8} {:>8} {:>10} {:>9}",
                source,
                health.attempts,
                health.retries,
                health.failovers,
                health.breaker_state.map_or("-".into(), |s| s.to_string()),
            );
        }
    }
    println!(
        "\nsimulated completion: {} (parallel) vs {} (serial would have been)",
        outcome.stats.simulated, outcome.stats.simulated_serial
    );
    Ok(())
}
