//! The engine API the standalone `benchmark/` package calls, exercised
//! from tier-1. `benchmark/` sits outside the workspace and may not be
//! edited by engine PRs, so a change that breaks it would otherwise
//! surface only in the separate `benchmark-quick` CI job. This file uses
//! exactly the allow-list of `benchmark/README.md` § "The API the
//! benchmark calls" — same paths, same signatures, same struct-literal
//! shapes — and nothing else of the engine.

use std::sync::Arc;

use s2s::core::extract::{
    extract_one, AttributeResult, ExtractionReport, ExtractorManager, Strategy,
};
use s2s::core::instance::{self, InstanceSet, OutputFormat};
use s2s::core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s::core::middleware::QueryOutcome;
use s2s::core::query;
use s2s::core::source::{Connection, SourceRegistry};
use s2s::core::S2s;
use s2s::minidb::Database;
use s2s::netsim::{ChangeKind, CostModel, FailureModel, SimDuration};
use s2s::owl::{AttributePath, Ontology};

fn ontology() -> Ontology {
    Ontology::builder("http://example.org/schema#")
        .class("Product", None)
        .unwrap()
        .datatype_property("brand", "Product", "http://www.w3.org/2001/XMLSchema#string")
        .unwrap()
        .build()
        .unwrap()
}

fn connection(brand: &str) -> Connection {
    let mut db = Database::new("catalog");
    db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT)").unwrap();
    db.execute(&format!("INSERT INTO w VALUES (1, '{brand}'), (2, 'Casio')")).unwrap();
    Connection::Database { db: Arc::new(db) }
}

fn brand_rule() -> ExtractionRule {
    ExtractionRule::Sql { query: "SELECT brand FROM w ORDER BY id".into(), column: "brand".into() }
}

const BRAND: &str = "thing.product.brand";
const QUERY: &str = "SELECT product WHERE brand='Seiko'";

#[test]
fn end_to_end_allow_list() {
    let mut engine = S2s::new(ontology())
        .with_strategy(Strategy::Parallel { workers: 2 })
        .with_result_cache()
        .with_views();
    engine.register_source("LOCAL", connection("Seiko")).unwrap();
    engine
        .register_remote_source(
            "REMOTE",
            connection("Seiko"),
            CostModel::wan(),
            FailureModel::reliable(),
        )
        .unwrap();
    for source in ["LOCAL", "REMOTE"] {
        engine
            .register_attribute(BRAND, brand_rule(), source, RecordScenario::MultiRecord)
            .unwrap();
    }

    let first: QueryOutcome = engine.query(QUERY).unwrap();
    assert!(first.errors().is_empty());
    assert_eq!(first.individuals().len(), 2);
    assert!(
        first.instances.graph.len() >= 2 * first.individuals().len(),
        "a type and a brand each"
    );
    assert!(first.render(engine.ontology(), OutputFormat::OwlRdfXml).contains("Seiko"));
    assert!(first.render(engine.ontology(), OutputFormat::Turtle).contains("Seiko"));
    // The `outcome.stats` fields the benchmark reads.
    let stats = &first.stats;
    assert!(stats.simulated > SimDuration::ZERO);
    assert!(stats.simulated <= stats.simulated_serial);
    assert_eq!(stats.round_trips, 2);
    assert!(stats.wire_bytes > 0);
    assert_eq!((stats.result_cache.hits, stats.plan_cache.hits, stats.view_hits), (0, 0, 0));

    let replayed = engine.query(QUERY).unwrap();
    assert_eq!(replayed.stats.result_cache.hits, 1);

    engine
        .mutate_source("REMOTE", connection("Orient"), ChangeKind::RowUpdate, vec!["brand".into()])
        .unwrap();
    let after = engine.query(QUERY).unwrap();
    assert_eq!(after.stats.plan_cache.hits, 1);
    assert_eq!(after.stats.view_hits, 1, "the untouched source is view-served");
    assert_eq!(after.individuals().len(), 1);
}

#[test]
fn per_layer_allow_list() {
    let ontology = ontology();
    let mut registry = SourceRegistry::new();
    registry.register_local("LOCAL", connection("Seiko")).unwrap();
    registry
        .register_remote("REMOTE", connection("Seiko"), CostModel::wan(), FailureModel::reliable())
        .unwrap();
    let mut mappings = MappingModule::new();
    for source in ["LOCAL", "REMOTE"] {
        mappings
            .register(
                &ontology,
                BRAND.parse().unwrap(),
                brand_rule(),
                source.into(),
                RecordScenario::MultiRecord,
            )
            .unwrap();
    }

    assert_eq!(query::normalize("select  product"), query::normalize("SELECT product"));
    let parsed = query::parse(QUERY).unwrap();
    let plan = query::plan(&parsed, &ontology).unwrap();
    let mapped: Vec<AttributePath> =
        plan.attributes.iter().filter(|p| mappings.contains(p)).cloned().collect();
    assert_eq!(mappings.mappings_for(&mapped[0]).len(), 2);
    let schemas = ExtractorManager::obtain_schemas(&mappings, &mapped).unwrap();
    let results: Vec<AttributeResult> = schemas
        .into_iter()
        .map(|schema| {
            assert_eq!(schema.mapping.rule().language(), "sql");
            let (values, elapsed) = extract_one(&registry, &schema.mapping).unwrap();
            AttributeResult { mapping: schema.mapping, values, elapsed }
        })
        .collect();
    assert!(results.iter().any(|r| r.elapsed > SimDuration::ZERO), "the remote leg costs time");
    let report = ExtractionReport { results, ..Default::default() };
    let set: InstanceSet = instance::generate(&ontology, &plan, &report);
    assert_eq!(set.individuals.len(), 2);
    assert!(instance::render(&set, &ontology, OutputFormat::Turtle).contains("Seiko"));
}
