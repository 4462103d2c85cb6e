//! The syntactic-only baseline integrator.
//!
//! The paper's motivation (§1, §5): "most current middleware only covers
//! syntactical integration and it has been recognized that semantics are
//! an indispensable approach to support and enhance integration." To
//! make that comparison measurable (experiment E8), this module
//! implements the alternative: a point-to-point integrator where the
//! developer hand-writes one raw query per source and merges the string
//! results, with no shared ontology, no unit/nomenclature resolution,
//! and no schema alignment.
//!
//! What it shows, quantitatively:
//!
//! * **glue count** — the baseline needs `sources × fields` hand-written
//!   accessors *per consuming query shape*, while S2S registers
//!   `sources × fields` mappings once and serves any S2SQL query;
//! * **heterogeneity errors** — the baseline returns raw, conflicting
//!   representations (e.g. `Seiko` vs `SEIKO-JP`, EUR vs USD) that the
//!   semantic layer's per-source rules normalize at mapping time.

use s2s_netsim::SimDuration;

use crate::error::S2sError;
use crate::extract::{extract_one, Values};
use crate::mapping::{AttributeMapping, ExtractionRule, MappingModule, RecordScenario};
use crate::source::{SourceId, SourceRegistry};

/// One hand-written accessor: a raw rule aimed at one source, labelled
/// with whatever field name that source uses.
#[derive(Debug, Clone, PartialEq)]
pub struct GlueRule {
    /// The source to hit.
    pub source: SourceId,
    /// The source's own field label (not aligned with anything).
    pub field: String,
    /// The raw extraction rule.
    pub rule: ExtractionRule,
}

/// A merged record from the baseline: field labels as each source names
/// them, values as each source formats them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawRecord {
    /// `(field label, raw value)` pairs in rule order.
    pub fields: Vec<(String, String)>,
    /// Which source produced it.
    pub source: String,
}

/// The baseline's result: unaligned records plus cost accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BaselineResult {
    /// Records, grouped per source in registration order.
    pub records: Vec<RawRecord>,
    /// Errors encountered (one per failing rule).
    pub errors: Vec<(String, String)>,
    /// Total simulated time (the baseline runs serially — no mediator).
    pub simulated: SimDuration,
}

/// The syntactic integrator.
#[derive(Debug, Clone, Default)]
pub struct SyntacticIntegrator {
    glue: Vec<GlueRule>,
}

impl SyntacticIntegrator {
    /// An integrator with no glue yet.
    pub fn new() -> Self {
        SyntacticIntegrator::default()
    }

    /// Adds a hand-written accessor.
    pub fn add_rule(
        &mut self,
        source: impl Into<SourceId>,
        field: impl Into<String>,
        rule: ExtractionRule,
    ) -> &mut Self {
        self.glue.push(GlueRule { source: source.into(), field: field.into(), rule });
        self
    }

    /// Lines-of-glue proxy: the number of hand-written accessors.
    pub fn glue_count(&self) -> usize {
        self.glue.len()
    }

    /// Runs every accessor and merges results per source by position —
    /// all the alignment a syntactic integrator can do.
    pub fn run(&self, registry: &SourceRegistry) -> BaselineResult {
        let mut result = BaselineResult::default();

        // Group rules per source, preserving order.
        let mut sources: Vec<SourceId> = Vec::new();
        for g in &self.glue {
            if !sources.contains(&g.source) {
                sources.push(g.source.clone());
            }
        }

        for source in sources {
            let rules: Vec<&GlueRule> = self.glue.iter().filter(|g| g.source == source).collect();
            let mut columns: Vec<(String, Values)> = Vec::new();
            for g in &rules {
                match run_raw(registry, g) {
                    Ok((values, elapsed)) => {
                        result.simulated += elapsed;
                        columns.push((g.field.clone(), values));
                    }
                    Err(e) => {
                        result.errors.push((g.source.to_string(), e.to_string()));
                    }
                }
            }
            let records = columns.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
            for i in 0..records {
                let fields = columns
                    .iter()
                    .filter_map(|(f, v)| v.get(i).map(|x| (f.clone(), x.to_string())))
                    .collect();
                result.records.push(RawRecord { fields, source: source.to_string() });
            }
        }
        result
    }
}

/// Runs one glue rule through a throwaway mapping so the same wrappers
/// and endpoints are exercised — the baseline differs in *architecture*
/// (no ontology, no mediation), not in wrapper quality.
fn run_raw(registry: &SourceRegistry, glue: &GlueRule) -> Result<(Values, SimDuration), S2sError> {
    // A minimal throwaway ontology to host the mapping machinery.
    let onto = s2s_owl::Ontology::builder("http://baseline.invalid/#")
        .class("R", None)?
        .datatype_property("f", "R", s2s_rdf::vocab::xsd::STRING)?
        .build()?;
    let mut module = MappingModule::new();
    module.register(
        &onto,
        "thing.r.f".parse().map_err(S2sError::Owl)?,
        glue.rule.clone(),
        glue.source.clone(),
        RecordScenario::MultiRecord,
    )?;
    let mapping: &AttributeMapping = module.iter().next().expect("just registered");
    extract_one(registry, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Connection;
    use s2s_minidb::Database;
    use std::sync::Arc;

    fn registry() -> SourceRegistry {
        let mut db1 = Database::new("org1");
        db1.execute("CREATE TABLE products (pid INTEGER PRIMARY KEY, brand TEXT, price_usd REAL)")
            .unwrap();
        db1.execute("INSERT INTO products VALUES (1,'Seiko',129.99)").unwrap();

        let mut db2 = Database::new("org2");
        db2.execute("CREATE TABLE artikel (nr INTEGER PRIMARY KEY, marke TEXT, preis_eur REAL)")
            .unwrap();
        db2.execute("INSERT INTO artikel VALUES (7,'SEIKO-JP',118.5)").unwrap();

        let mut r = SourceRegistry::new();
        r.register_local("ORG1", Connection::Database { db: Arc::new(db1) }).unwrap();
        r.register_local("ORG2", Connection::Database { db: Arc::new(db2) }).unwrap();
        r
    }

    #[test]
    fn baseline_returns_conflicting_raw_fields() {
        let r = registry();
        let mut b = SyntacticIntegrator::new();
        b.add_rule(
            "ORG1",
            "brand",
            ExtractionRule::Sql {
                query: "SELECT brand FROM products".into(),
                column: "brand".into(),
            },
        );
        b.add_rule(
            "ORG2",
            "marke",
            ExtractionRule::Sql {
                query: "SELECT marke FROM artikel".into(),
                column: "marke".into(),
            },
        );
        let out = b.run(&r);
        assert_eq!(out.records.len(), 2);
        // The baseline exposes the heterogeneity: same manufacturer, two
        // labels, two field names.
        let values: Vec<&str> = out.records.iter().map(|rec| rec.fields[0].1.as_str()).collect();
        assert!(values.contains(&"Seiko"));
        assert!(values.contains(&"SEIKO-JP"));
        let fields: Vec<&str> = out.records.iter().map(|rec| rec.fields[0].0.as_str()).collect();
        assert!(fields.contains(&"brand"));
        assert!(fields.contains(&"marke"));
    }

    #[test]
    fn glue_count_scales_with_sources_times_fields() {
        let mut b = SyntacticIntegrator::new();
        for src in ["ORG1", "ORG2", "ORG3"] {
            for field in ["brand", "price", "case"] {
                b.add_rule(
                    src,
                    field,
                    ExtractionRule::Sql { query: "SELECT 1".into(), column: "x".into() },
                );
            }
        }
        assert_eq!(b.glue_count(), 9);
    }

    #[test]
    fn per_source_positional_merge() {
        let r = registry();
        let mut b = SyntacticIntegrator::new();
        b.add_rule(
            "ORG1",
            "brand",
            ExtractionRule::Sql {
                query: "SELECT brand FROM products".into(),
                column: "brand".into(),
            },
        );
        b.add_rule(
            "ORG1",
            "price_usd",
            ExtractionRule::Sql {
                query: "SELECT price_usd FROM products".into(),
                column: "price_usd".into(),
            },
        );
        let out = b.run(&r);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].fields.len(), 2);
    }

    #[test]
    fn errors_recorded_not_fatal() {
        let r = registry();
        let mut b = SyntacticIntegrator::new();
        b.add_rule(
            "ORG1",
            "bad",
            ExtractionRule::Sql {
                query: "SELECT nope FROM products".into(),
                column: "nope".into(),
            },
        );
        b.add_rule(
            "ORG1",
            "brand",
            ExtractionRule::Sql {
                query: "SELECT brand FROM products".into(),
                column: "brand".into(),
            },
        );
        let out = b.run(&r);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.records.len(), 1);
    }
}
