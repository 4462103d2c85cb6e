//! The database extractor: SQL rules over a [`Database`].

use std::sync::Arc;

use s2s_minidb::sql::ast::SelectItem;
use s2s_minidb::{CmpOp, ColumnRef, DataType, Database, Expr, Operand, SelectStmt, Value};

use super::{compiled_by, value_field, CompiledRule, Pushed, Wrapper};
use crate::bootstrap::{SchemaField, SchemaSummary};
use crate::error::S2sError;
use crate::extract::Values;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::{CondOp, ResolvedCondition};
use crate::source::SourceKind;

/// A database source.
pub(super) struct Db<'a>(pub(super) &'a Database);

/// Value samples kept per introspected column.
const MAX_SAMPLES: usize = 8;

/// 2^53: every integer below it in magnitude is an exact `f64`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

impl Wrapper for Db<'_> {
    fn kind(&self) -> SourceKind {
        SourceKind::Database
    }

    fn compile(&self, rule: &ExtractionRule) -> Option<Result<CompiledRule, S2sError>> {
        let ExtractionRule::Sql { query, column } = rule else { return None };
        let stmt = Database::prepare_select(query).map_err(S2sError::from);
        Some(stmt.map(|stmt| CompiledRule::Sql { stmt: Arc::new(stmt), column: column.clone() }))
    }

    /// The non-NULL values of the result column, each formatted in place
    /// from the stored row.
    fn run(&self, rule: &CompiledRule, values: &mut Values) -> Option<Result<(), S2sError>> {
        let CompiledRule::Sql { stmt, column } = rule else { return None };
        let each = |v: &Value| {
            values.push_with(|text| v.write_to(text).expect("writing to a String cannot fail"))
        };
        Some(self.0.query_column_each(stmt, column, each).map_err(S2sError::from))
    }

    /// Every kept rule must scan one column of the same table in the same
    /// order; a conjunct becomes a typed `WHERE` term when the column type
    /// reproduces the mediator's numeric-else-string comparison.
    fn push<'c>(
        &self,
        group: &[&AttributeMapping],
        kept: &[&AttributeMapping],
        conjuncts: &[&'c ResolvedCondition],
    ) -> Option<Pushed<'c>> {
        let mut stmts: Vec<(&SelectStmt, &str)> = Vec::with_capacity(kept.len());
        for m in kept {
            let Ok(CompiledRule::Sql { stmt, column }) = compiled_by(self, m) else { return None };
            if !stmt.pushdown_eligible() {
                return None;
            }
            stmts.push((stmt, column));
        }
        let (first, _) = stmts.first()?;
        if stmts.iter().any(|(s, _)| s.table != first.table || s.order_by != first.order_by) {
            return None;
        }
        let table = self.0.table(&first.table)?.schema();

        let mut exprs = Vec::new();
        let mut pushed = Vec::new();
        for &c in conjuncts {
            // The guard may be a column the projection dropped.
            let Some(column) = value_field(self, group, &c.property) else { continue };
            let Some(idx) = table.column_index(column) else { continue };
            let number = c.value().parse::<f64>().ok();
            let expr = match (table.columns()[idx].data_type(), c.op(), number) {
                // LIKE is text pattern matching on both sides.
                (DataType::Text, CondOp::Like, _) => Expr::Like {
                    column: ColumnRef::new(column),
                    pattern: c.value().to_string(),
                    negated: false,
                },
                // Numeric column + numeric literal: SQL compares like the
                // mediator's f64 path, for a literal SQL can spell (`inf`,
                // `NaN` re-parse as columns) and `f64` holds exactly.
                (DataType::Integer | DataType::Real, op, Some(n)) if n.abs() < MAX_EXACT => {
                    let value = c.value().parse::<i64>().map_or(Value::Float(n), Value::Int);
                    Expr::Compare {
                        left: ColumnRef::new(column),
                        op: cmp_of(op)?,
                        right: Operand::Literal(value),
                    }
                }
                // Text column + non-numeric literal: both compare strings
                // (a numeric one the mediator compares as a number).
                (DataType::Text, op, None) => Expr::Compare {
                    left: ColumnRef::new(column),
                    op: cmp_of(op)?,
                    right: Operand::Literal(Value::Text(c.value().to_string())),
                },
                _ => continue,
            };
            pushed.push(c);
            exprs.push(expr);
        }
        if exprs.is_empty() {
            return None;
        }
        let rules = stmts
            .into_iter()
            .map(|(stmt, column)| {
                let pushed = exprs.iter().cloned().fold(stmt.clone(), |s, e| s.and_predicate(e));
                ExtractionRule::Sql { query: pushed.to_sql(), column: column.to_string() }
            })
            .collect();
        Some((rules, pushed))
    }

    /// The result column, then every column the statement names. A join,
    /// `*` or an aggregate may read anything.
    fn reads<'r>(&self, rule: &'r CompiledRule, read: &mut dyn FnMut(&'r str)) -> bool {
        let CompiledRule::Sql { stmt, column } = rule else { return false };
        if !stmt.joins.is_empty() || stmt.projection.is_empty() || stmt.has_aggregates() {
            return false;
        }
        read(column);
        let mut read = |c: &'r ColumnRef| read(&c.column);
        stmt.projection.iter().for_each(|item| {
            if let SelectItem::Column(c) = item {
                read(c);
            }
        });
        stmt.group_by.iter().chain(stmt.order_by.iter().map(|(c, _)| c)).for_each(&mut read);
        if let Some(predicate) = &stmt.predicate {
            predicate_columns(predicate, &mut read);
        }
        true
    }

    /// `CREATE TABLE` metadata: one field per column of every table, read
    /// in primary-key order when the table declares one.
    fn introspect(&self, _source: &str) -> Result<SchemaSummary, S2sError> {
        let mut schemas = self.0.schemas().peekable();
        let mut summary = SchemaSummary {
            kind: SourceKind::Database,
            container: schemas.peek().map(|s| s.name().to_string()).unwrap_or_default(),
            records: 0,
            fields: Vec::new(),
            scenario: RecordScenario::MultiRecord,
        };
        for schema in schemas {
            let (name, columns) = (schema.name(), schema.columns());
            let table = self.0.table(name).expect("schema from this database");
            summary.records = summary.records.max(table.len());
            let pk = schema.primary_key_index();
            let order_by =
                pk.map(|i| format!(" ORDER BY {}", columns[i].name())).unwrap_or_default();
            for (ci, col) in columns.iter().enumerate() {
                let query = format!("SELECT {} FROM {name}{order_by}", col.name());
                let samples = table.scan().take(MAX_SAMPLES).map(|(_, row)| row[ci].to_string());
                summary.fields.push(SchemaField {
                    name: col.name().to_string(),
                    hint: None,
                    samples: samples.collect(),
                    declared_numeric: Some(col.data_type() != DataType::Text),
                    primary_key: col.primary_key(),
                    rule: ExtractionRule::Sql { query, column: col.name().to_string() },
                });
            }
        }
        Ok(summary)
    }
}

/// Hands `read` every column `expr` tests (the parser caps its height).
fn predicate_columns<'r>(expr: &'r Expr, read: &mut impl FnMut(&'r ColumnRef)) {
    match expr {
        Expr::Compare { left, right, .. } => {
            read(left);
            if let Operand::Column(c) = right {
                read(c);
            }
        }
        Expr::Like { column, .. } | Expr::IsNull { column, .. } => read(column),
        Expr::And(a, b) | Expr::Or(a, b) => {
            predicate_columns(a, read);
            predicate_columns(b, read);
        }
        Expr::Not(e) => predicate_columns(e, read),
    }
}

fn cmp_of(op: CondOp) -> Option<CmpOp> {
    match op {
        CondOp::Eq => Some(CmpOp::Eq),
        CondOp::Ne => Some(CmpOp::Ne),
        CondOp::Lt => Some(CmpOp::Lt),
        CondOp::Le => Some(CmpOp::Le),
        CondOp::Gt => Some(CmpOp::Gt),
        CondOp::Ge => Some(CmpOp::Ge),
        CondOp::Like => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{extract, read_set};
    use super::*;
    use crate::mapping::RecordScenario;
    use crate::source::Connection;
    use crate::S2s;
    use s2s_owl::Ontology;

    fn db(sql: &[&str]) -> Database {
        let mut db = Database::new("d");
        for stmt in sql {
            db.execute(stmt).unwrap();
        }
        db
    }

    fn sql(query: &str, column: &str) -> ExtractionRule {
        ExtractionRule::Sql { query: query.into(), column: column.into() }
    }

    #[test]
    fn sql_compiles_to_prepared_select_with_its_column() {
        let Some(Ok(CompiledRule::Sql { stmt, column })) =
            Db(&db(&[])).compile(&sql("SELECT a FROM t", "a"))
        else {
            panic!("expected Sql")
        };
        assert_eq!((stmt.table.as_str(), column.as_str()), ("t", "a"));
    }

    #[test]
    fn the_column_is_extracted_skipping_nulls() {
        let db = db(&[
            "CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)",
            "INSERT INTO w VALUES (1,'Seiko',129.99),(2,'Casio',59.5),(3,NULL,1.0)",
        ]);
        let connection = Connection::Database { db: Arc::new(db) };
        let brands = extract(&connection, sql("SELECT brand FROM w ORDER BY id", "brand"));
        assert_eq!(brands.unwrap(), ["Seiko", "Casio"]);
        let prices = extract(&connection, sql("SELECT price FROM w ORDER BY id", "price"));
        assert_eq!(prices.unwrap(), ["129.99", "59.5", "1"]);
    }

    /// What a rule reads decides which change events leave its view
    /// slice untouched: the `WHERE` column counts as much as the result.
    #[test]
    fn a_rule_reads_every_column_it_names() {
        let d = db(&[]);
        let reads = |query: &str| read_set(&Db(&d), sql(query, "brand"));
        assert_eq!(reads("SELECT brand FROM w").as_deref(), Some("brand brand"));
        assert_eq!(
            reads("SELECT brand FROM w WHERE price < 100 AND NOT (case_m LIKE 's%') ORDER BY id")
                .as_deref(),
            Some("brand brand id price case_m")
        );
        assert_eq!(
            reads("SELECT w.brand FROM w GROUP BY size").as_deref(),
            Some("brand brand size")
        );
        for anything in [
            "SELECT * FROM w",
            "SELECT brand FROM w JOIN p ON w.id = p.id",
            "SELECT COUNT(*) FROM w",
        ] {
            assert_eq!(reads(anything), None, "{anything}");
        }
    }

    #[test]
    fn a_pushed_conjunct_becomes_a_typed_where_term() {
        let d = db(&["CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)"]);
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .datatype_property("brand", "Product", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("price", "Product", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        let mut module = crate::mapping::MappingModule::new();
        for column in ["brand", "price"] {
            let path = format!("thing.product.{column}").parse().unwrap();
            let rule = sql(&format!("SELECT {column} FROM w ORDER BY id"), column);
            module
                .register(&ontology, path, rule, "S".into(), RecordScenario::MultiRecord)
                .unwrap();
        }
        let group: Vec<&AttributeMapping> = module.iter().collect();
        let query =
            crate::query::parse("SELECT product WHERE price < 100 AND brand = 'Seiko'").unwrap();
        let plan = crate::query::plan(&query, &ontology).unwrap();
        let tree = plan.condition.as_ref().unwrap();
        let conjuncts = tree.leaves();
        let (rules, pushed) = Db(&d).push(&group, &group[..1], &conjuncts).unwrap();
        assert_eq!(pushed.len(), 2);
        assert_eq!(
            rules,
            [sql(
                "SELECT brand FROM w WHERE (price < 100 AND brand = 'Seiko') ORDER BY id ASC",
                "brand"
            )]
        );
    }

    /// Past 2^53 the mediator's `f64` comparison calls neighbouring
    /// integers equal while SQL compares them exactly: such a literal
    /// must stay in the residual, or pushdown loses the row.
    #[test]
    fn pushdown_keeps_inexact_integer_literals_residual() {
        let d = db(&["CREATE TABLE w (price INTEGER)", "INSERT INTO w VALUES (9007199254740993)"]);
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        let mut s2s = S2s::new(ontology).with_pushdown();
        s2s.register_source("DB", Connection::Database { db: Arc::new(d) }).unwrap();
        let rule = sql("SELECT price FROM w", "price");
        s2s.register_attribute("thing.watch.price", rule, "DB", RecordScenario::MultiRecord)
            .unwrap();
        let out = s2s.query("SELECT watch WHERE price = 9007199254740992").unwrap();
        assert_eq!(out.individuals().len(), 1, "equal as f64, as with the planner off");
        assert_eq!(out.pushdown.expect("planner ran").pushed_predicates(), 0);
    }
}
