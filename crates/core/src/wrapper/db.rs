//! The database extractor: SQL rules over a [`Database`].

use std::sync::Arc;

use s2s_minidb::sql::ast::SelectItem;
use s2s_minidb::{
    CmpOp, ColumnRef, ColumnSink, DataType, Database, Expr, Operand, SelectStmt, Value,
};
use s2s_textmatch::ValueSpace;

use super::{compiled_by, mismatch, statements, value_field, CompiledRule, Pushed, Wrapper};
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

/// The database sizes the result by its survivors and the column's
/// widest stored value before the first value, so the column is
/// reserved once.
impl ColumnSink for Values {
    fn size(&mut self, values: usize, text_bytes: usize) {
        self.reserve(values, text_bytes);
    }

    fn push(&mut self, value: &Value) {
        self.push_with(|text| value.write_to(text).expect("writing to a String cannot fail"));
    }
}

impl Wrapper for Db<'_> {
    fn kind(&self) -> SourceKind {
        SourceKind::Database
    }

    fn compile(&self, rule: &ExtractionRule) -> Option<Result<CompiledRule, S2sError>> {
        let ExtractionRule::Sql { query, column } = rule else { return None };
        let stmt = Database::prepare_select(query).map_err(S2sError::from);
        Some(stmt.map(|stmt| CompiledRule::Sql { stmt: Arc::new(stmt), column: column.clone() }))
    }

    /// The non-NULL values of each rule's result column, each formatted
    /// in place from the stored row into a column reserved once;
    /// statements equal but for their projection
    /// ([`SelectStmt::shares_rows`]) are one scan.
    fn run(
        &self,
        mappings: &[&AttributeMapping],
        out: &mut Vec<Result<Values, S2sError>>,
    ) -> usize {
        let start = out.len();
        let mut reads: Vec<(&SelectStmt, &str)> = Vec::with_capacity(mappings.len());
        for m in mappings {
            out.push(compiled_by(self, m).and_then(|rule| match rule {
                CompiledRule::Sql { stmt, column } => {
                    reads.push((stmt, column));
                    Ok(Values::new())
                }
                _ => Err(mismatch(self, m)),
            }));
        }
        let mut columns: Vec<Values> = reads.iter().map(|_| Values::new()).collect();
        let results = self.0.query_columns_each(&reads, &mut columns);
        let mut read = results.into_iter().zip(columns);
        for slot in out[start..].iter_mut().filter(|slot| slot.is_ok()) {
            let (result, values) = read.next().expect("one result per statement");
            *slot = result.map(|()| values).map_err(S2sError::from);
        }
        statements(&reads, |(a, _), (b, _)| a.shares_rows(b))
    }

    /// Every kept rule must scan one column of the same table in the same
    /// order; a conjunct becomes a typed `WHERE` term when SQL compares
    /// the column as the condition's range does.
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
            let exact = c.space().exact_f64(c.value()).filter(|n| n.abs() < MAX_EXACT);
            let literal = match (table.columns()[idx].data_type(), c.op(), c.space(), exact) {
                // LIKE is text pattern matching on both sides.
                (DataType::Text, CondOp::Like, _, _) => None,
                // A text column orders by code point, as a string does.
                (DataType::Text, _, ValueSpace::String, _) => Some(Value::Text(c.value().into())),
                // A numeric column prints a decimal as read back: SQL orders
                // it as its print, against a literal printing as the constant.
                (DataType::Integer, _, _, Some(n))
                | (DataType::Real, _, ValueSpace::Decimal, Some(n)) => {
                    Some(if n.fract() == 0.0 { Value::Int(n as i64) } else { Value::Float(n) })
                }
                _ => continue,
            };
            let left = ColumnRef::new(column);
            let expr = match literal {
                None => Expr::Like { column: left, pattern: c.value().into(), negated: false },
                Some(value) => {
                    Expr::Compare { left, op: cmp_of(c.op())?, right: Operand::Literal(value) }
                }
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

    /// Past 2^53 an `f64` calls neighbouring integers equal, while the
    /// decimal space tells them apart: such a literal stays in the
    /// residual, which answers exactly.
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
        for (constant, individuals) in [("9007199254740992", 0), ("9007199254740993", 1)] {
            let out = s2s.query(&format!("SELECT watch WHERE price = {constant}")).unwrap();
            assert_eq!(out.individuals().len(), individuals, "{constant}");
            assert!(out.source("DB").unwrap().pushed.is_empty());
        }
    }
}
