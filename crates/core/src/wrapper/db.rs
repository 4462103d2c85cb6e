//! The database extractor: SQL rules over a [`Database`].

use std::sync::Arc;

use s2s_minidb::sql::ast::SelectItem;
use s2s_minidb::{ColumnRef, ColumnSink, DataType, Database, Expr, Operand, SelectStmt, Value};

use super::{compiled_by, mismatch, CompiledRule, Filter, Ran, Wrapper};
use crate::bootstrap::{SchemaField, SchemaSummary};
use crate::error::S2sError;
use crate::extract::Values;
use crate::ledger::Unfiltered;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::{condition_matches, ResolvedCondition};
use crate::source::SourceKind;

/// A database source.
pub(super) struct Db<'a>(pub(super) &'a Database);

/// Value samples kept per introspected column.
const MAX_SAMPLES: usize = 8;

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
    /// ([`SelectStmt::shares_rows`]) are one scan ([`Database::select`]),
    /// and a `DISTINCT`, `GROUP BY` or aggregate one is read from its
    /// result ([`Database::query_prepared`]). Filtered, the scan tests
    /// each row with the folded condition first — a cell as its printed
    /// text ([`satisfies`]) — and only the kept rows' cells are
    /// formatted; a row's number is its position in the scan.
    fn run(
        &self,
        mappings: &[&AttributeMapping],
        filter: &mut Filter<'_>,
        out: &mut Vec<Result<Values, S2sError>>,
    ) -> Ran {
        let start = out.len();
        out.extend(mappings.iter().map(|m| match compiled_by(self, m) {
            Ok(CompiledRule::Sql { .. }) => Ok(Values::new()),
            Ok(_) => Err(mismatch(self, m)),
            Err(e) => Err(e),
        }));
        let (mut statements, mut filtered, mut why) = (0, false, Unfiltered::Statements);
        let read = |j: usize| sql(self, mappings[j]).expect("a statement's rules are SQL");
        for (lead, m) in mappings.iter().enumerate() {
            let Some((stmt, column)) = sql(self, m) else { continue };
            // A statement an earlier one shares its rows with was read
            // in that one's scan.
            if mappings[..lead]
                .iter()
                .any(|e| sql(self, e).is_some_and(|(e, _)| e.shares_rows(stmt)))
            {
                continue;
            }
            statements += 1;
            if !stmt.shares_rows(stmt) {
                out[start + lead] = computed(self.0, stmt, column);
                continue;
            }
            let Filter { fold, ordinals, columns, printed, group } = &mut *filter;
            // The rules this scan reads, by position.
            group.clear();
            group.push(lead);
            let shares =
                |j: &usize| sql(self, mappings[*j]).is_some_and(|(s, _)| stmt.shares_rows(s));
            group.extend((lead + 1..mappings.len()).filter(shares));
            let selection = match self.0.select(stmt) {
                Ok(selection) => selection,
                Err(e) => {
                    group.iter().for_each(|&j| out[start + j] = Err(S2sError::from(e.clone())));
                    continue;
                }
            };
            let column = |(stmt, column): (&SelectStmt, &str)| selection.column(stmt, column);
            // Filtered only when this one scan reads every rule of the
            // source, and each rule's column; positions in `group` are
            // then the rules'.
            columns.clear();
            let resolved = fold.is_bound()
                && group.len() == mappings.len()
                && group.iter().all(|&j| column(read(j)).map(|c| columns.push(c)).is_ok());
            if let Some(first_only) = Filter::first_only(mappings).filter(|_| resolved) {
                let keep = |row: usize| {
                    (row == 0 || !first_only)
                        && fold.holds(&mut |j, c| {
                            let cell = selection.cell(columns[j], row);
                            cell.is_some_and(|cell| satisfies(cell, c, printed))
                        })
                };
                filtered = selection.filter(columns.iter().copied(), keep, ordinals);
            }
            if resolved {
                why = Unfiltered::Misaligned;
            }
            for (k, &j) in group.iter().enumerate() {
                let resolved = if resolved { Ok(columns[k]) } else { column(read(j)) };
                out[start + j] = resolved.map_err(S2sError::from).map(|column| {
                    let mut values = Values::new();
                    if filtered {
                        let kept = ordinals.iter().map(|&row| row as usize);
                        selection.each_at(column, kept, &mut values);
                    } else {
                        selection.each(column, &mut values);
                    }
                    values
                });
            }
        }
        if filtered {
            filter.number(&mut out[start..]);
        }
        Ran::new(statements, filter, filtered, why)
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

/// The statement and result column of `m`'s rule, when it compiles to
/// SQL.
fn sql<'m>(db: &Db<'_>, m: &'m AttributeMapping) -> Option<(&'m SelectStmt, &'m str)> {
    match compiled_by(db, m) {
        Ok(CompiledRule::Sql { stmt, column }) => Some((&**stmt, column.as_str())),
        _ => None,
    }
}

/// Whether `cell` satisfies the leaf `c` as its printed text does: a
/// `TEXT` cell borrowed, a `REAL` one compared as a number where that
/// answers the same ([`s2s_textmatch::Comparand::test_number`]), any
/// other printed into `printed`, one buffer reused from row to row.
#[inline]
fn satisfies(cell: &Value, c: &ResolvedCondition, printed: &mut String) -> bool {
    match cell {
        Value::Text(text) => return condition_matches(c, text),
        Value::Float(x) => {
            if let Some(holds) = c.comparand().test_number(*x) {
                return holds;
            }
        }
        _ => {}
    }
    printed.clear();
    cell.write_to(printed).expect("writing to a String cannot fail");
    condition_matches(c, printed)
}

/// The non-NULL values of `column` of a statement whose rows are
/// computed — `DISTINCT`, `GROUP BY` or an aggregate — read from its
/// result ([`s2s_minidb::QueryResult::each`]), the column reserved once at their
/// exact size.
fn computed(db: &Database, stmt: &SelectStmt, column: &str) -> Result<Values, S2sError> {
    let mut values = Values::new();
    db.query_prepared(stmt)?.each(column, &mut values)?;
    Ok(values)
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
    /// Past 2^53 an `f64` calls neighbouring integers equal, while the
    /// decimal space tells them apart: the filter tests the printed cell
    /// as the residual does, so it answers exactly.
    #[test]
    fn the_filter_compares_an_integer_past_2_pow_53_exactly() {
        let d = db(&["CREATE TABLE w (price INTEGER)", "INSERT INTO w VALUES (9007199254740993)"]);
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        let mut s2s = S2s::new(ontology);
        s2s.register_source("DB", Connection::Database { db: Arc::new(d) }).unwrap();
        let rule = sql("SELECT price FROM w", "price");
        s2s.register_attribute("thing.watch.price", rule, "DB", RecordScenario::MultiRecord)
            .unwrap();
        for (constant, individuals) in [("9007199254740992", 0), ("9007199254740993", 1)] {
            let out = s2s.query(&format!("SELECT watch WHERE price = {constant}")).unwrap();
            assert_eq!(out.individuals().len(), individuals, "{constant}");
            assert_eq!(out.source("DB").unwrap().pushed.iter().collect::<Vec<_>>(), [0]);
        }
    }

    /// An engine over `rows` of a `w (id, brand, price)` table, its
    /// brand and price each read by a rule of one statement.
    fn watches(rows: &str) -> S2s {
        let d = db(&[
            "CREATE TABLE w (id INTEGER PRIMARY KEY, brand TEXT, price REAL)",
            &format!("INSERT INTO w VALUES {rows}"),
        ]);
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("brand", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        let mut s2s = S2s::new(ontology);
        s2s.register_source("DB", Connection::Database { db: Arc::new(d) }).unwrap();
        for column in ["brand", "price"] {
            let rule = sql(&format!("SELECT {column} FROM w ORDER BY id"), column);
            let path = format!("thing.watch.{column}");
            s2s.register_attribute(&path, rule, "DB", RecordScenario::MultiRecord).unwrap();
        }
        s2s
    }

    /// A NULL cell would shift the column's later values onto other
    /// records: the source runs unfiltered, as it always did.
    #[test]
    fn a_null_cell_leaves_the_source_unfiltered() {
        let s2s = watches("(1,'Seiko',129.99),(2,NULL,59.5),(3,'Casio',1.0)");
        let out = s2s.query("SELECT watch WHERE price < 100").unwrap();
        let row = out.source("DB").unwrap();
        assert!(row.pushed.is_empty());
        assert_eq!(row.unfiltered, Some(crate::ledger::Unfiltered::Misaligned));
        let twin = s2s.query("SELECT watch WHERE NOT (price >= 100)").unwrap();
        assert_eq!(out.individuals(), twin.individuals());
    }

    /// No leaf of an `OR` is required, yet the whole tree binds: the
    /// statement keeps the records either side holds for.
    #[test]
    fn an_or_filters_a_one_statement_source_at_its_statement() {
        let s2s = watches("(1,'Seiko',129.99),(2,'x',259.5),(3,'Casio',10.0)");
        let out = s2s.query("SELECT watch WHERE brand = 'x' OR price < 50").unwrap();
        let row = out.source("DB").unwrap();
        assert_eq!((row.statements, row.unfiltered), (1, None));
        assert_eq!(row.pushed_conjuncts(&out.plan), ["brand = x", "price < 50"]);
        let iris: Vec<&str> = out.individuals().iter().map(|i| i.iri.local_name()).collect();
        assert_eq!(iris, ["1", "2"], "records 2 and 3, numbered from 0");
    }
}
