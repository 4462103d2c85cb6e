//! Tests-only reference executor: `s2s_minidb::exec` as it stood before
//! the streaming select pipeline, kept verbatim (a `vec![row]` chain per
//! joined row, per-row column-name resolution and `Value` clones in
//! `eval`, `(key, row)` pairs sorted for every `ORDER BY`, `LIKE` by
//! recursion over two `Vec<char>`s) so the differential test in
//! `proptests.rs` can hold the new pipeline to the same rows, the same
//! tie/DISTINCT/NULL semantics and the same errors. [`query`] and
//! [`column`] reproduce the old `Database::query_prepared` and the old
//! SQL arm of the engine's `run_wrapper` on top of it, [`render`] the
//! old `Value::render` that built one `String` per value. Not part of
//! the library.

use s2s_minidb::sql::ast::{
    AggFunc, CmpOp, ColumnRef, Expr, Operand, OrderDir, SelectItem, SelectStmt,
};
use s2s_minidb::table::Table;
use s2s_minidb::{Database, DbError, Value};

/// `Database::query_prepared` as it was: tables looked up base first,
/// then the old `run_select`. Returns `(column_names, rows)`.
pub fn query(db: &Database, stmt: &SelectStmt) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    let table_ref = |name: &str| {
        db.table(name).ok_or_else(|| DbError::UnknownTable { table: name.to_string() })
    };
    let mut tables = vec![(stmt.table.as_str(), table_ref(&stmt.table)?)];
    for j in &stmt.joins {
        tables.push((j.table.as_str(), table_ref(&j.table)?));
    }
    run_select(stmt, &ExecContext::new(tables))
}

/// The engine's database wrapper as it was: run the query, find the
/// result column by case-insensitive name, render its non-NULL values.
pub fn column(db: &Database, stmt: &SelectStmt, column: &str) -> Result<Vec<String>, DbError> {
    let (names, rows) = query(db, stmt)?;
    let idx = names
        .iter()
        .position(|c| c.eq_ignore_ascii_case(column))
        .ok_or_else(|| DbError::UnknownColumn { column: column.to_string() })?;
    Ok(rows.iter().filter(|row| !row[idx].is_null()).map(|row| render(&row[idx])).collect())
}

/// `Value::render` as it was before it wrote into a caller's buffer.
pub fn render(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Text(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
    }
}

/// SQL `LIKE` as it was: `%` matches any run, `_` any single character.
pub fn like_match(value: &str, pattern: &str) -> bool {
    fn rec(v: &[char], p: &[char]) -> bool {
        match p.first() {
            None => v.is_empty(),
            Some('%') => (0..=v.len()).any(|i| rec(&v[i..], &p[1..])),
            Some('_') => !v.is_empty() && rec(&v[1..], &p[1..]),
            Some(c) => v.first() == Some(c) && rec(&v[1..], &p[1..]),
        }
    }
    let v: Vec<char> = value.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&v, &p)
}

/// A resolved column: which table in the join order, which column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolved {
    table_idx: usize,
    col_idx: usize,
}

/// The execution context: the ordered list of tables in the FROM/JOIN
/// chain.
struct ExecContext<'a> {
    tables: Vec<(&'a str, &'a Table)>,
}

impl<'a> ExecContext<'a> {
    fn new(tables: Vec<(&'a str, &'a Table)>) -> Self {
        ExecContext { tables }
    }

    fn resolve(&self, col: &ColumnRef) -> Result<Resolved, DbError> {
        match &col.table {
            Some(t) => {
                let table_idx = self
                    .tables
                    .iter()
                    .position(|(name, _)| name.eq_ignore_ascii_case(t))
                    .ok_or_else(|| DbError::UnknownTable { table: t.clone() })?;
                let col_idx = self.tables[table_idx]
                    .1
                    .schema()
                    .column_index(&col.column)
                    .ok_or_else(|| DbError::UnknownColumn { column: col.to_string() })?;
                Ok(Resolved { table_idx, col_idx })
            }
            None => {
                let mut found = None;
                for (table_idx, (_, table)) in self.tables.iter().enumerate() {
                    if let Some(col_idx) = table.schema().column_index(&col.column) {
                        if found.is_some() {
                            return Err(DbError::AmbiguousColumn { column: col.column.clone() });
                        }
                        found = Some(Resolved { table_idx, col_idx });
                    }
                }
                found.ok_or_else(|| DbError::UnknownColumn { column: col.column.clone() })
            }
        }
    }

    /// Evaluates a predicate over one joined row (a slice of per-table
    /// rows). SQL three-valued logic collapses UNKNOWN to false at the
    /// top.
    fn eval(&self, expr: &Expr, rows: &[&[Value]]) -> Result<Option<bool>, DbError> {
        Ok(match expr {
            Expr::Compare { left, op, right } => {
                let l = self.value_of(left, rows)?;
                let r = match right {
                    Operand::Literal(v) => v.clone(),
                    Operand::Column(c) => self.value_of(c, rows)?,
                };
                l.compare(&r).map(|ord| match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => !ord.is_eq(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                })
            }
            Expr::Like { column, pattern, negated } => {
                let v = self.value_of(column, rows)?;
                match v {
                    Value::Null => None,
                    Value::Text(s) => Some(like_match(&s, pattern) != *negated),
                    other => Some(like_match(&other.render(), pattern) != *negated),
                }
            }
            Expr::IsNull { column, negated } => {
                let v = self.value_of(column, rows)?;
                Some(v.is_null() != *negated)
            }
            Expr::And(a, b) => match (self.eval(a, rows)?, self.eval(b, rows)?) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expr::Or(a, b) => match (self.eval(a, rows)?, self.eval(b, rows)?) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Expr::Not(e) => self.eval(e, rows)?.map(|b| !b),
        })
    }

    fn value_of(&self, col: &ColumnRef, rows: &[&[Value]]) -> Result<Value, DbError> {
        let r = self.resolve(col)?;
        Ok(rows[r.table_idx][r.col_idx].clone())
    }
}

/// Runs a SELECT over the given table chain (base table first, joined
/// tables in join order). Returns `(column_names, rows)`.
fn run_select(
    stmt: &SelectStmt,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    // Aggregation takes a separate path.
    if stmt.has_aggregates() || stmt.group_by.is_some() {
        return run_aggregate_select(stmt, ctx);
    }

    // Validate projection and predicate up front so errors surface even on
    // empty tables.
    let plain_columns: Vec<&ColumnRef> = stmt
        .projection
        .iter()
        .map(|item| match item {
            SelectItem::Column(c) => Ok(c),
            SelectItem::Aggregate { .. } => unreachable!("aggregates handled above"),
        })
        .collect::<Result<_, DbError>>()?;
    let projection: Vec<Resolved> = if plain_columns.is_empty() {
        ctx.tables
            .iter()
            .enumerate()
            .flat_map(|(ti, (_, t))| {
                (0..t.schema().arity()).map(move |ci| Resolved { table_idx: ti, col_idx: ci })
            })
            .collect()
    } else {
        plain_columns.iter().map(|c| ctx.resolve(c)).collect::<Result<_, _>>()?
    };
    let names: Vec<String> = if plain_columns.is_empty() {
        ctx.tables
            .iter()
            .flat_map(|(_, t)| t.schema().columns().iter().map(|c| c.name().to_string()))
            .collect()
    } else {
        plain_columns.iter().map(|c| c.column.clone()).collect()
    };
    if let Some(pred) = &stmt.predicate {
        validate_expr(pred, ctx)?;
    }
    let order = match &stmt.order_by {
        Some((col, dir)) => Some((ctx.resolve(col)?, *dir)),
        None => None,
    };

    // Join: start from the base table's candidate rows, then nested-loop
    // (index-assisted on the right side) through the join clauses.
    let base = ctx.tables[0].1;
    let base_rids = candidate_rows(stmt, ctx, base)?;

    let mut joined: Vec<Vec<&[Value]>> =
        base_rids.into_iter().filter_map(|rid| base.row(rid).map(|r| vec![r])).collect();

    for (ji, join) in stmt.joins.iter().enumerate() {
        let right_table = ctx.tables[ji + 1].1;
        let left = ctx.resolve(&join.left)?;
        let right = ctx.resolve(&join.right)?;
        // Normalize: `probe` is the side already materialized, `build` the
        // new table.
        let (probe, build) = if right.table_idx == ji + 1 {
            (left, right)
        } else if left.table_idx == ji + 1 {
            (right, left)
        } else {
            return Err(DbError::TypeMismatch {
                message: format!("join condition does not reference table `{}`", join.table),
            });
        };
        if probe.table_idx > ji {
            return Err(DbError::TypeMismatch {
                message: format!("join condition for `{}` references a later table", join.table),
            });
        }
        let mut next: Vec<Vec<&[Value]>> = Vec::new();
        for row_chain in joined {
            let key = &row_chain[probe.table_idx][probe.col_idx];
            for rid in right_table.lookup(build.col_idx, key) {
                if let Some(r) = right_table.row(rid) {
                    let mut chain = row_chain.clone();
                    chain.push(r);
                    next.push(chain);
                }
            }
        }
        joined = next;
    }

    // Filter.
    let mut result_rows: Vec<Vec<Value>> = Vec::new();
    let mut order_keys: Vec<Value> = Vec::new();
    for chain in &joined {
        if let Some(pred) = &stmt.predicate {
            if ctx.eval(pred, chain)? != Some(true) {
                continue;
            }
        }
        if let Some((r, _)) = &order {
            order_keys.push(chain[r.table_idx][r.col_idx].clone());
        }
        result_rows
            .push(projection.iter().map(|r| chain[r.table_idx][r.col_idx].clone()).collect());
    }

    // Distinct: keep the first occurrence of each projected row
    // (applied before ORDER BY so order keys stay aligned).
    if stmt.distinct {
        let mut seen = std::collections::BTreeSet::new();
        let mut kept_rows = Vec::with_capacity(result_rows.len());
        let mut kept_keys = Vec::with_capacity(order_keys.len());
        for (i, row) in result_rows.into_iter().enumerate() {
            if seen.insert(row.clone()) {
                if let Some(k) = order_keys.get(i) {
                    kept_keys.push(k.clone());
                }
                kept_rows.push(row);
            }
        }
        result_rows = kept_rows;
        order_keys = kept_keys;
    }

    // Order.
    if let Some((_, dir)) = order {
        let mut pairs: Vec<(Value, Vec<Value>)> = order_keys.into_iter().zip(result_rows).collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if dir == OrderDir::Desc {
            pairs.reverse();
        }
        result_rows = pairs.into_iter().map(|(_, r)| r).collect();
    }

    // Limit.
    if let Some(n) = stmt.limit {
        result_rows.truncate(n);
    }

    Ok((names, result_rows))
}

/// SELECT with aggregates and/or GROUP BY.
///
/// Rules: plain columns in the projection must be the GROUP BY column;
/// ORDER BY may reference only the GROUP BY column; without GROUP BY the
/// whole filtered input forms one group.
fn run_aggregate_select(
    stmt: &SelectStmt,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    let group_col = match &stmt.group_by {
        Some(c) => Some(ctx.resolve(c)?),
        None => None,
    };

    // Validate projection items.
    let mut names: Vec<String> = Vec::with_capacity(stmt.projection.len());
    enum Output {
        Group,
        Agg(AggFunc, Option<Resolved>),
    }
    let mut outputs: Vec<Output> = Vec::with_capacity(stmt.projection.len());
    for item in &stmt.projection {
        match item {
            SelectItem::Column(c) => {
                let r = ctx.resolve(c)?;
                match group_col {
                    Some(g) if g == r => {
                        names.push(c.column.clone());
                        outputs.push(Output::Group);
                    }
                    _ => {
                        return Err(DbError::TypeMismatch {
                            message: format!(
                                "column `{c}` must appear in GROUP BY or inside an aggregate"
                            ),
                        })
                    }
                }
            }
            SelectItem::Aggregate { func, arg } => {
                let resolved = match arg {
                    Some(c) => {
                        names.push(format!("{}({})", func.name(), c.column));
                        Some(ctx.resolve(c)?)
                    }
                    None => {
                        names.push(format!("{}(*)", func.name()));
                        None
                    }
                };
                if resolved.is_none() && *func != AggFunc::Count {
                    return Err(DbError::TypeMismatch {
                        message: format!("{}(*) is not valid", func.name()),
                    });
                }
                outputs.push(Output::Agg(*func, resolved));
            }
        }
    }
    if outputs.is_empty() {
        return Err(DbError::TypeMismatch {
            message: "aggregate query needs a projection".to_string(),
        });
    }
    if let Some(pred) = &stmt.predicate {
        validate_expr(pred, ctx)?;
    }
    // ORDER BY: only the grouped column.
    let order_dir = match &stmt.order_by {
        Some((col, dir)) => {
            let r = ctx.resolve(col)?;
            if group_col != Some(r) {
                return Err(DbError::TypeMismatch {
                    message: "ORDER BY in an aggregate query must use the GROUP BY column"
                        .to_string(),
                });
            }
            Some(*dir)
        }
        None => None,
    };

    // Collect the filtered row chains (joins reuse the plain path by
    // rebuilding the chain here).
    let chains = build_filtered_chains(stmt, ctx)?;

    // Group.
    let mut groups: std::collections::BTreeMap<Option<Value>, Vec<&Vec<Value>>> =
        std::collections::BTreeMap::new();
    let flat: Vec<Vec<Value>> = chains;
    for row in &flat {
        let key = group_col.map(|g| row[flat_index(ctx, g)].clone());
        groups.entry(key).or_default().push(row);
    }
    if group_col.is_none() && groups.is_empty() {
        // One empty group so global aggregates return a row.
        groups.insert(None, Vec::new());
    }

    let mut result_rows: Vec<Vec<Value>> = Vec::new();
    for (key, rows) in &groups {
        let mut out = Vec::with_capacity(outputs.len());
        for o in &outputs {
            match o {
                Output::Group => out.push(key.clone().unwrap_or(Value::Null)),
                Output::Agg(func, arg) => {
                    out.push(aggregate(*func, *arg, rows, ctx));
                }
            }
        }
        result_rows.push(out);
    }
    // BTreeMap iteration is ascending by group key already.
    if order_dir == Some(OrderDir::Desc) {
        result_rows.reverse();
    }
    if let Some(n) = stmt.limit {
        result_rows.truncate(n);
    }
    Ok((names, result_rows))
}

/// Builds fully-joined, predicate-filtered rows flattened into one
/// `Vec<Value>` per chain (columns of all tables concatenated).
fn build_filtered_chains(
    stmt: &SelectStmt,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Vec<Value>>, DbError> {
    let base = ctx.tables[0].1;
    let base_rids = candidate_rows(stmt, ctx, base)?;
    let mut joined: Vec<Vec<&[Value]>> =
        base_rids.into_iter().filter_map(|rid| base.row(rid).map(|r| vec![r])).collect();
    for (ji, join) in stmt.joins.iter().enumerate() {
        let right_table = ctx.tables[ji + 1].1;
        let left = ctx.resolve(&join.left)?;
        let right = ctx.resolve(&join.right)?;
        let (probe, build) = if right.table_idx == ji + 1 {
            (left, right)
        } else if left.table_idx == ji + 1 {
            (right, left)
        } else {
            return Err(DbError::TypeMismatch {
                message: format!("join condition does not reference table `{}`", join.table),
            });
        };
        let mut next: Vec<Vec<&[Value]>> = Vec::new();
        for row_chain in joined {
            let key = &row_chain[probe.table_idx][probe.col_idx];
            for rid in right_table.lookup(build.col_idx, key) {
                if let Some(r) = right_table.row(rid) {
                    let mut chain = row_chain.clone();
                    chain.push(r);
                    next.push(chain);
                }
            }
        }
        joined = next;
    }
    let mut out = Vec::new();
    for chain in &joined {
        if let Some(pred) = &stmt.predicate {
            if ctx.eval(pred, chain)? != Some(true) {
                continue;
            }
        }
        out.push(chain.iter().flat_map(|r| r.iter().cloned()).collect());
    }
    Ok(out)
}

/// Flattened column index of a resolved `(table, column)` pair.
fn flat_index(ctx: &ExecContext<'_>, r: Resolved) -> usize {
    ctx.tables[..r.table_idx].iter().map(|(_, t)| t.schema().arity()).sum::<usize>() + r.col_idx
}

fn aggregate(
    func: AggFunc,
    arg: Option<Resolved>,
    rows: &[&Vec<Value>],
    ctx: &ExecContext<'_>,
) -> Value {
    let values = |r: Resolved| {
        let idx = flat_index(ctx, r);
        rows.iter().map(move |row| &row[idx]).filter(|v| !v.is_null())
    };
    match (func, arg) {
        (AggFunc::Count, None) => Value::Int(rows.len() as i64),
        (AggFunc::Count, Some(r)) => Value::Int(values(r).count() as i64),
        (AggFunc::Sum, Some(r)) => {
            let nums: Vec<f64> = values(r).filter_map(|v| v.as_float()).collect();
            if nums.is_empty() {
                Value::Null
            } else if values(r).all(|v| v.as_int().is_some()) {
                Value::Int(nums.iter().sum::<f64>() as i64)
            } else {
                Value::Float(nums.iter().sum())
            }
        }
        (AggFunc::Avg, Some(r)) => {
            let nums: Vec<f64> = values(r).filter_map(|v| v.as_float()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        (AggFunc::Min, Some(r)) => {
            values(r).min_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null)
        }
        (AggFunc::Max, Some(r)) => {
            values(r).max_by(|a, b| a.total_cmp(b)).cloned().unwrap_or(Value::Null)
        }
        (_, None) => Value::Null, // unreachable: validated earlier
    }
}

/// Chooses base-table candidate rows: if the predicate contains a
/// top-level (conjunctive) equality on an indexed base column, use the
/// index; otherwise scan.
fn candidate_rows(
    stmt: &SelectStmt,
    ctx: &ExecContext<'_>,
    base: &Table,
) -> Result<Vec<usize>, DbError> {
    if let Some(pred) = &stmt.predicate {
        let mut eqs: Vec<(&ColumnRef, &Value)> = Vec::new();
        collect_conjunctive_equalities(pred, &mut eqs);
        for (col, val) in eqs {
            if let Ok(r) = ctx.resolve(col) {
                if r.table_idx == 0 && base.has_index(r.col_idx) {
                    return Ok(base.lookup(r.col_idx, val));
                }
            }
        }
    }
    Ok(base.scan().map(|(rid, _)| rid).collect())
}

fn collect_conjunctive_equalities<'e>(expr: &'e Expr, out: &mut Vec<(&'e ColumnRef, &'e Value)>) {
    match expr {
        Expr::Compare { left, op: CmpOp::Eq, right: Operand::Literal(v) } => {
            out.push((left, v));
        }
        Expr::And(a, b) => {
            collect_conjunctive_equalities(a, out);
            collect_conjunctive_equalities(b, out);
        }
        _ => {}
    }
}

/// Validates every column reference in an expression.
fn validate_expr(expr: &Expr, ctx: &ExecContext<'_>) -> Result<(), DbError> {
    match expr {
        Expr::Compare { left, right, .. } => {
            ctx.resolve(left)?;
            if let Operand::Column(c) = right {
                ctx.resolve(c)?;
            }
            Ok(())
        }
        Expr::Like { column, .. } | Expr::IsNull { column, .. } => ctx.resolve(column).map(drop),
        Expr::And(a, b) | Expr::Or(a, b) => {
            validate_expr(a, ctx)?;
            validate_expr(b, ctx)
        }
        Expr::Not(e) => validate_expr(e, ctx),
    }
}
