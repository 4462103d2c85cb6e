//! Query execution: one select pipeline over borrowed row chains.
//!
//! A statement is resolved once to `(table, column)` indices
//! (`Plan`, `Filter`); rows then flow candidates → joins → filter →
//! `DISTINCT` → `ORDER BY` → `LIMIT` as borrowed slices in one flat
//! buffer (stride = tables in the FROM/JOIN chain) plus a permutation of
//! chain indices. Values are cloned or rendered once, at projection.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use crate::db::ColumnSink;
use crate::error::DbError;
use crate::sql::ast::{AggFunc, CmpOp, ColumnRef, Expr, Operand, OrderDir, SelectItem, SelectStmt};
use crate::table::Table;
use crate::value::{like_match, Value};

/// A resolved column: which table in the join order, which column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    table_idx: usize,
    col_idx: usize,
}

impl Resolved {
    /// The column's value in one joined row (a slice of per-table rows).
    #[inline]
    fn of<'a>(self, chain: &[&'a [Value]]) -> &'a Value {
        &chain[self.table_idx][self.col_idx]
    }
}

/// The execution context: the tables of the FROM/JOIN chain, the base
/// table apart, so a statement without joins allocates nothing for it.
pub(crate) struct ExecContext<'a> {
    base: (&'a str, &'a Table),
    joined: Vec<(&'a str, &'a Table)>,
}

impl<'a> ExecContext<'a> {
    pub(crate) fn new(base: (&'a str, &'a Table), joined: Vec<(&'a str, &'a Table)>) -> Self {
        ExecContext { base, joined }
    }

    /// The tables of the chain, in order.
    fn tables(&self) -> impl Iterator<Item = (&'a str, &'a Table)> + '_ {
        std::iter::once(self.base).chain(self.joined.iter().copied())
    }

    /// The `i`-th table of the chain.
    fn table(&self, i: usize) -> &'a Table {
        if i == 0 {
            self.base.1
        } else {
            self.joined[i - 1].1
        }
    }

    fn resolve(&self, col: &ColumnRef) -> Result<Resolved, DbError> {
        match &col.table {
            Some(t) => {
                let table_idx = self
                    .tables()
                    .position(|(name, _)| name.eq_ignore_ascii_case(t))
                    .ok_or_else(|| DbError::UnknownTable { table: t.clone() })?;
                let col_idx = self
                    .table(table_idx)
                    .schema()
                    .column_index(&col.column)
                    .ok_or_else(|| DbError::UnknownColumn { column: col.to_string() })?;
                Ok(Resolved { table_idx, col_idx })
            }
            None => {
                let mut found = None;
                for (table_idx, (_, table)) in self.tables().enumerate() {
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

    /// Resolves the join clauses to `(probe, build column)` pairs:
    /// `probe` is the side already in the chain, the build column
    /// belongs to the table the clause adds.
    fn resolve_joins(&self, stmt: &SelectStmt) -> Result<Vec<(Resolved, usize)>, DbError> {
        let mut joins = Vec::with_capacity(stmt.joins.len());
        for (ji, join) in stmt.joins.iter().enumerate() {
            let left = self.resolve(&join.left)?;
            let right = self.resolve(&join.right)?;
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
                    message: format!(
                        "join condition for `{}` references a later table",
                        join.table
                    ),
                });
            }
            joins.push((probe, build.col_idx));
        }
        Ok(joins)
    }

    /// Result column names of a plain (non-aggregate) SELECT, in
    /// projection order.
    fn output_names<'s>(&'s self, stmt: &'s SelectStmt) -> impl Iterator<Item = &'s str> {
        let star = stmt.projection.is_empty();
        let all = self
            .tables()
            .flat_map(|(_, t)| t.schema().columns().iter().map(|c| c.name()))
            .filter(move |_| star);
        let listed = stmt.projection.iter().filter_map(|item| match item {
            SelectItem::Column(c) => Some(c.column.as_str()),
            SelectItem::Aggregate { .. } => None,
        });
        all.chain(listed)
    }
}

/// A `WHERE` predicate with every column resolved, borrowing its
/// literals and patterns from the statement.
pub(crate) enum Filter<'s> {
    Compare { left: Resolved, op: CmpOp, right: Rhs<'s> },
    Like { column: Resolved, pattern: &'s str, negated: bool },
    IsNull { column: Resolved, negated: bool },
    And(Box<Filter<'s>>, Box<Filter<'s>>),
    Or(Box<Filter<'s>>, Box<Filter<'s>>),
    Not(Box<Filter<'s>>),
}

pub(crate) enum Rhs<'s> {
    Literal(&'s Value),
    Column(Resolved),
}

impl<'s> Filter<'s> {
    /// Resolves every column reference of `expr`, so unknown and
    /// ambiguous columns error before any row is read (and on empty
    /// tables).
    fn compile(expr: &'s Expr, ctx: &ExecContext<'_>) -> Result<Self, DbError> {
        Ok(match expr {
            Expr::Compare { left, op, right } => Filter::Compare {
                left: ctx.resolve(left)?,
                op: *op,
                right: match right {
                    Operand::Literal(v) => Rhs::Literal(v),
                    Operand::Column(c) => Rhs::Column(ctx.resolve(c)?),
                },
            },
            Expr::Like { column, pattern, negated } => {
                Filter::Like { column: ctx.resolve(column)?, pattern, negated: *negated }
            }
            Expr::IsNull { column, negated } => {
                Filter::IsNull { column: ctx.resolve(column)?, negated: *negated }
            }
            Expr::And(a, b) => {
                Filter::And(Box::new(Filter::compile(a, ctx)?), Box::new(Filter::compile(b, ctx)?))
            }
            Expr::Or(a, b) => {
                Filter::Or(Box::new(Filter::compile(a, ctx)?), Box::new(Filter::compile(b, ctx)?))
            }
            Expr::Not(e) => Filter::Not(Box::new(Filter::compile(e, ctx)?)),
        })
    }

    /// Compiles a predicate over a single table (UPDATE and DELETE).
    pub(crate) fn for_table(expr: &'s Expr, name: &str, table: &Table) -> Result<Self, DbError> {
        Filter::compile(expr, &ExecContext::new((name, table), Vec::new()))
    }

    /// Whether the predicate holds for `row` of the table it was
    /// compiled for with [`Filter::for_table`].
    pub(crate) fn matches_row(&self, row: &[Value]) -> bool {
        self.matches(&[row])
    }

    /// SQL three-valued logic collapses UNKNOWN to false at the top.
    fn matches(&self, chain: &[&[Value]]) -> bool {
        self.eval(chain) == Some(true)
    }

    fn eval(&self, chain: &[&[Value]]) -> Option<bool> {
        match self {
            Filter::Compare { left, op, right } => {
                let r = match right {
                    Rhs::Literal(v) => v,
                    Rhs::Column(c) => c.of(chain),
                };
                left.of(chain).compare(r).map(|ord| match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => !ord.is_eq(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                })
            }
            Filter::Like { column, pattern, negated } => match column.of(chain) {
                Value::Null => None,
                Value::Text(s) => Some(like_match(s, pattern) != *negated),
                other => Some(like_match(&other.render(), pattern) != *negated),
            },
            Filter::IsNull { column, negated } => Some(column.of(chain).is_null() != *negated),
            Filter::And(a, b) => match a.eval(chain) {
                Some(false) => Some(false),
                left => match (left, b.eval(chain)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            Filter::Or(a, b) => match a.eval(chain) {
                Some(true) => Some(true),
                left => match (left, b.eval(chain)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            Filter::Not(e) => e.eval(chain).map(|b| !b),
        }
    }

    /// The first top-level (conjunctive) `column = literal` on an
    /// indexed column of the base table, as `(column index, literal)`.
    fn indexed_equality(&self, base: &Table) -> Option<(usize, &'s Value)> {
        match self {
            Filter::Compare { left, op: CmpOp::Eq, right: Rhs::Literal(v) }
                if left.table_idx == 0 && base.has_index(left.col_idx) =>
            {
                Some((left.col_idx, v))
            }
            Filter::And(a, b) => a.indexed_equality(base).or_else(|| b.indexed_equality(base)),
            _ => None,
        }
    }
}

/// Joined rows that passed the filter: `stride` borrowed per-table rows
/// per chain, back to back.
struct Chains<'a> {
    rows: Vec<&'a [Value]>,
    stride: usize,
}

impl<'a> Chains<'a> {
    fn len(&self) -> usize {
        self.rows.len() / self.stride
    }

    #[inline]
    fn get(&self, i: usize) -> &[&'a [Value]] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }
}

/// Scans the base table (through an index when the filter has an
/// equality on an indexed base column), nested-loop joins through the
/// join clauses (index-assisted on the new table), and keeps the chains
/// the filter accepts.
fn build_chains<'a>(
    ctx: &ExecContext<'a>,
    joins: &[(Resolved, usize)],
    filter: Option<&Filter<'_>>,
) -> Chains<'a> {
    let stride = 1 + ctx.joined.len();
    let base = ctx.base.1;
    // The filter sees whole chains, so it runs at the last stage only.
    let keep = |chain: &[&[Value]]| filter.is_none_or(|f| f.matches(chain));
    let mut rows: Vec<&'a [Value]> = Vec::new();
    match filter.and_then(|f| f.indexed_equality(base)) {
        Some((col, value)) => {
            let rids = base.index_lookup(col, value).unwrap_or_default();
            rows.extend(
                rids.iter()
                    .filter_map(|&rid| base.row(rid))
                    .filter(|&row| stride > 1 || keep(&[row])),
            );
        }
        None => {
            if filter.is_none() || stride > 1 {
                rows.reserve(base.len());
            }
            rows.extend(base.scan().map(|(_, row)| row).filter(|&row| stride > 1 || keep(&[row])));
        }
    }
    for (ji, &(probe, build_col)) in joins.iter().enumerate() {
        let right = ctx.table(ji + 1);
        let width = ji + 1;
        let last = width + 1 == stride;
        let mut next: Vec<&'a [Value]> = Vec::new();
        for chain in rows.chunks_exact(width) {
            let mut emit = |row: &'a [Value]| {
                next.extend_from_slice(chain);
                next.push(row);
                let start = next.len() - width - 1;
                if last && !keep(&next[start..]) {
                    next.truncate(start);
                }
            };
            let key = probe.of(chain);
            match right.index_lookup(build_col, key) {
                Some(rids) => rids.iter().filter_map(|&rid| right.row(rid)).for_each(&mut emit),
                None => right
                    .scan()
                    .map(|(_, row)| row)
                    .filter(|row| row[build_col].sql_eq(key) == Some(true))
                    .for_each(&mut emit),
            }
        }
        rows = next;
    }
    Chains { rows, stride }
}

/// What a plain SELECT's rows depend on besides the tables: its
/// `WHERE`, `ORDER BY` and joins, resolved.
struct Scan<'s> {
    filter: Option<Filter<'s>>,
    order: Option<(Resolved, OrderDir)>,
    joins: Vec<(Resolved, usize)>,
}

impl<'s> Scan<'s> {
    fn new(stmt: &'s SelectStmt, ctx: &ExecContext<'_>) -> Result<Self, DbError> {
        let filter = stmt.predicate.as_ref().map(|p| Filter::compile(p, ctx)).transpose()?;
        let order = match &stmt.order_by {
            Some((col, dir)) => Some((ctx.resolve(col)?, *dir)),
            None => None,
        };
        let joins = ctx.resolve_joins(stmt)?;
        Ok(Scan { filter, order, joins })
    }
}

/// The projection of a plain SELECT, each column resolved, in output
/// order (`*` is every column of every table in the chain).
fn projected<'c>(
    stmt: &'c SelectStmt,
    ctx: &'c ExecContext<'_>,
) -> impl Iterator<Item = Result<Resolved, DbError>> + 'c {
    let star = stmt.projection.is_empty();
    let all = ctx.tables().enumerate().filter(move |_| star).flat_map(|(ti, (_, t))| {
        (0..t.schema().arity()).map(move |ci| Ok(Resolved { table_idx: ti, col_idx: ci }))
    });
    let listed = stmt.projection.iter().map(|item| match item {
        SelectItem::Column(c) => ctx.resolve(c),
        SelectItem::Aggregate { .. } => unreachable!("aggregates take their own path"),
    });
    all.chain(listed)
}

/// A plain SELECT resolved against its tables.
struct Plan<'s> {
    projection: Vec<Resolved>,
    scan: Scan<'s>,
}

impl<'s> Plan<'s> {
    /// Resolves projection, predicate, ordering and joins up front, in
    /// that order, so errors surface even on empty tables.
    fn new(stmt: &'s SelectStmt, ctx: &ExecContext<'_>) -> Result<Self, DbError> {
        let projection = projected(stmt, ctx).collect::<Result<_, _>>()?;
        Ok(Plan { projection, scan: Scan::new(stmt, ctx)? })
    }
}

/// The projected values of one chain, ordered like the `Vec<Value>` row
/// they would materialize to.
struct ProjectedRow<'p, 'a> {
    chain: &'p [&'a [Value]],
    projection: &'p [Resolved],
}

impl Ord for ProjectedRow<'_, '_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let values = |row: &Self| row.projection.iter().map(|r| r.of(row.chain));
        values(self).cmp(values(other))
    }
}

impl PartialOrd for ProjectedRow<'_, '_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ProjectedRow<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ProjectedRow<'_, '_> {}

/// The rows a plain SELECT selects: its chains that passed the filter,
/// and their indices in output order.
pub(crate) struct Rows<'a> {
    chains: Chains<'a>,
    order: Vec<usize>,
}

impl<'a> Rows<'a> {
    /// Runs the pipeline of a plain SELECT up to (not including)
    /// projection; `projection` is what `DISTINCT` compares.
    fn select(
        stmt: &SelectStmt,
        scan: &Scan<'_>,
        projection: &[Resolved],
        ctx: &ExecContext<'a>,
    ) -> Self {
        let chains = build_chains(ctx, &scan.joins, scan.filter.as_ref());

        // Distinct: keep the first occurrence of each projected row,
        // before ORDER BY.
        let mut order: Vec<usize> = if stmt.distinct {
            let mut seen = BTreeSet::new();
            let first = |&i: &usize| seen.insert(ProjectedRow { chain: chains.get(i), projection });
            (0..chains.len()).filter(first).collect()
        } else {
            (0..chains.len()).collect()
        };

        // Order: a stable ascending sort, reversed as a whole for DESC (so
        // tied keys come out in reverse scan order). Survivors already in
        // key order — a primary-key scan — are not sorted again.
        if let Some((col, dir)) = scan.order {
            let key = |i: usize| col.of(chains.get(i));
            if !order.is_sorted_by(|&a, &b| key(a).total_cmp(key(b)) != Ordering::Greater) {
                order.sort_by(|&a, &b| key(a).total_cmp(key(b)));
            }
            if dir == OrderDir::Desc {
                order.reverse();
            }
        }

        if let Some(limit) = stmt.limit {
            order.truncate(limit);
        }
        Rows { chains, order }
    }

    /// The rows of `stmt`, a statement that shares its rows
    /// ([`SelectStmt::shares_rows`]), or the error resolving its
    /// `WHERE`, `ORDER BY` or joins.
    pub(crate) fn of(stmt: &SelectStmt, ctx: &ExecContext<'a>) -> Result<Self, DbError> {
        Ok(Rows::select(stmt, &Scan::new(stmt, ctx)?, &[], ctx))
    }

    /// The column of `stmt`, a statement sharing these rows, named
    /// `column` (case-insensitively; its first), or the error `stmt`
    /// alone would raise: its projection's, then the rows', then an
    /// unknown column.
    pub(crate) fn column(
        rows: &Result<Self, DbError>,
        stmt: &SelectStmt,
        ctx: &ExecContext<'a>,
        column: &str,
    ) -> Result<Resolved, DbError> {
        projected(stmt, ctx).try_for_each(|r| r.map(drop))?;
        rows.as_ref().map_err(DbError::clone)?;
        let idx = output_index(stmt, ctx, column)?;
        projected(stmt, ctx).nth(idx).expect("one resolved column per output name")
    }

    /// How many rows were selected.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether `col` holds a NULL in a selected row: none does when its
    /// table holds none.
    pub(crate) fn has_null(&self, col: Resolved, ctx: &ExecContext<'_>) -> bool {
        ctx.table(col.table_idx).has_null(col.col_idx)
            && (0..self.len()).any(|row| self.cell(col, row).is_null())
    }

    /// The cell of `col` in row `row` (a position in output order).
    #[inline]
    pub(crate) fn cell(&self, col: Resolved, row: usize) -> &'a Value {
        col.of(self.chains.get(self.order[row]))
    }

    /// Hands `sink` the non-NULL cells of `col` in the rows at the
    /// positions `rows` yields, in that order. Sized by what the table
    /// stores, not by a pass over the rows: none is wider than the
    /// column's widest value, and distinct rows hold no more than the
    /// column does.
    pub(crate) fn push_column(
        &self,
        col: Resolved,
        rows: impl ExactSizeIterator<Item = usize>,
        ctx: &ExecContext<'_>,
        sink: &mut impl ColumnSink,
    ) {
        let n = rows.len();
        let (widest, stored) = ctx.table(col.table_idx).text_bytes(col.col_idx);
        sink.size(n, n.saturating_mul(widest).min(stored));
        rows.map(|row| self.cell(col, row)).filter(|v| !v.is_null()).for_each(|v| sink.push(v));
    }
}

/// The position of the first output column of a plain `stmt` named
/// `column`, case-insensitively.
fn output_index(stmt: &SelectStmt, ctx: &ExecContext<'_>, column: &str) -> Result<usize, DbError> {
    ctx.output_names(stmt)
        .position(|name| name.eq_ignore_ascii_case(column))
        .ok_or_else(|| DbError::UnknownColumn { column: column.to_string() })
}

/// Runs a SELECT over the given table chain (base table first, joined
/// tables in join order). Returns `(column_names, rows)`.
pub(crate) fn run_select(
    stmt: &SelectStmt,
    ctx: &ExecContext<'_>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    if stmt.has_aggregates() || stmt.group_by.is_some() {
        return run_aggregate_select(stmt, ctx);
    }
    let plan = Plan::new(stmt, ctx)?;
    let names = ctx.output_names(stmt).map(str::to_string).collect();
    let Rows { chains, order } = Rows::select(stmt, &plan.scan, &plan.projection, ctx);
    let project =
        |&i: &usize| plan.projection.iter().map(|r| r.of(chains.get(i)).clone()).collect();
    Ok((names, order.iter().map(project).collect()))
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
    let filter = stmt.predicate.as_ref().map(|p| Filter::compile(p, ctx)).transpose()?;
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
    let joins = ctx.resolve_joins(stmt)?;

    let chains = build_chains(ctx, &joins, filter.as_ref());

    // Group: chain indices under each key; the map iterates ascending.
    let mut groups: BTreeMap<Option<&Value>, Vec<usize>> = BTreeMap::new();
    for i in 0..chains.len() {
        groups.entry(group_col.map(|g| g.of(chains.get(i)))).or_default().push(i);
    }
    if group_col.is_none() && groups.is_empty() {
        // One empty group so global aggregates return a row.
        groups.insert(None, Vec::new());
    }

    let mut result_rows: Vec<Vec<Value>> = groups
        .iter()
        .map(|(key, members)| {
            outputs
                .iter()
                .map(|o| match o {
                    Output::Group => key.cloned().unwrap_or(Value::Null),
                    Output::Agg(func, arg) => aggregate(*func, *arg, members, &chains),
                })
                .collect()
        })
        .collect();
    if order_dir == Some(OrderDir::Desc) {
        result_rows.reverse();
    }
    if let Some(n) = stmt.limit {
        result_rows.truncate(n);
    }
    Ok((names, result_rows))
}

fn aggregate(
    func: AggFunc,
    arg: Option<Resolved>,
    members: &[usize],
    chains: &Chains<'_>,
) -> Value {
    let values =
        |r: Resolved| members.iter().map(move |&i| r.of(chains.get(i))).filter(|v| !v.is_null());
    match (func, arg) {
        (AggFunc::Count, None) => Value::Int(members.len() as i64),
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
