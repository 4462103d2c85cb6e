//! Recursive-descent SQL parser.

use crate::error::DbError;
use crate::value::{DataType, Value};

use super::ast::{
    AggFunc, CmpOp, ColumnRef, Expr, JoinClause, Operand, OrderDir, SelectItem, SelectStmt,
    Statement,
};
use super::lexer::{tokenize, Token, TokenKind};

/// Parses one SQL statement.
///
/// # Errors
///
/// Returns [`DbError::Syntax`] with a byte position on any malformed
/// input.
pub fn parse(sql: &str) -> Result<Statement, DbError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, len: sql.len() };
    let stmt = p.parse_statement()?;
    if p.pos < p.tokens.len() {
        return Err(p.err("unexpected trailing tokens"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    len: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> DbError {
        let position = self.tokens.get(self.pos).map(|t| t.position).unwrap_or(self.len);
        DbError::Syntax { position, message: message.into() }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos)?.kind.clone();
        self.pos += 1;
        Some(t)
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), DbError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{sym}`")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn expect_identifier(&mut self) -> Result<String, DbError> {
        match self.bump() {
            Some(TokenKind::Word(w)) if !is_reserved(&w) => Ok(w),
            Some(TokenKind::Word(w)) => Err(self.err(format!("`{w}` is a reserved word"))),
            _ => Err(self.err("expected identifier")),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, DbError> {
        if self.eat_keyword("CREATE") {
            if self.eat_keyword("TABLE") {
                return self.parse_create_table();
            }
            if self.eat_keyword("INDEX") {
                return self.parse_create_index();
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_keyword("INSERT") {
            return self.parse_insert();
        }
        if self.eat_keyword("SELECT") {
            return Ok(Statement::Select(self.parse_select()?));
        }
        if self.eat_keyword("UPDATE") {
            return self.parse_update();
        }
        if self.eat_keyword("DELETE") {
            return self.parse_delete();
        }
        Err(self.err("expected CREATE, INSERT, SELECT, UPDATE, or DELETE"))
    }

    fn parse_create_table(&mut self) -> Result<Statement, DbError> {
        let name = self.expect_identifier()?;
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_identifier()?;
            let ty = self.parse_type()?;
            let pk = if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                true
            } else {
                false
            };
            columns.push((col, ty, pk));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn parse_type(&mut self) -> Result<DataType, DbError> {
        match self.bump() {
            Some(TokenKind::Word(w)) => match w.to_ascii_uppercase().as_str() {
                "INTEGER" | "INT" => Ok(DataType::Integer),
                "REAL" | "FLOAT" | "DOUBLE" => Ok(DataType::Real),
                "TEXT" | "VARCHAR" | "STRING" => Ok(DataType::Text),
                "BOOLEAN" | "BOOL" => Ok(DataType::Boolean),
                other => Err(self.err(format!("unknown type `{other}`"))),
            },
            _ => Err(self.err("expected a type name")),
        }
    }

    fn parse_create_index(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("ON")?;
        let table = self.expect_identifier()?;
        self.expect_symbol("(")?;
        let column = self.expect_identifier()?;
        self.expect_symbol(")")?;
        Ok(Statement::CreateIndex { table, column })
    }

    fn parse_insert(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("INTO")?;
        let table = self.expect_identifier()?;
        let columns = if self.eat_symbol("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_identifier()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_value()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn parse_value(&mut self) -> Result<Value, DbError> {
        match self.bump() {
            Some(TokenKind::Int(i)) => Ok(Value::Int(i)),
            Some(TokenKind::Float(f)) => Ok(Value::Float(f)),
            Some(TokenKind::Str(s)) => Ok(Value::Text(s)),
            Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            _ => Err(self.err("expected a literal value")),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStmt, DbError> {
        let distinct = self.eat_keyword("DISTINCT");
        // Projection.
        let mut projection = Vec::new();
        if self.eat_symbol("*") {
            // empty projection = all columns
        } else {
            loop {
                projection.push(self.parse_select_item()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        self.expect_keyword("FROM")?;
        let table = self.expect_identifier()?;

        let mut joins = Vec::new();
        while self.eat_keyword("JOIN") || {
            if self.peek_keyword("INNER") {
                self.pos += 1;
                self.expect_keyword("JOIN")?;
                true
            } else {
                false
            }
        } {
            let jtable = self.expect_identifier()?;
            self.expect_keyword("ON")?;
            let left = self.parse_column_ref()?;
            self.expect_symbol("=")?;
            let right = self.parse_column_ref()?;
            joins.push(JoinClause { table: jtable, left, right });
        }

        let predicate = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };

        let group_by = if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            Some(self.parse_column_ref()?)
        } else {
            None
        };

        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            let col = self.parse_column_ref()?;
            let dir = if self.eat_keyword("DESC") {
                OrderDir::Desc
            } else {
                self.eat_keyword("ASC");
                OrderDir::Asc
            };
            Some((col, dir))
        } else {
            None
        };

        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Some(TokenKind::Int(n)) if n >= 0 => Some(n as usize),
                _ => return Err(self.err("expected a non-negative integer after LIMIT")),
            }
        } else {
            None
        };

        Ok(SelectStmt { distinct, projection, table, joins, predicate, group_by, order_by, limit })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, DbError> {
        // Aggregate call?
        if let Some(TokenKind::Word(w)) = self.peek() {
            let func = match w.to_ascii_uppercase().as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                // Only treat as aggregate when followed by `(`.
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Symbol("("))
                ) {
                    self.pos += 2; // word + '('
                    let arg = if self.eat_symbol("*") {
                        if func != AggFunc::Count {
                            return Err(self.err("`*` is only valid in COUNT(*)"));
                        }
                        None
                    } else {
                        Some(self.parse_column_ref()?)
                    };
                    self.expect_symbol(")")?;
                    return Ok(SelectItem::Aggregate { func, arg });
                }
            }
        }
        Ok(SelectItem::Column(self.parse_column_ref()?))
    }

    fn parse_column_ref(&mut self) -> Result<ColumnRef, DbError> {
        let first = self.expect_identifier()?;
        if self.eat_symbol(".") {
            let second = self.expect_identifier()?;
            Ok(ColumnRef::qualified(first, second))
        } else {
            Ok(ColumnRef::new(first))
        }
    }

    fn parse_update(&mut self) -> Result<Statement, DbError> {
        let table = self.expect_identifier()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_identifier()?;
            self.expect_symbol("=")?;
            sets.push((col, self.parse_value()?));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let predicate = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update { table, sets, predicate })
    }

    fn parse_delete(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("FROM")?;
        let table = self.expect_identifier()?;
        let predicate = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete { table, predicate })
    }

    // Expression grammar: or_expr := and_expr (OR and_expr)*
    //                     and_expr := unary (AND unary)*
    //                     unary := NOT unary | atom
    //                     atom := '(' or_expr ')' | comparison
    //
    // `nesting` counts the enclosing parentheses and NOTs (the parser's
    // own recursion); each function also returns the height of the tree
    // it built, which AND/OR chains deepen without recursing. Both are
    // capped at `MAX_EXPR_DEPTH`, so everything that later walks or
    // drops the tree recurses at most that deep.
    fn parse_expr(&mut self) -> Result<Expr, DbError> {
        Ok(*self.parse_or(0)?.0)
    }

    // The recursive functions pass the tree around boxed (every node
    // but the root ends up boxed anyway), which keeps their frames
    // small: a level of nesting is three of them.
    fn parse_or(&mut self, nesting: usize) -> Result<(Box<Expr>, usize), DbError> {
        let (mut left, mut height) = self.parse_and(nesting)?;
        while self.eat_keyword("OR") {
            let (right, h) = self.parse_and(nesting)?;
            height = one_deeper(height.max(h))?;
            left = Box::new(Expr::Or(left, right));
        }
        Ok((left, height))
    }

    fn parse_and(&mut self, nesting: usize) -> Result<(Box<Expr>, usize), DbError> {
        let (mut left, mut height) = self.parse_unary(nesting)?;
        while self.eat_keyword("AND") {
            let (right, h) = self.parse_unary(nesting)?;
            height = one_deeper(height.max(h))?;
            left = Box::new(Expr::And(left, right));
        }
        Ok((left, height))
    }

    fn parse_unary(&mut self, nesting: usize) -> Result<(Box<Expr>, usize), DbError> {
        if self.eat_keyword("NOT") {
            let (e, h) = self.parse_unary(one_deeper(nesting)?)?;
            return Ok((Box::new(Expr::Not(e)), one_deeper(h)?));
        }
        if self.eat_symbol("(") {
            let inner = self.parse_or(one_deeper(nesting)?)?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        Ok((Box::new(self.parse_comparison()?), 1))
    }

    fn parse_comparison(&mut self) -> Result<Expr, DbError> {
        let column = self.parse_column_ref()?;
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { column, negated });
        }
        if self.eat_keyword("LIKE") {
            let pattern = match self.bump() {
                Some(TokenKind::Str(s)) => s,
                _ => return Err(self.err("expected a string pattern after LIKE")),
            };
            return Ok(Expr::Like { column, pattern, negated: false });
        }
        if self.eat_keyword("NOT") {
            self.expect_keyword("LIKE")?;
            let pattern = match self.bump() {
                Some(TokenKind::Str(s)) => s,
                _ => return Err(self.err("expected a string pattern after LIKE")),
            };
            return Ok(Expr::Like { column, pattern, negated: true });
        }
        let op = match self.bump() {
            Some(TokenKind::Symbol("=")) => CmpOp::Eq,
            Some(TokenKind::Symbol("!=")) => CmpOp::Ne,
            Some(TokenKind::Symbol("<")) => CmpOp::Lt,
            Some(TokenKind::Symbol("<=")) => CmpOp::Le,
            Some(TokenKind::Symbol(">")) => CmpOp::Gt,
            Some(TokenKind::Symbol(">=")) => CmpOp::Ge,
            _ => return Err(self.err("expected a comparison operator")),
        };
        // RHS: literal or column reference.
        let right = match self.peek() {
            Some(TokenKind::Word(w))
                if !w.eq_ignore_ascii_case("NULL")
                    && !w.eq_ignore_ascii_case("TRUE")
                    && !w.eq_ignore_ascii_case("FALSE")
                    && !is_reserved(w) =>
            {
                Operand::Column(self.parse_column_ref()?)
            }
            _ => Operand::Literal(self.parse_value()?),
        };
        Ok(Expr::Compare { left: column, op, right })
    }
}

/// Deepest `WHERE` expression accepted, counted both as nesting of
/// parentheses/`NOT` and as height of the parsed tree. The parser, the
/// filter compiler and evaluator, the renderer and `Drop` all recurse
/// once per level; unbounded, `((((…` or `NOT NOT …` overflowed the
/// stack and aborted the process.
pub const MAX_EXPR_DEPTH: usize = 250;

fn one_deeper(depth: usize) -> Result<usize, DbError> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(DbError::NestingTooDeep { limit: MAX_EXPR_DEPTH });
    }
    Ok(depth + 1)
}

fn is_reserved(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "SELECT"
            | "FROM"
            | "WHERE"
            | "AND"
            | "OR"
            | "NOT"
            | "INSERT"
            | "INTO"
            | "VALUES"
            | "CREATE"
            | "TABLE"
            | "INDEX"
            | "UPDATE"
            | "SET"
            | "DELETE"
            | "JOIN"
            | "INNER"
            | "ON"
            | "ORDER"
            | "BY"
            | "GROUP"
            | "DISTINCT"
            | "LIMIT"
            | "LIKE"
            | "IS"
            | "NULL"
            | "PRIMARY"
            | "KEY"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_roundtrip() {
        let s =
            parse("CREATE TABLE watches (id INTEGER PRIMARY KEY, brand TEXT, price REAL)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "watches");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].2);
                assert_eq!(columns[1], ("brand".into(), DataType::Text, false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap();
        match s {
            Statement::Insert { table, columns, rows } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), ["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert!(rows[1][1].is_null());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_full_clause_set() {
        let s = parse(
            "SELECT brand, price FROM watches WHERE price >= 50 AND brand LIKE 'S%' \
             ORDER BY price DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.projection.len(), 2);
                assert_eq!(sel.table, "watches");
                assert!(sel.predicate.is_some());
                assert_eq!(sel.order_by.unwrap().1, OrderDir::Desc);
                assert_eq!(sel.limit, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_star() {
        let s = parse("SELECT * FROM t").unwrap();
        match s {
            Statement::Select(sel) => assert!(sel.projection.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_join() {
        let s = parse(
            "SELECT watches.brand, providers.name FROM watches \
             JOIN providers ON watches.provider_id = providers.id",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.joins.len(), 1);
                assert_eq!(sel.joins[0].table, "providers");
                assert_eq!(sel.joins[0].left, ColumnRef::qualified("watches", "provider_id"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expr_precedence_or_lower_than_and() {
        let s = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s {
            Statement::Select(sel) => match sel.predicate.unwrap() {
                Expr::Or(_, right) => assert!(matches!(*right, Expr::And(_, _))),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expr_not_and_parens() {
        let s = parse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)").unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(matches!(sel.predicate.unwrap(), Expr::Not(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn is_null_and_not_like() {
        let s = parse("SELECT * FROM t WHERE a IS NOT NULL AND b NOT LIKE '%x%'").unwrap();
        match s {
            Statement::Select(sel) => match sel.predicate.unwrap() {
                Expr::And(l, r) => {
                    assert!(matches!(*l, Expr::IsNull { negated: true, .. }));
                    assert!(matches!(*r, Expr::Like { negated: true, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn column_to_column_comparison() {
        let s = parse("SELECT * FROM t WHERE a = b").unwrap();
        match s {
            Statement::Select(sel) => match sel.predicate.unwrap() {
                Expr::Compare { right: Operand::Column(c), .. } => assert_eq!(c.column, "b"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        let s = parse("UPDATE t SET a = 1, b = 'x' WHERE c = 2").unwrap();
        match s {
            Statement::Update { sets, predicate, .. } => {
                assert_eq!(sets.len(), 2);
                assert!(predicate.is_some());
            }
            other => panic!("{other:?}"),
        }
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Statement::Delete { predicate: None, .. }));
    }

    #[test]
    fn create_index() {
        let s = parse("CREATE INDEX ON t (brand)").unwrap();
        match s {
            Statement::CreateIndex { table, column } => {
                assert_eq!(table, "t");
                assert_eq!(column, "brand");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_syntax_errors() {
        assert!(matches!(parse("SELEC *"), Err(DbError::Syntax { .. })));
        assert!(matches!(parse("SELECT FROM"), Err(DbError::Syntax { .. })));
        assert!(matches!(parse("SELECT * FROM t WHERE"), Err(DbError::Syntax { .. })));
        assert!(matches!(parse("SELECT * FROM t LIMIT -1"), Err(DbError::Syntax { .. })));
        assert!(matches!(parse("SELECT * FROM t extra garbage"), Err(DbError::Syntax { .. })));
        assert!(matches!(parse("CREATE TABLE t (a BLOB)"), Err(DbError::Syntax { .. })));
    }

    #[test]
    fn reserved_words_rejected_as_identifiers() {
        assert!(parse("CREATE TABLE select (a INTEGER)").is_err());
    }

    #[test]
    fn boolean_literals() {
        let s = parse("INSERT INTO t VALUES (TRUE), (FALSE)").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], Value::Bool(true));
                assert_eq!(rows[1][0], Value::Bool(false));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Hostile rules: `((((…` and `NOT NOT …` × 10 000 used to overflow
    /// the stack in `parse_unary` and abort the process; a 10 000-term
    /// AND chain parses iteratively but builds a tree just as deep for
    /// everything downstream.
    #[test]
    fn expression_nesting_is_capped() {
        let too_deep = |sql: String| {
            let head = &sql[..40];
            assert_eq!(
                parse(&sql),
                Err(DbError::NestingTooDeep { limit: MAX_EXPR_DEPTH }),
                "{head}"
            );
        };
        let n = 10_000;
        too_deep(format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(n), ")".repeat(n)));
        too_deep(format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(n)));
        too_deep(format!("SELECT a FROM t WHERE a = 1{}", " AND a = 1".repeat(n)));
        too_deep(format!("DELETE FROM t WHERE a = 1{}", " OR a = 1".repeat(n)));
        // Unbalanced: the cap, not the missing `)`, is what stops it.
        too_deep(format!("SELECT a FROM t WHERE {}", "(".repeat(n)));
    }

    /// An expression exactly at the cap parses, and what walks the tree
    /// — the filter compiler and evaluator, the renderer, `Clone`, `==`,
    /// `Drop` — fits a worker thread's stack.
    #[test]
    fn expression_at_the_cap_is_safe_to_run_and_drop() {
        let d = MAX_EXPR_DEPTH;
        let nested = format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(d), ")".repeat(d));
        let negated = format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(d - 1));
        let chained = format!("SELECT a FROM t WHERE a = 1{}", " AND a = 1".repeat(d - 1));
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(move || {
            let mut db = crate::Database::new("d");
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
            for (sql, rows) in [(nested, 1), (negated, 1), (chained, 1)] {
                let stmt = crate::Database::prepare_select(&sql).expect("depth at the cap parses");
                assert_eq!(db.query_prepared(&stmt).unwrap().len(), rows, "{}", &sql[..40]);
                assert_eq!(stmt.clone(), stmt);
                assert_eq!(crate::Database::prepare_select(&stmt.to_sql()).as_ref(), Ok(&stmt));
            }
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
    }
}
