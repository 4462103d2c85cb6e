//! SQL rendering: turns a [`SelectStmt`] back into parseable text.
//!
//! The federated planner rewrites extraction rules by splicing pushed
//! predicates into their parsed ASTs and shipping the rendered SQL to
//! the source, so the renderer must emit exactly the dialect the
//! parser accepts (round-trip property tested below).

use std::fmt;

use crate::sql::ast::{CmpOp, Expr, Operand, OrderDir, SelectItem, SelectStmt};
use crate::value::Value;

impl CmpOp {
    /// The canonical operator token.
    pub fn token(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Parses an operator token (`=`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn from_token(token: &str) -> Option<CmpOp> {
        Some(match token {
            "=" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// Renders a value as a SQL literal (strings quoted with `''`
/// escaping, floats always with a decimal point so they re-lex as
/// floats).
pub fn sql_literal(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Compare { left, op, right } => {
                write!(f, "{left} {} ", op.token())?;
                match right {
                    Operand::Literal(v) => f.write_str(&sql_literal(v)),
                    Operand::Column(c) => write!(f, "{c}"),
                }
            }
            Expr::Like { column, pattern, negated } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "{column} {not}LIKE '{}'", pattern.replace('\'', "''"))
            }
            Expr::IsNull { column, negated } => {
                write!(f, "{column} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            // No parentheses of its own: AND/OR bring theirs and the
            // leaves bind tighter than NOT, so the text nests exactly as
            // deep as the tree and re-parses under the same depth cap.
            Expr::Not(e) => write!(f, "NOT {e}"),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate { func, arg } => {
                write!(f, "{}(", func.name().to_ascii_uppercase())?;
                match arg {
                    Some(c) => write!(f, "{c})"),
                    None => f.write_str("*)"),
                }
            }
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        if self.projection.is_empty() {
            f.write_str("*")?;
        } else {
            for (i, item) in self.projection.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        write!(f, " FROM {}", self.table)?;
        for j in self.joins.iter() {
            write!(f, " JOIN {} ON {} = {}", j.table, j.left, j.right)?;
        }
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        if let Some(g) = &self.group_by {
            write!(f, " GROUP BY {g}")?;
        }
        if let Some((col, dir)) = &self.order_by {
            let dir = match dir {
                OrderDir::Asc => "ASC",
                OrderDir::Desc => "DESC",
            };
            write!(f, " ORDER BY {col} {dir}")?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Statement;
    use crate::sql::parse;

    fn roundtrip(sql: &str) {
        let first = match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        };
        let rendered = first.to_string();
        let second = match parse(&rendered).unwrap() {
            Statement::Select(s) => s,
            other => panic!("render not a select: {other:?}"),
        };
        assert_eq!(first, second, "round-trip changed AST for `{sql}` → `{rendered}`");
    }

    #[test]
    fn roundtrips_cover_grammar() {
        roundtrip("SELECT brand FROM watches ORDER BY id ASC");
        roundtrip("SELECT * FROM t");
        roundtrip("SELECT DISTINCT a, b FROM t WHERE a >= -2.5 AND b != 'it''s' LIMIT 3");
        roundtrip("SELECT COUNT(*), SUM(price) FROM t GROUP BY brand");
        roundtrip("SELECT a FROM t JOIN u ON t.id = u.id WHERE NOT (a = 1 OR b IS NOT NULL)");
        roundtrip("SELECT a FROM t WHERE a NOT LIKE '%x%' OR b LIKE 'S_%'");
        roundtrip("SELECT a FROM t WHERE b = TRUE AND c = NULL ORDER BY a DESC");
    }

    #[test]
    fn float_literals_stay_floats() {
        assert_eq!(sql_literal(&Value::Float(2.0)), "2.0");
        assert_eq!(sql_literal(&Value::Float(2.5)), "2.5");
        assert_eq!(sql_literal(&Value::Text("a'b".into())), "'a''b'");
    }

    #[test]
    fn cmp_op_tokens_roundtrip() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(CmpOp::from_token(op.token()), Some(op));
        }
        assert_eq!(CmpOp::from_token("<>"), Some(CmpOp::Ne));
        assert_eq!(CmpOp::from_token("LIKE"), None);
    }
}
