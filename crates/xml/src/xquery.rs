//! An XQuery-lite FLWOR engine.
//!
//! The paper's §2.3.1 names XQuery alongside XPath as an XML extraction
//! rule language. This module implements the FLWOR subset extraction
//! rules need:
//!
//! ```text
//! query  := 'for' '$'var 'in' xpath
//!           ('where' cond ('and' cond)*)?
//!           'return' ret
//! cond   := relpath op 'literal'    op ∈ { =, != }
//!         | 'contains(' relpath ',' 'literal' ')'
//! ret    := relpath                 (evaluated per binding, as strings)
//!         | 'literal'               (constant per binding)
//!         | concat(ret, ret, …)     (nested at most MAX_DEPTH deep)
//! relpath:= '$'var ('/' xpath-steps)?   or a plain relative xpath
//! ```
//!
//! # Examples
//!
//! ```
//! use s2s_xml::{parse, xquery::XQuery};
//!
//! # fn main() -> Result<(), s2s_xml::XmlError> {
//! let doc = parse(r#"<c><w><b>Seiko</b><p>129</p></w><w><b>Casio</b><p>59</p></w></c>"#)?;
//! let q = XQuery::new("for $w in //w where $w/b = 'Seiko' return $w/p/text()")?;
//! assert_eq!(q.eval(&doc), ["129"]);
//! # Ok(())
//! # }
//! ```

use crate::dom::{Document, Element};
use crate::error::XmlError;
use crate::parser::MAX_DEPTH;
use crate::xpath::XPath;

/// A compiled XQuery-lite query.
#[derive(Debug, Clone, PartialEq)]
pub struct XQuery {
    source: String,
    var: String,
    domain: XPath,
    conditions: Vec<Cond>,
    ret: Ret,
}

#[derive(Debug, Clone, PartialEq)]
enum Cond {
    Compare { path: XPath, negated: bool, value: String },
    Contains { path: XPath, value: String },
}

#[derive(Debug, Clone, PartialEq)]
enum Ret {
    Path(XPath),
    Literal(String),
    Concat(Vec<Ret>),
}

impl XQuery {
    /// Compiles a query.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError::BadXPath`] for malformed FLWOR structure or
    /// any embedded path error, and [`XmlError::NestingTooDeep`] when
    /// `concat` calls nest deeper than [`MAX_DEPTH`].
    pub fn new(query: &str) -> Result<Self, XmlError> {
        let bad = |m: String| XmlError::BadXPath { path: query.to_string(), message: m };
        let src = query.trim();

        let rest = src
            .strip_prefix("for ")
            .ok_or_else(|| bad("query must start with `for`".to_string()))?;
        let rest = rest.trim_start();
        let rest = rest
            .strip_prefix('$')
            .ok_or_else(|| bad("expected `$variable` after `for`".to_string()))?;
        let (var, rest) = split_name(rest);
        if var.is_empty() {
            return Err(bad("empty variable name".to_string()));
        }
        let rest = rest.trim_start();
        let rest = rest
            .strip_prefix("in ")
            .ok_or_else(|| bad("expected `in` after the variable".to_string()))?;

        // Domain path runs until ` where ` or ` return `.
        let (domain_text, rest) = split_keyword(rest, &["where", "return"]);
        let domain = XPath::new(domain_text.trim())?;

        let rest = rest.trim_start();
        let (conditions, rest) = if let Some(r) = rest.strip_prefix("where ") {
            parse_conditions(r, query)?
        } else {
            (Vec::new(), rest)
        };

        let rest = rest.trim_start();
        let ret_text = rest
            .strip_prefix("return ")
            .ok_or_else(|| bad("expected `return` clause".to_string()))?;
        let ret = parse_return(ret_text, query)?;

        Ok(XQuery { source: src.to_string(), var: var.to_string(), domain, conditions, ret })
    }

    /// The original query text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The bound variable name (without `$`).
    pub fn variable(&self) -> &str {
        &self.var
    }

    /// Evaluates against a document; one output string per binding that
    /// passes the `where` clause (bindings whose return path yields
    /// multiple strings contribute them all).
    pub fn eval(&self, doc: &Document) -> Vec<String> {
        let mut out = Vec::new();
        self.each_string(doc, |s| out.push(s.to_string()));
        out
    }

    /// [`XQuery::eval`] handing each string to `each` instead of
    /// collecting them, on the terms of [`XPath::each_string`].
    pub fn each_string(&self, doc: &Document, mut each: impl FnMut(&str)) {
        for binding in self.domain.eval(doc) {
            if self.conditions.iter().all(|c| c.matches(binding)) {
                self.ret.produce(binding, &mut each);
            }
        }
    }

    /// Like [`XQuery::eval`], returning the matched elements instead of
    /// the return-clause strings (useful for chaining).
    pub fn eval_bindings<'d>(&self, doc: &'d Document) -> Vec<&'d Element> {
        self.domain
            .eval(doc)
            .into_iter()
            .filter(|b| self.conditions.iter().all(|c| c.matches(b)))
            .collect()
    }
}

impl Cond {
    fn matches(&self, binding: &Element) -> bool {
        let mut hit = false;
        match self {
            Cond::Compare { path, negated, value } => {
                path.each_string_from(binding, |v| hit |= v == value);
                hit != *negated
            }
            Cond::Contains { path, value } => {
                path.each_string_from(binding, |v| hit |= v.contains(value.as_str()));
                hit
            }
        }
    }
}

impl Ret {
    /// `each` is a trait object because `Concat` recurses with a sink of
    /// its own.
    fn produce(&self, binding: &Element, each: &mut dyn FnMut(&str)) {
        match self {
            Ret::Path(p) => p.each_string_from(binding, each),
            Ret::Literal(s) => each(s),
            Ret::Concat(parts) => {
                let mut joined = String::new();
                for part in parts {
                    part.produce(binding, &mut |s| joined.push_str(s));
                }
                each(&joined);
            }
        }
    }
}

impl std::fmt::Display for XQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.source)
    }
}

impl std::str::FromStr for XQuery {
    type Err = XmlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        XQuery::new(s)
    }
}

fn split_name(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    (&s[..end], &s[end..])
}

/// Splits `s` at the first whitespace-delimited occurrence of any
/// keyword outside quoted strings; returns (before,
/// rest-including-keyword).
fn split_keyword<'a>(s: &'a str, keywords: &[&str]) -> (&'a str, &'a str) {
    let mut quote: Option<char> = None;
    let chars: Vec<(usize, char)> = s.char_indices().collect();
    for (idx, &(at, c)) in chars.iter().enumerate() {
        match (quote, c) {
            (Some(q), c) if c == q => {
                quote = None;
                continue;
            }
            (Some(_), _) => continue,
            (None, '\'' | '"') => {
                quote = Some(c);
                continue;
            }
            _ => {}
        }
        for kw in keywords {
            if s[at..].starts_with(kw) {
                let before_ok = idx == 0 || chars[idx - 1].1.is_whitespace();
                let after = &s[at + kw.len()..];
                let after_ok =
                    after.is_empty() || after.chars().next().is_some_and(char::is_whitespace);
                if before_ok && after_ok {
                    return (&s[..at], &s[at..]);
                }
            }
        }
    }
    (s, "")
}

fn parse_conditions<'a>(s: &'a str, query: &str) -> Result<(Vec<Cond>, &'a str), XmlError> {
    let (cond_text, rest) = split_keyword(s, &["return"]);
    let mut conditions = Vec::new();
    for clause in split_and(cond_text) {
        conditions.push(parse_condition(clause.trim(), query)?);
    }
    Ok((conditions, rest))
}

/// Splits on ` and ` outside of quotes.
fn split_and(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth_quote: Option<char> = None;
    let mut start = 0;
    let bytes: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        match (depth_quote, bytes[i]) {
            (Some(q), c) if c == q => depth_quote = None,
            (Some(_), _) => {}
            (None, '\'' | '"') => depth_quote = Some(bytes[i]),
            (None, 'a')
                if s[i..].starts_with("and")
                    && i > 0
                    && bytes[i - 1].is_whitespace()
                    && s[i + 3..].chars().next().is_some_and(char::is_whitespace) =>
            {
                out.push(&s[start..i]);
                start = i + 3;
                i += 3;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&s[start..]);
    out
}

fn parse_condition(clause: &str, query: &str) -> Result<Cond, XmlError> {
    let bad = |m: String| XmlError::BadXPath { path: query.to_string(), message: m };
    if let Some(rest) = clause.strip_prefix("contains(") {
        let rest =
            rest.strip_suffix(')').ok_or_else(|| bad("missing `)` in contains".to_string()))?;
        let (path_text, value_text) =
            rest.split_once(',').ok_or_else(|| bad("contains needs two arguments".to_string()))?;
        let path = parse_var_path(path_text.trim(), query)?;
        let value = unquote(value_text.trim())
            .ok_or_else(|| bad("expected a quoted string".to_string()))?;
        return Ok(Cond::Contains { path, value });
    }
    let (lhs, negated, rhs) = if let Some((l, r)) = clause.split_once("!=") {
        (l, true, r)
    } else if let Some((l, r)) = clause.split_once('=') {
        (l, false, r)
    } else {
        return Err(bad(format!("unsupported condition `{clause}`")));
    };
    let path = parse_var_path(lhs.trim(), query)?;
    let value = unquote(rhs.trim()).ok_or_else(|| bad("expected a quoted string".to_string()))?;
    Ok(Cond::Compare { path, negated, value })
}

/// Parses the return clause `s`, a suffix of `query`, in one pass.
fn parse_return(s: &str, query: &str) -> Result<Ret, XmlError> {
    let mut rest = s;
    let ret = parse_ret(&mut rest, 0, query)?;
    if !rest.trim().is_empty() {
        let message = format!("unexpected `{}` after the return expression", rest.trim());
        return Err(XmlError::BadXPath { path: query.to_string(), message });
    }
    Ok(ret)
}

/// Parses one `ret` off the front of `rest` — `concat(ret, …)`, a quoted
/// literal, or a path running to the next `,` or `)` of its enclosing
/// `concat` — inside `depth` enclosing `concat`s. `rest` stays a suffix
/// of `query`, so a refusal can name its byte offset.
fn parse_ret(rest: &mut &str, depth: usize, query: &str) -> Result<Ret, XmlError> {
    let bad = |m: &str| XmlError::BadXPath { path: query.to_string(), message: m.to_string() };
    *rest = rest.trim_start();
    if let Some(args) = rest.strip_prefix("concat(") {
        if depth == MAX_DEPTH {
            let position = query.trim_end().len() - rest.len();
            return Err(XmlError::NestingTooDeep { position, limit: MAX_DEPTH });
        }
        *rest = args;
        let mut parts = Vec::new();
        loop {
            parts.push(parse_ret(rest, depth + 1, query)?);
            *rest = rest.trim_start();
            match rest.as_bytes().first() {
                Some(b',') => *rest = &rest[1..],
                Some(b')') => {
                    *rest = &rest[1..];
                    return Ok(Ret::Concat(parts));
                }
                _ => return Err(bad("missing `)` in concat")),
            }
        }
    }
    if let Some(quote @ ('\'' | '"')) = rest.chars().next() {
        let len = rest[1..].find(quote).ok_or_else(|| bad("unterminated string literal"))?;
        let literal = rest[1..=len].to_string();
        *rest = &rest[len + 2..];
        return Ok(Ret::Literal(literal));
    }
    let (path, tail) = rest.split_at(path_len(rest));
    *rest = tail;
    Ok(Ret::Path(parse_var_path(path.trim_end(), query)?))
}

/// Byte length of the path at the front of `s`: up to the first `,` or
/// `)` outside quotes and outside the path's own parentheses and
/// brackets (`text()`, `[…]`).
fn path_len(s: &str) -> usize {
    let (mut quote, mut depth) = (None, 0usize);
    for (i, c) in s.char_indices() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), _) => {}
            (None, '\'' | '"') => quote = Some(c),
            (None, '(' | '[') => depth += 1,
            (None, ')' | ']') if depth > 0 => depth -= 1,
            (None, ',' | ')') if depth == 0 => return i,
            _ => {}
        }
    }
    s.len()
}

/// `$var/rel/path` → relative XPath `rel/path`; bare `$var` → the
/// binding's text; plain relative paths pass through.
fn parse_var_path(s: &str, query: &str) -> Result<XPath, XmlError> {
    let bad = |m: String| XmlError::BadXPath { path: query.to_string(), message: m };
    if let Some(rest) = s.strip_prefix('$') {
        let (_, tail) = split_name(rest);
        let tail = tail.trim();
        if tail.is_empty() {
            // The binding itself: use a self-match via text().
            return XPath::new("text()");
        }
        let rel = tail
            .strip_prefix('/')
            .ok_or_else(|| bad(format!("expected `/` after variable in `{s}`")))?;
        return XPath::new(rel);
    }
    XPath::new(s)
}

fn unquote(s: &str) -> Option<String> {
    let b = s.as_bytes();
    if s.len() >= 2 && (b[0] == b'\'' || b[0] == b'"') && b[s.len() - 1] == b[0] {
        Some(s[1..s.len() - 1].to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> Document {
        parse(
            r#"<catalog>
                <watch id="81"><brand>Seiko</brand><price>129.99</price><case>stainless-steel</case></watch>
                <watch id="82"><brand>Casio</brand><price>59.50</price><case>resin</case></watch>
                <watch id="83"><brand>Seiko</brand><price>299.00</price><case>titanium</case></watch>
            </catalog>"#,
        )
        .unwrap()
    }

    #[test]
    fn for_return_without_where() {
        let q = XQuery::new("for $w in //watch return $w/brand/text()").unwrap();
        assert_eq!(q.eval(&doc()), ["Seiko", "Casio", "Seiko"]);
    }

    #[test]
    fn where_equality_filters() {
        let q = XQuery::new("for $w in //watch where $w/brand = 'Seiko' return $w/price/text()")
            .unwrap();
        assert_eq!(q.eval(&doc()), ["129.99", "299.00"]);
    }

    #[test]
    fn where_inequality() {
        let q = XQuery::new("for $w in //watch where $w/brand != 'Seiko' return $w/brand/text()")
            .unwrap();
        assert_eq!(q.eval(&doc()), ["Casio"]);
    }

    #[test]
    fn where_conjunction() {
        let q = XQuery::new(
            "for $w in //watch where $w/brand = 'Seiko' and $w/case = 'titanium' return $w/@id",
        )
        .unwrap();
        assert_eq!(q.eval(&doc()), ["83"]);
    }

    #[test]
    fn where_contains() {
        let q = XQuery::new(
            "for $w in //watch where contains($w/case, 'steel') return $w/brand/text()",
        )
        .unwrap();
        assert_eq!(q.eval(&doc()), ["Seiko"]);
    }

    #[test]
    fn return_attribute() {
        let q = XQuery::new("for $w in //watch where $w/brand = 'Casio' return $w/@id").unwrap();
        assert_eq!(q.eval(&doc()), ["82"]);
    }

    #[test]
    fn return_concat() {
        let q = XQuery::new(
            "for $w in //watch where $w/brand = 'Casio' return concat($w/brand/text(), ': ', $w/price/text())",
        )
        .unwrap();
        assert_eq!(q.eval(&doc()), ["Casio: 59.50"]);
    }

    /// The grammar's own nested form: the outer `concat` splits only at
    /// its own commas, not at the inner call's or inside `text()`.
    #[test]
    fn nested_concat_splits_only_at_its_own_commas() {
        let q = XQuery::new(
            "for $w in //watch where $w/brand = 'Casio' \
             return concat(concat($w/brand/text(), '-'), $w/price/text(), ', ok')",
        )
        .unwrap();
        assert_eq!(q.eval(&doc()), ["Casio-59.50, ok"]);
    }

    /// A comma inside a path's own predicate (`[contains(., 'v')]`) ends
    /// neither the return path nor a `concat` argument.
    #[test]
    fn predicate_comma_stays_inside_its_path() {
        let whole =
            XQuery::new("for $w in //watch return $w/case[contains(., 'steel')]/text()").unwrap();
        assert_eq!(whole.eval(&doc()), ["stainless-steel"]);

        let argument = XQuery::new(
            "for $w in //watch \
             return concat($w/case[contains(., \"steel\")]/text(), '|', $w/@id)",
        )
        .unwrap();
        assert_eq!(argument.eval(&doc()), ["stainless-steel|81", "|82", "|83"]);
    }

    /// Hostile rule: `concat(` × 200 000 took seconds to compile
    /// (quadratic) and recursed without bound.
    #[test]
    fn concat_nesting_is_capped() {
        let prefix = "for $w in //watch return ";
        let nested =
            |n: usize| format!("{prefix}{}$w/brand/text(){}", "concat(".repeat(n), ")".repeat(n));
        let past_the_cap = XQuery::new(&nested(MAX_DEPTH + 1)).unwrap_err();
        let position = prefix.len() + "concat(".len() * MAX_DEPTH;
        assert_eq!(past_the_cap, XmlError::NestingTooDeep { position, limit: MAX_DEPTH });

        let started = std::time::Instant::now();
        let hostile = format!("{prefix}{}", "concat(".repeat(200_000));
        assert!(matches!(XQuery::new(&hostile), Err(XmlError::NestingTooDeep { .. })));
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    /// A query exactly at the cap compiles, and everything that walks its
    /// return tree — evaluation, `Clone`, `==`, `Drop` — fits a worker
    /// thread's stack.
    #[test]
    fn query_at_the_concat_cap_is_safe_to_walk_and_drop() {
        let at_cap = format!(
            "for $w in //watch return {}$w/brand/text(){}",
            "concat(".repeat(MAX_DEPTH),
            ", '')".repeat(MAX_DEPTH)
        );
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(move || {
            let q = XQuery::new(&at_cap).expect("nesting at the cap is accepted");
            assert_eq!(q.eval(&doc()), ["Seiko", "Casio", "Seiko"]);
            assert_eq!(q.clone(), q);
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
    }

    #[test]
    fn return_literal() {
        let q = XQuery::new("for $w in //watch where $w/brand = 'Casio' return 'hit'").unwrap();
        assert_eq!(q.eval(&doc()), ["hit"]);
    }

    #[test]
    fn bare_variable_returns_text() {
        let q = XQuery::new("for $b in //watch/brand return $b").unwrap();
        assert_eq!(q.eval(&doc()), ["Seiko", "Casio", "Seiko"]);
    }

    #[test]
    fn eval_bindings_returns_elements() {
        let q = XQuery::new("for $w in //watch where $w/brand = 'Seiko' return $w/@id").unwrap();
        let d = doc();
        let bindings = q.eval_bindings(&d);
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[0].attribute("id"), Some("81"));
    }

    #[test]
    fn absolute_domain_path() {
        let q = XQuery::new("for $w in /catalog/watch return $w/@id").unwrap();
        assert_eq!(q.eval(&doc()).len(), 3);
    }

    #[test]
    fn accessors() {
        let q = XQuery::new("for $w in //watch return $w/@id").unwrap();
        assert_eq!(q.variable(), "w");
        assert!(q.source().starts_with("for"));
        assert_eq!(q.to_string(), q.source());
        let q2: XQuery = q.source().parse().unwrap();
        assert_eq!(q2, q);
    }

    #[test]
    fn malformed_queries_error() {
        assert!(XQuery::new("").is_err());
        assert!(XQuery::new("select * from t").is_err());
        assert!(XQuery::new("for w in //watch return $w").is_err());
        assert!(XQuery::new("for $w in //watch").is_err());
        assert!(XQuery::new("for $w in //watch where $w/b return $w").is_err());
        assert!(XQuery::new("for $w in //watch where $w/b = unquoted return $w/@id").is_err());
        assert!(XQuery::new("for $w in //watch return concat()").is_err());
        assert!(XQuery::new("for $w in //watch where contains($w/b) return $w/@id").is_err());
    }

    #[test]
    fn keywords_inside_quotes_not_split() {
        let q = XQuery::new("for $w in //watch where $w/brand = 'return and where' return $w/@id")
            .unwrap();
        assert!(q.eval(&doc()).is_empty());
    }
}
