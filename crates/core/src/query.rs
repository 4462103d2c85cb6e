//! The Query Handler and the S2SQL language (paper §2.5).
//!
//! "The Syntactic-to-Semantic Query Language (S2SQL) is the query
//! language based on SQL supported by the extraction module. It is a
//! simpler version of SQL since data location is transparent […] the
//! FROM and related operators have no use in S2SQL."
//!
//! Syntax:
//!
//! ```text
//! SELECT <ontology class>[(<attribute>, <attribute>, …)]
//! WHERE <attribute><operator><constraint> AND <attribute><operator><constraint> …
//! ```
//!
//! The paper's example: `SELECT product WHERE brand='Seiko' AND
//! case='stainless-steel'`. We additionally support `!=`, `<`, `<=`,
//! `>`, `>=`, `LIKE` with `%`/`_` wildcards, and an explicit
//! projection list (`SELECT watch(brand, price)`) that restricts the
//! output to the named attributes — and lets the federated planner
//! skip extracting everything else.

use std::fmt;

use s2s_owl::{AttributePath, Ontology, PropertyKind, Reasoner};
use s2s_rdf::Iri;
use s2s_textmatch::Comparand;

use crate::error::S2sError;

/// A comparison operator in an S2SQL condition: the same enum the
/// pushed predicates carry, so the residual filter and the sources
/// cannot disagree about what an operator means.
pub use s2s_textmatch::ConstraintOp as CondOp;

/// One `attribute op constraint` condition as written.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// The attribute as written (simple name or dotted path).
    pub attribute: String,
    /// The operator.
    pub op: CondOp,
    /// The constraint text (quotes removed).
    pub value: String,
}

/// A boolean combination of conditions (extension beyond the paper's
/// pure conjunctions: `OR`, `NOT`, and parentheses are accepted too).
#[derive(Debug, Clone, PartialEq)]
pub enum ConditionExpr {
    /// A single `attribute op constraint`.
    Leaf(Condition),
    /// Conjunction.
    And(Box<ConditionExpr>, Box<ConditionExpr>),
    /// Disjunction.
    Or(Box<ConditionExpr>, Box<ConditionExpr>),
    /// Negation.
    Not(Box<ConditionExpr>),
}

impl ConditionExpr {
    /// The leaves in left-to-right order.
    pub fn leaves(&self) -> Vec<&Condition> {
        let mut out = Vec::new();
        fn walk<'e>(e: &'e ConditionExpr, out: &mut Vec<&'e Condition>) {
            match e {
                ConditionExpr::Leaf(c) => out.push(c),
                ConditionExpr::And(a, b) | ConditionExpr::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                ConditionExpr::Not(e) => walk(e, out),
            }
        }
        walk(self, &mut out);
        out
    }
}

/// The canonical spelling of a condition: every constraint
/// single-quoted (`'` doubled), every `AND`/`OR` node parenthesised,
/// `NOT` as a prefix — one text per tree, and [`parse`] reads it back
/// to the same tree.
impl fmt::Display for ConditionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConditionExpr::Leaf(c) => {
                write!(f, "{} {} '", c.attribute, c.op)?;
                for (i, part) in c.value.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(part)?;
                }
                f.write_str("'")
            }
            ConditionExpr::And(a, b) => write!(f, "({a} AND {b})"),
            ConditionExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            ConditionExpr::Not(e) => write!(f, "NOT {e}"),
        }
    }
}

/// A parsed (but not yet validated) S2SQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct S2sqlQuery {
    /// The ontology class selected.
    pub class: String,
    /// The projection list as written (`SELECT class(a, b)`), if any.
    pub projection: Option<Vec<String>>,
    /// The WHERE clause, if any.
    pub condition: Option<ConditionExpr>,
}

/// The canonical spelling of a query — class and projection as written,
/// the condition as [`ConditionExpr`] renders it. Two texts render the
/// same exactly when [`parse`] built the same query from them, which is
/// what makes the rendering the key of the engine's plan and result
/// caches.
impl fmt::Display for S2sqlQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}", self.class)?;
        if let Some(names) = &self.projection {
            for (i, name) in names.iter().enumerate() {
                write!(f, "{}{name}", if i == 0 { "(" } else { ", " })?;
            }
            f.write_str(")")?;
        }
        match &self.condition {
            Some(condition) => write!(f, " WHERE {condition}"),
            None => Ok(()),
        }
    }
}

/// A condition resolved against the ontology.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCondition {
    /// The property the attribute resolved to.
    pub property: Iri,
    /// The operator and the constraint text, read once when the query
    /// was planned (plans are cached: once per distinct query) rather
    /// than once per candidate value.
    comparand: Comparand,
}

impl ResolvedCondition {
    /// `property op value`.
    pub fn new(property: Iri, op: CondOp, value: impl Into<String>) -> Self {
        ResolvedCondition { property, comparand: Comparand::new(op, value.into()) }
    }

    /// The operator.
    pub fn op(&self) -> CondOp {
        self.comparand.op()
    }

    /// The constraint text.
    pub fn value(&self) -> &str {
        self.comparand.constant()
    }
}

/// A resolved boolean condition tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ConditionTree {
    /// A resolved leaf.
    Leaf(ResolvedCondition),
    /// Conjunction.
    And(Box<ConditionTree>, Box<ConditionTree>),
    /// Disjunction.
    Or(Box<ConditionTree>, Box<ConditionTree>),
    /// Negation.
    Not(Box<ConditionTree>),
}

impl ConditionTree {
    /// Evaluates against one individual's `(property, value)` pairs
    /// (a multi-valued property appears once per value). A leaf holds
    /// when at least one value of its property satisfies the comparison
    /// (missing properties fail the leaf — best-effort semantics).
    ///
    /// This is the *definition* of the residual filter, one record at a
    /// time. The Instance Generator evaluates the same tree a column at
    /// a time (`instance::select`) and the tests hold it to this one;
    /// nothing in the library calls it.
    pub fn matches(&self, values: &[(&Iri, &str)]) -> bool {
        match self {
            ConditionTree::Leaf(c) => {
                values.iter().any(|(p, v)| **p == c.property && condition_matches(c, v))
            }
            ConditionTree::And(a, b) => a.matches(values) && b.matches(values),
            ConditionTree::Or(a, b) => a.matches(values) || b.matches(values),
            ConditionTree::Not(e) => !e.matches(values),
        }
    }

    /// The resolved leaves in left-to-right order.
    pub fn leaves(&self) -> Vec<&ResolvedCondition> {
        let mut out = Vec::new();
        fn walk<'e>(e: &'e ConditionTree, out: &mut Vec<&'e ResolvedCondition>) {
            match e {
                ConditionTree::Leaf(c) => out.push(c),
                ConditionTree::And(a, b) | ConditionTree::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                ConditionTree::Not(e) => walk(e, out),
            }
        }
        walk(self, &mut out);
        out
    }
}

/// The output of query handling: what to extract and what to return
/// (paper: "the query output will have all their associated classes").
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The selected class.
    pub class: Iri,
    /// The selected class plus every class reachable through object
    /// properties (the associated classes included in the output).
    pub output_classes: Vec<Iri>,
    /// Canonical attribute paths for every property applicable to the
    /// selected class — the extraction attribute list (Fig. 5 step 1).
    pub attributes: Vec<AttributePath>,
    /// The resolved projection, if the query named one: only these
    /// properties appear in the output, and the pushdown planner may
    /// skip extracting anything outside the projection and the
    /// condition attributes.
    pub projection: Option<Vec<Iri>>,
    /// The validated condition tree, if the query had a WHERE clause.
    pub condition: Option<ConditionTree>,
}

/// Parses S2SQL text — the one reading of a query: the engine parses
/// every query it is handed before it touches a cache or the admission
/// gate, and keys both caches on the parse's canonical rendering.
/// `s2s_query_parses_total` therefore counts queries, not plan-cache
/// misses.
///
/// # Errors
///
/// Returns [`S2sError::QuerySyntax`] on malformed input and
/// [`S2sError::QueryNestingTooDeep`] when the `WHERE` clause nests
/// deeper than [`MAX_CONDITION_DEPTH`].
pub fn parse(input: &str) -> Result<S2sqlQuery, S2sError> {
    let parsed = parse_inner(input);
    if s2s_obs::enabled() {
        let m = s2s_obs::global();
        m.counter("s2s_query_parses_total").inc();
        if parsed.is_err() {
            m.counter("s2s_query_parse_errors_total").inc();
        }
    }
    parsed
}

fn parse_inner(input: &str) -> Result<S2sqlQuery, S2sError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    p.expect_keyword("SELECT")?;
    p.skip_ws();
    let class = p.parse_identifier()?;
    p.skip_ws();
    let projection = if p.peek() == Some('(') {
        p.pos += 1;
        let mut names = Vec::new();
        loop {
            p.skip_ws();
            names.push(p.parse_identifier()?);
            p.skip_ws();
            match p.peek() {
                Some(',') => p.pos += 1,
                Some(')') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(p.err("expected `,` or `)` in projection list")),
            }
        }
        Some(names)
    } else {
        None
    };
    p.skip_ws();
    let condition = if p.eat_keyword("WHERE") { Some(p.parse_or_expr(0)?.0) } else { None };
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("unexpected trailing content"));
    }
    Ok(S2sqlQuery { class, projection, condition })
}

/// The cache key of an S2SQL text: the canonical rendering of its
/// parse. Text the parser rejects keys as itself — never equal to a
/// canonical form, which always parses.
pub fn normalize(input: &str) -> String {
    parse_inner(input).map_or_else(|_| input.to_string(), |query| query.to_string())
}

/// Validates a parsed query against the ontology and produces the
/// extraction plan.
///
/// # Errors
///
/// Returns [`S2sError::QuerySemantics`] for unknown classes/attributes
/// or attributes that do not apply to the selected class.
pub fn plan(query: &S2sqlQuery, ontology: &Ontology) -> Result<QueryPlan, S2sError> {
    let class = ontology.class_named(&query.class).cloned().ok_or_else(|| {
        S2sError::QuerySemantics { message: format!("unknown class `{}`", query.class) }
    })?;

    let reasoner = Reasoner::new(ontology);
    let properties = ontology.properties_of_class(&class);

    // Associated output classes: ranges of object properties, followed
    // transitively (paper: "all products have a Provider, therefore the
    // output classes will be Product, watch, and Provider").
    let mut output_classes = vec![class.clone()];
    let mut frontier = vec![class.clone()];
    while let Some(c) = frontier.pop() {
        for p in ontology.properties_of_class(&c) {
            if p.kind() == PropertyKind::Object {
                for range in p.ranges() {
                    if ontology.class(range).is_some() && !output_classes.contains(range) {
                        output_classes.push(range.clone());
                        frontier.push(range.clone());
                    }
                }
            }
        }
        // Subclasses of the selected class are also part of the answer
        // space (a query for `product` returns watches too).
        for sub in ontology.subclasses(&c) {
            if !output_classes.contains(&sub) {
                output_classes.push(sub.clone());
            }
        }
    }
    let _ = reasoner; // closure retained for future subsumption checks

    // Attribute list: one canonical path per applicable property, for
    // the selected class AND each of its subclasses — a query for
    // `product` must reach mappings registered at `watch` level, since
    // every watch is a product.
    let mut attributes = Vec::new();
    let mut answer_classes = vec![class.clone()];
    answer_classes.extend(ontology.subclasses(&class));
    for c in &answer_classes {
        for p in ontology.properties_of_class(c) {
            let path = AttributePath::for_attribute(ontology, c, p.iri())?;
            if !attributes.contains(&path) {
                attributes.push(path);
            }
        }
    }

    // Conditions must name attributes applicable to the class (or be
    // full paths that resolve to one of them).
    fn resolve_tree(
        expr: &ConditionExpr,
        class: &Iri,
        properties: &[&s2s_owl::PropertyDef],
        ontology: &Ontology,
    ) -> Result<ConditionTree, S2sError> {
        Ok(match expr {
            ConditionExpr::Leaf(c) => {
                let property = if c.attribute.contains('.') {
                    let path: AttributePath = c.attribute.parse().map_err(S2sError::Owl)?;
                    path.resolve(ontology)?.property
                } else {
                    properties
                        .iter()
                        .find(|p| p.iri().local_name().eq_ignore_ascii_case(&c.attribute))
                        .map(|p| p.iri().clone())
                        .ok_or_else(|| S2sError::QuerySemantics {
                            message: format!(
                                "class `{}` has no attribute `{}`",
                                class.local_name(),
                                c.attribute
                            ),
                        })?
                };
                ConditionTree::Leaf(ResolvedCondition::new(property, c.op, c.value.clone()))
            }
            ConditionExpr::And(a, b) => ConditionTree::And(
                Box::new(resolve_tree(a, class, properties, ontology)?),
                Box::new(resolve_tree(b, class, properties, ontology)?),
            ),
            ConditionExpr::Or(a, b) => ConditionTree::Or(
                Box::new(resolve_tree(a, class, properties, ontology)?),
                Box::new(resolve_tree(b, class, properties, ontology)?),
            ),
            ConditionExpr::Not(e) => {
                ConditionTree::Not(Box::new(resolve_tree(e, class, properties, ontology)?))
            }
        })
    }
    let condition = match &query.condition {
        Some(expr) => Some(resolve_tree(expr, &class, &properties, ontology)?),
        None => None,
    };

    // The projection resolves exactly like condition attributes: simple
    // names against the selected class's properties, dotted names as
    // full attribute paths.
    let projection = match &query.projection {
        Some(names) => {
            let mut resolved = Vec::new();
            for name in names {
                let property = if name.contains('.') {
                    let path: AttributePath = name.parse().map_err(S2sError::Owl)?;
                    path.resolve(ontology)?.property
                } else {
                    properties
                        .iter()
                        .find(|p| p.iri().local_name().eq_ignore_ascii_case(name))
                        .map(|p| p.iri().clone())
                        .ok_or_else(|| S2sError::QuerySemantics {
                            message: format!(
                                "class `{}` has no attribute `{name}` to project",
                                class.local_name()
                            ),
                        })?
                };
                if !resolved.contains(&property) {
                    resolved.push(property);
                }
            }
            Some(resolved)
        }
        None => None,
    };

    Ok(QueryPlan { class, output_classes, attributes, projection, condition })
}

/// Evaluates one resolved condition against a candidate value
/// ([`Comparand::test`]: numeric when both sides parse as numbers,
/// string comparison otherwise, `%`/`_` wildcards for `LIKE`).
#[inline]
pub fn condition_matches(cond: &ResolvedCondition, value: &str) -> bool {
    cond.comparand.test(value)
}

/// Deepest `WHERE` condition accepted, counted both as nesting of
/// parentheses/`NOT` and as height of the parsed tree (which `AND`/`OR`
/// chains deepen without recursing). The parser, [`plan`], the pushdown
/// planner, the residual filter and `Drop` all recurse once per level;
/// unbounded, a client's `((((…`, `NOT NOT …` or 200 000-term `AND`
/// chain overflowed the stack and aborted the process.
pub const MAX_CONDITION_DEPTH: usize = 250;

fn one_deeper(depth: usize) -> Result<usize, S2sError> {
    if depth >= MAX_CONDITION_DEPTH {
        return Err(S2sError::QueryNestingTooDeep { limit: MAX_CONDITION_DEPTH });
    }
    Ok(depth + 1)
}

// ---------------------------------------------------------------- parser

/// A cursor over the query text; `pos` is a byte offset, always on a
/// character boundary.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

fn is_identifier_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> S2sError {
        S2sError::QuerySyntax { position: self.pos, message: message.into() }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn skip_ws(&mut self) {
        self.pos = self.input.len() - self.rest().trim_start().len();
    }

    /// Advances over the longest run of bytes `accept` holds for (ASCII
    /// only, so the cursor stays on a boundary) and returns it.
    fn take_while(&mut self, accept: impl Fn(u8) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest.bytes().position(|b| !accept(b)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        let rest = self.rest().as_bytes();
        rest.len() >= kw.len()
            && rest[..kw.len()].eq_ignore_ascii_case(kw.as_bytes())
            && !rest.get(kw.len()).is_some_and(u8::is_ascii_alphanumeric)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), S2sError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn parse_identifier(&mut self) -> Result<String, S2sError> {
        let word = self.take_while(is_identifier_byte).to_string();
        if word.is_empty() {
            return Err(self.err("expected an identifier"));
        }
        Ok(word)
    }

    // or_expr := and_expr (OR and_expr)*
    //
    // `nesting` counts the enclosing parentheses and NOTs (the parser's
    // own recursion); each function also returns the height of the tree
    // it built. Both are capped at `MAX_CONDITION_DEPTH`.
    fn parse_or_expr(&mut self, nesting: usize) -> Result<(ConditionExpr, usize), S2sError> {
        self.skip_ws();
        let (mut left, mut height) = self.parse_and_expr(nesting)?;
        loop {
            self.skip_ws();
            if self.eat_keyword("OR") {
                let (right, h) = self.parse_and_expr(nesting)?;
                height = one_deeper(height.max(h))?;
                left = ConditionExpr::Or(Box::new(left), Box::new(right));
            } else {
                return Ok((left, height));
            }
        }
    }

    // and_expr := unary (AND unary)*
    fn parse_and_expr(&mut self, nesting: usize) -> Result<(ConditionExpr, usize), S2sError> {
        self.skip_ws();
        let (mut left, mut height) = self.parse_unary_expr(nesting)?;
        loop {
            self.skip_ws();
            if self.eat_keyword("AND") {
                let (right, h) = self.parse_unary_expr(nesting)?;
                height = one_deeper(height.max(h))?;
                left = ConditionExpr::And(Box::new(left), Box::new(right));
            } else {
                return Ok((left, height));
            }
        }
    }

    // unary := NOT unary | '(' or_expr ')' | condition
    fn parse_unary_expr(&mut self, nesting: usize) -> Result<(ConditionExpr, usize), S2sError> {
        self.skip_ws();
        if self.eat_keyword("NOT") {
            let (e, h) = self.parse_unary_expr(one_deeper(nesting)?)?;
            return Ok((ConditionExpr::Not(Box::new(e)), one_deeper(h)?));
        }
        if self.peek() == Some('(') {
            self.pos += 1;
            let inner = self.parse_or_expr(one_deeper(nesting)?)?;
            self.skip_ws();
            if self.peek() != Some(')') {
                return Err(self.err("expected `)`"));
            }
            self.pos += 1;
            return Ok(inner);
        }
        Ok((ConditionExpr::Leaf(self.parse_condition()?), 1))
    }

    fn parse_condition(&mut self) -> Result<Condition, S2sError> {
        let attribute = self.parse_identifier()?;
        self.skip_ws();
        let op = if self.eat_keyword("LIKE") {
            CondOp::Like
        } else {
            match self.peek() {
                Some('=') => {
                    self.pos += 1;
                    CondOp::Eq
                }
                Some('!') => {
                    self.pos += 1;
                    if self.peek() != Some('=') {
                        return Err(self.err("expected `=` after `!`"));
                    }
                    self.pos += 1;
                    CondOp::Ne
                }
                Some('<') => {
                    self.pos += 1;
                    if self.peek() == Some('=') {
                        self.pos += 1;
                        CondOp::Le
                    } else if self.peek() == Some('>') {
                        self.pos += 1;
                        CondOp::Ne
                    } else {
                        CondOp::Lt
                    }
                }
                Some('>') => {
                    self.pos += 1;
                    if self.peek() == Some('=') {
                        self.pos += 1;
                        CondOp::Ge
                    } else {
                        CondOp::Gt
                    }
                }
                _ => return Err(self.err("expected a comparison operator")),
            }
        };
        self.skip_ws();
        let value = self.parse_constraint()?;
        Ok(Condition { attribute, op, value })
    }

    fn parse_constraint(&mut self) -> Result<String, S2sError> {
        match self.peek() {
            Some(q @ ('\'' | '"')) => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    let Some(end) = self.rest().find(q) else {
                        self.pos = self.input.len();
                        return Err(self.err("unterminated string constraint"));
                    };
                    s.push_str(&self.rest()[..end]);
                    self.pos += end + 1;
                    // A doubled quote is an escape.
                    if self.peek() != Some(q) {
                        return Ok(s);
                    }
                    s.push(q);
                    self.pos += 1;
                }
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = self.pos;
                self.pos += 1;
                self.take_while(|b| b.is_ascii_digit() || b == b'.');
                Ok(self.input[start..self.pos].to_string())
            }
            // Bare word constraint (paper writes brand="Seiko" but we
            // tolerate brand=Seiko).
            _ => self.parse_identifier(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2s_owl::Ontology;

    fn onto() -> Ontology {
        Ontology::builder("http://example.org/schema#")
            .class("Product", None)
            .unwrap()
            .class("Watch", Some("Product"))
            .unwrap()
            .class("Provider", None)
            .unwrap()
            .class("Country", None)
            .unwrap()
            .datatype_property("brand", "Product", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("case", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("price", "Product", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .object_property("provider", "Product", "Provider")
            .unwrap()
            .object_property("country", "Provider", "Country")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn key_collapses_whitespace_and_keyword_case() {
        let a = normalize("select  watch\n where PRICE < 100 and brand = 'Seiko'");
        let b = normalize("  SELECT\twatch WHERE price<100 AND brand='Seiko'  ");
        // Identifiers keep their case (the planner matches them
        // case-insensitively, but `PRICE` is not a keyword).
        assert_eq!(a, "SELECT watch WHERE (PRICE < '100' AND brand = 'Seiko')");
        assert_eq!(b, "SELECT watch WHERE (price < '100' AND brand = 'Seiko')");
    }

    #[test]
    fn key_is_shared_by_every_spelling_of_one_parse() {
        let canonical = "SELECT w(a, b) WHERE (x != 'it''s' AND NOT y LIKE 'or')";
        for text in [
            "select w ( a,b ) where x<>\"it's\" and not y like or",
            "SELECT w(a,b) WHERE ((x != 'it''s') AND (NOT (y LIKE \"or\")))",
            canonical,
        ] {
            assert_eq!(normalize(text), canonical, "{text}");
        }
        assert_eq!(normalize("SELECT w WHERE p=-12.5"), normalize("SELECT w WHERE p = '-12.5'"));
    }

    #[test]
    fn key_differs_whenever_the_parse_does() {
        // A keyword after an operator is a value, and its case matters.
        assert_ne!(normalize("SELECT s WHERE state=or"), normalize("SELECT s WHERE state=OR"));
        assert_ne!(normalize("SELECT w WHERE p <> 10"), normalize("SELECT w WHERE p < 10"));
        assert_ne!(
            normalize("SELECT w WHERE a=1 OR b=2 AND c=3"),
            normalize("SELECT w WHERE (a=1 OR b=2) AND c=3")
        );
        // Text the parser rejects keys as itself: `< =` and `+ 5` are
        // syntax errors while `<=` and `+5` parse.
        for (bad, good) in [
            ("SELECT w WHERE p < = 10", "SELECT w WHERE p <= 10"),
            ("SELECT w WHERE p = + 5", "SELECT w WHERE p = +5"),
        ] {
            assert_eq!(normalize(bad), bad);
            assert_ne!(normalize(bad), normalize(good));
        }
    }

    #[test]
    fn parses_paper_example() {
        let q = parse("SELECT product WHERE brand='Seiko' AND case='stainless-steel'").unwrap();
        assert_eq!(q.class, "product");
        let tree = q.condition.as_ref().unwrap();
        assert!(matches!(tree, ConditionExpr::And(_, _)));
        let leaves = tree.leaves();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].attribute, "brand");
        assert_eq!(leaves[0].op, CondOp::Eq);
        assert_eq!(leaves[0].value, "Seiko");
        assert_eq!(leaves[1].value, "stainless-steel");
    }

    #[test]
    fn parses_without_where() {
        let q = parse("SELECT watch").unwrap();
        assert!(q.condition.is_none());
        assert!(q.projection.is_none());
    }

    #[test]
    fn parses_projection_list() {
        let q = parse("SELECT watch(brand, price) WHERE price<100").unwrap();
        assert_eq!(q.projection.as_deref(), Some(&["brand".to_string(), "price".into()][..]));
        assert!(q.condition.is_some());
        // Without WHERE, and with odd spacing.
        let q = parse("SELECT watch ( brand )").unwrap();
        assert_eq!(q.projection.as_deref(), Some(&["brand".to_string()][..]));
        // Malformed lists are rejected.
        assert!(parse("SELECT watch(").is_err());
        assert!(parse("SELECT watch()").is_err());
        assert!(parse("SELECT watch(brand,)").is_err());
        assert!(parse("SELECT watch(brand").is_err());
    }

    #[test]
    fn plan_resolves_projection() {
        let o = onto();
        let q = parse("SELECT product(brand, price, brand)").unwrap();
        let p = plan(&q, &o).unwrap();
        let names: Vec<&str> =
            p.projection.as_ref().unwrap().iter().map(|i| i.local_name()).collect();
        assert_eq!(names, ["brand", "price"], "duplicates collapse");
        // Dotted paths resolve too.
        let q = parse("SELECT watch(thing.product.watch.case)").unwrap();
        let p = plan(&q, &o).unwrap();
        assert_eq!(p.projection.as_ref().unwrap()[0].local_name(), "case");
        // Unknown projection attributes are rejected.
        let q = parse("SELECT product(nonexistent)").unwrap();
        assert!(matches!(plan(&q, &o), Err(S2sError::QuerySemantics { .. })));
    }

    #[test]
    fn parses_all_operators() {
        let q = parse(
            "SELECT product WHERE a=1 AND b!=2 AND c<3 AND d<=4 AND e>5 AND f>=6 AND g<>7 AND h LIKE 'S%'",
        )
        .unwrap();
        let tree = q.condition.unwrap();
        let ops: Vec<CondOp> = tree.leaves().iter().map(|c| c.op).collect();
        assert_eq!(
            ops,
            [
                CondOp::Eq,
                CondOp::Ne,
                CondOp::Lt,
                CondOp::Le,
                CondOp::Gt,
                CondOp::Ge,
                CondOp::Ne,
                CondOp::Like
            ]
        );
    }

    #[test]
    fn quoted_escapes_and_numbers() {
        let q = parse("SELECT p WHERE a='it''s' AND b=-12.5 AND c=\"x\"").unwrap();
        let tree = q.condition.unwrap();
        let leaves = tree.leaves();
        assert_eq!(leaves[0].value, "it's");
        assert_eq!(leaves[1].value, "-12.5");
        assert_eq!(leaves[2].value, "x");
    }

    #[test]
    fn or_not_and_parentheses() {
        // OR binds looser than AND.
        let q = parse("SELECT p WHERE a=1 OR b=2 AND c=3").unwrap();
        match q.condition.unwrap() {
            ConditionExpr::Or(_, right) => assert!(matches!(*right, ConditionExpr::And(_, _))),
            other => panic!("{other:?}"),
        }
        // Parentheses override.
        let q = parse("SELECT p WHERE (a=1 OR b=2) AND c=3").unwrap();
        match q.condition.unwrap() {
            ConditionExpr::And(left, _) => assert!(matches!(*left, ConditionExpr::Or(_, _))),
            other => panic!("{other:?}"),
        }
        // NOT.
        let q = parse("SELECT p WHERE NOT brand='Seiko'").unwrap();
        assert!(matches!(q.condition.unwrap(), ConditionExpr::Not(_)));
        // Unbalanced parens rejected.
        assert!(parse("SELECT p WHERE (a=1").is_err());
        assert!(parse("SELECT p WHERE a=1)").is_err());
    }

    #[test]
    fn condition_tree_evaluation() {
        let o = onto();
        let q = parse("SELECT product WHERE brand='Seiko' OR brand='Casio'").unwrap();
        let p = plan(&q, &o).unwrap();
        let tree = p.condition.as_ref().unwrap();
        let brand = o.property_iri("brand").unwrap();
        assert!(tree.matches(&[(&brand, "Seiko")]));
        assert!(tree.matches(&[(&brand, "Casio")]));
        assert!(!tree.matches(&[(&brand, "Orient")]));
        // Any value of a multi-valued property may satisfy a leaf.
        assert!(tree.matches(&[(&brand, "Orient"), (&brand, "Casio")]));

        let q = parse("SELECT product WHERE NOT (brand='Seiko' OR price<100)").unwrap();
        let p = plan(&q, &o).unwrap();
        let tree = p.condition.as_ref().unwrap();
        assert!(!tree.matches(&[(&brand, "Seiko")]));
        // No price value present → `price<100` leaf is false → whole OR
        // false → NOT true.
        assert!(tree.matches(&[(&brand, "Orient")]));
    }

    /// Hostile clients: `((((…` and `NOT NOT …` × 200 000 used to
    /// overflow the stack in `parse_unary_expr` and abort the process; a
    /// 200 000-term `AND` chain parses iteratively but builds a tree
    /// just as deep for everything downstream.
    #[test]
    fn condition_nesting_is_capped() {
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(|| {
            let n = 200_000;
            for text in [
                format!("SELECT watch WHERE {}brand='x'{}", "(".repeat(n), ")".repeat(n)),
                format!("SELECT watch WHERE {}brand='x'", "NOT ".repeat(n)),
                format!("SELECT watch WHERE brand='x'{}", " AND brand='x'".repeat(n)),
                format!("SELECT watch WHERE brand='x'{}", " OR brand='x'".repeat(n)),
                // Unbalanced: the cap, not the missing `)`, stops it.
                format!("SELECT watch WHERE {}", "(".repeat(n)),
            ] {
                let err = parse(&text).expect_err(&text[..40]);
                assert_eq!(err, S2sError::QueryNestingTooDeep { limit: MAX_CONDITION_DEPTH });
                assert_eq!(err.code(), "s2s::query::nesting_too_deep");
                assert!(err.help().is_some());
            }
        });
        worker.unwrap().join().expect("no stack overflow past the cap");
    }

    /// A condition exactly at the cap parses, and what walks the tree —
    /// `leaves`, the cache-key rendering (which parses back), `plan`,
    /// the residual filter, `Clone`, `==`, `Drop` — fits a worker
    /// thread's stack.
    #[test]
    fn condition_at_the_cap_is_safe_to_plan_evaluate_and_drop() {
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(|| {
            let d = MAX_CONDITION_DEPTH;
            let o = onto();
            let brand = o.property_iri("brand").unwrap();
            let nested = format!("SELECT watch WHERE {}brand='x'{}", "(".repeat(d), ")".repeat(d));
            let negated = format!("SELECT watch WHERE {}brand='x'", "NOT ".repeat(d - 1));
            let chained = format!("SELECT watch WHERE brand='x'{}", " AND brand='x'".repeat(d - 1));
            // 249 NOTs flip the one leaf.
            for (text, leaves, holds) in
                [(nested, 1, true), (negated, 1, false), (chained, d, true)]
            {
                let q = parse(&text).expect("depth at the cap parses");
                assert_eq!(q.condition.as_ref().unwrap().leaves().len(), leaves);
                assert_eq!(parse(&q.to_string()).as_ref(), Ok(&q));
                let p = plan(&q, &o).unwrap();
                let tree = p.condition.as_ref().unwrap();
                assert_eq!(tree.leaves().len(), leaves);
                assert_eq!(tree.matches(&[(&brand, "x")]), holds, "{}", &text[..40]);
                assert_eq!(p.clone(), p);
            }
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
    }

    #[test]
    fn syntax_errors() {
        assert!(matches!(parse("WHERE x=1"), Err(S2sError::QuerySyntax { .. })));
        assert!(matches!(parse("SELECT"), Err(S2sError::QuerySyntax { .. })));
        assert!(matches!(parse("SELECT p WHERE"), Err(S2sError::QuerySyntax { .. })));
        assert!(matches!(parse("SELECT p WHERE a"), Err(S2sError::QuerySyntax { .. })));
        assert!(matches!(parse("SELECT p WHERE a='x' extra"), Err(S2sError::QuerySyntax { .. })));
        assert!(matches!(
            parse("SELECT p WHERE a='unterminated"),
            Err(S2sError::QuerySyntax { .. })
        ));
        // FROM is not part of S2SQL.
        assert!(parse("SELECT p FROM t").is_err());
    }

    #[test]
    fn plan_resolves_class_case_insensitively() {
        let o = onto();
        let q = parse("SELECT product").unwrap();
        let p = plan(&q, &o).unwrap();
        assert_eq!(p.class.local_name(), "Product");
    }

    #[test]
    fn plan_output_classes_follow_object_properties() {
        // Paper: "all products have a Provider, and therefore the output
        // classes will be Product, watch, and Provider."
        let o = onto();
        let q = parse("SELECT product").unwrap();
        let p = plan(&q, &o).unwrap();
        let names: Vec<&str> = p.output_classes.iter().map(|c| c.local_name()).collect();
        assert!(names.contains(&"Product"));
        assert!(names.contains(&"Watch"));
        assert!(names.contains(&"Provider"));
        // Transitive: Provider → Country.
        assert!(names.contains(&"Country"));
    }

    #[test]
    fn plan_attribute_list_covers_class_properties() {
        let o = onto();
        let q = parse("SELECT watch").unwrap();
        let p = plan(&q, &o).unwrap();
        let attrs: Vec<String> = p.attributes.iter().map(|a| a.to_string()).collect();
        assert!(attrs.contains(&"thing.product.watch.brand".to_string()), "{attrs:?}");
        assert!(attrs.contains(&"thing.product.watch.case".to_string()));
        assert!(attrs.contains(&"thing.product.watch.price".to_string()));
        assert!(attrs.contains(&"thing.product.watch.provider".to_string()));
    }

    #[test]
    fn plan_rejects_unknown_class_and_attribute() {
        let o = onto();
        let q = parse("SELECT gadget").unwrap();
        assert!(matches!(plan(&q, &o), Err(S2sError::QuerySemantics { .. })));
        let q = parse("SELECT product WHERE nonexistent='x'").unwrap();
        assert!(matches!(plan(&q, &o), Err(S2sError::QuerySemantics { .. })));
        // `case` belongs to Watch, not Product.
        let q = parse("SELECT provider WHERE case='steel'").unwrap();
        assert!(matches!(plan(&q, &o), Err(S2sError::QuerySemantics { .. })));
    }

    #[test]
    fn plan_accepts_dotted_condition_paths() {
        let o = onto();
        let q = parse("SELECT watch WHERE thing.product.watch.case='steel'").unwrap();
        let p = plan(&q, &o).unwrap();
        let tree = p.condition.unwrap();
        assert_eq!(tree.leaves()[0].property.local_name(), "case");
    }

    #[test]
    fn condition_matching_semantics() {
        let c = |op, value: &str| {
            ResolvedCondition::new(Iri::new("http://x.org/p").unwrap(), op, value)
        };
        assert!(condition_matches(&c(CondOp::Eq, "Seiko"), "Seiko"));
        assert!(!condition_matches(&c(CondOp::Eq, "Seiko"), "seiko"));
        assert!(condition_matches(&c(CondOp::Lt, "100"), "59.5"));
        assert!(!condition_matches(&c(CondOp::Lt, "100"), "129.99"));
        // Numeric compare applies even with different lexemes.
        assert!(condition_matches(&c(CondOp::Eq, "100"), "100.0"));
        assert!(condition_matches(&c(CondOp::Like, "stain%"), "stainless-steel"));
        assert!(condition_matches(&c(CondOp::Ne, "a"), "b"));
        assert!(condition_matches(&c(CondOp::Ge, "59.5"), "59.5"));
    }
}
