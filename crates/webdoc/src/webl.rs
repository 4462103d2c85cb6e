//! A WebL-like extraction-language interpreter.
//!
//! The paper's Figure 3 registers Web-page extraction rules as WebL
//! programs; its code sample uses `GetURL`, `Text`, `Str_Search`,
//! `Str_Split`, `Select`, string/regex concatenation with `+`, and list
//! indexing. This module interprets that language. Notes on fidelity:
//!
//! * `Text(page)` returns the page **source** text — in the paper the
//!   result is regex-searched for `<p><b>`, so markup must be present.
//!   Use `StripTags(x)` for the tag-stripped rendering.
//! * Backtick literals are regular expressions (`` `[0-9a-zA-Z']+` ``).
//!   `+` concatenation of a string and a regex escapes the string part
//!   and yields a regex.
//! * `Str_Search(text, re)` yields a list of matches; each match is a
//!   list of capture-group strings with group 0 the whole match — so the
//!   paper's `St[0][0]` is "first match, whole text".
//! * `Str_Split(text, chars)` splits on any character of `chars` and
//!   drops empty fields (so the paper's `spliter[2]` lands on the text
//!   content after `p` and `b`).
//! * `Select(s, start, end)` is the char range `[start, end)`, clamped.
//!
//! The program's value is the value of its final statement.
//!
//! `Extract(text, re, group)` extracts one capture group per match, with
//! the plain-text extractor's semantics.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use s2s_textmatch::Regex;

use crate::error::WebdocError;
use crate::html::HtmlDocument;
use crate::store::{WebDocument, WebStore};

/// A runtime value of the WebL interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum WeblValue {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A list of values.
    List(Vec<WeblValue>),
    /// A fetched page.
    Page {
        /// The URL it was fetched from.
        url: String,
        /// The document, shared with the store it was fetched from.
        doc: WebDocument,
    },
    /// The source text of a fetched page, as `Text(page)` returns it: a
    /// string like any other that still shares the page, so the tag
    /// builtins find the page's kept parse instead of tokenizing it.
    PageText(WebDocument),
    /// A regular-expression pattern (uncompiled text).
    Pattern(String),
}

impl WeblValue {
    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            WeblValue::Str(s) => Some(s),
            WeblValue::PageText(doc) => Some(doc.raw()),
            _ => None,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            WeblValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The list inside, if this is a `List`.
    pub fn as_list(&self) -> Option<&[WeblValue]> {
        match self {
            WeblValue::List(v) => Some(v),
            _ => None,
        }
    }

    /// Coerces to text: strings render as-is, pages as source, lists
    /// join on nothing, ints as digits.
    pub fn to_text(&self) -> String {
        self.text().into_owned()
    }

    /// [`WeblValue::to_text`] without the copy where the value holds
    /// its text (strings, patterns, pages); ints and lists compose it.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            WeblValue::Str(s) | WeblValue::Pattern(s) => Cow::Borrowed(s),
            WeblValue::Page { doc, .. } | WeblValue::PageText(doc) => Cow::Borrowed(doc.raw()),
            WeblValue::Int(i) => Cow::Owned(i.to_string()),
            WeblValue::List(v) => Cow::Owned(v.iter().map(|x| x.text()).collect()),
        }
    }

    /// The HTML parse of this value's text: the kept one when the value
    /// is a stored page (or its text), a fresh one for any other string.
    fn html(&self) -> Cow<'_, HtmlDocument> {
        let kept = match self {
            WeblValue::Page { doc, .. } | WeblValue::PageText(doc) => doc.parsed(),
            _ => None,
        };
        kept.map_or_else(|| Cow::Owned(HtmlDocument::parse(&self.text())), Cow::Borrowed)
    }

    fn type_name(&self) -> &'static str {
        match self {
            WeblValue::Str(_) | WeblValue::PageText(_) => "string",
            WeblValue::Int(_) => "int",
            WeblValue::List(_) => "list",
            WeblValue::Page { .. } => "page",
            WeblValue::Pattern(_) => "pattern",
        }
    }
}

impl fmt::Display for WeblValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text())
    }
}

/// A parsed WebL program.
///
/// See the [module docs](self) and the crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct WeblProgram {
    source: String,
    statements: Vec<Stmt>,
}

#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    /// `var name = expr;`
    Assign { name: String, expr: Expr },
    /// Bare `expr;`
    Expr(Expr),
}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Str(String),
    Pattern(String),
    Int(i64),
    Var(String),
    Call { function: String, args: Vec<Expr> },
    Index { base: Box<Expr>, index: Box<Expr> },
    Concat(Box<Expr>, Box<Expr>),
}

impl WeblProgram {
    /// Parses a program.
    ///
    /// # Errors
    ///
    /// Returns [`WebdocError::WeblSyntax`] with a line number on any
    /// malformed statement, and [`WebdocError::NestingTooDeep`] when an
    /// expression nests deeper than [`MAX_EXPR_DEPTH`].
    pub fn parse(source: &str) -> Result<Self, WebdocError> {
        let tokens = lex(source)?;
        let mut p = TokenStream { tokens, pos: 0 };
        let mut statements = Vec::new();
        while p.peek().is_some() {
            statements.push(p.parse_stmt()?);
        }
        if statements.is_empty() {
            return Err(WebdocError::WeblSyntax { line: 1, message: "empty program".to_string() });
        }
        Ok(WeblProgram { source: source.to_string(), statements })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Runs the program against a [`WebStore`]; the result is the value
    /// of the final statement.
    ///
    /// # Errors
    ///
    /// Returns [`WebdocError::WeblRuntime`] on undefined variables, type
    /// mismatches, or out-of-range indexes, [`WebdocError::UrlNotFound`]
    /// from `GetURL`, and [`WebdocError::BadRegex`] if a pattern fails to
    /// compile.
    pub fn run(&self, web: &WebStore) -> Result<WeblValue, WebdocError> {
        self.run_with(web, BTreeMap::new())
    }

    /// Runs the program with pre-bound variables — the S2S web wrapper
    /// binds `PAGE` (the fetched page) and `URL` (its address) so rules
    /// need not hard-code the source location.
    ///
    /// # Errors
    ///
    /// Same as [`WeblProgram::run`].
    pub fn run_with(
        &self,
        web: &WebStore,
        initial: BTreeMap<String, WeblValue>,
    ) -> Result<WeblValue, WebdocError> {
        let mut env = initial;
        let (last, body) = self.statements.split_last().expect("parse rejects empty programs");
        for stmt in body {
            match stmt {
                Stmt::Assign { name, expr } => {
                    let v = eval(expr, &env, web)?;
                    env.insert(name.clone(), v);
                }
                Stmt::Expr(expr) => {
                    eval(expr, &env, web)?;
                }
            }
        }
        let (Stmt::Assign { expr, .. } | Stmt::Expr(expr)) = last;
        eval(expr, &env, web)
    }

    /// Runs and coerces the result to a list of strings: a `List` maps
    /// element-wise via [`WeblValue::to_text`]; any other value becomes a
    /// one-element list.
    ///
    /// # Errors
    ///
    /// Same as [`WeblProgram::run`].
    pub fn run_strings(&self, web: &WebStore) -> Result<Vec<String>, WebdocError> {
        Ok(match self.run(web)? {
            WeblValue::List(v) => v.iter().map(WeblValue::to_text).collect(),
            other => vec![other.to_text()],
        })
    }
}

// ---------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Var,
    Ident(String),
    Str(String),
    Pattern(String),
    Int(i64),
    Sym(char),
}

fn lex(source: &str) -> Result<Vec<(usize, Tok)>, WebdocError> {
    let mut out = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => {
                            return Err(WebdocError::WeblSyntax {
                                line,
                                message: "unterminated string".to_string(),
                            })
                        }
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            i += 1;
                            match chars.get(i) {
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                Some(&c) => s.push(c),
                                None => {
                                    return Err(WebdocError::WeblSyntax {
                                        line,
                                        message: "trailing backslash".to_string(),
                                    })
                                }
                            }
                            i += 1;
                        }
                        Some(&c) => {
                            if c == '\n' {
                                line += 1;
                            }
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                out.push((line, Tok::Str(s)));
            }
            '`' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => {
                            return Err(WebdocError::WeblSyntax {
                                line,
                                message: "unterminated regex literal".to_string(),
                            })
                        }
                        Some('`') => {
                            i += 1;
                            break;
                        }
                        Some(&c) => {
                            if c == '\n' {
                                line += 1;
                            }
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                out.push((line, Tok::Pattern(s)));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while i < chars.len() && chars[i].is_ascii_digit() {
                    s.push(chars[i]);
                    i += 1;
                }
                let v = s.parse().map_err(|_| WebdocError::WeblSyntax {
                    line,
                    message: format!("bad integer `{s}`"),
                })?;
                out.push((line, Tok::Int(v)));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                if s == "var" {
                    out.push((line, Tok::Var));
                } else {
                    out.push((line, Tok::Ident(s)));
                }
            }
            '=' | ';' | '(' | ')' | '[' | ']' | ',' | '+' => {
                out.push((line, Tok::Sym(c)));
                i += 1;
            }
            other => {
                return Err(WebdocError::WeblSyntax {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------- parser

struct TokenStream {
    tokens: Vec<(usize, Tok)>,
    pos: usize,
}

impl TokenStream {
    fn line(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map(|&(l, _)| l).unwrap_or(1)
    }

    fn err(&self, message: impl Into<String>) -> WebdocError {
        WebdocError::WeblSyntax { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos)?.1.clone();
        self.pos += 1;
        Some(t)
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), WebdocError> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`")))
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, WebdocError> {
        if self.peek() == Some(&Tok::Var) {
            self.bump();
            let name = match self.bump() {
                Some(Tok::Ident(n)) => n,
                _ => return Err(self.err("expected variable name after `var`")),
            };
            self.expect_sym('=')?;
            let expr = self.parse_expr(0)?.0;
            self.expect_sym(';')?;
            return Ok(Stmt::Assign { name, expr });
        }
        let expr = self.parse_expr(0)?.0;
        self.expect_sym(';')?;
        Ok(Stmt::Expr(expr))
    }

    fn one_deeper(&self, depth: usize) -> Result<usize, WebdocError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(WebdocError::NestingTooDeep { line: self.line(), limit: MAX_EXPR_DEPTH });
        }
        Ok(depth + 1)
    }

    // `nesting` counts the enclosing parentheses, argument lists and
    // index brackets (the parser's own recursion); each function also
    // returns the height of the tree it built, which `+` and `[i]`
    // chains deepen without recursing. Both are capped at
    // `MAX_EXPR_DEPTH`.
    fn parse_expr(&mut self, nesting: usize) -> Result<(Expr, usize), WebdocError> {
        let (mut left, mut height) = self.parse_postfix(nesting)?;
        while self.eat_sym('+') {
            let (right, h) = self.parse_postfix(nesting)?;
            height = self.one_deeper(height.max(h))?;
            left = Expr::Concat(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn parse_postfix(&mut self, nesting: usize) -> Result<(Expr, usize), WebdocError> {
        let (mut base, mut height) = self.parse_atom(nesting)?;
        while self.eat_sym('[') {
            let (index, h) = self.parse_expr(self.one_deeper(nesting)?)?;
            self.expect_sym(']')?;
            height = self.one_deeper(height.max(h))?;
            base = Expr::Index { base: Box::new(base), index: Box::new(index) };
        }
        Ok((base, height))
    }

    fn parse_atom(&mut self, nesting: usize) -> Result<(Expr, usize), WebdocError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok((Expr::Str(s), 1)),
            Some(Tok::Pattern(p)) => Ok((Expr::Pattern(p), 1)),
            Some(Tok::Int(i)) => Ok((Expr::Int(i), 1)),
            Some(Tok::Ident(name)) => {
                if self.eat_sym('(') {
                    let inner = self.one_deeper(nesting)?;
                    let mut args = Vec::new();
                    let mut height = 0;
                    if !self.eat_sym(')') {
                        loop {
                            let (arg, h) = self.parse_expr(inner)?;
                            args.push(arg);
                            height = height.max(h);
                            if self.eat_sym(')') {
                                break;
                            }
                            self.expect_sym(',')?;
                        }
                    }
                    Ok((Expr::Call { function: name, args }, self.one_deeper(height)?))
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            Some(Tok::Sym('(')) => {
                let inner = self.parse_expr(self.one_deeper(nesting)?)?;
                self.expect_sym(')')?;
                Ok(inner)
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

/// Deepest WebL expression accepted, counted both as nesting of
/// parentheses, call arguments and index brackets and as height of the
/// parsed tree. The parser, the evaluator and `Drop` all recurse once
/// per level; unbounded, a rule's
/// `((((…` overflowed the stack and aborted the process.
pub const MAX_EXPR_DEPTH: usize = 250;

// ------------------------------------------------------------ evaluator

fn eval(
    expr: &Expr,
    env: &BTreeMap<String, WeblValue>,
    web: &WebStore,
) -> Result<WeblValue, WebdocError> {
    let rt = |m: String| WebdocError::WeblRuntime { message: m };
    Ok(match expr {
        Expr::Str(s) => WeblValue::Str(s.clone()),
        Expr::Pattern(p) => WeblValue::Pattern(p.clone()),
        Expr::Int(i) => WeblValue::Int(*i),
        Expr::Var(name) => {
            env.get(name).cloned().ok_or_else(|| rt(format!("undefined variable `{name}`")))?
        }
        Expr::Index { base, index } => {
            let b = eval(base, env, web)?;
            let i = eval(index, env, web)?
                .as_int()
                .ok_or_else(|| rt("index must be an integer".to_string()))?;
            let list =
                b.as_list().ok_or_else(|| rt(format!("cannot index a {}", b.type_name())))?;
            let idx = usize::try_from(i).map_err(|_| rt(format!("negative index {i}")))?;
            list.get(idx)
                .cloned()
                .ok_or_else(|| rt(format!("index {idx} out of range (len {})", list.len())))?
        }
        Expr::Concat(a, b) => {
            let a = eval(a, env, web)?;
            let b = eval(b, env, web)?;
            match (&a, &b) {
                // A pattern on either side makes the result a pattern;
                // plain-string sides are regex-escaped.
                (WeblValue::Pattern(_), _) | (_, WeblValue::Pattern(_)) => {
                    let part = |v: &WeblValue| match v {
                        WeblValue::Pattern(p) => p.clone(),
                        other => escape_regex(&other.text()),
                    };
                    WeblValue::Pattern(format!("{}{}", part(&a), part(&b)))
                }
                _ => WeblValue::Str(format!("{}{}", a.text(), b.text())),
            }
        }
        Expr::Call { function, args } => {
            let vals: Vec<WeblValue> =
                args.iter().map(|a| eval(a, env, web)).collect::<Result<_, _>>()?;
            call(function, &vals, web)?
        }
    })
}

fn call(function: &str, args: &[WeblValue], web: &WebStore) -> Result<WeblValue, WebdocError> {
    let rt = |m: String| WebdocError::WeblRuntime { message: m };
    let arity = |n: usize| -> Result<(), WebdocError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(WebdocError::WeblRuntime {
                message: format!("{function} expects {n} argument(s), got {}", args.len()),
            })
        }
    };
    match function {
        "GetURL" => {
            arity(1)?;
            let url = args[0].to_text();
            let doc = web.fetch(&url)?.clone();
            Ok(WeblValue::Page { url, doc })
        }
        "Text" => {
            arity(1)?;
            Ok(match &args[0] {
                WeblValue::Page { doc, .. } | WeblValue::PageText(doc) => {
                    WeblValue::PageText(doc.clone())
                }
                other => WeblValue::Str(other.to_text()),
            })
        }
        "StripTags" => {
            arity(1)?;
            let text = match &args[0] {
                // A page renders as its kind does; a string is markup.
                WeblValue::Page { doc, .. } => doc.text().into_owned(),
                other => other.html().text(),
            };
            Ok(WeblValue::Str(text))
        }
        "Str_Search" => {
            arity(2)?;
            let text = args[0].text();
            let pattern = match &args[1] {
                WeblValue::Pattern(p) | WeblValue::Str(p) => p.clone(),
                other => return Err(rt(format!("Str_Search pattern is a {}", other.type_name()))),
            };
            let re = compile(&pattern)?;
            let matches = re
                .find_iter(&text)
                .map(|m| {
                    let groups = (0..m.group_count())
                        .map(|g| {
                            WeblValue::Str(
                                m.get(g).map(|c| c.text().to_string()).unwrap_or_default(),
                            )
                        })
                        .collect();
                    WeblValue::List(groups)
                })
                .collect();
            Ok(WeblValue::List(matches))
        }
        "Str_Split" => {
            arity(2)?;
            let text = args[0].text();
            let seps = args[1].text();
            let fields = text
                .split(|c: char| seps.contains(c))
                .filter(|f| !f.is_empty())
                .map(|f| WeblValue::Str(f.to_string()))
                .collect();
            Ok(WeblValue::List(fields))
        }
        "Select" => {
            arity(3)?;
            let s = args[0].text();
            let start = args[1].as_int().ok_or_else(|| rt("Select start must be int".into()))?;
            let end = args[2].as_int().ok_or_else(|| rt("Select end must be int".into()))?;
            let start = start.max(0) as usize;
            let end = end.max(0) as usize;
            let out: String = s.chars().skip(start).take(end.saturating_sub(start)).collect();
            Ok(WeblValue::Str(out))
        }
        "Trim" => {
            arity(1)?;
            Ok(WeblValue::Str(args[0].text().trim().to_string()))
        }
        "Lower" => {
            arity(1)?;
            Ok(WeblValue::Str(args[0].text().to_lowercase()))
        }
        "Upper" => {
            arity(1)?;
            Ok(WeblValue::Str(args[0].text().to_uppercase()))
        }
        "Replace" => {
            arity(3)?;
            let pattern = match &args[1] {
                WeblValue::Pattern(p) => p.clone(),
                other => escape_regex(&other.text()),
            };
            let re = compile(&pattern)?;
            Ok(WeblValue::Str(re.replace_all(&args[0].text(), &args[2].text())))
        }
        "Length" => {
            arity(1)?;
            let n = match &args[0] {
                WeblValue::List(v) => v.len(),
                other => other.text().chars().count(),
            };
            Ok(WeblValue::Int(n as i64))
        }
        "First" => {
            arity(1)?;
            args[0]
                .as_list()
                .and_then(|l| l.first().cloned())
                .ok_or_else(|| rt("First needs a non-empty list".into()))
        }
        "Last" => {
            arity(1)?;
            args[0]
                .as_list()
                .and_then(|l| l.last().cloned())
                .ok_or_else(|| rt("Last needs a non-empty list".into()))
        }
        "TagTexts" => {
            arity(2)?;
            let texts =
                args[0].html().tag_texts(&args[1].text()).into_iter().map(WeblValue::Str).collect();
            Ok(WeblValue::List(texts))
        }
        "Extract" => {
            // Regex extraction with the same semantics as the plain-text
            // extractor: one result per match, matches whose group did
            // not participate are skipped (not rendered empty).
            arity(3)?;
            let text = args[0].text();
            let pattern = match &args[1] {
                WeblValue::Pattern(p) | WeblValue::Str(p) => p.clone(),
                other => return Err(rt(format!("Extract pattern is a {}", other.type_name()))),
            };
            let group = args[2].as_int().ok_or_else(|| rt("Extract group must be int".into()))?;
            let group = usize::try_from(group).map_err(|_| rt("negative Extract group".into()))?;
            let re = compile(&pattern)?;
            let out = re
                .find_iter(&text)
                .filter_map(|m| m.get(group).map(|c| WeblValue::Str(c.text().to_string())))
                .collect();
            Ok(WeblValue::List(out))
        }
        "TagAttrs" => {
            arity(3)?;
            let vals = args[0]
                .html()
                .tag_attributes(&args[1].text(), &args[2].text())
                .into_iter()
                .map(WeblValue::Str)
                .collect();
            Ok(WeblValue::List(vals))
        }
        other => Err(rt(format!("unknown function `{other}`"))),
    }
}

fn compile(pattern: &str) -> Result<Regex, WebdocError> {
    Regex::new(pattern)
        .map_err(|e| WebdocError::BadRegex { pattern: pattern.to_string(), message: e.to_string() })
}

fn escape_regex(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn web() -> WebStore {
        let mut w = WebStore::new();
        w.register_html(
            "http://www.shop.com/watch81",
            "<p> <b>Seiko Men's Automatic Dive Watch</b> </p><p>Case: <b>stainless-steel</b></p>",
        );
        w.register_text("http://files.example/readme.txt", "brand: Orient\nprice: 189.00\n");
        w
    }

    fn run(src: &str) -> WeblValue {
        WeblProgram::parse(src).unwrap().run(&web()).unwrap()
    }

    #[test]
    fn paper_example_program() {
        // Faithful transcription of the paper's Figure 3 WebL snippet
        // (page text is the raw source, as the paper's regex implies).
        let v = run(r#"
            var P = GetURL("http://www.shop.com/watch81");
            var pText = Text(P);
            var regexpr = "<p>" + `\s*` + "<b>" + `[0-9a-zA-Z']+`;
            var St = Str_Search(pText, regexpr);
            var spliter = Str_Split(St[0][0], "<> ");
            var brand = Select(spliter[2], 0, 5);
        "#);
        assert_eq!(v.as_str(), Some("Seiko"));
    }

    #[test]
    fn striptags_and_tagtexts() {
        let v = run(r#"
            var P = GetURL("http://www.shop.com/watch81");
            var clean = StripTags(P);
        "#);
        assert!(v.as_str().unwrap().contains("Seiko Men's Automatic Dive Watch"));
        let v = run(r#"
            var P = GetURL("http://www.shop.com/watch81");
            var bolds = TagTexts(Text(P), "b");
        "#);
        let list = v.as_list().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].as_str(), Some("stainless-steel"));
    }

    #[test]
    fn page_builtins_use_the_kept_parse() {
        let w = web();
        w.fetch("http://www.shop.com/watch81").unwrap().parsed();
        let before = crate::html::tokenize_calls();
        for src in [
            r#"TagTexts(Text(GetURL("http://www.shop.com/watch81")), "b");"#,
            r#"TagTexts(GetURL("http://www.shop.com/watch81"), "b");"#,
            r#"TagAttrs(Text(GetURL("http://www.shop.com/watch81")), "a", "href");"#,
            r#"StripTags(GetURL("http://www.shop.com/watch81"));"#,
            r#"StripTags(Text(Text(GetURL("http://www.shop.com/watch81"))));"#,
        ] {
            WeblProgram::parse(src).unwrap().run(&w).unwrap();
        }
        assert_eq!(crate::html::tokenize_calls(), before, "a stored page is never re-tokenized");
        // Any other string is markup to parse, as before.
        run(r#"TagTexts("<b>x</b>", "b");"#);
        assert_eq!(crate::html::tokenize_calls(), before + 1);
    }

    #[test]
    fn page_text_is_a_string() {
        let v = run(r#"Text(GetURL("http://files.example/readme.txt"));"#);
        assert_eq!(v.as_str(), Some("brand: Orient\nprice: 189.00\n"));
        assert_eq!(v.to_text(), "brand: Orient\nprice: 189.00\n");
        assert_eq!(
            run(r#"Length(Text(GetURL("http://files.example/readme.txt")));"#).as_int(),
            Some(28)
        );
        let e = WeblProgram::parse(r#"Text(GetURL("http://files.example/readme.txt"))[0];"#)
            .unwrap()
            .run(&web())
            .unwrap_err();
        assert!(e.to_string().contains("cannot index a string"), "{e}");
        // A plain-text page renders as itself, but its text is a string,
        // and a string is markup to `StripTags`.
        let mut w = WebStore::new();
        w.register_text("http://t", "a <b>c</b>");
        let strip = |src: &str| WeblProgram::parse(src).unwrap().run(&w).unwrap();
        assert_eq!(strip(r#"StripTags(GetURL("http://t"));"#).as_str(), Some("a <b>c</b>"));
        assert_eq!(strip(r#"StripTags(Text(GetURL("http://t")));"#).as_str(), Some("a c"));
    }

    #[test]
    fn str_search_capture_groups() {
        let v = run(r#"
            var P = GetURL("http://files.example/readme.txt");
            var m = Str_Search(Text(P), `price: (\d+\.\d+)`);
            var price = m[0][1];
        "#);
        assert_eq!(v.as_str(), Some("189.00"));
    }

    #[test]
    fn concat_string_into_pattern_escapes() {
        // "1.5" must match the literal dot, not any char.
        let mut w = WebStore::new();
        w.register_text("http://t", "x15y 1.5z");
        let p = WeblProgram::parse(
            r#"
            var m = Str_Search(Text(GetURL("http://t")), "1.5" + `z`);
            var hit = m[0][0];
        "#,
        )
        .unwrap();
        assert_eq!(p.run(&w).unwrap().as_str(), Some("1.5z"));
    }

    #[test]
    fn string_helpers() {
        assert_eq!(run(r#"Trim("  x  ");"#).as_str(), Some("x"));
        assert_eq!(run(r#"Lower("AbC");"#).as_str(), Some("abc"));
        assert_eq!(run(r#"Upper("AbC");"#).as_str(), Some("ABC"));
        assert_eq!(run(r#"Length("hello");"#).as_int(), Some(5));
        assert_eq!(run(r#"Select("abcdef", 2, 4);"#).as_str(), Some("cd"));
        assert_eq!(run(r#"Select("ab", 0, 99);"#).as_str(), Some("ab"));
        assert_eq!(run(r#"Replace("a-b-c", `-`, "+");"#).as_str(), Some("a+b+c"));
    }

    #[test]
    fn list_helpers() {
        assert_eq!(run(r#"First(Str_Split("a,b,c", ","));"#).as_str(), Some("a"));
        assert_eq!(run(r#"Last(Str_Split("a,b,c", ","));"#).as_str(), Some("c"));
        assert_eq!(run(r#"Length(Str_Split("a,,b", ","));"#).as_int(), Some(2));
    }

    #[test]
    fn run_strings_coercion() {
        let p = WeblProgram::parse(r#"Str_Split("a b", " ");"#).unwrap();
        assert_eq!(p.run_strings(&web()).unwrap(), ["a", "b"]);
        let p = WeblProgram::parse(r#"Trim(" x ");"#).unwrap();
        assert_eq!(p.run_strings(&web()).unwrap(), ["x"]);
    }

    #[test]
    fn comments_and_multiline() {
        let v = run("// leading comment\nvar a = \"x\"; // trailing\nvar b = a + \"y\";\n");
        assert_eq!(v.as_str(), Some("xy"));
    }

    #[test]
    fn runtime_errors() {
        let e = WeblProgram::parse("var a = nope;").unwrap().run(&web()).unwrap_err();
        assert!(matches!(e, WebdocError::WeblRuntime { .. }));
        let e = WeblProgram::parse(r#"var a = Str_Split("x", ",")[5];"#)
            .unwrap()
            .run(&web())
            .unwrap_err();
        assert!(matches!(e, WebdocError::WeblRuntime { .. }));
        let e =
            WeblProgram::parse(r#"GetURL("http://missing");"#).unwrap().run(&web()).unwrap_err();
        assert!(matches!(e, WebdocError::UrlNotFound { .. }));
        let e = WeblProgram::parse(r#"Bogus("x");"#).unwrap().run(&web()).unwrap_err();
        assert!(matches!(e, WebdocError::WeblRuntime { .. }));
        let e = WeblProgram::parse(r#"Str_Search("x", `(`);"#).unwrap().run(&web()).unwrap_err();
        assert!(matches!(e, WebdocError::BadRegex { .. }));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = WeblProgram::parse("var a = \"x\";\nvar b = ;").unwrap_err();
        match e {
            WebdocError::WeblSyntax { line, .. } => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
        assert!(WeblProgram::parse("").is_err());
        assert!(WeblProgram::parse("var a = \"unterminated").is_err());
        assert!(WeblProgram::parse("var a = `unterminated").is_err());
        assert!(WeblProgram::parse("var = 1;").is_err());
        assert!(WeblProgram::parse("var a = 1").is_err());
    }

    #[test]
    fn parenthesized_expression() {
        assert_eq!(run(r#"Length(("a" + "b") + "c");"#).as_int(), Some(3));
    }

    #[test]
    fn extract_builtin_matches_text_extractor_semantics() {
        let mut w = WebStore::new();
        w.register_text("http://t", "brand: seiko\nbrand: casio\n");
        let p =
            WeblProgram::parse(r#"Extract(Text(GetURL("http://t")), `brand: (\w+)`, 1);"#).unwrap();
        assert_eq!(p.run_strings(&w).unwrap(), ["seiko", "casio"]);
        // A match whose group did not participate is skipped entirely.
        let mut w = WebStore::new();
        w.register_text("http://t", "ab a");
        let p = WeblProgram::parse(r#"Extract(Text(GetURL("http://t")), `a(b)?`, 1);"#).unwrap();
        assert_eq!(p.run_strings(&w).unwrap(), ["b"]);
    }

    #[test]
    fn expression_nesting_is_capped() {
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(|| {
            let n = 200_000;
            for src in [
                format!("var v = {}1{};", "(".repeat(n), ")".repeat(n)),
                format!("var v = {}1{};", "Text(".repeat(n), ")".repeat(n)),
                format!("var v = {}1{};", "a[".repeat(n), "]".repeat(n)),
                format!("var v = 1{};", " + 1".repeat(n)),
                format!("var v = a{};", "[0]".repeat(n)),
                // Unbalanced: the cap, not the missing `)`, stops it.
                format!("var v = {}", "(".repeat(n)),
            ] {
                assert_eq!(
                    WeblProgram::parse(&src),
                    Err(WebdocError::NestingTooDeep { line: 1, limit: MAX_EXPR_DEPTH }),
                    "{}",
                    &src[..20]
                );
            }
        });
        worker.unwrap().join().expect("no stack overflow past the cap");
    }

    /// An expression exactly at the cap parses, and what walks the tree
    /// — the evaluator, `Clone`, `==`, `Drop` — fits a worker thread's
    /// stack.
    #[test]
    fn expression_at_the_cap_is_safe_to_run_and_drop() {
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(|| {
            let d = MAX_EXPR_DEPTH;
            for (src, text) in [
                (format!("var v = {}\"x\"{};", "(".repeat(d), ")".repeat(d)), "x".to_string()),
                (
                    format!("var v = {}\"x\"{};", "Trim(".repeat(d - 1), ")".repeat(d - 1)),
                    "x".into(),
                ),
                (format!("var v = \"x\"{};", " + \"x\"".repeat(d - 1)), "x".repeat(d)),
            ] {
                let program = WeblProgram::parse(&src).expect("depth at the cap parses");
                assert_eq!(program.run(&WebStore::new()).unwrap().to_text(), text);
                assert_eq!(program.clone(), program);
            }
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
    }

    #[test]
    fn arity_checked() {
        let e = WeblProgram::parse(r#"Select("x", 1);"#).unwrap().run(&web()).unwrap_err();
        assert!(matches!(e, WebdocError::WeblRuntime { .. }));
    }
}
