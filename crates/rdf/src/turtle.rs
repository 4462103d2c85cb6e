//! Turtle serialization: prefixed names, subject grouping, `a` for
//! `rdf:type`.
//!
//! The serializer groups triples by subject and predicate
//! (`;` / `,` continuation) and abbreviates IRIs with the supplied prefix
//! map. The parser supports the subset the serializer emits plus the
//! common hand-written forms: `@prefix`/`@base` directives, prefixed
//! names, `a`, numeric and boolean shorthand literals, and blank nodes.

use std::collections::BTreeMap;

use crate::error::RdfError;
use crate::graph::Graph;
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::Triple;
use crate::vocab::{owl, rdf, rdfs, xsd};

/// A prefix table mapping prefix labels (without `:`) to namespace IRIs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixMap {
    entries: BTreeMap<String, String>,
}

impl PrefixMap {
    /// An empty prefix map.
    pub fn new() -> Self {
        PrefixMap::default()
    }

    /// A map preloaded with `rdf`, `rdfs`, `owl`, and `xsd`.
    pub fn with_well_known() -> Self {
        let mut m = PrefixMap::new();
        m.insert("rdf", rdf::NS);
        m.insert("rdfs", rdfs::NS);
        m.insert("owl", owl::NS);
        m.insert("xsd", xsd::NS);
        m
    }

    /// Binds `prefix` to `namespace`, replacing any previous binding.
    pub fn insert(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        self.entries.insert(prefix.into(), namespace.into());
    }

    /// Looks up a prefix label.
    pub fn get(&self, prefix: &str) -> Option<&str> {
        self.entries.get(prefix).map(String::as_str)
    }

    /// Iterates over `(prefix, namespace)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Abbreviates `iri` to `prefix:local` if a namespace matches and the
    /// local part is a simple name.
    pub fn abbreviate(&self, iri: &Iri) -> Option<String> {
        self.qname_parts(iri).map(|(prefix, local)| format!("{prefix}:{local}"))
    }

    /// Like [`abbreviate`](PrefixMap::abbreviate), but returns the
    /// borrowed `(prefix, local)` halves so a serializer can write the
    /// qualified name without building a `String` per term.
    pub fn qname_parts<'a>(&'a self, iri: &'a Iri) -> Option<(&'a str, &'a str)> {
        let s = iri.as_str();
        self.entries.iter().find_map(|(prefix, ns)| {
            let local = s.strip_prefix(ns.as_str())?;
            let simple = !local.is_empty()
                && local.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                && local.chars().next().is_some_and(|c| !c.is_ascii_digit());
            simple.then_some((prefix.as_str(), local))
        })
    }
}

/// Remembers the qualified name of the first few distinct IRIs it is
/// asked about — a graph has a handful of predicates and classes, each
/// repeated once per record, so a serializer asks the same question
/// thousands of times.
pub(crate) struct QnameMemo<'a> {
    prefixes: &'a PrefixMap,
    seen: Vec<(&'a Iri, Option<(&'a str, &'a str)>)>,
}

impl<'a> QnameMemo<'a> {
    /// Beyond this many distinct IRIs the memo stops growing, so a
    /// lookup stays a short scan whatever the graph holds.
    const CAPACITY: usize = 16;

    pub(crate) fn new(prefixes: &'a PrefixMap) -> Self {
        QnameMemo { prefixes, seen: Vec::with_capacity(Self::CAPACITY) }
    }

    /// [`PrefixMap::qname_parts`], remembered.
    pub(crate) fn qname_parts(&mut self, iri: &'a Iri) -> Option<(&'a str, &'a str)> {
        if let Some((_, qname)) = self.seen.iter().find(|(seen, _)| *seen == iri) {
            return *qname;
        }
        let qname = self.prefixes.qname_parts(iri);
        if self.seen.len() < Self::CAPACITY {
            self.seen.push((iri, qname));
        }
        qname
    }
}

impl<S: Into<String>, T: Into<String>> FromIterator<(S, T)> for PrefixMap {
    fn from_iter<I: IntoIterator<Item = (S, T)>>(iter: I) -> Self {
        let mut m = PrefixMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// Serializes `graph` as Turtle using `prefixes` for abbreviation.
///
/// Streams the graph's SPO order straight into the output buffer: the
/// order already groups by subject and predicate, so the `;` / `,`
/// continuations need only the previous triple.
pub fn serialize(graph: &Graph, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (prefix, ns) in prefixes.iter() {
        out.push_str("@prefix ");
        out.push_str(prefix);
        out.push_str(": <");
        out.push_str(ns);
        out.push_str("> .\n");
    }
    if !out.is_empty() {
        out.push('\n');
    }

    // Predicates and classes repeat once per record; subjects and
    // literals do not, and are looked up as they come.
    let mut qnames = QnameMemo::new(prefixes);
    let mut last: Option<&Triple> = None;
    for t in graph {
        let same_subject = last.is_some_and(|l| l.subject() == t.subject());
        let same_predicate = same_subject && last.is_some_and(|l| l.predicate() == t.predicate());
        if same_predicate {
            out.push_str(" ,\n        ");
        } else if same_subject {
            out.push_str(" ;\n    ");
        } else {
            if last.is_some() {
                out.push_str(" .\n\n");
            }
            push_term(&mut out, t.subject(), prefixes);
            out.push(' ');
        }
        let typing = t.predicate().as_str() == rdf::TYPE;
        if !same_predicate {
            if typing {
                out.push('a');
            } else {
                push_name(&mut out, t.predicate(), qnames.qname_parts(t.predicate()));
            }
            out.push(' ');
        }
        match t.object() {
            Term::Iri(class) if typing => push_name(&mut out, class, qnames.qname_parts(class)),
            object => push_term(&mut out, object, prefixes),
        }
        last = Some(t);
    }
    if last.is_some() {
        out.push_str(" .\n");
    }
    out
}

/// Appends the qualified name `prefix:local`.
pub(crate) fn push_qname(out: &mut String, (prefix, local): (&str, &str)) {
    out.push_str(prefix);
    out.push(':');
    out.push_str(local);
}

/// Appends `iri` as a prefixed name if `prefixes` abbreviates it, else
/// as `<iri>`.
fn push_iri(out: &mut String, iri: &Iri, prefixes: &PrefixMap) {
    push_name(out, iri, prefixes.qname_parts(iri));
}

/// Appends `iri` as the prefixed name `qname` if it has one, else as
/// `<iri>`.
fn push_name(out: &mut String, iri: &Iri, qname: Option<(&str, &str)>) {
    match qname {
        Some(qname) => push_qname(out, qname),
        None => {
            out.push('<');
            out.push_str(iri.as_str());
            out.push('>');
        }
    }
}

/// Appends `term` in Turtle syntax (datatype IRIs abbreviate too). With
/// an empty prefix map this is exactly the N-Triples form.
pub(crate) fn push_term(out: &mut String, term: &Term, prefixes: &PrefixMap) {
    match term {
        Term::Iri(iri) => push_iri(out, iri, prefixes),
        Term::Blank(b) => {
            out.push_str("_:");
            out.push_str(b.label());
        }
        Term::Literal(lit) => {
            out.push('"');
            crate::term::escape_literal(lit.lexical(), out);
            out.push('"');
            if let Some(lang) = lit.language() {
                out.push('@');
                out.push_str(lang);
            } else if lit.datatype().as_str() != xsd::STRING {
                out.push_str("^^");
                push_iri(out, lit.datatype(), prefixes);
            }
        }
    }
}

/// Parses a Turtle document.
///
/// # Errors
///
/// Returns [`RdfError::Parse`] on syntax errors,
/// [`RdfError::UnknownPrefix`] when a prefixed name uses an undeclared
/// prefix, and [`RdfError::NestingTooDeep`] when anonymous blank nodes
/// nest deeper than [`MAX_NESTING`].
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    Parser::new(input).parse()
}

/// Deepest nesting of anonymous blank nodes (`[ p [ p [ … ] ] ]`)
/// accepted. The parser recurses once per level; unbounded, 200 000
/// levels overflowed the stack and aborted the process.
pub const MAX_NESTING: usize = 250;

struct Parser<'a> {
    chars: Vec<(usize, char)>,
    pos: usize,
    src: &'a str,
    prefixes: PrefixMap,
    base: Option<String>,
    /// Triples in document order; the graph is built from them once.
    triples: Vec<Triple>,
    blank_counter: usize,
    /// Anonymous blank nodes currently open.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            chars: src.char_indices().collect(),
            pos: 0,
            src,
            prefixes: PrefixMap::new(),
            base: None,
            triples: Vec::new(),
            blank_counter: 0,
            nesting: 0,
        }
    }

    fn line(&self) -> usize {
        let byte = self.chars.get(self.pos).map(|&(b, _)| b).unwrap_or(self.src.len());
        self.src[..byte].lines().count().max(1)
    }

    fn err(&self, message: impl Into<String>) -> RdfError {
        RdfError::Parse { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.pos += 1;
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn parse(mut self) -> Result<Graph, RdfError> {
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some('@') => self.parse_directive()?,
                _ => self.parse_statement()?,
            }
        }
        Ok(self.triples.into_iter().collect())
    }

    fn parse_directive(&mut self) -> Result<(), RdfError> {
        self.eat('@');
        let word = self.read_word();
        match word.as_str() {
            "prefix" => {
                self.skip_ws();
                let prefix = self.read_prefix_label()?;
                self.skip_ws();
                let iri = self.parse_iri_ref()?;
                self.prefixes.insert(prefix, iri);
            }
            "base" => {
                self.skip_ws();
                let iri = self.parse_iri_ref()?;
                self.base = Some(iri);
            }
            other => return Err(self.err(format!("unknown directive `@{other}`"))),
        }
        self.skip_ws();
        if !self.eat('.') {
            return Err(self.err("expected `.` after directive"));
        }
        Ok(())
    }

    fn read_word(&mut self) -> String {
        let mut w = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphabetic() {
                w.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        w
    }

    fn read_prefix_label(&mut self) -> Result<String, RdfError> {
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                self.pos += 1;
                return Ok(label);
            }
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                label.push(c);
                self.pos += 1;
            } else {
                return Err(self.err("malformed prefix label"));
            }
        }
        Err(self.err("unterminated prefix label"))
    }

    fn parse_statement(&mut self) -> Result<(), RdfError> {
        let subject = self.parse_subject()?;
        self.parse_predicate_object_list(&subject)?;
        self.skip_ws();
        if !self.eat('.') {
            return Err(self.err("expected `.` terminating statement"));
        }
        Ok(())
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), RdfError> {
        loop {
            self.skip_ws();
            let predicate = self.parse_predicate()?;
            loop {
                self.skip_ws();
                let object = self.parse_object()?;
                let triple = Triple::try_new(subject.clone(), predicate.clone(), object)
                    .ok_or_else(|| self.err("literal subject"))?;
                self.triples.push(triple);
                self.skip_ws();
                if !self.eat(',') {
                    break;
                }
            }
            if !self.eat(';') {
                return Ok(());
            }
            self.skip_ws();
            // Permit trailing `;` before `.`
            if matches!(self.peek(), Some('.') | None) {
                return Ok(());
            }
        }
    }

    fn parse_subject(&mut self) -> Result<Term, RdfError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => Ok(Term::Blank(self.parse_blank()?)),
            Some('[') => Ok(Term::Blank(self.parse_anon_blank(true)?)),
            Some(_) => Ok(Term::Iri(self.parse_prefixed_name()?)),
            None => Err(self.err("expected subject")),
        }
    }

    fn parse_predicate(&mut self) -> Result<Iri, RdfError> {
        match self.peek() {
            Some('<') => self.parse_iri(),
            Some('a') if self.peek2().map(|c| c.is_whitespace()).unwrap_or(false) => {
                self.bump();
                Ok(rdf::type_())
            }
            Some(_) => self.parse_prefixed_name(),
            None => Err(self.err("expected predicate")),
        }
    }

    fn parse_object(&mut self) -> Result<Term, RdfError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => Ok(Term::Blank(self.parse_blank()?)),
            Some('[') => Ok(Term::Blank(self.parse_anon_blank(false)?)),
            Some('"') => Ok(Term::Literal(self.parse_quoted_literal()?)),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                Ok(Term::Literal(self.parse_numeric_literal()?))
            }
            Some(_) => {
                // `true`/`false` or a prefixed name.
                let save = self.pos;
                let word = self.read_word();
                if word == "true" || word == "false" {
                    if matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == ':') {
                        self.pos = save;
                    } else {
                        return Ok(Term::Literal(Literal::boolean(word == "true")));
                    }
                } else {
                    self.pos = save;
                }
                Ok(Term::Iri(self.parse_prefixed_name()?))
            }
            None => Err(self.err("expected object")),
        }
    }

    fn parse_anon_blank(&mut self, _as_subject: bool) -> Result<BlankNode, RdfError> {
        if self.nesting >= MAX_NESTING {
            return Err(RdfError::NestingTooDeep { line: self.line(), limit: MAX_NESTING });
        }
        self.eat('[');
        self.blank_counter += 1;
        let node = BlankNode::new(format!("anon{}", self.blank_counter))
            .expect("generated label is valid");
        self.skip_ws();
        if !self.eat(']') {
            // [ pred obj ; ... ]
            let subject = Term::Blank(node.clone());
            self.nesting += 1;
            self.parse_predicate_object_list(&subject)?;
            self.nesting -= 1;
            self.skip_ws();
            if !self.eat(']') {
                return Err(self.err("expected `]`"));
            }
        }
        Ok(node)
    }

    fn parse_iri_ref(&mut self) -> Result<String, RdfError> {
        if !self.eat('<') {
            return Err(self.err("expected `<`"));
        }
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated IRI")),
                Some('>') => break,
                Some(c) => s.push(c),
            }
        }
        // Resolve against @base for relative IRIs.
        if !s.contains(':') {
            if let Some(base) = &self.base {
                s = format!("{base}{s}");
            }
        }
        Ok(s)
    }

    fn parse_iri(&mut self) -> Result<Iri, RdfError> {
        let s = self.parse_iri_ref()?;
        Iri::new(s).map_err(|e| self.err(e.to_string()))
    }

    fn parse_prefixed_name(&mut self) -> Result<Iri, RdfError> {
        let mut prefix = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                prefix.push(c);
                self.pos += 1;
            } else {
                return Err(self.err(format!("unexpected character `{c}`")));
            }
        }
        if !self.eat(':') {
            return Err(self.err("expected `:` in prefixed name"));
        }
        let mut local = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                local.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        let ns = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| RdfError::UnknownPrefix { prefix: prefix.clone(), line: self.line() })?;
        Iri::new(format!("{ns}{local}")).map_err(|e| self.err(e.to_string()))
    }

    fn parse_blank(&mut self) -> Result<BlankNode, RdfError> {
        self.eat('_');
        if !self.eat(':') {
            return Err(self.err("expected `:` after `_`"));
        }
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                label.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        BlankNode::new(label).map_err(|e| self.err(e.to_string()))
    }

    fn parse_quoted_literal(&mut self) -> Result<Literal, RdfError> {
        self.eat('"');
        let mut lex = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated literal")),
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('n') => lex.push('\n'),
                    Some('r') => lex.push('\r'),
                    Some('t') => lex.push('\t'),
                    Some('"') => lex.push('"'),
                    Some('\\') => lex.push('\\'),
                    Some('u') => lex.push(self.unicode_escape(4)?),
                    Some('U') => lex.push(self.unicode_escape(8)?),
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) => lex.push(c),
            }
        }
        if self.eat('@') {
            let mut tag = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == '-' {
                    tag.push(c);
                    self.pos += 1;
                } else {
                    break;
                }
            }
            return Literal::lang(lex, tag).map_err(|e| self.err(e.to_string()));
        }
        if self.eat('^') {
            if !self.eat('^') {
                return Err(self.err("expected `^^`"));
            }
            let dt = match self.peek() {
                Some('<') => self.parse_iri()?,
                _ => self.parse_prefixed_name()?,
            };
            return Ok(Literal::typed(lex, dt));
        }
        Ok(Literal::string(lex))
    }

    fn parse_numeric_literal(&mut self) -> Result<Literal, RdfError> {
        let mut s = String::new();
        if matches!(self.peek(), Some('-') | Some('+')) {
            s.push(self.bump().unwrap());
        }
        let mut has_dot = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.pos += 1;
            } else if c == '.' && !has_dot && self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                has_dot = true;
                s.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        if s.is_empty() || s == "-" || s == "+" {
            return Err(self.err("malformed numeric literal"));
        }
        Ok(if has_dot {
            Literal::typed(s, Iri::new(xsd::DECIMAL).expect("valid"))
        } else {
            Literal::typed(s, Iri::new(xsd::INTEGER).expect("valid"))
        })
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, RdfError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let c = self.bump().ok_or_else(|| self.err("truncated unicode escape"))?;
            let d = c.to_digit(16).ok_or_else(|| self.err("invalid unicode escape digit"))?;
            v = v * 16 + d;
        }
        char::from_u32(v).ok_or_else(|| self.err("unicode escape out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    #[test]
    fn prefix_abbreviation() {
        let mut p = PrefixMap::new();
        p.insert("ex", "http://example.org/schema#");
        let i = iri("http://example.org/schema#brand");
        assert_eq!(p.abbreviate(&i), Some("ex:brand".into()));
        let unrelated = iri("http://other.org/x");
        assert_eq!(p.abbreviate(&unrelated), None);
    }

    #[test]
    fn serialize_groups_subjects_and_predicates() {
        let mut g = Graph::new();
        let s = iri("http://x.org/s");
        g.insert(Triple::new(s.clone(), iri("http://x.org/p"), Literal::string("a")));
        g.insert(Triple::new(s.clone(), iri("http://x.org/p"), Literal::string("b")));
        g.insert(Triple::new(s, iri("http://x.org/q"), Literal::string("c")));
        let text = serialize(&g, &PrefixMap::new());
        // one subject block, with ; and , continuations
        assert_eq!(text.matches("<http://x.org/s>").count(), 1);
        assert!(text.contains(" ;"));
        assert!(text.contains(" ,"));
    }

    #[test]
    fn rdf_type_becomes_a() {
        let mut g = Graph::new();
        g.insert(Triple::new(iri("http://x.org/s"), rdf::type_(), iri("http://x.org/C")));
        let text = serialize(&g, &PrefixMap::new());
        assert!(text.contains(" a <http://x.org/C>"), "{text}");
    }

    #[test]
    fn roundtrip_via_parser() {
        let mut g = Graph::new();
        let s = iri("http://example.org/schema#s");
        g.insert(Triple::new(s.clone(), rdf::type_(), iri("http://example.org/schema#C")));
        g.insert(Triple::new(s.clone(), iri("http://example.org/schema#p"), Literal::integer(42)));
        g.insert(Triple::new(
            s,
            iri("http://example.org/schema#q"),
            Literal::lang("montre", "fr").unwrap(),
        ));
        let mut prefixes = PrefixMap::with_well_known();
        prefixes.insert("ex", "http://example.org/schema#");
        let text = serialize(&g, &prefixes);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parses_directives_and_prefixed_names() {
        let doc = "@prefix ex: <http://x.org/> .\nex:s ex:p ex:o .";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject().as_iri().unwrap().as_str(), "http://x.org/s");
    }

    #[test]
    fn base_resolves_relative_iris() {
        let doc = "@base <http://x.org/> .\n<s> <p> <o> .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject().as_iri().unwrap().as_str(), "http://x.org/s");
    }

    #[test]
    fn numeric_and_boolean_shorthand() {
        let doc = "@prefix ex: <http://x.org/> .\nex:s ex:p 42 ; ex:q 3.25 ; ex:r true .";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 3);
        let lits: Vec<_> = g.iter().filter_map(|t| t.object().as_literal().cloned()).collect();
        assert!(lits.iter().any(|l| l.as_integer() == Some(42)));
        assert!(lits
            .iter()
            .any(|l| l.lexical() == "3.25" && l.datatype().as_str() == xsd::DECIMAL));
        assert!(lits
            .iter()
            .any(|l| l.lexical() == "true" && l.datatype().as_str() == xsd::BOOLEAN));
    }

    #[test]
    fn unknown_prefix_is_reported() {
        match parse("nope:s <http://x.org/p> nope:o .") {
            Err(RdfError::UnknownPrefix { prefix, .. }) => assert_eq!(prefix, "nope"),
            other => panic!("expected unknown prefix, got {other:?}"),
        }
    }

    #[test]
    fn anon_blank_node_with_properties() {
        let doc = "@prefix ex: <http://x.org/> .\nex:s ex:p [ ex:q ex:o ] .";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 2);
        let blank_objs = g.iter().filter(|t| t.object().as_blank().is_some()).count();
        assert_eq!(blank_objs, 1);
    }

    /// A hostile document: 200 000 nested `[ e:p [ e:p … ] ]` used to
    /// overflow the stack in `parse_anon_blank` and abort the process.
    #[test]
    fn blank_node_nesting_is_capped() {
        let nested = |n: usize| {
            format!(
                "@prefix e: <http://e.org/> .\ne:s e:p {}e:o{} .",
                "[ e:p ".repeat(n),
                " ]".repeat(n)
            )
        };
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(move || {
            // At the cap: one triple per level plus the innermost object.
            assert_eq!(parse(&nested(MAX_NESTING)).expect("depth at the cap parses").len(), 251);
            for n in [MAX_NESTING + 1, 200_000] {
                assert_eq!(
                    parse(&nested(n)),
                    Err(RdfError::NestingTooDeep { line: 2, limit: MAX_NESTING })
                );
            }
        });
        worker.unwrap().join().expect("no stack overflow at or past the cap");
    }

    #[test]
    fn comments_skipped() {
        let doc = "# top\n@prefix ex: <http://x.org/> . # trailing\nex:s ex:p ex:o . # done";
        assert_eq!(parse(doc).unwrap().len(), 1);
    }

    #[test]
    fn datatype_as_prefixed_name() {
        let doc = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n@prefix ex: <http://x.org/> .\nex:s ex:p \"5\"^^xsd:integer .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object().as_literal().unwrap().as_integer(), Some(5));
    }

    #[test]
    fn object_list_with_commas() {
        let doc = "@prefix ex: <http://x.org/> .\nex:s ex:p \"a\", \"b\", \"c\" .";
        assert_eq!(parse(doc).unwrap().len(), 3);
    }

    #[test]
    fn negative_number() {
        let doc = "@prefix ex: <http://x.org/> .\nex:s ex:p -7 .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object().as_literal().unwrap().as_integer(), Some(-7));
    }
}
