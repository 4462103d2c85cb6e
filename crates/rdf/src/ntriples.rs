//! N-Triples serialization: one triple per line, fully spelled-out IRIs.
//!
//! The simplest RDF concrete syntax; also the base case for the S2S
//! Instance Generator's output-format comparison (experiment E6).

use crate::error::RdfError;
use crate::graph::Graph;
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::Triple;
use crate::turtle::{push_term, PrefixMap};
use crate::vocab::xsd;

/// Serializes `graph` to N-Triples.
///
/// Triples are emitted in the store's canonical SPO order, so output is
/// deterministic.
pub fn serialize(graph: &Graph) -> String {
    // N-Triples is Turtle with nothing abbreviated.
    let spelled_out = PrefixMap::new();
    let mut out = String::new();
    for t in graph {
        push_term(&mut out, t.subject(), &spelled_out);
        out.push_str(" <");
        out.push_str(t.predicate().as_str());
        out.push_str("> ");
        push_term(&mut out, t.object(), &spelled_out);
        out.push_str(" .\n");
    }
    out
}

/// Parses an N-Triples document into a [`Graph`].
///
/// Supports comments (`# …`), blank lines, IRIs, blank nodes, and plain,
/// typed, and language-tagged literals with the standard escapes.
///
/// # Errors
///
/// Returns [`RdfError::Parse`] with a line number on any malformed line.
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    let lines = input.lines().enumerate().map(|(lineno, raw)| (lineno + 1, raw.trim()));
    lines
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(lineno, line)| parse_line(line, lineno))
        .collect()
}

fn parse_line(line: &str, lineno: usize) -> Result<Triple, RdfError> {
    let mut cur = Cursor { chars: line.char_indices().collect(), pos: 0, line: lineno, src: line };
    let subject = cur.parse_subject()?;
    cur.skip_ws();
    let predicate = cur.parse_iri()?;
    cur.skip_ws();
    let object = cur.parse_term()?;
    cur.skip_ws();
    if !cur.eat('.') {
        return Err(cur.err("expected `.` terminating the triple"));
    }
    cur.skip_ws();
    if cur.peek().is_some() {
        return Err(cur.err("unexpected trailing content after `.`"));
    }
    Triple::try_new(subject, predicate, object)
        .ok_or_else(|| RdfError::Parse { line: lineno, message: "literal subject".into() })
}

struct Cursor<'a> {
    chars: Vec<(usize, char)>,
    pos: usize,
    line: usize,
    src: &'a str,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> RdfError {
        let mut message = message.into();
        message.push_str(&format!(" (near byte {} of `{}`)", self.byte_pos(), self.src));
        RdfError::Parse { line: self.line, message }
    }

    fn byte_pos(&self) -> usize {
        self.chars.get(self.pos).map(|&(b, _)| b).unwrap_or(self.src.len())
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
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
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_subject(&mut self) -> Result<Term, RdfError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => Ok(Term::Blank(self.parse_blank()?)),
            _ => Err(self.err("expected IRI or blank node subject")),
        }
    }

    fn parse_term(&mut self) -> Result<Term, RdfError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri()?)),
            Some('_') => Ok(Term::Blank(self.parse_blank()?)),
            Some('"') => Ok(Term::Literal(self.parse_literal()?)),
            _ => Err(self.err("expected IRI, blank node, or literal")),
        }
    }

    fn parse_iri(&mut self) -> Result<Iri, RdfError> {
        if !self.eat('<') {
            return Err(self.err("expected `<`"));
        }
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated IRI")),
                Some('>') => break,
                Some('\\') => match self.bump() {
                    Some('u') => s.push(self.unicode_escape(4)?),
                    Some('U') => s.push(self.unicode_escape(8)?),
                    _ => return Err(self.err("invalid escape in IRI")),
                },
                Some(c) => s.push(c),
            }
        }
        Iri::new(s).map_err(|e| self.err(e.to_string()))
    }

    fn parse_blank(&mut self) -> Result<BlankNode, RdfError> {
        self.eat('_');
        if !self.eat(':') {
            return Err(self.err("expected `:` after `_` in blank node"));
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

    fn parse_literal(&mut self) -> Result<Literal, RdfError> {
        if !self.eat('"') {
            return Err(self.err("expected `\"`"));
        }
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
                    _ => return Err(self.err("invalid escape in literal")),
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
                return Err(self.err("expected `^^` before datatype"));
            }
            let dt = self.parse_iri()?;
            return Ok(Literal::typed(lex, dt));
        }
        Ok(Literal::typed(lex, Iri::new(xsd::STRING).expect("xsd:string is valid")))
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
    fn roundtrip_mixed_graph() {
        let mut g = Graph::new();
        g.insert(Triple::new(iri("http://x.org/s"), iri("http://x.org/p"), Literal::string("v")));
        g.insert(Triple::new(
            BlankNode::new("b0").unwrap(),
            iri("http://x.org/p"),
            Literal::lang("montre", "fr").unwrap(),
        ));
        g.insert(Triple::new(iri("http://x.org/s"), iri("http://x.org/q"), Literal::integer(7)));
        g.insert(Triple::new(iri("http://x.org/s"), iri("http://x.org/r"), iri("http://x.org/o")));
        let text = serialize(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let doc = "\n# a comment\n<http://x.org/s> <http://x.org/p> \"v\" .\n\n";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://x.org/p"),
            Literal::string("line1\nline2\t\"quoted\"\\"),
        ));
        let text = serialize(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn unicode_escape_parsed() {
        let doc = "<http://x.org/s> <http://x.org/p> \"\\u00e9t\\u00e9\" .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.object().as_literal().unwrap().lexical(), "été");
    }

    #[test]
    fn typed_and_lang_literals() {
        let doc = concat!(
            "<http://x.org/s> <http://x.org/p> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://x.org/s> <http://x.org/q> \"hi\"@en-US .\n",
        );
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 2);
        let lits: Vec<_> = g.iter().filter_map(|t| t.object().as_literal().cloned()).collect();
        assert!(lits.iter().any(|l| l.as_integer() == Some(3)));
        assert!(lits.iter().any(|l| l.language() == Some("en-us")));
    }

    #[test]
    fn malformed_lines_error_with_lineno() {
        let doc = "<http://x.org/s> <http://x.org/p> \"v\" .\n<oops";
        match parse(doc) {
            Err(RdfError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_dot_rejected() {
        assert!(parse("<http://x.org/s> <http://x.org/p> \"v\"").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<http://x.org/s> <http://x.org/p> \"v\" . extra").is_err());
    }

    #[test]
    fn blank_node_roundtrip() {
        let doc = "_:a <http://x.org/p> _:b .";
        let g = parse(doc).unwrap();
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject().as_blank().unwrap().label(), "a");
        assert_eq!(t.object().as_blank().unwrap().label(), "b");
    }

    #[test]
    fn serialize_is_deterministic() {
        let mut g = Graph::new();
        for i in (0..20).rev() {
            g.insert(Triple::new(
                iri(&format!("http://x.org/s{i}")),
                iri("http://x.org/p"),
                Literal::integer(i),
            ));
        }
        let a = serialize(&g);
        let b = serialize(&g.clone());
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 20);
        // First line is the lexically-smallest subject (store is ordered).
        assert!(a.starts_with("<http://x.org/s0>"));
    }
}
