//! XML parser: elements, attributes, text with entities, CDATA, comments,
//! processing instructions, and an optional declaration/doctype. One
//! pass over the input bytes fills a [`Document`] arena; open elements
//! sit on a stack of their own, so nesting costs heap, not call stack.

use std::collections::HashMap;

use crate::dom::{Attribute, Document, Kind, Span, Sym, NO_NAME};
use crate::error::XmlError;

/// Parses an XML document.
///
/// # Errors
///
/// Returns [`XmlError::Parse`] on malformed input: mismatched tags,
/// unterminated constructs, bad entities, multiple roots, etc.;
/// [`XmlError::NestingTooDeep`] past [`MAX_DEPTH`] and
/// [`XmlError::TooLarge`] past [`MAX_INPUT`].
pub fn parse(input: &str) -> Result<Document, XmlError> {
    check_size(input.len())?;
    let mut p = Parser::new(input);
    p.skip_ws();
    let had_declaration = p.try_declaration()?;
    p.skip_misc()?;
    p.parse_root()?;
    p.skip_misc()?;
    if p.pos < p.bytes.len() {
        return Err(p.err("content after the root element"));
    }
    Ok(p.finish(had_declaration))
}

/// Deepest element nesting accepted. The parser keeps open elements on
/// a stack of its own, but the readers that recurse over a document —
/// the writer, RDF/XML's node and property elements — get their bound
/// from here; unbounded, `<a><a><a>…` from a source overflowed the call
/// stack and aborted the process.
pub const MAX_DEPTH: usize = 250;

/// Longest input accepted, in bytes. Node ids, attribute indices and
/// offsets into the document's text are `u32`, and every node, every
/// attribute and every byte of that text takes at least one byte of
/// input (decoding only shrinks text, a name is stored once and its
/// local part as a range inside it), so below this size none of them
/// wraps.
pub const MAX_INPUT: usize = u32::MAX as usize;

fn check_size(len: usize) -> Result<(), XmlError> {
    if len > MAX_INPUT {
        return Err(XmlError::TooLarge { len, limit: MAX_INPUT });
    }
    Ok(())
}

/// A count or offset as a `u32`; [`check_size`] keeps every one in range.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("bounded by the input size check")
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    doc: Document,
    interned: HashMap<&'a str, Sym>,
    /// Open elements, innermost last: node id and name.
    open: Vec<(u32, &'a str)>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let doc = Document {
            kinds: Vec::new(),
            names: Vec::new(),
            ends: Vec::new(),
            spans: Vec::new(),
            attributes: Vec::new(),
            symbols: Vec::new(),
            locals: Vec::new(),
            prefixed: Vec::new(),
            sorted: Vec::new(),
            text: String::new(),
            widest: 0,
            had_declaration: false,
        };
        let (interned, open) = (HashMap::new(), Vec::new());
        Parser { input, bytes: input.as_bytes(), pos: 0, doc, interned, open }
    }

    fn finish(self, had_declaration: bool) -> Document {
        let mut doc = self.doc;
        let mut sorted: Vec<Sym> = (0..index(doc.symbols.len())).collect();
        sorted.sort_unstable_by(|&a, &b| doc.name_of(a).cmp(doc.name_of(b)));
        doc.sorted = sorted;
        doc.prefixed = vec![false; doc.symbols.len()];
        for (sym, &local) in doc.locals.iter().enumerate() {
            if local as usize != sym {
                doc.prefixed[local as usize] = true;
            }
        }
        let runs = doc.kinds.iter().zip(&doc.spans).filter(|(&k, _)| k == Kind::Text);
        let values = doc.attributes.iter().map(|a| a.value.len());
        doc.widest = runs.map(|(_, s)| s.len()).chain(values).max().unwrap_or(0);
        doc.had_declaration = had_declaration;
        doc
    }

    /// An error at the byte offset of the next unread character.
    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::Parse { position: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        match self.peek()? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.input[self.pos..].chars().next(),
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn eat_str(&mut self, s: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(s.as_bytes());
        self.pos += if hit { s.len() } else { 0 };
        hit
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek_char().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// Moves past the next `end` and returns the text before it; `None`
    /// at the end of input when there is none.
    fn past(&mut self, end: &str) -> Option<&'a str> {
        let rest = &self.input[self.pos..];
        let Some(at) = rest.find(end) else {
            self.pos = self.bytes.len();
            return None;
        };
        self.pos += at + end.len();
        Some(&rest[..at])
    }

    fn take_until(&mut self, end: &str) -> Result<&'a str, XmlError> {
        self.past(end).ok_or_else(|| self.err(format!("unterminated construct, expected `{end}`")))
    }

    fn try_declaration(&mut self) -> Result<bool, XmlError> {
        if !self.eat_str("<?xml") {
            return Ok(false);
        }
        match self.past("?>") {
            Some(_) => Ok(true),
            None => Err(self.err("unterminated XML declaration")),
        }
    }

    /// Skips whitespace, comments, PIs, and a doctype between top-level
    /// constructs.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.eat_str("<!--") {
                self.take_until("-->")?;
            } else if self.eat_str("<?") {
                self.take_until("?>")?;
            } else if self.eat_str("<!DOCTYPE") {
                // Skip to the matching '>' (no internal subset support
                // beyond balanced brackets).
                let mut depth = 0isize;
                loop {
                    let Some(b) = self.peek() else { return Err(self.err("unterminated DOCTYPE")) };
                    self.pos += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        b'>' if depth <= 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    /// Parses the root element and everything inside it.
    fn parse_root(&mut self) -> Result<(), XmlError> {
        self.start_element()?;
        while let Some(&(id, name)) = self.open.last() {
            if self.eat_str("</") {
                self.end_tag(name)?;
                self.open.pop();
                self.doc.ends[id as usize] = index(self.doc.kinds.len());
            } else if self.eat_str("<!--") {
                let comment = self.take_until("-->")?;
                self.push_run(Kind::Comment, comment);
            } else if self.eat_str("<![CDATA[") {
                let text = self.take_until("]]>")?;
                self.push_run(Kind::Text, text);
            } else if self.eat_str("<?") {
                self.take_until("?>")?;
            } else {
                match self.peek() {
                    None => return Err(self.err(format!("unclosed element `{name}`"))),
                    Some(b'<') => self.start_element()?,
                    Some(_) => self.text()?,
                }
            }
        }
        Ok(())
    }

    fn push_node(&mut self, kind: Kind, name: Sym, span: Span) -> u32 {
        let id = index(self.doc.kinds.len());
        self.doc.kinds.push(kind);
        self.doc.names.push(name);
        self.doc.ends.push(id + 1);
        self.doc.spans.push(span);
        id
    }

    /// A text run or comment copied verbatim.
    fn push_run(&mut self, kind: Kind, text: &str) {
        let start = index(self.doc.text.len());
        self.doc.text.push_str(text);
        self.push_node(kind, NO_NAME, Span { start, end: index(self.doc.text.len()) });
    }

    /// Parses `<name attr="v" …>` (the element stays open) or
    /// `<name …/>`.
    fn start_element(&mut self) -> Result<(), XmlError> {
        if self.open.len() == MAX_DEPTH {
            return Err(XmlError::NestingTooDeep { position: self.pos, limit: MAX_DEPTH });
        }
        if !self.eat(b'<') {
            return Err(self.err("expected `<`"));
        }
        let name = self.name()?;
        let sym = self.intern(name);
        let first = index(self.doc.attributes.len());
        let id = self.push_node(Kind::Element, sym, Span { start: first, end: first });
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if !self.eat(b'>') {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    break;
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.open.push((id, name));
                    break;
                }
                Some(_) => self.attribute(first as usize)?,
                None => return Err(self.err("unterminated start tag")),
            }
        }
        self.doc.spans[id as usize].end = index(self.doc.attributes.len());
        Ok(())
    }

    /// Parses `name="value"` of the element whose attributes start at
    /// `first`.
    fn attribute(&mut self, first: usize) -> Result<(), XmlError> {
        let name = self.name()?;
        self.skip_ws();
        if !self.eat(b'=') {
            return Err(self.err("expected `=` after attribute name"));
        }
        self.skip_ws();
        let value = self.attribute_value()?;
        let sym = self.intern(name);
        if self.doc.attributes[first..].iter().any(|a| a.name == sym) {
            return Err(self.err(format!("duplicate attribute `{name}`")));
        }
        self.doc.attributes.push(Attribute { name: sym, value });
        Ok(())
    }

    /// Parses the rest of an end tag after `</`, which must close `name`.
    fn end_tag(&mut self, name: &str) -> Result<(), XmlError> {
        let close = self.name()?;
        if close != name {
            return Err(
                self.err(format!("mismatched end tag: expected `</{name}>`, found `</{close}>`"))
            );
        }
        self.skip_ws();
        if !self.eat(b'>') {
            return Err(self.err("expected `>` in end tag"));
        }
        Ok(())
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek_char() {
            Some(c) if c.is_alphabetic() || c == '_' => {}
            _ => return Err(self.err("expected a name")),
        }
        while let Some(c) = self.peek_char() {
            if !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')) {
                break;
            }
            self.pos += c.len_utf8();
        }
        Ok(&self.input[start..self.pos])
    }

    /// The symbol of `name`, made on its first sighting together with
    /// the symbol of its local part.
    fn intern(&mut self, name: &'a str) -> Sym {
        if let Some(&sym) = self.interned.get(name) {
            return sym;
        }
        let start = self.doc.text.len();
        self.doc.text.push_str(name);
        let end = index(self.doc.text.len());
        let sym = self.new_symbol(name, Span { start: index(start), end });
        let local = name.rsplit(':').next().unwrap_or(name);
        if local.len() < name.len() {
            let local_sym = match self.interned.get(local) {
                Some(&s) => s,
                None => self.new_symbol(local, Span { start: end - index(local.len()), end }),
            };
            self.doc.locals[sym as usize] = local_sym;
        }
        sym
    }

    fn new_symbol(&mut self, name: &'a str, span: Span) -> Sym {
        let sym = index(self.doc.symbols.len());
        self.doc.symbols.push(span);
        self.doc.locals.push(sym);
        self.interned.insert(name, sym);
        sym
    }

    /// Parses a quoted attribute value into the text buffer.
    fn attribute_value(&mut self) -> Result<Span, XmlError> {
        let quote = match self.peek_char() {
            Some(q @ ('"' | '\'')) => q as u8,
            other => {
                self.pos += other.map_or(0, char::len_utf8);
                return Err(self.err("expected quoted attribute value"));
            }
        };
        self.pos += 1;
        let start = index(self.doc.text.len());
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(at) = rest.iter().position(|&b| b == quote || b == b'&' || b == b'<') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated attribute value"));
            };
            self.doc.text.push_str(&self.input[self.pos..self.pos + at]);
            self.pos += at + 1;
            match rest[at] {
                b'&' => self.entity()?,
                b'<' => return Err(self.err("`<` not allowed in attribute value")),
                _ => return Ok(Span { start, end: index(self.doc.text.len()) }),
            }
        }
    }

    /// Parses a text run up to the next `<` or the end of input.
    fn text(&mut self) -> Result<(), XmlError> {
        let start = index(self.doc.text.len());
        loop {
            let rest = &self.bytes[self.pos..];
            let at = rest.iter().position(|&b| b == b'<' || b == b'&').unwrap_or(rest.len());
            self.doc.text.push_str(&self.input[self.pos..self.pos + at]);
            self.pos += at;
            if !self.eat(b'&') {
                break;
            }
            self.entity()?;
        }
        let end = index(self.doc.text.len());
        self.push_node(Kind::Text, NO_NAME, Span { start, end });
        Ok(())
    }

    /// Decodes the entity reference after a `&` into the text buffer.
    fn entity(&mut self) -> Result<(), XmlError> {
        let start = self.pos;
        loop {
            let Some(c) = self.peek_char() else {
                return Err(self.err("unterminated entity reference"));
            };
            self.pos += c.len_utf8();
            match c {
                ';' => break,
                c if c.is_ascii_alphanumeric() || c == '#' => {}
                c => return Err(self.err(format!("invalid character `{c}` in entity reference"))),
            }
            if self.pos - start > 8 {
                return Err(self.err("entity reference too long"));
            }
        }
        let name = &self.input[start..self.pos - 1];
        let decoded = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            n => {
                let code = if let Some(hex) = n.strip_prefix("#x").or(n.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(decimal) = n.strip_prefix('#') {
                    decimal.parse::<u32>().ok()
                } else {
                    return Err(self.err(format!("unknown entity `&{n};`")));
                };
                code.and_then(char::from_u32)
                    .ok_or_else(|| self.err(format!("bad character reference `&{n};`")))?
            }
        };
        self.doc.text.push(decoded);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Node;

    #[test]
    fn minimal_document() {
        let d = parse("<a/>").unwrap();
        assert_eq!(d.root().name(), "a");
        assert!(!d.had_declaration());
    }

    #[test]
    fn declaration_detected() {
        let d = parse("<?xml version=\"1.0\"?><a/>").unwrap();
        assert!(d.had_declaration());
    }

    #[test]
    fn nested_elements_and_text() {
        let d = parse("<a><b>hi</b><c>there</c></a>").unwrap();
        assert_eq!(d.root().child("b").unwrap().own_text(), "hi");
        assert_eq!(d.root().child_elements().count(), 2);
    }

    #[test]
    fn attributes_both_quote_styles() {
        let d = parse("<a x=\"1\" y='2'/>").unwrap();
        assert_eq!(d.root().attribute("x"), Some("1"));
        assert_eq!(d.root().attribute("y"), Some("2"));
    }

    #[test]
    fn entities_decoded() {
        let d = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65; &#x42;</a>").unwrap();
        assert_eq!(d.root().own_text(), "<tag> & \"q\" 'a' A B");
    }

    #[test]
    fn cdata_kept_verbatim() {
        let d = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(d.root().own_text(), "<not> & parsed");
    }

    #[test]
    fn comments_preserved_as_nodes() {
        let d = parse("<a><!-- note -->x</a>").unwrap();
        let children: Vec<_> = d.root().children().collect();
        assert_eq!(children, [Node::Comment(" note "), Node::Text("x")]);
        assert_eq!(d.root().own_text(), "x");
    }

    /// Text split by CDATA, a processing instruction or a comment stays
    /// in separate runs, an empty CDATA section included.
    #[test]
    fn adjacent_text_runs_stay_separate() {
        let d = parse("<a>x<![CDATA[y]]><?pi?>z<![CDATA[]]></a>").unwrap();
        let children: Vec<_> = d.root().children().collect();
        assert_eq!(children, [Node::Text("x"), Node::Text("y"), Node::Text("z"), Node::Text("")]);
        assert_eq!(d.root().own_text(), "xyz");
    }

    #[test]
    fn doctype_and_pi_skipped() {
        let d = parse("<?xml version=\"1.0\"?><!DOCTYPE a [<!ENTITY x \"y\">]><a><?pi data?></a>")
            .unwrap();
        assert_eq!(d.root().name(), "a");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></b>").is_err());
    }

    #[test]
    fn multiple_roots_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn duplicate_attributes_rejected() {
        assert!(parse("<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(parse("<a x=\"<\"/>").is_err());
    }

    #[test]
    fn namespaced_names() {
        let d =
            parse("<rdf:RDF xmlns:rdf=\"http://w3.org/rdf\"><rdf:Description/></rdf:RDF>").unwrap();
        assert_eq!(d.root().name(), "rdf:RDF");
        assert_eq!(d.root().local_name(), "RDF");
        assert_eq!(d.root().child_elements().next().unwrap().local_name(), "Description");
    }

    #[test]
    fn whitespace_only_text_preserved() {
        let d = parse("<a> <b/> </a>").unwrap();
        // two whitespace text nodes around <b/>
        assert_eq!(d.root().children().count(), 3);
    }

    #[test]
    fn error_reports_position() {
        let error = |xml: &str| match parse(xml) {
            Err(XmlError::Parse { position, message }) => (position, message),
            other => panic!("{other:?}"),
        };
        let mismatch = "mismatched end tag: expected `</b>`, found `</c>`";
        assert_eq!(error("<a><b></c></a>"), (9, mismatch.to_string()));
        assert_eq!(error("<a x=é/>"), (7, "expected quoted attribute value".to_string()));
        assert_eq!(error("<a>&amp;&toolongname;</a>"), (18, "entity reference too long".into()));
        assert_eq!(error("<a>&#xD800;</a>"), (11, "bad character reference `&#xD800;`".into()));
    }

    /// Node ids and text offsets are `u32`: longer input is refused
    /// before an id could wrap.
    #[test]
    fn input_past_the_u32_range_is_refused() {
        assert_eq!(check_size(MAX_INPUT), Ok(()));
        assert_eq!(
            check_size(MAX_INPUT + 1),
            Err(XmlError::TooLarge { len: MAX_INPUT + 1, limit: MAX_INPUT })
        );
    }

    /// Hostile payload: `<a>` × 30 000 used to overflow the stack in
    /// the recursive parser and abort the process.
    #[test]
    fn element_nesting_is_capped() {
        let hostile = "<a>".repeat(30_000);
        match parse(&hostile) {
            Err(XmlError::NestingTooDeep { position, limit }) => {
                assert_eq!(limit, MAX_DEPTH);
                assert_eq!(position, 3 * MAX_DEPTH);
            }
            other => panic!("{other:?}"),
        }
    }

    /// A document exactly at the cap parses, and everything that walks
    /// it — `text`, `descendants`, XPath, the writer — fits a worker
    /// thread's stack.
    #[test]
    fn document_at_the_cap_is_safe_to_walk_and_drop() {
        let at_cap = format!("{}x{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(move || {
            let doc = parse(&at_cap).expect("nesting at the cap is accepted");
            assert_eq!(doc.root().text(), "x");
            assert_eq!(doc.root().descendants().count(), MAX_DEPTH - 1);
            let deepest = crate::xpath::XPath::new("//a[text()='x']").unwrap();
            assert_eq!(deepest.eval_strings(&doc), ["x"]);
            assert_eq!(crate::serialize_element(doc.root()), at_cap);
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
    }
}
