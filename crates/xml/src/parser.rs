//! XML parser: elements, attributes, text with entities, CDATA, comments,
//! processing instructions, and an optional declaration/doctype.

use crate::dom::{Document, Element, Node};
use crate::error::XmlError;

/// Parses an XML document.
///
/// # Errors
///
/// Returns [`XmlError::Parse`] on malformed input: mismatched tags,
/// unterminated constructs, bad entities, multiple roots, etc.
pub fn parse(input: &str) -> Result<Document, XmlError> {
    let mut p = Parser { chars: input.char_indices().collect(), pos: 0, len: input.len() };
    p.skip_ws();
    let had_declaration = p.try_declaration()?;
    p.skip_misc()?;
    let root = p.parse_element(1)?;
    p.skip_misc()?;
    if p.peek().is_some() {
        return Err(p.err("content after the root element"));
    }
    Ok(Document { root, had_declaration })
}

/// Deepest element nesting accepted. The parser recurses once per open
/// element, and so do the derived `Drop`, `Clone` and `PartialEq` of the
/// tree it returns; unbounded, `<a><a><a>…` from a source overflowed the
/// stack and aborted the process.
pub const MAX_DEPTH: usize = 250;

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    len: usize,
}

impl Parser {
    /// Byte offset of the next unread character.
    fn position(&self) -> usize {
        self.chars.get(self.pos).map_or(self.len, |&(b, _)| b)
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::Parse { position: self.position(), message: message.into() }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).map(|&(_, c)| c)
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

    fn eat_str(&mut self, s: &str) -> bool {
        let n = s.chars().count();
        if (0..n).all(|i| self.peek_at(i) == s.chars().nth(i)) {
            self.pos += n;
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

    fn try_declaration(&mut self) -> Result<bool, XmlError> {
        if !self.eat_str("<?xml") {
            return Ok(false);
        }
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated XML declaration")),
                Some('?') if self.eat('>') => return Ok(true),
                Some(_) => {}
            }
        }
    }

    /// Skips whitespace, comments, PIs, and a doctype between top-level
    /// constructs.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.eat_str("<!--") {
                self.skip_until("-->")?;
            } else if self.eat_str("<?") {
                self.skip_until("?>")?;
            } else if self.eat_str("<!DOCTYPE") {
                // Skip to matching '>' (no internal subset support beyond
                // balanced brackets).
                let mut depth = 0i32;
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated DOCTYPE")),
                        Some('[') => depth += 1,
                        Some(']') => depth -= 1,
                        Some('>') if depth <= 0 => break,
                        Some(_) => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        loop {
            if self.eat_str(end) {
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err(format!("unterminated construct, expected `{end}`")));
            }
        }
    }

    /// Parses the element at nesting level `depth` (the root is 1).
    /// The only recursive function of the parser; tags, comments and
    /// text are parsed in helpers so that its frame, paid once per level
    /// of nesting, stays small.
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth > MAX_DEPTH {
            return Err(XmlError::NestingTooDeep { position: self.position(), limit: MAX_DEPTH });
        }
        let (mut element, has_content) = self.parse_start_tag()?;
        if !has_content {
            return Ok(element);
        }
        loop {
            if self.eat_str("</") {
                self.parse_end_tag(&element.name)?;
                return Ok(element);
            }
            if self.eat_str("<!--") {
                element.children.push(Node::Comment(self.take_until("-->")?));
            } else if self.eat_str("<![CDATA[") {
                element.children.push(Node::Text(self.take_until("]]>")?));
            } else if self.eat_str("<?") {
                self.skip_until("?>")?;
            } else {
                match self.peek() {
                    None => return Err(self.err(format!("unclosed element `{}`", element.name))),
                    Some('<') => {
                        element.children.push(Node::Element(self.parse_element(depth + 1)?));
                    }
                    Some(_) => {
                        let text = self.parse_text()?;
                        if !text.is_empty() {
                            element.children.push(Node::Text(text));
                        }
                    }
                }
            }
        }
    }

    /// Parses `<name attr="v" …>` or `<name …/>`; the flag says whether
    /// content and an end tag follow.
    fn parse_start_tag(&mut self) -> Result<(Element, bool), XmlError> {
        if !self.eat('<') {
            return Err(self.err("expected `<`"));
        }
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.bump();
                    if !self.eat('>') {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    return Ok((element, false));
                }
                Some('>') => {
                    self.bump();
                    return Ok((element, true));
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    if !self.eat('=') {
                        return Err(self.err("expected `=` after attribute name"));
                    }
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if element.attributes.iter().any(|(n, _)| n == &attr_name) {
                        return Err(self.err(format!("duplicate attribute `{attr_name}`")));
                    }
                    element.attributes.push((attr_name, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    /// Parses the rest of an end tag after `</`, which must close `name`.
    fn parse_end_tag(&mut self, name: &str) -> Result<(), XmlError> {
        let close = self.parse_name()?;
        if close != name {
            return Err(
                self.err(format!("mismatched end tag: expected `</{name}>`, found `</{close}>`"))
            );
        }
        self.skip_ws();
        if !self.eat('>') {
            return Err(self.err("expected `>` in end tag"));
        }
        Ok(())
    }

    /// Skips past `end` and returns the text before it.
    fn take_until(&mut self, end: &str) -> Result<String, XmlError> {
        let start = self.pos;
        self.skip_until(end)?;
        let end_len = end.chars().count();
        Ok(self.chars[start..self.pos - end_len].iter().map(|&(_, c)| c).collect())
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let mut name = String::new();
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {}
            _ => return Err(self.err("expected a name")),
        }
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                name.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(name)
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => return Ok(out),
                Some('&') => out.push_str(&self.parse_entity()?),
                Some('<') => return Err(self.err("`<` not allowed in attribute value")),
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_text(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            match c {
                '<' => break,
                '&' => {
                    self.bump();
                    out.push_str(&self.parse_entity()?);
                }
                c => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        Ok(out)
    }

    fn parse_entity(&mut self) -> Result<String, XmlError> {
        let mut name = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated entity reference")),
                Some(';') => break,
                Some(c) if c.is_ascii_alphanumeric() || c == '#' || c == 'x' => name.push(c),
                Some(c) => {
                    return Err(self.err(format!("invalid character `{c}` in entity reference")))
                }
            }
            if name.len() > 8 {
                return Err(self.err("entity reference too long"));
            }
        }
        Ok(match name.as_str() {
            "lt" => "<".to_string(),
            "gt" => ">".to_string(),
            "amp" => "&".to_string(),
            "quot" => "\"".to_string(),
            "apos" => "'".to_string(),
            n if n.starts_with("#x") || n.starts_with("#X") => {
                let v = u32::from_str_radix(&n[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err(format!("bad character reference `&{n};`")))?;
                v.to_string()
            }
            n if n.starts_with('#') => {
                let v = n[1..]
                    .parse::<u32>()
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err(format!("bad character reference `&{n};`")))?;
                v.to_string()
            }
            n => return Err(self.err(format!("unknown entity `&{n};`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let d = parse("<a/>").unwrap();
        assert_eq!(d.root.name, "a");
        assert!(!d.had_declaration);
    }

    #[test]
    fn declaration_detected() {
        let d = parse("<?xml version=\"1.0\"?><a/>").unwrap();
        assert!(d.had_declaration);
    }

    #[test]
    fn nested_elements_and_text() {
        let d = parse("<a><b>hi</b><c>there</c></a>").unwrap();
        assert_eq!(d.root.child("b").unwrap().own_text(), "hi");
        assert_eq!(d.root.child_elements().count(), 2);
    }

    #[test]
    fn attributes_both_quote_styles() {
        let d = parse("<a x=\"1\" y='2'/>").unwrap();
        assert_eq!(d.root.attribute("x"), Some("1"));
        assert_eq!(d.root.attribute("y"), Some("2"));
    }

    #[test]
    fn entities_decoded() {
        let d = parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65; &#x42;</a>").unwrap();
        assert_eq!(d.root.own_text(), "<tag> & \"q\" 'a' A B");
    }

    #[test]
    fn cdata_kept_verbatim() {
        let d = parse("<a><![CDATA[<not> & parsed]]></a>").unwrap();
        assert_eq!(d.root.own_text(), "<not> & parsed");
    }

    #[test]
    fn comments_preserved_as_nodes() {
        let d = parse("<a><!-- note -->x</a>").unwrap();
        assert_eq!(d.root.children.len(), 2);
        assert_eq!(d.root.own_text(), "x");
    }

    #[test]
    fn doctype_and_pi_skipped() {
        let d = parse("<?xml version=\"1.0\"?><!DOCTYPE a [<!ENTITY x \"y\">]><a><?pi data?></a>")
            .unwrap();
        assert_eq!(d.root.name, "a");
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
        assert_eq!(d.root.name, "rdf:RDF");
        assert_eq!(d.root.local_name(), "RDF");
        assert_eq!(d.root.child_elements().next().unwrap().local_name(), "Description");
    }

    #[test]
    fn whitespace_only_text_preserved() {
        let d = parse("<a> <b/> </a>").unwrap();
        // two whitespace text nodes around <b/>
        assert_eq!(d.root.children.len(), 3);
    }

    #[test]
    fn error_reports_position() {
        match parse("<a><b></c></a>") {
            Err(XmlError::Parse { position, .. }) => assert!(position > 0),
            other => panic!("{other:?}"),
        }
    }

    /// Hostile payload: `<a>` × 30 000 used to overflow the stack in
    /// `parse_element` and abort the process.
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
    /// the tree — `text`, `descendants`, XPath, `Clone`, `==`, `Drop` —
    /// fits a worker thread's stack.
    #[test]
    fn document_at_the_cap_is_safe_to_walk_and_drop() {
        let at_cap = format!("{}x{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(move || {
            let doc = parse(&at_cap).expect("nesting at the cap is accepted");
            assert_eq!(doc.root.text(), "x");
            assert_eq!(doc.root.descendants().len(), MAX_DEPTH - 1);
            let deepest = crate::xpath::XPath::new("//a[text()='x']").unwrap();
            assert_eq!(deepest.eval_strings(&doc), ["x"]);
            assert_eq!(doc.clone(), doc);
        });
        worker.unwrap().join().expect("no stack overflow at the cap");
    }
}
