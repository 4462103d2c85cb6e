//! XML serializer, and the escaping it writes text and attribute values
//! with.

use crate::dom::{Document, Element, Node};

/// The declaration [`serialize`] opens a document with.
pub const DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";

/// Serializes a document with an XML declaration.
pub fn serialize(doc: &Document) -> String {
    let mut out = String::from(DECLARATION);
    write_element(doc.root(), &mut out, 0, true);
    out
}

/// Serializes a single element (no declaration, no indentation).
pub fn serialize_element(element: Element<'_>) -> String {
    let mut out = String::new();
    write_element(element, &mut out, 0, false);
    out
}

/// Recurses once per level of nesting, which the parser caps at
/// [`crate::parser::MAX_DEPTH`].
fn write_element(e: Element<'_>, out: &mut String, depth: usize, pretty: bool) {
    let pad = |out: &mut String, depth: usize| {
        if pretty {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    };
    pad(out, depth);
    out.push('<');
    out.push_str(e.name());
    for (n, v) in e.attributes() {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_attribute(v, out);
        out.push('"');
    }
    if e.children().next().is_none() {
        out.push_str("/>");
        if pretty {
            out.push('\n');
        }
        return;
    }
    out.push('>');
    // Mixed or text-only content is written inline; element-only content
    // is indented.
    let element_only = pretty && e.children().all(|c| !matches!(c, Node::Text(_)));
    if element_only {
        out.push('\n');
    }
    for c in e.children() {
        match c {
            Node::Element(child) => {
                if element_only {
                    write_element(child, out, depth + 1, pretty);
                } else {
                    write_element(child, out, 0, false);
                }
            }
            Node::Text(t) => escape_text(t, out),
            Node::Comment(t) => {
                if element_only {
                    pad(out, depth + 1);
                }
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
                if element_only {
                    out.push('\n');
                }
            }
        }
    }
    if element_only {
        pad(out, depth);
    }
    out.push_str("</");
    out.push_str(e.name());
    out.push('>');
    if pretty {
        out.push('\n');
    }
}

/// Appends `s` as element content: `&`, `<` and `>` escaped.
pub fn escape_text(s: &str, out: &mut String) {
    escape_into(s, out, false);
}

/// Appends `s` as a double-quoted attribute value: `&`, `<`, `>` and
/// `"` escaped.
pub fn escape_attribute(s: &str, out: &mut String) {
    escape_into(s, out, true);
}

fn escape_into(s: &str, out: &mut String, attr: bool) {
    let special = |b: u8| matches!(b, b'&' | b'<' | b'>') || (attr && b == b'"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(special) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_simple() {
        let src = "<catalog><watch id=\"81\"><brand>Seiko</brand></watch></catalog>";
        let text = serialize(&parse(src).unwrap());
        assert_eq!(
            text,
            format!(
                "{DECLARATION}<catalog>\n  <watch id=\"81\">\n    <brand>Seiko</brand>\n  \
                 </watch>\n</catalog>\n"
            )
        );
    }

    #[test]
    fn roundtrip_with_escapes() {
        let src = "<a x=\"a&amp;b &quot;c&quot;\">1 &lt; 2 &amp; 3 &gt; 2 \"q\"</a>";
        let doc = parse(src).unwrap();
        assert_eq!(serialize_element(doc.root()), src);
        assert_eq!(doc.root().attribute("x"), Some("a&b \"c\""));
        assert_eq!(doc.root().text(), "1 < 2 & 3 > 2 \"q\"");
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(serialize_element(parse("<a></a>").unwrap().root()), "<a/>");
    }

    #[test]
    fn text_content_inline() {
        let doc = parse("<a><b>x</b></a>").unwrap();
        let s = serialize(&doc);
        assert!(s.contains("<b>x</b>"), "{s}");
    }

    #[test]
    fn comments_indent_with_elements() {
        let doc = parse("<a><!--c--><b/></a>").unwrap();
        assert_eq!(serialize(&doc), format!("{DECLARATION}<a>\n  <!--c-->\n  <b/>\n</a>\n"));
    }
}
