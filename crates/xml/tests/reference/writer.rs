//! XML serializer.

use super::dom::{Document, Element, Node};

/// Serializes a document with an XML declaration.
pub fn serialize(doc: &Document) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_element(&doc.root, &mut out, 0, true);
    out
}

/// Serializes a single element (no declaration, no indentation).
pub fn serialize_element(element: &Element) -> String {
    let mut out = String::new();
    write_element(element, &mut out, 0, false);
    out
}

fn write_element(e: &Element, out: &mut String, depth: usize, pretty: bool) {
    let pad = |out: &mut String, depth: usize| {
        if pretty {
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    };
    pad(out, depth);
    out.push('<');
    out.push_str(&e.name);
    for (n, v) in &e.attributes {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_into(v, out, true);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        if pretty {
            out.push('\n');
        }
        return;
    }
    out.push('>');
    // Mixed or text-only content is written inline; element-only content
    // is indented.
    let element_only =
        pretty && e.children.iter().all(|c| matches!(c, Node::Element(_) | Node::Comment(_)));
    if element_only {
        out.push('\n');
    }
    for c in &e.children {
        match c {
            Node::Element(child) => {
                if element_only {
                    write_element(child, out, depth + 1, pretty);
                } else {
                    write_element(child, out, 0, false);
                }
            }
            Node::Text(t) => escape_into(t, out, false),
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
    out.push_str(&e.name);
    out.push('>');
    if pretty {
        out.push('\n');
    }
}

fn escape_into(s: &str, out: &mut String, attr: bool) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}
