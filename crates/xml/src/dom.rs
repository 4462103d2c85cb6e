//! A lightweight owned DOM.

use std::borrow::Cow;
use std::fmt;

/// An XML document: an optional declaration plus the root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The root element.
    pub root: Element,
    /// Whether the document had an `<?xml …?>` declaration.
    pub had_declaration: bool,
}

impl Document {
    /// Wraps a root element as a document.
    pub fn new(root: Element) -> Self {
        Document { root, had_declaration: false }
    }
}

/// An element: name, attributes, ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name (prefix retained verbatim, e.g. `rdf:RDF`).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

/// A DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (entity-decoded).
    Text(String),
    /// A comment (without the `<!--` `-->` delimiters).
    Comment(String),
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// The value of an attribute, if present.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Child elements in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// First child element with the given name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All descendant elements (excluding self), depth-first document
    /// order.
    pub fn descendants(&self) -> Vec<&Element> {
        let mut out = Vec::new();
        self.walk_nodes(&mut Vec::new(), |node| {
            if let Node::Element(e) = node {
                out.push(e);
            }
        });
        out
    }

    /// Calls `visit` on every node below this element in depth-first
    /// document order. Iterative — tree depth costs heap in `stack`
    /// (left empty, so callers can reuse it), not call stack.
    pub(crate) fn walk_nodes<'e>(
        &'e self,
        stack: &mut Vec<std::slice::Iter<'e, Node>>,
        mut visit: impl FnMut(&'e Node),
    ) {
        stack.push(self.children.iter());
        while let Some(siblings) = stack.last_mut() {
            match siblings.next() {
                Some(node) => {
                    visit(node);
                    if let Node::Element(e) = node {
                        stack.push(e.children.iter());
                    }
                }
                None => {
                    stack.pop();
                }
            }
        }
    }

    /// The concatenated text content of this element and its descendants.
    pub fn text(&self) -> String {
        self.text_content().into_owned()
    }

    /// [`Element::text`], borrowed when the content is a single text
    /// node (the shape of a record field) and built only for mixed or
    /// nested content.
    pub fn text_content(&self) -> Cow<'_, str> {
        let mut scratch = String::new();
        match self.text_in(&mut scratch, &mut Vec::new()) {
            Some(text) => Cow::Borrowed(text),
            None => Cow::Owned(scratch),
        }
    }

    /// [`Element::text`] without a block of its own: the content
    /// itself when it is nothing or a single text node, otherwise
    /// `None` with the text composed in `scratch` (cleared first),
    /// walking with `stack` (see [`Element::walk_nodes`]).
    pub(crate) fn text_in<'e>(
        &'e self,
        scratch: &mut String,
        stack: &mut Vec<std::slice::Iter<'e, Node>>,
    ) -> Option<&'e str> {
        let mut content = self.children.iter().filter(|n| !matches!(n, Node::Comment(_)));
        match (content.next(), content.next()) {
            (None, _) => Some(""),
            (Some(Node::Text(t)), None) => Some(t),
            _ => {
                scratch.clear();
                self.walk_nodes(stack, |node| {
                    if let Node::Text(t) = node {
                        scratch.push_str(t);
                    }
                });
                None
            }
        }
    }

    /// Direct text children only, concatenated.
    pub fn own_text(&self) -> String {
        let mut scratch = String::new();
        match self.own_text_in(&mut scratch) {
            Some(text) => text.to_string(),
            None => scratch,
        }
    }

    /// [`Element::own_text`] without a block of its own, on the terms
    /// of [`Element::text_in`].
    pub(crate) fn own_text_in(&self, scratch: &mut String) -> Option<&str> {
        let mut texts = self.children.iter().filter_map(|n| match n {
            Node::Text(t) => Some(t.as_str()),
            _ => None,
        });
        match (texts.next(), texts.next()) {
            (None, _) => Some(""),
            (Some(only), None) => Some(only),
            (Some(first), Some(second)) => {
                scratch.clear();
                scratch.push_str(first);
                scratch.push_str(second);
                texts.for_each(|t| scratch.push_str(t));
                None
            }
        }
    }

    /// The local part of the (possibly prefixed) name.
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// Appends a child element and returns `self` for chaining.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends a text child and returns `self` for chaining.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Adds an attribute and returns `self` for chaining.
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::writer::serialize_element(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("catalog")
            .with_child(
                Element::new("watch")
                    .with_attribute("id", "81")
                    .with_child(Element::new("brand").with_text("Seiko"))
                    .with_child(Element::new("price").with_text("129.99")),
            )
            .with_child(
                Element::new("watch")
                    .with_attribute("id", "82")
                    .with_child(Element::new("brand").with_text("Casio")),
            )
    }

    #[test]
    fn attribute_lookup() {
        let e = sample();
        let w = e.child("watch").unwrap();
        assert_eq!(w.attribute("id"), Some("81"));
        assert_eq!(w.attribute("none"), None);
    }

    #[test]
    fn descendants_depth_first() {
        let e = sample();
        let names: Vec<_> = e.descendants().iter().map(|d| d.name.clone()).collect();
        assert_eq!(names, ["watch", "brand", "price", "watch", "brand"]);
    }

    #[test]
    fn text_aggregation() {
        let e = sample();
        assert_eq!(e.child("watch").unwrap().text(), "Seiko129.99");
        assert_eq!(e.child("watch").unwrap().child("brand").unwrap().own_text(), "Seiko");
    }

    #[test]
    fn local_name_strips_prefix() {
        let e = Element::new("rdf:RDF");
        assert_eq!(e.local_name(), "RDF");
        assert_eq!(Element::new("plain").local_name(), "plain");
    }

    #[test]
    fn comments_excluded_from_text() {
        let mut e = Element::new("x");
        e.children.push(Node::Comment("hidden".into()));
        e.children.push(Node::Text("shown".into()));
        assert_eq!(e.text(), "shown");
    }
}
