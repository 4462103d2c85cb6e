//! A read-only document held as one arena.
//!
//! Every node — element, text run or comment — is a `u32` index into
//! flat vectors, numbered in document order from the root element at 0:
//! its kind, its interned name, the end of its subtree and one range (an
//! element's attributes, a text run's or comment's text). The subtree
//! end is the whole tree: a node's descendants are the indices after it
//! and before its end, its first child is the next index, and a child's
//! next sibling is the child's own end, each while it stays below the
//! parent's end. Names are interned, one symbol per distinct name, so a
//! name test compares integers. All text — text runs, comments,
//! attribute values and the names — sits in one `String`. Readers hold
//! a `Copy` handle, [`Element`]. One fact about the records is derived
//! on first use and kept with the arena (`Document::regular`).

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// A range of bytes in the text buffer, or of entries in the attribute
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// An interned name: an index into the document's symbols.
pub(crate) type Sym = u32;

/// The name of a text run or comment; no symbol equals it.
pub(crate) const NO_NAME: Sym = Sym::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Element,
    Text,
    Comment,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Attribute {
    pub(crate) name: Sym,
    pub(crate) value: Span,
}

/// An XML document: its nodes in document order, the root element
/// first, and whether it had an `<?xml …?>` declaration. Built by
/// [`crate::parse`]; read through [`Document::root`].
#[derive(Clone)]
pub struct Document {
    pub(crate) kinds: Vec<Kind>,
    /// Per node: the element's name, [`NO_NAME`] for text and comments.
    pub(crate) names: Vec<Sym>,
    /// Per node: one past its last descendant.
    pub(crate) ends: Vec<u32>,
    /// Per node: an element's attributes, a text run's or comment's text.
    pub(crate) spans: Vec<Span>,
    pub(crate) attributes: Vec<Attribute>,
    /// Per symbol: its name in `text`.
    pub(crate) symbols: Vec<Span>,
    /// Per symbol: the symbol of its local part (itself when unprefixed).
    pub(crate) locals: Vec<Sym>,
    /// Per symbol: whether it is the local part of a prefixed name.
    pub(crate) prefixed: Vec<bool>,
    /// Every symbol, ordered by name, for lookups by name.
    pub(crate) sorted: Vec<Sym>,
    pub(crate) text: String,
    /// The longest text run or attribute value, in bytes: room for any
    /// one string a reader borrows from the document.
    pub(crate) widest: usize,
    pub(crate) had_declaration: bool,
    /// The pairs [`Document::regular`] holds for, as [`pair`] keys in
    /// order; derived on first use.
    pub(crate) regular: OnceLock<Vec<u64>>,
}

/// The key of an (element name, child name) pair.
fn pair(element: Sym, child: Sym) -> u64 {
    u64::from(element) << 32 | u64::from(child)
}

impl Document {
    /// The root element.
    pub fn root(&self) -> Element<'_> {
        Element { doc: self, id: 0 }
    }

    /// Whether the document had an `<?xml …?>` declaration.
    pub fn had_declaration(&self) -> bool {
        self.had_declaration
    }

    /// Number of nodes — elements, text runs and comments.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    pub(crate) fn str(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    pub(crate) fn name_of(&self, sym: Sym) -> &str {
        self.str(self.symbols[sym as usize])
    }

    /// The symbol of `name`, if any element or attribute of the document
    /// has it (or has it as its local part).
    pub(crate) fn symbol(&self, name: &str) -> Option<Sym> {
        let found = self.sorted.binary_search_by(|&s| self.name_of(s).cmp(name));
        found.ok().map(|i| self.sorted[i])
    }

    pub(crate) fn element(&self, id: u32) -> Element<'_> {
        Element { doc: self, id }
    }

    /// The children of node `id`, in document order.
    pub(crate) fn child_ids(&self, id: u32) -> ChildIds<'_> {
        ChildIds { ends: &self.ends, next: id + 1, end: self.ends[id as usize] }
    }

    /// The value of the attribute named `name` on element `id`.
    pub(crate) fn attribute_value(&self, id: u32, name: Sym) -> Option<&str> {
        let attributes = &self.attributes[self.spans[id as usize].range()];
        attributes.iter().find(|a| a.name == name).map(|a| self.str(a.value))
    }

    /// Whether every element named `element` has exactly one child
    /// element named `child`, and that child holds one non-empty text
    /// run and nothing else: then a record of that name has its field of
    /// that name once, as one text run. The pairs this holds for are
    /// derived from every node in one pass the first time it is asked,
    /// and kept with the document.
    pub(crate) fn regular(&self, element: Sym, child: Sym) -> bool {
        let pairs = self.regular.get_or_init(|| self.regular_pairs());
        pairs.binary_search(&pair(element, child)).is_ok()
    }

    fn regular_pairs(&self) -> Vec<u64> {
        // One entry per child element of each element: its pair, and
        // whether it is its parent's first child of that name and a leaf
        // of one non-empty text run.
        let mut entries: Vec<(u64, bool)> = Vec::new();
        // Per name: how many elements have it, and the last element that
        // had a child of it.
        let (mut elements, mut last) =
            (vec![0; self.symbols.len()], vec![u32::MAX; self.symbols.len()]);
        let is_element = |n: &u32| self.kinds[*n as usize] == Kind::Element;
        for e in (0..self.kinds.len() as u32).filter(is_element) {
            let name = self.names[e as usize];
            elements[name as usize] += 1;
            for c in self.child_ids(e).filter(is_element) {
                let child = self.names[c as usize];
                let first = std::mem::replace(&mut last[child as usize], e) != e;
                let run = (c + 1) as usize;
                let leaf = self.ends[c as usize] as usize == run + 1
                    && self.kinds[run] == Kind::Text
                    && self.spans[run].len() > 0;
                entries.push((pair(name, child), first && leaf));
            }
        }
        crate::xpath::count_reads(entries.len());
        entries.sort_unstable_by_key(|&(pair, _)| pair);
        // A pair holds when each element of its name has one good entry.
        let holds = |run: &&[(u64, bool)]| {
            run.len() == elements[(run[0].0 >> 32) as usize] && run.iter().all(|&(_, good)| good)
        };
        entries.chunk_by(|a, b| a.0 == b.0).filter(holds).map(|run| run[0].0).collect()
    }

    fn node(&self, id: u32) -> Node<'_> {
        let span = self.spans[id as usize];
        match self.kinds[id as usize] {
            Kind::Element => Node::Element(self.element(id)),
            Kind::Text => Node::Text(self.str(span)),
            Kind::Comment => Node::Comment(self.str(span)),
        }
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("root", &self.root().name())
            .field("nodes", &self.node_count())
            .field("had_declaration", &self.had_declaration)
            .finish()
    }
}

/// The children of a node: from the next index, each sibling at the
/// previous one's end, up to the parent's end.
pub(crate) struct ChildIds<'d> {
    ends: &'d [u32],
    next: u32,
    end: u32,
}

impl Iterator for ChildIds<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let child = self.next;
        if child >= self.end {
            return None;
        }
        self.next = self.ends[child as usize];
        Some(child)
    }
}

/// A child of an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node<'d> {
    /// A child element.
    Element(Element<'d>),
    /// A text run (entity-decoded).
    Text(&'d str),
    /// A comment (without the `<!--` `-->` delimiters).
    Comment(&'d str),
}

/// An element of a [`Document`]: a node index and the document it
/// indexes. Equal when it is the same node of the same document.
#[derive(Clone, Copy)]
pub struct Element<'d> {
    pub(crate) doc: &'d Document,
    pub(crate) id: u32,
}

impl<'d> Element<'d> {
    /// Position among all nodes of the document in document order (the
    /// root is 0) — the element's identity within its document.
    pub fn index(self) -> usize {
        self.id as usize
    }

    /// Tag name (prefix retained verbatim, e.g. `rdf:RDF`).
    pub fn name(self) -> &'d str {
        self.doc.name_of(self.doc.names[self.id as usize])
    }

    /// The local part of the (possibly prefixed) name.
    pub fn local_name(self) -> &'d str {
        self.doc.name_of(self.doc.locals[self.doc.names[self.id as usize] as usize])
    }

    /// The value of an attribute, if present.
    pub fn attribute(self, name: &str) -> Option<&'d str> {
        self.attributes().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// Attributes as `(name, value)` in document order.
    pub fn attributes(self) -> impl Iterator<Item = (&'d str, &'d str)> {
        let doc = self.doc;
        let attributes = &doc.attributes[doc.spans[self.id as usize].range()];
        attributes.iter().map(move |a| (doc.name_of(a.name), doc.str(a.value)))
    }

    /// Child nodes in document order.
    pub fn children(self) -> impl Iterator<Item = Node<'d>> {
        let doc = self.doc;
        doc.child_ids(self.id).map(move |c| doc.node(c))
    }

    /// Child elements in document order.
    pub fn child_elements(self) -> impl Iterator<Item = Element<'d>> {
        let doc = self.doc;
        doc.child_ids(self.id)
            .filter(move |&c| doc.kinds[c as usize] == Kind::Element)
            .map(move |c| doc.element(c))
    }

    /// First child element with the given name.
    pub fn child(self, name: &str) -> Option<Element<'d>> {
        self.child_elements().find(|e| e.name() == name)
    }

    /// All descendant elements (excluding self) in document order.
    pub fn descendants(self) -> impl Iterator<Item = Element<'d>> {
        let doc = self.doc;
        self.descendant_ids()
            .filter(move |&n| doc.kinds[n as usize] == Kind::Element)
            .map(move |n| doc.element(n))
    }

    fn descendant_ids(self) -> Range<u32> {
        self.id + 1..self.doc.ends[self.id as usize]
    }

    /// The concatenated text content of this element and its descendants.
    pub fn text(self) -> String {
        self.text_content().into_owned()
    }

    /// [`Element::text`], borrowed when the content holds one text run
    /// and built only for more.
    pub fn text_content(self) -> Cow<'d, str> {
        let mut scratch = String::new();
        match self.text_in(&mut scratch) {
            Some(text) => Cow::Borrowed(text),
            None => Cow::Owned(scratch),
        }
    }

    /// [`Element::text`] without a block of its own: the text itself
    /// when there is at most one run, otherwise `None` with the text
    /// composed in `scratch` (cleared first).
    pub(crate) fn text_in(self, scratch: &mut String) -> Option<&'d str> {
        let doc = self.doc;
        let runs = self.descendant_ids().filter(|&n| doc.kinds[n as usize] == Kind::Text);
        compose(doc, runs, scratch)
    }

    /// Direct text children only, concatenated.
    pub fn own_text(self) -> String {
        let mut scratch = String::new();
        match self.own_text_in(&mut scratch) {
            Some(text) => text.to_string(),
            None => scratch,
        }
    }

    /// [`Element::own_text`] without a block of its own, on the terms
    /// of [`Element::text_in`].
    pub(crate) fn own_text_in(self, scratch: &mut String) -> Option<&'d str> {
        let doc = self.doc;
        // A leaf holding one text run, the usual field, is that run.
        let first = self.id + 1;
        if doc.ends[self.id as usize] == first + 1 && doc.kinds[first as usize] == Kind::Text {
            return Some(doc.str(doc.spans[first as usize]));
        }
        let runs = doc.child_ids(self.id).filter(|&c| doc.kinds[c as usize] == Kind::Text);
        compose(doc, runs, scratch)
    }
}

/// The text of `runs`: borrowed for none or one, composed in `scratch`
/// for more.
fn compose<'d>(
    doc: &'d Document,
    mut runs: impl Iterator<Item = u32>,
    scratch: &mut String,
) -> Option<&'d str> {
    let text = |n: u32| doc.str(doc.spans[n as usize]);
    match (runs.next(), runs.next()) {
        (None, _) => Some(""),
        (Some(only), None) => Some(text(only)),
        (Some(first), Some(second)) => {
            scratch.clear();
            scratch.push_str(text(first));
            scratch.push_str(text(second));
            runs.for_each(|n| scratch.push_str(text(n)));
            None
        }
    }
}

impl PartialEq for Element<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.doc, other.doc) && self.id == other.id
    }
}

impl Eq for Element<'_> {}

impl fmt::Debug for Element<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Element").field("name", &self.name()).field("index", &self.id).finish()
    }
}

impl fmt::Display for Element<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::writer::serialize_element(*self))
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    const SAMPLE: &str = r#"<catalog><watch id="81"><brand>Seiko</brand><price>129.99</price></watch><watch id="82"><brand>Casio</brand></watch></catalog>"#;

    #[test]
    fn attribute_lookup() {
        let doc = parse(SAMPLE).unwrap();
        let w = doc.root().child("watch").unwrap();
        assert_eq!(w.attribute("id"), Some("81"));
        assert_eq!(w.attribute("none"), None);
        assert_eq!(w.attributes().collect::<Vec<_>>(), [("id", "81")]);
    }

    #[test]
    fn descendants_depth_first() {
        let doc = parse(SAMPLE).unwrap();
        let names: Vec<_> = doc.root().descendants().map(|d| d.name()).collect();
        assert_eq!(names, ["watch", "brand", "price", "watch", "brand"]);
    }

    #[test]
    fn text_aggregation() {
        let doc = parse(SAMPLE).unwrap();
        let watch = doc.root().child("watch").unwrap();
        assert_eq!(watch.text(), "Seiko129.99");
        assert_eq!(watch.child("brand").unwrap().own_text(), "Seiko");
    }

    #[test]
    fn local_name_strips_prefix() {
        let doc = parse("<rdf:RDF><plain/><a:b:c/></rdf:RDF>").unwrap();
        assert_eq!(doc.root().local_name(), "RDF");
        let locals: Vec<_> = doc.root().child_elements().map(|e| e.local_name()).collect();
        assert_eq!(locals, ["plain", "c"]);
    }

    #[test]
    fn comments_excluded_from_text() {
        let doc = parse("<x><!--hidden-->shown</x>").unwrap();
        assert_eq!(doc.root().text(), "shown");
    }

    #[test]
    fn handles_are_equal_only_for_the_same_node_of_the_same_document() {
        let (one, two) = (parse(SAMPLE).unwrap(), parse(SAMPLE).unwrap());
        assert_eq!(one.root(), one.root());
        assert_ne!(one.root(), two.root());
        let indices: Vec<_> = one.root().descendants().map(|e| e.index()).collect();
        assert_eq!(indices, [1, 2, 4, 6, 7]);
    }
}
