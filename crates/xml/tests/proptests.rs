//! Property tests: DOM serialization round-trips, XPath agrees with
//! naive tree walks over random documents, and the step evaluator agrees
//! with the one it replaced (`tests/reference`) on generated documents
//! and paths.

mod reference;

use proptest::prelude::*;
use proptest::TestRng;
use s2s_xml::xpath::XPath;
use s2s_xml::{parse, serialize_element, Document, Element, Node};

/// A random element tree, depth <= 3, tag names from a small alphabet so
/// XPath queries have hits.
fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = ("[abc]", "[ -~]{0,8}").prop_map(|(name, text)| {
        let mut e = Element::new(name);
        if !text.is_empty() {
            e.children.push(Node::Text(text));
        }
        e
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            "[abc]",
            proptest::collection::vec(("[a-z]{1,3}", "[ -~&&[^<\"]]{0,6}"), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut e = Element::new(name);
                for (i, (n, v)) in attrs.into_iter().enumerate() {
                    // De-duplicate attribute names.
                    e.attributes.push((format!("{n}{i}"), v));
                }
                for c in children {
                    e.children.push(Node::Element(c));
                }
                e
            })
    })
}

/// Strips whitespace-only text nodes added by pretty-printing.
fn strip_ws(e: &mut Element) {
    e.children.retain(|c| match c {
        Node::Text(t) => !t.trim().is_empty(),
        _ => true,
    });
    for c in &mut e.children {
        if let Node::Element(el) = c {
            strip_ws(el);
        }
    }
}

/// Also strip from the reference when comparing round-trips (the
/// original may itself contain whitespace-only text nodes).
fn normalized(mut e: Element) -> Element {
    strip_ws(&mut e);
    e
}

fn count_named(e: &Element, name: &str) -> usize {
    e.descendants().iter().filter(|d| d.name == name).count()
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

const NAMES: [&str; 4] = ["a", "b", "a", "x:a"];
const VALUES: [&str; 6] = ["1", "2", "10", "x", "xy", ""];

/// A random element: few names and values so steps and predicates hit,
/// with attributes, comments, nested same-name elements and mixed
/// content (text split around children).
fn element(rng: &mut TestRng, depth: usize) -> Element {
    let mut e = Element::new(pick(rng, &NAMES));
    for name in ["id", "k"] {
        if rng.below(3) == 0 {
            e.attributes.push((name.to_string(), pick(rng, &VALUES).to_string()));
        }
    }
    for _ in 0..rng.below(if depth == 0 { 3 } else { 7 }) {
        e.children.push(match rng.below(if depth == 0 { 4 } else { 10 }) {
            0..=2 => Node::Text(pick(rng, &VALUES).to_string()),
            3 => Node::Comment("note".to_string()),
            _ => Node::Element(element(rng, depth - 1)),
        });
    }
    e
}

fn xpath_predicate(rng: &mut TestRng) -> String {
    let (name, value) = (pick(rng, &NAMES), pick(rng, &VALUES));
    let q = pick(rng, &["'", "\""]);
    match rng.below(8) {
        0 | 1 => format!("[{}]", 1 + rng.below(3)),
        2 => format!("[@{}={q}{value}{q}]", pick(rng, &["id", "k"])),
        3 => format!("[{name}={q}{value}{q}]"),
        4 => format!("[{name} {} {q}{value}{q}]", pick(rng, &["!=", "<", "<=", ">", ">="])),
        5 => format!("[text()={q}{value}{q}]"),
        6 => format!("[contains(., {q}{value}{q})]"),
        _ => format!("[contains(@{}, {q}{value}{q})]", pick(rng, &["id", "k"])),
    }
}

/// A random path over [`NAMES`]: absolute or relative, child and `//`
/// steps, wildcards, up to two predicates of any kind per step, and an
/// element, `@attr` or `text()` ending.
fn xpath(rng: &mut TestRng, root: &str) -> String {
    let mut path = String::new();
    for i in 0..1 + rng.below(3) {
        let axis = if rng.below(3) == 0 { "//" } else { "/" };
        if i > 0 || rng.below(4) > 0 {
            path.push_str(axis);
        }
        // Absolute child paths go nowhere unless they open at the root.
        path.push_str(match rng.below(6) {
            0 => "*",
            1..=3 if i == 0 => root,
            _ => pick(rng, &NAMES),
        });
        for _ in 0..[0, 0, 1, 2][rng.below(4)] {
            path.push_str(&xpath_predicate(rng));
        }
    }
    path.push_str(match rng.below(4) {
        0 => "/text()",
        1 => pick(rng, &["/@id", "/@k", "//@id"]),
        _ => "",
    });
    path
}

fn addresses(elements: Vec<&Element>) -> Vec<*const Element> {
    elements.into_iter().map(std::ptr::from_ref).collect()
}

proptest! {
    /// The step evaluator returns what the evaluator it replaced
    /// (`tests/reference`) returns — the same elements (by address) and
    /// the same strings, in the same order, collected into a list or
    /// handed to a sink that packs them into one buffer — from the
    /// document root and from an inner context element.
    #[test]
    fn xpath_agrees_with_reference_evaluator(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let doc = Document::new(element(&mut rng, 3));
        let inner = doc.root.descendants();
        for _ in 0..8 {
            let path = xpath(&mut rng, &doc.root.name);
            let (new, old) = match (XPath::new(&path), reference::XPath::new(&path)) {
                (Ok(new), Ok(old)) => (new, old),
                (new, old) => {
                    prop_assert!(false, "generated path does not compile: {path}: {new:?} {old:?}");
                    unreachable!()
                }
            };
            let context = match inner.len() {
                0 => &doc.root,
                n => inner[rng.below(n)],
            };
            for from in [&doc.root, context] {
                let want = old.eval_strings_from(from);
                prop_assert_eq!(
                    &new.eval_strings_from(from),
                    &want,
                    "{} from <{}> of {}", path, from.name, doc.root
                );
                // The sink form, packed the way the engine packs it: all
                // text in one buffer, cut where each string ends.
                let (mut text, mut ends) = (String::new(), Vec::new());
                new.each_string_from(from, |s| {
                    text.push_str(s);
                    ends.push(text.len());
                });
                let starts = std::iter::once(0).chain(ends.iter().copied());
                let cut: Vec<&str> =
                    starts.zip(&ends).map(|(start, &end)| &text[start..end]).collect();
                prop_assert_eq!(cut, want, "sunk {} from <{}> of {}", path, from.name, doc.root);
                prop_assert_eq!(
                    addresses(new.eval_from(from)),
                    addresses(old.eval_from(from)),
                    "{} from <{}> of {}", path, from.name, doc.root
                );
            }
        }
    }

    /// serialize → parse is the identity on normalized trees.
    #[test]
    fn roundtrip(root in arb_element()) {
        let text = serialize_element(&root);
        let doc = parse(&text).unwrap();
        prop_assert_eq!(normalized(doc.root), normalized(root));
    }

    /// Full-document serialization round-trips too.
    #[test]
    fn document_roundtrip(root in arb_element()) {
        let doc = Document::new(root);
        let text = s2s_xml::serialize(&doc);
        let doc2 = parse(&text).unwrap();
        prop_assert_eq!(normalized(doc2.root), normalized(doc.root));
    }

    /// `//name` matches exactly the descendants with that name.
    #[test]
    fn descendant_axis_counts(root in arb_element()) {
        let doc = Document::new(root);
        for name in ["a", "b", "c"] {
            let xpath = XPath::new(&format!("//{name}")).unwrap();
            let got = xpath.eval(&doc).len();
            let mut expect = count_named(&doc.root, name);
            if doc.root.name == name {
                expect += 1; // descendant-or-self includes the root
            }
            prop_assert_eq!(got, expect, "name={}", name);
        }
    }

    /// `/root/*` returns exactly the root's child elements.
    #[test]
    fn child_wildcard(root in arb_element()) {
        let path = format!("/{}/*", root.name);
        let doc = Document::new(root);
        let got = XPath::new(&path).unwrap().eval(&doc).len();
        prop_assert_eq!(got, doc.root.child_elements().count());
    }

    /// Positional predicates partition: [1], [2], … together cover all
    /// matches of the unpredicated step.
    #[test]
    fn positional_partition(root in arb_element()) {
        let doc = Document::new(root);
        let all = XPath::new("//a").unwrap().eval(&doc);
        // NB: `//a[n]` under our semantics indexes per context; the root
        // context `//a` is one candidate list, so positions are global.
        let mut recovered = 0;
        for i in 1..=all.len() {
            recovered += XPath::new(&format!("//a[{i}]")).unwrap().eval(&doc).len();
        }
        prop_assert_eq!(recovered, all.len());
    }

    /// text() never exceeds the element's aggregated text.
    #[test]
    fn text_step_is_own_text(root in arb_element()) {
        let doc = Document::new(root);
        let own: Vec<String> = XPath::new("//a/text()").unwrap().eval_strings(&doc);
        for t in &own {
            prop_assert!(!t.is_empty());
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total(s in any::<String>()) {
        let _ = parse(&s);
    }

    /// Attribute values with XML-special characters survive.
    #[test]
    fn attribute_escaping(v in "[ -~&&[^<]]{0,12}") {
        let e = Element::new("a").with_attribute("x", v.clone());
        let text = serialize_element(&e);
        let doc = parse(&text).unwrap();
        prop_assert_eq!(doc.root.attribute("x"), Some(v.as_str()));
    }

    /// Text content with XML-special characters survives.
    #[test]
    fn text_escaping(v in "[ -~&&[^<]]{0,12}") {
        let e = Element::new("a").with_text(v.clone());
        let text = serialize_element(&e);
        let doc = parse(&text).unwrap();
        prop_assert_eq!(doc.root.own_text(), v);
    }
}
