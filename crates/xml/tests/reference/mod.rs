//! Tests-only reference evaluator: `s2s_xml::xpath` as it stood before
//! the in-place step evaluation, kept verbatim (a candidate `Vec` per
//! context node, a filtered `Vec` per predicate, `text()` strings built
//! to be compared) together with the recursive `Element::text` and
//! `Element::descendants` it called, so the differential test in
//! `proptests.rs` can hold the new evaluator to the same elements and
//! strings in the same order. The compiler is the same code as the
//! library's; only evaluation differs. Not part of the library.

use s2s_textmatch::ConstraintOp;
use s2s_xml::{Element, Node, XmlError};

/// A compiled XPath expression (the reference copy).
#[derive(Debug, Clone, PartialEq)]
pub struct XPath {
    source: String,
    steps: Vec<Step>,
    /// Absolute paths (`/a/b`, `//a`) anchor the first step at the
    /// document root element; relative paths select among the context
    /// node's children.
    absolute: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// Element step along the child axis.
    Child { name: NameTest, predicates: Vec<Predicate> },
    /// Element step along the descendant-or-self axis (`//name`).
    Descendant { name: NameTest, predicates: Vec<Predicate> },
    /// Terminal attribute step.
    Attribute(String),
    /// Terminal `text()` step.
    Text,
}

#[derive(Debug, Clone, PartialEq)]
enum NameTest {
    Any,
    Named(String),
}

impl NameTest {
    fn matches(&self, e: &Element) -> bool {
        match self {
            NameTest::Any => true,
            NameTest::Named(n) => &e.name == n || e.local_name() == n,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Predicate {
    Position(usize),
    AttrEq {
        name: String,
        value: String,
    },
    ChildEq {
        name: String,
        value: String,
    },
    /// `[child op 'v']` — keeps elements having a `child` whose text
    /// satisfies the constraint (numeric comparison when both sides
    /// parse as numbers, lexicographic otherwise).
    ChildCmp {
        name: String,
        op: ConstraintOp,
        value: String,
    },
    TextEq(String),
    ContainsText(String),
    ContainsAttr {
        name: String,
        value: String,
    },
}

impl XPath {
    /// Compiles an XPath expression.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError::BadXPath`] on syntax errors or on steps after
    /// a terminal `@attr`/`text()` step.
    pub fn new(path: &str) -> Result<Self, XmlError> {
        let bad = |m: &str| XmlError::BadXPath { path: path.to_string(), message: m.to_string() };
        let src = path.trim();
        if src.is_empty() {
            return Err(bad("empty path"));
        }
        let mut steps = Vec::new();
        let mut rest = src;
        let mut first = true;
        let absolute = src.starts_with('/');
        loop {
            let descendant = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                true
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                if first {
                    // leading single slash: child axis from root
                }
                false
            } else if first {
                // relative path: child axis
                false
            } else {
                return Err(bad("expected `/`"));
            };
            first = false;
            if rest.is_empty() {
                return Err(bad("trailing slash"));
            }
            // Terminal steps.
            if let Some(r) = rest.strip_prefix('@') {
                let (name, r) = take_name(r);
                if name.is_empty() {
                    return Err(bad("expected attribute name after `@`"));
                }
                if !r.is_empty() {
                    return Err(bad("`@attr` must be the final step"));
                }
                steps.push(Step::Attribute(name.to_string()));
                return Ok(XPath { source: src.to_string(), steps, absolute });
            }
            if let Some(r) = rest.strip_prefix("text()") {
                if !r.is_empty() {
                    return Err(bad("`text()` must be the final step"));
                }
                steps.push(Step::Text);
                return Ok(XPath { source: src.to_string(), steps, absolute });
            }
            // Name test.
            let (name, mut r) = take_name(rest);
            let test = if name.is_empty() {
                if let Some(rr) = r.strip_prefix('*') {
                    r = rr;
                    NameTest::Any
                } else {
                    return Err(bad("expected a step name, `*`, `@attr`, or `text()`"));
                }
            } else {
                NameTest::Named(name.to_string())
            };
            // Predicates.
            let mut predicates = Vec::new();
            while let Some(rr) = r.strip_prefix('[') {
                let end = rr.find(']').ok_or_else(|| bad("unterminated predicate"))?;
                let body = &rr[..end];
                predicates.push(parse_predicate(body, path)?);
                r = &rr[end + 1..];
            }
            if descendant {
                steps.push(Step::Descendant { name: test, predicates });
            } else {
                steps.push(Step::Child { name: test, predicates });
            }
            if r.is_empty() {
                return Ok(XPath { source: src.to_string(), steps, absolute });
            }
            rest = r;
        }
    }

    /// Evaluates with `root` as the context root element.
    pub fn eval_from<'d>(&self, root: &'d Element) -> Vec<&'d Element> {
        let (elements, _) = self.run(root);
        elements
    }

    /// Evaluates and renders results as strings: attribute values for
    /// `@attr`, own text for `text()`, full text content for element
    /// results.
    pub fn eval_strings_from(&self, root: &Element) -> Vec<String> {
        let (elements, strings) = self.run(root);
        match strings {
            Some(s) => s,
            None => elements.into_iter().map(text).collect(),
        }
    }

    /// Runs the steps; returns surviving elements and, if the final step
    /// was terminal, the string results.
    fn run<'d>(&self, root: &'d Element) -> (Vec<&'d Element>, Option<Vec<String>>) {
        // Absolute paths start at a virtual node whose only child is the
        // root (so the first step names the root element); relative paths
        // start at the context node itself.
        let mut current: Vec<&'d Element> = Vec::new();
        let mut virtual_root = true;
        if !self.absolute {
            current.push(root);
            virtual_root = false;
        }

        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::Child { name, predicates } => {
                    let mut next: Vec<&'d Element> = Vec::new();
                    if virtual_root {
                        let candidates = vec![root];
                        select(&candidates, name, predicates, &mut next);
                        virtual_root = false;
                    } else {
                        for ctx in &current {
                            let candidates: Vec<&Element> = ctx.child_elements().collect();
                            select(&candidates, name, predicates, &mut next);
                        }
                    }
                    current = next;
                }
                Step::Descendant { name, predicates } => {
                    let mut next: Vec<&'d Element> = Vec::new();
                    if virtual_root {
                        let mut candidates = vec![root];
                        candidates.extend(descendants(root));
                        select(&candidates, name, predicates, &mut next);
                        virtual_root = false;
                    } else {
                        for ctx in &current {
                            let candidates = descendants(ctx);
                            select(&candidates, name, predicates, &mut next);
                        }
                    }
                    current = next;
                }
                Step::Attribute(name) => {
                    debug_assert_eq!(i, self.steps.len() - 1);
                    let base: Vec<&Element> = if virtual_root { vec![root] } else { current };
                    let strings = base
                        .into_iter()
                        .filter_map(|e| e.attribute(name).map(str::to_string))
                        .collect();
                    return (Vec::new(), Some(strings));
                }
                Step::Text => {
                    debug_assert_eq!(i, self.steps.len() - 1);
                    let base: Vec<&Element> = if virtual_root { vec![root] } else { current };
                    let strings =
                        base.into_iter().map(|e| e.own_text()).filter(|t| !t.is_empty()).collect();
                    return (Vec::new(), Some(strings));
                }
            }
        }
        (current, None)
    }
}

/// Applies a name test and predicates to candidates; positional
/// predicates index into the name-filtered candidate list per context
/// (standard XPath `[n]` semantics for the common case).
fn select<'d>(
    candidates: &[&'d Element],
    name: &NameTest,
    predicates: &[Predicate],
    out: &mut Vec<&'d Element>,
) {
    let mut matched: Vec<&'d Element> =
        candidates.iter().copied().filter(|e| name.matches(e)).collect();
    for p in predicates {
        matched = apply_predicate(&matched, p);
    }
    out.extend(matched);
}

fn apply_predicate<'d>(elements: &[&'d Element], p: &Predicate) -> Vec<&'d Element> {
    match p {
        Predicate::Position(n) => {
            elements.get(n.wrapping_sub(1)).map(|e| vec![*e]).unwrap_or_default()
        }
        Predicate::AttrEq { name, value } => {
            elements.iter().copied().filter(|e| e.attribute(name) == Some(value.as_str())).collect()
        }
        Predicate::ChildEq { name, value } => elements
            .iter()
            .copied()
            .filter(|e| e.child_elements().any(|c| c.name == *name && text(c) == *value))
            .collect(),
        Predicate::ChildCmp { name, op, value } => elements
            .iter()
            .copied()
            .filter(|e| e.child_elements().any(|c| c.name == *name && op.holds(&text(c), value)))
            .collect(),
        Predicate::TextEq(value) => {
            elements.iter().copied().filter(|e| e.own_text() == *value).collect()
        }
        Predicate::ContainsText(value) => {
            elements.iter().copied().filter(|e| text(e).contains(value.as_str())).collect()
        }
        Predicate::ContainsAttr { name, value } => elements
            .iter()
            .copied()
            .filter(|e| e.attribute(name).is_some_and(|v| v.contains(value.as_str())))
            .collect(),
    }
}

fn take_name(s: &str) -> (&str, &str) {
    let end = s
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    // A name must not start with a digit or punctuation-only chars.
    let name = &s[..end];
    if name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
        (name, &s[end..])
    } else {
        ("", s)
    }
}

fn parse_predicate(body: &str, path: &str) -> Result<Predicate, XmlError> {
    let bad = |m: String| XmlError::BadXPath { path: path.to_string(), message: m };
    let body = body.trim();
    if let Ok(n) = body.parse::<usize>() {
        if n == 0 {
            return Err(bad("positional predicates are 1-based".into()));
        }
        return Ok(Predicate::Position(n));
    }
    if let Some(rest) = body.strip_prefix("contains(") {
        let rest = rest.strip_suffix(')').ok_or_else(|| bad("expected `)` in contains".into()))?;
        let (target, value) =
            rest.split_once(',').ok_or_else(|| bad("contains needs two arguments".into()))?;
        let value = parse_quoted(value.trim()).ok_or_else(|| bad("bad string literal".into()))?;
        let target = target.trim();
        if target == "." {
            return Ok(Predicate::ContainsText(value));
        }
        if let Some(attr) = target.strip_prefix('@') {
            return Ok(Predicate::ContainsAttr { name: attr.to_string(), value });
        }
        return Err(bad(format!("unsupported contains() target `{target}`")));
    }
    if let Some(p) = parse_cmp_predicate(body) {
        return Ok(p);
    }
    if let Some((lhs, rhs)) = body.split_once('=') {
        let value = parse_quoted(rhs.trim()).ok_or_else(|| bad("expected quoted string".into()))?;
        let lhs = lhs.trim();
        if let Some(attr) = lhs.strip_prefix('@') {
            return Ok(Predicate::AttrEq { name: attr.to_string(), value });
        }
        if lhs == "text()" {
            return Ok(Predicate::TextEq(value));
        }
        if !lhs.is_empty() && lhs.chars().all(|c| c.is_alphanumeric() || "_-.:".contains(c)) {
            return Ok(Predicate::ChildEq { name: lhs.to_string(), value });
        }
        return Err(bad(format!("unsupported predicate lhs `{lhs}`")));
    }
    Err(bad(format!("unsupported predicate `{body}`")))
}

/// Tries `child op 'value'` with a non-equality operator. Returns
/// `None` (rather than an error) when the body doesn't have that
/// shape, so other predicate forms still get their chance.
fn parse_cmp_predicate(body: &str) -> Option<Predicate> {
    for token in ["!=", "<=", ">=", "<", ">"] {
        let Some((lhs, rhs)) = body.split_once(token) else { continue };
        let name = lhs.trim();
        if name.is_empty()
            || !name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            || !name.chars().all(|c| c.is_alphanumeric() || "_-.:".contains(c))
        {
            return None;
        }
        let value = parse_quoted(rhs.trim())?;
        let op = ConstraintOp::parse(token).expect("token list matches ConstraintOp");
        return Some(Predicate::ChildCmp { name: name.to_string(), op, value });
    }
    None
}

fn parse_quoted(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    if s.len() >= 2 && (bytes[0] == b'\'' || bytes[0] == b'"') && bytes[s.len() - 1] == bytes[0] {
        Some(s[1..s.len() - 1].to_string())
    } else {
        None
    }
}

/// `Element::descendants` as it was: recursive, depth-first.
fn descendants(e: &Element) -> Vec<&Element> {
    let mut out = Vec::new();
    fn walk<'e>(e: &'e Element, out: &mut Vec<&'e Element>) {
        for c in e.child_elements() {
            out.push(c);
            walk(c, out);
        }
    }
    walk(e, &mut out);
    out
}

/// `Element::text` as it was: recursive concatenation.
fn text(e: &Element) -> String {
    let mut out = String::new();
    fn walk(e: &Element, out: &mut String) {
        for c in &e.children {
            match c {
                Node::Text(t) => out.push_str(t),
                Node::Element(el) => walk(el, out),
                Node::Comment(_) => {}
            }
        }
    }
    walk(e, &mut out);
    out
}
