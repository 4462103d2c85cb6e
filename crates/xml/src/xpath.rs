//! An XPath subset for extraction rules.
//!
//! Supported grammar (enough for the paper's §2.3.1 XML extraction
//! rules):
//!
//! ```text
//! path      := '/'? step ( '/' step | '//' step )*  |  '//' step ( … )*
//! step      := nametest predicate* | '@' name | 'text()'
//! nametest  := name | '*'
//! predicate := '[' N ']'                      positional (1-based)
//!            | '[@name="v"]'                   attribute equality
//!            | '[name="v"]'                    child-element text equality
//!            | '[name op "v"]'                 child-element comparison
//!                                              (op: != < <= > >=; numeric
//!                                              when both sides parse)
//!            | '[text()="v"]'                  own-text equality
//!            | '[contains(., "v")]'            substring on text content
//!            | '[contains(@name, "v")]'        substring on attribute
//! ```
//!
//! Both `'` and `"` string quotes are accepted. A leading `/` anchors at
//! the document root (the first step must match the root element);
//! a leading `//` searches all elements.

use crate::dom::{Document, Element, Node};
use crate::error::XmlError;
use s2s_textmatch::{Comparand, ConstraintOp};

/// A compiled XPath expression.
///
/// # Examples
///
/// ```
/// use s2s_xml::{parse, xpath::XPath};
///
/// # fn main() -> Result<(), s2s_xml::XmlError> {
/// let doc = parse(r#"<c><w id="1"><b>Seiko</b></w><w id="2"><b>Casio</b></w></c>"#)?;
/// assert_eq!(XPath::new("//w[@id='2']/b/text()")?.eval_strings(&doc), ["Casio"]);
/// assert_eq!(XPath::new("/c/w/@id")?.eval_strings(&doc), ["1", "2"]);
/// # Ok(())
/// # }
/// ```
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
            // The full name, or the local part of a prefixed one
            // (`e.local_name() == n`, without the scan for `:`).
            NameTest::Named(n) => {
                let name = e.name.as_str();
                name == n
                    || (name.len() > n.len()
                        && name.ends_with(n.as_str())
                        && name.as_bytes()[name.len() - n.len() - 1] == b':'
                        && !n.contains(':'))
            }
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
    /// satisfies the comparison (numeric when both sides parse as
    /// numbers, lexicographic otherwise); its constant is read when the
    /// path is compiled.
    ChildCmp {
        name: String,
        comparand: Comparand,
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

    /// The original expression text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluates against a document, returning matching elements.
    ///
    /// Terminal `@attr`/`text()` steps yield no elements — use
    /// [`XPath::eval_strings`] for those.
    pub fn eval<'d>(&self, doc: &'d Document) -> Vec<&'d Element> {
        self.eval_from(&doc.root)
    }

    /// Evaluates with `root` as the context root element.
    pub fn eval_from<'d>(&self, root: &'d Element) -> Vec<&'d Element> {
        match self.steps.last() {
            Some(Step::Attribute(_) | Step::Text) => Vec::new(),
            _ => self.select(root),
        }
    }

    /// Evaluates and renders results as strings: attribute values for
    /// `@attr`, text content for `text()`, full text content for element
    /// results.
    pub fn eval_strings(&self, doc: &Document) -> Vec<String> {
        self.eval_strings_from(&doc.root)
    }

    /// String evaluation with an explicit context root.
    pub fn eval_strings_from(&self, root: &Element) -> Vec<String> {
        let mut out = Vec::new();
        self.each_string_from(root, |s| out.push(s.to_string()));
        out
    }

    /// [`XPath::eval_strings`] handing each string to `each` instead of
    /// collecting them: attribute values and single-text-node content
    /// borrowed from the document, mixed or nested content composed in
    /// one buffer reused from result to result.
    pub fn each_string(&self, doc: &Document, each: impl FnMut(&str)) {
        self.each_string_from(&doc.root, each);
    }

    /// [`XPath::each_string`] with an explicit context root.
    pub fn each_string_from(&self, root: &Element, mut each: impl FnMut(&str)) {
        let selected = self.select(root);
        let (mut scratch, mut stack) = (String::new(), Vec::new());
        match self.steps.last() {
            Some(Step::Attribute(name)) => {
                selected.iter().filter_map(|e| e.attribute(name)).for_each(each);
            }
            Some(Step::Text) => {
                for e in selected {
                    let text = e.own_text_in(&mut scratch).unwrap_or(&scratch);
                    if !text.is_empty() {
                        each(text);
                    }
                }
            }
            _ => {
                for e in selected {
                    each(e.text_in(&mut scratch, &mut stack).unwrap_or(&scratch));
                }
            }
        }
    }

    /// Runs the element steps (a terminal step, if any, is left to the
    /// caller) and returns the surviving elements in document order per
    /// context. Each step streams the children (or descendants) of the
    /// previous step's survivors through its name test and predicates
    /// into one reused buffer.
    fn select<'d>(&self, root: &'d Element) -> Vec<&'d Element> {
        let mut current: Vec<&'d Element> = vec![root];
        let mut next: Vec<&'d Element> = Vec::new();
        // An absolute path starts at a virtual node whose only child is
        // the root, so the candidates of its first step are the root
        // itself (and, for `//`, its descendants); everywhere else they
        // are a context node's children or descendants.
        let mut at_virtual_root = self.absolute;
        let mut counts: Vec<usize> = Vec::new();
        let mut stack = Vec::new();
        for step in &self.steps {
            let (name, predicates, descend) = match step {
                Step::Child { name, predicates } => (name, predicates, false),
                Step::Descendant { name, predicates } => (name, predicates, true),
                Step::Attribute(_) | Step::Text => break,
            };
            counts.resize(predicates.len(), 0);
            let mut filter = StepFilter { name, predicates, counts: &mut counts };
            let own = std::mem::take(&mut at_virtual_root);
            next.clear();
            for &ctx in &current {
                filter.begin_context();
                if own {
                    next.extend(filter.accepts(ctx).then_some(ctx));
                }
                if descend {
                    ctx.walk_nodes(&mut stack, |node| {
                        if let Node::Element(e) = node {
                            next.extend(filter.accepts(e).then_some(e));
                        }
                    });
                } else if !own {
                    next.extend(ctx.child_elements().filter(|e| filter.accepts(e)));
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
        current
    }
}

impl std::fmt::Display for XPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.source)
    }
}

impl std::str::FromStr for XPath {
    type Err = XmlError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        XPath::new(s)
    }
}

/// One element step applied to the candidates of one context node, in
/// document order: a candidate survives when its name matches and every
/// predicate, left to right, accepts it. A positional predicate `[n]`
/// accepts the `n`-th candidate to reach it within the context (the
/// standard XPath meaning for the common case), so each keeps a count.
struct StepFilter<'p> {
    name: &'p NameTest,
    predicates: &'p [Predicate],
    /// Candidates seen so far by the positional predicate at the same
    /// index of `predicates`, in the current context.
    counts: &'p mut [usize],
}

impl StepFilter<'_> {
    fn begin_context(&mut self) {
        // Guarded: a zero-length memset per context node costs more
        // than the whole step on a predicate-free path.
        if !self.counts.is_empty() {
            self.counts.fill(0);
        }
    }

    fn accepts(&mut self, e: &Element) -> bool {
        self.name.matches(e)
            && self
                .predicates
                .iter()
                .zip(self.counts.iter_mut())
                .all(|(p, seen)| p.accepts(e, seen))
    }
}

impl Predicate {
    /// Whether the predicate accepts `e`, one more candidate to reach it
    /// after the `seen` before it in the same context.
    fn accepts(&self, e: &Element, seen: &mut usize) -> bool {
        match self {
            Predicate::Position(n) => {
                *seen += 1;
                *seen == *n
            }
            Predicate::AttrEq { name, value } => e.attribute(name) == Some(value.as_str()),
            Predicate::ChildEq { name, value } => {
                e.child_elements().any(|c| c.name == *name && c.text_content() == *value)
            }
            Predicate::ChildCmp { name, comparand } => {
                e.child_elements().any(|c| c.name == *name && comparand.test(&c.text_content()))
            }
            Predicate::TextEq(value) => {
                // `own_text() == value` without building the string.
                let mut rest = Some(value.as_str());
                for node in &e.children {
                    if let Node::Text(t) = node {
                        rest = rest.and_then(|r| r.strip_prefix(t.as_str()));
                    }
                }
                rest == Some("")
            }
            Predicate::ContainsText(value) => e.text_content().contains(value.as_str()),
            Predicate::ContainsAttr { name, value } => {
                e.attribute(name).is_some_and(|v| v.contains(value.as_str()))
            }
        }
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
        return Some(Predicate::ChildCmp {
            name: name.to_string(),
            comparand: Comparand::new(op, value),
        });
    }
    None
}

/// Splices a pushed predicate into an extraction-rule XPath.
///
/// `path` must have the canonical record shape `…/record/attr/text()`;
/// the result is `…/record[guard op 'value']/attr/text()` — the same
/// rows, pre-filtered at the source. `op` is any operator but `LIKE`
/// (`=` uses the string-equality `ChildEq` form).
///
/// # Errors
///
/// Returns [`XmlError::BadXPath`] when the path doesn't have the
/// record shape, the operator is `LIKE`, or the guard/value cannot be
/// spliced without changing the grammar (quotes or `]` in the value).
pub fn push_child_predicate(
    path: &str,
    guard: &str,
    op: ConstraintOp,
    value: &str,
) -> Result<String, XmlError> {
    let bad = |m: String| XmlError::BadXPath { path: path.to_string(), message: m };
    if op == ConstraintOp::Like {
        return Err(bad("XPath predicates have no `LIKE`".into()));
    }
    if guard.is_empty()
        || !guard.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
        || !guard.chars().all(|c| c.is_alphanumeric() || "_-.:".contains(c))
    {
        return Err(bad(format!("`{guard}` is not a valid guard element name")));
    }
    if value.contains('\'') || value.contains(']') {
        return Err(bad("pushdown value cannot contain `'` or `]`".into()));
    }
    let compiled = XPath::new(path)?;
    let attr = match &compiled.steps[..] {
        [.., Step::Child { name: NameTest::Named(attr), predicates }, Step::Text]
            if predicates.is_empty() && compiled.steps.len() >= 3 =>
        {
            attr.clone()
        }
        _ => return Err(bad("path is not of the record shape `…/record/attr/text()`".into())),
    };
    let suffix = format!("/{attr}/text()");
    let Some(prefix) = compiled.source.strip_suffix(suffix.as_str()) else {
        return Err(bad("path text does not end with its own final step".into()));
    };
    let pushed = format!("{prefix}[{guard} {op} '{value}']{suffix}");
    XPath::new(&pushed)?;
    Ok(pushed)
}

fn parse_quoted(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    if s.len() >= 2 && (bytes[0] == b'\'' || bytes[0] == b'"') && bytes[s.len() - 1] == bytes[0] {
        Some(s[1..s.len() - 1].to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> Document {
        parse(
            r#"<catalog>
                <watch id="81" series="dive">
                    <brand>Seiko</brand>
                    <case>stainless-steel</case>
                    <price currency="USD">129.99</price>
                </watch>
                <watch id="82">
                    <brand>Casio</brand>
                    <case>resin</case>
                </watch>
                <provider><name>WatchWorld</name></provider>
            </catalog>"#,
        )
        .unwrap()
    }

    #[test]
    fn absolute_child_path() {
        let d = doc();
        let r = XPath::new("/catalog/watch/brand").unwrap().eval(&d);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].text(), "Seiko");
    }

    #[test]
    fn text_step() {
        let d = doc();
        assert_eq!(
            XPath::new("/catalog/watch/brand/text()").unwrap().eval_strings(&d),
            ["Seiko", "Casio"]
        );
    }

    #[test]
    fn attribute_step() {
        let d = doc();
        assert_eq!(XPath::new("/catalog/watch/@id").unwrap().eval_strings(&d), ["81", "82"]);
        // Missing attributes are skipped.
        assert_eq!(XPath::new("/catalog/watch/@series").unwrap().eval_strings(&d), ["dive"]);
    }

    #[test]
    fn descendant_axis() {
        let d = doc();
        assert_eq!(XPath::new("//brand/text()").unwrap().eval_strings(&d), ["Seiko", "Casio"]);
        assert_eq!(XPath::new("//name/text()").unwrap().eval_strings(&d), ["WatchWorld"]);
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        let r = XPath::new("/catalog/*").unwrap().eval(&d);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn positional_predicate() {
        let d = doc();
        assert_eq!(
            XPath::new("/catalog/watch[2]/brand/text()").unwrap().eval_strings(&d),
            ["Casio"]
        );
        assert!(XPath::new("/catalog/watch[5]").unwrap().eval(&d).is_empty());
    }

    #[test]
    fn attr_equality_predicate() {
        let d = doc();
        assert_eq!(
            XPath::new("//watch[@id='81']/brand/text()").unwrap().eval_strings(&d),
            ["Seiko"]
        );
        assert_eq!(
            XPath::new("//watch[@id=\"82\"]/case/text()").unwrap().eval_strings(&d),
            ["resin"]
        );
    }

    #[test]
    fn child_equality_predicate() {
        let d = doc();
        assert_eq!(XPath::new("//watch[brand='Casio']/@id").unwrap().eval_strings(&d), ["82"]);
    }

    #[test]
    fn contains_predicates() {
        let d = doc();
        assert_eq!(
            XPath::new("//case[contains(., 'steel')]/text()").unwrap().eval_strings(&d),
            ["stainless-steel"]
        );
        assert_eq!(
            XPath::new("//price[contains(@currency, 'US')]/text()").unwrap().eval_strings(&d),
            ["129.99"]
        );
    }

    #[test]
    fn text_equality_predicate() {
        let d = doc();
        assert_eq!(XPath::new("//brand[text()='Seiko']").unwrap().eval(&d).len(), 1);
    }

    #[test]
    fn chained_predicates() {
        let d = doc();
        assert_eq!(
            XPath::new("//watch[@series='dive'][1]/brand/text()").unwrap().eval_strings(&d),
            ["Seiko"]
        );
    }

    #[test]
    fn relative_path_from_element() {
        let d = doc();
        let watches = XPath::new("//watch").unwrap().eval(&d);
        let brand = XPath::new("brand/text()").unwrap();
        assert_eq!(brand.eval_strings_from(watches[1]), ["Casio"]);
    }

    #[test]
    fn element_result_renders_text() {
        let d = doc();
        assert_eq!(XPath::new("//provider").unwrap().eval_strings(&d), ["WatchWorld"]);
    }

    #[test]
    fn root_name_must_match_absolute_path() {
        let d = doc();
        assert!(XPath::new("/wrong/watch").unwrap().eval(&d).is_empty());
    }

    #[test]
    fn bad_paths_rejected() {
        assert!(XPath::new("").is_err());
        assert!(XPath::new("/").is_err());
        assert!(XPath::new("//").is_err());
        assert!(XPath::new("/a/@id/b").is_err());
        assert!(XPath::new("/a/text()/b").is_err());
        assert!(XPath::new("/a[").is_err());
        assert!(XPath::new("/a[0]").is_err());
        assert!(XPath::new("/a[@x=unquoted]").is_err());
        assert!(XPath::new("/a[contains(x, 'y')]").is_err());
    }

    #[test]
    fn child_cmp_predicates() {
        let d = parse(
            "<catalog><watch><brand>seiko</brand><price>120</price></watch>\
             <watch><brand>casio</brand><price>45</price></watch></catalog>",
        )
        .unwrap();
        let q = |p: &str| XPath::new(p).unwrap().eval_strings(&d);
        assert_eq!(q("/catalog/watch[price < '100']/brand/text()"), ["casio"]);
        assert_eq!(q("/catalog/watch[price >= '100']/brand/text()"), ["seiko"]);
        assert_eq!(q("/catalog/watch[brand != 'seiko']/price/text()"), ["45"]);
        // Numeric, not lexicographic: '45' < '100' numerically.
        assert_eq!(q("/catalog/watch[price <= '45']/brand/text()"), ["casio"]);
        // Missing guard child filters the element out.
        assert!(q("/catalog/watch[missing > '1']/brand/text()").is_empty());
    }

    #[test]
    fn push_child_predicate_splices() {
        let pushed =
            push_child_predicate("/catalog/watch/brand/text()", "price", ConstraintOp::Lt, "100")
                .unwrap();
        assert_eq!(pushed, "/catalog/watch[price < '100']/brand/text()");
        // Equality uses the existing string-equality predicate form.
        let eq =
            push_child_predicate("/catalog/watch/brand/text()", "brand", ConstraintOp::Eq, "x")
                .unwrap();
        assert_eq!(eq, "/catalog/watch[brand = 'x']/brand/text()");
        // Splicing stacks with existing predicates.
        let twice = push_child_predicate(&pushed, "case", ConstraintOp::Ne, "resin").unwrap();
        assert_eq!(twice, "/catalog/watch[price < '100'][case != 'resin']/brand/text()");
        let d = parse(
            "<catalog><watch><brand>a</brand><price>5</price><case>resin</case></watch>\
             <watch><brand>b</brand><price>6</price><case>steel</case></watch></catalog>",
        )
        .unwrap();
        assert_eq!(XPath::new(&twice).unwrap().eval_strings(&d), ["b"]);
    }

    #[test]
    fn push_child_predicate_rejects_bad_shapes() {
        let p = push_child_predicate;
        assert!(p("/catalog/watch/@id", "a", ConstraintOp::Lt, "1").is_err()); // attribute terminal
        assert!(p("/catalog/watch/brand", "a", ConstraintOp::Lt, "1").is_err()); // no text() step
        assert!(p("/brand/text()", "a", ConstraintOp::Lt, "1").is_err()); // no record step
        assert!(p("/c/w/b/text()", "a", ConstraintOp::Like, "x%").is_err()); // unsupported op
        assert!(p("/c/w/b/text()", "@attr", ConstraintOp::Lt, "1").is_err()); // bad guard name
        assert!(p("/c/w/b/text()", "a", ConstraintOp::Lt, "it's").is_err()); // quote in value
        assert!(p("/c/w/b/text()", "a", ConstraintOp::Lt, "x]y").is_err()); // bracket in value
    }

    #[test]
    fn display_and_fromstr() {
        let p: XPath = "//watch/@id".parse().unwrap();
        assert_eq!(p.to_string(), "//watch/@id");
        assert_eq!(p.source(), "//watch/@id");
    }

    #[test]
    fn namespaced_local_name_matching() {
        let d = parse("<x:root xmlns:x=\"urn:x\"><x:item>v</x:item></x:root>").unwrap();
        // Both prefixed and local names match.
        assert_eq!(XPath::new("/root/item/text()").unwrap().eval_strings(&d), ["v"]);
        assert_eq!(XPath::new("/x:root/x:item/text()").unwrap().eval_strings(&d), ["v"]);
    }
}
