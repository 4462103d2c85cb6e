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

use std::cell::Cell;

use crate::dom::{Document, Element, Kind, Sym, NO_NAME};
use crate::error::XmlError;
use s2s_textmatch::{Comparand, ConstraintOp};

/// Where [`XPath::each_string`] and [`crate::xquery::XQuery::each_string`]
/// hand their strings. Any `FnMut(&str)` is one that ignores the size.
pub trait StringSink {
    /// Called once, before the first string, with a hint: `strings`
    /// strings follow, and `text_bytes` is room for them at the
    /// document's longest text run or attribute value each, capped by
    /// all the text the document holds. From XPath the count is one per
    /// selected node, at most what follows, and the room is enough for
    /// strings borrowed whole from the document. Composed (mixed or
    /// nested) content may outgrow the room, and XQuery's count is one
    /// per passing binding, which a `return` may give several strings
    /// or text of its own; a sink takes whatever follows.
    fn size(&mut self, strings: usize, text_bytes: usize) {
        let _ = (strings, text_bytes);
    }

    /// One string, in result order.
    fn push(&mut self, string: &str);
}

impl<F: FnMut(&str)> StringSink for F {
    fn push(&mut self, string: &str) {
        self(string);
    }
}

/// Tells `sink` that `strings` strings of `doc` follow.
pub(crate) fn size(sink: &mut impl StringSink, doc: &Document, strings: usize) {
    sink.size(strings, strings.saturating_mul(doc.widest).min(doc.text.len()));
}

/// What [`XPath::each_string_grouped`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grouped {
    /// The walks it ran: one per set of paths sharing their records, one
    /// per path that does not split.
    pub walks: usize,
    /// Whether it read only the records its filter kept.
    pub filtered: bool,
}

/// The record filter of [`XPath::each_string_grouped`]: `keep(k,
/// fields)`, asked about record `k` (its position among the records, in
/// document order) with its field of each path, and where the positions
/// of the kept records go. Unfiltered is `None::<RecordFilter>`.
pub type RecordFilter<'a, K = fn(usize, &RecordFields<'_>) -> bool> = (K, &'a mut Vec<u32>);

/// A path's field in a filtered walk: the name of the child it is, when
/// read as it is asked for, and how many records had the field so far
/// (`0`: not read yet) with the record's, borrowed from the document.
type FieldSlot<'r> = (Sym, Cell<(u32, &'r str)>);

/// One record of a filtered walk: its field of each path.
pub struct RecordFields<'r> {
    fields: &'r [FieldSlot<'r>],
    /// The document and the record, when a field is read only once it
    /// is asked for.
    lazy: Option<(&'r Document, u32)>,
}

impl RecordFields<'_> {
    /// The record's field of `paths[j]`.
    pub fn get(&self, j: usize) -> &str {
        let (name, seen) = &self.fields[j];
        match (seen.get(), self.lazy) {
            ((0, _), Some((doc, record))) => {
                // A regular record's one child of that name is a leaf of
                // one text run.
                let mut children = doc.child_ids(record);
                let child = children.find(|&c| doc.names[c as usize] == *name);
                let value =
                    doc.str(doc.spans[child.expect("a regular record's field") as usize + 1]);
                count_reads(1);
                seen.set((1, value));
                value
            }
            ((_, value), _) => value,
        }
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Fields this thread's grouped walks read of their records.
    static FIELDS_READ: Cell<usize> = const { Cell::new(0) };
}

/// Counts `n` fields read of records ([`fields_read_on_this_thread`]).
#[inline]
pub(crate) fn count_reads(n: usize) {
    #[cfg(debug_assertions)]
    FIELDS_READ.with(|read| read.set(read.get() + n));
    let _ = n;
}

/// How many fields of records the grouped walks on this thread read
/// ([`XPath::each_string_grouped`]): one per field a walk reads to test
/// a record or to write it, and one per child element a [`Document`]
/// reads, once, to learn whether its records are regular. A diagnostic
/// of debug builds, for tests.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn fields_read_on_this_thread() -> usize {
    FIELDS_READ.with(Cell::get)
}

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
    /// How many leading steps select the path's records, when it splits
    /// into records and a field of each ([`XPath::shares_records`]).
    record: Option<usize>,
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
    /// The test against one document's symbols: the full name when it
    /// has a prefix or no prefixed name ends in it, else the local part
    /// of the element's name (so `b` matches `b` and `x:b`); a name the
    /// document lacks matches nothing.
    fn resolve(&self, doc: &Document) -> Resolved {
        match self {
            NameTest::Any => Resolved::Any,
            NameTest::Named(n) => match doc.symbol(n) {
                None => Resolved::Never,
                Some(sym) if n.contains(':') || !doc.prefixed[sym as usize] => Resolved::Full(sym),
                Some(sym) => Resolved::Local(sym),
            },
        }
    }
}

/// A [`NameTest`] resolved against one document.
#[derive(Clone, Copy)]
enum Resolved {
    Any,
    Full(Sym),
    Local(Sym),
    Never,
}

impl Resolved {
    /// Whether an element named `sym` passes.
    fn names(self, doc: &Document, sym: Sym) -> bool {
        match self {
            Resolved::Any => true,
            Resolved::Full(name) => sym == name,
            Resolved::Local(name) => doc.locals[sym as usize] == name,
            Resolved::Never => false,
        }
    }

    /// Whether node `node` is an element that passes: text runs and
    /// comments have no name.
    fn matches(self, doc: &Document, node: u32) -> bool {
        let name = doc.names[node as usize];
        name != NO_NAME && self.names(doc, name)
    }
}

/// The field a split path reads of each record ([`XPath::shares_records`]),
/// resolved against one document.
#[derive(Clone, Copy)]
enum Field {
    /// `@name`: the record's attribute, if the document has the name.
    Attribute(Option<Sym>),
    /// `name` or `name/text()`: each matching child, whole or its own
    /// text.
    Child { name: Resolved, text: bool },
}

/// The child fields of a walk by element name: per symbol of the
/// document, the fields (`(j, text)`, in field order) a child of that
/// name feeds, so a child is matched by one lookup, not a test per
/// field.
struct ByName {
    /// Per symbol, where its fields start in `fields`; then the end.
    starts: Vec<usize>,
    fields: Vec<(usize, bool)>,
}

impl ByName {
    fn new(doc: &Document, fields: &[(usize, Field)]) -> ByName {
        let mut starts = Vec::with_capacity(doc.symbols.len() + 1);
        starts.push(0);
        let mut by = ByName { starts, fields: Vec::new() };
        for sym in 0..doc.symbols.len() as Sym {
            by.fields.extend(fields.iter().filter_map(|&(j, field)| match field {
                Field::Child { name, text } if name.names(doc, sym) => Some((j, text)),
                _ => None,
            }));
            by.starts.push(by.fields.len());
        }
        by
    }

    /// The fields `child` feeds: none for a text run or a comment.
    fn of(&self, doc: &Document, child: u32) -> &[(usize, bool)] {
        match doc.names[child as usize] {
            NO_NAME => &[],
            sym => &self.fields[self.starts[sym as usize]..self.starts[sym as usize + 1]],
        }
    }
}

/// Hands `sinks[j]` the strings of `field` (`(j, field)` in `fields`)
/// of each record `records` yields, in order, each sink sized first by
/// the record count. Attributes a field at a time; children in one pass
/// over each record's children, each looked up by name ([`ByName`]).
fn read_fields<S: StringSink>(
    doc: &Document,
    records: impl ExactSizeIterator<Item = u32> + Clone,
    fields: &[(usize, Field)],
    sinks: &mut [S],
    scratch: &mut String,
) {
    for &(j, _) in fields {
        size(&mut sinks[j], doc, records.len());
    }
    for &(j, field) in fields {
        if let Field::Attribute(Some(name)) = field {
            let values = records.clone().filter_map(|r| doc.attribute_value(r, name));
            values.for_each(|value| {
                count_reads(1);
                sinks[j].push(value);
            });
        }
    }
    let by_name = ByName::new(doc, fields);
    for child in records.flat_map(|record| doc.child_ids(record)) {
        for &(j, text) in by_name.of(doc, child) {
            if let Some(value) = child_value(doc.element(child), text, scratch) {
                count_reads(1);
                sinks[j].push(value);
            }
        }
    }
}

/// [`read_fields`] of the records `keep` accepts, every path's field
/// among `fields` (`j` in `0..fields.len()`): each record's fields are
/// tested before any is written, and the position of each kept record
/// goes to `ordinals`. Returns `false`, having read every record and
/// left `ordinals` empty, when some record has a field missing,
/// repeated or composed of several text runs.
fn read_kept<S: StringSink, K: FnMut(usize, &RecordFields<'_>) -> bool>(
    doc: &Document,
    records: &[u32],
    fields: &[(usize, Field)],
    sinks: &mut [S],
    (keep, ordinals): &mut RecordFilter<'_, K>,
) -> bool {
    let by_name = ByName::new(doc, fields);
    let scratch = &mut String::new();
    // Per field, how many of the records so far had one, and the
    // record's: each record has every field once exactly when all count
    // the records.
    let seen = vec![(NO_NAME, Cell::new((0, ""))); fields.len()];
    for (k, &record) in (1..).zip(records) {
        let found = |j: usize, value| {
            count_reads(1);
            seen[j].1.set((seen[j].1.get().0 + 1, value));
        };
        for &(j, field) in fields {
            if let Field::Attribute(Some(name)) = field {
                doc.attribute_value(record, name).into_iter().for_each(|v| found(j, v));
            }
        }
        let mut composed = false;
        for child in doc.child_ids(record) {
            for &(j, own) in by_name.of(doc, child) {
                let child = doc.element(child);
                match if own { child.own_text_in(scratch) } else { child.text_in(scratch) } {
                    Some(value) if own && value.is_empty() => {}
                    Some(value) => found(j, value),
                    None => composed = true,
                }
            }
        }
        if composed || seen.iter().any(|(_, seen)| seen.get().0 != k) {
            ordinals.clear();
            read_fields(doc, records.iter().copied(), fields, sinks, scratch);
            return false;
        }
        if keep(k as usize - 1, &RecordFields { fields: &seen, lazy: None }) {
            ordinals.push(k - 1);
        }
    }
    let kept = ordinals.iter().map(|&k| records[k as usize]);
    read_fields(doc, kept, fields, sinks, scratch);
    true
}

/// The fields of a filtered walk, to be read only as they are asked
/// for, when the document guarantees each record what [`read_kept`]
/// would check it for: every field is a child named in full, and every
/// record's name is [`Document::regular`] with each.
fn lazy_fields<'d>(
    doc: &'d Document,
    records: &[u32],
    fields: &[(usize, Field)],
) -> Option<Vec<FieldSlot<'d>>> {
    let name = |field| match field {
        Field::Child { name: Resolved::Full(name), .. } => Some(name),
        _ => None,
    };
    let names: Vec<_> = fields
        .iter()
        .map(|&(_, f)| name(f).map(|n| (n, Cell::default())))
        .collect::<Option<_>>()?;
    // Records usually share one name, so a name checked is not checked
    // again for the next record.
    let mut checked = NO_NAME;
    let mut regular = |&record: &u32| {
        let element = doc.names[record as usize];
        let regular =
            element == checked || names.iter().all(|&(child, _)| doc.regular(element, child));
        checked = element;
        regular
    };
    records.iter().all(&mut regular).then_some(names)
}

/// [`read_kept`] over regular records ([`lazy_fields`]), which always
/// line up: a record's field is read when `keep` asks for it or the
/// record is kept, and only once.
fn kept_lazily<'d, S: StringSink, K: FnMut(usize, &RecordFields<'_>) -> bool>(
    doc: &'d Document,
    records: &[u32],
    fields: &'d [FieldSlot<'d>],
    sinks: &mut [S],
    (keep, ordinals): &mut RecordFilter<'_, K>,
) {
    // Per kept record, its fields as its test left them.
    let mut tested = Vec::new();
    for (k, &record) in (0..).zip(records) {
        fields.iter().for_each(|(_, seen)| seen.set((0, "")));
        if keep(k as usize, &RecordFields { fields, lazy: Some((doc, record)) }) {
            ordinals.push(k);
            tested.extend(fields.iter().map(|(_, seen)| seen.get()));
        }
    }
    for sink in sinks.iter_mut() {
        size(sink, doc, ordinals.len());
    }
    for (&k, row) in ordinals.iter().zip(tested.chunks(fields.len())) {
        fields.iter().zip(row).for_each(|((_, seen), &tested)| seen.set(tested));
        let record = RecordFields { fields, lazy: Some((doc, records[k as usize])) };
        for (j, sink) in sinks.iter_mut().enumerate() {
            sink.push(record.get(j));
        }
    }
}

/// What a path ending at `child` yields from it: its own text if
/// `text` (none when empty), else all its text; `scratch` composes
/// mixed content.
fn child_value<'a>(child: Element<'a>, text: bool, scratch: &'a mut String) -> Option<&'a str> {
    if !text {
        return Some(child.text_in(scratch).unwrap_or(scratch));
    }
    Some(child.own_text_in(scratch).unwrap_or(scratch)).filter(|own| !own.is_empty())
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
    /// satisfies the comparison (`Comparand::new`: decimal order for a
    /// decimal constant, code-point order otherwise).
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
                return Ok(XPath::from_steps(src, steps, absolute));
            }
            if let Some(r) = rest.strip_prefix("text()") {
                if !r.is_empty() {
                    return Err(bad("`text()` must be the final step"));
                }
                steps.push(Step::Text);
                return Ok(XPath::from_steps(src, steps, absolute));
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
                let end = predicate_end(rr).ok_or_else(|| bad("unterminated predicate"))?;
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
                return Ok(XPath::from_steps(src, steps, absolute));
            }
            rest = r;
        }
    }

    fn from_steps(source: &str, steps: Vec<Step>, absolute: bool) -> Self {
        // The field: an attribute of the record, or a child element
        // without predicates, whole or its text.
        let record = match &steps[..] {
            [.., Step::Attribute(_)] => steps.len() - 1,
            [.., Step::Child { predicates, .. }, Step::Text] if predicates.is_empty() => {
                steps.len() - 2
            }
            [.., Step::Child { predicates, .. }] if predicates.is_empty() => steps.len() - 1,
            _ => 0,
        };
        let record = (absolute && record > 0).then_some(record);
        XPath { source: source.to_string(), steps, absolute, record }
    }

    /// Whether both paths split into the same records and a field of
    /// each: an absolute prefix (predicates and `//` steps allowed)
    /// selects the records, and the rest reads one `@attr`, or one child
    /// element without predicates, whole or its `text()`. Such paths are
    /// one walk in [`XPath::each_string_grouped`]. `/c/w/b/text()` and
    /// `/c/w/@id` share their records `/c/w`, `//w/b/text()` and
    /// `//w/p/text()` theirs `//w`; a descendant field shares with none,
    /// not even itself.
    pub fn shares_records(&self, other: &XPath) -> bool {
        match (self.record, other.record) {
            (Some(a), Some(b)) => self.steps[..a] == other.steps[..b],
            _ => false,
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
    pub fn eval<'d>(&self, doc: &'d Document) -> Vec<Element<'d>> {
        self.eval_from(doc.root())
    }

    /// Evaluates with `root` as the context root element.
    pub fn eval_from<'d>(&self, root: Element<'d>) -> Vec<Element<'d>> {
        match self.steps.last() {
            Some(Step::Attribute(_) | Step::Text) => Vec::new(),
            _ => self
                .select(root, self.steps.len())
                .into_iter()
                .map(|id| root.doc.element(id))
                .collect(),
        }
    }

    /// Evaluates and renders results as strings: attribute values for
    /// `@attr`, text content for `text()`, full text content for element
    /// results.
    pub fn eval_strings(&self, doc: &Document) -> Vec<String> {
        self.eval_strings_from(doc.root())
    }

    /// String evaluation with an explicit context root.
    pub fn eval_strings_from(&self, root: Element<'_>) -> Vec<String> {
        let mut out = Vec::new();
        self.each_string_from(root, |s: &str| out.push(s.to_string()));
        out
    }

    /// [`XPath::eval_strings`] handing each string to `sink` instead of
    /// collecting them: attribute values and single-text-run content
    /// borrowed from the document, mixed or nested content composed in
    /// one buffer reused from result to result. The sink is sized first
    /// from the node-set ([`StringSink::size`]), with no pass over it.
    pub fn each_string(&self, doc: &Document, sink: impl StringSink) {
        self.each_string_from(doc.root(), sink);
    }

    /// [`XPath::each_string`] with an explicit context root.
    pub fn each_string_from(&self, root: Element<'_>, mut sink: impl StringSink) {
        self.strings_into(root, &mut sink);
    }

    /// [`XPath::each_string`] for several paths at once, the strings of
    /// `paths[i]` going to `sinks[i]`. Paths that share their records
    /// ([`XPath::shares_records`]) are one walk: the records are
    /// selected once, and each path reads its field of one record after
    /// another — what it reads alone, records that nest or repeat
    /// included, since a field is a record's own child or attribute.
    /// Fields are matched by symbol and nothing is allocated per record.
    /// A grouped sink is sized from the records (a hint: a record may
    /// have its field more than once, or not at all).
    ///
    /// With a [`RecordFilter`] `(keep, ordinals)`, the walk is filtered
    /// when it is one walk over every path: `keep` is asked about each
    /// record, with its field of every path, before any of its fields is
    /// written, and the position of each kept record among the records,
    /// in document order, goes to `ordinals`. Where the document vouches
    /// that every record has each field once, as one text run, a field
    /// is read only when `keep` asks for it or its record is kept. When
    /// some record has a field missing or repeated — its fields would
    /// not line up with the records — every record is read, and
    /// `ordinals` is left empty.
    ///
    /// # Panics
    ///
    /// If `paths` and `sinks` differ in length.
    pub fn each_string_grouped<S: StringSink, K: FnMut(usize, &RecordFields<'_>) -> bool>(
        paths: &[&XPath],
        doc: &Document,
        sinks: &mut [S],
        mut filter: Option<RecordFilter<'_, K>>,
    ) -> Grouped {
        assert_eq!(paths.len(), sinks.len(), "one sink per path");
        if let Some((_, ordinals)) = &mut filter {
            ordinals.clear();
        }
        let mut grouped = Grouped { walks: 0, filtered: false };
        let mut scratch = String::new();
        for (lead, path) in paths.iter().enumerate() {
            // `shares_records` is an equivalence on the paths that split:
            // a path an earlier one shares with was read in its walk.
            if paths[..lead].iter().any(|earlier| earlier.shares_records(path)) {
                continue;
            }
            grouped.walks += 1;
            let Some(at) = path.record else {
                path.strings_into(doc.root(), &mut sinks[lead]);
                continue;
            };
            let fields: Vec<(usize, Field)> = (lead..paths.len())
                .filter(|&j| paths[j].shares_records(path))
                .map(|j| (j, paths[j].field(doc)))
                .collect();
            let records = path.select(doc.root(), at);
            match &mut filter {
                Some(filter) if fields.len() == paths.len() => {
                    grouped.filtered = match lazy_fields(doc, &records, &fields) {
                        Some(lazy) => {
                            kept_lazily(doc, &records, &lazy, sinks, filter);
                            true
                        }
                        None => read_kept(doc, &records, &fields, sinks, filter),
                    };
                }
                _ => read_fields(doc, records.iter().copied(), &fields, sinks, &mut scratch),
            }
        }
        grouped
    }

    /// The field of a path that splits, resolved against `doc`.
    fn field(&self, doc: &Document) -> Field {
        match &self.steps[self.record.unwrap_or_default()..] {
            [Step::Attribute(name)] => Field::Attribute(doc.symbol(name)),
            [Step::Child { name, .. }, rest @ ..] => {
                Field::Child { name: name.resolve(doc), text: !rest.is_empty() }
            }
            _ => unreachable!("a split path's field is an attribute or a child"),
        }
    }

    /// The strings of the path from `root` into `sink`.
    fn strings_into(&self, root: Element<'_>, sink: &mut impl StringSink) {
        let doc = root.doc;
        let selected = self.select(root, self.steps.len());
        size(sink, doc, selected.len());
        let mut scratch = String::new();
        match self.steps.last() {
            Some(Step::Attribute(name)) => {
                let Some(name) = doc.symbol(name) else { return };
                for value in selected.iter().filter_map(|&e| doc.attribute_value(e, name)) {
                    sink.push(value);
                }
            }
            Some(Step::Text) => {
                for e in selected {
                    let text = doc.element(e).own_text_in(&mut scratch).unwrap_or(&scratch);
                    if !text.is_empty() {
                        sink.push(text);
                    }
                }
            }
            _ => {
                for e in selected {
                    sink.push(doc.element(e).text_in(&mut scratch).unwrap_or(&scratch));
                }
            }
        }
    }

    /// Runs the element steps (a terminal step, if any, is left to the
    /// caller) and returns the node ids of the surviving elements in
    /// document order per context. Each step resolves its names to the
    /// document's symbols once, then streams the children (or
    /// descendants) of the previous step's survivors through its name
    /// test and predicates into one reused buffer.
    fn select(&self, root: Element<'_>, steps: usize) -> Vec<u32> {
        let doc = root.doc;
        let mut current = vec![root.id];
        let mut next = Vec::new();
        // An absolute path starts at a virtual node whose only child is
        // the root, so the candidates of its first step are the root
        // itself (and, for `//`, its descendants); everywhere else they
        // are a context node's children or descendants.
        let mut at_virtual_root = self.absolute;
        let mut slots: Vec<Slot> = Vec::new();
        for step in &self.steps[..steps] {
            let (name, predicates, descend) = match step {
                Step::Child { name, predicates } => (name, predicates, false),
                Step::Descendant { name, predicates } => (name, predicates, true),
                Step::Attribute(_) | Step::Text => break,
            };
            slots.clear();
            slots.extend(predicates.iter().map(|p| Slot { seen: 0, name: p.symbol(doc) }));
            let name = name.resolve(doc);
            let mut filter = StepFilter { doc, predicates, slots: &mut slots };
            let own = std::mem::take(&mut at_virtual_root);
            next.clear();
            for &ctx in &current {
                filter.begin_context();
                let mut accepts = |n: u32| name.matches(doc, n) && filter.accepts(n);
                if own && accepts(ctx) {
                    next.push(ctx);
                }
                if descend {
                    next.extend((ctx + 1..doc.ends[ctx as usize]).filter(|&n| accepts(n)));
                } else if !own {
                    next.extend(doc.child_ids(ctx).filter(|&c| accepts(c)));
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

/// The predicates of one element step applied to the candidates of one
/// context node whose name matched, in document order: a candidate
/// survives when every predicate, left to right, accepts it. A
/// positional predicate `[n]` accepts the `n`-th candidate to reach it
/// within the context (the standard XPath meaning for the common case),
/// so each keeps a count.
struct StepFilter<'p, 'd> {
    doc: &'d Document,
    predicates: &'p [Predicate],
    slots: &'p mut [Slot],
}

/// The state of the predicate at the same index, for one step over one
/// document.
struct Slot {
    /// Candidates seen so far by a positional predicate in the current
    /// context.
    seen: usize,
    /// The symbol of the attribute or child the predicate names, if the
    /// document has it.
    name: Option<Sym>,
}

impl StepFilter<'_, '_> {
    fn begin_context(&mut self) {
        self.slots.iter_mut().for_each(|slot| slot.seen = 0);
    }

    fn accepts(&mut self, node: u32) -> bool {
        let doc = self.doc;
        self.predicates
            .iter()
            .zip(self.slots.iter_mut())
            .all(|(p, slot)| p.accepts(doc.element(node), slot))
    }
}

impl Predicate {
    /// The attribute or child name the predicate tests, as a symbol of
    /// `doc`.
    fn symbol(&self, doc: &Document) -> Option<Sym> {
        match self {
            Predicate::AttrEq { name, .. }
            | Predicate::ChildEq { name, .. }
            | Predicate::ChildCmp { name, .. }
            | Predicate::ContainsAttr { name, .. } => doc.symbol(name),
            Predicate::Position(_) | Predicate::TextEq(_) | Predicate::ContainsText(_) => None,
        }
    }

    /// Whether the predicate accepts `e`, one more candidate to reach it
    /// after the `seen` of `slot` before it in the same context.
    fn accepts(&self, e: Element<'_>, slot: &mut Slot) -> bool {
        let doc = e.doc;
        let attribute = |name: Option<Sym>| name.and_then(|name| doc.attribute_value(e.id, name));
        let children_named = |name: Option<Sym>| {
            doc.child_ids(e.id)
                .filter(move |&c| name == Some(doc.names[c as usize]))
                .map(|c| doc.element(c))
        };
        match self {
            Predicate::Position(n) => {
                slot.seen += 1;
                slot.seen == *n
            }
            Predicate::AttrEq { value, .. } => attribute(slot.name) == Some(value.as_str()),
            Predicate::ChildEq { value, .. } => {
                children_named(slot.name).any(|c| c.text_content() == *value)
            }
            Predicate::ChildCmp { comparand, .. } => {
                children_named(slot.name).any(|c| comparand.test(&c.text_content()))
            }
            Predicate::TextEq(value) => {
                // `own_text() == value` without building the string.
                let mut rest = Some(value.as_str());
                for c in doc.child_ids(e.id) {
                    if doc.kinds[c as usize] == Kind::Text {
                        let text = doc.str(doc.spans[c as usize]);
                        rest = rest.and_then(|r| r.strip_prefix(text));
                    }
                }
                rest == Some("")
            }
            Predicate::ContainsText(value) => e.text_content().contains(value.as_str()),
            Predicate::ContainsAttr { value, .. } => {
                attribute(slot.name).is_some_and(|v| v.contains(value.as_str()))
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

/// Byte offset of the `]` that ends the predicate body at the front of
/// `s`: the first one outside a quoted literal.
fn predicate_end(s: &str) -> Option<usize> {
    let mut quote = None;
    for (i, b) in s.bytes().enumerate() {
        match (quote, b) {
            (Some(q), b) if b == q => quote = None,
            (Some(_), _) => {}
            (None, b'\'' | b'"') => quote = Some(b),
            (None, b']') => return Some(i),
            _ => {}
        }
    }
    None
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
    fn quoted_bracket_stays_inside_its_predicate() {
        let d = parse(r#"<c><w s="a]b"><b>one</b></w><w s="]"><b>two</b></w></c>"#).unwrap();
        let q = |p: &str| XPath::new(p).map(|x| x.eval_strings(&d));
        assert_eq!(q("/c/w[@s='a]b']/b/text()").unwrap(), ["one"]);
        assert_eq!(q("/c/w[contains(@s, ']')]/b/text()").unwrap(), ["one", "two"]);
        assert_eq!(q(r#"/c/w[@s="]"][1]/b/text()"#).unwrap(), ["two"]);
        assert!(q("/c/w[@s='a]").is_err());
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

    /// A column's strings, sized once.
    #[derive(Default)]
    struct Column(Vec<String>);

    impl StringSink for Column {
        fn push(&mut self, string: &str) {
            self.0.push(string.to_string());
        }
    }

    /// A filtered walk over a regular catalog reads each record's tested
    /// field, then the kept records' other two; the fact it relies on is
    /// derived by the first walk only. One record missing a field makes
    /// the walk read every field to check the records, then every field
    /// again to write them unfiltered.
    #[cfg(debug_assertions)]
    #[test]
    fn a_filtered_walk_reads_the_tested_field_then_the_kept_records() {
        let catalog = |missing: Option<usize>| {
            let mut xml = String::from("<c>");
            for i in 0..1_000 {
                let price = if missing == Some(i) { String::new() } else { format!("<p>{i}</p>") };
                xml.push_str(&format!("<w><b>b{}</b>{price}<k>steel</k></w>", i % 10));
            }
            parse(&(xml + "</c>")).unwrap()
        };
        let paths: Vec<XPath> =
            ["b", "p", "k"].map(|f| XPath::new(&format!("/c/w/{f}/text()")).unwrap()).into();
        let refs: Vec<&XPath> = paths.iter().collect();
        // Fields read, whether filtered, the kept positions and columns.
        let walk = |doc: &Document| {
            let before = fields_read_on_this_thread();
            let mut columns: Vec<Column> = (0..3).map(|_| Column::default()).collect();
            let mut ordinals = Vec::new();
            let keep = |_, fields: &RecordFields<'_>| fields.get(0) == "b3";
            let filter = Some((keep, &mut ordinals));
            let grouped = XPath::each_string_grouped(&refs, doc, &mut columns, filter);
            let columns: Vec<Vec<String>> = columns.into_iter().map(|c| c.0).collect();
            (fields_read_on_this_thread() - before, grouped.filtered, ordinals, columns)
        };
        let regular = catalog(None);
        let (first, filtered, ordinals, columns) = walk(&regular);
        assert!(filtered);
        assert_eq!(ordinals, (0..100).map(|k| 10 * k + 3).collect::<Vec<u32>>());
        assert_eq!(columns[1][..2], ["3", "13"]);
        assert!(columns.iter().all(|c| c.len() == 100));
        let (second, ..) = walk(&regular);
        assert_eq!(second, 1_000 + 100 * 2, "the tested field of each record, then the kept");
        assert_eq!(first, second + 1_000 + 3_000, "the first walk reads each child element once");
        // The last record lacks its price: nothing is regular, and the
        // records are checked and written whole.
        let irregular = catalog(Some(999));
        walk(&irregular);
        let (read, filtered, ordinals, columns) = walk(&irregular);
        assert!(!filtered && ordinals.is_empty());
        assert_eq!(columns.iter().map(Vec::len).collect::<Vec<_>>(), [1_000, 999, 1_000]);
        assert_eq!(read, 2 * 2_999, "every field, checked then written");
    }
}
