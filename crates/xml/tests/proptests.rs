//! Property tests: the arena parser agrees with the parser it replaced
//! (`tests/reference`) on generated documents and on byte-mutated
//! copies of them — the same tree, or the same error at the same
//! position with the same message — and the writer with the old writer;
//! the XPath evaluator agrees with the tree evaluator on generated
//! paths; serialization round-trips.

mod reference;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use proptest::TestRng;
use reference::dom as old;
use s2s_xml::parser::MAX_DEPTH;
use s2s_xml::xpath::{RecordFields, RecordFilter, XPath};
use s2s_xml::{parse, Document, Element, Node, StringSink};

/// The arena element as the old owned tree.
fn owned(e: Element<'_>) -> old::Element {
    old::Element {
        name: e.name().to_string(),
        attributes: e.attributes().map(|(n, v)| (n.to_string(), v.to_string())).collect(),
        children: e
            .children()
            .map(|c| match c {
                Node::Element(child) => old::Node::Element(owned(child)),
                Node::Text(t) => old::Node::Text(t.to_string()),
                Node::Comment(t) => old::Node::Comment(t.to_string()),
            })
            .collect(),
    }
}

/// A random element tree, depth <= 3, tag names from a small alphabet so
/// XPath queries have hits.
fn arb_element() -> impl Strategy<Value = old::Element> {
    let leaf = ("[abc]", "[ -~]{0,8}").prop_map(|(name, text)| {
        let mut e = old::Element::new(name);
        if !text.is_empty() {
            e.children.push(old::Node::Text(text));
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
                let mut e = old::Element::new(name);
                for (i, (n, v)) in attrs.into_iter().enumerate() {
                    // De-duplicate attribute names.
                    e.attributes.push((format!("{n}{i}"), v));
                }
                for c in children {
                    e.children.push(old::Node::Element(c));
                }
                e
            })
    })
}

/// Parses what the old writer wrote for `root`.
fn reparsed(root: &old::Element) -> Document {
    parse(&reference::writer::serialize_element(root)).unwrap()
}

/// Strips whitespace-only text nodes added by pretty-printing.
fn strip_ws(e: &mut old::Element) {
    e.children.retain(|c| match c {
        old::Node::Text(t) => !t.trim().is_empty(),
        _ => true,
    });
    for c in &mut e.children {
        if let old::Node::Element(el) = c {
            strip_ws(el);
        }
    }
}

/// Also strip from the reference when comparing round-trips (the
/// original may itself contain whitespace-only text nodes).
fn normalized(mut e: old::Element) -> old::Element {
    strip_ws(&mut e);
    e
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

const NAMES: [&str; 4] = ["a", "b", "a", "x:a"];
const VALUES: [&str; 6] = ["1", "2", "10", "x", "xy", ""];

/// Writes a random element: few names and values so steps and
/// predicates hit, both quote styles, entity and character references,
/// comments, processing instructions, CDATA sections (empty ones too)
/// next to text runs, non-ASCII text and whitespace, nested same-name
/// elements.
fn element(rng: &mut TestRng, depth: usize, out: &mut String) {
    let name = pick(rng, &NAMES);
    out.push('<');
    out.push_str(name);
    for attribute in ["id", "k"] {
        if rng.below(3) == 0 {
            let q = pick(rng, &["'", "\""]);
            let space = pick(rng, &[" ", "\n ", " \u{a0}"]);
            out.push_str(&format!("{space}{attribute} = {q}{}{q}", value(rng)));
        }
    }
    let children = rng.below(if depth == 0 { 3 } else { 7 });
    if children == 0 && rng.below(2) == 0 {
        out.push_str(pick(rng, &["/>", " />"]));
        return;
    }
    out.push('>');
    for _ in 0..children {
        match rng.below(if depth == 0 { 6 } else { 12 }) {
            0..=2 => out.push_str(&value(rng)),
            3 => out.push_str("<!--note-->"),
            4 => out.push_str(&format!("<![CDATA[{}]]>", pick(rng, &VALUES))),
            5 => out.push_str(pick(rng, &["<?pi data?>", " \n ", "é日"])),
            _ => element(rng, depth - 1, out),
        }
    }
    out.push_str(&format!("</{name}{}>", pick(rng, &["", "", " "])));
}

/// A value from [`VALUES`], some spelt with references (`&#120;` is
/// `x`).
fn value(rng: &mut TestRng) -> String {
    match rng.below(6) {
        0 => "&#120;&#x79;".to_string(),
        1 => "&lt;&amp;&gt;&quot;&apos;".to_string(),
        _ => pick(rng, &VALUES).to_string(),
    }
}

/// A random document: an optional declaration, doctype, comments and
/// processing instructions around one root element.
fn document(rng: &mut TestRng) -> String {
    let mut out = String::new();
    out.push_str(pick(rng, &["", "<?xml version=\"1.0\"?>\n", " "]));
    out.push_str(pick(rng, &["", "<!DOCTYPE a [<!ENTITY x \"y\">]>", "<!--top--><?pi?>"]));
    element(rng, 3, &mut out);
    out.push_str(pick(rng, &["", "\n", "<!--end-->"]));
    out
}

/// A byte-mutated copy of `xml`: truncated, one `<`, `>`, `&` or quote
/// flipped to another of them, an attribute written twice, or the root
/// nested just under or just past [`MAX_DEPTH`].
fn mutated(rng: &mut TestRng, xml: &str) -> String {
    match rng.below(4) {
        0 => {
            let mut cut = rng.below(xml.len() + 1);
            while !xml.is_char_boundary(cut) {
                cut -= 1;
            }
            xml[..cut].to_string()
        }
        1 => {
            const SPECIAL: &[u8] = b"<>&\"'";
            let at: Vec<usize> =
                (0..xml.len()).filter(|&i| SPECIAL.contains(&xml.as_bytes()[i])).collect();
            let mut bytes = xml.as_bytes().to_vec();
            if let Some(&i) = at.get(rng.below(at.len().max(1))) {
                let others: Vec<u8> = SPECIAL.iter().copied().filter(|&b| b != bytes[i]).collect();
                bytes[i] = others[rng.below(others.len())];
            }
            String::from_utf8(bytes).expect("an ASCII byte replaced by an ASCII byte")
        }
        2 => {
            let starts: Vec<usize> = xml.match_indices(" = ").map(|(i, _)| i).collect();
            let Some(&eq) = starts.get(rng.below(starts.len().max(1))) else {
                return xml.to_string();
            };
            let name_start = eq - if xml[..eq].ends_with("id") { 2 } else { 1 };
            let quote = &xml[eq + 3..eq + 4];
            let end = eq + 4 + xml[eq + 4..].find(quote).expect("a closed value") + 1;
            format!("{} {}{}", &xml[..end], &xml[name_start..end], &xml[end..])
        }
        _ => {
            let wraps = MAX_DEPTH - 5 + rng.below(6);
            format!("{}{xml}{}", "<n>".repeat(wraps), "</n>".repeat(wraps))
        }
    }
}

/// Strings packed as the engine packs a column, and the size the sink
/// was told before its first string (a second telling panics).
#[derive(Default)]
struct Packed {
    text: String,
    ends: Vec<usize>,
    size: Option<(usize, usize)>,
}

impl Packed {
    /// The strings, cut where each ends.
    fn strings(&self) -> Vec<&str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.text[start..end]).collect()
    }
}

impl StringSink for &mut Packed {
    fn size(&mut self, strings: usize, text_bytes: usize) {
        assert!(self.size.is_none() && self.ends.is_empty(), "sized twice or late");
        self.size = Some((strings, text_bytes));
    }

    fn push(&mut self, string: &str) {
        self.text.push_str(string);
        self.ends.push(self.text.len());
    }
}

/// Both parsers give the same tree, or the same error.
fn parsers_agree(xml: &str) -> Result<(), TestCaseError> {
    match (parse(xml), reference::parser::parse(xml)) {
        (Ok(new), Ok(old)) => {
            prop_assert_eq!(owned(new.root()), old.root.clone(), "{:?}", xml);
            prop_assert_eq!(new.had_declaration(), old.had_declaration);
            prop_assert_eq!(
                s2s_xml::serialize(&new),
                reference::writer::serialize(&old),
                "{:?}",
                xml
            );
        }
        (Err(new), Err(old)) => prop_assert_eq!(new, old, "{:?}", xml),
        (new, old) => prop_assert!(false, "{:?}: {:?} but the reference {:?}", xml, new, old),
    }
    Ok(())
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

/// A predicate on a record step, quoted one way so that paths written
/// alike are the same path.
fn record_predicate(rng: &mut TestRng) -> String {
    let (name, value) = (pick(rng, &NAMES), pick(rng, &VALUES));
    match rng.below(4) {
        0 => format!("[{}]", 1 + rng.below(3)),
        1 => format!("[@{}='{value}']", pick(rng, &["id", "k"])),
        2 => format!("[{name}='{value}']"),
        _ => format!("[{name} < '{value}']"),
    }
}

/// The rules of one XML source: one to five paths, most reading a field
/// of one set of records — an absolute prefix from the root or a `//`
/// prefix, whose records may nest, with `//` steps and predicates
/// allowed on its steps — and the rest another set, a field one step
/// deeper, or shaped so they split into none: a descendant field, a
/// predicate on the field. Each comes with its record prefix if it
/// splits.
fn record_paths(rng: &mut TestRng, root: &str) -> Vec<(String, Option<String>)> {
    let records = |rng: &mut TestRng| {
        let mut path = match rng.below(3) {
            0 => format!("//{}", pick(rng, &NAMES)),
            _ => format!("/{}", pick(rng, &[root, root, "*"])),
        };
        for step in 0..1 + rng.below(3) {
            if step > 0 {
                path.push_str(pick(rng, &["/", "/", "//"]));
                path.push_str(pick(rng, &["a", "b", "x:a", "*"]));
            }
            if rng.below(4) == 0 {
                path.push_str(&record_predicate(rng));
            }
        }
        path
    };
    let shared = records(rng);
    (0..1 + rng.below(5))
        .map(|_| {
            let records = match rng.below(8) {
                0 => records(rng),
                1 => format!("//{}", pick(rng, &NAMES)),
                _ => shared.clone(),
            };
            let name = pick(rng, &NAMES);
            // The field, and what of it the record prefix takes: a
            // field is the last child step, or an attribute.
            let (field, deeper) = match rng.below(8) {
                0 => (pick(rng, &["/@id", "/@k"]).to_string(), Some(String::new())),
                1 | 2 => (format!("/{name}/text()"), Some(String::new())),
                3 => (format!("/{name}"), Some(String::new())),
                4 => ("/*/text()".to_string(), Some(String::new())),
                5 => (format!("//{name}/text()"), None),
                6 => (format!("/{name}[1]/text()"), None),
                _ => (format!("/{name}/{name}/text()"), Some(format!("/{name}"))),
            };
            let split = deeper.map(|deeper| format!("{records}{deeper}"));
            (format!("{records}{field}"), split)
        })
        .collect()
}

/// A catalog whose records `w` each hold the fields `b`, `p` and `k`
/// once, as one non-empty text run, in any order — so the document
/// vouches for its records — but for one record in five, whose field
/// (the same one in each) is missing, repeated, empty, of two runs or
/// holding an element: one record missing it and another repeating it
/// still count one per record. A record may hold a record of its own,
/// and a stray element beside them may share the records' name or a
/// field's.
fn catalog(rng: &mut TestRng) -> String {
    fn record(rng: &mut TestRng, odd: Option<usize>, nest: bool, out: &mut String) {
        out.push_str("<w>");
        let turn = rng.below(3);
        for f in 0..3 {
            let name = ["b", "p", "k"][(f + turn) % 3];
            let value = pick(rng, &VALUES[..5]);
            out.push_str(pick(rng, &["", "", " \n "]));
            match (odd == Some(f)).then(|| rng.below(5)) {
                Some(0) => {}
                Some(1) => out.push_str(&format!("<{name}>{value}</{name}><{name}>2</{name}>")),
                Some(2) => out.push_str(pick(rng, &["<b></b>", "<p/>", "<k><![CDATA[]]></k>"])),
                Some(3) => out.push_str(&format!("<{name}>{value}<!--cut-->x</{name}>")),
                Some(_) => out.push_str(&format!("<{name}><e>{value}</e></{name}>")),
                None => out.push_str(&format!("<{name}>{value}</{name}>")),
            }
        }
        if nest && rng.below(4) == 0 {
            record(rng, None, false, out);
        }
        out.push_str("</w>");
    }
    let (records, odd) = (rng.below(6), rng.below(3));
    let stray = rng.below(records + 1);
    let mut out = String::from("<c>");
    for r in 0..=records {
        if r == stray {
            out.push_str(pick(rng, &["", "", "<s><w><b>1</b></w></s>", "<s><b/><p>x</p></s>"]));
        }
        if r < records {
            let odd = (rng.below(5) == 0).then_some(odd);
            record(rng, odd, true, &mut out);
        }
    }
    out + "</c>"
}

/// Rules over [`catalog`]: one to three fields of records `/c/w`, `//w`
/// (which nest) or `/*/w`, now and then an attribute or a path of other
/// records.
fn catalog_paths(rng: &mut TestRng) -> Vec<(String, Option<String>)> {
    let records = pick(rng, &["/c/w", "/c/w", "//w", "/*/w"]);
    (0..1 + rng.below(3))
        .map(|_| match rng.below(10) {
            0 => (format!("{records}/@id"), Some(records.to_string())),
            1 => ("/c/s/b/text()".to_string(), Some("/c/s".to_string())),
            2 | 3 => {
                (format!("{records}/{}", pick(rng, &["b", "p", "k"])), Some(records.to_string()))
            }
            _ => {
                let field = pick(rng, &["b", "p", "k"]);
                (format!("{records}/{field}/text()"), Some(records.to_string()))
            }
        })
        .collect()
}

/// Whether `record` has the field `field` (a path relative to it) once
/// as a filtered walk counts it: an attribute, or one matching child —
/// for `text()` one with text — and no matching child whose text (its
/// own for `text()`) is made of several runs.
fn has_one(record: Element<'_>, field: &str) -> bool {
    fn runs(e: Element<'_>, own: bool) -> usize {
        let run = |n| match n {
            Node::Text(_) => 1,
            Node::Element(child) if !own => runs(child, false),
            _ => 0,
        };
        e.children().map(run).sum()
    }
    if field.starts_with('@') {
        return XPath::new(field).unwrap().eval_strings_from(record).len() == 1;
    }
    let (name, own) = field.strip_suffix("/text()").map_or((field, false), |name| (name, true));
    let children = XPath::new(name).unwrap().eval_from(record);
    let counted = children.iter().filter(|c| !own || !c.own_text().is_empty()).count();
    counted == 1 && children.iter().all(|&c| runs(c, own) < 2)
}

/// [`catalog`]s vouch for their records about as often as not, so the
/// filtered-walk property meets the walk that reads a field only when
/// a test asks and the walk that checks every record: a catalog vouches
/// when each `w` has each field once, a leaf of one non-empty text run.
#[test]
fn catalogs_often_vouch_for_their_records_and_often_do_not() {
    let leaf = |e: Element<'_>| {
        let children: Vec<Node<'_>> = e.children().collect();
        matches!(children[..], [Node::Text(t)] if !t.is_empty())
    };
    let vouches = |doc: &Document| {
        XPath::new("//w").unwrap().eval(doc).iter().all(|&w| {
            ["b", "p", "k"].iter().all(|f| match &XPath::new(f).unwrap().eval_from(w)[..] {
                [field] => leaf(*field),
                _ => false,
            })
        })
    };
    let mut rng = TestRng::from_seed(0xca7a_1065);
    let regular = (0..1_000).filter(|_| vouches(&parse(&catalog(&mut rng)).unwrap())).count();
    assert!((250..=750).contains(&regular), "{regular} of 1 000 catalogs vouch");
}

/// The walks a grouped read of `rules` runs: one per record prefix,
/// one per rule that does not split.
fn walks(rules: &[(String, Option<String>)]) -> usize {
    let mut walks = 0;
    for (i, (_, records)) in rules.iter().enumerate() {
        match records {
            Some(records) if rules[..i].iter().any(|(_, r)| r.as_ref() == Some(records)) => {}
            _ => walks += 1,
        }
    }
    walks
}

/// The elements of the old tree in document order, each with its
/// position among all nodes — what an arena element's index is.
fn indexed(root: &old::Element) -> Vec<(usize, &old::Element)> {
    fn walk<'e>(e: &'e old::Element, next: &mut usize, out: &mut Vec<(usize, &'e old::Element)>) {
        out.push((*next, e));
        *next += 1;
        for c in &e.children {
            match c {
                old::Node::Element(child) => walk(child, next, out),
                _ => *next += 1,
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut 0, &mut out);
    out
}

proptest! {
    /// Generated documents and byte-mutated copies of them parse to the
    /// same tree as the reference parser builds, or fail with the same
    /// error, position and message.
    #[test]
    fn parser_agrees_with_reference_parser(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        for _ in 0..4 {
            let xml = document(&mut rng);
            prop_assert!(parse(&xml).is_ok(), "generated document does not parse: {:?}", xml);
            parsers_agree(&xml)?;
            for _ in 0..4 {
                parsers_agree(&mutated(&mut rng, &xml))?;
            }
        }
    }

    /// The step evaluator returns what the tree evaluator it replaced
    /// (`tests/reference`) returns — the same compile errors, the same
    /// elements (by document-order index) and the same strings, in the
    /// same order, collected into a list or handed to a sink that packs
    /// them into one buffer — from the document root and from an inner
    /// context element.
    #[test]
    fn xpath_agrees_with_reference_evaluator(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let xml = document(&mut rng);
        let doc = parse(&xml).unwrap();
        let tree = reference::parser::parse(&xml).unwrap().root;
        let elements = indexed(&tree);
        for _ in 0..8 {
            let mut path = xpath(&mut rng, doc.root().name());
            if rng.below(4) == 0 {
                // A truncated path: the same refusal from both compilers.
                let mut cut = rng.below(path.len() + 1);
                while !path.is_char_boundary(cut) {
                    cut -= 1;
                }
                path.truncate(cut);
            }
            let (new, old) = match (XPath::new(&path), reference::xpath::XPath::new(&path)) {
                (Ok(new), Ok(old)) => (new, old),
                (Err(new), Err(old)) => {
                    prop_assert_eq!(new, old);
                    continue;
                }
                (new, old) => {
                    prop_assert!(false, "{}: {:?} but the reference {:?}", path, new, old);
                    unreachable!()
                }
            };
            let (index, inner) = elements[rng.below(elements.len())];
            let context = doc.root().descendants().find(|e| e.index() == index);
            for (from, old_from) in [(doc.root(), &tree), (context.unwrap_or(doc.root()), inner)] {
                prop_assert_eq!(from.index(), elements.iter().find(|(_, e)| std::ptr::eq(*e, old_from)).unwrap().0);
                let want = old.eval_strings_from(old_from);
                prop_assert_eq!(&new.eval_strings_from(from), &want, "{} from <{}> of {}", path, from.name(), xml);
                // The sink form, packed the way the engine packs it: all
                // text in one buffer, cut where each string ends.
                let mut packed = Packed::default();
                new.each_string_from(from, &mut packed);
                let cut = packed.strings();
                let Packed { text, ends, size } = &packed;
                // At most as many strings as told; room for them unless
                // one was composed, which an attribute value never is,
                // and never more room than the document has text.
                let (told, room) = size.unwrap_or_default();
                let attribute = path.rsplit('/').next().is_some_and(|step| step.starts_with('@'));
                prop_assert!(
                    told >= ends.len() && (room >= text.len() || !attribute) && room <= xml.len(),
                    "told {:?} for {} strings of {} bytes: {} from <{}> of {}",
                    size, ends.len(), text.len(), path, from.name(), xml
                );
                prop_assert_eq!(cut, want, "sunk {} from <{}> of {}", path, from.name(), xml);
                let positions: Vec<usize> = old
                    .eval_from(old_from)
                    .into_iter()
                    .map(|e| elements.iter().find(|(_, o)| std::ptr::eq(*o, e)).unwrap().0)
                    .collect();
                let got: Vec<usize> = new.eval_from(from).into_iter().map(Element::index).collect();
                prop_assert_eq!(got, positions, "{} from <{}> of {}", path, from.name(), xml);
            }
        }
    }

    /// Paths read together read what each reads alone, and what the
    /// tree evaluator reads: paths that share their records are one walk
    /// over missing, repeated, empty and mixed-content fields,
    /// attributes, comments, prefixed names, `//` steps and predicates on
    /// a record step, records that nest or repeat; a descendant field or
    /// a field with a predicate is refused by the split and read alone.
    /// The walks reported are those.
    #[test]
    fn grouped_paths_read_what_each_path_reads(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let xml = document(&mut rng);
        let doc = parse(&xml).unwrap();
        let tree = reference::parser::parse(&xml).unwrap().root;
        let rules = record_paths(&mut rng, doc.root().name());
        let paths: Vec<XPath> = rules.iter().map(|(p, _)| XPath::new(p).unwrap()).collect();
        for (a, (a_text, a_records)) in paths.iter().zip(&rules) {
            for (b, (b_text, b_records)) in paths.iter().zip(&rules) {
                let shares = a_records.is_some() && a_records == b_records;
                prop_assert_eq!(a.shares_records(b), shares, "{} and {}", a_text, b_text);
            }
        }
        let mut packed: Vec<Packed> = paths.iter().map(|_| Packed::default()).collect();
        let refs: Vec<&XPath> = paths.iter().collect();
        let sinks = &mut packed.iter_mut().collect::<Vec<_>>();
        let grouped = XPath::each_string_grouped(&refs, &doc, sinks, None::<RecordFilter>);
        prop_assert_eq!(grouped.walks, walks(&rules), "{:?}", rules);
        prop_assert!(!grouped.filtered);
        for ((path, packed), (text, _)) in paths.iter().zip(&packed).zip(&rules) {
            let mut alone = Vec::new();
            path.each_string(&doc, |s: &str| alone.push(s.to_string()));
            prop_assert_eq!(&packed.strings(), &alone, "{} of {}", text, xml);
            let want = reference::xpath::XPath::new(text).unwrap().eval_strings_from(&tree);
            prop_assert_eq!(&packed.strings(), &want, "{} of {}", text, xml);
            let room = packed.size.map(|(_, room)| room);
            prop_assert!(room.is_some_and(|room| room <= xml.len()), "told {:?}", packed.size);
        }
    }

    /// A filtered walk is the unfiltered one restricted to the records it
    /// keeps: a record is kept when every test accepts its field, each
    /// kept record is numbered by its position among the records, and a
    /// path's strings are its unfiltered strings at those records. A
    /// record missing or repeating a field — an empty text is none, mixed
    /// content is one — or paths that do not all share their records
    /// make the walk run unfiltered. Records may nest. Half the documents
    /// are catalogs that mostly vouch for their records, so the walk
    /// reads a field only when a test asks; it decides as the check of
    /// every record decides.
    #[test]
    fn a_filtered_walk_is_the_grouped_walk_restricted_to_its_kept_records(seed in any::<u64>()) {
        use s2s_textmatch::{Comparand, ConstraintOp, ValueSpace};
        let mut rng = TestRng::from_seed(seed);
        let catalogs = rng.below(2) == 0;
        let xml = if catalogs { catalog(&mut rng) } else { document(&mut rng) };
        let doc = parse(&xml).unwrap();
        let rules = match catalogs {
            true => catalog_paths(&mut rng),
            false => record_paths(&mut rng, doc.root().name()),
        };
        let paths: Vec<XPath> = rules.iter().map(|(p, _)| XPath::new(p).unwrap()).collect();
        let refs: Vec<&XPath> = paths.iter().collect();
        let mut grouped: Vec<Packed> = paths.iter().map(|_| Packed::default()).collect();
        let sinks = &mut grouped.iter_mut().collect::<Vec<_>>();
        let unfiltered = XPath::each_string_grouped(&refs, &doc, sinks, None::<RecordFilter>);
        let ops = [
            ConstraintOp::Eq, ConstraintOp::Ne, ConstraintOp::Lt, ConstraintOp::Le,
            ConstraintOp::Gt, ConstraintOp::Ge, ConstraintOp::Like,
        ];
        let tests: Vec<(usize, Comparand)> = (0..1 + rng.below(2))
            .map(|_| {
                let op = ops[rng.below(ops.len())];
                let space = if rng.below(2) == 0 { ValueSpace::String } else { ValueSpace::Decimal };
                let constant = pick(&mut rng, &VALUES).to_string();
                (rng.below(paths.len()), Comparand::in_space(op, constant, space))
            })
            .collect();
        // Asked about the records in order, each with its field of every
        // path.
        let mut asked = 0;
        let mut keep = |k: usize, fields: &RecordFields<'_>| {
            assert_eq!(k, asked, "records are asked about in order");
            asked += 1;
            tests.iter().all(|(j, test)| test.test(fields.get(*j)))
        };
        let mut filtered: Vec<Packed> = paths.iter().map(|_| Packed::default()).collect();
        let mut ordinals = vec![99];
        let sinks = &mut filtered.iter_mut().collect::<Vec<_>>();
        let ran = XPath::each_string_grouped(&refs, &doc, sinks, Some((&mut keep, &mut ordinals)));
        prop_assert_eq!(ran.walks, unfiltered.walks);
        let ran_filtered = ran.filtered;
        let shared = rules.iter().all(|(_, records)| records.is_some() && *records == rules[0].1);
        let aligned = shared && {
            let prefix = rules[0].1.as_deref().unwrap_or_default();
            let fields: Vec<&str> =
                rules.iter().map(|(path, _)| &path[prefix.len() + 1..]).collect();
            let records = XPath::new(prefix).unwrap().eval(&doc);
            records.iter().all(|&r| fields.iter().all(|field| has_one(r, field)))
        };
        prop_assert_eq!(ran_filtered, aligned, "{:?} of {}", rules, xml);
        if !ran_filtered {
            prop_assert!(ordinals.is_empty());
            for (got, want) in filtered.iter().zip(&grouped) {
                prop_assert_eq!(got.strings(), want.strings(), "{:?} of {}", rules, xml);
            }
            return Ok(());
        }
        prop_assert!(shared, "filtered paths that do not share their records: {:?}", rules);
        let records = grouped[0].ends.len();
        for packed in &grouped {
            prop_assert_eq!(packed.ends.len(), records, "a field per record: {:?} of {}", rules, xml);
        }
        let kept: Vec<u32> = (0..records)
            .filter(|&r| tests.iter().all(|(j, test)| test.test(grouped[*j].strings()[r])))
            .map(|r| r as u32)
            .collect();
        prop_assert_eq!(&ordinals, &kept, "{:?} of {}", rules, xml);
        for (got, want) in filtered.iter().zip(&grouped) {
            let want: Vec<&str> = kept.iter().map(|&r| want.strings()[r as usize]).collect();
            prop_assert_eq!(got.strings(), want, "{:?} of {}", rules, xml);
        }
    }

    /// serialize → parse is the identity on normalized trees, and the
    /// writer writes what the old writer wrote.
    #[test]
    fn roundtrip(root in arb_element()) {
        let text = reference::writer::serialize_element(&root);
        let doc = parse(&text).unwrap();
        prop_assert_eq!(s2s_xml::serialize_element(doc.root()), text);
        prop_assert_eq!(normalized(owned(doc.root())), normalized(root));
    }

    /// Full-document serialization round-trips too.
    #[test]
    fn document_roundtrip(root in arb_element()) {
        let text = reference::writer::serialize(&old::Document::new(root.clone()));
        let doc = parse(&text).unwrap();
        let again = parse(&s2s_xml::serialize(&doc)).unwrap();
        prop_assert_eq!(normalized(owned(again.root())), normalized(root));
    }

    /// `//name` matches exactly the descendants with that name.
    #[test]
    fn descendant_axis_counts(root in arb_element()) {
        let doc = reparsed(&root);
        for name in ["a", "b", "c"] {
            let xpath = XPath::new(&format!("//{name}")).unwrap();
            let got = xpath.eval(&doc).len();
            let mut expect = doc.root().descendants().filter(|d| d.name() == name).count();
            if doc.root().name() == name {
                expect += 1; // descendant-or-self includes the root
            }
            prop_assert_eq!(got, expect, "name={}", name);
        }
    }

    /// `/root/*` returns exactly the root's child elements.
    #[test]
    fn child_wildcard(root in arb_element()) {
        let doc = reparsed(&root);
        let path = format!("/{}/*", doc.root().name());
        let got = XPath::new(&path).unwrap().eval(&doc).len();
        prop_assert_eq!(got, doc.root().child_elements().count());
    }

    /// Positional predicates partition: [1], [2], … together cover all
    /// matches of the unpredicated step.
    #[test]
    fn positional_partition(root in arb_element()) {
        let doc = reparsed(&root);
        let all = XPath::new("//a").unwrap().eval(&doc);
        // NB: `//a[n]` under our semantics indexes per context; the root
        // context `//a` is one candidate list, so positions are global.
        let mut recovered = 0;
        for i in 1..=all.len() {
            recovered += XPath::new(&format!("//a[{i}]")).unwrap().eval(&doc).len();
        }
        prop_assert_eq!(recovered, all.len());
    }

    /// text() never yields an empty string.
    #[test]
    fn text_step_is_own_text(root in arb_element()) {
        let doc = reparsed(&root);
        let own: Vec<String> = XPath::new("//a/text()").unwrap().eval_strings(&doc);
        for t in &own {
            prop_assert!(!t.is_empty());
        }
    }

    /// The parser never panics on arbitrary input, and fails as the
    /// reference parser does.
    #[test]
    fn parser_total(s in any::<String>()) {
        parsers_agree(&s)?;
    }

    /// Attribute values with XML-special characters survive.
    #[test]
    fn attribute_escaping(v in "[ -~&&[^<]]{0,12}") {
        let mut text = String::from("<a x=\"");
        s2s_xml::escape_attribute(&v, &mut text);
        text.push_str("\"/>");
        let doc = parse(&text).unwrap();
        prop_assert_eq!(doc.root().attribute("x"), Some(v.as_str()));
    }

    /// Text content with XML-special characters survives.
    #[test]
    fn text_escaping(v in "[ -~&&[^<]]{0,12}") {
        let mut text = String::from("<a>");
        s2s_xml::escape_text(&v, &mut text);
        text.push_str("</a>");
        let doc = parse(&text).unwrap();
        prop_assert_eq!(doc.root().own_text(), v);
    }
}
