//! The web wrapper and the text extractor: WebL and regex rules over a
//! page of a [`WebStore`], read as HTML or (`html` off) as raw text.

use std::collections::BTreeMap;
use std::sync::Arc;

use s2s_textmatch::Regex;
use s2s_webdoc::{with_guards, GuardSpec, WebStore, WeblProgram, WeblValue};

use super::{compiled_by, mismatch, CompiledRule, Pushed, Wrapper};
use crate::bootstrap::{SchemaField, SchemaSummary};
use crate::error::S2sError;
use crate::extract::Values;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::ResolvedCondition;
use crate::source::SourceKind;

/// A web page (`html`) or a plain-text file.
pub(super) struct Web<'a> {
    pub(super) store: &'a WebStore,
    pub(super) url: &'a str,
    pub(super) html: bool,
}

/// HTML tags that carry page structure rather than record fields.
const STRUCTURAL_TAGS: &[&str] = &[
    "html", "head", "title", "meta", "link", "body", "div", "p", "ul", "ol", "li", "table",
    "thead", "tbody", "tr", "th", "td", "a", "script", "style", "br", "hr",
];

impl Wrapper for Web<'_> {
    fn kind(&self) -> SourceKind {
        if self.html {
            SourceKind::WebPage
        } else {
            SourceKind::TextFile
        }
    }

    fn compile(&self, rule: &ExtractionRule) -> Option<Result<CompiledRule, S2sError>> {
        Some(match rule {
            ExtractionRule::Webl { program } => WeblProgram::parse(program)
                .map(|p| CompiledRule::Webl(Arc::new(p)))
                .map_err(S2sError::from),
            ExtractionRule::TextRegex { pattern, group } => compile_regex(pattern, *group),
            _ => return None,
        })
    }

    /// One rule at a time: a page shares no record scope yet.
    fn run(
        &self,
        mappings: &[&AttributeMapping],
        out: &mut Vec<Result<Values, S2sError>>,
    ) -> usize {
        let mut statements = 0;
        for m in mappings {
            out.push(compiled_by(self, m).and_then(|rule| {
                let ran = self.run_one(rule).ok_or_else(|| mismatch(self, m))?;
                statements += 1;
                ran
            }));
        }
        statements
    }

    /// Masks each kept program with `Where` guards (compared as rule text)
    /// re-running the guard attribute's own program, one rewrite a rule.
    fn push<'c>(
        &self,
        group: &[&AttributeMapping],
        kept: &[&AttributeMapping],
        conjuncts: &[&'c ResolvedCondition],
    ) -> Option<Pushed<'c>> {
        let targets: Vec<String> =
            kept.iter().map(|m| webl_text_of(m.rule())).collect::<Option<_>>()?;
        let guard_of = |c: &ResolvedCondition| {
            group
                .iter()
                .filter(|m| m.property() == &c.property && c.compares_as_rule_text())
                .find_map(|m| webl_text_of(m.rule()))
        };
        let guards: Vec<(String, &'c ResolvedCondition)> =
            conjuncts.iter().filter_map(|&c| Some((guard_of(c)?, c))).collect();
        if guards.is_empty() {
            return None;
        }
        let specs: Vec<GuardSpec<'_>> =
            guards.iter().map(|(g, c)| (g.as_str(), c.op(), c.value())).collect();
        // All-or-nothing for the whole source: a rule that cannot take
        // the guard set leaves the source unpushed rather than misaligned.
        let programs =
            targets.iter().map(|t| with_guards(t, &specs)).collect::<Result<Vec<_>, _>>().ok()?;
        let rules = programs.into_iter().map(|program| ExtractionRule::Webl { program }).collect();
        Some((rules, guards.into_iter().map(|(_, c)| c).collect()))
    }

    /// A file's `label: value` fields, each read by a regex; a
    /// page's repeated leaf tags (structural ones left out, a lone
    /// `class` kept as a naming hint), each read with `TagTexts`.
    fn introspect(&self, source: &str) -> Result<SchemaSummary, S2sError> {
        let doc = self.store.fetch(self.url)?;
        let field = |name: String, samples, rule| SchemaField {
            name,
            hint: None,
            samples,
            declared_numeric: None,
            primary_key: false,
            rule,
        };
        let mut summary = SchemaSummary {
            kind: self.kind(),
            container: if self.html { "page" } else { "export" }.to_string(),
            records: 0,
            fields: Vec::new(),
            scenario: RecordScenario::MultiRecord,
        };
        if !self.html {
            for f in s2s_textmatch::sniff_labeled_fields(&doc.text()) {
                summary.records = summary.records.max(f.count);
                // A segment (after text start, `|` or a line break) that
                // opens with the label, so `price` skips `unit_price`; its
                // value read whole and trimmed, as sampled (`-5`, `1e3`).
                let label = &f.label;
                let pattern = format!(r"(?:^|[|\n])[ \t]*{label}[ \t]*:[ \t]*([^|\r\n]*[^|\s])");
                let rule = ExtractionRule::TextRegex { pattern, group: 1 };
                summary.fields.push(field(f.label, f.samples, rule));
            }
            return Ok(summary);
        }
        let Some(html) = doc.parsed() else {
            return Err(S2sError::Bootstrap {
                source: source.to_string(),
                message: format!("web source url `{}` is not an HTML document", self.url),
            });
        };
        for stat in html.tag_survey() {
            if STRUCTURAL_TAGS.contains(&stat.name.as_str()) || stat.samples.is_empty() {
                continue;
            }
            summary.records = summary.records.max(stat.count);
            let program = format!("var v = TagTexts(Text(PAGE), \"{}\");", stat.name);
            let mut tag = field(stat.name, stat.samples, ExtractionRule::Webl { program });
            if let [one] = stat.classes.as_slice() {
                tag.hint = Some(one.clone());
            }
            summary.fields.push(tag);
        }
        Ok(summary)
    }
}

impl Web<'_> {
    /// The values one rule extracts from the page; `None` when it is not
    /// a web rule.
    fn run_one(&self, rule: &CompiledRule) -> Option<Result<Values, S2sError>> {
        let mut values = Values::new();
        let ran = match rule {
            CompiledRule::Webl(program) => self.run_webl(program, &mut values),
            CompiledRule::Regex { re, group } => {
                self.store.fetch(self.url).map_err(S2sError::from).map(|doc| {
                    // A group this match did not go through (one side of
                    // an alternation) contributes nothing.
                    let text = doc.text();
                    re.find_iter(&text)
                        .filter_map(|m| m.get(*group))
                        .for_each(|c| values.push(c.text()));
                })
            }
            _ => return None,
        };
        Some(ran.map(|()| values))
    }

    /// Runs a program with `PAGE` and `URL` bound; a list result yields
    /// one value per item, its offsets reserved once from the list,
    /// anything else its text unless empty.
    fn run_webl(&self, program: &WeblProgram, values: &mut Values) -> Result<(), S2sError> {
        let doc = self.store.fetch(self.url)?;
        let doc = if self.html { doc.clone() } else { doc.as_plain_text() };
        let mut env = BTreeMap::new();
        env.insert("PAGE".to_string(), WeblValue::Page { url: self.url.to_string(), doc });
        env.insert("URL".to_string(), WeblValue::Str(self.url.to_string()));
        match program.run_with(self.store, env)? {
            WeblValue::List(items) => {
                values.reserve(items.len(), 0);
                items.iter().for_each(|item| values.push(&item.text()));
            }
            other => {
                let text = other.text();
                if !text.is_empty() {
                    values.push(&text);
                }
            }
        }
        Ok(())
    }
}

/// A regex rule asking for a group the pattern has.
fn compile_regex(pattern: &str, group: usize) -> Result<CompiledRule, S2sError> {
    let re = Regex::new(pattern).map_err(|e| {
        S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex {
            pattern: pattern.to_string(),
            message: e.to_string(),
        })
    })?;
    if group > re.capture_count() {
        return Err(S2sError::NoSuchRegexGroup {
            pattern: pattern.to_string(),
            group,
            groups: re.capture_count(),
        });
    }
    Ok(CompiledRule::Regex { re: Arc::new(re), group })
}

/// A web/text rule as WebL text the guard rewriter can compose:
/// `Extract(StripTags(PAGE), …)` reads `doc.text()` as the regex arm does
/// (parsed text for HTML pages, the raw source for plain text).
fn webl_text_of(rule: &ExtractionRule) -> Option<String> {
    match rule {
        ExtractionRule::Webl { program } => Some(program.clone()),
        // Pattern literals are raw until the closing backtick — a
        // backtick in the pattern cannot be rendered back.
        ExtractionRule::TextRegex { pattern, group } if !pattern.contains('`') => {
            Some(format!("Extract(StripTags(PAGE), `{pattern}`, {group});"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::compiled;
    use super::super::tests::{extract, mapping};
    use super::*;
    use crate::source::Connection;
    use crate::S2s;
    use s2s_owl::Ontology;

    fn text_file(text: &str) -> Connection {
        let mut store = WebStore::new();
        store.register_text("file:///x.txt", text);
        Connection::Text { store: Arc::new(store), url: "file:///x.txt".into() }
    }

    fn regex(pattern: &str, group: usize) -> ExtractionRule {
        ExtractionRule::TextRegex { pattern: pattern.into(), group }
    }

    #[test]
    fn hostile_regex_nesting_is_a_coded_error() {
        // Deep enough to overflow the stack of an uncapped parser.
        let pattern = format!("{}a{}", "(".repeat(200_000), ")".repeat(200_000));
        let err = compiled(&text_file(""), &mapping(regex(&pattern, 1))).unwrap_err();
        assert_eq!(err.code(), "s2s::webdoc");
        assert!(matches!(err, S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex { .. })));
    }

    #[test]
    fn hostile_regex_groups_are_a_coded_error() {
        // 31 KB of pattern whose search of `bbbb` took 1.9 s and 1.96 GB
        // before the thread table was bounded.
        let pattern = vec!["(a)"; 8_000].join("|");
        let m = mapping(regex(&pattern, 1));
        let started = std::time::Instant::now();
        let err = compiled(&text_file(""), &m).unwrap_err();
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_millis(100), "refused after {took:?}");
        assert_eq!(err.code(), "s2s::webdoc");
        assert!(err.help().unwrap().contains("(?:...)"));
        assert!(err.to_string().contains("thread table"), "{err}");
        assert!(matches!(err, S2sError::Webdoc(s2s_webdoc::WebdocError::BadRegex { .. })));
    }

    #[test]
    fn a_group_past_the_pattern_is_a_compile_error() {
        let file = text_file("");
        let err = compiled(&file, &mapping(regex("a(b)", 2))).unwrap_err();
        assert_eq!(err.code(), "s2s::regex::no_such_group");
        assert!(matches!(err, S2sError::NoSuchRegexGroup { group: 2, groups: 1, .. }), "{err:?}");
        let m = mapping(regex("a(b)", 1));
        assert!(matches!(compiled(&file, &m), Ok(CompiledRule::Regex { group: 1, .. })));
    }

    #[test]
    fn regex_group_that_sat_out_a_match_is_skipped_not_an_error() {
        let file = text_file("brand: Fossil\nbrand: Timex\n");
        let extract = |group| extract(&file, regex(r"brand: (F\w+)|brand: (T\w+)", group));
        // Each match goes through one side of the alternation only.
        assert_eq!(extract(0).unwrap(), ["brand: Fossil", "brand: Timex"]);
        assert_eq!(extract(1).unwrap(), ["Fossil"]);
        assert_eq!(extract(2).unwrap(), ["Timex"]);
        let err = extract(3).expect_err("the pattern has two groups");
        assert_eq!(err.code(), "s2s::regex::no_such_group");
        assert_eq!(err.failure_class(), crate::error::FailureClass::Permanent);
    }

    fn introspect(connection: &Connection) -> SchemaSummary {
        super::super::with(connection, |w| w.introspect("SRC")).unwrap()
    }

    /// A labelled field's pattern reads back every value the sniffer
    /// sampled, one per record: signed and exponent numbers, multi-word
    /// values, and a label that ends another one included.
    #[test]
    fn a_label_pattern_captures_every_sampled_value() {
        for (text, labels) in [
            (
                "brand: alpha | price: -5 | case: stainless steel\n\
                 brand: beta |price:+5| case: gold \n\
                 brand:gamma-2 | price: 1e3 | case: resin\n",
                ["brand", "price", "case"],
            ),
            (
                "unit_price: 7 | price: 70 | note: price: n/a\n\
                 price: 80| unit_price: 8 | note: x-price: 1\n\
                 \tprice: 90 |unit_price:9 | note: none\n",
                ["unit_price", "price", "note"],
            ),
        ] {
            let file = text_file(text);
            let summary = introspect(&file);
            assert_eq!(summary.scenario, RecordScenario::MultiRecord);
            let names: Vec<&str> = summary.fields.iter().map(|f| f.name.as_str()).collect();
            assert_eq!(names, labels);
            for field in &summary.fields {
                let values = extract(&file, field.rule.clone()).unwrap();
                assert_eq!(values, field.samples, "{}", field.name);
                assert_eq!(values.len(), 3, "{}", field.name);
            }
        }
    }

    #[test]
    fn a_page_introspects_its_leaf_tags_as_tag_text_programs() {
        let mut store = WebStore::new();
        store.register_html(
            "http://x/list",
            "<html><body><ul><li><b>seiko</b> <span class=\"price\">120</span></li></ul></body></html>",
        );
        let page = Connection::Web { store: Arc::new(store), url: "http://x/list".into() };
        let summary = introspect(&page);
        let fields: Vec<(&str, Option<&str>, &str)> = summary
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.hint.as_deref(), f.rule.text()))
            .collect();
        assert_eq!(
            fields,
            [
                ("b", None, "var v = TagTexts(Text(PAGE), \"b\");"),
                ("span", Some("price"), "var v = TagTexts(Text(PAGE), \"span\");"),
            ]
        );
        let bare = introspect(&text_file("no labels here"));
        assert!(bare.fields.is_empty(), "bootstrap, not the wrapper, refuses an empty schema");
    }

    /// A multi-record plain-text source: predicate pushing must guard
    /// the regex rules with `Where` masks.
    #[test]
    fn pushdown_guards_multirecord_text_rules() {
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("brand", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        let deploy = |pushdown: bool| {
            let mut s2s = S2s::new(ontology.clone());
            if pushdown {
                s2s = s2s.with_pushdown();
            }
            let file = text_file(
                "brand: Alpha\nprice: 40\nbrand: Beta\nprice: 150\nbrand: Gamma\nprice: 90\n",
            );
            s2s.register_source("txt_list", file).unwrap();
            for (attribute, pattern) in [("brand", r"brand: (\w+)"), ("price", r"price: (\d+)")] {
                let path = format!("thing.watch.{attribute}");
                let rule = regex(pattern, 1);
                s2s.register_attribute(&path, rule, "txt_list", RecordScenario::MultiRecord)
                    .unwrap();
            }
            s2s
        };
        let answer = |outcome: &crate::middleware::QueryOutcome| -> Vec<String> {
            let individuals = outcome.individuals().iter();
            let mut lines: Vec<String> =
                individuals.map(|i| format!("{}|{}|{:?}", i.source, i.class, i.values)).collect();
            lines.sort();
            lines
        };
        let q = "SELECT watch WHERE price<100";
        let baseline = deploy(false).query(q).unwrap();
        let pushed = deploy(true).query(q).unwrap();
        assert_eq!(baseline.individuals().len(), 2, "Alpha and Gamma");
        assert_eq!(answer(&baseline), answer(&pushed));
        assert_eq!(pushed.source("txt_list").unwrap().pushed, vec!["price < 100"]);
        assert!(
            pushed.stats.wire_response_bytes < baseline.stats.wire_response_bytes,
            "the Where mask must trim Beta off the wire"
        );
    }
}
