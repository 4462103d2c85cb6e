//! The web wrapper and the text extractor: WebL and regex rules over a
//! page of a [`WebStore`], read as HTML or (`html` off) as raw text.

use std::collections::BTreeMap;
use std::sync::Arc;

use s2s_textmatch::Regex;
use s2s_webdoc::{WebStore, WeblProgram, WeblValue};

use super::{compiled_by, mismatch, CompiledRule, Filter, Ran, Wrapper};
use crate::bootstrap::{SchemaField, SchemaSummary};
use crate::error::S2sError;
use crate::extract::Values;
use crate::ledger::Unfiltered;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::condition_matches;
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

    /// One rule at a time: a page shares no record scope yet. Filtered,
    /// the columns — when the multi-record ones are equal in length,
    /// value `i` of each being record `i`'s, and a single-record one's
    /// first value every record's — keep the records the folded
    /// condition holds for.
    fn run(
        &self,
        mappings: &[&AttributeMapping],
        filter: &mut Filter<'_>,
        out: &mut Vec<Result<Values, S2sError>>,
    ) -> Ran {
        let start = out.len();
        let mut statements = 0;
        for m in mappings {
            out.push(compiled_by(self, m).and_then(|rule| {
                let ran = self.run_one(rule).ok_or_else(|| mismatch(self, m))?;
                statements += 1;
                ran
            }));
        }
        if !filter.fold.is_bound() {
            return Ran { statements, unfiltered: None };
        }
        let Ok(columns) = out[start..].iter().map(|c| c.as_ref()).collect::<Result<Vec<_>, _>>()
        else {
            return Ran::new(statements, filter, false, Unfiltered::Statements);
        };
        let single = |j: usize| mappings[j].scenario() == RecordScenario::SingleRecord;
        let mut lengths = (0..columns.len()).filter(|&j| !single(j)).map(|j| columns[j].len());
        let multi = lengths.next();
        if lengths.any(|len| Some(len) != multi) {
            return Ran::new(statements, filter, false, Unfiltered::Misaligned);
        }
        // A single-record rule's source has its first record.
        let records = multi.unwrap_or(0).max(usize::from((0..columns.len()).any(single)));
        let (fold, ordinals) = (&filter.fold, &mut filter.ordinals);
        let value = |j: usize, i| if single(j) { columns[j].first() } else { columns[j].get(i) };
        let kept = (0..records).filter(|&i| {
            fold.holds(&mut |j, c| value(j, i).is_some_and(|v| condition_matches(c, v)))
        });
        ordinals.clear();
        ordinals.reserve(records);
        ordinals.extend(kept.map(|i| u32::try_from(i).expect("records fit in u32")));
        // Every column is one: value `j` is rule `j`'s.
        for (j, column) in out[start..].iter_mut().flatten().enumerate() {
            let all = filter.ordinals.as_slice();
            let records = if single(j) { &[0][..all.len().min(1)] } else { all };
            let value = |&i: &u32| column.get(i as usize);
            let mut kept = Values::new();
            kept.reserve(records.len(), records.iter().filter_map(value).map(str::len).sum());
            records.iter().filter_map(value).for_each(|v| kept.push(v));
            *column = kept;
        }
        filter.number(&mut out[start..]);
        Ran::new(statements, filter, true, Unfiltered::Misaligned)
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

    /// A multi-record plain-text source: its columns, equal in length,
    /// are filtered after extraction, so only the response shrinks and
    /// every kept record keeps its number.
    #[test]
    fn equal_length_text_columns_are_filtered() {
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("brand", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("price", "Watch", s2s_rdf::vocab::xsd::DECIMAL)
            .unwrap()
            .build()
            .unwrap();
        let deploy = |text: &str| {
            let mut s2s = S2s::new(ontology.clone());
            s2s.register_source("txt_list", text_file(text)).unwrap();
            for (attribute, pattern) in [("brand", r"brand: (\w+)"), ("price", r"price: (\d+)")] {
                let path = format!("thing.watch.{attribute}");
                let rule = regex(pattern, 1);
                s2s.register_attribute(&path, rule, "txt_list", RecordScenario::MultiRecord)
                    .unwrap();
            }
            s2s
        };
        let text = "brand: Alpha\nprice: 40\nbrand: Beta\nprice: 150\nbrand: Gamma\nprice: 90\n";
        // An engine with views binds nothing: its twin runs unfiltered.
        let twin = deploy(text).with_views().query("SELECT watch WHERE price<100").unwrap();
        let filtered = deploy(text).query("SELECT watch WHERE price<100").unwrap();
        assert_eq!(filtered.individuals().len(), 2, "Alpha and Gamma");
        assert_eq!(filtered.individuals(), twin.individuals(), "IRIs included");
        let row = filtered.source("txt_list").unwrap();
        assert_eq!(row.pushed_conjuncts(&filtered.plan), ["price < 100"]);
        assert!(
            filtered.stats.wire_response_bytes < twin.stats.wire_response_bytes,
            "the filter must trim Beta off the wire"
        );
        // A brand without a price: the columns do not line up.
        let ragged = deploy("brand: Alpha\nprice: 40\nbrand: Beta\nbrand: Gamma\nprice: 90\n");
        let out = ragged.query("SELECT watch WHERE price<100").unwrap();
        let row = out.source("txt_list").unwrap();
        assert!(row.pushed.is_empty());
        assert_eq!(row.unfiltered, Some(crate::ledger::Unfiltered::Misaligned));
        let twin = ragged.query("SELECT watch WHERE NOT (NOT (price < 100))").unwrap();
        assert_eq!(out.individuals(), twin.individuals());
    }

    /// A single-record rule's value is every record's, so a filtered
    /// source keeps it only with a record: when the condition rejects
    /// every record, the source answers no individual, not one made of
    /// its single-record values.
    #[test]
    fn a_single_record_value_goes_with_the_last_rejected_record() {
        let ontology = Ontology::builder("http://example.org/schema#")
            .class("Watch", None)
            .unwrap()
            .datatype_property("brand", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .datatype_property("vendor", "Watch", s2s_rdf::vocab::xsd::STRING)
            .unwrap()
            .build()
            .unwrap();
        let mut store = WebStore::new();
        store.register_html("http://shop/list", "<p>vendor: Acme</p><b>Seiko</b><b>Casio</b>");
        let page = Connection::Web { store: Arc::new(store), url: "http://shop/list".into() };
        let mut s2s = S2s::new(ontology);
        s2s.register_source("WEB", page).unwrap();
        let brand = ExtractionRule::Webl { program: "var b = TagTexts(Text(PAGE), \"b\");".into() };
        for (attribute, rule, scenario) in [
            ("brand", brand, RecordScenario::MultiRecord),
            ("vendor", regex(r"vendor: ([A-Z][a-z]+)", 1), RecordScenario::SingleRecord),
        ] {
            let path = format!("thing.watch.{attribute}");
            s2s.register_attribute(&path, rule, "WEB", scenario).unwrap();
        }
        for (q, individuals) in [
            ("SELECT watch WHERE brand = 'Timex'", 0),
            ("SELECT watch WHERE vendor = 'Other'", 0),
            ("SELECT watch WHERE vendor = 'Acme' AND brand != 'Seiko'", 1),
            ("SELECT watch WHERE vendor = 'Acme'", 2),
        ] {
            let out = s2s.query(q).unwrap();
            assert_eq!(out.source("WEB").unwrap().unfiltered, None, "{q}");
            assert_eq!(out.individuals().len(), individuals, "{q}");
        }
    }
}
