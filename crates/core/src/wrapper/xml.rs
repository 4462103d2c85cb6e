//! The XML extractor: XPath and XQuery rules over a [`Document`].

use std::sync::Arc;

use s2s_xml::xpath::{RecordFields, XPath};
use s2s_xml::xquery::XQuery;
use s2s_xml::{Document, StringSink};

use super::{compiled_by, mismatch, CompiledRule, Filter, Ran, Wrapper};
use crate::bootstrap::{SchemaField, SchemaSummary};
use crate::error::S2sError;
use crate::extract::Values;
use crate::ledger::Unfiltered;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::condition_matches;
use crate::source::SourceKind;

/// An XML source.
pub(super) struct Xml<'a>(pub(super) &'a Document);

/// The evaluators size the node-set or the records before the first
/// string, so the column is reserved once.
impl StringSink for Values {
    fn size(&mut self, strings: usize, text_bytes: usize) {
        self.reserve(strings, text_bytes);
    }

    fn push(&mut self, string: &str) {
        Values::push(self, string);
    }
}

/// An XQuery hands its strings to a column it borrows.
impl StringSink for &mut Values {
    fn size(&mut self, strings: usize, text_bytes: usize) {
        self.reserve(strings, text_bytes);
    }

    fn push(&mut self, string: &str) {
        Values::push(self, string);
    }
}

impl Wrapper for Xml<'_> {
    fn kind(&self) -> SourceKind {
        SourceKind::Xml
    }

    fn compile(&self, rule: &ExtractionRule) -> Option<Result<CompiledRule, S2sError>> {
        let compiled = match rule {
            ExtractionRule::XPath { path } => {
                XPath::new(path).map(Arc::new).map(CompiledRule::XPath)
            }
            ExtractionRule::XQuery { query } => {
                XQuery::new(query).map(Arc::new).map(CompiledRule::XQuery)
            }
            _ => return None,
        };
        Some(compiled.map_err(S2sError::from))
    }

    /// Attribute values and single-text-node content borrowed from the
    /// document; mixed content composed in one reused buffer; each column
    /// reserved once from the node-set or the records. Paths that read
    /// a field of the same records ([`XPath::shares_records`]) are one
    /// walk ([`XPath::each_string_grouped`]); an XQuery runs alone.
    /// Filtered, the walk tests each record with the folded condition
    /// before it writes any of its fields; a record's number is its
    /// position among the records in document order.
    fn run(
        &self,
        mappings: &[&AttributeMapping],
        filter: &mut Filter<'_>,
        out: &mut Vec<Result<Values, S2sError>>,
    ) -> Ran {
        let start = out.len();
        let mut paths: Vec<&XPath> = Vec::with_capacity(mappings.len());
        let mut xqueries = 0;
        for m in mappings {
            out.push(compiled_by(self, m).and_then(|rule| match rule {
                CompiledRule::XPath(xpath) => {
                    paths.push(xpath);
                    Ok(Values::new())
                }
                CompiledRule::XQuery(xquery) => {
                    xqueries += 1;
                    let mut values = Values::new();
                    xquery.each_string(self.0, &mut values);
                    Ok(values)
                }
                _ => Err(mismatch(self, m)),
            }));
        }
        let mut columns: Vec<Values> = paths.iter().map(|_| Values::new()).collect();
        // Filtered only when one walk reads every rule of the source, and
        // the rules are of one record scenario.
        let all_paths = paths.len() == mappings.len();
        let first_only =
            Filter::first_only(mappings).filter(|_| filter.fold.is_bound() && all_paths);
        let (fold, ordinals) = (&filter.fold, &mut filter.ordinals);
        let keep = |k: usize, fields: &RecordFields<'_>| {
            (k == 0 || first_only == Some(false))
                && fold.holds(&mut |j, c| condition_matches(c, fields.get(j)))
        };
        let bound = first_only.map(|_| (keep, ordinals));
        let grouped = XPath::each_string_grouped(&paths, self.0, &mut columns, bound);
        let statements = grouped.walks + xqueries;
        let mut columns = columns.into_iter();
        for (slot, m) in out[start..].iter_mut().zip(mappings) {
            if matches!(compiled_by(self, m), Ok(CompiledRule::XPath(_))) {
                *slot = Ok(columns.next().expect("one column per path"));
            }
        }
        if grouped.filtered {
            filter.number(&mut out[start..]);
        }
        let sole = statements == 1 && all_paths;
        let why = if sole { Unfiltered::Misaligned } else { Unfiltered::Statements };
        Ran::new(statements, filter, grouped.filtered, why)
    }

    /// `…/name/text()` without predicates reads `name`; a predicate, an
    /// element's descendant text or an XQuery may read anything.
    fn reads<'r>(&self, rule: &'r CompiledRule, read: &mut dyn FnMut(&'r str)) -> bool {
        let CompiledRule::XPath(xpath) = rule else { return false };
        let path = xpath.source();
        let leaf = path.strip_suffix("/text()").filter(|_| !path.contains('['));
        let leaf = leaf.and_then(|p| p.rsplit('/').next()).filter(|leaf| {
            !leaf.is_empty()
                && leaf.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        });
        leaf.map(read).is_some()
    }

    /// One field per leaf of the record element (`document_shape`); a
    /// root that is itself the only record is a single-record source.
    fn introspect(&self, _source: &str) -> Result<SchemaSummary, S2sError> {
        let shape = s2s_xml::document_shape(self.0);
        let record = match &shape.record_element {
            Some(r) => format!("/{}/{r}", shape.root),
            None => format!("/{}", shape.root),
        };
        let fields = shape
            .fields
            .iter()
            .map(|f| {
                let step = if f.from_attribute {
                    format!("@{}", f.name)
                } else {
                    format!("{}/text()", f.name)
                };
                SchemaField {
                    name: f.name.clone(),
                    hint: None,
                    samples: f.samples.clone(),
                    declared_numeric: None,
                    primary_key: false,
                    rule: ExtractionRule::XPath { path: format!("{record}/{step}") },
                }
            })
            .collect();
        let scenario = if shape.record_count == 1 && shape.record_element.is_none() {
            RecordScenario::SingleRecord
        } else {
            RecordScenario::MultiRecord
        };
        Ok(SchemaSummary {
            kind: SourceKind::Xml,
            container: shape.record_element.unwrap_or(shape.root),
            records: shape.record_count,
            fields,
            scenario,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::read_set;
    use super::*;

    fn reads(path: &str) -> Option<String> {
        let doc = s2s_xml::parse("<c/>").unwrap();
        read_set(&Xml(&doc), ExtractionRule::XPath { path: path.into() })
    }

    #[test]
    fn a_plain_text_path_reads_its_last_step_and_nothing_else_is_known() {
        assert_eq!(reads("/catalog/watch/price/text()").as_deref(), Some("price"));
        assert_eq!(reads("//watch/case_m/text()").as_deref(), Some("case_m"));
        for anything in [
            "/c/w[price < '100']/brand/text()",
            "//w[2]/brand/text()",
            "//watch/*/text()",
            "//watch/case_m",
            "/c/w/@id",
        ] {
            assert_eq!(reads(anything), None, "{anything}");
        }
        let doc = s2s_xml::parse("<c/>").unwrap();
        let xquery = ExtractionRule::XQuery { query: "for $w in //w return $w/b".into() };
        assert_eq!(read_set(&Xml(&doc), xquery), None);
    }

    fn introspect(xml: &str) -> SchemaSummary {
        Xml(&s2s_xml::parse(xml).unwrap()).introspect("XML").unwrap()
    }

    #[test]
    fn a_record_container_introspects_as_multi_record_leaf_paths() {
        let summary = introspect(
            "<catalog><watch id=\"1\"><brand>seiko</brand><price>120</price></watch></catalog>",
        );
        assert_eq!(summary.scenario, RecordScenario::MultiRecord);
        assert_eq!(summary.container, "watch");
        let rules: Vec<&str> = summary.fields.iter().map(|f| f.rule.text()).collect();
        assert_eq!(
            rules,
            ["/catalog/watch/@id", "/catalog/watch/brand/text()", "/catalog/watch/price/text()"]
        );
    }

    #[test]
    fn a_root_that_is_the_record_introspects_as_single_record() {
        let summary = introspect("<watch><brand>seiko</brand><price>120</price></watch>");
        assert_eq!(summary.scenario, RecordScenario::SingleRecord);
        assert_eq!(summary.fields[0].rule.text(), "/watch/brand/text()");
    }
}
