//! The XML extractor: XPath and XQuery rules over a [`Document`].

use std::sync::Arc;

use s2s_xml::xpath::XPath;
use s2s_xml::xquery::XQuery;
use s2s_xml::{push_child_predicate, Document};

use super::{value_field, CompiledRule, Pushed, Wrapper};
use crate::bootstrap::{SchemaField, SchemaSummary};
use crate::error::S2sError;
use crate::extract::Values;
use crate::mapping::{AttributeMapping, ExtractionRule, RecordScenario};
use crate::query::{CondOp, ResolvedCondition};
use crate::source::SourceKind;

/// An XML source.
pub(super) struct Xml<'a>(pub(super) &'a Document);

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
    /// document; mixed content composed in one reused buffer.
    fn run(&self, rule: &CompiledRule, values: &mut Values) -> Option<Result<(), S2sError>> {
        match rule {
            CompiledRule::XPath(xpath) => xpath.each_string(self.0, |s| values.push(s)),
            CompiledRule::XQuery(xquery) => xquery.each_string(self.0, |s| values.push(s)),
            _ => return None,
        }
        Some(Ok(()))
    }

    /// Splices `[guard op 'value']` into every kept XPath; `=` on a
    /// numeric literal stays residual (XPath `=` compares strings).
    fn push<'c>(
        &self,
        group: &[&AttributeMapping],
        kept: &[&AttributeMapping],
        conjuncts: &[&'c ResolvedCondition],
    ) -> Option<Pushed<'c>> {
        let mut paths: Vec<String> = Vec::with_capacity(kept.len());
        for m in kept {
            let ExtractionRule::XPath { path } = m.rule() else { return None };
            paths.push(path.clone());
        }
        let mut pushed = Vec::new();
        for &c in conjuncts {
            if c.op() == CondOp::Like {
                continue;
            }
            if c.op() == CondOp::Eq && c.value().parse::<f64>().is_ok() {
                continue;
            }
            let Some(guard) = value_field(self, group, &c.property) else { continue };
            // All-or-nothing per conjunct: every rule of the source must
            // accept the splice or value lists would misalign.
            let Ok(next) = paths
                .iter()
                .map(|p| push_child_predicate(p, guard, c.op(), c.value()))
                .collect::<Result<Vec<_>, _>>()
            else {
                continue;
            };
            paths = next;
            pushed.push(c);
        }
        if pushed.is_empty() {
            return None;
        }
        Some((paths.into_iter().map(|path| ExtractionRule::XPath { path }).collect(), pushed))
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
