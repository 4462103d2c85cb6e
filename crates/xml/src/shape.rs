//! Structural introspection: element/attribute shape of a document.
//!
//! The semantic bootstrap pass (see `s2s-core`) derives candidate
//! ontology mappings from a source's native schema. For XML sources
//! that schema is implicit in the document structure, à la Janus: a
//! root container whose repeated child element is the *record*, whose
//! leaf children and attributes are the record's *fields*. This module
//! summarizes that shape without interpreting any values.

use crate::dom::{Document, Element};

/// Cap on the value samples retained per field — enough for type
/// sniffing without holding a large document's worth of text.
const MAX_SAMPLES: usize = 8;

/// One record field discovered in the document: a leaf child element or
/// an attribute of the record element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlField {
    /// The element or attribute local name.
    pub name: String,
    /// Whether the field is an XML attribute (true) or a leaf child
    /// element (false).
    pub from_attribute: bool,
    /// Up to 8 observed values (the sampling cap), in document order.
    pub samples: Vec<String>,
}

/// The structural summary of a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentShape {
    /// Local name of the root element.
    pub root: String,
    /// Local name of the repeated record element under the root, when
    /// the document follows the container/record pattern. `None` means
    /// the root itself is the single record.
    pub record_element: Option<String>,
    /// Number of record instances observed.
    pub record_count: usize,
    /// The record fields in first-appearance order (attributes first,
    /// then leaf children, per record element).
    pub fields: Vec<XmlField>,
}

/// Summarizes the element/attribute shape of `doc`.
///
/// Detection: if every child element of the root shares one name and
/// those children carry their own content (leaf children or
/// attributes), the document is a container of records of that name.
/// Otherwise the root itself is treated as one record whose leaf
/// children and attributes are the fields.
pub fn document_shape(doc: &Document) -> DocumentShape {
    let root = doc.root();
    let children: Vec<Element<'_>> = root.child_elements().collect();
    let homogeneous =
        !children.is_empty() && children.iter().all(|c| c.local_name() == children[0].local_name());
    if homogeneous {
        let mut fields: Vec<XmlField> = Vec::new();
        for &record in &children {
            collect_fields(record, &mut fields);
        }
        return DocumentShape {
            root: root.local_name().to_string(),
            record_element: Some(children[0].local_name().to_string()),
            record_count: children.len(),
            fields,
        };
    }
    let mut fields = Vec::new();
    collect_fields(root, &mut fields);
    DocumentShape {
        root: root.local_name().to_string(),
        record_element: None,
        record_count: 1,
        fields,
    }
}

/// Merges one record element's attributes and leaf children into the
/// accumulated field list, preserving first-appearance order.
fn collect_fields(record: Element<'_>, fields: &mut Vec<XmlField>) {
    for (name, value) in record.attributes() {
        push_sample(fields, name, true, value);
    }
    for child in record.child_elements() {
        if child.child_elements().next().is_none() {
            push_sample(fields, child.local_name(), false, &child.own_text());
        }
    }
}

fn push_sample(fields: &mut Vec<XmlField>, name: &str, from_attribute: bool, value: &str) {
    let field = match fields
        .iter_mut()
        .find(|f| f.name == name && f.from_attribute == from_attribute)
    {
        Some(f) => f,
        None => {
            fields.push(XmlField { name: name.to_string(), from_attribute, samples: Vec::new() });
            fields.last_mut().expect("just pushed")
        }
    };
    if field.samples.len() < MAX_SAMPLES {
        field.samples.push(value.trim().to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_of_records_detected() {
        let doc = crate::parse(
            "<catalog><watch id=\"1\"><brand>seiko</brand><price>120</price></watch>\
             <watch id=\"2\"><brand>casio</brand><price>80</price></watch></catalog>",
        )
        .unwrap();
        let shape = document_shape(&doc);
        assert_eq!(shape.root, "catalog");
        assert_eq!(shape.record_element.as_deref(), Some("watch"));
        assert_eq!(shape.record_count, 2);
        let names: Vec<(&str, bool)> =
            shape.fields.iter().map(|f| (f.name.as_str(), f.from_attribute)).collect();
        assert_eq!(names, vec![("id", true), ("brand", false), ("price", false)]);
        let brand = shape.fields.iter().find(|f| f.name == "brand").unwrap();
        assert_eq!(brand.samples, vec!["seiko", "casio"]);
    }

    #[test]
    fn single_record_root_detected() {
        let doc =
            crate::parse("<watch><brand>seiko</brand><price>120</price><case>steel</case></watch>")
                .unwrap();
        let shape = document_shape(&doc);
        assert_eq!(shape.record_element, None);
        assert_eq!(shape.record_count, 1);
        assert_eq!(shape.fields.len(), 3);
    }

    #[test]
    fn one_record_container_still_a_container() {
        let doc = crate::parse("<catalog><watch><brand>seiko</brand></watch></catalog>").unwrap();
        let shape = document_shape(&doc);
        assert_eq!(shape.record_element.as_deref(), Some("watch"));
        assert_eq!(shape.record_count, 1);
    }
}
