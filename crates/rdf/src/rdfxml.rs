//! RDF/XML serialization and parsing.
//!
//! RDF/XML is the concrete syntax the paper's Instance Generator emits
//! ("the S2S middleware supports the output format OWL", which in
//! 2004–2006 practice meant OWL in RDF/XML). [`serialize`] writes it;
//! [`parse`] reads the common striped syntax back (typed node elements,
//! `rdf:Description`, `rdf:about`/`rdf:nodeID`/`rdf:resource`,
//! `rdf:datatype`, `xml:lang`, nested node elements), so the middleware's
//! OWL output round-trips in its native syntax.

use std::collections::BTreeMap;

use crate::error::RdfError;
use crate::graph::Graph;
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::Triple;
use crate::turtle::{push_qname, PrefixMap, QnameMemo};
use crate::vocab::{rdf, xsd};

/// Serializes `graph` as RDF/XML.
///
/// Triples are grouped into one `rdf:Description` element per subject;
/// `rdf:type` objects that abbreviate under `prefixes` become typed node
/// elements, matching the ontology-instance style of the paper's Figure 2
/// example.
///
/// The graph's SPO order already keeps each subject's triples together,
/// so the writer streams one subject run at a time straight into the
/// output buffer.
pub fn serialize(graph: &Graph, prefixes: &PrefixMap) -> String {
    // Instance data runs at about 60 bytes per triple; a low guess only
    // costs the usual regrowth.
    let mut out = String::with_capacity(graph.len() * 64);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<rdf:RDF xmlns:rdf=\"http://www.w3.org/1999/02/22-rdf-syntax-ns#\"");
    for (prefix, ns) in prefixes.iter() {
        if prefix != "rdf" {
            out.push_str("\n         xmlns:");
            out.push_str(prefix);
            out.push_str("=\"");
            push_escaped(&mut out, ns, true);
            out.push('"');
        }
    }
    out.push_str(">\n");

    let mut qnames = QnameMemo::new(prefixes);
    let mut triples = graph.iter().peekable();
    let mut run: Vec<&Triple> = Vec::new();
    while let Some(first) = triples.next() {
        run.clear();
        run.push(first);
        while let Some(t) = triples.next_if(|t| t.subject() == first.subject()) {
            run.push(t);
        }
        write_subject(&mut out, &run, &mut qnames);
    }
    out.push_str("</rdf:RDF>\n");
    out
}

/// Writes the node element for one subject's triples (SPO-ordered).
fn write_subject<'g>(out: &mut String, run: &[&'g Triple], qnames: &mut QnameMemo<'g>) {
    // The first rdf:type with a prefixed name becomes the element name
    // and is not repeated as a property.
    let typed = run.iter().enumerate().find_map(|(i, t)| {
        if t.predicate().as_str() != rdf::TYPE {
            return None;
        }
        Some((i, qnames.qname_parts(t.object().as_iri()?)?))
    });
    let push_element_name = |out: &mut String| match typed {
        Some((_, qname)) => push_qname(out, qname),
        None => out.push_str("rdf:Description"),
    };

    out.push_str("  <");
    push_element_name(out);
    push_node_ref(out, "about", run[0].subject());
    out.push_str(">\n");
    for (i, t) in run.iter().enumerate() {
        if typed.is_some_and(|(consumed, _)| consumed == i) {
            continue;
        }
        write_property(out, t.predicate(), t.object(), qnames);
    }
    out.push_str("  </");
    push_element_name(out);
    out.push_str(">\n");
}

/// Writes one property element; a predicate no prefix covers declares
/// an inline `ns0` namespace on the element.
fn write_property<'g>(
    out: &mut String,
    predicate: &'g Iri,
    object: &Term,
    qnames: &mut QnameMemo<'g>,
) {
    out.push_str("    <");
    let name_start = out.len();
    let qname = qnames.qname_parts(predicate);
    match qname {
        Some(qname) => push_qname(out, qname),
        None => {
            out.push_str("ns0:");
            out.push_str(predicate.local_name());
        }
    }
    let name = name_start..out.len();
    if qname.is_none() {
        out.push_str(" xmlns:ns0=\"");
        push_escaped(out, predicate.namespace(), true);
        out.push('"');
    }
    match object {
        Term::Literal(lit) => {
            if let Some(lang) = lit.language() {
                out.push_str(" xml:lang=\"");
                push_escaped(out, lang, true);
                out.push('"');
            } else if lit.datatype().as_str() != xsd::STRING {
                out.push_str(" rdf:datatype=\"");
                push_escaped(out, lit.datatype().as_str(), true);
                out.push('"');
            }
            out.push('>');
            push_escaped(out, lit.lexical(), false);
            out.push_str("</");
            out.extend_from_within(name);
            out.push_str(">\n");
        }
        node => {
            push_node_ref(out, "resource", node);
            out.push_str("/>\n");
        }
    }
}

/// Writes ` rdf:{iri_attr}="…"` for an IRI node, ` rdf:nodeID="…"` for
/// a blank one.
fn push_node_ref(out: &mut String, iri_attr: &str, node: &Term) {
    let (attr, value) = match node {
        Term::Iri(iri) => (iri_attr, iri.as_str()),
        Term::Blank(b) => ("nodeID", b.label()),
        Term::Literal(_) => unreachable!("literals are neither subjects nor node references"),
    };
    out.push_str(" rdf:");
    out.push_str(attr);
    out.push_str("=\"");
    push_escaped(out, value, true);
    out.push('"');
}

/// Appends `s` with `&`, `<`, `>` (and, in attribute values, `"`)
/// replaced by their entities, copying the clean stretches whole.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let special = |b: u8| matches!(b, b'&' | b'<' | b'>') || (attr && b == b'"');
    // Nearly every IRI and value is clean. Folding without an early
    // exit lets the compiler vectorize that check.
    if !s.bytes().fold(false, |dirty, b| dirty | special(b)) {
        out.push_str(s);
        return;
    }
    let mut rest = s;
    // All four are ASCII, so a byte offset is a char boundary.
    while let Some(i) = rest.bytes().position(special) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

// ----------------------------------------------------------------- parser

/// Namespace scope during the DOM walk.
#[derive(Debug, Clone, Default)]
struct NsEnv {
    /// prefix → namespace URI; `""` is the default namespace.
    bindings: BTreeMap<String, String>,
    /// Effective `xml:lang`, if any.
    lang: Option<String>,
}

impl NsEnv {
    fn child_scope(&self, element: &s2s_xml::Element) -> NsEnv {
        let mut scope = self.clone();
        for (name, value) in &element.attributes {
            if name == "xmlns" {
                scope.bindings.insert(String::new(), value.clone());
            } else if let Some(prefix) = name.strip_prefix("xmlns:") {
                scope.bindings.insert(prefix.to_string(), value.clone());
            } else if name == "xml:lang" {
                scope.lang = if value.is_empty() { None } else { Some(value.clone()) };
            }
        }
        scope
    }

    fn resolve(&self, qname: &str) -> Result<Iri, RdfError> {
        let (prefix, local) = match qname.split_once(':') {
            Some((p, l)) => (p, l),
            None => ("", qname),
        };
        let ns = self.bindings.get(prefix).ok_or_else(|| RdfError::Parse {
            line: 0,
            message: format!("undeclared XML namespace prefix `{prefix}` in `{qname}`"),
        })?;
        Iri::new(format!("{ns}{local}"))
    }
}

/// Parses an RDF/XML document into a [`Graph`].
///
/// Supports the striped syntax [`serialize`] produces plus common
/// hand-authored forms; RDF/XML's rarer abbreviations (property
/// attributes, `rdf:parseType`, containers) are not supported and
/// produce a parse error or are skipped if unrecognized-but-harmless.
///
/// # Errors
///
/// Returns [`RdfError::Parse`] on malformed XML, undeclared prefixes,
/// or invalid IRIs.
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    let doc = s2s_xml::parse(input)
        .map_err(|e| RdfError::Parse { line: 0, message: format!("xml error: {e}") })?;
    let env = NsEnv::default().child_scope(&doc.root);
    let rdf_rdf = env.resolve(&doc.root.name).ok();
    let expected = Iri::new(format!("{}RDF", rdf::NS)).expect("valid");
    if rdf_rdf.as_ref() != Some(&expected) {
        return Err(RdfError::Parse {
            line: 0,
            message: format!("root element is `{}`, expected rdf:RDF", doc.root.name),
        });
    }
    let mut graph = Graph::new();
    let mut blank_counter = 0usize;
    for node in doc.root.child_elements() {
        parse_node_element(node, &env, &mut graph, &mut blank_counter)?;
    }
    Ok(graph)
}

/// Parses one node element; returns its subject term.
fn parse_node_element(
    element: &s2s_xml::Element,
    parent_env: &NsEnv,
    graph: &mut Graph,
    blank_counter: &mut usize,
) -> Result<Term, RdfError> {
    let env = parent_env.child_scope(element);
    let subject: Term = if let Some(about) = element.attribute("rdf:about") {
        Term::Iri(Iri::new(about)?)
    } else if let Some(node_id) = element.attribute("rdf:nodeID") {
        Term::Blank(BlankNode::new(node_id)?)
    } else {
        *blank_counter += 1;
        Term::Blank(BlankNode::new(format!("genid{blank_counter}"))?)
    };

    // A typed node element asserts rdf:type.
    let elem_iri = env.resolve(&element.name)?;
    let description = Iri::new(format!("{}Description", rdf::NS)).expect("valid");
    if elem_iri != description {
        graph.insert(Triple::new(subject.clone(), rdf::type_(), elem_iri));
    }

    for prop in element.child_elements() {
        parse_property_element(prop, &subject, &env, graph, blank_counter)?;
    }
    Ok(subject)
}

fn parse_property_element(
    element: &s2s_xml::Element,
    subject: &Term,
    parent_env: &NsEnv,
    graph: &mut Graph,
    blank_counter: &mut usize,
) -> Result<(), RdfError> {
    let env = parent_env.child_scope(element);
    let predicate = env.resolve(&element.name)?;

    if let Some(resource) = element.attribute("rdf:resource") {
        let object = Term::Iri(Iri::new(resource)?);
        graph.insert(Triple::new(subject.clone(), predicate, object));
        return Ok(());
    }
    if let Some(node_id) = element.attribute("rdf:nodeID") {
        let object = Term::Blank(BlankNode::new(node_id)?);
        graph.insert(Triple::new(subject.clone(), predicate, object));
        return Ok(());
    }

    let nested: Vec<&s2s_xml::Element> = element.child_elements().collect();
    if !nested.is_empty() {
        for node in nested {
            let object = parse_node_element(node, &env, graph, blank_counter)?;
            graph.insert(Triple::new(subject.clone(), predicate.clone(), object));
        }
        return Ok(());
    }

    // Literal content.
    let text = element.own_text();
    let literal = if let Some(dt) = element.attribute("rdf:datatype") {
        Literal::typed(text, Iri::new(dt)?)
    } else if let Some(lang) = &env.lang {
        Literal::lang(text, lang.clone())?
    } else {
        Literal::string(text)
    };
    graph.insert(Triple::new(subject.clone(), predicate, literal));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Iri;
    use crate::triple::Triple;

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn prefixes() -> PrefixMap {
        let mut p = PrefixMap::with_well_known();
        p.insert("ex", "http://example.org/schema#");
        p
    }

    #[test]
    fn typed_node_element_used_for_rdf_type() {
        let mut g = Graph::new();
        let w = iri("http://example.org/product/81");
        g.insert(Triple::new(w.clone(), rdf::type_(), iri("http://example.org/schema#Watch")));
        g.insert(Triple::new(w, iri("http://example.org/schema#brand"), Literal::string("Seiko")));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("<ex:Watch rdf:about=\"http://example.org/product/81\">"), "{xml}");
        assert!(xml.contains("<ex:brand>Seiko</ex:brand>"), "{xml}");
        assert!(xml.contains("</ex:Watch>"), "{xml}");
    }

    #[test]
    fn untyped_subject_uses_description() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://example.org/schema#p"),
            Literal::string("v"),
        ));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("<rdf:Description rdf:about=\"http://x.org/s\">"), "{xml}");
    }

    #[test]
    fn literal_escaping() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://example.org/schema#p"),
            Literal::string("a<b>&c"),
        ));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("a&lt;b&gt;&amp;c"), "{xml}");
    }

    #[test]
    fn escaping_in_text_and_attribute_values() {
        let escaped = |s: &str, attr: bool| {
            let mut out = String::from("[");
            push_escaped(&mut out, s, attr);
            out + "]"
        };
        assert_eq!(escaped("clean é value", true), "[clean é value]");
        assert_eq!(escaped("", false), "[]");
        // Quotes are escaped in attribute values only.
        assert_eq!(escaped(r#"&a<"é">&"#, false), r#"[&amp;a&lt;"é"&gt;&amp;]"#);
        assert_eq!(escaped(r#"&a<"é">&"#, true), "[&amp;a&lt;&quot;é&quot;&gt;&amp;]");

        // An IRI may hold `&` and `"`; both attribute positions escape.
        let mut g = Graph::new();
        let odd = iri("http://x.org/q?a=1&b=\"2\"");
        g.insert(Triple::new(odd.clone(), iri("http://example.org/schema#p"), odd));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("rdf:about=\"http://x.org/q?a=1&amp;b=&quot;2&quot;\""), "{xml}");
        assert!(xml.contains("rdf:resource=\"http://x.org/q?a=1&amp;b=&quot;2&quot;\""), "{xml}");
        assert_eq!(parse(&xml).unwrap(), g);
    }

    #[test]
    fn typed_literal_gets_datatype_attr() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://example.org/schema#p"),
            Literal::integer(9),
        ));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("rdf:datatype=\"http://www.w3.org/2001/XMLSchema#integer\""), "{xml}");
    }

    #[test]
    fn lang_literal_gets_xml_lang() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://example.org/schema#p"),
            Literal::lang("montre", "fr").unwrap(),
        ));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("xml:lang=\"fr\""), "{xml}");
    }

    #[test]
    fn resource_object_uses_rdf_resource() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://example.org/schema#provider"),
            iri("http://x.org/casio"),
        ));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("<ex:provider rdf:resource=\"http://x.org/casio\"/>"), "{xml}");
    }

    #[test]
    fn unprefixed_property_gets_inline_namespace() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://nowhere.org/vocab#odd"),
            Literal::string("v"),
        ));
        let xml = serialize(&g, &prefixes());
        assert!(xml.contains("xmlns:ns0=\"http://nowhere.org/vocab#\""), "{xml}");
        assert!(xml.contains("<ns0:odd"), "{xml}");
    }

    #[test]
    fn well_formed_header_and_root() {
        let xml = serialize(&Graph::new(), &prefixes());
        assert!(xml.starts_with("<?xml version=\"1.0\""));
        assert!(xml.contains("<rdf:RDF"));
        assert!(xml.trim_end().ends_with("</rdf:RDF>"));
    }

    // ------------------------------------------------------- parser tests

    /// serialize → parse is the identity on every graph shape the
    /// serializer produces.
    #[test]
    fn parse_roundtrip_mixed_graph() {
        let mut g = Graph::new();
        let w = iri("http://example.org/product/81");
        g.insert(Triple::new(w.clone(), rdf::type_(), iri("http://example.org/schema#Watch")));
        g.insert(Triple::new(
            w.clone(),
            iri("http://example.org/schema#brand"),
            Literal::string("Seiko"),
        ));
        g.insert(Triple::new(
            w.clone(),
            iri("http://example.org/schema#price"),
            Literal::integer(129),
        ));
        g.insert(Triple::new(
            w.clone(),
            iri("http://example.org/schema#label"),
            Literal::lang("montre", "fr").unwrap(),
        ));
        g.insert(Triple::new(
            w,
            iri("http://example.org/schema#provider"),
            iri("http://example.org/data/acme"),
        ));
        g.insert(Triple::new(
            crate::BlankNode::new("b7").unwrap(),
            iri("http://example.org/schema#note"),
            Literal::string("anonymous subject"),
        ));
        let xml = serialize(&g, &prefixes());
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parse_typed_node_element() {
        let doc = r#"<?xml version="1.0"?>
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:ex="http://example.org/schema#">
              <ex:Watch rdf:about="http://example.org/w1">
                <ex:brand>Seiko</ex:brand>
              </ex:Watch>
            </rdf:RDF>"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 2);
        let watch = iri("http://example.org/schema#Watch");
        assert_eq!(g.instances_of(&watch).count(), 1);
    }

    #[test]
    fn parse_nested_node_elements() {
        let doc = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:ex="http://example.org/schema#">
              <rdf:Description rdf:about="http://example.org/w1">
                <ex:provider>
                  <ex:Provider rdf:about="http://example.org/acme">
                    <ex:name>Acme</ex:name>
                  </ex:Provider>
                </ex:provider>
              </rdf:Description>
            </rdf:RDF>"#;
        let g = parse(doc).unwrap();
        // provider link + type + name = 3 triples.
        assert_eq!(g.len(), 3);
        let s = Term::from(iri("http://example.org/w1"));
        let p = iri("http://example.org/schema#provider");
        assert_eq!(g.object(&s, &p).unwrap().as_iri().unwrap().as_str(), "http://example.org/acme");
    }

    #[test]
    fn parse_anonymous_nodes_get_fresh_blanks() {
        let doc = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:ex="http://example.org/schema#">
              <ex:Watch><ex:brand>A</ex:brand></ex:Watch>
              <ex:Watch><ex:brand>B</ex:brand></ex:Watch>
            </rdf:RDF>"#;
        let g = parse(doc).unwrap();
        let subjects: std::collections::BTreeSet<_> =
            g.iter().map(|t| t.subject().clone()).collect();
        assert_eq!(subjects.len(), 2);
        assert!(subjects.iter().all(|s| s.as_blank().is_some()));
    }

    #[test]
    fn parse_datatype_and_lang() {
        let doc = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:ex="http://example.org/schema#">
              <rdf:Description rdf:about="http://example.org/w1">
                <ex:price rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">42</ex:price>
                <ex:label xml:lang="fr">montre</ex:label>
              </rdf:Description>
            </rdf:RDF>"#;
        let g = parse(doc).unwrap();
        let lits: Vec<Literal> =
            g.iter().filter_map(|t| t.object().as_literal().cloned()).collect();
        assert!(lits.iter().any(|l| l.as_integer() == Some(42)));
        assert!(lits.iter().any(|l| l.language() == Some("fr")));
    }

    #[test]
    fn parse_default_namespace() {
        let doc = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns="http://example.org/schema#">
              <Watch rdf:about="http://example.org/w1"><brand>Seiko</brand></Watch>
            </rdf:RDF>"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.instances_of(&iri("http://example.org/schema#Watch")).count(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("<notrdf/>").is_err());
        assert!(parse("not xml at all").is_err());
        // Undeclared prefix on a property.
        let doc = r#"<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">
              <rdf:Description rdf:about="http://example.org/x">
                <ex:brand>Seiko</ex:brand>
              </rdf:Description>
            </rdf:RDF>"#;
        assert!(parse(doc).is_err());
    }

    #[test]
    fn parse_inline_ns0_namespace_from_serializer() {
        // The serializer declares ns0 inline for unprefixed properties;
        // the parser must honour element-scoped xmlns.
        let mut g = Graph::new();
        g.insert(Triple::new(
            iri("http://x.org/s"),
            iri("http://nowhere.org/vocab#odd"),
            Literal::string("v"),
        ));
        let xml = serialize(&g, &prefixes());
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, g);
    }
}
