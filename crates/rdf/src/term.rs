//! RDF terms: IRIs, blank nodes, literals, and the [`Term`] union.
//!
//! All terms share their text via `Arc<str>`, so cloning terms and triples
//! is cheap — the triple store relies on this. Constructors validate the
//! borrowed text and allocate that `Arc<str>` directly: one heap block
//! per term, and only a rejected input is copied into its error.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::RdfError;
use crate::vocab::xsd;

/// An absolute IRI.
///
/// Validation is deliberately light (scheme + no whitespace/control
/// characters/angle brackets), matching what RDF serializations require.
///
/// IRIs order by their text. Two clones of one IRI share its text, so a
/// comparison of them is a pointer comparison: a graph's predicates and
/// classes, and a subject's run of triples, are clones of one `Iri`.
///
/// # Examples
///
/// ```
/// use s2s_rdf::Iri;
/// let iri = Iri::new("http://example.org/schema#brand")?;
/// assert_eq!(iri.as_str(), "http://example.org/schema#brand");
/// # Ok::<(), s2s_rdf::RdfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Iri(Arc<str>);

impl Ord for Iri {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Iri {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Iri {
    /// Creates a validated IRI.
    ///
    /// # Errors
    ///
    /// Returns [`RdfError::InvalidIri`] if `iri` is empty, lacks a scheme
    /// (`scheme:`), or contains whitespace, control characters, or angle
    /// brackets.
    pub fn new(iri: impl AsRef<str>) -> Result<Self, RdfError> {
        let iri = iri.as_ref();
        let invalid = |reason| Err(RdfError::InvalidIri { iri: iri.to_string(), reason });
        if iri.is_empty() {
            return invalid("empty");
        }
        if iri.chars().any(forbidden_in_iri) {
            return invalid(FORBIDDEN_REASON);
        }
        let scheme_ok = iri
            .split_once(':')
            .map(|(scheme, _)| {
                !scheme.is_empty()
                    && scheme.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                    && scheme.chars().all(|c| c.is_ascii_alphanumeric() || "+-.".contains(c))
            })
            .unwrap_or(false);
        if !scheme_ok {
            return invalid("missing or malformed scheme");
        }
        Ok(Iri(iri.into()))
    }

    /// What [`Iri::new`] returns for `iri`, `Ok` or `Err` alike — but
    /// when `iri` extends `prefix`, only the text after it is validated:
    /// `prefix` was validated when it was built, and appending text
    /// cannot empty it or move its scheme. One heap block, like `new`;
    /// minting many IRIs under one prefix does not re-scan the prefix
    /// each time.
    ///
    /// ```
    /// use s2s_rdf::Iri;
    /// let prefix = Iri::new("http://example.org/data/watch/db/")?;
    /// let iri = "http://example.org/data/watch/db/17";
    /// assert_eq!(Iri::new_under(&prefix, iri)?, Iri::new(iri)?);
    /// assert!(Iri::new_under(&prefix, "http://example.org/data/watch/db/a b").is_err());
    /// # Ok::<(), s2s_rdf::RdfError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RdfError::InvalidIri`] where [`Iri::new`] does.
    pub fn new_under(prefix: &Iri, iri: &str) -> Result<Self, RdfError> {
        let Some(suffix) = iri.strip_prefix(prefix.as_str()) else {
            return Iri::new(iri);
        };
        if suffix.chars().any(forbidden_in_iri) {
            return Err(RdfError::InvalidIri { iri: iri.to_string(), reason: FORBIDDEN_REASON });
        }
        Ok(Iri(iri.into()))
    }

    /// The IRI text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The local name: the part after the last `#` or `/`.
    ///
    /// ```
    /// use s2s_rdf::Iri;
    /// let iri = Iri::new("http://example.org/schema#brand")?;
    /// assert_eq!(iri.local_name(), "brand");
    /// # Ok::<(), s2s_rdf::RdfError>(())
    /// ```
    pub fn local_name(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['#', '/']) {
            Some(i) => &s[i + 1..],
            None => s,
        }
    }

    /// The namespace: everything up to and including the last `#` or `/`.
    pub fn namespace(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['#', '/']) {
            Some(i) => &s[..=i],
            None => "",
        }
    }
}

/// The characters an IRI may not contain anywhere.
fn forbidden_in_iri(c: char) -> bool {
    c.is_whitespace() || c.is_control() || c == '<' || c == '>'
}

const FORBIDDEN_REASON: &str = "contains whitespace, control characters, or angle brackets";

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::str::FromStr for Iri {
    type Err = RdfError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Iri::new(s)
    }
}

/// A blank node with an explicit label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label.
    ///
    /// # Errors
    ///
    /// Returns [`RdfError::InvalidBlankNode`] if the label is empty or
    /// contains characters outside `[A-Za-z0-9_-]`.
    pub fn new(label: impl AsRef<str>) -> Result<Self, RdfError> {
        let label = label.as_ref();
        if label.is_empty()
            || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(RdfError::InvalidBlankNode { label: label.to_string() });
        }
        Ok(BlankNode(label.into()))
    }

    /// The label, without the `_:` prefix.
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a datatype IRI or a language
/// tag (in which case the datatype is `rdf:langString`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    lexical: Arc<str>,
    datatype: Iri,
    language: Option<Arc<str>>,
}

impl Literal {
    /// A plain `xsd:string` literal.
    pub fn string(lexical: impl AsRef<str>) -> Self {
        Literal::typed(lexical, xsd::string())
    }

    /// A typed literal.
    pub fn typed(lexical: impl AsRef<str>, datatype: Iri) -> Self {
        Literal { lexical: lexical.as_ref().into(), datatype, language: None }
    }

    /// A language-tagged string.
    ///
    /// # Errors
    ///
    /// Returns [`RdfError::InvalidLanguageTag`] if `tag` is not of the form
    /// `xx` or `xx-YY` (ASCII letters/digits separated by `-`).
    pub fn lang(lexical: impl AsRef<str>, tag: impl AsRef<str>) -> Result<Self, RdfError> {
        let tag = tag.as_ref();
        let valid = !tag.is_empty()
            && tag
                .split('-')
                .all(|part| !part.is_empty() && part.chars().all(|c| c.is_ascii_alphanumeric()))
            && tag.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
        if !valid {
            return Err(RdfError::InvalidLanguageTag { tag: tag.to_string() });
        }
        Ok(Literal {
            lexical: lexical.as_ref().into(),
            datatype: crate::vocab::rdf::lang_string(),
            language: Some(tag.to_ascii_lowercase().into()),
        })
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), xsd::integer())
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(value: f64) -> Self {
        Literal::typed(format!("{value}"), xsd::decimal())
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(value.to_string(), xsd::boolean())
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The datatype IRI.
    pub fn datatype(&self) -> &Iri {
        &self.datatype
    }

    /// The language tag, if this is a language-tagged string.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// Parses the lexical form as an integer, if the datatype is numeric.
    pub fn as_integer(&self) -> Option<i64> {
        self.lexical.trim().parse().ok()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(self.lexical.len() + 2);
        out.push('"');
        escape_literal(&self.lexical, &mut out);
        out.push('"');
        f.write_str(&out)?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")
        } else if self.datatype.as_str() != xsd::STRING {
            write!(f, "^^{}", self.datatype)
        } else {
            Ok(())
        }
    }
}

impl From<&str> for Literal {
    fn from(s: &str) -> Self {
        Literal::string(s)
    }
}

impl From<String> for Literal {
    fn from(s: String) -> Self {
        Literal::string(s)
    }
}

impl From<i64> for Literal {
    fn from(v: i64) -> Self {
        Literal::integer(v)
    }
}

impl From<f64> for Literal {
    fn from(v: f64) -> Self {
        Literal::decimal(v)
    }
}

impl From<bool> for Literal {
    fn from(v: bool) -> Self {
        Literal::boolean(v)
    }
}

/// Any RDF term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI.
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// The IRI inside, if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The literal inside, if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// The blank node inside, if this term is one.
    pub fn as_blank(&self) -> Option<&BlankNode> {
        match self {
            Term::Blank(b) => Some(b),
            _ => None,
        }
    }

    /// Whether the term may appear in subject position (IRI or blank node).
    pub fn is_subject(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

/// Escapes a string for N-Triples / Turtle double-quoted form.
pub(crate) fn escape_literal(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_validation() {
        assert!(Iri::new("http://example.org/a").is_ok());
        assert!(Iri::new("urn:uuid:1234").is_ok());
        assert!(Iri::new("").is_err());
        assert!(Iri::new("no-scheme-here").is_err());
        assert!(Iri::new("http://example.org/a b").is_err());
        assert!(Iri::new("1http://x").is_err());
        assert!(Iri::new("http://exa<mple.org").is_err());
    }

    #[test]
    fn iri_local_name_and_namespace() {
        let i = Iri::new("http://example.org/schema#brand").unwrap();
        assert_eq!(i.local_name(), "brand");
        assert_eq!(i.namespace(), "http://example.org/schema#");
        let i = Iri::new("http://example.org/product/81").unwrap();
        assert_eq!(i.local_name(), "81");
    }

    #[test]
    fn blank_node_validation() {
        assert!(BlankNode::new("b1").is_ok());
        assert!(BlankNode::new("").is_err());
        assert!(BlankNode::new("a b").is_err());
        assert_eq!(BlankNode::new("b1").unwrap().to_string(), "_:b1");
    }

    #[test]
    fn literal_kinds() {
        let s = Literal::string("Seiko");
        assert_eq!(s.lexical(), "Seiko");
        assert_eq!(s.datatype().as_str(), xsd::STRING);
        assert!(s.language().is_none());

        let i = Literal::integer(42);
        assert_eq!(i.as_integer(), Some(42));
        assert_eq!(i.datatype().as_str(), xsd::INTEGER);

        let l = Literal::lang("montre", "fr").unwrap();
        assert_eq!(l.language(), Some("fr"));
        assert!(Literal::lang("x", "").is_err());
        assert!(Literal::lang("x", "1x").is_err());
        assert!(Literal::lang("x", "en--us").is_err());
    }

    #[test]
    fn language_tag_lowercased() {
        let l = Literal::lang("x", "EN-US").unwrap();
        assert_eq!(l.language(), Some("en-us"));
    }

    #[test]
    fn literal_display_forms() {
        assert_eq!(Literal::string("a\"b").to_string(), r#""a\"b""#);
        assert_eq!(
            Literal::integer(5).to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Literal::lang("hi", "en").unwrap().to_string(), "\"hi\"@en");
        assert_eq!(Literal::string("line\nbreak").to_string(), "\"line\\nbreak\"");
    }

    #[test]
    fn numeric_accessors() {
        assert_eq!(Literal::string("x").as_integer(), None);
        assert_eq!(Literal::boolean(true).lexical(), "true");
    }

    #[test]
    fn term_accessors() {
        let t = Term::from(Iri::new("http://x.org/a").unwrap());
        assert!(t.as_iri().is_some());
        assert!(t.is_subject());
        let t = Term::from(Literal::string("x"));
        assert!(t.as_literal().is_some());
        assert!(!t.is_subject());
        let t = Term::from(BlankNode::new("b").unwrap());
        assert!(t.as_blank().is_some());
        assert!(t.is_subject());
    }

    #[test]
    fn term_ordering_is_total() {
        let mut terms = vec![
            Term::from(Literal::string("z")),
            Term::from(Iri::new("http://a.org/x").unwrap()),
            Term::from(BlankNode::new("b").unwrap()),
        ];
        terms.sort();
        terms.dedup();
        assert_eq!(terms.len(), 3);
    }
}
