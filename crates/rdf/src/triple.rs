//! RDF triples.

use std::fmt;

use crate::term::{BlankNode, Iri, Term};

/// An RDF triple: subject (IRI or blank node), predicate (IRI), object
/// (any term).
///
/// # Examples
///
/// ```
/// use s2s_rdf::{Iri, Literal, Triple};
///
/// # fn main() -> Result<(), s2s_rdf::RdfError> {
/// let t = Triple::new(
///     Iri::new("http://example.org/p/81")?,
///     Iri::new("http://example.org/s#brand")?,
///     Literal::string("Seiko"),
/// );
/// assert_eq!(t.predicate().local_name(), "brand");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    subject: Term,
    predicate: Iri,
    object: Term,
}

impl Triple {
    /// Creates a triple. The subject may be anything convertible to a
    /// [`Term`] that is valid in subject position.
    ///
    /// # Panics
    ///
    /// Panics if `subject` converts to a literal term; use
    /// [`Triple::try_new`] to handle that case fallibly.
    pub fn new(subject: impl Into<Term>, predicate: Iri, object: impl Into<Term>) -> Self {
        Triple::try_new(subject, predicate, object)
            .expect("triple subject must be an IRI or blank node")
    }

    /// Creates a triple, returning `None` if the subject is a literal.
    pub fn try_new(
        subject: impl Into<Term>,
        predicate: Iri,
        object: impl Into<Term>,
    ) -> Option<Self> {
        let subject = subject.into();
        if !subject.is_subject() {
            return None;
        }
        Some(Triple { subject, predicate, object: object.into() })
    }

    /// The subject term (always an IRI or blank node).
    pub fn subject(&self) -> &Term {
        &self.subject
    }

    /// The predicate IRI.
    pub fn predicate(&self) -> &Iri {
        &self.predicate
    }

    /// The object term.
    pub fn object(&self) -> &Term {
        &self.object
    }

    /// Decomposes into `(subject, predicate, object)`.
    pub fn into_parts(self) -> (Term, Iri, Term) {
        (self.subject, self.predicate, self.object)
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

impl From<(Iri, Iri, Term)> for Triple {
    fn from((s, p, o): (Iri, Iri, Term)) -> Self {
        Triple::new(s, p, o)
    }
}

impl From<(BlankNode, Iri, Term)> for Triple {
    fn from((s, p, o): (BlankNode, Iri, Term)) -> Self {
        Triple::new(s, p, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    #[test]
    fn literal_subject_rejected() {
        assert!(Triple::try_new(
            Term::Literal(Literal::string("x")),
            iri("http://x.org/p"),
            Literal::string("y"),
        )
        .is_none());
    }

    #[test]
    fn display_is_ntriples_like() {
        let t = Triple::new(iri("http://x.org/s"), iri("http://x.org/p"), Literal::integer(3));
        assert_eq!(
            t.to_string(),
            "<http://x.org/s> <http://x.org/p> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> ."
        );
    }

    #[test]
    fn blank_subject_allowed() {
        let t = Triple::new(
            BlankNode::new("b0").unwrap(),
            iri("http://x.org/p"),
            iri("http://x.org/o"),
        );
        assert!(t.subject().as_blank().is_some());
    }

    #[test]
    fn into_parts_roundtrip() {
        let t = Triple::new(iri("http://x.org/s"), iri("http://x.org/p"), Literal::string("o"));
        let (s, p, o) = t.clone().into_parts();
        assert_eq!(Triple::new(s, p, o), t);
    }
}
