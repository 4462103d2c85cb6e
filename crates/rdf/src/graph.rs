//! In-memory indexed triple store.
//!
//! [`Graph`] answers every triple pattern with at least one bound
//! position by a range scan over one of three orderings — SPO, POS, OSP.
//! Only SPO is maintained eagerly: it is what insertion, membership,
//! iteration, equality and every serializer read. POS and OSP are
//! *derived* from it on first use (one sorted bulk build each) and
//! dropped by the next mutation, so a write-heavy producer such as the
//! Instance Generator, whose graph is built, materialized and rendered
//! without ever asking a predicate- or object-led question, pays for one
//! index instead of three.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::term::{Iri, Term};
use crate::triple::Triple;
use crate::vocab::rdf;

/// An in-memory RDF graph: an eager SPO index plus POS/OSP indexes
/// derived lazily from it.
///
/// Two graphs are equal when they hold the same triples (SPO equality);
/// whether a derived index happens to be built is not part of a graph's
/// value, and a clone starts without them.
///
/// # Examples
///
/// ```
/// use s2s_rdf::{Graph, Iri, Literal, Triple, Term};
///
/// # fn main() -> Result<(), s2s_rdf::RdfError> {
/// let mut g = Graph::new();
/// let s = Iri::new("http://x.org/s")?;
/// let p = Iri::new("http://x.org/p")?;
/// g.insert(Triple::new(s.clone(), p.clone(), Literal::string("v")));
/// assert_eq!(g.len(), 1);
/// assert_eq!(g.objects(&Term::from(s), &p).count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    spo: BTreeSet<Triple>,
    pos: OnceLock<BTreeSet<(Iri, Term, Term)>>,
    osp: OnceLock<BTreeSet<(Term, Term, Iri)>>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph { spo: self.spo.clone(), ..Graph::default() }
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.spo == other.spo
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let fresh = self.spo.insert(triple);
        if fresh {
            self.drop_derived();
        }
        fresh
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let removed = self.spo.remove(triple);
        if removed {
            self.drop_derived();
        }
        removed
    }

    /// Whether the graph contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.spo.contains(triple)
    }

    /// Iterates over all triples in SPO order without cloning them.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> + '_ {
        self.spo.iter()
    }

    /// Which derived indexes are currently built, as `(pos, osp)`. A
    /// diagnostic for tests and perf assertions: a producer that only
    /// inserts, iterates and serializes should leave both `false`.
    pub fn derived_indexes(&self) -> (bool, bool) {
        (self.pos.get().is_some(), self.osp.get().is_some())
    }

    fn drop_derived(&mut self) {
        self.pos.take();
        self.osp.take();
    }

    fn pos(&self) -> &BTreeSet<(Iri, Term, Term)> {
        self.pos.get_or_init(|| {
            #[cfg(test)]
            tests::DERIVED_BUILDS.with(|n| n.set(n.get() + 1));
            self.spo
                .iter()
                .map(|t| (t.predicate().clone(), t.object().clone(), t.subject().clone()))
                .collect()
        })
    }

    fn osp(&self) -> &BTreeSet<(Term, Term, Iri)> {
        self.osp.get_or_init(|| {
            #[cfg(test)]
            tests::DERIVED_BUILDS.with(|n| n.set(n.get() + 1));
            self.spo
                .iter()
                .map(|t| (t.object().clone(), t.subject().clone(), t.predicate().clone()))
                .collect()
        })
    }

    /// Answers a triple pattern; `None` positions are wildcards.
    ///
    /// Chooses the index giving the tightest range for the bound
    /// positions; a pattern that leaves the subject open builds the
    /// POS (or, for object-only patterns, OSP) index on first use.
    pub fn match_pattern<'g>(
        &'g self,
        subject: Option<&'g Term>,
        predicate: Option<&'g Iri>,
        object: Option<&'g Term>,
    ) -> Box<dyn Iterator<Item = Triple> + 'g> {
        match (subject, predicate, object) {
            (Some(s), Some(p), Some(o)) => Box::new(
                self.spo
                    .get(&Triple::from_parts(s.clone(), p.clone(), o.clone()))
                    .cloned()
                    .into_iter(),
            ),
            (Some(s), Some(p), None) => Box::new(
                self.spo
                    .range(Triple::from_parts(s.clone(), p.clone(), Term::min_value())..)
                    .take_while(move |t| t.subject() == s && t.predicate() == p)
                    .cloned(),
            ),
            (Some(s), None, None) => Box::new(
                self.spo
                    .range(Triple::from_parts(s.clone(), Iri::min_value(), Term::min_value())..)
                    .take_while(move |t| t.subject() == s)
                    .cloned(),
            ),
            (None, Some(p), Some(o)) => Box::new(
                self.pos()
                    .range((p.clone(), o.clone(), Term::min_value())..)
                    .take_while(move |(tp, to, _)| tp == p && to == o)
                    .map(|(p, o, s)| Triple::from_parts(s.clone(), p.clone(), o.clone())),
            ),
            (None, Some(p), None) => Box::new(
                self.pos()
                    .range((p.clone(), Term::min_value(), Term::min_value())..)
                    .take_while(move |(tp, _, _)| tp == p)
                    .map(|(p, o, s)| Triple::from_parts(s.clone(), p.clone(), o.clone())),
            ),
            (None, None, Some(o)) => Box::new(
                self.osp()
                    .range((o.clone(), Term::min_value(), Iri::min_value())..)
                    .take_while(move |(to, _, _)| to == o)
                    .map(|(o, s, p)| Triple::from_parts(s.clone(), p.clone(), o.clone())),
            ),
            (Some(s), None, Some(o)) => Box::new(
                self.osp()
                    .range((o.clone(), s.clone(), Iri::min_value())..)
                    .take_while(move |(to, ts, _)| to == o && ts == s)
                    .map(|(o, s, p)| Triple::from_parts(s.clone(), p.clone(), o.clone())),
            ),
            (None, None, None) => Box::new(self.iter().cloned()),
        }
    }

    /// The objects of all `(subject, predicate, ?)` triples.
    pub fn objects<'g>(
        &'g self,
        subject: &'g Term,
        predicate: &'g Iri,
    ) -> impl Iterator<Item = Term> + 'g {
        self.match_pattern(Some(subject), Some(predicate), None).map(|t| t.object().clone())
    }

    /// The first object of `(subject, predicate, ?)`, if any.
    pub fn object(&self, subject: &Term, predicate: &Iri) -> Option<Term> {
        self.objects(subject, predicate).next()
    }

    /// The subjects of all `(?, predicate, object)` triples.
    pub fn subjects<'g>(
        &'g self,
        predicate: &'g Iri,
        object: &'g Term,
    ) -> impl Iterator<Item = Term> + 'g {
        self.match_pattern(None, Some(predicate), Some(object)).map(|t| t.subject().clone())
    }

    /// All subjects with an `rdf:type` of `class`, from the POS index.
    pub fn instances_of<'g>(&'g self, class: &Iri) -> impl Iterator<Item = Term> + 'g {
        let (ty, class) = (rdf::type_(), Term::Iri(class.clone()));
        self.pos()
            .range((ty.clone(), class.clone(), Term::min_value())..)
            .take_while(move |(p, o, _)| *p == ty && *o == class)
            .map(|(_, _, s)| s.clone())
    }

    /// Merges all triples of `other` into `self`; returns how many were new.
    pub fn extend_from(&mut self, other: &Graph) -> usize {
        other.iter().filter(|t| self.insert((*t).clone())).count()
    }

    /// All distinct predicates in the graph.
    pub fn predicates(&self) -> impl Iterator<Item = Iri> + '_ {
        let mut last = None;
        let predicates = self.pos().iter().map(|(p, _, _)| p);
        predicates.filter(move |p| last.replace(*p) != Some(*p)).cloned()
    }

    /// All distinct subjects in the graph.
    pub fn subjects_distinct(&self) -> impl Iterator<Item = Term> + '_ {
        let mut last = None;
        let subjects = self.spo.iter().map(Triple::subject);
        subjects.filter(move |s| last.replace(*s) != Some(*s)).cloned()
    }
}

impl Extend<Triple> for Graph {
    /// Loads an empty graph in one sorted build (sort, dedup, bottom-up
    /// tree construction) instead of one tree descent per triple; a
    /// non-empty graph takes the triples one by one.
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        if self.spo.is_empty() {
            self.spo = iter.into_iter().collect();
            self.drop_derived();
        } else {
            for t in iter {
                self.insert(t);
            }
        }
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph { spo: iter.into_iter().collect(), ..Graph::default() }
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::collections::btree_set::IntoIter<Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.spo.into_iter()
    }
}

impl<'g> IntoIterator for &'g Graph {
    type Item = &'g Triple;
    type IntoIter = std::collections::btree_set::Iter<'g, Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.spo.iter()
    }
}

// Range-scan sentinels: the smallest possible values in each ordering.
// `Term` orders its variants Iri < Blank < Literal, and the empty-string
// sentinel IRI sorts before every valid IRI, so these bound every key.
trait MinValue {
    fn min_value() -> Self;
}

impl MinValue for Term {
    fn min_value() -> Term {
        Term::Iri(Iri::min_value())
    }
}

impl MinValue for Iri {
    fn min_value() -> Iri {
        Iri::sentinel_min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    thread_local! {
        /// Derived-index builds performed by this test's thread.
        pub(super) static DERIVED_BUILDS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        let s1 = iri("http://x.org/s1");
        let s2 = iri("http://x.org/s2");
        let p1 = iri("http://x.org/p1");
        let p2 = iri("http://x.org/p2");
        g.insert(Triple::new(s1.clone(), p1.clone(), Literal::string("a")));
        g.insert(Triple::new(s1.clone(), p2.clone(), Literal::string("b")));
        g.insert(Triple::new(s2.clone(), p1.clone(), Literal::string("a")));
        g.insert(Triple::new(s2, p2, iri("http://x.org/s1")));
        g
    }

    #[test]
    fn insert_is_idempotent() {
        let mut g = Graph::new();
        let t = Triple::new(iri("http://x.org/s"), iri("http://x.org/p"), Literal::string("v"));
        assert!(g.insert(t.clone()));
        assert!(!g.insert(t));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut g = sample();
        let t = Triple::new(iri("http://x.org/s1"), iri("http://x.org/p1"), Literal::string("a"));
        assert!(g.remove(&t));
        assert!(!g.remove(&t));
        assert_eq!(g.len(), 3);
        assert!(!g.contains(&t));
        // POS index no longer finds it.
        let p1 = iri("http://x.org/p1");
        let obj = Term::from(Literal::string("a"));
        let subs: Vec<_> = g.subjects(&p1, &obj).collect();
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn pattern_sp() {
        let g = sample();
        let s = Term::from(iri("http://x.org/s1"));
        let p = iri("http://x.org/p1");
        let hits: Vec<_> = g.match_pattern(Some(&s), Some(&p), None).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].object().as_literal().unwrap().lexical(), "a");
    }

    #[test]
    fn pattern_s_only() {
        let g = sample();
        let s = Term::from(iri("http://x.org/s1"));
        assert_eq!(g.match_pattern(Some(&s), None, None).count(), 2);
    }

    #[test]
    fn pattern_p_only() {
        let g = sample();
        let p = iri("http://x.org/p1");
        assert_eq!(g.match_pattern(None, Some(&p), None).count(), 2);
    }

    #[test]
    fn pattern_o_only() {
        let g = sample();
        let o = Term::from(Literal::string("a"));
        assert_eq!(g.match_pattern(None, None, Some(&o)).count(), 2);
    }

    #[test]
    fn pattern_po() {
        let g = sample();
        let p = iri("http://x.org/p1");
        let o = Term::from(Literal::string("a"));
        let subs: Vec<_> = g.subjects(&p, &o).collect();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn pattern_so() {
        let g = sample();
        let s = Term::from(iri("http://x.org/s2"));
        let o = Term::from(iri("http://x.org/s1"));
        assert_eq!(g.match_pattern(Some(&s), None, Some(&o)).count(), 1);
    }

    #[test]
    fn pattern_full_wildcard() {
        let g = sample();
        assert_eq!(g.match_pattern(None, None, None).count(), 4);
    }

    #[test]
    fn pattern_exact() {
        let g = sample();
        let s = Term::from(iri("http://x.org/s1"));
        let p = iri("http://x.org/p1");
        let o = Term::from(Literal::string("a"));
        assert_eq!(g.match_pattern(Some(&s), Some(&p), Some(&o)).count(), 1);
        let o2 = Term::from(Literal::string("zzz"));
        assert_eq!(g.match_pattern(Some(&s), Some(&p), Some(&o2)).count(), 0);
    }

    #[test]
    fn distinct_predicates_and_subjects() {
        let g = sample();
        assert_eq!(g.predicates().count(), 2);
        assert_eq!(g.subjects_distinct().count(), 2);
    }

    #[test]
    fn derived_indexes_build_lazily_once_and_drop_on_mutation() {
        let builds = || DERIVED_BUILDS.with(std::cell::Cell::get);
        let mut g = sample();
        let before = builds();
        let s = Term::from(iri("http://x.org/s1"));
        let p = iri("http://x.org/p1");
        let o = Term::from(Literal::string("a"));

        // Subject-led reads, iteration and membership are SPO only.
        assert_eq!(g.match_pattern(Some(&s), None, None).count(), 2);
        assert_eq!(g.match_pattern(Some(&s), Some(&p), None).count(), 1);
        assert_eq!(g.iter().count(), 4);
        assert_eq!(g.subjects_distinct().count(), 2);
        assert!(g.contains(&Triple::new(iri("http://x.org/s1"), p.clone(), o.clone())));
        assert_eq!((g.derived_indexes(), builds() - before), ((false, false), 0));

        // A read-only consumer builds each derived index at most once.
        for _ in 0..3 {
            assert_eq!(g.match_pattern(None, Some(&p), None).count(), 2);
            assert_eq!(g.subjects(&p, &o).count(), 2);
            assert_eq!(g.predicates().count(), 2);
        }
        assert_eq!((g.derived_indexes(), builds() - before), ((true, false), 1));
        for _ in 0..3 {
            assert_eq!(g.match_pattern(None, None, Some(&o)).count(), 2);
            assert_eq!(g.match_pattern(Some(&s), None, Some(&o)).count(), 1);
        }
        assert_eq!((g.derived_indexes(), builds() - before), ((true, true), 2));

        // A clone carries the triples, not the derived state; a no-op
        // write keeps the indexes, a real one drops them.
        assert_eq!(g.clone().derived_indexes(), (false, false));
        assert!(!g.insert(Triple::new(iri("http://x.org/s1"), p.clone(), o.clone())));
        assert_eq!(g.derived_indexes(), (true, true));
        assert!(g.remove(&Triple::new(iri("http://x.org/s1"), p.clone(), o.clone())));
        assert_eq!(g.derived_indexes(), (false, false));
        assert_eq!(g.subjects(&p, &o).count(), 1);
    }

    #[test]
    fn equality_is_spo_equality() {
        let (a, b) = (sample(), sample());
        let p = iri("http://x.org/p1");
        assert_eq!(a.match_pattern(None, Some(&p), None).count(), 2);
        assert_ne!(a.derived_indexes(), b.derived_indexes());
        assert_eq!(a, b);
    }

    #[test]
    fn literal_subject_pattern_matches_nothing() {
        let g = sample();
        let lit = Term::from(Literal::string("a"));
        assert_eq!(g.match_pattern(Some(&lit), None, None).count(), 0);
        assert_eq!(g.match_pattern(Some(&lit), Some(&iri("http://x.org/p1")), None).count(), 0);
    }

    #[test]
    fn bulk_extend_dedups_and_matches_one_by_one_inserts() {
        let triples: Vec<Triple> = sample().into_iter().collect();
        let doubled = triples.iter().rev().chain(triples.iter()).cloned();
        let mut bulk = Graph::new();
        bulk.extend(doubled.clone());
        let mut single = Graph::new();
        for t in doubled {
            single.insert(t);
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.len(), 4);
        // Extending a non-empty graph merges.
        bulk.extend([Triple::new(
            iri("http://x.org/new"),
            iri("http://x.org/p1"),
            Literal::string("n"),
        )]);
        assert_eq!(bulk.len(), 5);
    }

    #[test]
    fn extend_from_counts_new_only() {
        let mut g = sample();
        let mut h = Graph::new();
        h.insert(Triple::new(iri("http://x.org/s1"), iri("http://x.org/p1"), Literal::string("a")));
        h.insert(Triple::new(
            iri("http://x.org/new"),
            iri("http://x.org/p1"),
            Literal::string("n"),
        ));
        assert_eq!(g.extend_from(&h), 1);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let g = sample();
        let triples: Vec<_> = g.clone().into_iter().collect();
        let g2: Graph = triples.into_iter().collect();
        assert_eq!(g, g2);
    }

    #[test]
    fn instances_of_finds_typed_subjects() {
        let mut g = Graph::new();
        let c = iri("http://x.org/Watch");
        g.insert(Triple::new(iri("http://x.org/w1"), crate::vocab::rdf::type_(), c.clone()));
        g.insert(Triple::new(iri("http://x.org/w2"), crate::vocab::rdf::type_(), c.clone()));
        g.insert(Triple::new(
            iri("http://x.org/p"),
            crate::vocab::rdf::type_(),
            iri("http://x.org/Provider"),
        ));
        assert_eq!(g.instances_of(&c).count(), 2);
    }
}
