//! In-memory indexed triple store.
//!
//! [`Graph`] keeps its triples in one vector, sorted in SPO order and
//! free of duplicates. Membership, iteration, equality, every serializer
//! and every subject-led pattern read it directly, by binary search.
//! Patterns that leave the subject open read POS or OSP: two vectors of
//! *positions* into it, each derived on first use (one sort of `0..len`)
//! and dropped by the next write. They hold no terms, so building one
//! clones nothing.
//!
//! Producers build a graph once. [`FromIterator`] takes input already in
//! strict SPO order, such as the Instance Generator's or the reasoner's,
//! as the store itself, and sorts only input that is not. [`Extend`] and
//! [`Graph::extend_from`] merge a sorted run in one pass.
//! [`Graph::insert`] and [`Graph::remove`] are single edits: a binary
//! search, then O(1) at the end of the vector and O(n) anywhere else, so
//! a loop of them over unsorted input is quadratic.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::OnceLock;

use crate::term::{Iri, Term};
use crate::triple::Triple;
use crate::vocab::rdf;

/// An in-memory RDF graph: a sorted vector of triples plus POS/OSP
/// position indexes derived lazily from it.
///
/// Two graphs are equal when they hold the same triples; whether a
/// derived index happens to be built is not part of a graph's value, and
/// a clone starts without them.
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
    /// Strictly increasing in SPO order.
    spo: Vec<Triple>,
    /// Positions in `spo`, ordered by (predicate, object, subject).
    pos: OnceLock<Vec<usize>>,
    /// Positions in `spo`, ordered by (object, subject, predicate).
    osp: OnceLock<Vec<usize>>,
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
    ///
    /// A single edit: O(log n) to find the triple's place, then O(1) past
    /// the last triple and O(n) anywhere else, where the tail shifts. Load
    /// many triples with [`collect`](FromIterator) or [`extend`](Extend),
    /// which sort once.
    pub fn insert(&mut self, triple: Triple) -> bool {
        match self.spo.binary_search(&triple) {
            Ok(_) => false,
            Err(at) => {
                self.spo.insert(at, triple);
                self.drop_derived();
                true
            }
        }
    }

    /// Removes a triple; returns `true` if it was present.
    ///
    /// O(log n) to find it, then O(n) for the tail to shift, except for
    /// the last triple.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        match self.spo.binary_search(triple) {
            Ok(at) => {
                self.spo.remove(at);
                self.drop_derived();
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the graph contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.spo.binary_search(triple).is_ok()
    }

    /// Iterates over all triples in SPO order without cloning them.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> + '_ {
        self.spo.iter()
    }

    /// All triples in SPO order, as the slice they are stored in.
    pub(crate) fn triples(&self) -> &[Triple] {
        &self.spo
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

    fn pos(&self) -> &[usize] {
        self.pos.get_or_init(|| self.positions(|t| (t.predicate(), t.object(), t.subject())))
    }

    fn osp(&self) -> &[usize] {
        self.osp.get_or_init(|| self.positions(|t| (t.object(), t.subject(), t.predicate())))
    }

    /// The positions of the store ordered by `key` of their triples.
    fn positions<'g, K: Ord>(&'g self, key: impl Fn(&'g Triple) -> K) -> Vec<usize> {
        #[cfg(test)]
        tests::DERIVED_BUILDS.with(|n| n.set(n.get() + 1));
        let mut positions: Vec<usize> = (0..self.spo.len()).collect();
        positions.sort_unstable_by(|&a, &b| key(&self.spo[a]).cmp(&key(&self.spo[b])));
        positions
    }

    /// The positions in `index` whose triples `order` places equal to its
    /// probe; `index` must be sorted the way `order` compares.
    fn run<'g>(&'g self, index: &'g [usize], order: impl Fn(&Triple) -> Ordering) -> &'g [usize] {
        equal_run(index, |&at| order(&self.spo[at]))
    }

    /// Answers a triple pattern; `None` positions are wildcards.
    ///
    /// A pattern with a bound subject is a binary search of the store; one
    /// that leaves the subject open builds the POS (or, for object-only
    /// patterns, OSP) index on first use and searches that.
    pub fn match_pattern<'g>(
        &'g self,
        subject: Option<&'g Term>,
        predicate: Option<&'g Iri>,
        object: Option<&'g Term>,
    ) -> Box<dyn Iterator<Item = Triple> + 'g> {
        let spo = &self.spo;
        let triple_at = move |&at: &usize| spo[at].clone();
        match (subject, predicate, object) {
            (Some(s), Some(p), Some(o)) => Box::new(
                equal_run(spo, |t| (t.subject(), t.predicate(), t.object()).cmp(&(s, p, o)))
                    .iter()
                    .cloned(),
            ),
            (Some(s), Some(p), None) => Box::new(
                equal_run(spo, |t| (t.subject(), t.predicate()).cmp(&(s, p))).iter().cloned(),
            ),
            (Some(s), None, None) => {
                Box::new(equal_run(spo, |t| t.subject().cmp(s)).iter().cloned())
            }
            (None, Some(p), Some(o)) => Box::new(
                self.run(self.pos(), |t| (t.predicate(), t.object()).cmp(&(p, o)))
                    .iter()
                    .map(triple_at),
            ),
            (None, Some(p), None) => {
                Box::new(self.run(self.pos(), |t| t.predicate().cmp(p)).iter().map(triple_at))
            }
            (None, None, Some(o)) => {
                Box::new(self.run(self.osp(), |t| t.object().cmp(o)).iter().map(triple_at))
            }
            (Some(s), None, Some(o)) => Box::new(
                self.run(self.osp(), |t| (t.object(), t.subject()).cmp(&(o, s)))
                    .iter()
                    .map(triple_at),
            ),
            (None, None, None) => Box::new(spo.iter().cloned()),
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
        let run = self.run(self.pos(), |t| (t.predicate(), t.object()).cmp(&(&ty, &class)));
        run.iter().map(|&at| self.spo[at].subject().clone())
    }

    /// Merges all triples of `other` into `self` in one pass; returns how
    /// many were new.
    pub fn extend_from(&mut self, other: &Graph) -> usize {
        self.merge(&other.spo, Triple::clone)
    }

    /// Merges `run`, strictly increasing in SPO order, into the store in
    /// one pass; `own` makes the stored triple of an item not already
    /// held. Returns how many were new.
    fn merge<T: Borrow<Triple>>(
        &mut self,
        run: impl IntoIterator<Item = T>,
        own: impl Fn(T) -> Triple,
    ) -> usize {
        let run = run.into_iter();
        let held = std::mem::take(&mut self.spo);
        let mut merged = Vec::with_capacity(held.len() + run.size_hint().0);
        let mut held = held.into_iter().peekable();
        let mut added = 0;
        for item in run {
            merged.extend(std::iter::from_fn(|| held.next_if(|t| t < item.borrow())));
            if held.peek() != Some(item.borrow()) {
                merged.push(own(item));
                added += 1;
            }
        }
        merged.extend(held);
        self.spo = merged;
        if added > 0 {
            self.drop_derived();
        }
        added
    }

    /// All distinct predicates in the graph.
    pub fn predicates(&self) -> impl Iterator<Item = Iri> + '_ {
        let mut last = None;
        let predicates = self.pos().iter().map(|&at| self.spo[at].predicate());
        predicates.filter(move |p| last.replace(*p) != Some(*p)).cloned()
    }

    /// All distinct subjects in the graph.
    pub fn subjects_distinct(&self) -> impl Iterator<Item = Term> + '_ {
        let mut last = None;
        let subjects = self.spo.iter().map(Triple::subject);
        subjects.filter(move |s| last.replace(*s) != Some(*s)).cloned()
    }
}

/// The run of `items` that `order` places equal to its probe, in a slice
/// that `order` sorts: `Less` before the run, `Greater` after it.
fn equal_run<T>(items: &[T], order: impl Fn(&T) -> Ordering) -> &[T] {
    let start = items.partition_point(|item| order(item) == Ordering::Less);
    let len = items[start..].partition_point(|item| order(item) == Ordering::Equal);
    &items[start..start + len]
}

/// `triples` in strict SPO order: as they are if they already are (one
/// pass to check), else sorted and deduplicated. The check reads a
/// subject's run of clones, and the predicates and classes an answer
/// shares, by pointer ([`Iri`]'s order).
fn sorted_run(mut triples: Vec<Triple>) -> Vec<Triple> {
    if !triples.is_sorted_by(|a, b| a < b) {
        #[cfg(debug_assertions)]
        SORTS.with(|n| n.set(n.get() + 1));
        triples.sort_unstable();
        triples.dedup();
    }
    triples
}

#[cfg(debug_assertions)]
thread_local! {
    /// Runs this thread's graph builds had to sort.
    static SORTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many runs the graphs built on this thread had to sort, rather
/// than take as they came: a producer that emits in strict SPO order
/// leaves it unchanged. A diagnostic of debug builds, for tests.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn sorts_on_this_thread() -> usize {
    SORTS.with(std::cell::Cell::get)
}

impl Extend<Triple> for Graph {
    /// Sorts the incoming triples once, unless they already are in strict
    /// SPO order, and merges them in one pass; into an empty graph they
    /// become the store.
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        let run = sorted_run(iter.into_iter().collect());
        if self.spo.is_empty() {
            self.spo = run;
            self.drop_derived();
        } else {
            self.merge(run, |t| t);
        }
    }
}

impl FromIterator<Triple> for Graph {
    /// Takes triples already in strict SPO order as the store itself;
    /// sorts and deduplicates any others once.
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph { spo: sorted_run(iter.into_iter().collect()), ..Graph::default() }
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::vec::IntoIter<Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.spo.into_iter()
    }
}

impl<'g> IntoIterator for &'g Graph {
    type Item = &'g Triple;
    type IntoIter = std::slice::Iter<'g, Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.spo.iter()
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
