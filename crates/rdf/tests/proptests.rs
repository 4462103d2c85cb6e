//! Property-based tests: serialization roundtrips and store invariants
//! over randomly generated graphs.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use s2s_rdf::turtle::PrefixMap;
use s2s_rdf::{ntriples, turtle, Graph, Iri, Literal, Term, Triple};

fn arb_iri() -> impl Strategy<Value = Iri> {
    ("[a-z][a-z0-9]{0,6}", "[A-Za-z0-9_]{1,8}")
        .prop_map(|(host, local)| Iri::new(format!("http://{host}.org/ns#{local}")).unwrap())
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Strings including characters that need escaping.
        "[ -~\\n\\t]{0,20}".prop_map(Literal::string),
        any::<i64>().prop_map(Literal::integer),
        any::<bool>().prop_map(Literal::boolean),
        ("[a-z0-9 ]{0,10}", "[a-z]{2}").prop_map(|(s, l)| Literal::lang(s, l).unwrap()),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![arb_iri().prop_map(Term::from), arb_literal().prop_map(Term::from)]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (arb_iri(), arb_iri(), arb_term()).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec(arb_triple(), 0..40).prop_map(|v| v.into_iter().collect())
}

/// `arb_graph` plus triples whose RDF/XML elements repeat: a prefixed
/// predicate with literals of two datatypes and with a language tag, an
/// un-prefixed (`ns0`) predicate, typed node elements of a prefixed and
/// of an un-prefixed class. Every other extra triple names its
/// predicate, class or datatype by an IRI of its own, of equal text, so
/// a name is met both as a clone and as an equal text.
fn arb_repeating_graph() -> impl Strategy<Value = Graph> {
    let extra = (arb_iri(), 0..7usize, any::<i64>(), any::<bool>());
    (arb_graph(), proptest::collection::vec(extra, 0..24)).prop_map(|(graph, extra)| {
        let iri = |text: &str| Iri::new(text).unwrap();
        let (prefixed, odd) = (iri("http://t.org/ns#p"), iri("http://odd.org/ns#q"));
        let (class, odd_class) = (iri("http://t.org/ns#C"), iri("http://odd.org/ns#D"));
        let integer = iri("http://www.w3.org/2001/XMLSchema#integer");
        let mut triples: Vec<Triple> = graph.into_iter().collect();
        for (k, (subject, choice, n, b)) in extra.into_iter().enumerate() {
            let name =
                |iri: &Iri| if k % 2 == 0 { iri.clone() } else { Iri::new(iri.as_str()).unwrap() };
            let number = Literal::typed(n.to_string(), name(&integer));
            let (predicate, object): (Iri, Term) = match choice {
                0 => (name(&prefixed), number.into()),
                1 => (name(&prefixed), Literal::boolean(b).into()),
                2 => (name(&prefixed), Literal::lang(n.to_string(), "en").unwrap().into()),
                3 => (name(&odd), Literal::string(n.to_string()).into()),
                4 => (name(&odd), number.into()),
                5 => (s2s_rdf::vocab::rdf::type_(), name(&class).into()),
                _ => (s2s_rdf::vocab::rdf::type_(), name(&odd_class).into()),
            };
            triples.push(Triple::new(subject, predicate, object));
        }
        triples.into_iter().collect()
    })
}

/// Texts of IRIs that often share a prefix or are one another's
/// prefix: `(a, b)`, `b` cut from or extending `a`, or another text.
fn arb_iri_texts() -> impl Strategy<Value = (String, String)> {
    ("[a-c/#]{0,6}", "[a-c/#]{0,6}", 0..4usize, 0..8usize).prop_map(|(a, other, how, cut)| {
        let b = match how {
            0 => a[..a.len() - cut.min(a.len())].to_string(),
            1 => format!("{a}{other}"),
            2 => a.clone(),
            _ => other,
        };
        (format!("http://x.org/{a}"), format!("http://x.org/{b}"))
    })
}

/// A valid IRI to mint under: a scheme of its own shape, then any text
/// an IRI may hold — colons, `#`, `/` and non-ASCII included.
fn arb_prefix() -> impl Strategy<Value = Iri> {
    let rest = prop_oneof!["[!-~]{0,12}", any::<String>()];
    ("[a-zA-Z][a-zA-Z0-9+.-]{0,5}", rest).prop_map(|(scheme, rest)| {
        let rest: String = rest
            .chars()
            .filter(|c| !(c.is_whitespace() || c.is_control() || "<>".contains(*c)))
            .collect();
        Iri::new(format!("{scheme}:{rest}")).expect("valid by construction")
    })
}

/// Text to append: mostly what a sanitized segment holds, and now and
/// then what an IRI may not — ASCII controls, angle brackets, Unicode
/// whitespace (U+0085, U+00A0, U+2028, U+3000) — or a second scheme.
fn arb_suffix() -> impl Strategy<Value = String> {
    const HOSTILE: [char; 12] = [
        '\0', '\t', '\n', '\x1b', '\x7f', '<', '>', ' ', '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}',
    ];
    let piece = prop_oneof![
        "[a-z0-9._-]{0,6}",
        (0..HOSTILE.len()).prop_map(|i| HOSTILE[i].to_string()),
        Just("x:y".to_string()),
        any::<String>(),
    ];
    proptest::collection::vec(piece, 0..4).prop_map(|pieces| pieces.concat())
}

/// One write of the [`Graph`] model test. Triples come from a small pool
/// so that inserts collide, removes hit and patterns match.
#[derive(Debug, Clone)]
enum Op {
    Insert(Triple),
    Remove(Triple),
    /// `extend`, into an empty graph or a non-empty one.
    Extend(Vec<Triple>),
    /// A bulk load: the graph `collect`ed from the run replaces the old.
    Load(Vec<Triple>),
    /// `extend_from` the graph `collect`ed from the run.
    ExtendFrom(Vec<Triple>),
}

fn pool_triple(s: usize, p: usize, o: usize) -> Triple {
    let iri = |kind: &str, i: usize| Iri::new(format!("http://pool.org/{kind}{i}")).unwrap();
    let object = match o {
        0..=2 => Term::from(iri("s", o)),
        3 => Term::from(Literal::string("v")),
        _ => Term::from(Literal::integer(o as i64)),
    };
    Triple::new(iri("s", s), iri("p", p), object)
}

fn arb_pool_triple() -> impl Strategy<Value = Triple> {
    (0..4usize, 0..3usize, 0..6usize).prop_map(|(s, p, o)| pool_triple(s, p, o))
}

/// Pool triples in one of the orders a bulk load meets: strict SPO order
/// (taken as it is), reversed, shuffled, or every triple twice.
fn arb_run() -> impl Strategy<Value = Vec<Triple>> {
    let keyed = proptest::collection::vec((arb_pool_triple(), any::<u32>()), 0..12);
    (keyed, 0..4u8).prop_map(|(mut keyed, order)| {
        if order == 2 {
            keyed.sort_by_key(|&(_, key)| key);
        }
        let mut run: Vec<Triple> = keyed.into_iter().map(|(t, _)| t).collect();
        match order {
            0 | 1 => {
                run.sort();
                run.dedup();
                if order == 1 {
                    run.reverse();
                }
            }
            3 => run.extend(run.clone()),
            _ => {}
        }
        run
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_pool_triple().prop_map(Op::Insert),
        arb_pool_triple().prop_map(Op::Insert),
        arb_pool_triple().prop_map(Op::Remove),
        arb_run().prop_map(Op::Extend),
        arb_run().prop_map(Op::Load),
        arb_run().prop_map(Op::ExtendFrom),
    ]
}

/// Every read of `graph` against a linear filter of `model`: the eight
/// `match_pattern` shapes bound to `probe`'s terms, `iter`, `contains`,
/// `predicates` and `subjects_distinct`.
fn check_reads(graph: &Graph, model: &[Triple], probe: &Triple) -> Result<(), TestCaseError> {
    let (s, p, o) = (probe.subject(), probe.predicate(), probe.object());
    for shape in 0..8u8 {
        let qs = (shape & 1 != 0).then_some(s);
        let qp = (shape & 2 != 0).then_some(p);
        let qo = (shape & 4 != 0).then_some(o);
        let mut expect: Vec<Triple> = model
            .iter()
            .filter(|t| {
                qs.is_none_or(|x| t.subject() == x)
                    && qp.is_none_or(|x| t.predicate() == x)
                    && qo.is_none_or(|x| t.object() == x)
            })
            .cloned()
            .collect();
        expect.sort();
        let mut got: Vec<Triple> = graph.match_pattern(qs, qp, qo).collect();
        got.sort();
        prop_assert_eq!(got, expect, "shape {:03b}", shape);
    }
    let mut sorted = model.to_vec();
    sorted.sort();
    prop_assert_eq!(graph.iter().cloned().collect::<Vec<_>>(), sorted);
    prop_assert_eq!(graph.contains(probe), model.contains(probe));
    let predicates: BTreeSet<Iri> = model.iter().map(|t| t.predicate().clone()).collect();
    prop_assert_eq!(graph.predicates().collect::<Vec<_>>(), Vec::from_iter(predicates));
    let subjects: BTreeSet<Term> = model.iter().map(|t| t.subject().clone()).collect();
    prop_assert_eq!(graph.subjects_distinct().collect::<Vec<_>>(), Vec::from_iter(subjects));
    Ok(())
}

proptest! {
    /// Minting under a validated prefix is `Iri::new` of the whole text:
    /// the same acceptance, the same IRI, the same error — and so is a
    /// text that does not extend the prefix.
    #[test]
    fn a_suffix_under_a_valid_prefix_is_the_whole_text(
        prefix in arb_prefix(),
        suffix in arb_suffix(),
    ) {
        let whole = format!("{}{suffix}", prefix.as_str());
        prop_assert_eq!(Iri::new_under(&prefix, &whole), Iri::new(&whole), "{:?} + {:?}", prefix, suffix);
        prop_assert_eq!(Iri::new_under(&prefix, &suffix), Iri::new(&suffix), "{:?} / {:?}", prefix, suffix);
    }

    /// N-Triples roundtrips losslessly.
    #[test]
    fn ntriples_roundtrip(g in arb_graph()) {
        let text = ntriples::serialize(&g);
        let g2 = ntriples::parse(&text).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Turtle roundtrips losslessly, with and without prefixes.
    #[test]
    fn turtle_roundtrip(g in arb_graph()) {
        let text = turtle::serialize(&g, &PrefixMap::new());
        let g2 = turtle::parse(&text).unwrap();
        prop_assert_eq!(&g, &g2);

        let mut p = PrefixMap::with_well_known();
        p.insert("t", "http://t.org/ns#");
        let text = turtle::serialize(&g, &p);
        let g3 = turtle::parse(&text).unwrap();
        prop_assert_eq!(&g, &g3);
    }

    /// `Iri` orders by pointer first, then by text: the order of its
    /// text, for IRIs that are each other's prefix, equal texts in
    /// distinct `Arc`s and clones of one — and so do terms and triples
    /// made of them.
    #[test]
    fn pointer_first_order_is_text_order((a, b) in arb_iri_texts()) {
        let (x, y) = (Iri::new(&a).unwrap(), Iri::new(&b).unwrap());
        prop_assert_eq!(x.cmp(&y), a.cmp(&b), "{} vs {}", a, b);
        prop_assert_eq!(x.partial_cmp(&y), Some(a.cmp(&b)));
        prop_assert_eq!(x == y, a == b);
        let twin = Iri::new(&a).unwrap();
        for same in [x.clone(), twin] {
            prop_assert_eq!(x.cmp(&same), std::cmp::Ordering::Equal);
            prop_assert_eq!(same.cmp(&y), a.cmp(&b));
        }
        let triple = |s: &Iri, p: &Iri, o: &Iri| Triple::new(s.clone(), p.clone(), o.clone());
        let (t, u) = (triple(&x, &x, &y), triple(&x, &Iri::new(&a).unwrap(), &x));
        prop_assert_eq!(t.cmp(&u), (&a, &a, &b).cmp(&(&a, &a, &a)));
        prop_assert_eq!(Term::from(x).cmp(&Term::from(y)), a.cmp(&b));
    }

    /// RDF/XML round-trips losslessly through serialize → parse, with
    /// elements that repeat, by clone and by equal text.
    #[test]
    fn rdfxml_roundtrip(g in arb_repeating_graph()) {
        let mut prefixes = PrefixMap::with_well_known();
        prefixes.insert("t", "http://t.org/ns#");
        let xml = s2s_rdf::rdfxml::serialize(&g, &prefixes);
        let g2 = s2s_rdf::rdfxml::parse(&xml).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Model test: any sequence of inserts, removes, bulk loads, extends
    /// and merges agrees with a naive `Vec<Triple>` that is filtered
    /// linearly. Every read runs after every write, so each write meets
    /// both derived indexes built, and one that changes the graph must
    /// drop them.
    #[test]
    fn graph_agrees_with_naive_vec_model(
        ops in proptest::collection::vec((arb_op(), arb_pool_triple()), 0..40),
    ) {
        let mut graph = Graph::new();
        let mut model: Vec<Triple> = Vec::new();
        let absorb = |model: &mut Vec<Triple>, run: &[Triple]| {
            for t in run {
                if !model.contains(t) {
                    model.push(t.clone());
                }
            }
        };
        let sorted = |model: &[Triple]| {
            let mut model = model.to_vec();
            model.sort();
            model
        };
        for (op, probe) in ops {
            let before = sorted(&model);
            match op {
                Op::Insert(t) => {
                    let fresh = !model.contains(&t);
                    absorb(&mut model, std::slice::from_ref(&t));
                    prop_assert_eq!(graph.insert(t), fresh);
                }
                Op::Remove(t) => {
                    let present = model.contains(&t);
                    model.retain(|m| m != &t);
                    prop_assert_eq!(graph.remove(&t), present);
                }
                Op::Extend(run) => {
                    absorb(&mut model, &run);
                    graph.extend(run);
                }
                Op::Load(run) => {
                    model.clear();
                    absorb(&mut model, &run);
                    graph = run.into_iter().collect();
                }
                Op::ExtendFrom(run) => {
                    absorb(&mut model, &run);
                    let other: Graph = run.into_iter().collect();
                    prop_assert_eq!(graph.extend_from(&other), model.len() - before.len());
                }
            }
            prop_assert_eq!(graph.len(), model.len());
            if sorted(&model) != before {
                prop_assert_eq!(graph.derived_indexes(), (false, false), "stale indexes kept");
            }
            check_reads(&graph, &model, &probe)?;
            prop_assert_eq!(graph.derived_indexes(), (true, true));
        }
    }

    /// Insert/remove keep len consistent and contains() truthful.
    #[test]
    fn insert_remove_consistency(triples in proptest::collection::vec(arb_triple(), 0..30)) {
        let mut g = Graph::new();
        let mut reference = std::collections::BTreeSet::new();
        for t in &triples {
            prop_assert_eq!(g.insert(t.clone()), reference.insert(t.clone()));
        }
        prop_assert_eq!(g.len(), reference.len());
        for t in &triples {
            prop_assert!(g.contains(t));
        }
        for t in &triples {
            prop_assert_eq!(g.remove(t), reference.remove(t));
        }
        prop_assert!(g.is_empty());
        // All indexes drained: full scan yields nothing.
        prop_assert_eq!(g.match_pattern(None, None, None).count(), 0);
    }

    /// Graph equality is insertion-order independent.
    #[test]
    fn order_independence(mut triples in proptest::collection::vec(arb_triple(), 0..25)) {
        let g1: Graph = triples.clone().into_iter().collect();
        triples.reverse();
        let g2: Graph = triples.into_iter().collect();
        prop_assert_eq!(g1, g2);
    }
}
