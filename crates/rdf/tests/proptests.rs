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

/// One step of the [`Graph`] model test. Triples come from a small pool
/// so that inserts collide, removes hit and patterns match.
#[derive(Debug, Clone)]
enum Op {
    Insert(Triple),
    Remove(Triple),
    Extend(Vec<Triple>),
    Read(Triple),
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

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_pool_triple().prop_map(Op::Insert),
        arb_pool_triple().prop_map(Op::Insert),
        arb_pool_triple().prop_map(Op::Remove),
        proptest::collection::vec(arb_pool_triple(), 0..8).prop_map(Op::Extend),
        arb_pool_triple().prop_map(Op::Read),
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

    /// RDF/XML round-trips losslessly through serialize → parse.
    #[test]
    fn rdfxml_roundtrip(g in arb_graph()) {
        let mut prefixes = PrefixMap::with_well_known();
        prefixes.insert("t", "http://t.org/ns#");
        let xml = s2s_rdf::rdfxml::serialize(&g, &prefixes);
        let g2 = s2s_rdf::rdfxml::parse(&xml).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Model test: any sequence of inserts, removes and bulk extends,
    /// with every read interleaved (so derived indexes are built, used,
    /// dropped and rebuilt at arbitrary points), agrees with a naive
    /// `Vec<Triple>` that is filtered linearly.
    #[test]
    fn graph_agrees_with_naive_vec_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut graph = Graph::new();
        let mut model: Vec<Triple> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(t) => {
                    let fresh = !model.contains(&t);
                    if fresh {
                        model.push(t.clone());
                    }
                    prop_assert_eq!(graph.insert(t), fresh);
                }
                Op::Remove(t) => {
                    let present = model.contains(&t);
                    model.retain(|m| m != &t);
                    prop_assert_eq!(graph.remove(&t), present);
                }
                Op::Extend(ts) => {
                    for t in &ts {
                        if !model.contains(t) {
                            model.push(t.clone());
                        }
                    }
                    graph.extend(ts);
                }
                Op::Read(probe) => check_reads(&graph, &model, &probe)?,
            }
            prop_assert_eq!(graph.len(), model.len());
        }
        check_reads(&graph, &model, &pool_triple(0, 0, 0))?;
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
